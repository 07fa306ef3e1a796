"""Spans around branchinv's layers, recorded from outside the package.

`Tracer.install` wraps the module-level functions of each layer module by
name, in every branchinv module that imports them (``close_under`` is bound
in ``echelon``, ``branch``, ``ideals`` and the package itself), plus
``EchelonBasis.member``.  No file of the program changes.  Spans stay in
memory; `write_jsonl` writes them when the run ends and `layer_metrics`
turns them into the per-layer totals.

A span is a list [name, start, end, parent span id, item id, info]; info
holds what the arguments and the result say about the call (the truncation
N of an analysis, whether a closure is seeded with 1, the rows it returned,
or the exception that ended it).  Time spent computing info is taken off the
tracer's clock, so it shows in the traced run's overhead, not in any span.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("series", "echelon", "branch", "ideals", "differentials", "berger", "cli")

# Private functions that carry a stage with no public entry point.  The other
# private helpers are inner loops (row elimination, coefficient conversion)
# whose call counts run to millions; wrapping them would bury the program in
# tracing overhead.
PRIVATE = {"branch._analyze_at", "ideals._reduction_columns", "cli._ideal_section"}

# Methods traced alongside the module-level functions.
METHODS = (("echelon", "EchelonBasis", "member"),)


def _max_bits(basis) -> int:
    return max((abs(a).bit_length() for row in basis._rows.values() for a in row.values()),
               default=0)


def _is_one(f) -> bool:
    return f.offset == 0 and f.coeffs == (1,)


def _describe(name: str, args: tuple, result) -> dict:
    if name == "branch._analyze_at":
        return {"N": args[2]}
    if name == "branch.m_power_basis":
        return {"d": args[1]}
    if name == "branch.ensure_truncation":
        return {"have": args[0].truncation, "needed": args[1]}
    if name == "echelon.close_under":
        seed = list(args[0])
        info = {"seed_one": len(seed) == 1 and _is_one(seed[0])}
        if result is not None:
            info.update(rows=len(result), max_bits=_max_bits(result))
        return info
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: str | None = None
        self.paused = 0.0
        self._restore: list[tuple] = []

    def clock(self) -> float:
        return perf_counter() - self.paused

    def _close(self, rec: list, args: tuple, result, outcome: str):
        rec[2] = self.clock()
        self.stack.pop()
        t0 = perf_counter()
        info = _describe(rec[0], args, result)
        if outcome != "ok":
            info["outcome"] = outcome
        rec[5] = info
        self.paused += perf_counter() - t0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.item, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(rec, args, None, type(exc).__name__)
                raise
            self._close(rec, args, result, "ok")
            return result

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"branchinv.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in PRIVATE)):
                    wrappers[obj] = self.wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "branchinv" and not modname.startswith("branchinv."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"branchinv.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        child_time = defaultdict(float)
        for name, start, end, parent, item, info in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, item, info) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "self": end - start - child_time[sid], "parent": parent, "item": item}
                rec.update(info or {})
                fh.write(json.dumps(rec) + "\n")


#: per-layer metric name -> unit
UNITS = {
    "series.parse_s": "s",
    "cli.report_s": "s",
    "berger.verdict_s": "s",
    "branch.ring_closure_s": "s",
    "branch.ring_closures": "count",
    "branch.analysis_yield": "ratio",
    "branch.order_ladder_s": "s",
    "branch.mpow_closures": "count",
    "branch.verify_s": "s",
    "branch.reanalysis_s": "s",
    "branch.truncation_max": "count",
    "differentials.compute_s": "s",
    "differentials.realized_copy_s": "s",
    "differentials.inverse_s": "s",
    "ideals.closure_s": "s",
    "ideals.closures": "count",
    "ideals.inverse_s": "s",
    "ideals.inverse_calls": "count",
    "ideals.trace_s": "s",
    "ideals.h_invariant_s": "s",
    "ideals.min_generators_s": "s",
    "echelon.close_under_s": "s",
    "echelon.close_under_calls": "count",
    "echelon.rows_built": "count",
    "echelon.max_row_bits": "bits",
    "echelon.quotient_dim_s": "s",
    "echelon.member_s": "s",
    "echelon.member_calls": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over one traced pass (see the README's table)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        by_name[span[0]].append(sid)
        if span[3] is not None:
            children[span[3]].append(sid)

    def dur(sid):
        return spans[sid][2] - spans[sid][1]

    def total(ids):
        return sum(dur(s) for s in ids)

    def named(name):
        return by_name.get(name, [])

    def parent_name(sid):
        p = spans[sid][3]
        return None if p is None else spans[p][0]

    def kids(sid, name):
        return [k for k in children[sid] if spans[k][0] == name]

    attempts = named("branch._analyze_at")
    closures = named("echelon.close_under")
    ring_closures = [s for s in closures
                     if spans[s][5].get("seed_one") and parent_name(s) == "branch._analyze_at"]
    verify = []
    for a in named("branch.analyze"):
        tries = kids(a, "branch._analyze_at")
        ok = [i for i, s in enumerate(tries) if "outcome" not in spans[s][5]]
        if ok:
            verify += tries[ok[0] + 1:]  # the first certified attempt ends the retry loop
    realized = []
    for c in named("differentials.compute"):
        realized += kids(c, "ideals.from_generators")[1:]  # [t^c D], J_min, m^s union
        realized += kids(c, "ideals.min_generators")
    traces = named("ideals.trace") + [s for s in named("ideals.product")
                                      if parent_name(s) != "ideals.trace"]
    members = named("echelon.EchelonBasis.member")
    return {
        "series.parse_s": total(named("series.parse_poly")),
        "cli.report_s": total(named("cli.build_report") + named("cli.render_json")
                              + named("cli.render_text")),
        "berger.verdict_s": total(named("berger.verdict")),
        "branch.ring_closure_s": total(ring_closures),
        "branch.ring_closures": len(ring_closures),
        "branch.analysis_yield": (sum("outcome" not in spans[s][5] for s in attempts)
                                  / max(len(attempts), 1)),
        "branch.order_ladder_s": total(named("branch.order_s")),
        "branch.mpow_closures": sum(parent_name(s) == "branch.m_power_basis" for s in closures),
        "branch.verify_s": total(verify),
        "branch.reanalysis_s": total(s for s in named("branch.ensure_truncation")
                                     if kids(s, "branch.analyze")),
        "branch.truncation_max": max((spans[s][5]["N"] for s in attempts), default=0),
        "differentials.compute_s": total(named("differentials.compute")),
        "differentials.realized_copy_s": total(realized),
        "differentials.inverse_s": total(s for s in named("ideals.inverse")
                                         if parent_name(s) == "differentials.compute"),
        "ideals.closure_s": total(named("ideals.from_generators")),
        "ideals.closures": len(named("ideals.from_generators")),
        "ideals.inverse_s": total(named("ideals.inverse")),
        "ideals.inverse_calls": len(named("ideals.inverse")),
        "ideals.trace_s": total(traces),
        "ideals.h_invariant_s": total(named("ideals.h_invariant")),
        "ideals.min_generators_s": total(named("ideals.min_generators")),
        "echelon.close_under_s": total(closures),
        "echelon.close_under_calls": len(closures),
        "echelon.rows_built": sum(spans[s][5].get("rows", 0) for s in closures),
        "echelon.max_row_bits": max((spans[s][5].get("max_bits", 0) for s in closures), default=0),
        "echelon.quotient_dim_s": total(named("echelon.quotient_dim")),
        "echelon.member_s": total(members),
        "echelon.member_calls": len(members),
    }
