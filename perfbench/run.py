#!/usr/bin/env python3
"""Benchmark of branchinv: four seeded workloads, checked and timed.

    python3 perfbench/run.py --workload survey|plane|monomial|deep|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  It writes the inputs, a worker's results
and any trace under perfbench/out/, then prints every metric by name with its
unit, the operations attempted and failed, and as its last line one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics (wall_s, item_p50_s, peak_rss_mb,
setup_s).  --trace 1 reports the per-layer metrics from a separate traced
pass, and writes its spans to perfbench/out/trace-<workload>-<seed>.jsonl.
See perfbench/README.md for the workloads and how each metric is measured.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# keep this process's bytecode out of the source tree as well
sys.pycache_prefix = str(OUT / "pycache")

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import UNITS  # noqa: E402

# Child interpreters: isolated from the user's environment and without site
# processing, which is the interpreter's start-up, not branchinv's; bytecode
# is cached under out/ so that no start but the first compiles anything.
CHILD = [sys.executable, "-I", "-S", "-X", f"pycache_prefix={OUT / 'pycache'}"]

# Fresh starts timed before each pass and after the last; setup_s is their
# median.
SETUP_STARTS = 6

# A run must end within this many seconds, whatever the workload.
RUN_LIMIT = 175


def write_inputs(workload: str, items: list[dict]) -> Path:
    """Branch and ideal files for the items, and the worker's manifest."""
    folder = OUT / "inputs" / workload
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    manifest = []
    for item in items:
        lines = [workloads.poly_text(p) for p in item["gens"]]
        branch = folder / f"{item['id']}.branch"
        branch.write_text(f"name: {item['id']}\n" + "\n".join(lines) + "\n", encoding="utf-8")
        ideal_file = ""
        if item["ideal"] is not None:
            ideal = item["ideal"]
            head = f"shift: {ideal['shift']}\n" if ideal["shift"] else ""
            path = folder / f"{item['id']}.ideal"
            path.write_text(head + "\n".join(workloads.poly_text(p) for p in ideal["gens"]) + "\n",
                            encoding="utf-8")
            ideal_file = str(path)
        manifest.append({"id": item["id"], "path": item["path"], "branch_file": str(branch),
                         "ideal_file": ideal_file, "strings": lines})
    path = OUT / f"manifest-{workload}.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def check(items: list[dict], outputs: list) -> tuple[list[tuple[str, str]], dict]:
    """Failed items and, for the rest, every problem the oracle finds."""
    failed, problems = [], {}
    for item, (code, text) in zip(items, outputs):
        if code != 0:
            failed.append((item["id"], text.strip().splitlines()[-1] if text.strip() else ""))
            continue
        report = json.loads(text)
        found = (oracle.report_problems(item, report) if item["path"] == "cli"
                 else oracle.ring_problems(item, report))
        if found:
            problems[item["id"]] = found
    return failed, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    items = workloads.generate(workload, seed)
    manifest = write_inputs(workload, items)
    results = OUT / f"results-{workload}.json"
    trace_path = OUT / f"trace-{workload}-{seed}.jsonl" if trace else ""
    budget = RUN_LIMIT - (time.perf_counter() - started)
    proc = subprocess.run(CHILD + [str(HERE / "worker.py"), str(manifest), str(results),
                                   str(seconds), str(trace_path), str(0 if trace else SETUP_STARTS)],
                          cwd=ROOT, capture_output=True, text=True, timeout=budget)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    res = json.loads(results.read_text(encoding="utf-8"))
    passes = res["passes"]

    failed_items, problems = check(items, res["outputs"])
    if trace:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in res["layers"].items()}
    else:
        per_item = [statistics.median(p["times"][i] for p in passes) for i in range(len(items))]
        metrics = {
            "wall_s": {"value": statistics.median(p["wall"] for p in passes), "unit": "s"},
            "item_p50_s": {"value": statistics.median(per_item), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(res["setup"]), "unit": "s"},
        }
    result = {
        "correct": not problems and res["mismatched"] == 0,
        "attempted": len(items) * len(passes),
        "failed": sum(p["failed"] for p in passes),
    }

    print(f"== {workload} (seed {seed}, {len(items)} items, {len(passes)} passes"
          f"{', the last traced' if trace else ''})")
    for name, m in metrics.items():
        print(f"{workload}  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{workload}  attempted {result['attempted']}, failed {result['failed']}")
    for item_id, why in failed_items:
        print(f"{workload}  failed {item_id}: {why}")
    for item_id, found in problems.items():
        for p in found:
            print(f"{workload}  WRONG {item_id}: {p}")
    if res["mismatched"]:
        print(f"{workload}  WRONG: {res['mismatched']} outputs changed between passes")
    return {**result, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "branchinv" / "__init__.py").is_file():
        print(f"error: no branchinv sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
