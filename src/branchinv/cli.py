"""Command-line front end.

Subcommands::

    branchinv analyze <file> [--json] [--truncation N] [--max-truncation M]
                             [--no-verify] [--ideal <file>]
    branchinv semigroup <a1> <a2> ... [--json]

Branch files hold one generator expression per line; blank lines and lines
starting with '#' are ignored, and an optional ``name: <label>`` header names
the branch.  Ideal files use the same layout plus an optional ``shift: k``
header: every generator is multiplied by t^(-k), which is how elements with
negative valuation are written.

Exit codes:

    0   the analysis completed (whatever the verdict)
    2   input error: unreadable file, parse error (parentheses nest at most
        100 deep), invalid or imprimitive parametrization, a zero ideal
        generator, ``--truncation`` < 1
    3   no certified analysis fits under ``--max-truncation`` (default 4096);
        the cap holds for the first truncation, every retry (the last try is
        the cap, with or without ``--no-verify``), the truncation reported
        (the one the derivative module's report asks for), and the extent of
        an ``--ideal``'s closures, c + max(vmin, c) + e + 1.  A generator of
        degree past (M - 16)/4, where the default first truncation
        4*degree + 16 passes the cap, is refused unexpanded, whatever
        ``--truncation`` and ``--no-verify`` say.  An ``--ideal``
        generator of degree past M + k, under ``shift: k`` with k >= 0, or
        past M, with k < 0, is refused unexpanded as well: no ideal closure
        reads at or past M
    4   two independent routes to the same quantity disagreed
        (``InternalInconsistency``); no results are reported
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .berger import RULES, Verdict, verdict
from .branch import DEFAULT_MAX_TRUNCATION, BranchSpec, RingData, analyze
from .differentials import DifferentialData, compute
from .errors import (
    BranchInvError,
    DegreeLimitExceeded,
    GcdNotOne,
    InternalInconsistency,
    NotAnIntegralIdeal,
    ParseError,
    TruncationExhausted,
)
from .ideals import from_generators, h_invariant, inverse, realizes_itself, trace
from .semigroup import sieve
from .series import TruncatedSeries, parse_poly


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------


def _read_lines(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def read_branch_file(path: str, max_truncation: int | None = None) -> BranchSpec:
    """The branch in a file.

    Under a truncation cap, a generator of degree past (cap - 16)/4, whose
    default first truncation 4*degree + 16 passes the cap, is refused before
    it is expanded.  The limit holds whatever truncation a run starts from,
    so that no dense generator near the cap is expanded and then closed at
    the cap.
    """
    max_degree = None if max_truncation is None else (max_truncation - 16) // 4
    name = None
    exprs = []
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().startswith("name:"):
            name = line.split(":", 1)[1].strip()
            continue
        try:
            exprs.append(parse_poly(line, max_degree))
        except ParseError as exc:
            exc.args = (f"{path}:{lineno}: {exc}",)  # its text ends in the position
            raise
        except DegreeLimitExceeded as exc:
            raise TruncationExhausted(
                f"{path}:{lineno}: generator degree {exc.degree} needs truncation at least "
                f"{4 * exc.degree + 16}, above the cap {max_truncation} "
                f"(at position {exc.position})"
            ) from None
    if not exprs:
        raise BranchInvError(f"{path}: no generator lines found")
    return BranchSpec(tuple(exprs), name=name)


def read_ideal_file(path: str, max_truncation: int | None = None) -> tuple[int, list, str | None]:
    """The shift and generators of an ideal file, and its name.

    Under a truncation cap M, a generator of degree past M + max(shift, 0)
    is refused before it is expanded.  Past M + shift, its terms lie at or
    past M after the shift, where no ideal closure reads; a negative shift
    keeps the limit at M, so that a generator the shift carries past the cap
    meets the room check on vmin instead.
    """
    name = None
    shift = 0
    lines = []
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        low = line.lower()
        if low.startswith("name:"):
            name = line.split(":", 1)[1].strip()
            continue
        if low.startswith("shift:"):
            try:
                shift = int(line.split(":", 1)[1].strip())
            except ValueError:
                raise BranchInvError(f"{path}:{lineno}: shift header needs an integer") from None
            continue
        lines.append((lineno, line))
    # the shift header may follow the generators it applies to
    max_degree = None if max_truncation is None else max_truncation + max(shift, 0)
    exprs = []
    for lineno, line in lines:
        try:
            expr = parse_poly(line, max_degree)
        except ParseError as exc:
            exc.args = (f"{path}:{lineno}: {exc}",)
            raise
        except DegreeLimitExceeded as exc:
            raise TruncationExhausted(
                f"{path}:{lineno}: generator degree {exc.degree} is above {max_degree}: after "
                f"the shift {shift} it passes the cap {max_truncation} (at position {exc.position})"
            ) from None
        if expr.is_zero():
            raise BranchInvError(f"{path}:{lineno}: an ideal generator must be nonzero")
        exprs.append(expr)
    if not exprs:
        raise BranchInvError(f"{path}: no generator lines found")
    return shift, exprs, name


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _rat(x) -> dict | None:
    if x is None:
        return None
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def _series_json(f: TruncatedSeries) -> dict:
    return {
        "offset": f.offset,
        "coeffs": [{"num": c.numerator, "den": c.denominator} for c in f.coeffs],
    }


def _bounds_json(bounds: dict) -> dict:
    out = {}
    for key, val in bounds.items():
        if isinstance(val, Fraction):
            out[key] = _rat(val)
        else:
            out[key] = val
    return out


def build_report(diff: DifferentialData, vd: Verdict, truncation: int,
                 ideal_section: dict | None = None) -> dict:
    report = {
        "name": diff.ring.name,
        "generators": [str(g) for g in diff.ring.spec.generators],
        "truncation": truncation,
        "stable": diff.ring.stable,
        "n": diff.ring.embdim_n,
        "s": diff.ring.order_s,
        "delta": diff.ring.delta,
        "conductor": diff.ring.conductor_c,
        "gaps": list(diff.ring.gaps),
        "gorenstein": diff.ring.gorenstein,
        "vD": diff.v_D,
        "lambda_D": diff.lambda_D,
        "v_Dinv": diff.v_Dinv,
        "alpha": _series_json(diff.alpha),
        "h": diff.h_omega,
        "maximal_torsion": diff.maximal_torsion,
        "in_ms": diff.in_ms,
        "mu_Jmin": diff.mu_Jmin,
        "mu_msJ": diff.mu_msJ,
        "verdict": {
            "status": vd.status,
            "rule": vd.rule,
            "bounds": _bounds_json(vd.bounds),
        },
        "version": __version__,
    }
    if ideal_section is not None:
        report["ideal"] = ideal_section
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2)


def _fmt_bound(x) -> str:
    if x is None:
        return "-"
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def render_text(report: dict) -> str:
    lines = []
    name = report["name"] or "(unnamed branch)"
    lines.append(f"branch: {name}")
    lines.append("generators:")
    for g in report["generators"]:
        lines.append(f"    {g}")
    stab = "verified by closure certificate" if report["stable"] else "not verified (--no-verify)"
    lines.append(f"truncation: t^{report['truncation']} ({stab})")
    lines.append(f"embedding dimension n = {report['n']}, order s = {report['s']}")
    lines.append(f"value semigroup gaps: {report['gaps']}  (delta = {report['delta']})")
    lines.append(f"conductor exponent c = {report['conductor']}")
    lines.append(f"gorenstein: {report['gorenstein']} (via semigroup symmetry)")
    lines.append(
        f"derivative module: v(D) = {report['vD']}, lambda(R_bar/D) = {report['lambda_D']}, "
        f"v(D^-1) = {report['v_Dinv']}"
    )
    alpha = report["alpha"]
    terms = {
        alpha["offset"] + j: Fraction(c["num"], c["den"])
        for j, c in enumerate(alpha["coeffs"])
    }
    lines.append(f"realizer alpha = {TruncatedSeries.from_terms(terms)}")
    lines.append(f"h = {report['h']}   (maximal torsion: {report['maximal_torsion']})")
    in_ms = "-" if report["in_ms"] is None else report["in_ms"]
    mu_msj = "-" if report["mu_msJ"] is None else report["mu_msJ"]
    lines.append(
        f"realized copy: mu = {report['mu_Jmin']}, inside m^s: {in_ms}, "
        f"mu(m^s/J) = {mu_msj}"
    )
    vd = report["verdict"]
    lines.append(f"verdict: {vd['status']}" + (f" via {vd['rule']}" if vd["rule"] else ""))
    if vd["rule"]:
        desc, src = RULES[vd["rule"]]
        lines.append(f"    {desc} [{src}]")
    b = vd["bounds"]

    def unrat(x):
        return Fraction(x["num"], x["den"]) if isinstance(x, dict) else x

    lines.append(
        f"    bounds: h = {_fmt_bound(unrat(b['h']))}, "
        f"binomial bound = {_fmt_bound(unrat(b['main_bound']))}, "
        f"refined bound = {_fmt_bound(unrat(b['refined_bound']))}"
    )
    if "ideal" in report:
        sec = report["ideal"]
        lines.append(f"ideal ({sec['path']}):")
        lines.append(f"    vmin = {sec['vmin']}, h = {sec['h']}, v(I^-1) = {sec['v_inverse']}")
        lines.append(f"    trace value-set gaps: {sec['trace_gaps']} (from {sec['trace_vmin']})")
        lines.append(f"    realizes itself: {sec['realizes_itself']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


# The truncation the report prints, which tests/golden/ pins: keep it as is.
# No computation reads it; the ring is analyzed and verified at its own
# truncation, which is never larger.
def required_truncation(ring: RingData) -> int:
    c = ring.conductor_c
    maxdeg = ring.spec.max_degree()
    need = 2 * c + maxdeg + 32
    if ring.order_s is not None:
        need = max(need, c + (ring.order_s + 2) * ring.multiplicity + maxdeg + 2)
    return max(ring.truncation, need)


def _ideal_section(ring: RingData, path: str, max_truncation: int) -> dict:
    shift, exprs, _name = read_ideal_file(path, max_truncation)
    gens = tuple(e.shift(-shift) for e in exprs)
    # I's closure runs to c + vmin + e, and the trace's to c + vmin + v(I^-1)
    # + e, where v(I^-1) <= c - vmin: the cap bounds both
    vmin = min(int(g.valuation()) for g in gens)
    needed = ring.conductor_c + max(vmin, ring.conductor_c) + ring.multiplicity + 1
    if needed > max_truncation:
        raise TruncationExhausted(
            f"ideal with vmin {vmin} needs truncation {needed}, above the cap {max_truncation}")
    ideal = from_generators(ring, gens)
    inv = inverse(ideal)
    tr = trace(ideal)
    try:
        realizes = realizes_itself(ideal)
    except NotAnIntegralIdeal:
        realizes = None
    return {
        "path": path,
        "shift": shift,
        "vmin": ideal.vmin,
        "h": h_invariant(ideal),
        "v_inverse": inv.v_inverse,
        "trace_vmin": tr.vmin,
        "trace_gaps": list(tr.basis.gaps_below(tr.membership_bound, tr.vmin)),
        "realizes_itself": realizes,
    }


def cmd_analyze(args) -> int:
    try:
        spec = read_branch_file(args.path, args.max_truncation)
        ring = analyze(
            spec,
            initial_truncation=args.truncation,
            verify_stability=not args.no_verify,
            max_truncation=args.max_truncation,
        )
        truncation = required_truncation(ring)
        if truncation > args.max_truncation:
            raise TruncationExhausted(
                f"truncation {truncation} is above the cap {args.max_truncation}")
        diff = compute(ring)
        vd = verdict(diff)
        ideal_section = (_ideal_section(diff.ring, args.ideal, args.max_truncation)
                         if args.ideal else None)
    except TruncationExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistency as exc:
        print(f"error: internal inconsistency, results withheld: {exc}", file=sys.stderr)
        return 4
    except (BranchInvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = build_report(diff, vd, truncation, ideal_section)
    print(render_json(report) if args.json else render_text(report))
    return 0


def cmd_semigroup(args) -> int:
    try:
        data = sieve(args.generators)
    except GcdNotOne as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({
            "generators": list(data.generators),
            "gaps": list(data.gaps),
            "frobenius": data.frobenius,
            "conductor": data.conductor,
            "delta": data.delta,
            "symmetric": data.symmetric,
        }, indent=2))
    else:
        print(f"semigroup <{', '.join(map(str, data.generators))}>")
        print(f"gaps: {list(data.gaps)}")
        print(f"frobenius: {data.frobenius}")
        print(f"conductor: {data.conductor}")
        print(f"delta: {data.delta}")
        print(f"symmetric: {data.symmetric}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchinv",
        description="Exact invariants and torsion verdicts for parametrized curve branches",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a branch file")
    pa.add_argument("path")
    pa.add_argument("--json", action="store_true", help="machine-readable report")
    pa.add_argument("--truncation", type=int, default=None, metavar="N")
    pa.add_argument("--max-truncation", type=int, default=DEFAULT_MAX_TRUNCATION, metavar="M")
    pa.add_argument("--no-verify", action="store_true", help="skip the closure certificate")
    pa.add_argument("--ideal", default=None, metavar="PATH",
                    help="also analyze a user-supplied fractional ideal")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("semigroup", help="numerical semigroup of positive integers")
    ps.add_argument("generators", type=int, nargs="+")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_semigroup)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
