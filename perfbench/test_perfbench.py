"""Tests of the benchmark's own code: python3 -m pytest perfbench

The repository's test suite does not collect these (its testpaths is tests/).
"""

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

import oracle
import workloads
from tracing import Tracer, layer_metrics

SRC = Path(__file__).resolve().parent.parent / "src"


def test_semigroup_by_hand():
    s = oracle.semigroup([3, 5])
    assert s["gaps"] == (1, 2, 4, 7) and s["conductor"] == 8 and s["delta"] == 4
    assert s["symmetric"] and s["minimal"] == (3, 5)
    s = oracle.semigroup([4, 9])
    assert s["gaps"] == (1, 2, 3, 5, 6, 7, 10, 11, 14, 15, 19, 23)
    assert s["conductor"] == 24 and s["delta"] == 12 and s["symmetric"]
    s = oracle.semigroup([3, 4, 5])
    assert s["gaps"] == (1, 2) and s["conductor"] == 3 and s["delta"] == 2
    assert not s["symmetric"] and s["minimal"] == (3, 4, 5)
    assert oracle.semigroup([3, 5, 8])["minimal"] == (3, 5)
    assert oracle.semigroup([1, 7])["conductor"] == 0


def _report(**kw):
    base = {"n": 2, "s": 1, "h": 1, "maximal_torsion": False, "gorenstein": False,
            "in_ms": None, "mu_Jmin": 2, "mu_msJ": None}
    base.update(kw)
    return base


def test_verdict_by_hand():
    # the cusp t^2, t^3: h = 1 is below C(3, 1) * 1/2 = 3/2
    assert oracle.expected_verdict(_report(maximal_torsion=True, gorenstein=True)) == (
        "TorsionProven", "R3", Fraction(3, 2), None)
    assert oracle.expected_verdict(_report(n=1, s=None, h=0))[:2] == ("Regular", None)
    assert oracle.expected_verdict(_report(h=0))[:2] == ("TorsionProven", "R1")
    assert oracle.expected_verdict(_report(h=5, maximal_torsion=True))[1] == "R2"
    assert oracle.expected_verdict(_report(h=3, gorenstein=True))[1] == "R5"
    assert oracle.expected_verdict(_report(h=5, in_ms=False))[1] == "R6"
    assert oracle.expected_verdict(_report(h=5, mu_Jmin=1))[1] == "R7"
    # n = 3, s = 2: binomial bound 20/3, refined bound 14/3 + 1 + 6/3 = 23/3
    r8 = _report(n=3, s=2, h=7, in_ms=True, mu_Jmin=3, mu_msJ=6)
    assert oracle.expected_verdict(r8) == ("TorsionProven", "R8", Fraction(20, 3), Fraction(23, 3))
    # n = 4, s = 1: binomial bound 5/2, refined bound 3/2 + 1 + 0 = 5/2
    none = _report(n=4, s=1, h=10, in_ms=True, mu_Jmin=4, mu_msJ=0)
    assert oracle.expected_verdict(none) == ("Inconclusive", None, Fraction(5, 2), Fraction(5, 2))


def test_realizer_check_by_hand():
    cusp = [{2: Fraction(1)}, {3: Fraction(1)}]
    assert oracle.realizer_problems(cusp, {1: Fraction(1)}, 2) == []
    assert len(oracle.realizer_problems(cusp, {0: Fraction(1)}, 2)) == 1


def test_generators_are_deterministic():
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 5), workloads.generate(name, 5)
        assert a == b, name
        assert [i["gens"] for i in a] != [i["gens"] for i in workloads.generate(name, 6)], name


def test_corpus_shapes():
    assert len(workloads.survey(3)) == workloads.SURVEY_COUNT
    ladder = set(workloads.MONOMIAL_LADDER)
    tuples = workloads.monomial_tuples(3)
    assert ladder <= set(tuples) and len(tuples) == len(ladder) + sum(workloads.MONOMIAL_PER_COUNT.values())
    assert not set(tuples) & workloads.FAILING_RANDOM_PAIRS
    kinds = [i["ideal"]["kind"] for i in workloads.deep(3)]
    assert {k: kinds.count(k) for k in set(kinds)}.keys() == {"maximal", "normalization", "shifted"}


def test_traced_cli_run():
    sys.path.insert(0, str(SRC))
    import branchinv.cli
    branch = Path(__file__).resolve().parent / "out" / "cusp-test.branch"
    branch.parent.mkdir(exist_ok=True)
    branch.write_text("t^2\nt^3\n", encoding="utf-8")
    original = branchinv.cli.main
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert branchinv.cli.main(["analyze", str(branch), "--json"]) == 0
    finally:
        tracer.uninstall()
    assert branchinv.cli.main is original
    m = layer_metrics(tracer.spans)
    assert m["branch.ring_closures"] == 2  # one attempt and its 2N verification
    assert m["branch.analysis_yield"] == 1.0 and m["branch.verify_s"] > 0
    assert m["branch.truncation_max"] == 128
    assert m["differentials.compute_s"] > 0 and m["ideals.inverse_calls"] >= 1
