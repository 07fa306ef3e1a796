"""Shared analyzed branches; session-scoped because analysis is pure."""

import random

import pytest

from branchinv.branch import BranchSpec, analyze
from branchinv.cli import required_truncation
from branchinv.differentials import compute
from branchinv.echelon import EchelonBasis


def perturb_verification(monkeypatch):
    """Make the closure certificate of a run see the ring's basis with one
    coefficient of one stored row changed, at a gap key."""
    import branchinv.branch

    certify = branchinv.branch._certify_closure

    def perturbed(basis, gens):
        rows = basis._rows
        v = min(v for v, row in rows.items() if len(row) > 1)
        k = max(rows[v])  # a key of a fully reduced row past its pivot is a gap
        return certify(change_coefficient(basis, v, k, 1), gens)

    monkeypatch.setattr(branchinv.branch, "_certify_closure", perturbed)


def record_certificates(monkeypatch):
    """The truncations of the bases the closure certificate checks, in order."""
    import branchinv.branch

    certified = []
    certify = branchinv.branch._certify_closure

    def recording(basis, gens):
        certified.append(basis.truncation)
        return certify(basis, gens)

    monkeypatch.setattr(branchinv.branch, "_certify_closure", recording)
    return certified


def change_coefficient(basis, v, k, delta):
    """The basis with `delta` added to the coefficient at key k of its row v."""
    row = basis._rows[v]
    rows = {**basis._rows, v: {**row, k: row.get(k, 0) + delta}}
    return EchelonBasis(basis.truncation, rows, basis.tail_from)


def at(basis, truncation):
    """A tailed basis relabeled at another truncation above its tail: its
    stored rows lie below the tail, so they are the same at every such N."""
    return EchelonBasis(truncation, basis._rows, basis.tail_from)


@pytest.fixture(scope="session")
def line():
    return analyze(BranchSpec.from_strings(["t"], name="line"))


@pytest.fixture(scope="session")
def cusp():
    return analyze(BranchSpec.from_strings(["t^2", "t^3"], name="cusp"))


@pytest.fixture(scope="session")
def t345():
    return analyze(BranchSpec.from_strings(["t^3", "t^4", "t^5"], name="t345"))


@pytest.fixture(scope="session")
def plane49():
    return analyze(BranchSpec.from_strings(["t^4+t^5", "t^9"], name="plane49"))


@pytest.fixture(scope="session")
def embdim7():
    texts = ["t^8+t^9", "64*t^10 - 81*t^12", "8*t^12 - 9*t^13",
             "t^14", "t^15", "t^16", "t^17"]
    return analyze(BranchSpec.from_strings(texts, name="embdim7"))


@pytest.fixture(scope="session")
def four_gens():
    return analyze(BranchSpec.from_strings(["t^9", "t^14+t^15", "t^17", "t^29"], name="four_gens"))


@pytest.fixture(scope="session")
def mono_5_6_14():
    return analyze(BranchSpec.from_strings(["t^5", "t^6", "t^14"], name="mono_5_6_14"))


@pytest.fixture(scope="session")
def diff_plane49(plane49):
    return compute(plane49)


@pytest.fixture(scope="session")
def diff_embdim7(embdim7):
    return compute(embdim7)


@pytest.fixture(scope="session")
def diff_four_gens(four_gens):
    return compute(four_gens)


@pytest.fixture(scope="session")
def diff_cusp(cusp):
    return compute(cusp)


def random_primitive_tuples(count, rng, n_max=5, a_max=40):
    """Deterministic stream of primitive generator tuples for monomial branches."""
    from math import gcd

    out = []
    while len(out) < count:
        n = rng.randint(2, n_max)
        gens = sorted(rng.randint(2, a_max) for _ in range(n))
        g = 0
        for a in gens:
            g = gcd(g, a)
        if g != 1:
            continue
        out.append(tuple(dict.fromkeys(gens)))
    return out


def random_branch_texts(count, rng):
    """Deterministic stream of non-monomial branches: each generator t^a of a
    primitive tuple gains a term k*t^(a+j) with probability 1/2."""
    out = []
    for gens in random_primitive_tuples(count, rng, n_max=3, a_max=12):
        texts = []
        for a in gens:
            text = f"t^{a}"
            if rng.random() < 0.5:
                k = rng.choice([-3, -1, 1, 2])
                text += f" {'+' if k > 0 else '-'} {abs(k)}*t^{a + rng.randint(1, 3)}"
            texts.append(text)
        out.append(texts)
    return out


def corpus_specs():
    """Deterministic branch corpus mixing monomial and non-monomial branches."""
    rng = random.Random(20260808)
    specs = [
        ["t^2", "t^3"],
        ["t^3", "t^4", "t^5"],
        ["t^4+t^5", "t^9"],
        ["t^5", "t^6", "t^14"],
        ["t^3", "t^7"],
        ["t^4", "t^6+t^7"],
        ["t^5+t^6", "t^7"],
        ["t^6", "t^9+t^10", "t^11"],
        ["t^3+t^4", "t^5"],
        ["t^4+t^7", "t^5", "t^11"],
    ]
    for gens in random_primitive_tuples(40, rng, n_max=3, a_max=12):
        specs.append([f"t^{a}" for a in gens])
    return specs


@pytest.fixture(scope="session")
def corpus():
    """Analyzed corpus of >= 50 branches with differential data, each at the
    truncation the CLI reports."""
    out = []
    for texts in corpus_specs():
        ring = analyze(BranchSpec.from_strings(texts, name="+".join(texts)),
                       room=required_truncation)
        out.append(compute(ring))
    return out
