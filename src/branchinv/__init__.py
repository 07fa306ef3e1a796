"""Exact invariants of parametrized curve branches.

Given polynomials x_1(t), ..., x_n(t) with positive valuation, the package
analyzes the complete local domain R = k[[x_1(t), ..., x_n(t)]] inside k[[t]]
with exact rational arithmetic: value semigroup, conductor, delta invariant,
the derivative module and its minimal realized colength h, trace ideals, and
a torsion verdict for Berger's conjecture assembled from every criterion the
computed invariants support.
"""

__version__ = "0.1.0"

from .berger import Verdict, main_bound, refined_bound, verdict
from .branch import BranchSpec, RingData, analyze
from .differentials import DifferentialData, compute, derivative_module
from .echelon import EchelonBasis, close_under, quotient_dim
from .ideals import (
    FractionalIdeal,
    InverseData,
    colength_in_normalization,
    conductor_ideal,
    from_generators,
    h_invariant,
    inverse,
    min_generators,
    normalization_ideal,
    product,
    realizes_itself,
    trace,
)
from .semigroup import SemigroupData, sieve
from .series import INF, TruncatedSeries, parse_poly

__all__ = [
    "BranchSpec",
    "DifferentialData",
    "EchelonBasis",
    "FractionalIdeal",
    "INF",
    "InverseData",
    "RingData",
    "SemigroupData",
    "TruncatedSeries",
    "Verdict",
    "analyze",
    "close_under",
    "colength_in_normalization",
    "compute",
    "conductor_ideal",
    "derivative_module",
    "from_generators",
    "h_invariant",
    "inverse",
    "main_bound",
    "min_generators",
    "normalization_ideal",
    "parse_poly",
    "product",
    "quotient_dim",
    "realizes_itself",
    "refined_bound",
    "sieve",
    "trace",
    "verdict",
]
