#!/usr/bin/env python3
"""Cross-check the branch pipeline against the semigroup sieve on random
monomial parametrizations: the gaps, conductor, delta, Gorenstein flag and
embedding dimension (the number of minimal generators of the semigroup).
Exits nonzero on the first disagreement.

Usage: monomial_crosscheck.py [count] [seed]
"""

import pathlib
import random
import sys
from math import gcd

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from branchinv.branch import BranchSpec, analyze
from branchinv.semigroup import sieve


def minimal_generator_count(gens, gaps) -> int:
    """Generators that are no sum of two nonzero semigroup elements."""
    gapset = set(gaps)

    def element(v):
        return v not in gapset

    return sum(not any(element(x) and element(a - x) for x in range(1, a)) for a in gens)


def main(count: int = 200, seed: int = 0) -> int:
    rng = random.Random(seed)
    done = 0
    while done < count:
        n = rng.randint(2, 5)
        gens = sorted(set(rng.randint(2, 40) for _ in range(n)))
        g = 0
        for a in gens:
            g = gcd(g, a)
        if g != 1 or len(gens) < 2:
            continue
        ring = analyze(
            BranchSpec.from_strings([f"t^{a}" for a in gens]),
            verify_stability=False,
        )
        data = sieve(gens)
        embdim = minimal_generator_count(data.generators, data.gaps)
        ok = (ring.gaps == data.gaps
              and ring.conductor_c == data.conductor
              and ring.delta == data.delta
              and ring.gorenstein == data.symmetric
              and ring.embdim_n == embdim)
        if not ok:
            print(f"MISMATCH for {gens}:")
            print(f"  pipeline: c={ring.conductor_c} delta={ring.delta} n={ring.embdim_n} "
                  f"gaps={ring.gaps}")
            print(f"  sieve:    c={data.conductor} delta={data.delta} n={embdim} gaps={data.gaps}")
            return 1
        done += 1
        if done % 50 == 0:
            print(f"{done}/{count} checked")
    print(f"all {count} monomial branches agree with the sieve")
    return 0


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    sys.exit(main(count, seed))
