"""Time buchberger_basis and lead terms on cone-curve ideals I_X + (g_1, g_2).

I_X is the quadric cone xw - yz or the Fermat cubic surface
x^3 + y^3 + z^3 + w^3 over F_32003, and g_1, g_2 are the seeded-random
dense degree-m forms that `cone-curve --seed S` draws first.  This is the
Gröbner basis that `cone-curve` reads its Hilbert-series certificate
from.  Each case prints the best of a few wall times of
`buchberger_basis` (the reduced basis, tail pass included) and of a
fresh `Ideal(ring, gens).lead_exponents()` (the `leads` column: the
minimal basis that `cone-curve` reads, with no tail pass), then the
number of elements of the reduced basis and its total term count.

Usage:
    python benchmarks/bench_gb.py [--ms 6,8,10] [--seed 1] [--repeat 3]
"""

import argparse
import time

from hfstrata import PrimeField, RingContext
from hfstrata.groebner import Ideal, buchberger_basis
from hfstrata.strata import random_forms

P = 32003


def surfaces():
    ring = RingContext(("x", "y", "z", "w"), PrimeField(P))
    x, y, z, w = (ring.variable(i) for i in range(4))
    return ring, {
        "quadric cone": [x * w - y * z],
        "Fermat cubic": [x * x * x + y * y * y + z * z * z + w * w * w],
    }


def best_of(repeat, fn):
    """(last result, best wall time) of `repeat` calls of fn."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ms", default="6,8,10")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    ring, cases = surfaces()
    print(f"p = {P}, seed = {args.seed}, repeat = {args.repeat} (best of)")
    print(
        f"{'surface':>13} {'m':>3} {'buchberger_basis':>17} {'leads':>8} "
        f"{'elements':>9} {'terms':>7}"
    )
    for name, gens in cases.items():
        for m in (int(t) for t in args.ms.split(",")):
            ideal_gens = gens + list(random_forms(ring, m, 2, args.seed))
            gb, best = best_of(args.repeat, lambda: buchberger_basis(ring, ideal_gens))
            _, leads = best_of(args.repeat, lambda: Ideal(ring, ideal_gens).lead_exponents())
            terms = sum(len(g.terms) for g in gb)
            print(f"{name:>13} {m:>3} {best:>16.3f}s {leads:>7.3f}s {len(gb):>9} {terms:>7}")


if __name__ == "__main__":
    main()
