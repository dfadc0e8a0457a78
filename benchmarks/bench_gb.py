"""Time the Gröbner bases of cone-curve ideals I_X + (g_1, g_2).

I_X is the quadric cone xw - yz or the Fermat cubic surface
x^3 + y^3 + z^3 + w^3 over F_p (p = 32003 unless --p says otherwise),
and g_1, g_2 are the seeded-random dense degree-m forms that
`cone-curve --seed S` draws first.  Each case prints the best of a few
times of three calls, each on fresh ideals:

* `buchberger_basis` of I_X + (g_1, g_2): the reduced basis, tail pass
  included;
* `leads`: `Ideal(ring, gens).lead_exponents()`, one plain Buchberger
  run for the minimal basis, with no tail pass;
* `certificate`: `is_regular_sequence(I_X, (g_1, g_2))`, the path
  `cone-curve` takes: it adds the forms one at a time, each run with
  the Hilbert floor of the ideal before it, and compares Hilbert series;

then the number of elements of the reduced basis and its total term
count.

Each time is given twice: wall seconds, and reference seconds (`ref`),
the wall time corrected for the host's speed by perfbench's
`SpeedSampler` (perfbench/speed.py), so that runs on a shared host
whose speed drifts, or on different hosts, compare.

Usage:
    python benchmarks/bench_gb.py [--ms 6,8,10] [--seed 1] [--repeat 3] [--p 32003]
"""

import argparse
import sys
from pathlib import Path

from hfstrata import PrimeField, RingContext
from hfstrata.groebner import Ideal, buchberger_basis
from hfstrata.strata import is_regular_sequence, random_forms

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from speed import SpeedSampler  # noqa: E402


def surfaces(p):
    ring = RingContext(("x", "y", "z", "w"), PrimeField(p))
    x, y, z, w = (ring.variable(i) for i in range(4))
    return ring, {
        "quadric cone": [x * w - y * z],
        "Fermat cubic": [x * x * x + y * y * y + z * z * z + w * w * w],
    }


def best_of(repeat, fn):
    """(last result, best wall seconds, best reference seconds) of
    `repeat` calls of fn, each timed under its own SpeedSampler."""
    wall = ref = float("inf")
    for _ in range(repeat):
        with SpeedSampler() as speed:
            t0 = speed.clock()
            result = fn()
            t1 = speed.clock()
        wall = min(wall, t1 - t0)
        ref = min(ref, speed.ref_seconds(t0, t1))
    return result, wall, ref


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ms", default="6,8,10")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--p", type=int, default=32003)
    args = parser.parse_args()

    ring, cases = surfaces(args.p)
    print(f"p = {args.p}, seed = {args.seed}, repeat = {args.repeat} (best of)")
    print(
        f"{'surface':>13} {'m':>3} {'buchberger_basis':>17} {'ref':>8} "
        f"{'leads':>8} {'ref':>8} {'certificate':>12} {'ref':>8} {'elements':>9} {'terms':>7}"
    )
    for name, gens in cases.items():
        for m in (int(t) for t in args.ms.split(",")):
            forms = list(random_forms(ring, m, 2, args.seed))
            ideal_gens = gens + forms
            gb, wall, ref = best_of(args.repeat, lambda: buchberger_basis(ring, ideal_gens))
            _, leads, leads_ref = best_of(
                args.repeat, lambda: Ideal(ring, ideal_gens).lead_exponents()
            )
            _, cert, cert_ref = best_of(
                args.repeat, lambda: is_regular_sequence(Ideal(ring, gens), forms)
            )
            terms = sum(len(g.terms) for g in gb)
            print(
                f"{name:>13} {m:>3} {wall:>16.3f}s {ref:>7.3f}s {leads:>7.3f}s "
                f"{leads_ref:>7.3f}s {cert:>11.3f}s {cert_ref:>7.3f}s {len(gb):>9} {terms:>7}"
            )

if __name__ == "__main__":
    main()
