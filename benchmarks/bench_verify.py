"""Time verify_prop31 on rational normal curves at growing truncation degrees.

The rational normal curve of degree n is cut out by the 2x2 minors of the
2 x n Hankel matrix in n + 1 variables (n = 3: the twisted cubic).  Each
case builds a fresh ideal, so no Gröbner basis or Betti table is cached
between runs, and prints the best of a few wall times with the report's
overall verdict.

Usage:
    python benchmarks/bench_verify.py [--cases 3:8,3:12,4:5,4:6,5:4,6:4] [--repeat 1]

Each case is `n:m`, the curve degree and the truncation degree.
"""

import argparse
import time

from hfstrata import Ideal, PrimeField, RingContext
from hfstrata.strata import verify_prop31

P = 32003
NAMES = "abcdefghij"


def rational_normal_curve(n):
    """2x2 minors of the Hankel matrix [[v_0 .. v_{n-1}], [v_1 .. v_n]]."""
    ring = RingContext(tuple(NAMES[: n + 1]), PrimeField(P))
    v = [ring.variable(i) for i in range(n + 1)]
    return Ideal(ring, [v[i] * v[j + 1] - v[i + 1] * v[j] for i in range(n) for j in range(i + 1, n)])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", default="3:8,3:12,4:5,4:6,5:4,6:4")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()

    print(f"p = {P}, repeat = {args.repeat} (best of)")
    print(f"{'curve':>8} {'m':>3} {'verify_prop31':>14} {'ok':>5}")
    for token in args.cases.split(","):
        n, m = (int(x) for x in token.split(":"))
        best, ok = float("inf"), None
        for _ in range(args.repeat):
            ideal = rational_normal_curve(n)
            t0 = time.perf_counter()
            ok = verify_prop31(ideal, m).all_ok()
            best = min(best, time.perf_counter() - t0)
        print(f"{'RNC ' + str(n):>8} {m:>3} {best:>13.2f}s {str(ok):>5}")


if __name__ == "__main__":
    main()
