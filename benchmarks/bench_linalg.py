"""Benchmark the mod-p elimination kernels on random matrices.

Both kernels run the one forward elimination, `_forward_pivots`.
`rref_inplace` follows it with back-substitution to the reduced row
echelon form, for callers that read its rows; `rank` runs it after
peeling singleton rows, for callers that read only a rank or pivot
columns.  This times both on the same matrices, and forward elimination
alone (no peel) beside them, best of a few runs per size, prints the
back-substitution's share as `rref_inplace` minus forward, and checks
that all three find the same rank.

Each size is timed on two families: dense rows (density 0.6), where the
peel finds nothing, and the same with half of the rows replaced by
singleton rows on random columns, like the multiples of monomial
generators in the oracle's and the Koszul complex's matrices.

Each prime of `--p` gets its own matrices, and the default covers both
sides of `linalg._lazy`.  The `side` column says whether eliminating the
whole matrix leaves updated rows unreduced (`lazy`: the unreduced sums
fit in int64, as at p = 32003 at every size) or reduces them after
every update (`eager`: at p = 2^31 - 1 from min(m, n) = 3 on).  `rank`
decides on the block the peel leaves.

Usage:
    python benchmarks/bench_linalg.py [--sizes 100x100,300x200] [--repeat 5]
                                      [--p 32003,2147483647]
"""

import argparse
import random
import time

import numpy as np

from hfstrata.linalg import _forward_pivots, _lazy, rank, rref_inplace


def random_matrix(rng, m, n, p, density=0.6, singleton_share=0.0):
    a = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        if rng.random() < singleton_share:
            a[i, rng.randrange(n)] = rng.randrange(1, p)
            continue
        for j in range(n):
            if rng.random() < density:
                a[i, j] = rng.randrange(p)
    return a


def bench(fn, base, p, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        work = np.ascontiguousarray(base.copy())
        t0 = time.perf_counter()
        result = fn(work, p)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="50x50,100x100,200x200,400x300,600x600")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--p", default="32003,2147483647", help="comma-separated primes")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    sizes = []
    for token in args.sizes.split(","):
        m, n = token.lower().split("x")
        sizes.append((int(m), int(n)))

    for p in (int(token) for token in args.p.split(",")):
        print(f"p = {p}, repeat = {args.repeat} (best of)")
        print(
            f"{'size':>10} {'rows':>10} {'side':>6} {'rref_inplace':>14} {'forward':>12}"
            f" {'backsub':>12} {'rank':>12} {'value':>6}"
        )
        for m, n in sizes:
            side = "lazy" if _lazy((m, n), p) else "eager"
            for label, share in (("dense", 0.0), ("singleton", 0.5)):
                base = random_matrix(rng, m, n, p, singleton_share=share)
                t_rref, (r_rref, _) = bench(rref_inplace, base, p, args.repeat)
                t_fwd, pivots = bench(_forward_pivots, base, p, args.repeat)
                t_rank, r_rank = bench(rank, base, p, args.repeat)
                assert r_rank == r_rref == len(pivots), (p, m, n, label, r_rank, r_rref, len(pivots))
                print(
                    f"{m:>4}x{n:<5} {label:>10} {side:>6} {t_rref * 1e3:>12.2f}ms"
                    f" {t_fwd * 1e3:>10.2f}ms {(t_rref - t_fwd) * 1e3:>10.2f}ms"
                    f" {t_rank * 1e3:>10.2f}ms {r_rank:>6}"
                )


if __name__ == "__main__":
    main()
