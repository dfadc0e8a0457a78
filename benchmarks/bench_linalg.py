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

Usage:
    python benchmarks/bench_linalg.py [--sizes 100x100,300x200] [--repeat 5]
"""

import argparse
import random
import time

import numpy as np

from hfstrata.linalg import _forward_pivots, rank, rref_inplace

P = 32003


def random_matrix(rng, m, n, density=0.6, singleton_share=0.0):
    a = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        if rng.random() < singleton_share:
            a[i, rng.randrange(n)] = rng.randrange(1, P)
            continue
        for j in range(n):
            if rng.random() < density:
                a[i, j] = rng.randrange(P)
    return a


def bench(fn, base, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        work = np.ascontiguousarray(base.copy())
        t0 = time.perf_counter()
        result = fn(work, P)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="50x50,100x100,200x200,400x300,600x600")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    sizes = []
    for token in args.sizes.split(","):
        m, n = token.lower().split("x")
        sizes.append((int(m), int(n)))

    print(f"p = {P}, repeat = {args.repeat} (best of)")
    print(
        f"{'size':>10} {'rows':>10} {'rref_inplace':>14} {'forward':>12} {'backsub':>12}"
        f" {'rank':>12} {'value':>6}"
    )
    for m, n in sizes:
        for label, share in (("dense", 0.0), ("singleton", 0.5)):
            base = random_matrix(rng, m, n, singleton_share=share)
            t_rref, (r_rref, _) = bench(rref_inplace, base, args.repeat)
            t_fwd, pivots = bench(_forward_pivots, base, args.repeat)
            t_rank, r_rank = bench(rank, base, args.repeat)
            assert r_rank == r_rref == len(pivots), (m, n, label, r_rank, r_rref, len(pivots))
            print(
                f"{m:>4}x{n:<5} {label:>10} {t_rref * 1e3:>12.2f}ms {t_fwd * 1e3:>10.2f}ms"
                f" {(t_rref - t_fwd) * 1e3:>10.2f}ms {t_rank * 1e3:>10.2f}ms {r_rank:>6}"
            )


if __name__ == "__main__":
    main()
