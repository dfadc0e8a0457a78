"""Benchmark the mod-p RREF kernel on random dense matrices.

The mod-p row reduction is the hot kernel behind the brute-force oracle,
the deformation solvers, the Koszul Betti numbers and the Nakayama
selection; this times it alone, best of a few runs per size.

Usage:
    python benchmarks/bench_linalg.py [--sizes 100x100,300x200] [--repeat 5]
"""

import argparse
import random
import time

import numpy as np

from hfstrata.linalg import rref_inplace

P = 32003


def random_matrix(rng, m, n, density=0.6):
    a = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
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
    print(f"{'size':>10} {'rref_inplace':>14} {'rank':>6}")
    for m, n in sizes:
        base = random_matrix(rng, m, n)
        t, (rank, _) = bench(rref_inplace, base, args.repeat)
        print(f"{m:>4}x{n:<5} {t * 1e3:>12.2f}ms {rank:>6}")


if __name__ == "__main__":
    main()
