"""Benchmark the mod-p elimination kernels on random matrices.

`rref_inplace` builds the reduced row echelon form, for callers that
read its rows; `rank` finds only the pivot columns, after peeling
singleton rows, for callers that read a rank.  At every p both first
split the rows (`linalg._split_rows`): the first row with each leading
column pivots without elimination, and only the Schur complement of the
others goes through the pivot loop.  This times both on the same
matrices, beside the pivot loop alone on the whole matrix
(`loop`: `_rref_loop`, the RREF without the split, and `forward`:
`_forward_pivots`, forward elimination without peel or split), best of
a few runs per size, and checks that all four find the same rank.

Each size is timed on three families: dense rows (density 0.6), where
neither the peel nor the split finds much; the same with half of the
rows replaced by singleton rows on random columns, like the multiples of
monomial generators in the oracle's and the Koszul complex's matrices;
and `macaulay` rows, built as the oracle builds a graded piece: every
degree-d multiple of xw - yz and of two dense cubics in x, y, z, w,
columns the monomials of degree d, with d the degree whose dim S_d is
nearest the size's column count, and at most the size's row count of
those rows, drawn at random and kept in order.  Its line gives the
shape it was built at.

Each prime of `--p` gets its own matrices, and its header line gives
`linalg._budget(p)`, how many unreduced row updates an entry can take
within int64.  The pivot loop leaves updated rows unreduced on a block
whose min(m, n) is within it, as at p = 32003 at every size, and
reduces each updated block at once beyond it, as at p = 2^31 - 1
(budget 2) from min(m, n) = 3 on.  `rank` decides on the block the peel
leaves.

Usage:
    python benchmarks/bench_linalg.py [--sizes 100x100,300x200] [--repeat 5]
                                      [--p 32003,2147483647]
"""

import argparse
import random
import time

import numpy as np

from hfstrata.linalg import _budget, _forward_pivots, _rref_loop, rank, rref_inplace
from hfstrata.ring import GREVLEX, monomials_of_degree


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


def macaulay_matrix(rng, m, n, p):
    """At most m of the degree-d multiples of xw - yz and of two dense
    cubics in four variables, d such that dim S_d is nearest n."""
    d = min(range(2, 40), key=lambda k: abs(len(monomials_of_degree(4, k, GREVLEX)) - n))
    columns = {e: c for c, e in enumerate(monomials_of_degree(4, d, GREVLEX))}
    cubic = monomials_of_degree(4, 3, GREVLEX)
    forms = [[((1, 0, 0, 1), 1), ((0, 1, 1, 0), p - 1)]]
    forms += [[(e, rng.randrange(1, p)) for e in cubic] for _ in range(2)]
    rows = []
    for form in forms:
        for b in monomials_of_degree(4, d - sum(form[0][0]), GREVLEX):
            row = np.zeros(len(columns), dtype=np.int64)
            for e, c in form:
                row[columns[tuple(u + v for u, v in zip(e, b))]] = c
            rows.append(row)
    keep = sorted(rng.sample(range(len(rows)), min(m, len(rows))))
    return np.array([rows[i] for i in keep], dtype=np.int64)


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
        print(f"p = {p}, budget = {_budget(p)}, repeat = {args.repeat} (best of)")
        print(
            f"{'size':>10} {'family':>10} {'rref_inplace':>14} {'loop':>12}"
            f" {'forward':>12} {'rank':>12} {'value':>6}"
        )
        for m, n in sizes:
            for label, share in (("dense", 0.0), ("singleton", 0.5), ("macaulay", None)):
                if share is None:
                    base = macaulay_matrix(rng, m, n, p)
                else:
                    base = random_matrix(rng, m, n, p, singleton_share=share)
                t_rref, (r_rref, _) = bench(rref_inplace, base, p, args.repeat)
                t_loop, (r_loop, _) = bench(_rref_loop, base, p, args.repeat)
                t_fwd, pivots = bench(_forward_pivots, base, p, args.repeat)
                t_rank, r_rank = bench(rank, base, p, args.repeat)
                assert r_rank == r_rref == r_loop == len(pivots), (p, m, n, label, r_rank, r_rref, r_loop)
                size = "x".join(map(str, base.shape))
                print(
                    f"{size:>10} {label:>10} {t_rref * 1e3:>12.2f}ms"
                    f" {t_loop * 1e3:>10.2f}ms {t_fwd * 1e3:>10.2f}ms"
                    f" {t_rank * 1e3:>10.2f}ms {r_rank:>6}"
                )


if __name__ == "__main__":
    main()
