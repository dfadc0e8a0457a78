import random

import numpy as np

from hfstrata import linalg

P = 32003


def random_matrix(rng, m, n, p=P, density=0.7):
    a = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                a[i, j] = rng.randrange(p)
    return a


def test_rref_known():
    a = linalg.as_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]], 3)
    r, rank, pivots = linalg.rref(a, 7)
    assert rank == 2 and pivots == [0, 1]
    # fully reduced: pivot columns are unit columns
    assert r[0, 0] == 1 and r[1, 1] == 1 and r[0, 1] == 0


def test_nullspace_annihilates():
    rng = random.Random(3)
    for _ in range(25):
        a = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        ns = linalg.nullspace(a, P)
        assert ((a @ ns) % P == 0).all()
        assert linalg.rank(a, P) + ns.shape[1] == a.shape[1]


def test_greedy_independent_rows_prefers_early_rows():
    a = linalg.as_matrix([[1, 1, 0], [2, 2, 0], [0, 0, 1]], 3)
    assert linalg.greedy_independent_rows(a, P) == [0, 2]


def reference_rref(rows, p):
    """Gauss-Jordan on lists of ints, pivoting as rref_inplace does: the
    first nonzero row at or below the rank, columns left to right."""
    a = [[x % p for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    rank, pivots = 0, []
    for c in range(ncols):
        i = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[rank], a[i] = a[i], a[rank]
        inv = pow(a[rank][c], p - 2, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for k in range(len(a)):
            if k != rank and a[k][c]:
                f = a[k][c]
                a[k] = [(x - f * y) % p for x, y in zip(a[k], a[rank])]
        pivots.append(c)
        rank += 1
    return a, rank, pivots


def test_rref_inplace_matches_reference(monkeypatch):
    """`linalg.rref_inplace` at every p, with the pivot loop on both sides
    of `linalg._budget`: it leaves row updates unreduced when min(m, n)
    of the block it takes is within the budget, as at p = 32003 at every
    size, and reduces each updated block at once beyond it, as the
    dense shapes up to 24 x 24 reach at 1073741789 (budget 8) and at
    2**31 - 1 (budget 2)."""
    rng = random.Random(99)
    cases = []
    for p in (2, 3, 32003, 2**31 - 1, 1073741789):
        for _ in range(40):
            m = rng.randrange(1, 12)
            n = rng.randrange(1, 12)
            cases.append((p, random_matrix(rng, m, n, p, density=rng.choice([0.2, 0.5, 0.9]))))
    for p in (1073741789, 2**31 - 1):
        for _ in range(30):
            m = rng.randrange(2, 25)
            n = rng.randrange(2, 25)
            cases.append((p, random_matrix(rng, m, n, p, density=0.9)))
    beyond = {}
    rref_loop = linalg._rref_loop

    def spy(a, p):
        beyond.setdefault(p, set()).add(min(a.shape) > linalg._budget(p))
        return rref_loop(a, p)

    monkeypatch.setattr(linalg, "_rref_loop", spy)
    for p, a in cases:
        m = a.shape[0]
        if rng.random() < 0.3:  # repeated rows force dependent pivots
            a[rng.randrange(m)] = a[rng.randrange(m)]
        ref, rank, pivots = reference_rref(a.tolist(), p)
        work = np.ascontiguousarray(a.copy())
        assert linalg.rref_inplace(work, p) == (rank, pivots), p
        assert work.tolist() == ref, p
    assert beyond[32003] == {False}
    assert beyond[1073741789] == beyond[2**31 - 1] == {True, False}


def test_empty_shapes():
    assert linalg.rank(linalg.as_matrix([], 3), P) == 0
    ns = linalg.nullspace(linalg.as_matrix([], 3), P)
    assert ns.shape == (3, 3)  # kernel of the zero map is everything
