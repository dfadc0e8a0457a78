"""Dense exact linear algebra over F_p.

The single hot primitive is an in-place reduced row echelon form; it has
two interchangeable backends selected at import time:

* ``hfstrata.linalg._kernel`` - Cython, built by setup.py;
* ``hfstrata.linalg._fallback`` - vectorized numpy, always available.

Both use identical pivoting (first nonzero row, columns left to right),
so every downstream result is bit-identical either way.  Set
``HFSTRATA_PURE=1`` to force the fallback.  Matrices are C-contiguous
int64 arrays with entries already reduced into [0, p).
"""

import os

import numpy as np

if os.environ.get("HFSTRATA_PURE"):
    from ._fallback import rref_inplace

    BACKEND = "python"
else:
    try:
        from ._kernel import rref_inplace

        BACKEND = "compiled"
    except ImportError:
        from ._fallback import rref_inplace

        BACKEND = "python"


def as_matrix(rows, ncols):
    """Stack an iterable of length-ncols int sequences into an int64 matrix."""
    rows = list(rows)
    if not rows:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.ascontiguousarray(np.array(rows, dtype=np.int64))


def zeros_matrix(nrows, ncols):
    return np.zeros((nrows, ncols), dtype=np.int64)


def rref(a, p):
    """Reduced row echelon form of a copy; returns (rref, rank, pivots)."""
    a = np.ascontiguousarray(np.array(a, dtype=np.int64) % p)
    if a.size == 0:
        return a, 0, []
    rank, pivots = rref_inplace(a, p)
    return a, rank, pivots


def rank(a, p):
    return rref(a, p)[1]


def nullspace(a, p):
    """Basis of the right kernel as columns of an (ncols, k) matrix.

    Deterministic standard form: one basis vector per free column in
    ascending order, with 1 in the free position.
    """
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[1] if a.ndim == 2 else 0
    r, rk, pivots = rref(a, p)
    free = [c for c in range(n) if c not in set(pivots)]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for row, pc in enumerate(pivots):
            basis[pc, k] = (-int(r[row, fc])) % p
    return basis

def solve(a, b, p):
    """Solve a @ x = b column-wise; returns x or None if inconsistent."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if b.ndim == 1:
        b = b[:, None]
    m, n = a.shape
    aug, _, pivots = rref(np.hstack([a, b]), p)
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for row, pc in enumerate(pivots):
        x[pc] = aug[row, n:]
    return x

def greedy_independent_rows(m, p):
    """Indices of the lexicographically-first maximal independent row set.

    Equivalent to the pivot columns of the transposed RREF, so earlier
    rows win ties; used for Nakayama-style minimal generator selection.
    """
    m = np.asarray(m, dtype=np.int64)
    if m.size == 0:
        return []
    t = np.ascontiguousarray(m.T % p)
    _, pivots = rref_inplace(t, p)
    return list(pivots)
