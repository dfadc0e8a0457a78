"""Dense exact linear algebra over F_p.

The single hot primitive is an in-place reduced row echelon form,
vectorized over rows with numpy.  Matrices are C-contiguous int64 arrays
with entries already reduced into [0, p); with p < 2**31 the row updates
stay within int64.
"""

import numpy as np


def rref_inplace(a, p):
    """In-place reduced row echelon form; returns (rank, pivot_columns).

    The pivot of each column is its first nonzero row at or below the
    current rank, columns are visited left to right, and pivot rows are
    scaled to 1.
    """
    m, n = a.shape
    r = 0
    pivots = []
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], :] = a[[i, r], :]
        v = int(a[r, c])
        if v != 1:
            inv = pow(v, p - 2, p)
            a[r, c:] = (a[r, c:] * inv) % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            f = a[rows, c][:, None]
            a[rows, c:] = (a[rows, c:] - f * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return r, pivots


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
    free = np.delete(np.arange(n), pivots)
    basis = np.zeros((n, len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    basis[pivots] = -r[:rk, free] % p
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
