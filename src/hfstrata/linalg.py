"""Exact linear algebra over F_p.

One dense elimination, `_forward_pivots`: forward elimination in place,
vectorized over rows with numpy, pivoting on the first nonzero row at
or below the rank, columns left to right, with no scaling of pivot rows.
Two kernels use it:

- `rref_inplace`, the reduced row echelon form, follows it with
  back-substitution, for the callers that read R[:rank, free]: `rref`,
  `nullspace`, the oracle's quotient pieces and normal-form tables.
- `pivot_columns`, for the callers that read only a rank or pivot
  columns: `rank` (the oracle's Hilbert values and syzygy counts, the
  tangent rank, the Koszul ranks in `invariants`, the ranks in `deform`)
  and `greedy_independent_rows` (the oracle's Nakayama selections).

Before eliminating, `pivot_columns` peels singleton rows until none are
left.  A row whose one nonzero sits in column c makes c a pivot column,
since every column left of c is zero in that row.  Dropping that row and
column c leaves the other pivot columns unchanged, since clearing column
c with that row changes no other entry.  Multiples of monomials are
singleton rows: on the matrices of one round of each benchmark
workload, the peel removes 68% of the cells of the Koszul ranks in
`verify-prop31`, and 75% of those of `hf_bruteforce`, where it cuts
elimination time by a third to two thirds.  The dense Betti selections
of the oracle have no singleton rows and pay only for the nonzero
pattern.

Dense matrices are C-contiguous int64 arrays with entries reduced into
[0, p); with p < 2**31 the row updates stay within int64.

One sparse kernel, `echelon_insert`, serves the engine's Nakayama
selection, whose rows are monomial multiples of a few vectors and about
0.1% nonzero: it inserts {column: value} rows one at a time into an
echelon basis keyed by pivot column, in time that follows the rows'
nonzeros, and never builds a matrix.
"""

from heapq import heapify, heappop, heappush

import numpy as np


def as_matrix(rows, ncols):
    """Stack an iterable of length-ncols int sequences into an int64 matrix."""
    rows = list(rows)
    if not rows:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.ascontiguousarray(np.array(rows, dtype=np.int64))


def rref(a, p):
    """Reduced row echelon form of a copy; returns (rref, rank, pivots)."""
    a = np.array(a, dtype=np.int64, order="C")
    a %= p
    if a.size == 0:
        return a, 0, []
    rank, pivots = rref_inplace(a, p)
    return a, rank, pivots


def _peel_singletons(nz):
    """Clear the columns of singleton rows of the nonzero pattern nz, in
    place, until no row has exactly one nonzero; returns their mask and
    the nonzeros left in each row.

    Masks and fancy indexing only, which the kernels use anyway: the
    first call of another numpy routine (np.unique, a boolean |= or
    any) raises peak RSS by faulting in more of numpy's code.
    """
    counts = nz.sum(axis=1)
    peeled = np.zeros(nz.shape[1], dtype=bool)
    while True:
        single = np.flatnonzero(counts == 1)
        if not single.size:
            return peeled, counts
        hit = np.zeros_like(peeled)  # one entry per column, however many rows share it
        hit[np.nonzero(nz[single])[1]] = True
        cols = np.flatnonzero(hit)
        counts -= nz[:, cols].sum(axis=1)
        nz[:, cols] = False
        peeled[cols] = True


def _forward_pivots(a, p):
    """Forward elimination in place; returns the pivot columns.

    Rows at or below the rank are zero left of the current column, so a
    swap moves only columns c onwards.  The row it moves down was zero in
    column c, the pivot being the first nonzero, so the other nonzero
    rows r + nz[1:] keep their places.
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
            a[[r, i], c:] = a[[i, r], c:]
        if nz.size > 1:
            rows = r + nz[1:]
            f = a[rows, c] * pow(int(a[r, c]), p - 2, p) % p
            a[rows, c:] = (a[rows, c:] - f[:, None] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return pivots


def rref_inplace(a, p):
    """In-place reduced row echelon form; returns (rank, pivot_columns).

    Forward elimination (`_forward_pivots`), pivot rows scaled to 1, then
    back-substitution from the bottom pivot up: each pivot column is
    cleared in the rows above, whose entries in the pivot columns below
    are already zero.
    """
    pivots = _forward_pivots(a, p)
    rank = len(pivots)
    top = a[:rank]
    top *= np.array([pow(int(v), p - 2, p) for v in top[np.arange(rank), pivots]], dtype=np.int64)[:, None]
    top %= p
    for r in range(rank - 1, 0, -1):
        c = pivots[r]
        rows = np.flatnonzero(a[:r, c])
        if rows.size:
            a[rows, c:] = (a[rows, c:] - a[rows, c][:, None] * a[r, c:]) % p
    return rank, pivots


def pivot_columns(a, p):
    """Pivot columns of the RREF of a, without building it.

    Singleton rows are peeled from the nonzero pattern of one working
    copy reduced mod p; the rows and columns they leave nonzero are
    gathered, if the peel removed any, and forward-eliminated.
    """
    work = np.array(a, dtype=np.int64, order="C")
    if work.size == 0:
        return []
    work %= p
    nz = work != 0
    pivots, counts = _peel_singletons(nz)
    rows, cols = np.flatnonzero(counts), np.flatnonzero(nz.sum(axis=0))
    if rows.size < work.shape[0] or cols.size < work.shape[1]:
        work = work[rows[:, None], cols]
    pivots[cols[_forward_pivots(work, p)]] = True
    return np.flatnonzero(pivots).tolist()


def echelon_insert(echelon, row, p):
    """Add a sparse row to an echelon basis unless it lies in its span;
    returns whether it was added.

    `row` is a {column: value} dict with entries in [0, p), and is used
    up.  `echelon` maps each pivot column to the rest of its basis row,
    the entries right of the pivot, scaled so that the pivot is 1.  The
    row's smallest column, popped from a heap of its columns, is cleared
    with the basis row pivoting there until it is no pivot, and the
    scaled rest joins the basis, or until the row is zero.  Every nonzero
    combination of basis rows has a pivot as its smallest column, so that
    decides membership in the span.  Inserting rows in turn keeps those
    outside the span of the ones before: `greedy_independent_rows`' rule.
    """
    heap = list(row)
    heapify(heap)
    while heap:
        c = heappop(heap)
        v = row.pop(c)
        if not v:
            continue
        rest = echelon.get(c)
        if rest is None:
            inv = pow(v, p - 2, p)
            echelon[c] = {k: x * inv % p for k, x in row.items() if x}
            return True
        for k, x in rest.items():
            old = row.get(k)
            if old is None:
                heappush(heap, k)
                old = 0
            row[k] = (old - v * x) % p
    return False


def rank(a, p):
    return len(pivot_columns(a, p))


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


def greedy_independent_rows(m, p):
    """Indices of the lexicographically-first maximal independent row set.

    The pivot columns of the transpose, so earlier rows win ties; used
    for Nakayama-style minimal generator selection.
    """
    return pivot_columns(np.asarray(m, dtype=np.int64).T, p)
