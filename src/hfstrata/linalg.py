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

Before eliminating, `pivot_columns` and `nullspace` peel singleton rows
until none are left (`_peeled_block`).  A row whose one nonzero sits in
column c makes c a pivot column, since every column left of c is zero
in that row.  Dropping that row and column c leaves the other pivot
columns unchanged, since clearing column c with that row changes no
other entry, and column c is zero in every kernel vector.  Multiples of
monomials are singleton rows: on the matrices of one round of each
benchmark workload, the peel removes 68% of the cells of the Koszul
ranks in `verify-prop31`, and 75% of those of `hf_bruteforce`, where it
cuts elimination time by a third to two thirds.  Matrices without
singleton rows pay only for the nonzero pattern.

Dense matrices are C-contiguous int64 arrays with entries reduced into
[0, p).  Reducing mod p costs far more than the row update it follows,
so each elimination decides once, from p and the shape, whether it can
leave updated entries unreduced (delayed reduction, as in FFLAS-FFPACK:
Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  An update subtracts a
product of two residues, at most (p - 1)**2, and an entry takes at most
one update per pivot, in forward elimination and in back-substitution
alike.  So when p + k*p*(p - 1) < 2**63 with k = min(m, n), the lazy
side reduces only what it reads, the column searched for a pivot and the
pivot row, and the whole matrix once at the end of each pass.  That holds
at every size for p <= 32003, up to k = 8 at p = 1073741789 and up to
k = 2 at p = 2**31 - 1; otherwise each updated block is reduced at once.
The RREF is unique, so both sides give the same output.  The peel
reduces its working copy only if an entry lies outside [0, p).

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


def _lazy(shape, p):
    """Whether min(shape) unreduced row updates stay within int64."""
    return p + min(shape) * p * (p - 1) < 2**63


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
        single = (counts == 1).nonzero()[0]
        if not single.size:
            return peeled, counts
        hit = np.zeros_like(peeled)  # one entry per column, however many rows share it
        hit[nz[single].nonzero()[1]] = True
        cols = hit.nonzero()[0]
        counts -= nz[:, cols].sum(axis=1)
        nz[:, cols] = False
        peeled[cols] = True


def _forward_pivots(a, p):
    """Forward elimination in place; returns the pivot columns.

    Rows at or below the rank are zero mod p left of the current column,
    so a swap moves only columns c onwards.  The row it moves down was
    zero in column c, the pivot being the first nonzero, so the other
    nonzero rows r + nz[1:] keep their places.  On the lazy side
    (`_lazy`) the updated rows are left unreduced, and so are the entries
    this clears, which are multiples of p: only the column searched and
    the pivot row are reduced, in place, before they are read.  When
    every row below the pivot is nonzero in its column, as on a dense
    matrix, the update runs in place on that slice; otherwise the rows
    it touches are gathered and scattered back.
    """
    m, n = a.shape
    lazy = _lazy(a.shape, p)
    r = 0
    pivots = []
    for c in range(n):
        if r >= m:
            break
        col = a[r:, c]
        if lazy:
            col %= p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            row = a[i, c:].copy()
            a[i, c:] = a[r, c:]
            a[r, c:] = row
        if nz.size > 1:
            pivot_row = a[r, c:]
            if lazy:
                pivot_row %= p
            full = nz.size == m - r  # every row below the pivot is updated
            rows = r + nz[1:]
            blk = a[r + 1 :, c:] if full else a[rows, c:]
            blk -= (blk[:, :1] * pow(int(a[r, c]), p - 2, p) % p) * pivot_row
            if not lazy:
                blk %= p
            if not full:
                a[rows, c:] = blk
        pivots.append(c)
        r += 1
    return pivots


def rref_inplace(a, p):
    """In-place reduced row echelon form; returns (rank, pivot_columns).

    Forward elimination (`_forward_pivots`), pivot rows scaled to 1, then
    back-substitution from the bottom pivot up: each pivot column is
    cleared in the rows above, whose entries in the pivot columns below
    are already zero.  On the lazy side (`_lazy`) each pass reduces the
    column and the pivot row it reads, and the matrix once at its end.
    """
    lazy = _lazy(a.shape, p)
    pivots = _forward_pivots(a, p)
    if lazy:
        a %= p
    rank = len(pivots)
    top = a[:rank]
    top *= np.array([pow(int(v), p - 2, p) for v in top[np.arange(rank), pivots]], dtype=np.int64)[:, None]
    top %= p
    for r in range(rank - 1, 0, -1):
        c = pivots[r]
        col = a[:r, c]
        if lazy:
            col %= p
        rows = col.nonzero()[0]
        if rows.size:
            pivot_row = a[r, c:]
            if lazy:
                pivot_row %= p
            blk = a[rows, c:]
            blk -= blk[:, :1] * pivot_row
            if not lazy:
                blk %= p
            a[rows, c:] = blk
    if lazy:
        top %= p
    return rank, pivots


def _peeled_block(a, p):
    """(block, peeled, cols): singleton rows peeled from the nonzero
    pattern of one working copy of a reduced mod p, the mask of the
    columns they peeled, and the block of the rows and the columns
    `cols` they leave nonzero, gathered only if the peel removed any.
    The copy is reduced only if an entry lies outside [0, p)."""
    work = np.array(a, dtype=np.int64, order="C", ndmin=2)
    if work.size and (work.min() < 0 or work.max() >= p):
        work %= p
    nz = work != 0
    peeled, counts = _peel_singletons(nz)
    rows, cols = counts.nonzero()[0], nz.sum(axis=0).nonzero()[0]
    if rows.size < work.shape[0] or cols.size < work.shape[1]:
        work = work[rows[:, None], cols]
    return work, peeled, cols


def pivot_columns(a, p):
    """Pivot columns of the RREF of a, without building it: the peeled
    columns and the pivot columns of the forward-eliminated block."""
    work, pivots, cols = _peeled_block(a, p)
    pivots[cols[_forward_pivots(work, p)]] = True
    return pivots.nonzero()[0].tolist()


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
    ascending order, with 1 in the free position.  Singleton rows are
    peeled first (`_peeled_block`) and only the block they leave is
    reduced.  A peeled column is zero in every kernel vector, by
    induction on the peel order: its row's other nonzeros sit in
    columns peeled before it.  So the peeled columns are pivots with
    zero rows in the basis, and the other entries come from the block's
    RREF; a zero column of a is free and lies outside the block.
    """
    work, pivots, cols = _peeled_block(a, p)
    rk, block_pivots = rref_inplace(work, p)
    pivots[cols[block_pivots]] = True
    free = (~pivots).nonzero()[0]
    block_free = (~pivots[cols]).nonzero()[0]
    basis = np.zeros((len(pivots), len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    basis[np.ix_(cols[block_pivots], np.searchsorted(free, cols[block_free]))] = -work[:rk, block_free] % p
    return basis


def greedy_independent_rows(m, p):
    """Indices of the lexicographically-first maximal independent row set.

    The pivot columns of the transpose, so earlier rows win ties; used
    for Nakayama-style minimal generator selection.
    """
    return pivot_columns(np.asarray(m, dtype=np.int64).T, p)
