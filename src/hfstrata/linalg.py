"""Exact linear algebra over F_p.

One dense elimination, in two steps.  The pivot loop, `_forward_pivots`,
is forward elimination in place, vectorized over rows with numpy,
pivoting on the first nonzero row at or below the rank, columns left to
right, with no scaling of pivot rows.  A split of the rows comes first,
and only what it leaves goes through the loop.  Two kernels use them:

- `rref_inplace`, the reduced row echelon form, follows the loop with
  back-substitution (`_rref_loop`), for `nullspace`, which reads
  R[:rank, free]: the standard-form kernel basis, which is also the
  oracle's normal-form table of a quotient piece.
- `pivot_columns`, for the callers that read only a rank or pivot
  columns: `rank` (the oracle's Hilbert values and syzygy counts, the
  tangent rank, the Koszul ranks in `invariants`, the ranks in `deform`)
  and `greedy_independent_rows` (the oracle's Nakayama selections).

The split (`_split_rows`, `_schur_complement`) is the first step of
F4's linear algebra (Faugère, JPAA 139, 1999; Faugère and Lachartre,
PASCO 2010).  The first row with each leading column is a pivot row as
it stands, without elimination.  These rows, ordered by lead, form an
upper-triangular T on their lead columns C, with a nonzero diagonal,
and B on the other columns; R_C and R_B are the other rows in the same
columns.  Row operations turn [T B; R_C R_B] into [I X; 0 W] with
X = T^-1 B and the Schur complement W = R_B - R_C X, so the pivot
columns are C and those of W: `pivot_columns` returns C at once when no
two rows share a lead, and `rref_inplace` builds the RREF, which is
unique, from [I | X] and W's RREF with one more product.  X is solved
level by level, each level the rows of T whose other nonzeros sit in
rows solved before.  Each product is one int64 matrix product when its
left factor is dense enough, and otherwise a few vectorized passes over
that factor's nonzeros (`_subtract_product`), so that on large sparse
matrices, such as the Koszul and deformation matrices of the octic's
`verify-prop31`, the split costs about what the loop does.  The
oracle's graded pieces are monomial multiples of a few forms, and the
multiples of one form have distinct leads: on the Fermat cubic curve's
232 x 286 piece in degree 10, 120 rows pivot in 3 levels and W is
112 x 166; on the twisted cubic's Hilbert pieces W is zero.  On the 334
matrices of one round of the `oracle` benchmark workload the kernels'
time drops by a third.

Before eliminating, `pivot_columns` and `nullspace` peel singleton
rows until none are left (`_peeled_block`).  A row whose one nonzero
sits in column c makes c a pivot column, since every column left of c
is zero in that row.  Dropping that row and column c leaves the other
pivot columns unchanged, since clearing column c with that row changes
no other entry, and column c is zero in every kernel vector, whose
row c `nullspace` leaves zero.  Multiples of monomials are singleton
rows: on the matrices of one round of each benchmark workload, the peel
removes 68% of the cells of the Koszul ranks in `verify-prop31`, and
75% of those of `hf_bruteforce`, where it cuts elimination time by a
third to two thirds.  Matrices without singleton
rows pay only for one pass over their nonzeros and the block's scatter.

Sparse input: `rank`, `pivot_columns`, `nullspace` and
`greedy_independent_rows` take a dense array or a `SparseMatrix`, row,
column and value arrays with a shape, whose `.T` swaps them.  The peel
runs on the list of nonzeros, with row counts from `np.bincount`
(`_peel`), and the entries it leaves are scattered into a fresh block; a
dense input's list comes from one `nonzero` pass and one gather of its
values.  So no input is copied whole before the peel, and a sparse one
is written out dense only as that block.  The oracle's matrices of
multiples and Koszul differentials come as lists: the Fermat cubic
curve's degree-10 piece is 10% nonzero, and the Koszul differentials of
Γ = I_Y + m^4 for the rational normal curve in P^8 are 0.16% nonzero.

Dense matrices are C-contiguous int64 arrays with entries reduced into
[0, p).  Reducing mod p costs far more than the row update it follows,
so updated entries are left unreduced while their sums fit in int64
(delayed reduction, as in FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM
TOMS 35(3), 2008).  An update subtracts a product of two residues, at
most (p - 1)**2, so a residue can take `_budget(p)` of them, the largest
k with p + k*p*(p - 1) < 2**63: about 9e9 at p = 32003, 8 at
p = 1073741789 and 2 at p = 2**31 - 1.  That is the one fact about p
the kernels read.  The split's products reduce after each run of
`_budget(p)` inner columns (`_subtract_product`).  In the pivot loop an
entry takes at most one update per pivot, in forward elimination and in
back-substitution alike, so when min(m, n) is within the budget the
loop reduces only what it reads, the column searched for a pivot and
the pivot row, and the whole matrix once at the end of each pass;
beyond it each updated block is reduced at once.  Input values are
reduced once, as the peel gathers them.

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


def _budget(p):
    """The largest k with p + k*p*(p - 1) < 2**63: how many products of
    two residues a residue can take, unreduced, within int64."""
    return (2**63 - 1 - p) // (p * (p - 1))


class SparseMatrix:
    """A matrix given by its nonzeros: int arrays `row`, `col` and `val`
    of one length, at distinct positions, and a `shape`.  Values need
    not be reduced mod p, and may be zero mod p.  `.T` swaps the rows
    and the columns."""

    __slots__ = ("row", "col", "val", "shape")

    def __init__(self, row, col, val, shape):
        self.row, self.col, self.val, self.shape = row, col, val, tuple(shape)

    @property
    def T(self):
        return SparseMatrix(self.col, self.row, self.val, self.shape[::-1])


def _peel(row, col, val, shape):
    """Peel singleton rows off the nonzeros val at (row, col) of a matrix
    of this shape until no row has exactly one; returns the mask of the
    peeled columns, the rows and the columns left nonzero, and the
    entries left as (row, col, val).

    Each round marks the columns of the singleton rows peeled, lowers
    the row counts, from `np.bincount`, by the entries in those columns,
    and drops those entries, so that later rounds read only what is
    left.  Masks, fancy indexing and `np.bincount` only: the first call
    of another numpy routine (np.unique, a boolean |= or any) raises
    peak RSS by faulting in more of numpy's code.
    """
    m, n = shape
    counts = np.bincount(row, minlength=m)
    peeled = np.zeros(n, dtype=bool)
    while True:
        single = (counts == 1)[row].nonzero()[0]
        if not single.size:
            break
        peeled[col[single]] = True  # one entry per column, however many rows share it
        hit = peeled[col]
        counts -= np.bincount(row[hit.nonzero()[0]], minlength=m)
        keep = (~hit).nonzero()[0]
        row, col, val = row[keep], col[keep], val[keep]
    left = np.zeros(n, dtype=bool)
    left[col] = True
    return peeled, counts.nonzero()[0], left.nonzero()[0], (row, col, val)


def _forward_pivots(a, p):
    """Forward elimination in place; returns the pivot columns.

    Rows at or below the rank are zero mod p left of the current column,
    so a swap moves only columns c onwards.  The row it moves down was
    zero in column c, the pivot being the first nonzero, so the other
    nonzero rows r + nz[1:] keep their places.  The column searched and
    the pivot row are reduced, in place, before they are read.  The
    updated rows are left unreduced, and so are the entries this clears,
    which are multiples of p, unless min(a.shape) exceeds `_budget(p)`:
    then each updated block is reduced at once.  When every row below the
    pivot is nonzero in its column, as on a dense matrix, the update runs
    in place on that slice; otherwise the rows it touches are gathered
    and scattered back.
    """
    m, n = a.shape
    eager = _budget(p) < min(a.shape)
    r = 0
    pivots = []
    for c in range(n):
        if r >= m:
            break
        col = a[r:, c]
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
            pivot_row %= p
            full = nz.size == m - r  # every row below the pivot is updated
            rows = r + nz[1:]
            blk = a[r + 1 :, c:] if full else a[rows, c:]
            blk -= (blk[:, :1] * pow(int(a[r, c]), p - 2, p) % p) * pivot_row
            if eager:
                blk %= p
            if not full:
                a[rows, c:] = blk
        pivots.append(c)
        r += 1
    return pivots


def _rref_loop(a, p):
    """In-place reduced row echelon form by the pivot loop alone; returns
    (rank, pivot_columns).

    Forward elimination (`_forward_pivots`), pivot rows scaled to 1, then
    back-substitution from the bottom pivot up: each pivot column is
    cleared in the rows above, whose entries in the pivot columns below
    are already zero.  Each pass reduces the column and the pivot row it
    reads, each updated block too beyond `_budget(p)` (as in
    `_forward_pivots`), and the matrix once at its end.
    """
    eager = _budget(p) < min(a.shape)
    pivots = _forward_pivots(a, p)
    a %= p
    rank = len(pivots)
    top = a[:rank]
    top *= np.array([pow(int(v), p - 2, p) for v in top[np.arange(rank), pivots]], dtype=np.int64)[:, None]
    top %= p
    for r in range(rank - 1, 0, -1):
        c = pivots[r]
        col = a[:r, c]
        col %= p
        rows = col.nonzero()[0]
        if rows.size:
            pivot_row = a[r, c:]
            pivot_row %= p
            blk = a[rows, c:]
            blk -= blk[:, :1] * pivot_row
            if eager:
                blk %= p
            a[rows, c:] = blk
    top %= p
    return rank, pivots


def _split_rows(nz):
    """(top, lead, rest) for a nonzero pattern: the first row with each
    leading column, those leading columns in ascending order, and the
    other nonzero rows.

    Each nonzero row is marked at (leading column, row) in an n x m
    pattern, whose first mark in a column's line is its first row.  No
    stable sort: its first call faults in more of numpy's code than this
    pattern takes in memory.
    """
    m, n = nz.shape
    if not m or not n:  # argmax refuses empty lines
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, empty
    lead = nz.argmax(axis=1)
    live = nz[np.arange(m), lead]
    by_lead = np.zeros((n, m), dtype=bool)
    by_lead[lead[live], live.nonzero()[0]] = True
    first = by_lead.argmax(axis=1)
    cols = by_lead[np.arange(n), first].nonzero()[0]
    top = first[cols]
    live[top] = False
    return top, cols, live.nonzero()[0]


def _subtract_product(out, pattern, src, rows, cols, x, p):
    """out -= M x mod p for M = src[rows][:, cols], whose nonzero pattern
    is `pattern`, with residues in out, src and x; out ends reduced.

    A block at least a sixteenth nonzero takes int64 products.  A sparser
    one takes one pass per k, each subtracting the k-th nonzero of every
    row that has one times its row of x, so that its work follows M's
    nonzeros, as the pivot loop's does: on the largest matrix of the
    octic's `verify-prop31`, 5941 x 2698 and 0.4% nonzero, dense
    products took 17 times the loop's time.  The sixteenth is what one
    multiply-add in the product costs against one entry of a pass, the
    pass's fixed cost included.  Either way an entry of out moves by at
    most (p - 1)**2 per nonzero of its row of M, so out is reduced after
    each product over a run of `_budget(p)` columns of M, or after every
    `_budget(p)`-th pass.  Rows go len(x) at a time, so that no temporary
    outgrows x, and each chunk of M is gathered before its rows of out
    change, so that out may be src, as in `rref_inplace`.
    """
    step = _budget(p)
    chunk = max(len(x), 1)
    for lo in range(0, len(out), chunk):
        part, mask = out[lo : lo + chunk], pattern[lo : lo + chunk]
        at_row, at_col = mask.nonzero()
        if 16 * len(at_row) >= mask.size:
            left = src[rows[lo : lo + chunk, None], cols]
            for j in range(0, len(cols), step):
                part -= left[:, j : j + step] @ x[j : j + step]
                part %= p
            continue
        values = src[rows[lo + at_row], cols[at_col]]
        counts = mask.sum(axis=1)
        start = counts.cumsum() - counts
        for k in range(int(counts.max())):
            if k and not k % step:
                part %= p
            live = (counts > k).nonzero()[0]
            at = start[live] + k
            term = x[at_col[at]]
            term *= values[at, None]
            if live.size == len(part):
                part -= term
            else:
                part[live] -= term
        part %= p


def _schur_complement(a, nz, top, lead, rest, p):
    """(free, X, W) for the split (`_split_rows`) of a, reduced mod p,
    with nonzero pattern nz: the columns `free` outside `lead`, X = T^-1 B
    and the Schur complement W = R_B - R_C X, both reduced mod p, W
    without rows when it is zero.

    T = a[top, lead] is upper triangular with a nonzero diagonal, each
    pivot row being zero left of its lead, and B = a[top, free]; R_C and
    R_B are the rows `rest` in the same columns, so the rows of a span
    those of [T | B] and [0 | W].  X is solved level by level: a level
    holds the rows of T whose off-diagonal nonzeros sit in rows solved
    already, and takes one product (`_subtract_product`) with those rows
    and one scaling.
    """
    mask = np.ones(a.shape[1], dtype=bool)
    mask[lead] = False
    free = mask.nonzero()[0]
    x = a[top[:, None], free]
    diagonal = a[top, lead].tolist()  # the few forms' leading coefficients, mostly
    inverse = {v: pow(v, p - 2, p) for v in set(diagonal)}
    inv = np.array([inverse[v] for v in diagonal], dtype=np.int64)
    dep = nz[top[:, None], lead]  # T's off-diagonal pattern
    dep[np.arange(len(top)), np.arange(len(top))] = False
    pending = dep.sum(axis=1)  # the unsolved rows each row of T waits for
    level = (pending == 0).nonzero()[0]
    pending[level] = -1  # taken: its count stays below 0
    while level.size:
        blk = x[level]
        used = dep[level].sum(axis=0).nonzero()[0]
        if used.size:
            _subtract_product(blk, dep[level][:, used], a, top[level], lead[used], x[used], p)
        blk *= inv[level, None]
        x[level] = blk % p
        pending -= dep[:, level].sum(axis=1)
        level = (pending == 0).nonzero()[0]
        pending[level] = -1
    w = a[rest[:, None], free]
    if rest.size:
        _subtract_product(w, nz[rest[:, None], lead], a, rest, lead, x, p)
        if not (w != 0).sum():  # as on the twisted cubic's Hilbert pieces
            w = w[:0]
    return free, x, w


def rref_inplace(a, p):
    """In-place reduced row echelon form of a, reduced mod p; returns
    (rank, pivot_columns).

    The rows are split first (`_split_rows`, `_schur_complement`):
    scaled by T^-1, the pivot rows are [I | X] on the lead columns and
    the free ones, and only the complement W takes the pivot loop
    (`_rref_loop`).  With R the nonzero rows of W's RREF, which pivot on
    the free columns P, the lead rows of the RREF are [I | X - X[:, P] R],
    one product more, since clearing the columns P of [I | X] with R
    changes no lead column.  The RREF is unique, so this is the loop's
    output on the whole of a.
    """
    nz = a != 0
    top, lead, rest = _split_rows(nz)
    free, x, w = _schur_complement(a, nz, top, lead, rest, p)
    del nz
    rank_w, pivots_w = _rref_loop(w, p)
    if rank_w:
        at_w = np.array(pivots_w, dtype=np.intp)
        _subtract_product(x, x[:, at_w] != 0, x, np.arange(len(x)), at_w, w[:rank_w], p)
    mask = np.zeros(a.shape[1], dtype=bool)
    mask[lead] = True
    mask[free[pivots_w]] = True
    pivots = mask.nonzero()[0]
    at_lead = np.searchsorted(pivots, lead)
    a.fill(0)
    a[at_lead, lead] = 1
    a[at_lead[:, None], free] = x
    a[np.searchsorted(pivots, free[pivots_w])[:, None], free] = w[:rank_w]
    return len(pivots), pivots.tolist()


def _peeled_block(a, p):
    """(block, peeled, cols): singleton rows peeled (`_peel`) from a
    dense or sparse (`SparseMatrix`) matrix reduced mod p, the mask of
    the columns they peeled, and the block, reduced mod p, of the rows
    and the columns `cols` they leave nonzero.

    A dense a is read as a nonzero list, by one `nonzero` pass and one
    gather of its values.  The entries nonzero mod p are peeled, and
    those left scattered into a fresh block."""
    if isinstance(a, SparseMatrix):
        row, col, val = a.row, a.col, a.val % p
    else:
        a = np.array(a, dtype=np.int64, ndmin=2, copy=None)
        row, col = a.nonzero()
        val = a[row, col]
        val %= p
    nz = val.nonzero()[0]
    if nz.size < val.size:
        row, col, val = row[nz], col[nz], val[nz]
    peeled, rows, cols, (row, col, val) = _peel(row, col, val, a.shape)
    to_row = np.zeros(a.shape[0], dtype=np.intp)
    to_row[rows] = np.arange(len(rows))
    to_col = np.zeros(a.shape[1], dtype=np.intp)
    to_col[cols] = np.arange(len(cols))
    row, col = to_row[row], to_col[col]  # frees a dense input's `nonzero` output before the block
    work = np.zeros((len(rows), len(cols)), dtype=np.int64)
    work[row, col] = val
    return work, peeled, cols


def pivot_columns(a, p):
    """Pivot columns of the RREF of a, without building it: the peeled
    columns, and those of the block they leave, which are the split's
    lead columns (`_split_rows`) and, when two rows share a lead, the
    pivot columns of the forward-eliminated Schur complement."""
    work, pivots, cols = _peeled_block(a, p)
    nz = work != 0
    top, lead, rest = _split_rows(nz)
    pivots[cols[lead]] = True
    if rest.size:  # two rows share a lead
        free, _, w = _schur_complement(work, nz, top, lead, rest, p)
        pivots[cols[free[_forward_pivots(w, p)]]] = True
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
    return pivot_columns(m.T if isinstance(m, SparseMatrix) else np.asarray(m, dtype=np.int64).T, p)
