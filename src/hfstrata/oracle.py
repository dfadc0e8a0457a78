"""Brute-force invariants by dense graded linear algebra only.

Every value the Gröbner engine produces is recomputed here from raw
coordinate matrices over F_p: graded pieces are spanned by monomial
multiples of the generators, and everything reduces to rank, kernel and
RREF computations.  Nothing here touches the Gröbner machinery; that
independence is the point.

Coordinates: a monomial is a row of an int64 exponent array, located in
the basis of S_d by its mixed-radix code (radix d + 1) and a
`searchsorted`.  Module vectors are flat term arrays (vector, component,
exponents, coefficient), so "v times every monomial of degree e - deg v"
is one broadcast sum and one fancy assignment for all v at once.  The
generators' multiples in degree d (`_ideal_piece`) are built once per
degree, in the basis of S_d, and give that degree's Hilbert value,
quotient piece and syzygies alike: zero columns and column order leave
rank and left kernel unchanged.  The multiples of module vectors (the
Betti levels, the exactness check) are read only for rank, kernel or
row selection, so their columns are just the (component, monomial)
pairs the rows touch.  Syzygies stay as kernel matrices and become
Polynomial tuples only in `syzygies_bruteforce`.

Projection: a tangent condition reduces a_j * x^m modulo I_e, for each
degree-e syzygy (a_1..a_s) and unknown (j, m).  With R the reduced
echelon form of I_e, the normal-form table NF of S_e has NF[free] = 1
and NF[pivots] = -R[:, free], so the reduction is the sum of c * NF[x^(t+m)]
over the terms c x^t of a_j: a gather of table rows, each product
reduced mod p, then one segmented sum per syzygy.  Products stay below
p^2 and each sum adds fewer than 2^32 terms below p, so int64 is exact
for every p < 2^31, and the work follows the syzygies' nonzeros, not
dim S_e.

Vanishing: S/I is generated in degree 0, so (S/I)_{e+1} = S_1 (S/I)_e
and every piece after a zero one is zero.  `hf_values` answers 0 from
there on without ranking, and `tangent_bruteforce` builds no syzygy
kernel or normal-form table from the first zero piece on, where every
condition is zero, and no quotient piece past it; below it, one matrix
of multiples per degree gives both the quotient piece and the kernel.

Stopping: step s of `betti_bruteforce` (step 0 the generators) counts
beta_{s+1,j}(S/I), which is zero for j >= s + 1 + z, z the first degree
with (S/I)_z = 0: the Koszul chain group of Tor_{s+1}(S/I, k)_j is
∧^{s+1} k^n ⊗ (S/I)_{j-s-1}, zero from there on.  So step s searches
degrees up to min(B, s + z).  z comes from the oracle's own ranks,
`hf_values` over the degrees below B, upward, stopping at the first
zero; with no zero below B, z = B and nothing is cut.  The check stays
independent: the engine's `_koszul_betti` has zero chain groups in
exactly the skipped degrees, so neither side computes anything there,
while an entry the engine misses below the stop still differs from the
oracle's, and a spurious engine entry above it meets the oracle's 0.

Selection: at each Betti level and degree e the Nakayama selection runs
on kernel coordinates, degree by degree with only ker_{e-1} kept.  The
standard-form kernel basis of ker_e holds an identity block in its rows
`free`, and z -> z[free] maps ker_e onto F^k keeping every linear
dependence.  The x_v-multiples of ker_{e-1} lie in ker_e, so they are
gathered at `free` only, into rows B, and the selection is the greedy
one on [B; I].  That keeps the unit row e_k unless some vector of the
row span of B ends at k (its last nonzero), so the new generators are
the coordinates that are not pivots of B read right to left, and no
identity block is built.

Rank only: a Hilbert value is dim S_d minus the rank of the
generator-multiple matrix, and a syzygy count is the number of unknowns
minus it, so `hf_bruteforce` and `syzygy_counts` (`oracle syz`) call
`linalg.rank` and build no echelon rows or kernel basis.  The echelon
form is built only where its rows are read: the quotient pieces and
normal-form tables of `tangent_bruteforce`, and the kernel bases of
`syzygies_bruteforce`, `tangent_bruteforce` and `betti_bruteforce`.

Exactness: `exactness_violations` checks an engine resolution on the
same matrices of multiples.  A graded map's columns become flat term
arrays, the vector being the source slot and the component the target
slot, so the degree-d piece of the map is `_multiples` of the source
unknowns, ranked once per map and degree.

Bounds: `syz`, `tangent` and `betti` search degrees up to B (`--bound`)
and raise ParameterError when B is below the largest generator degree,
where a generator would drop out unseen, or below 0; `tangent` returns
0 first when S/I vanishes in every generator degree, as no syzygy can
matter then.
"""

import numpy as np

from . import linalg
from .errors import ParameterError
from .invariants import BettiTable
from .ring import Polynomial, RingContext, monomials_of_degree


def _codes(vec, exps, radix):
    """Integer key of each (vector, exponent row) pair, every exponent < radix."""
    n = exps.shape[-1]
    return vec * radix**n + exps @ radix ** np.arange(n, dtype=np.int64)


class GradedPieceBasis:
    """Ordered monomial basis of S_d (descending in the ring's order)."""

    __slots__ = ("degree", "monomials", "exps", "_perm", "_sorted")

    def __init__(self, ring: RingContext, degree: int):
        self.degree = degree
        self.monomials = monomials_of_degree(ring.n, degree, ring.order.kind)
        self.exps = np.array(self.monomials, dtype=np.int64).reshape(-1, ring.n)
        codes = _codes(0, self.exps, degree + 1)
        self._perm = np.argsort(codes)
        self._sorted = codes[self._perm]

    def __len__(self):
        return len(self.monomials)

    def columns(self, exps):
        """Column of each degree-d exponent row of exps."""
        return self._perm[np.searchsorted(self._sorted, _codes(0, exps, self.degree + 1))]


def _vector_terms(vectors, n):
    """Flat term arrays (vector, component, exponents, coefficient) of
    module vectors, each a tuple of polynomials, one per component."""
    terms = [(k, i, e, c) for k, vec in enumerate(vectors)
             for i, f in enumerate(vec) for e, c in f.terms]
    vec, comp, exps, coeff = zip(*terms) if terms else ((), (), (), ())
    return (np.array(vec, dtype=np.int64), np.array(comp, dtype=np.int64),
            np.array(exps, dtype=np.int64).reshape(-1, n), np.array(coeff, dtype=np.int64))


def _unknowns(ring, shifts, e):
    """Coordinates of (⊕_j S(-shifts_j))_e: the slot and multiplier
    exponents of each unknown, slots ascending, multipliers descending."""
    slots = [j for j, s in enumerate(shifts) if s <= e]
    by_shift = {s: GradedPieceBasis(ring, e - s).exps for s in {shifts[j] for j in slots}}
    mults = [by_shift[shifts[j]] for j in slots]
    exps = np.concatenate(mults) if mults else np.zeros((0, ring.n), dtype=np.int64)
    return np.repeat(np.array(slots, dtype=np.int64), [len(m) for m in mults]), exps


def _multiples(terms, unk_vec, unk_exps, basis=None):
    """Matrix whose row u is vector unk_vec[u] times x^unk_exps[u].

    Columns are the monomials of `basis` in its order, or else the
    (component, monomial) pairs the rows touch, in code order.  A vector's
    terms are distinct, and so are their products with one monomial: the
    assignment never meets a column twice in a row.
    """
    vec, comp, exps, coeff = terms
    first = np.searchsorted(vec, unk_vec)
    count = np.searchsorted(vec, unk_vec, side="right") - first
    row = np.repeat(np.arange(len(unk_vec)), count)
    t = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    prod = unk_exps[row] + exps[t]
    if basis is not None:
        col, width = basis.columns(prod), len(basis)
    else:
        keys, col = np.unique(_codes(comp[t], prod, int(prod.max(initial=0)) + 1), return_inverse=True)
        width = len(keys)
    mat = np.zeros((len(unk_vec), width), dtype=np.int64)
    mat[row, col] = coeff[t]
    return mat


def _ideal_piece(ideal, d):
    """(basis, slots, multiplier exponents, M) in degree d: the basis of
    S_d, the unknowns of (⊕_j S(-deg f_j))_d, and the matrix M in that
    basis whose row u is generator slots[u] times its multiplier.  The
    row span of M is I_d, and its left kernel the degree-d syzygies."""
    ring, basis = ideal.ring, GradedPieceBasis(ideal.ring, d)
    degs = [f.homogeneous_degree() for f in ideal.generators]
    unk_vec, unk_exps = _unknowns(ring, degs, d)
    terms = _vector_terms([(f,) for f in ideal.generators], ring.n)
    return basis, unk_vec, unk_exps, _multiples(terms, unk_vec, unk_exps, basis)


def _quotient_piece(basis, mat, p):
    """(S/I)_d in the coordinates of `basis`, from the multiples matrix
    of `_ideal_piece`: the nonzero RREF rows of I_d, their pivot columns
    and the free (non-pivot) columns."""
    rref, rank, pivots = linalg.rref(mat, p)
    return rref[:rank], pivots, np.delete(np.arange(len(basis)), pivots)


def hf_bruteforce(ideal, d: int) -> int:
    """dim (S/I)_d = dim S_d - rank of the generator-multiple matrix."""
    if d < 0:
        raise ParameterError(f"degree must be >= 0, got {d}")
    basis, _, _, mat = _ideal_piece(ideal, d)
    return len(basis) - linalg.rank(mat, ideal.ring.field.p)


def hf_values(ideal, degrees):
    """dim (S/I)_d for each of the ascending degrees.  (S/I)_{d+1} =
    S_1 (S/I)_d, so every value after a zero is 0 and is not ranked."""
    values = []
    for d in degrees:
        values.append(hf_bruteforce(ideal, d) if not values or values[-1] else 0)
    return values


def _check_bound(degs, degree_bound):
    """Refuse a degree bound below a generator degree, or below 0."""
    if degs and degree_bound < max(degs):
        raise ParameterError("degree_bound below the maximal generator degree")
    if degree_bound < 0:
        raise ParameterError(f"degree_bound must be >= 0, got {degree_bound}")


def _syzygy_matrices(ideal, degree_bound):
    """(e, slots, multiplier exponents, M) per degree e up to the bound,
    from `_ideal_piece`: the degree-e syzygies are the left kernel of M."""
    degs = [f.homogeneous_degree() for f in ideal.generators]
    _check_bound(degs, degree_bound)
    for e in range(min(degs, default=degree_bound + 1), degree_bound + 1):
        yield (e,) + _ideal_piece(ideal, e)[1:]


def syzygy_counts(ideal, degree_bound: int):
    """{e: dim of the degree-e syzygies} = #unknowns - rank, with no
    kernel basis built."""
    p = ideal.ring.field.p
    return {e: len(unk_vec) - linalg.rank(mat, p)
            for e, unk_vec, _, mat in _syzygy_matrices(ideal, degree_bound)}


def syzygies_bruteforce(ideal, degree_bound: int):
    """Per-degree bases of syzygies of the generator sequence.

    Returns {e: [vector, ...]} where each vector is a tuple of
    polynomials (a_1..a_s) with sum(a_j f_j) = 0 exactly.
    """
    ring = ideal.ring
    gens = ideal.generators
    out = {}
    for e, unk_vec, unk_exps, mat in _syzygy_matrices(ideal, degree_bound):
        ns = linalg.nullspace(mat.T, ring.field.p)
        # columns of ns in order, unknowns in basis order: terms arrive descending
        kk, uu = np.nonzero(ns.T)
        monos = list(map(tuple, unk_exps.tolist()))
        vectors = [[[] for _ in gens] for _ in range(ns.shape[1])]
        for k, u, j, c in zip(kk.tolist(), uu.tolist(), unk_vec[uu].tolist(), ns.T[kk, uu].tolist()):
            vectors[k][j].append((monos[u], c))
        out[e] = [tuple(Polynomial(ring, terms) for terms in vec) for vec in vectors]
    return out


def _column_runs(block):
    """Nonzeros of a kernel block column by column: their rows and values,
    the offset where each column's run starts and that column."""
    cols, rows = np.nonzero(block.T)
    starts = np.flatnonzero(np.diff(cols, prepend=-1))
    return rows, block[rows, cols], starts, cols[starts]


def tangent_bruteforce(ideal, degree_bound: int) -> int:
    """dim Hom(I, S/I)_0 by the syzygy-lift criterion, one kernel rank.

    Unknowns are quotient classes per generator; each brute-force syzygy
    of degree <= degree_bound contributes the linear condition that the
    generator images annihilate it modulo I.  Degrees from the first e
    with (S/I)_e = 0 on contribute nothing and are not built.
    """
    ring = ideal.ring
    gens = ideal.generators
    if not gens:
        _check_bound([], degree_bound)
        return 0
    p = ring.field.p
    degs = [f.homogeneous_degree() for f in gens]
    pieces = {}
    for e in range(min(degs), max(degs + [degree_bound]) + 1):
        basis, unk_vec, unk_exps, mat = _ideal_piece(ideal, e)
        rref, pivots, free = _quotient_piece(basis, mat, p)
        if not len(free):
            break  # (S/I)_{e+1} = S_1 (S/I)_e, so every later piece is zero
        pieces[e] = basis, rref, pivots, free, unk_vec, unk_exps, mat
    unknowns = [(j, pieces[d][0].exps[c]) for j, d in enumerate(degs) if d in pieces for c in pieces[d][3]]
    if not unknowns:
        return 0
    _check_bound(degs, degree_bound)
    blocks = []
    for e, (basis, rref, pivots, free, unk_vec, unk_exps, mat) in pieces.items():
        ns = linalg.nullspace(mat.T, p)
        if not ns.shape[1]:
            continue
        # row c: the normal form of the c-th monomial of S_e modulo I_e
        nf = np.zeros((len(basis), len(free)), dtype=np.int64)
        nf[free] = np.eye(len(free), dtype=np.int64)
        nf[pivots] = -rref[:, free] % p
        slots = [(unk_exps[unk_vec == j], _column_runs(ns[unk_vec == j])) for j in range(len(gens))]
        block = np.zeros((ns.shape[1], len(free), len(unknowns)), dtype=np.int64)
        for k, (j, m) in enumerate(unknowns):
            # a_j * m of every degree-e syzygy, reduced modulo I_e
            exps, (rows, coeff, starts, syz) = slots[j]
            if len(rows):
                terms = nf[basis.columns(exps[rows] + m)] * coeff[:, None] % p
                block[syz, :, k] = np.add.reduceat(terms, starts, axis=0) % p
        # one row per syzygy and free monomial, one column per unknown
        block = block.reshape(-1, len(unknowns))
        blocks.append(block[block.any(axis=1)])
    return len(unknowns) - (linalg.rank(np.vstack(blocks), p) if blocks else 0)


def _free_rows(ns):
    """Rows holding the identity block of a standard-form kernel basis
    (`linalg.nullspace`): the last nonzero of each column, since the RREF
    rows behind the other entries are zero left of their pivots."""
    return len(ns) - 1 - np.argmax(ns[::-1] != 0, axis=0)


def _units_kept(rows, p):
    """The k whose unit rows e_k `greedy_independent_rows` keeps on
    [rows; I], without the identity block: e_k is dropped exactly when
    some vector of the row span has its last nonzero at k, i.e. k is a
    pivot column of the rows read right to left."""
    width = rows.shape[1]
    last = {width - 1 - c for c in linalg.pivot_columns(rows[:, ::-1], p)}
    return [k for k in range(width) if k not in last]


def _new_generators(prev, unk_vec, unk_exps, ns, p):
    """Columns of the degree-e kernel basis ns that the Nakayama selection
    keeps: those outside the span of the x_v-multiples of the degree-(e-1)
    kernel `prev` = (slots, multiplier exponents, kernel), None if e is
    the first degree.

    The multiples are gathered at the free rows of ns only: at the
    unknown (j, x^a), x_v * c holds the entry of c at (j, x^(a - e_v))
    if a_v > 0, and 0 otherwise.  Column k is kept unless k is a pivot
    column of the multiples read right to left (`_units_kept`).
    """
    free = _free_rows(ns)
    if prev is None or not len(free):
        return list(range(len(free)))
    prev_vec, prev_exps, prev_ns = prev
    k, v = np.nonzero(unk_exps[free])
    down = unk_exps[free[k]]
    down[np.arange(len(k)), v] -= 1
    radix = int(unk_exps.max()) + 1
    keys = _codes(prev_vec, prev_exps, radix)
    perm = np.argsort(keys)
    target = perm[np.searchsorted(keys[perm], _codes(unk_vec[free[k]], down, radix))]
    rows = np.zeros((unk_exps.shape[1], prev_ns.shape[1], len(free)), dtype=np.int64)
    rows[v, :, k] = prev_ns[target]
    return _units_kept(rows.reshape(-1, len(free)), p)


def betti_bruteforce(ideal, max_step: int, degree_bound: int) -> BettiTable:
    """Graded Betti numbers from iterated brute-force syzygy modules.

    beta_{i,j} counts degree-j kernel elements independent of the
    monomial multiples of lower-degree ones (Nakayama by rank); the
    chosen representatives feed the next homological level.  Step s
    searches degrees up to min(degree_bound, s + z), z the first degree
    below the bound with (S/I)_z = 0, else the bound (Stopping).
    """
    if max_step < 0:
        raise ParameterError(f"max_step must be >= 0, got {max_step}")
    ring = ideal.ring
    p = ring.field.p
    gens = list(ideal.generators)
    degs = [f.homogeneous_degree() for f in gens]
    _check_bound(degs, degree_bound)
    if not gens:
        return BettiTable({})
    values = hf_values(ideal, range(degree_bound))
    z = values.index(0) if 0 in values else degree_bound
    entries = {}

    # level 0: minimal generators of the ideal among monomial multiples
    chosen = []
    for e in range(min(degs), z + 1):
        cands = [j for j, d in enumerate(degs) if d == e]
        if not cands:
            continue
        order = chosen + cands
        unk_vec, unk_exps = _unknowns(ring, [degs[j] for j in order], e)
        mat = _multiples(_vector_terms([(gens[j],) for j in order], ring.n), unk_vec, unk_exps)
        nbase = len(unk_vec) - len(cands)
        keep = set(linalg.greedy_independent_rows(mat, p))
        new = [j for k, j in enumerate(cands) if nbase + k in keep]
        if new:
            entries[(0, e)] = len(new)
            chosen.extend(new)

    level = _vector_terms([(gens[j],) for j in chosen], ring.n)
    shifts = [degs[j] for j in chosen]
    for step in range(1, max_step + 1):
        if not shifts:
            break
        next_terms, next_shifts, prev = [], [], None
        for e in range(min(shifts), min(degree_bound, step + z) + 1):
            unk_vec, unk_exps = _unknowns(ring, shifts, e)
            ns = linalg.nullspace(_multiples(level, unk_vec, unk_exps).T, p)
            new = _new_generators(prev, unk_vec, unk_exps, ns, p)
            prev = unk_vec, unk_exps, ns
            if new:
                entries[(step, e)] = len(new)
                cols = ns[:, new].T
                kk, uu = np.nonzero(cols)
                next_terms.append((kk + len(next_shifts), unk_vec[uu], unk_exps[uu], cols[kk, uu]))
                next_shifts.extend([e] * len(new))
        if next_terms:
            level = tuple(np.concatenate(parts) for parts in zip(*next_terms))
        shifts = next_shifts

    return BettiTable(entries)


def exactness_violations(ideal, res, degree_bound: int):
    """(k, d, dim ker, rank im) wherever a resolution is not exact in
    degree d <= degree_bound at stage k.

    Stage 0 is the augmentation F_1 -> I and stage k the map F_{k+1} ->
    F_k; the kernel of the last map must vanish.  Each degree-d piece is
    the matrix of the source unknowns' multiples, ranked once.
    """
    ring, p = ideal.ring, ideal.ring.field.p
    if not res.modules:
        return []
    pieces = []  # per stage and degree: (source dimension, rank)
    for gmap in [res.augmentation()] + list(res.maps):
        terms = _vector_terms([gmap.column(j) for j in range(gmap.source.rank)], ring.n)
        unknowns = [_unknowns(ring, gmap.source.shifts, d) for d in range(degree_bound + 1)]
        pieces.append([(len(u[0]), linalg.rank(_multiples(terms, *u), p)) for u in unknowns])
    out = []
    for k, stage in enumerate(pieces):
        for d, (dim, rank) in enumerate(stage):
            im = pieces[k + 1][d][1] if k + 1 < len(pieces) else 0
            if dim - rank != im:
                out.append((k, d, dim - rank, im))
    return out
