"""Brute-force invariants by graded linear algebra only.

Every value the Gröbner engine produces is recomputed here from raw
coordinate matrices over F_p: graded pieces are spanned by monomial
multiples of the generators, and everything reduces to rank and kernel
computations.  Nothing here touches the Gröbner machinery; that
independence is the point.

Coordinates: a monomial is a row of an int64 exponent array, located in
the basis of S_d by its mixed-radix integer code (radix d + 1) and a
`searchsorted`.  Module vectors are flat term arrays (vector, component,
exponents, coefficient), so "v times every monomial of degree e - deg v"
is a few repeats and gathers for all v at once (`_multiples`): an
entry's code is its multiplier's code plus its term's, each taken once,
and the matrix is the list of its nonzeros, a `linalg.SparseMatrix`,
which the kernels write out dense only as the block their singleton
peel leaves.  Codes must fit in int64, and each code space is checked
where it is built (`_code_weights`: the graded-piece bases, `_multiples`
without a basis, `_new_generators`), so an input past it raises
ResourceLimitError before any code is built, never a wrong value: in 40
variables degree 2 fits, 2 * 3^39 < 2^63, and degree 3 does not.  The
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
and NF[pivots] = -R[:, free]: it is the standard-form basis of the right
kernel of the degree's matrix of multiples (`linalg.nullspace`).  So the
reduction is the sum of c * NF[x^(t+m)] over the terms c x^t of a_j: a
gather of table rows, each product reduced mod p, then one segmented sum
per syzygy.  Products stay below p^2 and each sum adds fewer than 2^32
terms below p, so int64 is exact for every p < 2^31, and the work
follows the syzygies' nonzeros, not dim S_e.  Each generator slot takes
one gather and one segmented sum for all its unknowns, in chunks no
larger than the degree's matrix of multiples.  Only the syzygies the
Nakayama selection keeps are lifted (Selection): for a = x_v * b, b a
syzygy of degree e - 1, sum a_j phi_j = x_v * sum b_j phi_j, so a's
condition is x_v times b's and lies in the span of b's; the kept
syzygies give the span, and the rank, of all.  A syzygy whose entries
all lie in I is not lifted either: each a_j phi_j lies in I, so its
condition rows are exactly the zero rows the lift drops.  Membership is
the same projection one degree down: a_j, of degree e - deg f_j, lies in
I when its gathered normal form is zero.  A complete intersection's
syzygies are generated by the Koszul ones, whose entries lie in I (I/I^2
is free over S/I), so a complete intersection such as a cone curve lifts
nothing.

Vanishing: S/I is generated in degree 0, so (S/I)_{e+1} = S_1 (S/I)_e
and every piece after a zero one is zero.  `hf_values` answers 0 from
there on without ranking.  `tangent_bruteforce` reads the first zero
piece off the size of the degree's syzygy kernel, #unknowns - dim ker
= dim S_e, and builds nothing from there on, where every condition is
zero; below it, one matrix of multiples per degree gives the kernel
and, where Rank only says so, the quotient piece.

Stopping: step s of `betti_bruteforce`'s search (step 0 the generators)
counts beta_{s+1,j}(S/I), which is zero for j >= s + 1 + z, z the first
degree with (S/I)_z = 0: the Koszul chain group of Tor_{s+1}(S/I, k)_j
is ∧^{s+1} k^n ⊗ (S/I)_{j-s-1}, zero from there on.  So step s searches
degrees up to min(B, s + z).  z comes from ranks the search makes
anyway: level 0's selection in degree e keeps dim I_e rows, and step
1's kernel in degree e has #unknowns - dim ker = dim I_e, the chosen
generators spanning I_e.  z starts at B and drops to the first e < B
where either equals dim S_e.  Level 0 stops above z, step 1 reads the
current z as its limit and later steps the final one.  Step 1 ranks
every degree from the lowest generator degree up, and I_e = 0 below it,
so no zero piece below B is missed; with none, z = B and nothing is
cut.  No Hilbert value is ranked on its own.  The check stays
independent: the engine's `_koszul_betti` runs on an Artinian reduction
S'/J of S/I, by linear nonzerodivisors, whose pieces are quotients of
those of S/I, so its first zero piece z' is at most z and its chain
groups are zero in every skipped degree too: neither side computes
anything there.  An entry the engine misses below the stop still
differs from the oracle's, and a spurious engine entry above it meets
the oracle's 0.

Koszul: beta_{k,j}(S/I) = dim H_k(K(x) ⊗ S/I)_j (Eisenbud, The Geometry
of Syzygies, ch. 1), and row i of I's table is beta_{i+1}(S/I) when
I ⊂ m.  (K_k ⊗ S/I)_j is one copy of (S/I)_{j-k} per k-subset of the
variables, so beta_{k,j} = C(n,k) h(j-k) - rank d_k - rank d_{k+1},
with rank d_1 = h(j) for j >= 1, S/I being generated in degree 0.  The
pieces are the oracle's own, `_quotient_piece` for each d < z, each
table the right-kernel basis of the degree's multiples, and
x_t: (S/I)_d -> (S/I)_{d+1} is the gather nf_{d+1}[columns(u + e_t)]
over the free monomials u of degree d: no Gröbner basis, no
`QuotientBasis`, no Artinian reduction, no Taylor caps.  Each d_k is
built from the nonzeros of the x_t, block by block, as a
`linalg.SparseMatrix` (`_koszul_differential`), never as the dense
C(n,k) h(d) x C(n,k-1) h(d+1) array: on Γ of the rational normal curve
in P^8 at m = 4 these are 0.16% nonzero.
`betti_bruteforce` takes this path when level 0 alone finds
0 < z < B, a generator degree where the kept generators span S_z, as
on a truncation I_Y + m^m below its bound; z = 0 is the unit ideal, not
in m.  Otherwise it runs the step search of Stopping and Selection.
The chain groups follow the answer on such a quotient, but a
hypersurface's are large while its syzygy search is nearly empty:
Koszul homology took the quadric cone's `betti` at bound 8 from 1.06 to
8.87 ms (2-vCPU host), so a quotient that does not vanish below the
bound keeps the search.  Row 0 of the Koszul table must equal level 0's
selection, else RuntimeError.

Selection: at each Betti level and degree e of the search the
Nakayama selection runs on kernel coordinates, degree by degree with
only ker_{e-1} kept.  The standard-form kernel basis of ker_e holds an
identity block in its rows `free`, and z -> z[free] maps ker_e onto
F^k keeping every linear dependence.  The x_v-multiples of ker_{e-1}
lie in ker_e, so they are gathered at `free` only, into rows B, and
the selection is the greedy one on [B; I].  That keeps the unit row
e_k unless some vector of the row span of B ends at k (its last
nonzero), so the new generators are the coordinates that are not pivots
of B read right to left, and no identity block is built.
`tangent_bruteforce` runs the same selection
on the first syzygies of the generators as given, then drops each kept
syzygy whose entries all lie in I (Projection).  The rank stays
exact: the dropped syzygies' conditions are zero, and the rest span
the same conditions.

Rank only: a Hilbert value is dim S_d minus the rank of the
generator-multiple matrix, and a syzygy count is the number of unknowns
minus it, so `hf_bruteforce` and `syzygy_counts` (`oracle syz`) call
`linalg.rank` on the nonzero lists of `_multiples` and build no echelon
rows or kernel basis.  A kernel basis, and the echelon form behind it,
is built only where its rows are read.  The left kernels are those of
`syzygies_bruteforce`, `tangent_bruteforce` and `betti_bruteforce`'s
search.  The right kernels are the normal-form tables: of the Koszul
pass's quotient pieces, whose tables give x_t, and of
`tangent_bruteforce`'s quotient pieces at generator degrees, whose free
monomials are the unknowns, at degrees with a kept syzygy that has an
entry outside I, whose normal-form tables its conditions read, and at
the lower degrees e - deg f_j whose tables a membership check reads,
built only when a nonzero entry needs one.  Every other rank those two
need is a kernel's #unknowns - dim ker, so they make one elimination per
degree elsewhere.

Exactness: `exactness_violations` checks an engine resolution on the
same matrices of multiples.  A graded map's columns become flat term
arrays, the vector being the source slot and the component the target
slot, so the degree-d piece of the map is `_multiples` of the source
unknowns, ranked once per map and degree.

Bounds: `syz`, `tangent` and `betti` search degrees up to B (`--bound`)
and raise ParameterError when B is below the largest generator degree,
where a generator would drop out unseen, or below 0; `tangent` returns
0 first when S/I vanishes in every generator degree, as no syzygy can
matter then, and refuses the unit ideal (a generator of degree 0) as
the engine's `tangent_space` does.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .errors import DegenerateInputError, ParameterError, ResourceLimitError
from .invariants import BettiTable
from .ring import Polynomial, RingContext, monomials_of_degree


def _code_weights(n, radix, degree, vectors=1):
    """(weights, step) of the integer codes of (vector, exponent row)
    pairs, vectors below `vectors` and exponent rows in n variables with
    entries below radix summing to at most degree: a pair's code is
    vector * step + exps @ weights, weights the powers radix**i and step
    one more than the largest exponent code, at most degree *
    radix**(n - 1) and below radix**n.

    Codes are distinct, and ordered by vector, then by exponents from
    the last variable.  Raises ResourceLimitError, before any code is
    built, when the largest does not fit in int64.
    """
    step = min(degree * radix ** (n - 1), radix**n - 1) + 1
    if vectors * step >= 2**63:
        over = f" over {vectors} components" if vectors > 1 else ""
        raise ResourceLimitError(f"the oracle's codes of monomials of degree {degree} in {n} variables{over} exceed int64")
    return np.array([radix**i for i in range(n)], dtype=np.int64), step


class GradedPieceBasis:
    """Ordered monomial basis of S_d (descending in the ring's order).

    `GradedPieceBasis(ring, d)` returns the one instance built for
    (n, d, order kind), shared like the monomial lists of
    `monomials_of_degree`: `_unknowns` and `_ideal_piece` ask for the
    same few pieces in every degree of every call.  Its arrays are
    read-only.
    """

    __slots__ = ("degree", "monomials", "exps", "weights", "_perm", "_sorted")

    def __new__(cls, ring: RingContext, degree: int):
        return _graded_piece_basis(ring.n, degree, ring.order.kind)

    def __len__(self):
        return len(self.monomials)

    def columns(self, exps):
        """Column of each degree-d exponent row of exps."""
        return self.columns_of(exps @ self.weights)

    def columns_of(self, codes):
        """Column of each degree-d monomial's code, exps @ weights."""
        return self._perm[np.searchsorted(self._sorted, codes)]


@lru_cache(maxsize=None)
def _graded_piece_basis(n, degree, order_kind):
    """The shared `GradedPieceBasis` of S_d in n variables."""
    basis = object.__new__(GradedPieceBasis)
    basis.degree = degree
    basis.weights = _code_weights(n, degree + 1, degree)[0]
    basis.monomials = monomials_of_degree(n, degree, order_kind)
    basis.exps = np.array(basis.monomials, dtype=np.int64).reshape(-1, n)
    codes = basis.exps @ basis.weights
    basis._perm = np.argsort(codes)
    basis._sorted = codes[basis._perm]
    for array in (basis.exps, basis.weights, basis._perm, basis._sorted):
        array.flags.writeable = False
    return basis


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
    """Matrix, as a `linalg.SparseMatrix`, whose row u is vector
    unk_vec[u] times x^unk_exps[u].

    Columns are the monomials of `basis` in its order, or else the
    (component, monomial) pairs the rows touch, in code order.  An
    entry's code (`_code_weights`) is its multiplier's code plus its
    term's, since no exponent of a product reaches the radix, so codes
    are taken per multiplier and per term, not per entry; with `basis`,
    the basis checked that its codes fit, and a term of a vector that no
    row multiplies may wrap unread.  A vector's terms are distinct, and
    so are their products with one monomial: no row meets a column
    twice.
    """
    vec, comp, exps, coeff = terms
    first = np.searchsorted(vec, unk_vec)
    count = np.searchsorted(vec, unk_vec, side="right") - first
    row = np.repeat(np.arange(len(unk_vec)), count)
    t = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    if basis is not None:
        col = basis.columns_of((unk_exps @ basis.weights)[row] + (exps @ basis.weights)[t])
        width = len(basis)
    else:
        radix = int((unk_exps.max(axis=0, initial=0) + exps.max(axis=0, initial=0)).max(initial=0)) + 1
        degree = int(unk_exps.sum(axis=1).max(initial=0) + exps.sum(axis=1).max(initial=0))
        weights, step = _code_weights(exps.shape[1], radix, degree, int(comp.max(initial=0)) + 1)
        keys, col = np.unique((unk_exps @ weights)[row] + (comp * step + exps @ weights)[t], return_inverse=True)
        width = len(keys)
    return linalg.SparseMatrix(row, col, coeff[t], (len(unk_vec), width))


def _generator_terms(ideal):
    """(ring, degrees, flat term arrays) of the generators, each a
    one-component vector: what every `_ideal_piece` of one ideal reads,
    built once per call."""
    gens = ideal.generators
    return (ideal.ring, [f.homogeneous_degree() for f in gens],
            _vector_terms([(f,) for f in gens], ideal.ring.n))


def _ideal_piece(gens, d):
    """(basis, slots, multiplier exponents, M) in degree d, from the
    `_generator_terms` gens: the basis of S_d, the unknowns of
    (⊕_j S(-deg f_j))_d, and the matrix M in that basis whose row u is
    generator slots[u] times its multiplier.  The row span of M is I_d,
    and its left kernel the degree-d syzygies."""
    ring, degs, terms = gens
    basis = GradedPieceBasis(ring, d)
    unk_vec, unk_exps = _unknowns(ring, degs, d)
    return basis, unk_vec, unk_exps, _multiples(terms, unk_vec, unk_exps, basis)


def _quotient_piece(basis, mat, p):
    """(S/I)_d in the coordinates of `basis`, from the multiples matrix
    M of `_ideal_piece`: the free (non-pivot) columns of the RREF R of
    I_d, and the normal-form table NF of S_d, whose row c is the normal
    form of the c-th monomial.  NF[free] = 1 and NF[pivots] =
    -R[:, free] is the standard-form basis of M's right kernel
    (`linalg.nullspace`), and `free` its identity rows (`_free_rows`)."""
    nf = linalg.nullspace(mat, p)
    return _free_rows(nf), nf


def _hf(gens, d):
    """dim (S/I)_d = dim S_d - rank of the generator-multiple matrix."""
    if d < 0:
        raise ParameterError(f"degree must be >= 0, got {d}")
    basis, _, _, mat = _ideal_piece(gens, d)
    return len(basis) - linalg.rank(mat, gens[0].field.p)


def hf_bruteforce(ideal, d: int) -> int:
    """dim (S/I)_d = dim S_d - rank of the generator-multiple matrix."""
    return _hf(_generator_terms(ideal), d)


def hf_values(ideal, degrees):
    """dim (S/I)_d for each of the ascending degrees.  (S/I)_{d+1} =
    S_1 (S/I)_d, so every value after a zero is 0 and is not ranked."""
    gens, values = _generator_terms(ideal), []
    for d in degrees:
        values.append(_hf(gens, d) if not values or values[-1] else 0)
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
    gens = _generator_terms(ideal)
    degs = gens[1]
    _check_bound(degs, degree_bound)
    for e in range(min(degs, default=degree_bound + 1), degree_bound + 1):
        yield (e,) + _ideal_piece(gens, e)[1:]


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
    weights, step = _code_weights(unk_exps.shape[1], int(unk_exps.max()) + 1,
                                  int(unk_exps.sum(axis=1).max()), int(unk_vec.max()) + 1)
    keys = prev_vec * step + prev_exps @ weights
    perm = np.argsort(keys)
    target = perm[np.searchsorted(keys[perm], unk_vec[free[k]] * step + down @ weights)]
    rows = np.zeros((unk_exps.shape[1], prev_ns.shape[1], len(free)), dtype=np.int64)
    rows[v, :, k] = prev_ns[target]
    return _units_kept(rows.reshape(-1, len(free)), p)


def _outside_ideal(col, unk_vec, e, gens, quotients, p):
    """Whether some entry a_j of the degree-e syzygy `col` (a kernel
    column over the degree-e unknowns, slots unk_vec) lies outside I.

    Slot j's rows hold a_j in the basis of S_{e - deg f_j}, so a_j lies
    in I exactly when its normal form, the sum of a_j's coefficients
    times the rows of that degree's normal-form table, is zero; below the
    lowest generator degree I is zero.  `quotients` caches the
    `_quotient_piece` of each degree: entries whose piece is built, or
    needs none, are read first, a missing piece is built only for a
    nonzero entry, and the first nonzero normal form answers.
    """
    _, degs, _ = gens
    low = min(degs)
    ready = [e - d < low or e - d in quotients for d in degs]
    for j in sorted(range(len(degs)), key=lambda j: not ready[j]):
        a = col[unk_vec == j]
        nz = np.flatnonzero(a)
        d = e - degs[j]
        if not len(nz):
            continue
        if d < low:
            return True
        if d not in quotients:
            basis, _, _, mat = _ideal_piece(gens, d)
            quotients[d] = (basis,) + _quotient_piece(basis, mat, p)
        nf = quotients[d][2]
        if ((nf[nz] * a[nz, None] % p).sum(axis=0) % p).any():
            return True
    return False


def _lift_conditions(basis, free, nf, unk_vec, unk_exps, syz, unknowns, p):
    """Tangent conditions of the degree-e syzygies `syz` (kernel columns
    over the unknowns unk_vec, unk_exps): one row per syzygy and free
    monomial of S_e, one column per unknown (j, m) of `unknowns` =
    (slots, multiplier exponents), the normal form of a_j * m modulo I_e
    (Projection), from the quotient piece (free, nf) of I_e in `basis`;
    zero rows are dropped.

    Each slot takes one gather and one segmented sum for all its
    unknowns, in chunks of unknowns small enough that no temporary
    outgrows the degree's matrix of multiples, #unknowns x dim S_e.
    """
    slots, mults = unknowns
    n, width = mults.shape[1], len(free)
    budget = len(unk_vec) * len(basis)
    block = np.zeros((syz.shape[1], width, len(slots)), dtype=np.int64)
    for j in sorted(set(slots.tolist())):  # not np.unique, whose first call imports numpy.ma (~1 MB RSS)
        ks = np.flatnonzero(slots == j)
        rows, coeff, starts, cols = _column_runs(syz[unk_vec == j])
        if not len(rows):
            continue
        exps = unk_exps[unk_vec == j][rows]
        step = max(1, budget // (len(rows) * max(width, n)))
        for lo in range(0, len(ks), step):
            chunk = ks[lo:lo + step]
            prod = (exps[:, None] + mults[chunk]).reshape(-1, n)
            terms = nf[basis.columns(prod)].reshape(len(rows), len(chunk), width) * coeff[:, None, None] % p
            # the two index arrays, split by a slice, put their (cols, chunk) axes first
            block[cols[:, None], :, chunk] = np.add.reduceat(terms, starts, axis=0) % p
    block = block.reshape(syz.shape[1] * width, len(slots))
    return block[block.any(axis=1)]


def tangent_bruteforce(ideal, degree_bound: int) -> int:
    """dim Hom(I, S/I)_0 by the syzygy-lift criterion, one kernel rank.

    Unknowns are quotient classes per generator; each minimal first
    syzygy of degree <= degree_bound, as the Nakayama selection keeps
    it from the degree's kernel (`_new_generators`), contributes the
    linear condition that the generator images annihilate it modulo I.
    A syzygy x_v * b, b of degree e - 1, gives x_v times b's condition,
    so the kept ones give the same conditions' span as every syzygy.
    A kept syzygy whose entries all lie in I gives zero conditions and
    is dropped before lifting (`_outside_ideal`).  One elimination per
    degree gives the kernel and, by its size, the rank of I_e; the
    echelon form of I_e is built only at generator degrees, degrees
    with a kept syzygy that has an entry outside I, and the lower
    degrees whose pieces that check reads.  Degrees from the first e
    with (S/I)_e = 0 on contribute nothing and are not built.
    """
    if not ideal.generators:
        _check_bound([], degree_bound)
        return 0
    gens = _generator_terms(ideal)
    ring, degs, _ = gens
    if 0 in degs:
        raise DegenerateInputError("tangent space of the unit ideal is undefined")
    p = ring.field.p
    quotients, lifts, prev = {}, [], None
    for e in range(min(degs), max(degs + [degree_bound]) + 1):
        basis, unk_vec, unk_exps, mat = _ideal_piece(gens, e)
        ns = linalg.nullspace(mat.T, p)
        if len(unk_vec) - ns.shape[1] == len(basis):
            break  # (S/I)_{e+1} = S_1 (S/I)_e, so every later piece is zero
        new = _new_generators(prev, unk_vec, unk_exps, ns, p)
        prev = unk_vec, unk_exps, ns
        cut = [k for k in new if _outside_ideal(ns[:, k], unk_vec, e, gens, quotients, p)]
        if e in degs or cut:
            quotients[e] = (basis,) + _quotient_piece(basis, mat, p)
        if cut:
            lifts.append((e, unk_vec, unk_exps, ns[:, cut]))
    built = [j for j, d in enumerate(degs) if d in quotients]
    free = [quotients[degs[j]][1] for j in built]
    if not sum(map(len, free)):
        return 0
    _check_bound(degs, degree_bound)
    unknowns = (np.repeat(np.array(built, dtype=np.int64), [len(c) for c in free]),
                np.concatenate([quotients[degs[j]][0].exps[c] for j, c in zip(built, free)]))
    blocks = [_lift_conditions(*quotients[e], unk_vec, unk_exps, syz, unknowns, p)
              for e, unk_vec, unk_exps, syz in lifts]
    return len(unknowns[0]) - (linalg.rank(np.vstack(blocks), p) if blocks else 0)


@lru_cache(maxsize=None)
def _koszul_faces(n, k):
    """(sigma, face, t, odd), one entry per k-subset sigma of the n
    variables and position a in it: the index of sigma, that of sigma
    minus its a-th variable t among the (k - 1)-subsets, t, and whether a
    is odd.  The arrays are read-only."""
    faces = {tau: r for r, tau in enumerate(combinations(range(n), k - 1))}
    blocks = [(c, faces[sigma[:a] + sigma[a + 1:]], t, a % 2)
              for c, sigma in enumerate(combinations(range(n), k)) for a, t in enumerate(sigma)]
    out = tuple(np.array(part, dtype=np.int64) for part in zip(*blocks))
    for array in out:
        array.flags.writeable = False
    return out


def _nonzeros(mats):
    """(rows, columns, values, counts) of the nonzeros of each of the
    dense matrices in turn, concatenated."""
    parts = [(r, c, mat[r, c]) for mat in mats for r, c in [mat.nonzero()]]
    return [np.concatenate(part) for part in zip(*parts)] + [np.array([len(r) for r, _, _ in parts], dtype=np.int64)]


def _koszul_differential(n, k, src, tgt, times, p):
    """The transpose of d_k: (K_k ⊗ S/I)_j -> (K_{k-1} ⊗ S/I)_j as a
    `linalg.SparseMatrix`, from the nonzeros of the maps x_t: (S/I)_d ->
    (S/I)_{d+1}, d = j - k, of dimensions src and tgt: `times` is their
    `_nonzeros`, x_0 to x_{n-1}, whose values are nonzero residues.
    Block (sigma, sigma minus its a-th variable t) is (-1)^a x_t, so each
    block's entries are x_t's, placed by a gather, and no entry outside
    them is written."""
    sigma, face, t, odd = _koszul_faces(n, k)
    rows, cols, vals, counts = times
    count = counts[t]
    q = np.repeat(np.arange(len(t)), count)
    at = np.repeat((counts.cumsum() - counts)[t] - count.cumsum() + count, count) + np.arange(count.sum())
    v = vals[at]
    return linalg.SparseMatrix(sigma[q] * src + rows[at], face[q] * tgt + cols[at], np.where(odd[q], p - v, v),
                               (comb(n, k) * src, comb(n, k - 1) * tgt))


def _koszul_entries(gens, z, max_step, degree_bound):
    """{(k - 1, j): beta_{k,j}(S/I)} for k <= min(max_step + 1, n) and
    k <= j <= degree_bound, as Koszul homology on the pieces (S/I)_d,
    d < z, of the `_generator_terms` gens, given (S/I)_z = 0 (Koszul)."""
    ring = gens[0]
    n, p = ring.n, ring.field.p
    pieces = []  # (basis, free columns, normal-form table) of (S/I)_d
    for d in range(z):
        basis, _, _, mat = _ideal_piece(gens, d)
        free, nf = _quotient_piece(basis, mat, p)
        if not len(free):
            break  # every later piece is zero too (Vanishing)
        pieces.append((basis, free, nf))
    h = [len(free) for _, free, _ in pieces] + [0]
    units, times, ranks = np.eye(n, dtype=np.int64), {}, {}  # times[d]: nonzeros of each x_t

    def rank(k, j):
        """Rank of d_k: (K_k ⊗ S/I)_j -> (K_{k-1} ⊗ S/I)_j for j - k < len(h),
        from the nonzeros of each x_t (`_koszul_differential`), whose row
        u is the normal form of x_t u in (S/I)_{d+1}, u a free monomial of
        degree d = j - k."""
        d = j - k
        if k == 1:
            return h[j]  # S/I is generated in degree 0
        if k > n or d < 0 or not h[d + 1]:
            return 0
        if d not in times:
            (basis, free, _), (up, _, nf) = pieces[d], pieces[d + 1]
            times[d] = _nonzeros([nf[up.columns(basis.exps[free] + units[t])] for t in range(n)])
        if (k, j) not in ranks:
            ranks[k, j] = linalg.rank(_koszul_differential(n, k, h[d], h[d + 1], times[d], p), p)
        return ranks[k, j]

    entries = {}
    for k in range(1, min(max_step + 1, n) + 1):
        for j in range(k, min(degree_bound, k + len(h) - 2) + 1):
            entries[(k - 1, j)] = comb(n, k) * h[j - k] - rank(k, j) - rank(k + 1, j)
    return entries


def betti_bruteforce(ideal, max_step: int, degree_bound: int) -> BettiTable:
    """Graded Betti numbers from iterated brute-force syzygy modules, or
    from Koszul homology where S/I vanishes below the bound.

    beta_{i,j} counts degree-j kernel elements independent of the
    monomial multiples of lower-degree ones (Nakayama by rank); the
    chosen representatives feed the next homological level.  Step s
    searches degrees up to min(degree_bound, s + z), z the first degree
    below the bound with (S/I)_z = 0, else the bound, read off level 0's
    and step 1's ranks as they go (Stopping).  When level 0 alone finds
    0 < z < degree_bound, the steps are read off the Koszul homology of
    the pieces (S/I)_d, d < z, instead (Koszul).
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
    z = degree_bound  # lowered to the first e < B with (S/I)_e = 0 (Stopping)
    entries = {}

    # level 0: minimal generators of the ideal among monomial multiples
    chosen = []
    for e in range(min(degs), degree_bound + 1):
        if e > z:
            break
        cands = [j for j, d in enumerate(degs) if d == e]
        if not cands:
            continue
        order = chosen + cands
        unk_vec, unk_exps = _unknowns(ring, [degs[j] for j in order], e)
        mat = _multiples(_vector_terms([(gens[j],) for j in order], ring.n), unk_vec, unk_exps)
        nbase = len(unk_vec) - len(cands)
        keep = set(linalg.greedy_independent_rows(mat, p))
        if len(keep) == comb(ring.n - 1 + e, e):
            z = e  # the rows span I_e
        new = [j for k, j in enumerate(cands) if nbase + k in keep]
        if new:
            entries[(0, e)] = len(new)
            chosen.extend(new)

    if max_step and 0 < z < degree_bound:  # I ⊂ m and (S/I)_z = 0 (Koszul)
        koszul = BettiTable(_koszul_entries(_generator_terms(ideal), z, max_step, degree_bound))
        if {key: b for key, b in koszul.entries.items() if key[0] == 0} != entries:
            raise RuntimeError("Koszul homology disagrees with the minimal generators")
        return koszul

    level = _vector_terms([(gens[j],) for j in chosen], ring.n)
    shifts = [degs[j] for j in chosen]
    for step in range(1, max_step + 1):
        if not shifts:
            break
        next_terms, next_shifts, prev = [], [], None
        e = min(shifts)
        while e <= min(degree_bound, step + z):
            unk_vec, unk_exps = _unknowns(ring, shifts, e)
            ns = linalg.nullspace(_multiples(level, unk_vec, unk_exps).T, p)
            if step == 1 and len(unk_vec) - ns.shape[1] == comb(ring.n - 1 + e, e):
                z = min(z, e)  # the chosen generators span I_e
            new = _new_generators(prev, unk_vec, unk_exps, ns, p)
            prev = unk_vec, unk_exps, ns
            if new:
                entries[(step, e)] = len(new)
                cols = ns[:, new].T
                kk, uu = np.nonzero(cols)
                next_terms.append((kk + len(next_shifts), unk_vec[uu], unk_exps[uu], cols[kk, uu]))
                next_shifts.extend([e] * len(new))
            e += 1
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
