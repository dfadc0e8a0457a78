"""The mod-p kernels on nonzero lists, and the oracle's sparse builders.

`linalg.SparseMatrix` holds a matrix as row, column and value arrays
with a shape.  `rank`, `pivot_columns`, `nullspace`,
`greedy_independent_rows` and `rref` must give the same answers on it as
on the dense array, and those of a pure-Python Gauss-Jordan reference,
at p in {2, 3, 32003, 2^31 - 1}: on matrices with singleton chains,
repeated singletons, zero rows and columns, entries not yet reduced mod
p (some of them zero mod p), entries listed in any order, and empty
shapes.  Both inputs meet one peel (`linalg._peeled_block`), which must
leave the same block, with no singleton row.  The oracle's matrices of
multiples (`_multiples`, with a basis and without) and its Koszul
differentials (`_koszul_differential`) must equal dense builders kept
here as references.
"""

from itertools import combinations
from math import comb

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfstrata import linalg  # noqa: E402
from hfstrata.oracle import (  # noqa: E402
    _generator_terms,
    _ideal_piece,
    _koszul_differential,
    _multiples,
    _nonzeros,
    _unknowns,
    _vector_terms,
    syzygies_bruteforce,
)

from test_linalg import reference_rref  # noqa: E402
from test_oracle_reference import PRIMES, SETTINGS, ideals  # noqa: E402
from test_rank import _matrix, matrices  # noqa: E402


def dense(mat):
    """A `linalg.SparseMatrix` written out as an int64 array."""
    out = np.zeros(mat.shape, dtype=np.int64)
    out[mat.row, mat.col] = mat.val
    return out


def reference_nullspace(rows, ncols, p):
    """Standard-form kernel basis from the reference RREF: one column per
    free column, 1 there and minus the RREF entries at the pivots."""
    red, rank, pivots = reference_rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((ncols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for i, c in enumerate(pivots):
            basis[c, k] = -red[i][f] % p
    return basis


@settings(max_examples=400, **SETTINGS)
@given(matrices(max_cols=9), st.randoms(use_true_random=False))
@example((3, _matrix([[0, 2, 7], [5, 3, 0], [0, 1, 0]], 3)), None)
@example((32003, _matrix([[0, 4, 0], [0, 9, 32003], [0, 32004, 0], [1, 1, 1]], 3)), None)
@example((2, _matrix([[0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0]], 4)), None)
@example((3, _matrix([[0, 0], [0, 0], [0, 5]], 2)), None)  # 3 x 2: .T must swap the shape
@example((3, _matrix([], 4)), None)
@example((3, _matrix([[], [], []], 0)), None)
@example((3, _matrix([], 0)), None)
def test_nonzero_lists_match_dense_and_reference(case, rnd):
    """Each matrix as nonzero lists, in shuffled order, and as a dense
    array gives the reference's pivot columns, rank, kernel, greedy rows
    and RREF; the two inputs leave the same peeled block."""
    p, a = case
    before = a.copy()
    row, col = a.nonzero()
    order = np.arange(len(row))
    if rnd is not None:
        rnd.shuffle(order)
    sparse = linalg.SparseMatrix(row[order], col[order], a[row[order], col[order]], a.shape)
    assert sparse.T.shape == a.T.shape
    assert np.array_equal(dense(sparse.T), a.T)

    red, rank, pivots = reference_rref(a.tolist(), p)
    _, _, row_pivots = reference_rref(a.T.tolist(), p)
    kernel = reference_nullspace(a.tolist(), a.shape[1], p)
    kernel_t = reference_nullspace(a.T.tolist(), a.shape[0], p)
    for m in (a, sparse):
        assert linalg.pivot_columns(m, p) == pivots
        assert linalg.rank(m, p) == rank
        assert linalg.greedy_independent_rows(m, p) == row_pivots
        assert np.array_equal(linalg.nullspace(m, p), kernel)
        assert np.array_equal(linalg.nullspace(m.T, p), kernel_t)
        out, out_rank, out_pivots = linalg.rref(m, p)
        assert (out.tolist(), out_rank, out_pivots) == (red, rank, pivots)
    assert (a == before).all()  # the caller's matrix is left alone

    blocks = [linalg._peeled_block(m, p) for m in (a, sparse)]
    (block, peeled, cols), (block_s, peeled_s, cols_s) = blocks
    assert np.array_equal(block, block_s) and np.array_equal(peeled, peeled_s) and np.array_equal(cols, cols_s)
    if block.size:
        counts = (block != 0).sum(axis=1)
        assert counts.min() >= 2  # no zero row, no singleton row left
        assert (block != 0).any(axis=0).all()
    assert not peeled[cols].any()


def reference_multiples(vectors, unk_vec, unk_exps, basis=None):
    """The dense matrix of multiples, entry by entry in Python: column
    of the product's monomial in `basis`, or else rank of its (component,
    exponents from the last variable) key among those the rows touch."""
    entries = []
    for u, (j, mult) in enumerate(zip(unk_vec.tolist(), map(tuple, unk_exps.tolist()))):
        for comp, f in enumerate(vectors[j]):
            for exps, c in f.terms:
                entries.append((u, comp, tuple(a + b for a, b in zip(mult, exps)), c))
    if basis is not None:
        at = {m: i for i, m in enumerate(basis.monomials)}
        width = len(basis)
        cols = [at[e] for _, _, e, _ in entries]
    else:
        keys = sorted({(comp, e[::-1]) for _, comp, e, _ in entries})
        at = {key: i for i, key in enumerate(keys)}
        width = len(keys)
        cols = [at[(comp, e[::-1])] for _, comp, e, _ in entries]
    out = np.zeros((len(unk_vec), width), dtype=np.int64)
    for (u, _, _, c), col in zip(entries, cols):
        assert out[u, col] == 0  # no row meets a column twice
        out[u, col] = c
    return out


@settings(max_examples=80, **SETTINGS)
@given(ideals())
def test_multiples_match_the_dense_reference(ideal):
    """Generator multiples in the basis of S_d (`_ideal_piece`), the
    generators as one-component vectors without a basis (the Betti
    search's level 0), and their syzygies as module vectors (its later
    levels)."""
    ring, gens = ideal.ring, list(ideal.generators)
    if not gens:
        return
    terms, degs = _generator_terms(ideal), [f.homogeneous_degree() for f in gens]
    vectors = [(f,) for f in gens]
    top = max(degs)
    for d in range(top + 2):
        basis, unk_vec, unk_exps, mat = _ideal_piece(terms, d)
        assert mat.shape == (len(unk_vec), len(basis))
        assert np.array_equal(dense(mat), reference_multiples(vectors, unk_vec, unk_exps, basis)), d
        mat = _multiples(_vector_terms(vectors, ring.n), unk_vec, unk_exps)
        assert np.array_equal(dense(mat), reference_multiples(vectors, unk_vec, unk_exps)), d
    for e, syz in syzygies_bruteforce(ideal, top + 1).items():
        if syz:
            unk_vec, unk_exps = _unknowns(ring, [e] * len(syz), e + 1)
            mat = _multiples(_vector_terms(syz, ring.n), unk_vec, unk_exps)
            assert np.array_equal(dense(mat), reference_multiples(syz, unk_vec, unk_exps)), e


def reference_differential(n, k, src, tgt, maps, p):
    """The transposed Koszul differential written out dense: block (sigma,
    sigma minus its a-th variable t) is (-1)^a x_t mod p."""
    faces = {tau: r for r, tau in enumerate(combinations(range(n), k - 1))}
    out = np.zeros((comb(n, k) * src, len(faces) * tgt), dtype=np.int64)
    for c, sigma in enumerate(combinations(range(n), k)):
        for a, t in enumerate(sigma):
            r = faces[sigma[:a] + sigma[a + 1:]]
            out[c * src:(c + 1) * src, r * tgt:(r + 1) * tgt] = (-1) ** a * maps[t] % p
    return out


@settings(max_examples=200, **SETTINGS)
@given(st.sampled_from(PRIMES), st.integers(1, 5), st.integers(0, 4), st.integers(0, 4), st.data())
def test_koszul_differentials_match_the_dense_reference(p, n, src, tgt, data):
    """Random maps x_t of src x tgt residues, some of them zero, at every
    k from 2 to n."""
    entry = st.one_of(st.just(0), st.just(0), st.integers(1, p - 1))
    maps = [np.array(data.draw(st.lists(entry, min_size=src * tgt, max_size=src * tgt)),
                     dtype=np.int64).reshape(src, tgt) for _ in range(n)]
    times = _nonzeros(maps)
    for k in range(2, n + 1):
        mat = _koszul_differential(n, k, src, tgt, times, p)
        ref = reference_differential(n, k, src, tgt, maps, p)
        assert mat.shape == ref.shape
        assert np.array_equal(dense(mat), ref), k
        assert linalg.rank(mat, p) == reference_rref(ref.tolist(), p)[1]
