"""The row split in front of the mod-p pivot loop, on Macaulay matrices.

At every p, `rref_inplace` and `pivot_columns` take the first row with
each leading column as a pivot row, without eliminating it
(`linalg._split_rows`), and eliminate only the Schur complement of the
other rows (`linalg._schur_complement`).  The matrices here are built
the way the oracle builds its pieces: every monomial multiple of 1-4
random forms in one degree, with rows that collide on a lead, duplicate
and zero rows, and zero columns.  At every p in
{2, 3, 32003, 1073741789, 2^31 - 1}, `rref_inplace`, `pivot_columns`
and `nullspace` must agree with `reference_rref`, the split must pick
the rows it documents, and it must run once in each `rref_inplace`.
Its products (`linalg._subtract_product`) must take both their dense
and their sparse path, and each must equal the plain product mod p,
also where it runs over more columns than `linalg._budget(p)` allows
between reductions and where its output is its left factor.  The
split's peak memory on the oracle's largest `betti` piece of a quadric
cone curve is bounded too.
"""

import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfstrata import Ideal, PrimeField, RingContext, linalg  # noqa: E402
from hfstrata.oracle import betti_bruteforce  # noqa: E402
from hfstrata.ring import GREVLEX, monomials_of_degree  # noqa: E402
from hfstrata.strata import random_forms  # noqa: E402

from test_linalg import reference_rref  # noqa: E402

PRIMES = (2, 3, 32003, 1073741789, 2**31 - 1)


def _matrix(rows, ncols):
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


def reference_nullspace(a, p):
    """`linalg.nullspace`'s standard form from `reference_rref`: one
    vector per free column, 1 there, -R[row, free] at each pivot."""
    ref, rank, pivots = reference_rref(a.tolist(), p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for row, pc in enumerate(pivots):
            basis[pc, k] = -ref[row][fc] % p
    return basis


def reference_split(nz):
    """(top, lead, rest) as `linalg._split_rows` documents them."""
    leads = {}
    rest = []
    for i, row in enumerate(nz.tolist()):
        if any(row):
            c = row.index(True)
            if c in leads:
                rest.append(i)
            else:
                leads[c] = i
    lead = sorted(leads)
    return [leads[c] for c in lead], lead, rest


@st.composite
def macaulay_matrices(draw):
    """(p, a): every degree-d multiple of 1-4 forms in 1-3 variables, each
    a monomial, a few terms or dense, with coefficients often 1; then
    combinations of two rows (a shared lead), duplicate and scaled rows,
    zero rows and zero columns, in shuffled row order."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, 4))
    columns = monomials_of_degree(n, d, GREVLEX)
    index = {e: c for c, e in enumerate(columns)}
    nonzero = st.integers(1, p - 1)
    coeff = st.one_of(st.just(1), nonzero)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        e = draw(st.integers(0, d))
        monos = monomials_of_degree(n, e, GREVLEX)
        size = draw(st.sampled_from((1, 2, len(monos))))
        support = draw(st.permutations(range(len(monos))))[:size]
        form = [(monos[k], draw(coeff)) for k in support]
        for b in monomials_of_degree(n, d - e, GREVLEX):
            row = [0] * len(columns)
            for mono, c in form:
                row[index[tuple(u + v for u, v in zip(mono, b))]] = c
            rows.append(row)
    pick = st.integers(0, len(rows) - 1)
    for _ in range(draw(st.integers(0, 4))):
        i, j, c = draw(pick), draw(pick), draw(coeff)
        rows.append([(x + c * y) % p for x, y in zip(rows[i], rows[j])])
    for _ in range(draw(st.integers(0, 3))):
        c = draw(coeff)
        rows.append([c * x % p for x in rows[draw(pick)]])
    rows += [[0] * len(columns)] * draw(st.integers(0, 2))
    a = _matrix(rows, len(columns))
    a[:, draw(st.lists(st.integers(0, len(columns) - 1), max_size=2))] = 0
    return p, a[draw(st.permutations(range(len(a))))]


def check_split(p, a, monkeypatch, products=None):
    """The three kernels against the reference on (p, a); returns the
    split's runs inside `rref_inplace`, one at every p: (rows of the
    complement, whether it is nonzero).
    Each product the kernels take adds to `products` whether it was
    dense (`linalg._subtract_product`'s int64 product) or sparse."""
    runs = []
    split_rows, schur_complement = linalg._split_rows, linalg._schur_complement
    subtract_product = linalg._subtract_product

    def spy_split(nz):
        runs.append(None)
        return split_rows(nz)

    def spy_schur(a, nz, top, lead, rest, p):
        free, x, w = schur_complement(a, nz, top, lead, rest, p)
        runs[-1] = (len(rest), bool(w.any()))
        return free, x, w

    def spy_product(out, pattern, src, rows, cols, x, p):
        if products is not None:
            products.add(16 * int(pattern.sum()) >= pattern.size)
        subtract_product(out, pattern, src, rows, cols, x, p)

    ref, rank, pivots = reference_rref(a.tolist(), p)
    top, lead, rest = linalg._split_rows(a != 0)
    assert (top.tolist(), lead.tolist(), rest.tolist()) == reference_split(a != 0)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_split_rows", spy_split)
        patch.setattr(linalg, "_schur_complement", spy_schur)
        patch.setattr(linalg, "_subtract_product", spy_product)
        work = a.copy()
        assert linalg.rref_inplace(work, p) == (rank, pivots)
        assert work.tolist() == ref
        ran = list(runs)
        assert len(ran) == 1
        assert linalg.pivot_columns(a, p) == pivots
        assert np.array_equal(linalg.nullspace(a, p), reference_nullspace(a, p))
    return ran


def test_split_matches_the_reference_on_macaulay_matrices(monkeypatch):
    """The property; among its draws the split runs at every prime, the
    complements include empty ones (distinct leads), zero ones and
    nonzero ones, and products take both the dense and the sparse path."""
    split = {p: set() for p in PRIMES}
    complements = set()
    products = set()

    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(macaulay_matrices())
    # x^2 + y^2 and x^2 + xy share the lead x^2: W is their difference xy - y^2
    @example((32003, _matrix([[1, 0, 1], [1, 1, 0]], 3)))
    # duplicate and scaled rows only: every lead is shared and W is zero
    @example((3, _matrix([[0, 1, 2, 1], [0, 2, 1, 2], [1, 0, 0, 1], [0, 1, 2, 1], [2, 0, 0, 2]], 4)))
    # 3 x 3 and 3 x 2 at 2^31 - 1, whose budget is 2
    @example((2**31 - 1, _matrix([[5, 1, 0], [7, 0, 1], [0, 3, 2**31 - 2]], 3)))
    @example((2**31 - 1, _matrix([[5, 1], [7, 0], [0, 3]], 2)))
    def check(case):
        p, a = case
        runs = check_split(p, a, monkeypatch, products)
        split[p].add(len(runs))
        complements.update(runs)

    check()
    assert all(runs == {1} for runs in split.values())
    assert (0, False) in complements
    assert any(rows and not nonzero for rows, nonzero in complements)
    assert any(nonzero for _, nonzero in complements)
    assert products == {True, False}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(3, 0), (0, 4), (0, 0)])
def test_empty_blocks(p, shape, monkeypatch):
    """m x 0 and 0 x n blocks at every p: the split returns nothing and
    the kernels return nothing, and a product over no columns of M
    leaves out as it was, reduced."""
    a = np.zeros(shape, dtype=np.int64)
    top, lead, rest = linalg._split_rows(a != 0)
    assert top.size == lead.size == rest.size == 0
    assert check_split(p, a, monkeypatch) == [(0, False)]
    out = np.arange(shape[0] * 2, dtype=np.int64).reshape(shape[0], 2) % p
    expected = out.copy()
    none, x = np.zeros(0, dtype=np.intp), np.zeros((0, 2), dtype=np.int64)
    linalg._subtract_product(out, a[:, :0] != 0, a, np.arange(shape[0]), none, x, p)
    assert np.array_equal(out, expected)


def test_distinct_leads_pivot_without_elimination():
    """Rows with distinct leads are all pivot rows, and `pivot_columns`
    returns their leads without forming a complement."""
    a = _matrix([[0, 0, 3, 1], [2, 5, 0, 0], [0, 4, 4, 4]], 4)
    top, lead, rest = linalg._split_rows(a != 0)
    assert (top.tolist(), lead.tolist(), rest.tolist()) == ([1, 2, 0], [0, 1, 2], [])
    assert linalg.pivot_columns(a, 7) == [0, 1, 2]


def _product_mod(out, m, x, p):
    """(out - m x) mod p in Python integers, beyond int64."""
    return (out.astype(object) - m.astype(object) @ x.astype(object)) % p


@pytest.mark.parametrize("density", [0.0, 0.02, 0.05, 0.3, 1.0])
def test_subtract_product_matches_the_dense_product(density):
    """Both paths of `linalg._subtract_product`, sparse below a
    sixteenth nonzero and dense from there, subtract exactly M x mod p
    for the block M of src that the rows and columns pick, zeros
    included, and leave out reduced, at every p; also with out as src,
    as `rref_inplace` calls it, where each run must read M as it was
    before the first.  At 2^31 - 1 the budget is 2: the dense path runs
    over 20 columns of M, and on the sparse one a row of M has 3
    nonzeros, so both reduce between runs."""
    for p in PRIMES:
        rng = np.random.default_rng(7)
        src = rng.integers(1, p, (40, 30)) * (rng.random((40, 30)) < density)
        rows, cols = rng.permutation(40)[:25], rng.permutation(30)[:20]
        if density:
            src[rows[0], cols[:3]] = p - 1
        x = rng.integers(0, p, (20, 9))
        out = rng.integers(0, p, (25, 9))
        m = src[rows[:, None], cols]
        expected = _product_mod(out, m, x, p)
        linalg._subtract_product(out, m != 0, src, rows, cols, x, p)
        assert out.tolist() == expected.tolist(), p
        first = m[: len(x)] != 0  # the first chunk of len(x) rows
        assert (16 * first.sum() < first.size) == (density < 1 / 16)

        own, x = src[rows], rng.integers(0, p, (20, 30))
        expected = _product_mod(own, m, x, p)
        linalg._subtract_product(own, m != 0, own, np.arange(len(own)), cols, x, p)
        assert own.tolist() == expected.tolist(), p


def test_split_memory_on_the_quadric_cone_curve_betti_piece(monkeypatch):
    """The largest RREF of the oracle's `betti` on the quadric cone
    xw - yz plus two dense quartics is 286 x 333 at p = 32003.  One
    `rref_inplace` of it traces at most 1.5 times the matrix's bytes:
    the split copies B, R_B and R_C once each, not the whole matrix."""
    ring = RingContext(("x", "y", "z", "w"), PrimeField(32003))
    x, y, z, w = (ring.variable(i) for i in range(4))
    ideal = Ideal(ring, [x * w - y * z, *random_forms(ring, 4, 2, seed=1)])
    seen = []
    rref_inplace = linalg.rref_inplace

    def spy(a, p):
        seen.append(a.copy())
        return rref_inplace(a, p)

    monkeypatch.setattr(linalg, "rref_inplace", spy)
    betti_bruteforce(ideal, 6, 10)
    monkeypatch.undo()
    a = max(seen, key=lambda block: block.size)
    assert a.shape == (286, 333)
    expected = rref_inplace(a.copy(), 32003)
    tracemalloc.start()
    try:
        assert rref_inplace(a, 32003) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * a.nbytes, (peak, a.nbytes)
