import random

import numpy as np
import pytest

from hfstrata.errors import DegenerateInputError, ExponentOverflowError
from hfstrata.field import PrimeField
from hfstrata.groebner import EXP_LIMIT, Ideal, ideal_sum, maximal_ideal_power
from hfstrata.invariants import (
    HilbertSeries,
    QuotientBasis,
    betti_table,
    hilbert_function,
    hilbert_series,
    krull_dim,
    minimal_free_resolution,
    regularity,
)
from hfstrata.oracle import _generator_terms, _ideal_piece, _quotient_piece, exactness_violations
from hfstrata.ring import GradedFreeModule, GradedMap, RingContext, monomials_of_degree

from conftest import build_corpus, ring2, ring4, skew_lines, twisted_cubic


def test_hilbert_zero_ideal():
    zero = Ideal(ring2(), [])
    assert [hilbert_function(zero, d) for d in range(4)] == [1, 2, 3, 4]
    assert hilbert_series(zero).numerator == (1,)


def test_hilbert_twisted_cubic():
    tc = twisted_cubic()
    assert [hilbert_function(tc, d) for d in range(5)] == [1, 4, 7, 10, 13]


def test_hilbert_truncated_twisted_cubic():
    tc = twisted_cubic()
    gamma = ideal_sum(tc, maximal_ideal_power(tc.ring, 4))
    values = [hilbert_function(gamma, d) for d in range(8)]
    assert values == [1, 4, 7, 10, 0, 0, 0, 0]


def test_hilbert_series_koszul():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    hs = hilbert_series(Ideal(r, [x * x, y * y]))
    assert hs.numerator == (1, 0, -2, 0, 1)  # (1 - t^2)^2


def test_hilbert_series_principal_quadric():
    r = ring4()
    x, y, z, w = (r.variable(i) for i in range(4))
    hs = hilbert_series(Ideal(r, [x * w - y * z]))
    assert hs.numerator == (1, 0, -1)


def test_hilbert_series_matches_function(corpus):
    for name, ideal in corpus.items():
        hs = hilbert_series(ideal)
        maxdeg = max((g.homogeneous_degree() for g in ideal.generators), default=1)
        for d in range(2 * maxdeg + 5):
            assert hs.coefficient(d) == hilbert_function(ideal, d), (name, d)


def test_krull_dim_examples():
    r4 = ring4()
    assert krull_dim(Ideal(r4, [])) == 4
    r2 = ring2()
    x, y = r2.variable(0), r2.variable(1)
    assert krull_dim(Ideal(r2, [x * x, y * y])) == 0
    assert krull_dim(twisted_cubic()) == 2
    with pytest.raises(DegenerateInputError):
        krull_dim(Ideal(r2, [r2.one()]))


def test_quotient_basis_past_the_exponent_limit():
    """From degree 2^15 on, an Artinian S/I (the unit ideal too) has no
    standard monomial, and any other S/I has the pure power of some
    variable, which cannot be packed: it raises before enumerating."""
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    assert QuotientBasis(Ideal(r, [x * x, y * y])).monomials(EXP_LIMIT) == ()
    assert QuotientBasis(Ideal(r, [r.one()])).monomials(EXP_LIMIT) == ()
    for ideal in (Ideal(r, [x * y]), Ideal(r, []), twisted_cubic()):
        with pytest.raises(ExponentOverflowError):
            QuotientBasis(ideal).monomials(EXP_LIMIT)


def test_resolution_koszul_max_ideal_n2():
    res = minimal_free_resolution(maximal_ideal_power(ring2(), 1), 4)
    assert [m.shifts for m in res.modules] == [(1, 1), (2,)]


def test_resolution_twisted_cubic():
    bt = betti_table(twisted_cubic())
    assert bt.entries == {(0, 2): 3, (1, 3): 2}


def test_resolution_ci():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    res = minimal_free_resolution(Ideal(r, [x * x, y * y]), 3)
    assert [m.shifts for m in res.modules] == [(2, 2), (4,)]


def test_regularity_examples():
    r3 = RingContext(("x", "y", "z"), PrimeField(32003))
    assert regularity(maximal_ideal_power(r3, 1)) == 1
    assert regularity(twisted_cubic()) == 2
    r2 = ring2()
    x, y = r2.variable(0), r2.variable(1)
    assert regularity(Ideal(r2, [x * x, y * y])) == 3
    assert regularity(Ideal(r2, [])) == 0
    with pytest.raises(DegenerateInputError):
        regularity(Ideal(r2, [r2.one()]))


def test_resolution_composition_zero_and_exactness(corpus):
    for name, ideal in corpus.items():
        if ideal.is_zero_ideal():
            continue
        res = minimal_free_resolution(ideal, ideal.ring.n + 2)
        assert res.composition_violations() == [], name
        bound = max(max(m.shifts) for m in res.modules) + 2
        assert exactness_violations(ideal, res, bound) == [], name


def test_exactness_check_sees_a_dropped_syzygy(corpus):
    """Dropping one sigma_2 column (and its row of sigma_3) takes a
    minimal first syzygy out of the image of F_2: the oracle's exactness
    check finds the kernel of F_1 -> I one larger than that image in the
    column's degree."""
    from hfstrata.invariants import Resolution

    checked = 0
    for name, ideal in corpus.items():
        if ideal.is_zero_ideal():
            continue
        res = minimal_free_resolution(ideal, ideal.ring.n + 2)
        bound = max(max(m.shifts) for m in res.modules) + 2
        assert exactness_violations(ideal, res, bound) == [], name
        if not res.maps:
            continue
        sigma2, shift = res.maps[0], res.modules[1].shifts[0]
        f2 = GradedFreeModule(res.modules[1].shifts[1:])
        maps = [GradedMap(ideal.ring, f2, sigma2.target, [row[1:] for row in sigma2.entries])]
        if len(res.maps) > 1:
            sigma3 = res.maps[1]
            maps.append(GradedMap(ideal.ring, sigma3.source, f2, sigma3.entries[1:]))
        modules = [res.modules[0], f2] + res.modules[2:len(maps) + 1]
        broken = Resolution(ideal.ring, res.generator_row, modules, maps)
        found = [v for v in exactness_violations(ideal, broken, bound) if v[:2] == (0, shift)]
        assert len(found) == 1 and found[0][2] == found[0][3] + 1, (name, found)
        checked += 1
    assert checked >= 5


def test_resolution_minimality(corpus):
    for name, ideal in corpus.items():
        if ideal.is_zero_ideal():
            continue
        res = minimal_free_resolution(ideal, ideal.ring.n + 2)
        assert not res.has_constant_entry(), name


def test_graded_map_degree_compatibility(corpus):
    for name, ideal in corpus.items():
        if ideal.is_zero_ideal():
            continue
        res = minimal_free_resolution(ideal, ideal.ring.n + 2)
        for gmap in [res.augmentation()] + res.maps:
            assert gmap.violations() == [], name


def test_order_independence(corpus, corpus_lex):
    for name in corpus:
        a, b = corpus[name], corpus_lex[name]
        for d in range(13):
            assert hilbert_function(a, d) == hilbert_function(b, d), (name, d)
        if a.is_zero_ideal():
            continue
        assert krull_dim(a) == krull_dim(b), name
        assert betti_table(a).entries == betti_table(b).entries, name
        assert regularity(a) == regularity(b), name


def test_betti_render_and_json():
    bt = betti_table(twisted_cubic())
    assert bt.to_json() == [
        {"i": 0, "j": 2, "beta": 3},
        {"i": 1, "j": 3, "beta": 2},
    ]
    text = bt.render()
    assert "total:" in text and "2:" in text


def test_truncated_resolution_steps():
    tc = twisted_cubic()
    res2 = minimal_free_resolution(tc, 1)
    assert len(res2.modules) == 1 and len(res2.maps) == 0
    full = minimal_free_resolution(tc, 10)
    assert len(full.modules) == 2


def test_resolution_built_only_as_far_as_asked(monkeypatch):
    """tangent_space reads sigma_2 only, so it builds two levels; a later
    call for more extends them to the resolution of a fresh ideal."""
    from hfstrata import invariants
    from hfstrata.deform import tangent_space
    from hfstrata.strata import truncate_ideal

    calls = []
    original = invariants.vector_syzygies

    def counting(ring, vectors, shifts):
        calls.append(len(vectors))
        return original(ring, vectors, shifts)

    monkeypatch.setattr(invariants, "vector_syzygies", counting)
    gamma = truncate_ideal(twisted_cubic(), 4)
    tangent_space(gamma)
    assert calls == [16]
    assert gamma._resolution.length() == 2
    full = minimal_free_resolution(gamma, 10)
    assert len(calls) == 3 and full.length() == 4
    fresh = minimal_free_resolution(truncate_ideal(twisted_cubic(), 4), 10)
    assert full.generator_row == fresh.generator_row
    assert [m.entries for m in full.maps] == [m.entries for m in fresh.maps]


def test_euler_characteristic_of_resolution(corpus):
    """Alternating sum of shift contributions reproduces the HS numerator."""
    for name, ideal in corpus.items():
        hs = hilbert_series(ideal)
        res = minimal_free_resolution(ideal, ideal.ring.n + 2)
        acc = {0: 1}
        for i, module in enumerate(res.modules):
            sign = -1 if i % 2 == 0 else 1
            for j in module.shifts:
                acc[j] = acc.get(j, 0) + sign
        numerator = [0] * (max(acc) + 1)
        for j, c in acc.items():
            numerator[j] = c
        assert HilbertSeries(numerator, ideal.ring.n) == hs, name


def _normal_form_table(ideal, e):
    """The oracle's normal forms of the monomials of S_e, one row each, in
    the free columns of the RREF of I_e: the standard monomials, descending."""
    p = ideal.ring.field.p
    basis, _, _, mat = _ideal_piece(_generator_terms(ideal), e)
    free, nf = _quotient_piece(basis, mat, p)
    return basis, [basis.monomials[c] for c in free], nf


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_multiplication_matrix_matches_oracle_normal_forms(p):
    """Column k of multiplication_matrix(f, d) is sum_t c_t NF[x^(t + s_k)]
    over the terms c_t x^t of f, s_k the k-th standard monomial of degree
    d, for f each variable and a seeded random quadric."""
    rng = random.Random(p)
    ideals = dict(build_corpus(p=p), skew_lines=skew_lines(p=p))
    for name, ideal_y in ideals.items():
        ring, reg = ideal_y.ring, regularity(ideal_y)
        quadrics = monomials_of_degree(ring.n, 2, ring.order.kind)
        quadric = ring.from_terms([(e, rng.randrange(1, p)) for e in quadrics])
        factors = [ring.variable(t) for t in range(ring.n)] + [quadric]
        cases = [ideal_y] + [ideal_sum(ideal_y, maximal_ideal_power(ring, m)) for m in sorted({2, reg + 2})]
        for ideal in cases:
            qb, tables = QuotientBasis(ideal), {}
            for d in range(reg + 2):
                for f in factors:
                    e = d + f.homogeneous_degree()
                    if e not in tables:
                        tables[e] = _normal_form_table(ideal, e)
                    basis, standard, nf = tables[e]
                    assert list(qb.monomials(e)) == standard, (name, e)
                    mat = qb.multiplication_matrix(f, d)
                    assert mat.shape == (len(standard), qb.dim(d)), (name, d)
                    exps = np.array([t for t, _ in f.terms], dtype=np.int64)
                    coeffs = np.array([c for _, c in f.terms], dtype=np.int64)[:, None]
                    for k, s in enumerate(qb.monomials(d)):
                        terms = coeffs * nf[basis.columns(exps + np.array(s))] % p
                        assert np.array_equal(mat[:, k], terms.sum(axis=0) % p), (name, d, str(f), k)
