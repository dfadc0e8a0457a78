import random

import numpy as np
import pytest

from hfstrata import groebner, linalg
from hfstrata.errors import (
    DegenerateInputError,
    ExponentOverflowError,
    ParameterError,
    StructureError,
)
from hfstrata.field import PrimeField
from hfstrata.groebner import (
    EXP_LIMIT,
    Ideal,
    buchberger_basis,
    divide,
    ideal_member,
    ideal_sum,
    maximal_ideal_power,
    syzygies,
)
from hfstrata.oracle import _multiples, _unknowns, _vector_terms
from hfstrata.ring import RingContext
from hfstrata.strata import random_forms

from conftest import build_corpus, ring2, ring3, ring4, twisted_cubic


def f7_ring2():
    return RingContext(("x", "y"), PrimeField(7))


def test_divide_exact():
    r = ring2()
    x = r.variable(0)
    q, rem = divide(x * x, [x])
    assert q == (x,) and rem.is_zero()


def test_divide_partial():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    q, rem = divide(x * y + y * y, [x])
    assert q == (y,) and rem == y * y


def test_divide_no_lead_divisor():
    r = f7_ring2()
    x, y = r.variable(0), r.variable(1)
    q, rem = divide(y * y * y, [x * x + y * y, x * y])
    assert rem == y * y * y
    assert all(t.is_zero() for t in q)


def test_divide_rejects_zero_divisor():
    r = ring2()
    with pytest.raises(DegenerateInputError):
        divide(r.variable(0), [r.zero()])
    with pytest.raises(StructureError):
        divide(r.variable(0), [])


def test_monomial_ideal_is_its_own_gb():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    ideal = Ideal(r, [x * x, x * y])
    assert set(ideal.groebner_basis()) == {x * x, x * y}


def test_buchberger_single_spair_f7():
    r = f7_ring2()
    x, y = r.variable(0), r.variable(1)
    ideal = Ideal(r, [x * x + y * y, x * y])
    gb = ideal.groebner_basis()
    assert set(gb) == {x * x + y * y, x * y, y * y * y}


def test_membership():
    r = f7_ring2()
    x, y = r.variable(0), r.variable(1)
    ideal = Ideal(r, [x * x + y * y, x * y])
    assert ideal_member(y * y * y, ideal)
    assert ideal_member(r.zero(), ideal)
    only_sq = Ideal(r, [x * x])
    assert not ideal_member(x, only_sq)


def test_ideal_sum():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    a = Ideal(r, [x])
    zero = Ideal(r, [])
    assert ideal_sum(a, zero).generators == a.generators
    assert ideal_sum(a, Ideal(r, [y])).generators == (x, y)


def test_truncation_generator_count():
    tc = twisted_cubic()
    m4 = maximal_ideal_power(tc.ring, 4)
    assert len(m4.generators) == 35  # C(7,3)
    total = ideal_sum(tc, m4)
    assert len(total.generators) == 38


def test_maximal_ideal_power_examples():
    r2 = ring2()
    assert [str(g) for g in maximal_ideal_power(r2, 2).generators] == ["x^2", "x*y", "y^2"]
    r1 = RingContext(("x",), PrimeField(7))
    assert [str(g) for g in maximal_ideal_power(r1, 3).generators] == ["x^3"]
    with pytest.raises(ParameterError):
        maximal_ideal_power(r2, 0)


def test_maximal_ideal_power_past_the_exponent_limit():
    """m^m has x_1^m among its generators, so m = 2^15 is refused before
    any monomial is listed; one below packs."""
    r1 = RingContext(("x",), PrimeField(7))
    assert maximal_ideal_power(r1, EXP_LIMIT - 1).generators[0].lead_exps() == (EXP_LIMIT - 1,)
    for ring in (r1, ring2(), ring4()):
        with pytest.raises(ExponentOverflowError):
            maximal_ideal_power(ring, EXP_LIMIT)


def test_koszul_syzygy():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    basis = syzygies(Ideal(r, [x * x, y * y]))
    assert len(basis) == 1
    a, b = basis[0]
    # (y^2, -x^2) up to scalar
    assert (a * (x * x) + b * (y * y)).is_zero()
    c = r.field.inv(a.lead_coeff())
    assert a * r.monomial((0, 0), c) == y * y and b * r.monomial((0, 0), c) == -(x * x)


def test_principal_ideal_has_no_syzygies():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    assert len(syzygies(Ideal(r, [x * x + y * y]))) == 0


def test_syzygies_are_vector_syzygies_of_the_generators(corpus):
    """`syzygies` returns `vector_syzygies` of the generator sequence,
    zero ideal included."""
    for name, ideal in corpus.items():
        expected = groebner.vector_syzygies(ideal.ring, [(f,) for f in ideal.generators], (0,))
        assert syzygies(ideal) == expected, name


def test_twisted_cubic_syzygies_linear():
    tc = twisted_cubic()
    basis = syzygies(tc)
    assert len(basis) >= 2
    for vec in basis:
        total = tc.ring.zero()
        for a, f in zip(vec, tc.generators):
            total = total + a * f
        assert total.is_zero()
    degrees = sorted(
        {a.homogeneous_degree() + 2 for vec in basis for a in vec if not a.is_zero()}
    )
    assert degrees[0] == 3  # linear syzygies exist


def vector_multiples(ring, vectors, shifts, degree):
    """The oracle's matrix of the degree-`degree` monomial multiples of
    module vectors in ⊕ S(-shifts), written out dense: one row per vector
    and multiplier, vectors in order, multipliers descending."""
    degs = [groebner.vector_degree(v, shifts) for v in vectors]
    mat = _multiples(_vector_terms(vectors, ring.n), *_unknowns(ring, degs, degree))
    dense = np.zeros(mat.shape, dtype=np.int64)
    dense[mat.row, mat.col] = mat.val
    return dense


def syzygy_span_rank(ring, shifts, basis, degree):
    """Rank of the degree-`degree` span of a syzygy generating set in ⊕ S(-shifts)."""
    return linalg.rank(vector_multiples(ring, basis, shifts, degree), ring.field.p)


def generator_degrees(ideal):
    """The shifts of the free module mapping onto the ideal's generators."""
    return [f.homogeneous_degree() for f in ideal.generators]


def test_syzygy_spans_match_oracle(corpus):
    from hfstrata.invariants import regularity
    from hfstrata.oracle import syzygies_bruteforce

    for name, ideal in corpus.items():
        if ideal.is_zero_ideal():
            continue
        reg = regularity(ideal)
        bound = reg + 2
        basis = syzygies(ideal)
        oracle = syzygies_bruteforce(ideal, bound)
        for e in sorted(oracle):
            span = syzygy_span_rank(ideal.ring, generator_degrees(ideal), basis, e)
            assert span == len(oracle[e]), (name, e)


def test_syzygy_pass_rejects_a_non_groebner_basis(monkeypatch):
    """The pruned S-pair set still certifies the basis it is handed.

    (x^2, xy + z^2, y^2) is not a Gröbner basis: the S-pair of x^2 and
    xy + z^2 leaves -xz^2.  The pair (x^2, y^2) is pruned, since the
    multiplier y of (x^2, xy) divides its multiplier y^2, but the kept
    pair (x^2, xy + z^2) must still fail to reduce to zero.
    """
    r = ring3()
    x, y, z = (r.variable(i) for i in range(3))
    gens = [x * x, x * y + z * z, y * y]

    def not_a_gb(vecs, p, pk, ambient_rank, ambient_shifts, track_certs=True):
        elems = [groebner._Elem(dict(v), {i: 1}, min(v)) for i, v in enumerate(vecs)]
        return sorted(elems, key=lambda e: e.lead)  # descending terms

    monkeypatch.setattr(groebner, "_module_groebner", not_a_gb)
    pk = groebner._Packing(r.n, r.order.kind, len(gens))
    vecs = [groebner._vec_from_polys((f,), pk) for f in gens]
    assert (0, 2) not in groebner._frame_pairs(not_a_gb(vecs, r.field.p, pk, 1, (0,)), pk)
    with pytest.raises(RuntimeError, match="did not reduce to zero"):
        syzygies(Ideal(r, gens))


def test_division_contract_random(corpus):
    rng = random.Random(2024)
    checked = 0
    for ideal in corpus.values():
        if ideal.is_zero_ideal():
            continue
        ring = ideal.ring
        gb = ideal.groebner_basis()
        for k in range(60):
            deg = rng.randrange(1, 6)
            f = random_forms(ring, deg, 1, seed=1000 * deg + k)[0]
            if f.is_zero():
                continue
            qs, rem = divide(f, gb)
            total = rem
            for q, g in zip(qs, gb):
                total = total + q * g
            assert total == f
            checked += 1
    assert checked >= 450


def test_gb_confluence_under_shuffles(corpus):
    rng = random.Random(11)
    for name, ideal in corpus.items():
        if ideal.is_zero_ideal():
            continue
        reference = sorted(str(g) for g in ideal.groebner_basis())
        gens = list(ideal.generators)
        for _ in range(10):
            rng.shuffle(gens)
            got = sorted(str(g) for g in buchberger_basis(ideal.ring, gens))
            assert got == reference, name


def test_spolys_of_gb_reduce_to_zero(corpus):
    from hfstrata.ring import monomial_div, monomial_lcm

    for ideal in corpus.values():
        if ideal.is_zero_ideal():
            continue
        gb = list(ideal.groebner_basis())
        ring = ideal.ring
        for i in range(len(gb)):
            for j in range(i):
                lcm = monomial_lcm(gb[i].lead_exps(), gb[j].lead_exps())
                s = gb[i] * ring.monomial(monomial_div(lcm, gb[i].lead_exps())) - gb[j] * ring.monomial(
                    monomial_div(lcm, gb[j].lead_exps())
                )
                if s.is_zero():
                    continue
                _, rem = divide(s, gb)
                assert rem.is_zero()


def test_reduced_gb_properties(corpus):
    from hfstrata.ring import monomial_divides

    for ideal in corpus.values():
        gb = ideal.groebner_basis()
        for g in gb:
            assert g.lead_coeff() == 1
        for i, g in enumerate(gb):
            for j, h in enumerate(gb):
                if i == j:
                    continue
                for exps, _ in g.terms:
                    assert not monomial_divides(h.lead_exps(), exps)
