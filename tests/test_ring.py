import random
from itertools import product

import pytest

from hfstrata.errors import DegenerateInputError, InhomogeneousError, StructureError
from hfstrata.field import PrimeField
from hfstrata.ring import (
    EQ,
    GT,
    LT,
    GREVLEX,
    LEX,
    GradedFreeModule,
    GradedMap,
    MonomialOrder,
    RingContext,
    graded_map_check,
    homogeneous_degree,
    monomial_compare,
    monomials_of_degree,
)

from conftest import ring2, ring3


def all_monomials_up_to(n, d):
    out = []
    for deg in range(d + 1):
        out.extend(monomials_of_degree(n, deg, GREVLEX))
    return out


def test_grevlex_degree_tie():
    # degree tie in 3 variables: x2^2 beats x1*x3
    assert monomial_compare((1, 0, 1), (0, 2, 0), MonomialOrder(GREVLEX)) == LT


def test_reflexivity_and_lex():
    assert monomial_compare((1, 2, 3), (1, 2, 3), MonomialOrder(GREVLEX)) == EQ
    assert monomial_compare((1, 0), (0, 3), MonomialOrder(LEX)) == GT


def test_variable_count_mismatch():
    with pytest.raises(StructureError):
        monomial_compare((1, 0), (1, 0, 0), MonomialOrder(GREVLEX))


def test_grevlex_degree2_n3_sorted():
    # a textbook list: x^2 > xy > y^2 > xz > yz > z^2 for x > y > z
    got = monomials_of_degree(3, 2, GREVLEX)
    assert got == (
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    )


@pytest.mark.parametrize("kind", [GREVLEX, LEX])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order_laws_exhaustive(kind, n):
    order = MonomialOrder(kind)
    monos = all_monomials_up_to(n, 6)
    one = (0,) * n
    multipliers = [m for m in all_monomials_up_to(n, 2) if m != one]
    for a, b in product(monos, monos):
        cmp = monomial_compare(a, b, order)
        assert cmp in (LT, EQ, GT)
        assert (cmp == EQ) == (a == b)
        if cmp == LT:
            for c in multipliers[:6]:
                ac = tuple(i + j for i, j in zip(a, c))
                bc = tuple(i + j for i, j in zip(b, c))
                assert monomial_compare(ac, bc, order) == LT
    for m in monos:
        if m != one:
            assert monomial_compare(one, m, order) == LT


def test_poly_additive_inverse():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    assert ((x + y) + (-(x + y))).is_zero()
    assert ((x + y) - (x + y)).is_zero()


def test_difference_of_squares_mod5():
    r = RingContext(("x", "y"), PrimeField(5))
    x, y = r.variable(0), r.variable(1)
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    # -1 = 4 mod 5
    assert dict(f.terms)[(0, 2)] == 4


def test_product_degree_additivity():
    r = ring3()
    x, y, z = (r.variable(i) for i in range(3))
    f = x * y + z * z
    g = x + y + z
    assert homogeneous_degree(f * g) == homogeneous_degree(f) + homogeneous_degree(g)


def test_homogeneous_degree_examples():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    assert homogeneous_degree(x * x * y) == 3
    assert homogeneous_degree(x * x + y * y) == 2
    with pytest.raises(InhomogeneousError) as exc:
        homogeneous_degree(x * x + y)
    assert set(exc.value.degrees) == {1, 2}
    with pytest.raises(DegenerateInputError):
        homogeneous_degree(r.zero())


def test_canonical_form_is_fixed_point():
    r = ring2()
    rng = random.Random(7)
    for _ in range(50):
        terms = [
            ((rng.randrange(4), rng.randrange(4)), rng.randrange(r.field.p))
            for _ in range(8)
        ]
        f = r.from_terms(terms)
        assert r.from_terms(f.terms) == f
        shuffled = list(terms)
        rng.shuffle(shuffled)
        assert r.from_terms(shuffled) == f


def test_ring_mismatch_rejected():
    a = ring2()
    b = ring3()
    with pytest.raises(StructureError):
        _ = a.variable(0) + b.variable(0)


def test_graded_map_koszul_valid():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    src = GradedFreeModule((2,))
    tgt = GradedFreeModule((1, 1))
    m = GradedMap(r, src, tgt, [[-y], [x]])
    assert graded_map_check(m) == []


def test_graded_map_degree_violation():
    r = ring2()
    x = r.variable(0)
    src = GradedFreeModule((2,))
    tgt = GradedFreeModule((1, 1))
    m = GradedMap(r, src, tgt, [[x * x], [r.zero()]])
    violations = graded_map_check(m)
    assert violations == [(0, 0, 1, 2)]


def test_graded_map_zero_matrix_valid():
    r = ring2()
    z = r.zero()
    m = GradedMap(r, GradedFreeModule((5, 7)), GradedFreeModule((1,)), [[z, z]])
    assert graded_map_check(m) == []
