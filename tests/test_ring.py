import random
from itertools import combinations_with_replacement, product

import pytest

from hfstrata.errors import DegenerateInputError, InhomogeneousError, StructureError
from hfstrata.field import PrimeField
from hfstrata.ring import (
    GREVLEX,
    LEX,
    GradedFreeModule,
    GradedMap,
    MonomialOrder,
    RingContext,
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
    key = MonomialOrder(GREVLEX).key
    assert key((1, 0, 1)) < key((0, 2, 0))


def test_reflexivity_and_lex():
    grevlex, lex = MonomialOrder(GREVLEX).key, MonomialOrder(LEX).key
    assert grevlex((1, 2, 3)) == grevlex((1, 2, 3))
    assert lex((1, 0)) > lex((0, 3))



def listing_by_multisets(n, d, kind):
    """The degree-d monomials built from multisets of d variables, sorted."""
    monos = [tuple(c.count(v) for v in range(n)) for c in combinations_with_replacement(range(n), d)]
    return tuple(sorted(monos, key=MonomialOrder(kind).key, reverse=True))


@pytest.mark.parametrize("kind", [GREVLEX, LEX])
def test_monomials_of_degree_match_the_multiset_listing(kind):
    for n in range(1, 5):
        for d in range(11):
            assert monomials_of_degree(n, d, kind) == listing_by_multisets(n, d, kind), (n, d)

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
    key = order.key
    for a, b in product(monos, monos):
        assert (key(a) == key(b)) == (a == b)
        if key(a) < key(b):
            for c in multipliers[:6]:
                ac = tuple(i + j for i, j in zip(a, c))
                bc = tuple(i + j for i, j in zip(b, c))
                assert key(ac) < key(bc)
    for m in monos:
        if m != one:
            assert key(one) < key(m)


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
    assert (f * g).homogeneous_degree() == f.homogeneous_degree() + g.homogeneous_degree()


def test_homogeneous_degree_examples():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    assert (x * x * y).homogeneous_degree() == 3
    assert (x * x + y * y).homogeneous_degree() == 2
    with pytest.raises(InhomogeneousError) as exc:
        (x * x + y).homogeneous_degree()
    assert set(exc.value.degrees) == {1, 2}
    with pytest.raises(DegenerateInputError):
        r.zero().homogeneous_degree()


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
    assert m.violations() == []


def test_graded_map_degree_violation():
    r = ring2()
    x = r.variable(0)
    src = GradedFreeModule((2,))
    tgt = GradedFreeModule((1, 1))
    m = GradedMap(r, src, tgt, [[x * x], [r.zero()]])
    violations = m.violations()
    assert violations == [(0, 0, 1, 2)]


def test_graded_map_zero_matrix_valid():
    r = ring2()
    z = r.zero()
    m = GradedMap(r, GradedFreeModule((5, 7)), GradedFreeModule((1,)), [[z, z]])
    assert m.violations() == []
