"""Shared corpus: the standard test ideals over F_32003."""

import pytest

from hfstrata.field import PrimeField
from hfstrata.groebner import Ideal, maximal_ideal_power
from hfstrata.ring import GREVLEX, LEX, MonomialOrder, RingContext

P = 32003


def ring4(order=GREVLEX, p=P):
    return RingContext(("x", "y", "z", "w"), PrimeField(p), MonomialOrder(order))


def ring3(order=GREVLEX, p=P):
    return RingContext(("x", "y", "z"), PrimeField(p), MonomialOrder(order))


def ring2(order=GREVLEX, p=P):
    return RingContext(("x", "y"), PrimeField(p), MonomialOrder(order))


def twisted_cubic(order=GREVLEX, p=P):
    r = ring4(order, p)
    x, y, z, w = (r.variable(i) for i in range(4))
    return Ideal(r, [x * z - y * y, x * w - y * z, y * w - z * z])


def quadric_cone(order=GREVLEX, p=P):
    r = ring4(order, p)
    x, y, z, w = (r.variable(i) for i in range(4))
    return Ideal(r, [x * w - y * z])


def rational_normal_quartic(order=GREVLEX, p=P):
    """2x2 minors of the Hankel matrix [[a, b, c, d], [b, c, d, e]]."""
    r = RingContext(("a", "b", "c", "d", "e"), PrimeField(p), MonomialOrder(order))
    v = [r.variable(i) for i in range(5)]
    return Ideal(
        r,
        [v[i] * v[j + 1] - v[i + 1] * v[j] for i in range(4) for j in range(i + 1, 4)],
    )


def build_corpus(order=GREVLEX, p=P):
    """Name -> ideal, as listed in the acceptance corpus."""
    r2 = ring2(order, p)
    r3 = ring3(order, p)
    x2, y2 = r2.variable(0), r2.variable(1)
    return {
        "twisted_cubic": twisted_cubic(order, p),
        "quadric_cone": quadric_cone(order, p),
        "ci_x2_y2": Ideal(r2, [x2 * x2, y2 * y2]),
        "ci_x3_y3": Ideal(r2, [x2 * x2 * x2, y2 * y2 * y2]),
        "max_ideal_n2": maximal_ideal_power(r2, 1),
        "max_ideal_n3": maximal_ideal_power(r3, 1),
        "max_sq_n2": maximal_ideal_power(r2, 2),  # = (x^2, x*y, y^2)
        "max_sq_n3": maximal_ideal_power(r3, 2),
        "zero_n2": Ideal(r2, []),
    }


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_lex():
    return build_corpus(LEX)
