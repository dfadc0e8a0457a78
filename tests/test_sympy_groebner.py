"""Reduced Gröbner bases against sympy's, a second implementation.

`buchberger_basis` and `sympy.groebner(..., modulus=p, order="grevlex")`
must give the same monic reduced basis on the corpus and on random small
ideals, at p = 32003 and p = 2^31-1.  sympy prints coefficients as
balanced residues in (-p/2, p/2); they are mapped back into [0, p).
"""

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfstrata.field import PrimeField  # noqa: E402
from hfstrata.groebner import Ideal, buchberger_basis  # noqa: E402
from hfstrata.ring import GREVLEX, MonomialOrder, RingContext, monomials_of_degree  # noqa: E402

from conftest import build_corpus  # noqa: E402

PRIMES = (32003, 2**31 - 1)
NAMES = ("x", "y", "z")


def _monic_terms(terms, p):
    """Terms as a sorted tuple of (exps, c) with lead coefficient 1 and c in [0, p)."""
    terms = [(tuple(e), int(c) % p) for e, c in terms if int(c) % p]
    lead = max(terms, key=lambda t: (sum(t[0]), tuple(-x for x in reversed(t[0]))))
    inv = pow(lead[1], p - 2, p)
    return tuple(sorted((e, c * inv % p) for e, c in terms))


def _sympy_basis(ideal):
    ring, p = ideal.ring, ideal.ring.field.p
    gens = sympy.symbols(ring.names)
    exprs = []
    for f in ideal.generators:
        expr = 0
        for exps, c in f.terms:
            expr += c * sympy.Mul(*(g**k for g, k in zip(gens, exps)))
        exprs.append(expr)
    basis = sympy.groebner(exprs, *gens, modulus=p, order="grevlex")
    return sorted(_monic_terms(g.terms(), p) for g in basis.polys)


def _engine_basis(ideal):
    p = ideal.ring.field.p
    return sorted(_monic_terms(g.terms, p) for g in buchberger_basis(ideal.ring, ideal.generators))


@pytest.mark.parametrize("p", PRIMES)
def test_corpus_gb_matches_sympy(p):
    for name, ideal in build_corpus(p=p).items():
        if ideal.is_zero_ideal():
            continue
        assert _engine_basis(ideal) == _sympy_basis(ideal), name


@st.composite
def small_ideals(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 3))
    ring = RingContext(NAMES[:n], PrimeField(p), MonomialOrder(GREVLEX))
    coeff = st.one_of(st.just(0), st.just(1), st.just(p - 1), st.integers(0, p - 1))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        monos = monomials_of_degree(n, draw(st.integers(1, 3)), GREVLEX)
        coeffs = draw(st.lists(coeff, min_size=len(monos), max_size=len(monos)))
        f = ring.from_terms(zip(monos, coeffs))
        if not f.is_zero():
            gens.append(f)
    hypothesis.assume(gens)
    return Ideal(ring, gens)


@settings(
    derandomize=True,
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(small_ideals())
def test_random_gb_matches_sympy(ideal):
    assert _engine_basis(ideal) == _sympy_basis(ideal)
