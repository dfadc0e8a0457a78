"""The packed basis an `Ideal` caches, against a fresh `buchberger_basis`.

Random homogeneous ideals in n <= 4 variables, grevlex and lex,
p in {2, 3, 32003, 2^31-1}, the zero ideal and unit ideals among them.
An `Ideal` keeps Buchberger's minimal basis and tail-reduces it only
when a reader needs reduced elements, so each reader is taken both
before and after `groebner_basis()`:
- `lead_exponents()`, `is_unit_ideal()` and `krull_dim` equal those of
  a fresh `buchberger_basis`, before and after `groebner_basis()`;
- `groebner_basis()` taken after `lead_exponents()` equals
  `buchberger_basis`;
- `QuotientBasis.multiplication_matrix` columns are the normal forms
  `divide` gives modulo `buchberger_basis`.
Both sides run the same Buchberger and pruning, so the leads are also
held to what an independent path says: no lead divides another, and
the Hilbert function they give is the oracle's dense rank count, up to
the top lead degree or 8.  A non-minimal element kept or a minimal one
dropped fails there.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfstrata.errors import DegenerateInputError  # noqa: E402
from hfstrata.field import PrimeField  # noqa: E402
from hfstrata.groebner import Ideal, buchberger_basis, divide  # noqa: E402
from hfstrata.invariants import QuotientBasis, hilbert_function, krull_dim  # noqa: E402
from hfstrata.oracle import hf_values  # noqa: E402
from hfstrata.ring import (  # noqa: E402
    GREVLEX,
    LEX,
    MonomialOrder,
    RingContext,
    minimal_monomials,
    monomials_of_degree,
)

NAMES = ("x", "y", "z", "w")


def _form(draw, ring, degree, coeff):
    monos = monomials_of_degree(ring.n, degree, ring.order.kind)
    coeffs = draw(st.lists(coeff, min_size=len(monos), max_size=len(monos)))
    return ring.from_terms(zip(monos, coeffs))


@st.composite
def ideals(draw):
    """(ring, generators, forms): 1-4 generators (1-3 in 4 variables) of
    degree 0-3, leaning to 3, each coefficient often 0, so zero, unit
    and sparse ideals all turn up; and a linear and a quadratic form to
    multiply by."""
    p = draw(st.sampled_from((2, 3, 32003, 2**31 - 1)))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from((GREVLEX, LEX)))
    ring = RingContext(NAMES[:n], PrimeField(p), MonomialOrder(kind))
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, p - 1))
    degree = st.sampled_from((0, 1, 2, 2, 3, 3, 3))
    count = draw(st.integers(1, 4 if n < 4 else 3))
    gens = [_form(draw, ring, draw(degree), coeff) for _ in range(count)]
    forms = [_form(draw, ring, e, coeff) for e in (1, 2)]
    return ring, [f for f in gens if not f.is_zero()], [f for f in forms if not f.is_zero()]


def _krull(ideal):
    try:
        return krull_dim(ideal)
    except DegenerateInputError:  # the unit ideal
        return None


def _readers(ideal):
    return ideal.lead_exponents(), ideal.is_unit_ideal(), _krull(ideal)


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ideals())
def test_cached_basis_matches_a_fresh_buchberger_basis(case):
    ring, gens, forms = case
    reference = buchberger_basis(ring, gens)
    leads = tuple(g.lead_exps() for g in reference)
    unit = bool(reference) and sum(leads[0]) == 0
    monomial_ideal = Ideal(ring, [ring.monomial(e) for e in leads])
    expected = (leads, unit, _krull(monomial_ideal))

    ideal = Ideal(ring, gens)
    assert _readers(ideal) == expected
    assert ideal.groebner_basis() == reference
    assert _readers(ideal) == expected
    assert Ideal(ring, gens).groebner_basis() == reference  # reduced before any lead read

    assert set(minimal_monomials(leads)) == set(leads)
    # lex leads can reach high degrees, where dense ranks are slow
    degrees = range(min(max((sum(e) for e in leads), default=0), 8) + 1)
    assert hf_values(ideal, degrees) == [hilbert_function(ideal, d) for d in degrees]

    qb = QuotientBasis(Ideal(ring, gens))
    for f in forms:
        for d in range(3):
            image = qb.monomials(d + f.homogeneous_degree())
            row = {m: i for i, m in enumerate(image)}
            mat = qb.multiplication_matrix(f, d)
            for col, u in enumerate(qb.monomials(d)):
                product = f * ring.monomial(u)
                remainder = divide(product, reference)[1] if reference else product
                column = [0] * len(image)
                for exps, c in remainder.terms:
                    column[row[exps]] = c
                assert mat[:, col].tolist() == column
