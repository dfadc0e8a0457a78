"""Betti tables on an Artinian reduction.

`invariants._artinian_reduction` cuts I by x_n - l for seeded-random
linear forms l in the other variables, one variable at a time, and
keeps a cut only when its Hilbert-series numerator is I's: then x_n - l
is a nonzerodivisor on S/I and the graded Betti numbers stay the same.
The Koszul tables (`_koszul_betti`, called directly) of the reduced and
the unreduced ideal must agree on the corpus, the skew lines, the dense
curves can4, can5 and ell5, and random homogeneous ideals, at p in
{2, 3, 32003, 2^31-1}.  A zero divisor must be rejected, the skew lines
and (xy, xz), both of depth 1, must stop after one cut, and the draws
must be the same on every run.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfstrata.field import PrimeField  # noqa: E402
from hfstrata.groebner import Ideal  # noqa: E402
from hfstrata.invariants import (  # noqa: E402
    _artinian_reduction,
    _cut_last_variable,
    _koszul_betti,
    hilbert_series,
    krull_dim,
)
from hfstrata.ring import GREVLEX, LEX, MonomialOrder, RingContext, monomials_of_degree  # noqa: E402

from conftest import build_corpus, ring3, skew_lines  # noqa: E402
from test_dense_curves import generic_curve  # noqa: E402

PRIMES = (2, 3, 32003, 2**31 - 1)
LARGE = (32003, 2**31 - 1)


def assert_reduction_keeps_the_table(ideal):
    """The reduced ideal has I's numerator and I's Koszul table, and is
    cut by at most dim S/I variables.  Returns it."""
    reduced = _artinian_reduction(ideal)
    assert reduced.ring.field == ideal.ring.field and reduced.ring.order == ideal.ring.order
    assert 0 <= ideal.ring.n - reduced.ring.n <= krull_dim(ideal)
    assert hilbert_series(reduced).numerator == hilbert_series(ideal).numerator
    assert _koszul_betti(reduced) == _koszul_betti(ideal)
    return reduced


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_corpus_tables_survive_the_reduction(order, p):
    """Every nonzero corpus ideal, and at the large primes each one
    reaches an Artinian quotient: all of them are Cohen-Macaulay."""
    for name, ideal in build_corpus(order, p).items():
        if ideal.is_zero_ideal():
            continue
        reduced = assert_reduction_keeps_the_table(ideal)
        if p in LARGE:
            assert krull_dim(reduced) == 0, name


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ["can4", "can5", "ell5"])
def test_dense_curve_tables_survive_the_reduction(name, p):
    reduced = assert_reduction_keeps_the_table(generic_curve(name, p))
    if p in LARGE:
        assert krull_dim(reduced) == 0  # arithmetically Cohen-Macaulay curves


@pytest.mark.parametrize("p", PRIMES)
def test_skew_lines_stop_after_one_cut(p):
    """(x, y) ∩ (z, w) has dimension 2 but depth 1: the first cut holds,
    and no linear form is a nonzerodivisor after it."""
    lines = skew_lines(p=p)
    reduced = assert_reduction_keeps_the_table(lines)
    assert reduced.ring.n == 3
    assert krull_dim(reduced) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_zero_divisor_is_rejected(p):
    """On (xy, xz) = (x) ∩ (y, z), z - l is a zero divisor iff l has no
    x term.  The cut by z - y has a larger Hilbert series and is
    rejected; the cut by z - x - y is kept; the reduction stops after
    one cut, the depth of S/I."""
    r = ring3(p=p)
    x, y, z = (r.variable(i) for i in range(3))
    ideal = Ideal(r, [x * y, x * z])
    numerator = hilbert_series(ideal).numerator
    cut = _cut_last_variable(ideal, [0, 1])
    xy = cut.ring.variable(0) * cut.ring.variable(1)
    assert cut.generators == (xy, xy)  # xz became xy
    assert cut.ring.names == ("x", "y")
    assert hilbert_series(cut).numerator != numerator
    assert hilbert_series(_cut_last_variable(ideal, [1, 1])).numerator == numerator
    reduced = assert_reduction_keeps_the_table(ideal)
    assert reduced.ring.n == 2


def test_cut_substitutes_the_form():
    """xw - yz and w with w = 2x + 3y + 5z: x(2x + 3y + 5z) - yz and
    2x + 3y + 5z; a generator that vanishes is dropped."""
    r = RingContext(("x", "y", "z", "w"), PrimeField(7))
    x, y, z, w = (r.variable(i) for i in range(4))
    cut = _cut_last_variable(Ideal(r, [x * w - y * z, w]), [2, 3, 5])
    s = cut.ring
    a, b, c = (s.variable(i) for i in range(3))
    form = s.from_terms([((1, 0, 0), 2), ((0, 1, 0), 3), ((0, 0, 1), 5)])
    assert cut.generators == (a * form - b * c, form)
    vanishing = _cut_last_variable(Ideal(r, [w - x]), [1, 0, 0])
    assert vanishing.generators == ()


def test_draws_are_deterministic():
    ideal = skew_lines()
    first, second = _artinian_reduction(ideal), _artinian_reduction(skew_lines())
    assert first.ring == second.ring and first.generators == second.generators


@st.composite
def homogeneous_ideals(draw):
    """A random homogeneous ideal: 1-3 forms of degree 1-3 in 2-4
    variables, coefficients often 0 or 1 so that special ideals (zero
    divisors on linear forms, non-Cohen-Macaulay quotients, small
    fields without a nonzerodivisor) turn up."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(2, 4))
    order = draw(st.sampled_from((GREVLEX, LEX)))
    ring = RingContext(("x", "y", "z", "w")[:n], PrimeField(p), MonomialOrder(order))
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, p - 1))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monos = monomials_of_degree(n, draw(st.integers(1, 3)), order)
        coeffs = draw(st.lists(coeff, min_size=len(monos), max_size=len(monos)))
        f = ring.from_terms(zip(monos, coeffs))
        if not f.is_zero():
            gens.append(f)
    return Ideal(ring, gens)


def test_random_tables_survive_the_reduction():
    """The property over random ideals; among them some reach an
    Artinian quotient and some stop short of it."""
    reached = []

    @settings(
        derandomize=True,
        max_examples=150,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(homogeneous_ideals())
    def check(ideal):
        if ideal.is_zero_ideal():
            return
        if krull_dim(ideal) > 0:
            reached.append(krull_dim(assert_reduction_keeps_the_table(ideal)) == 0)

    check()
    assert any(reached) and not all(reached)
