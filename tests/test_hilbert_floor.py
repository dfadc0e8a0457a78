"""Hilbert-driven Buchberger: a floor on the Hilbert series skips only
S-pairs that reduce to zero, and a run ends when its leads meet it.

`Ideal._minimal(floor=...)` runs Buchberger with a Hilbert series that
bounds HS(S/J) below, coefficientwise; `strata._regular_sequence_extension`
adds the forms one at a time, J_k = J_{k-1} + (g_k), with floor
(1 - t^m) HS(S/J_{k-1}), which holds for any g_k.  Random homogeneous
ideals in 3-4 variables, p in {2, 3, 32003, 2^31-1}, gain forms one at
a time: random ones, zero divisors and forms already in the ideal.  The
floor-driven run must return the plain run's minimal basis element for
element, so the same leads and the same reduced basis, and every S-pair
it skips, or leaves in the heap when it ends at the floor, must be one
the plain run reduces to zero.  A run that ends at its floor caches the
floor's numerator as the ideal's, which must be that of its leads.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfstrata import groebner  # noqa: E402
from hfstrata.field import PrimeField  # noqa: E402
from hfstrata.groebner import Ideal, _minimal_basis, _tail_reduce, ideal_member  # noqa: E402
from hfstrata.invariants import HilbertSeries, hilbert_series  # noqa: E402
from hfstrata.ring import (  # noqa: E402
    GREVLEX,
    LEX,
    MonomialOrder,
    RingContext,
    _hs_numerator,
    _poly_mul_t,
    monomial_divides,
    monomial_lcm,
    monomials_of_degree,
)
from hfstrata.strata import is_regular_sequence, random_forms  # noqa: E402

from conftest import quadric_cone, ring2, skew_lines  # noqa: E402

NAMES = ("x", "y", "z", "w")
PRIMES = (2, 3, 32003, 2**31 - 1)


def floor_after(previous, m):
    """The floor of previous + (g) for a form g of degree m."""
    hs = hilbert_series(previous)
    return HilbertSeries(_poly_mul_t(hs.numerator, [1] + [0] * (m - 1) + [-1]), hs.n)


def raised(floor, d):
    """floor + t^d: one more than the floor in degree d alone."""
    bump = [0] * d + [1]  # t^d (1 - t)^n, over (1 - t)^n
    for _ in range(floor.n):
        bump = _poly_mul_t(bump, [1, -1])
    numerator = list(floor.numerator) + [0] * max(0, len(bump) - len(floor.numerator))
    for k, c in enumerate(bump):
        numerator[k] += c
    return HilbertSeries(numerator, floor.n)


def recorded_run(generators, p, pk, floor):
    """(minimal basis, met, log) of one Buchberger run; met says whether
    it ended at its floor, and the log lists each reduced S-pair with
    whether it reduced to zero."""
    log = []
    reduce_full = groebner._reduce_full

    def recording(h, cert, index, memo, p, pk):
        tail, out = reduce_full(h, cert, index, memo, p, pk)
        log.append((tuple(sorted(h.items())), not tail))
        return tail, out

    groebner._reduce_full = recording
    try:
        basis, met = _minimal_basis(generators, p, pk, floor)
    finally:
        groebner._reduce_full = reduce_full
    return basis, met, log


def assert_floor_run_is_plain_run(ideal, floor):
    """The floor-driven run returns the plain run's basis and reduces a
    subsequence of its S-pairs, skipping only ones that reduce to zero.
    When it ends at its floor, an `Ideal` caches the floor's numerator,
    and that is the numerator of the leads.  Returns (the number of
    S-pairs skipped, whether the run ended at its floor)."""
    p, pk = ideal.ring.field.p, ideal._pk
    plain, plain_met, plain_log = recorded_run(ideal.generators, p, pk, None)
    floored, met, floored_log = recorded_run(ideal.generators, p, pk, floor)
    assert not plain_met
    assert floored == plain
    assert [g.lead for g in floored] == [g.lead for g in plain]
    assert _tail_reduce(floored, p, pk) == _tail_reduce(plain, p, pk)
    pending = iter(plain_log)
    for entry in floored_log:
        for other in pending:
            if other == entry:
                break
            assert other[1], "the floor skipped an S-pair with a nonzero remainder"
        else:
            pytest.fail("the floor-driven run reduced an S-pair the plain run did not")
    assert all(zero for _, zero in pending), "the floor skipped an S-pair with a nonzero remainder"
    fresh = Ideal(ideal.ring, ideal.generators)
    fresh._minimal(floor)
    if met:
        leads = tuple(_hs_numerator(fresh.lead_exponents(), ideal.ring.n))
        assert fresh._hs_numerator == floor.numerator == leads
    else:
        assert fresh._hs_numerator is None
    return len(plain_log) - len(floored_log), met


def generator_tight_degree(ideal, floor):
    """The largest d >= 1 up to the top lcm degree of two generator leads
    that share a variable, at which the generators' leads alone leave
    floor(d) monomials of degree d outside their ideal, or None.  The
    run reaches degree d with no more standard monomials there than the
    floor allows, so a floor one higher at d is seen to be false: the
    raised floor is above the leads' series in degree d, so the run
    cannot end at it, and the pair of generators of degree at least d,
    which the product criterion keeps, asks for degree d or more."""
    n, kind = ideal.ring.n, ideal.ring.order.kind
    leads = [f.lead_exps() for f in ideal.generators]
    top = max(
        (
            sum(monomial_lcm(a, b))
            for i, a in enumerate(leads)
            for b in leads[i + 1 :]
            if any(x and y for x, y in zip(a, b))
        ),
        default=0,
    )
    for d in range(top, 0, -1):
        outside = sum(
            not any(monomial_divides(a, c) for a in leads) for c in monomials_of_degree(n, d, kind)
        )
        if outside == floor.coefficient(d):
            return d
    return None


@st.composite
def extensions(draw):
    """(ring, base generators, m, forms of degree m) for one extension
    chain; the forms mix random ones, zero divisors modulo the ideal so
    far and members of it."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(3, 4))
    order = draw(st.sampled_from((GREVLEX, LEX)))
    ring = RingContext(NAMES[:n], PrimeField(p), MonomialOrder(order))
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, p - 1))
    variables = [ring.variable(i) for i in range(n)]

    def form(d):
        monos = monomials_of_degree(n, d, order)
        coeffs = draw(st.lists(coeff, min_size=len(monos), max_size=len(monos)))
        return ring.from_terms(zip(monos, coeffs))

    base = [form(draw(st.integers(1, 3))) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        base.append(variables[0] * variables[1])  # every multiple of x is then a zero divisor
    base = [f for f in base if not f.is_zero()]
    m = draw(st.integers(1, 3))
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("random", "zero divisor", "member", "repeat")))
        if kind == "zero divisor":
            g = variables[0] * form(m - 1)
        elif kind == "member":
            g = ring.zero()
            for f in base + forms:
                e = f.homogeneous_degree()
                if e <= m:
                    g = g + form(m - e) * f
        elif kind == "repeat" and forms:
            g = forms[-1]
        else:
            g = form(m)
        if g.is_zero():
            g = form(m)
        if g.is_zero():
            g = variables[-1] * form(m - 1) if m > 1 else variables[-1]
        if g.is_zero():
            g = ring.monomial((0,) * (n - 1) + (m,))
        forms.append(g)
    return ring, base, m, forms


def test_floor_driven_run_equals_plain_run():
    """The property over random extension chains; some of its runs end
    at their floor."""
    ended = []

    @settings(
        derandomize=True,
        max_examples=120,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(extensions())
    def check(case):
        ring, base, m, forms = case
        previous = Ideal(ring, base)
        for g in forms:
            ideal = Ideal(ring, previous.generators + (g,))
            floor = floor_after(previous, m)
            ended.append(assert_floor_run_is_plain_run(ideal, floor)[1])
            d = generator_tight_degree(ideal, floor)
            if d is not None:
                with pytest.raises(RuntimeError, match="below the floor"):
                    _minimal_basis(ideal.generators, ring.field.p, ideal._pk, raised(floor, d))
            if not ideal_member(g, previous):
                # g adds one dimension to the ideal in degree m: the floor is tight there
                assert hilbert_series(ideal).coefficient(m) == floor.coefficient(m)
            previous = ideal

    check()
    assert any(ended)


def _chain_floors(monkeypatch, base, forms):
    """Run is_regular_sequence and return (outcome, [(ideal, floor)])
    for the floor-driven runs it makes."""
    runs = []
    minimal = Ideal._minimal

    def recording(self, floor=None):
        if floor is not None and self._basis is None:
            runs.append((Ideal(self.ring, self.generators), floor))
        return minimal(self, floor)

    monkeypatch.setattr(Ideal, "_minimal", recording)
    outcome = is_regular_sequence(base, forms)
    monkeypatch.setattr(Ideal, "_minimal", minimal)
    return outcome, runs


def test_negative_controls_keep_every_nonzero_pair(monkeypatch):
    """is_regular_sequence stays False on (x^2, xy) over the zero ideal,
    on g_2 = g_1, and on a g_1 that is a zero divisor modulo I_X, and
    in each floor-driven run the skipped S-pairs all reduce to zero."""
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    qc, lines = quadric_cone(), skew_lines()
    g1, g2 = random_forms(qc.ring, 4, 2, seed=1)
    h = random_forms(lines.ring, 3, 1, seed=2)[0]
    controls = [
        (Ideal(r, []), (x * x, x * y)),
        (qc, (g1, g1)),
        # x z is in I_X = (x, y) ∩ (z, w), so x h is a zero divisor modulo I_X
        (lines, (lines.ring.variable(0) * h, g2)),
    ]
    skipped = []
    for base, forms in controls:
        outcome, runs = _chain_floors(monkeypatch, Ideal(base.ring, base.generators), forms)
        assert outcome is False
        assert len(runs) == len(forms)
        skipped.append(sum(assert_floor_run_is_plain_run(ideal, floor)[0] for ideal, floor in runs))
    assert skipped[-1] > 0  # the floor does skip pairs on the zero-divisor chain
