import pytest

from hfstrata.errors import DegenerateInputError, GenericityError, ParameterError
from hfstrata.groebner import Ideal, buchberger, maximal_ideal_power
from hfstrata.invariants import hilbert_function, hilbert_series, krull_dim, regularity
from hfstrata.strata import (
    cone_curve,
    is_regular_sequence,
    predicted_hilbert_function,
    random_forms,
    truncate_ideal,
    verify_prop31,
)

from conftest import quadric_cone, ring2, ring3, twisted_cubic


def test_truncate_absorbs_into_max_ideal():
    m1 = maximal_ideal_power(ring3(), 1)
    gamma = truncate_ideal(m1, 3)
    # same ideal: identical reduced GBs
    assert set(buchberger(gamma)) == set(buchberger(m1))


def test_truncate_zero_ideal_fat_point():
    zero = Ideal(ring2(), [])
    gamma = truncate_ideal(zero, 2)
    assert sorted(str(g) for g in gamma.generators) == ["x*y", "x^2", "y^2"]
    assert [hilbert_function(gamma, d) for d in range(4)] == [1, 2, 0, 0]


def test_truncate_twisted_cubic_minimal_quartics():
    tc = twisted_cubic()
    gamma = truncate_ideal(tc, 4)
    from hfstrata.invariants import betti_table

    bt = betti_table(gamma)
    assert bt[(0, 4)] == 13  # t_1 = h_4(S/I_Y) = 35 - 22
    assert bt[(0, 2)] == 3


def test_truncate_precondition():
    tc = twisted_cubic()
    with pytest.raises(ParameterError):
        truncate_ideal(tc, 2)
    assert truncate_ideal(tc, 2, override=True) is not None
    with pytest.raises(ParameterError):
        truncate_ideal(tc, 0, override=True)
    unit = Ideal(tc.ring, [tc.ring.one()])
    with pytest.raises(DegenerateInputError):
        truncate_ideal(unit, 4)


def test_predicted_hilbert_function():
    assert predicted_hilbert_function(lambda d: 3 * d + 1, 4, 3) == 10
    assert predicted_hilbert_function(lambda d: 10**9, 4, 4) == 0
    assert predicted_hilbert_function(lambda d: d + 1, 1, 0) == 1
    with pytest.raises(ParameterError):
        predicted_hilbert_function(lambda d: d, 0, 1)


def test_verify_prop31_twisted_cubic():
    rep = verify_prop31(twisted_cubic(), 4, degree_bound=8)
    assert rep.all_ok()
    assert rep.strand_multiplicities[0] == 13
    assert rep.t1_expected == 13
    assert rep.comparison.tangent_bijective


def test_verify_prop31_koszul():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    rep = verify_prop31(Ideal(r, [x * x, y * y]), 5, degree_bound=10)
    assert rep.all_ok()


def test_verify_prop31_negative_control():
    rep = verify_prop31(twisted_cubic(), 2, override=True)
    assert rep.hilbert_ok  # the piecewise formula holds for every m >= 1
    assert not rep.resolution_shape_ok
    rep_json = rep.to_json()
    assert rep_json["hilbert_ok"] and not rep_json["resolution_shape_ok"]


def test_verify_requires_override_below_bound():
    with pytest.raises(ParameterError):
        verify_prop31(twisted_cubic(), 3)


def test_random_forms_determinism():
    r = ring3()
    a = random_forms(r, 2, 2, seed=42)
    b = random_forms(r, 2, 2, seed=42)
    assert a == b
    assert a[0] != a[1]  # two independent draws from one stream
    support = {exps for f in a for exps, _ in f.terms}
    assert support <= set((i, j, k) for i in range(3) for j in range(3) for k in range(3) if i + j + k == 2)
    with pytest.raises(ParameterError):
        random_forms(r, 0, 1, seed=1)
    with pytest.raises(ParameterError):
        random_forms(r, 1, 0, seed=1)


def test_regular_sequence_positive():
    r = ring3()
    x, y, _ = (r.variable(i) for i in range(3))
    zero = Ideal(r, [])
    assert is_regular_sequence(zero, (x * x, y * y))
    assert hilbert_series(Ideal(r, [x * x, y * y])).numerator == (1, 0, -2, 0, 1)


def test_regular_sequence_negative():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    zero = Ideal(r, [])
    # x*y is a zerodivisor mod x^2 in the graded sense detected by HS
    assert not is_regular_sequence(zero, (x * x, x * y))


def test_regular_sequence_randomized_quadric_cone():
    qc = quadric_cone()
    for trial in range(5):
        g1, g2 = random_forms(qc.ring, 4, 2, seed=1 + trial)
        if is_regular_sequence(qc, (g1, g2)):
            assert trial <= 4
            return
    pytest.fail("no regular sequence found in 5 trials at p = 32003")


def test_regular_sequence_parameter_errors():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    zero = Ideal(r, [])
    with pytest.raises(ParameterError):
        is_regular_sequence(zero, (x, y * y))
    with pytest.raises(ParameterError):
        is_regular_sequence(zero, (x + x * x, y))


def test_cone_curve_quadric():
    qc = quadric_cone()
    curve, report = cone_curve(qc, 4, seed=1)
    assert report.trials_used <= 5
    assert report.hs_ok and report.dim_ok
    assert report.dim_x == 3 and report.dim_c == 1
    assert krull_dim(curve) == 1
    expected = [1, 0, -1]  # (1 - t^2)
    factor = [1, 0, 0, 0, -1]  # (1 - t^4)
    from hfstrata.invariants import _poly_mul_t

    numerator = _poly_mul_t(_poly_mul_t(expected, factor), factor)
    assert list(hilbert_series(curve).numerator) == numerator


def test_cone_curve_computes_each_groebner_basis_once(monkeypatch):
    """One GB for I_X and one for I_X + (g1, g2), which the certificate
    and the dimension check share."""
    from hfstrata import groebner

    calls = []
    original = groebner.buchberger_basis

    def counting(ring, generators):
        calls.append(len(generators))
        return original(ring, generators)

    monkeypatch.setattr(groebner, "buchberger_basis", counting)
    _, report = cone_curve(quadric_cone(), 4, seed=1)
    assert report.trials_used == 1
    assert calls == [1, 3]


def test_cone_curve_complete_intersection():
    zero3 = Ideal(ring3(), [])
    curve, report = cone_curve(zero3, 2, seed=1)
    assert report.hs_ok and report.dim_ok
    assert hilbert_series(curve).numerator == (1, 0, -2, 0, 1)


def test_cone_curve_determinism():
    qc = quadric_cone()
    _, a = cone_curve(qc, 4, seed=7)
    _, b = cone_curve(qc, 4, seed=7)
    assert a.to_json() == b.to_json()


def test_cone_curve_exhaustion():
    with pytest.raises(GenericityError) as exc:
        cone_curve(quadric_cone(), 4, seed=1, max_trials=0)
    assert exc.value.trials == 0


def test_cone_curve_dimension_warnings():
    tc = twisted_cubic()  # dim(S/I) = 2, not a surface cone
    _, report = cone_curve(tc, 4, seed=1)
    assert report.warnings
    r2 = ring2()
    x, y = r2.variable(0), r2.variable(1)
    artinian = Ideal(r2, [x * x, y * y])
    with pytest.raises(ParameterError):
        cone_curve(artinian, 5, seed=1)


def test_cone_curve_precondition():
    with pytest.raises(ParameterError):
        cone_curve(quadric_cone(), 3, seed=1)
