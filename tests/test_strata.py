import json

import pytest

from hfstrata.errors import DegenerateInputError, GenericityError, ParameterError
from hfstrata.groebner import Ideal, maximal_ideal_power
from hfstrata.invariants import hilbert_function, hilbert_series, krull_dim, regularity
from hfstrata.strata import (
    cone_curve,
    is_regular_sequence,
    predicted_hilbert_function,
    random_forms,
    truncate_ideal,
    verify_prop31,
)

from conftest import quadric_cone, ring2, ring3, ring4, twisted_cubic


def test_truncate_absorbs_into_max_ideal():
    m1 = maximal_ideal_power(ring3(), 1)
    gamma = truncate_ideal(m1, 3)
    # same ideal: identical reduced GBs
    assert set(gamma.groebner_basis()) == set(m1.groebner_basis())


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


def test_verify_prop31_fails_on_a_wrong_gamma_hilbert_value(monkeypatch, tmp_path, capsys):
    """A Gamma Hilbert value off by one at degree 2 fails the Hilbert
    check there; the report is data, and the CLI exits 1."""
    import hfstrata.strata as strata
    from hfstrata.cli import format_ideal_file, run

    real = strata.hilbert_function

    def off_by_one(ideal, d):  # Gamma = I_Y + m^m is Artinian, the twisted cubic is not
        return real(ideal, d) + (d == 2 and krull_dim(ideal) == 0)

    monkeypatch.setattr(strata, "hilbert_function", off_by_one)
    report = verify_prop31(twisted_cubic(), 4)
    assert not report.hilbert_ok and report.first_hilbert_failure == 2
    assert report.resolution_shape_ok and not report.all_ok()
    path = tmp_path / "tc.ideal"
    path.write_text(format_ideal_file(twisted_cubic()))
    assert run(["verify-prop31", str(path), "--m", "4"]) == 1
    payload = json.loads(capsys.readouterr().out)["report"]
    assert (payload["hilbert_ok"], payload["first_hilbert_failure"], payload["all_ok"]) == (False, 2, False)


def test_verify_prop31_fails_on_a_missing_strand_generator(monkeypatch):
    """Gamma's (0, m) Betti entry lowered by one breaks t_1 = h_Y(m): the
    resolution shape check fails."""
    import hfstrata.strata as strata
    from hfstrata.invariants import BettiTable

    real = strata.betti_table

    def lowered(ideal):
        table = real(ideal)
        if krull_dim(ideal) != 0:
            return table
        entries = dict(table.entries)
        entries[(0, 4)] -= 1
        return BettiTable(entries)

    monkeypatch.setattr(strata, "betti_table", lowered)
    report = verify_prop31(twisted_cubic(), 4)
    assert report.hilbert_ok and not report.resolution_shape_ok and not report.all_ok()
    assert report.strand_multiplicities[0] == report.t1_expected - 1 == 12


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
    from hfstrata.ring import _poly_mul_t

    numerator = _poly_mul_t(_poly_mul_t(expected, factor), factor)
    assert list(hilbert_series(curve).numerator) == numerator


def _fermat_cubic():
    r = ring4()
    x, y, z, w = (r.variable(i) for i in range(4))
    return Ideal(r, [x * x * x + y * y * y + z * z * z + w * w * w])


def _one_minus_t(k):
    return [1] + [0] * (k - 1) + [-1]


@pytest.mark.parametrize(
    "surface, e, m", [(quadric_cone, 2, 8), (_fermat_cubic, 3, 7)], ids=["quadric_m8", "fermat_m7"]
)
def test_cone_curve_larger_m(surface, e, m):
    """HS(S/I_C) = (1 - t^e)(1 - t^m)^2 / (1 - t)^4 for a degree-e surface cone."""
    curve, report = cone_curve(surface(), m, seed=1)
    assert report.all_ok()
    assert report.dim_c == report.dim_x - 2 == 1
    from hfstrata.ring import _poly_mul_t

    numerator = _poly_mul_t(_poly_mul_t(_one_minus_t(e), _one_minus_t(m)), _one_minus_t(m))
    assert list(hilbert_series(curve).numerator) == numerator


def test_cone_curve_computes_each_groebner_basis_once(monkeypatch):
    """In the ring of I_X: one GB for I_X, one for I_X + (g1) and one for
    I_X + (g1, g2), which the certificate and the dimension check share;
    the forms are added one at a time, each run with the Hilbert floor
    of the ideal before it.  The Betti table behind the regularity
    margin cuts I_X down to one variable, one floor-driven run per cut,
    and its Koszul pass there meets no product outside the standard
    monomials.  So no basis goes through the tail pass."""
    from hfstrata import groebner

    calls, tails = [], []
    minimal_basis, tail_reduce = groebner._minimal_basis, groebner._tail_reduce

    def counting(generators, p, pk, floor=None):
        calls.append((pk.n, len(generators), floor is not None))
        return minimal_basis(generators, p, pk, floor)

    def counting_tails(basis, p, pk):
        tails.append(len(basis))
        return tail_reduce(basis, p, pk)

    monkeypatch.setattr(groebner, "_minimal_basis", counting)
    monkeypatch.setattr(groebner, "_tail_reduce", counting_tails)
    _, report = cone_curve(quadric_cone(), 4, seed=1)
    assert report.trials_used == 1
    assert [(k, floor) for n, k, floor in calls if n == 4] == [(1, False), (2, True), (3, True)]
    assert [call for call in calls if call[0] < 4] == [(3, 1, True), (2, 1, True), (1, 1, True)]
    assert tails == []


def _count_reductions(monkeypatch):
    """counts["pairs"] / counts["zero"]: S-pairs reduced by Buchberger
    from now on, and how many of them reduced to zero."""
    from hfstrata import groebner

    counts = {"pairs": 0, "zero": 0}
    reduce_full = groebner._reduce_full

    def counting(h, cert, index, memo, p, pk):
        tail, out = reduce_full(h, cert, index, memo, p, pk)
        counts["pairs"] += 1
        counts["zero"] += not tail
        return tail, out

    monkeypatch.setattr(groebner, "_reduce_full", counting)
    return counts


def test_certificate_reduces_no_zero_pair_on_the_fermat_cubic(monkeypatch):
    """For the Fermat cubic at m = 6, seed 1, every g_k is regular, the
    floor is the Hilbert function itself, and each degree's S-pairs stop
    with its last new element: no S-pair reduces to zero."""
    fermat = _fermat_cubic()
    forms = random_forms(fermat.ring, 6, 2, seed=1)
    hilbert_series(fermat)  # I_X's own run has a single generator and no pair
    counts = _count_reductions(monkeypatch)
    assert is_regular_sequence(fermat, forms)
    assert counts["pairs"] > 0
    assert counts["zero"] == 0


def test_cone_curve_round_zero_reductions(monkeypatch):
    """One perfbench cone_curve round (seed 1: the quadric cone at
    m = 4, 5, 6 and the Fermat cubic at m = 5, 6, with the form seeds
    that round draws) reduces at most 21 S-pairs to zero in its
    certificates; a plain Buchberger run reduces 66 to zero."""
    import random

    rng = random.Random(1)
    cases = [(quadric_cone, m) for m in (4, 5, 6)] + [(_fermat_cubic, m) for m in (5, 6)]
    ideals = []
    for surface, m in cases:
        ideal = surface()
        hilbert_series(ideal)
        ideals.append((ideal, random_forms(ideal.ring, m, 2, rng.randrange(1, 2**31))))
    counts = _count_reductions(monkeypatch)
    for ideal, forms in ideals:
        assert is_regular_sequence(ideal, forms)
    assert counts["zero"] <= 21


def test_verify_prop31_computes_each_fact_once(monkeypatch):
    """With I_Y's GB and Betti table known, one verify-prop31 computes one
    GB and one Koszul table (for Gamma) and Ext^1 once per ideal, with
    Gamma resolved from its minimal generators through sigma_3 only."""
    from hfstrata import deform, groebner, invariants

    tc = twisted_cubic()
    tc.groebner_basis()
    invariants.betti_table(tc)
    calls = {"gb": [], "koszul": [], "ext1": [], "syz": []}

    def count(key, fn, record=lambda *args: None):
        def wrapper(*args):
            calls[key].append(record(*args))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(groebner, "_minimal_basis", count("gb", groebner._minimal_basis))
    monkeypatch.setattr(invariants, "_koszul_betti", count("koszul", invariants._koszul_betti))
    monkeypatch.setattr(deform, "_ext1", count("ext1", deform._ext1, lambda qb, *_: qb.ideal))
    syz = count("syz", groebner.vector_syzygies, lambda ring, vectors, shifts: len(vectors))
    monkeypatch.setattr(groebner, "vector_syzygies", syz)
    monkeypatch.setattr(invariants, "vector_syzygies", syz)
    report = verify_prop31(tc, 4)
    assert report.all_ok()
    assert len(calls["gb"]) == 1 and len(calls["koszul"]) == 1
    assert [ideal is tc for ideal in calls["ext1"]] == [True, False]
    # I_Y's 3 generators, the 16 block generators (level 1 of Gamma's
    # resolution, the one place their syzygies are computed), then
    # Gamma's minimal first syzygies, and no further level
    first = sum(b for (i, _), b in report.betti_gamma.items() if i == 1)
    assert calls["syz"] == [3, 16, first]


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
