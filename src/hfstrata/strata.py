"""The two headline constructions and their verifiers.

* punctual truncation: I_Gamma = I_Y + m^m, with predicted Hilbert
  function, resolution shape (added strands in degree exactly m + i at
  homological index i), and the tangent/obstruction comparison;
* cone curve: I_C = I_X + (g_1, g_2) for a certified regular sequence of
  seeded-random degree-m forms; the certificate compares Hilbert series,
  and its Gröbner bases add the forms one at a time, each run driven
  by the Hilbert function of the ideal before it.

Verification failures are data in the reports, not process errors: the
tool's job includes exhibiting negative controls.
"""

import random

from .deform import Report, Truncation, check_margin, check_truncation, compare_truncation
from .errors import GenericityError, ParameterError
from .groebner import EXP_LIMIT, Ideal, _overflow, ideal_sum, maximal_ideal_power
from .invariants import (
    HilbertSeries,
    betti_table,
    hilbert_function,
    hilbert_series,
    krull_dim,
    regularity,
)
from .ring import RingContext, _poly_mul_t, _trim, monomials_of_degree


def truncate_ideal(ideal_y: Ideal, m: int, override: bool = False) -> Ideal:
    """I_Y + m^m; the quotient is Artinian, so the result cuts out a 0-scheme."""
    check_truncation(ideal_y, m, override)
    return ideal_sum(ideal_y, maximal_ideal_power(ideal_y.ring, m))


def predicted_hilbert_function(h_y, m: int, d: int) -> int:
    """Piecewise prediction for the truncation: h_Y(d) below m, then 0."""
    if m < 1:
        raise ParameterError(f"truncation degree must be >= 1, got {m}")
    if d < 0:
        raise ParameterError(f"degree must be >= 0, got {d}")
    return h_y(d) if d < m else 0


class TruncationReport(Report):
    """Pass/fail record of one truncation verification: the verify-prop31 report."""

    __slots__ = (
        "m",
        "reg",
        "degree_bound",
        "hilbert_ok",
        "first_hilbert_failure",
        "resolution_shape_ok",
        "strand_multiplicities",
        "t1_expected",
        "betti_y",
        "betti_gamma",
        "comparison",
        "warnings",
    )
    json_names = {"betti_y": "betti_Y", "betti_gamma": "betti_Gamma"}

    def all_ok(self) -> bool:
        return bool(
            self.hilbert_ok
            and self.resolution_shape_ok
            and self.comparison.tangent_bijective
            and self.comparison.obstruction_injective
        )


def verify_prop31(
    ideal_y: Ideal, m: int, degree_bound=None, override: bool = False
) -> TruncationReport:
    """Check the three claims for one truncation: Hilbert function,
    resolution shape with strand multiplicities, and both comparison maps.
    A degree bound below m would leave the degrees from m on unchecked,
    so it is refused."""
    if degree_bound is not None and degree_bound < m:
        raise ParameterError(f"degree bound must be >= m = {m}, got {degree_bound}")
    reg = regularity(ideal_y)
    if not override:
        check_margin(reg, m, "verification", "I_Y")
    if degree_bound is None:
        degree_bound = reg + m + 4
    trunc = Truncation(ideal_y, m, override=True)  # the bound is checked above
    gamma = trunc.gamma

    hilbert_ok = True
    first_failure = None
    # (S/Gamma)_{d+1} = S_1 (S/Gamma)_d, so once degree m checks as 0 both
    # sides are 0 above it: the check stops at m whatever the bound
    for d in range(min(degree_bound, m) + 1):
        predicted = predicted_hilbert_function(lambda t: hilbert_function(ideal_y, t), m, d)
        if hilbert_function(gamma, d) != predicted:
            hilbert_ok = False
            first_failure = d
            break

    warnings = []
    bt_y = betti_table(ideal_y)
    bt_g = betti_table(gamma)
    max_i = max(bt_y.max_index(), bt_g.max_index())
    strands = []
    shape_ok = True
    for i in range(max_i + 1):
        t = bt_g[(i, m + i)] - bt_y[(i, m + i)]
        strands.append(t)
        if t < 0:
            shape_ok = False
        elif t == 0:
            warnings.append(f"strand multiplicity t_{i + 1} is zero")
        if bt_y[(i, m + i)] != 0:
            # the block shape keeps F_i untouched, so a strand landing on
            # an existing Betti entry means the displayed form fails
            shape_ok = False
    keys = set(bt_y.entries) | set(bt_g.entries)
    for i, j in sorted(keys):
        if j == m + i:
            continue
        if bt_y[(i, j)] != bt_g[(i, j)]:
            shape_ok = False
    t1_expected = hilbert_function(ideal_y, m)
    if strands and strands[0] != t1_expected:
        shape_ok = False

    comparison = compare_truncation(trunc)
    return TruncationReport(
        m=m,
        reg=reg,
        degree_bound=degree_bound,
        hilbert_ok=hilbert_ok,
        first_hilbert_failure=first_failure,
        resolution_shape_ok=shape_ok,
        strand_multiplicities=strands,
        t1_expected=t1_expected,
        betti_y=bt_y,
        betti_gamma=bt_g,
        comparison=comparison,
        warnings=warnings,
    )


def random_forms(ring: RingContext, degree: int, count: int, seed: int):
    """Seeded pseudo-random homogeneous forms; bit-identical per seed."""
    if degree < 1:
        raise ParameterError(f"form degree must be >= 1, got {degree}")
    if count < 1:
        raise ParameterError(f"form count must be >= 1, got {count}")
    if degree >= EXP_LIMIT:  # x_1^degree is past the engine's limit: refuse before listing S_degree
        raise _overflow()
    rng = random.Random(seed)
    p = ring.field.p
    monos = monomials_of_degree(ring.n, degree, ring.order.kind)
    return [ring._from_dict({mono: rng.randrange(p) for mono in monos}) for _ in range(count)]


def _regular_sequence_extension(ideal: Ideal, forms):
    """(I + (forms), certificate outcome), sharing the extension's GB.

    The forms are added one at a time, J_k = J_{k-1} + (g_k), and each
    J_k's Buchberger run gets the floor (1 - t^m) HS(S/J_{k-1}), whose
    coefficients are h_{J_{k-1}}(d) - h_{J_{k-1}}(d - m).  It holds for
    any g_k of degree m, regular or not, since J_{k,d} = J_{k-1,d} +
    g_k S_{d-m}; the run skips the S-pairs it shows reduce to zero, and
    may end once its leads' series meets the floor, which only a regular
    g_k allows.
    """
    forms = list(forms)
    degrees = set()
    for g in forms:
        if g.is_zero():
            return None, False
        if not g.is_homogeneous():
            raise ParameterError("regular-sequence candidates must be homogeneous")
        degrees.add(g.homogeneous_degree())
    if len(degrees) != 1:
        raise ParameterError(f"forms must share one degree, got {sorted(degrees)}")
    m = degrees.pop()
    chain = [ideal]
    for g in forms:
        chain.append(ideal_sum(chain[-1], Ideal(ideal.ring, (g,))))
    factor = [1] + [0] * (m - 1) + [-1]
    for previous, extended in zip(chain, chain[1:]):
        hs = hilbert_series(previous)
        extended._minimal(floor=HilbertSeries(_poly_mul_t(hs.numerator, factor), hs.n))
    expected = list(hilbert_series(ideal).numerator)
    for _ in forms:
        expected = _poly_mul_t(expected, factor)
    return chain[-1], tuple(_trim(expected)) == hilbert_series(chain[-1]).numerator


def is_regular_sequence(ideal: Ideal, forms) -> bool:
    """Koszul certificate for forms g_1, ..., g_k of one degree m:
    numerator HS(S/(I + (g_1, ..., g_k))) == numerator HS(S/I) * (1 - t^m)^k."""
    return _regular_sequence_extension(ideal, forms)[1]


class ConeCurveReport(Report):
    """Record of one cone-curve construction run: the cone-curve report."""

    __slots__ = (
        "m",
        "seed",
        "trials_used",
        "degrees",
        "hs_ok",
        "dim_ok",
        "dim_x",
        "dim_c",
        "warnings",
    )
    json_names = {"dim_x": "dim_X", "dim_c": "dim_C"}

    def all_ok(self) -> bool:
        return bool(self.hs_ok and self.dim_ok)


def cone_curve(ideal_x: Ideal, m: int, seed: int, max_trials: int = 5):
    """I_C = I_X + (g_1, g_2) for seeded-random degree-m forms, retrying
    until the Hilbert-series certificate passes.

    Trial k draws with seed (seed + k - 1), so runs are reproducible and
    the caller can widen the search by raising max_trials or m.
    """
    if max_trials < 0:
        raise ParameterError(f"max_trials must be >= 0, got {max_trials}")
    ring = ideal_x.ring
    check_margin(regularity(ideal_x), m, "cone curve", "I_X")
    dim_x = krull_dim(ideal_x)
    warnings = []
    if dim_x < 2:
        raise ParameterError(
            f"cone curve needs dim(S/I_X) >= 2, got {dim_x}", required=2
        )
    if dim_x != 3:
        warnings.append(
            f"dim(S/I_X) = {dim_x} != 3: dropping by the regular sequence "
            "does not produce a curve cone"
        )
    trials = 0
    while trials < max_trials:
        trials += 1
        g1, g2 = random_forms(ring, m, 2, seed + trials - 1)
        if g1.is_zero() or g2.is_zero():
            continue
        curve, certified = _regular_sequence_extension(ideal_x, (g1, g2))
        if certified:
            dim_c = krull_dim(curve)
            report = ConeCurveReport(
                m=m,
                seed=seed,
                trials_used=trials,
                degrees=(m, m),
                hs_ok=True,
                dim_ok=(dim_c == dim_x - 2),
                dim_x=dim_x,
                dim_c=dim_c,
                warnings=warnings,
            )
            return curve, report
    raise GenericityError(trials)
