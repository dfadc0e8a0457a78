"""The two headline constructions and their verifiers.

* punctual truncation: I_Gamma = I_Y + m^m, with predicted Hilbert
  function, resolution shape (added strands in degree exactly m + i at
  homological index i), and the tangent/obstruction comparison;
* cone curve: I_C = I_X + (g_1, g_2) for a certified regular sequence of
  seeded-random degree-m forms.

Verification failures are data in the reports, not process errors: the
tool's job includes exhibiting negative controls.
"""

import random

from .deform import compare_truncation
from .errors import DegenerateInputError, GenericityError, ParameterError
from .groebner import Ideal, ideal_sum, maximal_ideal_power
from .invariants import (
    betti_table,
    hilbert_function,
    hilbert_series,
    krull_dim,
    regularity,
    _poly_mul_t,
    _trim,
)
from .ring import RingContext, monomials_of_degree


def truncate_ideal(ideal_y: Ideal, m: int, override: bool = False) -> Ideal:
    """I_Y + m^m; the quotient is Artinian, so the result cuts out a 0-scheme."""
    if m < 1:
        raise ParameterError(f"truncation degree must be >= 1, got {m}")
    if ideal_y.generators and ideal_y.is_unit_ideal():
        raise DegenerateInputError("cannot truncate the unit ideal")
    if not override:
        reg = regularity(ideal_y)
        if m < reg + 2:
            raise ParameterError(
                f"truncation needs m >= reg(I_Y) + 2 = {reg + 2}, got m = {m}",
                required=reg,
            )
    return ideal_sum(ideal_y, maximal_ideal_power(ideal_y.ring, m))


def predicted_hilbert_function(h_y, m: int, d: int) -> int:
    """Piecewise prediction for the truncation: h_Y(d) below m, then 0."""
    if m < 1:
        raise ParameterError(f"truncation degree must be >= 1, got {m}")
    if d < 0:
        raise ParameterError(f"degree must be >= 0, got {d}")
    return h_y(d) if d < m else 0


class TruncationReport:
    """Structured pass/fail record for the truncation verification."""

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

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def all_ok(self) -> bool:
        return bool(
            self.hilbert_ok
            and self.resolution_shape_ok
            and self.comparison.tangent_bijective
            and self.comparison.obstruction_injective
        )

    def to_json(self):
        return {
            "m": self.m,
            "reg": self.reg,
            "degree_bound": self.degree_bound,
            "hilbert_ok": self.hilbert_ok,
            "first_hilbert_failure": self.first_hilbert_failure,
            "resolution_shape_ok": self.resolution_shape_ok,
            "strand_multiplicities": list(self.strand_multiplicities),
            "t1_expected": self.t1_expected,
            "betti_Y": self.betti_y.to_json(),
            "betti_Gamma": self.betti_gamma.to_json(),
            "comparison": self.comparison.to_json(),
            "warnings": list(self.warnings),
            "all_ok": self.all_ok(),
        }


def verify_prop31(
    ideal_y: Ideal, m: int, degree_bound=None, override: bool = False
) -> TruncationReport:
    """Check the three claims for one truncation: Hilbert function,
    resolution shape with strand multiplicities, and both comparison maps."""
    reg = regularity(ideal_y)
    if m < reg + 2 and not override:
        raise ParameterError(
            f"verification needs m >= reg(I_Y) + 2 = {reg + 2}, got m = {m}",
            required=reg,
        )
    if degree_bound is None:
        degree_bound = reg + m + 4
    gamma = truncate_ideal(ideal_y, m, override=True)

    hilbert_ok = True
    first_failure = None
    for d in range(degree_bound + 1):
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

    comparison = compare_truncation(ideal_y, m, override=override)
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
    rng = random.Random(seed)
    p = ring.field.p
    monos = monomials_of_degree(ring.n, degree, ring.order.kind)
    forms = []
    for _ in range(count):
        acc = {}
        for mono in monos:
            c = rng.randrange(p)
            if c:
                acc[mono] = c
        forms.append(ring._from_dict(acc))
    return forms


def _regular_sequence_extension(ideal: Ideal, forms):
    """(I + (forms), certificate outcome), sharing the extension's GB."""
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
    extended = ideal_sum(ideal, Ideal(ideal.ring, forms))
    expected = list(hilbert_series(ideal).numerator)
    factor = [1] + [0] * (m - 1) + [-1]
    for _ in forms:
        expected = _poly_mul_t(expected, factor)
    return extended, tuple(_trim(expected)) == hilbert_series(extended).numerator


def is_regular_sequence(ideal: Ideal, forms) -> bool:
    """Koszul certificate for two forms of equal degree m:
    numerator HS(S/(I + (g1,g2))) == numerator HS(S/I) * (1 - t^m)^2."""
    return _regular_sequence_extension(ideal, forms)[1]


class ConeCurveReport:
    """Record of one cone-curve construction run."""

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

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def all_ok(self) -> bool:
        return bool(self.hs_ok and self.dim_ok)

    def to_json(self):
        return {
            "m": self.m,
            "seed": self.seed,
            "trials_used": self.trials_used,
            "degrees": list(self.degrees),
            "hs_ok": self.hs_ok,
            "dim_ok": self.dim_ok,
            "dim_X": self.dim_x,
            "dim_C": self.dim_c,
            "warnings": list(self.warnings),
            "all_ok": self.all_ok(),
        }


def cone_curve(ideal_x: Ideal, m: int, seed: int, max_trials: int = 5):
    """I_C = I_X + (g_1, g_2) for seeded-random degree-m forms, retrying
    until the Hilbert-series certificate passes.

    Trial k draws with seed (seed + k - 1), so runs are reproducible and
    the caller can widen the search by raising max_trials or m.
    """
    ring = ideal_x.ring
    reg = regularity(ideal_x)
    if m < reg + 2:
        raise ParameterError(
            f"cone curve needs m >= reg(I_X) + 2 = {reg + 2}, got m = {m}", required=reg
        )
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
