"""Degree-0 tangent and obstruction spaces, and the truncation comparison.

Everything here is finite-dimensional linear algebra over F_p once the
resolution data is fixed: graded pieces (S/I)_d are coordinatized by the
standard monomials of the active order (sorted descending), maps become
matrices, and dimensions become ranks.  Pairing a Hom element with a
syzygy column multiplies each slot by the column's entry there, so each
block of a pairing matrix is a multiplication matrix of S/I
(`QuotientBasis.multiplication_matrix`).

A `Truncation` holds what the comparison of I_Y with the ideal
I_Gamma = I_Y + m^m of the fattened cone point reads, each piece
computed once: the minimal generators and the first and second syzygies
(sigma_2, sigma_3) of I_Y, the standard-monomial coordinates of S/I_Y
and S/I_Gamma, and one Gamma `Ideal` on the block generator list
[minimal generators of I_Y] + [standard monomials of I_Y in degree m].
Gamma's Gröbner basis, Betti table and minimal resolution are cached
on its `Ideal`, so verify-prop31 and the comparison share them; its
first syzygies are computed once, by level 1 of that resolution.

Each degree-0 Hom matrix of the comparison is built once, by two
identities:

* (S/I_Gamma)_e = 0 for e >= m.  The strand slots have degree m, and a
  syzygy of the block generators either has degree >= m or has zero
  strand entries and lies in the span of sigma_2(I_Y); so T_Gamma, in
  the block presentation, is solved on I_Y's generator degrees against
  sigma_2(I_Y) alone, in the coordinates of S/I_Gamma.
* Hom is left exact: for any presentation F_2 -> F_1 -> I -> 0, the
  kernel of Hom(F_1, S/I)_0 -> Hom(F_2, S/I)_0 is Hom(I, S/I)_0.  That
  map is both the tangent constraint matrix and the Ext^1 boundary map,
  so its rank is #unknowns - dim T, and `ext1_space` and the comparison
  read their boundary ranks off the tangent solves.

The comparison never leaves coordinates.  Below degree m, Gamma and I_Y
agree (Gamma_e = (I_Y)_e), and so do their lead ideals, since the lead
ideal of a homogeneous ideal is read degree by degree; so (S/Gamma)_e
and (S/I_Y)_e have the same standard monomials for e < m.  From degree
m on, (S/Gamma)_e = 0.  A slot of degree e therefore keeps its I_Y
coordinates under the quotient map S/I_Y -> S/I_Gamma when e < m and
has none when e >= m: the images of tangent vectors and cycles of I_Y
are their rows in the slots of degree below m.

Both verify commands report through `Report` records, whose JSON key
order is their field order; `check_margin` is the one refusal of
m < reg + 2, the hypothesis of the truncation and of the cone curve.
"""

import numpy as np

from . import linalg
from .errors import DegenerateInputError, ParameterError
from .groebner import Ideal
from .invariants import QuotientBasis, hilbert_function, minimal_free_resolution, regularity


class HomLayout:
    """Coordinates of ⊕_j (S/I)_{d_j}: one standard-monomial block per slot."""

    def __init__(self, qb: QuotientBasis, degrees):
        self.qb = qb
        self.degrees = list(degrees)
        self.total = sum(qb.dim(d) for d in self.degrees)

    def lift(self, column):
        """Column vector -> tuple of polynomial representatives per slot."""
        ring = self.qb.ring
        polys = []
        pos = 0
        for d in self.degrees:
            monos = self.qb.monomials(d)
            acc = {}
            for m in monos:
                c = int(column[pos])
                pos += 1
                if c:
                    acc[m] = c
            polys.append(ring._from_dict(acc))
        return tuple(polys)


def _pairing_matrix(layout: HomLayout, columns):
    """Matrix of (values on slots) -> (classes against each column).

    `columns` is a list of (vector, degree) where vector has one
    polynomial per layout slot; the block of rows for a column is the
    quotient piece in its degree (skipped when zero-dimensional), and
    its block at slot j is the multiplication by vector[j] from
    (S/I)_{d_j}, zero where vector[j] is zero.
    """
    qb = layout.qb
    offsets = np.cumsum([0] + [qb.dim(d) for d in layout.degrees])
    columns = [(vec, e) for vec, e in columns if qb.dim(e)]
    mat = np.zeros((sum(qb.dim(e) for _, e in columns), layout.total), dtype=np.int64)
    row = 0
    for vec, e in columns:
        for j, (f, d) in enumerate(zip(vec, layout.degrees)):
            if not f.is_zero():
                mat[row : row + qb.dim(e), offsets[j] : offsets[j + 1]] = qb.multiplication_matrix(f, d)
        row += qb.dim(e)
    return mat


class TangentSpace:
    """Hom_S(I, S/I)_0 in the generator/standard-monomial coordinates."""

    __slots__ = ("dimension", "layout", "constraints", "basis_matrix", "generators")

    def __init__(self, dimension, layout, constraints, basis_matrix, generators):
        self.dimension = dimension
        self.layout = layout
        self.constraints = constraints  # the pairing matrix, of rank layout.total - dimension
        self.basis_matrix = basis_matrix  # columns = basis vectors
        self.generators = generators

    @property
    def basis(self):
        """The basis vectors as tuples of polynomial representatives, one per slot."""
        return tuple(self.layout.lift(self.basis_matrix[:, k]) for k in range(self.dimension))

    def __repr__(self):
        return f"TangentSpace(dim={self.dimension})"


class Ext1Space:
    """Ext^1_S(I, S/I)_0 as degree-0 cycles at F_2 modulo boundaries."""

    __slots__ = ("dimension", "cycles", "boundary_rank", "cycle_dim")

    def __init__(self, dimension, cycles, boundary_rank, cycle_dim):
        self.dimension = dimension
        self.cycles = cycles  # columns = cycle basis, in the sigma_2 slot coordinates
        self.boundary_rank = boundary_rank
        self.cycle_dim = cycle_dim

    def __repr__(self):
        return f"Ext1Space(dim={self.dimension}, cycles={self.cycle_dim}, boundaries={self.boundary_rank})"


def _map_columns(gmap):
    """Columns of a graded map as (vector, source shift) pairs."""
    return [(gmap.column(j), gmap.source.shifts[j]) for j in range(gmap.source.rank)]


def _resolution_data(ideal: Ideal, steps: int):
    """(generators, degrees, sigma2 columns, sigma3 columns) of the minimal resolution."""
    if ideal.is_zero_ideal():
        return (), (), [], []
    res = minimal_free_resolution(ideal, max(steps, 1))
    gens = res.generator_row
    degrees = res.modules[0].shifts
    sig2 = _map_columns(res.maps[0]) if len(res.maps) >= 1 else []
    sig3 = _map_columns(res.maps[1]) if len(res.maps) >= 2 else []
    return gens, degrees, sig2, sig3


def _solve_tangent(qb: QuotientBasis, degrees, syz_columns, generators):
    layout = HomLayout(qb, degrees)
    constraints = _pairing_matrix(layout, syz_columns)
    basis_matrix = linalg.nullspace(constraints, qb.ring.field.p)
    return TangentSpace(basis_matrix.shape[1], layout, constraints, basis_matrix, generators)


def tangent_space(ideal: Ideal) -> TangentSpace:
    """Hom_S(I, S/I)_0: unknowns per minimal generator, one constraint
    block per first-syzygy column."""
    if ideal.generators and ideal.is_unit_ideal():
        raise DegenerateInputError("tangent space of the unit ideal is undefined")
    gens, degrees, sig2, _ = _resolution_data(ideal, 2)
    qb = QuotientBasis(ideal)
    return _solve_tangent(qb, degrees, sig2, gens)


def _ext1(qb: QuotientBasis, sig2, sig3, boundary_rank) -> Ext1Space:
    """Degree-0 cycles at F_2 modulo boundaries from F_1, from the
    sigma_2, sigma_3 columns of a resolution and the rank of the boundary
    map Hom(F_1, S/I)_0 -> Hom(F_2, S/I)_0."""
    if not sig2:
        return Ext1Space(0, np.zeros((0, 0), dtype=np.int64), 0, 0)
    p = qb.ring.field.p
    cycles = linalg.nullspace(_pairing_matrix(HomLayout(qb, [e for _, e in sig2]), sig3), p)
    cycle_dim = cycles.shape[1]
    return Ext1Space(cycle_dim - boundary_rank, cycles, boundary_rank, cycle_dim)


def ext1_space(ideal: Ideal) -> Ext1Space:
    """Ext^1_S(I, S/I)_0 = degree-0 cycles at F_2 modulo boundaries from F_1,
    the boundary rank being #unknowns - dim T (Hom is left exact)."""
    if ideal.generators and ideal.is_unit_ideal():
        raise DegenerateInputError("obstruction space of the unit ideal is undefined")
    gens, degrees, sig2, sig3 = _resolution_data(ideal, 3)
    qb = QuotientBasis(ideal)
    tangent = _solve_tangent(qb, degrees, sig2, gens)
    return _ext1(qb, sig2, sig3, tangent.layout.total - tangent.dimension)


class Report:
    """A pass/fail record whose fields are its `__slots__`, set by keyword.

    `to_json` lists the fields in slot order under their `json_names`
    (the field name by default): a value with its own `to_json` gives
    that, a tuple or list gives a list.  A report with an `all_ok`
    method ends its JSON with that outcome.
    """

    __slots__ = ()
    json_names = {}

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def to_json(self):
        out = {}
        for k in self.__slots__:
            v = getattr(self, k)
            if hasattr(v, "to_json"):
                v = v.to_json()
            elif isinstance(v, (tuple, list)):
                v = list(v)
            out[self.json_names.get(k, k)] = v
        if hasattr(self, "all_ok"):
            out["all_ok"] = self.all_ok()
        return out

    def __repr__(self):
        return f"{type(self).__name__}({self.to_json()})"


class ComparisonReport(Report):
    """Tangent/obstruction comparison of one truncation: a TruncationReport's `comparison`."""

    __slots__ = (
        "tangent_dim_Y",
        "tangent_dim_Gamma",
        "tangent_rank",
        "tangent_bijective",
        "ext1_dim_Y",
        "ext1_dim_Gamma",
        "obstruction_kernel_dim",
        "obstruction_injective",
        "m",
        "reg",
    )


def check_margin(reg, m, what, name):
    """Refuse m < reg + 2, the hypothesis of both constructions; `what`
    names the construction and `name` the ideal whose regularity is reg."""
    if m < reg + 2:
        raise ParameterError(
            f"{what} needs m >= reg({name}) + 2 = {reg + 2}, got m = {m}", required=reg
        )


def check_truncation(ideal_y: Ideal, m: int, override: bool = False):
    """Refuse m < 1 and the unit ideal, and m < reg(I_Y) + 2 unless
    override is set (negative controls)."""
    if m < 1:
        raise ParameterError(f"truncation degree must be >= 1, got {m}")
    if ideal_y.generators and ideal_y.is_unit_ideal():
        raise DegenerateInputError("cannot truncate the unit ideal")
    if not override:
        check_margin(regularity(ideal_y), m, "truncation", "I_Y")


class Truncation:
    """I_Gamma = I_Y + m^m on block generators, with the I_Y data the
    comparison reads; m is checked by `check_truncation`.

    `block_gens` lists the minimal generators of I_Y, then the degree-m
    standard monomials of I_Y; these span S_m modulo I_Y, so
    (S/I_Gamma)_e = 0 for e >= m.  With left exactness of Hom, that is
    all `compare_truncation` needs of Gamma's block presentation: no
    syzygy of the block generators is computed here.
    """

    def __init__(self, ideal_y: Ideal, m: int, override: bool = False):
        check_truncation(ideal_y, m, override)
        ring = ideal_y.ring
        self.m, self.reg = m, regularity(ideal_y)
        self.gens_y, self.degrees_y, self.sig2_y, self.sig3_y = _resolution_data(ideal_y, 3)
        self.qb_y = QuotientBasis(ideal_y)
        strand = [ring.monomial(e) for e in self.qb_y.monomials(m)]
        self.block_gens = list(self.gens_y) + strand
        self.gamma = Ideal(ring, self.block_gens)
        self.qb_gamma = QuotientBasis(self.gamma)


def _rows_below(qb: QuotientBasis, degrees, m):
    """Mask of the rows of ⊕_j (S/I)_{degrees[j]} in the slots of degree < m."""
    return np.repeat(np.array(degrees, dtype=np.int64) < m, [qb.dim(d) for d in degrees])


def compare_truncation(trunc: Truncation) -> ComparisonReport:
    """Tangent bijection and obstruction injection for I_Y -> I_Gamma.

    A report is produced for every m the Truncation accepted, negative
    controls included, with check outcomes as data rather than errors.
    """
    qb_y, qb_g = trunc.qb_y, trunc.qb_gamma
    p = qb_y.ring.field.p

    # every strand slot lives in (S/I_Gamma)_{>=m} = 0, the structural
    # fact making alpha' and alpha∘tau_2 vanish identically
    if hilbert_function(trunc.gamma, trunc.m) != 0:
        raise RuntimeError("truncation quotient is nonzero in degree m")
    # and below m the two quotients share their standard monomials, which
    # makes the quotient map q: S/I_Y -> S/I_Gamma a row selection
    cycle_degrees = [e for _, e in trunc.sig2_y]
    for d in {*trunc.degrees_y, *cycle_degrees}:
        if d < trunc.m and qb_g.monomials(d) != qb_y.monomials(d):
            raise RuntimeError(f"truncation quotient differs from S/I_Y in degree {d}")

    tangent_y = _solve_tangent(qb_y, trunc.degrees_y, trunc.sig2_y, trunc.gens_y)
    # the strand slots and the block syzygies beyond sigma_2(I_Y) have
    # degree >= m, so they add no unknown and no row
    tangent_g = _solve_tangent(qb_g, trunc.degrees_y, trunc.sig2_y, trunc.gens_y)

    # Gamma's tangent coordinates are the I_Y slots of degree < m; the
    # basis of T_Gamma is independent, so T_Y lands in it iff appending
    # the images keeps the rank
    images = tangent_y.basis_matrix[_rows_below(qb_y, trunc.degrees_y, trunc.m)]
    included = linalg.rank(np.hstack([tangent_g.basis_matrix, images]), p) == tangent_g.dimension
    tangent_rank = linalg.rank(images.T, p)
    tangent_bijective = included and tangent_y.dimension == tangent_g.dimension == tangent_rank

    # obstruction side: each Ext^1 from its ideal's own minimal resolution,
    # its boundary rank being #unknowns - dim T in that presentation
    ext_y = _ext1(qb_y, trunc.sig2_y, trunc.sig3_y, tangent_y.layout.total - tangent_y.dimension)
    _, degrees_g, sig2_g, sig3_g = _resolution_data(trunc.gamma, 3)
    ext_g = _ext1(qb_g, sig2_g, sig3_g, HomLayout(qb_g, degrees_g).total - tangent_g.dimension)
    kernel_dim = 0
    if ext_y.cycle_dim:
        # Gamma cycle coordinates in the block presentation: the
        # sigma_2(I_Y) columns of degree < m; phi maps q slotwise.
        # Gamma's boundaries are spanned by T_Gamma's constraint matrix,
        # whose rank is the codimension of T_Gamma.
        phi_images = ext_y.cycles[_rows_below(qb_y, cycle_degrees, trunc.m)]
        rank_bg = tangent_g.layout.total - tangent_g.dimension
        rank_both = linalg.rank(np.hstack([tangent_g.constraints, phi_images]), p)
        # ker(H_Y -> H_Gamma) = {cycles whose image is a Gamma-boundary} / B_Y
        kernel_dim = ext_y.cycle_dim - (rank_both - rank_bg) - ext_y.boundary_rank

    return ComparisonReport(
        tangent_dim_Y=tangent_y.dimension,
        tangent_dim_Gamma=tangent_g.dimension,
        tangent_rank=tangent_rank,
        tangent_bijective=bool(tangent_bijective),
        ext1_dim_Y=ext_y.dimension,
        ext1_dim_Gamma=ext_g.dimension,
        obstruction_kernel_dim=int(kernel_dim),
        obstruction_injective=bool(kernel_dim == 0),
        m=trunc.m,
        reg=trunc.reg,
    )
