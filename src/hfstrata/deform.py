"""Degree-0 tangent and obstruction spaces, and the truncation comparison.

Everything here is finite-dimensional linear algebra over F_p once the
resolution data is fixed: graded pieces (S/I)_d are coordinatized by the
standard monomials of the active order (sorted descending), maps become
matrices, and dimensions become ranks.

The truncation comparison realizes the ideal of the fattened cone point
by the block generator list [minimal generators of I_Y] + [standard
monomials of I_Y in degree m], together with first syzygies split as
[extensions of the I_Y syzygies] + [certificate syzygies of degree >= m].
That presentation makes the comparison map alpha -> (alpha, 0) a literal
matrix identity between the two tangent-space coordinate systems.
"""

import numpy as np

from . import linalg
from .errors import DegenerateInputError, ParameterError
from .groebner import Ideal, vector_degree, vector_syzygies
from .invariants import QuotientBasis, hilbert_function, minimal_free_resolution, regularity


class HomLayout:
    """Coordinates of ⊕_j (S/I)_{d_j}: one standard-monomial block per slot."""

    def __init__(self, qb: QuotientBasis, degrees):
        self.qb = qb
        self.degrees = list(degrees)
        self.offsets = []
        total = 0
        for d in self.degrees:
            self.offsets.append(total)
            total += qb.dim(d)
        self.total = total

    def unknowns(self):
        out = []
        for j, d in enumerate(self.degrees):
            for m in self.qb.monomials(d):
                out.append((j, m))
        return out

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
    quotient piece in its degree (skipped when zero-dimensional).
    Composing an unknown slot value x^b at slot j against a column
    contributes NF(vector[j] * x^b).
    """
    qb = layout.qb
    p = qb.ring.field.p
    unknowns = layout.unknowns()
    blocks = []
    for vec, e in columns:
        dim_e = qb.dim(e)
        if dim_e == 0:
            continue
        block = np.zeros((dim_e, layout.total), dtype=np.int64)
        for col, (j, b) in enumerate(unknowns):
            f = vec[j]
            if f.is_zero():
                continue
            block[:, col] = qb.coords(f.term_mul(b), e)
        blocks.append(block)
    if not blocks:
        return np.zeros((0, layout.total), dtype=np.int64)
    return np.vstack(blocks)


class TangentSpace:
    """Hom_S(I, S/I)_0 in the generator/standard-monomial coordinates."""

    __slots__ = ("dimension", "basis", "layout", "basis_matrix", "generators")

    def __init__(self, dimension, basis, layout, basis_matrix, generators):
        self.dimension = dimension
        self.basis = basis  # tuple of tuples of polynomial representatives
        self.layout = layout
        self.basis_matrix = basis_matrix  # columns = basis vectors
        self.generators = generators

    def __repr__(self):
        return f"TangentSpace(dim={self.dimension})"


class Ext1Space:
    """Ext^1_S(I, S/I)_0 as degree-0 cycles at F_2 modulo boundaries."""

    __slots__ = ("dimension", "cycle_basis", "boundary_rank", "cycle_dim")

    def __init__(self, dimension, cycle_basis, boundary_rank, cycle_dim):
        self.dimension = dimension
        self.cycle_basis = cycle_basis
        self.boundary_rank = boundary_rank
        self.cycle_dim = cycle_dim

    def __repr__(self):
        return f"Ext1Space(dim={self.dimension}, cycles={self.cycle_dim}, boundaries={self.boundary_rank})"


def _map_columns(gmap):
    """Columns of a graded map as (vector, source shift) pairs."""
    if gmap is None:
        return []
    return [
        (gmap.column(j), gmap.source.shifts[j]) for j in range(gmap.source.rank)
    ]


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
    basis = tuple(layout.lift(basis_matrix[:, k]) for k in range(basis_matrix.shape[1]))
    return TangentSpace(basis_matrix.shape[1], basis, layout, basis_matrix, generators)


def tangent_space(ideal: Ideal) -> TangentSpace:
    """Hom_S(I, S/I)_0: unknowns per minimal generator, one constraint
    block per first-syzygy column."""
    if ideal.generators and ideal.is_unit_ideal():
        raise DegenerateInputError("tangent space of the unit ideal is undefined")
    gens, degrees, sig2, _ = _resolution_data(ideal, 2)
    qb = QuotientBasis(ideal)
    return _solve_tangent(qb, degrees, sig2, gens)


def ext1_space(ideal: Ideal) -> Ext1Space:
    """Ext^1_S(I, S/I)_0 = degree-0 cycles at F_2 modulo boundaries from F_1."""
    if ideal.generators and ideal.is_unit_ideal():
        raise DegenerateInputError("obstruction space of the unit ideal is undefined")
    if ideal.is_zero_ideal():
        return Ext1Space(0, (), 0, 0)
    _, degrees, sig2, sig3 = _resolution_data(ideal, 3)
    qb = QuotientBasis(ideal)
    if not sig2:
        return Ext1Space(0, (), 0, 0)
    cycle_layout = HomLayout(qb, [e for _, e in sig2])
    constraints = _pairing_matrix(cycle_layout, sig3)
    p = qb.ring.field.p
    cycles = linalg.nullspace(constraints, p)
    cycle_dim = cycles.shape[1]
    gen_layout = HomLayout(qb, degrees)
    boundary = _pairing_matrix(gen_layout, sig2)  # rows live in the cycle coordinates
    boundary_rank = linalg.rank(boundary, p) if boundary.size else 0
    basis = tuple(cycle_layout.lift(cycles[:, k]) for k in range(cycle_dim))
    return Ext1Space(cycle_dim - boundary_rank, basis, boundary_rank, cycle_dim)


class ComparisonReport:
    """Outcome of the tangent/obstruction comparison for one truncation."""

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

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def to_json(self):
        return {
            "tangent_dim_Y": self.tangent_dim_Y,
            "tangent_dim_Gamma": self.tangent_dim_Gamma,
            "tangent_rank": self.tangent_rank,
            "tangent_bijective": self.tangent_bijective,
            "ext1_dim_Y": self.ext1_dim_Y,
            "ext1_dim_Gamma": self.ext1_dim_Gamma,
            "obstruction_kernel_dim": self.obstruction_kernel_dim,
            "obstruction_injective": self.obstruction_injective,
            "m": self.m,
            "reg": self.reg,
        }

    def __repr__(self):
        return f"ComparisonReport({self.to_json()})"


def truncation_presentation(ideal_y: Ideal, m: int):
    """Block presentation of I_Y + m^m.

    Returns (gamma, block_gens, block_degrees, gamma_columns, r) where
    the first r generators are the minimal generators of I_Y, the rest
    are the degree-m standard monomials of I_Y, and gamma_columns lists
    first syzygies: I_Y columns padded with zeros, then degree >= m
    certificate syzygies of the block generators.  Any syzygy of degree
    < m has zero strand entries and already lies in the span of the
    padded columns, so the list generates for every m >= 1.
    """
    ring = ideal_y.ring
    gens_y, degrees_y, sig2_y, _ = _resolution_data(ideal_y, ring.n + 2)
    qb_y = QuotientBasis(ideal_y)
    strand = [ring.monomial(e) for e in qb_y.monomials(m)]
    block_gens = list(gens_y) + strand
    block_degrees = list(degrees_y) + [m] * len(strand)
    if not block_gens:
        raise DegenerateInputError("truncation of the unit ideal is undefined")
    gamma = Ideal(ring, block_gens)
    t1 = len(strand)
    r = len(gens_y)
    zero = ring.zero()
    columns = [
        (tuple(vec) + (zero,) * t1, e) for vec, e in sig2_y
    ]
    extras = vector_syzygies(ring, [(g,) for g in block_gens], (0,))
    for vec in extras:
        e = vector_degree(vec, block_degrees)
        if e >= m:
            columns.append((vec, e))
    return gamma, block_gens, block_degrees, columns, r


def compare_truncation(ideal_y: Ideal, m: int, override: bool = False) -> ComparisonReport:
    """Tangent bijection and obstruction injection for I_Y -> I_Y + m^m.

    Requires m >= reg(I_Y) + 2 unless override is set (negative
    controls); a report is produced either way, with check outcomes as
    data rather than errors.
    """
    ring = ideal_y.ring
    if ideal_y.generators and ideal_y.is_unit_ideal():
        raise DegenerateInputError("truncation comparison of the unit ideal is undefined")
    reg = regularity(ideal_y)
    if m < reg + 2 and not override:
        raise ParameterError(
            f"truncation needs m >= reg(I_Y) + 2 = {reg + 2}, got m = {m}", required=reg
        )
    p = ring.field.p

    gens_y, degrees_y, sig2_y, sig3_y = _resolution_data(ideal_y, ring.n + 2)
    qb_y = QuotientBasis(ideal_y)
    gamma, block_gens, block_degrees, gamma_cols, r = truncation_presentation(ideal_y, m)
    qb_g = QuotientBasis(gamma)

    # every strand slot lives in (S/I_Gamma)_{>=m} = 0, the structural
    # fact making alpha' and alpha∘tau_2 vanish identically
    if hilbert_function(gamma, m) != 0:
        raise RuntimeError("truncation quotient is nonzero in degree m")

    tangent_y = _solve_tangent(qb_y, degrees_y, sig2_y, gens_y)
    tangent_g = _solve_tangent(qb_g, block_degrees, gamma_cols, tuple(block_gens))

    # the comparison acts slotwise by the quotient map q: S/I_Y -> S/I_Gamma
    images = np.zeros((tangent_g.layout.total, tangent_y.dimension), dtype=np.int64)
    for k in range(tangent_y.dimension):
        vec = tangent_y.basis[k]
        col = []
        for j, d in enumerate(tangent_g.layout.degrees):
            if j < r:
                col.extend(qb_g.coords(vec[j], d))
            else:
                col.extend([0] * qb_g.dim(d))
        images[:, k] = col
    solved = linalg.solve(tangent_g.basis_matrix, images, p)
    tangent_rank = linalg.rank(images.T, p)
    tangent_bijective = (
        solved is not None
        and tangent_y.dimension == tangent_g.dimension == tangent_rank
    )

    # obstruction side: cycles for I_Y, boundaries on both presentations
    ext_y = ext1_space(ideal_y)
    ext_g = ext1_space(gamma)
    if sig2_y:
        cycle_layout_y = HomLayout(qb_y, [e for _, e in sig2_y])
        cycles_y = linalg.nullspace(_pairing_matrix(cycle_layout_y, sig3_y), p)
        boundary_y = _pairing_matrix(HomLayout(qb_y, degrees_y), sig2_y)
        dim_by = linalg.rank(boundary_y.T, p) if boundary_y.size else 0

        # Gamma cycle coordinates: only the padded I_Y columns contribute
        # (degree >= m blocks are zero); phi maps q slotwise.
        gamma_cycle_layout = HomLayout(qb_g, [e for _, e in gamma_cols])
        boundary_g = _pairing_matrix(HomLayout(qb_g, block_degrees), gamma_cols)
        phi_images = np.zeros((gamma_cycle_layout.total, cycles_y.shape[1]), dtype=np.int64)
        for k in range(cycles_y.shape[1]):
            vec = cycle_layout_y.lift(cycles_y[:, k])
            col = []
            for c, e in enumerate(gamma_cycle_layout.degrees):
                if c < len(sig2_y):
                    col.extend(qb_g.coords(vec[c], e))
                else:
                    col.extend([0] * qb_g.dim(e))
            phi_images[:, k] = col
        dim_zy = cycles_y.shape[1]
        rank_bg = linalg.rank(boundary_g, p) if boundary_g.size else 0
        stacked = np.hstack([boundary_g, phi_images]) if boundary_g.size else phi_images
        rank_both = linalg.rank(stacked, p) if stacked.size else 0
        # ker(H_Y -> H_Gamma) = {cycles whose image is a Gamma-boundary} / B_Y
        dim_w = dim_zy - (rank_both - rank_bg)
        kernel_dim = dim_w - dim_by
    else:
        kernel_dim = 0

    return ComparisonReport(
        tangent_dim_Y=tangent_y.dimension,
        tangent_dim_Gamma=tangent_g.dimension,
        tangent_rank=tangent_rank,
        tangent_bijective=bool(tangent_bijective),
        ext1_dim_Y=ext_y.dimension,
        ext1_dim_Gamma=ext_g.dimension,
        obstruction_kernel_dim=int(kernel_dim),
        obstruction_injective=bool(kernel_dim == 0),
        m=m,
        reg=reg,
    )
