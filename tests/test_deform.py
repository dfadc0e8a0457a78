import numpy as np
import pytest

from hfstrata import deform, linalg
from hfstrata.deform import (
    HomLayout,
    Truncation,
    _ext1,
    _pairing_matrix,
    _resolution_data,
    _rows_below,
    _solve_tangent,
    compare_truncation,
    ext1_space,
    tangent_space,
)
from hfstrata.errors import ParameterError
from hfstrata.groebner import Ideal, ideal_member, maximal_ideal_power, syzygies, vector_degree
from hfstrata.invariants import (
    QuotientBasis,
    hilbert_function,
    minimal_free_resolution,
    regularity,
)
from hfstrata.oracle import tangent_bruteforce
from hfstrata.strata import truncate_ideal

from conftest import build_corpus, rational_normal_quartic, ring2, skew_lines, twisted_cubic

# frozen oracle regression value: tangent_bruteforce on the twisted cubic
TWISTED_CUBIC_TANGENT_DIM = 12


def test_tangent_free_ideal():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    t = tangent_space(Ideal(r, [x * x]))
    assert t.dimension == 2
    images = {str(b[0]) for b in t.basis}
    assert images == {"x*y", "y^2"}


def test_tangent_complete_intersection():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    assert tangent_space(Ideal(r, [x * x, y * y])).dimension == 2


def test_tangent_twisted_cubic_frozen():
    tc = twisted_cubic()
    assert tangent_space(tc).dimension == TWISTED_CUBIC_TANGENT_DIM
    assert tangent_bruteforce(tc, regularity(tc) + 2) == TWISTED_CUBIC_TANGENT_DIM


def test_tangent_matches_oracle(corpus):
    for name, ideal in corpus.items():
        bound = (regularity(ideal) if not ideal.is_zero_ideal() else 0) + 2
        assert tangent_space(ideal).dimension == tangent_bruteforce(ideal, bound), name


def test_tangent_basis_annihilates_syzygies(corpus):
    """alpha ∘ sigma_2 = 0 in S/I for every reported basis element."""
    for name, ideal in corpus.items():
        if ideal.is_zero_ideal():
            continue
        t = tangent_space(ideal)
        res = minimal_free_resolution(ideal, 2)
        if not res.maps:
            continue
        sigma2 = res.maps[0]
        for element in t.basis:
            for col in range(sigma2.source.rank):
                acc = ideal.ring.zero()
                for j, g in enumerate(element):
                    entry = sigma2.entries[j][col]
                    if not entry.is_zero() and not g.is_zero():
                        acc = acc + entry * g
                assert ideal_member(acc, ideal), name


def test_first_order_deformation_round_trip(corpus):
    """Generators f_i + eps*g_i stay flat: every syzygy lifts mod I."""
    for name, ideal in corpus.items():
        if ideal.is_zero_ideal():
            continue
        t = tangent_space(ideal)
        gens = t.generators
        basis = syzygies(Ideal(ideal.ring, gens))
        for element in t.basis:
            for vec in basis:
                acc = ideal.ring.zero()
                for a, g in zip(vec, element):
                    if not a.is_zero() and not g.is_zero():
                        acc = acc + a * g
                assert ideal_member(acc, ideal), name


def test_ext1_free_ideal_is_zero():
    r = ring2()
    x = r.variable(0)
    e = ext1_space(Ideal(r, [x * x]))
    assert e.dimension == 0 and e.cycle_dim == 0


def test_ext1_koszul_is_zero():
    # F_2 = S(-4) and (S/(x^2,y^2))_4 = 0, so there are no cycles at all
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    e = ext1_space(Ideal(r, [x * x, y * y]))
    assert e.dimension == 0
    assert e.cycle_dim == 0 and e.boundary_rank == 0


def test_ext1_max_square_oracle_derived():
    # oracle-backed expected value: betti_bruteforce gives F_2 = S(-3)^2 and
    # hf_bruteforce gives h_3(S/m^2) = 0, so Hom(F_2, S/I)_0 = 0 forces dim 0
    from hfstrata.oracle import betti_bruteforce, hf_bruteforce

    mm = maximal_ideal_power(ring2(), 2)
    table = betti_bruteforce(mm, 3, 6)
    assert table.entries == {(0, 2): 3, (1, 3): 2}
    assert hf_bruteforce(mm, 3) == 0
    assert ext1_space(mm).dimension == 0


def test_ext1_length_one_resolution_identity(corpus):
    """With F_3 = 0, dim Ext^1 = dim Hom(F_2, S/I)_0 - boundary_rank."""
    for name, ideal in corpus.items():
        if ideal.is_zero_ideal():
            continue
        res = minimal_free_resolution(ideal, ideal.ring.n + 2)
        if len(res.modules) != 2:
            continue
        e = ext1_space(ideal)
        hom_dim = sum(hilbert_function(ideal, d) for d in res.modules[1].shifts)
        assert e.cycle_dim == hom_dim, name
        assert e.dimension == hom_dim - e.boundary_rank, name


def test_compare_truncation_twisted_cubic():
    rep = compare_truncation(Truncation(twisted_cubic(), 4))
    assert rep.tangent_bijective and rep.obstruction_injective
    assert rep.tangent_dim_Y == rep.tangent_dim_Gamma == TWISTED_CUBIC_TANGENT_DIM
    assert rep.tangent_rank == TWISTED_CUBIC_TANGENT_DIM


def test_compare_truncation_koszul():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    ci = Ideal(r, [x * x, y * y])
    rep = compare_truncation(Truncation(ci, 5))  # reg + 2
    assert rep.tangent_bijective and rep.obstruction_injective
    assert rep.m == 5 and rep.reg == 3


def test_compare_truncation_requires_bound():
    with pytest.raises(ParameterError) as exc:
        Truncation(twisted_cubic(), 2)
    assert exc.value.required == 2  # carries reg(I_Y)


def test_compare_truncation_negative_control():
    rep = compare_truncation(Truncation(twisted_cubic(), 2, override=True))
    assert rep.m == 2
    # dimensions are reported, equality is NOT asserted by the tool
    assert rep.tangent_dim_Y == TWISTED_CUBIC_TANGENT_DIM
    assert rep.tangent_dim_Gamma == 0
    assert not rep.tangent_bijective


def test_comparison_report_json_keys():
    rep = compare_truncation(Truncation(twisted_cubic(), 4))
    assert list(rep.to_json().keys()) == [
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
    ]


def test_truncation_presentation_block_structure():
    tc = twisted_cubic()
    trunc = Truncation(tc, 4)
    assert trunc.block_gens[:3] == list(trunc.gens_y)
    strand = trunc.block_gens[3:]
    assert len(strand) == 13  # t_1 = h_4(S/I_Y) = 13
    assert all(len(f.terms) == 1 and f.homogeneous_degree() == 4 for f in strand)
    assert hilbert_function(trunc.gamma, 4) == 0
    assert trunc.gamma.groebner_basis() == truncate_ideal(tc, 4).groebner_basis()


def _round_trip(qb_y, qb_gamma, degrees, matrix):
    """Reference images in Gamma's coordinates: each column lifted to one
    polynomial per I_Y slot, each reduced in (S/I_Gamma) of its degree as
    f times the class of 1."""
    lift = HomLayout(qb_y, degrees).lift
    images = np.zeros((HomLayout(qb_gamma, degrees).total, matrix.shape[1]), dtype=np.int64)
    for k in range(matrix.shape[1]):
        images[:, k] = np.concatenate([
            qb_gamma.multiplication_matrix(f, 0)[:, 0] if not f.is_zero() else np.zeros(qb_gamma.dim(d))
            for f, d in zip(lift(matrix[:, k]), degrees)
        ])
    return images


@pytest.mark.parametrize("p", [32003, 2**31 - 1])
def test_row_selection_matches_polynomial_round_trip(p):
    """Below m, S/I_Gamma keeps the standard monomials of S/I_Y; from m
    on it is zero.  So lifting a tangent vector or an Ext^1 cycle of I_Y
    to polynomials and reducing it modulo Gamma gives its rows in the
    slots of degree < m, and Gamma's layouts have just those rows."""
    ideals = dict(build_corpus(p=p), skew_lines=skew_lines(p=p))
    for name, ideal in ideals.items():
        reg = regularity(ideal) if not ideal.is_zero_ideal() else 0
        for m in sorted({1, 2, reg + 1, reg + 2, reg + 3}):
            trunc = Truncation(ideal, m, override=True)
            qb_y, qb_g = trunc.qb_y, trunc.qb_gamma
            tangent = _solve_tangent(qb_y, trunc.degrees_y, trunc.sig2_y, trunc.gens_y)
            rank = tangent.layout.total - tangent.dimension
            cycles = _ext1(qb_y, trunc.sig2_y, trunc.sig3_y, rank).cycles
            cycle_degrees = [e for _, e in trunc.sig2_y]
            cases = [(trunc.degrees_y, tangent.basis_matrix), (cycle_degrees, cycles)]
            for degrees, matrix in cases:
                selected = matrix[_rows_below(qb_y, degrees, m)]
                assert np.array_equal(selected, _round_trip(qb_y, qb_g, degrees, matrix)), (name, m)
                assert selected.shape[0] == HomLayout(qb_g, degrees).total, (name, m)


def test_comparison_makes_no_lift_calls(monkeypatch):
    """Tangent spaces, Ext^1 and the truncation comparison stay in
    coordinates; `TangentSpace.basis` lifts only when read."""
    calls = []
    original = HomLayout.lift

    def counting(self, column):
        calls.append(len(self.degrees))
        return original(self, column)

    monkeypatch.setattr(HomLayout, "lift", counting)
    for ideal, m in ((twisted_cubic(), 4), (skew_lines(), 3)):
        tangent_space(ideal)
        ext1_space(ideal)
        compare_truncation(Truncation(ideal, m, override=True))
    assert calls == []

    tc = twisted_cubic()
    t = tangent_space(tc)
    basis = t.basis
    assert len(calls) == t.dimension == TWISTED_CUBIC_TANGENT_DIM
    assert isinstance(basis, tuple) and len(basis) == t.dimension
    for element in basis:
        assert isinstance(element, tuple) and len(element) == len(t.generators)
        assert all(f.ring is tc.ring for f in element)


def _block_tangent(trunc):
    """Reference T_Gamma on the full block presentation: unknowns on every
    block generator, strand slots included, and one constraint block for
    each column of sigma_2(I_Y) padded with zeros on the strand slots and
    for each syzygy of the block generators, of any degree."""
    strand = len(trunc.block_gens) - len(trunc.gens_y)
    degrees = list(trunc.degrees_y) + [trunc.m] * strand
    zero = trunc.gamma.ring.zero()
    columns = [(tuple(vec) + (zero,) * strand, e) for vec, e in trunc.sig2_y]
    columns += [(vec, vector_degree(vec, degrees)) for vec in syzygies(trunc.gamma)]
    return _solve_tangent(trunc.qb_gamma, degrees, columns, tuple(trunc.block_gens))


def _boundary_rank(qb, degrees, sig2):
    """Reference rank of the Ext^1 boundary map, from its sigma_2 pairing."""
    return linalg.rank(_pairing_matrix(HomLayout(qb, degrees), sig2), qb.ring.field.p)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_ext1_boundary_rank_is_the_tangent_codimension(p):
    """`ext1_space` reads its boundary rank off the tangent solve
    (#unknowns - dim T); it equals the rank of the sigma_2 pairing."""
    ideals = {**build_corpus(p=p), "skew_lines": skew_lines(p=p)}
    for name, ideal in ideals.items():
        _, degrees, sig2, _ = _resolution_data(ideal, 3)
        expected = _boundary_rank(QuotientBasis(ideal), degrees, sig2)
        assert ext1_space(ideal).boundary_rank == expected, (name, p)


@pytest.mark.parametrize("p", [32003, 2**31 - 1])
def test_comparison_matches_block_presentation(monkeypatch, p):
    """T_Gamma solved on I_Y's slots against sigma_2(I_Y) equals T_Gamma
    on the block presentation with every block syzygy, basis matrix
    included; and the boundary ranks the comparison passes to `_ext1`
    (#unknowns - dim T) equal the ranks of the sigma_2 pairings."""
    solved, ext1s = [], []

    def record(fn, out):
        def wrapper(*args):
            out.append(fn(*args))
            return out[-1]

        return wrapper

    monkeypatch.setattr(deform, "_solve_tangent", record(_solve_tangent, solved))
    monkeypatch.setattr(deform, "_ext1", record(_ext1, ext1s))
    ideals = dict(build_corpus(p=p), skew_lines=skew_lines(p=p))
    for name, ideal in ideals.items():
        reg = regularity(ideal) if not ideal.is_zero_ideal() else 0
        for m in sorted({1, 2, reg + 1, reg + 2, reg + 3}):
            trunc = Truncation(ideal, m, override=True)
            del solved[:], ext1s[:]
            compare_truncation(trunc)
            _, tangent_g = solved
            reference = _block_tangent(trunc)
            assert tangent_g.dimension == reference.dimension, (name, m)
            assert np.array_equal(tangent_g.basis_matrix, reference.basis_matrix), (name, m)
            _, degrees_g, sig2_g, _ = _resolution_data(trunc.gamma, 3)
            ranks = [
                _boundary_rank(trunc.qb_y, trunc.degrees_y, trunc.sig2_y),
                _boundary_rank(trunc.qb_gamma, degrees_g, sig2_g),
            ]
            assert [e.boundary_rank for e in ext1s] == ranks, (name, m)


def test_comparison_builds_four_pairing_matrices(monkeypatch):
    """One matrix each for T_Y, T_Gamma and the two cycle spaces; the
    boundary ranks come from the tangent solves, and building the
    Truncation resolves nothing of Gamma."""
    calls = []

    def counting(layout, columns):
        calls.append(len(columns))
        return _pairing_matrix(layout, columns)

    monkeypatch.setattr(deform, "_pairing_matrix", counting)
    cases = ((twisted_cubic, 4), (twisted_cubic, 6), (skew_lines, 3), (skew_lines, 4))
    for ideal, m in cases:
        trunc = Truncation(ideal(), m, override=True)
        assert trunc.gamma._resolution is None
        del calls[:]
        compare_truncation(trunc)
        assert len(calls) == 4, (m, calls)


@pytest.mark.parametrize("p", [32003, 2**31 - 1])
def test_gamma_ext1_does_not_depend_on_the_presentation(p):
    """Ext^1(I_Gamma) on Gamma's block presentation (sigma_2, sigma_3 of
    I_Y, with T_Gamma's constraints as the boundaries) equals Ext^1 from
    Gamma's own minimal resolution: dimension, cycles and boundaries."""
    ideals = dict(build_corpus(p=p), skew_lines=skew_lines(p=p))
    ideals["quartic"] = rational_normal_quartic(p=p)
    checked = 0
    for name, ideal in ideals.items():
        reg = regularity(ideal) if not ideal.is_zero_ideal() else 0
        for m in sorted({1, 2, reg, reg + 1, reg + 2, reg + 3} - {0}):
            trunc = Truncation(ideal, m, override=True)
            qb = trunc.qb_gamma
            tangent = _solve_tangent(qb, trunc.degrees_y, trunc.sig2_y, trunc.gens_y)
            block = _ext1(qb, trunc.sig2_y, trunc.sig3_y, tangent.layout.total - tangent.dimension)
            own = ext1_space(trunc.gamma)
            assert (block.dimension, block.cycle_dim, block.boundary_rank) == (
                own.dimension,
                own.cycle_dim,
                own.boundary_rank,
            ), (name, m)
            checked += 1
    assert checked >= 50
