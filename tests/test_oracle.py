import numpy as np
import pytest

from hfstrata import cli, linalg, oracle
from hfstrata.field import PrimeField
from hfstrata.deform import tangent_space
from hfstrata.errors import ParameterError, ResourceLimitError
from hfstrata.groebner import Ideal, ideal_sum, maximal_ideal_power
from hfstrata.invariants import HilbertSeries, hilbert_function, hilbert_series, regularity
from hfstrata.ring import RingContext
from hfstrata.strata import random_forms
from hfstrata.oracle import (
    GradedPieceBasis,
    _code_weights,
    _generator_terms,
    _ideal_piece,
    _quotient_piece,
    betti_bruteforce,
    hf_bruteforce,
    syzygies_bruteforce,
    syzygy_counts,
    tangent_bruteforce,
)

from conftest import build_corpus, ring2, twisted_cubic
from test_output_digest import FILES


def test_graded_piece_basis_size():
    basis = GradedPieceBasis(twisted_cubic().ring, 4)
    assert len(basis) == 35  # C(7,3)


def test_graded_piece_basis_is_shared_and_read_only():
    """One basis per (n, d, order kind); its arrays refuse writes, so
    no caller can change it under another."""
    basis = GradedPieceBasis(twisted_cubic().ring, 4)
    assert GradedPieceBasis(twisted_cubic().ring, 4) is basis
    assert GradedPieceBasis(ring2(), 4) is not basis
    for array in (basis.exps, basis.weights, basis._perm, basis._sorted):
        with pytest.raises(ValueError):
            array[0] = 0


def test_code_weights_refuse_codes_past_int64():
    """The largest code is checked before any is built: in 40 variables
    the degree-2 monomials fit, the top one x_39^2 at 2 * 3^39 < 2^63,
    but not two components of them, nor the degree-3 monomials."""
    weights, step = _code_weights(40, 3, 2)
    assert int(np.array([0] * 39 + [2]) @ weights) == 2 * 3**39 == step - 1
    for args in ((40, 3, 2, 2), (40, 4, 3)):
        with pytest.raises(ResourceLimitError, match="exceed int64"):
            _code_weights(*args)
    assert _code_weights(3, 2, 9)[1] == 2**3  # below radix**n, whatever the degree


def test_hf_hand_counts():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    only_sq = Ideal(r, [x * x])
    assert hf_bruteforce(only_sq, 3) == 2  # S_3 is 4-dim, multiples give rank 2
    zero = Ideal(r, [])
    assert [hf_bruteforce(zero, d) for d in range(4)] == [1, 2, 3, 4]
    assert hf_bruteforce(twisted_cubic(), 4) == 13
    with pytest.raises(ParameterError):
        hf_bruteforce(zero, -1)


def test_syzygy_kernel_dims():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    ci = Ideal(r, [x * x, y * y])
    syz = syzygies_bruteforce(ci, 4)
    assert len(syz[4]) == 1  # the Koszul syzygy
    assert len(syz.get(2, [])) == 0 and len(syz.get(3, [])) == 0
    tc_syz = syzygies_bruteforce(twisted_cubic(), 3)
    assert len(tc_syz[3]) == 2


def test_syzygies_annihilate_generators():
    tc = twisted_cubic()
    for e, vectors in syzygies_bruteforce(tc, 5).items():
        for vec in vectors:
            total = tc.ring.zero()
            for a, f in zip(vec, tc.generators):
                total = total + a * f
            assert total.is_zero(), e


def test_tangent_hand_values():
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    assert tangent_bruteforce(Ideal(r, [x * x]), 4) == 2
    assert tangent_bruteforce(Ideal(r, [x * x, y * y]), 5) == 2


def test_bound_below_a_generator_degree_raises():
    """Every bounded oracle refuses a bound that would drop a generator."""
    r = ring2()
    x, y = r.variable(0), r.variable(1)
    ideal = Ideal(r, [x * x, y * y * y])
    for bound in (1, 2):
        with pytest.raises(ParameterError):
            betti_bruteforce(ideal, 3, bound)
        with pytest.raises(ParameterError):
            syzygies_bruteforce(ideal, bound)
        with pytest.raises(ParameterError):
            tangent_bruteforce(ideal, bound)
    assert betti_bruteforce(ideal, 3, 3).entries == {(0, 2): 1, (0, 3): 1}
    assert betti_bruteforce(ideal, 3, 5).entries == {(0, 2): 1, (0, 3): 1, (1, 5): 1}


def test_negative_bound_on_the_zero_ideal_raises():
    zero = Ideal(ring2(), [])
    for oracle in (syzygies_bruteforce, syzygy_counts, tangent_bruteforce):
        with pytest.raises(ParameterError):
            oracle(zero, -1)
        assert not oracle(zero, 0)
    with pytest.raises(ParameterError):
        betti_bruteforce(zero, 3, -1)
    assert betti_bruteforce(zero, 3, 0).entries == {}


def test_betti_koszul():
    bt = betti_bruteforce(maximal_ideal_power(ring2(), 1), 3, 4)
    assert bt.entries == {(0, 1): 2, (1, 2): 1}


def test_betti_twisted_cubic():
    bt = betti_bruteforce(twisted_cubic(), 4, 6)
    assert bt.entries == {(0, 2): 3, (1, 3): 2}


def test_betti_truncation_matches_engine():
    """Oracle-vs-engine equality on a truncation, t-strands included."""
    from hfstrata.invariants import betti_table

    tc = twisted_cubic()
    gamma = ideal_sum(tc, maximal_ideal_power(tc.ring, 4))
    oracle = betti_bruteforce(gamma, 4, 8)
    assert oracle.entries == betti_table(gamma).entries
    # strands sit in internal degree exactly m + i
    for (i, j), beta in oracle.items():
        assert j in (i + 2, i + 4), (i, j, beta)


def test_tangent_lifts_only_minimal_syzygies(monkeypatch):
    """`tangent_bruteforce` builds conditions only for the syzygies the
    Nakayama selection keeps that have an entry outside I, and echelon
    forms of I_e only at generator degrees, those syzygies' degrees and
    the lower degrees the membership checks read.  The values match the
    engine: the twisted cubic's 12, the Fermat cubic curve's 19 + 2 * 44
    = 107 (a complete intersection: its Koszul syzygies have every entry
    in I, so nothing is lifted, and the check of the degree-10 one reads
    the piece of degree 10 - 3 = 7), and 8 for (x^2, xy, yz^2) in 3
    variables, whose syzygies in degrees 3 and 4 each cut the value, so
    dropping either degree's conditions changes it."""
    lifted, echelons = [], []
    lift, quotient = oracle._lift_conditions, oracle._quotient_piece

    def recording_lift(basis, *args):
        lifted.append((basis.degree, args[-3].shape[1]))  # (e, kept syzygies)
        return lift(basis, *args)

    def recording_quotient(basis, mat, p):
        echelons.append(basis.degree)
        return quotient(basis, mat, p)

    monkeypatch.setattr(oracle, "_lift_conditions", recording_lift)
    monkeypatch.setattr(oracle, "_quotient_piece", recording_quotient)
    ring = RingContext("xyzw", PrimeField(32003))
    x, y, z, w = (ring.variable(i) for i in range(4))
    fermat = Ideal(ring, [x * x * x + y * y * y + z * z * z + w * w * w] + random_forms(ring, 5, 2, seed=1))
    ring3 = RingContext("xyz", PrimeField(32003))
    x, y, z = (ring3.variable(i) for i in range(3))
    monomial = Ideal(ring3, [x * x, x * y, y * z * z])
    for ideal, bound, value, lifts, degrees in [
        (twisted_cubic(), 8, 12, [(3, 2)], [2, 3]),
        (fermat, 10, 107, [], [3, 5, 7]),
        (monomial, 7, 8, [(3, 1), (4, 1)], [2, 3, 4]),
    ]:
        lifted.clear()
        echelons.clear()
        assert tangent_bruteforce(ideal, bound) == value
        assert value == tangent_space(ideal).dimension
        assert (lifted, echelons) == (lifts, degrees)


def test_betti_reads_z_from_its_own_ranks(monkeypatch):
    """`betti_bruteforce` ranks no Hilbert value of its own: z comes from
    level 0's and step 1's ranks.  For (x^2, y^2), z = 3 has no
    generator, so step 1 finds it and stops at degree 4, step 2 at 5.
    With max_step = 0 only the generators are selected, no kernel built."""
    calls = []
    monkeypatch.setattr(oracle, "hf_bruteforce", lambda *args: calls.append(args))
    for ideal in build_corpus().values():
        betti_bruteforce(ideal, ideal.ring.n + 1, 8)
    tc = twisted_cubic()
    betti_bruteforce(ideal_sum(tc, maximal_ideal_power(tc.ring, 4)), 6, 8)
    assert calls == []

    r = ring2()
    x, y = r.variable(0), r.variable(1)
    ci = Ideal(r, [x * x, y * y])
    for bound in (5, 8):
        table, steps = betti_kernel_degrees(monkeypatch, ci, 3, bound)
        assert table.entries == {(0, 2): 2, (1, 4): 1}
        assert steps == [[2, 3, 4], [4, 5]]
    table, steps = betti_kernel_degrees(monkeypatch, ci, 0, 8)
    assert (table.entries, steps) == ({(0, 2): 2}, [[]])
    gamma = ideal_sum(tc, maximal_ideal_power(tc.ring, 4))
    table, steps = betti_kernel_degrees(monkeypatch, gamma, 0, 8)
    assert (table.entries, steps) == ({(0, 2): 3, (0, 4): 13}, [[]])


def betti_kernel_degrees(monkeypatch, ideal, max_step, bound):
    """The Betti table, and the degree of each kernel `betti_bruteforce`'s
    step search builds, one list per homological step: a step's degrees
    ascend by one from its lowest shift, so a drop starts the next step.
    The kernels behind the Koszul pass's quotient pieces
    (`_quotient_piece`) are no step's and are not counted."""
    last, degrees, inside = [], [], []
    unknowns, nullspace, quotient = oracle._unknowns, linalg.nullspace, oracle._quotient_piece

    def recording(ring, shifts, e):
        last[:] = [e]
        return unknowns(ring, shifts, e)

    def piece(basis, mat, p):
        inside.append(True)
        try:
            return quotient(basis, mat, p)
        finally:
            inside.pop()

    def counting(a, p):
        if not inside:
            degrees.append(last[0])
        return nullspace(a, p)

    monkeypatch.setattr(oracle, "_unknowns", recording)
    monkeypatch.setattr(oracle, "_quotient_piece", piece)
    monkeypatch.setattr(linalg, "nullspace", counting)
    table = betti_bruteforce(ideal, max_step, bound)
    monkeypatch.undo()
    steps = [[]]
    for k, e in enumerate(degrees):
        if k and e != degrees[k - 1] + 1:
            steps.append([])
        steps[-1].append(e)
    return table, steps


def test_betti_search_stops_where_tor_vanishes(monkeypatch):
    """(S/Γ)_4 = 0 for Γ = twisted cubic + m^4, and level 0 finds it: the
    kept generators span S_4.  So the table is Koszul homology on the
    quotient pieces of degree d < 4, built once each, with no kernel,
    and bounds 8 and 12 build the same pieces and give the engine's
    table.  The twisted cubic itself never vanishes: every step with
    generators still searches up to the bound."""
    from hfstrata.invariants import betti_table

    tc = twisted_cubic()
    gamma = ideal_sum(tc, maximal_ideal_power(tc.ring, 4))
    quotient, runs = oracle._quotient_piece, []
    for bound in (8, 12):
        pieces = []

        def recording(basis, mat, p):
            pieces.append(basis.degree)
            return quotient(basis, mat, p)

        monkeypatch.setattr(oracle, "_quotient_piece", recording)
        runs.append(betti_kernel_degrees(monkeypatch, gamma, 6, bound) + (pieces,))
    assert runs[0] == runs[1]
    table, steps, pieces = runs[0]
    assert (steps, pieces) == ([[]], [0, 1, 2, 3])
    assert table == betti_table(gamma)

    table, steps = betti_kernel_degrees(monkeypatch, tc, 6, 7)
    assert table.entries == {(0, 2): 3, (1, 3): 2}
    assert [max(degrees) for degrees in steps] == [7, 7]


def test_koszul_row_zero_is_checked_against_the_generators(monkeypatch):
    """A Koszul rank one too high changes row 0, which must then disagree
    with level 0's selection and raise, not print a wrong table."""
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda a, p: rank(a, p) + 1)
    with pytest.raises(RuntimeError):
        betti_bruteforce(maximal_ideal_power(ring2(), 2), 3, 4)


def test_oracle_euler_characteristic(corpus):
    """Oracle-internal: Betti-weighted numerator reproduces the oracle HF."""
    from math import comb

    for name, ideal in corpus.items():
        if ideal.is_zero_ideal():
            continue
        n = ideal.ring.n
        reg_guess = 6
        bt = betti_bruteforce(ideal, n + 1, reg_guess + n + 1)
        acc = {0: 1}
        for (i, j), b in bt.items():
            acc[j] = acc.get(j, 0) + (-1 if i % 2 == 0 else 1) * b
        for d in range(9):
            expected = sum(
                c * comb(n - 1 + d - k, n - 1) for k, c in acc.items() if k <= d
            )
            assert expected == hf_bruteforce(ideal, d), (name, d)


def check_rank_only_paths(ideal):
    """The rank-only paths equal the kernel paths they replace."""
    for d in range(6):
        basis, _, _, mat = _ideal_piece(_generator_terms(ideal), d)
        assert hf_bruteforce(ideal, d) == len(_quotient_piece(basis, mat, ideal.ring.field.p)[0]), d
    top = max((f.homogeneous_degree() for f in ideal.generators), default=0) + 2
    kernels = {e: len(vectors) for e, vectors in syzygies_bruteforce(ideal, top).items()}
    assert syzygy_counts(ideal, top) == kernels


def test_rank_only_oracle_matches_kernels_on_corpus(corpus):
    for ideal in corpus.values():
        check_rank_only_paths(ideal)


def test_rank_paths_make_no_rref_calls(tmp_path, monkeypatch):
    """`oracle hilb`, `oracle syz` and `greedy_independent_rows` read only
    ranks and pivot columns; `oracle tangent` still needs echelon rows."""
    calls = []
    original = linalg.rref_inplace

    def counting(a, p):
        calls.append(a.shape)
        return original(a, p)

    monkeypatch.setattr(linalg, "rref_inplace", counting)
    for name in ("twisted_cubic_trunc4.ideal", "quadric_cone_curve4.ideal", "max_cube_sq.ideal"):
        (tmp_path / name).write_text(FILES[name])
        for mode in ("hilb", "syz"):
            assert cli.run(["oracle", mode, str(tmp_path / name)]) == 0
    rng = np.random.default_rng(0)
    assert linalg.greedy_independent_rows(rng.integers(0, 5, size=(12, 7)), 5)
    assert calls == []
    assert cli.run(["oracle", "tangent", str(tmp_path / "max_cube_sq.ideal")]) == 0
    assert calls


@pytest.mark.parametrize("p", [2, 2**31 - 1])
def test_tangent_and_hilb_stop_at_the_first_zero_piece(tmp_path, monkeypatch, capsys, p):
    """On corpus truncations at m = 1, 2 and reg + 2, `oracle tangent` and
    `oracle hilb` build no matrix in a degree above the first d with
    (S/I)_d = 0, `oracle tangent` builds one matrix of multiples per
    degree, and the tangent dimension equals the engine's."""
    degrees = []
    original = oracle._unknowns

    def recording(ring, shifts, e):
        # the rows of every matrix the oracle builds in degree e
        degrees.append(e)
        return original(ring, shifts, e)

    monkeypatch.setattr(oracle, "_unknowns", recording)
    path = tmp_path / "gamma.ideal"
    for name, ideal_y in build_corpus(p=p).items():
        for m in sorted({1, 2, regularity(ideal_y) + 2}):
            gamma = ideal_sum(ideal_y, maximal_ideal_power(ideal_y.ring, m))
            first_zero = next(d for d in range(m + 1) if hilbert_function(gamma, d) == 0)
            path.write_text(cli.format_ideal_file(gamma))
            for argv, expected in [
                (["hilb", "--up-to", "9"], " ".join(str(hilbert_function(gamma, d)) for d in range(10))),
                (["tangent", "--bound", "9"], str(tangent_space(gamma).dimension)),
            ]:
                degrees.clear()
                capsys.readouterr()
                assert cli.run(["oracle", argv[0], str(path)] + argv[1:]) == 0
                assert capsys.readouterr().out.strip() == expected, (name, m, argv)
                assert degrees and max(degrees) <= first_zero, (name, m, argv, degrees)
                if argv[0] == "tangent":
                    assert len(set(degrees)) == len(degrees), (name, m, degrees)
