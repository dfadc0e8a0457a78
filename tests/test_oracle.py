import numpy as np
import pytest

from hfstrata import cli, linalg, oracle
from hfstrata.deform import tangent_space
from hfstrata.errors import ParameterError
from hfstrata.groebner import Ideal, ideal_sum, maximal_ideal_power
from hfstrata.invariants import HilbertSeries, hilbert_function, hilbert_series, regularity
from hfstrata.oracle import (
    GradedPieceBasis,
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


def betti_kernel_degrees(monkeypatch, ideal, max_step, bound):
    """The Betti table, and the degree of each kernel `betti_bruteforce`
    builds, one list per homological step: a step's degrees ascend by
    one from its lowest shift, so a drop starts the next step."""
    last, degrees = [], []
    unknowns, nullspace = oracle._unknowns, linalg.nullspace

    def recording(ring, shifts, e):
        last[:] = [e]
        return unknowns(ring, shifts, e)

    def counting(a, p):
        degrees.append(last[0])
        return nullspace(a, p)

    monkeypatch.setattr(oracle, "_unknowns", recording)
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
    """(S/Γ)_4 = 0 for Γ = twisted cubic + m^4, so step s builds no kernel
    above degree s + 4, and bounds 8 and 12 build the same kernels and
    give the same table.  The twisted cubic itself never vanishes: every
    step with generators still searches up to the bound."""
    tc = twisted_cubic()
    gamma = ideal_sum(tc, maximal_ideal_power(tc.ring, 4))
    table, steps = betti_kernel_degrees(monkeypatch, gamma, 6, 8)
    assert (table, steps) == betti_kernel_degrees(monkeypatch, gamma, 6, 12)
    assert len(steps) == 4  # steps 1..3 carry entries, step 4 finds none
    for s, degrees in enumerate(steps, start=1):
        assert max(degrees) == s + 4, (s, degrees)

    table, steps = betti_kernel_degrees(monkeypatch, tc, 6, 7)
    assert table.entries == {(0, 2): 3, (1, 3): 2}
    assert [max(degrees) for degrees in steps] == [7, 7]


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
        basis, _, _, mat = _ideal_piece(ideal, d)
        assert hf_bruteforce(ideal, d) == len(_quotient_piece(basis, mat, ideal.ring.field.p)[2]), d
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
