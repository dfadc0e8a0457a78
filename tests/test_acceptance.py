"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All comparisons are exact integer equalities; the stated runtime budgets
are asserted as well.
"""

import time

import pytest

from hfstrata.deform import tangent_space
from hfstrata.groebner import buchberger_basis
from hfstrata.invariants import (
    betti_table,
    hilbert_function,
    hilbert_series,
    krull_dim,
    minimal_free_resolution,
    regularity,
)
from hfstrata.oracle import (
    betti_bruteforce,
    exactness_violations,
    hf_bruteforce,
    syzygies_bruteforce,
    tangent_bruteforce,
)
from hfstrata.ring import _poly_mul_t
from hfstrata.strata import cone_curve, predicted_hilbert_function, truncate_ideal, verify_prop31

from conftest import build_corpus, quadric_cone, ring3, twisted_cubic
from test_groebner import generator_degrees, ideal_syzygies, syzygy_span_rank


def _criterion(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def grid(corpus):
    """verify_prop31 reports for m in {reg+2, reg+3}, with per-ideal timing."""
    out = {}
    for name, ideal in corpus.items():
        reg = regularity(ideal)
        start = time.perf_counter()
        for m in (reg + 2, reg + 3):
            out[(name, m)] = verify_prop31(ideal, m)
        out[name] = time.perf_counter() - start
    return out


def test_criterion_1_piecewise_hilbert(corpus):
    start = time.perf_counter()
    checked = 0
    for name, ideal in corpus.items():
        reg = regularity(ideal)
        for m in range(1, reg + 5):
            gamma = truncate_ideal(ideal, m, override=True)
            for d in range(reg + m + 5):
                expected = predicted_hilbert_function(
                    lambda t: hilbert_function(ideal, t), m, d
                )
                assert hilbert_function(gamma, d) == expected, (name, m, d)
                checked += 1
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        elapsed < 30.0,
        f"piecewise Hilbert function: {checked} exact values across the corpus "
        f"in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_resolution_shape(corpus, grid):
    worst = 0.0
    for name, ideal in corpus.items():
        reg = regularity(ideal)
        worst = max(worst, grid[name])
        for m in (reg + 2, reg + 3):
            report = grid[(name, m)]
            assert report.resolution_shape_ok, (name, m)
            assert report.strand_multiplicities[0] == hilbert_function(ideal, m), (name, m)
    _criterion(
        2,
        worst < 60.0,
        f"resolution shape + t1 = h_m(S/I_Y) on the (ideal, m) grid; "
        f"slowest ideal {worst:.1f}s (< 60s each)",
    )


def test_criterion_3_tangent_bijection(corpus, grid):
    start = time.perf_counter()
    for name, ideal in corpus.items():
        reg = regularity(ideal)
        for m in (reg + 2, reg + 3):
            report = grid[(name, m)]
            c = report.comparison
            assert c.tangent_bijective, (name, m)
            assert c.tangent_dim_Y == c.tangent_dim_Gamma == c.tangent_rank, (name, m)
            assert tangent_bruteforce(ideal, reg + 2) == c.tangent_dim_Y, (name, m)
            gamma = truncate_ideal(ideal, m, override=True)
            assert tangent_bruteforce(gamma, m + 1) == c.tangent_dim_Gamma, (name, m)
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        elapsed < 60.0 * len(corpus),
        f"tangent comparison bijective with both dimensions oracle-confirmed "
        f"({elapsed:.1f}s for the whole grid)",
    )


def test_criterion_4_obstruction_injection(corpus, grid):
    for name, ideal in corpus.items():
        reg = regularity(ideal)
        for m in (reg + 2, reg + 3):
            report = grid[(name, m)]
            assert report.comparison.obstruction_kernel_dim == 0, (name, m)
            assert report.comparison.obstruction_injective, (name, m)
    _criterion(4, True, "obstruction comparison has kernel dimension 0 on the grid")


def test_criterion_5_cone_curve():
    start = time.perf_counter()
    qc = quadric_cone()
    curve, report = cone_curve(qc, 4, seed=1)
    assert report.trials_used <= 5
    assert report.hs_ok and report.dim_ok
    assert krull_dim(curve) == krull_dim(qc) - 2
    factor = [1, 0, 0, 0, -1]
    expected = _poly_mul_t(_poly_mul_t([1, 0, -1], factor), factor)
    assert list(hilbert_series(curve).numerator) == expected

    from hfstrata.groebner import Ideal

    zero3 = Ideal(ring3(), [])
    curve2, report2 = cone_curve(zero3, 2, seed=1)
    assert report2.trials_used <= 5 and report2.hs_ok and report2.dim_ok
    assert hilbert_series(curve2).numerator == (1, 0, -2, 0, 1)

    _, again = cone_curve(qc, 4, seed=1)
    assert again.to_json() == report.to_json()
    elapsed = time.perf_counter() - start
    _criterion(
        5,
        elapsed < 30.0,
        f"cone-curve construction certified and deterministic in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_6_oracle_equivalence(corpus):
    start = time.perf_counter()
    for name, ideal in corpus.items():
        for d in range(13):
            assert hilbert_function(ideal, d) == hf_bruteforce(ideal, d), (name, d)
        if ideal.is_zero_ideal():
            continue
        reg = regularity(ideal)
        n = ideal.ring.n
        engine_syz = ideal_syzygies(ideal)
        oracle_syz = syzygies_bruteforce(ideal, reg + 2)
        for e in sorted(oracle_syz):
            span = syzygy_span_rank(ideal.ring, generator_degrees(ideal), engine_syz, e)
            assert span == len(oracle_syz[e]), (
                name,
                e,
            )
        assert betti_table(ideal).entries == betti_bruteforce(
            ideal, n + 1, reg + n + 1
        ).entries, name
        assert tangent_space(ideal).dimension == tangent_bruteforce(ideal, reg + 2), name
    elapsed = time.perf_counter() - start
    _criterion(
        6,
        elapsed < 300.0,
        f"engine == oracle for Hilbert (d<=12), syzygy ranks, Betti tables, "
        f"tangent dims in {elapsed:.1f}s (< 5min)",
    )


def test_criterion_7_structural_suites(corpus, corpus_lex):
    import random

    start = time.perf_counter()
    rng = random.Random(77)
    for name, ideal in corpus.items():
        if not ideal.is_zero_ideal():
            reference = sorted(str(g) for g in ideal.groebner_basis())
            gens = list(ideal.generators)
            for _ in range(10):
                rng.shuffle(gens)
                assert sorted(
                    str(g) for g in buchberger_basis(ideal.ring, gens)
                ) == reference, name
            res = minimal_free_resolution(ideal, ideal.ring.n + 2)
            assert res.composition_violations() == [], name
            bound = max(max(m.shifts) for m in res.modules) + 2
            assert exactness_violations(ideal, res, bound) == [], name
            assert not res.has_constant_entry(), name
        other = corpus_lex[name]
        for d in range(13):
            assert hilbert_function(ideal, d) == hilbert_function(other, d), (name, d)
        if not ideal.is_zero_ideal():
            assert krull_dim(ideal) == krull_dim(other), name
            assert betti_table(ideal).entries == betti_table(other).entries, name
            assert regularity(ideal) == regularity(other), name
            assert tangent_space(ideal).dimension == tangent_space(other).dimension, name
    elapsed = time.perf_counter() - start
    _criterion(
        7,
        elapsed < 300.0,
        f"GB confluence (10 shuffles), exactness, minimality, reg identity, "
        f"grevlex/lex independence in {elapsed:.1f}s (< 5min)",
    )


def test_criterion_8_negative_control():
    start = time.perf_counter()
    report = verify_prop31(twisted_cubic(), 2, override=True)
    payload = report.to_json()
    assert payload["hilbert_ok"] is True
    assert payload["resolution_shape_ok"] is False
    elapsed = time.perf_counter() - start
    _criterion(
        8,
        elapsed < 10.0,
        f"m = 2 override: Hilbert check passes, shape check fails, both recorded "
        f"({elapsed:.1f}s < 10s)",
    )
