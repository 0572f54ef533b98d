"""Contraction certification, periodic period, and horizon arithmetic."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from petctraffic import contraction
from petctraffic.contraction import (NotContractiveError, compute_N,
                                     compute_a, compute_hP, hP_condition,
                                     trace_count_bounds)
from petctraffic.satcheck import SatResult, SolverUnknownError
from petctraffic.sysmodel import PetcSystem, rationalize
from conftest import (BUNDLED_CASES, bisection_compute_a, bundled,
                      max_step_ratio, np_compute_hP, np_k_lo,
                      random_stabilized_disc, random_stabilized_system)
from petctraffic import cli

F = Fraction


def test_compute_a_toy_exact_threshold(tiny_disc):
    # V(M x)/V(x) = 1/4 for every x, so the certified ratio is exactly 1/4
    cert = compute_a(tiny_disc, tol=F(1, 1000))
    assert cert.a == F(1, 4)
    assert all(r.status == "unsat" for r in cert.per_k_unsat.values())
    # minimal on the grid: the next grid value down was probed and refuted
    assert (cert.a - cert.tol, "sat") in cert.bisection_trace
    # coarser grid: the infimum is between grid points, a is the grid
    # value above it
    cert2 = compute_a(tiny_disc, tol=F(3, 1000))
    assert F(1, 4) <= cert2.a < F(1, 4) + F(3, 1000)
    assert cert2.a % F(3, 1000) == 0
    assert (cert2.a - cert2.tol, "sat") in cert2.bisection_trace


def test_compute_a_not_contractive():
    # M doubles the state: no ratio below one can ever be certified
    sys_ = PetcSystem(A=[[0.0, 0.0], [0.0, 0.0]], B=[[1.0], [0.0]],
                      K=[[0.0, 0.0]], P=np.eye(2), Q_trig=np.zeros((4, 4)),
                      h=F(1), k_bar=1, r=F(1, 4))
    disc = rationalize(sys_, F(1))
    two = ((F(2), F(0)), (F(0), F(2)))
    object.__setattr__(disc, "M", {1: two})
    with pytest.raises(NotContractiveError):
        compute_a(disc, tol=F(1, 100))


def test_compute_a_tol_validation(tiny_disc):
    with pytest.raises(ValueError):
        compute_a(tiny_disc, tol=F(0))
    with pytest.raises(ValueError):
        compute_a(tiny_disc, tol=F(2))


def test_hP_for_decoupled_stable_plant():
    # A = -I with zero feedback: V = |x|^2 shrinks for every period,
    # so the scan accepts the very first (largest) candidate
    sys_ = PetcSystem(A=[[-1.0, 0.0], [0.0, -1.0]], B=[[0.0], [1.0]],
                      K=[[0.0, 0.0]], P=np.eye(2), Q_trig=np.zeros((4, 4)),
                      h=F(1, 10), k_bar=2, r=F(1, 2))
    assert compute_hP(sys_) == 2 * sys_.h * sys_.k_bar
    assert compute_hP(sys_, h_max=F(3, 10)) == F(3, 10)
    assert hP_condition(sys_, F(5))
    with pytest.raises(ValueError):
        compute_hP(sys_, resolution=0)


def test_hP_unstable_plant_fails():
    sys_ = PetcSystem(A=[[1.0, 0.0], [0.0, 1.0]], B=[[0.0], [1.0]],
                      K=[[0.0, 0.0]], P=np.eye(2), Q_trig=np.zeros((4, 4)),
                      h=F(1, 10), k_bar=2, r=F(1, 2))
    with pytest.raises(NotContractiveError):
        compute_hP(sys_)


def _assert_scan_matches_numpy(sys_, resolution):
    # h_P from the running power against a downward scan with a numpy
    # expm and eigvalsh per period, and k_lo at that h_P likewise
    want = np_compute_hP(sys_, resolution)
    try:
        got = compute_hP(sys_, resolution)
    except NotContractiveError:
        got = None
    assert got == want
    if got is not None:
        assert rationalize(sys_, got).k_lo == np_k_lo(sys_)


@pytest.mark.parametrize("case", BUNDLED_CASES)
def test_hP_scan_matches_numpy_on_bundled_cases(case):
    cfg = cli.load_config(None)
    cfg = dict(cfg, **BUNDLED_CASES[case](cfg))
    _assert_scan_matches_numpy(cli.build_system(cfg),
                               Fraction(cfg["hP_resolution"]))


@pytest.mark.parametrize("seed, draws", [(14, 8), (19, 104)])
def test_hP_scan_matches_numpy_on_random_plants(seed, draws):
    # every plant that test_compute_a_matches_three_phase_search (seed
    # 14) and test_sweep_shell_witnesses (seed 19) draw
    rng = np.random.default_rng(seed)
    systems = [random_stabilized_system(rng) for _ in range(draws)]
    for sys_ in systems:
        if sys_ is not None:
            _assert_scan_matches_numpy(sys_, contraction.DEFAULT_HP_RESOLUTION)


def test_compute_N_known_values():
    assert compute_N(F(1, 2), F(1, 4)) == 2
    assert compute_N(F(1, 2), F(1, 5)) == 3
    assert compute_N(F(9, 10), F(1, 10)) == 22
    assert compute_N(F(1, 10), F(1, 10)) == 1
    with pytest.raises(ValueError):
        compute_N(F(3, 2), F(1, 10))
    with pytest.raises(ValueError):
        compute_N(F(1, 2), F(2))


@given(st.fractions(min_value=F(1, 100), max_value=F(99, 100)),
       st.fractions(min_value=F(1, 100), max_value=F(99, 100)))
@settings(max_examples=60, deadline=None)
def test_compute_N_exact_bracketing(a, r):
    n = compute_N(a, r)
    assert n >= 1
    assert a ** n <= r
    if n > 1:
        assert a ** (n - 1) > r


def test_trace_count_bounds():
    # K=3, N=2: closed form 3(2^2-1)/2 = 4.5 floors to 4; sum 1+3+9 = 13
    stated, total = trace_count_bounds(3, 2)
    assert stated == 4
    assert total == 13
    stated6, total6 = trace_count_bounds(6, 47)
    assert stated6 == 6 * (5 ** 47 - 1) // 5
    assert f"{stated6:.2e}" == "8.53e+32"
    assert total6 == (6 ** 48 - 1) // 5
    with pytest.raises(ValueError):
        trace_count_bounds(1, 5)
    with pytest.raises(ValueError):
        trace_count_bounds(6, 0)


def test_ci_instance_certificate(ci_cert, ci_disc, ci_N):
    # r = 0.5 shares the trigger with the full example, so the certified
    # ratio is the same; only the horizon shrinks
    assert ci_cert.a == F(952, 1000)
    assert ci_cert.tol == F(1, 1000)
    assert ci_N == compute_N(F(952, 1000), F(1, 2)) == 15
    assert all(r.status == "unsat" for r in ci_cert.per_k_unsat.values())


def test_max_step_ratio_bounded_by_certificate(ci_disc, ci_cert):
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(20_000, 2))
    ratio = max_step_ratio(ci_disc, xs)
    assert 0 < ratio <= float(ci_cert.a) + 1e-9
    # the certificate is within its tolerance of the empirical maximum
    assert ratio > float(ci_cert.a - 2 * ci_cert.tol) - 5e-3


A_TOLS = (F(1, 1000), F(1, 100), F(3, 1000), F(1, 7))


def _outcome(fn, disc, tol):
    try:
        return fn(disc, tol=tol)
    except NotContractiveError as exc:
        return exc


def test_compute_a_matches_three_phase_search():
    # the grid bisection returns the a of the three-phase search, or
    # raises the same error, on the bundled loop and on random stabilized
    # plants.  Where 1/tol is not an integer, the three-phase search
    # probes 1 - tol, off the grid, first: an infimum between it and the
    # largest grid value below one is refuted there but certified here.
    rng = np.random.default_rng(14)
    discs = [bundled("cs")[1]]
    while len(discs) < 9:
        disc = random_stabilized_disc(rng)
        if disc is not None:
            discs.append(disc)
    raised = 0
    for disc in discs:
        for tol in A_TOLS:
            new = _outcome(compute_a, disc, tol)
            old = _outcome(bisection_compute_a, disc, tol)
            if isinstance(new, NotContractiveError):
                assert isinstance(old, NotContractiveError)
                raised += 1
                continue
            top = (math.ceil(1 / tol) - 1) * tol
            if isinstance(old, NotContractiveError):
                assert 1 - tol < new.a == top
                continue
            assert new.a == old.a and new.tol == old.tol == tol
            assert set(new.per_k_unsat) == set(disc.K_range)
            assert all(r.status == "unsat"
                       for r in new.per_k_unsat.values())
            assert new.bisection_trace[0] == (top, "unsat")
            assert (new.a, "unsat") in new.bisection_trace
            if new.a > tol:
                assert (new.a - tol, "sat") in new.bisection_trace
            assert len(new.bisection_trace) <= 1 + math.ceil(
                math.log2(top / tol))
    # both outcomes occur among the plants and grids
    assert 0 < raised < len(discs) * len(A_TOLS)


def test_compute_a_stops_at_the_first_violated_cone(monkeypatch, tiny_disc):
    # a refuted probe decides its cones up to the first sat one; an
    # unknown before it is an error
    calls = []
    real = contraction.satcheck.contraction_counterexample

    def counted(disc, k, a):
        calls.append((k, a))
        return real(disc, k, a)

    monkeypatch.setattr(contraction.satcheck, "contraction_counterexample",
                        counted)
    disc = bundled("cs")[1]
    ok, results = contraction._validate_candidate(disc, F(1, 2))
    assert not ok and list(results) == [k for k, _ in calls]
    assert results[calls[-1][0]].status == "sat"
    assert len(calls) < len(disc.K_range)
    monkeypatch.setattr(contraction.satcheck, "contraction_counterexample",
                        lambda disc, k, a: SatResult("unknown", reason="x"))
    with pytest.raises(SolverUnknownError):
        compute_a(tiny_disc)
