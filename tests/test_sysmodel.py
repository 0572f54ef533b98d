"""Discretization tests against independent numerical oracles.

Oracles, computed first and kept separate from the implementation:
a truncated-Taylor matrix exponential, a fixed-step RK4 integrator for
the held-input flow, and the direct 4-dimensional stacked quadratic form
for the trigger reduction; the numpy expm, solve and eigvalsh that the
pure-Python kernel replaced.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from petctraffic import cli, ratlin
from petctraffic.sysmodel import (DiscretizedPetc, PetcSystem,
                                  closed_loop_generator, definite, discretize,
                                  discretize_at_time, expm, held_input_maps,
                                  min_inter_sample_float, rationalize, solve,
                                  trig_form)
from conftest import (A, B, BUNDLED_CASES, H, K, K_BAR, P_LYAP, Q_LYAP, RHO,
                      bundled, make_system, np_expm, to_float_matrix)

# ---------------------------------------------------------------------------
# oracles


def expm_taylor(m: np.ndarray, t: float, terms: int = 60) -> np.ndarray:
    """Truncated-series oracle with argument halving for convergence."""
    m = np.asarray(m, dtype=float) * t
    halvings = 0
    while np.linalg.norm(m, 1) > 0.25:
        m = m / 2.0
        halvings += 1
    acc = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for i in range(1, terms):
        term = term @ m / i
        acc = acc + term
    for _ in range(halvings):
        acc = acc @ acc
    return acc


def rk4_closed_loop(sys: PetcSystem, t: float, x0: np.ndarray,
                    steps: int = 4000) -> np.ndarray:
    """Integrate xdot = A x + B K x0 (input held at x0) with fixed-step RK4."""
    a, b, k = (np.array(m) for m in (sys.A, sys.B, sys.K))
    u = (b @ k @ x0).ravel()

    def f(x):
        return a @ x + u

    dt = t / steps
    x = x0.astype(float).copy()
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + dt / 2 * k1)
        k3 = f(x + dt / 2 * k2)
        k4 = f(x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


# ---------------------------------------------------------------------------
# expm


RNG = np.random.default_rng(12345)


@pytest.mark.parametrize("seed", range(8))
def test_expm_matches_taylor_oracle(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 5)
    m = rng.normal(size=(n, n)) * rng.choice([0.1, 1.0, 10.0])
    t = float(rng.uniform(0.05, 2.0))
    got = expm(m, t)
    want = expm_taylor(m, t)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


def test_expm_identity_and_zero():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))
    a = np.diag([1.0, -2.0])
    assert np.allclose(expm(a, 1.0), np.diag(np.exp([1.0, -2.0])),
                       rtol=1e-12)


def test_expm_semigroup():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 3))
    e1 = np.array(expm(m, 0.3)) @ np.array(expm(m, 0.7))
    e2 = expm(m, 1.0)
    assert np.allclose(e1, e2, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("seed", range(200))
def test_expm_matches_numpy_oracle(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 5)
    m = rng.normal(size=(n, n)) * rng.choice([0.1, 1.0, 10.0])
    t = float(rng.uniform(0.05, 2.0))
    np.testing.assert_allclose(expm(m, t), np_expm(m, t), rtol=1e-12, atol=0)


@pytest.mark.parametrize("case", BUNDLED_CASES)
def test_expm_matches_numpy_oracle_on_bundled_loops(case):
    # the augmented matrices of both float stages: the held-input map of
    # the predictive trigger and the closed loop, at every h k, the scan
    # resolution and h_P
    cfg, disc = bundled(case)
    sys_ = cli.build_system(cfg)
    n = sys_.n_x
    held = np.zeros((n + sys_.n_u, n + sys_.n_u))
    held[:n, :n], held[:n, n:] = sys_.A, sys_.B
    times = [float(sys_.h) * k for k in range(1, sys_.k_bar + 1)]
    times += [float(cfg["hP_resolution"]), float(disc.h_P)]
    for aug in (held, np.array(closed_loop_generator(sys_))):
        for t in times:
            np.testing.assert_allclose(expm(aug, t), np_expm(aug, t),
                                       rtol=1e-12, atol=0)


def test_solve_matches_numpy():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = rng.integers(1, 5)
        a, b = rng.normal(size=(n, n)), rng.normal(size=(n, 2))
        np.testing.assert_allclose(solve(a, b), np.linalg.solve(a, b),
                                   rtol=1e-9, atol=1e-12)


def test_definite_matches_eigvalsh():
    # the Cholesky pivot test against the sign of the least eigenvalue,
    # on symmetric matrices about a quarter of which are definite
    rng = np.random.default_rng(5)
    found = []
    for _ in range(10_000):
        n = rng.integers(1, 4)
        x = rng.normal(size=(n, n))
        s = x @ x.T - rng.uniform(0, 1.5) * np.eye(n)
        s = (s + s.T) / 2
        assert definite(s) == (np.linalg.eigvalsh(s).min() > 0), s
        found.append(definite(s))
    assert 0.1 < np.mean(found) < 0.9
    assert not definite([[float("nan")]])


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        expm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[np.nan, 0], [0, 1]]))


# ---------------------------------------------------------------------------
# held-input discretization


@pytest.fixture(scope="module")
def sys2() -> PetcSystem:
    return make_system(Fraction(1, 2))


def test_held_input_maps_against_rk4(sys2):
    ad, bd = (np.array(m) for m in held_input_maps(sys2, 0.1))
    for x0 in (np.array([1.0, 0.0]), np.array([-0.3, 0.7])):
        got = ad @ x0 + (bd @ np.array(sys2.K) @ x0).ravel()
        want = rk4_closed_loop(sys2, 0.1, x0)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-11)


def test_discretize_at_time_equals_held_maps(sys2):
    for t in (0.1, 0.4, 0.73):
        ad, bd = (np.array(m) for m in held_input_maps(sys2, t))
        m = discretize_at_time(sys2, t)
        assert np.allclose(m, ad + bd @ np.array(sys2.K), rtol=1e-12)


def test_discretize_is_one_shot_not_iterated(sys2):
    # M(2) holds the input for the whole window: flow for 2h with u fixed,
    # which differs from applying M(1) twice (that would re-sample)
    m1, m2 = np.array(discretize(sys2, 1)), discretize(sys2, 2)
    assert not np.allclose(m2, m1 @ m1)
    assert np.allclose(m2, discretize_at_time(sys2, 0.2), rtol=1e-12)


def test_discretize_range_check(sys2):
    with pytest.raises(ValueError):
        discretize(sys2, 0)
    with pytest.raises(ValueError):
        discretize(sys2, sys2.k_bar + 1)


def test_trig_form_matches_stacked_form(sys2):
    # oracle: evaluate [Mx; x]' Q [Mx; x] directly in the 4-dim space
    rng = np.random.default_rng(3)
    q = np.array(sys2.Q_trig)
    for k in range(1, sys2.k_bar + 1):
        mk = discretize(sys2, k)
        nk = np.array(trig_form(sys2, mk))
        mk = np.array(mk)
        for _ in range(20):
            x = rng.normal(size=2)
            z = np.concatenate([mk @ x, x])
            assert np.isclose(x @ nk @ x, z @ q @ z, rtol=1e-12,
                              atol=1e-12)


# ---------------------------------------------------------------------------
# predictive trigger


def test_predictive_Q_zero_at_ideal_decay_boundary():
    # with x_hat = x the prediction is exact; the form value equals
    # d/dt V(zeta) + rho zeta' Q zeta for zeta = one-step flow of x
    sys_ = make_system(Fraction(1, 2))
    q, a, b, k, p = (np.array(m) for m in
                     (sys_.Q_trig, sys_.A, sys_.B, sys_.K, sys_.P))
    ad, bd = (np.array(m) for m in held_input_maps(sys_, sys_.h))
    rng = np.random.default_rng(11)
    for _ in range(30):
        x = rng.normal(size=2)
        xh = rng.normal(size=2)
        zeta = ad @ x + (bd @ k @ xh).ravel()
        zdot = a @ zeta + (b @ k @ xh).ravel()
        want = 2 * zeta @ p @ zdot + 0.8 * zeta @ np.array(Q_LYAP) @ zeta
        z = np.concatenate([x, xh])
        assert np.isclose(z @ q @ z, want, rtol=1e-10, atol=1e-10)


def test_predictive_Q_is_symmetric():
    sys_ = make_system(Fraction(1, 2))
    q = np.array(sys_.Q_trig)
    assert np.allclose(q, q.T)


def test_predictive_Q_as_direct_trigger():
    # the predictive matrix, given back as Q_trig, makes the same loop
    sys_ = make_system(Fraction(1, 2))
    direct = PetcSystem(A=A, B=B, K=K, P=P_LYAP, h=H, k_bar=K_BAR,
                        r=Fraction(1, 2), Q_trig=sys_.Q_trig)
    assert np.array_equal(direct.Q_trig, sys_.Q_trig)


@pytest.mark.parametrize("trigger", [
    dict(Q_trig=np.zeros((4, 4)), Q_lyap=Q_LYAP, rho=RHO),   # both forms
    dict(Q_trig=np.zeros((4, 4)), rho=RHO),
    {},                                                     # neither
    dict(Q_lyap=Q_LYAP),                                    # half a pair
    dict(rho=RHO),
])
def test_system_needs_one_trigger_form(trigger):
    with pytest.raises(ValueError, match="Q_trig or as the predictive"):
        PetcSystem(A=A, B=B, K=K, P=P_LYAP, h=H, k_bar=K_BAR,
                   r=Fraction(1, 2), **trigger)


@pytest.mark.parametrize("field", ["A", "B", "K", "P", "Q_lyap"])
def test_system_refuses_a_none_entry(field):
    # every entry is read with float(), so a None is refused when the
    # system is made, not taken as NaN
    data = dict(A=A, B=B, K=K, P=P_LYAP, Q_lyap=Q_LYAP)
    data[field] = [[None] + row[1:] for row in data[field]]
    with pytest.raises(ValueError, match=f"{field} must be a matrix"):
        PetcSystem(h=H, k_bar=K_BAR, r=Fraction(1, 2), rho=RHO, **data)


# ---------------------------------------------------------------------------
# validation and rationalization


def test_system_validation():
    with pytest.raises(ValueError):
        PetcSystem(A=[[0, 1]], B=[[0], [1]], K=[[1, -4]], P=np.eye(2),
                   Q_trig=np.zeros((4, 4)), h=Fraction(1, 10), k_bar=6,
                   r=Fraction(1, 2))
    with pytest.raises(ValueError):
        make_system(Fraction(3, 2))  # r outside (0, 1)
    with pytest.raises(ValueError):
        PetcSystem(A=[[0.0]], B=[[1.0]], K=[[1.0]], P=[[-1.0]],
                   Q_trig=np.zeros((2, 2)), h=Fraction(1), k_bar=1,
                   r=Fraction(1, 2))


def test_rationalize_freezes_floats(ci_disc: DiscretizedPetc):
    sys_ = make_system(Fraction(1, 2))
    for k in ci_disc.K_range:
        m_float = np.array(discretize(sys_, k))
        for i in range(2):
            for j in range(2):
                assert ci_disc.M[k][i][j] == Fraction(float(m_float[i, j]))
        assert ratlin.is_symmetric(ci_disc.N[k])
    assert ratlin.is_symmetric(ci_disc.P_rat)
    assert ci_disc.h == Fraction(1, 10)
    assert ci_disc.h_P == Fraction(2, 5)


def test_min_inter_sample(ci_disc):
    k_lo = min_inter_sample_float(
        {k: to_float_matrix(n) for k, n in ci_disc.N.items()},
        ci_disc.k_bar)
    assert k_lo == ci_disc.k_lo
    # oracle: first k whose rational form admits a positive value on a grid
    found = None
    for k in ci_disc.K_range:
        n = to_float_matrix(ci_disc.N[k])
        grid = [np.array([np.cos(t), np.sin(t)])
                for t in np.linspace(0, np.pi, 720)]
        if any(x @ n @ x > 1e-9 for x in grid):
            found = k
            break
    assert found == k_lo


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=6, deadline=None)
def test_exact_time_scale(k):
    sys_ = make_system(Fraction(1, 2))
    assert sys_.h * k == Fraction(k, 10)
