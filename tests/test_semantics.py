"""Concrete-loop semantics: inter-event map, mixed stepping, traces."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from petctraffic import ratlin, satcheck, semantics, verify
from petctraffic.semantics import (HorizonExceededError, IntegerStepper,
                                   Trace, concrete_sequence, kappa,
                                   mpetc_step, petc_step, simulate_trace)
from conftest import float_kappa

F = Fraction


def test_kappa_zero_state_and_scaling(ci_disc):
    zero = (F(0), F(0))
    assert kappa(ci_disc, zero) == ci_disc.k_bar
    for x in verify.sample_shell_states(ci_disc, 10, seed=3):
        k = kappa(ci_disc, x)
        assert ci_disc.k_lo <= k <= ci_disc.k_bar
        # homogeneity: scaling never changes the inter-event time
        for lam in (F(3), F(1, 7), F(-2)):
            assert kappa(ci_disc, tuple(lam * c for c in x)) == k


def test_kappa_agrees_with_cone_atoms(ci_disc):
    # the satcheck cone encoding and the semantics must partition alike
    for x in verify.sample_shell_states(ci_disc, 50, seed=8):
        k = kappa(ci_disc, x)
        for j in range(ci_disc.k_lo, k):
            assert satcheck.QuadAtom(ci_disc.N[j], "<=", F(0)).holds(x)
        if k < ci_disc.k_bar:
            assert satcheck.QuadAtom(ci_disc.N[k], ">", F(0)).holds(x)


def test_float_kappa_matches_exact(ci_disc):
    rng = np.random.default_rng(2)
    # dyadic floats convert to the very same rationals the exact path sees
    xs = rng.integers(-1000, 1001, size=(300, 2)) / 256.0
    ks = float_kappa(ci_disc, xs)
    assert ks.min() >= 1 and ks.max() <= ci_disc.k_bar
    for x, k in zip(xs, ks):
        assert kappa(ci_disc, ratlin.vec(x)) == k, x


def test_mpetc_step_branches(ci_disc):
    rv0 = ci_disc.r * ci_disc.V0
    x = verify.sample_shell_states(ci_disc, 1, seed=1)[0]
    _, dt = mpetc_step(ci_disc, x)
    assert dt == ci_disc.h * kappa(ci_disc, x)
    # inside the periodic set: period h_P
    lam = F(1, 100)
    x_in = tuple(lam * c for c in x)
    assert ci_disc.V(x_in) <= rv0
    x_next, dt = mpetc_step(ci_disc, x_in)
    assert dt == ci_disc.h_P
    assert x_next == ratlin.mat_vec(ci_disc.M_P, x_in)


def test_mpetc_step_boundary_is_periodic(tiny_disc):
    # rig an exact boundary state: V = r V0 = 1/4 at x = (1/2, 0)
    x = (F(1, 2), F(0))
    assert tiny_disc.V(x) == tiny_disc.r * tiny_disc.V0
    _, dt = mpetc_step(tiny_disc, x)
    assert dt == tiny_disc.h_P


def test_mpetc_step_rejects_outside(ci_disc):
    big = (F(100), F(100))
    with pytest.raises(ValueError):
        mpetc_step(ci_disc, big)


def test_concrete_sequence_basics(ci_disc):
    rv0 = ci_disc.r * ci_disc.V0
    inside = (F(1, 100), F(0))
    assert ci_disc.V(inside) <= rv0
    assert concrete_sequence(ci_disc, inside) == ()
    x = verify.sample_shell_states(ci_disc, 1, seed=11)[0]
    w = concrete_sequence(ci_disc, x)
    assert w and all(ci_disc.k_lo <= k <= ci_disc.k_bar for k in w)
    with pytest.raises(ValueError):
        concrete_sequence(ci_disc, (F(100), F(0)))


def test_concrete_sequence_horizon_guard(tiny_disc):
    x = (F(1), F(0))
    with pytest.raises(HorizonExceededError) as exc:
        concrete_sequence(tiny_disc, x, max_len=0)
    assert exc.value.word == ()


def test_concrete_sequence_horizon_state(ci_disc):
    # the error carries the state reached at the cap, after its word
    x0 = next(x for x in verify.sample_shell_states(ci_disc, 20, seed=11)
              if len(concrete_sequence(ci_disc, x, max_len=100)) > 2)
    with pytest.raises(HorizonExceededError) as exc:
        concrete_sequence(ci_disc, x0, max_len=2)
    x = x0
    for _ in exc.value.word:
        x, _ = petc_step(ci_disc, x)
    assert len(exc.value.word) == 2
    assert exc.value.state == x
    assert str(exc.value).endswith(f"within 2 steps, at {x}")


def test_word_suffix_property(ci_disc):
    # the word of the post-sample state is the tail of the current word
    for x in verify.sample_shell_states(ci_disc, 20, seed=21):
        w = concrete_sequence(ci_disc, x, max_len=100)
        if not w:
            continue
        x_next, k = petc_step(ci_disc, x)
        assert k == w[0]
        assert concrete_sequence(ci_disc, x_next, max_len=100) == w[1:]


def test_integer_orbit_matches_petc_step(ci_disc):
    # 300 steps of the integer orbit against repeated Fraction petc_step:
    # the same inter-event index at every step, and at every 25th the
    # same state, with v the same multiple of c^2 V(x)
    stepper = IntegerStepper(ci_disc)
    for x in verify.sample_shell_states(ci_disc, 3, seed=41):
        factors = set()
        for j, pt in enumerate(islice(stepper.orbit(x), 300)):
            if j % 25 == 0:
                assert pt.state() == x
                factors.add(F(pt.v, pt.c ** 2) / ci_disc.V(x))
            x, k = petc_step(ci_disc, x)
            assert pt.k == k
        assert len(factors) == 1


def test_trace_validation():
    with pytest.raises(ValueError):
        Trace(times=(F(1),), states=((F(0), F(0)),), entered_periodic_at=None)


def test_simulate_trace_and_csv(ci_disc):
    x0 = verify.sample_shell_states(ci_disc, 1, seed=31)[0]
    tr = simulate_trace(ci_disc, x0, horizon=F(3))
    instants = tr.sampling_instants()
    assert instants[0] == 0
    assert all(b > a for a, b in zip(instants, instants[1:]))
    assert instants[-1] <= 3
    vs = [ci_disc.V(x) for x in tr.states]
    assert vs[0] == ci_disc.V(x0)
    assert tr.entered_periodic_at is not None
    # V never exceeds its starting value along the run
    assert max(vs) == vs[0]
    csv_text = tr.to_csv(ci_disc)
    header = csv_text.splitlines()[0]
    assert header == "sample_index,t,inter_sample_time,V,x1,x2"
    assert len(csv_text.splitlines()) == len(tr.states) + 1
    with pytest.raises(ValueError):
        simulate_trace(ci_disc, x0, horizon=0)
