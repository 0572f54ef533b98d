"""Concrete-loop semantics: inter-event map, mixed stepping, traces."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from petctraffic import ratlin, satcheck, semantics, verify
from petctraffic.semantics import (HorizonExceededError, IntegerStepper,
                                   Trace, concrete_sequence, kappa,
                                   mpetc_step, petc_step, simulate_trace)
from conftest import bundled, dot, float_kappa, monomials

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
        atoms = [satcheck.QuadAtom(ci_disc.N[j], "<=", F(0))
                 for j in range(ci_disc.k_lo, k)]
        if k < ci_disc.k_bar:
            atoms.append(satcheck.QuadAtom(ci_disc.N[k], ">", F(0)))
        if atoms:
            assert satcheck.SatQuery(tuple(atoms), ci_disc.n_x).holds(x)


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


def test_one_variable_orbit_is_padded():
    # a one-variable plant steps (y0, 0); its states keep one coordinate
    # and match the Fraction steps.  Three variables are refused
    disc = bundled("one_dim")[1]
    stepper = IntegerStepper(disc)
    x = verify.sample_shell_states(disc, 1, seed=5)[0]
    assert len(x) == 1
    factors = set()
    for pt in islice(stepper.orbit(x), 20):
        assert pt.y[1] == 0 and pt.state() == x
        factors.add(F(pt.v, pt.c ** 2) / disc.V(x))
        x, k = petc_step(disc, x)
        assert pt.k == k
    assert len(factors) == 1
    with pytest.raises(ValueError, match="3 variables not supported"):
        IntegerStepper(replace(disc, P_rat=ratlin.identity(3)))


def _top(y):
    """The top part of y by the rule of IntegerStepper: (s, y >> s)."""
    s = max(0, max(e.bit_length() for e in y) - semantics.WIDTH)
    return s, tuple(e >> s for e in y)


def test_filtered_sign_near_trigger_roots(ci_disc):
    # y of 100-10,000 bits at and near a root direction of each N(k),
    # where the top part alone cannot decide: the filtered sign of each
    # binary form, and kappa, are the exact ones, and the fallback is
    # taken.  `single` holds the one form drawn, so its point has k = 1
    # exactly where it finds that form positive
    forms = [ratlin.integer_form(ci_disc.N[k])
             for k in range(1, ci_disc.k_bar)]
    stepper = IntegerStepper(ci_disc)
    single = IntegerStepper(ci_disc)
    fallbacks = []

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        f0, f1, f2 = f = data.draw(st.sampled_from(forms))
        bits = data.draw(st.integers(100, 10_000))
        q = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        # the roots of f(q, p) = 0 in p, to within one, from isqrt
        root = math.isqrt((f1 * f1 - 4 * f0 * f2) * q * q)
        side = data.draw(st.sampled_from((-1, 1)))
        p = (-f1 * q + side * root) // (2 * f2)
        off = data.draw(st.integers(0, bits))
        p += data.draw(st.integers(-(1 << off), 1 << off))
        y = tuple(data.draw(st.sampled_from((-1, 1))) * e for e in (q, p))
        s, (m0, m1) = _top(y)
        assert s > 0
        tol = semantics._tolerance(f)
        fallbacks.append(abs((f0 * m0 + f1 * m1) * m0 + f2 * m1 * m1) <= tol)
        exact = dot(f, monomials(y)) > 0
        single._trigger, single._k_bar = [(*f, tol)], 2
        assert (single._point(y, 1).k == 1) == exact
        assert next(stepper.orbit(y)).k == kappa(ci_disc, y)

    check()
    assert any(fallbacks)


@pytest.mark.parametrize("r", [F(4, 5), F(1, 2), F(1, 10)])
def test_level_comparisons_at_equality(r, ci_disc, ci_sim):
    # q v_a == p g v_b exactly, on states of 100-10,000 bits: the
    # filtered comparison takes <=, as the window test needs, and one
    # unit less on the right is >.  A witness on V = V0, kept over a
    # scale of up to 10,000 more bits, is not outside the initial set,
    # and the witness times 1 + 2^-shift is
    stepper = IntegerStepper(ci_disc)
    p, q = r.numerator, r.denominator
    shell = [ci_sim.witnesses[w] for w in ci_sim.sorted_states()]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(100, 10_000), st.data())
    def check(bits, data):
        y = tuple(data.draw(st.integers(-(1 << bits), 1 << bits))
                  for _ in range(2))
        if not any(y):
            return
        mu = data.draw(st.integers(1, 1 << 64))
        b = stepper._point(y, 1)
        a = stepper._point(tuple(p * mu * e for e in y), 1)
        g = q * p * mu * mu  # q v_a = q p^2 mu^2 v_b = p g v_b
        assert not verify._greater(a, q, b, p * g)
        assert verify._greater(a, q, b, p * g - 1)
        x = data.draw(st.sampled_from(shell))
        assert ci_disc.V(x) == ci_disc.V0
        shift = data.draw(st.integers(0, bits))
        c = math.lcm(*(e.denominator for e in x))
        y = tuple(int(e * c) for e in x)
        on = tuple(e << shift for e in y)
        assert not stepper.outside(stepper._point(on, c << shift))
        up = tuple(e * ((1 << shift) + 1) for e in y)
        assert stepper.outside(stepper._point(up, c << shift))

    check()


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


def test_simulate_trace_stops_after_max_steps(ci_disc, monkeypatch):
    # a horizon of 10^300 periods ends after MAX_TRACE_STEPS steps, with
    # the instants of the run that the horizon alone would have kept
    x0 = verify.sample_shell_states(ci_disc, 1, seed=31)[0]
    full = simulate_trace(ci_disc, x0, horizon=F(3))
    monkeypatch.setattr(semantics, "MAX_TRACE_STEPS", 5)
    tr = simulate_trace(ci_disc, x0, horizon=10 ** 300 * ci_disc.h_P)
    assert len(full.times) > 5 == len(tr.times)
    assert tr.states == full.states[:6]
