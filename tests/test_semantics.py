"""Concrete-loop semantics: inter-event map, mixed stepping, traces."""

from __future__ import annotations

import math
import random
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


def exact_kappa_calls(stepper):
    """The list that gets one entry for each call of the exact kappa of
    stepper from here on: the fallback of its direction table."""
    calls = []
    exact = stepper._kappa
    stepper._kappa = lambda y0, y1: calls.append((y0, y1)) or exact(y0, y1)
    return calls


def test_filtered_sign_near_trigger_roots(ci_disc):
    # y of 100-10,000 bits at and near a root direction of each N(k),
    # where the float slope cannot decide: kappa, and the sign of each
    # binary form, are the exact ones, and the fallback is taken.
    # single[k] holds N(k) alone, so its point has k = 1 exactly where
    # it finds that form positive
    ks = range(1, ci_disc.k_bar)
    single = {k: IntegerStepper(replace(ci_disc, k_bar=2, N={1: ci_disc.N[k]}))
              for k in ks}
    fallbacks = {k: exact_kappa_calls(single[k]) for k in ks}
    stepper = IntegerStepper(ci_disc)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        k = data.draw(st.sampled_from(ks))
        f0, f1, f2 = f = ratlin.integer_form(ci_disc.N[k])
        bits = data.draw(st.integers(100, 10_000))
        q = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        # the roots of f(q, p) = 0 in p, to within one, from isqrt
        root = math.isqrt((f1 * f1 - 4 * f0 * f2) * q * q)
        side = data.draw(st.sampled_from((-1, 1)))
        p = (-f1 * q + side * root) // (2 * f2)
        off = data.draw(st.integers(0, bits))
        p += data.draw(st.integers(-(1 << off), 1 << off))
        y = tuple(data.draw(st.sampled_from((-1, 1))) * e for e in (q, p))
        exact = dot(f, monomials(y)) > 0
        assert (single[k]._point(y, 1).k == 1) == exact
        assert next(stepper.orbit(y)).k == kappa(ci_disc, y)

    check()
    assert any(fallbacks.values())


def _plant_forms(disc, forms):
    """disc with the trigger forms (a, b, e), f = a y0^2 + b y0 y1 + e y1^2,
    as N(1), N(2), ..."""
    n = {k: ((F(a), F(b, 2)), (F(b, 2), F(e)))
         for k, (a, b, e) in enumerate(forms, 1)}
    return replace(disc, k_bar=len(forms) + 1, N=n)


def _root_lines(form, bits=50):
    """Integer directions on each line where the form vanishes, if
    rational, and within 2^-40 + 2^-50 of it in slope: (q, p) near the
    root p/q of f(1, t), and (j, 2^bits) where f(0, 1) = 0, for the
    offsets j."""
    a, b, e = form
    big = 1 << bits
    offsets = [*range(-3, 4), -(1 << (bits - 40)), 1 << (bits - 40)]
    if not any(form):  # vanishes everywhere, so cuts nothing
        return []
    if e == 0:
        near = [(j, big) for j in offsets]
        exact = [(0, 1)]
        if b:
            exact.append((b, -a))
            near += [(big, -a * big // b + j) for j in offsets]
        return exact + near
    d = b * b - 4 * e * a
    if d < 0:
        return []
    exact, near = [], []
    s = math.isqrt(d)
    for side in (-1, 1):
        if s * s == d:
            exact.append((2 * e, -b + side * s))
        p = (-b * big + side * math.isqrt(d * big * big)) // (2 * e)
        near += [(big, p + j) for j in offsets]
    return exact + near


@pytest.mark.parametrize("forms", [
    # N(1) vanishes identically; N(2) is linear in y1/y0, with root
    # slopes 1/3 and y0 = 0; N(3) has the rational root slopes +-1, where
    # |y0| = |y1|; N(4) the irrational +-sqrt(2); N(5) a double root, 1/2
    [(0, 0, 0), (-1, 3, 0), (-1, 0, 1), (-2, 0, 1), (1, -4, 4)],
    # the same, N(k) and N(6 - k) swapped, so other forms decide first
    [(1, -4, 4), (-2, 0, 1), (-1, 0, 1), (-1, 3, 0), (0, 0, 0)],
    # the bundled trigger forms, with y0 and y1 swapped
    None,
], ids=["constructed", "reversed", "bundled_swapped"])
def test_kappa_table_matches_exact_loop(forms, ci_disc):
    # at each rational root direction and within 2^-40 of every root
    # line of every form, scaled by up to 2^3000: kappa equals the
    # Fraction loop, and the table falls back to the exact signs each
    # time.  So do y = 0, and y0 = 0 and |y0| = |y1| off the cuts
    if forms is None:
        forms = [(e, b, a) for a, b, e in
                 (ratlin.integer_form(ci_disc.N[k])
                  for k in range(1, ci_disc.k_bar))]
    disc = _plant_forms(ci_disc, forms)
    stepper = IntegerStepper(disc)
    calls = exact_kappa_calls(stepper)
    rng = random.Random(7)
    lines = [u for f in forms for u in _root_lines(f)]
    assert lines
    for u in lines:
        for scale in (1, rng.getrandbits(3000) | 1, -(1 << 200)):
            y = (u[0] * scale, u[1] * scale)
            before = len(calls)
            assert stepper._point(y, 1).k == kappa(disc, y), y
            assert len(calls) == before + 1, y
    assert stepper._point((0, 0), 1).k == disc.k_bar
    assert calls[-1] == (0, 0)
    for y in [(0, 5), (7, 7), (-7, 7), (1 << 90, -(1 << 90))]:
        assert stepper._point(y, 1).k == kappa(disc, y), y


def test_kappa_table_one_variable():
    # a one-variable plant: its padded states (y0, 0) lie on one arc, so
    # kappa is looked up without a fallback, and equals the Fraction loop
    disc = bundled("one_dim")[1]
    stepper = IntegerStepper(disc)
    calls = exact_kappa_calls(stepper)
    rng = random.Random(3)
    for bits in (1, 40, 100, 5000):
        y0 = rng.getrandbits(bits) | 1
        for sign in (1, -1):
            assert (stepper._point((sign * y0, 0), 1).k
                    == kappa(disc, (F(sign * y0),)))
    assert not calls
    assert stepper._point((0, 0), 1).k == disc.k_bar and calls == [(0, 0)]


@pytest.mark.parametrize("case", ["ci", "cs", "one_dim"])
def test_point_on_random_scales(case, ci_disc):
    # random states and scales of up to 20,000 bits, each scale not a
    # power of two (on the bundled loop every d_k is 2^51, 2^53 or 2^54,
    # so an orbit's scale is its first one times a power of two): the
    # level is within LEVEL_MARGIN / 4 of log2(v / c^2), or NaN, and
    # kappa and d are those of the exact signs
    disc = ci_disc if case == "ci" else bundled(case)[1]
    stepper = IntegerStepper(disc)
    one_dim = disc.n_x == 1
    kept = []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 20_000), st.integers(2, 20_000), st.data())
    def check(ybits, cbits, data):
        y = tuple(data.draw(st.integers(-(1 << ybits), 1 << ybits))
                  for _ in range(1 if one_dim else 2))
        y = (y + (0,))[:2]
        c = data.draw(st.integers((1 << (cbits - 1)) + 1, (1 << cbits) - 1))
        pt = stepper._point(y, c)
        assert pt.k == stepper._kappa(*y)
        assert pt.d == stepper.maps[pt.k][1]
        assert (pt.y, pt.c) == (y, c)
        v = dot(stepper.lyapunov, monomials(y))
        if math.isnan(pt.level):
            return
        exact = math.log2(v) - 2 * math.log2(c)
        assert abs(pt.level - exact) <= semantics.LEVEL_MARGIN / 4, (y, c)
        kept.append(pt)

    check()
    assert len(kept) > 200


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
        assert not semantics.above(a, semantics.log_bound(F(p * g, q)), b)
        assert semantics.above(a, semantics.log_bound(F(p * g - 1, q)), b)
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
