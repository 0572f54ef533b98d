"""Randomized model validation, including fault injection."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from petctraffic import cli, semantics, verify
from petctraffic.abstraction import EPSILON, MPETC_BISIM, PETC_SIM
from petctraffic.sysmodel import DiscretizedPetc
from conftest import (ExactStepper, bundled, fraction_bisim_check,
                      fraction_normalized_word, fraction_sample_shell_states,
                      fraction_sample_states, fraction_sim_check,
                      recorded_checks)

F = Fraction


def first_window(disc, x, max_len):
    """The word of x until V first drops to r V(x), the word of
    x / sqrt(V(x)) by homogeneity: the first window of its orbit."""
    orbit = semantics.IntegerStepper(disc).orbit(x)
    word, _ = next(verify._windows(orbit, disc.r, max_len))
    return word


@pytest.fixture(scope="module", params=["ci", "r4_5", "cs"])
def built(request):
    """(disc, bisim, sim): the r = 1/2 fixture "ci", or a case of
    conftest.BUNDLED_CASES, such as the bundled loop at the benchmark's
    r = 4/5 ("r4_5") and at its own r = 1/10 ("cs")."""
    if request.param == "ci":
        return tuple(request.getfixturevalue(name)
                     for name in ("ci_disc", "ci_bisim", "ci_sim"))
    cfg, _ = bundled(request.param)
    res = cli.run_pipeline(cfg)
    return res.disc, res.bisim, res.sim


def test_sample_states_exactly_inside(ci_disc):
    xs = verify.sample_states(ci_disc, 50, seed=7)
    assert len(xs) == 50
    for x in xs:
        assert all(isinstance(c, F) for c in x)
        assert ci_disc.V(x) <= ci_disc.V0
    # seeded: same call, same points
    assert xs == verify.sample_states(ci_disc, 50, seed=7)
    assert xs != verify.sample_states(ci_disc, 50, seed=8)


def test_sample_shell_states_in_band(ci_disc):
    rv0 = ci_disc.r * ci_disc.V0
    xs = verify.sample_shell_states(ci_disc, 50, seed=3)
    assert len(xs) == 50
    for x in xs:
        assert rv0 < ci_disc.V(x) <= ci_disc.V0
    assert verify.sample_shell_states(ci_disc, 0, seed=3) == []


@pytest.mark.parametrize("built", ["ci", "r4_5", "cs", "one_dim", "scaled"],
                         indirect=True)
def test_samplers_match_fraction_samplers(built, monkeypatch):
    # the integer acceptance tests keep every point of the Fraction ones,
    # both in the public samplers and in the integer starts (y, c) that
    # the checks step from, read as rationals: the first point of each
    # sampled run, before the witness replays of each check
    disc, bisim, sim = built
    n = 40

    def checks(seed):
        verify.check_bisim_sample(disc, bisim, n, seed)
        verify.check_sim_petc(disc, sim, n, 1, seed + 1)

    for seed in (0, 1, 2024):
        assert (verify.sample_states(disc, 60, seed)
                == fraction_sample_states(disc, 60, seed))
        assert (verify.sample_shell_states(disc, 60, seed)
                == fraction_sample_shell_states(disc, 60, seed))
        _, orbits = recorded_checks(monkeypatch, semantics.IntegerStepper,
                                    lambda: checks(seed))
        starts = [tuple(F(e, c) for e in y[:disc.n_x])
                  for (_, _, _, y, c), *_ in orbits]
        m = n + len(bisim.witnesses)
        assert starts[:n] == fraction_sample_states(disc, n, seed)
        assert (starts[m:m + n]
                == fraction_sample_shell_states(disc, n, seed + 1))


@pytest.mark.parametrize("built", ["r4_5"], indirect=True)
def test_validation_builds_two_steppers(built, monkeypatch, capsys):
    # the validation of casestudy builds one stepper per check, which
    # its sampler and its witness replays share
    disc, bisim, sim = built
    made = []
    init = semantics.IntegerStepper.__init__

    def counting_init(self, disc):
        made.append(disc)
        init(self, disc)

    monkeypatch.setattr(semantics.IntegerStepper, "__init__", counting_init)
    assert cli._validate(disc, bisim, sim, 150, 20, seed=2024)
    assert len(made) == 2 and all(d is disc for d in made)
    assert "178 checks" in capsys.readouterr().out


def test_entry_run_matches_concrete_sequence(built):
    # on every sample and every witness of both builds, the integer run
    # has the word of the Fraction replay and passes its states
    disc, bisim, sim = built
    stepper = semantics.IntegerStepper(disc)
    xs = (verify.sample_states(disc, 100, seed=3)
          + verify.sample_shell_states(disc, 100, seed=3)
          + [bisim.witnesses[w] for w in bisim.sorted_states()
             if w in bisim.witnesses]
          + [sim.witnesses[w] for w in sim.sorted_states()])
    n_long = 0
    for x in xs:
        run = stepper.entry_run(stepper.orbit(x), 1000)
        word = semantics.concrete_sequence(disc, x, max_len=1000)
        assert tuple(pt.k for pt in run) == word
        states = [x]
        for _ in word[1:]:
            states.append(semantics.petc_step(disc, states[-1])[0])
        assert [pt.state() for pt in run] == (states if word else [])
        assert not any(stepper.outside(pt) for pt in run)
        if len(word) > 2:
            # past the cap: the same state and prefix
            n_long += 1
            with pytest.raises(semantics.HorizonExceededError) as new:
                stepper.entry_run(stepper.orbit(x), 2)
            with pytest.raises(semantics.HorizonExceededError) as old:
                semantics.concrete_sequence(disc, x, max_len=2)
            assert ((new.value.state, new.value.word)
                    == (old.value.state, old.value.word))
    assert n_long > 0
    outside = (F(100), F(0))
    for replay in (lambda x: stepper.entry_run(stepper.orbit(x), 1000),
                   lambda x: semantics.concrete_sequence(disc, x)):
        with pytest.raises(ValueError, match="outside"):
            replay(outside)


def test_bisim_check_matches_fraction_replay(built):
    disc, bisim, _ = built
    rep = verify.check_bisim_sample(disc, bisim, 60, seed=11)
    assert rep.passed, rep.render()
    assert (rep.n_checked, rep.failures) == fraction_bisim_check(
        disc, bisim, 60, seed=11)


@pytest.mark.parametrize("built", ["ci", "r4_5", "cs", "one_dim", "scaled"],
                         indirect=True)
def test_checks_match_unfiltered_orbits(built, monkeypatch):
    # the validation of casestudy (100 samples, 20 steps, its seed): the
    # same reports, and the same orbit points, of every sampled run and
    # every witness replay, as with orbits evaluated in full, each level
    # within its bound of log2(v / c^2); also on a one-variable plant,
    # padded to two, and on the bundled loop with P and V0 scaled by 3
    disc, bisim, sim = built

    def checks():
        reps = (verify.check_bisim_sample(disc, bisim, 100, seed=2024),
                verify.check_sim_petc(disc, sim, 100, 20, seed=2025))
        return [(rep.n_checked, rep.failures) for rep in reps]

    filtered = recorded_checks(monkeypatch, semantics.IntegerStepper, checks)
    assert filtered == recorded_checks(monkeypatch, ExactStepper, checks)
    reports, orbits = filtered
    assert reports[0][0] == 100 + len(bisim.witnesses)
    assert len(orbits) == 100 + len(bisim.witnesses) + 100 + len(sim.witnesses)


def test_long_runs_match_unfiltered_orbits(monkeypatch):
    # 20 runs of 300 steps at the benchmark's r = 4/5, where the states
    # grow past 10,000 bits: the same words and orbit points
    cfg = cli.load_config(None)
    cfg["r"] = F(4, 5)
    disc = cli.make_disc(cfg)

    def checks():
        model = SimpleNamespace(kind=PETC_SIM, states=_EveryWord(),
                                edges=_EveryWord(), witnesses={})
        rep = verify.check_sim_petc(disc, model, 20, 300, seed=9)
        return rep.n_checked, rep.failures, model.states.seen

    filtered = recorded_checks(monkeypatch, semantics.IntegerStepper, checks)
    assert filtered == recorded_checks(monkeypatch, ExactStepper, checks)
    (n_checked, _, _), orbits = filtered
    assert n_checked == 20 * 300
    assert max(max(e.bit_length() for e in pt[3])
               for run in orbits for pt in run) > 10_000


@pytest.mark.parametrize("built", ["r4_5"], indirect=True)
def test_exact_fallback_is_rare(built, monkeypatch):
    # the validation of the benchmark's r = 4/5 (150 samples, 20 steps):
    # kappa falls back to the exact signs, and a level comparison to the
    # whole integers (reading pt.v), on at most 1% of the orbit points.
    # A margin that sent every point to the fallback would still give
    # the right answers; this is what shows that it does not
    disc, bisim, sim = built
    counts = Counter()

    class Counting(semantics.IntegerStepper):
        def _point(self, y, c):
            counts["points"] += 1
            return super()._point(y, c)

        def _kappa(self, y0, y1):
            if "_by_y1" in vars(self):  # the tables are built
                counts["kappa"] += 1
            return super()._kappa(y0, y1)

    exact_v = semantics.OrbitPoint.v.fget

    def counted_v(pt):
        counts["v"] += 1
        return exact_v(pt)

    monkeypatch.setattr(semantics, "IntegerStepper", Counting)
    monkeypatch.setattr(semantics.OrbitPoint, "v", property(counted_v))
    assert verify.check_bisim_sample(disc, bisim, 150, seed=2024).passed
    assert verify.check_sim_petc(disc, sim, 150, 20, seed=2025).passed
    assert counts["points"] > 3000
    assert counts["kappa"] <= counts["points"] / 100
    assert counts["v"] <= counts["points"] / 100


def test_normalized_word_homogeneous(ci_disc):
    for x in verify.sample_shell_states(ci_disc, 10, seed=17):
        w = first_window(ci_disc, x, max_len=100)
        for lam in (F(5), F(1, 3)):
            scaled = tuple(lam * c for c in x)
            assert first_window(ci_disc, scaled, max_len=100) == w
    # the origin has V = 0: its run has no window to check
    origin = verify._windows(
        semantics.IntegerStepper(ci_disc).orbit((F(0), F(0))), ci_disc.r, 10)
    assert list(origin) == []


def test_normalized_word_horizon_matches_fraction_replay(ci_disc):
    # past the cap, the orbit reports the state and prefix that the
    # from-scratch Fraction replay reports
    x = verify.sample_shell_states(ci_disc, 1, seed=17)[0]
    word = fraction_normalized_word(ci_disc, x, max_len=100)
    assert len(word) > 2
    with pytest.raises(semantics.HorizonExceededError) as new:
        first_window(ci_disc, x, max_len=2)
    with pytest.raises(semantics.HorizonExceededError) as old:
        fraction_normalized_word(ci_disc, x, max_len=2)
    assert (new.value.state, new.value.word) == (old.value.state, old.value.word)
    assert new.value.word == word[:2]
    assert all(isinstance(c, F) for c in new.value.state)


class _EveryWord:
    """A state or edge set that holds everything and records each word
    looked up in it."""

    def __init__(self):
        self.seen = []

    def __contains__(self, item):
        self.seen.append(item)
        return True

    def __len__(self):
        return 100


@pytest.mark.parametrize("r", [F(1, 2), F(4, 5), F(1, 10)],
                         ids=["ci", "r4_5", "cs"])
def test_sim_check_windows_match_fraction_replay(r, ci_disc):
    # every word the check reads off the integer orbit is the word the
    # from-scratch Fraction replay extracts at that step: the r = 1/2
    # fixture, the benchmark's r = 4/5 and the bundled r = 1/10
    if r == ci_disc.r:
        disc = ci_disc
    else:
        cfg = cli.load_config(None)
        cfg["r"] = r
        disc = cli.make_disc(cfg)
    model = SimpleNamespace(kind=PETC_SIM, states=_EveryWord(),
                            edges=_EveryWord(), witnesses={})
    n_samples, steps = 20, 30
    rep = verify.check_sim_petc(disc, model, n_samples, steps, seed=5)
    assert rep.passed and rep.n_checked == n_samples * steps
    expected = []
    for x in verify.sample_shell_states(disc, n_samples, seed=5):
        for _ in range(steps):
            expected.append(fraction_normalized_word(disc, x, max_len=1000))
            x = semantics.petc_step(disc, x)[0]
    assert model.states.seen == expected


def test_bisim_check_passes(ci_disc, ci_bisim):
    rep = verify.check_bisim_sample(ci_disc, ci_bisim, 60, seed=1)
    assert rep.passed, rep.render()
    assert rep.n_checked >= 60 + len(ci_bisim.witnesses)
    assert "PASS" in rep.render()


def test_bisim_check_detects_missing_state(ci_disc, ci_bisim):
    # drop the longest realized state: its own run must notice, and no
    # other sampled run walks through it as an intermediate suffix
    xs = verify.sample_states(ci_disc, 40, seed=1)
    words = [semantics.concrete_sequence(ci_disc, x, max_len=100)
             for x in xs]
    target = max(words, key=lambda w: (len(w), w))
    assert target != EPSILON
    pruned = replace(
        ci_bisim,
        states=frozenset(ci_bisim.states - {target}),
        edges=frozenset((s, t) for s, t in ci_bisim.edges
                        if target not in (s, t)),
        output={w: v for w, v in ci_bisim.output.items() if w != target},
        witnesses={w: v for w, v in ci_bisim.witnesses.items()
                   if w != target})
    rep = verify.check_bisim_sample(ci_disc, pruned, 40, seed=1)
    assert not rep.passed
    assert any(f["direction"] == "forward" for f in rep.failures)
    assert "FAIL" in rep.render()
    assert (rep.n_checked, rep.failures) == fraction_bisim_check(
        ci_disc, pruned, 40, seed=1)


def test_bisim_check_detects_bad_witness(ci_disc, ci_bisim):
    some = next(w for w in ci_bisim.sorted_states() if len(w) >= 2)
    bad = dict(ci_bisim.witnesses)
    bad[some] = ci_bisim.witnesses[some[1:]]  # witness of the wrong word
    doctored = replace(ci_bisim, witnesses=bad)
    rep = verify.check_bisim_sample(ci_disc, doctored, 5, seed=1)
    assert any(f["direction"] == "backward" and f["word"] == some
               for f in rep.failures)
    assert (rep.n_checked, rep.failures) == fraction_bisim_check(
        ci_disc, doctored, 5, seed=1)


def test_bisim_check_detects_wrong_output(ci_disc, ci_bisim):
    some = max(ci_bisim.sorted_states(), key=len)
    output = dict(ci_bisim.output)
    output[some[1:]] += ci_disc.h
    doctored = replace(ci_bisim, output=output)
    rep = verify.check_bisim_sample(ci_disc, doctored, 200, seed=1)
    assert any(f["direction"] == "forward-trace" for f in rep.failures)
    assert (rep.n_checked, rep.failures) == fraction_bisim_check(
        ci_disc, doctored, 200, seed=1)


class _FirstLetterTime:
    def __getitem__(self, word):
        return F(word[0])


def test_bisim_check_records_states_outside_the_initial_set():
    # a loop that is not contractive: the letter 1 (|x1| > |x2|) swaps
    # and doubles the state, so V grows by 4 and leaves {V <= 1}; the
    # letter 2 shrinks it by 10, into {V <= 1/4}
    one, zero = F(1), F(0)
    eye = ((one, zero), (zero, one))
    disc = DiscretizedPetc(
        M={1: ((zero, F(2)), (F(2), zero)),
           2: ((F(1, 10), zero), (zero, F(1, 10)))},
        N={1: ((one, zero), (zero, -one)), 2: eye}, P_rat=eye, Q_rat=eye,
        M_P=eye, k_lo=1, h_P=one, h=one, k_bar=2, r=F(1, 4), V0=one)
    x = (F(4, 5), F(1, 5))
    assert semantics.concrete_sequence(disc, x) == (1, 2)
    model = SimpleNamespace(
        kind=MPETC_BISIM, states=_EveryWord(), edges=_EveryWord(),
        output=_FirstLetterTime(), witnesses={(1, 2): x, (1,): (F(2), 0)},
        sorted_states=lambda: [(1,), (1, 2)])
    rep = verify.check_bisim_sample(disc, model, 40, seed=1)
    trace = [f for f in rep.failures if f["direction"] == "forward-trace"]
    assert trace and all(f["word"] == (1, 2) and f["at"] == (2,)
                         for f in trace)
    # the witness outside the initial set has no word; the other replays
    assert [f for f in rep.failures if f["direction"] == "backward"] == [
        dict(direction="backward", word=(1,), replay=None,
             witness=(F(2), 0))]
    # where the Fraction replay stopped with a ValueError
    with pytest.raises(ValueError, match="outside"):
        fraction_bisim_check(disc, model, 40, seed=1)


def test_bisim_check_wants_bisim_kind(ci_disc, ci_sim):
    with pytest.raises(ValueError):
        verify.check_bisim_sample(ci_disc, ci_sim, 5)


def test_sim_check_passes(ci_disc, ci_sim):
    rep = verify.check_sim_petc(ci_disc, ci_sim, 30, steps=12, seed=2)
    assert rep.passed, rep.render()
    assert rep.n_checked == 30 * 12 + len(ci_sim.witnesses)


def test_sim_check_detects_missing_edges(ci_disc, ci_sim):
    # cut all outgoing edges of one state: runs through it must fail
    xs = verify.sample_shell_states(ci_disc, 30, seed=2)
    target = first_window(ci_disc, xs[0], max_len=100)
    cut = replace(ci_sim,
                  edges=frozenset((s, t) for s, t in ci_sim.edges
                                  if s != target))
    rep = verify.check_sim_petc(ci_disc, cut, 30, steps=12, seed=2)
    assert not rep.passed
    assert any(f["kind"] == "missing edge" for f in rep.failures)
    # the same checks and failures as the Fraction replay, exact states
    assert (rep.n_checked, rep.failures) == fraction_sim_check(
        ci_disc, cut, 30, 12, seed=2, max_len=10 * len(cut.states))
    assert all(isinstance(c, F) for f in rep.failures for c in f["x"])


def test_sim_check_detects_missing_state(ci_disc, ci_sim):
    xs = verify.sample_shell_states(ci_disc, 30, seed=2)
    target = first_window(ci_disc, xs[0], max_len=100)
    pruned = replace(
        ci_sim,
        states=frozenset(ci_sim.states - {target}),
        edges=frozenset((s, t) for s, t in ci_sim.edges
                        if target not in (s, t)),
        output={w: v for w, v in ci_sim.output.items() if w != target},
        witnesses={w: v for w, v in ci_sim.witnesses.items()
                   if w != target})
    rep = verify.check_sim_petc(ci_disc, pruned, 30, steps=12, seed=2)
    assert not rep.passed
    assert any(f["kind"] == "missing state" for f in rep.failures)
    assert (rep.n_checked, rep.failures) == fraction_sim_check(
        ci_disc, pruned, 30, 12, seed=2, max_len=10 * len(pruned.states))
    assert all(isinstance(c, F) for f in rep.failures for c in f["x"])


def test_sim_check_detects_bad_witnesses(ci_disc, ci_sim):
    # a witness of the wrong word, on the unit shell, and witnesses off
    # the shell, outside it and inside it, are backward failures, with
    # the exact witness
    some = next(w for w in ci_sim.sorted_states() if len(w) >= 2)
    other, inner = [w for w in ci_sim.sorted_states() if w != some][:2]
    bad = dict(ci_sim.witnesses)
    bad[some] = ci_sim.witnesses[other]
    bad[other] = tuple(2 * v for v in ci_sim.witnesses[other])
    bad[inner] = tuple(v / 2 for v in ci_sim.witnesses[inner])
    doctored = replace(ci_sim, witnesses=bad)
    rep = verify.check_sim_petc(ci_disc, doctored, 5, steps=3, seed=2)
    backward = [f for f in rep.failures if f["kind"] == "backward"]
    assert {f["word"] for f in backward} == {some, other, inner}
    assert all(f["witness"] == bad[f["word"]] for f in backward)
    replays = dict((f["word"], f["replay"]) for f in backward)
    assert replays[other] is None and replays[inner] is None
    assert rep.n_checked == 5 * 3 + len(ci_sim.witnesses)
    assert (rep.n_checked, rep.failures) == fraction_sim_check(
        ci_disc, doctored, 5, 3, seed=2, max_len=10 * len(doctored.states))


def test_sim_check_wants_sim_kind(ci_disc, ci_bisim):
    with pytest.raises(ValueError):
        verify.check_sim_petc(ci_disc, ci_bisim, 5, steps=2)
