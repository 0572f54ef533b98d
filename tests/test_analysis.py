"""Closed-form bounds read off hand-built models with known answers."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from petctraffic import analysis
from petctraffic.abstraction import (EPSILON, MPETC_BISIM, PETC_SIM,
                                     TrafficModel, domino_edges, _tree_edges,
                                     _outputs)

F = Fraction


def sim_model(words, h=F(1, 10), h_P=F(2, 5)):
    states = frozenset(words)
    return TrafficModel(kind=PETC_SIM, states=states,
                        edges=frozenset(domino_edges(states)),
                        output=_outputs(states, h, h_P), h=h, h_P=h_P)


def bisim_model(words, h=F(1, 10), h_P=F(2, 5)):
    states = frozenset(words) | {EPSILON}
    closed = set(states)
    for w in words:
        for i in range(len(w)):
            closed.add(w[i:])
    closed = frozenset(closed)
    return TrafficModel(kind=MPETC_BISIM, states=closed,
                        edges=frozenset(_tree_edges(closed)),
                        output=_outputs(closed, h, h_P), h=h, h_P=h_P)


def test_avg_freq_bound_hand_case():
    m = sim_model({(1,), (4, 1), (2, 2, 2)})
    f, w = analysis.avg_freq_bound(m, F(1, 10))
    # rates: 10, 2/0.5=4, 3/0.6=5  ->  max 10 at (1,)
    assert f == 10 and w == (1,)


def test_avg_freq_tie_break_lexicographic():
    # (2,) and (1, 3) and (3, 1) all rate 5; shortest-then-lex word wins
    m = sim_model({(2,), (1, 3), (3, 1)})
    f, w = analysis.avg_freq_bound(m, F(1, 10))
    assert f == 5 and w == (2,)
    m2 = sim_model({(1, 3), (3, 1)})
    _, w2 = analysis.avg_freq_bound(m2, F(1, 10))
    assert w2 == (1, 3)


def test_avg_freq_requires_sim_model():
    b = bisim_model({(1,)})
    with pytest.raises(ValueError):
        analysis.avg_freq_bound(b, F(1, 10))


def test_time_to_contract_and_decay():
    m = sim_model({(1,), (4, 1), (2, 2, 2)})
    t = analysis.time_to_contract(m, F(1, 10))
    assert t == F(3, 5)  # word (2,2,2): 0.1 * 6
    t2, b = analysis.ges_decay_bound(m, F(1, 10), F(1, 10))
    assert t2 == t
    assert b == pytest.approx(-math.log(0.1) / (2 * 0.6))
    with pytest.raises(ValueError):
        analysis.ges_decay_bound(m, F(2), F(1, 10))


def test_report_assembly_and_serialization():
    bis = bisim_model({(1,), (4, 1), (2, 2, 2)})
    sim = sim_model({(1,), (4, 1)})
    rep = analysis.report(bis, sim, a=F(952, 1000), N=47, k_lo=1,
                          r=F(1, 10), h=F(1, 10), lemma_bounds=(100, 200),
                          timings={"x_s": 1.5})
    assert rep.n_bisim_states == len(bis.states) - 1
    assert rep.n_sim_states == 2
    assert rep.T_star_bisim == F(3, 5)
    assert rep.T_star_sim == F(1, 2)
    assert rep.f_star == 10 and rep.f_star_word == (1,)
    doc = json.loads(rep.to_json())
    assert doc["a"] == "119/125"
    assert doc["f_star_word"] == [1]
    assert doc["timings"] == {"x_s": 1.5}
    text = rep.render()
    assert "f*" in text and "T*" in text and "0.952" in text


def test_ci_models_consistency(ci_bisim, ci_sim, ci_disc):
    f, w = analysis.avg_freq_bound(ci_sim, ci_disc.h)
    assert w in ci_sim.states
    assert f == F(len(w)) / (ci_disc.h * sum(w))
    assert f <= 1 / ci_disc.h  # can never beat sampling every period
    t_b = analysis.time_to_contract(ci_bisim, ci_disc.h)
    t_s = analysis.time_to_contract(ci_sim, ci_disc.h)
    assert t_s <= t_b  # simulating words are a subset


def test_build_stats_add_up(ci_disc, ci_cert, ci_N, ci_bisim, ci_sim):
    levels = ci_bisim.stats["levels"]
    # the build stops after N levels or at the first level left empty
    assert [lv["level"] for lv in levels] == list(range(1, len(levels) + 1))
    assert (len(levels) == ci_N
            or levels[-1]["candidates"] == levels[-1]["unsat"])
    live = 1
    for lv in levels:
        # the words of the last level whose full query is not unsat are
        # extended by every letter; the unsat ones are pruned
        assert lv["candidates"] == live * len(ci_disc.K_range)
        assert lv["candidates"] == lv["unsat"] + lv["sat"] + lv["unknown"]
        assert lv["kept"] == lv["sat"] + lv["assumed"]
        assert lv["kept"] == sum(len(w) == lv["level"]
                                 for w in ci_bisim.states)
        # a word that is not unsat keeps at least one feasible arc
        live = lv["candidates"] - lv["unsat"]
        assert lv["arcs"] >= live
    assert sum(lv["kept"] for lv in levels) == ci_bisim.n_states(False)
    unit = ci_sim.stats
    assert unit["candidates"] == ci_bisim.n_states(False)
    assert unit["candidates"] == unit["sat"] + unit["unsat"] + unit["unknown"]
    assert unit["kept"] == unit["sat"] + unit["assumed"] == len(ci_sim.states)
    assert unit["arcs"] >= unit["candidates"]
    rep = analysis.report(ci_bisim, ci_sim, ci_cert.a, ci_N, ci_disc.k_lo,
                          ci_disc.r, ci_disc.h, (1, 1), {"x_s": 1.0},
                          ci_cert.bisection_trace)
    stats = json.loads(rep.to_json())["stats"]
    assert stats["bisim_levels"] == levels
    assert stats["unit_shell"] == unit
    assert stats["bisection_trace"] == [
        [str(a), status] for a, status in ci_cert.bisection_trace]
    assert {status for _, status in stats["bisection_trace"]} \
        == {"sat", "unsat"}
