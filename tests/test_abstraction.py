"""Traffic-model construction, invariants, and serialization."""

from __future__ import annotations

from fractions import Fraction

import pytest

from petctraffic import abstraction, cli, satcheck, semantics, wordtree
from petctraffic.abstraction import (EPSILON, TrafficModel, build_mpetc_bisim,
                                     build_petc_sim, build_trivial,
                                     domino_edges, export_model, import_model)
from conftest import bundled, make_system, pairwise_domino_edges
from petctraffic.sysmodel import rationalize
from petctraffic import contraction

F = Fraction


def test_trivial_counts_and_structure():
    m = build_trivial(6, 2, h=F(1, 10), h_P=F(2, 5))
    assert m.n_states() == 1 + 6 + 36 == 43
    assert m.n_states(include_epsilon=False) == 42
    assert m.output[EPSILON] == F(2, 5)
    assert m.output[(3,)] == F(3, 10)
    assert m.output[(5, 1)] == F(1, 2)
    # every non-empty state drains into its tail; eps self-loops
    assert (EPSILON, EPSILON) in m.edges
    assert ((5, 1), (1,)) in m.edges
    assert m.successors((5, 1)) == [(1,)]
    assert m.is_exact


def test_trivial_explicit_K_and_cap():
    m = build_trivial([2, 4], 2)
    assert m.n_states() == 1 + 2 + 4
    with pytest.raises(ValueError):
        build_trivial(6, 20, state_cap=1000)
    with pytest.raises(ValueError):
        build_trivial([], 2)


def test_model_validation():
    with pytest.raises(ValueError):
        TrafficModel(kind="nonsense", states=frozenset({EPSILON}),
                     edges=frozenset(), output={EPSILON: F(1)})
    with pytest.raises(ValueError):
        TrafficModel(kind="trivial", states=frozenset({EPSILON}),
                     edges=frozenset({(EPSILON, (1,))}),
                     output={EPSILON: F(1)})
    with pytest.raises(ValueError):
        TrafficModel(kind="trivial", states=frozenset({EPSILON, (1,)}),
                     edges=frozenset(), output={EPSILON: F(1)})


def test_bisim_suffix_closure_and_tree(ci_bisim):
    states = ci_bisim.states
    assert EPSILON in states
    for w in states:
        if w != EPSILON:
            assert w[1:] in states  # suffix closure
            assert ci_bisim.successors(w) == [w[1:]]  # out-degree exactly 1
    assert ci_bisim.successors(EPSILON) == [EPSILON]
    assert ci_bisim.is_exact
    # every non-eps state carries a witness that replays to its word
    assert set(ci_bisim.witnesses) == states


def test_bisim_witness_soundness(ci_disc, ci_bisim):
    for w in ci_bisim.sorted_states():
        x = ci_bisim.witnesses[w]
        assert ci_disc.V(x) <= ci_disc.V0
        assert semantics.concrete_sequence(ci_disc, x, max_len=100) == w


def test_sim_is_subset_with_domino_edges(ci_disc, ci_sim, ci_bisim):
    assert EPSILON not in ci_sim.states
    assert ci_sim.states <= ci_bisim.states
    # domino law: k sigma -> tau iff tau extends sigma
    for s, t in ci_sim.edges:
        assert t[:len(s) - 1] == s[1:]
    for w in ci_sim.states:
        assert ci_sim.successors(w), f"blocking state {w}"
        # unit-shell witnesses
        x = ci_sim.witnesses[w]
        assert ci_disc.V(x) == ci_disc.V0


def test_domino_edges_small():
    states = {(1,), (2, 1), (1, 2)}
    edges = domino_edges(states)
    assert ((1,), (1,)) in edges       # tail () extended by anything
    assert ((1,), (2, 1)) in edges
    assert ((2, 1), (1,)) in edges     # tail (1,) is a prefix of (1,)
    assert ((2, 1), (1, 2)) in edges
    assert ((1, 2), (2, 1)) in edges
    assert ((1, 2), (1,)) not in edges


def test_build_petc_sim_wants_bisim(ci_disc, ci_bisim):
    # only the bisimilar model that carries its word tree will do: not a
    # trivial model, nor the same bisimilar model imported from JSON
    trivial = build_trivial(6, 1)
    with pytest.raises(ValueError):
        build_petc_sim(ci_disc, trivial)
    with pytest.raises(ValueError):
        build_petc_sim(ci_disc, import_model(export_model(ci_bisim)))


@pytest.mark.parametrize("case", ["ci", "r4_5", "cs"])
def test_domino_edges_match_pairwise_oracle(case, ci_bisim, ci_sim):
    # the prefix index gives the edges of comparing every pair of states,
    # on both builds' state sets at r = 1/2, 4/5 and 1/10
    if case == "ci":
        bisim, sim = ci_bisim, ci_sim
    else:
        cfg, disc = bundled(case)
        _, n, _ = cli.run_contraction(cfg, disc)
        bisim = build_mpetc_bisim(disc, n)
        sim = build_petc_sim(disc, bisim)
    for states in (bisim.states, sim.states):
        assert domino_edges(states) == pairwise_domino_edges(states)


def full_query_words(disc, N):
    """Reference enumerator: extends kept words to the left, relying on
    suffix closure, and sends full queries only."""
    engine = wordtree.WordEngine(disc)
    states, level = {EPSILON}, [EPSILON]
    for _ in range(N):
        candidates = sorted(((k,) + w for w in level for k in disc.K_range),
                            key=abstraction.word_key)
        results = [engine.decide(engine.node(w), satcheck.SUBLEVEL)
                   for w in candidates]
        assert all(res.status != "unknown" for res in results)
        level = [w for w, res in zip(candidates, results)
                 if res.status == "sat"]
        states.update(level)
    return states


def test_prune_modes_agree(ci_disc):
    # shortened horizon keeps the cross-check cheap: the prefix-pruned
    # build keeps exactly the words the full-query reference finds
    m = build_mpetc_bisim(ci_disc, 4)
    assert m.states == full_query_words(ci_disc, 4)


def test_homogeneity_of_state_sets(ci_disc):
    # scaling the initial sublevel set must not change the words
    sys9 = make_system(F(1, 2), V0=F(9))
    disc9 = rationalize(sys9, ci_disc.h_P)
    m1 = build_mpetc_bisim(ci_disc, 4)
    m9 = build_mpetc_bisim(disc9, 4)
    assert m1.states == m9.states


def test_export_import_roundtrip(ci_bisim, ci_sim):
    for model in (ci_bisim, ci_sim):
        blob = export_model(model, "json")
        back = import_model(blob)
        assert back.states == model.states
        assert back.edges == model.edges
        assert back.output == model.output
        assert back.witnesses == model.witnesses
        assert back.h == model.h and back.h_P == model.h_P
        # canonical form: re-export is byte-identical
        assert export_model(back, "json") == blob
    with pytest.raises(ValueError):
        export_model(ci_bisim, "yaml")


def test_export_dot(ci_sim):
    text = export_model(ci_sim, "dot").decode()
    assert text.startswith("digraph traffic {")
    first = ci_sim.sorted_states()[0]
    name = "_".join(map(str, first))
    assert f'"{name}"' in text


def test_export_dot_epsilon(ci_bisim):
    text = export_model(ci_bisim, "dot").decode()
    assert '"eps" -> "eps";' in text


def test_assume_sat_marks_model_inexact(ci_disc, monkeypatch):
    # force undecided full queries and keep them: the model must say so
    from petctraffic import satcheck as sc
    real_decide = wordtree.WordEngine.decide

    def flaky(self, node, shell):
        res = real_decide(self, node, shell)
        if res.status == "sat":
            return sc.SatResult("unknown", reason="forced")
        return res

    monkeypatch.setattr(wordtree.WordEngine, "decide", flaky)
    with pytest.raises(sc.SolverUnknownError):
        build_mpetc_bisim(ci_disc, 2)
    m = build_mpetc_bisim(ci_disc, 2, assume_sat=True)
    assert not m.is_exact
    assert m.assumed
    assert m.assumed <= m.states
