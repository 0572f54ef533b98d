"""The word-tree engine against the per-word solver queries it replaced."""

from __future__ import annotations

from fractions import Fraction

import pytest

from petctraffic import abstraction, cli, ratlin, satcheck, wordtree
from conftest import bundled, oracle_check, oracle_models

F = Fraction


def test_pullback_matches_congruence(ci_disc):
    # the integer V form of a node is V(Phi u) up to a positive factor
    engine = wordtree.WordEngine(ci_disc)
    node = engine.node((3, 1, 2))
    phi = ratlin.identity(2)
    for k in node.word:
        phi = ratlin.mat_mul(ci_disc.M[k], phi)
    f = ratlin.congruence(ci_disc.P_rat, phi)
    exact = (f[1][1], f[0][1] + f[1][0], f[0][0])
    form, scale = node.forms[-1]
    ratio = {F(a) / b for a, b in zip(form, exact)}
    assert len(ratio) == 1 and ratio.pop() > 0
    assert node.phi == tuple(tuple(e * scale for e in row) for row in phi)


def _recorded_build(disc, N, monkeypatch):
    """Both models built on the engine, with every query it decided:
    (word, shell, terminal, status, witness)."""
    decided = []
    prefix_status = wordtree.WordEngine.prefix_status
    decide = wordtree.WordEngine.decide

    def recording_prefix(self, node):
        status = prefix_status(self, node)
        decided.append((node.word, satcheck.SUBLEVEL, False, status, None))
        return status

    def recording_decide(self, node, shell):
        res = decide(self, node, shell)
        decided.append((node.word, shell, True, res.status, res.witness))
        return res

    monkeypatch.setattr(wordtree.WordEngine, "prefix_status",
                        recording_prefix)
    monkeypatch.setattr(wordtree.WordEngine, "decide", recording_decide)
    bisim = abstraction.build_mpetc_bisim(disc, N)
    sim = abstraction.build_petc_sim(disc, bisim)
    return bisim, sim, decided


@pytest.mark.parametrize("case", ["ci", "r4_5", "one_dim"])
def test_engine_matches_per_word_oracle(case, request, monkeypatch):
    # every prefix, full and unit-shell query of both builds, on the
    # r = 1/2 fixture, on the bundled loop at r = 4/5, and on a scalar
    # plant (words (6,), (6, 6), (6, 6, 6); only the last on the shell)
    if case == "ci":
        disc, n = (request.getfixturevalue("ci_disc"),
                   request.getfixturevalue("ci_N"))
    else:
        cfg, disc = bundled(case)
        _, n, _ = cli.run_contraction(cfg, disc)
    bisim, sim, decided = _recorded_build(disc, n, monkeypatch)
    oracle = {}
    for word, shell, terminal, status, witness in decided:
        res = oracle_check(disc, word, shell, terminal)
        oracle[word, shell, terminal] = res
        assert status == res.status, (word, shell, terminal)
        if witness is not None:
            query = satcheck.sequence_query(disc, word, shell, True)
            assert query.holds(witness), (word, shell)
    kinds = {(shell, terminal) for _, shell, terminal, _, _ in decided}
    assert kinds == {(satcheck.SUBLEVEL, False), (satcheck.SUBLEVEL, True),
                     (satcheck.UNIT_LEVEL, True)}
    assert {status for *_, status, _ in decided} == {"sat", "unsat"}
    o_bisim, o_sim = oracle_models(
        disc, n, lambda d, w, shell, terminal: oracle[w, shell, terminal])
    for model, ref in ((bisim, o_bisim), (sim, o_sim)):
        assert model.states == ref.states
        assert model.edges == ref.edges
        assert model.assumed == ref.assumed == frozenset()
