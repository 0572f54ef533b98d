"""Each independent check accepts a real pass and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py

Builds the replay workload's models once (about 20 s on two cores) with
the ``casestudy`` subcommand and light validation.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

import checks
from run import WORKLOADS, write_config

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    from petctraffic import cli

    out = tmp_path_factory.mktemp("pass")
    config = write_config(SRC, out, WORKLOADS["replay"], seed=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC))
        mp.delenv("PETCTRAFFIC_SOLVER", raising=False)
        assert cli.main(["casestudy", "--config", str(config), "--out",
                         str(out), "--samples", "2", "--steps", "2"]) == 0
    cfg = cli.load_config(config)
    return dict(cfg=cfg, disc=cli.make_disc(cfg),
                report=checks.load_report(out / "report.json"),
                bisim=checks.load_model(out / "mpetc_bisim.json"),
                sim=checks.load_model(out / "petc_sim.json"))


@pytest.fixture(scope="module")
def coverage(outputs):
    return checks.Coverage.compute(outputs["disc"],
                                   Fraction(outputs["report"]["a"]), 100, 5)


def test_real_outputs_pass(outputs, coverage):
    disc, report = outputs["disc"], outputs["report"]
    bisim, sim = outputs["bisim"], outputs["sim"]
    a = Fraction(report["a"])
    a_tol = outputs["cfg"]["a_tol"]
    assert checks.check_contraction(disc, report, a_tol) == []
    assert checks.check_tree(bisim) == []
    assert checks.check_sim(bisim, sim) == []
    assert checks.check_witnesses(disc, bisim, sim, a) == []
    assert checks.check_discretization(disc, outputs["cfg"]) == []
    assert coverage.check(bisim, sim) == []
    assert checks.check_bounds(disc, report, bisim, sim) == []
    freqs, bad = checks.long_run_frequencies(disc, a, 5, 50, seed=3)
    assert bad == [] and checks.check_frequencies(freqs, report) == []


def test_dropped_word(outputs, coverage):
    bisim = outputs["bisim"]
    # the longest sampled word, with every word it is a suffix of, so the
    # tree stays suffix-closed and only coverage can notice
    w = max(coverage.bisim_words, key=len)
    dropped = {t for t in bisim.states if len(t) >= len(w)
               and t[len(t) - len(w):] == w}
    states = bisim.states - dropped
    edges = {(s, t) for s, t in bisim.edges if s in states}
    cut = checks.Model(bisim.kind, states, edges, bisim.witnesses)
    assert checks.check_tree(cut) == []
    assert any(str(w) in msg for msg in coverage.check(cut, outputs["sim"]))


def test_witness_moved_off_its_word(outputs):
    bisim = outputs["bisim"]
    u, v = sorted(w for w in bisim.witnesses if w)[:2]
    moved = dict(bisim.witnesses)
    moved[u], moved[v] = bisim.witnesses[v], bisim.witnesses[u]
    bad = checks.check_witnesses(
        outputs["disc"], checks.Model(bisim.kind, bisim.states, bisim.edges,
                                      moved),
        outputs["sim"], Fraction(outputs["report"]["a"]))
    assert any(f"witness of {u} replays" in msg for msg in bad)


def test_wrong_f_star(outputs):
    disc, report = outputs["disc"], outputs["report"]
    f_star = Fraction(report["f_star"])
    high = dict(report, f_star=str(f_star + Fraction(1, 100)))
    assert checks.check_bounds(disc, high, outputs["bisim"], outputs["sim"])
    freqs, _ = checks.long_run_frequencies(disc, Fraction(report["a"]), 5, 50,
                                           seed=3)
    low = dict(report, f_star=str(min(freqs) - Fraction(1, 100)))
    assert checks.check_frequencies(freqs, low)


def test_removed_domino_edge(outputs):
    sim = outputs["sim"]
    edge = sorted(e for e in sim.edges if e[0] != e[1])[0]
    cut = checks.Model(sim.kind, sim.states, sim.edges - {edge},
                       sim.witnesses)
    assert f"domino edge {edge} missing" in checks.check_sim(
        outputs["bisim"], cut)


def test_a_too_small(outputs):
    report = outputs["report"]
    tol = outputs["cfg"]["a_tol"]
    small = dict(report, a=str(Fraction(report["a"]) - tol))
    bad = checks.check_contraction(outputs["disc"], small, tol)
    assert any("below a sampled decrease" in msg for msg in bad)


def test_config_keeps_the_bundled_numbers(tmp_path):
    from petctraffic import cli

    bundled = cli.load_config(None)
    cfg = cli.load_config(write_config(SRC, tmp_path, WORKLOADS["fast"],
                                       seed=9))
    assert cfg["r"] == Fraction(4, 5) and cfg["seed"] == 9
    for key in ("A", "B", "K", "P_lyap", "Q_lyap", "rho", "h", "k_bar",
                "hP_resolution", "a_tol"):
        assert cfg[key] == bundled[key]
