"""Query construction, SMT-LIB encoding, and the in-process decision."""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from petctraffic import (cli, qfnra, ratlin, satcheck, semantics, verify,
                         wordtree)
from petctraffic.satcheck import (QuadAtom, SatQuery,
                                  check, contraction_counterexample,
                                  parse_model, sequence_query, to_smtlib)

F = Fraction


def test_quad_atom_validation():
    ident = ratlin.identity(2)
    with pytest.raises(ValueError):
        QuadAtom(ident, "!=", F(0))
    with pytest.raises(ValueError):
        QuadAtom(ratlin.mat([[0, 1], [0, 0]]), ">", F(0))
    q = SatQuery((QuadAtom(ident, ">=", F(2)),), 2)
    assert q.holds((F(1), F(1)))
    assert not q.holds((F(1), F(0)))


def test_query_validation():
    with pytest.raises(ValueError):
        SatQuery(atoms=(), n_x=2)
    with pytest.raises(ValueError):
        SatQuery(atoms=(QuadAtom(ratlin.identity(3), ">", F(0)),), n_x=2)


def test_sequence_query_atom_counts(ci_disc):
    # shell + per position: (k_i - k_lo) exclusions, a strict trigger
    # unless k_i = k_bar, and one sublevel exclusion; terminal at the end
    for word in [(1,), (3, 1), (6, 2, 1), (4, 1, 1, 1, 1, 1)]:
        q = sequence_query(ci_disc, word)
        expect = 1 + sum((k - ci_disc.k_lo) + (k < ci_disc.k_bar) + 1
                         for k in word) + 1
        assert len(q.atoms) == expect
        qp = sequence_query(ci_disc, word, terminal=False)
        assert len(qp.atoms) == expect - 1
        # the terminal atom is the only difference
        assert q.atoms[:-1] == qp.atoms


def test_sequence_query_shell_kinds(ci_disc):
    q_sub = sequence_query(ci_disc, (1,), satcheck.SUBLEVEL)
    q_unit = sequence_query(ci_disc, (1,), satcheck.UNIT_LEVEL)
    assert q_sub.atoms[0].rel == "<=" and q_unit.atoms[0].rel == "="
    assert q_sub.atoms[0].F == ci_disc.P_rat
    with pytest.raises(ValueError):
        sequence_query(ci_disc, (1,), shell="banana")
    with pytest.raises(ValueError):
        sequence_query(ci_disc, ())
    with pytest.raises(ValueError):
        sequence_query(ci_disc, (0,))
    with pytest.raises(ValueError):
        sequence_query(ci_disc, (ci_disc.k_bar + 1,))


def test_smtlib_encoding_deterministic(ci_disc):
    q = sequence_query(ci_disc, (2, 1))
    s1, s2 = to_smtlib(q), to_smtlib(q)
    assert s1 == s2
    assert s1.startswith("(set-logic QF_NRA)")
    assert s1.count("declare-const") == ci_disc.n_x
    assert s1.count("(assert ") == len(q.atoms)
    assert "(check-sat)" in s1 and "(get-model)" in s1


def test_parse_model_variants():
    text = """sat
    (model
      (define-fun x0 () Real (/ 1 3))
      (define-fun x1 () Real (- (/ 2 5))))"""
    assert parse_model(text, 2) == (F(1, 3), F(-2, 5))
    # solvers that omit the `model` keyword
    text2 = "sat\n((define-fun x0 () Real 2.5))"
    assert parse_model(text2, 1) == (F(5, 2),)
    assert parse_model("sat\n(model)", 1) is None


def test_parse_model_rejects_unreadable_models():
    # the SMT-LIB reader of qfnra: unbalanced text and a division by zero
    # give no model
    assert parse_model("sat\n(model (define-fun x0 () Real 1)", 1) is None
    assert parse_model("sat\n(model (define-fun x0 () Real 1)))", 1) is None
    assert parse_model("(model (define-fun x0 () Real (/ 1 0)))", 1) is None
    assert parse_model("(model (define-fun x0 () Real (- 1)))", 1) == (F(-1),)


def test_check_returns_the_decided_result(monkeypatch):
    # one result type: check passes what decide returns through, and
    # replaces only a sat witness that fails the atoms
    query = SatQuery((QuadAtom(ratlin.identity(2), ">", F(0)),), 2)
    assert type(check(query)) is type(qfnra.decide(2, [])) \
        is satcheck.SatResult is qfnra.SatResult
    for decided in (qfnra.SatResult("unsat"),
                    qfnra.SatResult("unknown", reason="forced")):
        monkeypatch.setattr(qfnra, "decide", lambda n, atoms: decided)
        assert check(query) is decided
    monkeypatch.setattr(qfnra, "decide", lambda n, atoms:
                        qfnra.SatResult("sat", witness=(F(0), F(0))))
    res = check(query)
    assert res.status == "unknown" and "re-verification" in res.reason
    with pytest.raises(ValueError):
        qfnra.SatResult("sat")


def test_check_sat_produces_exact_witness(tiny_disc):
    # the query is homogeneous: any counterexample x has V(M x) > a V(x)
    res = contraction_counterexample(tiny_disc, 1, F(1, 5))
    assert res.status == "sat"
    m_half = tiny_disc.M[1]
    v_next = ratlin.quad_form(
        ratlin.congruence(tiny_disc.P_rat, m_half), res.witness)
    assert v_next > F(1, 5) * tiny_disc.V(res.witness)


def test_check_unsat_at_true_ratio(tiny_disc):
    # V(M x) / V(x) = 1/4 exactly, so 1/4 and above admit no counterexample
    assert contraction_counterexample(tiny_disc, 1, F(1, 4)).status == "unsat"
    assert contraction_counterexample(tiny_disc, 1, F(1, 3)).status == "unsat"


def test_contraction_query_validation(tiny_disc):
    with pytest.raises(ValueError):
        satcheck.contraction_query(tiny_disc, 1, F(2))
    with pytest.raises(ValueError):
        satcheck.contraction_query(tiny_disc, 5, F(1, 2))


def test_solver_unknown_passthrough():
    # x0^2 = 2 x1^2 with x0 x1 > 0 holds on the irrational direction
    # (sqrt 2, 1) only
    q = SatQuery((QuadAtom(ratlin.mat([[1, 0], [0, -2]]), "=", F(0)),
                  QuadAtom(ratlin.mat([[0, F(1, 2)], [F(1, 2), 0]]), ">",
                           F(0))), 2)
    res = check(q)
    assert res.status == "unknown" and res.witness is None
    assert res.reason
    # a query with a shell is outside the homogeneous fragment
    res = check(SatQuery((QuadAtom(ratlin.identity(2), "=", F(1)),), 2))
    assert res.status == "unknown" and res.reason


def test_replay_completeness(ci_disc):
    # words realized by concrete states must be declared feasible
    xs = verify.sample_shell_states(ci_disc, 25, seed=99)
    words = {semantics.concrete_sequence(ci_disc, x, max_len=100)
             for x in xs}
    words.discard(())
    engine = wordtree.WordEngine(ci_disc)
    for w in sorted(words):
        res = engine.decide(engine.node(w), satcheck.SUBLEVEL)
        assert res.status == "sat", w
        assert semantics.concrete_sequence(ci_disc, res.witness,
                                           max_len=100) == w


def test_prefix_query_monotone(ci_disc):
    # a word with an unsat full query can have no feasible extension;
    # spot-check the contrapositive on realized words: all their prefixes
    # have sat full queries
    x = verify.sample_shell_states(ci_disc, 1, seed=5)[0]
    w = semantics.concrete_sequence(ci_disc, x, max_len=100)
    engine = wordtree.WordEngine(ci_disc)
    for i in range(1, len(w) + 1):
        res = engine.decide(engine.node(w[:i]), satcheck.SUBLEVEL)
        assert res.status == "sat", w[:i]


def test_bundled_solver_found_through_sys_path(tmp_path):
    # the package importable only through sys.path, as when the library
    # is used from a checkout without an install
    src = Path(__file__).resolve().parents[1] / "src"
    script = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
              "from fractions import Fraction\n"
              "from petctraffic import ratlin, satcheck\n"
              "atom = satcheck.QuadAtom(ratlin.identity(2), '>', Fraction(0))\n"
              "print(satcheck.check(satcheck.SatQuery((atom,), 2)).status)\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PETCTRAFFIC_SOLVER")}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "sat"


def test_direct_decision_matches_smtlib_path(monkeypatch):
    # every satcheck query of the bundled loop at r = 4/5 (the
    # contraction queries; the word queries go to wordtree), decided in
    # process and again from its SMT-LIB text by the command interpreter
    real_check, decided = satcheck.check, []

    def recording_check(query):
        res = real_check(query)
        decided.append((query, res))
        return res

    monkeypatch.setattr(satcheck, "check", recording_check)
    cfg = cli.load_config(None)
    cfg["r"] = F(4, 5)
    cli.run_pipeline(cfg)
    assert {res.status for _, res in decided} == {"sat", "unsat"}
    for query, res in decided:
        out = io.StringIO()
        qfnra.run_script(to_smtlib(query), out)
        text = out.getvalue()
        assert text.split("\n", 1)[0] == res.status
        if res.status == "sat":
            assert query.holds(res.witness)
            assert query.holds(parse_model(text, query.n_x))


def test_benchmark_trace_hooks_bind(tmp_path):
    # perfbench/tracer.py patches names of the program in place; in a
    # child process, with its end-to-end and layer hooks installed, the
    # casestudy pass of the benchmark at r = 4/5 must run, decide its 41
    # contraction queries through satcheck.check, and agree with the
    # tracer's own re-decision of each from its SMT-LIB text.  Its
    # validation must run inside the two verify spans that validate_s
    # is read from, each with the check count the pass prints
    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "src" / "petctraffic" / "data"
                      / "casestudy.json").read_text())
    cfg["r"] = 0.8
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    script = (f"import sys; sys.path[:0] = [{str(root / 'src')!r}, "
              f"{str(root / 'perfbench')!r}]\n"
              "import json\n"
              "import tracer\n"
              "from petctraffic import cli\n"
              "t = tracer.Tracer()\n"
              "tracer.install_e2e(t)\n"
              "layers = tracer.LayerTrace(t)\n"
              "layers.install()\n"
              "rc = cli.main(['casestudy', '--config', 'config.json', "
              "'--out', 'out', '--samples', '20', '--steps', '5'])\n"
              "print(json.dumps([rc, len(layers.mismatches), "
              "layers.metrics()['satcheck.queries'], "
              "[(s.name, s.attrs['checks'], s.dur) for s in t.spans "
              "if s.name.startswith('verify.')]]))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    rc, mismatches, queries, spans = json.loads(last)
    assert (rc, mismatches, queries) == (0, 0, 41)
    counts = [int(re.search(r"PASS \((\d+) checks\)", line)[1])
              for line in printed if "sample check" in line]
    assert [(name, checks) for name, checks, _ in spans] == [
        ("verify.check_bisim_sample", counts[0]),
        ("verify.check_sim_petc", counts[1])]
    assert counts[0] > 20 and counts[1] > 20 * 5
    assert all(dur > 0 for *_, dur in spans)
