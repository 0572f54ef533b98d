"""Command-line behavior: config validation, exit codes, cheap subcommands."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import petctraffic
from petctraffic import abstraction, cli, qfnra, satcheck
from petctraffic.cli import (ConfigError, EXIT_BLOCKING, EXIT_BROKEN_PIPE,
                             EXIT_CONFIG, EXIT_HORIZON, EXIT_MISMATCH,
                             EXIT_NOT_CONTRACTIVE, EXIT_OK, EXIT_UNDECIDED,
                             load_config, main)

F = Fraction


def open_default() -> str:
    import importlib.resources

    return (importlib.resources.files("petctraffic.data")
            / "casestudy.json").read_text()


def write_config(tmp_path, **changes) -> str:
    base = dict(json.loads(open_default()), **changes)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(base))
    return str(p)


def test_default_config_loads_exact():
    cfg = load_config(None)
    assert cfg["h"] == F(1, 10)
    assert cfg["r"] == F(1, 10)
    assert cfg["rho"] == F(4, 5)
    assert cfg["A"][1][1] == F(3)


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    nolist = tmp_path / "nolist.json"
    nolist.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(nolist)


def test_config_field_validation(tmp_path):
    base = json.loads(open_default())
    missing = dict(base)
    del missing["A"]
    p = tmp_path / "m.json"
    p.write_text(json.dumps(missing))
    with pytest.raises(ConfigError):
        load_config(p)
    # trigger data must come as Q_trig xor {Q_lyap, rho}
    both = dict(base)
    both["Q_trig"] = [[0] * 4] * 4
    p.write_text(json.dumps(both))
    with pytest.raises(ConfigError):
        load_config(p)
    partial = dict(base)
    del partial["rho"]
    p.write_text(json.dumps(partial))
    with pytest.raises(ConfigError):
        load_config(p)
    # optional numbers outside their ranges, and integer fields
    for key, value in (("a_tol", 2), ("a_tol", 0), ("hP_resolution", 0),
                       ("h_P", -1), ("k_bar", 1.5), ("k_bar", 0),
                       ("seed", "x"), ("seed", 1.5)):
        p.write_text(json.dumps(dict(base, **{key: value})))
        with pytest.raises(ConfigError, match=key):
            load_config(p)


def test_exit_code_config(tmp_path, capsys, monkeypatch):
    p = tmp_path / "broken.json"
    p.write_text("{}")
    assert main(["discretize", "--config", str(p)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    # values that reach contraction.compute_a, compute_hP and
    # sysmodel.rationalize, and a k_bar that int() would truncate: one
    # line each, no traceback
    for key, value in (("a_tol", 2), ("a_tol", 0), ("hP_resolution", 0),
                       ("h_P", -1), ("k_bar", 1.5), ("k_bar", 0),
                       ("k_bar", "6")):
        config = write_config(tmp_path, **{key: value})
        assert main(["contraction", "--config", config]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert len(err.splitlines()) == 1
    # a seed that is not an integer, which verify and casestudy read
    # after the build: rejected before any build
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda *a, **kw: pytest.fail("built"))
    for value in ("x", 1.5):
        config = write_config(tmp_path, seed=value)
        for argv in (["verify", "--samples", "1", "--steps", "1"],
                     ["casestudy", "--out", str(tmp_path / "out")]):
            assert main(argv + ["--config", config]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "seed" in err
            assert len(err.splitlines()) == 1


@pytest.mark.parametrize("key", ["A", "P_lyap", "Q_lyap", "rho", "h",
                                 "h_P", "hP_resolution", "V0"])
def test_exit_code_config_number_beyond_a_double(key, tmp_path, capsys,
                                                 monkeypatch):
    # a number that float() cannot convert, in a matrix entry or a scalar
    # field: one line naming the field, before any build
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda *a, **kw: pytest.fail("built"))
    base = json.loads(open_default())
    if isinstance(base.get(key), list):
        base[key][0][0] = 0.125
    else:
        base[key] = 0.125
    p = tmp_path / "config.json"
    p.write_text(json.dumps(base).replace("0.125", "1e400"))
    for argv in (["discretize"], ["casestudy", "--out", str(tmp_path)]):
        assert main(argv + ["--config", str(p)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("key", ["h", "A"])
def test_exit_code_config_number_below_a_double(key, tmp_path, capsys,
                                                monkeypatch):
    # a nonzero number that float() rounds to 0.0, in a scalar field or a
    # matrix entry: one line naming the field, before any stage reads it
    # as 0
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda *a, **kw: pytest.fail("built"))
    base = json.loads(open_default())
    if isinstance(base.get(key), list):
        base[key][1][0] = 0.125
    else:
        base[key] = 0.125
    p = tmp_path / "config.json"
    p.write_text(json.dumps(base).replace("0.125", "1e-400"))
    for argv in (["contraction"], ["casestudy", "--out", str(tmp_path)]):
        assert main(argv + ["--config", str(p)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert "below the range of a double" in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["casestudy", "analyze", "abstract",
                                     "abstract --trivial"])
def test_exit_code_out_below_a_file(command, tmp_path, capsys, monkeypatch):
    # an --out that cannot be made a directory: one line, and the
    # pipeline never runs
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda *a, **kw: pytest.fail("built"))
    monkeypatch.setattr(cli, "run_contraction", lambda cfg, disc:
                        (None, 2, None))
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = command.split() + ["--out", str(blocker / "out")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--out" in err
    assert len(err.splitlines()) == 1


def test_exit_code_config_counts(tmp_path, capsys, monkeypatch):
    # --samples and --steps must be integers >= 0: one line, before any
    # build
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda *a, **kw: pytest.fail("built"))
    for flag, value in (("--samples", "-3"), ("--steps", "-2"),
                        ("--samples", "1.5"), ("--steps", "x")):
        counts = {"--samples": "1", "--steps": "1", flag: value}
        for argv in (["verify"], ["casestudy", "--out", str(tmp_path)]):
            argv = argv + [arg for item in counts.items() for arg in item]
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error:") and flag in err
            assert len(err.splitlines()) == 1


def test_verify_witness_outside_initial_set(tmp_path, capsys):
    # a stored witness with V > V0 is a backward failure, not a traceback
    config = write_config(tmp_path, r=0.8)
    models = tmp_path / "models"
    assert main(["abstract", "--config", config, "--out", str(models)]) \
        == EXIT_OK
    path = models / "mpetc_bisim.json"
    doc = json.loads(path.read_text())
    state = next(s for s in doc["states"] if s["word"] == [1])
    state["witness"] = ["100/1", "0/1"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--config", config, "--models", str(models),
                 "--samples", "5", "--steps", "5"]) == EXIT_MISMATCH
    out, err = capsys.readouterr()
    assert '"direction": "backward", "word": [1], "replay": null' in out
    assert "Traceback" not in err


def test_verify_sim_witnesses_off_the_shell(tmp_path, capsys):
    # every simulating witness moved far off the unit shell: the
    # simulation check fails on each, and verify exits 5 without a
    # traceback
    config = write_config(tmp_path, r=0.8)
    models = tmp_path / "models"
    assert main(["abstract", "--config", config, "--out", str(models)]) \
        == EXIT_OK
    path = models / "petc_sim.json"
    doc = json.loads(path.read_text())
    for state in doc["states"]:
        state["witness"] = ["100/1", "0/1"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--config", config, "--models", str(models),
                 "--samples", "20", "--steps", "5"]) == EXIT_MISMATCH
    out, err = capsys.readouterr()
    assert "simulation sample check: FAIL" in out
    first = json.dumps(doc["states"][0]["word"])
    assert (f'"kind": "backward", "word": {first}, "replay": null, '
            '"witness": ["100", "0"]') in out
    assert "Traceback" not in err


def test_verify_witnesses_of_the_wrong_length(tmp_path, capsys):
    # every bisimilar witness with three coordinates and every simulating
    # witness with one, for a plant with two: each is a backward failure
    # with no replay, and verify exits 5 without a traceback
    config = write_config(tmp_path, r=0.8)
    models = tmp_path / "models"
    assert main(["abstract", "--config", config, "--out", str(models)]) \
        == EXIT_OK
    for name, resize in (("mpetc_bisim.json", lambda x: x + ["1/2"]),
                         ("petc_sim.json", lambda x: x[:1])):
        path = models / name
        doc = json.loads(path.read_text())
        for state in doc["states"]:
            if state["word"]:
                state["witness"] = resize(state["witness"])
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--config", config, "--models", str(models),
                 "--samples", "5", "--steps", "3"]) == EXIT_MISMATCH
    out, err = capsys.readouterr()
    assert "bisimulation sample check: FAIL" in out
    assert "simulation sample check: FAIL" in out
    failures = [json.loads(line) for line in out.splitlines()
                if line.startswith("  {")]
    for tag in ("direction", "kind"):
        backward = [f for f in failures if f.get(tag) == "backward"]
        assert backward and all(f["replay"] is None for f in backward)
    assert "Traceback" not in err


# the bundled loop with a third, decoupled state and h_P pinned
THREE_VARIABLES = dict(
    A=[[0, 1, 0], [-2, 3, 0], [0, 0, -1]], B=[[0], [1], [0]],
    K=[[1, -4, 0]], P_lyap=[[1, 0.25, 0], [0.25, 1, 0], [0, 0, 1]],
    Q_lyap=[[0.5, 0.25, 0], [0.25, 1.5, 0], [0, 0, 1]], h_P=0.4)


def test_exit_code_three_variables(tmp_path, capsys):
    # the bundled solver decides one and two variables only
    config = write_config(tmp_path, **THREE_VARIABLES)
    assert main(["contraction", "--config", config]) == EXIT_UNDECIDED
    err = capsys.readouterr().err
    assert "3 variables not supported" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_verify_models_three_variables(tmp_path, capsys):
    # models exported earlier, checked against a three-variable plant:
    # the integer orbits of verify step two variables at most
    models = str(tmp_path / "models")
    assert main(["abstract", "--out", models]) == EXIT_OK
    config = write_config(tmp_path, **THREE_VARIABLES)
    capsys.readouterr()
    assert main(["verify", "--config", config, "--models", models,
                 "--samples", "5", "--steps", "2"]) == EXIT_UNDECIDED
    captured = capsys.readouterr()
    assert "3 variables not supported" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err and captured.out == ""


def test_discretize_default_config(capsys):
    assert main(["discretize"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "h_P = 2/5 (0.4 s)" in out
    assert "k_lo = 1" in out
    assert "M(6)" in out and "N(1)" in out


def test_discretize_into_a_closed_pipe(tmp_path):
    # stdout is a pipe whose read end is closed before the child writes,
    # as in `petctraffic discretize | head -3` once head has exited: the
    # documented code and no traceback
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(petctraffic.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "petctraffic.cli", "discretize"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            cwd=tmp_path, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""


def test_exit_code_undecided(monkeypatch, capsys):
    # a decision procedure that always answers unknown forces the
    # undecided path
    monkeypatch.setattr(qfnra, "decide", lambda n, atoms:
                        qfnra.SatResult("unknown", reason="forced"))
    assert main(["contraction"]) == EXIT_UNDECIDED
    err = capsys.readouterr().err
    assert "could not decide" in err and "Traceback" not in err


def test_contraction_is_independent_of_the_lyapunov_scale(tmp_path, capsys):
    # the bundled loop at r = 4/5 with P_lyap and Q_lyap scaled by 3 and
    # V0 = 3: the same sublevel sets and the same model sizes as unscaled
    # (a = 119/125, N = 5, 27 and 23 words).  A contraction query on the
    # shell V(x) = 1 would be left undecided here: 3 x'P x = 1 has no
    # rational point.
    base = json.loads(open_default())
    config = write_config(
        tmp_path, r=0.8, V0=3,
        P_lyap=[[3 * v for v in row] for row in base["P_lyap"]],
        Q_lyap=[[3 * v for v in row] for row in base["Q_lyap"]])
    assert main(["contraction", "--config", config]) == EXIT_OK
    out = tmp_path / "out"
    assert main(["casestudy", "--config", config, "--out", str(out),
                 "--samples", "5", "--steps", "5"]) == EXIT_OK
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert (report["a"], report["N"]) == ("119/125", 5)
    assert (report["n_bisim_states"], report["n_sim_states"]) == (27, 23)


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([])


def test_exit_code_not_contractive(tmp_path, capsys):
    # no feedback: the unstable plant admits no periodic period
    config = write_config(tmp_path, K=[[0, 0]])
    assert main(["contraction", "--config", config]) == EXIT_NOT_CONTRACTIVE
    err = capsys.readouterr().err
    assert "not contractive" in err and "Traceback" not in err


def test_exit_code_pinned_hP_not_contractive(tmp_path, capsys):
    # at h_P = 5 periodic sampling lets V grow: the pinned period fails
    # the scan's condition before any model is built
    config = write_config(tmp_path, h_P=5)
    for command in ("analyze", "casestudy"):
        out = str(tmp_path / command)
        assert main([command, "--config", config, "--out", out]) \
            == EXIT_NOT_CONTRACTIVE
        err = capsys.readouterr().err
        assert "h_P = 5" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1


def test_casestudy_with_r_close_to_one(tmp_path, capsys):
    # r V0 and V0 are 10^-17 apart: every shell sample is scaled into a
    # band that a float square root cannot hit
    config = tmp_path / "config.json"
    config.write_text(open_default().replace('"r": 0.1',
                                             '"r": 0.99999999999999999'))
    out = tmp_path / "out"
    assert main(["casestudy", "--config", str(config), "--out", str(out),
                 "--samples", "5", "--steps", "3"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    assert json.loads((out / "report.json").read_text())["N"] == 1


def test_verify_malformed_models(tmp_path, capsys):
    models = tmp_path / "models"
    models.mkdir()
    (models / "mpetc_bisim.json").write_text('{"kind": "mpetc_bisim"}')
    assert main(["verify", "--models", str(models)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "mpetc_bisim.json" in err and "'states'" in err
    assert len(err.splitlines()) == 1


def test_exit_code_horizon(tmp_path, capsys):
    # a simulating model with one state caps its words at 10 letters,
    # and at r = 10^-6 every sampled run needs more to contract; the
    # bisimilar chain of 1s is long enough that its own check only fails
    config = write_config(tmp_path, r=0.000001)
    h = F(1, 10)
    chain = [(1,) * i for i in range(40)]
    bisim = abstraction.TrafficModel(
        kind=abstraction.MPETC_BISIM, states=frozenset(chain),
        edges=frozenset((w, w[1:]) for w in chain if w),
        output={w: h for w in chain})
    sim = abstraction.TrafficModel(
        kind=abstraction.PETC_SIM, states=frozenset({(1,)}),
        edges=frozenset(), output={(1,): h})
    models = tmp_path / "models"
    cli.export(models, [bisim, sim])
    assert main(["verify", "--config", config, "--models", str(models),
                 "--samples", "3", "--steps", "2"]) == EXIT_HORIZON
    err = capsys.readouterr().err
    assert "within 10 steps" in err and "Traceback" not in err


def test_exit_code_blocking(tmp_path, monkeypatch, capsys):
    # the bundled loop at r = 4/5 with the domino edges taken away
    config = write_config(tmp_path, r=0.8)
    monkeypatch.setattr(abstraction, "domino_edges", lambda states: set())
    out = tmp_path / "models"
    assert main(["abstract", "--config", config, "--out", str(out)]) \
        == EXIT_BLOCKING
    err = capsys.readouterr().err
    assert "blocking state" in err and "Traceback" not in err
    assert not out.exists()


def test_abstract_trivial_over_cap(tmp_path, monkeypatch, capsys):
    # the bundled horizon N = 47 gives 6^47 words; no solver needed
    monkeypatch.setattr(cli, "run_contraction", lambda cfg, disc:
                        (None, 47, None))
    out = tmp_path / "trivial"
    assert main(["abstract", "--trivial", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "exceed the cap" in err and "Traceback" not in err
    assert not out.exists()


def test_subcommands_export_the_same_models(tmp_path, monkeypatch, capsys):
    # the bundled loop at r = 4/5 (N = 5).  The first pipeline runs the
    # solver; the other two replay its contraction verdicts, so that the
    # test checks the subcommands' wiring in well under 30 s.
    config = write_config(tmp_path, r=0.8)
    real_check, verdicts = satcheck.check, {}

    def replaying_check(query, *args, **kwargs):
        key = satcheck.to_smtlib(query)
        if key not in verdicts:
            verdicts[key] = real_check(query, *args, **kwargs)
        return verdicts[key]

    monkeypatch.setattr(satcheck, "check", replaying_check)
    runs = {"casestudy": ["--samples", "5", "--steps", "5"],
            "abstract": [], "analyze": []}
    for name, extra in runs.items():
        out = str(tmp_path / name)
        assert main([name, "--config", config, "--out", out, *extra]) == 0
    capsys.readouterr()
    for model in ("mpetc_bisim.json", "petc_sim.json"):
        blobs = {(tmp_path / name / model).read_bytes() for name in runs}
        assert len(blobs) == 1, model
    assert not (tmp_path / "abstract" / "report.json").exists()
    report = json.loads((tmp_path / "casestudy" / "report.json").read_text())
    assert report["N"] == 5
    assert set(report["timings"]) == {"contraction_s", "abstraction_s",
                                      "validation_s", "total_s"}
    timings = report["timings"]
    assert timings["total_s"] >= (timings["contraction_s"]
                                  + timings["abstraction_s"]
                                  + timings["validation_s"])
    analyze = json.loads((tmp_path / "analyze" / "report.json").read_text())
    assert dict(analyze, timings=None) == dict(report, timings=None)


# Changes to the bundled config that once ended in a traceback or ran
# without end, with the command, its exit code and a text its output
# must hold: expm overflowing at h k = 600 with h_P pinned, and at h in
# the predictive trigger too; A h itself beyond a double; an h_P scan of 1.2e9 periods; a word bound
# of 7.9e327, beyond a double; M(6) = e^-1800 I underflowing to zero, so
# that a sampled run reaches the origin; an entry of 1e200, whose
# closed-loop exponential overflows at every period of the scan; V0 so
# small that the sampling box once rounded to a point (23 witnesses and
# 10 steps of one sampled run are checked); and an h_P so small that
# trace.csv would take 3e300 steps.
DEGENERATE = {
    "overflow": (dict(h=100, h_P=0.4), ["contraction"], EXIT_CONFIG, "M(1)"),
    "trigger_overflow": (dict(h=1000, h_P=0.4), ["contraction"], EXIT_CONFIG,
                         "M(1)"),
    "expm_norm": (dict(h=2, h_P=0.4, A=[[0, 1e308], [-2, 3]]),
                  ["contraction"], EXIT_CONFIG, "with a finite 1-norm"),
    "hP_scan": (dict(hP_resolution=1e-9), ["contraction"], EXIT_CONFIG,
                "hP_resolution"),
    "word_bound": (dict(r=1e-10), ["contraction"], EXIT_OK, "7.873e+327"),
    "origin": (dict(r=0.8, A=[[-3000, 0], [0, -3000]], K=[[0, 0]]),
               ["casestudy", "--out", "out", "--samples", "20", "--steps",
                "10"], EXIT_OK, "simulation sample check: PASS (21 checks)"),
    "huge_entry": (dict(r=0.8, A=[[0, 1e200], [-2, 3]]),
                   ["casestudy", "--out", "out", "--samples", "20",
                    "--steps", "10"], EXIT_NOT_CONTRACTIVE,
                   "keeps the Lyapunov function non-increasing"),
    "tiny_V0": (dict(r=0.8, V0=1e-20),
                ["casestudy", "--out", "out", "--samples", "1", "--steps",
                 "10"], EXIT_OK, "simulation sample check: PASS (33 checks)"),
    "trace": (dict(r=0.8, h_P=1e-300),
              ["casestudy", "--out", "out", "--samples", "1", "--steps",
               "10"], EXIT_OK, "simulation sample check: PASS"),
}


@pytest.mark.parametrize("case", DEGENERATE)
def test_degenerate_inputs_end_with_an_exit_code(case, tmp_path):
    # each in a child process with a timeout: an error is one stderr
    # line, a success none, and neither a traceback
    changes, argv, code, text = DEGENERATE[case]
    config = write_config(tmp_path, **changes)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(petctraffic.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "petctraffic.cli", *argv, "--config", config],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == (code != EXIT_OK)
    assert "Traceback" not in proc.stderr
    assert text in (proc.stderr if code else proc.stdout)
