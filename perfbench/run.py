"""Pipeline benchmark for petctraffic: ``petctraffic casestudy`` end to end.

    python3 perfbench/run.py --workload fast --seed 1 --seconds 50 --trace 0

Run from the repository root.  Each operation is one pass of the
``casestudy`` pipeline (config -> h_P scan -> certified a and N ->
mpetc_bisim and petc_sim -> f*, T*, b* -> exported models and report ->
randomized exact validation) in a fresh Python process; passes repeat
while the next one still fits in ``--seconds`` (at least one).  After
each pass, and outside its timing, the outputs are checked by
``checks.py``.  A pass fails when the pipeline exits non-zero or a check
fails.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
round as an untraced pass followed by a traced one and prints the
per-layer metrics of the traced passes (see README.md).  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# r is the only change to the bundled loop; the validation sizes are the
# casestudy subcommand's --samples and --steps.
WORKLOADS = {
    # deep word tree (up to 11 letters): qfnra decide time dominates.
    # One pass takes several minutes, so it is run by hand only.
    "casestudy": dict(r=None, samples=100, steps=20, long_runs=None,
                      timeout_s=1800),
    # shallow tree (N = 5): the per-query solver process dominates
    "fast": dict(r=0.8, samples=150, steps=20, long_runs=None,
                 timeout_s=170),
    # the build of fast with long exact validation runs: semantics and
    # verify dominate
    "replay": dict(r=0.8, samples=20, steps=120, long_runs=(20, 200),
                   timeout_s=170),
}
COVERAGE_SAMPLES = 100
SETUP_PROBES = 10

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "contraction_s": "s",
                    "abstraction_s": "s", "validate_s": "s",
                    "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def write_config(src: Path, out: Path, workload: dict, seed: int) -> Path:
    # floats print as the shortest decimal that reads back to them, so
    # the program parses the same exact rationals as in the bundled file
    cfg = json.loads((src / "petctraffic" / "data" / "casestudy.json")
                     .read_text())
    if workload["r"] is not None:
        cfg["r"] = workload["r"]
    cfg["solver"]["path"] = None
    cfg["solver"]["workers"] = min(cfg["solver"]["workers"], nproc())
    cfg["seed"] = seed
    path = out / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, root: Path, name: str, seed: int):
        self.root = root
        self.src = root / "src"
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.out = root / ".bench_out" / name
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.config = write_config(self.src, self.out, self.workload, seed)
        self.env = dict(os.environ)
        self.env.pop("PETCTRAFFIC_SOLVER", None)
        # the solver child (python -m petctraffic.qfnra) imports the package
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.n_pass = 0

    def spawn(self, samples: int, steps: int, traced: bool) -> Path:
        self.n_pass += 1
        d = self.out / f"pass{self.n_pass}"
        d.mkdir()
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        with open(d / "stdout.log", "w") as log:
            # its own process group, so that a timeout also ends the
            # solver processes the pass started
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "passrun.py"), str(self.config),
                 str(d), str(samples), str(steps), str(spawn_ns),
                 "1" if traced else "0"],
                stdout=log, stderr=subprocess.STDOUT, env=self.env,
                cwd=self.root, start_new_session=True)
            try:
                proc.wait(timeout=self.workload["timeout_s"])
            except BaseException as exc:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise PassError(f"pass timed out after "
                                    f"{self.workload['timeout_s']} s")
                raise
        if proc.returncode != 0:
            raise PassError(f"pass process exited {proc.returncode}; "
                            f"see {d / 'stdout.log'}")
        return d

    def setup_probe(self) -> float:
        d = self.spawn(0, 0, False)
        return json.loads((d / "setup.json").read_text())["setup_s"]


class PassError(RuntimeError):
    pass


class Checker:
    """Runs every check on a pass's outputs; keeps what spans passes."""

    def __init__(self, runner: Runner):
        sys.path.insert(0, str(runner.src))
        from petctraffic import cli
        import checks

        self.checks = checks
        self.runner = runner
        self.cfg = cli.load_config(runner.config)
        self.disc = cli.make_disc(self.cfg)
        self.coverage = None
        self.freqs = None
        self.digests: dict[str, str] | None = None
        self.store = runner.root / ".bench_out" / "digests.json"
        # the models depend on the sources and the config, not the seed
        loop = dict(json.loads(runner.config.read_text()), seed=None)
        self.key = hashlib.sha256(
            (tree_digest(runner.src) + json.dumps(loop, sort_keys=True))
            .encode()).hexdigest()

    def __call__(self, d: Path, result: dict) -> list[str]:
        c = self.checks
        seed = 7919 * self.runner.seed
        report = c.load_report(d / "report.json")
        bisim = c.load_model(d / "mpetc_bisim.json")
        sim = c.load_model(d / "petc_sim.json")
        a = Fraction(report["a"])
        if self.coverage is None:
            self.coverage = c.Coverage.compute(self.disc, a, COVERAGE_SAMPLES,
                                               seed + 1)
        bad = (c.check_contraction(self.disc, report, self.cfg["a_tol"])
               + c.check_tree(bisim) + c.check_sim(bisim, sim)
               + c.check_witnesses(self.disc, bisim, sim, a)
               + c.check_discretization(self.disc, self.cfg)
               + self.coverage.check(bisim, sim)
               + c.check_bounds(self.disc, report, bisim, sim))
        long_runs = self.runner.workload["long_runs"]
        if long_runs is not None:
            if self.freqs is None:
                self.freqs = c.long_run_frequencies(self.disc, a, *long_runs,
                                                    seed + 3)
            bad += self.freqs[1] + c.check_frequencies(self.freqs[0], report)
        if self.runner.name == "casestudy":
            bad += c.check_paper(self.disc, report, bisim)
        bad += self.check_determinism(d, report)
        bad += [f"in-process qfnra verdict differs: {m}"
                for m in result.get("verdict_mismatches", [])]
        return bad

    def check_determinism(self, d: Path, report: dict) -> list[str]:
        """Models and report (timings aside) are byte-identical across all
        passes of the same sources and config in this checkout."""
        report = dict(report, timings=None)
        digests = {
            "mpetc_bisim.json": hashlib.sha256(
                (d / "mpetc_bisim.json").read_bytes()).hexdigest(),
            "petc_sim.json": hashlib.sha256(
                (d / "petc_sim.json").read_bytes()).hexdigest(),
            "report": hashlib.sha256(
                json.dumps(report, sort_keys=True).encode()).hexdigest(),
        }
        if self.digests is None:
            stored = (json.loads(self.store.read_text())
                      if self.store.is_file() else {})
            self.digests = stored.setdefault(self.key, digests)
            self.store.write_text(json.dumps(stored, indent=1))
        return [f"{name} differs from an earlier pass"
                for name, h in digests.items() if self.digests[name] != h]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # a terminated run unwinds, so that Runner.spawn ends the running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "petctraffic" / "cli.py").is_file():
        print("run from the repository root: src/petctraffic is missing",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    checker = Checker(runner)
    wl = runner.workload

    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    attempted = failed = 0
    correct = True
    t0 = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for is_traced in ((False, True) if args.trace else (False,)):
            attempted += 1
            try:
                d = runner.spawn(wl["samples"], wl["steps"], is_traced)
                result = json.loads((d / "pass.json").read_text())
                if result["rc"] != 0:
                    raise PassError(f"pipeline exited {result['rc']}; "
                                    f"see {d / 'stdout.log'}")
            except PassError as exc:
                failed += 1
                print(f"pass {attempted} failed: {exc}", file=sys.stderr)
                continue
            try:
                bad = checker(d, result)
            except (OSError, KeyError, ValueError) as exc:
                bad = [f"outputs in {d} unreadable: {exc!r}"]
            if bad:
                failed += 1
                correct = False
                print(f"pass {attempted} failed {len(bad)} checks:",
                      *bad[:20], sep="\n  ", file=sys.stderr)
                continue
            report = json.loads((d / "report.json").read_text())
            result.update(report["timings"])
            setups.append(result["setup_s"])
            (traced if is_traced else untraced).append(result)
        now = time.perf_counter()
        if now - t0 + (now - t_round) > args.seconds:
            break

    if not untraced or (args.trace and not traced):
        print("no pass succeeded", file=sys.stderr)
        return 1

    def med(passes, key):
        return statistics.median(p[key] for p in passes)

    if args.trace:
        units = layer_units()
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in units if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (med(traced, "pipeline_s")
                                       - med(untraced, "pipeline_s"))
    else:
        units = END_TO_END_UNITS
        metrics = {"setup_s": statistics.median(setups)}
        metrics.update({k: med(untraced, k) for k in units if k != "setup_s"})
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
