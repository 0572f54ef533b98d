"""Command-line entry point.

``run_pipeline`` is the one pipeline: discretize, certify a and N, build
both models, read off the bounds.  ``abstract``, ``analyze``, ``verify``
and ``casestudy`` (which also validates the models) run it; ``discretize``
and ``contraction`` stop after their stage.

Exit codes: 0 success; 2 configuration error, an over-long h_P scan or
an M(k) or N(k) beyond a double; 4 solver undecided/abort, or n_x > 2;
5 verification mismatch; 6 not contractive (no periodic period or no
decrease ratio below one exists); 7 a concrete run outgrew the word
horizon; 8 the simulating model has a blocking state; 141 (128 + SIGPIPE)
the reader of stdout closed it.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import abstraction, analysis, contraction, semantics, verify
from .contraction import NotContractiveError
from .satcheck import SolverUnknownError
from .sysmodel import DiscretizedPetc, PetcSystem, rationalize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNDECIDED = 4
EXIT_MISMATCH = 5
EXIT_NOT_CONTRACTIVE = 6
EXIT_HORIZON = 7
EXIT_BLOCKING = 8
EXIT_BROKEN_PIPE = 141


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration


def load_config(path: str | Path | None) -> dict:
    """Read a JSON config; numeric literals become exact Fractions."""
    if path is None:
        ref = importlib.resources.files("petctraffic.data") / "casestudy.json"
        text = ref.read_text()
    else:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text, parse_float=Fraction, parse_int=Fraction)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON in config: {exc}") from exc
    _validate_config(cfg)
    return cfg


_REQUIRED = ("A", "B", "K", "P_lyap", "h", "k_bar", "r")
# optional numeric fields and their open ranges (None: unbounded)
_RANGES = {"a_tol": (0, 1), "hP_resolution": (0, None), "h_P": (0, None)}


def _double(x: Fraction) -> float:
    """float(x), which the float stages read; a nonzero x that it would
    round to 0.0 raises FloatingPointError."""
    f = float(x)
    if x and not f:
        raise FloatingPointError(f"{x} rounds to 0.0")
    return f


def _validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key in _REQUIRED:
        if key not in cfg:
            raise ConfigError(f"missing config field {key!r}")
    for key, value in cfg.items():
        try:  # float() of every number in the field, nested ones too
            json.dumps(value, default=_double)
        except OverflowError as exc:
            raise ConfigError(f"{key} has a number beyond a double") from exc
        except FloatingPointError as exc:
            raise ConfigError(f"{key} has a number below the range of a "
                              f"double") from exc
    k_bar, seed = cfg["k_bar"], cfg.get("seed", Fraction(0))
    if not (isinstance(k_bar, Fraction) and k_bar.denominator == 1
            and k_bar >= 1):
        raise ConfigError("k_bar must be an integer >= 1")
    if not (isinstance(seed, Fraction) and seed.denominator == 1):
        raise ConfigError("seed must be an integer")
    for key, (lo, hi) in _RANGES.items():
        v = cfg.get(key)
        if key in cfg and not (isinstance(v, Fraction) and lo < v
                               and (hi is None or v < hi)):
            raise ConfigError(f"{key} must be a number in "
                              f"({lo}, {'inf' if hi is None else hi})")
    direct = "Q_trig" in cfg
    predictive = any(k in cfg for k in ("Q_lyap", "rho"))
    if direct and predictive:
        raise ConfigError(
            "give either Q_trig or the predictive trigger data "
            "{Q_lyap, rho}, not both")
    if not direct:
        for key in ("Q_lyap", "rho"):
            if key not in cfg:
                raise ConfigError(f"predictive trigger needs {key!r}")


def build_system(cfg: dict) -> PetcSystem:
    try:
        return PetcSystem(A=cfg["A"], B=cfg["B"], K=cfg["K"], P=cfg["P_lyap"],
                          h=cfg["h"], k_bar=int(cfg["k_bar"]), r=cfg["r"],
                          V0=cfg.get("V0", 1), Q_trig=cfg.get("Q_trig"),
                          Q_lyap=cfg.get("Q_lyap"), rho=cfg.get("rho"))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad system data: {exc}") from exc


def make_disc(cfg: dict) -> DiscretizedPetc:
    """The discretized loop at the pinned h_P, which must pass the scan's
    condition, or else at the h_P of the scan.  A scan too long to run,
    or a matrix that a double cannot hold, is a configuration error."""
    sys_ = build_system(cfg)
    try:
        if "h_P" in cfg:
            h_p = Fraction(cfg["h_P"])
            if not contraction.hP_condition(sys_, h_p):
                raise NotContractiveError(
                    f"the pinned h_P = {h_p} lets the Lyapunov function "
                    "increase under periodic sampling")
        else:
            h_p = contraction.compute_hP(sys_, resolution=Fraction(
                cfg.get("hP_resolution", contraction.DEFAULT_HP_RESOLUTION)))
        return rationalize(sys_, h_p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# the pipeline


def run_contraction(cfg: dict, disc: DiscretizedPetc):
    cert = contraction.compute_a(
        disc, tol=Fraction(cfg.get("a_tol", contraction.DEFAULT_A_TOL)))
    n = contraction.compute_N(cert.a, disc.r)
    k_size = disc.k_bar - disc.k_lo + 1
    bounds = contraction.trace_count_bounds(max(k_size, 2), n)
    return cert, n, bounds


@dataclass(frozen=True)
class PipelineResult:
    disc: DiscretizedPetc
    cert: contraction.ContractionCert
    N: int
    bounds: tuple[int, int]
    bisim: abstraction.TrafficModel
    sim: abstraction.TrafficModel
    report: analysis.AnalysisReport

    @property
    def timings(self) -> dict[str, float]:
        """The report's timings; stages run later add to them."""
        return self.report.timings


def run_pipeline(cfg: dict, assume_sat: bool = False) -> PipelineResult:
    """Discretize, certify a and N, build both models and read off the
    bounds.  ``contraction_s`` leaves out the h_P scan of make_disc."""
    disc = make_disc(cfg)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    cert, n, bounds = run_contraction(cfg, disc)
    timings["contraction_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    bisim = abstraction.build_mpetc_bisim(disc, n, assume_sat=assume_sat)
    sim = abstraction.build_petc_sim(disc, bisim, assume_sat=assume_sat)
    timings["abstraction_s"] = time.perf_counter() - t0
    rep = analysis.report(bisim, sim, cert.a, n, disc.k_lo, disc.r, disc.h,
                          bounds, timings, cert.bisection_trace)
    return PipelineResult(disc, cert, n, bounds, bisim, sim, rep)


def out_dir(path) -> Path:
    """path, checked before any work: a directory can be made there if
    its nearest existing ancestor is one.  export makes it."""
    out = Path(path)
    top = next(p for p in (out, *out.parents) if p.exists())
    if not top.is_dir():
        raise ConfigError(f"cannot create --out {out}: {top} is no directory")
    return out


def export(out: Path, models, rep=None) -> None:
    """Each model as <kind>.json and <kind>.dot, the report as
    report.json and report.txt."""
    out.mkdir(parents=True, exist_ok=True)
    for model in models:
        for fmt in ("json", "dot"):
            (out / f"{model.kind}.{fmt}").write_bytes(
                abstraction.export_model(model, fmt))
    if rep is not None:
        (out / "report.json").write_bytes(rep.to_json().encode())
        (out / "report.txt").write_bytes(rep.render().encode())


def load_models(out: Path):
    models = []
    for kind in (abstraction.MPETC_BISIM, abstraction.PETC_SIM):
        path = out / f"{kind}.json"
        try:
            model = abstraction.import_model(path.read_bytes())
        except (OSError, ValueError, KeyError, TypeError, IndexError,
                ZeroDivisionError) as exc:
            raise ConfigError(f"bad model file {path}: "
                              f"{type(exc).__name__}: {exc}") from exc
        if model.kind != kind:
            raise ConfigError(f"{path} holds a {model.kind} model")
        models.append(model)
    return models


def _counts(args) -> tuple[int, int]:
    """--samples and --steps, each an integer >= 0."""
    for flag in ("samples", "steps"):
        text = getattr(args, flag)
        if not text.isdecimal():
            raise ConfigError(f"--{flag} must be an integer >= 0, "
                              f"not {text!r}")
    return int(args.samples), int(args.steps)


def _validate(disc: DiscretizedPetc, bisim, sim, samples: int, steps: int,
              seed: int) -> bool:
    rep1 = verify.check_bisim_sample(disc, bisim, samples, seed=seed)
    rep2 = verify.check_sim_petc(disc, sim, samples, steps, seed=seed + 1)
    print(rep1.render())
    print(rep2.render())
    return rep1.passed and rep2.passed


# ---------------------------------------------------------------------------
# subcommands


def cmd_discretize(args) -> int:
    cfg = load_config(args.config)
    disc = make_disc(cfg)
    print(f"h = {disc.h} ({float(disc.h):.6g} s), k_bar = {disc.k_bar}, "
          f"h_P = {disc.h_P} ({float(disc.h_P):.6g} s), k_lo = {disc.k_lo}")
    for k in disc.K_range:
        for name, m in (("M", disc.M[k]), ("N", disc.N[k])):
            print(f"{name}({k}) =")
            for row in m:
                print(" ".join(f"{float(e):12.6g}" for e in row))
    return EXIT_OK


def cmd_contraction(args) -> int:
    cfg = load_config(args.config)
    disc = make_disc(cfg)
    cert, n, bounds = run_contraction(cfg, disc)
    print(f"a   = {float(cert.a):.6g} (tol {float(cert.tol):.1e}, "
          f"{len(cert.bisection_trace)} bisection probes)")
    print(f"h_P = {float(disc.h_P):.6g}")
    print(f"k_lo = {disc.k_lo}")
    print(f"N   = {n}")
    print(f"word bound (closed form)   = {analysis.sci(bounds[0], 3)}")
    print(f"word bound (geometric sum) = {analysis.sci(bounds[1], 3)}")
    return EXIT_OK


def cmd_abstract(args) -> int:
    cfg = load_config(args.config)
    out = out_dir(args.out)
    if args.trivial:
        disc = make_disc(cfg)
        _, n, _ = run_contraction(cfg, disc)
        try:
            model = abstraction.build_trivial(
                list(disc.K_range), n, h=disc.h, h_P=disc.h_P)
        except ValueError as exc:
            raise ConfigError(f"trivial model at N = {n}: {exc}") from exc
        export(out, [model])
        print(f"trivial model: {len(model.states)} states -> {out}")
        return EXIT_OK
    res = run_pipeline(cfg, args.assume_sat)
    export(out, [res.bisim, res.sim])
    print(f"bisimilar model: {res.bisim.n_states(False)} states (+ eps); "
          f"simulating model: {res.sim.n_states(False)} states -> {out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    out = args.out and out_dir(args.out)
    res = run_pipeline(load_config(args.config), args.assume_sat)
    print(res.report.render(), end="")
    if out:
        export(out, [res.bisim, res.sim], res.report)
    return EXIT_OK


def cmd_verify(args) -> int:
    samples, steps = _counts(args)
    cfg = load_config(args.config)
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    if args.models:
        bisim, sim = load_models(Path(args.models))
        disc = make_disc(cfg)
        if disc.n_x > 2:  # the integer orbits step one or two variables
            raise SolverUnknownError(f"{disc.n_x} variables not supported")
    else:
        res = run_pipeline(cfg)
        disc, bisim, sim = res.disc, res.bisim, res.sim
    if not _validate(disc, bisim, sim, samples, steps, seed):
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_casestudy(args) -> int:
    samples, steps = _counts(args)
    cfg = load_config(args.config)
    out = out_dir(args.out)
    t_all = time.perf_counter()
    res = run_pipeline(cfg)
    disc, rep = res.disc, res.report
    export(out, [res.bisim, res.sim])
    print(f"a = {float(res.cert.a):.6g}, h_P = {float(disc.h_P):.6g}, "
          f"k_lo = {disc.k_lo}, N = {res.N}")
    print(f"bisimilar words: {res.bisim.n_states(False)} (+ eps), "
          f"simulating words: {res.sim.n_states(False)}")
    print(rep.render(), end="")

    # sample trajectory from the arg-max word's witness, for plotting
    x0 = res.sim.witnesses.get(rep.f_star_word)
    if x0 is not None:
        trace = semantics.simulate_trace(disc, x0, horizon=3 * rep.T_star_sim)
        (out / "trace.csv").write_bytes(trace.to_csv(disc).encode())

    t0 = time.perf_counter()
    passed = _validate(disc, res.bisim, res.sim, samples, steps,
                       int(cfg.get("seed", 0)))
    res.timings["validation_s"] = time.perf_counter() - t0
    res.timings["total_s"] = time.perf_counter() - t_all
    export(out, [], rep)
    print(f"total wall time: {res.timings['total_s']:.1f} s")
    return EXIT_OK if passed else EXIT_MISMATCH


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petctraffic",
        description="Finite traffic models and certified bounds for "
                    "event-triggered control loops")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--config", default=None,
                       help="JSON config (default: bundled case study)")
        p.set_defaults(fn=fn)
        return p

    add("discretize", cmd_discretize,
        help="print the k-step transition matrices and trigger forms")
    add("contraction", cmd_contraction,
        help="certify the decrease ratio, periodic period and horizon")

    p = add("abstract", cmd_abstract,
            help="build and export the bisimilar and simulating models")
    p.add_argument("--trivial", action="store_true",
                   help="export every word up to the horizon instead")
    p.add_argument("--out", default="models")
    p.add_argument("--assume-sat", action="store_true",
                   help="keep undecided words (over-approximating model)")

    p = add("analyze", cmd_analyze, help="build models and print the report")
    p.add_argument("--out", default=None)
    p.add_argument("--assume-sat", action="store_true")

    p = add("verify", cmd_verify, help="randomized model validation")
    p.add_argument("--samples", default="100")
    p.add_argument("--steps", default="20")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--models", default=None,
                   help="directory with previously exported model JSON")

    p = add("casestudy", cmd_casestudy,
            help="full pipeline on the bundled example")
    p.add_argument("--out", default="casestudy_out")
    p.add_argument("--samples", default="100")
    p.add_argument("--steps", default="20")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull, so
        # that the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverUnknownError as exc:
        print(f"solver could not decide: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except NotContractiveError as exc:
        print(f"not contractive: {exc}", file=sys.stderr)
        return EXIT_NOT_CONTRACTIVE
    except semantics.HorizonExceededError as exc:
        print(f"horizon exceeded: no periodic-set entry within "
              f"{len(exc.word)} steps of a sampled run", file=sys.stderr)
        return EXIT_HORIZON
    except abstraction.BlockingStateError as exc:
        print(f"blocking state: {exc}", file=sys.stderr)
        return EXIT_BLOCKING


if __name__ == "__main__":
    sys.exit(main())
