"""One pipeline pass in a fresh process: ``petctraffic casestudy``.

    python3 perfbench/passrun.py CONFIG OUT_DIR SAMPLES STEPS SPAWN_NS TRACE

SPAWN_NS is the CLOCK_MONOTONIC reading (ns) of the parent just before
it started this process, so set-up time covers interpreter start,
imports and config load.  With SAMPLES = 0 the process stops once the
config is loaded (a set-up probe).  The pass writes ``pass.json`` into
OUT_DIR and, when TRACE is 1, the spans as ``trace.jsonl``.  The solver
children must be able to import petctraffic: the caller sets PYTHONPATH.
"""

import sys
import time


def peak_rss_mb() -> float:
    """High-water resident size of this process's own address space.

    Not ``ru_maxrss``: exec folds the peak of the address space the
    process was spawned from (its parent's) into that figure, and the
    same makes ``RUSAGE_CHILDREN`` useless for the solver children."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    config, out_dir, samples, steps, spawn_ns, trace = argv
    t_spawn = int(spawn_ns) / 1e9

    import json
    from pathlib import Path

    from petctraffic import cli
    from tracer import LayerTrace, Tracer, install_e2e

    out = Path(out_dir)
    if int(samples) == 0:
        cli.load_config(config)
        (out / "setup.json").write_text(json.dumps(
            {"setup_s": time.perf_counter() - t_spawn}))
        return 0

    tracer = Tracer()
    install_e2e(tracer)
    layers = None
    if trace == "1":
        layers = LayerTrace(tracer)
        layers.install()
    rc = cli.main(["casestudy", "--config", config, "--out", str(out),
                   "--samples", samples, "--steps", steps])
    t_end = time.perf_counter()

    loaded = [s for s in tracer.spans if s.name == "cli.load_config"][0]
    # perf_counter and CLOCK_MONOTONIC are the same clock on Linux
    result = {
        "rc": rc,
        "setup_s": loaded.end - t_spawn,
        "pipeline_s": t_end - loaded.end,
        "validate_s": (tracer.total("verify.check_bisim_sample")
                       + tracer.total("verify.check_sim_petc")),
        "peak_rss_mb": peak_rss_mb(),
    }
    if layers is not None:
        result["layers"] = layers.metrics()
        result["verdict_mismatches"] = layers.mismatches
        tracer.write_jsonl(out / "trace.jsonl")
    (out / "pass.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
