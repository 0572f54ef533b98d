"""In-memory spans around the public functions of each petctraffic module.

The tracer patches each function under the name its caller looks it up
by (``cli`` imports ``rationalize`` by name, ``abstraction`` calls
``satcheck.check`` through the module, ``satcheck.check`` calls
``to_smtlib`` as a module global, ...), so the program under test is
measured without editing it.  Spans stay in memory; ``write_jsonl``
writes them once, at the end of a pass, with each span's self time
(its duration minus that of its children).

Only this module knows the program's internal call structure.  An
untraced pass installs the three end-to-end hooks alone; a traced pass
installs every layer.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field

from petctraffic import (abstraction, analysis, cli, contraction, qfnra,
                         satcheck, semantics, verify)

# words of up to this many letters get their own satcheck.len<L>.* figures
MAX_WORD_LEN = 11


@dataclass
class Span:
    id: int
    parent: int
    name: str
    thread: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        """fn recording a span per call; attrs(args, result) -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            span = Span(sid, parent, name, threading.get_ident(), t0, t1)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            self.spans.append(span)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace owner.attr by its wrapped self for the rest of the
        process."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def total(self, name: str) -> float:
        return sum(s.dur for s in self.spans if s.name == name)

    def write_jsonl(self, path) -> None:
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
        t_first = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "thread": s.thread, "start_s": s.start - t_first,
                    "dur_s": s.dur,
                    "self_s": s.dur - child_time.get(s.id, 0.0),
                    **s.attrs}) + "\n")


def install_e2e(tracer: Tracer) -> None:
    """The hooks the end-to-end metrics need: the end of set-up (config
    loaded) and the two validation checks."""
    tracer.patch(cli, "load_config", "cli.load_config")
    tracer.patch(verify, "check_bisim_sample", "verify.check_bisim_sample",
                 lambda a, kw, rep: {"checks": rep.n_checked})
    tracer.patch(verify, "check_sim_petc", "verify.check_sim_petc",
                 lambda a, kw, rep: {"checks": rep.n_checked})


class LayerTrace:
    """Spans around every layer, plus the in-process qfnra re-decision of
    each solver query, compared with the subprocess verdict."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.query_info: dict[int, dict] = {}
        self.mismatches: list[dict] = []
        self.max_coeff_bits = 0
        self._to_smtlib = satcheck.to_smtlib
        self._lock = threading.Lock()

    def _coeff_bits(self, query) -> int:
        bits = 0
        for atom in query.atoms:
            for row in atom.F:
                for v in row:
                    bits = max(bits, v.numerator.bit_length(),
                               v.denominator.bit_length())
            bits = max(bits, atom.rhs.numerator.bit_length(),
                       atom.rhs.denominator.bit_length())
        return bits

    def _record_query(self, query, info: dict) -> None:
        bits = self._coeff_bits(query)
        with self._lock:
            self.max_coeff_bits = max(self.max_coeff_bits, bits)
            self.query_info[id(query)] = info

    def _sequence_attrs(self, args, kwargs, query):
        word = args[1] if len(args) > 1 else kwargs["word"]
        terminal = args[3] if len(args) > 3 else kwargs.get("terminal", True)
        info = {"wlen": len(word), "terminal": bool(terminal)}
        self._record_query(query, info)
        return info

    def _contraction_attrs(self, args, kwargs, query):
        info = {"wlen": 0, "terminal": True}
        self._record_query(query, info)
        return info

    def _check_attrs(self, args, kwargs, result):
        query = args[0]
        with self._lock:
            info = self.query_info.pop(id(query), {"wlen": 0,
                                                   "terminal": True})
        return {**info, "status": result.status}

    def _traced_check(self, check):
        decide_span = self.tracer.wrap("qfnra.decide", self._decide)

        @functools.wraps(check)
        def traced_check(query, *args, **kwargs):
            result = check(query, *args, **kwargs)
            # decided again in process, outside the check span, on the
            # same SMT-LIB text the subprocess read
            verdict = decide_span(self._to_smtlib(query))
            if verdict != result.status:
                self.mismatches.append({"subprocess": result.status,
                                        "in_process": verdict,
                                        "atoms": len(query.atoms)})
            return result

        return traced_check

    @staticmethod
    def _decide(script: str) -> str:
        out = io.StringIO()
        qfnra.run_script(script, out)
        return out.getvalue().split("\n", 1)[0].strip()

    def install(self) -> None:
        t = self.tracer
        t.patch(cli, "rationalize", "sysmodel.rationalize")
        t.patch(contraction, "compute_hP", "contraction.compute_hP")
        t.patch(contraction, "compute_a", "contraction.compute_a",
                lambda a, kw, cert: {"probes": len(cert.bisection_trace)})
        t.patch(contraction, "compute_N", "contraction.compute_N")
        t.patch(satcheck, "contraction_counterexample",
                "satcheck.contraction_counterexample")
        t.patch(satcheck, "contraction_query", "satcheck.contraction_query",
                self._contraction_attrs)
        t.patch(satcheck, "sequence_query", "satcheck.sequence_query",
                self._sequence_attrs)
        t.patch(satcheck, "to_smtlib", "satcheck.to_smtlib")
        t.patch(satcheck, "parse_model", "satcheck.parse_model")
        t.patch(satcheck.SatQuery, "holds", "satcheck.SatQuery.holds")
        t.patch(satcheck, "check", "satcheck.check", self._check_attrs)
        satcheck.check = self._traced_check(satcheck.check)
        t.patch(abstraction, "build_mpetc_bisim",
                "abstraction.build_mpetc_bisim",
                lambda a, kw, m: {"words": m.n_states(False)})
        t.patch(abstraction, "build_petc_sim", "abstraction.build_petc_sim",
                lambda a, kw, m: {"words": m.n_states(False)})
        t.patch(abstraction, "domino_edges", "abstraction.domino_edges")
        t.patch(abstraction, "export_model", "abstraction.export_model")
        t.patch(analysis, "report", "analysis.report")
        t.patch(semantics, "petc_step", "semantics.petc_step")
        t.patch(semantics, "mpetc_step", "semantics.mpetc_step")
        t.patch(semantics, "concrete_sequence", "semantics.concrete_sequence")
        t.patch(semantics, "simulate_trace", "semantics.simulate_trace")

    def metrics(self) -> dict[str, float]:
        """The per-layer figures of one traced pass."""
        t = self.tracer
        by_name: dict[str, list[Span]] = {}
        for s in t.spans:
            by_name.setdefault(s.name, []).append(s)

        def total(name):
            return sum(s.dur for s in by_name.get(name, ()))

        checks = by_name.get("satcheck.check", [])
        word_checks = [s for s in checks if s.attrs["wlen"] > 0]
        status = [s.attrs["status"] for s in checks]
        check_ms = sorted(s.dur * 1e3 for s in checks)
        decide_ms = sorted(s.dur * 1e3
                           for s in by_name.get("qfnra.decide", ()))
        encode_in_check = total("satcheck.to_smtlib")
        parse = total("satcheck.parse_model")
        reverify = total("satcheck.SatQuery.holds")
        decide = total("qfnra.decide")
        bisim = by_name.get("abstraction.build_mpetc_bisim", [])
        sim = by_name.get("abstraction.build_petc_sim", [])
        kept = (sum(s.attrs["words"] for s in bisim)
                + sum(s.attrs["words"] for s in sim))
        steps = (by_name.get("semantics.petc_step", [])
                 + by_name.get("semantics.mpetc_step", []))
        step_s = sum(s.dur for s in steps)
        m = {
            "sysmodel.rationalize_s": total("sysmodel.rationalize"),
            "contraction.hP_scan_s": total("contraction.compute_hP"),
            "contraction.compute_a_s": total("contraction.compute_a"),
            "contraction.probes": sum(
                s.attrs["probes"]
                for s in by_name.get("contraction.compute_a", ())),
            "contraction.queries": len(
                by_name.get("satcheck.contraction_counterexample", ())),
            "satcheck.queries": len(checks),
            "satcheck.sat": status.count("sat"),
            "satcheck.unsat": status.count("unsat"),
            "satcheck.unknown": status.count("unknown"),
            "satcheck.max_coeff_bits": self.max_coeff_bits,
            "satcheck.check_s": total("satcheck.check"),
            "satcheck.encode_s": (total("satcheck.sequence_query")
                                  + total("satcheck.contraction_query")
                                  + encode_in_check),
            "satcheck.parse_s": parse,
            "satcheck.reverify_s": reverify,
            "satcheck.transport_s": (total("satcheck.check") - encode_in_check
                                     - parse - reverify - decide),
            "satcheck.query_p50_ms": _median(check_ms),
            "satcheck.query_tail_ms": tail(check_ms),
        }
        for n in range(1, MAX_WORD_LEN + 1):
            at_n = [s for s in word_checks if s.attrs["wlen"] == n]
            m[f"satcheck.len{n}.queries"] = len(at_n)
            m[f"satcheck.len{n}.check_s"] = sum(s.dur for s in at_n)
        m.update({
            "qfnra.decide_s": decide,
            "qfnra.decide_p50_ms": _median(decide_ms),
            "abstraction.bisim_s": total("abstraction.build_mpetc_bisim"),
            "abstraction.sim_s": total("abstraction.build_petc_sim"),
            "abstraction.domino_s": total("abstraction.domino_edges"),
            "abstraction.export_s": total("abstraction.export_model"),
            "abstraction.prefix_unsat": sum(
                1 for s in word_checks
                if not s.attrs["terminal"] and s.attrs["status"] == "unsat"),
            "abstraction.kept_ratio": kept / len(word_checks)
            if word_checks else 0.0,
            "abstraction.bisim_words": sum(s.attrs["words"] for s in bisim),
            "abstraction.sim_words": sum(s.attrs["words"] for s in sim),
            "analysis.report_s": total("analysis.report"),
            "semantics.petc_steps": len(
                by_name.get("semantics.petc_step", ())),
            "semantics.mpetc_steps": len(
                by_name.get("semantics.mpetc_step", ())),
            "semantics.step_s": step_s,
            "semantics.step_us": step_s / len(steps) * 1e6 if steps else 0.0,
            "verify.bisim_check_s": total("verify.check_bisim_sample"),
            "verify.sim_check_s": total("verify.check_sim_petc"),
            "verify.checks": sum(
                s.attrs["checks"] for s in
                by_name.get("verify.check_bisim_sample", [])
                + by_name.get("verify.check_sim_petc", [])),
        })
        return m


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(sorted_values) -> float:
    """The highest of p99.9, p99 and p90 with at least ten samples above
    it (nearest rank), or the maximum when there are fewer than 100."""
    n = len(sorted_values)
    if not n:
        return 0.0
    for q in (0.999, 0.99, 0.9):
        if n * (1 - q) >= 10:
            return sorted_values[min(n - 1, int(q * n))]
    return sorted_values[-1]
