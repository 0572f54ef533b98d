"""Non-emptiness queries for conjunctions of quadratic-form constraints.

Encodes the semi-algebraic sets behind the traffic abstraction — shell
membership, inter-sample-time cones, sublevel-set exclusions — as
SMT-LIB2 (QF_NRA) scripts, ships them to a solver subprocess, and
certifies every sat answer with an exact rational witness re-verified
against all atoms.  unsat and unknown are passed through as reported.

The default solver is the bundled exact decision procedure
(``python -m petctraffic.qfnra``); any SMT-LIB2-speaking executable can
be substituted via configuration or the PETCTRAFFIC_SOLVER environment
variable (whitespace-split into argv).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .ratlin import RatMatrix, RatVector
from .sysmodel import DiscretizedPetc

DEFAULT_BUDGET_S = 30.0

SUBLEVEL = "sublevel"
UNIT_LEVEL = "unit_level"

_RELS = (">", ">=", "<=", "<", "=")


class SolverTransportError(RuntimeError):
    """The solver process crashed, vanished, or replied with garbage."""


class SolverUnknownError(RuntimeError):
    """A decision was required but the solver answered unknown."""

    def __init__(self, message: str, word=None):
        super().__init__(message)
        self.word = word


@dataclass(frozen=True)
class QuadAtom:
    """One constraint x' F x rel rhs with symmetric rational F."""

    F: RatMatrix
    rel: str
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in _RELS:
            raise ValueError(f"bad relation {self.rel!r}")
        if not ratlin.is_symmetric(self.F):
            raise ValueError("atom matrix must be symmetric")
        object.__setattr__(self, "rhs", Fraction(self.rhs))

    def holds(self, x: RatVector) -> bool:
        v = ratlin.quad_form(self.F, x)
        if self.rel == ">":
            return v > self.rhs
        if self.rel == ">=":
            return v >= self.rhs
        if self.rel == "<=":
            return v <= self.rhs
        if self.rel == "<":
            return v < self.rhs
        return v == self.rhs


@dataclass(frozen=True)
class SatQuery:
    atoms: tuple[QuadAtom, ...]
    n_x: int

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("query needs at least one atom")
        for a in self.atoms:
            if len(a.F) != self.n_x:
                raise ValueError("atom dimension mismatch")

    def holds(self, x: RatVector) -> bool:
        return all(a.holds(x) for a in self.atoms)


@dataclass(frozen=True)
class SatResult:
    status: str  # sat | unsat | unknown
    witness: RatVector | None = None
    solver_time: float = 0.0
    reason: str = ""

    def __post_init__(self):
        if self.status == "sat" and self.witness is None:
            raise ValueError("sat result requires a witness")


def sequence_query(disc: DiscretizedPetc, word, shell: str = SUBLEVEL,
                   terminal: bool = True) -> SatQuery:
    """Feasibility query for the inter-sample word k1..km.

    Atoms, in emission order: the shell atom (x'Px <= V0, or = V0 for
    the unit-level variant), then per position i the cone membership of
    the partial flow Phi_{i-1} x — exclusions x'(Phi' N(j) Phi)x <= 0
    for k_lo <= j < k_i and, unless k_i = k_bar, the strict trigger atom
    for N(k_i) — plus the sublevel exclusion x'(Phi_i' P Phi_i)x > r V0,
    and finally (when ``terminal``) entry x'(Phi_m' P Phi_m)x <= r V0.
    Dropping the terminal atom gives the prefix-feasibility query used
    for pruning.
    """
    word = tuple(int(k) for k in word)
    if not word:
        raise ValueError("word must be non-empty")
    for k in word:
        if not 1 <= k <= disc.k_bar:
            raise ValueError(f"inter-sample index {k} out of 1..{disc.k_bar}")
    n = disc.n_x
    rv0 = disc.r * disc.V0
    rel_shell = "=" if shell == UNIT_LEVEL else "<="
    if shell not in (SUBLEVEL, UNIT_LEVEL):
        raise ValueError(f"bad shell kind {shell!r}")
    atoms = [QuadAtom(disc.P_rat, rel_shell, disc.V0)]
    phi = ratlin.identity(n)
    for k in word:
        for j in range(disc.k_lo, min(k, disc.k_bar)):
            atoms.append(QuadAtom(ratlin.congruence(disc.N[j], phi), "<=",
                                  Fraction(0)))
        if k < disc.k_bar:
            atoms.append(QuadAtom(ratlin.congruence(disc.N[k], phi), ">",
                                  Fraction(0)))
        atoms.append(QuadAtom(ratlin.congruence(disc.P_rat, phi), ">", rv0))
        phi = ratlin.mat_mul(disc.M[k], phi)
    if terminal:
        atoms.append(QuadAtom(ratlin.congruence(disc.P_rat, phi), "<=", rv0))
    return SatQuery(atoms=tuple(atoms), n_x=n)


def contraction_query(disc: DiscretizedPetc, k: int, a: Fraction) -> SatQuery:
    """Counterexample set for the per-sample decrease ratio `a` at step k.

    Nonempty iff some x in the cone of inter-sample time k, normalized
    to the shell x'Px = 1, has V(M(k)x) > a (homogeneity makes the shell
    restriction lossless).
    """
    a = Fraction(a)
    if not 0 < a < 1:
        raise ValueError("a must be in (0, 1)")
    if not disc.k_lo <= k <= disc.k_bar:
        raise ValueError(f"k={k} outside {disc.k_lo}..{disc.k_bar}")
    atoms = [QuadAtom(disc.P_rat, "=", Fraction(1))]
    for j in range(disc.k_lo, k):
        atoms.append(QuadAtom(disc.N[j], "<=", Fraction(0)))
    if k < disc.k_bar:
        atoms.append(QuadAtom(disc.N[k], ">", Fraction(0)))
    atoms.append(QuadAtom(ratlin.congruence(disc.P_rat, disc.M[k]), ">", a))
    return SatQuery(atoms=tuple(atoms), n_x=disc.n_x)


# ---------------------------------------------------------------------------
# SMT-LIB2 encoding


def _smt_rational(v: Fraction) -> str:
    num, den = v.numerator, v.denominator
    if num < 0:
        body = str(-num) if den == 1 else f"(/ {-num} {den})"
        return f"(- {body})"
    return str(num) if den == 1 else f"(/ {num} {den})"


def _smt_form(f: RatMatrix) -> str:
    n = len(f)
    terms = []
    for i in range(n):
        if f[i][i]:
            terms.append(f"(* {_smt_rational(f[i][i])} x{i} x{i})")
        for j in range(i + 1, n):
            c = f[i][j] + f[j][i]
            if c:
                terms.append(f"(* {_smt_rational(c)} x{i} x{j})")
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return f"(+ {' '.join(terms)})"


def to_smtlib(query: SatQuery) -> str:
    """Deterministic SMT-LIB2 v2.6 script for the query."""
    lines = ["(set-logic QF_NRA)"]
    for i in range(query.n_x):
        lines.append(f"(declare-const x{i} Real)")
    for atom in query.atoms:
        rel = atom.rel.replace("≥", ">=").replace("≤", "<=")
        lines.append(f"(assert ({rel} {_smt_form(atom.F)} "
                     f"{_smt_rational(atom.rhs)}))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    lines.append("(exit)")
    return "\n".join(lines) + "\n"


_BUNDLED_CMD = [sys.executable, "-m", "petctraffic.qfnra"]


def default_solver_cmd() -> list[str]:
    env = os.environ.get("PETCTRAFFIC_SOLVER")
    if env:
        return env.split()
    return list(_BUNDLED_CMD)


def _bundled_env() -> dict[str, str]:
    """The environment with the directory this package was imported from
    first on PYTHONPATH, so that ``-m`` finds the package in the child
    also when it is importable only through ``sys.path``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=root + (os.pathsep + path if path else ""))


# ---------------------------------------------------------------------------
# model parsing


def _tok(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_sexpr(tokens, i):
    if tokens[i] != "(":
        return tokens[i], i + 1
    out = []
    i += 1
    while i < len(tokens) and tokens[i] != ")":
        node, i = _parse_sexpr(tokens, i)
        out.append(node)
    return out, i + 1


def _value_to_fraction(node):
    if isinstance(node, str):
        return Fraction(node) if "." in node or "/" in node else Fraction(int(node))
    if not node:
        raise ValueError("empty value")
    if node[0] == "-" and len(node) == 2:
        return -_value_to_fraction(node[1])
    if node[0] == "/" and len(node) == 3:
        return _value_to_fraction(node[1]) / _value_to_fraction(node[2])
    raise ValueError(f"unparseable model value {node!r}")


def parse_model(text: str, n_x: int) -> RatVector | None:
    """Extract x0..x{n-1} from a (model ...) block; None if absent."""
    tokens = _tok(text)
    i = 0
    values: dict[str, Fraction] = {}
    while i < len(tokens):
        if tokens[i] == "(":
            node, i = _parse_sexpr(tokens, i)
            if isinstance(node, list) and node and node[0] == "model":
                entries = node[1:]
            elif isinstance(node, list) and node \
                    and isinstance(node[0], list):
                entries = node
            else:
                entries = [node]
            for e in entries:
                if (isinstance(e, list) and len(e) == 5
                        and e[0] == "define-fun" and e[3] == "Real"):
                    try:
                        values[e[1]] = _value_to_fraction(e[4])
                    except (ValueError, ZeroDivisionError):
                        return None
        else:
            i += 1
    try:
        return tuple(values[f"x{i}"] for i in range(n_x))
    except KeyError:
        return None


def _refine_witness(query: SatQuery, x: RatVector) -> RatVector | None:
    """Dyadic rounding of an inexact model at increasing precision."""
    floats = [float(v) for v in x]
    for prec in (16, 24, 32, 40, 48, 53, 64, 80, 96, 128):
        cand = tuple(Fraction(round(v * (1 << prec)), 1 << prec)
                     for v in floats)
        if query.holds(cand):
            return cand
    return None


# ---------------------------------------------------------------------------
# solver driver


def check(query: SatQuery, budget: float = DEFAULT_BUDGET_S,
          solver_cmd: list[str] | None = None) -> SatResult:
    """Run the query through the solver; certify sat with an exact witness."""
    if not budget > 0:
        raise ValueError("budget must be positive")
    cmd = list(solver_cmd) if solver_cmd else default_solver_cmd()
    env = _bundled_env() if cmd == _BUNDLED_CMD else None
    script = to_smtlib(query)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, input=script, capture_output=True,
                              text=True, timeout=budget, env=env)
    except subprocess.TimeoutExpired:
        return SatResult("unknown", solver_time=time.perf_counter() - t0,
                         reason="solver timeout")
    except OSError as exc:
        raise SolverTransportError(f"cannot run solver {cmd[0]!r}: {exc}") from exc
    elapsed = time.perf_counter() - t0
    out = proc.stdout
    lines = [ln.strip() for ln in out.splitlines() if ln.strip()]
    verdict = next((ln for ln in lines if ln in ("sat", "unsat", "unknown")),
                   None)
    if verdict is None:
        raise SolverTransportError(
            f"solver gave no sat/unsat/unknown (exit {proc.returncode}): "
            f"{out[:500]!r} {proc.stderr[:500]!r}")
    if verdict == "unsat":
        return SatResult("unsat", solver_time=elapsed)
    if verdict == "unknown":
        reason = ""
        for ln in lines:
            if ":reason-unknown" in ln:
                reason = ln
        return SatResult("unknown", solver_time=elapsed, reason=reason)
    x = parse_model(out, query.n_x)
    if x is None:
        raise SolverTransportError(f"sat without a parseable model: {out[:500]!r}")
    if query.holds(x):
        return SatResult("sat", witness=x, solver_time=elapsed)
    refined = _refine_witness(query, x)
    if refined is not None:
        return SatResult("sat", witness=refined, solver_time=elapsed)
    return SatResult("unknown", solver_time=elapsed,
                     reason="model failed exact re-verification")


def contraction_counterexample(disc: DiscretizedPetc, k: int, a,
                               budget: float = DEFAULT_BUDGET_S,
                               solver_cmd: list[str] | None = None) -> SatResult:
    """sat iff the decrease ratio `a` is violated somewhere in cone k."""
    return check(contraction_query(disc, k, Fraction(a)), budget, solver_cmd)
