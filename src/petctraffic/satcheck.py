"""Non-emptiness queries for conjunctions of quadratic-form constraints.

Builds the semi-algebraic sets behind the traffic abstraction — shell
membership, inter-sample-time cones, sublevel-set exclusions — as
conjunctions of quadratic-form atoms.  ``check`` decides a homogeneous
query (every right-hand side 0) in process with ``qfnra.decide`` and
returns its ``qfnra.SatResult`` unchanged, unless a sat witness fails
the exact re-verification of ``SatQuery.holds`` (``qfnra.verify_witness``
on every atom); then the query is unknown.
The contraction queries are homogeneous and go through ``check``.  A
word query, as ``sequence_query`` writes it, bounds V(x) by V0 and r V0;
``wordtree`` decides it on homogeneous forms with the same sign-test
kernel, on one word tree for both model builds, and leaves out the
sublevel terminal atoms, which the certified decrease implies.  It
re-verifies each witness without building the query, on the integer
run of ``semantics.IntegerStepper.entry_run`` (``WordEngine.holds``);
the written query's ``holds`` is the reference it is tested against.

``to_smtlib`` and ``parse_model`` write a query as an SMT-LIB2
(QF_NRA) script and read a model back, with the S-expression reader of
``qfnra``; the pipeline does not call them, but they let
``qfnra.run_script`` decide the same query from its text.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import qfnra, ratlin
from .qfnra import SatResult
from .ratlin import RatMatrix, RatVector
from .sysmodel import DiscretizedPetc

SUBLEVEL = "sublevel"
UNIT_LEVEL = "unit_level"

_RELS = (">", ">=", "<=", "<", "=")


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
        return qfnra.verify_witness(
            [(a.F, a.rel, a.rhs) for a in self.atoms], x)


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

    Nonempty iff some x in the cone of inter-sample time k has
    V(M(k)x) > a V(x), that is x'(M(k)' P M(k) - a P)x > 0.  Every atom
    is homogeneous, so no shell fixes the scale of x: any nonzero point
    of the cone is a counterexample at every scale.
    """
    a = Fraction(a)
    if not 0 < a < 1:
        raise ValueError("a must be in (0, 1)")
    if not disc.k_lo <= k <= disc.k_bar:
        raise ValueError(f"k={k} outside {disc.k_lo}..{disc.k_bar}")
    atoms = []
    for j in range(disc.k_lo, k):
        atoms.append(QuadAtom(disc.N[j], "<=", Fraction(0)))
    if k < disc.k_bar:
        atoms.append(QuadAtom(disc.N[k], ">", Fraction(0)))
    atoms.append(QuadAtom(tuple(tuple(m - a * p for m, p in zip(mr, pr))
                                for mr, pr in zip(disc.decrease[k],
                                                  disc.P_rat)),
                          ">", Fraction(0)))
    return SatQuery(atoms=tuple(atoms), n_x=disc.n_x)


# ---------------------------------------------------------------------------
# SMT-LIB2 encoding


def _smt_form(f: RatMatrix) -> str:
    n = len(f)
    terms = []
    for i in range(n):
        if f[i][i]:
            terms.append(f"(* {qfnra.format_rational(f[i][i])} x{i} x{i})")
        for j in range(i + 1, n):
            c = f[i][j] + f[j][i]
            if c:
                terms.append(f"(* {qfnra.format_rational(c)} x{i} x{j})")
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
        lines.append(f"(assert ({atom.rel} {_smt_form(atom.F)} "
                     f"{qfnra.format_rational(atom.rhs)}))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    lines.append("(exit)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# model parsing


def parse_model(text: str, n_x: int) -> RatVector | None:
    """Extract x0..x{n-1} from a (model ...) block, read with the SMT-LIB
    reader of ``qfnra``; None if absent or unreadable."""
    values: dict[str, Fraction] = {}
    try:
        for node in qfnra.parse_sexprs(qfnra.tokenize(text)):
            if not isinstance(node, list):
                continue
            if node and node[0] == "model":
                entries = node[1:]
            elif node and isinstance(node[0], list):
                entries = node
            else:
                entries = [node]
            for e in entries:
                if (isinstance(e, list) and len(e) == 5
                        and e[0] == "define-fun" and e[3] == "Real"):
                    values[e[1]] = qfnra.eval_term(e[4], {}).get(
                        (), Fraction(0))
    except (qfnra.Unsupported, ValueError):
        return None
    try:
        return tuple(values[f"x{i}"] for i in range(n_x))
    except KeyError:
        return None


# ---------------------------------------------------------------------------
# the decision


def check(query: SatQuery) -> SatResult:
    """Decide the query in process; certify sat with an exact witness."""
    atoms = [(a.F, a.rel, a.rhs) for a in query.atoms]
    try:
        result = qfnra.decide(query.n_x, atoms)
    except qfnra.Unsupported as exc:
        return SatResult("unknown", reason=str(exc))
    if result.status == "sat" and not query.holds(result.witness):
        return SatResult("unknown",
                         reason="model failed exact re-verification")
    return result


def contraction_counterexample(disc: DiscretizedPetc, k: int, a) -> SatResult:
    """sat iff the decrease ratio `a` is violated somewhere in cone k."""
    return check(contraction_query(disc, k, Fraction(a)))
