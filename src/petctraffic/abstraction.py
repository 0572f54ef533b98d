"""Finite traffic models built from feasible inter-sample words.

Three model kinds over words of discrete inter-event times:

* ``trivial`` — every word up to the horizon, no solver involved;
* ``mpetc_bisim`` — exactly the words realized by the mixed strategy
  before entering the periodic set (a tree draining into the empty
  word), each carried by an exact rational witness;
* ``petc_sim`` — the subset of those words realized on the unit
  Lyapunov shell, with domino edges: from k-sigma one may move to any
  state extending sigma.

Both builds walk one ``wordtree.WordEngine``, which the bisimilar model
keeps as ``tree`` for the simulating build.

State sets are pure functions of the discretization and the horizon:
enumeration is lexicographic and every query is decided exactly, so
repeated builds are bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import satcheck, wordtree
from .ratlin import RatVector
from .satcheck import SolverUnknownError
from .sysmodel import DiscretizedPetc

Word = tuple[int, ...]
EPSILON: Word = ()

TRIVIAL = "trivial"
MPETC_BISIM = "mpetc_bisim"
PETC_SIM = "petc_sim"

DEFAULT_STATE_CAP = 2_000_000


class BlockingStateError(RuntimeError):
    """A word of the simulating model has no successor."""


def word_key(w: Word) -> tuple[int, Word]:
    return (len(w), w)


@dataclass(frozen=True)
class TrafficModel:
    kind: str
    states: frozenset[Word]
    edges: frozenset[tuple[Word, Word]]
    output: dict[Word, Fraction]
    witnesses: dict[Word, RatVector] = field(default_factory=dict)
    h: Fraction = Fraction(1)
    h_P: Fraction = Fraction(1)
    assumed: frozenset[Word] = frozenset()
    # how the build reached the state set: counts only, no timings
    stats: dict = field(default_factory=dict, compare=False)
    # the word tree of a bisimilar build, for the simulating build
    tree: wordtree.WordEngine | None = field(default=None, compare=False,
                                             repr=False)

    def __post_init__(self):
        if self.kind not in (TRIVIAL, MPETC_BISIM, PETC_SIM):
            raise ValueError(f"bad model kind {self.kind!r}")
        for s, t in self.edges:
            if s not in self.states or t not in self.states:
                raise ValueError("edge endpoint outside the state set")
        for s in self.states:
            if s not in self.output:
                raise ValueError(f"state {s} has no output")

    @property
    def is_exact(self) -> bool:
        """False when undecided words were kept (over-approximation)."""
        return not self.assumed

    def n_states(self, include_epsilon: bool = True) -> int:
        n = len(self.states)
        if not include_epsilon and EPSILON in self.states:
            n -= 1
        return n

    def sorted_states(self) -> list[Word]:
        return sorted(self.states, key=word_key)


def _tree_edges(states) -> set[tuple[Word, Word]]:
    edges = set()
    for w in states:
        if w == EPSILON:
            edges.add((EPSILON, EPSILON))
        else:
            tail = w[1:]
            if tail not in states:
                raise ValueError(f"state set not suffix-closed at {w}")
            edges.add((w, tail))
    return edges


def _outputs(states, h: Fraction, h_P: Fraction) -> dict[Word, Fraction]:
    return {w: (h_P if w == EPSILON else h * w[0]) for w in states}


def build_trivial(K, N: int, h=Fraction(1), h_P=Fraction(1),
                  state_cap: int = DEFAULT_STATE_CAP) -> TrafficModel:
    """All words over K up to length N, plus the empty word."""
    ks = sorted(range(1, K + 1) if isinstance(K, int) else set(K))
    if not ks:
        raise ValueError("K must be non-empty")
    total = sum(len(ks) ** i for i in range(N + 1))
    if total > state_cap:
        raise ValueError(f"{total} states exceed the cap {state_cap}")
    states: set[Word] = {EPSILON}
    level = [EPSILON]
    for _ in range(N):
        level = [w + (k,) for w in level for k in ks]
        states.update(level)
    return TrafficModel(kind=TRIVIAL, states=frozenset(states),
                        edges=frozenset(_tree_edges(states)),
                        output=_outputs(states, Fraction(h), Fraction(h_P)),
                        h=Fraction(h), h_P=Fraction(h_P))


def _keep(words, results, assume_sat, states, witnesses, assumed) -> dict:
    """Keep each sat word with its witness, and each unknown one as
    assumed if assume_sat, else raise; the verdict and kept counts."""
    for w, res in zip(words, results):
        if res.status == "unknown":
            if not assume_sat:
                raise SolverUnknownError(
                    f"undecided feasibility for word {w}: {res.reason}",
                    word=w)
            assumed.add(w)
        elif res.status == "sat":
            witnesses[w] = res.witness
        if res.status != "unsat":
            states.add(w)
    statuses = [res.status for res in results]
    counts = {s: statuses.count(s) for s in ("sat", "unsat", "unknown")}
    return dict(counts, assumed=counts["unknown"],
                kept=counts["sat"] + counts["unknown"])


def _arcs(nodes) -> int:
    """The feasible arcs kept on the nodes of a word tree."""
    return sum(len(node.arcs or ()) for node in nodes)


def build_mpetc_bisim(disc: DiscretizedPetc, N: int,
                      assume_sat: bool = False) -> TrafficModel:
    """The words realized before entering the periodic set.

    Words are extended to the right, level by level, on one
    ``wordtree.WordEngine``, and each candidate is decided once, by its
    full sublevel query.  That query is unsat exactly when the word's
    node keeps no feasible arc, and then so is every extension: an unsat
    word is discarded with all its extensions.  ``stats["levels"]``
    counts, per level, the candidates, the feasible arcs their nodes
    keep, their verdicts (the unsat ones pruned) and the words kept.
    """
    engine = wordtree.WordEngine(disc)
    states: set[Word] = {EPSILON}
    witnesses: dict[Word, RatVector] = {
        EPSILON: tuple(Fraction(0) for _ in range(disc.n_x))}
    assumed: set[Word] = set()
    levels = []
    frontier = [engine.root]
    for _ in range(N):
        candidates = sorted((engine.child(node, k) for node in frontier
                             for k in disc.K_range),
                            key=lambda node: word_key(node.word))
        if not candidates:
            break
        results = [engine.decide(node, satcheck.SUBLEVEL)
                   for node in candidates]
        counts = _keep([node.word for node in candidates], results,
                       assume_sat, states, witnesses, assumed)
        frontier = [node for node, res in zip(candidates, results)
                    if res.status != "unsat"]
        levels.append(dict(level=len(levels) + 1,
                           candidates=len(candidates),
                           arcs=_arcs(candidates), **counts))

    return TrafficModel(kind=MPETC_BISIM, states=frozenset(states),
                        edges=frozenset(_tree_edges(states)),
                        output=_outputs(states, disc.h, disc.h_P),
                        witnesses=witnesses, h=disc.h, h_P=disc.h_P,
                        assumed=frozenset(assumed), stats={"levels": levels},
                        tree=engine)


def domino_edges(states) -> set[tuple[Word, Word]]:
    """(k sigma, tau) for every tau extending sigma, read off an index
    from each prefix to the states that extend it."""
    extending: dict[Word, list[Word]] = {}
    for t in states:
        for i in range(len(t) + 1):
            extending.setdefault(t[:i], []).append(t)
    return {(w, t) for w in states for t in extending.get(w[1:], ())}


def build_petc_sim(disc: DiscretizedPetc, mpetc_model: TrafficModel,
                   assume_sat: bool = False) -> TrafficModel:
    """Unit-shell re-check of the bisimilar model's words, domino edges.

    By homogeneity, any word realized on the unit shell is realized in
    the initial sublevel set, so the candidate set is exactly the
    non-empty words of the mixed-strategy model, each decided on its node
    of the model's ``tree``; a model without a tree for this disc
    (trivial or imported) is a ValueError.  ``stats`` counts the
    candidates, the feasible arcs their nodes keep on the tree,
    their verdicts and the words kept.
    """
    engine = mpetc_model.tree
    if engine is None or engine.disc is not disc:
        raise ValueError("candidate model must be the bisimilar model "
                         "built for this discretization")
    candidates = [w for w in mpetc_model.sorted_states() if w != EPSILON]
    nodes = [engine.node(w) for w in candidates]
    results = [engine.decide(node, satcheck.UNIT_LEVEL) for node in nodes]
    states: set[Word] = set()
    witnesses: dict[Word, RatVector] = {}
    assumed: set[Word] = set()
    counts = _keep(candidates, results, assume_sat, states, witnesses,
                   assumed)
    edges = domino_edges(states)
    blocked = sorted(states - {s for s, _ in edges}, key=word_key)
    if blocked:
        raise BlockingStateError(
            f"blocking states in the simulating model: {blocked[:5]}")
    return TrafficModel(kind=PETC_SIM, states=frozenset(states),
                        edges=frozenset(edges),
                        output=_outputs(states, disc.h, disc.h_P),
                        witnesses=witnesses, h=disc.h, h_P=disc.h_P,
                        assumed=frozenset(assumed) | mpetc_model.assumed,
                        stats=dict(candidates=len(candidates),
                                   arcs=_arcs(nodes), **counts))


# ---------------------------------------------------------------------------
# serialization


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _frac_parse(s: str) -> Fraction:
    return Fraction(s)


def export_model(model: TrafficModel, format: str = "json") -> bytes:
    if format == "json":
        return _export_json(model)
    if format == "dot":
        return _export_dot(model)
    raise ValueError(f"bad export format {format!r}")


def _export_json(model: TrafficModel) -> bytes:
    order = model.sorted_states()
    index = {w: i for i, w in enumerate(order)}
    states = []
    for w in order:
        entry = {"word": list(w), "output": _frac_str(model.output[w])}
        if w in model.witnesses:
            entry["witness"] = [_frac_str(v) for v in model.witnesses[w]]
        states.append(entry)
    doc = {
        "kind": model.kind,
        "h": _frac_str(model.h),
        "h_P": _frac_str(model.h_P),
        "exact": model.is_exact,
        "assumed": sorted((list(w) for w in model.assumed)),
        "states": states,
        "edges": sorted([index[s], index[t]] for s, t in model.edges),
    }
    return (json.dumps(doc, indent=1, sort_keys=True,
                       separators=(",", ": ")) + "\n").encode()


def _node_name(w: Word) -> str:
    return "eps" if w == EPSILON else "_".join(map(str, w))


def _export_dot(model: TrafficModel) -> bytes:
    lines = ["digraph traffic {"]
    for w in model.sorted_states():
        label = "eps" if w == EPSILON else ",".join(map(str, w))
        lines.append(f'  "{_node_name(w)}" [label="{label}"];')
    for s, t in sorted(model.edges, key=lambda e: (word_key(e[0]),
                                                   word_key(e[1]))):
        lines.append(f'  "{_node_name(s)}" -> "{_node_name(t)}";')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def import_model(data: bytes) -> TrafficModel:
    doc = json.loads(data.decode())
    order = [tuple(w) for w in (s["word"] for s in doc["states"])]
    output = {}
    witnesses = {}
    for w, s in zip(order, doc["states"]):
        output[w] = _frac_parse(s["output"])
        if "witness" in s:
            witnesses[w] = tuple(_frac_parse(v) for v in s["witness"])
    edges = {(order[i], order[j]) for i, j in doc["edges"]}
    return TrafficModel(kind=doc["kind"], states=frozenset(order),
                        edges=frozenset(edges), output=output,
                        witnesses=witnesses, h=_frac_parse(doc["h"]),
                        h_P=_frac_parse(doc["h_P"]),
                        assumed=frozenset(tuple(w) for w in doc["assumed"]))
