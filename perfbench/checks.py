"""Correctness checks on one pipeline pass, computed apart from the program.

Models and the report are read from the exported JSON files with the
standard library.  Concrete runs are replayed here from ``disc.M``,
``disc.N`` and ``disc.P_rat`` alone (not through ``semantics``), the
matrix exponential is a Taylor series of this module's own, and the
bounds are recomputed from the model words.  Every check returns a list
of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

Word = tuple[int, ...]


@dataclass
class Model:
    kind: str
    states: set
    edges: set
    witnesses: dict


def load_model(path) -> Model:
    doc = json.loads(Path(path).read_text())
    order = [tuple(s["word"]) for s in doc["states"]]
    witnesses = {w: tuple(Fraction(v) for v in s["witness"])
                 for w, s in zip(order, doc["states"]) if "witness" in s}
    edges = {(order[i], order[j]) for i, j in doc["edges"]}
    return Model(doc["kind"], set(order), edges, witnesses)


def load_report(path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# exact replay of the event-triggered loop


def quad(f, x) -> Fraction:
    n = len(x)
    return sum(f[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


def mat_vec(m, x):
    return tuple(sum(m[i][j] * x[j] for j in range(len(x)))
                 for i in range(len(m)))


def kappa(disc, x) -> int:
    for k in range(1, disc.k_bar):
        if quad(disc.N[k], x) > 0:
            return k
    return disc.k_bar


def replay(disc, x0, stop, a, cap=200) -> tuple[Word, list[str]]:
    """Event-triggered word of x0 until V <= stop, with every step's
    decrease V(x+) <= a V(x) checked exactly."""
    word, bad = [], []
    x, v = x0, quad(disc.P_rat, x0)
    while v > stop:
        if len(word) >= cap:
            bad.append(f"no entry below {stop} within {cap} steps "
                       f"from {x0}")
            break
        k = kappa(disc, x)
        x = mat_vec(disc.M[k], x)
        v_next = quad(disc.P_rat, x)
        if v_next > a * v:
            bad.append(f"step {len(word)} from {x0} decreases V by "
                       f"{float(v_next / v):.6f} > a")
        v = v_next
        word.append(k)
    return tuple(word), bad


# ---------------------------------------------------------------------------
# the checks


def check_contraction(disc, report, a_tol) -> list[str]:
    """0 < a < 1, a^N <= r < a^(N-1) exactly, and a is within a_tol above
    the largest per-sample decrease found on 200,000 float directions."""
    a, n, r = Fraction(report["a"]), report["N"], disc.r
    bad = []
    if not 0 < a < 1:
        return [f"a = {a} outside (0, 1)"]
    if not (a ** n <= r < a ** (n - 1)):
        bad.append(f"N = {n} does not bracket r = {r}: a^N <= r < a^(N-1) "
                   "fails")
    sup = sampled_decrease(disc)
    if float(a) < sup - 1e-9:
        bad.append(f"a = {float(a):.6f} below a sampled decrease "
                   f"{sup:.6f}")
    if float(a) - sup > float(a_tol) + 1e-4:
        bad.append(f"a = {float(a):.6f} looser than the sampled decrease "
                   f"{sup:.6f} by more than a_tol")
    return bad


def sampled_decrease(disc, n_dirs: int = 200_000) -> float:
    """max V(M(k)u) / V(u) over directions u, with k the inter-event index
    of u, in floats."""
    th = np.linspace(0.0, np.pi, n_dirs, endpoint=False)
    u = np.stack([np.cos(th), np.sin(th)], axis=1)
    f = lambda m: np.array([[float(v) for v in row] for row in m])
    p = f(disc.P_rat)
    vu = np.einsum("ni,ij,nj->n", u, p, u)
    k_of = np.full(n_dirs, disc.k_bar)
    for k in range(disc.k_bar - 1, 0, -1):
        fires = np.einsum("ni,ij,nj->n", u, f(disc.N[k]), u) > 0
        k_of[fires] = k
    best = 0.0
    for k in range(1, disc.k_bar + 1):
        sel = k_of == k
        if sel.any():
            y = u[sel] @ f(disc.M[k]).T
            best = max(best, float(
                (np.einsum("ni,ij,nj->n", y, p, y) / vu[sel]).max()))
    return best


def check_tree(bisim: Model) -> list[str]:
    """Every non-empty word's suffix is a state and its only edge."""
    bad = []
    out: dict[Word, list[Word]] = {}
    for s, t in bisim.edges:
        out.setdefault(s, []).append(t)
    if out.get((), []) != [()]:
        bad.append("the empty word is not a sink with a self-loop")
    for w in bisim.states - {()}:
        if w[1:] not in bisim.states:
            bad.append(f"suffix of {w} missing")
        if out.get(w, []) != [w[1:]]:
            bad.append(f"edges of {w} are {out.get(w, [])}, not its suffix")
    return bad


def domino(states) -> set:
    """(k sigma, tau) for every tau extending sigma."""
    return {(w, t) for w in states for t in states
            if t[:len(w[1:])] == w[1:]}


def check_sim(bisim: Model, sim: Model) -> list[str]:
    """Sim words are bisim words; edges are exactly the domino relation;
    no state lacks a successor."""
    bad = [f"simulating word {w} not in the bisimilar model"
           for w in sorted(sim.states - bisim.states)]
    expected = domino(sim.states)
    for e in sorted(expected - sim.edges)[:5]:
        bad.append(f"domino edge {e} missing")
    for e in sorted(sim.edges - expected)[:5]:
        bad.append(f"edge {e} is not a domino edge")
    sources = {s for s, _ in sim.edges}
    bad += [f"state {w} has no successor"
            for w in sorted(sim.states - sources)]
    return bad


def check_witnesses(disc, bisim: Model, sim: Model, a) -> list[str]:
    """Every stored witness replays to exactly its word: bisim witnesses
    from the sublevel set, sim witnesses from the unit level set."""
    bad = []
    rv0 = disc.r * disc.V0
    for model, on_shell in ((bisim, False), (sim, True)):
        for w in sorted(model.states - {()}):
            if w not in model.witnesses:
                bad.append(f"{model.kind} word {w} has no witness")
                continue
            x = model.witnesses[w]
            v = quad(disc.P_rat, x)
            if (v != disc.V0) if on_shell else (v > disc.V0):
                bad.append(f"{model.kind} witness of {w} has V = {v}")
            got, steps_bad = replay(disc, x, rv0, a)
            bad += steps_bad
            if got != w:
                bad.append(f"{model.kind} witness of {w} replays to {got}")
    return bad


def expm(m) -> np.ndarray:
    """e^m by a Taylor series with scaling and squaring."""
    norm = float(np.abs(m).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    a = m / 2.0 ** s
    term = np.eye(len(m))
    total = term.copy()
    for i in range(1, 30):
        term = term @ a / i
        total = total + term
    for _ in range(s):
        total = total @ total
    return total


def held_map(cfg, t: float) -> np.ndarray:
    """x(t) from x(0) = x_hat under the input held at K x_hat."""
    f = lambda rows: np.array([[float(v) for v in row] for row in rows])
    a, b, k = f(cfg["A"]), f(cfg["B"]), f(cfg["K"])
    n = len(a)
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n], aug[:n, n:] = a, b @ k
    e = expm(aug * t)
    return e[:n, :n] + e[:n, n:]


def check_discretization(disc, cfg) -> list[str]:
    """M(k) and M_P against this module's expm, N(k) against its
    definition [M; I]' Q [M; I], and V non-increasing at period h_P."""
    bad = []
    f = lambda m: np.array([[float(v) for v in row] for row in m])
    h = float(Fraction(cfg["h"]))
    q = f(disc.Q_rat)
    for k in range(1, disc.k_bar + 1):
        mk = held_map(cfg, h * k)
        if not np.allclose(f(disc.M[k]), mk, rtol=1e-10, atol=1e-12):
            bad.append(f"M({k}) differs from the reference expm")
        stacked = np.vstack([mk, np.eye(len(mk))])
        if not np.allclose(f(disc.N[k]), stacked.T @ q @ stacked,
                           rtol=1e-8, atol=1e-10):
            bad.append(f"N({k}) differs from [M; I]' Q [M; I]")
    mp = held_map(cfg, float(disc.h_P))
    if not np.allclose(f(disc.M_P), mp, rtol=1e-10, atol=1e-12):
        bad.append("M_P differs from the reference expm")
    p = f(disc.P_rat)
    gap = mp.T @ p @ mp - p
    if np.linalg.eigvalsh((gap + gap.T) / 2).max() > 1e-9:
        bad.append(f"V increases under periodic sampling at h_P = "
                   f"{disc.h_P}")
    return bad


def sample_points(disc, n: int, seed: int, band: bool) -> list:
    """n dyadic points with V <= V0 (band: r V0 < V <= V0), by rejection
    from the bounding box of the ellipsoid."""
    rng = random.Random(seed)
    p = np.array([[float(v) for v in row] for row in disc.P_rat])
    radii = [Fraction(math.ceil(r * 1e6), 10 ** 6) for r in
             np.sqrt(float(disc.V0) * np.diag(np.linalg.inv(p)))]
    scale = 1 << 20
    lo = disc.r * disc.V0 if band else -1
    out = []
    while len(out) < n:
        x = tuple(Fraction(rng.randint(-scale, scale), scale) * r
                  for r in radii)
        if lo < quad(disc.P_rat, x) <= disc.V0:
            out.append(x)
    return out


@dataclass
class Coverage:
    """Words realized from seeded samples, replayed once per run."""

    bisim_words: list
    sim_words: list
    problems: list

    @classmethod
    def compute(cls, disc, a, n: int, seed: int) -> "Coverage":
        problems, bisim_words, sim_words = [], [], []
        rv0 = disc.r * disc.V0
        for x in sample_points(disc, n, seed, band=False):
            w, bad = replay(disc, x, rv0, a)
            bisim_words.append(w)
            problems += bad
        for x in sample_points(disc, n, seed + 1, band=True):
            # the word of x / sqrt(V(x)) on the unit level set
            w, bad = replay(disc, x, disc.r * quad(disc.P_rat, x), a)
            sim_words.append(w)
            problems += bad
        return cls(bisim_words, sim_words, problems)

    def check(self, bisim: Model, sim: Model) -> list[str]:
        bad = list(self.problems)
        bad += [f"sampled word {w} not in the bisimilar model"
                for w in sorted(set(self.bisim_words) - bisim.states)]
        bad += [f"sampled band word {w} not in the simulating model"
                for w in sorted(set(self.sim_words) - sim.states)]
        return bad


def bounds(words, h, r) -> dict:
    """f*, T* and b* recomputed from the non-empty words."""
    words = [w for w in words if w]
    f_star = max(Fraction(len(w)) / (h * sum(w)) for w in words)
    t_star = h * max(sum(w) for w in words)
    return {"f_star": f_star, "T_star": t_star,
            "b_star": -math.log(r) / (2 * float(t_star))}


def check_bounds(disc, report: dict, bisim: Model, sim: Model) -> list[str]:
    bad = []
    ref = bounds(sim.states, disc.h, disc.r)
    if Fraction(report["f_star"]) != ref["f_star"]:
        bad.append(f"f* = {report['f_star']}, recomputed {ref['f_star']}")
    w = tuple(report["f_star_word"])
    if w not in sim.states or (Fraction(len(w)) / (disc.h * sum(w))
                               != ref["f_star"]):
        bad.append(f"f* word {w} does not realize f*")
    if Fraction(report["T_star_sim"]) != ref["T_star"]:
        bad.append(f"T* = {report['T_star_sim']}, recomputed {ref['T_star']}")
    t_bisim = bounds(bisim.states, disc.h, disc.r)["T_star"]
    if Fraction(report["T_star_bisim"]) != t_bisim:
        bad.append(f"bisim T* = {report['T_star_bisim']}, recomputed "
                   f"{t_bisim}")
    if not math.isclose(report["b_star"], ref["b_star"], rel_tol=1e-12):
        bad.append(f"b* = {report['b_star']}, recomputed {ref['b_star']}")
    if report["n_bisim_states"] != len(bisim.states - {()}):
        bad.append("report's bisimilar word count differs from the model")
    if report["n_sim_states"] != len(sim.states - {()}):
        bad.append("report's simulating word count differs from the model")
    return bad


def long_run_frequencies(disc, a, n: int, steps: int,
                         seed: int) -> tuple[list, list[str]]:
    """Average transmission frequency steps / (h sum k) of n long
    event-triggered runs from band samples, with the per-step decrease
    checked.  The runs are replayed on integer vectors: M(k), N(k) and P
    are scaled to integers, which keeps the inter-event index and the
    decrease test exact."""

    def common(m):
        den = math.lcm(*(v.denominator for row in m for v in row))
        return den, [[int(v * den) for v in row] for row in m]

    m_int = {k: common(disc.M[k]) for k in range(1, disc.k_bar + 1)}
    n_int = {k: common(disc.N[k])[1] for k in range(1, disc.k_bar)}
    p_int = common(disc.P_rat)[1]
    a = Fraction(a)
    freqs, bad = [], []
    for i, x0 in enumerate(sample_points(disc, n, seed, band=True)):
        _, (x,) = common((x0,))
        v, total = quad(p_int, x), 0
        for step in range(steps):
            k = next((j for j in range(1, disc.k_bar)
                      if quad(n_int[j], x) > 0), disc.k_bar)
            den, m = m_int[k]
            x = [sum(m[r][j] * x[j] for j in range(len(x)))
                 for r in range(len(x))]
            v_next = quad(p_int, x)
            if v_next * a.denominator > a.numerator * den * den * v:
                bad.append(f"long run {i}, step {step}: V(x+) > a V(x)")
            v, total = v_next, total + k
        freqs.append(Fraction(steps) / (disc.h * total))
    return freqs, bad


def check_frequencies(freqs, report) -> list[str]:
    """No long run transmits more often on average than f*."""
    f_star = Fraction(report["f_star"])
    return [f"long run {i} has frequency {float(f):.6g} > f* = {f_star}"
            for i, f in enumerate(freqs) if f > f_star]


def check_paper(disc, report: dict, bisim: Model) -> list[str]:
    """The case-study values the paper reports (tests/test_acceptance.py).
    The simulating count (109 in the paper, 84 here) is not checked."""
    bad = []
    a = Fraction(report["a"])
    if abs(a - Fraction(952, 1000)) > Fraction(1, 1000):
        bad.append(f"a = {a}, paper 0.952 +- 0.001")
    if disc.h_P != Fraction(2, 5):
        bad.append(f"h_P = {disc.h_P}, paper 2/5")
    if report["N"] != 47:
        bad.append(f"N = {report['N']}, paper 47")
    if abs(len(bisim.states - {()}) - 219) > 5:
        bad.append(f"{len(bisim.states) - 1} bisimilar words, paper 219 +- 5")
    if Fraction(report["T_star_sim"]) != Fraction(23, 10):
        bad.append(f"T* = {report['T_star_sim']}, paper 2.3 s")
    if Fraction(report["f_star"]) != Fraction(20, 3):
        bad.append(f"f* = {report['f_star']}, paper 20/3 Hz")
    if f"{report['b_star']:.2f}" != "0.50":
        bad.append(f"b* = {report['b_star']:.4f}, paper 0.50")
    return bad
