"""Quantitative guarantees read off the built traffic models.

The maximum average triggering frequency, the longest time to reach the
periodic set, and the certified exponential decay rate are all exact
rational functions of the model's words; only the logarithm in the decay
rate is a float.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .abstraction import EPSILON, PETC_SIM, TrafficModel, Word, word_key


def sci(n: int, digits: int) -> str:
    """format(float(n), f".{digits}e"), also for an n beyond a double."""
    try:
        return format(float(n), f".{digits}e")
    except OverflowError:  # a three-digit exponent reads the same in Decimal
        return format(Decimal(n), f".{digits}e")


def _nonempty_words(model: TrafficModel) -> list[Word]:
    words = [w for w in model.sorted_states() if w != EPSILON]
    if not words:
        raise ValueError("model has no non-empty words")
    return words


def avg_freq_bound(model: TrafficModel, h) -> tuple[Fraction, Word]:
    """Largest samples-per-second ratio over the model's words:
    max |sigma| / (h sum k_i), with the lexicographically first arg-max."""
    if model.kind != PETC_SIM:
        raise ValueError("frequency bound needs the simulating model")
    h = Fraction(h)
    best: Fraction | None = None
    best_word: Word | None = None
    for w in _nonempty_words(model):
        f = Fraction(len(w)) / (h * sum(w))
        if best is None or f > best or (f == best
                                        and word_key(w) < word_key(best_word)):
            best, best_word = f, w
    return best, best_word


def time_to_contract(model: TrafficModel, h) -> Fraction:
    """T* = h * max over words of sum k_i."""
    h = Fraction(h)
    return h * max(sum(w) for w in _nonempty_words(model))


def ges_decay_bound(model: TrafficModel, r, h) -> tuple[Fraction, float]:
    """(T*, b*) with b* = -ln(r) / (2 T*)."""
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("r must be in (0, 1)")
    t_star = time_to_contract(model, h)
    b_star = -math.log(r) / (2 * float(t_star))
    return t_star, b_star


@dataclass(frozen=True)
class AnalysisReport:
    a: Fraction
    h_P: Fraction
    N: int
    k_lo: int
    n_bisim_states: int
    n_sim_states: int
    lemma_bound_stated: int
    lemma_bound_sum: int
    T_star_bisim: Fraction
    T_star_sim: Fraction
    b_star: float
    f_star: Fraction
    f_star_word: Word
    h: Fraction
    r: Fraction
    timings: dict[str, float]
    stats: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "a": str(self.a),
            "h_P": str(self.h_P),
            "N": self.N,
            "k_lo": self.k_lo,
            "n_bisim_states": self.n_bisim_states,
            "n_sim_states": self.n_sim_states,
            "lemma_bound_stated": str(self.lemma_bound_stated),
            "lemma_bound_sum": str(self.lemma_bound_sum),
            "T_star_bisim": str(self.T_star_bisim),
            "T_star_sim": str(self.T_star_sim),
            "b_star": self.b_star,
            "f_star": str(self.f_star),
            "f_star_word": list(self.f_star_word),
            "h": str(self.h),
            "r": str(self.r),
            "stats": self.stats,
            "timings": self.timings,
        }
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"

    def render(self) -> str:
        lines = [
            "traffic model analysis",
            "----------------------",
            f"contraction factor a        : {float(self.a):.6g}",
            f"periodic period h_P         : {float(self.h_P):.6g}",
            f"min inter-sample index k_lo : {self.k_lo}",
            f"word-length horizon N       : {self.N}",
            f"bisimilar states (no eps)   : {self.n_bisim_states}",
            f"simulating states           : {self.n_sim_states}",
            f"worst-case word bound       : {sci(self.lemma_bound_stated, 2)}"
            f" (closed form), {sci(self.lemma_bound_sum, 2)} (geometric sum)",
            f"T* over bisimilar words     : {float(self.T_star_bisim):.6g} s",
            f"T* over simulating words    : {float(self.T_star_sim):.6g} s",
            f"decay rate b*               : {self.b_star:.4g}"
            f" (displayed {self.b_star:.2g})",
            f"avg frequency bound f*      : {self.f_star}"
            f" = {float(self.f_star):.6g} Hz"
            f" (vs 1/h = {float(1 / self.h):.6g} Hz)",
            f"  realized by word          : {list(self.f_star_word)}",
        ]
        return "\n".join(lines) + "\n"


def report(bisim: TrafficModel, sim: TrafficModel, a: Fraction, N: int,
           k_lo: int, r, h, lemma_bounds: tuple[int, int],
           timings: dict[str, float] | None = None,
           bisection_trace=()) -> AnalysisReport:
    """The bounds read off both models.  ``stats`` holds the builds'
    counts (per word-tree level of the bisimilar build, and of the
    unit-shell re-check) and the contraction bisection's probes as
    [a, status] pairs; it has no timings, so it is the same on every
    run."""
    r, h = Fraction(r), Fraction(h)
    f_star, f_word = avg_freq_bound(sim, h)
    t_sim, b_star = ges_decay_bound(sim, r, h)
    t_bisim = time_to_contract(bisim, h)
    return AnalysisReport(
        a=Fraction(a), h_P=sim.h_P, N=N, k_lo=k_lo,
        n_bisim_states=bisim.n_states(include_epsilon=False),
        n_sim_states=sim.n_states(include_epsilon=False),
        lemma_bound_stated=lemma_bounds[0], lemma_bound_sum=lemma_bounds[1],
        T_star_bisim=t_bisim, T_star_sim=t_sim, b_star=b_star,
        f_star=f_star, f_star_word=f_word, h=h, r=r,
        timings=dict(timings or {}),
        stats={"bisim_levels": bisim.stats.get("levels", []),
               "unit_shell": sim.stats,
               "bisection_trace": [[str(a), status]
                                   for a, status in bisection_trace]},
    )
