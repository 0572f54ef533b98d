"""Shared fixtures: the two-dimensional example system at the fast
setting (r = 0.5) used by most tests, plus small synthetic systems, float
oracles of the exact semantics, the from-scratch Fraction replay that
the integer orbit of verify replaced, and the per-word solver queries
that the word-tree engine of abstraction replaced."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from petctraffic import (abstraction, contraction, ratlin, satcheck,
                         semantics, verify)
from petctraffic.sysmodel import (PetcSystem, PredictiveTriggerSpec,
                                  build_predictive_Q, rationalize)

A = [[0.0, 1.0], [-2.0, 3.0]]
B = [[0.0], [1.0]]
K = [[1.0, -4.0]]
P_LYAP = [[1.0, 0.25], [0.25, 1.0]]
Q_LYAP = [[0.5, 0.25], [0.25, 1.5]]
RHO = 0.8
H = Fraction(1, 10)
K_BAR = 6


def make_system(r, V0=Fraction(1), P=None) -> PetcSystem:
    P = P_LYAP if P is None else P
    spec = PredictiveTriggerSpec(P_lyap=P, Q_lyap=Q_LYAP, rho=RHO)
    placeholder = PetcSystem(A=A, B=B, K=K, P=P, Q_trig=np.zeros((4, 4)),
                             h=H, k_bar=K_BAR, r=r, V0=V0)
    q = build_predictive_Q(spec, placeholder)
    return PetcSystem(A=A, B=B, K=K, P=P, Q_trig=q, h=H, k_bar=K_BAR,
                      r=r, V0=V0)


def _quad(f, xs) -> np.ndarray:
    return np.einsum("si,ij,sj->s", xs, f, xs)


def float_kappa(disc, xs) -> np.ndarray:
    """Float semantics.kappa of each row of xs: the first k with
    x' N(k) x > 0, else k_bar."""
    out = np.full(len(xs), disc.k_bar)
    for k in range(disc.k_bar - 1, 0, -1):
        out[_quad(ratlin.to_float_matrix(disc.N[k]), xs) > 0] = k
    return out


def max_step_ratio(disc, xs) -> float:
    """Largest V(M(kappa(x)) x) / V(x) over the rows of xs, an empirical
    lower bound on the certified contraction factor."""
    p = ratlin.to_float_matrix(disc.P_rat)
    ks = float_kappa(disc, xs)
    ratios = [_quad(p, xs[ks == k] @ ratlin.to_float_matrix(disc.M[k]).T)
              / _quad(p, xs[ks == k]) for k in disc.K_range]
    return float(np.max(np.concatenate(ratios)))


def fraction_normalized_word(disc, x, max_len) -> tuple[int, ...]:
    """Word of x until V first drops to r V(x), stepped from scratch in
    Fraction with semantics.petc_step."""
    target = disc.r * disc.V(x)
    word: list[int] = []
    while disc.V(x) > target:
        if len(word) >= max_len:
            raise semantics.HorizonExceededError(x, tuple(word))
        x, k = semantics.petc_step(disc, x)
        word.append(k)
    return tuple(word)


def fraction_sim_check(disc, model, n_samples, steps, seed, max_len):
    """verify.check_sim_petc on Fraction states, with the word of every
    step extracted from scratch: (n_checked, failures).  The Fraction
    check also compared each word's first letter with kappa(x), which
    holds by construction, since the word's first step is petc_step."""
    n_checked, failures = 0, []
    for i, x0 in enumerate(verify.sample_shell_states(disc, n_samples,
                                                      seed)):
        x, prev = x0, None
        for step in range(steps):
            word = fraction_normalized_word(disc, x, max_len)
            n_checked += 1
            if word not in model.states:
                failures.append(dict(sample=i, step=step, x=x, word=word,
                                     kind="missing state"))
                break
            if prev is not None and (prev, word) not in model.edges:
                failures.append(dict(sample=i, step=step, x=x, word=word,
                                     prev=prev, kind="missing edge"))
                break
            prev = word
            x, _ = semantics.petc_step(disc, x)
    return n_checked, failures


def oracle_check(disc, word, shell, terminal) -> satcheck.SatResult:
    """One word query decided on its own: satcheck.check, through
    qfnra.decide, on the query satcheck.sequence_query writes."""
    return satcheck.check(satcheck.sequence_query(disc, word, shell,
                                                  terminal))


def oracle_models(disc, N, check=oracle_check):
    """build_mpetc_bisim and build_petc_sim with every word decided by
    `check` (default oracle_check), with the same prune rule; every
    verdict must be sat or unsat."""
    word_key, eps = abstraction.word_key, abstraction.EPSILON
    states, witnesses, frontier = {eps}, {}, [eps]
    for _ in range(N):
        candidates = sorted((w + (k,) for w in frontier
                             for k in disc.K_range), key=word_key)
        frontier = [w for w in candidates if check(
            disc, w, satcheck.SUBLEVEL, False).status != "unsat"]
        for w in frontier:
            res = check(disc, w, satcheck.SUBLEVEL, True)
            assert res.status != "unknown", w
            if res.status == "sat":
                states.add(w)
                witnesses[w] = res.witness
    bisim = abstraction.TrafficModel(
        kind=abstraction.MPETC_BISIM, states=frozenset(states),
        edges=frozenset(abstraction._tree_edges(states)),
        output=abstraction._outputs(states, disc.h, disc.h_P),
        witnesses=witnesses, h=disc.h, h_P=disc.h_P)
    sim_states, sim_witnesses = set(), {}
    for w in bisim.sorted_states():
        if w == eps:
            continue
        res = check(disc, w, satcheck.UNIT_LEVEL, True)
        assert res.status != "unknown", w
        if res.status == "sat":
            sim_states.add(w)
            sim_witnesses[w] = res.witness
    sim = abstraction.TrafficModel(
        kind=abstraction.PETC_SIM, states=frozenset(sim_states),
        edges=frozenset(abstraction.domino_edges(sim_states)),
        output=abstraction._outputs(sim_states, disc.h, disc.h_P),
        witnesses=sim_witnesses, h=disc.h, h_P=disc.h_P)
    return bisim, sim


@pytest.fixture(scope="session")
def ci_sys() -> PetcSystem:
    return make_system(Fraction(1, 2))


@pytest.fixture(scope="session")
def ci_disc(ci_sys):
    h_p = contraction.compute_hP(ci_sys)
    return rationalize(ci_sys, h_p)


@pytest.fixture(scope="session")
def ci_cert(ci_disc):
    return contraction.compute_a(ci_disc)


@pytest.fixture(scope="session")
def ci_N(ci_cert, ci_disc) -> int:
    return contraction.compute_N(ci_cert.a, ci_disc.r)


@pytest.fixture(scope="session")
def ci_bisim(ci_disc, ci_N):
    return abstraction.build_mpetc_bisim(ci_disc, ci_N)


@pytest.fixture(scope="session")
def ci_sim(ci_disc, ci_bisim):
    return abstraction.build_petc_sim(ci_disc, ci_bisim)


@pytest.fixture(scope="session")
def tiny_disc():
    """Single-mode contraction toy: M(k) = (1/2)^k I, P = I.

    N(k) is rigged so that every nonzero state triggers at k = 1."""
    sys_ = PetcSystem(A=[[0.0, 0.0], [0.0, 0.0]], B=[[1.0], [0.0]],
                      K=[[0.0, 0.0]], P=np.eye(2),
                      Q_trig=np.zeros((4, 4)), h=Fraction(1),
                      k_bar=1, r=Fraction(1, 4))
    disc = rationalize(sys_, Fraction(1))
    half = Fraction(1, 2)
    m = ((half, Fraction(0)), (Fraction(0), half))
    object.__setattr__(disc, "M", {1: m})
    object.__setattr__(disc, "M_P", m)
    return disc
