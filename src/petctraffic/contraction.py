"""Certified contraction factor, periodic-phase period, and horizon.

The per-sample Lyapunov decrease ratio `a` is certified by one bisection
on the multiples of a_tol, each probe deciding per-cone counterexample
queries up to the first violated cone; the periodic period h_P by a
float scan over the multiples of a resolution, which takes one expm at
the resolution and multiplies it into a running power, testing each
period with a Cholesky pivot test; the word-length horizon N by exact
rational power bracketing, so the ceiling can never under-count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import satcheck
from .qfnra import SatResult
from .ratlin import mat_mul, transpose
from .satcheck import SolverUnknownError
from .sysmodel import (DiscretizedPetc, EIG_TOL, Matrix, PetcSystem,
                       closed_loop_generator, definite, discretize_at_time,
                       expm, held_state_map)

DEFAULT_A_TOL = Fraction(1, 1000)
DEFAULT_HP_RESOLUTION = Fraction(1, 100)
MAX_HP_PERIODS = 10_000  # each a matrix product and a pivot test


class NotContractiveError(RuntimeError):
    """No decrease ratio below one could be certified."""


def _as_exact(value) -> Fraction:
    """Fraction conversion reading floats as the decimals they print as."""
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class ContractionCert:
    """Certificate that V decreases by at least the factor `a` per sample."""

    a: Fraction
    per_k_unsat: dict[int, SatResult]
    bisection_trace: tuple[tuple[Fraction, str], ...]
    tol: Fraction


def _validate_candidate(disc: DiscretizedPetc,
                        a: Fraction) -> tuple[bool, dict[int, SatResult]]:
    """a holds iff every cone's counterexample query is unsat; the cones
    are decided in order up to the first sat one."""
    results: dict[int, SatResult] = {}
    for k in disc.K_range:
        res = results[k] = satcheck.contraction_counterexample(disc, k, a)
        if res.status == "unknown":
            raise SolverUnknownError(
                f"contraction query undecided at k={k}, a={a}: {res.reason}")
        if res.status == "sat":
            return False, results
    return True, results


def compute_a(disc: DiscretizedPetc, tol=DEFAULT_A_TOL) -> ContractionCert:
    """Smallest certified decrease ratio on the tol grid, a = j tol < 1.

    Validity is monotone in a, since V(u) > 0 for u != 0, so one
    bisection on the grid index j finds it: the upper end j = hi stays
    certified, with its per-cone unsat results, and the lower end stays
    violated or zero.  The first probe is the largest multiple of tol
    below one."""
    tol = _as_exact(tol)
    if not 0 < tol < 1:
        raise ValueError("tol must be in (0, 1)")
    trace: list[tuple[Fraction, str]] = []

    def probe(j: int) -> tuple[bool, dict[int, SatResult]]:
        ok, results = _validate_candidate(disc, j * tol)
        trace.append((j * tol, "unsat" if ok else "sat"))
        return ok, results

    lo, hi = 0, math.ceil(1 / tol) - 1
    ok, evidence = probe(hi)
    if not ok:
        raise NotContractiveError(
            f"decrease ratio {float(hi * tol):.6g} is still violated; "
            "the loop does not contract per sample")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok, results = probe(mid)
        if ok:
            hi, evidence = mid, results
        else:
            lo = mid
    return ContractionCert(a=hi * tol, per_k_unsat=evidence,
                           bisection_trace=tuple(trace), tol=tol)


def _keeps_V(sys: PetcSystem, m_p: Matrix, eig_tol: float) -> bool:
    """lambda_max(M_P' P M_P - P) < tol: tol I less the symmetric part of
    that gap is definite; false where M_P' P M_P overflows a double."""
    n, p = sys.n_x, sys.P
    g = mat_mul(transpose(m_p), mat_mul(p, m_p))
    s = [[float(i == j) * eig_tol
          - ((g[i][j] - p[i][j]) + (g[j][i] - p[j][i])) / 2
          for j in range(n)] for i in range(n)]
    return all(math.isfinite(v) for row in s for v in row) and definite(s)


def hP_condition(sys: PetcSystem, h_P: Fraction,
                 eig_tol: float = EIG_TOL) -> bool:
    """Whether period h_P keeps V non-increasing: lambda_max(M_P' P M_P - P)
    < tol, which fails where M_P' P M_P overflows a double."""
    return _keeps_V(sys, discretize_at_time(sys, float(h_P)), eig_tol)


def compute_hP(sys: PetcSystem, resolution=DEFAULT_HP_RESOLUTION,
               h_max=None, eig_tol: float = EIG_TOL) -> Fraction:
    """Largest multiple of the resolution (up to h_max, default 2 h k_bar)
    at which periodic sampling keeps the Lyapunov function non-increasing;
    scans downward from h_max, over at most MAX_HP_PERIODS multiples.  The
    closed-loop exponential at j resolution is the j-th power of the one
    at the resolution, so the scan takes one expm and one matrix product
    per period."""
    resolution = _as_exact(resolution)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    h_max = 2 * sys.h * sys.k_bar if h_max is None else _as_exact(h_max)
    periods = int(h_max / resolution)
    if periods > MAX_HP_PERIODS:
        raise ValueError(f"scanning h_P would test {periods} periods, over "
                         f"{MAX_HP_PERIODS}: raise hP_resolution or pin h_P")
    step = expm(closed_loop_generator(sys), float(resolution))
    powers = [step]
    while len(powers) < periods:
        powers.append(mat_mul(powers[-1], step))
    for j in range(periods, 0, -1):
        if _keeps_V(sys, held_state_map(powers[j - 1]), eig_tol):
            return j * resolution
    raise NotContractiveError(
        f"no multiple of {float(resolution):.6g} up to {float(h_max):.6g} "
        "keeps the Lyapunov function non-increasing under periodic sampling")


def compute_N(a, r) -> int:
    """ceil(log_a r) via exact rational powers: the least n with a^n <= r."""
    a, r = Fraction(a), Fraction(r)
    if not 0 < a < 1:
        raise ValueError("a must be in (0, 1)")
    if not 0 < r < 1:
        raise ValueError("r must be in (0, 1)")
    # exponential search then binary search on n
    hi = 1
    while a ** hi > r:
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if a ** mid <= r:
            hi = mid
        else:
            lo = mid
    if a ** lo <= r and lo >= 1:
        return lo
    return hi


def trace_count_bounds(K_size: int, N: int) -> tuple[int, int]:
    """Worst-case word counts: the closed-form bound
    K((K-1)^N - 1)/(K-1) (floor when the division is inexact) and the
    geometric sum 1 + K + ... + K^N counting every word up to length N
    including the empty one."""
    if K_size < 2 or N < 1:
        raise ValueError("need K_size >= 2 and N >= 1")
    stated = (K_size * ((K_size - 1) ** N - 1)) // (K_size - 1)
    proof_sum = sum(K_size ** i for i in range(N + 1))
    return stated, proof_sum
