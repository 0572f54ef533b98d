"""Exact concrete semantics of the event-triggered loop.

The inter-event map kappa, the mixed sampling step, word extraction, and
trace simulation — all evaluated in exact rational arithmetic over the
frozen discretization, so these routines double as the brute-force
oracle for the abstract models.  ``IntegerStepper`` runs the pure
event-triggered law exactly too, on integer pairs up to a positive scale
(n_x <= 2, one variable padded to two) with binary forms, from an
integer pair and its scale (``run``) or from a rational state
(``orbit``).  It decides in floats from the top bits of the state:
kappa from a table of the root slopes of the trigger forms, and each
Lyapunov comparison on log-levels, with the whole integers deciding
only within a proven margin.  Both checks of ``verify`` run on its
orbits from integer starts, ``entry_run`` gives the word that
``concrete_sequence`` gives, and ``wordtree`` takes its integer loop
from it.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from . import qfnra, ratlin
from .ratlin import RatVector
from .sysmodel import DiscretizedPetc

ConcreteState = RatVector


class HorizonExceededError(RuntimeError):
    """The word grew past the certified horizon; the contraction factor is bad."""

    def __init__(self, state: ConcreteState, word: tuple[int, ...]):
        super().__init__(
            f"no periodic-set entry within {len(word)} steps, at {state}")
        self.state = state  # the state reached at the cap, after `word`
        self.word = word


def kappa(disc: DiscretizedPetc, x: ConcreteState) -> int:
    """Discrete inter-event time: min{k : x'N(k)x > 0 or k = k_bar}.

    The strict comparison is exact; x = 0 yields k_bar (all forms
    vanish, so only the terminal disjunct fires).
    """
    for k in range(1, disc.k_bar):
        if ratlin.quad_form(disc.N[k], x) > 0:
            return k
    return disc.k_bar


def mpetc_step(disc: DiscretizedPetc,
               x: ConcreteState) -> tuple[ConcreteState, Fraction]:
    """One step of the mixed strategy: event-triggered outside the inner
    sublevel set {V <= r V0}, periodic with period h_P inside (boundary
    states take the periodic branch)."""
    v = disc.V(x)
    if v > disc.V0:
        raise ValueError(f"state outside the initial sublevel set: V = {v}")
    if v > disc.r * disc.V0:
        k = kappa(disc, x)
        return ratlin.mat_vec(disc.M[k], x), disc.h * k
    return ratlin.mat_vec(disc.M_P, x), disc.h_P


def petc_step(disc: DiscretizedPetc,
              x: ConcreteState) -> tuple[ConcreteState, int]:
    """One step of the pure event-triggered law, no periodic switch."""
    k = kappa(disc, x)
    return ratlin.mat_vec(disc.M[k], x), k


def concrete_sequence(disc: DiscretizedPetc, x0: ConcreteState,
                      max_len: int | None = None) -> tuple[int, ...]:
    """Word of discrete inter-event times until first entry into the
    periodic set; the empty word if x0 already lies inside.

    ``max_len`` (default: a loose cap) guards against a miscertified
    contraction factor; exceeding it raises with the offending prefix and
    the state reached after it.
    """
    if disc.V(x0) > disc.V0:
        raise ValueError("initial state outside the initial sublevel set")
    cap = max_len if max_len is not None else 10_000
    rv0 = disc.r * disc.V0
    word: list[int] = []
    x = x0
    while disc.V(x) > rv0:
        if len(word) >= cap:
            raise HorizonExceededError(x, tuple(word))
        x, k = petc_step(disc, x)
        word.append(k)
    return tuple(word)


# Width in bits of the top part of an orbit state, from which
# ``IntegerStepper`` takes the float slope and level of each point: any
# few dozen bits keep their errors far inside the margins below, and 62
# keeps each product of top parts and form coefficients small.
WIDTH = 62

# Within these margins of a cut, or of the log2 of a bound, a float slope
# or difference of levels is decided on the whole integers instead.
SLOPE_MARGIN = 2.0 ** -30
LEVEL_MARGIN = 2.0 ** -26
# Beyond this |level|, or this log2 of the scale, float rounding could
# exceed LEVEL_MARGIN / 4.
_LEVEL_CAP = 2.0 ** 16
_SCALE_CAP = 2.0 ** 19


def _tolerance(f: tuple[int, int, int]) -> int:
    """sum |f_i| (2^(WIDTH+1) + 1): a bound on |f(y) / 4^s - f(y >> s)|
    whenever y has more than WIDTH bits and s = bitlen(y) - WIDTH."""
    return sum(map(abs, f)) * ((2 << WIDTH) + 1)


def form_value(f: tuple[int, int, int], y0: int, y1: int = 0) -> int:
    """(a y0 + b y1) y0 + e y1^2 for f = (a, b, e); y1 = 0 in one variable."""
    a, b, e = f
    return (a * y0 + b * y1) * y0 + e * y1 * y1


def integer_state(x: ConcreteState) -> tuple[int, int, int]:
    """(y0, y1, c) with x = (y0, y1) / c over the least common denominator
    c of the coordinates of x, padded with y1 = 0 from one variable."""
    c = math.lcm(*(e.denominator for e in x))
    y0, y1 = (e.numerator * (c // e.denominator)
              for e in (x if len(x) == 2 else (x[0], 0)))
    return y0, y1, c


def log_bound(q: Fraction) -> tuple[Fraction, float]:
    """(q, log2 q) for a rational q > 0, as ``above`` takes it; log2 q is
    within 2^-29 while q has fewer than 2^20 bits."""
    return q, math.log2(q.numerator) - math.log2(q.denominator)


class OrbitPoint(NamedTuple):
    """Step j of an integer orbit: the state x_j = y / c, with y padded to
    two coordinates, its inter-event index k = kappa(x_j), the common
    denominator d of M(k), so that the next scale is c d, and its level,
    a float within LEVEL_MARGIN / 4 of log2(v / c^2) = log2(d_P V(x_j))
    for v = y'P_int y, or NaN where ``IntegerStepper`` keeps none.
    ``lyapunov`` holds P_int as a binary form, by which v itself is
    computed on demand."""

    k: int
    d: int
    y: tuple[int, int]
    c: int
    level: float
    lyapunov: tuple[int, int, int]

    @property
    def v(self) -> int:
        """y'P_int y, exactly."""
        return form_value(self.lyapunov, *self.y)

    def state(self) -> ConcreteState:
        """The exact rational state x_j, of n_x coordinates: P_int, positive
        definite, lacks a y1^2 term only if padded from one variable."""
        x = tuple([Fraction(e, self.c) for e in self.y])
        return x if self.lyapunov[2] else x[:1]


# Makes an OrbitPoint from the tuple of its fields, in C, without the
# keyword handling of the NamedTuple's own __new__.
_new_point = tuple.__new__


def above(a: OrbitPoint, bound: tuple[Fraction, float],
          b: OrbitPoint | None = None) -> bool:
    """Whether V(x_a) > q V(x_b), or without b d_P V(x_a) > q, exactly,
    for bound = (q, log2 q): on the levels, and on the whole integers v
    and c where their difference is NaN or within LEVEL_MARGIN of log2 q."""
    q, log_q = bound
    d = a.level - log_q - (0.0 if b is None else b.level)
    if abs(d) > LEVEL_MARGIN:
        return d > 0
    vb, cb = (1, 1) if b is None else (b.v, b.c)
    return q.denominator * a.v * cb * cb > q.numerator * vb * a.c * a.c


class IntegerStepper:
    """The pure event-triggered law on integer pairs (``ratlin.padded``).

    A state x is kept as y = c x with y integer and c > 0.  Each M(k) is
    split as M_int(k) / d_k over the common denominator of its entries,
    so y' = M_int(k) y and c' = c d_k.  N(k) and P are scaled to integer
    binary forms (a, b, e), with f(y) = (a y0 + b y1) y0 + e y1^2: the
    sign of y'N_int(k)y is that of x'N(k)x, so kappa needs no scale at
    all.  P_int = d_P P over the common denominator d_P of P, so the
    integer value v = y'P_int y is d_P c^2 V(x).  A run starts from any
    such (y, c), reduced or not (``run``), or from a rational state
    (``orbit``, by ``integer_state``).

    No gcd is taken, so y and c grow by the bits of d_k at every step,
    and each decision is taken in floats from their top bits.  Let
    s = max(bitlen(y0), bitlen(y1)) - WIDTH where that is positive, and
    m = y >> s, so that y_i = 2^s (m_i + e_i) with 0 <= e_i < 1 and the
    larger |m_i| at least 2^(WIDTH-1); else s = 0 and m = y.

    kappa depends only on the direction of y, and each trigger form keeps
    its sign between its root slopes.  So the slope y1/y0, or y0/y1 where
    |m1| > |m0|, is looked up in a table of those roots, cut at the
    64-bit enclosures of ``qfnra.roots_of_quadratic``, with kappa fixed
    exactly on each arc at a rational direction inside it.  The float
    slope m1/m0 and each cut are within 2^-50 of the exact ones, so a
    slope farther than SLOPE_MARGIN from both ends of its arc lies in it;
    nearer, or at y = 0, the forms' signs on the whole integers decide.

    For an integer form f with coefficients f_ij,

        |f(y) - 4^s f(m)| <= 4^s sum |f_ij| (|m_i| + |m_j| + 1)
                          <= 4^s sum |f_ij| (2^(WIDTH+1) + 1),

    the tolerance of f.  Where v(m) exceeds 2^32 times the tolerance of
    P, log2 v(m) + 2s is so within 2^-31 of log2 v, and the level
    log2 v(m) + 2 (s - log2 c) within 2^-31 of log2(v / c^2); c is taken
    whole.  The level is kept only where |level| < 2^16 and
    log2 c < 2^19, and elsewhere is NaN.  Then 0 <= log2 v(m) < 2^21
    (s >= 0) and |s - log2 c| < 2^21.  ``math.log2`` rounds an integer
    to a double within a factor 1 +- 2^-53, which moves its log2 by less
    than 2^-52, and is then within one ulp; so float rounding adds less
    than 2^-32 for log2 v(m), 2^-32 for twice log2 c, 2^-32 for twice
    s - log2 c and 2^-37 for the sum, in all less than 2^-30.  The level
    is within 2^-29.4 < LEVEL_MARGIN / 4 of log2(v / c^2), and ``above``
    decides every Lyapunov test exactly.  The state itself is never
    rounded.  More than two variables raise ValueError.  Callers only
    read ``maps`` (k to (M_int(k), d_k)), ``forms`` (N_int(k),
    k < k_bar), ``lyapunov`` (P_int) and ``d_p``.
    """

    def __init__(self, disc: DiscretizedPetc):
        if disc.n_x > 2:
            raise ValueError(f"{disc.n_x} variables not supported")
        self._k_bar = disc.k_bar
        self.forms = [ratlin.integer_form(ratlin.padded(disc.N[k]))
                      for k in range(1, disc.k_bar)]
        self.lyapunov = ratlin.integer_form(ratlin.padded(disc.P_rat))
        self._guard = _tolerance(self.lyapunov) << 32
        self.maps = {k: ratlin.integer_matrix(ratlin.padded(m))
                     for k, m in disc.M.items()}
        # per k, M_int(k) flat as (a, b, e, f), and d_k
        self._steps = {k: (*m[0], *m[1]) for k, (m, _) in self.maps.items()}
        self._d = {k: d for k, (_, d) in self.maps.items()}
        self.d_p = ratlin.integer_matrix(disc.P_rat)[1]
        self._v0 = log_bound(self.d_p * disc.V0)
        self._rv0 = log_bound(self.d_p * disc.r * disc.V0)
        self._by_y0 = self._table(False)
        self._by_y1 = self._table(True)

    def _table(self, swap: bool) -> tuple[list[float], list[int]]:
        """The direction table of the slope y1/y0, or of y0/y1 if swap:
        the slopes in (-2, 2) at which a trigger form vanishes, ascending
        between the ends -2 and 2, and kappa at index i on the arc between
        cuts i - 1 and i, fixed at the rational direction halfway."""
        cuts = sorted({
            r.enc[0] / 2 ** 64 for a, b, e in self.forms
            for r in qfnra.roots_of_quadratic(*((a, b, e) if swap
                                                else (e, b, a)))
            if abs(r.enc[0]) < 1 << 65})
        cuts = [-2.0, *cuts, 2.0]
        kappas = [self._k_bar]
        for lo, hi in zip(cuts, cuts[1:]):
            t = (Fraction(lo) + Fraction(hi)) / 2
            p, q = t.numerator, t.denominator
            kappas.append(self._kappa(p, q) if swap else self._kappa(q, p))
        return cuts, kappas

    def _kappa(self, y0: int, y1: int) -> int:
        """kappa at the direction y, from the signs of the trigger forms
        on the whole integers."""
        for k, (a, b, e) in enumerate(self.forms, 1):
            if (a * y0 + b * y1) * y0 + e * y1 * y1 > 0:
                return k
        return self._k_bar

    def _point(self, y: tuple[int, int], c: int) -> OrbitPoint:
        """The orbit point of the state y / c."""
        y0, y1 = y
        s, t = y0.bit_length(), y1.bit_length()
        s = (s if s > t else t) - WIDTH
        if s > 0:
            m0, m1, guard = y0 >> s, y1 >> s, self._guard
        else:
            s, m0, m1, guard = 0, y0, y1, 0
        if abs(m1) <= abs(m0):
            (cuts, kappas), slope = (self._by_y0,
                                     float(m1) / m0 if m0 else math.nan)
        else:
            (cuts, kappas), slope = self._by_y1, float(m0) / m1
        i = bisect(cuts, slope, 1, len(cuts) - 1)
        if (slope - cuts[i - 1] > SLOPE_MARGIN
                and cuts[i] - slope > SLOPE_MARGIN):
            k = kappas[i]
        else:
            k = self._kappa(y0, y1)
        a, b, e = lyapunov = self.lyapunov
        v = (a * m0 + b * m1) * m0 + e * m1 * m1
        log_c = math.log2(c)
        level = (math.log2(v) + 2 * (s - log_c)
                 if v > guard and log_c < _SCALE_CAP else math.nan)
        if not -_LEVEL_CAP < level < _LEVEL_CAP:
            level = math.nan
        return _new_point(OrbitPoint, (k, self._d[k], y, c, level, lyapunov))

    def outside(self, pt: OrbitPoint) -> bool:
        """Whether V(x) > V0 at pt: x lies outside the initial set."""
        return above(pt, self._v0)

    def run(self, y0: int, y1: int, c: int) -> Iterator[OrbitPoint]:
        """The points x_0, x_1, ... of the run from the state (y0, y1) / c,
        c > 0, without end."""
        point, steps = self._point, self._steps
        while True:
            pt = point((y0, y1), c)
            yield pt
            a, b, e, f = steps[pt.k]
            y0, y1 = a * y0 + b * y1, e * y0 + f * y1
            c *= pt.d

    def orbit(self, x0: ConcreteState) -> Iterator[OrbitPoint]:
        """The points x_0, x_1, ... of the run from the rational x0,
        without end."""
        return self.run(*integer_state(x0))

    def entry_run(self, orbit: Iterator[OrbitPoint],
                  max_len: int) -> list[OrbitPoint]:
        """The points of orbit, the run from some x0 (``run`` or
        ``orbit``), before its first entry into the periodic set
        {V <= r V0}: their letters are the word of x0, and they are the
        states that the mixed strategy steps with the event-triggered
        law.  Raises as ``concrete_sequence`` does: a ValueError when x0
        lies outside the initial set, and past max_len letters a
        HorizonExceededError with the state reached and the prefix."""
        pt = next(orbit)
        if self.outside(pt):
            raise ValueError("initial state outside the initial sublevel set")
        run: list[OrbitPoint] = []
        while above(pt, self._rv0):
            if len(run) >= max_len:
                raise HorizonExceededError(pt.state(),
                                           tuple(p.k for p in run))
            run.append(pt)
            pt = next(orbit)
        return run


# The trace is exact, so each step adds the bits of the denominator of
# M(k) or M_P to the state: about 53, but over 1,000 for an h_P so small
# that M_P rounds to the identity, where 50 steps take a second and 200
# a minute.  The bundled runs take 10 to 22 steps.
MAX_TRACE_STEPS = 50


@dataclass(frozen=True)
class Trace:
    """Sampled trajectory: states at sampling instants and the times between."""

    times: tuple[Fraction, ...]
    states: tuple[ConcreteState, ...]
    entered_periodic_at: int | None

    def __post_init__(self):
        if len(self.states) != len(self.times) + 1:
            raise ValueError("need one more state than inter-sample times")

    def sampling_instants(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)]
        for t in self.times:
            out.append(out[-1] + t)
        return tuple(out)

    def to_csv(self, disc: DiscretizedPetc) -> str:
        buf = io.StringIO()
        n = disc.n_x
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["sample_index", "t", "inter_sample_time", "V"]
                        + [f"x{i + 1}" for i in range(n)])
        instants = self.sampling_instants()
        for i, x in enumerate(self.states):
            dt = self.times[i] if i < len(self.times) else ""
            writer.writerow([i, float(instants[i]),
                             float(dt) if dt != "" else "",
                             float(disc.V(x))] + [float(v) for v in x])
        return buf.getvalue()


def simulate_trace(disc: DiscretizedPetc, x0: ConcreteState,
                   horizon) -> Trace:
    """Run the mixed strategy from x0 until the next step would pass the
    horizon, or for MAX_TRACE_STEPS steps; records every sampling
    instant."""
    horizon = Fraction(horizon)
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    states = [ratlin.vec(x0)]
    times: list[Fraction] = []
    entered: int | None = None
    rv0 = disc.r * disc.V0
    if disc.V(states[0]) <= rv0:
        entered = 0
    elapsed = Fraction(0)
    while len(times) < MAX_TRACE_STEPS:
        x, dt = mpetc_step(disc, states[-1])
        if elapsed + dt > horizon:
            break
        elapsed += dt
        states.append(x)
        times.append(dt)
        if entered is None and disc.V(x) <= rv0:
            entered = len(states) - 1
    return Trace(times=tuple(times), states=tuple(states),
                 entered_periodic_at=entered)
