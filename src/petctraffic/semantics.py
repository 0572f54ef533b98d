"""Exact concrete semantics of the event-triggered loop.

The inter-event map kappa, the mixed sampling step, word extraction, and
trace simulation — all evaluated in exact rational arithmetic over the
frozen discretization, so these routines double as the brute-force
oracle for the abstract models.  ``IntegerStepper`` runs the pure
event-triggered law exactly too, on integer pairs up to a positive scale
(n_x <= 2, one variable padded to two) with binary forms: each sign and
comparison is straight-line integer arithmetic on the top bits of the
state, or on the whole integers where those cannot decide.  Both checks
of ``verify`` run on its orbits, and ``IntegerStepper.entry_run`` gives
the word that ``concrete_sequence`` gives; ``wordtree`` takes its
integer loop from it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from . import ratlin
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


# Width in bits of the top part of an orbit state on which the signs and
# comparisons of ``IntegerStepper`` are decided.  Any width of a few
# dozen bits leaves the exact fallback rare; 62 keeps each product of
# top parts and form coefficients small.
WIDTH = 62


def _tolerance(f: tuple[int, int, int]) -> int:
    """sum |f_i| (2^(WIDTH+1) + 1): a bound on |f(y) / 4^s - f(y >> s)|
    whenever y has more than WIDTH bits and s = bitlen(y) - WIDTH."""
    return sum(map(abs, f)) * ((2 << WIDTH) + 1)


def _value(f: tuple[int, int, int], y0: int, y1: int = 0) -> int:
    """(a y0 + b y1) y0 + e y1^2 for f = (a, b, e); y1 = 0 in one variable."""
    a, b, e = f
    return (a * y0 + b * y1) * y0 + e * y1 * y1


def span_greater(x: tuple[int, int, int],
                 y: tuple[int, int, int]) -> bool | None:
    """Whether X > Y, for lo 2^e <= X <= hi 2^e with (lo, hi, e) = x, and
    Y within y alike; None when the two ranges overlap, where only the
    exact values decide."""
    (xl, xh, xe), (yl, yh, ye) = x, y
    if xe > ye:
        xl, xh = xl << xe - ye, xh << xe - ye
    else:
        yl, yh = yl << ye - xe, yh << ye - xe
    if xl > yh:
        return True
    if xh <= yl:
        return False
    return None


class OrbitPoint(NamedTuple):
    """Step j of an integer orbit: the state x_j = y / c, with y padded to
    two coordinates, its inter-event index k = kappa(x_j), the common
    denominator d of M(k), so that the next scale is c d, and the range
    (lo, hi, e) of v = y'P_int y, which is V(x_j) times d_P c^2:
    lo 2^e <= v <= hi 2^e, with lo = hi = v and e = 0 when y has at most
    WIDTH bits (see ``IntegerStepper``).  ``lyapunov`` holds P_int as a
    binary form, by which v itself is computed on demand."""

    k: int
    d: int
    y: tuple[int, int]
    c: int
    span: tuple[int, int, int]
    lyapunov: tuple[int, int, int]

    @property
    def v(self) -> int:
        """y'P_int y, exactly."""
        return _value(self.lyapunov, *self.y)

    def state(self) -> ConcreteState:
        """The exact rational state x_j, of n_x coordinates: P_int, positive
        definite, lacks a y1^2 term only if padded from one variable."""
        x = tuple([Fraction(e, self.c) for e in self.y])
        return x if self.lyapunov[2] else x[:1]


class IntegerStepper:
    """The pure event-triggered law on integer pairs (``ratlin.padded``).

    A state x is kept as y = c x with y integer and c > 0.  Each M(k) is
    split as M_int(k) / d_k over the common denominator of its entries,
    so y' = M_int(k) y and c' = c d_k.  N(k) and P are scaled to integer
    binary forms (a, b, e), with f(y) = (a y0 + b y1) y0 + e y1^2: the
    sign of y'N_int(k)y is that of x'N(k)x, so kappa needs no scale at
    all.  P_int = d_P P over the common denominator d_P of P, so the
    integer value v = y'P_int y is d_P c^2 V(x), and a bound V(x) <= t
    reads v <= d_P t c^2, in integers.

    No gcd is taken, so y and c grow by the bits of d_k at every step,
    and every sign and comparison is decided on their top bits.  Let
    s = max(bitlen(y0), bitlen(y1)) - WIDTH where that is positive, and
    m = y >> s, so that y_i = 2^s (m_i + e_i) with 0 <= e_i < 1 and
    |m_i| <= 2^WIDTH.  For an integer form f with coefficients f_ij,

        |f(y) - 4^s f(m)| <= 4^s sum |f_ij| (|m_i| + |m_j| + 1)
                          <= 4^s sum |f_ij| (2^(WIDTH+1) + 1),

    the tolerance of f.  So f(m) beyond the tolerance of f gives the
    sign of f(y), and v lies in [v(m) - tol, v(m) + tol] 4^s; c is
    bounded alike by its top bits.  Each test compares such integer
    ranges and takes the exact value, y'Fy or c^2, only when they
    overlap, so every decision is the exact one.  The state itself is
    never rounded.  A state of at most WIDTH bits is its own top part,
    with zero tolerance.  More than two variables raise ValueError.
    Callers only read ``maps`` (k to (M_int(k), d_k)), ``forms`` (N_int(k),
    k < k_bar), ``lyapunov`` (P_int) and ``d_p``.
    """

    def __init__(self, disc: DiscretizedPetc):
        if disc.n_x > 2:
            raise ValueError(f"{disc.n_x} variables not supported")
        self._k_bar = disc.k_bar
        self.forms = [ratlin.integer_form(ratlin.padded(disc.N[k]))
                      for k in range(1, disc.k_bar)]
        self._exact = [(*f, 0) for f in self.forms]
        self._trigger = [(*f, _tolerance(f)) for f in self.forms]
        self.lyapunov = ratlin.integer_form(ratlin.padded(disc.P_rat))
        self._tol_p = _tolerance(self.lyapunov)
        self.maps = {k: ratlin.integer_matrix(ratlin.padded(m))
                     for k, m in disc.M.items()}
        self.d_p = ratlin.integer_matrix(disc.P_rat)[1]
        self._v0 = self.d_p * disc.V0
        self._rv0 = self.d_p * disc.r * disc.V0

    def level(self, y: tuple[int, ...], c: int) -> Fraction:
        """V(x), exactly, for the state x = y / c of n_x coordinates."""
        return Fraction(_value(self.lyapunov, *y), self.d_p * c * c)

    def _point(self, y: tuple[int, int], c: int) -> OrbitPoint:
        """The orbit point of the state y / c."""
        y0, y1 = y
        s = max(y0.bit_length(), y1.bit_length()) - WIDTH
        if s > 0:
            m0, m1 = y0 >> s, y1 >> s
            trigger, tol = self._trigger, self._tol_p
        else:
            s, m0, m1, trigger, tol = 0, y0, y1, self._exact, 0
        k = self._k_bar
        for i, (a, b, e, t) in enumerate(trigger, 1):
            f = (a * m0 + b * m1) * m0 + e * m1 * m1
            if f > t or f >= -t and (a * y0 + b * y1) * y0 + e * y1 * y1 > 0:
                k = i
                break
        a, b, e = self.lyapunov
        v = (a * m0 + b * m1) * m0 + e * m1 * m1
        return OrbitPoint(k, self.maps[k][1], y, c,
                          (v - tol, v + tol, 2 * s), self.lyapunov)

    def _above(self, pt: OrbitPoint, bound: Fraction) -> bool:
        """Whether v > bound c^2 at pt, that is V(x) > bound / d_P."""
        num, den = bound.numerator, bound.denominator
        lo, hi, e = pt.span
        t = max(pt.c.bit_length() - WIDTH, 0)
        n = pt.c >> t  # n 2^t <= c < (n + 1) 2^t, and c = n 2^t if t = 0
        n1 = n + 1 if t else n
        above = span_greater((den * lo, den * hi, e),
                             (num * n * n, num * n1 * n1, 2 * t))
        return den * pt.v > num * pt.c * pt.c if above is None else above

    def outside(self, pt: OrbitPoint) -> bool:
        """Whether V(x) > V0 at pt: x lies outside the initial set."""
        return self._above(pt, self._v0)

    def orbit(self, x0: ConcreteState) -> Iterator[OrbitPoint]:
        """The points x_0, x_1, ... of the run from x0, without end."""
        c = math.lcm(*(e.denominator for e in x0))
        y0, y1 = (e.numerator * (c // e.denominator)
                  for e in (x0 if len(x0) == 2 else (x0[0], 0)))
        maps = self.maps
        while True:
            pt = self._point((y0, y1), c)
            yield pt
            ((a, b), (e, f)), d = maps[pt.k]
            y0, y1 = a * y0 + b * y1, e * y0 + f * y1
            c *= d

    def entry_run(self, x0: ConcreteState,
                  max_len: int) -> list[OrbitPoint]:
        """The points of the run from x0 before its first entry into the
        periodic set {V <= r V0}: their letters are the word of x0, and
        they are the states that the mixed strategy steps with the
        event-triggered law.  Raises as ``concrete_sequence`` does: a
        ValueError when x0 lies outside the initial set, and past
        max_len letters a HorizonExceededError with the state reached
        and the prefix."""
        orbit = self.orbit(x0)
        pt = next(orbit)
        if self.outside(pt):
            raise ValueError("initial state outside the initial sublevel set")
        run: list[OrbitPoint] = []
        while self._above(pt, self._rv0):
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
