"""Randomized validation tying the concrete loop to the abstract models.

Forward direction: sampled concrete words must appear in the bisimilar
model and replay its unique trace.  Backward direction: every stored
witness must regenerate exactly its word.  For the simulating model,
sampled infinite runs must be reproducible edge by edge, and every
stored witness must lie on the unit shell and regenerate its word.  All
sampling is seeded and exact: random dyadic points, integer membership
tests.
Both checks run on integer orbits of ``semantics.IntegerStepper``, one
stepper per check, and stay in integers from the sample to the verdict:
the samplers yield integer pairs y over a scale c, the band rescale and
the admission of a witness are integer tests on v = y'P_int y and c,
and each sampled run or witness replay is stepped once from its (y, c),
its words, states and Lyapunov tests read off that orbit.  Only a
failure record or a public sampler makes a ``Fraction``.  The state is
never reduced, so it grows by the bits of the denominator of M(k) at
each step (52-57 on the bundled loop).  Each inter-event time is looked
up by the direction of the state, and each Lyapunov comparison made on
the float levels of two points, from their top ``semantics.WIDTH``
bits; the whole integers decide only within a proven margin, so a step
takes time about linear in the bits of the state.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterator

from . import qfnra, semantics
from .abstraction import MPETC_BISIM, PETC_SIM, TrafficModel, word_key
from .ratlin import RatVector
from .sysmodel import DiscretizedPetc, identity, solve


@dataclass
class CheckReport:
    name: str
    n_checked: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def add_failure(self, **info):
        self.failures.append(info)

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{self.name}: {status} ({self.n_checked} checks)"
        for f in self.failures[:10]:
            out += "\n  " + json.dumps(f, default=str)
        return out


def _bounding_radii(disc: DiscretizedPetc) -> list[float]:
    """Per-axis half-widths of a box containing {V <= V0}: the square
    roots of V0 times the diagonal of P^-1."""
    n = disc.n_x
    inv = solve([[float(e) for e in row] for row in disc.P_rat], identity(n))
    return [math.sqrt(float(disc.V0) * max(inv[i][i], 0.0))
            for i in range(n)]


def _sublevel_points(disc: DiscretizedPetc, stepper: semantics.IntegerStepper,
                     seed: int, prec: int = 30
                     ) -> Iterator[tuple[tuple[int, int], int, int]]:
    """Exact points x = y / c with V(x) <= V0, by rejection from the
    bounding box of the ellipsoid, without end: each as (y, c, v), with
    y an integer pair, padded from one variable, and v = y'P_int y, so
    that V(x) = v / (d_P c^2).

    Coordinate i is a uniform dyadic n_i / 2^prec, |n_i| <= 2^prec,
    times the box's half-width a_i / b_i, to a denominator of at most
    10^9 unless that gives 0.  All share c = 2^prec lcm(b_i), so
    acceptance is an integer test.
    """
    rng = random.Random(seed)
    scale = 1 << prec
    radii = [Fraction(r).limit_denominator(10 ** 9) or Fraction(r)
             for r in _bounding_radii(disc)]
    den = math.lcm(*(r.denominator for r in radii))
    weights = [r.numerator * (den // r.denominator) for r in radii]
    c = scale * den
    v0 = stepper.d_p * disc.V0
    top = v0.numerator * c * c
    lyapunov = stepper.lyapunov
    while True:
        y = [rng.randint(-scale, scale) * w for w in weights]
        y0, y1 = y if len(y) == 2 else (y[0], 0)
        v = semantics.form_value(lyapunov, y0, y1)
        if v * v0.denominator <= top:
            yield (y0, y1), c, v


def _shell_points(disc: DiscretizedPetc, stepper: semantics.IntegerStepper,
                  seed: int, prec: int = 30
                  ) -> Iterator[tuple[tuple[int, int], int]]:
    """Exact points y / c with r V0 < V <= V0, without end: the nonzero
    sublevel points, each one below the band scaled by the simplest
    rational lambda = p / q with r V0 < lambda^2 V < V0, to p y / q c.
    The bounds on lambda^2 are passed unreduced, which gives the floors,
    and so the lambda, of the reduced ones."""
    v0 = stepper.d_p * disc.V0
    rv0 = v0 * disc.r
    for (y0, y1), c, v in _sublevel_points(disc, stepper, seed ^ 0x5EED,
                                           prec):
        if v == 0:
            continue
        cc = c * c
        if v * rv0.denominator <= rv0.numerator * cc:
            p, q = qfnra.simplest_sqrt_between(
                rv0.numerator * cc, rv0.denominator * v,
                v0.numerator * cc, v0.denominator * v)
            y0, y1, c = p * y0, p * y1, q * c
        yield (y0, y1), c


def _rational(disc: DiscretizedPetc, y: tuple[int, int], c: int) -> RatVector:
    """The exact state y / c, of n_x coordinates."""
    return tuple([Fraction(e, c) for e in y[:disc.n_x]])


def sample_states(disc: DiscretizedPetc, n: int, seed: int,
                  prec: int = 30) -> list[RatVector]:
    """n exact rational points with V(x) <= V0, by rejection from the
    bounding box of the ellipsoid; dyadic multiples of rational radii,
    exact acceptance."""
    points = _sublevel_points(disc, semantics.IntegerStepper(disc), seed,
                              prec)
    return [_rational(disc, y, c) for y, c, _ in islice(points, n)]


def sample_shell_states(disc: DiscretizedPetc, n: int, seed: int,
                        prec: int = 30) -> list[RatVector]:
    """n exact rational points with r V0 < V(x) <= V0, i.e. inside the
    initial set but outside the periodic set; used to exercise the
    event-triggered phase.  A sublevel point x below the band is scaled
    by the simplest rational lambda with r V0 < lambda^2 V(x) < V0."""
    points = _shell_points(disc, semantics.IntegerStepper(disc), seed, prec)
    return [_rational(disc, y, c) for y, c in islice(points, n)]


def check_bisim_sample(disc: DiscretizedPetc, model: TrafficModel,
                       n_samples: int, seed: int = 0) -> CheckReport:
    """Thm.-1-style spot check of the bisimilar model.  Each sampled run
    and each witness replay is one integer orbit up to its entry into
    the periodic set; a failure records the exact rational state."""
    if model.kind != MPETC_BISIM:
        raise ValueError("expected the bisimilar model")
    rep = CheckReport(name="bisimulation sample check")
    cap = 10 * len(model.states)
    stepper = semantics.IntegerStepper(disc)
    outputs = {k: disc.h * k for k in range(1, disc.k_bar + 1)}

    # forward: sampled concrete word is a state and replays the tree
    points = _sublevel_points(disc, stepper, seed)
    for i, ((y0, y1), c, _) in enumerate(islice(points, n_samples)):
        run = stepper.entry_run(stepper.run(y0, y1, c), cap)
        word = tuple([pt.k for pt in run])
        rep.n_checked += 1
        if word not in model.states:
            rep.add_failure(direction="forward", sample=i,
                            x0=_rational(disc, (y0, y1), c), word=word)
            continue
        # the unique model trace from `word` is its chain of suffixes;
        # outputs must equal the concrete inter-sample times, and every
        # state before entry must lie in the initial set
        for j, pt in enumerate(run):
            w = word[j:]
            if (stepper.outside(pt)
                    or outputs[pt.k] != model.output[w]
                    or (w, w[1:]) not in model.edges):
                rep.add_failure(direction="forward-trace", sample=i,
                                x0=_rational(disc, (y0, y1), c),
                                word=word, at=w)
                break

    _check_witnesses(rep, disc, model, stepper, cap, False,
                     direction="backward")
    return rep


def _check_witnesses(rep: CheckReport, disc: DiscretizedPetc,
                     model: TrafficModel, stepper: semantics.IntegerStepper,
                     cap: int, on_shell: bool, **tag) -> None:
    """Backward: every stored witness regenerates exactly its word.  Each
    is made an integer pair y / c once, admitted on v = y'P_int y by
    V <= V0, or by V = V0 if on_shell, and replayed from that pair; one
    that is not admitted, or has the wrong number of coordinates, has no
    word (replay None)."""
    v0 = stepper.d_p * disc.V0
    for w in sorted(model.witnesses, key=word_key):
        rep.n_checked += 1
        x0 = model.witnesses[w]
        replay = None
        if len(x0) == disc.n_x:
            y0, y1, c = semantics.integer_state(x0)
            lhs = (semantics.form_value(stepper.lyapunov, y0, y1)
                   * v0.denominator)
            rhs = v0.numerator * c * c
            if lhs == rhs or (lhs < rhs and not on_shell):
                run = stepper.entry_run(stepper.run(y0, y1, c), cap)
                replay = tuple([pt.k for pt in run])
        if replay != w:
            rep.add_failure(**tag, word=w, replay=replay, witness=x0)


def _windows(orbit: Iterator[semantics.OrbitPoint], r: Fraction,
             max_len: int
             ) -> Iterator[tuple[tuple[int, ...], semantics.OrbitPoint]]:
    """The word of each point x_s of an integer orbit, s = 0, 1, ..., with
    the point.

    The word of x_s is k_s ... k_{e-1}, where e is the first index > s
    with V(x_e) <= r V(x_s): decided on the levels of x_e and x_s by the
    float branch of ``semantics.above``, taken inline, and by ``above``
    itself only within LEVEL_MARGIN or on a NaN level.  Only the points
    from s to e are kept, with their letters, from which each word is
    sliced.  The windows end at the origin, y = 0, the one point with
    V = 0 as P is positive definite, where the run has nothing left to
    check.
    """
    bound = semantics.log_bound(r)
    log_r, margin, above = bound[1], semantics.LEVEL_MARGIN, semantics.above
    window = [next(orbit)]
    letters = [window[0].k]
    while True:
        start = window[0]
        if not any(start.y):
            return
        e = 0
        while True:
            if e >= max_len:
                raise semantics.HorizonExceededError(window[e].state(),
                                                     tuple(letters[:e]))
            e += 1
            if e == len(window):
                pt = next(orbit)
                window.append(pt)
                letters.append(pt.k)
            pt = window[e]
            d = pt.level - log_r - start.level
            if not (d > 0 if abs(d) > margin else above(pt, bound, start)):
                break
        yield tuple(letters[:e]), start
        del window[0], letters[0]


def check_sim_petc(disc: DiscretizedPetc, model: TrafficModel,
                   n_samples: int, steps: int, seed: int = 0) -> CheckReport:
    """Thm.-2-style spot check: sampled pure event-triggered runs are
    reproducible by edge-following through the simulating model.  Each
    run is one integer orbit, and the word at every step is a window of
    it; a failure records the exact rational state.  Backward, every
    stored witness must lie on the unit shell and regenerate exactly its
    word."""
    if model.kind != PETC_SIM:
        raise ValueError("expected the simulating model")
    rep = CheckReport(name="simulation sample check")
    cap = 10 * len(model.states)
    stepper = semantics.IntegerStepper(disc)
    points = _shell_points(disc, stepper, seed)
    for i, ((y0, y1), c) in enumerate(islice(points, n_samples)):
        prev = None
        windows = _windows(stepper.run(y0, y1, c), disc.r, cap)
        for step, (word, point) in zip(range(steps), windows):
            rep.n_checked += 1
            if word not in model.states:
                rep.add_failure(sample=i, step=step, x=point.state(),
                                word=word, kind="missing state")
                break
            if prev is not None and (prev, word) not in model.edges:
                rep.add_failure(sample=i, step=step, x=point.state(),
                                word=word, prev=prev, kind="missing edge")
                break
            prev = word
    _check_witnesses(rep, disc, model, stepper, cap, True, kind="backward")
    return rep
