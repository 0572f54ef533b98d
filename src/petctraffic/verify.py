"""Randomized validation tying the concrete loop to the abstract models.

Forward direction: sampled concrete words must appear in the bisimilar
model and replay its unique trace.  Backward direction: every stored
witness must regenerate exactly its word.  For the simulating model,
sampled infinite runs must be reproducible edge by edge, and every
stored witness must lie on the unit shell and regenerate its word.  All
sampling is seeded and exact: random dyadic points, integer membership
tests.
Both checks run on integer orbits of ``semantics.IntegerStepper``: each
sampled run or witness replay is stepped once, and its words, states
and Lyapunov tests are read off that orbit.  The state is an integer
pair (n_x <= 2), never reduced, so it grows by the bits of the
denominator of M(k) at each step (52-57 on the bundled loop).  Each
inter-event time is looked up by the direction of the state, and each
Lyapunov comparison made on the float levels of two points, from their
top ``semantics.WIDTH`` bits; the whole integers decide only within a
proven margin, so a step takes time about linear in the bits of the
state.
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


def _sublevel_points(disc: DiscretizedPetc, seed: int,
                     prec: int) -> Iterator[tuple[RatVector, Fraction]]:
    """Exact rational points x with V(x) <= V0, each with V(x), by
    rejection from the bounding box of the ellipsoid, without end.

    Coordinate i is a uniform dyadic n_i / 2^prec, |n_i| <= 2^prec,
    times the box's half-width a_i / b_i, to a denominator of at most
    10^9 unless that gives 0.  Over D = 2^prec lcm(b_i), x = y / D with
    integer y, so acceptance is an integer test and only an accepted
    point is made a Fraction.
    """
    rng = random.Random(seed)
    stepper = semantics.IntegerStepper(disc)
    scale = 1 << prec
    radii = [Fraction(r).limit_denominator(10 ** 9) or Fraction(r)
             for r in _bounding_radii(disc)]
    den = math.lcm(*(r.denominator for r in radii))
    weights = [r.numerator * (den // r.denominator) for r in radii]
    common = scale * den
    while True:
        y = tuple([rng.randint(-scale, scale) * w for w in weights])
        v = stepper.V(y, common)
        if v <= disc.V0:
            yield tuple([Fraction(e, common) for e in y]), v


def sample_states(disc: DiscretizedPetc, n: int, seed: int,
                  prec: int = 30) -> list[RatVector]:
    """n exact rational points with V(x) <= V0, by rejection from the
    bounding box of the ellipsoid; dyadic multiples of rational radii,
    exact acceptance."""
    return [x for x, _ in islice(_sublevel_points(disc, seed, prec), n)]


def sample_shell_states(disc: DiscretizedPetc, n: int, seed: int,
                        prec: int = 30) -> list[RatVector]:
    """n exact rational points with r V0 < V(x) <= V0, i.e. inside the
    initial set but outside the periodic set; used to exercise the
    event-triggered phase.  A sublevel point x below the band is scaled
    by the simplest rational lambda with r V0 < lambda^2 V(x) < V0."""
    if n == 0:
        return []
    out = []
    rv0 = disc.r * disc.V0
    for x, v in _sublevel_points(disc, seed ^ 0x5EED, prec):
        if v == 0:
            continue
        if v <= rv0:
            lo, hi = rv0 / v, disc.V0 / v
            lam = Fraction(*qfnra.simplest_sqrt_between(
                lo.numerator, lo.denominator, hi.numerator, hi.denominator))
            x = tuple(lam * c for c in x)
        out.append(x)
        if len(out) == n:
            return out


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
    for i, x0 in enumerate(sample_states(disc, n_samples, seed)):
        run = stepper.entry_run(x0, cap)
        word = tuple(pt.k for pt in run)
        rep.n_checked += 1
        if word not in model.states:
            rep.add_failure(direction="forward", sample=i, x0=x0, word=word)
            continue
        # the unique model trace from `word` is its chain of suffixes;
        # outputs must equal the concrete inter-sample times, and every
        # state before entry must lie in the initial set
        for j, pt in enumerate(run):
            w = word[j:]
            if (stepper.outside(pt)
                    or outputs[pt.k] != model.output[w]
                    or (w, w[1:]) not in model.edges):
                rep.add_failure(direction="forward-trace", sample=i, x0=x0,
                                word=word, at=w)
                break

    _check_witnesses(rep, model, stepper, cap,
                     lambda x: len(x) == disc.n_x and disc.V(x) <= disc.V0,
                     direction="backward")
    return rep


def _check_witnesses(rep: CheckReport, model: TrafficModel,
                     stepper: semantics.IntegerStepper, cap: int,
                     admitted, **tag) -> None:
    """Backward: every stored witness regenerates exactly its word; one
    that `admitted` rejects, such as one with the wrong number of
    coordinates, has no word (replay None)."""
    for w in sorted(model.witnesses, key=word_key):
        rep.n_checked += 1
        x0 = model.witnesses[w]
        replay = None
        if admitted(x0):
            replay = tuple(pt.k for pt in stepper.entry_run(x0, cap))
        if replay != w:
            rep.add_failure(**tag, word=w, replay=replay, witness=x0)


def _windows(stepper: semantics.IntegerStepper, x0: RatVector,
             r: Fraction, max_len: int
             ) -> Iterator[tuple[tuple[int, ...], semantics.OrbitPoint]]:
    """The word of each point x_s of the run from x0, s = 0, 1, ..., with
    the point, all read off one integer orbit.

    The word of x_s is k_s ... k_{e-1}, where e is the first index > s
    with V(x_e) <= r V(x_s), which ``semantics.above`` decides on the
    levels of x_e and x_s.  Only the points from s to e are kept, with
    their letters, from which each word is sliced.  The windows end at
    the origin, y = 0, the one point with V = 0 as P is positive
    definite, where the run has nothing left to check.
    """
    bound = semantics.log_bound(r)
    orbit = stepper.orbit(x0)
    window = [next(orbit)]
    letters = (window[0].k,)
    while True:
        start = window[0]
        if not any(start.y):
            return
        e = 0
        while e == 0 or semantics.above(window[e], bound, start):
            if e >= max_len:
                raise semantics.HorizonExceededError(window[e].state(),
                                                     letters[:e])
            e += 1
            if e == len(window):
                pt = next(orbit)
                window.append(pt)
                letters += (pt.k,)
        yield letters[:e], start
        del window[0]
        letters = letters[1:]


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
    for i, x0 in enumerate(sample_shell_states(disc, n_samples, seed)):
        prev = None
        windows = _windows(stepper, x0, disc.r, cap)
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
    _check_witnesses(rep, model, stepper, cap,
                     lambda x: len(x) == disc.n_x and disc.V(x) == disc.V0,
                     kind="backward")
    return rep
