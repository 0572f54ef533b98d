"""Shared fixtures: the two-dimensional example system at the fast
setting (r = 0.5) used by most tests, plus small synthetic systems, float
oracles of the exact semantics, the Fraction samplers and from-scratch
Fraction replays that the integer orbits of verify replaced, the
per-word solver queries that the word-tree engine of abstraction
replaced, the Fraction root isolation that the integer kernel of qfnra
replaced, the unit-shell conic search that the reflection of one base
direction replaced, with that reflection in Fraction, the t-scale
decision procedure that the sign-test decide of qfnra replaced, the
pairwise domino edges that the prefix index of abstraction replaced,
the full-sample word queries, with the sublevel terminal atoms, that
the feasible arcs of wordtree replaced, the refinement of a node's arcs
at its unit-shell atom that the pieces its split drops replaced, the
three-phase search for the contraction factor that the grid bisection
of contraction replaced, and the integer orbits evaluated in full that
the top-bits filter of semantics replaced, and the numpy float stage
(expm, eigenvalue sign tests, a per-period h_P scan) that the pure-Python
kernel of sysmodel replaced."""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from petctraffic import (abstraction, cli, contraction, qfnra, ratlin,
                         satcheck, semantics, sysmodel, verify, wordtree)
from petctraffic.sysmodel import PetcSystem, rationalize

A = [[0.0, 1.0], [-2.0, 3.0]]
B = [[0.0], [1.0]]
K = [[1.0, -4.0]]
P_LYAP = [[1.0, 0.25], [0.25, 1.0]]
Q_LYAP = [[0.5, 0.25], [0.25, 1.5]]
RHO = 0.8
H = Fraction(1, 10)
K_BAR = 6


def make_system(r, V0=Fraction(1), P=None) -> PetcSystem:
    return PetcSystem(A=A, B=B, K=K, P=P_LYAP if P is None else P, h=H,
                      k_bar=K_BAR, r=r, V0=V0, Q_lyap=Q_LYAP, rho=RHO)


def to_float_matrix(a) -> np.ndarray:
    return np.array([[float(e) for e in row] for row in a], dtype=float)


def _quad(f, xs) -> np.ndarray:
    return np.einsum("si,ij,sj->s", xs, f, xs)


def float_kappa(disc, xs) -> np.ndarray:
    """Float semantics.kappa of each row of xs: the first k with
    x' N(k) x > 0, else k_bar."""
    out = np.full(len(xs), disc.k_bar)
    for k in range(disc.k_bar - 1, 0, -1):
        out[_quad(to_float_matrix(disc.N[k]), xs) > 0] = k
    return out


def max_step_ratio(disc, xs) -> float:
    """Largest V(M(kappa(x)) x) / V(x) over the rows of xs, an empirical
    lower bound on the certified contraction factor."""
    p = to_float_matrix(disc.P_rat)
    ks = float_kappa(disc, xs)
    ratios = [_quad(p, xs[ks == k] @ to_float_matrix(disc.M[k]).T)
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


def _fraction_sublevel_points(disc, seed, prec):
    """Candidates built from the rounded radii and accepted by
    V(x) <= V0 in Fraction, without end."""
    rng = random.Random(seed)
    radii = verify._bounding_radii(disc)
    scale = 1 << prec
    while True:
        x = tuple(Fraction(rng.randint(-scale, scale), scale)
                  * Fraction(r).limit_denominator(10 ** 9)
                  for r in radii)
        if disc.V(x) <= disc.V0:
            yield x


def fraction_sample_states(disc, n, seed, prec=30):
    """verify.sample_states on Fraction."""
    return list(itertools.islice(_fraction_sublevel_points(disc, seed, prec),
                                 n))


def fraction_sample_shell_states(disc, n, seed, prec=30):
    """verify.sample_shell_states on Fraction, with V evaluated again
    after each rescale."""
    points = _fraction_sublevel_points(disc, seed ^ 0x5EED, prec)
    out = []
    rv0 = disc.r * disc.V0
    while len(out) < n:
        x = next(points)
        v = disc.V(x)
        if v == 0:
            continue
        if v <= rv0:
            lam = simplest_sqrt_in(rv0 / v, disc.V0 / v)
            x = tuple(lam * c for c in x)
            assert rv0 < disc.V(x) < disc.V0
        out.append(x)
    return out


def fraction_bisim_check(disc, model, n_samples, seed):
    """verify.check_bisim_sample on Fraction states: each word from
    scratch with semantics.concrete_sequence, each trace re-stepped with
    semantics.mpetc_step (n_checked, failures).  A state outside the
    initial set raises ValueError here."""
    n_checked, failures = 0, []
    cap = 10 * len(model.states)
    for i, x0 in enumerate(fraction_sample_states(disc, n_samples, seed)):
        word = semantics.concrete_sequence(disc, x0, max_len=cap)
        n_checked += 1
        if word not in model.states:
            failures.append(dict(direction="forward", sample=i, x0=x0,
                                 word=word))
            continue
        x, w = x0, word
        while w != abstraction.EPSILON:
            x_next, dt = semantics.mpetc_step(disc, x)
            if dt != model.output[w] or (w, w[1:]) not in model.edges:
                failures.append(dict(direction="forward-trace", sample=i,
                                     x0=x0, word=word, at=w))
                break
            x, w = x_next, w[1:]
    for w in model.sorted_states():
        if w not in model.witnesses:
            continue
        n_checked += 1
        replay = semantics.concrete_sequence(disc, model.witnesses[w],
                                             max_len=cap)
        if replay != w:
            failures.append(dict(direction="backward", word=w,
                                 replay=replay, witness=model.witnesses[w]))
    return n_checked, failures


def fraction_sim_check(disc, model, n_samples, steps, seed, max_len):
    """verify.check_sim_petc on Fraction states, with the word of every
    step extracted from scratch and every witness replayed with
    semantics.concrete_sequence: (n_checked, failures).  The Fraction
    check also compared each word's first letter with kappa(x), which
    holds by construction, since the word's first step is petc_step."""
    n_checked, failures = 0, []
    for i, x0 in enumerate(fraction_sample_shell_states(disc, n_samples,
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
    for w in sorted(model.witnesses, key=abstraction.word_key):
        n_checked += 1
        x = model.witnesses[w]
        replay = (semantics.concrete_sequence(disc, x, max_len=max_len)
                  if disc.V(x) == disc.V0 else None)
        if replay != w:
            failures.append(dict(kind="backward", word=w, replay=replay,
                                 witness=x))
    return n_checked, failures


def monomials(y: tuple[int, ...]) -> tuple[int, ...]:
    """The monomials y_i y_j, i <= j, in the order of ratlin.integer_form."""
    return tuple([a * b for i, a in enumerate(y) for b in y[i:]])


def dot(coeffs: tuple[int, ...], mono: tuple[int, ...]) -> int:
    return sum(map(mul, coeffs, mono))


class ExactStepper(semantics.IntegerStepper):
    """semantics.IntegerStepper with every orbit point evaluated in full,
    by generic forms on the padded state: the monomials of y, each
    trigger sign, v = y'P_int y and each V test are taken on the whole
    integers, with no top-bits filter.  Each point carries a NaN level,
    so that ``semantics.above`` decides V(x_e) > r V(x_s) on the whole
    integers as well."""

    def __init__(self, disc):
        super().__init__(disc)
        self.forms = [ratlin.integer_form(ratlin.padded(disc.N[k]))
                      for k in range(1, disc.k_bar)]
        self.p_form = ratlin.integer_form(ratlin.padded(disc.P_rat))
        self.maps = {k: ratlin.integer_matrix(ratlin.padded(m))
                     for k, m in disc.M.items()}
        d_p = ratlin.integer_matrix(disc.P_rat)[1]
        self.v0, self.rv0 = d_p * disc.V0, d_p * disc.r * disc.V0
        self.k_bar = disc.k_bar

    def run(self, y0, y1, c):
        y = (y0, y1)
        while True:
            mono = monomials(y)
            k = next((i for i, f in enumerate(self.forms, 1)
                      if dot(f, mono) > 0), self.k_bar)
            m, d = self.maps[k]
            yield semantics.OrbitPoint(k, d, y, c, math.nan, self.p_form)
            y = tuple([dot(row, y) for row in m])
            c *= d

    def outside(self, pt):
        v = dot(self.p_form, monomials(pt.y))
        return self.v0.denominator * v > self.v0.numerator * pt.c * pt.c

    def entry_run(self, orbit, max_len):
        num, den = self.rv0.numerator, self.rv0.denominator
        pt = next(orbit)
        if self.outside(pt):
            raise ValueError("initial state outside the initial sublevel set")
        run = []
        while den * dot(self.p_form, monomials(pt.y)) > num * pt.c * pt.c:
            if len(run) >= max_len:
                raise semantics.HorizonExceededError(
                    pt.state(), tuple(p.k for p in run))
            run.append(pt)
            pt = next(orbit)
        return run


def recorded_checks(monkeypatch, stepper, checks):
    """Run checks() with every semantics.IntegerStepper made as stepper,
    recording each orbit point as (k, d, v, y, c): (result of checks(),
    the points of each orbit made, in order).  Unless stepper is the
    ExactStepper, whose levels are NaN, the level of each point off the
    origin must lie within LEVEL_MARGIN / 4 of log2(v / c^2), for
    v = y'P_int y in full."""
    orbits = []

    class Recording(stepper):
        def run(self, y0, y1, c):
            points = []
            orbits.append(points)
            for pt in super().run(y0, y1, c):
                v = pt.v
                if v and stepper is not ExactStepper:
                    exact = math.log2(v) - 2 * math.log2(pt.c)
                    assert (abs(pt.level - exact)
                            <= semantics.LEVEL_MARGIN / 4), (pt, exact)
                points.append((pt.k, pt.d, v, pt.y, pt.c))
                yield pt

    with monkeypatch.context() as m:
        m.setattr(semantics, "IntegerStepper", Recording)
        result = checks()
    return result, orbits


def fraction_simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The smallest-denominator rational strictly inside (lo, hi), by
    recursion on Fractions."""
    if not lo < hi:
        raise ValueError("empty interval")
    fl = lo.numerator // lo.denominator
    if fl + 1 < hi:
        return Fraction(fl + 1)
    a, b = lo - fl, hi - fl  # a in [0,1), b in (0,1]
    if a == 0:
        m = b.denominator // b.numerator + 1
        return fl + Fraction(1, m)
    return fl + 1 / fraction_simplest_between(1 / b, 1 / a)


def simplest_sqrt_in(lo, hi):
    """qfnra.simplest_sqrt_between on Fraction ends 0 <= lo < hi: a
    rational s > 0 with lo < s^2 < hi.  hi None stands for +infinity, for
    which any finite end above lo will do: lo + 1."""
    hi = lo + 1 if hi is None else hi
    return Fraction(*qfnra.simplest_sqrt_between(
        lo.numerator, lo.denominator, hi.numerator, hi.denominator))


def fraction_root_value(r):
    """The value of a qfnra.Root as a Fraction, or None when it is
    irrational (its discriminant is not a square)."""
    s = math.isqrt(r.disc)
    return Fraction(r.eps * s - r.b, 2 * r.a) if s * s == r.disc else None


def fraction_cmp_root(t, r):
    """The sign of t - r for a Fraction t and a qfnra.Root r, in Fraction:
    that of y - eps sqrt(D) with y = 2a t + b."""
    y = 2 * r.a * t + r.b
    if r.disc == 0:
        return (y > 0) - (y < 0)
    if r.eps > 0:
        return -1 if y <= 0 else (y * y > r.disc) - (y * y < r.disc)
    return 1 if y >= 0 else (r.disc > y * y) - (r.disc < y * y)


def fraction_enclosure(r, prec):
    """Rational bounds lo <= r <= hi of a qfnra.Root over 2^prec: the
    floor and the ceiling of 2^prec times its value, or of 2^prec times
    the bounds from sqrt(D) enclosed within 2^-prec for an irrational
    root."""
    v = fraction_root_value(r)
    if v is not None:
        lo, hi = v, v
    else:
        s = math.isqrt(r.disc << (2 * prec))
        lo_s, hi_s = Fraction(s, 1 << prec), Fraction(s + 1, 1 << prec)
        if r.eps > 0:
            lo, hi = (-r.b + lo_s) / (2 * r.a), (-r.b + hi_s) / (2 * r.a)
        else:
            lo, hi = (-r.b - hi_s) / (2 * r.a), (-r.b - lo_s) / (2 * r.a)
    return (Fraction(math.floor(lo * (1 << prec)), 1 << prec),
            Fraction(math.ceil(hi * (1 << prec)), 1 << prec))


def _to_float(fr):
    try:
        return float(fr)
    except OverflowError:
        return math.inf if fr > 0 else -math.inf


def _float_key(r):
    return _to_float(fraction_enclosure(r, 40)[0])


def _fraction_roots_equal(r1, r2):
    v1, v2 = fraction_root_value(r1), fraction_root_value(r2)
    if v1 is not None or v2 is not None:
        return v1 == v2  # roots with non-square discriminant are irrational
    u = -r1.b * 2 * r2.a + r2.b * 2 * r1.a
    v = r1.eps * 2 * r2.a
    w = r2.eps * 2 * r1.a
    prod = r1.disc * r2.disc
    g = math.isqrt(prod)
    if g * g != prod:
        return False  # surds from different quadratic fields
    return u == 0 and v * r1.disc == w * g


def fraction_critical_samples(polys):
    """The arcs (direction, bounds) of qfnra.cut_arcs on the whole line at
    the roots of polys, on Fraction enclosures: roots ordered by a 40-bit
    float key, deduplicated among float-close neighbours, and refined by
    doubling precision until neighbours separate, which distinct roots
    always do.  A direction is the Fraction m of u = (1, m), or the Root
    of an irrational root point; an open arc's bounds are its
    neighbouring roots (None: unbounded), and a root point's bounds are
    None."""
    roots = []
    for a, b, c in polys:
        roots.extend(qfnra.roots_of_quadratic(a, b, c))
    keyed = sorted(((_float_key(r), r) for r in roots), key=lambda kr: kr[0])
    unique, keys = [], []
    for key, r in keyed:
        dup = False
        for u_key, u in zip(reversed(keys), reversed(unique)):
            if key - u_key > 1e-6:
                break
            if _fraction_roots_equal(u, r):
                dup = True
                break
        if not dup:
            unique.append(r)
            keys.append(key)
    prec = 64
    encl = [fraction_enclosure(r, prec) for r in unique]
    while True:
        bad = [i for i in range(len(unique) - 1)
               if not encl[i][1] < encl[i + 1][0]]
        if not bad:
            break
        prec *= 2
        for i in set(bad) | {i + 1 for i in bad}:
            encl[i] = fraction_enclosure(unique[i], prec)
    if not unique:
        return [(Fraction(0), (None, None))]
    first_lo, last_hi = encl[0][0], encl[-1][1]
    floor_first = first_lo.numerator // first_lo.denominator
    samples = [(Fraction(floor_first - 1), (None, unique[0]))]
    for i, r in enumerate(unique):
        v = fraction_root_value(r)
        samples.append((r if v is None else v, None))
        if i + 1 < len(unique):
            gap = (encl[i][1], encl[i + 1][0])
            samples.append((fraction_simplest_between(*gap),
                            (r, unique[i + 1])))
    floor_last = last_hi.numerator // last_hi.denominator
    samples.append((Fraction(floor_last + 2), (unique[-1], None)))
    return samples


def rational_square_root(t):
    """sqrt(t) if t is the square of a rational, else None."""
    if t is None or t < 0:
        return None
    num, den = t.numerator, t.denominator
    sn, sd = math.isqrt(num), math.isqrt(den)
    if sn * sn == num and sd * sd == den:
        return Fraction(sn, sd)
    return None


def _quad_at(f, x0, x1):
    return (f[0][0] * x0 * x0 + (f[0][1] + f[1][0]) * x0 * x1
            + f[1][1] * x1 * x1)


def conic_base_point(f, c):
    """The rational point with x'Fx = c that the unit-shell search of
    qfnra used to find for a chord, or None: 18 directions, then the grid
    of points with denominators up to 8 and coordinates up to 4."""
    for p, q in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (3, 1),
                 (1, 3), (2, 3), (3, 2), (1, -2), (2, -1), (1, -3), (3, -1),
                 (5, 2), (2, 5), (4, 1), (1, 4)):
        denom = _quad_at(f, Fraction(p), Fraction(q))
        if denom == 0:
            continue
        t = c / denom
        s = rational_square_root(t) if t > 0 else None
        if s is not None:
            return (s * p, s * q)
    for den in range(1, 9):
        for pn in range(-4 * den, 4 * den + 1):
            for qn in range(-4 * den, 4 * den + 1):
                if pn == 0 and qn == 0:
                    continue
                x = (Fraction(pn, den), Fraction(qn, den))
                if _quad_at(f, *x) == c:
                    return x
    return None


@functools.lru_cache(maxsize=None)
def fraction_shell_base(f, c):
    """WordEngine._base in Fraction, for a 2 x 2 matrix f: the first
    integer pair (b0, b1), 0 <= b0 <= 32 and |b1| <= 32, by height
    max(b0, |b1|), with c / b'fb the square of a rational, or None."""
    for h in range(1, 33):
        for b in sorted((b0, b1) for b0 in range(h + 1)
                        for b1 in range(-h, h + 1)
                        if max(b0, abs(b1)) == h):
            v = _quad_at(f, *b)
            if v and rational_square_root(c / v) is not None:
                return b
    return None


def fraction_reflect(f, b, m, bounds):
    """qfnra.reflect in Fraction, for a 2 x 2 matrix f: u = (t'ft) b -
    2 (b'ft) t at t = q b - p m, with p/q = simplest_sqrt_in the ratio
    b'fb / m'fm times 1 -+ 2^-prec, prec = 8, 16, ..., the first whose
    slope u1/u0 lies strictly between the bounding roots bounds by
    fraction_cmp_root; None on a point arc (bounds None)."""
    if bounds is None:
        return None
    lo, hi = bounds

    def dot(x, y):
        return sum(x[i] * f[i][j] * y[j] for i in range(2) for j in range(2))

    ratio = dot(b, b) / dot(m, m)
    prec = 8
    while True:
        rel = Fraction(1, 1 << prec)
        s = simplest_sqrt_in(ratio * (1 - rel), ratio * (1 + rel))
        t = tuple(s.denominator * bi - s.numerator * mi
                  for bi, mi in zip(b, m))
        u = tuple(dot(t, t) * bi - 2 * dot(b, t) * ti for bi, ti in zip(b, t))
        if u[0] and (lo is None or fraction_cmp_root(u[1] / u[0], lo) > 0) \
                and (hi is None or fraction_cmp_root(u[1] / u[0], hi) < 0):
            return u
        prec *= 2


def fraction_shell_point(f, c, m, bounds):
    """The point (s, s u1 / u0) with x'fx = c on the fraction_reflect u of
    the fraction_shell_base onto the open arc (m, bounds), or None."""
    base = fraction_shell_base(f, c)
    u = base and fraction_reflect(f, base, m, bounds)
    if not u:
        return None
    slope = u[1] / u[0]
    s = rational_square_root(c / _quad_at(f, 1, slope))
    return s, s * slope


def form_matrix(f):
    """The symmetric 2 x 2 Fraction matrix of the binary form
    f = (a2, a1, a0): a0 u0^2 + a1 u0 u1 + a2 u1^2."""
    a2, a1, a0 = f
    half = Fraction(a1, 2)
    return ((Fraction(a0), half), (half, Fraction(a2)))


# ---------------------------------------------------------------------------
# the t-scale procedure that qfnra.decide replaced: any right-hand sides,
# decided by an interval in the scale t = s^2 at every sample direction

INFEAS = "infeas"
OPEN = "open"
POINT = "point"


class IntSurd:
    """(p + q*sqrt(D)) / den with integer entries and den != 0, unnormalized."""

    __slots__ = ("p", "q", "den", "D")

    def __init__(self, p, q, den, D):
        self.p, self.q, self.den, self.D = p, q, den, D

    def sign(self):
        return qfnra._sign_pair(self.p, self.q, self.D) * qfnra._sgn(self.den)


def _to_intsurd(x, d):
    if isinstance(x, IntSurd):
        return x
    x = Fraction(x)
    return IntSurd(x.numerator, 0, x.denominator, d)


def val_sign(x):
    if isinstance(x, IntSurd):
        return x.sign()
    return (x > 0) - (x < 0)


def val_sub_sign(x, y):
    """sign(x - y) for Fraction/IntSurd operands."""
    if isinstance(x, IntSurd) or isinstance(y, IntSurd):
        d = x.D if isinstance(x, IntSurd) else y.D
        x, y = _to_intsurd(x, d), _to_intsurd(y, d)
        p = x.p * y.den - y.p * x.den
        q = x.q * y.den - y.q * x.den
        return qfnra._sign_pair(p, q, d) * qfnra._sgn(x.den * y.den)
    return (x > y) - (x < y)


def val_div(c, q):
    if isinstance(q, IntSurd):
        c = Fraction(c)
        norm = q.p * q.p - q.q * q.q * q.D
        num = c.numerator * q.den
        return IntSurd(num * q.p, -num * q.q, c.denominator * norm, q.D)
    return Fraction(c) / q


def _const_holds(rel, c):
    zero = Fraction(0)
    return {"<=": zero <= c, "<": zero < c, ">=": zero >= c,
            ">": zero > c, "=": zero == c}[rel]


def t_verdict(items):
    """Feasibility in t > 0 of constraints t*q rel c; q, c exact values.

    Returns (INFEAS, None), (OPEN, (lo, lo_strict, hi, hi_strict)) with
    hi possibly None for +infinity, or (POINT, t).
    """
    lo, lo_strict = Fraction(0), True
    hi, hi_strict = None, True
    pin = None
    for q, rel, c in items:
        s = val_sign(q)
        if s == 0:
            if not _const_holds(rel, c):
                return INFEAS, None
            continue
        bound = val_div(c, q)
        r = rel if s > 0 else qfnra.FLIP[rel]
        if r == "=":
            if pin is None:
                pin = bound
            elif val_sub_sign(pin, bound) != 0:
                return INFEAS, None
        elif r in ("<=", "<"):
            strict = r == "<"
            if hi is None:
                hi, hi_strict = bound, strict
            else:
                cmp = val_sub_sign(bound, hi)
                if cmp < 0:
                    hi, hi_strict = bound, strict
                elif cmp == 0:
                    hi_strict = hi_strict or strict
        else:
            strict = r == ">"
            cmp = val_sub_sign(bound, lo)
            if cmp > 0:
                lo, lo_strict = bound, strict
            elif cmp == 0:
                lo_strict = lo_strict or strict
    if pin is not None:
        if val_sign(pin) <= 0:
            return INFEAS, None
        c_lo = val_sub_sign(pin, lo)
        if c_lo < 0 or (c_lo == 0 and lo_strict):
            return INFEAS, None
        if hi is not None:
            c_hi = val_sub_sign(hi, pin)
            if c_hi < 0 or (c_hi == 0 and hi_strict):
                return INFEAS, None
        return POINT, pin
    if hi is None:
        return OPEN, (lo, lo_strict, None, True)
    cmp = val_sub_sign(hi, lo)
    if cmp > 0:
        return OPEN, (lo, lo_strict, hi, hi_strict)
    if cmp == 0 and not lo_strict and not hi_strict and val_sign(lo) > 0:
        return POINT, lo
    return INFEAS, None


def _exact_fraction(v):
    """Fraction value of a Fraction/IntSurd, or None if irrational."""
    if isinstance(v, IntSurd):
        return Fraction(v.p, v.den) if v.q == 0 else None
    return Fraction(v)


def _witness_at_direction(direction, verdict, data, atoms, bounds, eq_atoms):
    """Exact rational witness on the ray s*(1, direction), or s*(0, 1) for
    direction "inf", or None; the bounding roots bounds bound the conic
    search."""
    def embed(s):
        if direction == "inf":
            return (Fraction(0), s)
        return (s, s * direction)

    if verdict == OPEN:
        lo, _, hi, _ = data
        lo = _exact_fraction(lo)
        hi = _exact_fraction(hi) if hi is not None else None
        if lo is None or (hi is None and data[2] is not None):
            return None
        x = embed(simplest_sqrt_in(lo, hi))
        return x if qfnra.verify_witness(atoms, x) else None
    t = _exact_fraction(data)
    if t is None:
        return None
    s = rational_square_root(t)
    if s is not None:
        x = embed(s)
        if qfnra.verify_witness(atoms, x):
            return x
    if eq_atoms and direction != "inf":
        f, _, c = eq_atoms[0]
        x = fraction_shell_point(
            f, c, (direction.denominator, direction.numerator), bounds)
        if x and qfnra.verify_witness(atoms, x):
            return x
    return None


def _positive_leader(coeffs):
    for v in coeffs:
        if v:
            return coeffs if v > 0 else tuple(-c for c in coeffs)
    return coeffs


def oracle_decide(n, atoms):
    """The t-scale decision of n-variable atoms x'Fx rel c for n <= 2."""
    if n == 0:
        ok = all(_const_holds(rel, c) for _, rel, c in atoms)
        return qfnra.SatResult("sat" if ok else "unsat", witness=())
    if all(_const_holds(rel, c) for _, rel, c in atoms):
        return qfnra.SatResult("sat", witness=(Fraction(0),) * n)
    if n == 1:
        verdict, data = t_verdict([(f[0][0], rel, c) for f, rel, c in atoms])
        if verdict == INFEAS:
            return qfnra.SatResult("unsat")
        if verdict == OPEN:
            s = simplest_sqrt_in(data[0], data[2])
        else:
            s = rational_square_root(_exact_fraction(data))
        if s is not None and qfnra.verify_witness(atoms, (s,)):
            return qfnra.SatResult("sat", witness=(s,))
        return qfnra.SatResult("unknown",
                               reason="feasible set has no rational point")
    if n != 2:
        return qfnra.SatResult("unknown",
                               reason=f"{n} variables not supported")
    eq_atoms = [a for a in atoms if a[1] == "="]

    # integer coefficient triples for q_j(m) = (A2 m^2 + A1 m + A0) / S
    evals, qpolys = [], []
    for f, rel, c in atoms:
        co = (f[1][1], f[0][1] + f[1][0], f[0][0])
        qpolys.append(co)
        den = 1
        for v in co:
            den = den * v.denominator // math.gcd(den, v.denominator)
        evals.append((int(co[0] * den), int(co[1] * den), int(co[2] * den),
                      den, rel, c))

    def items_at(pnum, pden):
        p2, pq, q2 = pnum * pnum, pnum * pden, pden * pden
        return [(IntSurd(a2 * p2 + a1 * pq + a0 * q2, 0, s * q2, 1), rel, c)
                for a2, a1, a0, s, rel, c in evals]

    def items_at_root(r):
        # q(m) at m = (-b + eps*sqrt(D)) / (2a), as elements of Z[sqrt(D)]
        b, d, a, e = r.b, r.disc, r.a, r.eps
        bb, foura2 = b * b + d, 4 * a * a
        return [(IntSurd(a2 * bb - 2 * a * b * a1 + foura2 * a0,
                         e * (2 * a * a1 - 2 * b * a2), foura2 * s, d), rel, c)
                for a2, a1, a0, s, rel, c in evals]

    # critical polynomials: the q_j and, for atoms with nonzero right-hand
    # side, the cross-comparison polynomials that reorder the t-bounds
    crit = set()
    for co in qpolys:
        prim = _positive_leader(qfnra.primitive(list(co)))
        if any(prim):
            crit.add(prim)
    nz = [(qpolys[i], atoms[i][2]) for i in range(len(atoms))
          if atoms[i][2] != 0]
    for i in range(len(nz)):
        qi, ci = nz[i]
        for j in range(i + 1, len(nz)):
            qj, cj = nz[j]
            prim = _positive_leader(qfnra.primitive(
                [cj * qi[k] - ci * qj[k] for k in range(3)]))
            if any(prim):
                crit.add(prim)

    samples = fraction_critical_samples(sorted(crit))
    real_feasible = False
    for direction, bounds in samples:
        if isinstance(direction, qfnra.Root):
            verdict, _ = t_verdict(items_at_root(direction))
            if verdict != INFEAS:
                # irrational direction: no rational point on this ray
                real_feasible = True
            continue
        verdict, data = t_verdict(items_at(direction.numerator,
                                           direction.denominator))
        if verdict == INFEAS:
            continue
        x = _witness_at_direction(direction, verdict, data, atoms, bounds,
                                  eq_atoms)
        if x is not None:
            return qfnra.SatResult("sat", witness=x)
        real_feasible = True

    # the vertical direction (0, 1)
    verdict, data = t_verdict([(co[0], rel, c)
                               for co, (_, rel, c) in zip(qpolys, atoms)])
    if verdict != INFEAS:
        x = _witness_at_direction("inf", verdict, data, atoms, None,
                                  eq_atoms)
        if x is not None:
            return qfnra.SatResult("sat", witness=x)
        real_feasible = True
    if real_feasible:
        return qfnra.SatResult("unknown",
                               reason="feasible, but no rational witness was "
                                      "found")
    return qfnra.SatResult("unsat")


@contextlib.contextmanager
def oracle_kernel():
    """qfnra with oracle_decide, which isolates roots on Fraction
    enclosures and reflects unit-shell points in Fraction, in place of its
    sign-test decide."""
    saved = qfnra.decide
    qfnra.decide = oracle_decide
    try:
        yield
    finally:
        qfnra.decide = saved


def oracle_check(disc, word, shell, terminal) -> satcheck.SatResult:
    """One word query decided on its own: satcheck.check, through
    oracle_decide on the oracle kernel, on the query
    satcheck.sequence_query writes."""
    with oracle_kernel():
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
        edges=frozenset(pairwise_domino_edges(sim_states)),
        output=abstraction._outputs(sim_states, disc.h, disc.h_P),
        witnesses=sim_witnesses, h=disc.h, h_P=disc.h_P)
    return bisim, sim


def _all_cones_candidate(disc, a):
    """a holds iff every cone's counterexample query is unsat; every cone
    is decided."""
    ks = list(disc.K_range)
    results = {k: satcheck.contraction_counterexample(disc, k, a) for k in ks}
    for k in ks:
        if results[k].status == "unknown":
            raise satcheck.SolverUnknownError(
                f"contraction query undecided at k={k}, a={a}: "
                f"{results[k].reason}")
    return all(results[k].status == "unsat" for k in ks), results


def bisection_compute_a(disc, tol=contraction.DEFAULT_A_TOL):
    """contraction.compute_a in three phases: a bisection on the reals
    down to tol/16, a snap up to the tol grid, and up to two step-downs
    on the grid.  It probes 1 - tol first, which is off the grid when
    1/tol is not an integer."""
    tol = contraction._as_exact(tol)
    if not 0 < tol < 1:
        raise ValueError("tol must be in (0, 1)")
    trace = []
    hi = 1 - tol
    ok, evidence = _all_cones_candidate(disc, hi)
    trace.append((hi, "unsat" if ok else "sat"))
    if not ok:
        raise contraction.NotContractiveError(
            f"decrease ratio {float(hi):.6g} is still violated; "
            "the loop does not contract per sample")
    # bisect well below tol so that snapping up to the grid lands on the
    # smallest grid value above the true infimum
    lo = Fraction(0)
    while hi - lo > tol / 16:
        mid = (lo + hi) / 2
        ok, res = _all_cones_candidate(disc, mid)
        trace.append((mid, "unsat" if ok else "sat"))
        if ok:
            hi, evidence = mid, res
        else:
            lo = mid
    # snap up to the tol grid; monotonicity keeps the snapped value valid,
    # but it is validated anyway so the certificate is self-contained
    a = -((-hi) // tol) * tol
    if a >= 1:
        a = 1 - tol
    if a != hi:
        ok, evidence = _all_cones_candidate(disc, a)
        trace.append((a, "unsat" if ok else "sat"))
        if not ok:
            raise contraction.NotContractiveError(
                f"grid value {float(a):.6g} unexpectedly violated")
    # the infimum may sit exactly on a grid point; step down while valid
    for _ in range(2):
        down = a - tol
        if down <= 0:
            break
        ok, res = _all_cones_candidate(disc, down)
        trace.append((down, "unsat" if ok else "sat"))
        if not ok:
            break
        a, evidence = down, res
    return contraction.ContractionCert(a=a, per_k_unsat=evidence,
                                       bisection_trace=tuple(trace), tol=tol)


def pairwise_domino_edges(states) -> set:
    """abstraction.domino_edges by comparing every pair of states."""
    edges = set()
    for w in states:
        tail = w[1:]
        for t in states:
            if t[:len(tail)] == tail:
                edges.add((w, t))
    return edges


# ---------------------------------------------------------------------------
# the full-sample kernel that the feasible arcs of wordtree replaced: each
# query samples every root of all its atoms, and a witness is re-verified
# against the query satcheck.sequence_query writes


def atom(coeffs, strict: bool):
    """f > 0 (strict) or f >= 0, with f scaled to a primitive triple."""
    return qfnra.primitive(coeffs), strict


def word_maps(engine, word) -> list:
    """(phi_i, (q_i, d_i)) for the prefixes of word, i = 0..m: the
    integer Phi_i = phi_i / d_i and its V form, rebuilt along the word
    as WordEngine._split builds them one node at a time."""
    lyapunov = engine._stepper.lyapunov
    phi, d = ((1, 0), (0, 1)), 1
    maps = [(phi, (wordtree._pullback(lyapunov, phi), d))]
    for k in word:
        ((a, b), (c, e)), dk = engine._stepper.maps[k]
        (f, g), (h, i) = phi
        phi = ((a * f + b * h, a * g + b * i), (c * f + e * h, c * g + e * i))
        d *= dk
        maps.append((phi, (wordtree._pullback(lyapunov, phi), d)))
    return maps


def entry_form(engine, maps) -> list:
    """q v_m - p d_m^2 v_0 with r = p/q at the last of the word_maps."""
    p, q = engine.disc.r.numerator, engine.disc.r.denominator
    (q0, _), (qm, dm) = maps[0][1], maps[-1][1]
    return [q * a - p * dm * dm * b for a, b in zip(qm, q0)]


def letter_atoms(engine, maps, k) -> list:
    """The atoms that the letter k adds to the prefix query of the word
    of the word_maps: the cone of k on Phi and, for a non-empty word,
    v_m > r v_0 at its length m."""
    disc = engine.disc
    cone = [wordtree._pullback(f, maps[-1][0]) for f in engine._stepper.forms]
    atoms = []
    for j in range(disc.k_lo, min(k, disc.k_bar)):
        atoms.append(atom([-c for c in cone[j - 1]], False))
    if k < disc.k_bar:
        atoms.append(atom(cone[k - 1], True))
    if len(maps) > 1:
        atoms.append(atom(entry_form(engine, maps), True))
    return atoms


def prefix_atoms(engine, word) -> list:
    """The atoms of the prefix query of word, letter by letter."""
    maps = word_maps(engine, word)
    return [a for i, k in enumerate(word)
            for a in letter_atoms(engine, maps[:i + 1], k)]


def split_forms(engine, word) -> list:
    """The trigger forms N(j) o Phi_i, k_lo <= j < k_bar, of every proper
    prefix of word, by which the word tree splits a node among its
    children, as primitive integer triples."""
    return [qfnra.primitive(wordtree._pullback(f, phi))
            for phi, _ in word_maps(engine, word)[:-1]
            for f in engine._stepper.forms[engine.disc.k_lo - 1:]]


def line_cut(forms, n):
    """qfnra.line_arcs cut once at every root of the forms."""
    return qfnra.cut_arcs(qfnra.line_arcs(n), qfnra.enclosed_roots(forms))


def refine_arcs(arcs, atoms):
    """The feasible arcs of a query with the atoms (f, strict) added,
    from the query's feasible arcs: those arcs cut at the new atoms'
    roots, and of the pieces the ones at which every new atom holds.
    The query's own atoms keep their signs on each of its arcs, so only
    the new atoms are tested."""
    cut = qfnra.cut_arcs(arcs, qfnra.enclosed_roots(f for f, _ in atoms))
    return list(qfnra.feasible(atoms, cut))


def sublevel_terminal_atoms(engine, word) -> list:
    """The terminal atoms v_m < v_i, for every i < m, of the full sublevel
    query of word; the certified decrease implies them on its prefix
    arcs, so WordEngine.decide leaves them out."""
    forms = [form for _, form in word_maps(engine, word)]
    qm, dm = forms[-1]
    return [atom([dm * dm * a - di * di * b for a, b in zip(qi, qm)], True)
            for qi, di in forms[:-1]]


def unit_terminal_atoms(engine, word) -> list:
    """The unit-shell terminal atom v_m <= r v_0, the negated entry form,
    of word."""
    return [atom([-c for c in entry_form(engine, word_maps(engine, word))],
                  False)]


def full_sample_prefix(engine, word) -> qfnra.SatResult:
    """The prefix query of word on every root of its atoms, with the
    first feasible rational direction as the witness."""
    return qfnra.decide_forms(prefix_atoms(engine, word), engine.disc.n_x)


def full_sample_decide(engine, word, shell) -> satcheck.SatResult:
    """WordEngine.decide on every root of the query's atoms and of the
    split_forms of its word (for a unit-shell query, also the word's own
    trigger forms, at which its node is split), with the witness
    re-verified by satcheck.sequence_query(...).holds.  Those roots cut
    qfnra.line_arcs once (line_cut), and the pieces at which every atom
    holds are the feasible arcs; like WordEngine.decide it needs the
    bounds of each for a conic witness, and moves on past a direction
    without a witness, so it walks every feasible arc."""
    unit = shell == satcheck.UNIT_LEVEL
    atoms = prefix_atoms(engine, word) + (
        unit_terminal_atoms(engine, word) if unit
        else sublevel_terminal_atoms(engine, word))
    # each cone atom's form is a split form, or its negation
    forms = split_forms(engine, word + (engine.disc.k_lo,) if unit else word)
    known = set(forms) | {tuple(-c for c in f) for f in forms}
    cut = line_cut(forms + [f for f, _ in atoms if f not in known],
                   engine.disc.n_x)
    arcs = list(qfnra.feasible(atoms, cut))
    for direction, bounds in arcs:
        if isinstance(direction, qfnra.Root):
            continue
        x = _full_sample_witness(engine, word, shell, atoms, direction,
                                 bounds)
        if x is None:
            continue
        query = satcheck.sequence_query(engine.disc, word, shell, True)
        if query.holds(x):
            return satcheck.SatResult("sat", witness=x)
        return satcheck.SatResult("unknown", reason="witness failed exact "
                                                    "re-verification")
    if arcs:
        return satcheck.SatResult("unknown", reason="feasible, but no "
                                                    "rational witness")
    return satcheck.SatResult("unsat")


def _full_sample_witness(engine, word, shell, atoms, direction, bounds):
    """WordEngine._witness with every atom checked on the unit shell and
    its unit-shell point reflected in Fraction."""
    disc = engine.disc
    u0, u1 = direction
    g = u0 or u1
    u = (Fraction(u0, g), Fraction(u1, g))
    v = [(a2 * u[1] * u[1] + a1 * u[0] * u[1] + a0 * u[0] * u[0])
         / (engine._stepper.d_p * d * d)
         for _, ((a2, a1, a0), d) in word_maps(engine, word)]
    if shell == satcheck.SUBLEVEL:
        rv0 = disc.r * disc.V0
        lo = max(rv0 / vi for vi in v[:-1])
        hi = disc.V0 / v[0]
        if v[-1] > 0:
            hi = min(hi, rv0 / v[-1])
        s = simplest_sqrt_in(lo, hi)
        return (s * u[0], s * u[1])[:disc.n_x]
    s = rational_square_root(disc.V0 / v[0])
    if s is not None:
        return (s * u[0], s * u[1])[:disc.n_x]
    if disc.n_x == 1:
        return None
    x = fraction_shell_point(disc.P_rat, disc.V0, direction, bounds)
    if x is None:
        return None
    matrices = [(((a0, a1), (0, a2)), ">" if strict else ">=", 0)
                for (a2, a1, a0), strict in atoms]
    if qfnra.verify_witness(matrices + [(disc.P_rat, "=", disc.V0)], x):
        return x
    return None


# ---------------------------------------------------------------------------
# the numpy float stage that sysmodel's pure-Python kernel replaced

_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)


def np_expm(m, t: float = 1.0) -> np.ndarray:
    """e^{Mt} by scaling-and-squaring with a [13/13] Pade kernel, on
    numpy arrays."""
    a = np.asarray(m, dtype=float) * t
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(norm / 5.371920351148152))) if norm > 0 else 0)
    a = a / (2.0 ** s)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    b = _PADE13
    ident = np.eye(n)
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def np_closed_loop(sys_) -> np.ndarray:
    """[[A, B K], [0, 0]] of sys_ as a numpy array."""
    a, b, k = (np.array(m) for m in (sys_.A, sys_.B, sys_.K))
    n = len(a)
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n], aug[:n, n:] = a, b @ k
    return aug


def np_discretize_at_time(sys_, t: float) -> np.ndarray:
    n = sys_.n_x
    e = np_expm(np_closed_loop(sys_), float(t))
    return e[:n, :n] + e[:n, n:]


@np.errstate(over="ignore", invalid="ignore")
def np_hP_condition(sys_, h_p, eig_tol=sysmodel.EIG_TOL) -> bool:
    m_p = np_discretize_at_time(sys_, float(h_p))
    p = np.array(sys_.P)
    gap = m_p.T @ p @ m_p - p
    return (bool(np.isfinite(gap).all())
            and float(np.linalg.eigvalsh((gap + gap.T) / 2).max()) <= eig_tol)


def np_compute_hP(sys_, resolution=contraction.DEFAULT_HP_RESOLUTION):
    """The largest multiple of the resolution up to 2 h k_bar that passes
    np_hP_condition, scanned downward with an expm per period; None if
    none does."""
    for j in range(int(2 * sys_.h * sys_.k_bar / resolution), 0, -1):
        if np_hP_condition(sys_, j * resolution):
            return j * resolution
    return None


def np_predictive_Q(sys_) -> np.ndarray:
    """sysmodel.build_predictive_Q on numpy arrays."""
    a, b, k, p, q_lyap = (np.array(m) for m in
                          (sys_.A, sys_.B, sys_.K, sys_.P, sys_.Q_lyap))
    n, nu = b.shape
    aug = np.zeros((n + nu, n + nu))
    aug[:n, :n], aug[:n, n:] = a, b
    e = np_expm(aug, float(sys_.h))
    lmap = np.hstack([e[:n, :n], e[:n, n:] @ k])
    deriv = a @ lmap + b @ np.hstack([np.zeros((nu, n)), k])
    q = lmap.T @ p @ deriv + deriv.T @ p @ lmap
    q = q + sys_.rho * (lmap.T @ q_lyap @ lmap)
    return (q + q.T) / 2.0


@np.errstate(over="ignore", invalid="ignore")
def np_k_lo(sys_, eig_tol=sysmodel.EIG_TOL) -> int:
    """The first k whose N(k) = [M; I]' Q [M; I] has an eigenvalue above
    eig_tol, with M(k) and a predictive Q from np_expm; k_bar if none."""
    n = sys_.n_x
    q = (np.array(sys_.Q_trig) if sys_.Q_lyap is None
         else np_predictive_Q(sys_))
    for k in range(1, sys_.k_bar + 1):
        stacked = np.vstack([np_discretize_at_time(sys_, float(sys_.h) * k),
                             np.eye(n)])
        nk = stacked.T @ q @ stacked
        if np.linalg.eigvalsh((nk + nk.T) / 2).max() > eig_tol:
            return k
    return sys_.k_bar


def random_stabilized_system(rng):
    """A loop made as in the robustness sweep, or None if its rounded
    P_lyap is not positive definite: a plant in controllable canonical
    form with both closed-loop poles placed, P_lyap the solution of
    A_cl' P + P A_cl = -I rounded to eighths, Q_lyap = I, and random rho,
    h and k_bar."""
    a0, a1 = rng.uniform(-3, 3, 2)
    p1, p2 = -rng.uniform(0.5, 3, 2)
    a, b = np.array([[0, 1], [a0, a1]]), np.array([[0], [1]])
    k = np.array([[-p1 * p2 - a0, p1 + p2 - a1]])
    a_cl, eye = a + b @ k, np.eye(2)
    p = np.linalg.solve(np.kron(eye, a_cl.T) + np.kron(a_cl.T, eye),
                        -eye.ravel()).reshape(2, 2)
    p = np.round(8 * (p + p.T) / 2) / 8
    if np.linalg.eigvalsh(p).min() <= 0:
        return None
    return PetcSystem(A=a, B=b, K=k, P=p,
                      h=Fraction(rng.choice([5, 10, 20]), 100),
                      k_bar=int(rng.integers(3, 7)), r=Fraction(1, 2),
                      Q_lyap=eye, rho=float(rng.uniform(0.5, 0.95)))


def random_stabilized_disc(rng):
    """The loop of random_stabilized_system discretized at its h_P, or
    None if it has none."""
    sys_ = random_stabilized_system(rng)
    if sys_ is None:
        return None
    try:
        return rationalize(sys_, contraction.compute_hP(sys_))
    except contraction.NotContractiveError:
        return None


# changes to the bundled loop for the named test cases: r = 4/5; the
# bundled example (r = 1/10); a scalar plant; r = 4/5 with P_lyap, Q_lyap
# and V0 scaled by 3
BUNDLED_CASES = {
    "r4_5": lambda cfg: dict(r=Fraction(4, 5)),
    "cs": lambda cfg: {},
    "one_dim": lambda cfg: dict(
        A=[[Fraction(1, 2)]], B=[[Fraction(1)]], K=[[Fraction(-1)]],
        P_lyap=[[Fraction(1)]], Q_lyap=[[Fraction(1)]], r=Fraction(1, 10)),
    "scaled": lambda cfg: dict(
        r=Fraction(4, 5), V0=Fraction(3),
        P_lyap=[[3 * v for v in row] for row in cfg["P_lyap"]],
        Q_lyap=[[3 * v for v in row] for row in cfg["Q_lyap"]]),
}


def bundled(case):
    """(cfg, disc) of the bundled loop changed as BUNDLED_CASES[case]."""
    cfg = cli.load_config(None)
    cfg = dict(cfg, **BUNDLED_CASES[case](cfg))
    return cfg, cli.make_disc(cfg)


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
