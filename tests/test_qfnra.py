"""Unit and differential tests for the bundled quadratic-form decision
procedure, including its SMT-LIB2 front end."""

from __future__ import annotations

import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from petctraffic import cli, contraction, qfnra, satcheck, wordtree
from petctraffic.abstraction import build_mpetc_bisim, build_petc_sim
from petctraffic.qfnra import (decide, format_rational, root_cmp,
                               roots_of_quadratic, run_script,
                               verify_witness)
import conftest
from conftest import (bundled, form_matrix, fraction_cmp_root,
                      fraction_critical_samples, fraction_enclosure,
                      fraction_reflect, fraction_root_value,
                      fraction_shell_base, fraction_simplest_between,
                      full_sample_decide,
                      full_sample_prefix, oracle_decide, oracle_kernel,
                      oracle_models, t_verdict)

F = Fraction


def form(a, b, c):
    return ((F(a), F(b)), (F(b), F(c)))


IDENT = form(1, 0, 1)


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """qfnra's integer continued-fraction walk on Fraction ends."""
    return F(*qfnra._simplest_between(lo.numerator, lo.denominator,
                                      hi.numerator, hi.denominator))


def run(text: str) -> str:
    out = io.StringIO()
    run_script(text, out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# root isolation


def test_roots_rational_and_irrational():
    rs = roots_of_quadratic(1, -3, 2)  # (x-1)(x-2)
    assert [fraction_root_value(r) for r in rs] == [F(1), F(2)]
    rs = roots_of_quadratic(1, 0, -2)  # +-sqrt(2)
    assert all(fraction_root_value(r) is None for r in rs)
    lo, hi = fraction_enclosure(rs[1], 30)
    assert lo < hi and abs(float(lo) - math.sqrt(2)) < 1e-8
    assert roots_of_quadratic(1, 0, 1) == []
    assert fraction_root_value(roots_of_quadratic(0, 2, -3)[0]) == F(3, 2)


def test_roots_equal_across_fields():
    a = roots_of_quadratic(1, 0, -2)[1]     # sqrt(2)
    b = roots_of_quadratic(2, 0, -4)[1]     # sqrt(2) again, scaled poly
    c = roots_of_quadratic(1, 0, -8)[1]     # 2 sqrt(2): same field
    d = roots_of_quadratic(1, 0, -3)[1]     # sqrt(3): different field
    assert root_cmp(a, b) == 0
    assert root_cmp(a, c) == -1
    assert root_cmp(a, d) == -1


@given(st.fractions(min_value=-50, max_value=50),
       st.fractions(min_value=-50, max_value=50))
@settings(max_examples=100, deadline=None)
def test_simplest_between(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    x = simplest_between(lo, hi)
    assert lo < x < hi
    # the mediant witnesses this denominator bound
    assert x.denominator <= lo.denominator + hi.denominator


_SMALL = st.tuples(*[st.integers(-20, 20)] * 3)


@given(st.lists(_SMALL, min_size=2, max_size=4))
@settings(max_examples=300, deadline=None)
def test_root_cmp_matches_enclosures(polys):
    # exact order against 512-bit enclosures, antisymmetric, and 0 on
    # equal roots, including those of proportional polynomials
    roots = [r for p in polys for r in roots_of_quadratic(*p)]
    for r1 in roots:
        lo1, hi1 = fraction_enclosure(r1, 512)
        for r2 in roots:
            lo2, hi2 = fraction_enclosure(r2, 512)
            c = root_cmp(r1, r2)
            assert c == -root_cmp(r2, r1)
            if hi1 < lo2:
                assert c == -1
            elif hi2 < lo1:
                assert c == 1
            else:  # with coefficients this small: the same root
                assert c == 0


_FACTOR = st.tuples(st.integers(-30, 30).filter(bool), st.integers(-30, 30))
_SCALE = st.integers(-3, 3).filter(bool)


def _product(k, f1, f2):
    """k (p1 m + q1)(p2 m + q2) as (a2, a1, a0), with its roots as the
    sorted distinct Fractions -q1/p1 and -q2/p2."""
    (p1, q1), (p2, q2) = f1, f2
    return ((k * p1 * p2, k * (p1 * q2 + p2 * q1), k * q1 * q2),
            sorted({F(-q1, p1), F(-q2, p2)}))


# integer quadratics with rational roots, which random triples almost
# never have: factorable ones, double roots, linear forms (a2 = 0) and
# forms with a0 = 0
_RATIONAL_POLYS = st.one_of(
    st.builds(_product, _SCALE, _FACTOR, _FACTOR),
    st.builds(lambda k, f: _product(k, f, f), _SCALE, _FACTOR),
    st.builds(lambda k, f: ((0, k * f[0], k * f[1]), [F(-f[1], f[0])]),
              _SCALE, _FACTOR),
    st.builds(lambda k, f: _product(k, f, (1, 0)), _SCALE, _FACTOR))


@given(st.lists(_RATIONAL_POLYS, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_rational_roots_match_fractions(cases):
    # each root's value, its exact bounds at any precision, root_cmp
    # across forms (linear against quadratic, equal roots of different
    # forms) and the directions and bounding roots of cut_arcs, against
    # Fraction arithmetic and conftest's Fraction sampler
    polys = [poly for poly, _ in cases]
    roots = []
    for poly, values in cases:
        rs = roots_of_quadratic(*poly)
        assert [fraction_root_value(r) for r in rs] == values, poly
        for r, v in zip(rs, values):
            for prec in (0, 1, 64, 65, 200):
                lo, hi = r.bounds(prec)
                scaled = v * 2**prec
                assert lo <= scaled <= hi and hi - lo <= 2
                assert (lo == hi) == (scaled.denominator == 1)
                assert (F(lo, 2**prec), F(hi, 2**prec)) == \
                    fraction_enclosure(r, prec)
            assert r.enc == r.bounds(64)
        roots.extend(zip(rs, values))
    for r1, v1 in roots:
        for r2, v2 in roots:
            assert root_cmp(r1, r2) == (v1 > v2) - (v1 < v2)
    arcs = line_samples(polys)
    assert _normal(arcs) == _normal(fraction_critical_samples(polys))
    points = [d for d, bounds in arcs if bounds is None]
    assert all(isinstance(d, tuple) for d in points)
    assert [F(u1, u0) for u0, u1 in points] == sorted({v for _, v in roots})


_ENDPOINTS = st.one_of(
    st.fractions(min_value=-50, max_value=50),
    st.integers(-50, 50).map(F),
    # both ends sharing a floor: n + (a fraction of [0, 1))
    st.tuples(st.integers(-50, 50),
              st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    .map(lambda t: t[0] + t[1] % 1))


@given(_ENDPOINTS, _ENDPOINTS,
       st.fractions(min_value=0, max_value=1, max_denominator=10**6))
@settings(max_examples=300, deadline=None)
def test_simplest_between_matches_fraction_walk(a, b, offset):
    # the integer walk against the recursive Fraction version, on
    # arbitrary intervals and on intervals inside one integer step
    for lo, hi in ((min(a, b), max(a, b)),
                   (a.numerator // a.denominator + offset % 1, a)):
        if lo < hi:
            assert simplest_between(lo, hi) == fraction_simplest_between(lo,
                                                                         hi)


_SQRT_LO = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=0, max_value=10**6),
    st.builds(F, st.integers(0, 2**600), st.integers(1, 2**600)))
# hi - lo, or None for hi = lo (1 + 2^-200), and 2^-200 when lo = 0
_SQRT_GAP = st.one_of(
    st.just(None),
    st.fractions(min_value=0, max_value=10**6).filter(bool),
    st.builds(F, st.integers(1, 2**600), st.integers(1, 2**600)))


@given(_SQRT_LO, _SQRT_GAP)
@settings(max_examples=300, deadline=None)
def test_simplest_sqrt_between(lo, gap):
    # lo < s^2 < hi, and s is the simplest rational strictly between the
    # integer enclosures of sqrt(lo) and sqrt(hi) at which it returned
    hi = lo + gap if gap is not None else lo * (1 + F(1, 2**200))
    hi = hi or F(1, 2**200)
    p, q = qfnra.simplest_sqrt_between(lo.numerator, lo.denominator,
                                       hi.numerator, hi.denominator)
    s = F(p, q)
    assert s > 0 and lo < s * s < hi
    prec = 64
    while True:
        a = math.isqrt((lo.numerator << 2 * prec) // lo.denominator) + 1
        b = math.isqrt((hi.numerator << 2 * prec) // hi.denominator)
        if a < b:
            break
        prec *= 2
    e_lo, e_hi = F(a, 1 << prec), F(b, 1 << prec)
    assert s == fraction_simplest_between(e_lo, e_hi)
    # no smaller denominator, by enumeration where q is small
    for d in range(1, min(q, 1000)):
        assert not F(math.floor(e_lo * d) + 1, d) < e_hi, d


def line_samples(polys):
    """The arcs (direction, bounds) of the whole line cut at the roots of
    the integer quadratics polys."""
    return qfnra.cut_arcs(qfnra.line_arcs(1), qfnra.enclosed_roots(polys))


def _root_key(r):
    """A root's value when it is rational, else its defining integers."""
    v = fraction_root_value(r)
    return (r.a, r.b, r.disc, r.eps) if v is None else v


def _direction_key(d):
    """A direction as its Fraction m = u1/u0, or a Root as _root_key."""
    if isinstance(d, qfnra.Root):
        return _root_key(d)
    return F(d[1], d[0]) if isinstance(d, tuple) else d


def _normal(arcs):
    """Kernel or oracle arcs with every direction as _direction_key and
    every bounding root as _root_key, so that both compare exactly."""
    return [(_direction_key(d), None if bounds is None else
             tuple(None if b is None else _root_key(b) for b in bounds))
            for d, bounds in arcs]


def _bounds(direction):
    """Rational bounds of an arc's direction m."""
    if isinstance(direction, qfnra.Root):
        return fraction_enclosure(direction, 256)
    m = _direction_key(direction)
    return m, m


_TRIPLES = st.lists(st.tuples(*[st.integers(-10**6, 10**6)] * 3),
                    min_size=1, max_size=6)


@given(_TRIPLES)
@settings(max_examples=300, deadline=None)
def test_critical_samples_ordered(polys):
    # strictly increasing directions, every open arc's direction strictly
    # between its bounding roots, and the Fraction oracle's list
    polys = sorted(polys)
    samples = line_samples(polys)
    for (d0, _), (d1, _) in zip(samples, samples[1:]):
        assert _bounds(d0)[1] < _bounds(d1)[0]
    for d, bounds in samples:
        if bounds is not None:
            lo, hi = bounds
            m = _direction_key(d)
            assert lo is None or fraction_cmp_root(m, lo) > 0
            assert hi is None or fraction_cmp_root(m, hi) < 0
    assert _normal(samples) == _normal(fraction_critical_samples(polys))


def test_close_roots_in_swapped_float_order_are_separated():
    # p/q lies just below sqrt(2) but above its 40-bit lower bound, so
    # a float key read off that bound sorts sqrt(2) first
    r = roots_of_quadratic(1, 0, -2)[1]
    pq = fraction_enclosure(r, 40)[0] + F(1, 2**44)
    p, q = pq.numerator, pq.denominator
    atoms = [(form(-2, 0, 1), ">=", F(0)),
             (((F(-p), F(q, 2)), (F(q, 2), F(0))), ">", F(0))]
    assert verify_witness(atoms, (F(1), F(2)))
    res = decide(2, atoms)
    assert res.status == "sat"
    assert verify_witness(atoms, res.witness)


def _pell_below_sqrt2(n):
    """(p, q) with p + q sqrt(2) = (1 + sqrt(2))^n for odd n: p^2 - 2 q^2
    = -1, so p/q lies below sqrt(2), within 1 / (2 sqrt(2) q^2)."""
    p, q, bp, bq = 1, 0, 1, 1
    while n:
        if n & 1:
            p, q = p * bp + 2 * q * bq, p * bq + q * bp
        bp, bq = bp * bp + 2 * bq * bq, 2 * bp * bq
        n >>= 1
    return p, q


# q is about 2^33000, so p/q lies about 2^-66000 below sqrt(2): their
# enclosures over 2^prec first separate at prec = 2^17
_PELL = _pell_below_sqrt2(25953)
_SQRT2_FORM = (-1, 0, 2)  # 2 - m^2 at u = (1, m)


def _below_sqrt2(p, q, u):
    """Whether the direction u = (u0, u1), u0 > 0, has p/q < u1/u0 <
    sqrt(2)."""
    u0, u1 = u
    return u0 > 0 and q * u1 > p * u0 and u1 * u1 < 2 * u0 * u0


def test_pell_convergent_separates_from_sqrt2():
    # two roots about 2^-66000 apart separate: sat, not unknown, with a
    # witness strictly between them
    p, q = _PELL
    assert p * p - 2 * q * q == -1 and 32990 < q.bit_length() < 33010
    res = qfnra.decide_forms([(_SQRT2_FORM, True), ((0, q, -p), True)], 2)
    assert res.status == "sat"
    u0, u1 = res.witness
    assert u0 == 1 and _below_sqrt2(p, q, (u1.denominator, u1.numerator))


def test_reflect_into_the_pell_arc():
    # the open arc between p/q and sqrt(2) holds the reflection of (1, 0)
    p, q = _PELL
    roots = qfnra.enclosed_roots([_SQRT2_FORM, (0, q, -p)])
    arcs = qfnra.cut_arcs(qfnra.line_arcs(2), roots)
    (m, bounds), = [(m, bounds) for m, bounds in arcs if bounds is not None
                    and isinstance(m, tuple) and _below_sqrt2(p, q, m)]
    f, b = (1, 0, 1), (1, 0)
    u = qfnra.reflect(f, b, m, bounds)
    assert u is not None and _below_sqrt2(p, q, u)
    # f(u) = f(t)^2 f(b) with f(b) = 1
    fu = qfnra.form_at(f, u)
    assert math.isqrt(fu) ** 2 == fu


def _near_roots(r, offsets):
    """Linear roots at (lo + d) / 2^64 and (lo 2^8 + d) / 2^72 for the
    64-bit lower bound lo of r and d in offsets: within about 2^-56 of
    r."""
    lo = r.enc[0]
    return [root for d in offsets
            for root in (roots_of_quadratic(0, 1 << 64, -(lo + d))
                         + roots_of_quadratic(0, 1 << 72, -((lo << 8) + d)))]


@given(st.lists(_SMALL, min_size=1, max_size=3),
       st.lists(st.integers(2, 5), min_size=1, max_size=2),
       st.lists(st.integers(-300, 300), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_enclosed_cmp_matches_root_cmp(polys, scales, offsets):
    # the integer comparison of the enclosures over 2^64 agrees with the
    # exact root_cmp: on equal roots of proportional forms, on roots
    # within 2^-64 of each other, and on sqrt(2) against p/q about
    # 2^-66000 below it
    roots = [r for a, b, c in polys for k in [1] + scales
             for r in roots_of_quadratic(k * a, k * b, k * c)]
    roots += [r for base in list(roots) for r in _near_roots(base, offsets)]
    p, q = _PELL
    roots += roots_of_quadratic(*_SQRT2_FORM) + roots_of_quadratic(0, q, -p)
    for r1 in roots:
        for r2 in roots:
            assert qfnra._enclosed_cmp(r1, r2) == root_cmp(r1, r2)


# ---------------------------------------------------------------------------
# the integer kernel against its Fraction and float oracles


@pytest.mark.parametrize("case", ["ci", "r4_5", "cs", "one_dim", "scaled"])
def test_kernel_matches_oracles(case, request, monkeypatch):
    # every cut of the whole line of directions, by the contraction
    # queries (decide_forms) and by the full-sample kernel, which decides
    # every word query of both builds again, at the roots of its atoms and
    # of the trigger forms that split the word tree (line_cut), and every
    # unit-shell reflection of both builds, against the same reflection
    # in Fraction from the Fraction search of the base direction,
    # on the r = 1/2 fixture, on the bundled loop at r = 4/5, on the
    # bundled example (r = 1/10), on a scalar plant and on the loop at
    # r = 4/5 with P_lyap, Q_lyap and V0 scaled by 3; the integer kernel
    # may answer only where its oracle did not.  The builds sample only
    # on their feasible arcs, and those arcs are checked through the
    # full-sample kernel's verdicts and witnesses.
    # Every contraction query is decided again by the t-scale oracle:
    # the same verdicts, and every sat witness holds
    cuts, reflections = [], []

    def recording_decide_forms(atoms, n, _fn=qfnra.decide_forms):
        cuts.append([f for f, _ in atoms])
        return _fn(atoms, n)

    def recording_line_cut(forms, n, _fn=conftest.line_cut):
        cuts.append(list(forms))
        return _fn(forms, n)

    def recording_reflect(*args, _fn=qfnra.reflect):
        out = _fn(*args)
        reflections.append((args, out))
        return out

    monkeypatch.setattr(qfnra, "decide_forms", recording_decide_forms)
    monkeypatch.setattr(conftest, "line_cut", recording_line_cut)
    monkeypatch.setattr(qfnra, "reflect", recording_reflect)
    real_check, checked = satcheck.check, []

    def recording_check(query):
        res = real_check(query)
        checked.append((query, res))
        return res

    monkeypatch.setattr(satcheck, "check", recording_check)
    if case == "ci":
        disc = request.getfixturevalue("ci_disc")
        n = contraction.compute_N(contraction.compute_a(disc).a, disc.r)
    else:
        cfg, disc = bundled(case)
        _, n, _ = cli.run_contraction(cfg, disc)
    build_petc_sim(disc, build_mpetc_bisim(disc, n))
    # the builds sample only inside their feasible arcs: every word query
    # is decided again on all its roots, by the full-sample kernel
    engine = wordtree.WordEngine(disc)

    def full_sample(d, word, shell, terminal):
        return (full_sample_decide(engine, word, shell) if terminal
                else full_sample_prefix(engine, word))

    oracle_models(disc, n, full_sample)
    assert cuts
    for polys in cuts:
        assert _normal(line_samples(polys)) == \
            _normal(fraction_critical_samples(polys)), polys
    # a scalar plant reflects nothing: V0 / v_0 is a rational square
    assert reflections or disc.n_x == 1
    for (f, b, m, bounds), out in reflections:
        assert b == fraction_shell_base(disc.P_rat, disc.V0)
        ref = fraction_reflect(form_matrix(f), b, m, bounds)
        assert out is not None and out == ref, (f, b, m)
    assert {res.status for _, res in checked} == {"sat", "unsat"}
    for query, res in checked:
        with oracle_kernel():
            assert real_check(query).status == res.status, query
        if res.status == "sat":
            assert query.holds(res.witness)


# ---------------------------------------------------------------------------
# the t-scale oracle's interval verdicts


def test_t_verdict_basic():
    one = F(1)
    assert t_verdict([(one, "<=", F(4)), (one, ">", F(1))])[0] == "open"
    assert t_verdict([(one, "<=", F(1)), (one, ">", F(2))])[0] == "infeas"
    kind, t = t_verdict([(one, "=", F(3))])
    assert kind == "point" and t == 3
    # negative coefficient flips the relation
    kind, data = t_verdict([(F(-2), "<", F(-4))])  # -2t < -4  =>  t > 2
    assert kind == "open" and data[0] == 2 and data[1] is True


# ---------------------------------------------------------------------------
# decide(): knowns


def test_contradictory_sublevels_unsat():
    # the oracle on sublevels; decide on cones
    res = oracle_decide(2, [(IDENT, "<=", F(1)), (IDENT, ">", F(2))])
    assert res.status == "unsat"
    assert decide(2, [(IDENT, "<", F(0))]).status == "unsat"
    swap = form(1, 0, -1)
    assert decide(2, [(swap, ">", F(0)), (swap, "<", F(0))]).status == "unsat"


def test_unit_circle_sat_with_exact_witness():
    # the oracle on the unit circle; decide on x0^2 = x1^2 with x0 x1 > 0,
    # whose rational direction (1, 1) is a root of the equality's form
    atoms = [(IDENT, "=", F(1))]
    res = oracle_decide(2, atoms)
    assert res.status == "sat"
    assert verify_witness(atoms, res.witness)
    atoms = [(form(1, 0, -1), "=", F(0)), (form(0, 1, 0), ">", F(0))]
    res = decide(2, atoms)
    assert res.status == "sat" and res.witness == (F(1), F(1))


def test_contraction_toy_threshold():
    # (x/2)'(x/2) > a x'x: feasible exactly when a < 1/4
    for a, want in ((F(1, 5), "sat"), (F(1, 4), "unsat"), (F(1, 3), "unsat")):
        gap = form(F(1, 4) - a, 0, F(1, 4) - a)
        res = decide(2, [(gap, ">", F(0))])
        assert res.status == want, a
        if want == "sat":
            assert verify_witness([(gap, ">", F(0))], res.witness)


def test_zero_vector_shortcut():
    res = decide(3, [(tuple(tuple(F(0) for _ in range(3)) for _ in range(3)),
                      "<=", F(0))])
    assert res.status == "sat" and res.witness == (F(0),) * 3


def test_one_variable():
    sq = ((F(1),),)
    assert oracle_decide(1, [(sq, ">", F(4)), (sq, "<", F(9))]).status == "sat"
    assert oracle_decide(1, [(sq, ">", F(4)), (sq, "<", F(4))]).status \
        == "unsat"
    res = oracle_decide(1, [(sq, "=", F(4))])
    assert res.status == "sat" and res.witness in ((F(2),), (F(-2),))
    # x^2 = 2 has no rational solution: feasible over the reals, unknown here
    assert oracle_decide(1, [(sq, "=", F(2))]).status == "unknown"
    # decide pads the variable with a second one it never moves
    assert decide(1, [(sq, ">", F(0))]).witness == (F(1),)
    assert decide(1, [(sq, ">", F(0)), (sq, "<=", F(0))]).status == "unsat"
    neg = ((F(-3),),)
    assert decide(1, [(neg, ">", F(0))]).status == "unsat"
    assert decide(1, [(neg, "<", F(0)), (sq, "=", F(0))]).status == "unsat"


def test_three_variables_unknown():
    out = run("""(set-logic QF_NRA)
    (declare-const x Real)(declare-const y Real)(declare-const z Real)
    (assert (> (+ (* x x) (* y y) (* z z)) 0))
    (check-sat)(get-info :reason-unknown)""")
    assert out.splitlines() == ["unknown",
                                '(:reason-unknown "3 variables not '
                                'supported")']


def test_irrational_only_equality_unknown_in_2d():
    # x0^2 = 2 x1^2 with x0 x1 > 0 holds on the direction (sqrt 2, 1)
    # only: real-feasible without a rational point, so unknown
    res = decide(2, [(form(1, 0, -2), "=", F(0)), (form(0, 1, 0), ">", F(0))])
    assert res.status == "unknown" and res.reason


def test_tangency_point_sat():
    # (x0 - x1)^2 <= 0 touches the cone x0 x1 > 0 on the direction (1, 1)
    # only, at the double root of the form
    atoms = [(form(1, -1, 1), "<=", F(0)), (form(0, 1, 0), ">", F(0))]
    res = decide(2, atoms)
    assert res.status == "sat"
    assert verify_witness(atoms, res.witness)


# ---------------------------------------------------------------------------
# decide(): randomized differential test against dense float sampling


def _random_atoms(rng, n_atoms, rels):
    atoms = []
    for _ in range(n_atoms):
        a = F(rng.randint(-8, 8), rng.randint(1, 4))
        b = F(rng.randint(-8, 8), rng.randint(1, 4))
        c = F(rng.randint(-8, 8), rng.randint(1, 4))
        rhs = F(rng.randint(-4, 4), rng.randint(1, 3))
        atoms.append((((a, b), (b, c)), rng.choice(rels), rhs))
    return atoms


def _sampler_feasible(atoms, rng, trials, margin_scale, strict_only):
    for _ in range(trials):
        x0 = math.tan(math.pi * (rng.random() - 0.5))
        x1 = math.tan(math.pi * (rng.random() - 0.5))
        ok = True
        for f, rel, cc in atoms:
            v = (float(f[0][0]) * x0 * x0 + 2 * float(f[0][1]) * x0 * x1
                 + float(f[1][1]) * x1 * x1)
            c = float(cc)
            margin = margin_scale * (abs(v) + abs(c) + 1)
            if rel in ("<=", "<"):
                ok = v < c - margin
            elif rel in (">=", ">"):
                ok = v > c + margin
            else:
                ok = False if strict_only else abs(v - c) <= margin
            if not ok:
                break
        if ok:
            return True
    return False


def _homogeneous(atoms):
    return [(f, rel, F(0)) for f, rel, _ in atoms]


def test_differential_vs_sampler():
    # decide on the homogeneous atoms, the t-scale oracle on the general
    # ones; the homogeneous sampler draws from its own generator
    rng, hrng = random.Random(20240824), random.Random(20240825)
    for _ in range(250):
        atoms = _random_atoms(rng, rng.randint(1, 5),
                              ["<=", "<", ">=", ">", "="])
        for dec, case, r in ((oracle_decide, atoms, rng),
                             (decide, _homogeneous(atoms), hrng)):
            res = dec(2, case)
            if res.status == "sat":
                assert verify_witness(case, res.witness)
            elif res.status == "unsat":
                assert not _sampler_feasible(case, r, 4000, 1e-9, True)


def test_inequality_only_never_unknown():
    # without equalities, any real-feasible instance has interior rational
    # points, so the procedure must fully decide
    rng, hrng = random.Random(77), random.Random(78)
    for _ in range(150):
        atoms = _random_atoms(rng, rng.randint(1, 4), ["<=", "<", ">=", ">"])
        for dec, case, r in ((oracle_decide, atoms, rng),
                             (decide, _homogeneous(atoms), hrng)):
            res = dec(2, case)
            assert res.status in ("sat", "unsat")
            if _sampler_feasible(case, r, 2000, 1e-6, True):
                assert res.status == "sat"


# ---------------------------------------------------------------------------
# SMT-LIB2 front end


SCRIPT_SAT = """
(set-logic QF_NRA)
(declare-const x0 Real)
(declare-const x1 Real)
(assert (= (* x0 x0) (* 4 x1 x1)))
(assert (> (* x0 x1) 0))
(check-sat)
(get-model)
"""


def test_run_script_sat_model():
    out = run(SCRIPT_SAT)
    assert out.splitlines()[0] == "sat"
    assert "define-fun x0" in out and "define-fun x1" in out


def test_run_script_unsat():
    out = run("""(set-logic QF_NRA)
    (declare-const x Real)
    (assert (> (* x x) 0))
    (assert (< (* 4 x x) (* x x)))
    (check-sat)""")
    assert out.strip() == "unsat"


def test_run_script_reason_unknown():
    out = run("""(set-logic QF_NRA)
    (declare-const x Real)(declare-const y Real)
    (assert (= (* x x) (* 2 y y)))
    (assert (> (* x y) 0))
    (check-sat)(get-info :reason-unknown)""")
    lines = out.splitlines()
    assert lines[0] == "unknown"
    assert ":reason-unknown" in lines[1]


def test_run_script_nonzero_constant_is_unknown():
    out = run("""(set-logic QF_NRA)
    (declare-const x Real)(declare-const y Real)
    (assert (= (+ (* x x) (* y y)) 1))
    (check-sat)(get-info :reason-unknown)""")
    assert out.splitlines() == ["unknown",
                                '(:reason-unknown "nonzero right-hand '
                                'side")']


def test_run_script_rational_constants_and_minus():
    out = run("""(set-logic QF_NRA)
    (declare-const x Real)(declare-const y Real)
    (assert (<= (* (/ 1 4) x x) (* x y)))
    (assert (>= (* x y) (- (* (/ 1 100) y y) (* 2 x x))))
    (assert (> (* x x) 0))
    (check-sat)(get-model)""")
    assert out.splitlines()[0] == "sat"


def test_run_script_unsupported_is_unknown():
    for term in ("(* x x x)", "(-)"):
        out = run(f"""(set-logic QF_NRA)
        (declare-const x Real)
        (assert (> {term} 1))
        (check-sat)""")
        assert out.strip() == "unknown", term


@pytest.mark.parametrize("text", [
    # an unterminated |symbol|
    "(declare-const |x0 Real)(check-sat)",
    # a declaration after an assertion, whose matrix it would outgrow
    "(declare-const x0 Real)(assert (> (* x0 x0) 0))"
    "(declare-const x1 Real)(check-sat)",
    # an assertion without its term
    "(declare-const x0 Real)(assert)(check-sat)",
    # a variable declared twice, and a declaration naming a list
    "(declare-const x0 Real)(declare-const x0 Real)"
    "(assert (> (* x0 x0) 0))(check-sat)",
    "(declare-const (x0) Real)(check-sat)",
], ids=["unterminated_symbol", "declare_after_assert", "empty_assert",
        "declared_twice", "list_name"])
def test_run_script_rejects_with_one_error_line(text):
    out = io.StringIO()
    assert run_script(text, out) == 1
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("(error "), lines


def test_format_rational():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-3)) == "(- 3)"
    assert format_rational(F(1, 4)) == "(/ 1 4)"
    assert format_rational(F(-5, 7)) == "(- (/ 5 7))"

