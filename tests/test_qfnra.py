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
from conftest import (bundled, float_conic_witness,
                      fraction_critical_samples, fraction_enclosure,
                      fraction_simplest_between, full_sample_decide,
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
    assert [r.value for r in rs] == [F(1), F(2)]
    rs = roots_of_quadratic(1, 0, -2)  # +-sqrt(2)
    assert all(r.value is None for r in rs)
    lo, hi = fraction_enclosure(rs[1], 30)
    assert lo < hi and abs(float(lo) - math.sqrt(2)) < 1e-8
    assert roots_of_quadratic(1, 0, 1) == []
    assert roots_of_quadratic(0, 2, -3)[0].value == F(3, 2)


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
    """The (direction, region) samples of the whole line cut at the roots
    of the integer quadratics polys, or None."""
    arcs = qfnra.cut_arcs([qfnra.WHOLE_LINE], qfnra.enclosed_roots(polys))
    return None if arcs is None else [(d, region) for d, region, _ in arcs]


def _normal(samples):
    """line_samples output with each Root as its defining integers."""
    if samples is None:
        return None
    return [((d.a, d.b, d.disc, d.eps) if isinstance(d, qfnra.Root) else d,
             region) for d, region in samples]


def _bounds(direction):
    """Rational bounds of a sample direction."""
    if isinstance(direction, qfnra.Root):
        return fraction_enclosure(direction, 256)
    return direction, direction


_TRIPLES = st.lists(st.tuples(*[st.integers(-10**6, 10**6)] * 3),
                    min_size=1, max_size=6)


@given(_TRIPLES)
@settings(max_examples=300, deadline=None)
def test_critical_samples_ordered(polys):
    # strictly increasing directions, every open-region sample strictly
    # inside its region, and the Fraction oracle's list wherever it has
    # one
    polys = sorted(polys)
    samples = line_samples(polys)
    assert samples is not None
    for (d0, _), (d1, _) in zip(samples, samples[1:]):
        assert _bounds(d0)[1] < _bounds(d1)[0]
    for d, region in samples:
        if region is not None and region[0] != region[1]:
            lo, hi = region
            assert (lo is None or lo < d) and (hi is None or d < hi)
    oracle = fraction_critical_samples(polys)
    if oracle is not None:
        assert _normal(samples) == _normal(oracle)


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


# ---------------------------------------------------------------------------
# the integer kernel against its Fraction and float oracles


@pytest.mark.parametrize("case", ["ci", "r4_5", "cs", "one_dim", "scaled"])
def test_kernel_matches_oracles(case, request, monkeypatch):
    # every cut of the whole line of directions, by the contraction
    # queries (decide_forms) and by the full-sample kernel, which decides
    # every word query of both builds again, at the roots of its atoms and
    # of the trigger forms that split the word tree (line_cut), and every
    # conic witness of the queries and of both builds,
    # on the r = 1/2 fixture, on the bundled loop at r = 4/5, on the
    # bundled example (r = 1/10), on a scalar plant and on the loop at
    # r = 4/5 with P_lyap, Q_lyap and V0 scaled by 3; the integer kernel
    # may answer only where its oracle did not.  The builds sample only
    # on their feasible arcs, and those arcs are checked through the
    # full-sample kernel's verdicts and witnesses.
    # Every contraction query is decided again by the t-scale oracle:
    # the same verdicts, and every sat witness holds
    cuts, conics = [], []

    def recording_decide_forms(atoms, n, _fn=qfnra.decide_forms):
        cuts.append([f for f, _ in atoms])
        return _fn(atoms, n)

    def recording_line_cut(forms, n, _fn=conftest.line_cut):
        cuts.append(list(forms))
        return _fn(forms, n)

    def recording_conic_witness(*args, _fn=qfnra._conic_witness, **kwargs):
        out = _fn(*args, **kwargs)
        conics.append((args, kwargs, out))
        return out

    monkeypatch.setattr(qfnra, "decide_forms", recording_decide_forms)
    monkeypatch.setattr(conftest, "line_cut", recording_line_cut)
    monkeypatch.setattr(qfnra, "_conic_witness", recording_conic_witness)
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
        ref = _normal(fraction_critical_samples(polys))
        assert ref is None or _normal(line_samples(polys)) == ref, polys
    # a scalar plant has no conic: V0 / v_0 is a rational square
    assert conics or disc.n_x == 1
    for args, kwargs, out in conics:
        ref = float_conic_witness(*args, **kwargs)
        assert ref is None or out == ref, args
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
    out = run("""(set-logic QF_NRA)
    (declare-const x Real)
    (assert (> (* x x x) 1))
    (check-sat)""")
    assert out.strip() == "unknown"


def test_format_rational():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-3)) == "(- 3)"
    assert format_rational(F(1, 4)) == "(/ 1 4)"
    assert format_rational(F(-5, 7)) == "(- (/ 5 7))"

