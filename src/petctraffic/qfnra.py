"""Exact satisfiability of conjunctions of homogeneous quadratic-form
constraints in one or two variables, by sign tests on integer forms.

An atom x'Fx rel 0 in two variables is the sign of a binary quadratic
form, kept as a primitive integer triple (a2, a1, a0) with a strict
flag.  On the directions u = (1, m) each form is an integer quadratic in
m, sign-invariant between its real roots.  Every query takes one path:
it starts from ``line_arcs``, the whole line of m and the vertical
direction (0, 1), ``cut_arcs`` cuts those arcs at the roots of its forms,
isolated exactly on integers (``enclosed_roots``, ordered by
``between``), and ``feasible`` tests the signs at each piece's sample:
one simplest rational direction per open region, each rational root
exactly, each irrational root in Z[sqrt(D)].  The atoms are homogeneous,
so a feasible rational direction is itself a witness, and feasible
irrational directions alone leave the query `unknown`.  ``decide``
answers the contraction queries of ``satcheck.check`` by cutting
``line_arcs`` once (``decide_forms``); ``wordtree`` keeps the feasible
arcs of each word and cuts them once for all its letters, and once at
its unit-shell atom (``refine_arcs``).

A rational is chosen by one rule: the simplest rational strictly between
integer enclosures over 2^prec, at the first precision (64, 128, ...
bits) at which they leave a gap.  The sample direction of a region
between two roots lies between their enclosures (``_region_sample``),
and a witness scale s with lo < s^2 < hi between those of sqrt(lo) and
sqrt(hi) (``simplest_sqrt_between``).

``run_script`` is an SMT-LIB2 command interpreter around ``decide`` for
the fragment ``satcheck.to_smtlib`` emits: `(set-logic QF_NRA)`, Real
constants declared with `declare-const`, and asserted atoms of the form
p(x) rel q(x)  where p - q is a quadratic form plus a rational constant.
It answers `sat`/`unsat`/`unknown` to `(check-sat)` (`unknown` for a
nonzero constant) and prints a rational model on `(get-model)`.

The module depends on nothing outside the standard library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

FLIP = {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "=": "="}


class Unsupported(Exception):
    """Input outside the decidable fragment handled here."""


# ---------------------------------------------------------------------------
# SMT-LIB2 reading


def tokenize(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "()":
            out.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "|":
            j = text.index("|", i + 1)
            out.append(text[i:j + 1])
            i = j + 1
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            out.append(text[i:j + 1])
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in '() ;\t\r\n"':
                j += 1
            out.append(text[i:j])
            i = j
    return out


def parse_sexprs(tokens):
    stack = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            if not stack:
                raise Unsupported("unbalanced parentheses")
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise Unsupported("unbalanced parentheses")
    return stack[0]


def _atom_to_number(tok):
    if isinstance(tok, list):
        return None
    try:
        if "." in tok:
            return Fraction(tok)
        return Fraction(int(tok))
    except ValueError:
        return None


# polynomials: dict mapping a sorted tuple of variable indices to Fraction


def poly_const(c):
    return {(): Fraction(c)} if c else {}


def poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
        if out[k] == 0:
            del out[k]
    return out


def poly_neg(a):
    return {k: -v for k, v in a.items()}


def poly_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(sorted(ka + kb))
            out[k] = out.get(k, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def eval_term(expr, var_index):
    if not isinstance(expr, list):
        c = _atom_to_number(expr)
        if c is not None:
            return poly_const(c)
        if expr in var_index:
            return {(var_index[expr],): Fraction(1)}
        raise Unsupported(f"unknown symbol {expr!r}")
    if not expr:
        raise Unsupported("empty term")
    op, args = expr[0], expr[1:]
    if op == "+":
        out = {}
        for a in args:
            out = poly_add(out, eval_term(a, var_index))
        return out
    if op == "-":
        if len(args) == 1:
            return poly_neg(eval_term(args[0], var_index))
        out = eval_term(args[0], var_index)
        for a in args[1:]:
            out = poly_add(out, poly_neg(eval_term(a, var_index)))
        return out
    if op == "*":
        out = poly_const(1)
        for a in args:
            out = poly_mul(out, eval_term(a, var_index))
        return out
    if op == "/":
        if len(args) != 2:
            raise Unsupported("n-ary division")
        num = eval_term(args[0], var_index)
        den = eval_term(args[1], var_index)
        if set(den) - {()}:
            raise Unsupported("division by non-constant")
        d = den.get((), Fraction(0))
        if d == 0:
            raise Unsupported("division by zero")
        return {k: v / d for k, v in num.items()}
    raise Unsupported(f"operator {op!r}")


def parse_atom(expr, var_index):
    """Turn an asserted (rel lhs rhs) into (F, rel, c) meaning x'Fx rel c."""
    if not (isinstance(expr, list) and len(expr) == 3 and expr[0] in FLIP):
        raise Unsupported("assertion is not a binary relation")
    rel = expr[0]
    poly = poly_add(eval_term(expr[1], var_index),
                    poly_neg(eval_term(expr[2], var_index)))
    n = len(var_index)
    f = [[Fraction(0)] * n for _ in range(n)]
    const = Fraction(0)
    for mono, coef in poly.items():
        if len(mono) == 0:
            const = coef
        elif len(mono) == 2:
            i, j = mono
            if i == j:
                f[i][i] += coef
            else:
                half = coef / 2
                f[i][j] += half
                f[j][i] += half
        else:
            raise Unsupported("polynomial is not a quadratic form plus constant")
    return tuple(tuple(row) for row in f), rel, -const


# ---------------------------------------------------------------------------
# exact arithmetic in Q(sqrt(D))


def _sgn(v):
    return (v > 0) - (v < 0)


def _sign_pair(p, q, d):
    """sign of p + q*sqrt(d) with integer p, q and non-square d > 0."""
    if q == 0:
        return _sgn(p)
    if p == 0:
        return _sgn(q)
    sp, sq = _sgn(p), _sgn(q)
    if sp == sq:
        return sp
    t = p * p - q * q * d
    if t == 0:
        return 0
    return sp if t > 0 else sq


# ---------------------------------------------------------------------------
# roots of integer quadratics, with exact isolation


class Root:
    """A real root of an integer polynomial of degree <= 2.

    Either rational (value set) or the surd (-b + eps*sqrt(disc)) / (2a)
    with a > 0 and non-square disc.
    """

    __slots__ = ("value", "a", "b", "disc", "eps")

    def __init__(self, value=None, a=None, b=None, disc=None, eps=None):
        self.value = value
        self.a = a
        self.b = b
        self.disc = disc
        self.eps = eps

    @property
    def is_rational(self):
        return self.value is not None

    def bounds(self, prec):
        """(lo, hi, den): integers with lo/den <= root <= hi/den, den > 0;
        for an irrational root den = 2a 2^prec and hi = lo + 1."""
        if self.is_rational:
            v = self.value
            return v.numerator, v.numerator, v.denominator
        s = math.isqrt(self.disc << (2 * prec))
        base = -self.b << prec
        lo = base + s if self.eps > 0 else base - s - 1
        return lo, lo + 1, (2 * self.a) << prec


def roots_of_quadratic(a, b, c):
    if a == 0:
        if b == 0:
            return []
        return [Root(value=Fraction(-c, b))]
    if a < 0:
        a, b, c = -a, -b, -c
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        return [Root(value=Fraction(-b, 2 * a))]
    s = math.isqrt(disc)
    if s * s == disc:
        return [Root(value=Fraction(-b - s, 2 * a)),
                Root(value=Fraction(-b + s, 2 * a))]
    return [Root(a=a, b=b, disc=disc, eps=-1),
            Root(a=a, b=b, disc=disc, eps=+1)]


def root_cmp(r1, r2):
    """The exact sign of r1 - r2."""
    if r1.is_rational and r2.is_rational:
        return _sgn(r1.value - r2.value)
    if r2.is_rational:
        # (-b q - 2a p + eps q sqrt(D)) / (2a q) with r2 = p/q
        p, q = r2.value.numerator, r2.value.denominator
        return _sign_pair(-r1.b * q - 2 * r1.a * p, r1.eps * q, r1.disc)
    if r1.is_rational:
        return -root_cmp(r2, r1)
    # times 4 a1 a2 > 0: c + s1 sqrt(D1) - s2 sqrt(D2)
    c = 2 * (r1.a * r2.b - r2.a * r1.b)
    s1, s2 = 2 * r2.a * r1.eps, 2 * r1.a * r2.eps
    if r1.disc == r2.disc:
        return _sign_pair(c, s1 - s2, r1.disc)
    sa, sb = _sign_pair(c, s1, r1.disc), -r2.eps
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    # opposite signs: the larger of (c + s1 sqrt(D1))^2 and s2^2 D2 wins
    t = _sign_pair(c * c + s1 * s1 * r1.disc - s2 * s2 * r2.disc,
                   2 * c * s1, r1.disc)
    return sa if t > 0 else sb if t < 0 else 0


# ---------------------------------------------------------------------------
# rational points


def _simplest_between(ln, ld, hn, hd):
    """(p, q): the smallest-denominator rational p/q strictly inside
    (ln/ld, hn/hd), with ld, hd > 0 and ln/ld < hn/hd.

    Walks the continued fractions of both ends: while they share the
    integer part fl, the interval minus fl is inverted, and the walk
    stops at the first integer part that tells them apart."""
    terms = []
    while True:
        fl = ln // ld
        if (fl + 1) * hd < hn:  # fl + 1 < hi
            p = fl + 1
            break
        terms.append(fl)
        ln -= fl * ld  # lo - fl in [0, 1)
        hn -= fl * hd  # hi - fl in (0, 1]
        if ln == 0:
            p = hd // hn + 1
            break
        ln, ld, hn, hd = hd, hn, ld, ln  # (1 / (hi - fl), 1 / (lo - fl))
    q = 1
    for t in reversed(terms):  # p/q <- t + 1/(p/q)
        p, q = t * p + q, p
    return p, q


def simplest_sqrt_between(ln, ld, hn, hd):
    """(p, q): a rational s = p/q > 0 with ln/ld < s^2 < hn/hd, for
    0 <= ln/ld < hn/hd and ld, hd > 0.

    At 64, 128, ... bits, sqrt(lo) and sqrt(hi) are enclosed from inside
    by the integers lo' = isqrt(lo 4^prec) + 1 and hi' = isqrt(hi 4^prec)
    over 2^prec; at the first precision with lo' < hi', s is the simplest
    rational strictly between those two, as ``_region_sample`` takes
    its directions."""
    prec = 64
    while True:
        lo = math.isqrt((ln << 2 * prec) // ld) + 1
        hi = math.isqrt((hn << 2 * prec) // hd)
        if lo < hi:
            return _simplest_between(lo, 1 << prec, hi, 1 << prec)
        prec *= 2


def rational_square_root(t):
    """sqrt(t) if t is the square of a rational, else None."""
    if t is None or t < 0:
        return None
    num, den = t.numerator, t.denominator
    sn, sd = math.isqrt(num), math.isqrt(den)
    if sn * sn == num and sd * sd == den:
        return Fraction(sn, sd)
    return None


# ---------------------------------------------------------------------------
# witness verification and construction


def verify_witness(atoms, x):
    n = len(x)
    for f, rel, c in atoms:
        v = sum(x[i] * sum(f[i][j] * x[j] for j in range(n)) for i in range(n))
        ok = {"<=": v <= c, "<": v < c, ">=": v >= c, ">": v > c,
              "=": v == c}[rel]
        if not ok:
            return False
    return True


def _quad_at(f, x0, x1):
    return (f[0][0] * x0 * x0 + (f[0][1] + f[1][0]) * x0 * x1
            + f[1][1] * x1 * x1)


def _conic_base_point(f, c):
    """Some rational point with x'Fx = c, or None."""
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


def _conic_witness(eq_atom, atoms, m_target, region, base=None):
    """Rational point on the conic x'Fx = c whose direction lies in region.

    Directions are x1/x0; region is a pair of rational bounds (either may
    be None for unbounded).  The chord through a rational base point b
    with rational slope u meets the conic in a second rational point.
    Its direction is m_target (known to lie strictly inside the region)
    exactly when u is a root of

        (d f11 - 2 g1) u^2 + (d (f01 + f10) - 2 g0 + 2 g1 m) u
            + (d f00 + 2 g0 m),    g = F b,  d = b1 - m b0,

    so each real root, in increasing order, is rounded to a dyadic
    rational at 20, 30 and 44 bits and the chord's point is verified
    exactly.  ``base`` is a rational point of the conic found earlier,
    if any.
    """
    f, _, c = eq_atom
    if base is None:
        base = _conic_base_point(f, c)
    if base is None:
        return None
    lo, hi = region

    def in_region(m):
        if m is None:
            return False
        if lo is not None and not m > lo:
            return False
        if hi is not None and not m < hi:
            return False
        return True

    if in_region(base[1] / base[0] if base[0] != 0 else None) \
            and verify_witness(atoms, base):
        return base

    g0 = f[0][0] * base[0] + f[0][1] * base[1]
    g1 = f[1][0] * base[0] + f[1][1] * base[1]

    def chord(u):
        vfv = _quad_at(f, Fraction(1), u)
        if vfv == 0:
            return None
        lam = -2 * (g0 + u * g1) / vfv
        return (base[0] + lam, base[1] + lam * u)

    m = m_target
    d = base[1] - m * base[0]
    slopes = _primitive([d * f[1][1] - 2 * g1,
                         d * (f[0][1] + f[1][0]) - 2 * g0 + 2 * g1 * m,
                         d * f[0][0] + 2 * g0 * m])
    for root in roots_of_quadratic(*slopes):
        for prec in (1 << 20, 1 << 30, 1 << 44):
            x = chord(Fraction(_round_root(root, prec), prec))
            if x is None or x[0] == 0:
                continue
            if in_region(x[1] / x[0]) and verify_witness(atoms, x):
                return x
    return None


def _round_root(root, prec):
    """The integer nearest to root * prec, for an integer prec > 0."""
    if root.is_rational:
        return round(root.value * prec)
    # floor((-b prec + a + eps sqrt(D prec^2)) / (2a)): rounding
    # eps sqrt(D prec^2) down to an integer keeps that floor, and an
    # irrational root is never a tie
    s = math.isqrt(root.disc * prec * prec) + (root.eps < 0)
    return (-root.b * prec + root.a + root.eps * s) // (2 * root.a)


# ---------------------------------------------------------------------------
# the decision procedure


class Decided:
    def __init__(self, status, witness=None, reason=""):
        self.status = status
        self.witness = witness
        self.reason = reason


def _primitive(coeffs):
    """Scale rational coefficients to coprime integers of the same signs."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _enclosed_cmp(x, y):
    """root_cmp of (root, bounds) pairs, read off the bounds when they
    are disjoint."""
    (r1, (lo1, hi1, d1)), (r2, (lo2, hi2, d2)) = x, y
    if hi1 * d2 < lo2 * d1:
        return -1
    if hi2 * d1 < lo1 * d2:
        return 1
    return root_cmp(r1, r2)


def enclosed_roots(polys):
    """The real roots of the integer quadratics polys = (a2, a1, a0), each
    as a pair (root, its bounds at 64 bits), in no order."""
    return [(r, r.bounds(64)) for a, b, c in polys
            for r in roots_of_quadratic(a, b, c)]


def between(pairs, lo=None, hi=None):
    """The distinct roots of the (root, bounds) pairs that lie strictly
    between the pairs lo and hi (None: unbounded), in increasing order.
    Roots are compared by their bounds where these are disjoint, else by
    root_cmp, so equal roots merge and distinct ones separate."""
    pairs = sorted((p for p in pairs
                    if (lo is None or _enclosed_cmp(lo, p) < 0)
                    and (hi is None or _enclosed_cmp(p, hi) < 0)),
                   key=cmp_to_key(_enclosed_cmp))
    return [p for i, p in enumerate(pairs)
            if i == 0 or _enclosed_cmp(pairs[i - 1], p)]


_MAX_PREC = 1 << 16  # bits of the root enclosures before giving up

# the one arc of the whole line of directions m, before any root: its
# sample is 0 and both its bounding roots are absent
WHOLE_LINE = (Fraction(0), (None, None), (None, None))
VERTICAL = "vertical"


def line_arcs(n):
    """The arcs of every direction in n = 1 or 2 variables, before any
    root: the whole line of u = (1, m) and, for n = 2, the vertical
    direction (0, 1), which no root cuts."""
    arcs = [WHOLE_LINE]
    if n == 2:
        arcs.append((VERTICAL, (None, None), None))
    return arcs


def _region_sample(lo, hi):
    """(direction, region) for the open region between consecutive roots
    lo < hi, given as pairs of ``enclosed_roots`` or None for an unbounded
    side.

    Between two roots the direction is the simplest rational strictly
    between their bounds at the first precision (64, 128, ... bits) at
    which the bounds are disjoint, and the region is those bounds; None
    when that takes more than _MAX_PREC bits.  Below the lowest root the
    direction is the floor of its lower bound minus one, above the
    highest root the floor of its upper bound plus two, and with no root
    at all it is 0."""
    if lo is None:
        if hi is None:
            return Fraction(0), (None, None)
        ln, _, ld = hi[1]
        return Fraction(ln // ld - 1), (None, Fraction(ln, ld))
    if hi is None:
        _, hn, hd = lo[1]
        return Fraction(hn // hd + 2), (Fraction(hn, hd), None)
    (r1, (_, hn, hd)), (r2, (ln, _, ld)) = lo, hi
    prec = 64
    while not hn * ld < ln * hd:
        prec *= 2
        if prec > _MAX_PREC:
            return None
        _, hn, hd = r1.bounds(prec)
        ln, _, ld = r2.bounds(prec)
    return (Fraction(*_simplest_between(hn, hd, ln, ld)),
            (Fraction(hn, hd), Fraction(ln, ld)))


def _point_sample(root):
    """(direction, region) at a root pair of ``enclosed_roots``: a
    rational root as a Fraction with region (root, root), an irrational
    one as its Root with region None."""
    r = root[0]
    return (r.value, (r.value, r.value)) if r.is_rational else (r, None)


def cut_arcs(arcs, roots):
    """The arcs (direction, region, bounds) with every open arc cut at the
    roots, pairs of ``enclosed_roots``, that fall strictly inside it, in
    order; None when arcs is None or two neighbouring roots do not
    separate.  An open arc's bounds are its bounding root pairs (None:
    unbounded); a point or the vertical direction has bounds None and is
    never cut.  Each piece carries the ``_region_sample`` or
    ``_point_sample`` of its region or root."""
    if arcs is None:
        return None
    out = []
    for arc in arcs:
        if arc[2] is None or not roots:
            out.append(arc)
            continue
        lo, hi = arc[2]
        inside = between(roots, lo, hi)
        if not inside:
            out.append(arc)
            continue
        bounds = [lo, *inside, hi]
        for i in range(len(inside) + 1):
            sample = _region_sample(bounds[i], bounds[i + 1])
            if sample is None:
                return None
            out.append((*sample, (bounds[i], bounds[i + 1])))
            if i < len(inside):
                out.append((*_point_sample(inside[i]), None))
    return out


def refine_arcs(arcs, atoms):
    """The feasible arcs of a query with the atoms (f, strict) added,
    from the query's feasible arcs: those arcs cut at the new atoms'
    roots, and of the pieces the ones at which every new atom holds.
    The query's own atoms keep their signs on each of its arcs, so only
    the new atoms are tested.  None when arcs is None or two
    neighbouring roots do not separate."""
    cut = cut_arcs(arcs, enclosed_roots(f for f, _ in atoms))
    return None if cut is None else list(feasible(atoms, cut))


def sign(f, direction) -> int:
    """The sign of the binary form f = (a2, a1, a0), that is
    a2 u1^2 + a1 u0 u1 + a0 u0^2, at u = (1, m) for a Fraction or Root m,
    or at u = (0, 1) for VERTICAL."""
    a2, a1, a0 = f
    if direction is VERTICAL:
        return _sgn(a2)
    if isinstance(direction, Fraction):
        p, q = direction.numerator, direction.denominator
        return _sgn((a2 * p + a1 * q) * p + a0 * q * q)
    # f at the root (-b + eps sqrt(D)) / (2a), times 4 a^2 > 0
    a, b, d = direction.a, direction.b, direction.disc
    return _sign_pair(a2 * (b * b + d) - 2 * a * b * a1 + 4 * a * a * a0,
                      direction.eps * (2 * a * a1 - 2 * b * a2), d)


def feasible(atoms, samples):
    """The samples (direction, region) at which every atom holds, in
    order.  The atom that rejected the last sample is tested first at
    the next one: neighbouring samples are mostly rejected by the same
    atom."""
    atoms = list(atoms)
    for sample in samples:
        for i, (f, strict) in enumerate(atoms):
            s = sign(f, sample[0])
            if s < 0 or (s == 0 and strict):
                if i:
                    atoms.insert(0, atoms.pop(i))
                break
        else:
            yield sample


def decide(n, atoms):
    """Decide a conjunction of homogeneous atoms x'Fx rel 0 in one or two
    variables; Unsupported for a nonzero right-hand side or another n.

    Each atom is one sign condition on the binary form of F (an `=`
    atom two), a one-variable F padded with zeros.  Without a strict
    atom x = 0 is a witness.  Otherwise the first feasible rational
    direction u is one: every atom is homogeneous, so no scale is needed.
    Feasible irrational directions alone give `unknown`."""
    if any(c != 0 for _, _, c in atoms):
        raise Unsupported("nonzero right-hand side")
    if not any(rel in ("<", ">") for _, rel, _ in atoms):
        return Decided("sat", witness=(Fraction(0),) * n)
    if not 1 <= n <= 2:
        raise Unsupported(f"{n} variables not supported")
    forms = []
    for f, rel, _ in atoms:
        form = _primitive([f[1][1], f[0][1] + f[1][0], f[0][0]] if n == 2
                          else [0, 0, f[0][0]])
        if rel in (">", ">=", "="):
            forms.append((form, rel == ">"))
        if rel in ("<", "<=", "="):
            forms.append((tuple(-c for c in form), rel == "<"))
    return decide_forms(forms, n)


def decide_forms(atoms, n):
    """Decide the sign conditions atoms (f, strict) in n = 1 or 2
    variables on the ``line_arcs`` cut at the roots of their forms:
    `sat` with the first feasible rational direction as the witness,
    `unknown` when only irrational directions are feasible or the roots
    cannot be separated, else `unsat`."""
    arcs = cut_arcs(line_arcs(n), enclosed_roots(f for f, _ in atoms))
    if arcs is None:
        return Decided("unknown",
                       reason="root separation exceeded precision cap")
    status = Decided("unsat")
    for direction, _, _ in feasible(atoms, arcs):
        if not isinstance(direction, Root):
            u = (0, 1) if direction is VERTICAL else (1, direction)
            return Decided("sat", witness=tuple(Fraction(v) for v in u[:n]))
        status = Decided("unknown",
                         reason="feasible, but no rational witness was found")
    return status


# ---------------------------------------------------------------------------
# command interpreter


def format_rational(v):
    num, den = v.numerator, v.denominator
    if num < 0:
        body = str(-num) if den == 1 else f"(/ {-num} {den})"
        return f"(- {body})"
    return str(num) if den == 1 else f"(/ {num} {den})"


def run_script(text, out):
    try:
        commands = parse_sexprs(tokenize(text))
    except Unsupported as exc:
        out.write(f"(error \"{exc}\")\n")
        return 1
    var_index = {}
    var_names = []
    atoms = []
    unsupported_reason = ""
    model = None
    status = None
    for cmd in commands:
        if not isinstance(cmd, list) or not cmd:
            continue
        head = cmd[0]
        if head in ("set-logic", "set-option", "set-info", "exit", "push",
                    "pop", "reset"):
            continue
        if head == "declare-const" and len(cmd) == 3:
            if cmd[2] != "Real":
                out.write("(error \"only Real constants are supported\")\n")
                return 1
            var_index[cmd[1]] = len(var_names)
            var_names.append(cmd[1])
        elif head == "declare-fun" and len(cmd) == 4 and cmd[2] == []:
            var_index[cmd[1]] = len(var_names)
            var_names.append(cmd[1])
        elif head == "assert":
            if atoms is not None:
                try:
                    atoms.append(parse_atom(cmd[1], var_index))
                except Unsupported as exc:
                    atoms = None
                    unsupported_reason = str(exc)
        elif head == "check-sat":
            if atoms is None:
                status = Decided("unknown", reason=unsupported_reason)
            else:
                try:
                    status = decide(len(var_names), atoms)
                except Unsupported as exc:
                    status = Decided("unknown", reason=str(exc))
            if status.status == "sat" and status.witness is not None \
                    and len(status.witness) == len(var_names) \
                    and not verify_witness(atoms, status.witness):
                status = Decided("unknown", reason="witness verification failed")
            out.write(status.status + "\n")
            if status.status == "sat":
                model = status.witness
        elif head == "get-model":
            if model is None:
                out.write("(error \"model is not available\")\n")
            else:
                lines = ["(model"]
                for name, value in zip(var_names, model):
                    lines.append(
                        f"  (define-fun {name} () Real {format_rational(value)})")
                lines.append(")")
                out.write("\n".join(lines) + "\n")
        elif head == "get-info":
            if len(cmd) > 1 and cmd[1] == ":reason-unknown":
                reason = status.reason if status is not None else ""
                out.write(f"(:reason-unknown \"{reason}\")\n")
    return 0

