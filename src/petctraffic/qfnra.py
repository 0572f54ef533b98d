"""Exact satisfiability of conjunctions of homogeneous quadratic-form
constraints in one or two variables, by sign tests on integer forms.

An atom x'Fx rel 0 in two variables is the sign of a binary quadratic
form, kept as a primitive integer triple (a2, a1, a0) with a strict
flag.  A direction is an integer pair u = (u0, u1).  On the line of
directions u = (1, m) each form is an integer quadratic in m,
sign-invariant between its real roots, and every root is one ``Root``:
the surd (-b + eps sqrt(D)) / (2a) with D >= 0 (a linear root has
D = 0), with its enclosure by two integers over 2^64.  Every query
takes one path: it starts from ``line_arcs``, the whole line of m and
the vertical direction (0, 1), ``cut_arcs`` cuts those arcs at the
roots of its forms, isolated exactly on integers (ordered by
``between``), into arcs (direction, bounds), and ``feasible`` tests the
signs at each arc's direction.  An open arc, between its bounding
roots, has the direction (q, p) of one simplest rational m = p/q; a
root point has the direction (2a, eps sqrt(D) - b) when D is a square,
else it is its Root, and its signs are taken in Z[sqrt(D)].  The atoms
are homogeneous, so a feasible integer direction is itself a witness,
and feasible irrational directions alone leave the query `unknown`.
``decide`` answers the contraction queries of ``satcheck.check`` by
cutting ``line_arcs`` once (``decide_forms``); ``wordtree`` keeps the
feasible arcs of each word and cuts them once, for all its letters and
its unit-shell atom together.

A rational is chosen by one rule: the simplest rational strictly between
integer enclosures over 2^prec, at the first precision (64, 128, ...
bits) at which they leave a gap.  Distinct roots always leave one, so
every cut succeeds, with no cap on the precision.  The direction of an
open arc lies between the enclosures of its bounding roots
(``_arc_direction``), and a witness scale s with lo < s^2 < hi between
those of sqrt(lo) and sqrt(hi) (``simplest_sqrt_between``).
``reflect`` moves an integer direction into an open arc by a reflection
that keeps the value of a positive definite form up to an integer
square, chosen by the same rule.

``run_script`` is an SMT-LIB2 command interpreter around ``decide`` for
the fragment ``satcheck.to_smtlib`` emits: `(set-logic QF_NRA)`, Real
constants declared with `declare-const`, and asserted atoms of the form
p(x) rel q(x)  where p - q is a quadratic form plus a rational constant.
It answers `sat`/`unsat`/`unknown` to `(check-sat)` (`unknown` for a
nonzero constant) and prints a rational model on `(get-model)`, which
``satcheck.parse_model`` reads with the same reader.  Every verdict of
the package is a ``SatResult``, and ``verify_witness`` its atom check.

The module depends on nothing outside the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
            j = text.find("|", i + 1)
            if j < 0:
                raise Unsupported("unterminated |symbol|")
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
        if not args:
            raise Unsupported("(-) without arguments")
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
    """sign of p + q*sqrt(d) with integer p, q and d >= 0."""
    if q == 0 or d == 0:
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
    """The real root (-b + eps*sqrt(disc)) / (2a) of an integer polynomial
    of degree <= 2, with a > 0, disc >= 0 and eps = +-1: rational exactly
    when disc is a square.  enc is its enclosure at 64 bits."""

    __slots__ = ("a", "b", "disc", "eps", "enc")

    def __init__(self, a, b, disc, eps):
        self.a = a
        self.b = b
        self.disc = disc
        self.eps = eps
        self.enc = self.bounds(64)

    def bounds(self, prec):
        """(lo, hi): integers with lo <= root 2^prec <= hi and hi - lo <= 2,
        equal exactly when root 2^prec is an integer.  With
        s = isqrt(disc 4^prec), lo is the floor of the smaller and hi the
        ceiling of the larger of (-b 2^prec + eps s) / (2a) and
        (-b 2^prec + eps (s + 1)) / (2a), where s + 1 is s when
        disc 4^prec is a square."""
        t = self.disc << (2 * prec)
        s = math.isqrt(t)
        gap = s * s != t
        base, den = -self.b << prec, 2 * self.a
        if self.eps > 0:
            return (base + s) // den, -(-(base + s + gap) // den)
        return (base - s - gap) // den, -(-(base - s) // den)


def roots_of_quadratic(a, b, c):
    """The real roots of a m^2 + b m + c, each once: -c/b when a = 0."""
    if a == 0:
        return [Root(abs(b), 2 * c if b > 0 else -2 * c, 0, 1)] if b else []
    if a < 0:
        a, b, c = -a, -b, -c
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        return [Root(a, b, 0, 1)]
    return [Root(a, b, disc, -1), Root(a, b, disc, +1)]


def root_cmp(r1, r2):
    """The exact sign of r1 - r2."""
    # times 4 a1 a2 > 0: c + s1 sqrt(D1) - s2 sqrt(D2)
    c = 2 * (r1.a * r2.b - r2.a * r1.b)
    s1, s2 = 2 * r2.a * r1.eps, 2 * r1.a * r2.eps
    if r1.disc == r2.disc:
        return _sign_pair(c, s1 - s2, r1.disc)
    sa, sb = _sign_pair(c, s1, r1.disc), -r2.eps if r2.disc else 0
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    # opposite signs, or sb = 0: the larger of (c + s1 sqrt(D1))^2 and
    # s2^2 D2 wins
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
    rational strictly between those two, as ``_arc_direction`` takes
    its directions."""
    prec = 64
    while True:
        lo = math.isqrt((ln << 2 * prec) // ld) + 1
        hi = math.isqrt((hn << 2 * prec) // hd)
        if lo < hi:
            return _simplest_between(lo, 1 << prec, hi, 1 << prec)
        prec *= 2


# ---------------------------------------------------------------------------
# witness verification


def verify_witness(atoms, x):
    """Whether x'Fx rel c holds exactly at x for every atom (F, rel, c)."""
    n = len(x)
    for f, rel, c in atoms:
        v = sum(x[i] * sum(f[i][j] * x[j] for j in range(n)) for i in range(n))
        ok = {"<=": v <= c, "<": v < c, ">=": v >= c, ">": v > c,
              "=": v == c}[rel]
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# the decision procedure


@dataclass(frozen=True)
class SatResult:
    status: str  # sat | unsat | unknown
    witness: tuple | None = None
    reason: str = ""

    def __post_init__(self):
        if self.status == "sat" and self.witness is None:
            raise ValueError("sat result requires a witness")


def primitive(coeffs):
    """Scale rational or integer coefficients to coprime integers of the
    same signs."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _enclosed_cmp(r1, r2):
    """root_cmp, read off the enclosures when they are disjoint."""
    if r1.enc[1] < r2.enc[0]:
        return -1
    if r2.enc[1] < r1.enc[0]:
        return 1
    return root_cmp(r1, r2)


def enclosed_roots(polys):
    """The real roots of the integer quadratics polys = (a2, a1, a0), in
    no order."""
    return [r for a, b, c in polys for r in roots_of_quadratic(a, b, c)]


def between(roots, lo=None, hi=None):
    """The distinct roots that lie strictly between the roots lo and hi
    (None: unbounded), in increasing order.  Roots are compared by their
    enclosures where these are disjoint, else by root_cmp, so equal roots
    merge and distinct ones separate."""
    roots = sorted((r for r in roots
                    if (lo is None or _enclosed_cmp(lo, r) < 0)
                    and (hi is None or _enclosed_cmp(r, hi) < 0)),
                   key=cmp_to_key(_enclosed_cmp))
    return [r for i, r in enumerate(roots)
            if i == 0 or _enclosed_cmp(roots[i - 1], r)]


def line_arcs(n):
    """The arcs of every direction in n = 1 or 2 variables, before any
    root: the whole line of u = (1, m), sampled at m = 0, and, for n = 2,
    the vertical direction (0, 1), a point that no root cuts."""
    return [((1, 0), (None, None)), ((0, 1), None)][:n]


def _arc_direction(lo, hi):
    """The direction (q, p) of the open arc between consecutive roots
    lo < hi (None: unbounded).

    Between two roots m = p/q is the simplest rational strictly between
    their enclosures over 2^prec at the first precision (64, 128, ...
    bits) at which these are disjoint.  The loop ends: ``between`` merges
    equal roots exactly, so lo < hi, and enclosures within 2^(1 - prec)
    of each root are disjoint once 2^(2 - prec) < hi - lo.  Below the
    lowest root m is the floor of its lower bound minus one, above the
    highest root the floor of its upper bound plus two, and with no root
    at all it is 0."""
    if lo is None:
        if hi is None:
            return 1, 0
        return 1, (hi.enc[0] >> 64) - 1
    if hi is None:
        return 1, (lo.enc[1] >> 64) + 2
    hn, ln, prec = lo.enc[1], hi.enc[0], 64
    while not hn < ln:
        prec *= 2
        hn, ln = lo.bounds(prec)[1], hi.bounds(prec)[0]
    p, q = _simplest_between(hn, 1 << prec, ln, 1 << prec)
    return q, p


def cut_arcs(arcs, roots):
    """The arcs (direction, bounds) with every open arc cut at the roots
    that fall strictly inside it, in order.  An open arc's bounds are its bounding roots
    (None: unbounded), and its direction the ``_arc_direction`` between
    them; a point has bounds None and is never cut.  The point at a root
    has the direction (2a, eps sqrt(disc) - b) when the root is rational,
    else the Root itself."""
    out = []
    for arc in arcs:
        if arc[1] is None or not roots:
            out.append(arc)
            continue
        lo, hi = arc[1]
        inside = between(roots, lo, hi)
        if not inside:
            out.append(arc)
            continue
        bounds = [lo, *inside, hi]
        for i in range(len(inside) + 1):
            out.append((_arc_direction(bounds[i], bounds[i + 1]),
                        (bounds[i], bounds[i + 1])))
            if i < len(inside):
                r = inside[i]
                s = math.isqrt(r.disc)
                out.append(((2 * r.a, r.eps * s - r.b) if s * s == r.disc
                            else r, None))
    return out


def sign(f, direction) -> int:
    """The sign of the binary form f = (a2, a1, a0), that is
    a2 u1^2 + a1 u0 u1 + a0 u0^2, at the direction u = (u0, u1), or at
    u = (1, m) for a Root m."""
    a2, a1, a0 = f
    if isinstance(direction, Root):
        # f at the root (-b + eps sqrt(D)) / (2a), times 4 a^2 > 0
        a, b, d = direction.a, direction.b, direction.disc
        return _sign_pair(a2 * (b * b + d) - 2 * a * b * a1 + 4 * a * a * a0,
                          direction.eps * (2 * a * a1 - 2 * b * a2), d)
    u0, u1 = direction
    return _sgn((a2 * u1 + a1 * u0) * u1 + a0 * u0 * u0)


def form_at(f, u) -> int:
    """The value a2 u1^2 + a1 u0 u1 + a0 u0^2 of the binary form
    f = (a2, a1, a0) at the integer pair u = (u0, u1)."""
    a2, a1, a0 = f
    u0, u1 = u
    return (a2 * u1 + a1 * u0) * u1 + a0 * u0 * u0


def reflect(f, b, m, bounds):
    """An integer direction u strictly inside the open arc (m, bounds)
    with f(u) = f(t)^2 f(b) for an integer pair t, for a positive
    definite binary form f and an integer direction b not parallel to m.
    A point arc (bounds None) holds no direction but m, so it gets None.

    u = f(t) b - 2B(b, t) t, with 2B the polar form of f, is f(t) times
    the reflection of b in the line B-orthogonal to t, hence the value.
    With t = q b - p m and p/q = sqrt(f(b) / f(m)) the reflection swaps
    b and (p/q) m, so u lies on m; p/q is taken by
    ``simplest_sqrt_between`` within relative 2^-prec of f(b) / f(m), at
    prec = 8, 16, ..., and the first u whose direction lies strictly
    between the bounding roots (``between``) is kept.  The loop ends: as
    p/q tends to sqrt(f(b) / f(m)), u tends to a nonzero multiple of m,
    which lies strictly inside the open arc."""
    if bounds is None:
        return None
    lo, hi = bounds
    (b0, b1), (m0, m1) = b, m
    fb, fm = form_at(f, b), form_at(f, m)
    prec = 8
    while True:
        p, q = simplest_sqrt_between(fb * ((1 << prec) - 1), fm << prec,
                                     fb * ((1 << prec) + 1), fm << prec)
        t0, t1 = q * b0 - p * m0, q * b1 - p * m1
        ft = form_at(f, (t0, t1))
        polar = form_at(f, (b0 + t0, b1 + t1)) - fb - ft
        u0, u1 = ft * b0 - polar * t0, ft * b1 - polar * t1
        if u0 and between(roots_of_quadratic(0, u0, -u1), lo, hi):
            return u0, u1
        prec *= 2


def feasible(atoms, arcs):
    """The arcs at which every atom holds, tested at their directions, in
    order.  The atom that rejected the last arc is tested first at the
    next one: neighbouring arcs are mostly rejected by the same atom."""
    atoms = list(atoms)
    for arc in arcs:
        for i, (f, strict) in enumerate(atoms):
            s = sign(f, arc[0])
            if s < 0 or (s == 0 and strict):
                if i:
                    atoms.insert(0, atoms.pop(i))
                break
        else:
            yield arc


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
        return SatResult("sat", witness=(Fraction(0),) * n)
    if not 1 <= n <= 2:
        raise Unsupported(f"{n} variables not supported")
    forms = []
    for f, rel, _ in atoms:
        form = primitive([f[1][1], f[0][1] + f[1][0], f[0][0]] if n == 2
                          else [0, 0, f[0][0]])
        if rel in (">", ">=", "="):
            forms.append((form, rel == ">"))
        if rel in ("<", "<=", "="):
            forms.append((tuple(-c for c in form), rel == "<"))
    return decide_forms(forms, n)


def decide_forms(atoms, n):
    """Decide the sign conditions atoms (f, strict) in n = 1 or 2
    variables on the ``line_arcs`` cut at the roots of their forms:
    `sat` with the first feasible integer direction, scaled to a first
    nonzero coordinate of 1, as the witness, `unknown` when only
    irrational directions are feasible, else `unsat`."""
    arcs = cut_arcs(line_arcs(n), enclosed_roots(f for f, _ in atoms))
    status = SatResult("unsat")
    for direction, _ in feasible(atoms, arcs):
        if not isinstance(direction, Root):
            u0, u1 = direction
            g = u0 or u1
            return SatResult("sat", witness=(Fraction(u0, g),
                                             Fraction(u1, g))[:n])
        status = SatResult("unknown", reason="feasible, but no rational "
                                             "witness was found")
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
        name = cmd[1] if len(cmd) > 1 else None
        if head in ("declare-const", "declare-fun") and (
                atoms != [] or not isinstance(name, str)
                or name in var_index):
            # each atom's matrix is sized by the variables before it
            out.write("(error \"a declaration must name a new symbol "
                      "before any assertion\")\n")
            return 1
        if head == "declare-const" and len(cmd) == 3:
            if cmd[2] != "Real":
                out.write("(error \"only Real constants are supported\")\n")
                return 1
            var_index[cmd[1]] = len(var_names)
            var_names.append(cmd[1])
        elif head == "declare-fun" and len(cmd) == 4 and cmd[2] == []:
            var_index[cmd[1]] = len(var_names)
            var_names.append(cmd[1])
        elif head == "assert" and len(cmd) != 2:
            out.write("(error \"assert takes one term\")\n")
            return 1
        elif head == "assert":
            if atoms is not None:
                try:
                    atoms.append(parse_atom(cmd[1], var_index))
                except Unsupported as exc:
                    atoms = None
                    unsupported_reason = str(exc)
        elif head == "check-sat":
            if atoms is None:
                status = SatResult("unknown", reason=unsupported_reason)
            else:
                try:
                    status = decide(len(var_names), atoms)
                except Unsupported as exc:
                    status = SatResult("unknown", reason=str(exc))
            if status.status == "sat" \
                    and not verify_witness(atoms, status.witness):
                status = SatResult("unknown",
                                   reason="witness verification failed")
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

