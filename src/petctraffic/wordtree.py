"""Word queries decided by sign tests on homogeneous integer forms.

A state of a word query splits as x = sqrt(t) u into a direction u and a
scale t > 0, and every atom of ``satcheck.sequence_query`` is then a
cone atom, homogeneous in u, or a bound on t.  With v_i = V(Phi_i u),
Phi_0 = I, eliminating t leaves for a word of length m:

* the prefix query: the cone atoms and v_i > r v_0 for 0 < i < m;
* the full sublevel query: those and v_m < v_i for every i < m;
* the unit-shell query: those and v_m <= r v_0.

Every right-hand side is 0, so a direction is accepted or rejected by
the signs of binary quadratic forms alone.  On the directions u = (1, m)
those forms are quadratics in m, and a query's feasible set is a union
of arcs: open regions between consecutive roots of its forms, and root
points, with the vertical direction (0, 1) apart.

A node of the word tree holds the integer Phi of its word over a common
denominator, the integer V forms of its prefix and the feasible arcs of
its prefix query, each with its sample (direction, region) and, for an
open arc, the enclosed roots that bound it.  The root starts from
``qfnra.line_arcs``, as every contraction query does.  A child
multiplies one integer M(k), cuts its parent's arcs at the roots of its
new atoms that fall in them (``qfnra.refine_arcs``) and tests only the
new atoms, since every older atom keeps its sign on each parent arc.  So
the answers and witnesses are those of cutting ``line_arcs`` once at
every root of every atom.  Both model builds decide their words on one
tree.

The full sublevel query is decided on the prefix arcs: each puts
Phi_{i-1} u in the cone of k_i, where the contraction certificate gives
V(M(k) y) <= a V(y) with a < 1, so v_0 > v_1 > ... > v_m there and the
atoms v_m < v_i cut nothing.  The unit-shell query cuts the arcs at its
one terminal atom.  A sat query's rational witness is x = s u at the
first feasible rational direction u, with the V forms evaluated there
in integers.  From the sublevel set, s^2 lies strictly between the
bounds that V <= V0, the word and the entry into the periodic set put
on it, and s is the simplest rational by the rule of
``qfnra.simplest_sqrt_between``.  On the unit shell s = sqrt(V0 / V(u))
when that is rational, else x is a rational point of the conic V = V0
in the arc.  x is re-verified by ``holds``: x lies on the unit shell if
the query asks for it, and its integer run
(``semantics.IntegerStepper.entry_run``) enters the periodic set after
exactly the word.  That uses neither the forms nor the certificate, so
a wrong certificate, or a loop that is not contractive, gives
``unknown``, never a wrong ``sat``; so does a witness that fails, or a
feasible set of irrational directions only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt

from . import qfnra
from .satcheck import SUBLEVEL, UNIT_LEVEL, SatResult
from .semantics import (HorizonExceededError, IntegerStepper, _integer_form,
                        _integer_matrix)
from .sysmodel import DiscretizedPetc


def _pullback(form, g) -> tuple[int, int, int]:
    """(a2, a1, a0) with s(G (1, m)) = a2 m^2 + a1 m + a0, for the form
    s(y) = s00 y0^2 + s01 y0 y1 + s11 y1^2 given as (s00, s01, s11)."""
    s00, s01, s11 = form
    (g00, g01), (g10, g11) = g
    return (s00 * g01 * g01 + s01 * g01 * g11 + s11 * g11 * g11,
            2 * s00 * g00 * g01 + s01 * (g00 * g11 + g01 * g10)
            + 2 * s11 * g10 * g11,
            s00 * g00 * g00 + s01 * g00 * g10 + s11 * g10 * g10)


def _atom(coeffs, strict: bool):
    """f > 0 (strict) or f >= 0, with f scaled to a primitive triple."""
    g = gcd(*coeffs)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
    return tuple(coeffs), strict


def _padded(f):
    """f as a 2 x 2 matrix: a one-variable plant's 1 x 1 matrix with zeros
    around it, so that its forms are constants (a2 = a1 = 0) in m and
    only the direction m = 0, u = (1, 0), is sampled."""
    return f if len(f) == 2 else ((f[0][0], 0), (0, 0))


@dataclass(eq=False, slots=True)
class Node:
    """A word of the tree: Phi = phi / scale, the V forms (q_i, scale_i)
    with q_i(u) = c scale_i^2 V(Phi_i u) for i = 0..m and a fixed c > 0,
    and the feasible arcs of the word's prefix query (None when their
    roots did not separate)."""

    word: tuple[int, ...]
    phi: tuple
    scale: int
    forms: tuple
    arcs: list | None
    cone: list | None = None  # the trigger forms on Phi, for the children
    children: dict = field(default_factory=dict)


class WordEngine:
    """Decides the word queries of one discretization on a shared tree."""

    def __init__(self, disc: DiscretizedPetc):
        if disc.n_x > 2:
            raise ValueError("word queries need one or two state variables")
        self.disc = disc
        self._maps = {k: _integer_matrix(_padded(m))
                      for k, m in disc.M.items()}
        self._trigger = [_integer_form(_padded(disc.N[j]))
                         for j in range(1, disc.k_bar)]
        self._lyapunov = _integer_form(_padded(disc.P_rat))
        self._p_scale = _integer_matrix(disc.P_rat)[1]
        self._stepper = IntegerStepper(disc)
        one = ((1, 0), (0, 1))
        self.root = Node((), one, 1, ((_pullback(self._lyapunov, one), 1),),
                         qfnra.line_arcs(disc.n_x))

    def node(self, word) -> Node:
        node = self.root
        for k in word:
            node = self.child(node, k)
        return node

    def child(self, node: Node, k: int) -> Node:
        """The node of node.word + (k,), made once."""
        if k in node.children:
            return node.children[k]
        m, d = self._maps[k]
        (a, b), (c, e) = m
        (f, g), (h, i) = node.phi
        phi = ((a * f + b * h, a * g + b * i), (c * f + e * h, c * g + e * i))
        scale = node.scale * d
        forms = node.forms + ((_pullback(self._lyapunov, phi), scale),)
        child = Node(node.word + (k,), phi, scale, forms,
                     qfnra.refine_arcs(node.arcs, self._letter_atoms(node, k)))
        node.children[k] = child
        return child

    def _letter_atoms(self, node: Node, k: int) -> list:
        """The atoms that the letter k adds to the prefix query of
        node.word: the cone of k on Phi and, for a non-empty node.word,
        v_m > r v_0 at its length m."""
        disc = self.disc
        if node.cone is None:
            node.cone = [_pullback(f, node.phi) for f in self._trigger]
        atoms = []
        for j in range(disc.k_lo, min(k, disc.k_bar)):
            atoms.append(_atom([-c for c in node.cone[j - 1]], False))
        if k < disc.k_bar:
            atoms.append(_atom(node.cone[k - 1], True))
        if node.word:
            p, q = disc.r.numerator, disc.r.denominator
            (q0, _), (qm, dm) = node.forms[0], node.forms[-1]
            atoms.append(_atom([q * a - p * dm * dm * b
                                for a, b in zip(qm, q0)], True))
        return atoms

    def _terminal(self, node: Node) -> list:
        """The unit-shell terminal atom v_m <= r v_0, the one atom by
        which decide refines the prefix arcs."""
        qm, dm = node.forms[-1]
        p, q = self.disc.r.numerator, self.disc.r.denominator
        return [_atom([p * dm * dm * a - q * b
                       for a, b in zip(node.forms[0][0], qm)], False)]

    def prefix_status(self, node: Node) -> str:
        """sat, unsat or unknown for the query of node.word without its
        terminal atom, read off its feasible arcs; no witness is built."""
        if node.arcs is None:
            return "unknown"
        if any(not isinstance(arc[0], qfnra.Root) for arc in node.arcs):
            return "sat"
        return "unknown" if node.arcs else "unsat"

    def decide(self, node: Node, shell: str) -> SatResult:
        """The full query of node.word from the sublevel set (on the prefix
        arcs) or from the unit shell, with a re-verified witness when
        sat."""
        arcs = (node.arcs if shell == SUBLEVEL
                else qfnra.refine_arcs(node.arcs, self._terminal(node)))
        if arcs is None:
            return SatResult("unknown", reason="root separation exceeded "
                                               "precision cap")
        for direction, region, _ in arcs:
            if isinstance(direction, qfnra.Root):
                continue
            x = self._witness(node, shell, direction, region)
            if x is None:
                continue
            if self.holds(node.word, shell, x):
                return SatResult("sat", witness=x)
            return SatResult("unknown",
                             reason="witness failed exact re-verification")
        if arcs:
            return SatResult("unknown",
                             reason="feasible, but no rational witness was "
                                    "found")
        return SatResult("unsat")

    def holds(self, word, shell: str, x) -> bool:
        """Whether x lies on the unit shell if shell asks for it, and its
        integer run enters the periodic set after exactly the letters of
        word.  That is the query ``satcheck.sequence_query(disc, word,
        shell, True)``, whose exclusions start at k_lo where kappa starts
        at 1: they agree while N(j) has no positive direction for
        j < k_lo, and where they would not, the run is the reference."""
        if shell == UNIT_LEVEL and self.disc.V(x) != self.disc.V0:
            return False
        try:
            run = self._stepper.entry_run(x, len(word))
        except (ValueError, HorizonExceededError):
            return False
        return tuple(pt.k for pt in run) == tuple(word)

    def _witness(self, node, shell, direction, region):
        """A rational x = s u on the feasible direction u = (1, m), or
        u = (0, 1) for the vertical, or None.

        Each V form q_i is evaluated in integers at (q, p) for m = p/q,
        or at (0, 1), as w_i, so that V(Phi_i u) = w_i / (c q^2 scale_i^2)
        with q = 1 for the vertical: every bound on s^2 is a quotient of
        integers, and the smaller of two is found by cross-multiplying."""
        disc = self.disc
        vertical = direction is qfnra.VERTICAL
        u0, u1 = ((0, 1) if vertical
                  else (direction.denominator, direction.numerator))
        (f0, _), (fp, dp), (fm, dm) = node.forms[0], *node.forms[-2:]
        w0, wp, wm = ((a2 * u1 + a1 * u0) * u1 + a0 * u0 * u0
                      for a2, a1, a0 in (f0, fp, fm))
        vd = disc.V0.denominator
        rn, rd = disc.r.numerator, disc.r.denominator
        # V0 / V(Phi_i u) = top scale_i^2 / (vd w_i)
        top = disc.V0.numerator * self._p_scale * (u0 or 1) ** 2
        if shell == SUBLEVEL:
            # v_0 > ... > v_m on the prefix arcs: s^2 in
            # (r V0 / v_{m-1}, min(V0 / v_0, r V0 / v_m)), with scale_0 = 1
            hi = (top, vd * w0)
            if wm > 0 and rn * dm * dm * w0 < rd * wm:
                hi = (rn * top * dm * dm, rd * vd * wm)
            s = Fraction(*qfnra.simplest_sqrt_between(
                rn * top * dp * dp, rd * vd * wp, *hi))
        else:
            # s^2 = V0 / v_0 = top / (vd w0) is the square of a rational
            # exactly when top vd w0 is the square of an integer
            t = top * vd * w0
            root = isqrt(t) if t > 0 else -1
            s = Fraction(root, vd * w0) if root * root == t else None
        if s is not None:
            return ((Fraction(0), s) if vertical
                    else (s, s * direction))[:disc.n_x]
        if vertical or disc.n_x == 1 or self._conic_base is None:
            return None
        # every atom is homogeneous and keeps its sign on the region, so a
        # point of the conic in a direction inside it satisfies them all
        eq = (disc.P_rat, "=", disc.V0)
        return qfnra._conic_witness(eq, [eq], direction, region,
                                    base=self._conic_base)

    @cached_property
    def _conic_base(self):
        """A rational point with V(x) = V0, or None; looked for once."""
        return qfnra._conic_base_point(self.disc.P_rat, self.disc.V0)
