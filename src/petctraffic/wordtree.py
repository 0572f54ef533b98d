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
open arc, the enclosed roots that bound it.  A child multiplies one
integer M(k) and works only inside its parent's arcs: it isolates the
roots of its new atoms that fall in them, cuts the arcs there
(``qfnra.refine_arcs``, whose samples are those of
``qfnra.critical_samples``) and tests only the new atoms, since
every older atom keeps its sign on each parent arc.  The full sublevel
and unit-shell queries cut the node's arcs at their terminal atoms the
same way.  The arcs and samples are those of the whole query, so the
answers and witnesses are those of sampling every root of every atom.

A full query that is sat carries a rational witness x, built at the
first feasible rational direction.  It is re-verified by ``holds``,
which runs x along the word on integers, as ``semantics.IntegerStepper``
does, and evaluates there exactly every atom that
``satcheck.sequence_query`` writes, independently of the node's forms.
A witness that fails, or a feasible set of irrational directions only, is
``unknown``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import qfnra
from .satcheck import SUBLEVEL, UNIT_LEVEL, SatResult
from .semantics import _dot, _integer_form, _integer_matrix, _monomials
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


def _value(f, u) -> Fraction:
    a2, a1, a0 = f
    return a2 * u[1] * u[1] + a1 * u[0] * u[1] + a0 * u[0] * u[0]


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
        one = ((1, 0), (0, 1))
        arcs = [qfnra.WHOLE_LINE]
        if disc.n_x == 2:
            arcs.append((qfnra.VERTICAL, (None, None), None))
        self.root = Node((), one, 1, ((_pullback(self._lyapunov, one), 1),),
                         arcs)

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

    def _terminal(self, node: Node, shell: str) -> list:
        qm, dm = node.forms[-1]
        if shell == SUBLEVEL:  # v_m < v_i for every i < m
            return [_atom([dm * dm * a - di * di * b for a, b in zip(qi, qm)],
                          True) for qi, di in node.forms[:-1]]
        # v_m <= r v_0
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
        """The full query of node.word from the sublevel set or from the
        unit shell, with an exactly re-verified witness when sat."""
        terminal = self._terminal(node, shell)
        arcs = qfnra.refine_arcs(node.arcs, terminal)
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
        """Whether x satisfies every atom of
        ``satcheck.sequence_query(disc, word, shell, True)``, decided on
        the run of x along the word in integers, as in
        ``semantics.IntegerStepper``: x_i = y_i / c_i with integer y_i,
        y_i = M_int(k_i) y_{i-1} and c_i = c_{i-1} d(k_i).  A cone atom
        on x_i is the sign of y_i'N_int y_i, and a bound on
        V(x_i) = y_i'P_int y_i / (p c_i^2), with P_int = p P, is compared
        in integers.  A one-variable x is padded to (x, 0), as the
        matrices are."""
        disc = self.disc
        c = lcm(*(Fraction(e).denominator for e in x))
        y = tuple(int(Fraction(e) * c) for e in x) + (0,) * (2 - len(x))
        mono = _monomials(y)

        def level(bound: Fraction) -> int:  # the sign of V(x_i) - bound
            v = _dot(self._lyapunov, mono) * bound.denominator
            w = bound.numerator * self._p_scale * c * c
            return (v > w) - (v < w)

        rv0 = disc.r * disc.V0
        shell_sign = level(disc.V0)
        if shell_sign > 0 or (shell == UNIT_LEVEL and shell_sign < 0):
            return False
        for k in word:
            for j in range(disc.k_lo, min(k, disc.k_bar)):
                if _dot(self._trigger[j - 1], mono) > 0:
                    return False
            if k < disc.k_bar and not _dot(self._trigger[k - 1], mono) > 0:
                return False
            if level(rv0) <= 0:
                return False
            m, d = self._maps[k]
            y = tuple(sum(a * b for a, b in zip(row, y)) for row in m)
            c *= d
            mono = _monomials(y)
        return level(rv0) <= 0

    def _witness(self, node, shell, direction, region):
        """A rational x = s u on the feasible direction u, or None."""
        disc = self.disc
        u = ((Fraction(0), Fraction(1)) if direction is qfnra.VERTICAL
             else (Fraction(1), direction))
        v = [_value(f, u) / (self._p_scale * d * d) for f, d in node.forms]
        if shell == SUBLEVEL:
            rv0 = disc.r * disc.V0
            lo = max(rv0 / vi for vi in v[:-1])
            hi = disc.V0 / v[0]
            if v[-1] > 0:
                hi = min(hi, rv0 / v[-1])
            s = qfnra.rational_sqrt_in(lo, True, hi, False)
            return (s * u[0], s * u[1])[:disc.n_x]
        s = qfnra.rational_square_root(disc.V0 / v[0])
        if s is not None:
            return (s * u[0], s * u[1])[:disc.n_x]
        if (direction is qfnra.VERTICAL or disc.n_x == 1
                or self._conic_base is None):
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
