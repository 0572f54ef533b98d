"""Word queries decided by sign tests on homogeneous integer forms.

A state of a word query splits as x = sqrt(t) u into a direction u and a
scale t > 0, and every atom of ``satcheck.sequence_query`` is then a
cone atom, homogeneous in u, or a bound on t.  With v_i = V(Phi_i u),
Phi_0 = I, eliminating t leaves for a word of length m:

* the prefix query: the cone atoms and v_i > r v_0 for 0 < i < m;
* the full sublevel query: those and v_m < v_i for every i < m;
* the unit-shell query: those and v_m <= r v_0.

Every right-hand side is 0, so a direction is accepted or rejected by
the signs of binary quadratic forms alone, and the sign-test kernel of
``qfnra`` decides the query: ``decide_forms`` a prefix query, and
``sample_directions`` and ``feasible`` the directions on which a full
query's witness is built.

A node of the word tree holds the integer Phi of its word over a common
denominator and the integer V forms of its prefix, so a child multiplies
one integer M(k) and adds only the atoms of its new letter.  A full
query that is sat carries a rational witness, built at the first
feasible rational direction and re-verified exactly against
``satcheck.sequence_query``; a witness that fails, or a feasible set of
irrational directions only, is ``unknown``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import qfnra, satcheck
from .satcheck import SUBLEVEL, SatResult
from .semantics import _integer_form, _integer_matrix
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
    and the atoms of the word's prefix query."""

    word: tuple[int, ...]
    phi: tuple
    scale: int
    forms: tuple
    atoms: tuple
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
        self.root = Node((), one, 1,
                         ((_pullback(self._lyapunov, one), 1),), ())

    def node(self, word) -> Node:
        node = self.root
        for k in word:
            node = self.child(node, k)
        return node

    def child(self, node: Node, k: int) -> Node:
        """The node of node.word + (k,), made once."""
        if k in node.children:
            return node.children[k]
        disc = self.disc
        if node.cone is None:
            node.cone = [_pullback(f, node.phi) for f in self._trigger]
        atoms = list(node.atoms)
        for j in range(disc.k_lo, min(k, disc.k_bar)):
            atoms.append(_atom([-c for c in node.cone[j - 1]], False))
        if k < disc.k_bar:
            atoms.append(_atom(node.cone[k - 1], True))
        if node.word:  # v_m > r v_0 for the parent's length m > 0
            p, q = disc.r.numerator, disc.r.denominator
            (q0, _), (qm, dm) = node.forms[0], node.forms[-1]
            atoms.append(_atom([q * a - p * dm * dm * b
                                for a, b in zip(qm, q0)], True))
        m, d = self._maps[k]
        (a, b), (c, e) = m
        (f, g), (h, i) = node.phi
        phi = ((a * f + b * h, a * g + b * i), (c * f + e * h, c * g + e * i))
        scale = node.scale * d
        forms = node.forms + ((_pullback(self._lyapunov, phi), scale),)
        child = Node(node.word + (k,), phi, scale, forms, tuple(atoms))
        node.children[k] = child
        return child

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
        terminal atom; no witness is built."""
        return qfnra.decide_forms(node.atoms, self.disc.n_x).status

    def decide(self, node: Node, shell: str) -> SatResult:
        """The full query of node.word from the sublevel set or from the
        unit shell, with an exactly re-verified witness when sat."""
        atoms = node.atoms + tuple(self._terminal(node, shell))
        samples = qfnra.sample_directions(atoms, self.disc.n_x)
        if samples is None:
            return SatResult("unknown", reason="root separation exceeded "
                                               "precision cap")
        feasible = False
        for direction, region in qfnra.feasible(atoms, samples):
            feasible = True
            if isinstance(direction, qfnra.Root):
                continue
            x = self._witness(node, shell, atoms, direction, region)
            if x is None:
                continue
            query = satcheck.sequence_query(self.disc, node.word, shell, True)
            if query.holds(x):
                return SatResult("sat", witness=x)
            return SatResult("unknown",
                             reason="witness failed exact re-verification")
        if feasible:
            return SatResult("unknown",
                             reason="feasible, but no rational witness was "
                                    "found")
        return SatResult("unsat")

    def _witness(self, node, shell, atoms, direction, region):
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
        eq = (disc.P_rat, "=", disc.V0)
        matrices = [(((a0, a1), (0, a2)), ">" if strict else ">=", 0)
                    for (a2, a1, a0), strict in atoms]
        return qfnra._conic_witness(eq, matrices + [eq], direction, region,
                                    base=self._conic_base)

    @cached_property
    def _conic_base(self):
        """A rational point with V(x) = V0, or None; looked for once."""
        return qfnra._conic_base_point(self.disc.P_rat, self.disc.V0)
