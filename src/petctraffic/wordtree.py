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
denominator, the integer V forms of its word and of its parent, and the
feasible arcs of its prefix query, each with its sample (direction,
region) and, for an open arc, the enclosed roots that bound it.  The
root starts from ``qfnra.line_arcs``, as every contraction query does.
The letters k_lo..k_bar partition the directions by kappa, so a node
makes all its children by one cut of its arcs, at the roots of its
entry form q v_m - p d_m^2 v_0 (r = p/q) and its trigger forms
N(j) o Phi, k_lo <= j < k_bar.  It keeps the pieces where v_m > r v_0
fails as its unit-shell arcs and gives every other one to kappa at its
sample: the first j >= k_lo with N(j) o Phi > 0 there, else k_bar.
Older atoms keep their signs on the pieces of a parent arc, so a
child's arcs are those of cutting ``line_arcs`` once at every root of
the entry and trigger forms of its proper prefixes, where its prefix
atoms hold; its siblings' roots make them finer than its query needs.
A child that keeps no arc gets no Phi and no V form, since nothing
expands it; most children are such.  Both builds share one tree.

Each node answers two queries.  The full sublevel query is decided on
the prefix arcs: each puts Phi_{i-1} u in the cone of k_i, where the
contraction certificate gives V(M(k) y) <= a V(y) with a < 1, so
v_0 > v_1 > ... > v_m there and the atoms v_m < v_i cut nothing.  So it
is unsat exactly when the node keeps no arc, and then so is every
extension.  The unit-shell query adds the one terminal atom
v_m <= r v_0, the negated entry atom, so its arcs are the pieces the
split keeps as unit-shell arcs; a node not yet split, such as a word of
the horizon's length N, is split on demand, and as every arc of such a
word has entered the sublevel set, its children keep no arc.  A sat
query's rational witness is x = s u at the first feasible
rational direction u, with the V forms evaluated there in integers.
From the sublevel set, s^2 lies strictly between the bounds that
V <= V0, the word and the entry into the periodic set put on it, and s
is the simplest rational by the rule of ``qfnra.simplest_sqrt_between``.
On the unit shell s = sqrt(V0 / V(u)) when that is rational, else x is
a rational point of the conic V = V0 in the arc.  x is re-verified by
``holds``: x lies on the unit shell if the query asks for it, and its
integer run (``semantics.IntegerStepper.entry_run``) enters the
periodic set after exactly the word.  That uses neither the forms nor
the certificate, so a wrong certificate, or a loop that is not
contractive, gives ``unknown``, never a wrong ``sat``; so does a witness
that fails, or a feasible set of irrational directions only.
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


def _primitive(coeffs) -> tuple[int, int, int]:
    """The integer form coeffs divided by the gcd of its coefficients."""
    g = gcd(*coeffs)
    return tuple(c // g for c in coeffs) if g > 1 else tuple(coeffs)


def _padded(f):
    """f as a 2 x 2 matrix: a one-variable plant's 1 x 1 matrix with zeros
    around it, so that its forms are constants (a2 = a1 = 0) in m and
    only the direction m = 0, u = (1, 0), is sampled."""
    return f if len(f) == 2 else ((f[0][0], 0), (0, 0))


@dataclass(eq=False, slots=True)
class Node:
    """A word of the tree of length m: Phi = phi / d, with the V forms
    (q, d) of the word and of its parent, q(u) = c d^2 V(Phi u) for a
    fixed c > 0, and the feasible arcs of the word's prefix query (None
    when their roots did not separate).  A node that keeps no arc has
    no phi and no forms: nothing expands it.  Once split, shell holds
    the arcs of its unit-shell query."""

    word: tuple[int, ...]
    phi: tuple | None
    form: tuple | None
    parent_form: tuple | None
    arcs: list | None
    shell: list | None = None
    children: dict = field(default_factory=dict)  # every letter, once split


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
        self.root = Node((), one, (_pullback(self._lyapunov, one), 1), None,
                         qfnra.line_arcs(disc.n_x))

    def node(self, word) -> Node:
        node = self.root
        for k in word:
            node = self.child(node, k)
        return node

    def child(self, node: Node, k: int) -> Node:
        """The node of node.word + (k,); the first call makes them all."""
        if not node.children:
            self._split(node)
        return node.children[k]

    def _split(self, node: Node) -> None:
        """Every child of node, with the pieces of node.arcs at which
        v_m > r v_0 holds, each given to kappa at its sample, and
        node.shell, the pieces at which it fails."""
        disc = self.disc
        entry, cut = None, node.arcs
        if node.arcs:
            if node.word:
                entry = _primitive(self._entry(node))
            triggers = [_primitive(_pullback(f, node.phi))
                        for f in self._trigger[disc.k_lo - 1:]]
            cut = qfnra.cut_arcs(node.arcs, qfnra.enclosed_roots(
                triggers if entry is None else [entry] + triggers))
        arcs = (dict.fromkeys(disc.K_range) if cut is None
                else {k: [] for k in disc.K_range})
        node.shell = None if cut is None else []
        for piece in cut or ():
            if entry is not None and qfnra.sign(entry, piece[0]) <= 0:
                node.shell.append(piece)
                continue
            kappa = next((j for j, f in enumerate(triggers, disc.k_lo)
                          if qfnra.sign(f, piece[0]) > 0), disc.k_bar)
            arcs[kappa].append(piece)
        for k in disc.K_range:
            word = node.word + (k,)
            if arcs[k] == []:
                node.children[k] = Node(word, None, None, None, [])
                continue
            (f, g), (h, i) = node.phi
            ((a, b), (c, e)), d = self._maps[k]
            phi = ((a * f + b * h, a * g + b * i),
                   (c * f + e * h, c * g + e * i))
            form = (_pullback(self._lyapunov, phi), node.form[1] * d)
            node.children[k] = Node(word, phi, form, node.form, arcs[k])

    def _entry(self, node: Node) -> list:
        """q v_m - p d_m^2 v_0 with r = p/q, at the length m of node.word:
        positive where the word has not entered the periodic set."""
        p, q = self.disc.r.numerator, self.disc.r.denominator
        (q0, _), (qm, dm) = self.root.form, node.form
        return [q * a - p * dm * dm * b for a, b in zip(qm, q0)]

    def decide(self, node: Node, shell: str) -> SatResult:
        """The full query of node.word from the sublevel set (on the prefix
        arcs) or from the unit shell, with a re-verified witness when
        sat."""
        if shell == UNIT_LEVEL and not node.children:
            self._split(node)
        arcs = node.arcs if shell == SUBLEVEL else node.shell
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
        (f0, _), (fp, dp), (fm, dm) = (self.root.form, node.parent_form,
                                       node.form)
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
