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
of ``qfnra`` arcs (direction, bounds): open arcs between consecutive
roots of its forms, and root points, with the vertical direction (0, 1)
apart.  A direction is an integer pair, or the Root of an irrational
root point; an open arc's bounds are its bounding roots.

A node of the word tree holds the integer Phi of its word over a common
denominator, the integer V forms of its word and of its parent, and the
feasible arcs of its prefix query, on the integer loop (maps and forms)
of the engine's ``semantics.IntegerStepper``.  The root starts from
``qfnra.line_arcs``, as every contraction query does.
The letters k_lo..k_bar partition the directions by kappa, so a node
makes all its children by one cut of its arcs, at the roots of its
entry form q v_m - p d_m^2 v_0 (r = p/q) and its trigger forms
N(j) o Phi, k_lo <= j < k_bar.  It keeps the pieces where v_m > r v_0
fails as its unit-shell arcs and gives every other one to kappa at its
direction: the first j >= k_lo with N(j) o Phi > 0 there, else k_bar.
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
query's rational witness is x = s u / u0 at the first feasible integer
direction u = (u0, u1) (x = s u at the vertical), with the V forms
evaluated at u in integers.
From the sublevel set, s^2 lies strictly between the bounds that
V <= V0, the word and the entry into the periodic set put on it, and s
is the simplest rational by the rule of ``qfnra.simplest_sqrt_between``.
On the unit shell s = sqrt(V0 / V(u / u0)) when that is rational.  Else
u is replaced by an integer direction strictly between the arc's
bounding roots at which it is: the engine looks once for a base
direction b, with coordinates of at most 32, at which V0 / V(b) is a
rational square, and ``qfnra.reflect`` reflects b onto the arc, which
multiplies V by the square of an integer.  x is re-verified by
``holds``: x lies on the unit shell if the query asks for it, and its
integer run (``semantics.IntegerStepper.entry_run``) enters the
periodic set after exactly the word.  That uses neither the forms nor
the certificate, so a wrong certificate, or a loop that is not
contractive, gives ``unknown``, never a wrong ``sat``; so does a witness
that fails, a feasible set of irrational directions only, or a unit
shell without a base direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import isqrt

from . import qfnra
from .qfnra import SatResult
from .satcheck import SUBLEVEL, UNIT_LEVEL
from .semantics import HorizonExceededError, IntegerStepper
from .sysmodel import DiscretizedPetc


# the directions (b0, b1) with 0 <= b0 <= 32 and |b1| <= 32, by height
# max(b0, |b1|): every rational point (p, q) / d with |p|, |q| <= 32 on
# the unit shell V = V0 lies on one of them, with V0 / V(p, q) = 1 / d^2
_BASES = sorted(product(range(33), range(-32, 33)),
                key=lambda b: max(b[0], abs(b[1])))


def _pullback(form, g) -> tuple[int, int, int]:
    """(a2, a1, a0) with s(G (1, m)) = a2 m^2 + a1 m + a0, for the form
    s(y) = s00 y0^2 + s01 y0 y1 + s11 y1^2 given as (s00, s01, s11)."""
    s00, s01, s11 = form
    (g00, g01), (g10, g11) = g
    return (s00 * g01 * g01 + s01 * g01 * g11 + s11 * g11 * g11,
            2 * s00 * g00 * g01 + s01 * (g00 * g11 + g01 * g10)
            + 2 * s11 * g10 * g11,
            s00 * g00 * g00 + s01 * g00 * g10 + s11 * g10 * g10)


@dataclass(eq=False, slots=True)
class Node:
    """A word of the tree of length m: Phi = phi / d, with the V forms
    (q, d) of the word and of its parent, q(u) = c d^2 V(Phi u) for a
    fixed c > 0, and the feasible arcs of the word's prefix query.  A
    node that keeps no arc has no phi and no forms: nothing expands it.
    Once split, shell holds the arcs of its unit-shell query; before, it
    is the shared empty (), as a list per node would slow the garbage
    collector on a large tree."""

    word: tuple[int, ...]
    phi: tuple | None
    form: tuple | None
    parent_form: tuple | None
    arcs: list
    shell: list | tuple = ()
    children: dict = field(default_factory=dict)  # every letter, once split


class WordEngine:
    """Decides the word queries of one discretization on a shared tree."""

    def __init__(self, disc: DiscretizedPetc):
        self._stepper = IntegerStepper(disc)  # ValueError past two variables
        self.disc = disc
        one = ((1, 0), (0, 1))
        self.root = Node((), one,
                         (_pullback(self._stepper.lyapunov, one), 1), None,
                         qfnra.line_arcs(disc.n_x))
        # the first of _BASES with V0 / V(b) a rational square, or None
        self._base = next((b for b in _BASES if self._shell_point(b)), None)

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
                entry = qfnra.primitive(self._entry(node))
            triggers = [qfnra.primitive(_pullback(f, node.phi))
                        for f in self._stepper.forms[disc.k_lo - 1:]]
            cut = qfnra.cut_arcs(node.arcs, qfnra.enclosed_roots(
                triggers if entry is None else [entry] + triggers))
        arcs = {k: [] for k in disc.K_range}
        node.shell = []
        for piece in cut:
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
            ((a, b), (c, e)), d = self._stepper.maps[k]
            phi = ((a * f + b * h, a * g + b * i),
                   (c * f + e * h, c * g + e * i))
            form = (_pullback(self._stepper.lyapunov, phi),
                    node.form[1] * d)
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
        for direction, bounds in arcs:
            if isinstance(direction, qfnra.Root):
                continue
            x = self._witness(node, shell, direction, bounds)
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
            run = self._stepper.entry_run(self._stepper.orbit(x), len(word))
        except (ValueError, HorizonExceededError):
            return False
        return tuple(pt.k for pt in run) == tuple(word)

    def _witness(self, node, shell, direction, bounds):
        """A rational x = s u / g on the feasible arc (direction, bounds)
        with the integer direction u = (u0, u1) and g its first nonzero
        coordinate, or None.

        Each V form q_i is evaluated in integers at u as w_i, so that
        V(Phi_i u / g) = w_i / (c g^2 scale_i^2): every bound on s^2 is a
        quotient of integers, and the smaller of two is found by
        cross-multiplying.  On the unit shell, where V0 / V(u / g) is not
        a rational square, u is the base direction reflected onto the
        arc (``qfnra.reflect``)."""
        if shell == UNIT_LEVEL:
            x = self._shell_point(direction)
            if x is None and self._base is not None:
                u = qfnra.reflect(self.root.form[0], self._base, direction,
                                  bounds)
                x = u and self._shell_point(u)
            return x
        disc = self.disc
        u0, u1 = direction
        g = u0 or u1
        (f0, _), (fp, dp), (fm, dm) = (self.root.form, node.parent_form,
                                       node.form)
        w0, wp, wm = (qfnra.form_at(f, direction) for f in (f0, fp, fm))
        vd = disc.V0.denominator
        rn, rd = disc.r.numerator, disc.r.denominator
        # V0 / V(Phi_i u / g) = top scale_i^2 / (vd w_i), and v_0 > ... > v_m
        # on the prefix arcs: s^2 in (r V0 / v_{m-1}, min(V0 / v_0,
        # r V0 / v_m)), with scale_0 = 1
        top = disc.V0.numerator * self._stepper.d_p * g * g
        hi = (top, vd * w0)
        if wm > 0 and rn * dm * dm * w0 < rd * wm:
            hi = (rn * top * dm * dm, rd * vd * wm)
        s = Fraction(*qfnra.simplest_sqrt_between(
            rn * top * dp * dp, rd * vd * wp, *hi))
        return (s * u0 / g, s * u1 / g)[:disc.n_x]

    def _shell_point(self, u):
        """x = s u / g with V(x) = V0 at the integer direction u, g its
        first nonzero coordinate, when s is rational, else None: s^2 =
        top / (vd w0) as in ``_witness``, a rational square exactly when
        top vd w0 is an integer square."""
        disc = self.disc
        u0, u1 = u
        g = u0 or u1
        w0, vd = qfnra.form_at(self.root.form[0], u), disc.V0.denominator
        t = disc.V0.numerator * self._stepper.d_p * g * g * vd * w0
        root = isqrt(t) if t > 0 else -1
        if root * root != t:
            return None
        s = Fraction(root, vd * w0)
        return (s * u0 / g, s * u1 / g)[:disc.n_x]
