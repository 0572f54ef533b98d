"""One PETC loop and its exact-rational discretization.

``PetcSystem`` holds the plant, gain, Lyapunov matrix and trigger, each
matrix read once with float() into a tuple of rows, immutable as in
``ratlin``.  The loop is discretized at multiples of the checking period
h: the k-step transition matrices M(k) and triggering forms N(k) are
computed once in double precision and then frozen into exact rationals;
those rationals are the shared ground truth for the concrete semantics,
the satisfiability encoding and every witness check downstream.

The float stage is pure Python on matrices of at most 4 x 4: products,
Gaussian elimination with partial pivoting, Higham's scaling-and-squaring
Pade-13 ``expm``, and ``definite``, a Cholesky pivot test that stands in
for every eigenvalue sign test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .ratlin import RatMatrix, mat_mul, symmetrize, transpose

EIG_TOL = 1e-9

Matrix = tuple[tuple[float, ...], ...]

# Pade-13 numerator coefficients for the matrix exponential.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
# theta_13 from the standard scaling-and-squaring analysis
_THETA13 = 5.371920351148152


def identity(n: int) -> Matrix:
    return tuple(tuple(float(i == j) for j in range(n)) for i in range(n))


def combine(*terms: tuple[float, Matrix]) -> Matrix:
    """sum of c M over the (c, M) terms, entry by entry."""
    return tuple(tuple(sum(c * m[i][j] for c, m in terms)
                       for j in range(len(terms[0][1][0])))
                 for i in range(len(terms[0][1])))


def solve(a: Matrix, b: Matrix) -> Matrix:
    """X with A X = B, by Gaussian elimination with partial pivoting."""
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    x: list[list[float]] = [[]] * n
    for k in range(n - 1, -1, -1):
        x[k] = [(v - sum(rows[k][j] * x[j][c] for j in range(k + 1, n)))
                / rows[k][k] for c, v in enumerate(rows[k][n:])]
    return tuple(map(tuple, x))


def definite(s: Matrix) -> bool:
    """Whether the symmetric matrix s is positive definite: every pivot
    of its Cholesky (LDL') elimination is positive; false on a NaN."""
    rows = [list(r) for r in s]
    for k in range(len(rows)):
        if not rows[k][k] > 0:
            return False
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return True


def expm(m, t: float = 1.0) -> Matrix:
    """e^{Mt} by scaling-and-squaring with a [13/13] Pade kernel."""
    a = tuple(tuple(float(v) * t for v in row) for row in m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("expm requires a square matrix")
    columns = [sum(abs(row[j]) for row in a) for j in range(n)]
    if not all(map(math.isfinite, columns)):
        raise ValueError("expm requires M t finite, with a finite 1-norm")
    norm = max(columns)
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = combine((2.0 ** -s, a))
    a2 = mat_mul(a, a)
    a4 = mat_mul(a2, a2)
    a6 = mat_mul(a2, a4)
    b, ident = _PADE13, identity(n)
    u = mat_mul(a, combine(
        (1.0, mat_mul(a6, combine((b[13], a6), (b[11], a4), (b[9], a2)))),
        (b[7], a6), (b[5], a4), (b[3], a2), (b[1], ident)))
    v = combine(
        (1.0, mat_mul(a6, combine((b[12], a6), (b[10], a4), (b[8], a2)))),
        (b[6], a6), (b[4], a4), (b[2], a2), (b[0], ident))
    r = solve(combine((1.0, v), (-1.0, u)), combine((1.0, v), (1.0, u)))
    for _ in range(s):
        r = mat_mul(r, r)
    return r


def _matrix(rows, name: str) -> Matrix:
    """rows as a tuple of rows of doubles, each entry read with float()."""
    try:
        m = tuple(tuple(float(v) for v in row) for row in rows)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a matrix of numbers: {exc}")
    if (not m or not m[0] or any(len(row) != len(m[0]) for row in m)
            or not all(math.isfinite(v) for row in m for v in row)):
        raise ValueError(f"{name} must be a matrix of finite numbers")
    return m


def _check_symmetric(m: Matrix, name: str, n: int,
                     positive: bool = True) -> None:
    if len(m) != n or len(m[0]) != n:
        raise ValueError(f"{name} must be {n} x {n}")
    scale = max(1.0, max(abs(v) for row in m for v in row))
    if any(abs(m[i][j] - m[j][i]) > 1e-9 * scale
           for i in range(n) for j in range(n)):
        raise ValueError(f"{name} must be symmetric")
    if positive and not definite(combine((1.0, m),
                                         (-EIG_TOL, identity(n)))):
        raise ValueError(f"{name} must be positive definite")


@dataclass(frozen=True)
class PetcSystem:
    """Plant, gain, Lyapunov matrix and trigger of one PETC loop.  The
    trigger is the form Q_trig on [x; x_hat], or the predictive pair
    Q_lyap, rho from which build_predictive_Q makes Q_trig."""

    A: Matrix
    B: Matrix
    K: Matrix
    P: Matrix
    h: Fraction
    k_bar: int
    r: Fraction
    V0: Fraction = Fraction(1)
    Q_trig: Matrix | None = None
    Q_lyap: Matrix | None = None
    rho: float | None = None

    def __post_init__(self):
        given = tuple(getattr(self, name) is not None
                      for name in ("Q_trig", "Q_lyap", "rho"))
        if given not in ((True, False, False), (False, True, True)):
            raise ValueError("give the trigger as Q_trig or as the "
                             "predictive pair Q_lyap, rho")
        for name in ("A", "B", "K", "P", "Q_trig", "Q_lyap"):
            if (rows := getattr(self, name)) is not None:
                object.__setattr__(self, name, _matrix(rows, name))
        # h is kept exact so that output times h*k stay exact rationals;
        # only the expm evaluation sees its double approximation.
        for name in ("h", "r", "V0"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        n = len(self.A)
        if len(self.A[0]) != n:
            raise ValueError("A must be square")
        if len(self.B) != n:
            raise ValueError("B must be n_x x n_u")
        if (len(self.K), len(self.K[0])) != (len(self.B[0]), n):
            raise ValueError("K must be n_u x n_x")
        _check_symmetric(self.P, "P", n)
        if not (self.h > 0):
            raise ValueError("h must be positive")
        if self.k_bar < 1:
            raise ValueError("k_bar must be at least 1")
        if not (0 < self.r < 1):
            raise ValueError("r must be in (0, 1)")
        if not (self.V0 > 0):
            raise ValueError("V0 must be positive")
        if self.Q_trig is None:
            _check_symmetric(self.Q_lyap, "Q_lyap", n)
            object.__setattr__(self, "rho", float(self.rho))
            if not (0 < self.rho < 1):
                raise ValueError("rho must be in (0, 1)")
            object.__setattr__(self, "Q_trig", build_predictive_Q(self))
        _check_symmetric(self.Q_trig, "Q_trig", 2 * n, positive=False)

    @property
    def n_x(self) -> int:
        return len(self.A)

    @property
    def n_u(self) -> int:
        return len(self.B[0])


def held_input_maps(sys: PetcSystem, t: float) -> tuple[Matrix, Matrix]:
    """A_d(t) = e^{At} and B_d(t) = (int_0^t e^{A tau} dtau) B, via one augmented expm."""
    n, nu = sys.n_x, sys.n_u
    aug = (tuple(a + b for a, b in zip(sys.A, sys.B))
           + ((0.0,) * (n + nu),) * nu)
    e = expm(aug, float(t))
    return (tuple(row[:n] for row in e[:n]),
            tuple(row[n:] for row in e[:n]))


def closed_loop_generator(sys: PetcSystem) -> Matrix:
    """[[A, B K], [0, 0]]: its exponential at t maps [x; x] to
    [x(t); x] under the input held at K x."""
    n = sys.n_x
    return (tuple(a + b for a, b in zip(sys.A, mat_mul(sys.B, sys.K)))
            + ((0.0,) * (2 * n),) * n)


def held_state_map(e: Matrix) -> Matrix:
    """The transition map x -> x(t) read off e = e^{G t} of the
    closed-loop generator G: its top block row times [I; I]."""
    n = len(e) // 2
    return tuple(tuple(x + y for x, y in zip(row[:n], row[n:]))
                 for row in e[:n])


def discretize_at_time(sys: PetcSystem, t: float) -> Matrix:
    """Closed-loop one-shot transition map x -> A_d(t) x + B_d(t) K x for held input."""
    return held_state_map(expm(closed_loop_generator(sys), float(t)))


def discretize(sys: PetcSystem, k: int) -> Matrix:
    """M(k): the k-step transition matrix under input held from the last sample."""
    if not 1 <= k <= sys.k_bar:
        raise ValueError(f"k={k} out of range 1..{sys.k_bar}")
    return discretize_at_time(sys, float(sys.h) * k)


def trig_form(sys: PetcSystem, mk: Matrix) -> Matrix:
    """N(k): the trigger form reduced to n_x, using x_hat = x at sampling instants."""
    n = sys.n_x
    if len(mk) != n or any(len(row) != n for row in mk):
        raise ValueError("M(k) has wrong shape")
    stacked = tuple(mk) + identity(n)
    return symmetrize(mat_mul(transpose(stacked), mat_mul(sys.Q_trig, stacked)))


def build_predictive_Q(sys: PetcSystem) -> Matrix:
    """Trigger matrix for the predictive Lyapunov condition.

    With zeta = A_d(1) x + B_d(1) K x_hat the next-sample prediction, the
    loop triggers when the predicted Lyapunov derivative under the held
    input beats a fraction rho of the ideal decay:

        d/dt V(zeta) > -rho zeta' Q_lyap zeta.

    Since d/dt V(zeta) = 2 zeta' P (A zeta + B K x_hat), the condition is
    the sign of a single quadratic form in [x; x_hat], returned here.
    """
    n = sys.n_x
    ad1, bd1 = held_input_maps(sys, sys.h)
    lmap = tuple(a + b for a, b in zip(ad1, mat_mul(bd1, sys.K)))  # -> zeta
    kaug = tuple((0.0,) * n + row for row in sys.K)  # -> held input
    deriv = combine((1.0, mat_mul(sys.A, lmap)),      # -> zeta_dot
                    (1.0, mat_mul(sys.B, kaug)))
    lt = transpose(lmap)
    return symmetrize(combine(
        (1.0, mat_mul(lt, mat_mul(sys.P, deriv))),
        (1.0, mat_mul(transpose(deriv), mat_mul(sys.P, lmap))),
        (sys.rho, mat_mul(lt, mat_mul(sys.Q_lyap, lmap)))))


@dataclass(frozen=True)
class DiscretizedPetc:
    """Exact-rational snapshot of the discretized loop.

    M and N map each k in 1..k_bar to rational matrices; P_rat/Q_rat are
    rational copies of the Lyapunov and trigger matrices; M_P is the
    transition map of the periodic phase with period h_P.
    """

    M: dict[int, RatMatrix]
    N: dict[int, RatMatrix]
    P_rat: RatMatrix
    Q_rat: RatMatrix
    M_P: RatMatrix
    k_lo: int
    h_P: Fraction
    h: Fraction
    k_bar: int
    r: Fraction
    V0: Fraction

    @property
    def n_x(self) -> int:
        return len(self.P_rat)

    @property
    def K_range(self) -> range:
        return range(self.k_lo, self.k_bar + 1)

    def V(self, x) -> Fraction:
        return ratlin.quad_form(self.P_rat, x)

    @functools.cached_property
    def decrease(self) -> dict[int, RatMatrix]:
        """M(k)'P M(k) for each k: V after a step of k periods."""
        return {k: ratlin.congruence(self.P_rat, m) for k, m in self.M.items()}


def min_inter_sample_float(n_forms: dict[int, Matrix], k_bar: int,
                           eig_tol: float = EIG_TOL) -> int:
    """Smallest k at which N(k) admits a direction with x' N(k) x >=
    eig_tol |x|^2, i.e. eig_tol I - N(k) is not definite; k_bar if none."""
    for k in sorted(n_forms):
        n = len(n_forms[k])
        if not definite(combine((eig_tol, identity(n)), (-1.0, n_forms[k]))):
            return k
    return k_bar


def rationalize(sys: PetcSystem, h_P: Fraction) -> DiscretizedPetc:
    """Discretize the loop and freeze every matrix into exact rationals;
    an M(k) or N(k) beyond the range of a double raises ValueError."""
    h_P = Fraction(h_P)
    if h_P <= 0:
        raise ValueError("h_P must be positive")
    m_float = {k: discretize(sys, k) for k in range(1, sys.k_bar + 1)}
    n_float = {k: trig_form(sys, m_float[k]) for k in m_float}
    for k in m_float:
        if not all(math.isfinite(v) for f in (m_float[k], n_float[k])
                   for row in f for v in row):
            raise ValueError(f"M({k}) or N({k}) overflows a double at "
                             f"t = h k = {float(sys.h * k):.6g}")
    return DiscretizedPetc(
        M={k: ratlin.mat(m) for k, m in m_float.items()},
        N={k: symmetrize(ratlin.mat(n)) for k, n in n_float.items()},
        P_rat=symmetrize(ratlin.mat(sys.P)),
        Q_rat=symmetrize(ratlin.mat(sys.Q_trig)),
        M_P=ratlin.mat(discretize_at_time(sys, float(h_P))),
        k_lo=min_inter_sample_float(n_float, sys.k_bar), h_P=h_P, h=sys.h,
        k_bar=sys.k_bar, r=sys.r, V0=sys.V0)
