"""One PETC loop and its exact-rational discretization.

``PetcSystem`` holds the plant, gain, Lyapunov matrix and trigger, each
matrix read once with float().  The loop is discretized at multiples of
the checking period h: the k-step transition matrices M(k) and
triggering forms N(k) are computed once in double precision and then
frozen into exact rationals; those rationals are the shared ground
truth for the concrete semantics, the satisfiability encoding and every
witness check downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratlin
from .ratlin import RatMatrix

EIG_TOL = 1e-9

# Pade-13 numerator coefficients for the matrix exponential.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)


def expm(m, t: float = 1.0) -> np.ndarray:
    """e^{Mt} by scaling-and-squaring with a [13/13] Pade kernel."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expm requires a square matrix")
    if not (np.isfinite(m).all() and np.isfinite(t)):
        raise ValueError("expm requires finite entries")
    a = m * t
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    # theta_13 from the standard scaling-and-squaring analysis
    s = max(0, int(np.ceil(np.log2(norm / 5.371920351148152))) if norm > 0 else 0)
    a = a / (2.0 ** s)

    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    b = _PADE13
    ident = np.eye(n)
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _matrix(rows, name: str) -> np.ndarray:
    """rows as an array of doubles, each entry read with float()."""
    try:
        m = np.array([[float(v) for v in row] for row in rows])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a matrix of numbers: {exc}")
    if m.ndim != 2 or not np.isfinite(m).all():
        raise ValueError(f"{name} must be a matrix of finite numbers")
    return m


def _check_symmetric(m: np.ndarray, name: str, n: int,
                     definite: bool = True) -> None:
    if m.shape != (n, n):
        raise ValueError(f"{name} must be {n} x {n}")
    if np.max(np.abs(m - m.T)) > 1e-9 * max(1.0, np.max(np.abs(m))):
        raise ValueError(f"{name} must be symmetric")
    if definite and np.linalg.eigvalsh(m).min() <= EIG_TOL:
        raise ValueError(f"{name} must be positive definite")


@dataclass(frozen=True)
class PetcSystem:
    """Plant, gain, Lyapunov matrix and trigger of one PETC loop.  The
    trigger is the form Q_trig on [x; x_hat], or the predictive pair
    Q_lyap, rho from which build_predictive_Q makes Q_trig."""

    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    P: np.ndarray
    h: Fraction
    k_bar: int
    r: Fraction
    V0: Fraction = Fraction(1)
    Q_trig: np.ndarray | None = None
    Q_lyap: np.ndarray | None = None
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
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n:
            raise ValueError("B must be n_x x n_u")
        if self.K.shape != (self.B.shape[1], n):
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
        _check_symmetric(self.Q_trig, "Q_trig", 2 * n, definite=False)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]


def held_input_maps(sys: PetcSystem, t: float) -> tuple[np.ndarray, np.ndarray]:
    """A_d(t) = e^{At} and B_d(t) = (int_0^t e^{A tau} dtau) B, via one augmented expm."""
    n, nu = sys.n_x, sys.n_u
    aug = np.zeros((n + nu, n + nu))
    aug[:n, :n] = sys.A
    aug[:n, n:] = sys.B
    e = expm(aug, float(t))
    return e[:n, :n], e[:n, n:]


def discretize_at_time(sys: PetcSystem, t: float) -> np.ndarray:
    """Closed-loop one-shot transition map x -> A_d(t) x + B_d(t) K x for held input."""
    n = sys.n_x
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = sys.A
    aug[:n, n:] = sys.B @ sys.K
    e = expm(aug, float(t))
    # state at time t from [x; x] is the top block row times [I; I]
    return e[:n, :n] + e[:n, n:]


def discretize(sys: PetcSystem, k: int) -> np.ndarray:
    """M(k): the k-step transition matrix under input held from the last sample."""
    if not 1 <= k <= sys.k_bar:
        raise ValueError(f"k={k} out of range 1..{sys.k_bar}")
    return discretize_at_time(sys, float(sys.h) * k)


def trig_form(sys: PetcSystem, mk: np.ndarray) -> np.ndarray:
    """N(k): the trigger form reduced to n_x, using x_hat = x at sampling instants."""
    n = sys.n_x
    if mk.shape != (n, n):
        raise ValueError("M(k) has wrong shape")
    stacked = np.vstack([mk, np.eye(n)])
    nk = stacked.T @ sys.Q_trig @ stacked
    return (nk + nk.T) / 2.0


@np.errstate(over="ignore", invalid="ignore")  # rationalize tests N(k)
def build_predictive_Q(sys: PetcSystem) -> np.ndarray:
    """Trigger matrix for the predictive Lyapunov condition.

    With zeta = A_d(1) x + B_d(1) K x_hat the next-sample prediction, the
    loop triggers when the predicted Lyapunov derivative under the held
    input beats a fraction rho of the ideal decay:

        d/dt V(zeta) > -rho zeta' Q_lyap zeta.

    Since d/dt V(zeta) = 2 zeta' P (A zeta + B K x_hat), the condition is
    the sign of a single quadratic form in [x; x_hat], returned here.
    """
    n, nu = sys.n_x, sys.n_u
    ad1, bd1 = held_input_maps(sys, sys.h)
    lmap = np.hstack([ad1, bd1 @ sys.K])             # [x; x_hat] -> zeta
    kaug = np.hstack([np.zeros((nu, n)), sys.K])     # [x; x_hat] -> held input
    deriv = sys.A @ lmap + sys.B @ kaug              # [x; x_hat] -> zeta_dot
    q = lmap.T @ sys.P @ deriv + deriv.T @ sys.P @ lmap
    q = q + sys.rho * (lmap.T @ sys.Q_lyap @ lmap)
    return (q + q.T) / 2.0


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


def min_inter_sample_float(n_forms: dict[int, np.ndarray], k_bar: int,
                           eig_tol: float = EIG_TOL) -> int:
    """Smallest k at which N(k) admits a positive direction; k_bar if none."""
    for k in sorted(n_forms):
        if np.linalg.eigvalsh(n_forms[k]).max() > eig_tol:
            return k
    return k_bar


def rationalize(sys: PetcSystem, h_P: Fraction) -> DiscretizedPetc:
    """Discretize the loop and freeze every matrix into exact rationals;
    an M(k) or N(k) beyond the range of a double raises ValueError."""
    h_P = Fraction(h_P)
    if h_P <= 0:
        raise ValueError("h_P must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # tested below
        m_float = {k: discretize(sys, k) for k in range(1, sys.k_bar + 1)}
        n_float = {k: trig_form(sys, m_float[k]) for k in m_float}
    for k in m_float:
        if not np.isfinite([m_float[k], n_float[k]]).all():
            raise ValueError(f"M({k}) or N({k}) overflows a double at "
                             f"t = h k = {float(sys.h * k):.6g}")
    return DiscretizedPetc(
        M={k: ratlin.mat(m) for k, m in m_float.items()},
        N={k: ratlin.symmetrize(ratlin.mat(n)) for k, n in n_float.items()},
        P_rat=ratlin.symmetrize(ratlin.mat(sys.P)),
        Q_rat=ratlin.symmetrize(ratlin.mat(sys.Q_trig)),
        M_P=ratlin.mat(discretize_at_time(sys, float(h_P))),
        k_lo=min_inter_sample_float(n_float, sys.k_bar), h_P=h_P, h=sys.h,
        k_bar=sys.k_bar, r=sys.r, V0=sys.V0)
