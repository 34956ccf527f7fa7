"""Finite-dimensional positive LTI systems.

The componentwise order on R^n makes every structural question decidable:
positivity of the semigroup is the Metzler property of A, transfer functions
are resolvent algebra, and feedback composition is matrix arithmetic.  This
module is the brute-force oracle against which the operator-theoretic
machinery is checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import dense_spectral_radius

#: Off-diagonal entries below this are treated as data errors, not noise.
METZLER_TOL = 1e-14


@dataclass(frozen=True)
class PosLTI:
    """State-space system (A, B, C, D) with the componentwise order.

    The system is *positive* iff A is Metzler (off-diagonal >= 0) and
    B, C, D are entrywise nonnegative; then e^{tA} >= 0 for all t >= 0 and
    positive initial states with positive inputs yield positive trajectories
    and outputs.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        if B.shape[0] != n:
            raise ValueError("B must have one row per state")
        if C.shape[1] != n:
            raise ValueError("C must have one column per state")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError("D must be (outputs x inputs)")
        for name, mat in (("A", A), ("B", B), ("C", C), ("D", D)):
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} has non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def is_metzler(self, tol: float = METZLER_TOL) -> bool:
        off = self.A - np.diag(np.diag(self.A))
        return bool(np.all(off >= -tol))

    def is_positive_system(self, tol: float = METZLER_TOL) -> bool:
        return (
            self.is_metzler(tol)
            and bool(np.all(self.B >= -tol))
            and bool(np.all(self.C >= -tol))
            and bool(np.all(self.D >= -tol))
        )

    def spectral_bound(self) -> float:
        return float(np.max(np.linalg.eigvals(self.A).real))


def _expm(M: np.ndarray) -> np.ndarray:
    """e^M by scipy's scaling-and-squaring Pade.  scipy.linalg is imported
    here, at the first exponential, not with the module: it takes longer to
    import than the rest of posflow, and only the finite-dimensional oracle
    needs it."""
    import scipy.linalg

    return scipy.linalg.expm(M)


def expm_apply(A: np.ndarray, t: float, x: np.ndarray) -> np.ndarray:
    """e^{tA} x via scaling-and-squaring (see ``_expm``)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x = np.asarray(x, dtype=float)
    return _expm(t * A) @ x


def _step_matrices(A: np.ndarray, B: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step propagators for piecewise-constant input:
    z(t+h) = E z(t) + F u with E = e^{hA}, F = int_0^h e^{sA} ds B,
    computed through the augmented exponential (no invertibility needed)."""
    n, m = A.shape[0], B.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A
    aug[:n, n:] = B
    phi = _expm(h * aug)
    return phi[:n, :n], phi[:n, n:]


def simulate_mild(
    sys: PosLTI, x0: np.ndarray, u: np.ndarray, tgrid: np.ndarray
) -> np.ndarray:
    """Trajectory z(t_k) = e^{t_k A} x0 + int_0^{t_k} e^{(t_k-s)A} B u(s) ds.

    The input is piecewise constant: ``u[k]`` holds on [t_k, t_{k+1}), which
    makes the exponential integrator exact per step.  Returns an array of
    shape (len(tgrid), n).
    """
    tgrid = np.asarray(tgrid, dtype=float)
    if tgrid[0] != 0.0 or np.any(np.diff(tgrid) <= 0):
        raise ValueError("time grid must increase strictly from 0")
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != sys.n:
        raise ValueError("initial state dimension mismatch")
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[0] not in (tgrid.size, tgrid.size - 1):
        raise ValueError("need one input value per grid interval")
    if u.shape[1] != sys.m:
        raise ValueError("input dimension mismatch")

    traj = np.empty((tgrid.size, sys.n))
    traj[0] = x0
    z = x0
    cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for k in range(tgrid.size - 1):
        h = float(tgrid[k + 1] - tgrid[k])
        if h not in cache:
            cache[h] = _step_matrices(sys.A, sys.B, h)
        E, F = cache[h]
        z = E @ z + F @ u[k]
        traj[k + 1] = z
    return traj


def io_response(
    sys: PosLTI, x0: np.ndarray, u: np.ndarray, tgrid: np.ndarray
) -> np.ndarray:
    """Output trajectory y(t_k) = C z(t_k) + D u(t_k) for piecewise-constant u."""
    traj = simulate_mild(sys, x0, u, tgrid)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    u_at = u if u.shape[0] == len(tgrid) else np.vstack([u, u[-1]])
    return traj @ sys.C.T + u_at @ sys.D.T


def transfer(sys: PosLTI, mu: float) -> np.ndarray:
    """Transfer function H(mu) = C (mu I - A)^{-1} B + D for real mu not in
    the spectrum of A."""
    eigs = np.linalg.eigvals(sys.A)
    if np.min(np.abs(eigs - mu)) < 1e-12 * max(1.0, float(np.max(np.abs(eigs)))):
        raise ValueError(f"mu={mu} is (numerically) an eigenvalue of A")
    X = np.linalg.solve(mu * np.eye(sys.n) - sys.A, sys.B)
    return sys.C @ X + sys.D


def positivity_classify(sys: PosLTI, tgrid: np.ndarray) -> dict[str, bool]:
    """Internal vs external positivity.

    internal: A Metzler and B, C, D >= 0 entrywise.
    external: the impulse response C e^{tA} B stays >= -1e-9 on the grid and
    D >= -1e-9 (zero-state outputs of positive inputs are positive).
    """
    internal = sys.is_positive_system()
    external = bool(np.all(sys.D >= -1e-9))
    if external:
        for t in np.asarray(tgrid, dtype=float):
            impulse = sys.C @ _expm(t * sys.A) @ sys.B
            if np.any(impulse < -1e-9):
                external = False
                break
    return {"internal": internal, "external": external}


@dataclass(frozen=True)
class FeedbackResult:
    """Closed loop of (A,B,C,D) under output feedback u = K y + v.

    Populated only when r(KD) < 1; otherwise ``admissible`` is False and the
    offending radius is reported instead of raising.
    """

    admissible: bool
    r_KD: float
    A_K: np.ndarray | None = None
    B_K: np.ndarray | None = None
    C_K: np.ndarray | None = None
    D_K: np.ndarray | None = None

    def closed_loop(self) -> PosLTI:
        if not self.admissible:
            raise ValueError("feedback composition was refused (r(KD) >= 1)")
        return PosLTI(self.A_K, self.B_K, self.C_K, self.D_K)


def feedback_compose(sys: PosLTI, K: np.ndarray) -> FeedbackResult:
    """Closed-loop operators for the feedback law u = K y + v:

        D_K = D (I - K D)^{-1}        C_K = (I - D K)^{-1} C
        B_K = B (I - K D)^{-1}        A_K = A + B K (I - D K)^{-1} C

    The composition is gated on r(KD) < 1, computed by dense eigenvalues
    (KD need not be primitive, so power iteration is not trusted here).
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape != (sys.m, sys.p):
        raise ValueError("K must map outputs to inputs")
    if np.any(K < 0):
        raise ValueError("feedback operator must be entrywise nonnegative")
    r_kd = dense_spectral_radius(K @ sys.D)
    if r_kd >= 1.0:
        return FeedbackResult(admissible=False, r_KD=r_kd)
    inv_KD = np.linalg.inv(np.eye(sys.m) - K @ sys.D)
    inv_DK = np.linalg.inv(np.eye(sys.p) - sys.D @ K)
    return FeedbackResult(
        admissible=True,
        r_KD=r_kd,
        A_K=sys.A + sys.B @ K @ inv_DK @ sys.C,
        B_K=sys.B @ inv_KD,
        C_K=inv_DK @ sys.C,
        D_K=sys.D @ inv_KD,
    )


def simulate_interconnection(
    sys: PosLTI,
    K: np.ndarray,
    x0: np.ndarray,
    v: np.ndarray,
    tgrid: np.ndarray,
    substeps: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the feedback law u = K y + v by direct integration.

    The output equation is solved pointwise, y = (I - DK)^{-1} (C z + D v),
    and the coupled ODE is marched with classical RK4 in ``substeps``
    sub-intervals per grid step.  ``v`` is a constant external input, so the
    right-hand side is affine in z and one RK4 substep of length h is an
    exact linear map Phi_h of the augmented state (z, s), where s scales v.
    Phi_h is one RK4 step of the interconnection right-hand side applied to
    the identity's columns, and each grid step applies Phi_h^substeps.  The
    closed-loop operators are never formed, so this route serves as an
    independent check of :func:`feedback_compose`.  Returns (states,
    outputs) sampled on the grid.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    v = np.asarray(v, dtype=float).ravel()
    inv_DK = np.linalg.inv(np.eye(sys.p) - sys.D @ K)
    n = sys.n

    def rhs(w: np.ndarray) -> np.ndarray:
        """Interconnection right-hand side on the columns (z, s) of ``w``."""
        z, s = w[:n], w[n:]
        y = inv_DK @ (sys.C @ z + np.outer(sys.D @ v, s))
        return np.vstack([sys.A @ z + sys.B @ (K @ y + np.outer(v, s)), np.zeros_like(s)])

    def rk4_step(w: np.ndarray, h: float) -> np.ndarray:
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * h * k1)
        k3 = rhs(w + 0.5 * h * k2)
        k4 = rhs(w + h * k3)
        return w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    tgrid = np.asarray(tgrid, dtype=float)
    states = np.empty((tgrid.size, n))
    w = np.append(np.asarray(x0, dtype=float).ravel(), 1.0)
    states[0] = w[:n]
    # keyed by substep length: linspace intervals can differ in the last ulp
    cache: dict[float, np.ndarray] = {}
    for idx in range(tgrid.size - 1):
        h = float(tgrid[idx + 1] - tgrid[idx]) / substeps
        if h not in cache:
            cache[h] = np.linalg.matrix_power(rk4_step(np.eye(n + 1), h), substeps)
        w = cache[h] @ w
        states[idx + 1] = w[:n]
    outputs = (states @ sys.C.T + sys.D @ v) @ inv_DK.T
    return states, outputs


@dataclass(frozen=True)
class NeumannResult:
    value: np.ndarray
    radius: float
    tail_bound: float
    n_terms: int


def neumann_resolvent(
    A: np.ndarray, B: np.ndarray, mu: float, n_terms: int
) -> NeumannResult:
    """Resolvent of the additively perturbed generator by Neumann series:

        R(mu, A + B) = sum_{k>=0} (R(mu, A) B)^k R(mu, A),

    summed to ``n_terms`` powers.  Requires r(R(mu,A) B) < 1 (checked by
    dense eigenvalues); the reported tail bound is
    r^{n_terms}/(1-r) * ||R(mu,A)||.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape != B.shape:
        raise ValueError("A and B must be square of equal size")
    n = A.shape[0]
    R = np.linalg.solve(mu * np.eye(n) - A, np.eye(n))
    RB = R @ B
    radius = dense_spectral_radius(RB)
    if radius >= 1.0:
        raise ValueError(f"Neumann series diverges: r(R(mu,A)B) = {radius:.6g} >= 1")
    total = R.copy()
    term = R.copy()
    for _ in range(n_terms):
        term = RB @ term
        total += term
    tail = radius**n_terms / (1.0 - radius) * float(np.linalg.norm(R, 2))
    return NeumannResult(value=total, radius=radius, tail_bound=tail, n_terms=n_terms)
