"""The certified gain manifold: slack-variable damping, the stiffness flow,
analytic gain rates, and certificate margins.

The two stability inequalities

    alpha H - D(t)                        <= 0
    Kdot(t) + alpha Ddot(t) - 2 alpha K(t) <= 0

are enforced by construction: D = alpha H + S_D S_D^T and K follows the
flow Kdot = 2 alpha K + B with B = -alpha Ddot - S_K S_K^T.  Any slack
sample therefore yields a schedule with both left-hand sides equal to
-S S^T <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dmp import RbfBasis
from .errors import CertifiedFloorError, IntegrationDivergedError
from .robustness import eigvalsh_stack

K_EIG_FLOOR = 1e-12   # smallest admissible stiffness eigenvalue


# ---------------------------------------------------------------------------
# Lower-triangle vectorization
# ---------------------------------------------------------------------------

def tri_dim(m):
    """Number of free entries of an m x m lower-triangular matrix."""
    return m * (m + 1) // 2


def _tri_index_arrays(m):
    # Ordering: the m diagonal entries first, then the strictly-lower
    # entries column-major ((1,0), (2,0), ..., (m-1,0), (2,1), ...).
    rows = list(range(m))
    cols = list(range(m))
    for j in range(m):
        for i in range(j + 1, m):
            rows.append(i)
            cols.append(j)
    return np.array(rows), np.array(cols)


def vec_triangle(L):
    """Vectorize a lower-triangular matrix (diagonal first, then the strict
    lower triangle column-major)."""
    m = L.shape[-1]
    rows, cols = _tri_index_arrays(m)
    return np.asarray(L)[..., rows, cols]


# ---------------------------------------------------------------------------
# Slack parametrization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlackParams:
    """RBF weights for the damping and stiffness slack channels."""

    theta_d: np.ndarray     # (M_s, d_tri)
    theta_k: np.ndarray     # (M_s, d_tri)
    basis: RbfBasis
    m: int                  # task dimension

    def __post_init__(self):
        d = tri_dim(self.m)
        if self.theta_d.shape != (self.basis.count, d):
            raise ValueError("theta_d shape mismatch")
        if self.theta_k.shape != (self.basis.count, d):
            raise ValueError("theta_k shape mismatch")


def slack_trace(theta_d, theta_k, phi):
    """Slack weights mapped through an evaluated basis pair.

    phi is (Phi, dPhi/ds), a basis and its phase derivative evaluated on n
    phases, (n, M_s) each (RbfBasis.eval_deriv).  Returns (S_D, S_K, Sdot_D)
    as packed lower triangles of shape (n, tri_dim(m)), in vec_triangle
    order.  Sdot_D is the damping slack's derivative in the phase s; the
    caller multiplies it by ds/dt = -1/tau.  No gain rate needs the
    stiffness slack's derivative.
    """
    ph, dph = phi
    return ph @ theta_d, ph @ theta_k, dph @ theta_d


# ---------------------------------------------------------------------------
# Certificates and schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateReport:
    """Per-timestep maximum eigenvalues of the two stability inequalities
    and the resulting global margins."""

    lam_A: np.ndarray       # max eig of alpha H - D(t)
    lam_C: np.ndarray       # max eig of Kdot + alpha Ddot - 2 alpha K
    alpha: float

    @property
    def eps_D(self):
        return -float(self.lam_A.max())

    @property
    def eps_K(self):
        return -float(self.lam_C.max())

    @property
    def passes(self):
        """Bare stability condition: both inequalities nonstrict."""
        return bool(self.lam_A.max() <= 0.0 and self.lam_C.max() <= 0.0)

    @property
    def passes_strict(self):
        """Strict margins, as required by the boundedness theorem."""
        return bool(self.eps_D > 0.0 and self.eps_K > 0.0)

    def to_dict(self):
        return {
            "alpha": self.alpha,
            "eps_D": self.eps_D,
            "eps_K": self.eps_K,
            "lam_A_max": float(self.lam_A.max()),
            "lam_C_max": float(self.lam_C.max()),
            "passes": self.passes,
            "passes_strict": self.passes_strict,
        }


@dataclass(frozen=True)
class GainSchedule:
    """Time series of the executed impedance gains and certificate trace."""

    t: np.ndarray
    K: np.ndarray        # (n, m, m)
    D: np.ndarray
    Kdot: np.ndarray
    Ddot: np.ndarray
    lam_A: np.ndarray
    lam_C: np.ndarray
    alpha: float
    H: np.ndarray

    @property
    def m(self):
        return self.K.shape[-1]

    def report(self):
        return CertificateReport(lam_A=self.lam_A, lam_C=self.lam_C,
                                 alpha=self.alpha)


def integrate_cholesky_flow(B, alpha, K0, dt, clamp=False):
    """Integrate the stiffness flow over a stack of B(t) samples.

    Returns the (n, m, m) stiffness trace.  With B held constant over each
    step the flow Kdot = 2 alpha K + B has the exact update
    K[i+1] = r K[i] + c B[i], r = exp(2 alpha dt), c = (r - 1) / (2 alpha).
    Up to a growth r**(n-1) of e**2 its closed form
    K[i] = r**i (K0 + c sum_{j<i} r**-(j+1) B[j]) is as accurate; it is
    written into K[1:] in place (multiply, cumulative sum, scale by c, add
    K0, multiply by r**i), so it allocates no (n, m, m) temporary.  Past
    that growth the closed form cancels, so the update runs step by step in
    scipy.signal.lfilter, imported only then (about 1.5 s and 76 MB with
    scipy 1.17).  Both act on each entry alone, so a symmetric
    K0 and B stack (slack_products writes both halves) give a bitwise
    symmetric trace.  The trace then passes stiffness_floor.
    """
    B = np.asarray(B, float)
    n, m = B.shape[0], B.shape[-1]
    K0 = np.asarray(K0, float)
    r = np.exp(2.0 * alpha * dt)
    c = (r - 1.0) / (2.0 * alpha) if alpha != 0.0 else dt
    K = np.empty((n, m, m))
    K[0] = K0
    if 2.0 * alpha * dt * (n - 1) <= 2.0:
        idx = np.arange(1, n)[:, None, None]
        Kt = K[1:]
        np.multiply(r ** -idx, B[:-1], out=Kt)
        np.cumsum(Kt, axis=0, out=Kt)
        Kt *= c
        Kt += K0
        Kt *= r ** idx
    else:
        from scipy.signal import lfilter
        K[1:] = lfilter([c], [1.0, -r], B[:-1].reshape(n - 1, -1), axis=0,
                        zi=r * K0.reshape(1, -1))[0].reshape(n - 1, m, m)
    return stiffness_floor(K, clamp)


def stiffness_floor(K, clamp=False):
    """Check a symmetric (n, m, m) stiffness stack against the positivity
    floor K_EIG_FLOOR and return it.

    A non-finite entry anywhere (the flow overflowed) raises
    IntegrationDivergedError in either mode.  A 3 x 3 stack passes at once
    if _clears_floor; otherwise the least eigenvalues (eigvalsh_stack, which
    leaves every eigenvalue at rounding level to LAPACK's eigvalsh, as the
    certificate audit does) decide: below the floor the schedule is
    rejected, or with clamp=True, a path for explicitly uncertified
    (ablation) runs, floored pointwise through eigh.
    """
    if not np.isfinite(K).all():
        raise IntegrationDivergedError("stiffness flow diverged to a non-finite K")
    if ((K.shape[-1] == 3 and _clears_floor(K))
            or (eigvalsh_stack(K)[:, 0] >= K_EIG_FLOOR).all()):
        return K
    if not clamp:
        raise CertifiedFloorError(
            f"stiffness eigenvalue below positivity floor {K_EIG_FLOOR}")
    w, V = np.linalg.eigh(K)
    w = np.maximum(w, K_EIG_FLOOR)
    K = np.einsum("nij,nj,nkj->nik", V, w, V)
    return 0.5 * (K + np.swapaxes(K, 1, 2))


def _clears_floor(K):
    """Whether every matrix of a symmetric (n, 3, 3) stack has LDL^T pivots
    of A = K - K_EIG_FLOOR I, d0 = a00, d1 = a11 - l10 a10 and
    d2 = a22 - l20 a20 - l21 (a21 - l20 a10), above 1e-9 max(1, max diag K).
    Computed pivots are exact for A plus a perturbation of a few eps max
    diag K (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10),
    so the margin leaves every rounding-level case to eigvalsh_stack.  A
    zero, NaN or inf pivot reads as not clear.
    """
    with np.errstate(all="ignore"):
        a00, a11, a22 = (K[:, i, i] - K_EIG_FLOOR for i in range(3))
        a10, a20, a21 = K[:, 1, 0], K[:, 2, 0], K[:, 2, 1]
        l20 = a20 / a00
        d1 = a11 - a10 / a00 * a10
        e21 = a21 - l20 * a10
        d2 = a22 - l20 * a20 - e21 / d1 * e21
        tol = 1e-9 * np.maximum(1.0, np.diagonal(K, 0, 1, 2).max(axis=1))
        return bool(((a00 > tol) & (d1 > tol) & (d2 > tol)).all())


def slack_products(S_D, S_K, Sd_D):
    """Slack products (G_D, G_K, Ddot) = (S_D S_D^T, S_K S_K^T, d/dt G_D)
    of packed (n, tri_dim(m)) slacks as slack_trace returns them; Sd_D is
    the damping slack's time derivative.  Entry (i, j) of S S^T is the sum
    over k <= min(i, j) of S_ik S_jk, and Ddot = X + X^T, X = Sd_D S_D^T;
    each lower entry is formed once from contiguous columns and written to
    (i, j) and (j, i), so the (n, m, m) products are exactly symmetric.
    """
    a, b, c = (np.ascontiguousarray(np.transpose(S)) for S in (S_D, S_K, Sd_D))
    d, n = a.shape
    m = (math.isqrt(8 * d + 1) - 1) // 2
    at = dict(zip(zip(*_tri_index_arrays(m)), range(d)))   # (i, k) -> row
    G_D, G_K, Ddot = (np.empty((n, m, m)) for _ in range(3))
    for i in range(m):
        for j in range(i + 1):
            pairs = [(at[i, k], at[j, k]) for k in range(j + 1)]
            G_D[:, i, j] = G_D[:, j, i] = _column_dot(a, a, pairs)
            G_K[:, i, j] = G_K[:, j, i] = _column_dot(b, b, pairs)
            Ddot[:, i, j] = Ddot[:, j, i] = (_column_dot(c, a, pairs)
                                             + _column_dot(a, c, pairs))
    return G_D, G_K, Ddot


def _column_dot(x, y, pairs):
    """Sum of x[p] * y[q] over the (p, q) pairs, in order."""
    out = x[pairs[0][0]] * y[pairs[0][1]]
    for p, q in pairs[1:]:
        out += x[p] * y[q]
    return out


def schedule_from_products(G_D, G_K, Ddot, alpha, H, K0, tgrid, clamp=False):
    """The gain schedule of the slack construction, from its products.

    D = alpha H + G_D, and K follows the flow Kdot = 2 alpha K + B with
    B = -alpha Ddot - G_K, so the two certificate matrices are -G_D and
    -G_K; their largest eigenvalues (eigvalsh_stack) are the schedule's
    lam_A and lam_C.  clamp is integrate_cholesky_flow's.

    The products are consumed: each of G_K and G_D is negated in place
    for its audit, then G_K's buffer holds B and then Kdot, and G_D's
    holds D; Ddot is the schedule's own.  A product that shares memory
    with another or is not writeable is copied first, so every trace of
    the schedule owns its memory.
    """
    products = []
    for G in (G_D, G_K, Ddot):
        G = np.asarray(G, float)
        if not G.flags.writeable or any(np.may_share_memory(G, P)
                                        for P in products):
            G = G.copy()
        products.append(G)
    G_D, G_K, Ddot = products
    # Copies: a view would keep the whole (n, m) eigenvalue array alive.
    lam_C = eigvalsh_stack(np.negative(G_K, out=G_K))[..., -1].copy()
    B = np.add(-alpha * Ddot, G_K, out=G_K)
    K = integrate_cholesky_flow(B, alpha, K0, tgrid[1] - tgrid[0], clamp=clamp)
    lam_A = eigvalsh_stack(np.negative(G_D, out=G_D))[..., -1].copy()
    D = np.subtract(alpha * H, G_D, out=G_D)
    # A K within a factor 2 alpha of the float maximum is finite, yet its
    # rate is not.
    with np.errstate(over="ignore"):
        Kdot = np.add(2.0 * alpha * K, B, out=B)
    if not np.isfinite(Kdot).all():
        raise IntegrationDivergedError(
            "stiffness flow diverged to a non-finite Kdot")
    return GainSchedule(t=tgrid, K=K, D=D, Kdot=Kdot,
                        Ddot=Ddot, lam_A=lam_A, lam_C=lam_C, alpha=alpha,
                        H=np.asarray(H, float))


def build_gain_schedule(sp, alpha, H, tau, K0, tgrid):
    """Integrate the slack construction into a gain schedule.

    The slack basis pair is evaluated on the phases 1 - t / tau of tgrid;
    it is passed inline, so it is freed before the products are formed.
    Zero slacks yield the certified floor D = alpha H,
    K(t) = exp(2 alpha t) K0.
    """
    tgrid = np.asarray(tgrid, float)
    S_D, S_K, Sd_D = slack_trace(sp.theta_d, sp.theta_k,
                                 sp.basis.eval_deriv(1.0 - tgrid / tau))
    products = slack_products(S_D, S_K, Sd_D * (-1.0 / tau))
    return schedule_from_products(*products, alpha, H, K0, tgrid)


def constant_slack_params(basis, m, d_init, k_init, alpha, H):
    """Slack weights reproducing constant gains D = d_init I, K = k_init I.

    Solves alpha H + S_D S_D^T = d_init I for a constant S_D and picks
    S_K = sqrt(2 alpha k_init) I so the stiffness flow holds K constant.
    """
    H = np.asarray(H, float)
    Sd = np.linalg.cholesky(d_init * np.eye(m) - alpha * H)
    Sk = np.sqrt(2.0 * alpha * k_init) * np.eye(m)
    row_d = vec_triangle(Sd)
    row_k = vec_triangle(Sk)
    return SlackParams(theta_d=np.tile(row_d, (basis.count, 1)),
                       theta_k=np.tile(row_k, (basis.count, 1)),
                       basis=basis, m=m)
