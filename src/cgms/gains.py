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

K_EIG_FLOOR = 1e-12   # smallest admissible stiffness eigenvalue
# eigvalsh_rows hands eigvalsh the matrices with |r| > 1 - EIG_REPEAT_TOL
# or an eigenvalue within EIG_ZERO_TOL max(1, ||A||_F) of 0.
EIG_REPEAT_TOL = 1e-6
EIG_ZERO_TOL = 1e-9


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


def unpack_rows(P, m):
    """The symmetric (n, m, m) stack of matrices packed as rows P
    (tri_dim(m), n) of their lower triangles in vec_triangle order, by one
    gather: the stack views an (m, m, n) array, so each entry stays
    contiguous in time."""
    rows, cols = _tri_index_arrays(m)
    at = np.empty((m, m), int)
    at[rows, cols] = at[cols, rows] = range(len(rows))
    return P.T[:, at]


def eigenvalues(P, m):
    """Ascending eigenvalues, (n, m), of the symmetric matrices packed as
    rows P: eigvalsh_rows' closed form for m = 3, eigvalsh otherwise."""
    if m == 3:
        return eigvalsh_rows(P)
    return np.linalg.eigvalsh(unpack_rows(P, m))


def eigvalsh_rows(P):
    """Ascending eigenvalues, (n, 3), of n symmetric 3 x 3 matrices packed
    as rows P (6, n) of their entries 00, 11, 22, 10, 20, 21 (vec_triangle
    order).  Smith's closed form runs once over all n matrices, in place,
    into contiguous rows (3, n), returned transposed: with q = tr/3,
    p = ||A - qI||_F / sqrt(6) and r = det(A - qI) / (2p^3), they are
    q + 2p cos((arccos(r) + 2k pi)/3).  eigvalsh redoes, on unpack_rows'
    stack, a matrix whose closed form is not finite (a NaN raises
    LinAlgError), near-repeated extremes, where arccos loses sqrt(eps), and
    an eigenvalue near zero, so every sign at rounding level is LAPACK's."""
    v = P.copy()
    w = np.empty((3, v.shape[1]))
    lo, mid, hi = w
    with np.errstate(over="ignore", invalid="ignore"):   # redone below
        q = v[:3].sum(axis=0)
        q /= 3.0
        v[:3] -= q
        p = np.einsum("ij,ij->j", v, v)
        p += np.einsum("ij,ij->j", v[3:], v[3:])
        p /= 6.0
        np.sqrt(p, out=p)
        v /= np.where(p > 0.0, p, 1.0)
        b0, b1, b2, c0, c1, c2 = v
        # r = (b0 (b1 b2 - c2^2) - c0 (c0 b2 - c1 c2) + c1 (c0 c2 - c1 b1)) / 2
        r = b1 * b2
        r -= c2 * c2
        r *= b0
        t = c0 * b2
        t -= c1 * c2
        t *= c0
        r -= t
        np.multiply(c0, c2, out=t)
        t -= c1 * b1
        t *= c1
        r += t
        r *= 0.5
        phi = np.clip(r, -1.0, 1.0, out=t)
        np.arccos(phi, out=phi)
        phi /= 3.0
        two_p = 2.0 * p
        np.cos(phi, out=hi)
        hi *= two_p
        hi += q
        phi += 2.0 * math.pi / 3.0
        np.cos(phi, out=lo)
        lo *= two_p
        lo += q
        np.multiply(3.0, q, out=mid)
        mid -= hi
        mid -= lo
        # tol = EIG_ZERO_TOL max(1, sqrt(6 p^2 + 3 q^2)), in two_p
        tol = np.multiply(6.0, p, out=two_p)
        tol *= p
        q2 = np.multiply(3.0, q, out=p)
        q2 *= q
        tol += q2
        np.sqrt(tol, out=tol)
        np.maximum(1.0, tol, out=tol)
        tol *= EIG_ZERO_TOL
        a = np.abs(w, out=v[:3])    # a NaN, or tol = inf, fails a > tol
        least = np.minimum(a[0], a[1], out=a[0])
        np.minimum(least, a[2], out=least)
        redo = np.flatnonzero(~(least > tol)
                              | (np.abs(r) > 1.0 - EIG_REPEAT_TOL))
    if redo.size:
        w[:, redo] = np.linalg.eigvalsh(unpack_rows(P[:, redo], 3)).T
    return w.T


def integrate_cholesky_flow(B, alpha, K0, dt, clamp=False):
    """Integrate the stiffness flow over B(t) samples packed as rows
    (tri_dim(m), n) in vec_triangle order, from a symmetric K0 (m, m).

    Returns the stiffness trace as rows of the same shape.  With B held
    constant over each step the flow Kdot = 2 alpha K + B has the exact
    update K[i+1] = r K[i] + c B[i], r = exp(2 alpha dt),
    c = (r - 1) / (2 alpha).  Up to a growth r**(n-1) of e**2 its closed
    form K[i] = r**i (K0 + c sum_{j<i} r**-(j+1) B[j]) is as accurate; it is
    written into K[:, 1:] in place (multiply, cumulative sum along time,
    scale by c, add K0, multiply by r**i), so it allocates no temporary of
    the trace's size.  Past that growth the closed form cancels, so the
    update runs step by step in scipy.signal.lfilter along time, imported
    only then (about 1.5 s and 76 MB with scipy 1.17).  Both act on each
    entry alone.  The trace then passes stiffness_floor.
    """
    B = np.asarray(B, float)
    n = B.shape[1]
    K0 = vec_triangle(np.asarray(K0, float))[:, None]
    r = np.exp(2.0 * alpha * dt)
    c = (r - 1.0) / (2.0 * alpha) if alpha != 0.0 else dt
    K = np.empty(B.shape)
    K[:, :1] = K0
    if 2.0 * alpha * dt * (n - 1) <= 2.0:
        idx = np.arange(1, n)
        Kt = K[:, 1:]
        np.multiply(r ** -idx, B[:, :-1], out=Kt)
        np.cumsum(Kt, axis=1, out=Kt)
        Kt *= c
        Kt += K0
        Kt *= r ** idx
    else:
        from scipy.signal import lfilter
        K[:, 1:] = lfilter([c], [1.0, -r], B[:, :-1], axis=1, zi=r * K0)[0]
    return stiffness_floor(K, clamp)


def stiffness_floor(K, clamp=False):
    """Check a stiffness trace, packed as rows (tri_dim(m), n) in
    vec_triangle order, against the positivity floor K_EIG_FLOOR and return
    it.

    A non-finite entry anywhere (the flow overflowed) raises
    IntegrationDivergedError in either mode.  A 3 x 3 trace passes at once
    if _clears_floor; otherwise the least eigenvalues (eigvalsh_rows, which
    leaves every eigenvalue at rounding level to LAPACK's eigvalsh, as the
    certificate audit does) decide: below the floor the schedule is
    rejected, or with clamp=True, a path for explicitly uncertified
    (ablation) runs, floored pointwise through eigh on the unpacked stack,
    whose symmetrised lower triangle is packed back.
    """
    if not np.isfinite(K).all():
        raise IntegrationDivergedError("stiffness flow diverged to a non-finite K")
    m = (math.isqrt(8 * len(K) + 1) - 1) // 2
    if ((m == 3 and _clears_floor(K))
            or (eigenvalues(K, m)[:, 0] >= K_EIG_FLOOR).all()):
        return K
    if not clamp:
        raise CertifiedFloorError(
            f"stiffness eigenvalue below positivity floor {K_EIG_FLOOR}")
    w, V = np.linalg.eigh(unpack_rows(K, m))
    w = np.maximum(w, K_EIG_FLOOR)
    K = np.einsum("nij,nj,nkj->nik", V, w, V)
    return vec_triangle(0.5 * (K + np.swapaxes(K, 1, 2))).T


def _clears_floor(K):
    """Whether every matrix of a 3 x 3 trace packed as rows (6, n) has
    LDL^T pivots of A = K - K_EIG_FLOOR I, d0 = a00, d1 = a11 - l10 a10 and
    d2 = a22 - l20 a20 - l21 (a21 - l20 a10), above 1e-9 max(1, max diag K).
    Computed pivots are exact for A plus a perturbation of a few eps max
    diag K (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10),
    so the margin leaves every rounding-level case to eigvalsh_rows.  A
    zero, NaN or inf pivot reads as not clear.
    """
    with np.errstate(all="ignore"):
        a00, a11, a22 = K[:3] - K_EIG_FLOOR
        a10, a20, a21 = K[3:]
        l20 = a20 / a00
        d1 = a11 - a10 / a00 * a10
        e21 = a21 - l20 * a10
        d2 = a22 - l20 * a20 - e21 / d1 * e21
        tol = 1e-9 * np.maximum(1.0, K[:3].max(axis=0))
        return bool(((a00 > tol) & (d1 > tol) & (d2 > tol)).all())


def slack_products(S_D, S_K, Sd_D):
    """Slack products (G_D, G_K, Ddot) = (S_D S_D^T, S_K S_K^T, d/dt G_D)
    of packed (n, tri_dim(m)) slacks as slack_trace returns them; Sd_D is
    the damping slack's time derivative.  Entry (i, j) of S S^T is the sum
    over k <= min(i, j) of S_ik S_jk, and Ddot = X + X^T, X = Sd_D S_D^T.
    Each product is symmetric, so it is returned as C-contiguous rows
    (tri_dim(m), n) of its lower triangle in vec_triangle order, each row
    formed once from contiguous columns: time runs along the last axis.
    """
    a, b, c = (np.ascontiguousarray(np.transpose(S)) for S in (S_D, S_K, Sd_D))
    d, n = a.shape
    m = (math.isqrt(8 * d + 1) - 1) // 2
    at = dict(zip(zip(*_tri_index_arrays(m)), range(d)))   # (i, k) -> row
    G_D, G_K, Ddot = (np.empty((d, n)) for _ in range(3))
    for (i, j), row in at.items():
        pairs = [(at[i, k], at[j, k]) for k in range(j + 1)]
        G_D[row] = _column_dot(a, a, pairs)
        G_K[row] = _column_dot(b, b, pairs)
        Ddot[row] = _column_dot(c, a, pairs) + _column_dot(a, c, pairs)
    return G_D, G_K, Ddot


def _column_dot(x, y, pairs):
    """Sum of x[p] * y[q] over the (p, q) pairs, in order."""
    out = x[pairs[0][0]] * y[pairs[0][1]]
    for p, q in pairs[1:]:
        out += x[p] * y[q]
    return out


def schedule_from_products(G_D, G_K, Ddot, alpha, H, K0, tgrid, clamp=False):
    """The gain schedule of the slack construction, from its products as
    slack_products returns them, rows (tri_dim(m), n).

    D = alpha H + G_D, and K follows the flow Kdot = 2 alpha K + B with
    B = -alpha Ddot - G_K, so the two certificate matrices are -G_D and
    -G_K; their largest eigenvalues are the schedule's lam_A and lam_C.
    H and K0 are symmetric (m, m); D is formed from H's lower triangle.
    clamp is integrate_cholesky_flow's.

    The products are consumed: each of G_K and G_D is negated in place
    for its audit, then G_K's buffer holds B and then Kdot, and G_D's
    holds D.  A product that shares memory with another or is not writeable
    is copied first.  The schedule's K, D, Kdot and Ddot are each unpacked
    once, at the end, to (n, m, m) stacks that own their memory.
    """
    products = []
    for G in (G_D, G_K, Ddot):
        G = np.asarray(G, float)
        if not G.flags.writeable or any(np.may_share_memory(G, P)
                                        for P in products):
            G = G.copy()
        products.append(G)
    G_D, G_K, Ddot = products
    m = np.shape(H)[-1]
    # Copies: a view would keep the whole (n, m) eigenvalue array alive.
    lam_C = eigenvalues(np.negative(G_K, out=G_K), m)[:, -1].copy()
    B = np.add(-alpha * Ddot, G_K, out=G_K)
    K = integrate_cholesky_flow(B, alpha, K0, tgrid[1] - tgrid[0], clamp=clamp)
    lam_A = eigenvalues(np.negative(G_D, out=G_D), m)[:, -1].copy()
    D = np.subtract(vec_triangle(alpha * np.asarray(H, float))[:, None], G_D,
                    out=G_D)
    # A K within a factor 2 alpha of the float maximum is finite, yet its
    # rate is not.
    with np.errstate(over="ignore"):
        Kdot = np.add(2.0 * alpha * K, B, out=B)
    if not np.isfinite(Kdot).all():
        raise IntegrationDivergedError(
            "stiffness flow diverged to a non-finite Kdot")
    K = unpack_rows(K, m)   # frees K's rows, which no caller holds
    return GainSchedule(t=tgrid, K=K, D=unpack_rows(D, m),
                        Kdot=unpack_rows(Kdot, m), Ddot=unpack_rows(Ddot, m),
                        lam_A=lam_A, lam_C=lam_C, alpha=alpha,
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
    Sd_D *= -1.0 / tau
    products = slack_products(S_D, S_K, Sd_D)
    del S_D, S_K, Sd_D      # the flow and the audit read the products only
    return schedule_from_products(*products, alpha, H, K0, tgrid)


def constant_slack_params(basis, m, d_init, k_init, alpha, H):
    """Slack weights (theta_d, theta_k), (basis.count, tri_dim(m)) each,
    reproducing constant gains D = d_init I, K = k_init I.

    Solves alpha H + S_D S_D^T = d_init I for a constant S_D and picks
    S_K = sqrt(2 alpha k_init) I so the stiffness flow holds K constant.
    """
    H = np.asarray(H, float)
    Sd = np.linalg.cholesky(d_init * np.eye(m) - alpha * H)
    Sk = np.sqrt(2.0 * alpha * k_init) * np.eye(m)
    return tuple(np.tile(vec_triangle(S), (basis.count, 1)) for S in (Sd, Sk))
