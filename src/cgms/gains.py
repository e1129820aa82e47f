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

from dataclasses import dataclass

import numpy as np

from .dmp import RbfBasis
from .errors import CertifiedFloorError, IntegrationDivergedError
from .robustness import eigvalsh_stack

K_EIG_FLOOR = 1e-12   # smallest admissible stiffness eigenvalue
FLOOR_BLOCK = 512     # matrices per Cholesky call of the floor check


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


def vec_triangle_inverse(v, m):
    """Inverse of vec_triangle for m x m matrices; accepts a batch of
    vectors."""
    v = np.asarray(v, float)
    d = v.shape[-1]
    if tri_dim(m) != d:
        raise ValueError(f"vector length {d} does not match m={m}")
    rows, cols = _tri_index_arrays(m)
    L = np.zeros(v.shape[:-1] + (m, m))
    L[..., rows, cols] = v
    return L


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


def slack_trace(sp, s_all):
    """Vectorized slack evaluation over an array of phases.

    Returns (S_D, S_K, Sdot_D) with shape (n, m, m).  Sdot_D is the damping
    slack's derivative in the phase s; the caller multiplies it by
    ds/dt = -1/tau.  No gain rate needs the stiffness slack's derivative.
    """
    ph, dph = sp.basis.eval_deriv(s_all)
    return (vec_triangle_inverse(ph @ sp.theta_d, sp.m),
            vec_triangle_inverse(ph @ sp.theta_k, sp.m),
            vec_triangle_inverse(dph @ sp.theta_d, sp.m))


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
        return bool(self.eps_D > 0.0 and self.eps_K >= 0.0 and self.passes)

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

    def to_csv(self, path_or_buf):
        """Columns: t, K11..Kmm (row-major), D11..Dmm, lamA, lamC."""
        m = self.m
        names = ["t"]
        names += [f"K{i + 1}{j + 1}" for i in range(m) for j in range(m)]
        names += [f"D{i + 1}{j + 1}" for i in range(m) for j in range(m)]
        names += ["lamA", "lamC"]
        n = len(self.t)
        data = np.column_stack([
            self.t, self.K.reshape(n, -1), self.D.reshape(n, -1),
            self.lam_A, self.lam_C,
        ])
        write_csv(path_or_buf, names, data)


def write_csv(path_or_buf, header, rows):
    """Write a header line and one line per row: ints as they are, every
    other value as a round-tripping %.17g float."""
    lines = [",".join(header)]
    lines += [",".join(str(v) if isinstance(v, int) else format(float(v), ".17g")
                       for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_buf, "write"):
        path_or_buf.write(text)
    else:
        with open(path_or_buf, "w") as fh:
            fh.write(text)


def integrate_cholesky_flow(B, alpha, K0, dt, clamp=False):
    """Integrate the stiffness flow over a stack of B(t) samples.

    Returns the (n, m, m) stiffness trace.  With B held constant over each
    step the flow Kdot = 2 alpha K + B has the exact update
    K[i+1] = r K[i] + c B[i], r = exp(2 alpha dt), c = (r - 1) / (2 alpha).
    Up to a growth r**(n-1) of e**2 its closed form (one cumulative sum) is
    as accurate; past that the closed form cancels, so the update runs step
    by step in scipy.signal.lfilter, imported only then (about 1 s and
    70 MB).  The trace then passes stiffness_floor: batched Cholesky
    factorizations of K - K_EIG_FLOOR I test the positivity floor, and only
    if one fails do eigvalsh decide and, with clamp=True, eigh floor it.
    """
    B = np.asarray(B, float)
    n, m = B.shape[0], B.shape[-1]
    K0 = np.asarray(K0, float)
    if n == 0:
        return np.empty((0, m, m))
    r = np.exp(2.0 * alpha * dt)
    c = (r - 1.0) / (2.0 * alpha) if alpha != 0.0 else dt
    K = np.empty((n, m, m))
    K[0] = K0
    if 2.0 * alpha * dt * (n - 1) <= 2.0:
        idx = np.arange(1, n)[:, None, None]
        K[1:] = r ** idx * (K0 + c * np.cumsum(r ** -idx * B[:-1], axis=0))
    else:
        from scipy.signal import lfilter
        K[1:] = lfilter([c], [1.0, -r], B[:-1].reshape(n - 1, -1), axis=0,
                        zi=r * K0.reshape(1, -1))[0].reshape(n - 1, m, m)
    with np.errstate(over="ignore"):    # stiffness_floor names an overflow
        K = 0.5 * (K + np.swapaxes(K, 1, 2))
    return stiffness_floor(K, clamp)


def stiffness_floor(K, clamp=False):
    """Check a symmetric (n, m, m) stiffness stack against the positivity
    floor K_EIG_FLOOR and return it.

    A stack with a non-finite entry anywhere (the flow overflowed) raises
    IntegrationDivergedError in either mode; the test comes first, since
    Cholesky reads only the lower triangle.  Batched Cholesky
    factorizations of K - K_EIG_FLOOR I pass every stack that clears the
    floor; FLOOR_BLOCK matrices at a time, so the shifted copies and
    factors add nothing to the peak memory of a schedule build.  Only when
    one fails (or is not finite) does the decision fall to the minimum
    eigenvalue (eigvalsh): below the floor the schedule is rejected, or
    with clamp=True, a path for explicitly uncertified (ablation) runs,
    floored pointwise through eigh.
    """
    if not np.isfinite(K).all():
        raise IntegrationDivergedError("stiffness flow diverged to a non-finite K")
    shift = K_EIG_FLOOR * np.eye(K.shape[-1])
    try:
        factors = (np.linalg.cholesky(K[i:i + FLOOR_BLOCK] - shift)
                   for i in range(0, len(K), FLOOR_BLOCK))
        if all(np.isfinite(f).all() for f in factors):
            return K
    except np.linalg.LinAlgError:
        pass
    if np.linalg.eigvalsh(K)[..., 0].min() >= K_EIG_FLOOR:
        return K
    if not clamp:
        raise CertifiedFloorError(
            f"stiffness eigenvalue below positivity floor {K_EIG_FLOOR}")
    w, V = np.linalg.eigh(K)
    w = np.maximum(w, K_EIG_FLOOR)
    K = np.einsum("nij,nj,nkj->nik", V, w, V)
    return 0.5 * (K + np.swapaxes(K, 1, 2))


def slack_products(S_D, S_K, Sd_D):
    """Slack products (G_D, G_K, Ddot) = (S_D S_D^T, S_K S_K^T, d/dt G_D)
    of (n, m, m) slack stacks; Sd_D is the damping slack's time derivative.
    Ddot = X + X^T with X = Sd_D S_D^T, since S_D Sd_D^T = X^T."""
    Ddot = Sd_D @ np.swapaxes(S_D, 1, 2)
    Ddot = Ddot + np.swapaxes(Ddot, 1, 2)
    return S_D @ np.swapaxes(S_D, 1, 2), S_K @ np.swapaxes(S_K, 1, 2), Ddot


def schedule_from_products(G_D, G_K, Ddot, alpha, H, K0, tgrid, clamp=False):
    """The gain schedule of the slack construction, from its products.

    D = alpha H + G_D, and K follows the flow Kdot = 2 alpha K + B with
    B = -alpha Ddot - G_K, so the two certificate matrices are -G_D and
    -G_K; their largest eigenvalues (eigvalsh_stack) are the schedule's
    lam_A and lam_C.  clamp is integrate_cholesky_flow's.
    """
    D = alpha * H + G_D
    B = -alpha * Ddot - G_K
    K = integrate_cholesky_flow(B, alpha, K0, tgrid[1] - tgrid[0], clamp=clamp)
    return GainSchedule(t=tgrid, K=K, D=D, Kdot=2.0 * alpha * K + B,
                        Ddot=Ddot, lam_A=eigvalsh_stack(-G_D)[..., -1],
                        lam_C=eigvalsh_stack(-G_K)[..., -1], alpha=alpha,
                        H=np.asarray(H, float))


def build_gain_schedule(sp, alpha, H, tau, K0, tgrid):
    """Integrate the slack construction into a gain schedule.

    Zero slacks yield the certified floor D = alpha H,
    K(t) = exp(2 alpha t) K0.
    """
    tgrid = np.asarray(tgrid, float)
    S_D, S_K, Sd_D = slack_trace(sp, 1.0 - tgrid / tau)
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
