"""Normalized RBF bases, DMP transformation dynamics, and fitting to a
minimum-jerk demonstration.

The transformation dynamics of unit mass are

    tau^2 xdd = k (g - x) - tau d xd + gamma(t) f,
    f = Phi(s_t) theta,    s_t = 1 - t / tau,

with critical damping d = 2 sqrt(k) and gamma(t) = s_t, so the forcing
vanishes at the end of the motion and the system converges to the goal.
The forcing weights theta are passed in with each call; an exploration
sample is already added into them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateBasisError

ACTIVATION_FLOOR = 1e-300


@dataclass(frozen=True)
class RbfBasis:
    """Normalized Gaussian basis over the phase interval [0, 1]."""

    centers: np.ndarray
    widths: np.ndarray

    @property
    def count(self):
        return len(self.centers)

    def raw(self, s):
        """Unnormalized activations Psi_j(s), computed in one buffer."""
        psi = np.subtract(np.asarray(s, float)[..., None], self.centers)
        np.square(psi, out=psi)
        np.negative(psi, out=psi)
        np.divide(psi, 2.0 * self.widths ** 2, out=psi)
        return np.exp(psi, out=psi)

    def eval(self, s):
        """Normalized activation vector(s); rows sum to one."""
        psi, total = self._activations(s)
        psi /= total
        return psi

    def eval_deriv(self, s):
        """(Phi, dPhi/ds): the normalized vector(s) and their analytic
        derivative, from one evaluation of the activations."""
        psi, total = self._activations(s)
        dpsi = np.subtract(self.centers, np.asarray(s, float)[..., None])
        dpsi *= psi
        dpsi /= self.widths ** 2
        phi = np.divide(psi, total, out=psi)
        dphi = np.multiply(phi, dpsi.sum(axis=-1, keepdims=True))
        np.subtract(dpsi, dphi, out=dphi)
        dphi /= total
        return phi, dphi

    def _activations(self, s):
        psi = self.raw(s)
        total = psi.sum(axis=-1, keepdims=True)
        if np.any(total < ACTIVATION_FLOOR):
            raise DegenerateBasisError("all activations underflowed")
        return psi, total


def build_basis(M, intersection_height):
    """Uniform centers on [0, 1]; widths chosen so adjacent unnormalized
    Gaussians intersect at the requested height h:

        sigma = dc / (2 sqrt(2 ln(1/h))).

    Each neighbour's activation midway between two centers is h itself, so
    below ACTIVATION_FLOOR, where 1/h may overflow too, the basis underflows.
    """
    if M < 1:
        raise ValueError("need at least one basis function")
    if not ACTIVATION_FLOOR <= intersection_height < 1.0:
        raise ValueError(
            f"intersection height must lie in [{ACTIVATION_FLOOR}, 1)")
    if M == 1:
        centers = np.array([0.5])
        widths = np.array([0.5])
    else:
        centers = np.linspace(0.0, 1.0, M)
        dc = centers[1] - centers[0]
        sigma = dc / (2.0 * math.sqrt(2.0 * math.log(1.0 / intersection_height)))
        widths = np.full(M, sigma)
    return RbfBasis(centers=centers, widths=widths)


@dataclass(frozen=True)
class DmpParams:
    """Transformation-system parameters; the weights come with each call."""

    tau: float
    k: float
    goal: np.ndarray
    basis: RbfBasis
    lam_reg: float          # ridge term of fit_min_jerk's regression

    def __post_init__(self):
        if min(self.tau, self.k) <= 0:
            raise ValueError("tau and k must be positive")

    @property
    def d(self):
        """Critical damping of the unit-mass system."""
        return 2.0 * math.sqrt(self.k)


def compile_reference(params, tgrid):
    """The operators rollout_reference steps the DMP with on the uniform
    grid tgrid: (impulse, carry, powers), read-only.

    The semi-implicit update in velocity form v = dt xdot,

        v[i+1] = -kk x[i] + (1 - kd) v[i] + w[i],   x[i+1] = x[i] + v[i+1],

    is s[i+1] = A s[i] + b w[i] on s = (x, v), with the constant
    A = [[1 - kk, 1 - kd], [-kk, 1 - kd]] and b = (1, 1).  Its L = n - 1
    steps run in C chunks of c = ceil(sqrt(L)) steps; step l of chunk k
    reaches

        s[kc + l + 1] = A^(l+1) s[kc] + sum_{q <= l} A^(l-q) b w[kc + q].

    impulse (2c, c) holds A^(l-q) b in rows (l, x/v) and column q, the
    forced part of a chunk; powers (2c, 2) stacks A^(l+1), the part from
    the chunk's start; carry (2C, 2C) is the block-Toeplitz matrix whose
    block (k, j), j <= k, is (A^c)^(k-j): it takes s[0] and the forced ends
    of chunks 0..C-2 to every chunk start.  Each power is the product of
    the one before it with A, or A^c.  A grid of one sample has no step
    and no operators (None).
    """
    L = len(tgrid) - 1
    if L < 1:
        return None
    c = math.isqrt(L - 1) + 1
    C = -(-L // c)
    dt = tgrid[1] - tgrid[0]
    scale = params.tau ** 2
    kd = params.tau * params.d * dt / scale
    kk = params.k * dt * dt / scale
    A = np.array([[1.0 - kk, 1.0 - kd], [-kk, 1.0 - kd]])
    pw = np.empty((c + 1, 2, 2))            # A^0 .. A^c
    pw[0] = np.eye(2)
    for l in range(c):
        np.matmul(A, pw[l], out=pw[l + 1])
    pc = np.empty((C, 2, 2))                # (A^c)^0 .. (A^c)^(C-1)
    pc[0] = np.eye(2)
    for k in range(1, C):
        np.matmul(pw[c], pc[k - 1], out=pc[k])
    resp = pw[:c].sum(axis=2)               # A^l b
    impulse = np.zeros((c, 2, c))
    for l in range(c):
        impulse[l, :, :l + 1] = resp[l::-1].T
    carry = np.zeros((C, 2, C, 2))
    for k in range(C):
        carry[k, :, :k + 1] = pc[k::-1].transpose(1, 0, 2)
    ops = (impulse.reshape(2 * c, c), carry.reshape(2 * C, 2 * C),
           pw[1:].reshape(2 * c, 2))
    for arr in ops:
        arr.flags.writeable = False
    return ops


def rollout_reference(params, start, theta, tgrid, phi=None, ops=None):
    """Integrate the DMP with forcing weights theta (M, D) over tgrid;
    returns (x_d, xdot_d, xddot_d) arrays.

    Sample i holds the state at tgrid[i]; the acceleration is the RHS
    evaluated there.  phi is the basis matrix params.basis.eval over the
    phases 1 - tgrid / tau, shape (n, M), and ops the operators of
    compile_reference(params, tgrid); each is formed here when not given
    (TaskSetup compiles both once).  Sample 0 is start with zero velocity.
    The inputs w = dt^2 (k g + f) / tau^2 of the steps are laid out one
    chunk per column block, so one product with impulse gives every
    chunk's forced part, one with carry every chunk start, and one with
    powers adds each start's part.  The forcing, xdot_d and xddot_d are
    formed in place.
    """
    n = len(tgrid)
    D = len(start)
    s_all = 1.0 - np.asarray(tgrid) / params.tau
    if phi is None:
        phi = params.basis.eval(s_all)
    forcing = phi @ theta                        # (n, D)
    forcing *= s_all[:, None]
    scale = params.tau ** 2
    g = np.asarray(params.goal, float)
    x = np.empty((n, D))
    x[0] = start
    xd = np.zeros((n, D))
    if n > 1:
        impulse, carry, powers = (compile_reference(params, tgrid)
                                  if ops is None else ops)
        L, c, C = n - 1, impulse.shape[1], len(carry) // 2
        dt = tgrid[1] - tgrid[0]
        w = np.zeros((C * c, D))                 # the last chunk padded
        np.add(forcing[:-1], params.k * g, out=w[:L])
        w *= dt * dt / scale
        # Columns (chunk k, coordinate d); rows (step l, x/v) of the states.
        s = impulse @ w.reshape(C, c, D).transpose(1, 0, 2).reshape(c, C * D)
        ends = np.empty((C, 2, D))               # s[0], then forced ends
        ends[0, 0], ends[0, 1] = start, 0.0
        ends[1:] = s[-2:, :-D].reshape(2, C - 1, D).transpose(1, 0, 2)
        starts = (carry @ ends.reshape(2 * C, D)).reshape(C, 2, D)
        s += powers @ starts.transpose(1, 0, 2).reshape(2, C * D)
        s = s.reshape(c, 2, C, D).transpose(2, 0, 1, 3).reshape(C * c, 2, D)
        x[1:] = s[:L, 0]
        np.divide(s[:L, 1], dt, out=xd[1:])
    xdd = np.subtract(g, x)
    xdd *= params.k
    xdd -= params.tau * params.d * xd
    xdd += forcing
    xdd /= scale
    return x, xd, xdd


def min_jerk(start, goal, T, t):
    """Closed-form minimum-jerk profile; returns (x, xd, xdd) at times t."""
    start = np.asarray(start, float)
    goal = np.asarray(goal, float)
    u = (np.asarray(t, float) / T)[..., None]
    p = 10 * u ** 3 - 15 * u ** 4 + 6 * u ** 5
    pd = (30 * u ** 2 - 60 * u ** 3 + 30 * u ** 4) / T
    pdd = (60 * u - 180 * u ** 2 + 120 * u ** 3) / T ** 2
    delta = goal - start
    return start + delta * p, delta * pd, delta * pdd


def fit_min_jerk(start, tgrid, params):
    """Regularized least-squares fit of the forcing weights to the minimum-jerk
    reach from start to params.goal over params.tau, sampled on tgrid, in
    params.basis, with ridge term params.lam_reg.

    The reach runs on the DMP's own phase s_t = 1 - t / tau, as
    rollout_reference does.  The regression uses the design matrix
    gamma(t) Phi(s_t), avoiding the division by the vanishing phase at
    t = tau.  Normal equations that are exactly singular, or whose solution
    is not finite, raise a ConfigError naming the [dmp] keys that set them.
    """
    goal = np.asarray(params.goal, float)
    x, xd, xdd = min_jerk(start, goal, params.tau, tgrid)
    s = 1.0 - np.asarray(tgrid) / params.tau
    target = (params.tau ** 2 * xdd + params.tau * params.d * xd
              - params.k * (goal - x))
    A = s[:, None] * params.basis.eval(s)
    gram = A.T @ A + params.lam_reg * np.eye(params.basis.count)
    try:
        theta = np.linalg.solve(gram, A.T @ target)
        if not np.isfinite(theta).all():
            raise np.linalg.LinAlgError("the weights are not finite")
    except np.linalg.LinAlgError as exc:
        raise ConfigError(
            f"the min-jerk fit's normal equations are singular ({exc}): "
            f"raise dmp_regularization above {params.lam_reg:g}, lower "
            f"dmp_rbf_count ({params.basis.count}), or move "
            f"dmp_intersection_height away from 0 or 1") from exc
    return theta
