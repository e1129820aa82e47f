"""Uniform-ultimate-boundedness machinery for certified gain schedules.

Given a schedule with strict certificate margins (eps_D, eps_K), the error
dynamics H xtdd + D(t) xtd + K(t) xt = u_res(t) with a bounded residual
admit the dissipation inequality

    Vdot_aug <= -c1 ||z||^2 + c2 ||u_res||^2,   z = (xtd, xt),

for the augmented storage V_aug = V + (alpha/2) xt^T D xt, and hence an
ultimate bound ||z|| <= sqrt((m2'/m1') (c2/c1)) * u_bar.  This module
evaluates the constant chain exactly and verifies both the inequality and
the bound on the error loop a rollout executes (the plant's Euler step
under the schedule's gains), where sampled damping can fail to dissipate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ContractViolationError,
    IntegrationDivergedError,
    MarginTooSmallError,
)
from .gains import eigenvalues, vec_triangle

# The largest storage-rate violation dissipation_check passes, and how far
# past the radius uub_empirical lets a simulated trajectory go.
DISSIPATION_TOL = 1e-5
UUB_TOL = 1e-6
# The most error-loop maps formed and scanned at once: memory does not grow
# with the horizon beyond the traces.
LOOP_BLOCK = 1000


def _square(x):
    """x ** 2, or inf where Python's float ** raises OverflowError.  Not
    x * x: libm's pow, which ** calls, differs from it in the last bit on
    about 0.1% of values."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RobustnessInputs:
    """Schedule bounds, strict margins, and the free Young parameters."""

    alpha: float
    h_min: float
    h_max: float
    k_lower: float
    k_upper: float          # sup eigenvalue of K(t) over the horizon
    d_upper: float          # sup ||D(t)||
    eps_D: float
    eps_K: float
    gamma: float
    eta: float
    u_bar: float

    def validate(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise MarginTooSmallError(
                    f"{f.name} must be finite, got {getattr(self, f.name)}")
        if min(self.alpha, self.h_min, self.h_max, self.k_lower,
               self.k_upper, self.d_upper, self.u_bar) < 0:
            raise MarginTooSmallError("all bounds must be nonnegative")
        if self.eps_D <= 0 or self.eps_K <= 0:
            raise MarginTooSmallError("strict margins eps_D, eps_K must be > 0")
        if not 0.0 < self.gamma < self.eps_D:
            raise MarginTooSmallError(
                f"need 0 < gamma < eps_D, got gamma={self.gamma}, "
                f"eps_D={self.eps_D}")
        if not 0.0 < self.eta < self.eps_D - self.gamma:
            raise MarginTooSmallError(
                f"need 0 < eta < eps_D - gamma, got eta={self.eta}, "
                f"eps_D - gamma={self.eps_D - self.gamma}")
        # A NaN floor (0 * inf) fails the test as well.
        floor = (2.0 * self.alpha * self.k_upper
                 + _square(self.alpha) * _square(self.d_upper) / self.gamma)
        if not self.eps_K > floor:
            raise MarginTooSmallError(
                f"need eps_K > 2 alpha k_upper + alpha^2 d_upper^2 / gamma "
                f"= {floor:.6g}, got eps_K = {self.eps_K:.6g}")


@dataclass(frozen=True)
class UubResult:
    """Dissipation constants and the resulting ultimate bound."""

    c1: float
    c2: float
    m1p: float
    m2p: float
    decay_rate: float
    radius: float

    def to_dict(self):
        return {"c1": self.c1, "c2": self.c2, "m1_prime": self.m1p,
                "m2_prime": self.m2p, "decay_rate": self.decay_rate,
                "radius": self.radius}


def uub_constants(inp):
    """Exact evaluation of the dissipation/bound constant chain."""
    inp.validate()
    c1 = min(inp.alpha * inp.h_min + inp.eps_D - inp.gamma - inp.eta,
             inp.eps_K / 2.0 - inp.alpha * inp.k_upper
             - _square(inp.alpha) * _square(inp.d_upper) / (2.0 * inp.gamma))
    c2 = 1.0 / (4.0 * inp.eta)
    m1p = 0.5 * min(inp.h_min, inp.k_lower + inp.alpha * inp.eps_D)
    m2p = 0.5 * max(inp.h_max, inp.k_upper + inp.alpha * inp.d_upper)
    if c1 <= 0:
        raise MarginTooSmallError(f"c1 = {c1:.6g} is not positive")
    radius = math.sqrt((m2p / m1p) * (c2 / c1)) * inp.u_bar
    return UubResult(c1=c1, c2=c2, m1p=m1p, m2p=m2p,
                     decay_rate=c1 / m2p, radius=radius)


def inputs_from_schedule(schedule, u_bar, optimize=False):
    """Extract the schedule-dependent bounds over its time grid.

    gamma and eta are eps_D/2 and eps_D/4; with optimize=True a coarse grid
    search over admissible gamma maximizes c1.
    """
    H = schedule.H
    h_eigs = np.linalg.eigvalsh(H)
    k_eigs = eigenvalues(vec_triangle(schedule.K).T, len(H))
    # D = alpha H + G_D is symmetric, so its 2-norm is its largest
    # eigenvalue magnitude.
    d_norm = np.abs(eigenvalues(vec_triangle(schedule.D).T, len(H))).max()
    rep = schedule.report()
    eps_D, eps_K = rep.eps_D, rep.eps_K
    base = dict(alpha=schedule.alpha, h_min=float(h_eigs.min()),
                h_max=float(h_eigs.max()), k_lower=float(k_eigs.min()),
                k_upper=float(k_eigs.max()), d_upper=float(d_norm),
                eps_D=eps_D, eps_K=eps_K, u_bar=u_bar)
    default = RobustnessInputs(gamma=eps_D / 2, eta=eps_D / 4, **base)
    if not optimize:
        return default
    # With no admissible pair the default stands, so that the error names
    # the failing inequality.
    best, best_c1 = default, -np.inf
    for gfrac in np.linspace(0.05, 0.95, 19):
        g = gfrac * eps_D
        # c1 never grows with eta and admissibility does not depend on it,
        # so the smallest grid value 0.05 (eps_D - gamma) is always best.
        cand = RobustnessInputs(gamma=g, eta=0.05 * (eps_D - g), **base)
        try:
            res = uub_constants(cand)
        except MarginTooSmallError:
            continue
        if res.c1 > best_c1:
            best, best_c1 = cand, res.c1
    return best


# ---------------------------------------------------------------------------
# Simulation-based checks
# ---------------------------------------------------------------------------

def _sample(u_res, t, m):
    """The residual sampled once on the times t, checked to be (len(t), m)."""
    U = np.asarray(u_res(t), float)
    if U.shape != (len(t), m):
        raise ContractViolationError(
            f"u_res(t) for t of shape {t.shape} must return shape "
            f"{(len(t), m)}, got {U.shape}")
    return U


def euler_step(dt, Minv):
    """(P, Q) of the semi-implicit Euler step v' = v + dt Minv f,
    x' = x + dt v' on s = (x, v) as s' = P s + Q f."""
    m = len(Minv)
    return (np.eye(2 * m) + dt * np.eye(2 * m, k=m),
            np.vstack([dt * dt * Minv, dt * Minv]))


@np.errstate(over="ignore", invalid="ignore")
def affine_scan(maps, s0):
    """The states after each map of s[i+1] = maps[i] s[i], s[0] = s0, for
    L maps (N, N) and s0 a state (N,) or columns (N, R), by a two-level
    scan in chunks of ceil(sqrt(L)) maps: all chunks are composed at once
    and in place (overwriting maps), the state is carried from chunk start
    to chunk start, and two batched products give the states within the
    chunks.  No maps give no states.  An unstable loop overflows to inf or
    NaN without a RuntimeWarning: the callers check the states they keep
    for finiteness and raise IntegrationDivergedError."""
    L, N = maps.shape[:2]
    if not L:
        return np.empty((0,) + s0.shape)
    R = s0.size // N
    c = math.isqrt(L - 1) + 1
    C = -(-L // c)
    prod = np.empty((C, N, N))
    for j in range(1, c):
        Z = maps[j::c]          # step j of every chunk that has one
        Z[...] = np.matmul(Z, maps[j - 1::c][:len(Z)], out=prod[:len(Z)])
    S = s0.reshape(1, N, R).repeat(C, axis=0)   # the chunk starts
    for k in range(C - 1):
        np.dot(maps[k * c + c - 1], S[k], out=S[k + 1])
    F = L // c * c
    out = np.empty((L, N, R))
    np.matmul(maps[:F].reshape(-1, c * N, N), S[:F // c],
              out=out[:F].reshape(-1, c * N, R))
    np.matmul(maps[F:].reshape(-1, N), S[C - 1], out=out[F:].reshape(-1, R))
    return out.reshape((L,) + s0.shape)


def simulate_error_dynamics(schedule, residuals, z0=None):
    """The error loop H xtdd + D(t) xtd + K(t) xt = u(t) for every residual
    force u of the family ``residuals``, stepped as learning.rollout steps
    it, in one pass.

    Each residual maps times (k,) to forces (k, m) and is called once, on
    the grid; any other result shape is a ContractViolationError, and so
    are an empty family and a grid of fewer than 2 samples.  The initial
    error z0 = (xtd, xt), shared by the family, must have shape (2m,).
    Returns (t, XT, XTD), where XT[r] and XTD[r], of shape (n, m), are xt
    and xtd under residual r on the schedule grid.

    With (P, Q) = euler_step(dt, H^-1), step i is e' = (P - Q [K_i, D_i]) e
    + Q u_i on e = (xt, xtd): rollout's P + Q C_i, where the plant's inertia
    cancels.  On the family's columns [e; e_r] (e_r picks member r's
    forcing) the steps are [[P - Q [K_i, D_i], Q U_i], [0, I]], U_i the
    residuals at t_i, scanned (affine_scan) LOOP_BLOCK maps at a time.
    Raises IntegrationDivergedError if a state becomes non-finite.
    """
    m, n2, tgrid = schedule.m, 2 * schedule.m, schedule.t
    z0 = np.zeros(n2) if z0 is None else np.asarray(z0, float)
    if z0.shape != (n2,):
        raise ContractViolationError(
            f"z0 must have shape {(n2,)}, got {z0.shape}")
    residuals = list(residuals)
    if not residuals:
        raise ContractViolationError("the residual family is empty")
    n, R = len(tgrid), len(residuals)
    if n < 2:
        raise ContractViolationError(
            f"the error loop needs at least 2 grid samples, got {n}")
    P, Q = euler_step(tgrid[1] - tgrid[0], np.linalg.inv(schedule.H))
    # out[r] is member r's trajectory, rows (xt, xtd); until its block reads
    # it, row i holds the residual at t_i in the xtd slot.
    out = np.empty((R, n, n2))
    for r, u_res in enumerate(residuals):
        out[r, :, m:] = _sample(u_res, tgrid, m)
    S = np.eye(n2 + R, R, -n2)
    S[:n2] = np.r_[z0[m:], z0[:m]][:, None]
    # affine_scan keeps the maps' last rows [0, I].
    T = np.tile(np.eye(n2 + R), (min(LOOP_BLOCK, n - 1), 1, 1))
    for a in range(0, n - 1, LOOP_BLOCK):
        Tb = T[:n - 1 - a]
        b = a + len(Tb)
        Tb[:, :n2, :n2] = P - Q @ np.dstack((schedule.K[a:b], schedule.D[a:b]))
        np.matmul(Q, out[:, a:b, m:].transpose(1, 2, 0), out=Tb[:, :n2, n2:])
        out[:, a] = S[:n2].T        # row a's samples are read
        states = affine_scan(Tb, S)
        out[:, a + 1:b] = states[:-1, :n2].transpose(2, 0, 1)
        S = states[-1]
    out[:, -1] = S[:n2].T
    if not np.isfinite(out).all():
        raise IntegrationDivergedError("error-dynamics state diverged")
    return tgrid, out[:, :, :m], out[:, :, m:]


def dissipation_check(schedule, inp, u_res, z0=None):
    """Verify Vdot_aug <= -c1 ||z||^2 + c2 ||u_res||^2 along the error loop.

    The storage derivative is taken by central differences of the storage
    on the loop's samples, so the schedule grid needs at least 3 samples.
    u_res follows simulate_error_dynamics' array contract, times (k,) to
    forces (k, m); ||u_res||^2 comes from one more call on the interior
    grid.  c1 and c2 are uub_constants(inp)'s, and the initial error
    z0 = (xtd, xt) can be given.  Returns a report dict with the maximum
    violation.
    """
    rep = schedule.report()
    if not rep.passes_strict:
        raise MarginTooSmallError("schedule lacks strict certificate margins")
    if len(schedule.t) < 3:
        raise ContractViolationError(
            f"central differences need at least 3 grid samples, got "
            f"{len(schedule.t)}")
    res = uub_constants(inp)
    tgrid, (XT,), (XTD,) = simulate_error_dynamics(schedule, [u_res], z0=z0)
    h = tgrid[1] - tgrid[0]
    alpha, H = schedule.alpha, schedule.H
    V = (0.5 * np.einsum("ni,ij,nj->n", XTD, H, XTD)
         + 0.5 * np.einsum("ni,nij,nj->n", XT, schedule.K, XT)
         + 0.5 * alpha * np.einsum("ni,nij,nj->n", XT, schedule.D, XT))
    vdot = (V[2:] - V[:-2]) / (2.0 * h)
    z2 = (XT ** 2 + XTD ** 2).sum(axis=1)[1:-1]
    U = _sample(u_res, tgrid[1:-1], schedule.m)
    u2 = np.einsum("ni,ni->n", U, U)
    violation = vdot - (-res.c1 * z2 + res.c2 * u2)
    max_violation = float(violation.max())
    return {
        "max_violation": max_violation,
        "passes": bool(max_violation <= DISSIPATION_TOL),
        "tol": DISSIPATION_TOL,
        "c1": res.c1,
        "c2": res.c2,
    }


def uub_empirical(schedule, inp, u_res_family):
    """Check the ultimate bound on simulated trajectories.

    Trajectories start at z = 0, for which the comparison-lemma bound
    ||z(t)|| <= radius holds for every t (the transient term vanishes), so
    the horizon needs not cover the analytic settling time 5 m2'/c1.
    Each member of u_res_family follows simulate_error_dynamics' array
    contract, times (k,) to forces (k, m), and the family is simulated in
    one pass.  Returns (all_inside, worst_margin) with margin = radius -
    max ||z||.  An empty family is a ContractViolationError, and a diverged
    trajectory raises IntegrationDivergedError.
    """
    res = uub_constants(inp)
    _, XT, XTD = simulate_error_dynamics(schedule, u_res_family)
    znorm = np.sqrt((XT ** 2 + XTD ** 2).sum(axis=2)).max()
    worst = res.radius - znorm
    return bool(worst >= -UUB_TOL), float(worst)


def standard_residuals(u_bar, m, seed=0):
    """Three residual signals at the bound: zero, constant, and sinusoidal.

    Each maps an array of times of shape (k,) to forces of shape (k, m).
    """
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(m)
    direction /= np.linalg.norm(direction)
    e1 = np.zeros(m)
    e1[0] = 1.0
    return [
        lambda t: np.zeros((len(t), m)),
        lambda t: np.tile(u_bar * direction, (len(t), 1)),
        lambda t: np.outer(u_bar * np.sin(2.0 * math.pi * t), e1),
    ]
