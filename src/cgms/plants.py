"""Analytic plants, the OSID variable-impedance control law, and
fixed-step integrators.

The training rollout runs on a task-space point mass with constant inertia
(identity Jacobian, joint space == task space).  The planar two-link arm
with point masses at the link tips, the RK4 plant step and the closed-loop
error step are oracles: tests compare the control law and the integrators
against them on a configuration-dependent inertia with Coriolis and
gravity terms.

All functions are pure; identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError, SingularConfigurationError

POINT_MASS = "point-mass-task"
PLANAR_TWO_LINK = "planar-two-link"

JACOBIAN_SV_FLOOR = 1e-6


@dataclass(frozen=True)
class PlantModel:
    """Analytic plant description.

    For the point-mass kind the task inertia ``lambda0`` is constant, the
    Jacobian is identity and ``m == n``.  For the two-link kind the links
    carry point masses at their tips and move in a vertical plane.
    """

    kind: str
    m: int
    n: int
    lambda0: np.ndarray | None = None       # (m, m) SPD, point-mass only
    gravity_wrench: np.ndarray | None = None  # task-space gravity, point-mass
    link_masses: tuple[float, float] = (1.0, 1.0)
    link_lengths: tuple[float, float] = (0.5, 0.5)
    gravity: float = 9.81

    def __post_init__(self):
        if self.kind not in (POINT_MASS, PLANAR_TWO_LINK):
            raise ValueError(f"unknown plant kind {self.kind!r}")
        if self.kind == POINT_MASS:
            lam = np.asarray(self.lambda0, dtype=float)
            if lam.shape != (self.m, self.m):
                raise ValueError("lambda0 shape mismatch")
            if not np.allclose(lam, lam.T, atol=1e-12):
                raise ValueError("lambda0 must be symmetric")
            if np.linalg.eigvalsh(lam).min() <= 0.0:
                raise ValueError("lambda0 must be positive definite")
            if self.m != self.n:
                raise ValueError("point-mass plant requires m == n")
        else:
            if min(self.link_masses) <= 0 or min(self.link_lengths) <= 0:
                raise ValueError("link masses and lengths must be positive")

    @staticmethod
    def point_mass(lambda0=None, m=3, gravity_wrench=None):
        lam = np.eye(m) if lambda0 is None else np.asarray(lambda0, float)
        g = np.zeros(m) if gravity_wrench is None else np.asarray(gravity_wrench, float)
        return PlantModel(kind=POINT_MASS, m=m, n=m, lambda0=lam, gravity_wrench=g)

    @staticmethod
    def planar_two_link(masses=(1.0, 1.0), lengths=(0.5, 0.5), gravity=9.81):
        return PlantModel(kind=PLANAR_TWO_LINK, m=2, n=2,
                          link_masses=tuple(masses), link_lengths=tuple(lengths),
                          gravity=gravity)


@dataclass(frozen=True)
class PlantState:
    """Joint and task kinematic state at time t."""

    q: np.ndarray
    qdot: np.ndarray
    x: np.ndarray
    xdot: np.ndarray
    t: float = 0.0


@dataclass(frozen=True)
class ReferenceSample:
    """One sample of a twice-differentiable task-space reference."""

    x_d: np.ndarray
    xdot_d: np.ndarray
    xddot_d: np.ndarray


def initial_state(model, q=None, qdot=None):
    """Build a consistent PlantState from joint coordinates (default rest)."""
    q = np.zeros(model.n) if q is None else np.asarray(q, float)
    qdot = np.zeros(model.n) if qdot is None else np.asarray(qdot, float)
    x, xdot = forward_kinematics(model, q, qdot)
    return PlantState(q=q, qdot=qdot, x=x, xdot=xdot, t=0.0)


def forward_kinematics(model, q, qdot):
    """Task position and velocity from joint coordinates."""
    if model.kind == POINT_MASS:
        return np.array(q, float), np.array(qdot, float)
    l1, l2 = model.link_lengths
    c1, s1 = np.cos(q[0]), np.sin(q[0])
    c12, s12 = np.cos(q[0] + q[1]), np.sin(q[0] + q[1])
    x = np.array([l1 * c1 + l2 * c12, l1 * s1 + l2 * s12])
    J = _two_link_jacobian(model, q)
    return x, J @ qdot


def _two_link_jacobian(model, q):
    l1, l2 = model.link_lengths
    s1, c1 = np.sin(q[0]), np.cos(q[0])
    s12, c12 = np.sin(q[0] + q[1]), np.cos(q[0] + q[1])
    return np.array([[-l1 * s1 - l2 * s12, -l2 * s12],
                     [l1 * c1 + l2 * c12, l2 * c12]])


def _two_link_jacobian_dot(model, q, qdot):
    l1, l2 = model.link_lengths
    d1, d12 = qdot[0], qdot[0] + qdot[1]
    c1, s1 = np.cos(q[0]), np.sin(q[0])
    c12, s12 = np.cos(q[0] + q[1]), np.sin(q[0] + q[1])
    return np.array([[-l1 * c1 * d1 - l2 * c12 * d12, -l2 * c12 * d12],
                     [-l1 * s1 * d1 - l2 * s12 * d12, -l2 * s12 * d12]])


def joint_space_terms(model, q, qdot):
    """Joint-space M(q), C(q, qdot) qdot, g(q)."""
    if model.kind == POINT_MASS:
        return (np.array(model.lambda0), np.zeros(model.n),
                np.array(model.gravity_wrench))
    m1, m2 = model.link_masses
    l1, l2 = model.link_lengths
    g = model.gravity
    c2, s2 = np.cos(q[1]), np.sin(q[1])
    M = np.array([
        [(m1 + m2) * l1 ** 2 + m2 * l2 ** 2 + 2 * m2 * l1 * l2 * c2,
         m2 * l2 ** 2 + m2 * l1 * l2 * c2],
        [m2 * l2 ** 2 + m2 * l1 * l2 * c2, m2 * l2 ** 2],
    ])
    h = -m2 * l1 * l2 * s2
    Cqd = np.array([
        h * qdot[1] * qdot[0] + h * (qdot[0] + qdot[1]) * qdot[1],
        -h * qdot[0] * qdot[0],
    ])
    c1, c12 = np.cos(q[0]), np.cos(q[0] + q[1])
    grav = np.array([(m1 + m2) * g * l1 * c1 + m2 * g * l2 * c12,
                     m2 * g * l2 * c12])
    return M, Cqd, grav


def jacobian(model, q):
    if model.kind == POINT_MASS:
        return np.eye(model.m)
    return _two_link_jacobian(model, q)


def operational_space_terms(model, state):
    """Task-space inertia, Coriolis wrench, gravity wrench, and Jacobian.

    Returns (Lam, mu, p, J) with Lam = (J M^-1 J^T)^-1.  Raises
    SingularConfigurationError when the smallest singular value of J drops
    below 1e-6.
    """
    if model.kind == POINT_MASS:
        return (np.array(model.lambda0), np.zeros(model.m),
                np.array(model.gravity_wrench), np.eye(model.m))
    q, qdot = state.q, state.qdot
    J = _two_link_jacobian(model, q)
    if np.linalg.svd(J, compute_uv=False).min() < JACOBIAN_SV_FLOOR:
        raise SingularConfigurationError(
            f"Jacobian near-singular at q={q}")
    M, Cqd, grav = joint_space_terms(model, q, qdot)
    Minv = np.linalg.inv(M)
    Lam = np.linalg.inv(J @ Minv @ J.T)
    Lam = 0.5 * (Lam + Lam.T)
    Jdot = _two_link_jacobian_dot(model, q, qdot)
    mu = Lam @ (J @ (Minv @ Cqd) - Jdot @ qdot)
    p = Lam @ (J @ (Minv @ grav))
    return Lam, mu, p, J


def commanded_accel(state, ref, D, K, H):
    """Impedance-shaping commanded acceleration.

    xdd_cmd = xdd_d - H^-1 (D (xdot - xdot_d) + K (x - x_d)).
    """
    xt = state.x - ref.x_d
    xtd = state.xdot - ref.xdot_d
    return ref.xddot_d - np.linalg.solve(H, D @ xtd + K @ xt)


def osid_wrench(Lam, mu, p, f_e, H, xddot_cmd):
    """Operational-space inverse-dynamics wrench.

    f_c = Lam xdd_cmd + mu + p + (Lam H^-1 - I) f_e; the last term is the
    external-wrench feedforward and vanishes when Lam == H.
    """
    fe = np.asarray(f_e, float)
    ff = Lam @ np.linalg.solve(H, fe) - fe
    return Lam @ xddot_cmd + mu + p + ff


def wrench_to_torque(J, f_c):
    """Map a task wrench to joint torques: tau = J^T f."""
    return J.T @ np.asarray(f_c, float)


def plant_step(model, state, tau_c, f_e, dt):
    """One semi-implicit Euler step of the joint-space dynamics."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    fe = np.asarray(f_e, float)
    M, Cqd, grav = joint_space_terms(model, state.q, state.qdot)
    J = jacobian(model, state.q)
    qdd = np.linalg.solve(M, tau_c + J.T @ fe - Cqd - grav)
    qdot = state.qdot + qdd * dt
    q = state.q + qdot * dt
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qdot))):
        raise IntegrationDivergedError(f"state diverged at t={state.t}")
    x, xdot = forward_kinematics(model, q, qdot)
    return PlantState(q=q, qdot=qdot, x=x, xdot=xdot, t=state.t + dt)


def plant_rhs(model, q, qdot, tau_c, fe):
    """Continuous joint-space dynamics (qdot, qddot); used by the RK4 oracle."""
    M, Cqd, grav = joint_space_terms(model, q, qdot)
    J = jacobian(model, q)
    qdd = np.linalg.solve(M, tau_c + J.T @ fe - Cqd - grav)
    return qdot, qdd


def plant_step_rk4(model, state, tau_c, f_e, dt):
    """Classical RK4 step (zero-order-hold torque); reference integrator for
    oracle runs only, not used on the control path."""
    fe = np.asarray(f_e, float)
    q, qd = state.q, state.qdot

    k1 = plant_rhs(model, q, qd, tau_c, fe)
    k2 = plant_rhs(model, q + 0.5 * dt * k1[0], qd + 0.5 * dt * k1[1], tau_c, fe)
    k3 = plant_rhs(model, q + 0.5 * dt * k2[0], qd + 0.5 * dt * k2[1], tau_c, fe)
    k4 = plant_rhs(model, q + dt * k3[0], qd + dt * k3[1], tau_c, fe)
    qn = q + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    qdn = qd + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    x, xdot = forward_kinematics(model, qn, qdn)
    return PlantState(q=qn, qdot=qdn, x=x, xdot=xdot, t=state.t + dt)


def closed_loop_error_step(xt, xtd, H, D, K, f_e, dt):
    """One semi-implicit Euler step of H xtdd + D xtd + K xt = f_e.

    Uses the same update ordering as plant_step, so the exact point-mass
    plant under OSID and this direct integration agree to round-off.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    fe = np.asarray(f_e, float)
    xtdd = np.linalg.solve(H, fe - D @ xtd - K @ xt)
    xtd_next = xtd + xtdd * dt
    xt_next = xt + xtd_next * dt
    if not (np.all(np.isfinite(xt_next)) and np.all(np.isfinite(xtd_next))):
        raise IntegrationDivergedError("error state diverged")
    return xt_next, xtd_next
