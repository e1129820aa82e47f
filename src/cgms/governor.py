"""Certificate-aware gain contraction under actuator box constraints.

The control law is affine in (K, D), and the slack-scaled gains are affine
in beta, so the commanded torque is tau(beta) = tau0 + beta tau1.  The
governor picks the largest beta in [0, 1] keeping tau(beta) inside the
per-joint box; scaling the slacks by sqrt(beta) preserves the Lyapunov
certificate pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleFloorError

ZERO_SLOPE_TOL = 1e-12
BOX_TOL = 1e-12         # a torque this far outside the box still counts as in it

FR3_TORQUE_LIMITS = np.array([87.0, 87.0, 87.0, 87.0, 12.0, 12.0, 12.0])


@dataclass(frozen=True)
class TorqueLimits:
    """Per-joint actuator box."""

    tau_min: np.ndarray
    tau_max: np.ndarray

    def __post_init__(self):
        if not np.all(self.tau_min < self.tau_max):
            raise ValueError("tau_min must be elementwise below tau_max")

    @staticmethod
    def box(limit, n):
        lim = np.full(n, float(limit))
        return TorqueLimits(tau_min=-lim, tau_max=lim)

    @staticmethod
    def fr3_half():
        return TorqueLimits(tau_min=-FR3_TORQUE_LIMITS / 2,
                            tau_max=FR3_TORQUE_LIMITS / 2)

    def contains(self, tau, tol=0.0):
        return bool(np.all(tau >= self.tau_min - tol)
                    and np.all(tau <= self.tau_max + tol))


def beta_star_detail(tau0, tau1, limits):
    """Largest beta in [0, 1] keeping tau0 + beta tau1 inside the box,
    plus the binding joint (None when beta = 1).

    Joints with zero slope impose no bound.  An infeasible tau0 (the beta=0
    floor already saturates) raises rather than clamping.
    """
    if not limits.contains(tau0, tol=BOX_TOL):
        raise InfeasibleFloorError("torque at beta = 0 violates the box limits")
    beta, joint = 1.0, None
    for i in range(len(tau0)):
        if tau1[i] > ZERO_SLOPE_TOL:
            bound = (limits.tau_max[i] - tau0[i]) / tau1[i]
        elif tau1[i] < -ZERO_SLOPE_TOL:
            bound = (limits.tau_min[i] - tau0[i]) / tau1[i]
        else:
            continue
        if bound < beta:
            beta, joint = bound, i
    return float(min(max(beta, 0.0), 1.0)), joint
