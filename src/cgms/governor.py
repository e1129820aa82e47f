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

    def outside(self, tau):
        """Mask of the entries of tau outside the box by more than BOX_TOL,
        elementwise; a NaN is never outside."""
        return (tau < self.tau_min - BOX_TOL) | (tau > self.tau_max + BOX_TOL)


def beta_star_detail(tau0, tau1, limits):
    """Largest beta in [0, 1] keeping tau0 + beta tau1 inside the box,
    plus the binding joint, the first with the least bound (None when
    beta = 1).

    Joints whose slope is NaN or within ZERO_SLOPE_TOL of zero impose no
    bound.  An infeasible tau0 (the beta=0 floor already saturates, or
    holds a NaN) raises rather than clamping.
    """
    if limits.outside(tau0).any() or np.isnan(tau0).any():
        raise InfeasibleFloorError("torque at beta = 0 violates the box limits")
    room = np.where(tau1 > 0, limits.tau_max, limits.tau_min) - tau0
    bound = np.divide(room, tau1, out=np.full(len(tau0), np.inf),
                      where=np.abs(tau1) > ZERO_SLOPE_TOL)
    joint = int(bound.argmin())
    if not bound[joint] < 1.0:
        return 1.0, None
    return max(float(bound[joint]), 0.0), joint
