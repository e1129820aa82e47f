"""The task-space point-mass plant and its operational-space terms.

The training rollout runs on a point mass with constant task inertia Lam
and gravity wrench g: Lam xdd = tau - g.

All functions are pure; identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PlantModel:
    """Point mass with constant SPD task inertia ``lambda0`` (m, m) and a
    constant task-space gravity wrench (m,)."""

    m: int
    lambda0: np.ndarray
    gravity_wrench: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambda0, dtype=float)
        if lam.shape != (self.m, self.m):
            raise ValueError("lambda0 shape mismatch")
        if not np.allclose(lam, lam.T, atol=1e-12):
            raise ValueError("lambda0 must be symmetric")
        if np.linalg.eigvalsh(lam).min() <= 0.0:
            raise ValueError("lambda0 must be positive definite")


def initial_state(model, x):
    """The homogeneous start state s0 = (x, 0, 1): at rest at x."""
    return np.r_[np.asarray(x, float), np.zeros(model.m), 1.0]


def operational_space_terms(model):
    """Task inertia Lam and gravity wrench g, constant for the point mass."""
    return np.array(model.lambda0), np.array(model.gravity_wrench)
