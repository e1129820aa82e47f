"""The point-mass plant terms and the closed-loop error step."""

from dataclasses import replace

import numpy as np
import pytest

from cgms.config import compile_setup, load_config
from cgms.governor import TorqueLimits
from cgms.learning import initial_policy, rollout
from cgms.plants import PlantModel, initial_state, operational_space_terms
from test_learning import (
    closed_loop_error_step,
    error_equation_deviation,
    offset_reference,
)


def handover_rollout(model, H, T=1.0):
    """The initial policy's ungoverned handover rollout on ``model``."""
    setup, _ = compile_setup(load_config(overrides={"run_horizon": T}))
    setup = replace(setup, model=model, H=H, limits=TorqueLimits.box(1e3, 3))
    return rollout(initial_policy(setup), None, setup)


def test_point_mass_terms_are_identity():
    model = PlantModel(3, np.eye(3), np.zeros(3))
    s0 = initial_state(model, np.array([0.1, 0.2, 0.3]))
    Lam, g = operational_space_terms(model)
    assert np.array_equal(s0, [0.1, 0.2, 0.3, 0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(Lam, np.eye(3))
    assert np.array_equal(g, np.zeros(3))


@pytest.mark.parametrize("lam, message", [
    (np.eye(2), "shape"),
    (np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
     "symmetric"),
    (np.diag([1.0, 0.0, 1.0]), "positive definite"),
])
def test_plant_model_rejects_a_bad_task_inertia(lam, message):
    with pytest.raises(ValueError, match=message):
        PlantModel(3, lam, np.zeros(3))


def test_osid_substitution_reproduces_error_dynamics(rng, monkeypatch):
    # Substituting the rollout's commanded wrench into the task dynamics
    # Lam xdd + p = f_c must reduce to H xtdd + D xtd + K xt = 0 for any
    # SPD task inertia Lam != H.
    offset_reference(monkeypatch, np.array([0.05, 0.02, -0.03]))
    for _ in range(3):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        lam = A @ A.T + np.eye(3)
        H = 0.1 * B @ B.T + np.eye(3)
        ro = handover_rollout(PlantModel(3, lam, np.zeros(3)), H)
        assert np.all(ro.beta == 1.0)
        assert error_equation_deviation(ro, H) < 1e-9


def test_point_mass_osid_matches_error_dynamics(monkeypatch):
    # Closed loop on the unit point mass vs. direct integration of the
    # error dynamics with the executed gains; identical update ordering
    # makes them agree to round-off over 1 s.
    offset_reference(monkeypatch, np.array([0.1, -0.05, 0.02]))
    H = np.eye(3)
    ro = handover_rollout(PlantModel(3, np.eye(3), np.zeros(3)), H)
    assert np.all(ro.beta == 1.0)
    xt = ro.x[0] - ro.x_d[0]
    xtd = np.zeros(3)
    for i in range(len(ro.t) - 1):
        xt, xtd = closed_loop_error_step(xt, xtd, H, ro.schedule.D[i],
                                         ro.schedule.K[i], np.zeros(3),
                                         ro.t[1] - ro.t[0])
        assert np.abs(ro.x[i + 1] - ro.x_d[i + 1] - xt).max() < 1e-6
    assert np.abs(xt).max() < 0.1 * np.abs(ro.x[0] - ro.x_d[0]).max()


def test_error_step_equilibrium_and_spring_balance():
    H = np.eye(3)
    D = 30 * np.eye(3)
    K = 200 * np.eye(3)
    xt, xtd = np.zeros(3), np.zeros(3)
    xt, xtd = closed_loop_error_step(xt, xtd, H, D, K, np.zeros(3), 1e-3)
    assert np.array_equal(xt, np.zeros(3))
    # Constant f_e = K x_star converges to the offset x_star.
    x_star = np.array([0.02, -0.01, 0.03])
    fe = K @ x_star
    xt, xtd = np.zeros(3), np.zeros(3)
    for _ in range(5000):
        xt, xtd = closed_loop_error_step(xt, xtd, H, D, K, fe, 1e-3)
    assert np.abs(xt - x_star).max() < 1e-6


def test_error_decay_constant_gains():
    H = np.eye(3)
    D = 30 * np.eye(3)
    K = 200 * np.eye(3)
    xt = np.array([0.1, 0.0, 0.0])
    xtd = np.zeros(3)
    norms = []
    for _ in range(2000):
        xt, xtd = closed_loop_error_step(xt, xtd, H, D, K, np.zeros(3), 1e-3)
        norms.append(np.linalg.norm(xt))
    assert norms[-1] < 1e-6
    # Monotone decay after the initial transient.
    tail = np.array(norms[200:])
    assert np.all(np.diff(tail) <= 1e-12)


def test_energy_nonincreasing_constant_certified_gains():
    H = np.eye(3)
    D = 30 * np.eye(3)
    K = 200 * np.eye(3)
    alpha = 0.05
    xt = np.array([0.08, -0.03, 0.05])
    xtd = np.array([0.2, 0.1, -0.1])
    prev = None
    for _ in range(3000):
        # V = 1/2 (xtd + alpha xt)^T H (xtd + alpha xt) + ... the storage of
        # the stability argument reduces to the standard quadratic form for
        # constant gains; use V = 1/2 xtd'H xtd + 1/2 xt'K xt + alpha xt'H xtd.
        V = (0.5 * xtd @ H @ xtd + 0.5 * xt @ K @ xt + alpha * xt @ H @ xtd)
        if prev is not None:
            assert V <= prev + 1e-8
        prev = V
        xt, xtd = closed_loop_error_step(xt, xtd, H, D, K, np.zeros(3), 1e-3)
