"""Phase, RBF bases, DMP dynamics, and the minimum-jerk fit.

The phase and the semi-implicit DMP step below are the per-step oracle that
the vectorized ``rollout_reference`` is checked against; the IIR-filter
form of the same update is a second, whole-trajectory oracle.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest

from cgms.config import compile_setup, load_config
from cgms.dmp import (
    ACTIVATION_FLOOR,
    RbfBasis,
    build_basis,
    fit_min_jerk,
    min_jerk,
    rollout_reference,
)
from cgms.errors import DegenerateBasisError
from cgms.learning import initial_policy


# ---------------------------------------------------------------------------
# per-step oracle
# ---------------------------------------------------------------------------

def phase(t, tau):
    """Canonical phase s = 1 - t/tau on the horizon [0, tau]."""
    if not 0.0 <= t <= tau:
        raise ValueError(f"t={t} outside horizon [0, {tau}]")
    return 1.0 - t / tau


@dataclass(frozen=True)
class DmpState:
    x: np.ndarray
    xdot: np.ndarray
    t: float


def dmp_accel(params, theta, state):
    """Right-hand side acceleration of the transformation dynamics."""
    s = phase(state.t, params.tau)
    forcing = params.basis.eval(s) @ theta
    g = np.asarray(params.goal, float)
    rhs = (params.k * (g - state.x) - params.tau * params.d * state.xdot
           + s * forcing)
    return rhs / params.tau ** 2


def dmp_step(params, theta, state, dt):
    """Semi-implicit Euler step; returns (new state, reference accel)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    xdd = dmp_accel(params, theta, state)
    xdot = state.xdot + xdd * dt
    x = state.x + xdot * dt
    if not np.all(np.isfinite(x)):
        raise ValueError("DMP state diverged")
    return DmpState(x=x, xdot=xdot, t=state.t + dt), xdd


def lfilter_reference(params, start, theta, tgrid):
    """Integrate the DMP over tgrid; returns (x_d, xdot_d, xddot_d) arrays.

    Sample i holds the state at tgrid[i]; the acceleration is the RHS
    evaluated there.  The basis matrix over all phases is evaluated once,
    and the semi-implicit update, a constant-coefficient second-order
    recurrence for the constant goal, is evaluated as an IIR filter.
    """
    # Eliminating the velocity from the semi-implicit update gives
    # x[i+1] = a1 x[i] + a2 x[i-1] + (dt^2/scale)(k g + gamma f)[i].
    from scipy.signal import lfilter, lfiltic

    n = len(tgrid)
    D = len(start)
    dt = tgrid[1] - tgrid[0] if n > 1 else 0.0
    s_all = 1.0 - np.asarray(tgrid) / params.tau
    forcing = s_all[:, None] * (params.basis.eval(s_all) @ theta)   # (n, D)
    scale = params.tau ** 2
    g = np.asarray(params.goal, float)
    start = np.array(start, float)
    kd = params.tau * params.d * dt / scale
    kk = params.k * dt * dt / scale
    a1 = 2.0 - kk - kd
    a2 = kd - 1.0
    w = (dt * dt / scale) * (params.k * g + forcing)
    x = np.empty((n, D))
    x[0] = start
    if n > 1:
        x[1] = start + w[0] - kk * start
        a_coef = np.array([1.0, -a1, -a2])
        b_coef = np.array([1.0])
        for j in range(D):
            zi = lfiltic(b_coef, a_coef, y=[x[1, j], x[0, j]])
            x[2:, j], _ = lfilter(b_coef, a_coef, w[1:-1, j], zi=zi)
    xd = np.empty((n, D))
    xd[0] = 0.0
    xd[1:] = (x[1:] - x[:-1]) / dt
    xdd = (params.k * (g - x) - params.tau * params.d * xd + forcing) / scale
    return x, xd, xdd


def longdouble_reference(params, start, theta, tgrid):
    """x of the velocity-form update stepped in np.longdouble from the same
    float64 coefficients and inputs as rollout_reference."""
    n = len(tgrid)
    dt = tgrid[1] - tgrid[0]
    s_all = 1.0 - np.asarray(tgrid) / params.tau
    forcing = s_all[:, None] * (params.basis.eval(s_all) @ theta)
    scale = params.tau ** 2
    kd = np.longdouble(params.tau * params.d * dt / scale)
    kk = np.longdouble(params.k * dt * dt / scale)
    w = ((dt * dt / scale) * (params.k * np.asarray(params.goal, float)
                              + forcing)).astype(np.longdouble)
    x = np.empty((n, len(start)), np.longdouble)
    x[0] = start
    v = np.zeros(len(start), np.longdouble)
    for i in range(n - 1):
        v = -kk * x[i] + (1 - kd) * v + w[i]
        x[i + 1] = x[i] + v
    return x


# ---------------------------------------------------------------------------
# phase
# ---------------------------------------------------------------------------

def test_phase_endpoints_and_linearity():
    assert phase(0.0, 5.0) == 1.0
    assert phase(5.0, 5.0) == 0.0
    assert phase(2.5, 10.0) == 0.75


def test_phase_out_of_horizon():
    with pytest.raises(ValueError):
        phase(-0.1, 5.0)
    with pytest.raises(ValueError):
        phase(5.1, 5.0)


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_single_basis_is_constant_one():
    basis = build_basis(1, 0.5)
    for s in (0.0, 0.3, 1.0):
        assert np.allclose(basis.eval(s), [1.0])


def test_basis_peak_at_center():
    basis = build_basis(11, 0.5)
    for j in (0, 5, 10):
        ph = basis.eval(basis.centers[j])
        assert np.argmax(ph) == j


def test_normalization_many_phases():
    for M, h in ((51, 0.95), (7, 0.7)):
        basis = build_basis(M, h)
        ph = basis.eval(np.linspace(0.0, 1.0, 1000))
        assert np.abs(ph.sum(axis=1) - 1.0).max() < 1e-12
        assert ph.min() >= 0.0


def test_build_basis_one_sigma_crossing():
    basis = build_basis(2, np.exp(-0.5))
    dc = basis.centers[1] - basis.centers[0]
    assert np.allclose(basis.widths, dc / 2.0)


def test_build_basis_midpoint_height():
    for M, h in ((51, 0.95), (7, 0.7)):
        basis = build_basis(M, h)
        mid = 0.5 * (basis.centers[:-1] + basis.centers[1:])
        raw = basis.raw(mid)
        for i, s in enumerate(mid):
            assert abs(raw[i, i] - h) < 1e-12
            assert abs(raw[i, i + 1] - h) < 1e-12


def test_basis_deriv_matches_finite_difference():
    basis = build_basis(7, 0.7)
    h = 1e-6
    for s in (0.12, 0.5, 0.87):
        fd = (basis.eval(s + h) - basis.eval(s - h)) / (2 * h)
        assert np.abs(basis.eval_deriv(s)[1] - fd).max() < 1e-5


def old_activations(basis, s):
    """The basis formulas as written before they ran in place: the oracle of
    raw, eval and eval_deriv."""
    s = np.asarray(s, float)[..., None]
    psi = np.exp(-((s - basis.centers) ** 2) / (2.0 * basis.widths ** 2))
    total = psi.sum(axis=-1, keepdims=True)
    phi = psi / total
    dpsi = psi * (basis.centers - s) / basis.widths ** 2
    return psi, phi, (dpsi - phi * dpsi.sum(axis=-1, keepdims=True)) / total


@pytest.mark.parametrize("M, h", [(51, 0.95), (7, 0.7), (1, 0.5)])
def test_in_place_basis_is_bitwise_the_old_formula(M, h):
    basis = build_basis(M, h)
    for s in (0.3, np.array([0.0, 1.0]), 1.0 - np.linspace(0.0, 1.0, 5001),
              np.linspace(0.0, 1.0, 12).reshape(3, 4)):
        psi, phi, dphi = old_activations(basis, s)
        assert np.array_equal(basis.raw(s), psi)
        assert np.array_equal(basis.eval(s), phi)
        got_phi, got_dphi = basis.eval_deriv(s)
        assert np.array_equal(got_phi, phi)
        assert np.array_equal(got_dphi, dphi)


def test_lowest_valid_height_keeps_its_basis_above_the_floor():
    # Midway between two centers each neighbour's activation is h, so at
    # h = ACTIVATION_FLOOR the totals stay at about twice the floor.
    basis = build_basis(51, ACTIVATION_FLOOR)
    mid = 0.5 * (basis.centers[:-1] + basis.centers[1:])
    total = basis.raw(mid).sum(axis=-1)
    assert (total >= 1.99 * ACTIVATION_FLOOR).all()
    assert np.isfinite(basis.eval_deriv(np.linspace(0.0, 1.0, 5001))[1]).all()


def test_degenerate_basis_detected():
    basis = RbfBasis(centers=np.array([0.0, 1e-3]),
                     widths=np.array([1e-5, 1e-5]))
    with pytest.raises(DegenerateBasisError):
        basis.eval(1.0)


def test_build_basis_validation():
    with pytest.raises(ValueError):
        build_basis(0, 0.5)
    with pytest.raises(ValueError):
        build_basis(5, 1.0)
    # A subnormal height used to overflow 1/h into zero widths, with
    # divide-by-zero warnings, and fail only on evaluation.
    for h in (1e-310, 0.5 * ACTIVATION_FLOOR):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="intersection height"):
                build_basis(51, h)


# ---------------------------------------------------------------------------
# DMP dynamics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", ["tau", "k"])
def test_dmp_params_need_positive_tau_and_k(field, handover_setup):
    with pytest.raises(ValueError, match="tau and k must be positive"):
        replace(handover_setup.dmp, **{field: 0.0})


def test_forcing_free_dmp_converges_without_overshoot(handover_setup):
    goal = np.array([0.5])
    params = replace(handover_setup.dmp, tau=5.0, goal=goal)
    tgrid = np.arange(0.0, 5.0, 1e-3)
    x, _, _ = rollout_reference(params, np.array([0.0]),
                                np.zeros((params.basis.count, 1)), tgrid)
    assert x.max() <= 0.5 + 1e-3 * 0.5       # no overshoot beyond 1e-3 of range
    assert abs(x[-1, 0] - 0.5) < 1e-2 * 0.5


def test_dmp_stays_at_goal(handover_setup):
    goal = np.array([0.3, -0.2])
    params = replace(handover_setup.dmp, tau=2.0, goal=goal,
                     basis=build_basis(7, 0.7))
    state = DmpState(x=goal.copy(), xdot=np.zeros(2), t=0.0)
    for _ in range(100):
        state, _ = dmp_step(params, np.zeros((7, 2)), state, 1e-3)
    assert np.abs(state.x - goal).max() < 1e-12


def test_rollout_reference_matches_stepper(handover_setup):
    rng = np.random.default_rng(3)
    params = replace(handover_setup.dmp, tau=1.0, goal=np.array([0.4, 0.1]),
                     basis=build_basis(7, 0.7))
    theta = rng.standard_normal((7, 2))
    tgrid = np.arange(0.0, 1.0, 1e-3)
    x, xd, xdd = rollout_reference(params, np.array([0.0, 0.0]), theta, tgrid)
    state = DmpState(x=np.zeros(2), xdot=np.zeros(2), t=0.0)
    for i in range(len(tgrid)):
        assert np.abs(state.x - x[i]).max() < 1e-9
        assert np.abs(state.xdot - xd[i]).max() < 1e-9
        state, a = dmp_step(params, theta, state, 1e-3)
        assert np.abs(a - xdd[i]).max() < 1e-9


@pytest.mark.parametrize(
    "n", [1, 2, 3, 5, 6, 10, 11, 127, 128, 129, 130, 257, 5001])
def test_rollout_reference_matches_the_filter_at_block_edges(
        n, handover_setup, handover_policy):
    # The n - 1 steps run through the compiled operators in C chunks of
    # c = ceil(sqrt(n - 1)) steps: no step (n = 1), one (n = 2), full chunks
    # only (n = 3, 5, 10) and a last chunk padded with zero inputs (n = 6,
    # 11); the longer grids take 12 to 71 steps per chunk and 11 to 71
    # chunk starts from the carry, up to the full 5 s grid.
    params, start, tgrid = (handover_setup.dmp, handover_setup.start,
                            handover_setup.tgrid)
    theta = handover_policy.theta_traj
    new = rollout_reference(params, start, theta, tgrid[:n])
    old = lfilter_reference(params, start, theta, tgrid[:n])
    for a, b in zip(new, old):
        assert a.shape == b.shape == (n, 3)
        assert np.abs(a - b).max(initial=0.0) <= 1e-9


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is no wider than float here")
@pytest.mark.parametrize("horizon", [5.0, 10.0])
def test_rollout_reference_tracks_an_extended_precision_run(horizon):
    # The 5 s and 10 s handover references on the 1 ms grid.  The filter
    # form rounds a1 = 2 - kk - kd with kk about 6e-6 and lands 2e-11 m
    # away at 5 s.
    setup, _ = compile_setup(load_config(overrides={"run_horizon": horizon}))
    params, start, tgrid = setup.dmp, setup.start, setup.tgrid
    theta = initial_policy(setup).theta_traj
    x, _, _ = rollout_reference(params, start, theta, tgrid)
    exact = longdouble_reference(params, start, theta, tgrid)
    assert len(tgrid) == round(horizon * 1000) + 1
    assert float(np.abs(x - exact).max()) <= 1e-13


# ---------------------------------------------------------------------------
# min-jerk fit
# ---------------------------------------------------------------------------

def test_fit_zero_displacement_gives_zero_weights(handover_setup):
    params = replace(handover_setup.dmp, goal=np.array([0.2, 0.2, 0.2]))
    theta = fit_min_jerk(np.full(3, 0.2), handover_setup.tgrid, params)
    assert np.linalg.norm(theta) < 1e-8


def test_fit_round_trip_rmse(handover_setup):
    start = np.array([0.55, 0.00, 0.11])
    goal = np.array([0.05, 0.72, 0.11])
    T = 5.0
    params = replace(handover_setup.dmp, tau=T, goal=goal)
    tgrid = np.arange(0.0, T + 5e-4, 1e-3)
    theta = fit_min_jerk(start, tgrid, params)
    x, _, _ = rollout_reference(params, start, theta, tgrid)
    x_ref, _, _ = min_jerk(start, goal, T, tgrid)
    rmse = np.sqrt(((x - x_ref) ** 2).mean())
    assert rmse < 1e-3
    assert np.abs(x - x_ref).max() < 1e-3
    assert np.linalg.norm(x[-1] - goal) < 1e-3


def test_fit_endpoint_long_horizon(handover_setup):
    start = np.array([0.55, 0.00, 0.11])
    goal = np.array([0.05, 0.72, 0.11])
    T = 10.0
    params = replace(handover_setup.dmp, tau=T, goal=goal)
    tgrid = np.arange(0.0, T + 5e-4, 1e-3)
    theta = fit_min_jerk(start, tgrid, params)
    x, _, _ = rollout_reference(params, start, theta, tgrid)
    assert np.linalg.norm(x[-1] - goal) < 1e-3


def test_nested_basis_monotonicity(handover_setup):
    start = np.array([0.0, 0.0])
    goal = np.array([0.5, -0.3])
    T = 5.0

    def residual(M):
        basis = build_basis(M, 0.95)
        params = replace(handover_setup.dmp, tau=T, goal=goal, basis=basis)
        t = np.arange(0.0, T + 5e-4, 1e-3)
        theta = fit_min_jerk(start, t, params)
        x, xd, xdd = min_jerk(start, goal, T, t)
        s = 1.0 - t / T
        scale = params.tau ** 2
        target = (scale * xdd + params.tau * params.d * xd
                  - params.k * (goal - x))
        A = s[:, None] * basis.eval(s)
        return np.linalg.norm(A @ theta - target)

    assert residual(102) <= residual(51) + 1e-9
