"""The closed-form gain scaling factor for the affine torque tau0 + beta tau1."""

import numpy as np
import pytest

from cgms.dmp import build_basis
from cgms.errors import InfeasibleFloorError
from cgms.gains import build_gain_schedule, tri_dim, SlackParams
from cgms.governor import (
    BOX_TOL,
    ZERO_SLOPE_TOL,
    TorqueLimits,
    beta_star_detail,
)


def test_limit_presets():
    half = TorqueLimits.fr3_half()
    assert np.array_equal(half.tau_max, [43.5, 43.5, 43.5, 43.5, 6, 6, 6])
    assert np.array_equal(half.tau_min, -np.asarray(half.tau_max))
    with pytest.raises(ValueError):
        TorqueLimits(tau_min=np.array([1.0]), tau_max=np.array([0.0]))


def test_beta_star_single_ratio():
    limits = TorqueLimits.box(5.0, 1)
    beta, joint = beta_star_detail(np.array([2.0]), np.array([6.0]), limits)
    assert abs(beta - 0.5) < 1e-15
    assert joint == 0


def test_beta_star_zero_slope():
    beta, joint = beta_star_detail(np.array([2.0, -3.0]), np.zeros(2),
                                   TorqueLimits.box(5.0, 2))
    assert beta == 1.0 and joint is None


def test_beta_star_negative_slope():
    beta, _ = beta_star_detail(np.array([-2.0]), np.array([-6.0]),
                               TorqueLimits.box(5.0, 1))
    assert abs(beta - 0.5) < 1e-15


def test_beta_star_tie_names_the_first_joint():
    # Joints 1 and 2 both bound beta by 0.5; joint 0 by 2.
    beta, joint = beta_star_detail(np.array([0.0, 2.0, -2.0]),
                                   np.array([2.5, 6.0, -6.0]),
                                   TorqueLimits.box(5.0, 3))
    assert beta == 0.5 and joint == 1


@pytest.mark.parametrize("slope", [ZERO_SLOPE_TOL, -ZERO_SLOPE_TOL, np.nan])
def test_beta_star_flat_or_nan_slope_imposes_no_bound(slope):
    # Joint 0 sits within BOX_TOL above its limit, where any positive
    # bound would be negative; with a flat or NaN slope it binds nothing,
    # and joint 1 decides.
    limits = TorqueLimits.box(5.0, 2)
    tau0 = np.array([5.0 + 0.5 * BOX_TOL, 0.0])
    assert beta_star_detail(tau0, np.array([slope, 1.0]), limits) == (1.0,
                                                                      None)
    assert beta_star_detail(tau0, np.array([slope, 10.0]), limits) == (0.5, 1)


def loop_beta_star(tau0, tau1, limits):
    """The per-joint loop: the reference for beta_star_detail."""
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


def test_beta_star_matches_the_per_joint_loop(rng):
    # Random splits, with repeated joints (ties), slopes at and near the
    # zero-slope tolerance, and a floor on the box edge or within BOX_TOL
    # outside it, where a bound is negative and beta is clamped to 0.
    limits = TorqueLimits.fr3_half()
    for _ in range(2000):
        tau0 = rng.uniform(limits.tau_min, limits.tau_max)
        tau1 = 60.0 * rng.standard_normal(7)
        tau0[3], tau1[3] = tau0[1], tau1[1]
        tau1[rng.integers(7)] = rng.choice([0.0, 0.5, 1.0, 2.0]) * (
            rng.choice([-1.0, 1.0]) * ZERO_SLOPE_TOL)
        if rng.random() < 0.2:
            tau0[5] = limits.tau_max[5] + rng.choice([0.0, 0.5]) * BOX_TOL
        assert (beta_star_detail(tau0, tau1, limits)
                == loop_beta_star(tau0, tau1, limits))


def test_beta_star_infeasible_floor():
    with pytest.raises(InfeasibleFloorError):
        beta_star_detail(np.array([6.0]), np.array([-1.0]),
                         TorqueLimits.box(5.0, 1))


def bisect_beta(tau0, tau1, limits, tol=1e-12):
    """Bisection oracle on the saturation predicate."""
    def ok(b):
        return limits.contains(tau0 + b * tau1, tol=1e-15)
    if ok(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_beta_star_matches_bisection_oracle(rng):
    limits = TorqueLimits.fr3_half()
    for _ in range(1000):
        tau0 = rng.uniform(limits.tau_min, limits.tau_max)
        tau1 = 30.0 * rng.standard_normal(7)
        beta, _ = beta_star_detail(tau0, tau1, limits)
        assert abs(beta - bisect_beta(tau0, tau1, limits)) < 1e-9
        assert limits.contains(tau0 + beta * tau1, tol=1e-9)


def test_beta_star_maximality(rng):
    limits = TorqueLimits.fr3_half()
    for _ in range(200):
        tau0 = rng.uniform(limits.tau_min, limits.tau_max)
        tau1 = 50.0 * rng.standard_normal(7)
        beta, _ = beta_star_detail(tau0, tau1, limits)
        if beta < 1.0:
            assert not limits.contains(tau0 + (beta + 1e-6) * tau1, tol=1e-9)


def test_governed_schedule_still_certified(rng):
    # Governing at beta = 0.5 scales both slack products by beta, which is
    # the schedule of slack weights scaled by sqrt(beta).
    basis = build_basis(7, 0.7)
    d = tri_dim(3)
    root = np.sqrt(0.5)
    sp = SlackParams(theta_d=root * rng.standard_normal((7, d)),
                     theta_k=root * rng.standard_normal((7, d)),
                     basis=basis, m=3)
    tgrid = np.arange(0.0, 1.0, 1e-3)
    sched = build_gain_schedule(sp, 0.05, np.eye(3), 1.0, 200 * np.eye(3),
                                tgrid)
    assert sched.report().passes
