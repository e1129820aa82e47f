"""The closed-form gain scaling factor for the affine torque tau0 + beta tau1."""

import numpy as np
import pytest

from cgms.dmp import build_basis
from cgms.errors import InfeasibleFloorError
from cgms.gains import build_gain_schedule, tri_dim, SlackParams
from cgms.governor import TorqueLimits, beta_star_detail


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
