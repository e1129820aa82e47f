"""Affine torque split and the closed-form gain scaling factor."""

import numpy as np
import pytest

from cgms.dmp import build_basis
from cgms.errors import InfeasibleFloorError
from cgms.gains import build_gain_schedule, tri_dim, SlackParams
from cgms.governor import AffineTorqueSplit, TorqueLimits, beta_star, beta_star_detail


def test_limit_presets():
    half = TorqueLimits.fr3_half()
    assert np.array_equal(half.tau_max, [43.5, 43.5, 43.5, 43.5, 6, 6, 6])
    assert np.array_equal(half.tau_min, -np.asarray(half.tau_max))
    with pytest.raises(ValueError):
        TorqueLimits(tau_min=np.array([1.0]), tau_max=np.array([0.0]))


def test_beta_star_single_ratio():
    split = AffineTorqueSplit(tau0=np.array([2.0]), tau1=np.array([6.0]))
    limits = TorqueLimits.box(5.0, 1)
    beta, joint = beta_star_detail(split, limits)
    assert abs(beta - 0.5) < 1e-15
    assert joint == 0


def test_beta_star_zero_slope():
    split = AffineTorqueSplit(tau0=np.array([2.0, -3.0]), tau1=np.zeros(2))
    beta, joint = beta_star_detail(split, TorqueLimits.box(5.0, 2))
    assert beta == 1.0 and joint is None


def test_beta_star_negative_slope():
    split = AffineTorqueSplit(tau0=np.array([-2.0]), tau1=np.array([-6.0]))
    assert abs(beta_star(split, TorqueLimits.box(5.0, 1)) - 0.5) < 1e-15


def test_beta_star_infeasible_floor():
    split = AffineTorqueSplit(tau0=np.array([6.0]), tau1=np.array([-1.0]))
    with pytest.raises(InfeasibleFloorError):
        beta_star(split, TorqueLimits.box(5.0, 1))


def bisect_beta(split, limits, tol=1e-12):
    """Bisection oracle on the saturation predicate."""
    def ok(b):
        return limits.contains(split.at(b), tol=1e-15)
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
        split = AffineTorqueSplit(tau0=tau0, tau1=tau1)
        beta = beta_star(split, limits)
        assert abs(beta - bisect_beta(split, limits)) < 1e-9
        assert limits.contains(split.at(beta), tol=1e-9)


def test_beta_star_maximality(rng):
    limits = TorqueLimits.fr3_half()
    for _ in range(200):
        tau0 = rng.uniform(limits.tau_min, limits.tau_max)
        tau1 = 50.0 * rng.standard_normal(7)
        split = AffineTorqueSplit(tau0=tau0, tau1=tau1)
        beta = beta_star(split, limits)
        if beta < 1.0:
            assert not limits.contains(split.at(beta + 1e-6), tol=1e-9)


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
