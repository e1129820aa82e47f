"""Policy parameters, exploration noise, cost, rollouts, and the update."""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cgms import gains, learning
from cgms.config import compile_setup, load_config
from cgms.dmp import build_basis
from cgms.errors import (
    CertifiedFloorError,
    InfeasibleFloorError,
    IntegrationDivergedError,
)
from cgms.gains import SlackParams, build_gain_schedule, slack_trace
from cgms.governor import TorqueLimits, beta_star_detail
from cgms.learning import (
    LOOP_BLOCK,
    MAX_RESAMPLE_ATTEMPTS,
    MODE_UNCERTIFIED_AFTER_VIA,
    PolicyParams,
    decay_covariance,
    initial_policy,
    pi2_update,
    pi2_weights,
    rollout,
    sample_noise,
    sampled_schedule,
    train,
    trajectory_cost,
    via_weight,
)
from cgms.plants import PlantModel
from conftest import vec_triangle_inverse
from test_gains import certificate_margins


def random_policy(rng):
    return PolicyParams(theta_traj=rng.standard_normal((51, 3)),
                        theta_d=rng.standard_normal((7, 6)),
                        theta_k=rng.standard_normal((7, 6)))


def plus(policy, xi):
    """The sample policy + xi, block by block."""
    return PolicyParams(theta_traj=policy.theta_traj + xi.theta_traj,
                        theta_d=policy.theta_d + xi.theta_d,
                        theta_k=policy.theta_k + xi.theta_k)


# ---------------------------------------------------------------------------
# PolicyParams
# ---------------------------------------------------------------------------

def test_policy_dict_round_trip(rng):
    pol = random_policy(rng)
    d = pol.to_dict()
    assert d["layout"]["blocks"] == ["theta_traj", "theta_d", "theta_k"]
    back = PolicyParams.from_dict(d)
    assert np.array_equal(back.theta_traj, pol.theta_traj)
    assert np.array_equal(back.theta_k, pol.theta_k)


# ---------------------------------------------------------------------------
# Exploration noise
# ---------------------------------------------------------------------------

def test_zero_sigma_noise(rng, handover_task):
    pol = random_policy(rng)
    noise = replace(handover_task.noise, sigma_traj=0.0, sigma_k=0.0,
                    sigma_d=0.0)
    xi = sample_noise(noise, pol, 0, 0)
    assert np.array_equal(xi.theta_traj, np.zeros((51, 3)))
    assert np.array_equal(xi.theta_d, np.zeros((7, 6)))


def test_noise_determinism(rng, handover_task):
    pol = random_policy(rng)
    noise = replace(handover_task.noise, seed=7)
    a = sample_noise(noise, pol, 3, 5)
    b = sample_noise(noise, pol, 3, 5)
    assert np.array_equal(a.theta_traj, b.theta_traj)
    assert np.array_equal(a.theta_k, b.theta_k)
    c = sample_noise(noise, pol, 3, 6)
    assert not np.array_equal(a.theta_traj, c.theta_traj)
    d = sample_noise(noise, pol, 3, 5, attempt=1)
    assert not np.array_equal(a.theta_traj, d.theta_traj)


def test_noise_statistics(rng, handover_task):
    # 1e4 draws of the trajectory block: sample std within 3% of sigma_traj.
    pol = PolicyParams(theta_traj=np.zeros((10, 1)),
                       theta_d=np.zeros((7, 6)), theta_k=np.zeros((7, 6)))
    noise = replace(handover_task.noise, seed=0)
    sigma = noise.sigma_traj
    draws = np.concatenate([
        sample_noise(noise, pol, 0, r).theta_traj.ravel() for r in range(1000)
    ])
    assert len(draws) == 10000
    assert abs(draws.std() - sigma) / sigma < 0.03
    assert abs(draws.mean()) < 0.0375 * sigma


def test_decay_covariance(handover_task):
    noise = handover_task.noise
    sigma, decay = noise.sigma_traj, noise.decay
    n1 = decay_covariance(noise)
    assert abs(n1.sigma_traj - sigma * np.sqrt(decay)) < 1e-12
    n = noise
    for _ in range(50):
        n = decay_covariance(n)
    assert abs((n.sigma_traj / sigma) ** 2 - decay ** 50) < 1e-12
    assert abs(decay ** 50 - 0.364) < 5e-3
    zero = replace(noise, sigma_traj=0.0, sigma_k=0.0, sigma_d=0.0)
    assert decay_covariance(zero).sigma_traj == 0.0


# ---------------------------------------------------------------------------
# Cost
# ---------------------------------------------------------------------------

def test_via_weight_closed_forms(handover_setup):
    w = replace(handover_setup.weights, t_hat=2.0, sigma_via=0.25)
    w0, gamma = w.w0, w.gamma_via
    assert abs(via_weight(2.0, w) - (w0 + gamma)) < 1e-9
    assert abs(via_weight(10.0, w) - w0) < 1e-9
    assert abs(via_weight(2.25, w) - (w0 + gamma * np.exp(-0.5))) < 1e-9
    with pytest.raises(ValueError):
        via_weight(0.0, replace(w, sigma_via=0.0))


def test_cost_zero_when_everything_zero(handover_setup):
    for n in (100, 0):
        t = np.arange(n) * 1e-3
        z = np.zeros((n, 3))
        K = np.zeros((n, 3, 3))
        w = replace(handover_setup.weights, t_hat=0.05)
        J, terms = trajectory_cost(t, z, z, z, K, w)
        assert J == 0.0
        assert terms == {"cost_K": 0.0, "cost_acc": 0.0, "cost_track": 0.0}


def test_cost_constant_stiffness_arithmetic(handover_setup):
    # K = 200 I3 over 1000 steps: J = lam_k * 600 * 1000.
    n = 1000
    t = np.arange(n) * 1e-3
    z = np.zeros((n, 3))
    K = np.tile(200.0 * np.eye(3), (n, 1, 1))
    w = replace(handover_setup.weights, t_hat=0.5)
    J, terms = trajectory_cost(t, z, z, z, K, w)
    assert abs(J - w.lam_k * 6e5) < 1e-12
    assert abs(terms["cost_K"] - w.lam_k * 6e5) < 1e-12


def test_cost_tracking_quadratic(rng, handover_setup):
    n = 200
    t = np.arange(n) * 1e-3
    x = rng.standard_normal((n, 3))
    z = np.zeros((n, 3))
    K = np.zeros((n, 3, 3))
    w = replace(handover_setup.weights, t_hat=0.1)
    J1, _ = trajectory_cost(t, x, z, z, K, w)
    J2, _ = trajectory_cost(t, 2 * x, z, z, K, w)
    assert abs(J2 - 4 * J1) < 1e-8 * max(J1, 1.0)


def test_cost_length_mismatch(handover_setup):
    t = np.arange(10) * 1e-3
    with pytest.raises(ValueError):
        trajectory_cost(t, np.zeros((9, 3)), np.zeros((10, 3)),
                        np.zeros((10, 3)), np.zeros((10, 3, 3)),
                        handover_setup.weights)


# ---------------------------------------------------------------------------
# PI2 update
# ---------------------------------------------------------------------------

def test_weights_uniform_when_costs_equal(handover_task):
    beta = handover_task.cfg.learning_softmax_sharpness
    w = pi2_weights([5.0, 5.0, 5.0], beta)
    assert np.allclose(w, 1.0 / 3.0)


def test_weights_monotone(rng, handover_task):
    beta = handover_task.cfg.learning_softmax_sharpness
    for _ in range(20):
        costs = rng.uniform(0.0, 100.0, 6)
        w = pi2_weights(costs, beta)
        assert abs(w.sum() - 1.0) < 1e-12
        order = np.argsort(costs)
        assert np.all(np.diff(w[order]) <= 1e-15)


def test_update_single_rollout(rng, handover_task):
    pol = random_policy(rng)
    xi = random_policy(rng)
    new, w = pi2_update(pol, [3.0], [xi],
                        handover_task.cfg.learning_softmax_sharpness)
    assert np.allclose(new.theta_traj, pol.theta_traj + xi.theta_traj)
    assert np.allclose(w, [1.0])


def test_update_in_convex_hull(rng, handover_task):
    beta = handover_task.cfg.learning_softmax_sharpness
    pol = random_policy(rng)
    xis = [random_policy(rng) for _ in range(3)]
    new, w = pi2_update(pol, [1.0, 2.0, 10.0], xis, beta)
    assert np.all(w >= 0) and abs(w.sum() - 1.0) < 1e-12
    assert w[0] > w[1] > w[2]

    def flat(p):
        return np.concatenate([p.theta_traj.ravel(), p.theta_d.ravel(),
                               p.theta_k.ravel()])

    step = flat(new) - flat(pol)
    hull = sum(wi * flat(xi) for wi, xi in zip(w, xis))
    assert np.allclose(step, hull, atol=1e-12)
    # Each block is theta + sum_i w_i xi_i, summed in sample order.
    moved = pol.theta_d + (w[0] * xis[0].theta_d + w[1] * xis[1].theta_d
                           + w[2] * xis[2].theta_d)
    assert np.array_equal(new.theta_d, moved)
    with pytest.raises(ValueError):
        pi2_update(pol, [], [], beta)
    with pytest.raises(ValueError):
        pi2_update(pol, [1.0, 2.0], xis, beta)


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------

def test_initial_rollout_certificate(handover_setup, nominal_rollout):
    ro = nominal_rollout
    assert np.abs(ro.schedule.lam_A + 29.95).max() < 1e-6
    assert np.abs(ro.schedule.lam_C + 20.0).max() < 1e-6
    assert ro.schedule.report().passes
    assert np.all(ro.beta == 1.0)
    # Trajectory approximately min-jerk: endpoint at the goal.
    assert np.linalg.norm(ro.x[-1] - handover_setup.dmp.goal) < 1e-3


def test_rollout_determinism(handover_setup, handover_policy,
                             handover_task):
    noise = replace(handover_task.noise, seed=11)
    xi = sample_noise(noise, handover_policy, 2, 4)
    a = rollout(handover_policy, xi, handover_setup)
    b = rollout(handover_policy, xi, handover_setup)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.torque, b.torque)
    assert a.cost == b.cost


def test_rollout_memory_peak(handover_setup, handover_policy):
    # A warm noise-free handover rollout peaks near 3.04 MB of traced
    # memory, in its closed loop: the schedule build consumes its slack
    # products, the loop forms each block's control maps in one reused
    # buffer, and the reference's acceleration goes once u_ff is formed.
    # With the audit on copies and the gain products AHi K and AHi D taken
    # per block it peaked near 3.43 MB, at the certificate audit.  The
    # setup holds its compiled bases (2.60 MB) for as long as it lives, so
    # the first guard counts them too.  The closed loop forms and scans its
    # maps LOOP_BLOCK at a time; all 5000 at once (1.96 MB of maps) peaked
    # near 5.57 MB without the compiled bases.
    rollout(handover_policy, None, handover_setup)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ro = rollout(handover_policy, None, handover_setup)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    compiled = sum(a.nbytes for a in (handover_setup.dmp_phi,
                                      *handover_setup.slack_phi))
    assert peak + compiled <= 6.5e6, (peak, compiled)
    assert peak <= 3.25e6, peak
    # x owns its memory: a view would keep the (n, 2m + 1) state stack
    # alive in every rollout that is kept.
    assert ro.x.base is None


def test_schedule_build_memory_peak(handover_setup, handover_policy):
    # A warm schedule build on the 5 s handover grid peaks near 2.88 MB of
    # traced memory: the audit negates the slack products in place, and D,
    # B and Kdot are written into their buffers.  Auditing negated copies
    # and forming D, B and Kdot anew read 3.67 MB, and the slack products
    # as batched matmuls of unpacked triangles 4.27 MB.  The stiffness flow
    # runs in place, and the closed-form audit takes EIG_BLOCK = 2048
    # matrices at a time: 4096 read 3.93 MB, and whole stacks 4.05 MB
    # (both with the audit on copies).
    setup, policy = handover_setup, handover_policy
    sp = SlackParams(theta_d=policy.theta_d, theta_k=policy.theta_k,
                     basis=setup.slack_basis, m=setup.m)
    args = (sp, setup.alpha, setup.H, setup.dmp.tau,
            setup.k_init * np.eye(setup.m), setup.tgrid)
    build_gain_schedule(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sched = build_gain_schedule(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4.0e6, peak
    assert peak <= 3.1e6, peak
    # The certificate traces own their memory: a view of the top-eigenvalue
    # column would keep the whole (n, m) eigenvalue array alive.
    assert sched.lam_A.base is None and sched.lam_C.base is None


def test_compiled_bases_are_read_only(handover_setup):
    for arr in (handover_setup.dmp_phi, *handover_setup.slack_phi):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_compiled_bases_follow_replace(handover_setup):
    # A cost-reference change compiles the same values; a new basis
    # compiles the new one.
    new = replace(handover_setup, weights=replace(handover_setup.weights,
                                                  t_hat=1.0),
                  limits=TorqueLimits.box(1e3, handover_setup.m))
    for a, b in zip((new.dmp_phi, *new.slack_phi),
                    (handover_setup.dmp_phi, *handover_setup.slack_phi)):
        assert np.array_equal(a, b)
    basis = build_basis(21, 0.5)
    new = replace(handover_setup, slack_basis=basis)
    assert new.slack_phi[0].shape[1] == 21
    new = replace(handover_setup, dmp=replace(handover_setup.dmp, basis=basis))
    assert new.dmp_phi.shape[1] == 21


def bases_on_the_fly(monkeypatch, setup):
    """Make the rollout evaluate both bases on every call, ignoring the
    setup's compiled ones."""
    reference, slack = learning.rollout_reference, learning.slack_trace
    s_all = 1.0 - setup.tgrid / setup.dmp.tau
    monkeypatch.setattr(learning, "rollout_reference",
                        lambda params, start, theta, tgrid, phi=None:
                        reference(params, start, theta, tgrid))
    monkeypatch.setattr(learning, "slack_trace",
                        lambda theta_d, theta_k, phi: slack(
                            theta_d, theta_k,
                            setup.slack_basis.eval_deriv(s_all)))


@pytest.mark.parametrize("field", ["dmp", "slack_basis"])
def test_replaced_basis_rollout_matches_on_the_fly_bases(
        field, monkeypatch, handover_setup, handover_task):
    basis = build_basis(21, 0.5)
    setup = replace(handover_setup, **{
        "dmp": {"dmp": replace(handover_setup.dmp, basis=basis)},
        "slack_basis": {"slack_basis": basis}}[field])
    policy = initial_policy(setup)
    xi = sample_noise(replace(handover_task.noise, seed=6), policy, 0, 0)
    got = rollout(policy, xi, setup)
    bases_on_the_fly(monkeypatch, setup)
    want = rollout(policy, xi, setup)
    for name in ("x", "x_d", "torque", "beta"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    for name in ("K", "D", "Kdot", "Ddot", "lam_A", "lam_C"):
        assert np.array_equal(getattr(got.schedule, name),
                              getattr(want.schedule, name))
    assert got.cost == want.cost


def test_rollout_reads_the_compiled_bases(monkeypatch, handover_setup,
                                          handover_policy):
    # The rollout hands the setup's arrays to both evaluations, so neither
    # evaluates a basis over the grid.
    seen = []
    reference, slack = learning.rollout_reference, learning.slack_trace

    def spy(fn, name):
        def wrapper(*args):
            seen.append((name, args[-1]))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(learning, "rollout_reference",
                        spy(reference, "reference"))
    monkeypatch.setattr(learning, "slack_trace", spy(slack, "slack"))
    rollout(handover_policy, None, handover_setup)
    assert [name for name, _ in seen] == ["reference", "slack"]
    assert seen[0][1] is handover_setup.dmp_phi
    assert seen[1][1] is handover_setup.slack_phi
    # Nor does it wrap the weights in a SlackParams, on either path.

    def no_slack_params(self):
        raise AssertionError("rollout constructed a SlackParams")

    monkeypatch.setattr(gains.SlackParams, "__post_init__", no_slack_params)
    rollout(handover_policy, None, handover_setup)
    rollout(handover_policy, None,
            replace(handover_setup, mode=MODE_UNCERTIFIED_AFTER_VIA))


def test_noisy_rollout_still_certified(handover_setup, handover_policy,
                                      handover_task):
    noise = replace(handover_task.noise, seed=5)
    for r in range(5):
        xi = sample_noise(noise, handover_policy, 0, r)
        ro = rollout(handover_policy, xi, handover_setup)
        assert ro.schedule.lam_A.max() <= 1e-9
        assert ro.schedule.lam_C.max() <= 1e-9
        assert ro.schedule.report().passes


def offset_reference(monkeypatch, offset):
    """Shift the rollout's x_d by a constant, so the feedback gains have a
    tracking error to act on from the first step."""
    reference = learning.rollout_reference

    def shifted(*args):
        x_d, xd_d, xdd_d = reference(*args)
        return x_d + offset, xd_d, xdd_d

    monkeypatch.setattr(learning, "rollout_reference", shifted)


def closed_loop_error_step(xt, xtd, H, D, K, f_e, dt):
    """One semi-implicit Euler step of H xtdd + D xtd + K xt = f_e.

    Uses the same update ordering as the rollout's plant step, so the
    point-mass closed loop and this direct integration agree to round-off.
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


def error_equation_deviation(ro, H):
    """Largest gap between a rollout's tracking error and the error equation
    H xtdd + D xtd + K xt = 0 stepped with the rollout's executed D and K.

    The reference starts at rest, so the error velocity starts at zero.
    """
    xt = ro.x[0] - ro.x_d[0]
    xtd = np.zeros_like(xt)
    dt = ro.t[1] - ro.t[0]
    dev = 0.0
    for i in range(len(ro.t) - 1):
        xt, xtd = closed_loop_error_step(xt, xtd, H, ro.schedule.D[i],
                                         ro.schedule.K[i], np.zeros_like(xt),
                                         dt)
        dev = max(dev, float(np.abs(ro.x[i + 1] - ro.x_d[i + 1] - xt).max()))
    return dev


def wiggle_reference(monkeypatch, A, omega):
    """Add A omega cos(omega t) (1, -1, 0.5) to the rollout's xdot_d, with
    x_d and xdd_d unchanged: the reference no longer starts at rest, so
    the feed-forward pre-check is off, and the error velocity swings the
    torque in and out of a tight box along the horizon."""
    reference = learning.rollout_reference

    def wiggled(*args):
        x_d, xd_d, xdd_d = reference(*args)
        t = args[3][:, None]
        wave = A * omega * np.cos(omega * t) * np.array([1.0, -1.0, 0.5])
        return x_d, xd_d + wave, xdd_d

    monkeypatch.setattr(learning, "rollout_reference", wiggled)


def boxed_scenario(fraction):
    """The 1 s horizon, the initial policy and gain noise only, with a box
    at `fraction` x the free run's peak torque.

    Returns (setup with that box, policy, noise, free run under a 1e3 N box).
    """
    setup, noise = compile_setup(load_config(overrides={"run_horizon": 1.0}))
    policy = initial_policy(setup)
    xi = sample_noise(replace(noise, sigma_traj=0.0), policy, 0, 0, 0)
    free = rollout(policy, xi,
                   replace(setup, limits=TorqueLimits.box(1e3, setup.m)))
    assert np.all(free.beta == 1.0) and free.saturation_events == []
    limits = TorqueLimits.box(fraction * np.abs(free.torque).max(), setup.m)
    return replace(setup, limits=limits), policy, xi, free


def governed_scenario(monkeypatch):
    """A constant 1 cm offset of x_d and a box just under the free run's
    peak torque, so the governor scales the gains on some steps (150 steps
    in one run, the first at step 144)."""
    offset_reference(monkeypatch, np.array([0.01, -0.01, 0.01]))
    return boxed_scenario(0.95)


# (A, omega, box as a fraction of the free peak) of wiggle_reference
# scenarios with several governed runs: 360 governed steps in 12 runs,
# steps 0, n - 2 and n - 1 among them, and 167 steps in 12 runs.
GOVERNED_RUNS = {"governed_runs_40": (0.02, 40.0, 0.7),
                 "governed_runs_80": (0.01, 80.0, 0.8)}


def governed_runs_scenario(monkeypatch, case):
    """boxed_scenario under the wiggle of GOVERNED_RUNS[case]."""
    A, omega, fraction = GOVERNED_RUNS[case]
    wiggle_reference(monkeypatch, A, omega)
    return boxed_scenario(fraction)


def per_step_rollout(policy, xi, setup):
    """The rollout's closed loop stepped one control step at a time, with
    the governor on every step whose torque leaves the box: the reference
    for the rollout's scanned blocks and its governed steps.

    Returns (x, torque, beta, K, D, saturation events).
    """
    tg, m, dt, alpha, H = setup.tgrid, setup.m, setup.dt, setup.alpha, setup.H
    sample = policy if xi is None else plus(policy, xi)
    x_d, xd_d, xdd_d = learning.rollout_reference(
        setup.dmp, setup.start, sample.theta_traj, tg)
    sched = sampled_schedule(setup, policy, sample)
    K, D = sched.K, sched.D
    K_floor = (np.exp(2.0 * alpha * tg)[:, None, None]
               * (setup.k_init * np.eye(m)))
    D_floor = alpha * H
    # Point mass: Lam xdd = tau - g.
    Lam, grav = setup.model.lambda0, setup.model.gravity_wrench
    Minv = np.linalg.inv(Lam)
    AHi = Lam @ np.linalg.inv(H)
    x_cur, v_cur = setup.start.copy(), np.zeros(m)
    xs, taus, beta, events = [], [], np.ones(len(tg)), []
    for i in range(len(tg)):
        xt = x_cur - x_d[i]
        xtd = v_cur - xd_d[i]
        u_ff = Lam @ xdd_d[i] + grav
        tau = u_ff - AHi @ D[i] @ xtd - AHi @ K[i] @ xt
        if setup.limits.outside(tau).any():
            tau0 = u_ff - AHi @ D_floor @ xtd - AHi @ K_floor[i] @ xt
            tau1 = tau - tau0
            beta[i], binding = beta_star_detail(tau0, tau1, setup.limits)
            if binding is not None:
                events.append({"t": float(tg[i]), "joint": binding,
                               "beta_star": beta[i]})
            tau = tau0 + beta[i] * tau1
            K[i] = K_floor[i] + beta[i] * (K[i] - K_floor[i])
            D[i] = D_floor + beta[i] * (D[i] - D_floor)
        xs.append(x_cur)
        taus.append(tau)
        v_cur = v_cur + (Minv @ (tau - grav)) * dt
        x_cur = x_cur + v_cur * dt
    return np.array(xs), np.array(taus), beta, K, D, events


def test_governed_steps_scale_the_sampled_gains(monkeypatch):
    setup, policy, xi, free = governed_scenario(monkeypatch)
    limits = setup.limits
    ro = rollout(policy, xi, setup)

    g = ro.beta < 1.0
    assert g.sum() > 0
    assert len(ro.saturation_events) == g.sum()
    assert all(limits.contains(tau, tol=1e-9) for tau in ro.torque[g])
    beta = ro.beta[g][:, None, None]
    K_floor = (np.exp(2.0 * setup.alpha * setup.tgrid)[:, None, None]
               * (setup.k_init * np.eye(setup.m)))
    D_floor = setup.alpha * setup.H
    sched, free_sched = ro.schedule, free.schedule
    assert np.array_equal(sched.K[g],
                          K_floor[g] + beta * (free_sched.K[g] - K_floor[g]))
    assert np.array_equal(sched.D[g],
                          D_floor + beta * (free_sched.D[g] - D_floor))
    assert np.array_equal(sched.K[~g], free_sched.K[~g])
    assert np.array_equal(sched.D[~g], free_sched.D[~g])
    assert np.array_equal(sched.lam_A, ro.beta * free_sched.lam_A)
    assert np.array_equal(sched.lam_C, ro.beta * free_sched.lam_C)
    assert ro.schedule.report().passes


@pytest.mark.parametrize("case", ["governed", *GOVERNED_RUNS])
def test_executed_schedule_satisfies_the_inequalities(case, monkeypatch):
    # On governed steps every array of the schedule is blended toward the
    # floor by beta, the rates too: the two inequalities evaluated on the
    # executed D, Ddot, K and Kdot must give the certificate trace reported.
    if case == "governed":
        setup, policy, xi, _ = governed_scenario(monkeypatch)
    else:
        setup, policy, xi, _ = governed_runs_scenario(monkeypatch, case)
    ro = rollout(policy, xi, setup)
    assert (ro.beta < 1.0).any()
    s = ro.schedule
    rep = certificate_margins(setup.H, setup.alpha, s.D, s.Ddot, s.K, s.Kdot)
    assert np.abs(rep.lam_A - s.lam_A).max() <= 1e-9
    assert np.abs(rep.lam_C - s.lam_C).max() <= 1e-9


def model_terms_setup():
    """Task inertia other than H, H other than I, a gravity wrench and a
    1e3 N box, on the 5 s handover."""
    lam = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.2]])
    H = np.array([[1.2, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 0.8]])
    model = PlantModel(3, lam, np.array([0.0, 0.0, -2.0 * 9.81]))
    setup, _ = compile_setup(load_config())
    return replace(setup, model=model, H=H, limits=TorqueLimits.box(1e3, 3))


def loop_block(n):
    """Maps in the first block of rollout's closed loop on a grid of n
    samples."""
    return min(learning.LOOP_BLOCK, n - 1)


# (horizon, n - 1 less LOOP_BLOCK): n - 1 maps that end one below, at and
# one above the first block boundary, and a horizon shorter than one block.
EDGE_HORIZONS = {"edge_below": (0.999, -1), "edge_at": (1.0, 0),
                 "edge_above": (1.001, 1), "edge_short": (0.5, -500)}


@pytest.mark.parametrize("case", ["noisy", "offset", "model_terms",
                                  "governed", "governed_model_terms",
                                  "governed_late", *GOVERNED_RUNS, "stiff",
                                  "one_map_blocks", *EDGE_HORIZONS])
def test_affine_rollout_matches_per_step_loop(case, monkeypatch,
                                              handover_setup, handover_policy,
                                              handover_task):
    if case in EDGE_HORIZONS:
        horizon, past = EDGE_HORIZONS[case]
        setup, noise = compile_setup(load_config(
            overrides={"run_horizon": horizon}))
        assert len(setup.tgrid) - 1 - learning.LOOP_BLOCK == past
        policy = initial_policy(setup)
        runs = [(policy, sample_noise(noise, policy, 0, r), setup)
                for r in range(2)]
    elif case == "governed_late":
        # Blocks of 100 maps put the first governed step, 144, past the
        # first block.
        monkeypatch.setattr(learning, "LOOP_BLOCK", 100)
        setup, policy, xi, free = governed_scenario(monkeypatch)
        first = setup.limits.outside(free.torque).any(axis=1).argmax()
        assert first > loop_block(len(setup.tgrid)) == 100
        runs = [(policy, xi, setup)]
    elif case == "one_map_blocks":
        monkeypatch.setattr(learning, "LOOP_BLOCK", 1)
        noise = replace(handover_task.noise, seed=8)
        runs = [(handover_policy, sample_noise(noise, handover_policy, 0, 0),
                 handover_setup)]
    elif case == "noisy":
        noise = replace(handover_task.noise, seed=3)
        runs = [(handover_policy, sample_noise(noise, handover_policy, 0, r),
                 handover_setup) for r in range(4)]
    elif case == "offset":
        offset_reference(monkeypatch, np.array([0.1, -0.05, 0.02]))
        runs = [(handover_policy, None, handover_setup)]
    elif case == "model_terms":
        offset_reference(monkeypatch, np.array([0.1, -0.05, 0.02]))
        setup = model_terms_setup()
        runs = [(initial_policy(setup), None, setup)]
    elif case == "governed_model_terms":
        # governed_scenario's offset on model_terms_setup.  The free run
        # peaks at 19.9 N on z, 1.5% above the 19.62 N gravity load, so a
        # box at 0.95 x the peak would leave the floor itself out of the
        # box; at 0.995 x the peak 252 steps are governed, beta >= 0.54.
        offset_reference(monkeypatch, np.array([0.01, -0.01, 0.01]))
        setup = model_terms_setup()
        policy = initial_policy(setup)
        peak = np.abs(rollout(policy, None, setup).torque).max()
        setup = replace(setup, limits=TorqueLimits.box(0.995 * peak, setup.m))
        runs = [(policy, None, setup)]
    elif case == "governed":
        setup, policy, xi, _ = governed_scenario(monkeypatch)
        runs = [(policy, xi, setup)]
    elif case in GOVERNED_RUNS:
        setup, policy, xi, _ = governed_runs_scenario(monkeypatch, case)
        runs = [(policy, xi, setup)]
    else:
        # alpha T = 20: the flow's step-by-step branch.
        setup, _ = compile_setup(load_config(
            overrides={"gains_alpha": 2.0, "run_horizon": 10.0}))
        runs = [(initial_policy(setup), None, setup)]
    for policy, xi, setup in runs:
        ro = rollout(policy, xi, setup)
        x, tau, beta, K, D, events = per_step_rollout(policy, xi, setup)
        assert np.abs(ro.x - x).max() <= 1e-12
        assert np.abs(ro.torque - tau).max() <= 1e-9
        g = beta < 1.0
        assert g.any() == case.startswith("governed")
        assert np.array_equal(ro.beta < 1.0, g)
        assert np.array_equal(ro.schedule.K[~g], K[~g])
        assert np.array_equal(ro.schedule.D[~g], D[~g])
        assert ([(e["t"], e["joint"]) for e in ro.saturation_events]
                == [(e["t"], e["joint"]) for e in events])
        # The first governed state comes from the recurrence, the loop's
        # from per-step updates: beta and the gains differ in rounding only.
        assert np.abs(ro.beta - beta).max() <= 1e-12
        assert np.abs(ro.schedule.K - K).max() <= 1e-12 * np.abs(K).max()
        assert np.abs(ro.schedule.D - D).max() <= 1e-12 * np.abs(D).max()


def test_governed_tail_starts_at_the_first_saturated_step(monkeypatch):
    setup, policy, xi, free = governed_scenario(monkeypatch)
    ro = rollout(policy, xi, setup)
    j = int(np.argmax(setup.limits.outside(free.torque).any(axis=1)))
    assert j > 0 and ro.beta[j] < 1.0
    assert np.all(ro.beta[:j] == 1.0)
    assert np.array_equal(ro.x[:j + 1], free.x[:j + 1])
    assert np.array_equal(ro.torque[:j], free.torque[:j])


def test_torque_within_box_tol_is_not_governed(monkeypatch):
    # A box 5e-13 N under the free run's peak torque: the peak is outside
    # by less than BOX_TOL, which the feed-forward pre-check and
    # beta_star_detail count as inside, so the loop governs nothing.
    setup, policy, xi, free = governed_scenario(monkeypatch)
    peak = np.abs(free.torque).max()
    setup = replace(setup, limits=TorqueLimits.box(peak - 5e-13, setup.m))
    ro = rollout(policy, xi, setup)
    assert np.all(ro.beta == 1.0) and ro.saturation_events == []
    assert np.array_equal(ro.x, free.x)
    assert np.array_equal(ro.torque, free.torque)
    assert np.array_equal(ro.schedule.K, free.schedule.K)


@pytest.mark.parametrize("case", GOVERNED_RUNS)
def test_governed_runs_restart_the_scan_with_one_map(case, monkeypatch,
                                                     handover_setup,
                                                     handover_policy):
    # After a governed step i' the next block starts at i' + 1 with one
    # map and doubles while its steps stay in the box, so a block that
    # starts at a holds at most a - i' maps.  The maps a block scans from
    # its governed step i on are then at most i - i', n - 1 over the whole
    # rollout; add the first cut block (at most a full block) and the
    # n - 1 maps that stand.  A block kept long after a governed step
    # would scan about a full block per governed run.  An ungoverned run
    # scans full blocks of LOOP_BLOCK maps.
    scanned = []
    scan = learning.affine_scan

    def counting_scan(maps, s0):
        scanned.append(len(maps))
        return scan(maps, s0)

    monkeypatch.setattr(learning, "affine_scan", counting_scan)
    rollout(handover_policy, None, handover_setup)
    assert scanned == [LOOP_BLOCK] * 5
    setup, policy, xi, _ = governed_runs_scenario(monkeypatch, case)
    scanned.clear()
    ro = rollout(policy, xi, setup)
    g = ro.beta < 1.0
    assert (g[1:] & ~g[:-1]).sum() > 1
    if case == "governed_runs_40":
        # A governed step n - 2 leaves the loop a last block of no maps,
        # the torque at step n - 1 alone.
        assert g[0] and g[-2] and g[-1]
    n = len(ro.t)
    assert sum(scanned) <= 2 * (n - 1) + loop_block(n)


def tight_box_samples(attempts):
    """The 0.26 N box on the 5 s handover and the noise of the given
    attempts of update 0, rollout 0: (setup, policy, list of noise)."""
    setup, noise = compile_setup(load_config(
        overrides={"governor_limit": 0.26}))
    policy = initial_policy(setup)
    return setup, policy, [sample_noise(noise, policy, 0, 0, a)
                           for a in attempts]


def oracle_verdict(policy, xi, setup):
    """per_step_rollout's result, or the class of the error it raised."""
    try:
        return per_step_rollout(policy, xi, setup)
    except (CertifiedFloorError, InfeasibleFloorError) as exc:
        return type(exc)


def no_schedule(*args):
    raise AssertionError("an infeasible sample built its gain schedule")


def test_feedforward_check_agrees_with_the_governed_loop(monkeypatch):
    # The reference starts at the initial state, so the box test on u_ff
    # decides.  Every verdict must be the per-step governed loop's, and
    # the rollout with the test switched off (the loop deciding alone)
    # must give the same error or the same arrays, bit for bit.
    setup, policy, noises = tight_box_samples(range(12))
    verdicts = []
    for xi in noises:
        want = oracle_verdict(policy, xi, setup)
        with monkeypatch.context() as mp:
            mp.setattr(learning, "_check_feedforward", lambda *args: None)
            try:
                loop = rollout(policy, xi, setup)
            except InfeasibleFloorError:
                loop = InfeasibleFloorError
        if want is InfeasibleFloorError:
            assert loop is InfeasibleFloorError
            with monkeypatch.context() as mp:
                mp.setattr(learning, "sampled_schedule", no_schedule)
                with pytest.raises(InfeasibleFloorError,
                                   match="feed-forward torque"):
                    rollout(policy, xi, setup)
            verdicts.append("infeasible")
            continue
        ro = rollout(policy, xi, setup)
        for a, b in ((ro.x, loop.x), (ro.torque, loop.torque),
                     (ro.beta, loop.beta), (ro.schedule.K, loop.schedule.K),
                     (ro.schedule.D, loop.schedule.D)):
            assert np.array_equal(a, b)
        x, tau, beta, K, D, events = want
        assert np.abs(ro.x - x).max() <= 1e-12
        assert np.abs(ro.torque - tau).max() <= 1e-9
        assert np.array_equal(ro.beta, beta) and np.all(beta == 1.0)
        assert np.array_equal(ro.schedule.K, K)
        assert np.array_equal(ro.schedule.D, D)
        verdicts.append("accepted")
    assert verdicts.count("accepted") == 2
    assert verdicts.count("infeasible") == 10


def test_feedforward_check_names_the_first_offending_step():
    setup, _ = compile_setup(load_config(overrides={"governor_limit": 0.26}))
    u_ff = np.zeros((len(setup.tgrid), setup.m))
    u_ff[7, 2] = -0.3
    u_ff[9, 0] = 0.3
    u_ff[3, 1] = 0.26 + 1e-13         # within BOX_TOL: inside the box
    u_ff[2, 2] = np.nan               # a NaN is never outside the box
    with pytest.raises(InfeasibleFloorError,
                       match=r"-0\.3 on joint 2 at t = 0\.007 s"):
        learning._check_feedforward(u_ff, setup.tgrid, setup.limits)
    u_ff[7, 2] = u_ff[9, 0] = 0.0
    learning._check_feedforward(u_ff, setup.tgrid, setup.limits)


def test_offset_reference_leaves_the_verdict_to_the_governed_loop(
        monkeypatch):
    # x_d[0] is 0.1 mm off the initial state, so the feed-forward test is
    # off and the schedule is built for every sample.  Sample 12's u_ff
    # leaves the box on its first two steps; the offset's feedback pulls
    # the torque back in, and the governed loop accepts it.  Sample 27
    # stays infeasible, sample 0 is inside the box throughout.
    setup, policy, noises = tight_box_samples([12, 27, 0])
    offset_reference(monkeypatch, np.array([-1e-4, 0.0, 0.0]))
    built = []
    schedule = learning.sampled_schedule
    monkeypatch.setattr(learning, "sampled_schedule",
                        lambda *args: built.append(1) or schedule(*args))
    for xi, leaves, accepted in zip(noises, (True, True, False),
                                    (True, False, True)):
        x_d, _, xdd_d = learning.rollout_reference(
            setup.dmp, setup.start, plus(policy, xi).theta_traj, setup.tgrid)
        assert not np.array_equal(x_d[0], setup.start)
        # Unit task inertia, no gravity: u_ff is the reference acceleration.
        assert (np.abs(xdd_d) > 0.26).any() == leaves
        want = oracle_verdict(policy, xi, setup)
        built.clear()
        if not accepted:
            assert want is InfeasibleFloorError
            with pytest.raises(InfeasibleFloorError,
                               match="torque at beta = 0"):
                rollout(policy, xi, setup)
            assert built == [1]
            continue
        ro = rollout(policy, xi, setup)
        assert built == [1]
        x, tau, beta, K, D, events = want
        assert np.abs(ro.x - x).max() <= 1e-12
        assert np.abs(ro.torque - tau).max() <= 1e-9
        assert np.array_equal(ro.beta, beta)
        assert setup.limits.contains(ro.torque, tol=1e-12)


@pytest.mark.parametrize("block", ["policy", "noise"])
def test_nan_reference_raises_integration_diverged(block, handover_setup,
                                                   handover_policy,
                                                   handover_task):
    # A NaN torque passes the box test (every comparison is false), so
    # only the finiteness check keeps it from reaching the cost.
    bad = handover_policy.theta_traj.copy()
    bad[5, 1] = np.nan
    pol = handover_policy
    xi = sample_noise(replace(handover_task.noise, seed=1), pol, 0, 0)
    if block == "policy":
        pol = replace(pol, theta_traj=bad)
    else:
        xi = replace(xi, theta_traj=bad)
    with pytest.raises(IntegrationDivergedError):
        rollout(pol, xi, handover_setup)


def test_rollout_runs_the_sample_of_policy_and_noise(handover_setup,
                                                    handover_policy,
                                                    handover_task):
    # A rollout forms its sample once: running the policy with noise xi is
    # running the sample policy + xi without noise, bit for bit.
    noise = replace(handover_task.noise, seed=4)
    xi = sample_noise(noise, handover_policy, 1, 2)
    a = rollout(handover_policy, xi, handover_setup)
    b = rollout(plus(handover_policy, xi), None, handover_setup)
    for name in ("x", "x_d", "torque", "beta"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    for name in ("K", "D", "Kdot", "Ddot", "lam_A", "lam_C"):
        assert np.array_equal(getattr(a.schedule, name),
                              getattr(b.schedule, name))
    assert a.cost == b.cost and a.cost_terms == b.cost_terms
    assert not np.array_equal(a.x, rollout(handover_policy, None,
                                           handover_setup).x)


def test_ablation_linearizes_about_the_noise_free_policy(handover_setup,
                                                         handover_policy,
                                                         handover_task):
    # The ablation's linearization point is the slack of the policy without
    # its noise.  Running the sample policy + xi as a noise-free policy moves
    # that point onto the sample: the schedules agree up to the via time
    # and differ at every step after it.
    setup = replace(handover_setup, mode=MODE_UNCERTIFIED_AFTER_VIA)
    noise = replace(handover_task.noise, seed=4)
    xi = sample_noise(noise, handover_policy, 1, 2)
    sample = plus(handover_policy, xi)
    a = rollout(handover_policy, xi, setup)
    b = rollout(sample, None, setup)
    assert np.all(a.beta == 1.0) and np.all(b.beta == 1.0)
    tau, t_hat = setup.dmp.tau, setup.weights.t_hat
    after = setup.tgrid > t_hat
    assert after.any() and not after.all()
    for name in ("D", "Ddot", "lam_A", "lam_C"):
        assert np.array_equal(getattr(a.schedule, name)[~after],
                              getattr(b.schedule, name)[~after])
    assert np.all((a.schedule.D[after] != b.schedule.D[after]).any(axis=(1, 2)))

    # After the via time D = alpha H + S S^T - (S - Sn)(S - Sn)^T, with S
    # the sample's damping slack and Sn the noise-free policy's at t_hat.
    def damping_slack(p, s):
        S_D = slack_trace(p.theta_d, p.theta_k,
                          setup.slack_basis.eval_deriv(s))[0]
        return vec_triangle_inverse(S_D, setup.m)

    S = damping_slack(sample, 1.0 - setup.tgrid[after] / tau)
    Sn = damping_slack(handover_policy, np.array([1.0 - t_hat / tau]))
    D = (setup.alpha * setup.H + S @ S.transpose(0, 2, 1)
         - (S - Sn) @ (S - Sn).transpose(0, 2, 1))
    assert np.abs(a.schedule.D[after] - D).max() <= 1e-12


def test_schedule_from_rollout_consistent(handover_setup, handover_policy,
                                          nominal_rollout):
    sched = nominal_rollout.schedule
    sampled = sampled_schedule(handover_setup, handover_policy,
                               handover_policy)
    assert np.array_equal(sched.K, sampled.K)
    assert np.array_equal(sched.D, sampled.D)
    rep = sched.report()
    assert rep.passes
    assert abs(rep.eps_D - 29.95) < 1e-6


def test_noisy_sampled_stiffness_is_bitwise_symmetric(
        handover_setup, handover_policy, handover_task):
    # slack_products writes each entry to both halves and the flow acts on
    # each entry alone, so the stiffness needs no symmetrisation.
    checked = 0
    for r in range(6):
        xi = sample_noise(handover_task.noise, handover_policy, 0, r)
        try:
            K = sampled_schedule(handover_setup, handover_policy,
                                 plus(handover_policy, xi)).K
        except CertifiedFloorError:
            continue
        assert np.array_equal(K, np.swapaxes(K, 1, 2))
        assert np.ptp(K[:, 1, 0]) > 0.0
        checked += 1
    assert checked >= 3


def test_initial_policy_blocks(handover_setup):
    pol = initial_policy(handover_setup)
    assert pol.theta_traj.shape == (51, 3)
    assert pol.theta_d.shape == (7, 6)
    assert pol.theta_k.shape == (7, 6)
    # Constant rows reproducing D = 30 I and a constant K = 200 I.
    assert np.allclose(pol.theta_d, pol.theta_d[0])
    assert np.allclose(pol.theta_d[0, :3], np.sqrt(29.95))
    assert np.allclose(pol.theta_k[0, :3], np.sqrt(2 * 0.05 * 200.0))


def test_rollout_follows_the_error_equation_with_model_terms(monkeypatch):
    # With a task inertia other than H and a gravity wrench, the control
    # law's inertia shaping and gravity feedforward must cancel both, so
    # the tracking error follows the error equation under the executed gains.
    offset_reference(monkeypatch, np.array([0.1, -0.05, 0.02]))
    setup = model_terms_setup()
    ro = rollout(initial_policy(setup), None, setup)
    assert np.all(ro.beta == 1.0)
    assert np.abs(ro.x - ro.x_d).max() > 0.01
    assert error_equation_deviation(ro, setup.H) < 1e-9


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_train_gives_up_with_the_rejecting_class():
    # A 1e-6 N box: even the beta = 0 floor saturates at the first step of
    # every attempt, so training gives up with InfeasibleFloorError.
    cfg = load_config(overrides={"run_horizon": 0.5, "governor_limit": 1e-6})
    setup, noise = compile_setup(cfg)
    with pytest.raises(InfeasibleFloorError) as info:
        train(setup, noise=noise, updates=1, rollouts_per_update=1,
              beta_softmax=cfg.learning_softmax_sharpness)
    msg = str(info.value)
    assert f"{MAX_RESAMPLE_ATTEMPTS} attempts" in msg
    assert f"InfeasibleFloorError x{MAX_RESAMPLE_ATTEMPTS}" in msg
    assert isinstance(info.value.__cause__, InfeasibleFloorError)


def test_train_keeps_no_finished_rollout():
    # Each hook call counts the earlier rollouts of the run still alive.
    cfg = load_config(overrides={"run_horizon": 1.0})
    setup, noise = compile_setup(cfg)
    refs, live = [], []

    def hook(update, r_idx, ro):
        gc.collect()
        live.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(ro))

    result = train(setup, noise=noise, updates=2, rollouts_per_update=4,
                   beta_softmax=cfg.learning_softmax_sharpness,
                   rollout_hook=hook)
    assert live == [0] * 9
    # The last one is the noise-free evaluation of the final policy.
    assert refs[-1]() is result.evaluation


def test_train_with_no_updates_only_evaluates():
    cfg = load_config(overrides={"run_horizon": 1.0})
    setup, noise = compile_setup(cfg)
    calls = []
    result = train(setup, noise=noise, updates=0, rollouts_per_update=4,
                   beta_softmax=cfg.learning_softmax_sharpness,
                   rollout_hook=lambda *call: calls.append(call))
    rows = result.rows
    assert [(r["update"], r["rollout"]) for r in rows] == [(0, 0)]
    assert (result.initial_mean_cost == result.final_mean_cost
            == result.evaluation.cost)
    assert len(calls) == 1
    u, r_idx, ro = calls[0]
    assert (u, r_idx) == (0, 0) and ro is result.evaluation
