"""Acceptance gate: the nine headline capabilities, one pass/fail line each.

The heavy artifacts (three full training runs, the uncertified ablation
run) are session fixtures shared with the unit tests, so the gate adds
little beyond the checks themselves.
"""

from dataclasses import replace

import numpy as np

from cgms import cli
from cgms.config import compile_setup, load_config
from cgms.dmp import build_basis, fit_min_jerk, min_jerk, rollout_reference
from cgms.gains import integrate_cholesky_flow, slack_trace
from cgms.governor import beta_star_detail
from cgms.learning import PolicyParams, initial_policy, pi2_update, pi2_weights, rollout
from cgms.robustness import (
    RobustnessInputs,
    dissipation_check,
    inputs_from_schedule,
    standard_residuals,
    uub_constants,
    uub_empirical,
)
from conftest import seven_joint_box, vec_triangle_inverse
from test_learning import error_equation_deviation, offset_reference
from test_robustness import certified_schedule


def verdict(num, label, ok, detail):
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


def test_criterion_1_certified_exploration(training_runs):
    setup, result, wall = training_runs[0]
    rows = result.rows
    lam_max = max(max(r["lamA_max"], r["lamC_max"]) for r in rows)
    ok = lam_max <= 1e-9 and wall < 600.0
    verdict(1, "every exploration rollout certified",
            ok, f"max eigenvalue {lam_max:.3g}, wall {wall:.0f}s")


def test_criterion_2_ablation_loses_certificate(ablation_run):
    setup, result, eig_rows = ablation_run
    lam_c = np.array([r[3] for r in eig_rows])
    n_pos = int((lam_c > 0).sum())
    ok = n_pos > 0
    verdict(2, "uncertified-after-via violates the stiffness condition",
            ok, f"{n_pos}/{len(lam_c)} rollouts with positive post-via "
                f"eigenvalue, max {lam_c.max():.3g}")


def test_criterion_3_cost_convergence(training_runs):
    ratios = {s: r.final_mean_cost / r.initial_mean_cost
              for s, (_, r, _) in training_runs.items()}
    ok = all(v < 0.5 for v in ratios.values())
    verdict(3, "final mean cost under half of initial for seeds 0-2",
            ok, ", ".join(f"seed {s}: {v:.3f}" for s, v in ratios.items()))


def test_criterion_4_stiffness_flow_identity():
    rng = np.random.default_rng(4)
    basis = build_basis(7, 0.7)
    dt = 1e-4
    tgrid = np.arange(0.0, 1.0, dt)
    phi = basis.eval_deriv(1.0 - tgrid)
    worst_rel, worst_min = 0.0, np.inf
    for _ in range(100):
        theta_d = 0.5 * rng.standard_normal((7, 6))
        theta_k = 0.5 * rng.standard_normal((7, 6))
        S_D, S_K, Sd_D = (vec_triangle_inverse(S, 3)
                           for S in slack_trace(theta_d, theta_k, phi))
        Sd_D = -Sd_D
        Ddot = Sd_D @ np.swapaxes(S_D, 1, 2) + S_D @ np.swapaxes(Sd_D, 1, 2)
        B = -0.05 * Ddot - S_K @ np.swapaxes(S_K, 1, 2)
        K = integrate_cholesky_flow(B, 0.05, 200.0 * np.eye(3), dt)
        fd = (K[2:] - K[:-2]) / (2 * dt)
        target = 2 * 0.05 * K[1:-1] + B[1:-1]
        rel = np.abs(fd - target).max() / max(np.abs(target).max(), 1.0)
        worst_rel = max(worst_rel, rel)
        worst_min = min(worst_min, np.linalg.eigvalsh(K)[..., 0].min())
    ok = worst_rel < 1e-3 and worst_min > 0.0
    verdict(4, "stiffness flow satisfies its rate identity",
            ok, f"worst relative error {worst_rel:.2e}, "
                f"min eigenvalue {worst_min:.3g}")


def test_criterion_5_governor_exactness(training_runs):
    rng = np.random.default_rng(5)
    limits = seven_joint_box()

    def bisect(tau0, tau1):
        def feasible(b):
            return limits.contains(tau0 + b * tau1, tol=1e-15)
        if feasible(1.0):
            return 1.0
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
        return lo

    worst = 0.0
    for _ in range(1000):
        tau0 = rng.uniform(limits.tau_min, limits.tau_max)
        tau1 = 30.0 * rng.standard_normal(7)
        b, _ = beta_star_detail(tau0, tau1, limits)
        worst = max(worst, abs(b - bisect(tau0, tau1)))
        assert limits.contains(tau0 + b * tau1, tol=1e-9)
    events = sum(len(r.saturation_events) for _, r, _ in training_runs.values())
    ok = worst < 1e-9 and events == 0
    verdict(5, "closed-form gain scaling matches bisection, no saturation",
            ok, f"max deviation {worst:.2e} over 1000 splits, "
                f"{events} saturation events in governed training")


def test_criterion_6_boundedness_guarantee():
    res = uub_constants(RobustnessInputs(
        alpha=0.05, h_min=1.0, h_max=1.0, k_lower=200.0, k_upper=200.0,
        d_upper=30.0, eps_D=1.0, eps_K=25.0, gamma=0.5, eta=0.25, u_bar=0.01))
    chain_ok = (abs(res.c1 - 0.25) < 1e-12 and res.c2 == 1.0
                and res.m1p == 0.5 and res.m2p == 100.75
                and abs(res.radius - np.sqrt(806.0) * 0.01) < 1e-12)
    rng = np.random.default_rng(6)
    worst_violation, worst_margin = -np.inf, np.inf
    for i in range(20):
        sched = certified_schedule(rng)
        inp = inputs_from_schedule(sched, 0.01, optimize=True)
        residuals = standard_residuals(0.01, sched.m, seed=i)
        rep = dissipation_check(sched, inp, residuals[2])
        worst_violation = max(worst_violation, rep["max_violation"])
        inside, margin = uub_empirical(sched, inp, residuals)
        worst_margin = min(worst_margin, margin)
    ok = chain_ok and worst_violation <= 1e-5 and worst_margin >= 0.0
    verdict(6, "dissipation inequality and ultimate bound hold",
            ok, f"constants exact: {chain_ok}, worst violation "
                f"{worst_violation:.2e}, worst bound margin {worst_margin:.3g}")


def test_criterion_7_scenario_tracking():
    # Each scenario's reference starts at the initial state and steps the
    # plant's update, so the rollout's tracking error is zero by
    # construction: the RMSE reads exactly 0, which measures no tracking,
    # and the message says so.
    worst = {}
    for name in ("s1", "s2", "s3", "s4", "s5"):
        cfg = load_config(overrides={"run_scenario": name})
        setup, _ = compile_setup(cfg)
        ro = rollout(initial_policy(setup), None, setup)
        rmse = np.sqrt(((ro.x - ro.x_d) ** 2).mean(axis=0))
        worst[name] = float(rmse.max())
    ok = all(v < 5e-2 for v in worst.values())
    zero = ("; zero error by construction, not a measure of tracking"
            if not any(worst.values()) else "")
    verdict(7, "per-axis tracking RMSE under 5 cm on all five scenarios",
            ok, ", ".join(f"{k}: {v:.1e}" for k, v in worst.items()) + zero)


def test_criterion_8_reproducibility(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[run]\nupdates = 3\nrollouts = 4\n")
    traces = []
    for out in ("a", "b"):
        rc = cli.main(["train", "--config", str(cfg_path), "--seed", "7",
                       "--out", str(tmp_path / out)])
        assert rc == 0
        traces.append((tmp_path / out / "learning_trace.csv").read_bytes())
    ok = traces[0] == traces[1]
    verdict(8, "identical seeds give byte-identical learning traces",
            ok, f"{len(traces[0])} bytes compared")


def test_criterion_9_component_oracles(monkeypatch, handover_task):
    # (a) the training rollout's closed loop, started off its reference,
    # reproduces the second-order error equation under its executed gains
    # over 5 s.
    offset_reference(monkeypatch, np.array([0.1, -0.05, 0.02]))
    setup = handover_task.setup
    ro = rollout(initial_policy(setup), None, setup)
    dev = error_equation_deviation(ro, setup.H)
    plant_ok = dev < 1e-5
    # (b) minimum-jerk fit round trip.
    start = np.array([0.55, 0.0, 0.11])
    goal = np.array([0.05, 0.72, 0.11])
    params = replace(setup.dmp, tau=5.0, goal=goal)
    tgrid = np.arange(0.0, 5.0 + 5e-4, 1e-3)
    theta = fit_min_jerk(start, tgrid, params)
    x, _, _ = rollout_reference(params, start, theta, tgrid)
    x_ref, _, _ = min_jerk(start, goal, 5.0, tgrid)
    fit_err = float(np.abs(x - x_ref).max())
    fit_ok = fit_err < 1e-3
    # (c) policy update stays in the convex hull of the sampled noise and
    # weights decrease with cost.
    rng = np.random.default_rng(9)

    def rand_pol():
        return PolicyParams(theta_traj=rng.standard_normal((51, 3)),
                            theta_d=rng.standard_normal((7, 6)),
                            theta_k=rng.standard_normal((7, 6)))

    pol = rand_pol()
    xis = [rand_pol() for _ in range(5)]
    costs = [3.0, 1.0, 7.0, 2.0, 5.0]
    beta = handover_task.cfg.learning_softmax_sharpness
    new, w = pi2_update(pol, costs, xis, beta)

    def flat(p):
        return np.concatenate([p.theta_traj.ravel(), p.theta_d.ravel(),
                               p.theta_k.ravel()])

    step = flat(new) - flat(pol)
    hull = sum(wi * flat(xi) for wi, xi in zip(w, xis))
    order = np.argsort(costs)
    pi2_ok = (np.all(w >= 0) and abs(w.sum() - 1.0) < 1e-12
              and np.allclose(step, hull, atol=1e-12)
              and np.all(np.diff(w[order]) <= 1e-15)
              and np.allclose(pi2_weights([2.0, 2.0], beta), 0.5))
    ok = plant_ok and fit_ok and pi2_ok
    verdict(9, "plant, trajectory fit, and update-rule oracles agree",
            ok, f"controller deviation {dev:.2e}, fit error {fit_err:.2e}, "
                f"update checks: {pi2_ok}")
