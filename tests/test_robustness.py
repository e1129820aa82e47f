"""Boundedness constants, the dissipation inequality, and the ultimate bound."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cgms import robustness
from cgms.config import compile_setup, load_config
from cgms.dmp import build_basis
from cgms.errors import (
    ContractViolationError,
    IntegrationDivergedError,
    MarginTooSmallError,
)
from cgms.gains import SlackParams, build_gain_schedule, vec_triangle
from cgms.learning import initial_policy, rollout
from cgms.robustness import (
    RobustnessInputs,
    affine_scan,
    dissipation_check,
    inputs_from_schedule,
    simulate_error_dynamics,
    standard_residuals,
    uub_constants,
    uub_empirical,
)
from test_learning import closed_loop_error_step, offset_reference

ALPHA = 0.05
H3 = np.eye(3)

WORKED = dict(alpha=0.05, h_min=1.0, h_max=1.0, k_lower=200.0, k_upper=200.0,
              d_upper=30.0, eps_D=1.0, eps_K=25.0, gamma=0.5, eta=0.25,
              u_bar=0.01)


def certified_schedule(rng, T=2.0, dt=1e-4):
    """A random schedule with strict margins large enough for the theorem.

    Moderate stiffness (about 50 N/m) with generously sized stiffness
    slack keeps eps_K well above the 2 alpha k_upper floor; the damping
    slack sets eps_D of a few Ns/m.
    """
    basis = build_basis(7, 0.7)
    k0 = rng.uniform(40.0, 60.0)
    d0 = rng.uniform(6.0, 10.0)
    rho = rng.uniform(0.5, 1.0)
    row_d = vec_triangle(np.sqrt(d0 - ALPHA) * np.eye(3))
    row_k = vec_triangle(np.sqrt(2 * ALPHA * k0 * (1 + rho)) * np.eye(3))
    theta_d = np.tile(row_d, (7, 1)) + 0.05 * rng.standard_normal((7, 6))
    theta_k = np.tile(row_k, (7, 1)) + 0.05 * rng.standard_normal((7, 6))
    sp = SlackParams(theta_d=theta_d, theta_k=theta_k, basis=basis, m=3)
    tgrid = np.arange(0.0, T + dt / 2, dt)
    return build_gain_schedule(sp, ALPHA, H3, T, k0 * np.eye(3), tgrid)


@pytest.fixture(scope="module")
def schedules():
    rng = np.random.default_rng(99)
    return [certified_schedule(rng) for _ in range(20)]


# ---------------------------------------------------------------------------
# Constant chain
# ---------------------------------------------------------------------------

def test_worked_constant_chain():
    res = uub_constants(RobustnessInputs(**WORKED))
    assert abs(res.c1 - 0.25) < 1e-12
    assert res.c2 == 1.0
    assert res.m1p == 0.5
    assert res.m2p == 100.75
    assert abs(res.radius - np.sqrt(806.0) * 0.01) < 1e-12
    assert abs(res.radius - 0.284) < 1e-3


def test_precondition_boundary():
    bad = dict(WORKED, eps_K=24.0)    # needs eps_K > 24.5
    with pytest.raises(MarginTooSmallError):
        uub_constants(RobustnessInputs(**bad))


def test_young_parameter_ranges():
    with pytest.raises(MarginTooSmallError):
        uub_constants(RobustnessInputs(**dict(WORKED, gamma=1.5)))
    with pytest.raises(MarginTooSmallError):
        uub_constants(RobustnessInputs(**dict(WORKED, eta=0.6)))
    with pytest.raises(MarginTooSmallError):
        uub_constants(RobustnessInputs(**dict(WORKED, eps_D=-1.0)))
    with pytest.raises(MarginTooSmallError, match="nonnegative"):
        uub_constants(RobustnessInputs(**dict(WORKED, h_min=-1.0)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", list(WORKED))
def test_non_finite_inputs_rejected(name, value):
    # NaN slips through every ordered comparison of the range checks.
    with pytest.raises(MarginTooSmallError, match=name):
        uub_constants(RobustnessInputs(**dict(WORKED, **{name: value})))


def test_radius_monotone_in_margins_and_linear_in_ubar():
    base = uub_constants(RobustnessInputs(**WORKED))
    # Larger margins never increase the radius (gamma, eta rescaled with
    # eps_D to stay admissible).
    better = dict(WORKED, eps_D=2.0, eps_K=50.0, gamma=1.0, eta=0.5)
    assert uub_constants(RobustnessInputs(**better)).radius <= base.radius
    doubled = uub_constants(RobustnessInputs(**dict(WORKED, u_bar=0.02)))
    assert abs(doubled.radius - 2.0 * base.radius) < 1e-15


def test_inputs_from_schedule_bounds(schedules):
    sched = schedules[0]
    inp = inputs_from_schedule(sched, 0.01)
    k_eigs = np.linalg.eigvalsh(sched.K)
    assert abs(inp.k_lower - k_eigs.min()) < 1e-12
    assert abs(inp.k_upper - k_eigs.max()) < 1e-12
    assert inp.h_min == inp.h_max == 1.0
    d_norm = np.linalg.norm(sched.D, ord=2, axis=(1, 2)).max()
    assert abs(inp.d_upper - d_norm) <= 1e-12 * d_norm
    rep = sched.report()
    assert inp.eps_D == rep.eps_D
    assert inp.eps_K == rep.eps_K
    assert inp.gamma == rep.eps_D / 2
    opt = inputs_from_schedule(sched, 0.01, optimize=True)
    c_def = uub_constants(inp).c1
    c_opt = uub_constants(opt).c1
    assert c_opt >= c_def - 1e-12


class StubSchedule:
    """Constant gains with given margins: what inputs_from_schedule reads."""

    def __init__(self, eps_K, eps_D=1.0, k=50.0, d=30.0):
        self.alpha, self.H = ALPHA, H3
        self.K = np.stack([k * np.eye(3)] * 2)
        self.D = np.stack([d * np.eye(3)] * 2)
        self.eps_D, self.eps_K = eps_D, eps_K

    def report(self):
        return self


def grid_search_oracle(schedule, u_bar):
    """The full 19 x 19 (gamma, eta) search that optimize=True reduces."""
    best = inputs_from_schedule(schedule, u_bar)
    best_c1 = -np.inf
    eps_D = best.eps_D
    for gfrac in np.linspace(0.05, 0.95, 19):
        g = gfrac * eps_D
        for efrac in np.linspace(0.05, 0.95, 19):
            cand = replace(best, gamma=g, eta=efrac * (eps_D - g))
            try:
                c1 = uub_constants(cand).c1
            except MarginTooSmallError:
                continue
            if c1 > best_c1:
                best, best_c1 = cand, c1
    return best


def test_optimize_matches_full_grid_search(schedules):
    # eps_K = 10 with k = 50, d = 30: the floor 5 + 2.25 / gamma rejects
    # gamma <= 0.45 and admits larger gamma; eps_K = 5 admits none.
    wide, none = StubSchedule(eps_K=10.0), StubSchedule(eps_K=5.0)
    assert grid_search_oracle(wide, 0.01).gamma > 0.45
    for sched in schedules + [wide, none]:
        opt = inputs_from_schedule(sched, 0.01, optimize=True)
        ref = grid_search_oracle(sched, 0.01)
        assert opt == ref
        if sched is not none:
            assert uub_constants(opt).c1 == uub_constants(ref).c1
    with pytest.raises(MarginTooSmallError):
        uub_constants(inputs_from_schedule(none, 0.01, optimize=True))


# ---------------------------------------------------------------------------
# Simulation checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("steps", [1, 15, 16, 17, 999, 1000, 1001, 5000])
def test_affine_maps_match_per_step_oracle(steps):
    # Grids around the LOOP_BLOCK = 1000 block edges and across many
    # blocks; a block of L steps is scanned in chunks of ceil(sqrt(L)), 32
    # for a full block, so these grids also end in full and ragged last
    # chunks.  Families of one, two and three residuals, with and without
    # an initial error: every member matches its own run of the Euler
    # step, one step at a time.
    dt = 1e-3
    sched = certified_schedule(np.random.default_rng(steps), T=steps * dt,
                               dt=dt)
    assert len(sched.t) == steps + 1
    m = sched.m
    residuals = standard_residuals(0.01, m, seed=steps)
    for z0 in (None, np.array([0.1, -0.05, 0.08, 0.02, 0.0, -0.03])):
        ref = []
        for u in residuals:
            U = u(sched.t)
            xt, xtd = (np.zeros(m),) * 2 if z0 is None else (z0[m:], z0[:m])
            Z = [np.r_[xt, xtd]]
            for i in range(steps):
                xt, xtd = closed_loop_error_step(xt, xtd, sched.H, sched.D[i],
                                                 sched.K[i], U[i], dt)
                Z.append(np.r_[xt, xtd])
            ref.append(np.array(Z))
        for R in (1, 2, 3):
            t, XT, XTD = simulate_error_dynamics(sched, residuals[-R:],
                                                 z0=z0)
            assert np.array_equal(t, sched.t)
            assert XT.shape == XTD.shape == (R, steps + 1, m)
            for r, Z in enumerate(ref[-R:]):
                assert np.abs(XT[r] - Z[:, :m]).max() <= 1e-13
                assert np.abs(XTD[r] - Z[:, m:]).max() <= 1e-13


def test_simulation_is_the_rollout_error_loop(monkeypatch):
    # The loop the checks judge is the loop a rollout executes: the default
    # handover started 1 mm off its reference, ungoverned, against the
    # unforced simulation of its executed schedule from that error.
    offset_reference(monkeypatch, np.array([1e-3, -5e-4, 2e-4]))
    setup, _ = compile_setup(load_config())
    ro = rollout(initial_policy(setup), None, setup)
    assert np.all(ro.beta == 1.0)
    z0 = np.r_[np.zeros(setup.m), ro.x[0] - ro.x_d[0]]
    t, (XT,), _ = simulate_error_dynamics(
        ro.schedule, [lambda t: np.zeros((len(t), setup.m))], z0=z0)
    assert np.array_equal(t, ro.t)
    assert np.abs(ro.x - ro.x_d - XT).max() <= 1e-12


@pytest.mark.parametrize("L", [0, 1, 2, 3, 15, 16, 17, 70, 71, 256, 5000])
@pytest.mark.parametrize("R", [None, 3])
def test_affine_scan_matches_sequential_loop(L, R):
    # No maps, lengths at and around the chunk edges ceil(sqrt(L)) and
    # with a shorter last chunk (17 = 3 chunks of 5 and one of 2; 5000 =
    # 70 of 71 and one of 30), for a state (N,) and a family of columns
    # (N, R).
    rng = np.random.default_rng(L)
    N = 7
    maps = np.eye(N) + 1e-3 * rng.standard_normal((L, N, N))
    s0 = rng.standard_normal(N if R is None else (N, R))
    ref = np.empty((L,) + s0.shape)
    s = s0
    for Ti, out in zip(maps, ref):
        s = np.matmul(Ti, s, out=out)
    got = affine_scan(maps.copy(), s0)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= 1e-13 * np.abs(ref).max(
        initial=0.0)


def test_affine_scan_composes_in_place():
    # The scan overwrites its maps: beyond its result it allocates a few
    # per-chunk arrays, far less than a copy of the 5000 maps (1.96 MB).
    maps = np.eye(7) + 1e-3 * np.random.default_rng(0).standard_normal(
        (5000, 7, 7))
    s0 = np.ones(7)
    affine_scan(maps.copy(), s0)            # lazy first-call set-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        states = affine_scan(maps, s0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= states.nbytes + 0.1 * maps.nbytes, peak


def constant_gain_schedule(T, k=50.0, d=8.0, dt=1e-3):
    """The fields simulate_error_dynamics reads, with constant gains that
    take no memory per sample: horizons and stiffnesses past what
    certified_schedule can certify."""
    n = round(T / dt) + 1
    return SimpleNamespace(m=3, H=H3, t=np.arange(n) * dt,
                           K=np.broadcast_to(k * H3, (n, 3, 3)),
                           D=np.broadcast_to(d * H3, (n, 3, 3)))


def traced_peak(sched, family):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        simulate_error_dynamics(sched, family)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_simulation_memory_does_not_grow_with_horizon():
    # One residual on a 5001-step schedule stays under 2 MB of traced
    # memory (1.33 MB); building every step's map at once takes 5.1 MB.
    sched = certified_schedule(np.random.default_rng(5), T=5.0, dt=1e-3)
    peak = traced_peak(sched, standard_residuals(0.01, sched.m)[2:])
    assert peak <= 2e6, peak
    # Three residuals: doubling the horizon adds no more than the longer
    # trajectories, R dn 2m doubles, and 4 kB of interpreter bookkeeping.
    # Keeping the samples apart from them would add as much again, and any
    # whole-horizon array at least dn doubles (40 kB).
    family = standard_residuals(0.01, 3)
    short, long = constant_gain_schedule(5.0), constant_gain_schedule(10.0)
    dn = len(long.t) - len(short.t)
    simulate_error_dynamics(short, family)      # lazy first-call set-up
    grown = traced_peak(long, family) - traced_peak(short, family)
    assert grown <= len(family) * dn * 2 * 3 * 8 + 4096, grown


def test_non_finite_state_raises():
    sched = certified_schedule(np.random.default_rng(3), T=0.5, dt=1e-3)
    with pytest.raises(IntegrationDivergedError):
        simulate_error_dynamics(
            sched, [lambda t: np.full((len(t), sched.m), np.nan)])
    # Stiffness 1e8 puts h^2 k = 100 past the Euler step's stability limit
    # of 4, so the state overflows within the 0.5 s horizon.
    stiff = constant_gain_schedule(0.5, k=1e8, d=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationDivergedError):
            simulate_error_dynamics(stiff, [lambda t: np.zeros((len(t), 3))],
                                    z0=np.full(6, 1e-3))


def test_uub_rejects_diverged_and_empty_families():
    # A diverged trajectory used to fold into the worst margin as NaN,
    # which min() drops, and an empty family used to pass with margin inf.
    sched = certified_schedule(np.random.default_rng(3), T=0.5, dt=1e-3)
    inp = inputs_from_schedule(sched, 0.01, optimize=True)
    finite = standard_residuals(0.01, sched.m)[1]

    def nan(t):
        return np.full((len(t), sched.m), np.nan)

    for family in ([nan], [finite, nan]):
        with pytest.raises(IntegrationDivergedError):
            uub_empirical(sched, inp, family)
    with pytest.raises(ContractViolationError, match="empty"):
        uub_empirical(sched, inp, [])


def test_grid_of_fewer_than_two_samples_raises():
    # No step to take: tgrid[1] used to raise a bare IndexError.
    inp = RobustnessInputs(**WORKED)
    residual = standard_residuals(0.01, 3)[1]
    for n in (0, 1):
        short = SimpleNamespace(m=3, H=H3, t=np.zeros(n),
                                K=np.zeros((n, 3, 3)), D=np.zeros((n, 3, 3)))
        with pytest.raises(ContractViolationError, match="at least 2"):
            simulate_error_dynamics(short, [residual])
        with pytest.raises(ContractViolationError, match="at least 2"):
            uub_empirical(short, inp, [residual])


def test_residual_of_wrong_shape_raises():
    # A residual maps times (k,) to forces (k, m).  A (k,) result and a
    # per-time (m,) one are both refused by name; the (m,) one would
    # otherwise broadcast into the step maps.
    sched = certified_schedule(np.random.default_rng(3), T=0.5, dt=1e-3)
    n, m = len(sched.t), sched.m
    for wrong, shape in ((lambda t: np.zeros(len(t)), (n,)),
                         (lambda t: np.zeros(m), (m,))):
        with pytest.raises(ContractViolationError) as err:
            simulate_error_dynamics(sched, [wrong])
        assert f"{(n, m)}" in str(err.value)
        assert f"got {shape}" in str(err.value)


def test_wrong_length_z0_raises(schedules):
    # Four entries for m = 3 used to broadcast into (0.4, 0.4, 0.4) and
    # (0.1, 0.2, 0.3) and run.
    sched = schedules[0]
    inp = inputs_from_schedule(sched, 0.01, optimize=True)
    residual = standard_residuals(0.01, sched.m)[0]
    for z0 in (np.array([0.1, 0.2, 0.3, 0.4]), np.zeros((1, 6))):
        with pytest.raises(ContractViolationError):
            simulate_error_dynamics(sched, [residual], z0=z0)
        with pytest.raises(ContractViolationError):
            dissipation_check(sched, inp, residual, z0=z0)


def test_dissipation_check_needs_three_samples():
    # Central differences of the storage need a sample on each side.
    sched = certified_schedule(np.random.default_rng(1), T=1e-3, dt=1e-3)
    assert len(sched.t) == 2 and sched.report().passes_strict
    inp = inputs_from_schedule(sched, 0.01, optimize=True)
    residual = standard_residuals(0.01, sched.m)[2]
    with pytest.raises(ContractViolationError, match="at least 3"):
        dissipation_check(sched, inp, residual)


def test_unforced_storage_nonincreasing(schedules):
    sched = schedules[0]
    inp = inputs_from_schedule(sched, 0.01, optimize=True)
    m = sched.m
    report = dissipation_check(sched, inp, lambda t: np.zeros((len(t), m)),
                               z0=np.array([0.1, -0.05, 0.08, 0.02, 0.0, -0.03]))
    assert report["passes"]
    assert report["max_violation"] < 1e-6


def test_dissipation_inequality_sinusoid(schedules):
    for sched in schedules[:5]:
        inp = inputs_from_schedule(sched, 0.01, optimize=True)
        residual = standard_residuals(0.01, sched.m)[2]
        report = dissipation_check(sched, inp, residual)
        assert report["passes"], report


def test_negative_control_inflated_c1(schedules, monkeypatch):
    # A decay constant ten times too large must break the inequality.
    sched = schedules[0]
    inp = inputs_from_schedule(sched, 0.01, optimize=True)
    res = uub_constants(inp)
    monkeypatch.setattr(robustness, "uub_constants",
                        lambda _: replace(res, c1=10.0 * res.c1))
    m = sched.m
    z0 = np.array([0.3, -0.2, 0.25, 0.05, -0.02, 0.04])
    report = dissipation_check(sched, inp, lambda t: np.zeros((len(t), m)),
                               z0=z0)
    assert not report["passes"]
    assert report["max_violation"] > 1e-5


def test_uub_zero_residual(schedules):
    sched = schedules[0]
    inp = inputs_from_schedule(sched, 0.01, optimize=True)
    inside, margin = uub_empirical(
        sched, inp, [lambda t: np.zeros((len(t), sched.m))])
    assert inside
    assert margin > 0


def test_uub_constant_residual_steady_state(schedules):
    # Constant residual at the bound: the measured trajectory stays inside
    # the radius, and the constant-gain steady state xt = K^-1 u is a
    # lower-bound oracle for where it settles.
    sched = schedules[1]
    inp = inputs_from_schedule(sched, 0.01, optimize=True)
    res = uub_constants(inp)
    u = np.zeros(sched.m)
    u[0] = 0.01
    tgrid, (XT,), (XTD,) = simulate_error_dynamics(
        sched, [lambda t: np.tile(u, (len(t), 1))])
    znorm = np.sqrt((XT ** 2 + XTD ** 2).sum(axis=1))
    assert znorm.max() <= res.radius
    x_ss = np.linalg.solve(sched.K[-1], u)
    assert np.abs(XT[-1] - x_ss).max() < 5e-3


def test_uub_linearity_in_ubar(schedules):
    sched = schedules[2]
    direction = np.array([1.0, 0.0, 0.0])

    def peak(u_bar):
        _, (XT,), (XTD,) = simulate_error_dynamics(
            sched,
            [lambda t: np.outer(u_bar * np.sin(2 * np.pi * t), direction)])
        return np.sqrt((XT ** 2 + XTD ** 2).sum(axis=1)).max()

    p1, p2 = peak(0.01), peak(0.02)
    assert abs(p2 / p1 - 2.0) < 0.05 * 2.0


def test_bound_soundness_ensemble(schedules):
    # 20 schedules x 3 residuals: the dissipation inequality and the
    # ultimate bound hold everywhere.
    for i, sched in enumerate(schedules):
        inp = inputs_from_schedule(sched, 0.01, optimize=True)
        residuals = standard_residuals(0.01, sched.m, seed=i)
        report = dissipation_check(sched, inp, residuals[2])
        assert report["passes"], (i, report)
        inside, margin = uub_empirical(sched, inp, residuals)
        assert inside, (i, margin)


def test_strict_margin_precondition_enforced():
    # A schedule sitting on the certificate boundary (eps_D = 0) is not
    # admissible for the dissipation argument.
    basis = build_basis(7, 0.7)
    sp = SlackParams(theta_d=np.zeros((7, 6)), theta_k=np.zeros((7, 6)),
                     basis=basis, m=3)
    tgrid = np.arange(0.0, 1.0, 1e-3)
    sched = build_gain_schedule(sp, ALPHA, H3, 1.0, 50.0 * np.eye(3), tgrid)
    inp = RobustnessInputs(alpha=ALPHA, h_min=1.0, h_max=1.0, k_lower=40.0,
                           k_upper=50.0, d_upper=0.05, eps_D=1.0, eps_K=6.0,
                           gamma=0.5, eta=0.25, u_bar=0.01)
    with pytest.raises(MarginTooSmallError):
        dissipation_check(sched, inp, lambda t: np.zeros((len(t), 3)))


def test_zero_stiffness_margin_is_not_strict():
    # A constant damping slack S_D = I and no stiffness slack: eps_D = 1 but
    # eps_K = 0, which is no strict margin either.
    row = vec_triangle(np.eye(3))
    sp = SlackParams(theta_d=np.tile(row, (7, 1)), theta_k=np.zeros((7, 6)),
                     basis=build_basis(7, 0.7), m=3)
    tgrid = np.arange(0.0, 1.0, 1e-3)
    sched = build_gain_schedule(sp, ALPHA, H3, 1.0, 50.0 * np.eye(3), tgrid)
    rep = sched.report()
    assert abs(rep.eps_D - 1.0) < 1e-9 and rep.eps_K == 0.0
    assert rep.passes and not rep.passes_strict
    inp = RobustnessInputs(alpha=ALPHA, h_min=1.0, h_max=1.0, k_lower=40.0,
                           k_upper=50.0, d_upper=1.05, eps_D=1.0, eps_K=6.0,
                           gamma=0.5, eta=0.25, u_bar=0.01)
    with pytest.raises(MarginTooSmallError, match="strict"):
        dissipation_check(sched, inp, lambda t: np.zeros((len(t), 3)))
