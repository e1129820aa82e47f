"""Episodic PI2 policy improvement with certified Gaussian-manifold sampling.

The policy has three learnable blocks: the DMP forcing weights and the two
slack channels.  Exploration noise is drawn once per episode and held constant
over time; every rollout evaluates gains through the slack construction, so
the stability certificate holds for every sample by construction.  The
torque governor contracts the gains per control step when the affine torque
command would leave the actuator box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import plants
from .dmp import DmpParams, compile_reference, fit_min_jerk, rollout_reference
from .errors import (
    CertifiedFloorError,
    InfeasibleFloorError,
    IntegrationDivergedError,
)
from .gains import (
    GainSchedule,
    constant_slack_params,
    integrate_cholesky_flow,  # noqa: F401  (wrapped by perfbench/tracer.py)
    schedule_from_products,
    slack_products,
    slack_trace,
)
from .governor import TorqueLimits, beta_star_detail
from .plants import PlantModel
from .robustness import LOOP_BLOCK, affine_scan, euler_step

MODE_CERTIFIED = "certified"
MODE_UNCERTIFIED_AFTER_VIA = "uncertified-after-via"

MAX_RESAMPLE_ATTEMPTS = 100


# ---------------------------------------------------------------------------
# Parameter vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyParams:
    """Learnable blocks: trajectory forcing weights and slack weights."""

    theta_traj: np.ndarray   # (M_traj, D)
    theta_d: np.ndarray      # (M_s, d_tri)
    theta_k: np.ndarray      # (M_s, d_tri)

    def to_dict(self):
        return {
            "layout": {
                "blocks": ["theta_traj", "theta_d", "theta_k"],
                "shapes": {
                    "theta_traj": list(self.theta_traj.shape),
                    "theta_d": list(self.theta_d.shape),
                    "theta_k": list(self.theta_k.shape),
                },
            },
            "theta_traj": self.theta_traj.tolist(),
            "theta_d": self.theta_d.tolist(),
            "theta_k": self.theta_k.tolist(),
        }

    @staticmethod
    def from_dict(d):
        return PolicyParams(theta_traj=np.array(d["theta_traj"], float),
                            theta_d=np.array(d["theta_d"], float),
                            theta_k=np.array(d["theta_k"], float))


@dataclass(frozen=True)
class ExplorationNoise:
    """Per-block exploration standard deviations and their decay."""

    sigma_traj: float
    sigma_k: float
    sigma_d: float
    decay: float
    seed: int


def sample_noise(noise, policy, update, rollout_index, attempt=0):
    """Zero-mean Gaussian blocks, deterministic in (seed, update, rollout,
    attempt); the same episode noise is applied at every timestep."""
    rng = np.random.default_rng(
        [int(noise.seed), int(update), int(rollout_index), int(attempt)])
    return PolicyParams(
        theta_traj=noise.sigma_traj * rng.standard_normal(policy.theta_traj.shape),
        theta_d=noise.sigma_d * rng.standard_normal(policy.theta_d.shape),
        theta_k=noise.sigma_k * rng.standard_normal(policy.theta_k.shape))


def decay_covariance(noise):
    """Scale the exploration covariance by the decay factor (std by its root)."""
    r = math.sqrt(noise.decay)
    return replace(noise, sigma_traj=noise.sigma_traj * r,
                   sigma_k=noise.sigma_k * r, sigma_d=noise.sigma_d * r)


# ---------------------------------------------------------------------------
# Cost
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostWeights:
    """Via-point tracking cost: stiffness and acceleration regularizers plus
    a Gaussian-kernel tracking weight centered at the via time."""

    lam_k: float
    lam_acc: float
    w0: float
    gamma_via: float
    t_hat: float
    sigma_via: float


def via_weight(t, weights):
    """w0 + gamma * exp(-(t - t_hat)^2 / (2 sigma^2))."""
    if weights.sigma_via <= 0:
        raise ValueError("sigma_via must be positive")
    g = np.exp(-((np.asarray(t, float) - weights.t_hat) ** 2)
               / (2.0 * weights.sigma_via ** 2))
    return weights.w0 + weights.gamma_via * g


def trajectory_cost(t, x, x_ref, accel, K_trace, weights):
    """Total cost and per-term breakdown over aligned traces.

    The per-step sums over joints, tr K and |x - x_ref|^2, add the columns
    in joint order, each a pass along time.  A term or a total that is not
    finite (a loop that grew inside a box wide enough to hold it) raises
    IntegrationDivergedError naming it."""
    n = len(t)
    if not (len(x) == len(x_ref) == len(accel) == len(K_trace) == n):
        raise ValueError("trace lengths differ")
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        diag = K_trace.diagonal(axis1=1, axis2=2).T
        cost_k = weights.lam_k * float(sum(diag[1:], diag[0]).sum())
        cost_acc = weights.lam_acc * float((accel ** 2).sum())
        sq = ((x - x_ref) ** 2).T
        cost_track = float((via_weight(t, weights)
                            * sum(sq[1:], sq[0])).sum())
    total = cost_k + cost_acc + cost_track
    terms = {"cost_K": cost_k, "cost_acc": cost_acc,
             "cost_track": cost_track}
    for name, value in (*terms.items(), ("cost", total)):
        if not math.isfinite(value):
            raise IntegrationDivergedError(f"{name} is not finite ({value})")
    return total, terms


# ---------------------------------------------------------------------------
# Task setup and rollout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaskSetup:
    """Compiled, policy-independent description of one learning task
    (config.compile_setup builds it).

    On construction it evaluates the bases every rollout reads on the
    phases 1 - t / tau of its grid: dmp_phi, the DMP basis (n, M), and
    slack_phi, the slack basis and its phase derivative, (n, M_s) each.
    Beside dmp_phi it compiles dmp_ops, the operators that step the DMP
    reference on its grid (dmp.compile_reference).  They are read-only and
    are not arguments of __init__, so dataclasses.replace forms them anew
    for the new fields.
    """

    model: PlantModel
    H: np.ndarray
    alpha: float
    tgrid: np.ndarray
    dmp: DmpParams
    slack_basis: object
    start: np.ndarray
    limits: TorqueLimits
    weights: CostWeights
    x_ref: np.ndarray               # via-substituted reference for the cost
    k_init: float
    d_init: float
    mode: str
    dmp_phi: np.ndarray = field(init=False, compare=False, repr=False)
    dmp_ops: tuple = field(init=False, compare=False, repr=False)
    slack_phi: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        s = 1.0 - np.asarray(self.tgrid) / self.dmp.tau
        dmp_phi = self.dmp.basis.eval(s)
        slack_phi = self.slack_basis.eval_deriv(s)
        for arr in (dmp_phi, *slack_phi):
            arr.flags.writeable = False
        object.__setattr__(self, "dmp_phi", dmp_phi)
        object.__setattr__(self, "dmp_ops",
                           compile_reference(self.dmp, self.tgrid))
        object.__setattr__(self, "slack_phi", slack_phi)

    @property
    def m(self):
        return self.model.m

    @property
    def dt(self):
        return float(self.tgrid[1] - self.tgrid[0])


def initial_policy(setup):
    """Min-jerk trajectory fit plus slack weights reproducing the constant
    isotropic stiffness/damping initialization."""
    theta_traj = fit_min_jerk(setup.start, setup.tgrid, setup.dmp)
    theta_d, theta_k = constant_slack_params(
        setup.slack_basis, setup.m, setup.d_init, setup.k_init, setup.alpha,
        setup.H)
    return PolicyParams(theta_traj=theta_traj, theta_d=theta_d,
                        theta_k=theta_k)


@dataclass(frozen=True)
class Rollout:
    """One simulated episode, the gain schedule it executed, and its cost."""

    t: np.ndarray
    x: np.ndarray
    x_d: np.ndarray
    torque: np.ndarray
    beta: np.ndarray
    schedule: GainSchedule
    cost: float
    cost_terms: dict
    saturation_events: list

    # Aliases of the schedule's traces, read only by perfbench/workloads.py;
    # they go once it reads ro.schedule.
    @property
    def lam_A(self):
        return self.schedule.lam_A

    @property
    def lam_C(self):
        return self.schedule.lam_C


def sampled_schedule(setup, policy, sample):
    """The gain schedule of a sample at beta = 1.

    In certified mode the slack products are G = S S^T >= 0, S the sample's
    slack.  In uncertified-after-via mode S S^T is linearized about the slack
    Sn of the noise-free policy at the via time for t > t_hat, which
    subtracts (S - Sn)(S - Sn)^T, so the products become sign-indefinite
    (unconstrained Gaussian sampling in gain space) and the stiffness flow
    clamps instead of rejecting.
    """
    tau, t_hat = setup.dmp.tau, setup.weights.t_hat
    S_D, S_K, Sd_D = slack_trace(sample.theta_d, sample.theta_k,
                                 setup.slack_phi)
    Sd_D *= -1.0 / tau
    products = slack_products(S_D, S_K, Sd_D)
    clamp = setup.mode == MODE_UNCERTIFIED_AFTER_VIA
    after = setup.tgrid > t_hat
    if clamp and after.any():
        at_hat = setup.slack_basis.eval_deriv(np.array([1.0 - t_hat / tau]))
        Sn_D, Sn_K, _ = slack_trace(policy.theta_d, policy.theta_k, at_hat)
        lin = slack_products(S_D[after] - Sn_D, S_K[after] - Sn_K, Sd_D[after])
        for G, dG in zip(products, lin):
            G[:, after] -= dG
    del S_D, S_K, Sd_D      # the flow and the audit read the products only
    return schedule_from_products(*products, setup.alpha, setup.H,
                                  setup.k_init * np.eye(setup.m), setup.tgrid,
                                  clamp=clamp)


def _check_feedforward(u_ff, tgrid, limits):
    """Raise InfeasibleFloorError naming the first step and joint whose
    torque is out of the box (TorqueLimits.outside).  As in the rollout
    loop, a NaN is never out of the box; the finiteness check reports it."""
    out = limits.outside(u_ff)
    if out.any():
        i, j = np.unravel_index(out.argmax(), out.shape)
        raise InfeasibleFloorError(
            f"feed-forward torque {u_ff[i, j]:.6g} on joint {j} at "
            f"t = {tgrid[i]:.6g} s is outside the box "
            f"[{limits.tau_min[j]:.6g}, {limits.tau_max[j]:.6g}]")


def _reference_defects(x_d, xd_d, u_ff, g, P, Q):
    """The defects delta[i] = r[i+1] - P r[i] - Q (u_ff[i] - g) of the
    reference r = (x_d, xdot_d) under the plant's step (P, Q), for the k
    steps of u_ff (k, m) and the k + 1 samples of x_d and xd_d, as rows
    (2m, k) with time on the last axis."""
    m = x_d.shape[1]
    r = np.empty((2 * m, len(x_d)))
    r[:m], r[m:] = x_d.T, xd_d.T
    d = np.matmul(P, r[:, :-1])
    np.subtract(r[:, 1:], d, out=d)
    d -= Q @ (u_ff - g).T
    return d


def _zero_error_prefix(x_d, xd_d, u_ff, g, P, Q, limits, tgrid):
    """The step j before which a rollout that starts on its reference
    keeps a zero error: one past the first defect (_reference_defects)
    larger than 32 eps max |r|, 32 ulp of r's largest entry, else n.  The
    DMP reference steps the plant's own update, so a smaller defect is
    rounding and counts as none.

    Before j the torque is u_ff at every beta, so a u_ff out of the box
    there is the governor's infeasible floor: _check_feedforward raises it.
    The verdict comes first: the box test finds the first step i whose u_ff
    is out of the box, and only the defects before i are formed (all n - 1
    when u_ff stays in), because the sample is infeasible exactly when none
    of those ends the prefix.  Given u_ff as the (n, m) view of rows
    (m, n), as rollout forms it, the box test runs along time."""
    n = len(tgrid)
    i = int(np.append(limits.outside(u_ff).any(axis=1), True).argmax())
    k = min(i, n - 1)
    tol = 32.0 * np.finfo(float).eps * max(np.abs(x_d).max(),
                                           np.abs(xd_d).max())
    d = _reference_defects(x_d[:k + 1], xd_d[:k + 1], u_ff[:k], g, P, Q)
    over = ~(np.abs(d) <= tol).all(axis=0)
    j = int(np.append(over, True).argmax()) + 1
    if i < j:
        _check_feedforward(u_ff[:i + 1], tgrid, limits)
    return j


def rollout(policy, xi, setup):
    """Simulate one governed episode of the closed loop.

    The sample policy + xi (the policy itself when xi is None) is formed
    once; its weights drive the DMP reference on the setup's compiled
    basis, with feed-forward torque u_ff = Lam xdd_d + g.  The loop runs on
    the tracking error e = (x - x_d, v - xdot_d).  With the plant's
    semi-implicit Euler step s' = P s + Q (tau - g) on s = (x, v)
    (robustness.euler_step), the reference r = (x_d, xdot_d) has the defects
    delta[i] = r[i+1] - P r[i] - Q (u_ff[i] - g), and under the control law
    tau = u_ff + C e, C = [-AHi K, -AHi D], each step is
    e[i+1] = (P + Q C[i]) e[i] - delta[i]; a governed step adds
    Q (tau[i] - u_ff[i] - C[i] e[i]).

    The error is zero before step j: 0 when e[0] != 0, else
    _zero_error_prefix's j.  There x = x_d and the torque is u_ff at every
    beta, so a u_ff out of the box on those steps is the governor's
    infeasible floor, raised before the gain schedule at beta = 1
    (sampled_schedule) is built.  A rollout with j = n forms no map.

    From j the loop runs in blocks on (e, 1): each writes its control maps
    C and maps [[P + Q C, -delta], [0, 1]] into reused buffers, scans them
    from its first error (robustness.affine_scan) and takes its batched
    torques.  A block whose torques all stay in the box
    (TorqueLimits.outside) stands, and the next starts at its end with
    twice its maps, up to LOOP_BLOCK maps.  At the block's first step out
    of the box the governor blends that step's torque toward the floor, the
    plant's step from it gives the next error, and the next block starts at
    the following step with one map.

    The returned Rollout carries the schedule as executed: on governed
    steps (beta < 1) its gains, rates and certificate trace are blended
    toward the certified floor by beta.  The rates hold each step's beta
    fixed; the terms of beta's changes from step to step are not in them,
    nor in the pointwise certificate.
    """
    tg, m, dt = setup.tgrid, setup.m, setup.dt
    n = len(tg)

    sample = policy if xi is None else PolicyParams(
        theta_traj=policy.theta_traj + xi.theta_traj,
        theta_d=policy.theta_d + xi.theta_d,
        theta_k=policy.theta_k + xi.theta_k)
    x_d, xd_d, xdd_d = rollout_reference(setup.dmp, setup.start,
                                         sample.theta_traj, tg, setup.dmp_phi,
                                         setup.dmp_ops)
    Lam, g = plants.operational_space_terms(setup.model)
    # u_ff is the (n, m) view of rows (m, n), time on the last axis, so the
    # box test and the defects run along time in one pass each.
    u_ff = (Lam @ xdd_d.T).T
    u_ff += g
    del xdd_d       # the loop reads u_ff only
    Minv = np.linalg.inv(Lam)
    P, Q = euler_step(dt, Minv)

    def defects(a, b):      # delta[a:b], formed anew: no step holds delta
        return _reference_defects(x_d[a:b + 1], xd_d[a:b + 1], u_ff[a:b],
                                  g, P, Q)

    z0 = plants.initial_state(setup.model, setup.start) - np.r_[x_d[0],
                                                               xd_d[0], 0.0]
    j = 0 if z0[:-1].any() else _zero_error_prefix(
        x_d, xd_d, u_ff, g, P, Q, setup.limits, tg)
    sched = sampled_schedule(setup, policy, sample)

    beta_trace = np.ones(n)
    x_trace, tau_trace = x_d.copy(), u_ff.copy()
    events = []
    lim, alpha, D_floor = setup.limits, setup.alpha, setup.alpha * setup.H
    nAHi = -Lam @ np.linalg.inv(setup.H)
    if j < n:
        # affine_scan keeps the maps' last row (0, ..., 0, 1).  C and z hold
        # one step more than T: the last block takes the last step's torque.
        B = min(LOOP_BLOCK, n - 1 - j)
        T = np.tile(np.eye(2 * m + 1), (B, 1, 1))
        C = np.empty((B + 1, m, 2 * m))
        z = np.empty((B + 1, 2 * m + 1))
        z[0] = z0 if j == 0 else np.r_[-defects(j - 1, j)[:, 0], 1.0]
    a, L = j, LOOP_BLOCK    # the block's first step and its maps; none at n
    while a < n:
        L = min(L, n - 1 - a)
        b = n if a + L == n - 1 else a + L     # steps whose torque is taken
        Cb = C[:b - a]
        np.matmul(nAHi, sched.K[a:b], out=Cb[:, :, :m])
        np.matmul(nAHi, sched.D[a:b], out=Cb[:, :, m:])
        Tb = T[:L]
        np.matmul(Q, Cb[:L], out=Tb[:, :-1, :-1])
        Tb[:, :-1, :-1] += P
        np.negative(defects(a, a + L).T, out=Tb[:, :-1, -1])
        z[1:L + 1] = affine_scan(Tb, z[0])
        tau = tau_trace[a:b] = u_ff[a:b] + np.einsum("kij,kj->ki", Cb,
                                                     z[:b - a, :-1])
        out = lim.outside(tau).any(axis=1)
        if not out.any():
            x_trace[a:b] += z[:b - a, :m]
            z[0] = z[L]
            a, L = b, min(2 * L, LOOP_BLOCK)
            continue
        # Govern the first step out of the box, step the plant from it and
        # start the next block at the following step with one map.
        k = int(out.argmax())
        i = a + k
        x_trace[a:i + 1] += z[:k + 1, :m]
        K_floor = np.exp(2.0 * alpha * tg[i]) * (setup.k_init * np.eye(m))
        tau0 = u_ff[i] + nAHi @ (K_floor @ z[k, :m] + D_floor @ z[k, m:-1])
        beta, binding = beta_star_detail(tau0, tau[k] - tau0, lim)
        if binding is not None:
            events.append({"t": float(tg[i]), "joint": binding,
                           "beta_star": beta})
        tau_trace[i] = tau0 + beta * (tau[k] - tau0)
        for arr, floor in ((sched.K, K_floor),
                           (sched.Kdot, 2.0 * alpha * K_floor),
                           (sched.D, D_floor), (sched.Ddot, 0.0),
                           (sched.lam_A, 0.0), (sched.lam_C, 0.0)):
            arr[i] = floor + beta * (arr[i] - floor)
        beta_trace[i] = beta
        a, L = i + 1, 1
        if a < n:
            z[0, :-1] = (P @ z[k, :-1] + Q @ (tau_trace[i] - u_ff[i])
                         - defects(i, i + 1)[:, 0])
    if j < n:
        del T, Tb, C, Cb, z     # freed before the cost is taken
    if not np.all(np.isfinite(x_trace)):
        raise IntegrationDivergedError("rollout state diverged")

    cost, terms = trajectory_cost(tg, x_trace, setup.x_ref,
                                  (tau_trace - g) @ Minv.T, sched.K,
                                  setup.weights)
    return Rollout(t=tg, x=x_trace, x_d=x_d, torque=tau_trace,
                   beta=beta_trace, schedule=sched, cost=cost,
                   cost_terms=terms, saturation_events=events)


# ---------------------------------------------------------------------------
# PI2 update and training loop
# ---------------------------------------------------------------------------

def pi2_weights(costs, beta_softmax):
    """Min-max normalized exponential weights, decreasing in cost."""
    costs = np.asarray(costs, float)
    jmin, jmax = costs.min(), costs.max()
    # beta (c - c_min) past the float range gives exp(-inf) = 0, its limit.
    with np.errstate(over="ignore"):
        w = np.exp(-beta_softmax * (costs - jmin) / (jmax - jmin + 1e-12))
    return w / w.sum()


def pi2_update(policy, costs, noises, beta_softmax):
    """Episodic PI2 (PI-BB) parameter update from the costs of certified
    rollouts and the exploration noise each one ran with."""
    if len(costs) == 0:
        raise ValueError("need at least one rollout")
    w = pi2_weights(costs, beta_softmax)

    def step(block):
        return sum(wi * getattr(xi, block)
                   for wi, xi in zip(w, noises, strict=True))

    return PolicyParams(
        theta_traj=policy.theta_traj + step("theta_traj"),
        theta_d=policy.theta_d + step("theta_d"),
        theta_k=policy.theta_k + step("theta_k")), w


@dataclass
class TrainResult:
    rows: list                      # per-rollout learning-trace rows
    policy: PolicyParams
    evaluation: Rollout             # noise-free rollout of the final policy
    initial_mean_cost: float
    final_mean_cost: float
    saturation_events: list

    # Alias of rows, read only by perfbench/workloads.py; it goes once that
    # reads out.rows.
    def trace_rows(self):
        return self.rows


def _resampled_rollout(policy, noise, setup, u, r_idx):
    """(rollout, noise) of the first attempt that the certified floor and
    the infeasible torque floor accept."""
    rejects = {}
    for attempt in range(MAX_RESAMPLE_ATTEMPTS):
        xi = sample_noise(noise, policy, u, r_idx, attempt)
        try:
            return rollout(policy, xi, setup), xi
        except (CertifiedFloorError, InfeasibleFloorError) as exc:
            name = type(exc).__name__
            rejects[name] = rejects.get(name, 0) + 1
            # Give up with the class that rejected the last attempt.
            # Raising here, rather than keeping the exception for after the
            # loop, lets each rejected rollout's frame (and its arrays) go
            # before the next attempt runs.
            if attempt + 1 == MAX_RESAMPLE_ATTEMPTS:
                counts = ", ".join(f"{k} x{v}" for k, v in rejects.items())
                raise type(exc)(
                    f"update {u} rollout {r_idx}: no accepted sample in "
                    f"{MAX_RESAMPLE_ATTEMPTS} attempts ({counts})") from exc


def train(setup, policy=None, *, noise, updates, rollouts_per_update,
          beta_softmax, rollout_hook=None):
    """Run the full learning protocol; deterministic per noise seed.

    Rollouts rejected by the certified floor or the infeasible torque floor
    are resampled with the next attempt index, never dropped.  After the
    updates, one noise-free rollout of the final policy is the evaluation;
    its trace row is (updates, 0).  rollout_hook, when given, is called with
    (update, rollout_index, rollout) for every accepted rollout and the
    evaluation.  Only the evaluation outlives its hook call; of the others,
    the cost, the noise and the trace row are kept.
    """
    policy = policy if policy is not None else initial_policy(setup)
    rows, events, means = [], [], []

    def keep(u, r_idx, ro):
        if rollout_hook is not None:
            rollout_hook(u, r_idx, ro)
        events.extend(ro.saturation_events)
        rows.append({
            "update": u, "rollout": r_idx, "cost": ro.cost,
            "cost_K": ro.cost_terms["cost_K"],
            "cost_acc": ro.cost_terms["cost_acc"],
            "cost_track": ro.cost_terms["cost_track"],
            "lamA_max": float(ro.schedule.lam_A.max()),
            "lamC_max": float(ro.schedule.lam_C.max()),
            "beta_star_min": float(ro.beta.min()),
        })

    for u in range(updates):
        costs, noises = [], []
        for r_idx in range(rollouts_per_update):
            ro, xi = _resampled_rollout(policy, noise, setup, u, r_idx)
            keep(u, r_idx, ro)
            costs.append(ro.cost)
            noises.append(xi)
            del ro      # its arrays go before the next rollout runs
        means.append(float(np.mean(costs)))
        policy, _ = pi2_update(policy, costs, noises, beta_softmax)
        noise = decay_covariance(noise)
    evaluation = rollout(policy, None, setup)
    keep(updates, 0, evaluation)
    # With no updates run, both means are the evaluation's cost.
    means = means or [evaluation.cost]
    return TrainResult(rows=rows, policy=policy, evaluation=evaluation,
                       initial_mean_cost=means[0], final_mean_cost=means[-1],
                       saturation_events=events)
