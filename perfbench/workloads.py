"""The benchmark's workloads: seeded inputs, one unit of work, its checks.

A run executes ``units_for(seconds)`` units of one workload, numbered from
0, and then unit 0 once more to check that it repeats exactly.  A unit is a
short ``learning.train`` for the train workloads and one verified gain
schedule for ``robustness_ensemble``; both are fixed by the run's seed and
the unit number alone, so every count a run reports repeats for its seed.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import replace

import numpy as np

from cgms import gains, learning, robustness
from cgms.cli import TRACE_HEADER
from cgms.config import compile_setup, load_config
from cgms.dmp import build_basis
from cgms.errors import CertifiedFloorError, InfeasibleFloorError

# Acceptance-gate bounds, reused unchanged: criterion 1 for rollouts and
# criterion 6 for schedules.
LAM_TOL = 1e-9
VIOLATION_TOL = 1e-5
MARGIN_FLOOR = 0.0
U_BAR = 0.01


def unit_seed(seed, k):
    """Noise seed of train unit k of a run with the given seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _row_text(row):
    return ",".join(str(row[h]) if isinstance(row[h], int)
                    else format(float(row[h]), ".17g") for h in TRACE_HEADER)


class UnitResult:
    """What one unit did: operations, failures, CPU times and a digest."""

    def __init__(self, ops):
        self.ops = ops              # operations the unit is meant to complete
        self.completed = 0
        self.failed = 0
        self.op_cpu = []            # CPU seconds per completed operation
        self.lines = []             # per-operation output text, for digests
        self.details = {}     # attempts and rejections, or check figures
        self.cost_ratio = None
        self.error = None
        self.wall = 0.0

    @property
    def digest(self):
        return _digest(self.lines)

    def fail_with(self, exc):
        self.error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self.failed += self.ops - self.completed


class TrainWorkload:
    """``learning.train`` on the default handover config with a force box.

    A unit is ``updates`` x ``rollouts`` training from the initial policy
    with noise seed ``unit_seed(seed, k)``; its operations are the accepted
    rollouts, the noise-free evaluation included.
    """

    # Set-ups per run, this process included; each takes about 1.4 s.
    setup_samples = 3

    def __init__(self, limit, unit_s, updates=2, rollouts=12):
        self.limit = limit
        self.unit_s = unit_s
        self.updates = updates
        self.rollouts = rollouts

    def units_for(self, seconds):
        return max(1, round(seconds / self.unit_s))

    def setup(self, seed):
        self.seed = seed
        self.cfg = load_config(overrides={"governor_limit": self.limit})
        self.task, self.noise = compile_setup(self.cfg)
        self.policy = learning.initial_policy(self.task)
        # The first rollout pays the lazy scipy.signal import of the DMP
        # reference filter; users pay it once per process, so it is set-up.
        learning.rollout(self.policy, None, self.task)

    def run_unit(self, k, tracer=None):
        res = UnitResult(ops=self.updates * self.rollouts + 1)
        counts = {"attempts": 0, "CertifiedFloorError": 0,
                  "InfeasibleFloorError": 0}
        inner = learning.rollout

        def timed(*args, **kwargs):
            counts["attempts"] += 1
            t0 = time.thread_time()
            try:
                ro = inner(*args, **kwargs)
            except (CertifiedFloorError, InfeasibleFloorError) as exc:
                counts[type(exc).__name__] += 1
                raise
            res.op_cpu.append(time.thread_time() - t0)
            return ro

        def check(update, r_idx, ro):
            # Criterion 1: every accepted rollout is certified.
            res.completed += 1
            if max(ro.lam_A.max(), ro.lam_C.max()) > LAM_TOL:
                res.failed += 1

        noise = replace(self.noise, seed=unit_seed(self.seed, k))
        learning.rollout = timed
        t0 = time.perf_counter()
        try:
            out = learning.train(self.task, policy=self.policy, noise=noise,
                                 updates=self.updates,
                                 rollouts_per_update=self.rollouts,
                                 beta_softmax=self.cfg.learning_softmax_sharpness,
                                 rollout_hook=check)
        except Exception as exc:  # a failed unit is reported, not fatal
            res.fail_with(exc)
        else:
            res.lines = [_row_text(r) for r in out.trace_rows()]
            res.cost_ratio = out.final_mean_cost / out.initial_mean_cost
        finally:
            res.wall = time.perf_counter() - t0
            learning.rollout = inner
        res.details = counts
        return res


def certified_schedule(rng, tgrid, alpha=0.05):
    """A random strictly certified schedule on ``tgrid``.

    The recipe of the boundedness tests: moderate stiffness (about 50 N/m)
    with generous stiffness slack keeps eps_K well above the 2 alpha
    k_upper floor, and the damping slack sets eps_D of a few Ns/m.
    """
    basis = build_basis(7, 0.7)
    k0 = rng.uniform(40.0, 60.0)
    d0 = rng.uniform(6.0, 10.0)
    rho = rng.uniform(0.5, 1.0)
    row_d = gains.vec_triangle(np.sqrt(d0 - alpha) * np.eye(3))
    row_k = gains.vec_triangle(np.sqrt(2 * alpha * k0 * (1 + rho)) * np.eye(3))
    theta_d = np.tile(row_d, (7, 1)) + 0.05 * rng.standard_normal((7, 6))
    theta_k = np.tile(row_k, (7, 1)) + 0.05 * rng.standard_normal((7, 6))
    sp = gains.SlackParams(theta_d=theta_d, theta_k=theta_k, basis=basis, m=3)
    return gains.build_gain_schedule(sp, alpha, np.eye(3), tgrid[-1],
                                     k0 * np.eye(3), tgrid)


class RobustnessWorkload:
    """Seeded certified schedules through the ``cgms robustness`` chain.

    Unit k builds the schedule drawn from ``default_rng([seed, k])`` on the
    handover grid and runs ``inputs_from_schedule(optimize=True)``,
    ``uub_constants``, ``dissipation_check`` on the sinusoid residual and
    ``uub_empirical`` on the three standard residuals; the unit is its one
    operation.
    """

    # Set-ups per run, this process included.  Each takes about 0.2 s, so
    # more are taken to steady the median.
    setup_samples = 7

    def __init__(self, unit_s, horizon=5.0, dt=1e-3):
        self.unit_s = unit_s
        self.tgrid = np.arange(0.0, horizon + dt / 2, dt)

    def units_for(self, seconds):
        return max(1, round(seconds / self.unit_s))

    def setup(self, seed):
        self.seed = seed
        # The first schedule build, as a user's first call would do it.
        certified_schedule(np.random.default_rng([seed, 0]), self.tgrid)

    def run_unit(self, k, tracer=None):
        res = UnitResult(ops=1)
        if tracer is not None:
            tracer.begin_op()
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            sched = certified_schedule(np.random.default_rng([self.seed, k]),
                                       self.tgrid)
            strict = sched.report().passes_strict
            inp = robustness.inputs_from_schedule(sched, U_BAR, optimize=True)
            uub = robustness.uub_constants(inp)
            residuals = robustness.standard_residuals(U_BAR, sched.m,
                                                      seed=[self.seed, k])
            diss = robustness.dissipation_check(sched, inp, residuals[2])
            _, margin = robustness.uub_empirical(sched, inp, residuals)
        except Exception as exc:  # a failed unit is reported, not fatal
            res.fail_with(exc)
        else:
            res.completed = 1
            res.op_cpu.append(time.thread_time() - c0)
            # Criterion 6: the inequality and the bound hold.
            ok = (strict and diss["max_violation"] <= VIOLATION_TOL
                  and margin >= MARGIN_FLOOR)
            res.failed = 0 if ok else 1
            res.lines = [",".join(format(v, ".17g") for v in (
                diss["max_violation"], margin, uub.radius, inp.eps_D,
                inp.eps_K))]
            res.details = {"max_violation": diss["max_violation"],
                          "margin": margin, "radius": uub.radius}
        res.wall = time.perf_counter() - t0
        return res


# unit_s is the share of --seconds one unit stands for, roughly its cost on
# a shared 2-vCPU x86 VM; at 20 s an untraced run, the timed repeat of unit 0
# included, holds 175, 104 and 10 operations.  It is a constant, not
# measured per run, so a faster program does the same work in less time.
WORKLOADS = {
    "train_handover": lambda: TrainWorkload(limit=43.5, unit_s=3.5),
    "train_tight_box": lambda: TrainWorkload(limit=0.26, unit_s=2.9,
                                             updates=1),
    "robustness_ensemble": lambda: RobustnessWorkload(unit_s=2.2),
}

# Sizes for the smoke test: a 1 x 2 training and one 0.5 s schedule.
SMOKE = {
    "train_handover": lambda: TrainWorkload(limit=43.5, unit_s=1e9,
                                            updates=1, rollouts=2),
    "train_tight_box": lambda: TrainWorkload(limit=0.26, unit_s=1e9,
                                             updates=1, rollouts=2),
    "robustness_ensemble": lambda: RobustnessWorkload(unit_s=1e9, horizon=0.5),
}
