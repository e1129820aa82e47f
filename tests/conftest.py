"""Shared fixtures.

The expensive artifacts (full training runs) are session-scoped and cached,
so the acceptance tests and the unit tests share one computation.
"""

import os
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from cgms.config import compile_setup, load_config
from cgms.gains import tri_dim, vec_triangle
from cgms.learning import MODE_UNCERTIFIED_AFTER_VIA, initial_policy, rollout, train


HandoverTask = namedtuple("HandoverTask", "cfg setup noise")


def checkout_env():
    """os.environ with this checkout's src/ first on PYTHONPATH, so that a
    subprocess imports cgms from here without an install."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def vec_triangle_inverse(v, m):
    """Inverse of vec_triangle for m x m matrices; accepts a batch of
    vectors, such as the packed slacks of slack_trace."""
    v = np.asarray(v, float)
    if v.shape[-1] != tri_dim(m):
        raise ValueError(f"vector length {v.shape[-1]} does not match m={m}")
    L = np.zeros(v.shape[:-1] + (m * m,))
    L[..., vec_triangle(np.arange(m * m).reshape(m, m))] = v
    return L.reshape(v.shape[:-1] + (m, m))


@pytest.fixture(scope="session")
def handover_task():
    """The default configuration and its compiled (setup, noise).  Tests
    take every hyperparameter from here, changed with dataclasses.replace,
    rather than retype a default."""
    cfg = load_config()
    return HandoverTask(cfg, *compile_setup(cfg))


@pytest.fixture(scope="session")
def handover_setup(handover_task):
    return handover_task.setup


@pytest.fixture(scope="session")
def handover_policy(handover_setup):
    return initial_policy(handover_setup)


@pytest.fixture(scope="session")
def nominal_rollout(handover_setup, handover_policy):
    return rollout(handover_policy, None, handover_setup)


def run_training(seed, mode=None, hook=None):
    overrides = {"run_seed": seed}
    if mode is not None:
        overrides["run_mode"] = mode
    cfg = load_config(overrides=overrides)
    setup, noise = compile_setup(cfg)
    result = train(setup, noise=noise, updates=cfg.run_updates,
                   rollouts_per_update=cfg.run_rollouts,
                   beta_softmax=cfg.learning_softmax_sharpness,
                   rollout_hook=hook)
    return setup, result


@pytest.fixture(scope="session")
def training_runs():
    """Full 50 x 12 handover runs for seeds 0, 1, 2, with wall times."""
    import time

    runs = {}
    for seed in (0, 1, 2):
        t0 = time.perf_counter()
        setup, result = run_training(seed)
        runs[seed] = (setup, result, time.perf_counter() - t0)
    return runs


@pytest.fixture(scope="session")
def ablation_run():
    """Uncertified-after-via run; collects post-via eigenvalue maxima."""
    eig_rows = []

    def hook(update, r_idx, ro):
        setup = hook.setup
        post = setup.tgrid > setup.weights.t_hat
        eig_rows.append((update, r_idx, float(ro.schedule.lam_A[post].max()),
                         float(ro.schedule.lam_C[post].max())))

    cfg = load_config(overrides={"run_mode": MODE_UNCERTIFIED_AFTER_VIA})
    setup, noise = compile_setup(cfg)
    hook.setup = setup
    result = train(setup, noise=noise, updates=cfg.run_updates,
                   rollouts_per_update=cfg.run_rollouts,
                   beta_softmax=cfg.learning_softmax_sharpness,
                   rollout_hook=hook)
    return setup, result, eig_rows


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
