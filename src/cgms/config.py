"""Experiment configuration: defaults, INI-style file round-trip, scenario
presets, and compilation into a runnable task setup.

ExperimentConfig is the one home of every hyperparameter default; the
library's parameter objects take each value from it through compile_setup.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .dmp import ACTIVATION_FLOOR, DmpParams, build_basis, min_jerk
from .errors import ConfigError
from .governor import TorqueLimits
from .learning import (
    MODE_CERTIFIED,
    MODE_UNCERTIFIED_AFTER_VIA,
    CostWeights,
    ExplorationNoise,
    TaskSetup,
)
from .plants import PlantModel

# Half-width of the cost reference's via window, in via-kernel sigmas.
VIA_WINDOW_SIGMAS = 2.0
# The largest sqrt(dmp_stiffness) run_dt / run_horizon, exclusive, on which
# the DMP's semi-implicit step is stable.
DMP_STEP_LIMIT = 2.0 * math.sqrt(2.0) - 2.0

# Start / via / end geometry per scenario.  The s4 end z coordinate appears
# in the source material with a doubled decimal point; it is read as 0.43.
SCENARIOS = {
    "handover": {"start": (0.55, 0.00, 0.11), "via": (0.30, 0.48, 0.40),
                 "goal": (0.05, 0.72, 0.11)},
    "s1": {"start": (0.30, 0.00, 0.47), "via": (0.42, 0.30, 0.34),
           "goal": (0.54, 0.43, 0.47)},
    "s2": {"start": (0.37, -0.34, 0.03), "via": (0.62, 0.00, 0.32),
           "goal": (0.45, 0.27, 0.06)},
    "s3": {"start": (0.40, 0.00, 0.15), "via": (0.32, 0.50, 0.42),
           "goal": (0.00, 0.40, 0.10)},
    "s4": {"start": (0.20, 0.17, 0.43), "via": (0.34, 0.20, 0.36),
           "goal": (0.48, 0.34, 0.43)},
    "s5": {"start": (0.58, -0.35, 0.18), "via": (0.31, 0.00, 0.43),
           "goal": (0.00, 0.56, 0.05)},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat configuration mirroring the library modules.

    Field names map to file keys as ``<section>_<key>``; e.g.
    ``learning_sigma_traj`` is key ``sigma_traj`` in section ``[learning]``.
    """

    # [run]
    run_scenario: str = "handover"
    run_horizon: float = 5.0          # desk-scale default; 10 s for the full task
    run_dt: float = 0.001
    run_seed: int = 0
    run_mode: str = MODE_CERTIFIED
    run_updates: int = 50
    run_rollouts: int = 12

    # [dmp]
    dmp_rbf_count: int = 51
    dmp_intersection_height: float = 0.95
    dmp_regularization: float = 1e-6
    dmp_stiffness: float = 150.0

    # [gains]
    gains_alpha: float = 0.05
    gains_slack_rbf_count: int = 7
    gains_slack_intersection_height: float = 0.7
    gains_k_init: float = 200.0
    gains_d_init: float = 30.0

    # [governor]  (per-axis symmetric force box; the analogue of halving the
    # 7-joint arm limits [87 87 87 87 12 12 12] Nm is a halved 87 N box)
    governor_limit: float = 43.5

    # [learning]
    learning_sigma_traj: float = 8.0
    learning_sigma_k: float = 1.3
    learning_sigma_d: float = 0.6
    learning_covariance_decay: float = 0.98
    learning_softmax_sharpness: float = 20.0

    # [cost]
    cost_lambda_k: float = 15e-7
    cost_lambda_acc: float = 1e-3
    cost_w0: float = 0.2
    cost_gamma_via: float = 5e4
    cost_sigma_via_frac: float = 0.05

    # [scenario]  (geometry override; empty tuple -> use the preset)
    scenario_start: tuple = ()
    scenario_via: tuple = ()
    scenario_goal: tuple = ()

    def validate(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if any(isinstance(x, float) and not math.isfinite(x)
                   for x in (v if isinstance(v, tuple) else (v,))):
                raise ConfigError(f"{f.name} must be finite, got {v!r}")
        if self.run_scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.run_scenario!r}")
        if self.run_mode not in (MODE_CERTIFIED, MODE_UNCERTIFIED_AFTER_VIA):
            raise ConfigError(f"unknown mode {self.run_mode!r}")
        if self.run_dt <= 0 or self.run_horizon <= 0:
            raise ConfigError("horizon and dt must be positive")
        if self.run_dt > self.run_horizon:
            raise ConfigError(
                f"dt {self.run_dt} exceeds the horizon {self.run_horizon}; "
                f"the time grid needs at least two points")
        if abs(round(self.run_horizon / self.run_dt) * self.run_dt
               - self.run_horizon) > 1e-9 * self.run_horizon:
            # Else the grid ends short of the horizon or past it (phase < 0).
            raise ConfigError(f"run_dt {self.run_dt!r} does not divide "
                              f"run_horizon {self.run_horizon!r}")
        if self.run_updates < 0 or self.run_rollouts < 1:
            raise ConfigError("run_updates must be >= 0 and run_rollouts >= 1")
        for name in ("scenario_start", "scenario_via", "scenario_goal"):
            v = getattr(self, name)
            if v and len(v) != 3:
                raise ConfigError(f"{name} needs exactly 3 coordinates")
        # Values that compile but fail in the first rollout or update.
        for name in ("dmp_rbf_count", "dmp_stiffness", "gains_slack_rbf_count",
                     "gains_k_init", "governor_limit", "cost_sigma_via_frac",
                     "learning_softmax_sharpness"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, "
                                  f"got {getattr(self, name)!r}")
        for name in ("run_seed", "gains_alpha", "learning_covariance_decay",
                     "dmp_regularization", "learning_sigma_traj",
                     "learning_sigma_k", "learning_sigma_d", "cost_lambda_k",
                     "cost_lambda_acc", "cost_w0", "cost_gamma_via"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be non-negative, "
                                  f"got {getattr(self, name)!r}")
        for name in ("dmp_intersection_height",
                     "gains_slack_intersection_height"):
            # Midway between two centers the activations equal the height.
            if not ACTIVATION_FLOOR <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in [{ACTIVATION_FLOOR}, "
                                  f"1), got {getattr(self, name)!r}")
        if not self.gains_d_init > self.gains_alpha:
            # d_init I - alpha H must be positive definite (H = I).
            raise ConfigError(
                f"gains_d_init {self.gains_d_init!r} must exceed gains_alpha "
                f"{self.gains_alpha!r}")
        # The min-jerk fit's design matrix has a nonzero row per grid step
        # (phase 0 at the end), so with no ridge it needs a step per basis.
        steps = round(self.run_horizon / self.run_dt)
        if self.dmp_regularization == 0 and steps < self.dmp_rbf_count:
            raise ConfigError(f"dmp_regularization 0 needs dmp_rbf_count = "
                              f"{self.dmp_rbf_count} grid steps, got {steps}")
        # The DMP's semi-implicit step has kk = u^2 and kd = 2u for
        # u = sqrt(k) dt / tau, tau = run_horizon; it is stable (kd < 2 and
        # kk + 2 kd < 4) iff u < DMP_STEP_LIMIT.  On a coarser grid the
        # reference grows geometrically instead of reaching the goal.
        u = math.sqrt(self.dmp_stiffness) * self.run_dt / self.run_horizon
        if not u < DMP_STEP_LIMIT:
            raise ConfigError(
                f"run_dt {self.run_dt!r} is too coarse for the DMP: its step "
                f"is stable only for sqrt(dmp_stiffness) run_dt / run_horizon "
                f"< 2 sqrt(2) - 2 = {DMP_STEP_LIMIT:.4f}, got {u:.4g}")
        return self

    # -- geometry ----------------------------------------------------------

    def geometry(self):
        preset = SCENARIOS[self.run_scenario]
        start = self.scenario_start or preset["start"]
        via = self.scenario_via or preset["via"]
        goal = self.scenario_goal or preset["goal"]
        return np.array(start), np.array(via), np.array(goal)


def _sections(cfg):
    out = {}
    for f in fields(cfg):
        section, key = f.name.split("_", 1)
        out.setdefault(section, {})[key] = getattr(cfg, f.name)
    return out


def _format_value(v):
    if isinstance(v, tuple):
        return " ".join(format(x, ".17g") for x in v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _parse_value(text, default):
    try:
        if isinstance(default, tuple):
            return tuple(float(x) for x in text.split())
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text.strip()
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {text!r}") from exc


def save_config(cfg, path):
    """Write the resolved configuration; reloads to an identical value."""
    parts = []
    for section, kv in _sections(cfg).items():
        parts.append(f"[{section}]")
        for key, v in kv.items():
            parts.append(f"{key} = {_format_value(v)}")
        parts.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def load_config(path=None, overrides=None):
    """Load a configuration file; missing file content means all defaults.

    Unknown sections or keys are rejected with their names.
    """
    cfg = ExperimentConfig()
    known = _sections(cfg)
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except configparser.Error as exc:
            msg = " ".join(str(exc).split())   # its message spans lines
            raise ConfigError(f"malformed config: {msg}") from exc
    values = {}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in parser[section].items():
            if key not in known[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            values[f"{section}_{key}"] = _parse_value(text, known[section][key])
    cfg = replace(cfg, **values)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def compile_setup(cfg):
    """Build the runnable TaskSetup and ExplorationNoise from a config: the
    unit point mass with H = I, the via time at the nominal minimum-jerk
    path's closest approach to the via point, and as the cost reference that
    path with the via point substituted around the via time."""
    cfg.validate()
    start, via, goal = cfg.geometry()
    T, dt = cfg.run_horizon, cfg.run_dt
    tgrid = np.arange(0.0, T + dt / 2, dt)
    x_ref, _, _ = min_jerk(start, goal, T, tgrid)
    t_hat = float(tgrid[np.argmin(np.linalg.norm(x_ref - via, axis=1))])
    sigma_via = cfg.cost_sigma_via_frac * T
    x_ref[np.abs(tgrid - t_hat) <= VIA_WINDOW_SIGMAS * sigma_via] = via
    dmp_basis = build_basis(cfg.dmp_rbf_count, cfg.dmp_intersection_height)
    setup = TaskSetup(
        model=PlantModel(3, np.eye(3), np.zeros(3)), H=np.eye(3),
        alpha=cfg.gains_alpha,
        tgrid=tgrid, dmp=DmpParams(tau=T, k=cfg.dmp_stiffness, goal=goal,
                                   basis=dmp_basis,
                                   lam_reg=cfg.dmp_regularization),
        slack_basis=build_basis(cfg.gains_slack_rbf_count,
                                cfg.gains_slack_intersection_height),
        start=start, limits=TorqueLimits.box(cfg.governor_limit, 3),
        weights=CostWeights(
            lam_k=cfg.cost_lambda_k, lam_acc=cfg.cost_lambda_acc,
            w0=cfg.cost_w0, gamma_via=cfg.cost_gamma_via, t_hat=t_hat,
            sigma_via=sigma_via),
        x_ref=x_ref, k_init=cfg.gains_k_init, d_init=cfg.gains_d_init,
        mode=cfg.run_mode)
    return setup, ExplorationNoise(
        sigma_traj=cfg.learning_sigma_traj, sigma_k=cfg.learning_sigma_k,
        sigma_d=cfg.learning_sigma_d, decay=cfg.learning_covariance_decay,
        seed=cfg.run_seed)
