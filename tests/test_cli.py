"""Command-line harness: exit codes, artifacts, and run determinism."""

import json
import math
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from cgms import cli
from cgms.config import (
    DMP_STEP_LIMIT,
    SCENARIOS,
    ExperimentConfig,
    compile_setup,
    load_config,
    save_config,
)
from cgms.errors import ConfigError
from cgms.learning import (
    MODE_CERTIFIED,
    MODE_UNCERTIFIED_AFTER_VIA,
    initial_policy,
    sample_noise,
)
from conftest import checkout_env

SMALL_CONFIG = """\
[run]
updates = 2
rollouts = 3
horizon = 5.0
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_CONFIG)
    return path


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_empty_config_is_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    assert load_config(path) == ExperimentConfig()
    assert load_config(None) == ExperimentConfig()


def test_config_round_trip_identity(small_config, tmp_path):
    cfg = load_config(small_config, overrides={"run_seed": 3})
    path = tmp_path / "resolved.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_unknown_key_named_in_error(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nupdtaes = 2\n")
    with pytest.raises(ConfigError, match="updtaes"):
        load_config(path)
    path.write_text("[running]\nupdates = 2\n")
    with pytest.raises(ConfigError, match="running"):
        load_config(path)
    path.write_text("[run]\nupdates = banana\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


def test_scenario_geometry():
    cfg = load_config(None, overrides={"run_scenario": "s2"})
    args = cli.build_parser().parse_args(["train", "--scenario", "s2"])
    assert cli._load(args) == cfg
    start, via, goal = cfg.geometry()
    assert np.array_equal(start, SCENARIOS["s2"]["start"])
    assert np.array_equal(via, SCENARIOS["s2"]["via"])
    assert np.array_equal(goal, SCENARIOS["s2"]["goal"])
    override = load_config(None, overrides={"scenario_goal": (0.1, 0.2, 0.3)})
    assert np.array_equal(override.geometry()[2], [0.1, 0.2, 0.3])


# Keys that cmd_train reads itself; compile_setup never sees them.
TRAIN_KEYS = {"run_updates", "run_rollouts", "learning_softmax_sharpness"}
# Valid non-default values for the keys that are not numbers.
# run_dt must divide the horizon, which 0.9 of the default does not.
OTHER_VALUE = {"run_scenario": "s1", "run_mode": MODE_UNCERTIFIED_AFTER_VIA,
               "run_dt": 0.002,
               "scenario_start": (0.5, 0.1, 0.2),
               "scenario_via": (0.5, 0.1, 0.2),
               "scenario_goal": (0.5, 0.1, 0.2)}


def compiled_leaves(obj):
    """Every array and scalar of a compiled setup or noise, in field order."""
    if is_dataclass(obj):
        return [x for f in fields(obj)
                for x in compiled_leaves(getattr(obj, f.name))]
    if isinstance(obj, tuple):
        return [x for item in obj for x in compiled_leaves(item)]
    return [np.asarray(obj)]


def same_compile(a, b):
    la, lb = compiled_leaves(a), compiled_leaves(b)
    return len(la) == len(lb) and all(np.array_equal(x, y)
                                      for x, y in zip(la, lb))


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)
                                 if f.name not in TRAIN_KEYS])
def test_each_config_key_reaches_the_compiled_task(key, handover_task):
    # With no library copy of a default left, a key that compile_setup
    # dropped would leave the compiled (setup, noise) unchanged.
    default = getattr(handover_task.cfg, key)
    if key in OTHER_VALUE:
        value = OTHER_VALUE[key]
    else:
        value = default + 1 if isinstance(default, int) else 0.9 * default
    cfg = load_config(None, overrides={key: value})
    assert getattr(cfg, key) != default
    compiled = (handover_task.setup, handover_task.noise)
    assert same_compile(compile_setup(handover_task.cfg), compiled)
    assert not same_compile(compile_setup(cfg), compiled)


def test_invalid_values_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(None, overrides={"run_scenario": "s9"})
    with pytest.raises(ConfigError):
        load_config(None, overrides={"run_mode": "yolo"})
    with pytest.raises(ConfigError):
        load_config(None, overrides={"run_dt": -1.0})
    # The [plants] section (one legal kind) is gone; an old file that
    # still has it is rejected by name.
    old = tmp_path / "old.ini"
    old.write_text("[plants]\nkind = point-mass-task\n")
    with pytest.raises(ConfigError, match=r"unknown config section \[plants\]"):
        load_config(old)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_exit_codes_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nupdtaes = 2\n")
    rc = cli.main(["rollout", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "updtaes" in capsys.readouterr().err
    rc = cli.main(["rollout", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    capsys.readouterr()
    # --out naming an existing file.
    rc = cli.main(["rollout", "--out", str(bad)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "output directory not writable" in err[0]


@pytest.mark.parametrize("content, message", [
    ("[run]\nscenario = hand%over\n", "unknown scenario"),
    ("[cost]\nw0 = 0.2%\n", "cannot parse value"),
    # Files configparser cannot parse; its message spans several lines.
    ("seed = 3\n", "malformed config"),
    ("[run]\nseed\n", "malformed config"),
])
def test_percent_in_a_value_is_read_literally(tmp_path, capsys, content,
                                              message):
    # Values are not interpolated: a "%" used to escape load_config as
    # configparser's InterpolationSyntaxError, a traceback and exit 1.
    # Every config error, a parse error too, is one line and exit 2.
    path = tmp_path / "percent.ini"
    path.write_text(content)
    rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]


def test_exit_code_certification_failure(tmp_path, capsys):
    # Oversized stiffness slack drains K(t) through zero over the horizon,
    # which certified mode must reject rather than clamp.
    setup, _ = compile_setup(load_config(None))
    pol = initial_policy(setup)
    d = pol.to_dict()
    d["theta_k"] = (10.0 * np.asarray(d["theta_k"])).tolist()
    path = tmp_path / "bad_policy.json"
    path.write_text(json.dumps(d))
    rc = cli.main(["rollout", "--policy", str(path),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CERTIFICATION
    assert "certification" in capsys.readouterr().err


def test_dt_longer_than_horizon_is_config_error(tmp_path, capsys):
    # A one-point time grid would otherwise fail deep in the rollout.
    with pytest.raises(ConfigError, match="horizon"):
        load_config(None, overrides={"run_horizon": 5.0, "run_dt": 11.0})
    path = tmp_path / "dt.ini"
    path.write_text("[run]\nhorizon = 5\ndt = 11\n")
    rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "dt" in capsys.readouterr().err


def test_grid_too_coarse_for_the_dmp_step_is_config_error():
    # sqrt(150) dt / 0.5 s is 0.875 at 14 steps and 0.817 at 15, either
    # side of 2 sqrt(2) - 2.  At 0.875 the DMP's step has the eigenvalue
    # -1.16, so the reference swings ever wider instead of settling.
    with pytest.raises(ConfigError, match="too coarse for the DMP"):
        load_config(None, overrides={"run_horizon": 0.5, "run_dt": 0.5 / 14})
    load_config(None, overrides={"run_horizon": 0.5, "run_dt": 0.5 / 15})


@pytest.mark.parametrize("key, value", [
    ("cost_sigma_via_frac", 0),
    ("gains_d_init", 0.05),
    ("gains_k_init", -5),
    ("gains_alpha", -0.1),
    ("governor_limit", 0),
    ("dmp_rbf_count", 0),
    ("gains_slack_rbf_count", 0),
    ("dmp_intersection_height", 1.0),
    ("gains_slack_intersection_height", 0.0),
    # Subnormal heights, whose midway activations underflow.
    ("dmp_intersection_height", "1e-310"),
    ("gains_slack_intersection_height", "1e-310"),
    ("dmp_stiffness", 0),
    ("learning_covariance_decay", -1),
    ("run_seed", -1),
    ("learning_softmax_sharpness", -20),
    ("run_horizon", "nan"),
    ("run_dt", "nan"),
    ("cost_lambda_k", "nan"),
    ("learning_softmax_sharpness", "nan"),
    ("cost_w0", "inf"),
    ("learning_sigma_traj", "nan"),
    ("dmp_regularization", "nan"),
    ("dmp_regularization", -1000),
    ("scenario_start", "nan 0 0.1"),
    ("scenario_start", "0.1 0.2"),
    ("run_updates", -1),
    ("run_rollouts", 0),
    # A grid of round(5 / 0.003) steps ends at 5.001 s, past the horizon.
    ("run_dt", 0.003),
    # A negative sigma mirrors every noise sample; a negative weight turns
    # a penalty into a reward.
    ("learning_sigma_traj", -8),
    ("cost_lambda_acc", -0.001),
])
def test_values_that_fail_in_training_are_config_errors(tmp_path, capsys,
                                                        key, value):
    # Each of these used to compile and then crash the first rollout or
    # update with a traceback and exit code 1, or silently change the run.
    section, name = key.split("_", 1)
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{name} = {value}\n")
    rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and key in err[0]


@pytest.mark.parametrize("command", ["train", "rollout"])
def test_unridged_fit_on_too_few_steps_is_config_error(tmp_path, capsys,
                                                       command):
    # Three grid steps for 51 basis functions and no ridge leave the
    # min-jerk fit's normal equations singular: every command used to end
    # in numpy's LinAlgError traceback, exit 1.
    path = tmp_path / "fit.ini"
    path.write_text("[run]\nhorizon = 1.0\ndt = 0.3333333333333333\n"
                    "[dmp]\nstiffness = 0.04\nregularization = 0.0\n"
                    "intersection_height = 0.5\n")
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "dmp_regularization" in err[0]
    # A ridge, or a grid step per basis function, makes the fit solvable;
    # 51 samples are 50 steps, one short.
    load_config(path, overrides={"dmp_regularization": 1e-6})
    load_config(path, overrides={"run_dt": 1.0 / 51})
    with pytest.raises(ConfigError, match="got 50"):
        load_config(path, overrides={"run_dt": 1.0 / 50})


@pytest.mark.parametrize("command", ["train", "rollout"])
def test_singular_fit_that_validate_accepts_is_config_error(tmp_path, capsys,
                                                            command):
    # 50 grid steps for 5 basis functions pass the step rule above, but at
    # an intersection height of 0.999 the basis functions are numerically
    # alike and the unridged normal equations are exactly singular: every
    # command used to end in numpy's LinAlgError traceback, exit 1.
    path = tmp_path / "fit.ini"
    path.write_text("[run]\nhorizon = 1.0\ndt = 0.02\n"
                    "[dmp]\nregularization = 0.0\nrbf_count = 5\n"
                    "intersection_height = 0.999\n")
    load_config(path)
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "singular" in err[0]
    for key in ("dmp_regularization", "dmp_rbf_count",
                "dmp_intersection_height"):
        assert key in err[0]


@pytest.mark.parametrize("command", ["train", "rollout"])
def test_non_finite_fit_that_validate_accepts_is_config_error(tmp_path,
                                                             capsys, command):
    # 100 basis functions so narrow (intersection height 1e-98) on 121 grid
    # steps leave some column of the unridged design numerically zero:
    # numpy's solve returned inf weights without an error, and the forcing
    # product then warned "invalid value encountered in matmul", exit 1.
    # Seed 1 of the config sweep's generator draws this config.
    path = tmp_path / "fit.ini"
    path.write_text("[run]\nhorizon = 0.09390404116569599\n"
                    "dt = 0.0007760664559148429\n"
                    "[dmp]\nrbf_count = 100\n"
                    "intersection_height = 1.0913552598205495e-98\n"
                    "regularization = 0\nstiffness = 10000\n")
    load_config(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command, "--config", str(path),
                       "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "not finite" in err[0] and "dmp_regularization" in err[0]


def test_zero_alpha_is_accepted():
    assert load_config(None, overrides={"gains_alpha": 0.0}).gains_alpha == 0.0


def test_exit_code_infeasible_floor(tmp_path, capsys):
    # A 1e-6 N box rejects every attempt at its first step.
    path = tmp_path / "box.ini"
    path.write_text("[run]\nhorizon = 0.5\nupdates = 1\nrollouts = 1\n"
                    "[governor]\nlimit = 1e-6\n")
    rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CERTIFICATION
    assert "InfeasibleFloorError x100" in capsys.readouterr().err


def test_overflowing_stiffness_flow_exits_with_a_named_error(tmp_path):
    # alpha = 100 passes validation, but over the 5 s horizon the stiffness
    # flow grows by e^(2 alpha T) = e^1000 and overflows on the first
    # rollout.  That used to end in numpy's LinAlgError traceback, exit 1.
    path = tmp_path / "alpha.ini"
    path.write_text("[gains]\nalpha = 100\nd_init = 300\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cgms.cli", "train", "--config", str(path),
         "--out", str(tmp_path / "o")],
        env=checkout_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == cli.EXIT_CERTIFICATION
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert "diverged" in lines[0] and "stiffness flow" in lines[0]


@pytest.mark.parametrize("command", ["train", "rollout"])
def test_unstable_error_loop_ends_by_name(tmp_path, capsys, command):
    # The reference's defect at step 170 is 43.9 ulp, above the 32-ulp
    # rule, so the error loop runs from step 171, where dt d = 20 > 2 makes
    # the Euler loop unstable.  The first block's scan ran on past the
    # first out-of-box step and overflowed in the states it discards: four
    # RuntimeWarnings, which pytest's filter (and CI's PYTHONWARNINGS)
    # turned into a traceback, exit 1.  The out-of-box step is named alone.
    path = tmp_path / "unstable.ini"
    path.write_text("[run]\nhorizon = 0.5\ndt = 0.0002\nupdates = 1\n"
                    "rollouts = 2\n[dmp]\nstiffness = 10000\n"
                    "[gains]\nk_init = 1e6\nd_init = 1e5\n")
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CERTIFICATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("infeasible torque floor: ")


@pytest.mark.parametrize("u_bar", ["-0.01", "nan", "inf"])
def test_bad_u_bar_is_config_error(tmp_path, capsys, u_bar):
    # These used to exit 0: a negative bound as a report "error", nan and
    # inf as NaN/Infinity, which is not JSON, in robustness.json.  The
    # bound is checked before the rollout runs, so no file is written.
    out = tmp_path / "o"
    rc = cli.main(["rollout", "--out", str(out), "--u-bar", u_bar])
    assert rc == cli.EXIT_CONFIG
    assert "--u-bar" in capsys.readouterr().err
    assert not (out / "robustness.json").exists()
    assert not out.exists()


GOOD_BLOCKS = {"theta_d": np.zeros((7, 6)).tolist(),
               "theta_k": np.zeros((7, 6)).tolist()}


@pytest.mark.parametrize("command, content", [
    ("rollout", None),
    ("rollout", "{"),
    ("rollout", json.dumps({"theta_traj": [[1.0]], "theta_d": [[1.0]]})),
    ("rollout", json.dumps(dict(GOOD_BLOCKS, theta_traj=[[1.0]]))),
    ("rollout", json.dumps([1.0])),
    ("rollout", json.dumps(dict(GOOD_BLOCKS, theta_traj=[[np.nan] * 3] * 51))),
])
def test_bad_policy_file_is_config_error(tmp_path, capsys, command, content):
    # A missing file, malformed JSON, a missing block, a block shape that
    # does not fit the setup's bases or a NaN entry used to exit 1 with a
    # traceback.
    path = tmp_path / "policy.json"
    if content is not None:
        path.write_text(content)
    rc = cli.main([command, "--policy", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "--policy" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Config sweep
# ---------------------------------------------------------------------------

BELOW_ONE = float(np.nextafter(1.0, 0.0))
# (low, high, scale) of each numeric key over values that validate accepts.
# An unbounded end is cut at a wide finite value: near the float limit
# (1e300) gains_k_init and governor_limit still overflow (the stiffness
# flow, and the governor floor's torque in a diverging loop), a known fault
# not swept here.
# "log" draws a zero low end as high * 1e-9.
SWEEP_RANGES = {
    "run_horizon": (0.01, 2.0, "log"),
    "run_seed": (0, 2 ** 31 - 1, "int"),
    "dmp_rbf_count": (1, 100, "int"),
    "dmp_intersection_height": (1e-300, BELOW_ONE, "log"),
    "dmp_regularization": (0.0, 1e6, "log"),
    "dmp_stiffness": (1e-3, 1e4, "log"),
    "gains_alpha": (0.0, 100.0, "log"),
    "gains_slack_rbf_count": (1, 20, "int"),
    "gains_slack_intersection_height": (1e-300, BELOW_ONE, "log"),
    "gains_k_init": (1e-3, 1e6, "log"),
    "governor_limit": (1e-6, 1e9, "log"),
    "learning_sigma_traj": (0.0, 80.0, "lin"),
    "learning_sigma_k": (0.0, 13.0, "lin"),
    "learning_sigma_d": (0.0, 6.0, "lin"),
    "learning_covariance_decay": (0.0, 2.0, "lin"),
    "learning_softmax_sharpness": (1e-3, 1e3, "log"),
    "cost_lambda_k": (0.0, 1.5e-5, "lin"),
    "cost_lambda_acc": (0.0, 1e-2, "lin"),
    "cost_w0": (0.0, 2.0, "lin"),
    "cost_gamma_via": (0.0, 5e5, "lin"),
    "cost_sigma_via_frac": (1e-3, 10.0, "log"),
    # Dependent keys: the grid's steps (from the fewest that the DMP's step
    # allows at the drawn stiffness, to 1000) and gains_d_init's excess
    # over gains_alpha.
    "steps": (None, 1000, "int"),
    "d_excess": (1e-6, 1e5, "log"),
}


def sweep_value(rng, low, high, scale):
    """low or high with a third of the chance each, else a draw between."""
    pick = int(rng.integers(3))
    if pick < 2:
        return (low, high)[pick]
    if scale == "int":
        return int(rng.integers(low, high + 1))
    if scale == "lin":
        return float(rng.uniform(low, high))
    return float(math.exp(rng.uniform(math.log(low or high * 1e-9),
                                      math.log(high))))


def sweep_configs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        v = {key: sweep_value(rng, *spec) for key, spec in SWEEP_RANGES.items()
             if key != "steps"}
        fewest = math.floor(math.sqrt(v["dmp_stiffness"]) / DMP_STEP_LIMIT) + 1
        v["steps"] = sweep_value(rng, fewest, *SWEEP_RANGES["steps"][1:])
        v["run_dt"] = v["run_horizon"] / v["steps"]
        v["gains_d_init"] = v["gains_alpha"] + v["d_excess"]
        v["run_scenario"] = str(rng.choice(sorted(SCENARIOS)))
        v["run_mode"] = str(rng.choice([MODE_CERTIFIED,
                                        MODE_UNCERTIFIED_AFTER_VIA]))
        if rng.integers(2):
            v["scenario_goal"] = tuple(rng.uniform(-1.0, 1.0, 3))
        yield v


def test_config_sweep_runs_or_fails_by_name(tmp_path, capsys):
    # Every config that validate accepts must run, or end in a named error
    # (exit 2 or 3, each stderr line labelled): never a traceback or a
    # warning.  One update of two rollouts on at most 1000 steps; rollout
    # also runs the robustness chain.
    labels = tuple(label for label, _ in cli.FAILURES.values()) + (
        "robustness failure",)
    configs = list(sweep_configs(seed=0, count=45))
    for key, (low, high, _) in SWEEP_RANGES.items():
        drawn = {v[key] for v in configs}
        assert high in drawn and (low is None or low in drawn), key
    for i, v in enumerate(configs):
        cfg = replace(ExperimentConfig(), run_updates=1, run_rollouts=2,
                      **{k: x for k, x in v.items()
                         if k not in ("steps", "d_excess")})
        path = tmp_path / f"sweep{i}.ini"
        save_config(cfg, path)
        for command in ("train", "rollout"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = cli.main([command, "--config", str(path),
                               "--out", str(tmp_path / "o")])
            assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG,
                          cli.EXIT_CERTIFICATION), (command, v)
            err = capsys.readouterr().err.splitlines()
            assert (rc == cli.EXIT_OK) == (not err), (command, v)
            assert all(line.startswith(labels) for line in err), err


# ---------------------------------------------------------------------------
# Subcommand artifacts
# ---------------------------------------------------------------------------

def test_train_artifacts_and_determinism(tmp_path, small_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = cli.main(["train", "--config", str(small_config),
                       "--seed", "0", "--out", str(out)])
        assert rc == cli.EXIT_OK
    for name in ("learning_trace.csv", "theta_initial.json",
                 "theta_final.json", "saturation_events.json",
                 "resolved_config.ini"):
        assert (out_a / name).exists(), name
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    # summary.json matches except for the measured wall time.
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    sa.pop("wall_time_s"), sb.pop("wall_time_s")
    assert sa == sb
    trace = (out_a / "learning_trace.csv").read_text().splitlines()
    assert trace[0] == ",".join(cli.TRACE_HEADER)
    # 2 updates x 3 rollouts plus the final noise-free evaluation row.
    assert len(trace) == 1 + 2 * 3 + 1
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["schema_version"] == 2
    assert summary["scenario"] == "handover"
    assert summary["seed"] == 0
    assert summary["certificate_pass_rate"] == 1.0
    assert len(summary["rmse_per_axis"]) == 3


def test_summary_margins_are_minus_the_largest_eigenvalues(tmp_path):
    # min_margin_lamA/lamC are margins in the sense of CertificateReport's
    # eps_D/eps_K: -max over the trace's column, nonnegative when certified.
    config = tmp_path / "one_by_two.ini"
    config.write_text("[run]\nupdates = 1\nrollouts = 2\n")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(config), "--seed", "0",
                     "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    trace = np.genfromtxt(out / "learning_trace.csv", delimiter=",",
                          names=True)
    assert summary["certificate_pass_rate"] == 1.0
    for key, column in (("min_margin_lamA", "lamA_max"),
                        ("min_margin_lamC", "lamC_max")):
        assert summary[key] == -trace[column].max()
        assert summary[key] >= 0.0


def test_train_seed_changes_trace(tmp_path, small_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["train", "--config", str(small_config), "--seed", "0",
              "--out", str(out_a)])
    cli.main(["train", "--config", str(small_config), "--seed", "1",
              "--out", str(out_b)])
    assert ((out_a / "learning_trace.csv").read_bytes()
            != (out_b / "learning_trace.csv").read_bytes())


def test_rollout_artifacts(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["rollout", "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["t", "x1", "x2", "x3"]
    assert header[-1] == "beta"
    assert len(lines) == 1 + 5001
    assert (out / "gains.csv").exists()


def test_certify_artifacts(tmp_path):
    # The rollout writes its own certificate; the eigenvalue trace is the
    # last two columns of gains.csv.
    out = tmp_path / "o"
    rc = cli.main(["rollout", "--out", str(out)])
    assert rc == cli.EXIT_OK
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["passes"] is True
    assert abs(cert["lam_A_max"] + 29.95) < 1e-6
    assert abs(cert["lam_C_max"] + 20.0) < 1e-6
    gains = (out / "gains.csv").read_text().splitlines()
    assert gains[0].split(",")[-2:] == ["lamA", "lamC"]
    assert len(gains) == 1 + 5001


def test_govern_artifacts(tmp_path):
    # The governor's scale is the beta column of trajectory.csv.
    out = tmp_path / "o"
    rc = cli.main(["rollout", "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "beta"
    betas = np.array([float(l.split(",")[-1]) for l in lines[1:]])
    assert np.all(betas == 1.0)
    assert json.loads((out / "saturation_events.json").read_text()) == []


def test_rollout_takes_no_seed(tmp_path, capsys):
    # A noise-free rollout draws no noise, so it has no --seed to ignore.
    with pytest.raises(SystemExit) as exc:
        cli.main(["rollout", "--seed", "3", "--out", str(tmp_path / "o")])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_certify_audits_the_ablation_schedule(tmp_path, capsys):
    # A slack that varies in time.  After the via time the ablation runs it
    # linearized about its via-time value, which leaves the certified cone;
    # the rollout must audit that executed schedule in the configured mode.
    setup, noise = compile_setup(load_config(None))
    pol = initial_policy(setup)
    xi = sample_noise(replace(noise, seed=5, sigma_traj=0.0), pol, 0, 1)
    d = pol.to_dict()
    d["theta_d"] = (pol.theta_d + xi.theta_d).tolist()
    d["theta_k"] = (pol.theta_k + xi.theta_k).tolist()
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(d))
    ablate = tmp_path / "ablate.ini"
    ablate.write_text("[run]\nmode = uncertified-after-via\n")
    out = tmp_path / "u"
    rc = cli.main(["rollout", "--config", str(ablate), "--policy", str(policy),
                   "--out", str(out)])
    assert rc == cli.EXIT_CERTIFICATION
    # Every file is written before the exit code reports the failure.
    for name in ("trajectory.csv", "gains.csv", "certificate.json",
                 "saturation_events.json"):
        assert (out / name).exists(), name
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["passes"] is False and cert["lam_C_max"] > 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("certification failure: ")
    assert "lam_A_max" in err[0] and "lam_C_max" in err[0]
    rc = cli.main(["rollout", "--policy", str(policy),
                   "--out", str(tmp_path / "c")])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def test_robustness_artifacts(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["rollout", "--out", str(out), "--u-bar", "0.02"])
    assert rc == cli.EXIT_OK
    rep = json.loads((out / "robustness.json").read_text())
    assert rep["u_bar"] == 0.02
    assert rep["schedule"]["passes"] is True
    # Either the full constant chain or a named precondition failure.
    assert ("constants" in rep) != ("error" in rep)


def wider_margin_policy(tmp_path, config=None):
    """The initial policy with its stiffness slack scaled by 1.5."""
    setup, _ = compile_setup(load_config(config))
    d = initial_policy(setup).to_dict()
    d["theta_k"] = (np.sqrt(1.5) * np.asarray(d["theta_k"])).tolist()
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(d))
    return path


def test_robustness_full_chain_on_wider_margin(tmp_path):
    # The initial policy has eps_K = 2 alpha k_init = 20, below the
    # 20.15 floor, so it stops at the precondition; a stiffness slack
    # scaled by 1.5 clears it and runs the dissipation and bound checks.
    path = wider_margin_policy(tmp_path)
    out = tmp_path / "o"
    rc = cli.main(["rollout", "--policy", str(path), "--out", str(out)])
    assert rc == cli.EXIT_OK
    rep = json.loads((out / "robustness.json").read_text())
    assert "constants" in rep and "error" not in rep
    assert rep["dissipation"]["passes"] is True
    assert rep["uub"]["inside"] is True
    assert 0.05 < rep["uub"]["margin"] < rep["constants"]["radius"]


def test_robustness_judges_the_executed_euler_loop(tmp_path, capsys):
    # At 62.5 ms the same policy's executed error loop grows to about
    # 1.3e4 m under the standard residuals, although the continuous-time
    # chain holds (Colgate & Schenkel 1997): the schedule passes its
    # certificate, both robustness checks fail, and the rollout writes its
    # five files and exits 3 with one stderr line.
    config = tmp_path / "coarse.ini"
    config.write_text("[run]\ndt = 0.0625\n")
    path = wider_margin_policy(tmp_path, config)
    out = tmp_path / "o"
    rc = cli.main(["rollout", "--config", str(config), "--policy", str(path),
                   "--out", str(out)])
    assert rc == cli.EXIT_CERTIFICATION
    for name in ("trajectory.csv", "gains.csv", "certificate.json",
                 "saturation_events.json"):
        assert (out / name).exists(), name
    assert json.loads((out / "certificate.json").read_text())["passes"] is True
    rep = json.loads((out / "robustness.json").read_text())
    assert "constants" in rep and "error" not in rep
    assert rep["dissipation"]["passes"] is False
    assert rep["uub"]["inside"] is False and rep["uub"]["margin"] < -1e3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("robustness failure")


def test_robustness_records_a_grid_too_short_for_dissipation(tmp_path):
    # Two grid samples, which validate accepts, leave the dissipation check
    # no central difference.  That precondition is reported by name in
    # robustness.json; it used to end in a traceback and exit 1.
    config = tmp_path / "two_samples.ini"
    config.write_text("[run]\nhorizon = 1.0\ndt = 1.0\n[dmp]\nstiffness = 0.5\n")
    path = wider_margin_policy(tmp_path, config)
    out = tmp_path / "o"
    rc = cli.main(["rollout", "--config", str(config), "--policy", str(path),
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    rep = json.loads((out / "robustness.json").read_text())
    assert "3 grid samples" in rep["error"] and "dissipation" not in rep


def test_robustness_records_a_diverged_simulation(tmp_path, monkeypatch,
                                                  capsys):
    # A residual family whose simulation diverges is reported by name in
    # robustness.json, not as a passing bound, and exits 3.
    def nan_residuals(u_bar, m):
        return [lambda t: np.full((len(t), m), np.nan)] * 3

    monkeypatch.setattr(cli.rb, "standard_residuals", nan_residuals)
    path = wider_margin_policy(tmp_path)
    out = tmp_path / "o"
    rc = cli.main(["rollout", "--policy", str(path), "--out", str(out)])
    assert rc == cli.EXIT_CERTIFICATION
    rep = json.loads((out / "robustness.json").read_text())
    assert "diverged" in rep["error"] and "uub" not in rep
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("integration diverged")


def test_ablate_artifacts(tmp_path, small_config):
    out = tmp_path / "o"
    rc = cli.main(["ablate", "--config", str(small_config),
                   "--seed", "0", "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = (out / "ablate_eigs.csv").read_text().splitlines()
    assert lines[0] == "update,rollout,lamA_max_post_via,lamC_max_post_via"
    assert len(lines) > 1
    resolved = (out / "resolved_config.ini").read_text()
    assert "mode = uncertified-after-via" in resolved


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "cgms.cli", "--help"],
                          env=checkout_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert "{train,rollout,ablate}" in proc.stdout
    # rollout writes what certify, govern and robustness wrote; they are
    # gone.
    for name in ("certify", "govern", "robustness"):
        proc = subprocess.run([sys.executable, "-m", "cgms.cli", name],
                              env=checkout_env(), capture_output=True,
                              text=True)
        assert proc.returncode == cli.EXIT_CONFIG
        assert "invalid choice" in proc.stderr
