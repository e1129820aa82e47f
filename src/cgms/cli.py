"""Command-line harness: training runs, single rollouts, certification,
governor traces, robustness reports, and the uncertified ablation.

Exit codes: 0 success, 2 configuration error, 3 certification failure in
certified mode, a torque floor that no resampled attempt could meet, or a
simulation that diverged (such as a stiffness flow whose growth overflows).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import robustness as rb
from .config import SCENARIOS, compile_setup, load_config, save_config
from .errors import (
    CertifiedFloorError,
    ConfigError,
    InfeasibleFloorError,
    IntegrationDivergedError,
    MarginTooSmallError,
)
from .learning import (
    MODE_UNCERTIFIED_AFTER_VIA,
    PolicyParams,
    initial_policy,
    rollout,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
# What main prints on stderr, and returns, when a command raises one of these.
FAILURES = {
    ConfigError: ("config error", EXIT_CONFIG),
    CertifiedFloorError: ("certification failure", EXIT_CERTIFICATION),
    InfeasibleFloorError: ("infeasible torque floor", EXIT_CERTIFICATION),
    IntegrationDivergedError: ("integration diverged", EXIT_CERTIFICATION),
}


def write_csv(path, header, rows):
    """Write a header line and one line per row: ints as they are, every
    other value as a round-tripping %.17g float."""
    lines = [",".join(header)]
    lines += [",".join(str(v) if isinstance(v, int) else format(float(v), ".17g")
                       for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args):
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / ".write-test").write_text("")
        (out / ".write-test").unlink()
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {exc}") from exc
    return out


def _load(args, mode=None):
    overrides = {}
    if args.seed is not None:
        overrides["run_seed"] = args.seed
    if args.scenario is not None:
        overrides["run_scenario"] = args.scenario
    if mode is not None:
        overrides["run_mode"] = mode
    return load_config(args.config, overrides=overrides)


TRACE_HEADER = ["update", "rollout", "cost", "cost_K", "cost_acc",
                "cost_track", "lamA_max", "lamC_max", "beta_star_min"]


def _write_trace(path, rows):
    write_csv(path, TRACE_HEADER, [[r[h] for h in TRACE_HEADER] for r in rows])


def _summary(cfg, result, wall_time):
    rows = result.rows
    final_ro = result.evaluation
    rmse = np.sqrt(((final_ro.x - final_ro.x_d) ** 2).mean(axis=0))
    return {
        "schema_version": 2,
        "scenario": cfg.run_scenario,
        "mode": cfg.run_mode,
        "seed": cfg.run_seed,
        "initial_mean_cost": result.initial_mean_cost,
        "final_mean_cost": result.final_mean_cost,
        "certificate_pass_rate": float(np.mean(
            [r["lamA_max"] <= 0 and r["lamC_max"] <= 0 for r in rows])),
        # The margins of CertificateReport (eps_D, eps_K): -max lambda over
        # every row, >= 0 when each rollout is certified.
        "min_margin_lamA": -max(r["lamA_max"] for r in rows),
        "min_margin_lamC": -max(r["lamC_max"] for r in rows),
        "beta_star_min": min(r["beta_star_min"] for r in rows),
        "saturation_events": len(result.saturation_events),
        "rmse_per_axis": rmse.tolist(),
        "wall_time_s": wall_time,
    }


def cmd_train(args, mode=None):
    """Train; in the uncertified-after-via mode (``cgms ablate``) also write
    each accepted rollout's certificate maxima after the via time."""
    cfg = _load(args, mode)
    out = _out_dir(args)
    setup, noise = compile_setup(cfg)
    ablation = cfg.run_mode == MODE_UNCERTIFIED_AFTER_VIA
    post = setup.tgrid > setup.weights.t_hat
    eig_rows = []

    def hook(update, r_idx, ro):
        eig_rows.append([update, r_idx, float(ro.schedule.lam_A[post].max()),
                         float(ro.schedule.lam_C[post].max())])

    policy = initial_policy(setup)
    t0 = time.perf_counter()
    result = train(setup, policy, noise=noise, updates=cfg.run_updates,
                   rollouts_per_update=cfg.run_rollouts,
                   beta_softmax=cfg.learning_softmax_sharpness,
                   rollout_hook=hook if ablation and post.any() else None)
    wall = time.perf_counter() - t0
    if ablation:
        write_csv(out / "ablate_eigs.csv",
                  ["update", "rollout", "lamA_max_post_via",
                   "lamC_max_post_via"], eig_rows)
    _write_trace(out / "learning_trace.csv", result.rows)
    _write_json(out / "theta_initial.json", policy.to_dict())
    _write_json(out / "theta_final.json", result.policy.to_dict())
    _write_json(out / "summary.json", _summary(cfg, result, wall))
    _write_json(out / "saturation_events.json", result.saturation_events)
    save_config(cfg, out / "resolved_config.ini")
    return EXIT_OK


def _noise_free_rollout(args):
    """(out, setup, noise-free rollout of the --policy or initial policy)."""
    cfg, out = _load(args), _out_dir(args)
    setup, _ = compile_setup(cfg)
    return out, setup, rollout(_policy_arg(args, setup), None, setup)


def cmd_rollout(args):
    out, setup, ro = _noise_free_rollout(args)
    header = (["t"] + [f"x{i + 1}" for i in range(setup.m)]
              + [f"xd{i + 1}" for i in range(setup.m)]
              + [f"tau{i + 1}" for i in range(setup.m)] + ["beta"])
    rows = np.column_stack([ro.t, ro.x, ro.x_d, ro.torque, ro.beta])
    write_csv(out / "trajectory.csv", header, rows)
    sched, n = ro.schedule, len(ro.t)
    entries = [f"{i + 1}{j + 1}" for i in range(setup.m) for j in range(setup.m)]
    header = (["t"] + [f"K{e}" for e in entries] + [f"D{e}" for e in entries]
              + ["lamA", "lamC"])
    rows = np.column_stack([sched.t, sched.K.reshape(n, -1),
                            sched.D.reshape(n, -1), sched.lam_A, sched.lam_C])
    write_csv(out / "gains.csv", header, rows)
    return EXIT_OK


def cmd_certify(args):
    out, _, ro = _noise_free_rollout(args)
    schedule = ro.schedule
    report = schedule.report()
    _write_json(out / "certificate.json", report.to_dict())
    write_csv(out / "eigtrace.csv", ["t", "lamA", "lamC"],
              np.column_stack([schedule.t, schedule.lam_A, schedule.lam_C]))
    if not report.passes:
        return EXIT_CERTIFICATION
    return EXIT_OK


def cmd_govern(args):
    out, _, ro = _noise_free_rollout(args)
    write_csv(out / "beta_trace.csv", ["t", "beta_star"],
              np.column_stack([ro.t, ro.beta]))
    _write_json(out / "saturation_events.json", ro.saturation_events)
    return EXIT_OK


def cmd_robustness(args):
    if not (np.isfinite(args.u_bar) and args.u_bar >= 0):
        raise ConfigError(
            f"--u-bar must be finite and nonnegative, got {args.u_bar}")
    out, setup, ro = _noise_free_rollout(args)
    schedule = ro.schedule
    report = {"u_bar": args.u_bar, "schedule": schedule.report().to_dict()}
    try:
        inp = rb.inputs_from_schedule(schedule, args.u_bar, optimize=True)
        res = rb.uub_constants(inp)
        residuals = rb.standard_residuals(args.u_bar, setup.m)
        diss = rb.dissipation_check(schedule, inp, residuals[2])
        inside, margin = rb.uub_empirical(schedule, inp, residuals)
        report.update({
            "inputs": {"gamma": inp.gamma, "eta": inp.eta,
                       "h_min": inp.h_min, "h_max": inp.h_max,
                       "k_lower": inp.k_lower, "k_upper": inp.k_upper,
                       "d_upper": inp.d_upper, "eps_D": inp.eps_D,
                       "eps_K": inp.eps_K},
            "constants": res.to_dict(),
            "dissipation": diss,
            "uub": {"inside": inside, "margin": margin},
        })
    except (MarginTooSmallError, IntegrationDivergedError) as exc:
        report["error"] = str(exc)
    _write_json(out / "robustness.json", report)
    return EXIT_OK


def _policy_arg(args, setup):
    if not getattr(args, "policy", None):
        return initial_policy(setup)
    try:
        with open(args.policy) as fh:
            policy = PolicyParams.from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"--policy {args.policy}: {type(exc).__name__}: {exc}") from exc
    expected = initial_policy(setup)
    for name in ("theta_traj", "theta_d", "theta_k"):
        block, shape = getattr(policy, name), getattr(expected, name).shape
        if block.shape != shape:
            raise ConfigError(
                f"--policy {args.policy}: {name} has shape {block.shape}, "
                f"the setup needs {shape}")
        if not np.all(np.isfinite(block)):
            raise ConfigError(
                f"--policy {args.policy}: {name} has non-finite entries")
    return policy


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cgms",
        description="Certified variable-impedance policy learning harness")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "train": cmd_train,
        "rollout": cmd_rollout,
        "certify": cmd_certify,
        "govern": cmd_govern,
        "robustness": cmd_robustness,
        "ablate": lambda args: cmd_train(args, MODE_UNCERTIFIED_AFTER_VIA),
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--scenario", default=None,
                       choices=sorted(SCENARIOS))
        if name in ("rollout", "certify", "govern", "robustness"):
            p.add_argument("--policy", default=None,
                           help="policy parameters JSON (default: initial)")
        if name == "robustness":
            p.add_argument("--u-bar", dest="u_bar", type=float, default=0.01)
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(FAILURES) as exc:
        label, code = FAILURES[type(exc)]
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
