"""Benchmark of the cgms pipeline, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  A full report
(environment, seed, per-unit counts and digests, and with ``--trace 1`` the
spans) is written to ``.perfbench_out/`` in the repository root.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

import time

T_START = time.perf_counter()
T_START_CPU = time.thread_time()

import os  # noqa: E402

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 120
ROTATE_PERIOD_S = 0.02     # time the measuring thread spends on one CPU

# Times are CPU time of the working thread, which leaves out the time the
# host takes a shared vCPU away (see "Steadiness" in README.md).
END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "ops_per_cpu_s": "1/s",
    "op_cpu_ms_p50": "ms",
    "op_cpu_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "plants.calls": "count", "plants.self_s": "s",
    "dmp.reference_calls": "count", "dmp.reference_s": "s", "dmp.self_s": "s",
    "gains.slack_s": "s", "gains.flow_s": "s", "gains.flow_rejects": "count",
    "gains.schedule_s": "s", "gains.self_s": "s",
    "governor.calls": "count", "governor.self_s": "s",
    "governor.infeasible": "count", "governor.limited": "count",
    "learning.attempts": "count", "learning.accepted": "count",
    "learning.accept_ratio": "ratio",
    "learning.rejects_certified": "count",
    "learning.rejects_infeasible": "count",
    "learning.rollout_self_s": "s", "learning.rejected_s": "s",
    "learning.cost_s": "s", "learning.noise_s": "s", "learning.pi2_s": "s",
    "learning.self_s": "s", "learning.cost_ratio": "ratio",
    "robustness.sim_calls": "count", "robustness.sim_steps": "count",
    "robustness.sim_s": "s", "robustness.sim_us_per_step": "us",
    "robustness.inputs_s": "s", "robustness.dissipation_self_s": "s",
    "robustness.uub_self_s": "s", "robustness.self_s": "s",
    "trace.uncovered_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["train_handover", "train_tight_box",
                            "robustness_ensemble"])
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="work to do, as seconds at the nominal unit cost")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "rotate_period_s": ROTATE_PERIOD_S,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs"
                         / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def child_setup_time(args):
    """Set-up CPU and wall time of a fresh interpreter on the same workload."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class CoreRotation:
    """Moves the measuring thread to the next allowed CPU every period.

    On a shared VM the vCPUs run at different speeds, and which one is slow
    changes over tens of seconds.  A thread left on one CPU makes each run
    measure that CPU's phase.  Taking turns every 20 ms gives every set-up
    and every operation of 0.1 s or more the mean speed of all the CPUs
    instead.  The rotating thread sleeps between moves and is joined on
    exit, which gives the thread its whole CPU set back.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.target = threading.get_native_id()
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._rotate, daemon=True)

    def _rotate(self):
        k = 0
        while not self.stop.wait(ROTATE_PERIOD_S):
            k = (k + 1) % len(self.cpus)
            os.sched_setaffinity(self.target, {self.cpus[k]})

    def __enter__(self):
        if len(self.cpus) > 1:
            os.sched_setaffinity(self.target, {self.cpus[0]})
            self.thread.start()

    def __exit__(self, *exc):
        if self.thread.is_alive():
            self.stop.set()
            self.thread.join()
        os.sched_setaffinity(self.target, set(self.cpus))
        return False


def p90(values):
    """90th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run(args):
    if not (ROOT / "src" / "cgms" / "__init__.py").is_file():
        print(f"error: no cgms package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with CoreRotation():
        import workloads
        from tracer import Tracer

        wl = (workloads.SMOKE if args.smoke
              else workloads.WORKLOADS)[args.workload]()
        wl.setup(args.seed)
        setups = [{"setup_s": time.thread_time() - T_START_CPU,
                   "setup_wall_s": time.perf_counter() - T_START}]
    if args.setup_only:
        print(json.dumps(setups[0]))
        return 0
    # The children start with the whole CPU set and rotate on their own.
    setups += [child_setup_time(args) for _ in range(wl.setup_samples - 1)]

    n_units = wl.units_for(args.seconds)
    tracer = Tracer() if args.trace else None
    # Unit 0 runs once more at the end: it must repeat exactly (criterion 8
    # for the learning trace).  Untraced, the repeat is timed as one more
    # unit; traced, it runs untraced after the timing and is the twin of the
    # traced unit 0 for the overhead figure.
    with CoreRotation():
        t0, cpu0 = time.perf_counter(), time.thread_time()
        if tracer is None:
            units = [wl.run_unit(k) for k in [*range(n_units), 0]]
            wall = time.perf_counter() - t0
            cpu = time.thread_time() - cpu0
            again = units[-1]
        else:
            tracer.install()
            try:
                units = [wl.run_unit(k, tracer) for k in range(n_units)]
            finally:
                tracer.remove()
            wall = time.perf_counter() - t0
            cpu = time.thread_time() - cpu0
            again = wl.run_unit(0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Each output line of unit 0 that the repeat does not reproduce is a
    # failed operation.
    mismatched = sum(a != b for a, b in zip(units[0].lines, again.lines))
    mismatched += abs(len(units[0].lines) - len(again.lines))
    attempted = sum(u.ops for u in units)
    failed = min(attempted, sum(u.failed for u in units) + mismatched)
    completed = sum(u.completed for u in units)
    op_cpu = [x for u in units for x in u.op_cpu]
    ratios = [u.cost_ratio for u in units if u.cost_ratio is not None]

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "environment": environment(),
        "setup_samples": setups,
        "units": len(units), "wall_s": wall, "cpu_s": cpu,
        "operations": completed,
        "op_samples": len(op_cpu),
        "repeat_unit0_wall_s": again.wall,
        "repeat_identical": mismatched == 0,
        "unit_digests": [u.digest for u in units],
        "unit_walls_s": [u.wall for u in units],
        "unit_details": [u.details for u in units],
        "unit_errors": [u.error for u in units if u.error],
        "cost_ratio": statistics.median(ratios) if ratios else None,
    }
    if tracer is None:
        units_of = END_TO_END_UNITS
        metrics = {}
        if op_cpu:
            metrics = {
                "setup_s": statistics.median(x["setup_s"] for x in setups),
                "cpu_s": cpu,
                "ops_per_cpu_s": completed / cpu,
                "op_cpu_ms_p50": 1e3 * statistics.median(op_cpu),
                "op_cpu_ms_p90": 1e3 * p90(op_cpu),
                "peak_rss_mb": peak_rss_mb,
            }
    else:
        metrics = tracer.layer_metrics()
        metrics["learning.cost_ratio"] = report["cost_ratio"] or 0.0
        metrics["trace.uncovered_s"] = wall - tracer.covered()
        metrics["trace.overhead_s"] = units[0].wall - again.wall
        metrics["trace.spans"] = len(tracer.spans)
        report["functions"] = tracer.per_function()
        report["spans"] = tracer.dump()
        units_of = PER_LAYER_UNITS
    report["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str))
    summary = {k: v for k, v in report.items()
               if k not in ("spans", "functions", "metrics")}
    print(json.dumps(summary, default=str))
    if not op_cpu:
        print("error: no operation completed", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units_of.items() if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
