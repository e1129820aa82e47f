"""Span recording around the public functions of the cgms layers.

The program is not changed: each function is replaced, for the length of a
traced block, by a wrapper under the module attribute its caller looks up
(``cgms.learning.rollout_reference`` for the DMP reference that a rollout
computes, ``cgms.robustness.simulate_error_dynamics`` for the RK4 that the
dissipation and bound checks run, and so on).  Spans stay in memory and are
written out by the runner when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (module the caller looks the name up in, attribute name).  The layer a
# span is charged to is the module that defines the function, so
# ``cgms.learning.slack_trace`` counts toward ``gains``.
WRAPPED = [
    ("cgms.learning", "train"),
    ("cgms.learning", "initial_policy"),
    ("cgms.learning", "sample_noise"),
    ("cgms.learning", "rollout"),
    ("cgms.learning", "trajectory_cost"),
    ("cgms.learning", "pi2_update"),
    ("cgms.learning", "rollout_reference"),
    ("cgms.learning", "slack_trace"),
    ("cgms.learning", "integrate_cholesky_flow"),
    ("cgms.learning", "beta_star_detail"),
    ("cgms.plants", "initial_state"),
    ("cgms.plants", "operational_space_terms"),
    ("cgms.gains", "build_gain_schedule"),
    ("cgms.gains", "slack_trace"),
    ("cgms.gains", "integrate_cholesky_flow"),
    ("cgms.robustness", "inputs_from_schedule"),
    ("cgms.robustness", "uub_constants"),
    ("cgms.robustness", "dissipation_check"),
    ("cgms.robustness", "uub_empirical"),
    ("cgms.robustness", "simulate_error_dynamics"),
    ("cgms.robustness", "standard_residuals"),
]

LAYERS = ("plants", "dmp", "gains", "governor", "learning", "robustness")

# A call to one of these starts a new operation id; every span nested in
# it shares that id.  Schedules start theirs through Tracer.begin_op.
OP_ROOTS = {"learning.rollout"}


def _note(name, result):
    """Per-call count carried on the span: RK4 steps, or the governor's beta."""
    if name == "robustness.simulate_error_dynamics":
        return len(result[0]) - 1
    if name == "governor.beta_star_detail":
        return result[0]
    return None


class Tracer:
    """In-memory span store plus the install/remove of the wrappers."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, op, error, note]
        self._stack = []
        self._op = -1
        self._saved = []

    def begin_op(self):
        self._op += 1

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in OP_ROOTS:
                self._op += 1
            rec = [name, clock(), 0.0, stack[-1] if stack else None, self._op,
                   None, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            rec[6] = _note(name, result)
            return result

        return wrapper

    def install(self):
        import importlib

        for mod_name, attr in WRAPPED:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            layer = fn.__module__.rsplit(".", 1)[-1]
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(f"{layer}.{fn.__name__}", fn))

    def remove(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- aggregation --------------------------------------------------------

    def self_times(self):
        """Per-span duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def covered(self):
        """Wall time covered by top-level spans."""
        return sum(s[2] - s[1] for s in self.spans if s[3] is None)

    def per_function(self):
        """calls, total and self seconds, and errors by class per function."""
        own = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "errors": Counter()})
        for s, o in zip(self.spans, own):
            f = out[s[0]]
            f["calls"] += 1
            f["total_s"] += s[2] - s[1]
            f["self_s"] += o
            if s[5] is not None:
                f["errors"][s[5]] += 1
        return {k: dict(v, errors=dict(v["errors"])) for k, v in out.items()}

    def layer_metrics(self):
        """The per-layer metrics named in BENCHMARK.json, from the spans."""
        fns = self.per_function()

        def get(name, key="self_s"):
            return fns.get(name, {}).get(key, 0)

        def err(name, cls):
            return fns.get(name, {}).get("errors", {}).get(cls, 0)

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, f in fns.items():
            layer_self[name.split(".", 1)[0]] += f["self_s"]
        rollouts = [s for s in self.spans if s[0] == "learning.rollout"]
        attempts = len(rollouts)
        accepted = sum(1 for s in rollouts if s[5] is None)
        betas = [s[6] for s in self.spans
                 if s[0] == "governor.beta_star_detail" and s[5] is None]
        sim_steps = sum(s[6] for s in self.spans
                        if s[0] == "robustness.simulate_error_dynamics"
                        and s[5] is None)
        sim_s = get("robustness.simulate_error_dynamics", "total_s")
        m = {
            "plants.calls": get("plants.initial_state", "calls")
            + get("plants.operational_space_terms", "calls"),
            "dmp.reference_calls": get("dmp.rollout_reference", "calls"),
            "dmp.reference_s": get("dmp.rollout_reference"),
            "gains.slack_s": get("gains.slack_trace"),
            "gains.flow_s": get("gains.integrate_cholesky_flow"),
            "gains.flow_rejects": err("gains.integrate_cholesky_flow",
                                      "CertifiedFloorError"),
            "gains.schedule_s": get("gains.build_gain_schedule"),
            "governor.calls": get("governor.beta_star_detail", "calls"),
            "governor.infeasible": err("governor.beta_star_detail",
                                       "InfeasibleFloorError"),
            "governor.limited": sum(1 for b in betas if b < 1.0),
            "learning.attempts": attempts,
            "learning.accepted": accepted,
            "learning.accept_ratio": accepted / attempts if attempts else 0.0,
            "learning.rejects_certified": err("learning.rollout",
                                              "CertifiedFloorError"),
            "learning.rejects_infeasible": err("learning.rollout",
                                               "InfeasibleFloorError"),
            "learning.rollout_self_s": get("learning.rollout"),
            "learning.rejected_s": sum(s[2] - s[1] for s in rollouts
                                       if s[5] is not None),
            "learning.cost_s": get("learning.trajectory_cost"),
            "learning.noise_s": get("learning.sample_noise"),
            "learning.pi2_s": get("learning.pi2_update"),
            "robustness.sim_calls": get("robustness.simulate_error_dynamics",
                                        "calls"),
            "robustness.sim_steps": sim_steps,
            "robustness.sim_s": sim_s,
            "robustness.sim_us_per_step": (1e6 * sim_s / sim_steps
                                           if sim_steps else 0.0),
            "robustness.inputs_s": get("robustness.inputs_from_schedule",
                                       "total_s"),
            "robustness.dissipation_self_s": get("robustness.dissipation_check"),
            "robustness.uub_self_s": get("robustness.uub_empirical"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        return m

    def dump(self):
        """Spans as plain lists, for the run's output file."""
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "op": s[4], "error": s[5], "note": s[6]} for s in self.spans]
