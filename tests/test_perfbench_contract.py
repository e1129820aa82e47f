"""The benchmark's code under ``perfbench/`` calls into the library.

``perfbench/tracer.py`` patches each name in its ``WRAPPED`` list for the
length of a traced run, and ``perfbench/workloads.py`` calls ``train``,
``rollout`` and the robustness chain.  A renamed function or a changed
signature would break benchmark runs only, so both files are loaded here by
path and exercised at their smoke sizes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracer = _load("tracer")
    assert tracer.WRAPPED
    missing = [(mod, attr) for mod, attr in tracer.WRAPPED
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert missing == []


@pytest.mark.parametrize("workload", ["train_handover", "train_tight_box",
                                      "robustness_ensemble"])
def test_smoke_unit_runs_untraced_and_traced(workload):
    workloads, tracer = _load("workloads"), _load("tracer")
    wl = workloads.SMOKE[workload]()
    wl.setup(1)
    units = [wl.run_unit(0)]
    t = tracer.Tracer()
    t.install()
    try:
        units.append(wl.run_unit(0, t))
    finally:
        t.remove()
    for res in units:
        assert res.error is None
        assert res.failed == 0
        assert res.completed == res.ops
    assert t.spans
