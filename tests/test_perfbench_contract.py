"""The benchmark's tracer wraps library functions by (module, name).

``perfbench/tracer.py`` patches each name in its ``WRAPPED`` list for the
length of a traced run.  A name that no longer resolves would break traced
benchmark runs only, so it is checked here, loading the tracer by path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    missing = [(mod, attr) for mod, attr in tracer.WRAPPED
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert missing == []
