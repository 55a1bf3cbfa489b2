"""Guards for the names the benchmark's tracer wraps.

`perfbench/tracer.py` reports a renamed wrap target as a missing metric;
loading it here turns such a rename into a test failure instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = load_tracer()
    assert tracer.TARGETS
    for name, (module_name, attr) in tracer.TARGETS.items():
        assert callable(getattr(importlib.import_module(module_name), attr, None)), name
    rootsys = importlib.import_module("lieconformal.rootsys")
    assert hasattr(rootsys.build, "cache_info")
