"""Guards for what the benchmark in `perfbench/` uses of the program.

`perfbench/tracer.py` reports a renamed wrap target as a missing metric,
and `perfbench/worker.py` counts a removed name as a failed op; loading
them here turns such a change into a test failure instead.  The pinned
outputs in `perfbench/data/expected.json` are replayed as well.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import random
from pathlib import Path

from lieconformal import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "data" / "expected.json").read_text(encoding="utf-8"))


def load_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = load_module("tracer")
    assert tracer.TARGETS
    for name, (module_name, attr) in tracer.TARGETS.items():
        assert callable(getattr(importlib.import_module(module_name), attr, None)), name
    rootsys = importlib.import_module("lieconformal.rootsys")
    assert hasattr(rootsys.build, "cache_info")


def test_pinned_solve_outputs(tmp_path):
    """Every pinned `solve` output of a pre-solver candidate, byte for byte,
    then again in reverse order, as the process-wide caches are warm."""
    pool = EXPECTED["solve_pool"]
    assert len(pool) == 176
    path = tmp_path / "config.json"
    for entry in pool + pool[::-1]:
        path.write_text(json.dumps(entry["config"]), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["solve", str(path)])
        assert (code, out.getvalue()) == (0, entry["output"]), entry["config"]


def test_audit_warm_pass(tmp_path, monkeypatch):
    """One seeded audit-warm pass of the benchmark worker, in process, with
    no failed op."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # the worker imports `meter`
    worker = load_module("worker")
    state = worker.AuditWarm(EXPECTED, tmp_path)
    ops = state.make_pass(random.Random("0:0"))
    assert len(ops) > 20
    for name, op in ops:
        op()
