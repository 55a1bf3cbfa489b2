"""Span recorder for the traced benchmark run.

Spans come only from this file: `install` replaces each wrap target (a
public function of a lieconformal module) with a wrapper in every loaded
lieconformal module that holds a reference to it, and `uninstall` puts
the originals back.  Each span keeps its name, start, end, parent span
and op id in memory; `Recorder.dump` writes them out when the traced pass
ends, and `summarize` derives per-layer self time and counts from the
written file.  A wrap target that no longer exists is reported as
missing, never as 0.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute); the span name is also the metric prefix
TARGETS = {
    "rootsys.build": ("lieconformal.rootsys", "build"),
    "chevalley.structure_constants": ("lieconformal.chevalley", "structure_constants"),
    "chevalley.bracket": ("lieconformal.chevalley", "bracket"),
    "classify.classify_all": ("lieconformal.classify", "classify_all"),
    "classify.enumerate_case1": ("lieconformal.classify", "enumerate_case1"),
    "classify.enumerate_case2": ("lieconformal.classify", "enumerate_case2"),
    "classify.eliminate_parabolic": ("lieconformal.classify", "eliminate_parabolic"),
    "isotropy.derive_isotropy": ("lieconformal.isotropy", "derive_isotropy"),
    "isotropy.validate": ("lieconformal.isotropy", "validate"),
    "isotropy.translate_config": ("lieconformal.isotropy", "translate_config"),
    "invform.assemble": ("lieconformal.invform", "assemble"),
    "invform.solve": ("lieconformal.invform", "solve"),
    "invform.verify_invariance": ("lieconformal.invform", "verify_invariance"),
    "linalg.nullspace": ("lieconformal.linalg", "nullspace"),
    "constructions.check_sp_embedding": ("lieconformal.constructions", "check_sp_embedding"),
    "constructions.check_sl_embedding": ("lieconformal.constructions", "check_sl_embedding"),
    "constructions.check_g2_relations": ("lieconformal.constructions", "check_g2_relations"),
    "constructions.align_g2_form": ("lieconformal.constructions", "align_g2_form"),
    "cli.run": ("lieconformal.cli", "run"),
}

# per-layer time metric -> spans whose self time it sums
SELF_TIME = {
    "classify.enumerate_case1_s": ["classify.enumerate_case1"],
    "chevalley.constants_s": ["chevalley.structure_constants"],
    "rootsys.build_s": ["rootsys.build"],
    # the root-combinatorial checks run inline in these two functions
    "classify.root_stage_s": ["classify.eliminate_parabolic", "classify.enumerate_case2"],
    "isotropy.derive_s": ["isotropy.derive_isotropy"],
    "isotropy.validate_s": ["isotropy.validate"],
    "isotropy.translate_s": ["isotropy.translate_config"],
    "invform.assemble_s": ["invform.assemble"],
    "chevalley.bracket_s": ["chevalley.bracket"],
    "invform.verify_invariance_s": ["invform.verify_invariance"],
    "invform.solve_s": ["invform.solve"],
    "linalg.nullspace_s": ["linalg.nullspace"],
    "constructions.check_s": [
        "constructions.check_sp_embedding",
        "constructions.check_sl_embedding",
        "constructions.check_g2_relations",
        "constructions.align_g2_form",
    ],
    "cli.self_s": ["cli.run"],
}

# per-layer count metric -> span whose number of calls it is
CALLS = {
    "chevalley.constants_built": "chevalley.structure_constants",
    "isotropy.derive_calls": "isotropy.derive_isotropy",
    "chevalley.bracket_calls": "chevalley.bracket",
}

STAGES = ("RootCombinatorics", "IsotropyClosure", "SolverFeasibility", "Survivor")

# count metric -> spans its observer reads
OBSERVED = {
    "classify.case1_orbits": ["classify.enumerate_case1"],
    "isotropy.inconsistent_calls": ["isotropy.derive_isotropy"],
    "invform.rows_max": ["invform.assemble"],
    "invform.unknowns_max": ["invform.assemble"],
    "invform.nullspace_dim_max": ["invform.solve"],
    "rootsys.build_calls": ["rootsys.build"],
    "classify.root_prune_ratio": ["classify.classify_all"],
    **{f"classify.stage.{stage}": ["classify.classify_all"] for stage in STAGES},
}

# metrics that must repeat exactly between two traced passes
EXACT = sorted(set(CALLS) | set(OBSERVED))


def _observe(counters: Counter, name: str, result, error) -> None:
    """Counts read at a wrap boundary from the call's result or error."""
    if name == "isotropy.derive_isotropy":
        if type(error).__name__ == "Inconsistent":
            counters["isotropy.inconsistent_calls"] += 1
    elif error is not None:
        return
    elif name == "classify.enumerate_case1":
        counters["classify.case1_orbits"] += len(result)
    elif name == "classify.classify_all":
        for verdict in result.verdicts:
            counters[f"classify.stage.{verdict.stage}"] += 1
        counters["classify.candidates"] += len(result.verdicts)
    elif name == "invform.assemble":
        counters["invform.rows_max"] = max(counters["invform.rows_max"], len(result.rows))
        counters["invform.unknowns_max"] = max(
            counters["invform.unknowns_max"], len(result.unknowns.pairs)
        )
    elif name == "invform.solve":
        counters["invform.nullspace_dim_max"] = max(
            counters["invform.nullspace_dim_max"], result.dimension
        )


# rootsys.build is counted from its cache statistics in `Recorder.uninstall`
OBSERVED_SPANS = {t for spans in OBSERVED.values() for t in spans} - {"rootsys.build"}


class Recorder:
    """In-memory spans of one traced pass; `op` is the id of the current op."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.op = 0
        self._patched: list = []
        self._build = None
        self._build_misses = 0

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock, counters = self.spans, self.stack, time.perf_counter, self.counters
        observe = name in OBSERVED_SPANS

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op)
                if observe:
                    _observe(counters, name, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        targets = {}
        for name, (module_name, attr) in TARGETS.items():
            try:
                targets[name] = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "lieconformal" or key.startswith("lieconformal."))
        ]
        for name, fn in targets.items():
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, fn))
            if name == "rootsys.build" and hasattr(fn, "cache_info"):
                self._build = fn
                self._build_misses = fn.cache_info().misses

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()
        if self._build is not None:
            self.counters["rootsys.build_calls"] = (
                self._build.cache_info().misses - self._build_misses
            )
        elif "rootsys.build" not in self.missing:
            self.missing.append("rootsys.build_calls")

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "missing": self.missing,
                },
                fh,
            )


def summarize(path) -> dict:
    """Per-layer metrics of one dumped pass; None marks a missing metric."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names, spans, counters = data["names"], data["spans"], data["counters"]
    missing = set(data["missing"])
    child_time = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    calls = Counter()
    for idx, (nid, start, end, _, _) in enumerate(spans):
        self_time[names[nid]] += end - start - child_time[idx]
        calls[names[nid]] += 1

    out = {}
    for metric, targets in SELF_TIME.items():
        out[metric] = None if missing & set(targets) else sum(self_time[t] for t in targets)
    for metric, target in CALLS.items():
        out[metric] = None if target in missing else calls[target]
    for metric, targets in OBSERVED.items():
        out[metric] = None if missing & (set(targets) | {metric}) else counters.get(metric, 0)
    if out["classify.root_prune_ratio"] is not None:
        total = counters.get("classify.candidates", 0)
        out["classify.root_prune_ratio"] = (
            counters.get("classify.stage.RootCombinatorics", 0) / total if total else 0.0
        )
    return out
