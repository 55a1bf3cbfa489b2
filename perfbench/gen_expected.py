"""Regenerate the pinned correctness data in ``perfbench/data/expected.json``.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/gen_expected.py

The file pins what the benchmark checks every output against: the bytes
and hash of ``classify --max-rank 8 --format json`` with its stage mix,
the exact ``solve`` output for every candidate that classify eliminates
before the solver, the canonical solution of every survivor, and the
``check-examples`` report.  Regenerate it only when the program's
output is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from lieconformal import classify, cli
from lieconformal.chevalley import cached_constants
from lieconformal.invform import assemble, solve, verify_invariance
from lieconformal.rootsys import format_vec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "data" / "expected.json"
WORK = HERE / ".work"

PRE_SOLVER = (classify.STAGE_ROOTS, classify.STAGE_CLOSURE)


def candidate_config(v) -> dict:
    """The ``solve`` config that names one classify candidate."""
    config = {"label": v.label, "rank": v.rank, "case": v.case}
    if v.case == classify.CASE1 or v.label == "A1xA1":
        config["delta"] = format_vec(v.delta)
    elif v.alpha is not None:
        config["alpha"] = format_vec(v.alpha)
    return config


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def main() -> None:
    sys.path.insert(0, str(HERE))
    from worker import survivor_config  # the benchmark rebuilds survivors this way

    env = {k: v for k, v in os.environ.items() if k != "LIE_CONFORMAL_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "lieconformal", "classify", "--max-rank", "8", "--format", "json"],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    report = json.loads(proc.stdout)
    stages = Counter(c["stage"] for c in report["candidates"])

    verdicts = classify.classify_all(8).verdicts
    pool = []
    WORK.mkdir(exist_ok=True)
    path = WORK / "config.json"
    for v in verdicts:
        if v.stage not in PRE_SOLVER:
            continue
        config = candidate_config(v)
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out = run_cli(["solve", str(path)])
        assert code == 0, (config, code)
        pool.append({"config": config, "output": out})

    survivors = []
    for v in verdicts:
        if v.eliminated:
            continue
        entry = candidate_config(v)
        cfg = survivor_config(entry)
        sc = cached_constants(v.label, v.rank)
        sol = solve(assemble(sc, cfg))
        checked = verify_invariance(sc, cfg, sol.nondegenerate_witness)["constraints_checked"]
        entry.update(dimension=sol.dimension, feasible=sol.feasible, constraints_checked=checked)
        survivors.append(entry)

    code, examples = run_cli(["check-examples"])
    assert code == 0

    data = {
        "classify": {
            "argv": ["classify", "--max-rank", "8", "--format", "json"],
            "bytes": len(proc.stdout),
            "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "stages": dict(sorted(stages.items())),
        },
        "solve_pool": pool,
        "survivors": survivors,
        "check_examples": examples,
    }
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT.relative_to(ROOT)}: {len(pool)} pool candidates, {len(survivors)} survivors")


if __name__ == "__main__":
    main()
