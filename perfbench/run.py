"""lieconformal benchmark: one closed-loop client, one child process at a time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it runs the program from ``src`` there.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of the
traced run.  End-to-end times are at a reference speed measured in the
process that does the work (see meter.py), as the host's speed swings.
The line before it records the environment and sample counts.
The exit code is 1 when any output check failed and 2 on bad usage or
when the checkout holds no program.

Workloads (see README.md in this directory for why each exists):
  classify-cold  each op is a fresh ``python -m lieconformal classify --max-rank 8``
  solve-closure  each op is an in-process ``cli.run(["solve", config])``
  audit-warm     independent oracles over the survivors, constants prebuilt
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from worker import CheckFailed, check_classify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
EXPECTED = HERE / "data" / "expected.json"
WORKER = HERE / "worker.py"
METER = HERE / "meter.py"

WORKLOADS = ("classify-cold", "solve-closure", "audit-warm")
# setup_s is the median over fresh processes: at least 3, and on classify-cold
# more (up to 9) until 4 s of set-up has been measured, as its set-up is cheap
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 4.0
CHILD_TIMEOUT = 170.0
RUN_LIMIT = 170.0  # seconds a whole run may take

END_TO_END_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Child:
    """A finished child process with its resource usage."""

    def __init__(self, code, out: bytes, err: str, wall: float, cpu: float, maxrss_kb: int):
        self.code, self.out, self.err = code, out, err
        self.wall, self.cpu, self.maxrss_kb = wall, cpu, maxrss_kb

    def result(self) -> dict:
        """The JSON object a worker prints last; raises if the worker failed."""
        lines = self.out.decode("utf-8", "replace").strip().splitlines()
        if self.code != 0 or not lines:
            raise RuntimeError(f"worker exited {self.code}: {self.err.strip()[-2000:]}")
        return json.loads(lines[-1])


def child_env() -> dict:
    """The caller's environment without LIE_CONFORMAL_* and most PYTHON* settings.

    So the serial path runs (no LIE_CONFORMAL_THREADS), bytecode is cached as
    for an installed package, and stdout is buffered as usual.  The checkout's
    ``src`` goes first on the caller's PYTHONPATH.
    """
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("LIE_CONFORMAL_")
        and (not k.startswith("PYTHON") or k in ("PYTHONPATH", "PYTHONHOME"))
    }
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # exact counts must repeat between processes
    env["TMPDIR"] = str(WORK)
    return env


def run_child(argv: list, timeout: float = CHILD_TIMEOUT) -> Child:
    """Run one child to completion; wall time, CPU and peak RSS come from wait4."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode, out, err_path.read_text("utf-8", "replace"), wall,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
    )


def worker(mode: str, args, *extra) -> Child:
    return run_child([
        sys.executable, str(WORKER), mode, "--workload", args.workload,
        "--seed", str(args.seed), "--work", str(WORK), *extra,
    ])


def calibration_ms() -> float:
    """Fixed Fraction loop; a diagnostic of machine speed, never gated."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 30001):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return (time.perf_counter() - start) * 1000


def p90(values: list) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


# ---------------------------------------------------------------- --trace 0

def measure_classify(args) -> dict:
    """Cold classify processes; the same record a worker's measure mode prints.

    Each runs ``-m lieconformal`` under meter.py, which reports its wall and
    CPU time at the reference speed.
    """
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["classify"]
    stats_path = WORK / "classify-stats.json"
    walls, cpus, raw, chunks, rss, failures = [], [], [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        stats_path.unlink(missing_ok=True)
        child = run_child([
            sys.executable, str(METER), str(stats_path), "-m", "lieconformal", *expected["argv"],
        ])
        # a child killed on timeout writes no stats; it fails its check below
        stats = (
            json.loads(stats_path.read_text(encoding="utf-8")) if stats_path.exists()
            else {"wall_s": child.wall, "cpu_s": child.cpu}
        )
        walls.append(stats["wall_s"])
        cpus.append(stats["cpu_s"])
        raw.append(child.wall)
        chunks.append(stats.get("chunk_ms"))
        rss.append(child.maxrss_kb)
        try:
            if child.code != 0:
                raise CheckFailed(f"exit code {child.code}: {child.err.strip()[-500:]}")
            check_classify(expected, child.out)
        except CheckFailed as exc:
            failures.append(f"classify: {exc}")
    return {
        "pass_walls": walls,
        "pass_cpus": cpus,
        "raw_pass_walls": raw,
        "chunk_ms": chunks,
        "latencies": walls,
        "attempted": len(walls),
        "failures": failures,
        "maxrss_kb": max(rss),
    }


def measure_in_process(args) -> dict:
    """Split --seconds over SETUP_MIN fresh workers; each sets up, then measures.

    Spreading the measured time over several processes samples more of the
    per-process memory layout.
    """
    run = {"setups": [], "pass_walls": [], "pass_cpus": [], "raw_pass_walls": [], "chunk_ms": [],
           "latencies": [], "attempted": 0, "failures": [], "maxrss_kb": 0}
    for part in range(SETUP_MIN):
        res = worker("measure", args, "--part", str(part),
                     "--seconds", str(args.seconds / SETUP_MIN)).result()
        run["setups"].append(res["setup_s"])
        run["chunk_ms"].append(res["chunk_ms"])
        for key in ("pass_walls", "pass_cpus", "raw_pass_walls", "latencies", "failures"):
            run[key] += res[key]
        run["attempted"] += res["attempted"]
        run["maxrss_kb"] = max(run["maxrss_kb"], res["maxrss_kb"])
        run["lieconformal"] = res["lieconformal"]
    return run


def end_to_end(args, info: dict) -> tuple:
    if args.workload == "classify-cold":
        setups = []
        while len(setups) < SETUP_MIN or (
            sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX
        ):
            res = worker("setup", args).result()
            setups.append(res["setup_s"])
            info["lieconformal"] = res["lieconformal"]
        res = measure_classify(args)
    else:
        res = measure_in_process(args)
        setups = res["setups"]
        info["lieconformal"] = res["lieconformal"]
    walls, lat = res["pass_walls"], res["latencies"]
    info["op_samples"], info["passes"] = len(lat), len(walls)
    info["raw_wall_s"] = statistics.median(res["raw_pass_walls"])
    info["chunk_ms"] = res["chunk_ms"]
    metrics = {
        "wall_s": statistics.median(walls),
        "ops_per_s": len(lat) / sum(walls),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": p90(lat) * 1000,
        "cpu_s": statistics.median(res["pass_cpus"]),
        "peak_rss_mb": res["maxrss_kb"] / 1024,
        "setup_s": statistics.median(setups),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return metrics, res["attempted"], res["failures"]


# ---------------------------------------------------------------- --trace 1

def import_times() -> dict:
    """Cumulative import times of sympy and lieconformal from ``-X importtime``."""
    samples = {"sympy": [], "lieconformal": []}
    for _ in range(SETUP_MIN):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import lieconformal"])
        for line in child.err.splitlines():
            if not line.startswith("import time:"):
                continue
            _, cumulative, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if name in samples and cumulative.isdigit():
                samples[name].append(int(cumulative) / 1e6)
    return {
        f"setup.import_{name}_s": statistics.median(v) if v else None
        for name, v in samples.items()
    }


def per_layer(args, info: dict) -> tuple:
    """Two traced passes for the counts and times, one untraced for the overhead."""
    import tracer

    started = time.perf_counter()
    metrics = import_times()
    traced, untraced, files = [], [], []
    if args.workload == "classify-cold":
        attempted, failures = 0, []
        for k in range(3):
            record = k < 2
            # the untraced cold run is skipped when it could overrun the run's time limit
            if not record and time.perf_counter() - started + 1.5 * max(traced) > RUN_LIMIT:
                info["skipped"] = "untraced run: time limit"
                break
            extra = ["--record", str(WORK / f"spans-{k}.json")] if record else []
            res = worker("classify", args, *extra).result()
            (traced if record else untraced).append(res["wall"])
            files += extra[1:]
            attempted += res["attempted"]
            failures += res["failures"]
    else:
        res = worker("trace", args).result()
        traced, untraced, files = res["traced_walls"], res["untraced_walls"], res["span_files"]
        attempted, failures = res["attempted"], res["failures"]
    info["lieconformal"] = res["lieconformal"]

    first, second = (tracer.summarize(f) for f in files)
    for name in tracer.EXACT:
        if first[name] != second[name]:
            failures.append(f"count {name} differs between traced runs: {first[name]} != {second[name]}")
    for name, value in first.items():
        if value is not None and name not in tracer.EXACT:
            value = (value + second[name]) / 2
        metrics[name] = value
    metrics["trace.overhead_frac"] = (
        statistics.mean(traced) / statistics.mean(untraced) - 1 if untraced else None
    )
    info["traced_walls"], info["untraced_walls"] = traced, untraced
    return {k: _metric(k, v) for k, v in metrics.items()}, attempted, failures


def _metric(name: str, value) -> dict:
    if name.endswith("_s"):
        unit = "s"
    elif name.endswith("_frac") or name.endswith("_ratio"):
        unit = "ratio"
    else:
        unit = "count"
    if value is None:
        return {"value": None, "unit": unit, "missing": True}
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- main

def environment() -> dict:
    return {"loadavg": list(os.getloadavg()), "calibration_ms": calibration_ms()}


def main() -> int:
    parser = argparse.ArgumentParser(description="lieconformal benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "lieconformal" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'lieconformal'}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    info = {
        "workload": args.workload,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "before": environment(),
    }
    if args.trace:
        metrics, attempted, failures = per_layer(args, info)
    else:
        metrics, attempted, failures = end_to_end(args, info)
    info["after"] = environment()
    info["failures"] = failures[:20]
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
