"""Child process of the benchmark: set-up, closed-loop passes and traced passes.

`run.py` starts this file in a fresh interpreter, one child at a time,
with ``PYTHONPATH`` pointing at the checkout's ``src``.  The child prints
one JSON object as the last line of its standard output.

Modes:
  setup     import lieconformal, make the inputs, fill the caches; report the time
  measure   set up, then run whole passes of the seeded op list for --seconds
  trace     set up, then run one pass traced twice and once untraced
  classify  one ``cli.run(classify ...)`` in this cold process, traced with --record
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

from meter import Meter

# every time a worker reports is at the reference speed (see meter.py);
# main() starts the meter before anything of the program is imported
METER = Meter()

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "data" / "expected.json"

# solve-closure draw: every pre-solver candidate of rank <= 5, plus every
# Case1/Case2 candidate.  The rank 6-8 parabolic closures are ~90% of a full
# pool pass (~96 s); classify-cold runs them, and leaving them out keeps a pass
# near 3 s so a run holds several passes of one fixed composition.
SOLVE_MAX_RANK = 5
# audit-warm: re-solve every survivor of rank <= 5, verify_invariance on every
# survivor of rank <= 4 (C8 alone takes ~15 s), Jacobi blocks on F4/E6/E7.
# E8 is left out: its constants alone would add ~6 s to every set-up.
AUDIT_RESOLVE_MAX_RANK = 5
AUDIT_VERIFY_MAX_RANK = 4
JACOBI_SYSTEMS = (("F4", 4), ("E6", 6), ("E7", 7))
JACOBI_BLOCKS = 4
JACOBI_TRIPLES = 50
# seeded Weyl words have a fixed length, so the seed changes the inputs but not
# the amount of work
WORD_LENGTH = 6


class CheckFailed(Exception):
    """An output of the program differs from the pinned expectation."""


def survivor_config(entry: dict):
    """Validated isotropy config of a survivor named as a `solve` config."""
    from lieconformal import (
        CASE1, CASE2, LOWRANK, PARABOLIC, Distortion, build, derive_isotropy,
        minimal_root, parabolic_distortion, validate,
    )
    from lieconformal.rootsys import parse_vec

    rs = build(entry["label"], entry["rank"])
    case = entry["case"]
    if case in (PARABOLIC, LOWRANK):
        if rs.label == "A1xA1":
            delta = Distortion(parse_vec(entry["delta"]))
        else:
            delta = parabolic_distortion(rs, parse_vec(entry["alpha"]))
        config = derive_isotropy(rs, delta, PARABOLIC)
    elif case == CASE2:
        low = minimal_root(rs)
        config = derive_isotropy(rs, Distortion(low, as_root=low), CASE2)
    else:
        d = parse_vec(entry["delta"])
        config = derive_isotropy(rs, Distortion(d, as_root=d), CASE1)
    if not validate(config).ok:
        raise CheckFailed(f"survivor {entry} does not validate")
    return config


def _cli(argv) -> tuple[int, str]:
    from lieconformal import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _spell(value: str, rng: random.Random) -> str:
    """An equivalent spelling of a rational, so inputs vary with the seed."""
    f = Fraction(value)
    k = rng.choice((1, 1, 2, 3))
    if k == 1:
        return str(f) if rng.random() < 0.5 else f"{f.numerator}/{f.denominator}"
    return f"{f.numerator * k}/{f.denominator * k}"


# ---------------------------------------------------------------- solve-closure

class SolveClosure:
    def __init__(self, data: dict, work: Path):
        from lieconformal import build

        self.draw = [
            e for e in data["solve_pool"]
            if e["config"]["rank"] <= SOLVE_MAX_RANK or e["config"]["case"] != "Parabolic"
        ]
        for key in sorted({(e["config"]["label"], e["config"]["rank"]) for e in self.draw}):
            build(*key)
        self.dir = work / "solve"
        self.dir.mkdir(parents=True, exist_ok=True)

    def make_pass(self, rng: random.Random) -> list:
        """Write this pass's config files; return the ops in seeded order."""
        order = list(self.draw)
        rng.shuffle(order)
        ops = []
        for k, entry in enumerate(order):
            config = dict(entry["config"])
            for key in ("alpha", "delta"):
                if key in config:
                    config[key] = [_spell(x, rng) for x in config[key]]
            items = list(config.items())
            rng.shuffle(items)
            path = self.dir / f"{k}.json"
            path.write_text(json.dumps(dict(items)), encoding="utf-8")
            name = "solve {label}{rank} {case}".format(**entry["config"])
            ops.append((name, partial(self.op, str(path), entry["output"])))
        return ops

    @staticmethod
    def op(path: str, expected: str) -> None:
        code, out = _cli(["solve", path])
        if code != 0 or out != expected:
            raise CheckFailed(f"exit {code}, output {out[:120]!r}")


# ---------------------------------------------------------------- audit-warm

class AuditWarm:
    def __init__(self, data: dict, work: Path):
        from lieconformal import build, cached_constants, elem_e, elem_h
        from lieconformal.rootsys import coroot

        self.survivors = [
            (entry, survivor_config(entry), cached_constants(entry["label"], entry["rank"]))
            for entry in data["survivors"]
            if entry["rank"] <= AUDIT_RESOLVE_MAX_RANK
        ]
        self.jacobi = []
        for label, rank in JACOBI_SYSTEMS:
            sc = cached_constants(label, rank)
            rs = build(label, rank)
            elems = [elem_h(rs, coroot(s)) for s in rs.simples]
            elems += [elem_e(rs, r) for r in rs.roots]
            self.jacobi.append((label, sc, elems))
        self.examples = data["check_examples"]

    def make_pass(self, rng: random.Random) -> list:
        from lieconformal.rootsys import random_weyl_word

        ops = []
        for entry, config, sc in self.survivors:
            system = f"{entry['label']}{entry['rank']} {entry['case']}"
            word = random_weyl_word(config.system, rng, WORD_LENGTH)
            ops.append((f"resolve {system}", partial(self.resolve, entry, config, sc, word)))
            if entry["rank"] <= AUDIT_VERIFY_MAX_RANK:
                word = random_weyl_word(config.system, rng, WORD_LENGTH)
                ops.append((f"verify {system}", partial(self.verify, entry, config, sc, word)))
        for label, sc, elems in self.jacobi:
            for _ in range(JACOBI_BLOCKS):
                triples = [
                    tuple(rng.randrange(len(elems)) for _ in range(3))
                    for _ in range(JACOBI_TRIPLES)
                ]
                ops.append((f"jacobi {label}", partial(self.jacobi_block, sc, elems, triples)))
        seed = rng.randrange(10**6)
        ops.append(("check-examples", partial(self.check_examples, seed)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _moved_solution(entry, config, sc, word):
        from lieconformal import assemble, solve
        from lieconformal.isotropy import translate_config

        moved = translate_config(config, word)
        solution = solve(assemble(sc, moved))
        if (solution.dimension, solution.feasible) != (entry["dimension"], entry["feasible"]):
            raise CheckFailed(
                f"translated solve gives dimension {solution.dimension}, "
                f"feasible {solution.feasible}"
            )
        return moved, solution

    def resolve(self, entry, config, sc, word) -> None:
        self._moved_solution(entry, config, sc, word)

    def verify(self, entry, config, sc, word) -> None:
        from lieconformal import verify_invariance

        moved, solution = self._moved_solution(entry, config, sc, word)
        report = verify_invariance(sc, moved, solution.nondegenerate_witness)
        if report["max_residual"] != 0 or report["constraints_checked"] != entry["constraints_checked"]:
            raise CheckFailed(f"verify_invariance reports {report}")

    @staticmethod
    def jacobi_block(sc, elems, triples) -> None:
        from lieconformal import bracket

        for i, j, k in triples:
            x, y, z = elems[i], elems[j], elems[k]
            total = bracket(sc, x, bracket(sc, y, z))
            total = total.add(bracket(sc, y, bracket(sc, z, x)))
            total = total.add(bracket(sc, z, bracket(sc, x, y)))
            if not total.is_zero():
                raise CheckFailed(f"Jacobi identity fails on elements {i}, {j}, {k}")

    def check_examples(self, seed: int) -> None:
        code, out = _cli(["check-examples", "--seed", str(seed)])
        if code != 0 or out != self.examples:
            raise CheckFailed(f"exit {code}, output {out[:120]!r}")


WORKLOADS = {"solve-closure": SolveClosure, "audit-warm": AuditWarm}


# ---------------------------------------------------------------- loops

def run_pass(ops: list, failures: list, latencies: list | None = None):
    """Run ops back to back (one closed-loop client); return the pass's Interval."""
    start = METER.mark()
    for name, fn in ops:
        mark = METER.mark()
        try:
            fn()
        except Exception as exc:  # a failed check is a failed op, never a crash
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
        if latencies is not None:
            latencies.append(METER.since(mark).wall)
    return METER.since(start)


def setup(workload: str, work: Path):
    start = METER.mark()
    import lieconformal

    state = None
    if workload in WORKLOADS:
        import lieconformal.cli  # noqa: F401  (the ops' entry point)

        data = json.loads(EXPECTED.read_text(encoding="utf-8"))
        state = WORKLOADS[workload](data, work)
    return state, METER.since(start).wall, lieconformal.__file__


def measure(state, rng: random.Random, seconds: float) -> dict:
    latencies, passes, failures = [], [], []
    start = time.perf_counter()
    # whole passes; the run ends at the pass boundary nearest to `seconds`
    while not passes or time.perf_counter() - start + passes[-1].raw_wall / 2 < seconds:
        ops = state.make_pass(rng)
        passes.append(run_pass(ops, failures, latencies))
    return {
        "pass_walls": [p.wall for p in passes],
        "pass_cpus": [p.cpu for p in passes],
        "raw_pass_walls": [p.raw_wall for p in passes],
        "latencies": latencies,
        "attempted": len(latencies),
        "failures": failures,
    }


def trace(state, rng: random.Random, work: Path) -> dict:
    from tracer import Recorder

    ops = state.make_pass(rng)
    failures, traced, untraced, files = [], [], [], []
    for k, record in enumerate((True, True, False)):
        if not record:
            untraced.append(run_pass(ops, failures).wall)
            continue
        recorder = Recorder()
        recorder.install()
        try:
            traced.append(run_pass(_with_op_ids(ops, recorder), failures).wall)
        finally:
            recorder.uninstall()
        path = work / f"spans-{k}.json"
        recorder.dump(path)
        files.append(str(path))
    return {
        "traced_walls": traced,
        "untraced_walls": untraced,
        "span_files": files,
        "attempted": 3 * len(ops),
        "failures": failures,
    }


def _with_op_ids(ops: list, recorder) -> list:
    def tagged(op_id, fn):
        recorder.op = op_id
        fn()

    return [(name, partial(tagged, k, fn)) for k, (name, fn) in enumerate(ops)]


def classify_once(expected: dict, span_path: str | None) -> dict:
    """One cold classify through cli.run, checked against the pinned output."""
    recorder = None
    if span_path:
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()
    start = METER.mark()
    try:
        code, out = _cli(expected["argv"])
    finally:
        wall = METER.since(start).wall
        if recorder is not None:
            recorder.uninstall()
            recorder.dump(span_path)
    failures = []
    try:
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        check_classify(expected, out.encode("utf-8"))
    except CheckFailed as exc:
        failures.append(f"classify: {exc}")
    return {"wall": wall, "attempted": 1, "failures": failures}


def check_classify(expected: dict, out: bytes) -> None:
    """Raise CheckFailed unless ``out`` is the pinned classify report."""
    if len(out) != expected["bytes"] or hashlib.sha256(out).hexdigest() != expected["sha256"]:
        raise CheckFailed(f"output is {len(out)} bytes with another sha256")
    stages = Counter(c["stage"] for c in json.loads(out)["candidates"])
    if dict(stages) != expected["stages"]:
        raise CheckFailed(f"stage mix {dict(stages)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "trace", "classify"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--part", type=int, default=0, help="index of this worker in a run")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--record", default=None, help="span file for the classify mode")
    args = parser.parse_args()
    work = Path(args.work)
    METER.start()

    if args.mode == "classify":
        import lieconformal.cli  # the import stays outside the timed call

        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["classify"]
        result = classify_once(expected, args.record)
        result["lieconformal"] = lieconformal.__file__
    else:
        state, setup_s, location = setup(args.workload, work)
        result = {"setup_s": setup_s, "lieconformal": location}
        rng = random.Random(f"{args.seed}:{args.part}")
        if args.mode == "measure":
            result.update(measure(state, rng, args.seconds))
        elif args.mode == "trace":
            result.update(trace(state, rng, work))
    METER.stop()
    result["chunk_ms"] = METER.chunk_ms()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
