"""Command-line front door.

Subcommands: classify, solve, check-examples, dump-roots, dump-constants.
All reports are deterministic UTF-8 JSON (or a plain text table), with
rationals rendered as "p/q" strings.  Exit codes: 0 on success/match,
1 on mismatch or failed check, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from . import classify as classify_mod
from . import constructions, isotropy
from .chevalley import cached_constants
from .errors import Unalignable
from .isotropy import CASE2, LOWRANK, PARABOLIC, Distortion
from .rootsys import EXCEPTIONAL_RANK, build, check_dim, doubled, format_vec, halved, minimal_root


def _fraction_str(obj):
    """The JSON edge: a Fraction becomes its "p/q" string; any other type
    json cannot encode is a TypeError, never silently printed."""
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_fraction_str)


def _emit(payload, stream=None):
    (stream or sys.stdout).write(_ENCODER.encode(payload) + "\n")


def _verdict_dict(v) -> dict:
    return {
        "label": v.label,
        "rank": v.rank,
        "case": v.case,
        "delta": v.delta,
        "alpha": v.alpha,
        "verdict": "eliminated" if v.eliminated else "survivor",
        "stage": v.stage,
        "witness": v.witness,
        "survivor_label": v.survivor_label,
        "notes": list(v.notes),
        "solution_dimension": v.solution_dimension,
    }


def _survivor_key_dict(key) -> dict:
    label, rank, case, alpha, delta, tag = key
    return {
        "label": label,
        "rank": rank,
        "case": case,
        "alpha": format_vec(alpha) if alpha is not None else None,
        "delta": format_vec(delta) if delta is not None else None,
        "survivor_label": tag,
    }


def _survivor_sort_key(d):
    return (d["label"], d["rank"], d["case"], d["alpha"] or [], d["delta"] or [])


def _read_json(path, context=""):
    """The JSON value in the file at `path`; ValueError, its message led by
    `context`, if the file is unreadable, not UTF-8 JSON or nested too deep."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        # read as text mode would: \r\n and a lone \r become \n
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{context}{exc}") from None


def _read_expected(path) -> list:
    """The survivor objects of an --expect file, sorted; ValueError if the
    file is unreadable or not a list of survivor objects."""
    expected = _read_json(path, "cannot read expected survivors: ")
    try:
        if isinstance(expected, list):
            return sorted(expected, key=_survivor_sort_key)
    except (TypeError, KeyError):
        pass
    raise ValueError("expected survivors must be a list of survivor objects")


def _cmd_classify(args) -> int:
    expected = None if args.expect is None else _read_expected(args.expect)
    report = classify_mod.classify_all(args.max_rank, args.case)
    survivors = sorted(
        (_survivor_key_dict(v.survivor_key()) for v in report.survivors),
        key=_survivor_sort_key,
    )
    match = report.matches_expected if expected is None else expected == survivors
    payload = {
        "max_rank": report.max_rank,
        "cases": report.cases,
        "candidates": [_verdict_dict(v) for v in report.verdicts],
        "survivors": survivors,
        "matches_expected": match,
    }
    if args.format == "json":
        _emit(payload)
    else:
        _print_table(report)
    return 0 if match else 1


def _print_table(report):
    header = f"{'system':8} {'case':10} {'stage':18} {'verdict':10} survivor"
    print(header)
    print("-" * len(header))
    for v in report.verdicts:
        system = f"{v.label}{v.rank}" if v.label not in EXCEPTIONAL_RANK else v.label
        verdict = "eliminated" if v.eliminated else "SURVIVES"
        tag = v.survivor_label or ""
        notes = f" ({', '.join(v.notes)})" if v.notes else ""
        print(f"{system:8} {v.case:10} {v.stage:18} {verdict:10} {tag}{notes}")
    print(f"survivors: {len(report.survivors)}")


def _config_vec(data, key, rs):
    """The doubled coordinates of a config entry `key`, or None when it is
    absent; ValueError unless it is a list of `rs.dim` strings and numbers
    (no boolean, null, list or object entry), an empty list included."""
    entries = data.get(key)
    if entries is None:
        return None
    if not isinstance(entries, list) or any(type(e) not in (str, int, float) for e in entries):
        raise ValueError(f"{key} must be a list of rationals")
    v2 = doubled(entries)
    return v2 if len(v2) == rs.dim else check_dim(rs, v2)  # check_dim raises the length error


def _config_from_json(data):
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    for key in ("label", "rank", "case"):
        if key not in data:
            raise ValueError(f"config needs a {key}")
    label, rank, case = data["label"], data["rank"], data["case"]
    if not isinstance(label, str):
        raise ValueError("label must be a string")
    if type(rank) is not int:
        raise ValueError("rank must be a JSON integer")
    if not isinstance(case, str):
        raise ValueError("case must be a string")
    rs = build(label, rank)
    alpha = _config_vec(data, "alpha", rs)
    dvec = _config_vec(data, "delta", rs)
    if alpha is not None and (dvec is not None or case not in (PARABOLIC, LOWRANK)):
        raise ValueError("alpha needs a Parabolic or LowRank config without a delta")
    if alpha is not None:
        dvec = isotropy.parabolic_d2(rs, alpha)
    elif dvec is None and case != CASE2:
        raise ValueError("config needs a delta or (for parabolic) an alpha")
    return rs, Distortion(minimal_root(rs) if dvec is None else halved(dvec)), case


def _cmd_solve(args) -> int:
    rs, delta, case = _config_from_json(_read_json(args.config))
    witness, system, solution = classify_mod.judge(rs, delta, case)
    if solution is None:
        # an elimination verdict, not an input error
        _emit({"feasible": False, "dimension": 0, "witness": [], "unknowns": [],
               "inconsistent": witness})
        return 0
    labels = system.unknowns.labels
    unknowns = [
        [_label_str(rs, labels[i]), _label_str(rs, labels[j])] for i, j in system.unknowns.pairs
    ]
    _emit(
        {
            "feasible": solution.feasible,
            "dimension": solution.dimension,
            "witness": solution.basis,
            "nondegenerate_witness": solution.nondegenerate_witness,
            "certificate": solution.degeneracy_certificate,
            "unknowns": unknowns,
        }
    )
    return 0


def _label_str(rs, label):
    """A quotient label as printed: the coordinates of its root, or "cartan"."""
    if label == isotropy.CARTAN_LABEL:
        return label
    return ",".join(format_vec(rs.roots[label]))


def _cmd_check_examples(args) -> int:
    results = {}
    if args.construction in ("sp", "all"):
        results["sp"] = constructions.check_sp_embedding(args.n, args.trials, args.seed)
    if args.construction in ("sl", "all"):
        results["sl"] = constructions.check_sl_embedding(args.n, args.trials, args.seed)
    if args.construction in ("g2", "all"):
        results["g2"] = _check_g2()
    ok = all(r.get("ok") for r in results.values())
    _emit({"ok": ok, "results": results})
    return 0 if ok else 1


def _check_g2() -> dict:
    """The solved G2 parabolic form aligned to the reference form, and the
    G2 bracket relations; ok only when both checks pass."""
    rs = build("G2", 2)
    delta = isotropy.parabolic_distortion(rs, rs.simples[0])
    _, system, solution = classify_mod.judge(rs, delta, PARABOLIC)
    out = {"form_dimension": solution.dimension}
    try:
        align = constructions.align_g2_form(system, solution.nondegenerate_witness)
    except Unalignable as exc:  # a verdict, not an input error
        out["alignment"] = str(exc)
    else:
        out["global_scale"] = align["global_scale"]
        out["scalars"] = {",".join(format_vec(k)): v for k, v in align["scalars"].items()}
    relations = constructions.check_g2_relations()
    if relations["consistent"]:
        out["relations_checked"] = relations["relations"]
    else:
        out["conflict"] = relations["conflict"]
    out["ok"] = relations["consistent"] and "alignment" not in out
    return out


def _cmd_dump_roots(args) -> int:
    rs = build(args.label, args.rank)
    _emit(
        {
            "label": rs.label,
            "rank": rs.rank,
            "simples": rs.simples,
            "positives": [rs.roots[i] for i in rs.positive_idx],
        }
    )
    return 0


def _cmd_dump_constants(args) -> int:
    sc = cached_constants(args.label, args.rank)
    roots = sc.system.roots
    # root index order is the lexicographic order of the root vectors
    for x, row in enumerate(sc.table):
        for y, n in enumerate(row):
            if n:
                _emit({"alpha": roots[x], "beta": roots[y], "n": str(n)})
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are input errors like any
    other: a ValueError for `run` to report on one line, with no usage."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and the subcommand parsers by name, built once per
    process; parsing leaves them unchanged, so `run` may be called again."""
    parser = _Parser(
        prog="lieconformal",
        description="Exact classification of essential conformal homogeneous structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run the exhaustive candidate search")
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--case", choices=classify_mod.CASE_FILTERS, default="all")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--expect", default=None, help="path to an expected-survivors JSON file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="solve the invariant-form system for one config")
    p.add_argument("config", help="path to an isotropy config JSON file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check-examples", help="verify the explicit constructions")
    p.add_argument("--construction", choices=("sp", "sl", "g2", "all"), default="all")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_examples)

    p = sub.add_parser("dump-roots", help="serialize a root system as JSON")
    p.add_argument("label")
    p.add_argument("rank", type=int)
    p.set_defaults(func=_cmd_dump_roots)

    p = sub.add_parser("dump-constants", help="emit the structure-constant table as JSON lines")
    p.add_argument("label")
    p.add_argument("rank", type=int)
    p.set_defaults(func=_cmd_dump_constants)
    return parser, sub.choices


def run(argv=None) -> int:
    """Run one subcommand and return its exit code.  The parser of the
    subcommand that argv[0] names parses the rest; only an argv that names
    none meets the top-level parser.  Help and usage errors are argparse's
    own, byte for byte.  This is the one place where bad input becomes exit
    2: every input error, argparse's included, is a ValueError and prints
    one `error:` line; any other exception is a bug and keeps its traceback."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:])
            if extra:  # reported under the top-level prog, as parse_args does
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help, after printing the help
        return exc.code


def main() -> None:
    sys.exit(run())
