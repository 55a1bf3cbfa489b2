import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from lieconformal import classify, constructions
from lieconformal.cli import _build_parser, _emit, run
from lieconformal.errors import ResidualNonzero, Unalignable
from lieconformal.rootsys import vec

DATA = Path(__file__).parent / "data"


def capture(capsys, argv):
    rc = run(argv)
    return rc, capsys.readouterr().out


def test_emit_rejects_what_json_cannot_encode():
    """The JSON edge renders a Fraction as "p/q" and refuses any other type
    json cannot encode instead of printing it."""
    out = io.StringIO()
    _emit({"x": (Fraction(1, 2), Fraction(3))}, out)
    assert out.getvalue() == '{"x":["1/2","3"]}\n'
    with pytest.raises(TypeError):
        _emit({"x": {Fraction(1, 2)}}, io.StringIO())


def test_dump_roots_schema(capsys):
    rc, out = capture(capsys, ["dump-roots", "A", "2"])
    assert rc == 0
    data = json.loads(out)
    assert data["label"] == "A" and data["rank"] == 2
    assert data["simples"] == [["1", "-1", "0"], ["0", "1", "-1"]]
    assert len(data["positives"]) == 3


def test_dump_roots_deterministic(capsys):
    rc1, out1 = capture(capsys, ["dump-roots", "F4", "4"])
    rc2, out2 = capture(capsys, ["dump-roots", "F4", "4"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_dump_roots_bad_rank(capsys):
    rc = run(["dump-roots", "B", "1"])
    capsys.readouterr()
    assert rc == 2


def test_dump_constants_sorted(capsys):
    rc, out = capture(capsys, ["dump-constants", "A", "2"])
    assert rc == 0
    lines = [json.loads(x) for x in out.strip().splitlines()]
    assert all(set(d) == {"alpha", "beta", "n"} for d in lines)
    keys = [(d["alpha"], d["beta"]) for d in lines]
    assert keys == sorted(keys)


def test_classify_json_deterministic(capsys):
    rc1, out1 = capture(capsys, ["classify", "--max-rank", "2", "--format", "json"])
    rc2, out2 = capture(capsys, ["classify", "--max-rank", "2", "--format", "json"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["matches_expected"] is True


def test_classify_table_output(capsys):
    rc, out = capture(capsys, ["classify", "--max-rank", "2"])
    assert rc == 0
    assert "Survivor" in out and "G2" in out


def test_classify_case_filter(capsys):
    rc, out = capture(capsys, ["classify", "--max-rank", "3", "--case", "case2", "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert all(c["case"] == "Case2" for c in data["candidates"])


def test_classify_bad_rank(capsys):
    rc = run(["classify", "--max-rank", "1"])
    capsys.readouterr()
    assert rc == 2


def test_classify_expect_mismatch(tmp_path, capsys):
    bogus = tmp_path / "expect.json"
    bogus.write_text("[]")
    rc = run(["classify", "--max-rank", "2", "--format", "json", "--expect", str(bogus)])
    capsys.readouterr()
    assert rc == 1


def test_classify_full_report_golden(capsys):
    """The whole rank-8 report, every verdict and witness, is byte-stable."""
    rc, out = capture(capsys, ["classify", "--max-rank", "8", "--format", "json"])
    assert rc == 0
    assert out == (DATA / "classify_rank8_full.json").read_text(encoding="utf-8")


CONSTANT_HASHES = json.loads((DATA / "constants_sha256.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("system", sorted(CONSTANT_HASHES))
def test_dump_constants_hashes(capsys, system):
    """dump-constants reproduces the pinned table of every system that
    classify --max-rank 8 builds, and of B12, C12 and D12, including the
    rendering of each n."""
    rc, out = capture(capsys, ["dump-constants", *system.split()])
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CONSTANT_HASHES[system]


ROOT_HASHES = json.loads((DATA / "roots_sha256.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("system", sorted(ROOT_HASHES))
def test_dump_roots_hashes(capsys, system):
    """dump-roots reproduces the pinned simple and positive roots, in order,
    of every system up to rank 16."""
    rc, out = capture(capsys, ["dump-roots", *system.split()])
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ROOT_HASHES[system]


def test_classify_expect_golden(capsys):
    rc = run([
        "classify", "--max-rank", "8", "--format", "json",
        "--expect", str(DATA / "expected_survivors_rank8.json"),
    ])
    capsys.readouterr()
    assert rc == 0


def test_classify_rank12_report_hash(capsys):
    """The rank-12 report, past the rank-8 golden file, is pinned by its hash."""
    rc, out = capture(capsys, ["classify", "--max-rank", "12", "--format", "json"])
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "28a42078bc28355788b420d6cb5288a046fcd565740e5913cc3b6def199d7a55"
    )


def test_classify_rank16_report_hash(capsys):
    """The rank-16 report is pinned by its size and hash."""
    rc, out = capture(capsys, ["classify", "--max-rank", "16", "--format", "json"])
    assert rc == 0
    assert len(out.encode("utf-8")) == 223425
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "15527b2b78c963980d4b6fa3e56cc9d69c790694f92f1eb1e778f1108fda70da"
    )


def test_solve_feasible_config(capsys):
    rc, out = capture(capsys, ["solve", str(DATA / "b3_alpha_e3.json")])
    assert rc == 0
    assert out == (DATA / "b3_alpha_e3_solve.json").read_text(encoding="utf-8")
    data = json.loads(out)
    assert data["feasible"] is True
    assert data["dimension"] == 1
    assert data["witness"] == [["1", "-1", "1"]]
    assert len(data["unknowns"]) == 3


def test_solve_non_integral_basis(capsys):
    """The G2 parabolic basis (-1/2, -1/2, 1) and its witness print as
    "p/q" strings, not JSON numbers."""
    rc, out = capture(capsys, ["solve", str(DATA / "g2_alpha_e1e2.json")])
    assert rc == 0
    assert out == (DATA / "g2_alpha_e1e2_solve.json").read_text(encoding="utf-8")
    data = json.loads(out)
    assert data["feasible"] is True
    assert data["witness"] == [["-1/2", "-1/2", "1"]]
    assert data["nondegenerate_witness"] == ["-3/2", "-3/2", "3"]


def test_solve_case2_config(tmp_path, capsys):
    """The A3 Case2 basis is printed on the pinned scale of the Cartan label."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"label": "A", "rank": 3, "case": "Case2"}))
    rc, out = capture(capsys, ["solve", str(path)])
    assert rc == 0
    data = json.loads(out)
    assert data["unknowns"][0] == ["-1,0,0,1", "cartan"]
    assert data["witness"] == [["2", "1", "1"]]
    assert data["nondegenerate_witness"] == ["6", "3", "3"]


def test_solve_infeasible_config(capsys):
    rc, out = capture(capsys, ["solve", str(DATA / "a2_alpha_e1e2.json")])
    assert rc == 0
    assert out == (DATA / "a2_alpha_e1e2_solve.json").read_text(encoding="utf-8")
    data = json.loads(out)
    assert data["feasible"] is False
    assert data["certificate"]


@pytest.mark.parametrize(
    "name", ["b3_case1_offlattice", "b3_parabolic_offbox", "a3_case2_offbox", "c3_case1_root"]
)
def test_solve_off_lattice_config(capsys, name):
    """A distortion off the root lattice, or with an entry past any sum of
    two roots, is an elimination verdict with a pinned output; so is the
    C3 Case1 root -(e1 + e3), whose closure forces a paired root into the
    kernel."""
    rc, out = capture(capsys, ["solve", str(DATA / f"{name}.json")])
    assert rc == 0
    assert out == (DATA / f"{name}_solve.json").read_text(encoding="utf-8")
    assert json.loads(out)["feasible"] is False


@pytest.mark.parametrize("name", ["a1xa1_borels", "a1_alpha_e1e2"])
def test_solve_low_rank_config(capsys, name):
    """The two LowRank candidates, the product of Borels on A1xA1 and the
    parabolic of A1, are feasible with a one-dimensional solution; the
    output is pinned byte for byte."""
    rc, out = capture(capsys, ["solve", str(DATA / f"{name}.json")])
    assert rc == 0
    assert out == (DATA / f"{name}_solve.json").read_text(encoding="utf-8")
    data = json.loads(out)
    assert data["feasible"] is True and data["dimension"] == 1


CLOSURE_VERDICT = (
    '{"dimension":0,"feasible":false,"inconsistent":"%s","unknowns":[],"witness":[]}\n'
)


@pytest.mark.parametrize("config,rc,out,err", [
    pytest.param(
        {"label": "B", "rank": 3, "case": "Case1", "delta": ["1", "0", "0"]},
        0, CLOSURE_VERDICT % "distortion root must be negative", "", id="case1-positive-root",
    ),
    pytest.param(
        {"label": "B", "rank": 3, "case": "Case2", "delta": ["-1", "0", "0"]},
        0, CLOSURE_VERDICT % "Case2 distortion must be the minimal root", "",
        id="case2-not-minimal",
    ),
    pytest.param(
        {"label": "A", "rank": 3, "case": "Case1", "delta": ["-1", "1", "0", "0"]},
        0, CLOSURE_VERDICT % "no orthogonal pairing partner for the distortion", "",
        id="case1-no-partner",
    ),
    pytest.param(
        {"label": "A1xA1", "rank": 2, "case": "LowRank", "delta": ["1", "-1", "1", "-1"]},
        0, CLOSURE_VERDICT % "product-of-Borels distortion mismatch", "", id="lowrank-mismatch",
    ),
    pytest.param(
        {"label": "B", "rank": 3, "case": "Case1", "delta": ["0", "0", "0"]},
        2, "", "error: distortion functional must be nonzero\n", id="case1-zero",
    ),
])
def test_solve_closure_verdicts(tmp_path, capsys, config, rc, out, err):
    """Each closure elimination that no classify candidate reaches prints its
    pinned verdict, and a zero distortion is an input error."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["solve", str(path)]) == rc
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_solve_missing_file(capsys):
    rc = run(["solve", "/nonexistent/config.json"])
    capsys.readouterr()
    assert rc == 2


def assert_usage_error(rc, captured):
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("config", [
    {"label": "A1xA1", "rank": 2, "case": "Case1", "delta": ["-1", "1", "0", "0"]},
    {"label": "B", "rank": 3, "case": "Case9", "delta": ["-1", "0", "0"]},
    ["not", "an", "object"],
    pytest.param('{"label": "B", "rank": 3, "case": "Case1", "delta": [1e400, 0, 0]}', id="1e400"),
    {"label": "B", "rank": 3, "case": "Parabolic", "alpha": ["0", "1"]},
    {"label": "B", "rank": 3, "case": "Parabolic", "alpha": ["0", "0", "1", "0"]},
    {"label": "B", "rank": 3, "case": "Case1", "delta": ["-1", "0"]},
    pytest.param(
        {"label": "B", "rank": 3, "case": "Case1", "delta": ["1/0", "0", "0"]},
        id="delta-zero-denominator",
    ),
    pytest.param(
        {"label": "B", "rank": 3, "case": "Parabolic", "alpha": ["0", "0", "1/0"]},
        id="alpha-zero-denominator",
    ),
    pytest.param({"label": "B", "rank": 3.7, "case": "Case2"}, id="rank-float"),
    pytest.param({"label": "B", "rank": True, "case": "Case2"}, id="rank-bool"),
    pytest.param({"label": "B", "rank": "3", "case": "Case2"}, id="rank-string"),
    pytest.param({"label": 3, "rank": 3, "case": "Case2"}, id="label-number"),
    pytest.param(
        {"label": "B", "rank": 3, "case": "Case1", "delta": [True, 0, -1]}, id="delta-bool"
    ),
    pytest.param(
        {"label": "B", "rank": 3, "case": "Parabolic", "alpha": "001"}, id="alpha-string"
    ),
    pytest.param({"label": "B", "rank": 300, "case": "Case2"}, id="rank-above-bound"),
    pytest.param(
        {"label": "G2", "rank": 2, "case": "Parabolic", "alpha": ["1", "-1", "0"],
         "delta": ["0", "0", "0"]},
        id="parabolic-alpha-and-delta",
    ),
    pytest.param(
        {"label": "B", "rank": 3, "case": "Case1", "alpha": ["0", "0", "1"],
         "delta": ["-1", "0", "0"]},
        id="case1-alpha-and-delta",
    ),
    pytest.param(
        {"label": "B", "rank": 3, "case": "Case2", "alpha": ["0", "0", "1"]}, id="case2-alpha"
    ),
    pytest.param({"label": "B", "rank": 3, "case": "Case2", "delta": []}, id="delta-empty"),
    pytest.param(
        {"label": "B", "rank": 3, "case": "Case1", "alpha": [], "delta": ["-1", "0", "0"]},
        id="alpha-empty",
    ),
    *(
        pytest.param(
            {"label": "B", "rank": 3, "case": case, key: [entry, "0", "-1"]},
            id=f"{key}-{kind}-entry",
        )
        for key, case in (("delta", "Case1"), ("alpha", "Parabolic"))
        for kind, entry in (("null", None), ("list", ["1"]), ("object", {"p": 1}))
    ),
])
def test_solve_bad_config_is_a_usage_error(tmp_path, capsys, request, config):
    """A reducible Case1 system, an unknown case tag, a non-object config, a
    number too large for a rational, a vector of the wrong length, an entry
    with a zero denominator, a rank or label of the wrong JSON type, a vector
    that is not a list of rationals, a rank above the bound, or an alpha
    beside a delta or outside a Parabolic or LowRank config ends with one
    error line and exit 2, never a traceback or a verdict.  A vector entry
    that is a boolean, null, a list or an object names its key, and an
    empty vector, even one beside a delta, names the dimension."""
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    rc = run(["solve", str(path)])
    captured = capsys.readouterr()
    assert_usage_error(rc, captured)
    key, _, kind = request.node.callspec.id.partition("-")
    if key in ("delta", "alpha") and kind in ("bool", "null-entry", "list-entry", "object-entry"):
        assert captured.err == f"error: {key} must be a list of rationals\n"
    if kind == "empty":
        assert captured.err == "error: expected dimension 3, got 0\n"


@pytest.mark.parametrize("config,message", [
    ({"rank": 3, "case": "Case2"}, "config needs a label"),
    ({"label": "B", "case": "Case2"}, "config needs a rank"),
    ({"label": "B", "rank": 3, "delta": ["-1", "0", "0"]}, "config needs a case"),
    ({"label": "B", "rank": 3, "case": ["x"]}, "case must be a string"),
    ({"label": "B", "rank": 3, "case": None, "delta": ["-1", "0", "0"]}, "case must be a string"),
])
def test_solve_config_names_a_missing_or_bad_key(tmp_path, capsys, config, message):
    """A config without label, rank or case names the key it lacks, and a
    case that is not a string says so, with exit 2."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = run(["solve", str(path)])
    captured = capsys.readouterr()
    assert_usage_error(rc, captured)
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("entry", ["1_0", "0.5", " 1", "1e3", "\u0661"])
def test_solve_entry_outside_the_grammar_is_a_usage_error(tmp_path, capsys, entry):
    """A vector entry string is an optional sign, ASCII digits and an
    optional "/" and digits, on every Python: an underscore (which Python
    3.11's Fraction reads, "1_0" as 10), a decimal point, whitespace, an
    exponent or a non-ASCII digit exits 2 with one line naming the entry."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"label": "B", "rank": 3, "case": "Parabolic",
                                "alpha": ["0", "0", entry]}))
    rc = run(["solve", str(path)])
    captured = capsys.readouterr()
    assert_usage_error(rc, captured)
    assert captured.err == f"error: Invalid literal for Fraction: {entry!r}\n"


@pytest.mark.parametrize("alpha", [["0/7", "-0", "+2/2"], [0, 0.0, 1.0], ["0", "0", "3/3"]])
def test_solve_spellings_of_one_alpha_print_the_same_bytes(tmp_path, capsys, alpha):
    """Every spelling of B3's e3, as strings or JSON numbers, prints the
    pinned verdict of the canonical config byte for byte."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"label": "B", "rank": 3, "case": "Parabolic", "alpha": alpha}))
    rc = run(["solve", str(path)])
    assert rc == 0
    assert capsys.readouterr().out == (DATA / "b3_alpha_e3_solve.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("content", ["[1,2,3]", '"x"', "null", "5"])
def test_solve_config_not_an_object(tmp_path, capsys, content):
    """A config that is JSON but not an object is named as such."""
    path = tmp_path / "config.json"
    path.write_text(content)
    rc = run(["solve", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: config must be a JSON object\n"


B3_LINES = (
    b'{"label": "B",', b' "rank": 3,', b' "case": "Parabolic",', b' "alpha": ["0", "0", "1"]'
)


@pytest.mark.parametrize("content,line", [
    # a syntax error past the first line break: line and column count \r\n as one break
    (b"\r\n".join(B3_LINES) + b",,\r\n}\r\n",
     "Expecting property name enclosed in double quotes: line 4 column 27 (char 75)"),
    # a lone \r is a line break too
    (b"\r".join(B3_LINES) + b" x\r}\r", "Expecting ',' delimiter: line 4 column 27 (char 75)"),
    (b"\xef\xbb\xbf" + b"".join(B3_LINES) + b"}\n",
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (b'{"label": "B",\n "rank": 3, "case": "Parab\xffolic", "alpha": ["0", "0", "1"]}\n',
     "'utf-8' codec can't decode byte 0xff in position 41: invalid start byte"),
    # a raw \r\n inside a string reads as one raw \n, a control character
    (b'{"label": "B",\r\n "rank": 3, "case": "Para\r\nbolic", "alpha": ["0", "0", "1"]}\n',
     "Invalid control character at: line 2 column 26 (char 40)"),
    (b"", "Expecting value: line 1 column 1 (char 0)"),
])
def test_solve_config_bytes_read_as_text(tmp_path, capsys, content, line):
    """A config file is decoded as UTF-8 with \\r\\n and a lone \\r read as
    \\n, so each malformed file names the same line and column as a
    text-mode read does; the error lines are pinned."""
    path = tmp_path / "config.json"
    path.write_bytes(content)
    rc = run(["solve", str(path)])
    assert (rc, capsys.readouterr()) == (2, ("", f"error: {line}\n"))


@pytest.mark.parametrize("sep", [b"\r\n", b"\r"])
def test_solve_config_with_crlf_or_cr_breaks(tmp_path, capsys, sep):
    """A well-formed config with \\r\\n or \\r line breaks solves as the
    pinned b3_alpha_e3 config does."""
    path = tmp_path / "config.json"
    path.write_bytes(sep.join(B3_LINES + (b"}",)) + sep)
    rc, out = capture(capsys, ["solve", str(path)])
    assert rc == 0 and out == (DATA / "b3_alpha_e3_solve.json").read_text()


@pytest.mark.parametrize("argv", [
    ["dump-roots", "B", "300"],
    ["dump-roots", "A", "33"],
    ["dump-constants", "C", "300"],
    ["classify", "--max-rank", "300"],
    ["classify", "--max-rank", "33", "--format", "json"],
])
def test_rank_above_the_bound_is_a_usage_error(capsys, argv):
    """A rank above MAX_RANK is refused before any root table is built."""
    assert_usage_error(run(argv), capsys.readouterr())


@pytest.mark.parametrize("content", [
    b"[1, 2]", b'{"a": 1}', b'"survivors"', b"null", b'[{"label": "A"}]', b"\xff\xfe",
])
def test_classify_expect_bad_shape_is_a_usage_error(tmp_path, capsys, content):
    """An --expect file that is not UTF-8 JSON holding a list of survivor
    objects ends with one error line and exit 2."""
    path = tmp_path / "expect.json"
    path.write_bytes(content)
    rc = run(["classify", "--max-rank", "2", "--format", "json", "--expect", str(path)])
    assert_usage_error(rc, capsys.readouterr())


@pytest.mark.parametrize("path", ["", "/nonexistent/expect.json"])
def test_classify_expect_unreadable_is_a_usage_error(capsys, path):
    """An --expect path that names no readable file, the empty path
    included, ends with one error line and exit 2."""
    rc = run(["classify", "--max-rank", "2", "--expect", path])
    captured = capsys.readouterr()
    assert_usage_error(rc, captured)
    assert captured.err.startswith("error: cannot read expected survivors: ")


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["classify", "--max-rank", "2", "--format", "json", "--expect"],
])
def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys, argv):
    """A JSON file nested deeper than the decoder recurses ends with one
    error line and exit 2, not a RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    rc = run(argv + [str(path)])
    captured = capsys.readouterr()
    assert_usage_error(rc, captured)
    assert "recursion" in captured.err


def test_repeated_runs_in_one_process(capsys):
    """`run` keeps no state between calls: an interleaved sequence of
    subcommands, a usage error among them, gives the same exit code and
    the same bytes on stdout and stderr each time it is replayed."""
    solve = ["solve", str(DATA / "b3_alpha_e3.json")]
    sequence = [
        solve,
        ["classify", "--max-rank", "two"],
        ["classify", "--max-rank", "2", "--format", "json"],
        ["check-examples", "--construction", "g2"],
        solve,
    ]

    def replay():
        results = []
        for argv in sequence:
            rc = run(argv)
            captured = capsys.readouterr()
            results.append((rc, captured.out, captured.err))
        return results

    capsys.readouterr()
    first = replay()
    assert [rc for rc, _, _ in first] == [0, 2, 0, 0, 0]
    assert "invalid int value" in first[1][2]
    assert first[4] == first[0]
    assert replay() == first


@pytest.mark.parametrize("argv", [
    ["--construction", "sl", "--n", "2"],
    ["--construction", "all", "--n", "2"],
    ["--construction", "sp", "--n", "0"],
    ["--trials", "-3"],
    ["--construction", "sl", "--trials", "0"],
    ["--construction", "sp", "--n", "33"],
    ["--construction", "sl", "--n", "33"],
    ["--construction", "all", "--n", "33"],
])
def test_check_examples_bad_input_is_a_usage_error(capsys, argv):
    rc = run(["check-examples", *argv])
    assert_usage_error(rc, capsys.readouterr())


def test_check_examples_g2(capsys):
    rc, out = capture(capsys, ["check-examples", "--construction", "g2"])
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["results"]["g2"]["global_scale"] == "2/3"
    assert data["results"]["g2"]["form_dimension"] == 1


def inconsistent_g2_relations():
    return {"consistent": False, "conflict": "no rescaling witness"}


def unalignable_g2_form(system, coeffs):
    raise Unalignable("vanishing pairing")


@pytest.mark.parametrize("name,fake", [
    ("check_g2_relations", inconsistent_g2_relations),
    ("align_g2_form", unalignable_g2_form),
    # a reference root outside the quotient: align_g2_form cannot index it
    ("G2_REFERENCE_FORM", {(vec(1, -1, 0), vec(1, -1, 0)): Fraction(1)}),
], ids=["relations", "alignment", "reference-root"])
def test_check_examples_g2_failure_exits_1(capsys, monkeypatch, name, fake):
    """A failed G2 check is reported as ok: false with exit code 1, not as
    a traceback or a passing report."""
    monkeypatch.setattr(constructions, name, fake)
    rc, out = capture(capsys, ["check-examples", "--construction", "g2"])
    assert rc == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["results"]["g2"]["ok"] is False


def test_check_examples_embeddings(capsys):
    rc, out = capture(capsys, [
        "check-examples", "--construction", "sp", "--n", "3", "--trials", "10", "--seed", "5",
    ])
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["results"]["sp"]["max_residual"] == "0"


def test_usage_error_exit_code():
    assert run([]) == 2
    assert run(["no-such-command"]) == 2


def reference_run(argv):
    """`run` as one top-level parse_args pass, then the subcommand: the
    oracle that `run`'s direct dispatch to a subcommand's parser must match."""
    parser, _ = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code


CFG = str(DATA / "b3_alpha_e3.json")


@pytest.mark.parametrize("argv", [
    [],
    ["--help"],
    ["-h", "solve"],
    ["no-such-command"],
    ["no-such-command", "solve", CFG],
    ["solve"],
    ["solve", "-h"],
    ["solve", CFG, "--help"],
    ["solve", CFG],
    ["solve", CFG, "extra"],
    ["solve", CFG, "extra", "--more"],
    ["solve", "a", "b"],
    ["--", "solve", CFG],
    ["solve", "--", CFG],
    ["solve", CFG, "--"],
    ["classify", "--max", "2", "--format", "json"],
    ["classify", "--max-rank=2", "--format=json", "--case=case2"],
    ["classify", "--max-rank", "2", "--bogus"],
    ["classify", "-x"],
    ["dump-roots", "A"],
    ["check-examples", "--construction", "g2", "--n"],
])
def test_dispatch_matches_one_top_level_pass(capsys, argv):
    """The direct dispatch gives the exit code and the bytes on stdout and
    stderr that one top-level parse_args pass gives, help and usage errors
    included."""
    got = run(argv), *capsys.readouterr()
    assert got == (reference_run(argv), *capsys.readouterr())


def test_console_script_subprocess():
    """The installed entry point behaves like the in-process runner."""
    out = subprocess.run(
        [sys.executable, "-m", "lieconformal", "dump-roots", "A", "1"],
        capture_output=True, text=True, env=dict(os.environ),
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["label"] == "A"


@pytest.mark.parametrize("name,argv,exc", [
    ("classify_all", ["classify", "--max-rank", "2"], TypeError("bug")),
    ("judge", ["solve", str(DATA / "b3_alpha_e3.json")], ResidualNonzero("bug")),
], ids=["TypeError", "ResidualNonzero"])
def test_a_bug_is_not_a_usage_error(monkeypatch, name, argv, exc):
    """An exception that is not a ValueError is a bug: it leaves `run` with
    its traceback instead of becoming an `error:` line and exit 2."""
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(classify, name, fail)
    with pytest.raises(type(exc)):
        run(argv)


FUZZ_STRINGS = ["", "x", "B", "G2", "A1xA1", "Case1", "Case2", "Parabolic", "1/2", "1/0", "-1"]
FUZZ_KEYS = ["label", "rank", "case", "alpha", "delta", "x"]
SOLVE_CONFIGS = [
    json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    for name in ("a2_alpha_e1e2", "a3_case2_offbox", "b3_alpha_e3", "b3_case1_offlattice",
                 "b3_parabolic_offbox")
]


def random_json(rng, depth=0):
    """A small JSON value of any shape; ints stay small, so that a config
    that happens to be valid names a cheap root system."""
    kind = rng.randrange(7 if depth < 3 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randint(-2, 5)
    if kind == 3:
        return rng.choice(FUZZ_STRINGS)
    if kind == 4:
        return rng.choice([0.5, -3.0, 1e300, float("inf"), float("nan")])
    if kind == 5:
        return [random_json(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {rng.choice(FUZZ_KEYS): random_json(rng, depth + 1) for _ in range(rng.randrange(5))}


def mutated_config(rng):
    """A pinned solve config with up to three keys dropped or redrawn, or
    one vector entry or length changed; some come back unchanged."""
    config = dict(rng.choice(SOLVE_CONFIGS))
    for _ in range(rng.randrange(4)):
        key = rng.choice(FUZZ_KEYS)
        roll = rng.randrange(3)
        if roll == 0:
            config.pop(key, None)
        elif roll == 1:
            config[key] = random_json(rng)
        elif isinstance(config.get(key), list):
            entries = list(config[key])
            if entries and rng.random() < 0.5:
                entries[rng.randrange(len(entries))] = random_json(rng)
            else:
                entries = entries[:-1] if rng.random() < 0.5 else entries + ["0"]
            config[key] = entries
    return config


def solve_text(rng):
    """The text of a solve config: a random JSON value, a mutated pinned
    config, or a mutated config cut short (not JSON at all)."""
    roll = rng.randrange(10)
    if roll < 3:
        return json.dumps(random_json(rng))
    text = json.dumps(mutated_config(rng))
    return text[: rng.randrange(len(text))] if roll == 3 else text


def fuzz_argv(rng, tmp_path, i):
    """One seeded CLI call: a solve config, a dump-* label and rank, or
    classify/check-examples flags, with argparse errors among them."""
    family = rng.choices(["solve", "dump", "classify", "check"], weights=[6, 2, 1, 1])[0]
    if family == "solve":
        path = tmp_path / f"config{i}.json"
        path.write_text(solve_text(rng), encoding="utf-8")
        return ["solve", str(path)]
    if family == "dump":
        argv = [
            rng.choice(["dump-roots", "dump-constants"]),
            rng.choice(["A", "B", "C", "D", "E", "F", "G", "G2", "F4", "E6", "A1xA1", "Q", ""]),
            rng.choice(["-1", "0", "1", "2", "3", "4", "33", "300", "x", "2.5", ""]),
        ]
        return argv[: rng.choice([1, 2, 3, 3, 3, 3])]
    if family == "classify":
        pools = {
            "--max-rank": ["2", "3", "1", "33", "x", ""],
            "--case": ["case1", "case2", "parabolic", "all", "case3"],
            "--format": ["json", "table", "xml"],
            "--expect": [str(DATA / "expected_survivors_rank8.json"), str(tmp_path / "missing")],
        }
        argv = ["classify", "--max-rank", "2"]
    else:
        pools = {
            "--construction": ["sp", "sl", "g2", "all", "so"],
            "--n": ["0", "1", "2", "3", "4", "33", "x"],
            "--trials": ["-1", "0", "1", "3", "x"],
            "--seed": ["0", "7", "-5", "x"],
        }
        argv = ["check-examples", "--trials", "2"]
    for flag in rng.sample(sorted(pools), rng.randrange(len(pools) + 1)):
        argv += [flag, rng.choice(pools[flag])]
    if rng.random() < 0.1:
        argv.append(rng.choice(["--bogus", "extra", "--n"]))
    return argv


def test_cli_fuzz_keeps_the_exit_contract(tmp_path, capsys):
    """A seeded fuzz of 1,000 CLI calls: each returns 0, 1 or 2 with no
    exception escaping `run`, and each exit 2 prints nothing on stdout and
    exactly one `error:` line on stderr.  Every exit code is reached."""
    rng = random.Random(20261020)
    codes = Counter()
    for i in range(1000):
        argv = fuzz_argv(rng, tmp_path, i)
        try:
            rc = run(argv)
        except Exception as exc:  # any escape breaks the contract; name the input
            pytest.fail(f"{argv}: {exc!r} escaped run")
        captured = capsys.readouterr()
        assert rc in (0, 1, 2), argv
        if rc == 2:
            assert_usage_error(rc, captured)
        codes[rc] += 1
    assert set(codes) == {0, 1, 2}
