import sys
from operator import add, sub

import pytest


def vadd(a, b) -> tuple:
    """The sum of two coordinate tuples, entry by entry."""
    return tuple(map(add, a, b))


def vsub(a, b) -> tuple:
    """The difference of two coordinate tuples, entry by entry."""
    return tuple(map(sub, a, b))


def positives(rs) -> tuple:
    """The positive roots of a system as Fraction vectors, by height, then lex."""
    return tuple(rs.roots[i] for i in rs.positive_idx)


def dense_sums(rs) -> tuple:
    """The dense sum table of a root system, as a reference for its sparse
    `sums` rows: entry [i][j] is the index of root i + root j, or -1.  Made
    by tuple addition of the doubled coordinates, with no root key and no
    `sums` row."""
    coords = rs.coords
    index = {c: i for i, c in enumerate(coords)}
    return tuple(tuple(index.get(tuple(map(add, a, b)), -1) for b in coords) for a in coords)


@pytest.fixture(scope="session")
def rank8_survivors():
    """(assembled system, solution) of each of the 37 rank-8 survivors, in
    classify order, recorded from one `classify_all(8)` run."""
    from lieconformal import invform
    from lieconformal.classify import classify_all

    seen = []
    real = invform.solve

    def record(system):
        solution = real(system)
        if solution.feasible:
            seen.append((system, solution))
        return solution

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invform, "solve", record)
        report = classify_all(8)
    assert len(seen) == len(report.survivors) == 37
    return seen


@pytest.fixture(scope="session")
def rank12_solver_systems():
    """The `classify_all(12)` report and the (assembled system, solution) of
    every candidate that reaches the solver, in classify order."""
    from lieconformal import invform
    from lieconformal.classify import classify_all

    seen = []
    real = invform.solve

    def record(system):
        solution = real(system)
        seen.append((system, solution))
        return solution

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invform, "solve", record)
        report = classify_all(12)
    return report, seen


def pytest_terminal_summary(terminalreporter):
    """Print one line per acceptance criterion after capture ends."""
    lines = []
    for name, mod in sys.modules.items():
        if name.endswith("test_acceptance"):
            lines = getattr(mod, "RESULT_LINES", [])
            break
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
