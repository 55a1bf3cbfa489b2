from collections import Counter

import pytest

from lieconformal.classify import (
    STAGE_ROOTS,
    _systems,
    classify_all,
    enumerate_case1,
    enumerate_case2,
    expected_survivors,
    judge,
)
from lieconformal.errors import Reducible
from lieconformal.isotropy import Distortion
from lieconformal.rootsys import build, dot, pair_orbit, vec
from conftest import dense_sums
from test_rootsys import CLASSIFY_SYSTEMS


def vector_pairs(rs, pairs):
    """Index pairs of `enumerate_case1` as pairs of root vectors."""
    return [(rs.roots[m], rs.roots[a]) for m, a in pairs]


def test_case1_pair_enumeration_bn():
    """B_n reduces to the single constrained pair (e1, e2)."""
    for n in (2, 3, 5, 8):
        rs = build("B", n)
        pairs = vector_pairs(rs, enumerate_case1(rs))
        assert pairs == [(vec(*([1, 0] + [0] * (n - 2))), vec(*([0, 1] + [0] * (n - 2))))]


def test_case1_pair_enumeration_cn():
    """C_n reduces to the single constrained pair (e1+e2, e1-e2)."""
    for n in (3, 5, 8):
        rs = build("C", n)
        pairs = vector_pairs(rs, enumerate_case1(rs))
        assert pairs == [(vec(*([1, 1] + [0] * (n - 2))), vec(*([1, -1] + [0] * (n - 2))))]


def test_case1_pair_enumeration_f4_single_orbit():
    """All constrained F4 pairs collapse to one orbit represented by (e1, e2)."""
    rs = build("F4", 4)
    pairs = vector_pairs(rs, enumerate_case1(rs))
    assert pairs == [(vec(1, 0, 0, 0), vec(0, 1, 0, 0))]


@pytest.mark.parametrize("label,rank", [
    ("A", 3), ("A", 8), ("D", 4), ("D", 8),
    ("E6", 6), ("E7", 7), ("E8", 8), ("G2", 2),
])
def test_case1_pair_enumeration_empty(label, rank):
    """Simply-laced and G2 systems admit no orthogonal summing pair."""
    assert enumerate_case1(build(label, rank)) == []


@pytest.mark.parametrize(
    "label,rank",
    [s for s in CLASSIFY_SYSTEMS if s[0] != "A1xA1"]
    + [(label, rank) for label in "BCD" for rank in (12, 16)],
)
def test_case1_orbits_partition_constrained_pairs(label, rank):
    """Each representative is the max of its orbit, each orbit is closed
    under every simple reflection, and the orbits partition the constrained
    pairs, found by a scan of every root pair: m + a a root and m
    orthogonal to a."""
    rs = build(label, rank)
    constrained = {
        (m, a)
        for m, row in enumerate(dense_sums(rs))
        for a, total in enumerate(row)
        if total >= 0 and dot(rs.coords[m], rs.coords[a]) == 0
    }
    covered = set()
    for rep in enumerate_case1(rs):
        orbit = pair_orbit(rs, rep)
        assert rep == max(orbit)
        assert all((perm[m], perm[a]) in orbit for perm in rs.refl for m, a in orbit)
        assert not covered & orbit
        covered |= orbit
    assert covered == constrained


def steinberg_case1(rs):
    """The Case1 pair orbit representatives without `pair_orbit` or `refl`.
    The greatest root m of a length is dominant, so by Steinberg's theorem
    its stabilizer in W is the Weyl group of the roots orthogonal to m,
    which is transitive on the roots of each length in each irreducible
    component of that subsystem; such a class of roots a, with m + a a
    root, is one orbit, and its greatest root is the representative."""
    coords = rs.coords
    roots = set(coords)
    reps = []
    for n in set(rs.norm):
        m = max(i for i, x in enumerate(rs.norm) if x == n)
        perp = [a for a in range(len(coords)) if dot(coords[m], coords[a]) == 0]
        component = {}
        for a in perp:  # flood the non-orthogonality graph of m-perp
            if a in component:
                continue
            component[a], stack = a, [a]
            while stack:
                b = stack.pop()
                for c in perp:
                    if c not in component and dot(coords[b], coords[c]) != 0:
                        component[c] = a
                        stack.append(c)
        best = {}
        for a in perp:
            if tuple(x + y for x, y in zip(coords[m], coords[a])) in roots:
                cls = (component[a], rs.norm[a])
                best[cls] = max(best.get(cls, a), a)
        reps += [(m, a) for a in best.values()]
    return sorted(reps, reverse=True)


@pytest.mark.parametrize(
    "label,rank", [(rs.label, rs.rank) for rs in _systems(16) if rs.label != "A1xA1"]
)
def test_case1_orbits_from_steinberg(label, rank):
    """`enumerate_case1` agrees with the orbits that Steinberg's theorem gives."""
    rs = build(label, rank)
    assert enumerate_case1(rs) == steinberg_case1(rs)


def test_case1_reducible_rejected():
    """Neither Case1 nor Case2 is enumerated on the reducible A1xA1."""
    with pytest.raises(Reducible):
        enumerate_case1(build("A1xA1", 2))
    with pytest.raises(Reducible):
        enumerate_case2(build("A1xA1", 2))


def test_case2_candidate_only_when_cartan_room():
    assert enumerate_case2(build("A", 3)) is not None
    assert enumerate_case2(build("B", 3)) is None
    assert enumerate_case2(build("G2", 2)) is None
    assert enumerate_case2(build("E8", 8)) is None


def test_parabolic_candidates_one_per_simple():
    rs = build("F4", 4)
    verdicts = [v for v in classify_all(4, cases="parabolic").verdicts if v.label == "F4"]
    assert sorted(v.alpha for v in verdicts) == sorted(rs.simples)


def test_classify_rank4_matches_expected():
    report = classify_all(4)
    assert report.matches_expected
    got = {v.survivor_key() for v in report.survivors}
    assert got == {v_key for v_key in _keys(expected_survivors(4))}


def _keys(expected):
    return {(label, rank, case, alpha, delta, name) for label, rank, case, alpha, delta, name in expected}


def test_classify_monotone_in_rank():
    """Survivors at max_rank 3 are a subset of survivors at max_rank 5."""
    small = {v.survivor_key() for v in classify_all(3).survivors}
    large = {v.survivor_key() for v in classify_all(5).survivors}
    assert small <= large


def test_classify_cases_filter():
    report = classify_all(4, cases="case1")
    assert all(v.case == "Case1" for v in report.verdicts)
    assert {(v.label, v.rank) for v in report.survivors} == {("B", 2), ("C", 2), ("C", 3), ("C", 4)}


def test_classify_invalid_rank():
    with pytest.raises(ValueError):
        classify_all(1)


@pytest.mark.parametrize("cases", ["Parabolic", "case3", "Case1", ""])
def test_unknown_case_filter_raises(cases):
    """A filter must be one of the `--case` names: the case tag "Parabolic"
    is not one, so it selects nothing rather than matching vacuously."""
    with pytest.raises(ValueError, match="unknown case filter"):
        classify_all(3, cases)
    with pytest.raises(ValueError, match="unknown case filter"):
        expected_survivors(3, cases)


def test_root_stage_is_a_sound_shortcut():
    """Every candidate that the root stage eliminates up to rank 16 (an
    unpaired root outside a parabolic kernel, or Case2 coroots that fill
    the Cartan) has no feasible form when judged in full."""
    roots_stage = [v for v in classify_all(16).verdicts if v.stage == STAGE_ROOTS]
    assert len(roots_stage) == 577
    for v in roots_stage:
        _, _, solution = judge(build(v.label, v.rank), Distortion(v.delta), v.case)
        assert solution is None or not solution.feasible, v


def test_verdicts_cover_all_stages():
    report = classify_all(4)
    stages = {v.stage for v in report.verdicts}
    assert {"IsotropyClosure", "SolverFeasibility", "Survivor"} <= stages
    for v in report.verdicts:
        assert v.eliminated == (v.stage != "Survivor")
        if v.eliminated:
            assert v.witness is not None


def test_survivors_have_positive_dimension():
    report = classify_all(4)
    for v in report.survivors:
        assert v.solution_dimension == 1


def test_classify_rank8_matches_expected():
    report = classify_all(8)
    assert report.matches_expected
    assert len(report.survivors) == 37
    assert len(report.verdicts) == 215


def test_max_rank_bounds_exceptional_systems():
    """Exceptional systems are judged only when their rank is within max_rank.
    The systems are built series by series from each least rank, then G2,
    F4, E6, E7, E8 and A1xA1: the classify order that fixtures record."""
    report = classify_all(2)
    systems = {(v.label, v.rank) for v in report.verdicts}
    assert systems == {("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G2", 2), ("A1xA1", 2)}
    assert report.matches_expected
    assert [(rs.label, rs.rank) for rs in _systems(8)] == [
        *[("A", n) for n in range(1, 9)],
        *[("B", n) for n in range(2, 9)],
        *[("C", n) for n in range(2, 9)],
        *[("D", n) for n in range(3, 9)],
        ("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8), ("A1xA1", 2),
    ]


def test_classify_rank12_stress(rank12_solver_systems):
    """Past the rank-8 contract, the closed-form survivor table still holds
    and the stage mix keeps its shape (B/C/D 9-12 are built only here)."""
    report, _ = rank12_solver_systems
    assert report.matches_expected
    assert len(report.verdicts) == 407
    assert Counter(v.stage for v in report.verdicts) == {
        "RootCombinatorics": 341,
        "IsotropyClosure": 11,
        "SolverFeasibility": 2,
        "Survivor": 53,
    }
