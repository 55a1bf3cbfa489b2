from fractions import Fraction

import pytest

from lieconformal.errors import InvalidRank, NotARoot
from lieconformal.rootsys import (
    build,
    canonical_pair_rep,
    coroot,
    format_vec,
    minimal_root,
    parse_vec,
    random_weyl_word,
    root_core,
    vadd,
    vdot,
    vec,
    vneg,
    vsub,
    weyl_reflect,
)


def height(rs, r):
    return sum(rs.expansions[r])


def reflect_word(rs, word, v):
    for mirror in word:
        v = weyl_reflect(rs, mirror, v)
    return v


ROOT_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 7): 56,
    ("B", 2): 8, ("B", 3): 18, ("B", 8): 128,
    ("C", 3): 18, ("C", 8): 128,
    ("D", 4): 24, ("D", 8): 112,
    ("G2", 2): 12, ("F4", 4): 48,
    ("E6", 6): 72, ("E7", 7): 126, ("E8", 8): 240,
}


@pytest.mark.parametrize("label,rank", sorted(ROOT_COUNTS))
def test_root_counts(label, rank):
    """Root cardinality matches the classical count for each type."""
    rs = build(label, rank)
    assert len(rs.roots) == ROOT_COUNTS[(label, rank)]
    assert len(rs.positives) == len(rs.roots) // 2
    assert len(rs.simples) == rank


@pytest.mark.parametrize("label,rank", sorted(ROOT_COUNTS))
def test_roots_closed_under_negation(label, rank):
    rs = build(label, rank)
    for r in rs.roots:
        assert vneg(r) in rs.root_set


@pytest.mark.parametrize("label,rank", sorted(ROOT_COUNTS))
def test_minimal_root_property(label, rank):
    """Subtracting any positive root from the minimal root leaves the system."""
    rs = build(label, rank)
    low = minimal_root(rs)
    assert low in rs.root_set
    for p in rs.positives:
        assert vsub(low, p) not in rs.root_set


@pytest.mark.parametrize("label,rank", sorted(ROOT_COUNTS))
def test_expansions_are_integral_and_one_signed(label, rank):
    """Every root is an all-nonnegative or all-nonpositive integer combination of simples."""
    rs = build(label, rank)
    for r in rs.roots:
        coeffs = rs.expansions[r]
        assert all(c.denominator == 1 for c in coeffs)
        signs = {1 if c > 0 else -1 for c in coeffs if c != 0}
        assert len(signs) == 1
        recon = vec(*([0] * rs.dim))
        for c, s in zip(coeffs, rs.simples):
            recon = vadd(recon, tuple(c * x for x in s))
        assert recon == r


def test_positives_sorted_by_height_then_lex():
    rs = build("F4", 4)
    keys = [(height(rs, p), p) for p in rs.positives]
    assert keys == sorted(keys)
    assert rs.positives[:4] == tuple(sorted(rs.simples, reverse=True)[::-1]) or set(
        rs.positives[:4]
    ) == set(rs.simples)


def test_weyl_reflect_permutes_roots():
    rs = build("D", 4)
    for s in rs.simples:
        image = {weyl_reflect(rs, s, r) for r in rs.roots}
        assert image == rs.root_set


def test_reflect_fixes_orthogonal():
    rs = build("B", 3)
    a = vec(1, -1, 0)
    b = vec(0, 0, 1)
    assert weyl_reflect(rs, a, b) == b
    assert weyl_reflect(rs, a, a) == vneg(a)


def test_coroot_values():
    assert coroot(vec(1, -1, 0)) == vec(1, -1, 0)
    assert coroot(vec(0, 0, 1)) == vec(0, 0, 2)
    assert vdot(coroot(vec(2, 0)), vec(2, 0)) == 2


def test_is_root_and_errors():
    rs = build("B", 2)
    assert vec(1, 1) in rs.root_set
    assert vec(2, 0) not in rs.root_set
    with pytest.raises(NotARoot):
        weyl_reflect(rs, vec(2, 0), vec(1, 1))
    with pytest.raises(NotARoot):
        canonical_pair_rep(rs, (vec(2, 0), vec(1, 1)))


def test_invalid_rank():
    with pytest.raises(InvalidRank):
        build("B", 1)
    with pytest.raises(InvalidRank):
        build("E8", 7)
    with pytest.raises(InvalidRank):
        build("Z", 3)


def test_g2_simple_roots():
    rs = build("G2", 2)
    assert rs.simples == (vec(1, -1, 0), vec(-2, 1, 1))
    assert all(sum(r) == 0 for r in rs.roots)


def test_canonical_pair_rep_is_orbit_invariant():
    """Every pair in a diagonal Weyl orbit maps to the same representative."""
    import random

    rng = random.Random(7)
    rs = build("C", 3)
    pair = (vec(1, 1, 0), vec(1, -1, 0))
    rep = canonical_pair_rep(rs, pair)
    for _ in range(25):
        word = random_weyl_word(rs, rng, rng.randint(1, 8))
        moved = tuple(reflect_word(rs, word, r) for r in pair)
        assert canonical_pair_rep(rs, moved) == rep


def test_f4_displayed_pairs_share_one_orbit():
    """Both classical F4 candidate pairs reduce to the same canonical pair."""
    rs = build("F4", 4)
    h = Fraction(1, 2)
    p1 = (vec(1, 0, 0, 0), vec(0, 1, 0, 0))
    p2 = ((h, h, -h, -h), (h, h, h, h))
    assert canonical_pair_rep(rs, p1) == canonical_pair_rep(rs, p2)


def test_parse_format_roundtrip():
    v = (Fraction(1, 2), Fraction(-3), Fraction(0))
    assert parse_vec(format_vec(v)) == v
    assert format_vec(v) == ["1/2", "-3", "0"]


# every system that classify --max-rank 8 builds
CLASSIFY_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8), ("A1xA1", 2)]
)


@pytest.mark.parametrize("label,rank", CLASSIFY_SYSTEMS)
def test_root_core_matches_vector_ops(label, rank):
    """The integer tables agree with vadd / vneg / weyl_reflect on vectors."""
    rs = build(label, rank)
    core = root_core(rs)
    index = {r: i for i, r in enumerate(rs.roots)}
    assert core.index == index
    assert [rs.roots[i] for i in core.positives] == list(rs.positives)
    assert [rs.roots[i] for i in core.simples] == list(rs.simples)
    for i, r in enumerate(rs.roots):
        assert rs.roots[core.neg[i]] == vneg(r)
        assert core.norm[i] == 4 * vdot(r, r)
        assert core.height[i] == height(rs, r)
        assert core.expansions[i] == rs.expansions[r]
        assert bool(core.is_positive[i]) == (r in rs.positives)
        assert [core.add[i][j] for j in range(len(rs.roots))] == [
            index.get(vadd(r, s), -1) for s in rs.roots
        ]
        for k, mirror in enumerate(rs.simples):
            assert rs.roots[core.refl[k][i]] == weyl_reflect(rs, mirror, r)
