from fractions import Fraction

from lieconformal.linalg import det, nullspace, rref


def fr(*xs):
    return tuple(Fraction(x) for x in xs)


def test_rref_identity():
    """rref of an invertible matrix is the identity."""
    reduced, pivots = rref([fr(2, 1), fr(1, 3)], 2)
    assert reduced == [fr(1, 0), fr(0, 1)]
    assert pivots == [0, 1]


def test_rref_keeps_exact_fractions():
    reduced, _ = rref([fr("1/2", "1/3"), fr("1/5", "1/7")], 2)
    assert all(isinstance(x, Fraction) for row in reduced for x in row)
    assert reduced == [fr(1, 0), fr(0, 1)]


def test_rref_drops_dependent_rows():
    reduced, pivots = rref([fr(1, 2), fr(2, 4), fr(3, 6)], 2)
    assert reduced == [fr(1, 2)]
    assert pivots == [0]


def test_rank_and_det():
    m = [fr(1, 2, 3), fr(4, 5, 6), fr(7, 8, 9)]
    assert len(rref(m, 3)[0]) == 2
    assert det(m) == 0
    assert det([fr(1, 2), fr(3, 4)]) == Fraction(-2)
    assert det([fr("1/2", 0), fr(5, "2/3")]) == Fraction(1, 3)


def test_nullspace_basis():
    """Kernel vectors satisfy Mv = 0 and span the right dimension."""
    m = [fr(1, 2, 3), fr(2, 4, 6)]
    basis = nullspace(m, 3)
    assert len(basis) == 2
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_nullspace_trivial():
    assert nullspace([fr(1, 0), fr(0, 1)], 2) == []
