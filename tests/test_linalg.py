import random
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


def reference_nullspace(rows, ncols):
    """Nullspace read off the Fraction rref of every row."""
    red, pivots = rref([tuple(map(Fraction, r)) for r in rows], ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return basis


def test_nullspace_matches_full_rref():
    """The row-basis pass leaves the nullspace basis unchanged on seeded
    matrices with zero, duplicate and scaled rows, of deficient and full rank."""
    rng = random.Random(31)
    entries = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]
    full = deficient = 0
    for trial in range(300):
        ncols = rng.randint(1, 9)
        rank = rng.randint(0, ncols)
        gens = [tuple(rng.choice(entries) for _ in range(ncols)) for _ in range(rank)]
        rows = []
        for _ in range(rng.randint(0, 3 * ncols)):
            kind = rng.randrange(4)
            if kind == 0 or not gens:
                rows.append((0,) * ncols)
            elif kind == 1:
                rows.append(rng.choice(gens))
            elif kind == 2:
                c = rng.choice([2, -1, Fraction(3, 4)])
                rows.append(tuple(c * x for x in rng.choice(gens)))
            else:
                rows.append(
                    tuple(sum(rng.randint(-2, 2) * g[k] for g in gens) for k in range(ncols))
                )
        rows += gens
        rng.shuffle(rows)
        if trial % 2:
            rows = [tuple(Fraction(x) for x in r) for r in rows]
        expect = reference_nullspace(rows, ncols)
        assert nullspace(rows, ncols) == expect
        full += not expect
        deficient += bool(expect)
    assert full and deficient
