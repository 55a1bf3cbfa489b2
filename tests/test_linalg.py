import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieconformal.linalg import ONE, ZERO, det, nullspace, rref


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


def gauss_jordan(rows, ncols):
    """Reference RREF: plain Gauss-Jordan over Fractions, one pivot row
    scaled to 1 at a time."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(work)) if work[i][c]), None)
        if i is None:
            continue
        work[r], work[i] = work[i], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[c]:
                work[i] = [a - row[c] * b for a, b in zip(row, work[r])]
        pivots.append(c)
    return [tuple(row) for row in work[: len(pivots)]], pivots


def random_matrix(rng, nrows, ncols, fractions, density=1.0):
    """Seeded entries in [-4, 4], with denominators up to 6 when `fractions`;
    each entry is nonzero with probability about `density`."""
    def entry():
        if rng.random() > density:
            return 0
        n = rng.randint(-4, 4)
        return Fraction(n, rng.randint(1, 6)) if fractions else n
    return [tuple(entry() for _ in range(ncols)) for _ in range(nrows)]


def elimination_cases():
    rng = random.Random(26)
    cases = []
    for fractions in (False, True):
        kind = "fraction" if fractions else "int"
        for m, n in ((3, 5), (5, 3), (4, 4), (6, 6)):
            cases.append((f"{kind}-{m}x{n}", random_matrix(rng, m, n, fractions), n))
        base = random_matrix(rng, 3, 6, fractions)
        # a zero row and two rows that are combinations of the others
        combo = tuple(2 * a - b for a, b in zip(base[0], base[1]))
        half = tuple(Fraction(x, 2) + y for x, y in zip(base[2], combo))
        rows = [base[0], (0,) * 6, base[1], combo, base[2], half]
        cases.append((f"{kind}-dependent-and-zero-rows", rows, 6))
        # rank 2 in 8 columns: six free columns
        low = random_matrix(rng, 2, 8, fractions)
        cases.append((f"{kind}-free-columns", low + [tuple(a + b for a, b in zip(*low))], 8))
        # sparse and wide, like the sl stabilizer rows of `constructions`
        cases.append((f"{kind}-7x10", random_matrix(rng, 7, 10, fractions, density=0.3), 10))
        cases.append((f"{kind}-zero-matrix", [(0,) * 4] * 3, 4))
    cases.append(("no-rows", [], 4))
    return cases


@pytest.mark.parametrize(
    "rows,ncols", [pytest.param(rows, n, id=name) for name, rows, n in elimination_cases()]
)
def test_rref_and_nullspace_match_gauss_jordan(rows, ncols):
    """The fraction-free `rref` gives the reference RREF entry for entry, all
    Fractions, and `nullspace` the basis read off it, each vector in the
    kernel."""
    expected, pivots = gauss_jordan(rows, ncols)
    reduced, got_pivots = rref(rows, ncols)
    assert (reduced, got_pivots) == (expected, pivots)
    assert all(type(x) is Fraction for row in reduced for x in row)
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - len(pivots)
    for f, v in zip((c for c in range(ncols) if c not in pivots), basis):
        assert v == tuple(
            ONE if c == f else -expected[pivots.index(c)][f] if c in pivots else ZERO
            for c in range(ncols)
        )
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


def cofactor_det(rows):
    """Reference determinant: Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
)


@given(data=st.data())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_det_matches_cofactor_expansion(data):
    """The fraction-free `det` equals the Laplace expansion, as a Fraction, on
    square int/Fraction matrices of size 1 to 5, some sparse and some with a
    last row that is a combination of the others."""
    n = data.draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), ENTRIES) if data.draw(st.booleans()) else ENTRIES
    rows = [tuple(data.draw(entry) for _ in range(n)) for _ in range(n)]
    if n > 1 and data.draw(st.booleans()):
        weights = [data.draw(ENTRIES) for _ in range(n - 1)]
        rows[-1] = tuple(sum(w * r[c] for w, r in zip(weights, rows)) for c in range(n))
    got = det(rows)
    assert got == cofactor_det(rows)
    assert type(got) is Fraction
