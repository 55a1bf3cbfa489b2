"""Exact linear algebra over `fractions.Fraction`.

Matrices are lists of row tuples.  Everything is small enough (a few
dozen columns at most) that plain Gaussian elimination is fine.
"""

from __future__ import annotations

import math
from fractions import Fraction

Row = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = ONE / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def _row_basis(rows: list[Row], ncols: int) -> list[Row]:
    """A maximal independent subset of the rows, picked greedily in order.

    Fraction-free: each row is scaled to integers and reduced against the
    integer echelon rows kept so far by cross-multiplication, with the
    content divided out; the pass stops once ncols rows are independent.
    """
    echelon: dict[int, list[int]] = {}  # leading column -> integer row
    basis = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        v = [x.numerator * (den // x.denominator) for x in row]
        for c in range(ncols):
            a = v[c]
            if not a:
                continue
            e = echelon.get(c)
            if e is None:
                echelon[c] = v
                basis.append(row)
                break
            b = e[c]
            v = [b * x - a * y for x, y in zip(v, e)]
            g = math.gcd(*v)
            if g > 1:
                v = [x // g for x in v]
        if len(basis) == ncols:
            break
    return basis


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of the right nullspace, one vector per free column.

    Rows may hold ints or Fractions.  The RREF of a row space does not
    depend on which spanning rows it is computed from, so reducing only a
    row basis gives the same result as reducing every row.
    """
    red, pivots = rref(_row_basis(rows, ncols), ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return basis


def det(rows: list[Row]) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination."""
    n = len(rows)
    work = [list(r) for r in rows]
    sign = 1
    result = ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            sign = -sign
        result *= work[c][c]
        inv = ONE / work[c][c]
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] * inv
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return result * sign
