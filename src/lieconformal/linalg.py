"""Exact linear algebra over `fractions.Fraction`.

Matrices are lists of row tuples, reduced by plain Gaussian elimination.
The systems have few rows: the Case2 normal reduces at most rank + 1 rows
of rank <= 32 columns, the sl stabilizer of `constructions` at most
2n + 1 = 65 rows of n^2 + 1 = 1,025 columns, and the solver's witness
determinant is square in the quotient labels.
"""

from __future__ import annotations

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


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of the right nullspace, one vector per free column.

    Rows may hold ints or Fractions.
    """
    red, pivots = rref(rows, ncols)
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
