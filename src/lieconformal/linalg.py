"""Exact linear algebra over the rationals.

Matrices are lists of row tuples of ints or Fractions.  `rref` (and so
`nullspace`) eliminates on ints and returns Fractions; `det` is plain
Gaussian elimination over Fractions.
The systems have few rows: the Case2 normal reduces at most rank + 1 rows
of rank <= 32 columns, the sl stabilizer of `constructions` at most
2n + 1 = 65 rows of n^2 + 1 = 1,025 columns, and the solver's witness
determinant is square in the quotient labels.
"""

from __future__ import annotations

import math
from fractions import Fraction

Row = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _int_row(row) -> list:
    """The row times the lcm of its denominators: ints, the same up to scale."""
    m = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Rows may hold ints or Fractions.  The elimination is fraction-free:
    each row is scaled to ints, a row update is an integer combination
    divided by the gcd of the result, and the pivot rows are divided by
    their pivots once, at the end.  Scaling a row changes no row space, so
    the result is the unique RREF, as Fractions.
    """
    work = [_int_row(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        p = top[c]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(row, top)]
                g = math.gcd(*row)
                work[i] = [a // g for a in row] if g > 1 else row  # g is 0 on a zero row
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    reduced = []
    for row, c in zip(work, pivots):
        p = row[c]
        reduced.append(tuple(Fraction(a, p) if a else ZERO for a in row))
    return reduced, pivots


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
