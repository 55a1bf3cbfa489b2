"""Exact linear algebra over the rationals.

Matrices are lists of row tuples of ints or Fractions.  `rref` (and so
`nullspace`) and `det` share one fraction-free Gauss-Jordan pass on ints,
`_eliminate`, which scales each row to ints, divides each row update by its
gcd and lists how the determinant scales; `rref` returns Fractions and `det`,
alone multiplying that list, one Fraction.  The systems have few rows: the
Case2 normal reduces at most rank + 1 rows of rank <= 32 columns, the sl
stabilizer of `constructions` at most 2n + 1 = 65 rows of n^2 + 1 = 1,025
columns, and the solver's witness determinant is square in the quotient labels.
"""

from __future__ import annotations

import math
from fractions import Fraction

Row = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def int_row(row) -> tuple[list, int]:
    """(the row of ints or Fractions times the lcm m of its denominators, as
    ints; m): the same row up to scale."""
    m = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (m // x.denominator) for x in row], m


def _eliminate(rows, ncols: int) -> tuple[list, list[int], list, list]:
    """Fraction-free Gauss-Jordan on ints: (work, pivot columns, num, den).

    Each row is scaled to ints by `int_row`.  Only a row with a nonzero
    entry f in the pivot column is updated, to p * row - f * (pivot row)
    for the pivot p, and then divided by its gcd.  Row i of `work` is the
    pivot row of pivots[i], zero in every other pivot column, and the rows
    past the pivots are zero.  det(rows) = prod(num) / prod(den) * det(work):
    den lists each row's lcm and each update's p, num each gcd and -1 per swap.
    """
    scaled = [int_row(row) for row in rows]
    work = [row for row, _ in scaled]
    num, den = [], [m for _, m in scaled]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            num.append(-1)
        top = work[r]
        p = top[c]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(row, top)]
                g = math.gcd(*row)
                if g > 1:  # g is 0 on a zero row
                    row = [a // g for a in row]
                    num.append(g)
                work[i] = row
                den.append(p)
        pivots.append(c)
        if r + 1 == len(work):
            break
    return work, pivots, num, den


def rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Rows may hold ints or Fractions.  Scaling a row changes no row space,
    so the pivot rows of `_eliminate`, each divided by its pivot, are the
    unique RREF, as Fractions.
    """
    work, pivots, _, _ = _eliminate(rows, ncols)
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
    """Determinant of a square matrix of ints or Fractions: 0 without a
    pivot in every column, else the product of the pivots, which
    `_eliminate` leaves on the diagonal, times its recorded factors."""
    work, pivots, num, den = _eliminate(rows, len(rows))
    if len(pivots) < len(rows):
        return ZERO
    return Fraction(math.prod(num + [row[i] for i, row in enumerate(work)]), math.prod(den))
