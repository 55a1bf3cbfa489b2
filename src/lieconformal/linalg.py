"""Exact linear algebra over the rationals.

Matrices are lists of row tuples of ints or Fractions.  `rref` (and so
`nullspace`) and `det` eliminate fraction-free on ints, each row scaled to
ints and each row update divided by its gcd; `rref` returns Fractions and
`det` one Fraction, rebuilt from the pivots and the tracked scale factors.
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


def int_row(row) -> tuple[list, int]:
    """(the row of ints or Fractions times the lcm m of its denominators, as
    ints; m): the same row up to scale."""
    m = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (m // x.denominator) for x in row], m


def rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Rows may hold ints or Fractions.  The elimination is fraction-free:
    each row is scaled to ints, a row update is an integer combination
    divided by the gcd of the result, and the pivot rows are divided by
    their pivots once, at the end.  Scaling a row changes no row space, so
    the result is the unique RREF, as Fractions.
    """
    work = [int_row(r)[0] for r in rows]
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
    """Determinant by fraction-free elimination on ints.

    Rows may hold ints or Fractions.  Each row is scaled to ints; a row is
    updated only where its entry in the pivot column is nonzero, as an
    integer combination that multiplies the determinant by the pivot, and
    is divided by the gcd of the result.  The determinant is the product of
    the pivots over the tracked scale factors.
    """
    n = len(rows)
    work = []
    num = den = 1  # det(rows) = num / den * det(the block of work left to eliminate)
    for r in rows:
        r, m = int_row(r)
        work.append(r)
        den *= m
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c]), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            num = -num
        top = work[c]
        p = top[c]
        num *= p
        for i in range(c + 1, n):
            f = work[i][c]
            if f:
                row = [p * a - f * b for a, b in zip(work[i], top)]
                g = math.gcd(*row)
                if g > 1:
                    row = [a // g for a in row]
                    num *= g
                work[i] = row
                den *= p
    return Fraction(num, den)
