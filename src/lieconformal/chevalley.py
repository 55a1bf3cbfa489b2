"""Chevalley bases and integral structure constants.

Basis: coroots h_i for the simple roots plus one vector E_r per root r,
with [h, E_r] = r(h) E_r, [E_r, E_{-r}] = (coroot of r) and
[E_r, E_s] = n(r, s) E_{r+s} when r+s is a root.  Signs are fixed by the
standard extraspecial-pair convention: order the positive roots by height
and then lexicographically, give each non-simple positive root its
minimal decomposition, and make that constant +(p+1) where p is the
length of the descending root string.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import SystemMismatch
from .rootsys import RootSystem, Vec, build, coroot, is_zero, vadd, vdot, vscale

ZERO = Fraction(0)


@dataclass(eq=False)
class StructureConstants:
    """Constants of one system; ``table[x][y]`` is n(root x, root y) on the
    root indices of the system (0 where root x + root y is not a root)."""

    system: RootSystem
    table: tuple = field(repr=False)

    @cached_property
    def n_table(self) -> dict:
        """The nonzero constants keyed by root vectors, built on first read."""
        roots = self.system.roots
        return {
            (roots[x], roots[y]): Fraction(v)
            for x, row in enumerate(self.table)
            for y, v in enumerate(row)
            if v
        }

    def n(self, a: Vec, b: Vec) -> Fraction:
        """Constant n(a, b) with [E_a, E_b] = n(a, b) E_{a+b}; 0 if no root."""
        return self.n_table.get((a, b), ZERO)


def _ratio(n: int, num: int, den: int) -> int:
    q, r = divmod(n * num, den)
    assert r == 0, "structure constants must be integers"
    return q


def structure_constants(rs: RootSystem) -> StructureConstants:
    add, neg, norm, is_pos = rs.add, rs.neg, rs.norm, rs.is_positive
    # order: height, then lexicographically decreasing; index order is lex order
    pos = sorted(rs.positive_idx, key=lambda i: (rs.height[i], -i))
    order = {r: k for k, r in enumerate(pos)}
    npp: dict = {}

    def const(x, y):
        """n(x, y) for arbitrary root indices with x+y a root."""
        xp, yp = is_pos[x], is_pos[y]
        if xp and yp:
            if (x, y) in npp:
                return npp[(x, y)]
            return -npp[(y, x)]
        if not xp and not yp:
            return -const(neg[x], neg[y])
        z = neg[add[x][y]]
        # x + y + z = 0: n(x,y)/(z,z) = n(y,z)/(x,x) = n(z,x)/(y,y)
        if is_pos[y] == is_pos[z]:
            return _ratio(const(y, z), norm[z], norm[x])
        return _ratio(const(z, x), norm[z], norm[y])

    for k, gamma in enumerate(pos):
        row = add[gamma]
        pairs = []
        for a in pos[:k]:
            b = row[neg[a]]
            if b >= 0 and is_pos[b] and order[a] < order[b]:
                pairs.append((a, b))
        if not pairs:
            continue
        xi, eta = pairs[0]
        # p + 1, with p the length of the string eta - xi, eta - 2 xi, ...
        p, cur = 0, add[eta][neg[xi]]
        while cur >= 0:
            p, cur = p + 1, add[cur][neg[xi]]
        npp[(xi, eta)] = p + 1
        for alpha, beta in pairs[1:]:
            # four-root identity on (xi, eta, -alpha, -beta)
            total = ZERO
            d1 = add[eta][neg[alpha]]
            if d1 >= 0:
                total += Fraction(const(eta, neg[alpha]) * const(xi, neg[beta]), norm[d1])
            d2 = add[xi][neg[alpha]]
            if d2 >= 0:
                total += Fraction(const(neg[alpha], xi) * const(eta, neg[beta]), norm[d2])
            value = norm[gamma] * total / npp[(xi, eta)]
            assert value.denominator == 1, "structure constants must be integers"
            npp[(alpha, beta)] = value.numerator

    table = []
    for x, row in enumerate(add):
        out = array("b", bytes(len(row)))
        for y, z in enumerate(row):
            if z >= 0:
                out[y] = const(x, y)
                assert out[y] != 0
        table.append(out)
    return StructureConstants(system=rs, table=tuple(table))


@lru_cache(maxsize=None)
def cached_constants(label: str, rank: int) -> StructureConstants:
    return structure_constants(build(label, rank))


class AlgebraElement:
    """Exact element of the split algebra: Cartan vector + root coefficients."""

    __slots__ = ("system", "cartan", "coeffs")

    def __init__(self, system: RootSystem, cartan: Vec | None = None, coeffs=None):
        self.system = system
        self.cartan = cartan if cartan is not None else (ZERO,) * system.dim
        self.coeffs = {r: c for r, c in (coeffs or {}).items() if c != 0}

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.system == other.system
            and self.cartan == other.cartan
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"AlgebraElement(cartan={self.cartan}, coeffs={self.coeffs})"

    def is_zero(self) -> bool:
        return is_zero(self.cartan) and not self.coeffs

    def add(self, other: "AlgebraElement") -> "AlgebraElement":
        coeffs = dict(self.coeffs)
        for r, c in other.coeffs.items():
            coeffs[r] = coeffs.get(r, ZERO) + c
        return AlgebraElement(self.system, vadd(self.cartan, other.cartan), coeffs)


def elem_e(rs: RootSystem, root: Vec, c=1) -> AlgebraElement:
    return AlgebraElement(rs, coeffs={root: Fraction(c)})


def elem_h(rs: RootSystem, v: Vec) -> AlgebraElement:
    return AlgebraElement(rs, cartan=tuple(Fraction(x) for x in v))


def bracket(sc: StructureConstants, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    rs = sc.system
    if x.system != rs or y.system != rs:
        raise SystemMismatch("elements belong to a different root system")
    cartan = [ZERO] * rs.dim
    coeffs: dict = {}
    for r, c in y.coeffs.items():
        v = vdot(r, x.cartan) * c
        if v != 0:
            coeffs[r] = coeffs.get(r, ZERO) + v
    for r, c in x.coeffs.items():
        v = vdot(r, y.cartan) * c
        if v != 0:
            coeffs[r] = coeffs.get(r, ZERO) - v
    for r1, c1 in x.coeffs.items():
        for r2, c2 in y.coeffs.items():
            s = vadd(r1, r2)
            if is_zero(s):
                h = vscale(c1 * c2, coroot(r1))
                cartan = [a + b for a, b in zip(cartan, h)]
            elif rs.index_of(s) >= 0:
                coeffs[s] = coeffs.get(s, ZERO) + c1 * c2 * sc.n_table[(r1, r2)]
    return AlgebraElement(rs, tuple(cartan), coeffs)
