"""Chevalley bases and integral structure constants.

Basis: coroots h_i for the simple roots plus one vector E_r per root r,
with [h, E_r] = r(h) E_r, [E_r, E_{-r}] = (coroot of r) and
[E_r, E_s] = n(r, s) E_{r+s} when r+s is a root.  Signs are fixed by the
standard extraspecial-pair convention: order the positive roots by height
and then lexicographically, give each non-simple positive root its
minimal decomposition, and make that constant +(p+1) where p is the
length of the descending root string.  The table is filled in one pass up
the positive roots: each pair of positive roots with a + b = c writes the
twelve entries of its triple a + b + (-c) = 0 at once, through the
negation and cyclic identities (Carter, Simple Groups of Lie Type,
Thm 4.1.2), and the four-root identity for the other pairs of c reads
constants of lower roots that are already in the table.  Algebra elements
and their bracket read the integer root tables of `rootsys` directly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add

from .errors import NotARoot, SystemMismatch
from .rootsys import RootSystem, Vec, build, check_dim, dot, doubled, ratio


@dataclass(eq=False)
class StructureConstants:
    """Constants of one system; ``table[x][y]`` is n(root x, root y) on the
    root indices of the system (0 where root x + root y is not a root)."""

    system: RootSystem
    table: tuple = field(repr=False)

    @cached_property
    def coroots(self) -> tuple:
        """Doubled coordinates of the coroot of each root, 8 coords / norm;
        read by `bracket` for [E_a, E_-a]."""
        rs = self.system
        return tuple(
            tuple(ratio(8 * x, n) for x in c) for c, n in zip(rs.coords, rs.norm)
        )

    @cached_property
    def zero(self) -> tuple:
        """The zero Cartan part, one ``dim``-tuple shared by every element
        that `bracket` and `verify_invariance` build."""
        return (0,) * self.system.dim


def _ratio(n: int, num: int, den: int) -> int:
    q, r = divmod(n * num, den)
    assert r == 0, "structure constants must be integers"
    return q


def structure_constants(rs: RootSystem) -> StructureConstants:
    sums, keys, by_key, neg, norm = rs.sums, rs.keys, rs.by_key, rs.neg, rs.norm
    # order: height, then lexicographically decreasing; index order is lex order
    pos = sorted(rs.positive_idx, key=lambda i: (rs.height[i], -i))
    order = [-1] * len(keys)  # -1 for the negative roots
    for k, r in enumerate(pos):
        order[r] = k
    table = [array("b", bytes(len(keys))) for _ in keys]

    def put(x, y, z, v):
        """n(x, y) = v and the other eleven entries of the triple x + y + z = 0."""
        # n(x,y)/(z,z) = n(y,z)/(x,x) = n(z,x)/(y,y), and n(b,a) = n(-a,-b) = -n(a,b)
        nyz, nzx = _ratio(v, norm[x], norm[z]), _ratio(v, norm[y], norm[z])
        for a, b, n in ((x, y, v), (y, z, nyz), (z, x, nzx)):
            table[a][b] = table[neg[b]][neg[a]] = n
            table[b][a] = table[neg[a]][neg[b]] = -n

    for gamma in pos:
        # the positive pairs a + b = gamma, read off gamma + (-a) = b, by the order of a
        row, pairs = iter(sums[gamma]), []
        for j, b in zip(row, row):
            a = neg[j]
            if 0 <= order[a] < order[b]:
                pairs.append((order[a], a, b))
        pairs.sort()
        if not pairs:
            continue
        _, xi, eta = pairs[0]
        # p + 1, with p the length of the string eta - xi, eta - 2 xi, ...;
        # p <= 3, so the keys looked up stay exact (see `rootsys`)
        p, cur = 0, keys[eta] - keys[xi]
        while cur in by_key:
            p, cur = p + 1, cur - keys[xi]
        z = neg[gamma]
        put(xi, eta, z, p + 1)
        for _, alpha, beta in pairs[1:]:
            # four-root identity on (xi, eta, -alpha, -beta); every constant
            # it reads belongs to a lower root, so `put` has written it
            num, den = 0, 1
            for a, b, c, d in ((eta, neg[alpha], xi, neg[beta]), (neg[alpha], xi, eta, neg[beta])):
                s = by_key.get(keys[a] + keys[b])
                if s is not None:
                    num, den = num * norm[s] + table[a][b] * table[c][d] * den, den * norm[s]
            put(alpha, beta, z, _ratio(num, norm[gamma], den * (p + 1)))
    # every root-sum pair got a nonzero constant
    assert sum(len(t) - t.count(0) for t in table) == sum(map(len, sums)) // 2
    return StructureConstants(system=rs, table=tuple(table))


@lru_cache(maxsize=None)
def cached_constants(label: str, rank: int) -> StructureConstants:
    return structure_constants(build(label, rank))


class AlgebraElement:
    """Exact element of the split algebra on the root core.

    ``coeffs`` maps a root index r to the coefficient of E_r.  ``cartan``
    is the Cartan part h on doubled coordinates (the coordinates of 2h),
    as ints where integral, like ``RootSystem.coords``.  Coefficients stay
    ints while every input is an int.  Invariant: ``coeffs`` never holds a
    zero and ``cartan`` is always a ``dim``-tuple; `__init__` establishes
    it, and `_element` builds the results of `bracket` and `add` and the
    generators and label elements of `invform.verify_invariance`, which
    keep it already, without the copy and the zero filter.
    """

    __slots__ = ("system", "cartan", "coeffs")

    def __init__(self, system: RootSystem, cartan=None, coeffs=None):
        self.system = system
        self.cartan = cartan if cartan is not None else (0,) * system.dim
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
        return not any(self.cartan) and not self.coeffs

    def add(self, other: "AlgebraElement") -> "AlgebraElement":
        coeffs = dict(self.coeffs)
        for r, c in other.coeffs.items():
            s = coeffs.get(r, 0) + c
            if s:
                coeffs[r] = s
            else:  # c != 0, so r was a key of coeffs
                del coeffs[r]
        return _element(self.system, tuple(map(add, self.cartan, other.cartan)), coeffs)


def _element(rs: RootSystem, cartan: tuple, coeffs: dict) -> AlgebraElement:
    """An element from a ``dim``-tuple and a dict with no zero value, taken
    as they are: no copy and no filter."""
    elt = object.__new__(AlgebraElement)
    elt.system, elt.cartan, elt.coeffs = rs, cartan, coeffs
    return elt


def elem_e(rs: RootSystem, root: Vec, c=1) -> AlgebraElement:
    """c E_root; raises NotARoot when the vector is not a root."""
    r = rs.index_of(root)
    if r < 0:
        raise NotARoot(f"{root} is not a root of {rs.label}{rs.rank}")
    return AlgebraElement(rs, coeffs={r: c if isinstance(c, int) else Fraction(c)})


def elem_h(rs: RootSystem, v: Vec) -> AlgebraElement:
    """The Cartan element of the ambient vector v; raises DimensionMismatch
    off the ambient space."""
    return AlgebraElement(rs, cartan=doubled(check_dim(rs, v)))


def bracket(sc: StructureConstants, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """[x, y] from the root tables: [E_a, E_b] = n(a, b) E_(a+b), [E_a, E_-a]
    is the coroot of a, and [h, E_r] = r(h) E_r with r(h) = coords[r].h2 / 4."""
    rs = sc.system
    if x.system is not rs or y.system is not rs:
        raise SystemMismatch("elements belong to a different root system")
    coords, zero = rs.coords, sc.zero
    xc, yc = x.coeffs, y.coeffs
    coeffs: dict = {}
    # the Cartan action, [h, E_r] = r(h) E_r, for each side that has one
    if yc and x.cartan != zero:
        h2 = x.cartan
        for r, c in yc.items():
            v = dot(coords[r], h2)
            if v:
                coeffs[r] = c * ratio(v, 4)
    if xc and y.cartan != zero:
        h2 = y.cartan
        for r, c in xc.items():
            v = dot(coords[r], h2)
            if v:
                coeffs[r] = coeffs.get(r, 0) - c * ratio(v, 4)
    cartan = zero
    if xc and yc:
        keys, by_key, neg, table, coroots = rs.keys, rs.by_key, rs.neg, sc.table, sc.coroots
        for a, ca in xc.items():
            n, ka, opposite = table[a], keys[a], neg[a]
            for b, cb in yc.items():
                nb = n[b]
                if nb:  # nonzero exactly when a + b is a root
                    s = by_key[ka + keys[b]]
                    coeffs[s] = coeffs.get(s, 0) + ca * cb * nb
                elif b == opposite:
                    c = ca * cb
                    cartan = tuple(u + c * w for u, w in zip(cartan, coroots[a]))
    if 0 in coeffs.values():  # terms cancelled
        coeffs = {r: c for r, c in coeffs.items() if c}
    return _element(rs, cartan, coeffs)
