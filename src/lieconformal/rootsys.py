"""Canonical root systems with exact rational coordinates.

Every system is realised in a fixed ambient Q^dim: the A series in the
sum-zero hyperplane of Q^(n+1), B/C/D in Q^n, G2 in the sum-zero
hyperplane of Q^3, F4 in Q^4 and the E series inside Q^8.  Positivity is
read off the expansion in the canonical simple roots.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul

from . import linalg
from .errors import DimensionMismatch, InvalidRank, NotARoot, Reducible

Vec = tuple[Fraction, ...]

HALF = Fraction(1, 2)

LABELS = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2", "A1xA1")
EXCEPTIONAL_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2, "A1xA1": 2}


def vec(*entries) -> Vec:
    return tuple(Fraction(e) for e in entries)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(c, a: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


def vdot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def basis_vec(dim: int, i: int, c=1) -> Vec:
    v = [Fraction(0)] * dim
    v[i] = Fraction(c)
    return tuple(v)


def coroot(r: Vec) -> Vec:
    return vscale(Fraction(2) / vdot(r, r), r)


@dataclass(frozen=True, eq=False)
class RootSystem:
    label: str
    rank: int
    dim: int
    roots: tuple[Vec, ...]
    simples: tuple[Vec, ...]
    positives: tuple[Vec, ...]
    root_set: frozenset = field(repr=False)
    expansions: dict = field(repr=False)

    def __eq__(self, other):
        return isinstance(other, RootSystem) and (self.label, self.rank) == (
            other.label,
            other.rank,
        )

    def __hash__(self):
        return hash((self.label, self.rank))

    def __repr__(self):
        return f"RootSystem({self.label}, rank={self.rank}, {len(self.roots)} roots)"


def _raw_roots(label: str, rank: int) -> tuple[int, list[Vec], list[Vec]]:
    """Ambient dimension, all roots and the canonical simple roots."""
    n = rank
    if label == "A":
        if n < 1:
            raise InvalidRank("A series needs rank >= 1")
        dim = n + 1
        roots = [
            vsub(basis_vec(dim, i), basis_vec(dim, j))
            for i in range(dim)
            for j in range(dim)
            if i != j
        ]
        simples = [vsub(basis_vec(dim, i), basis_vec(dim, i + 1)) for i in range(n)]
        return dim, roots, simples
    if label == "B":
        if n < 2:
            raise InvalidRank("B series needs rank >= 2")
        roots = [vscale(s, basis_vec(n, i)) for i in range(n) for s in (1, -1)]
        for i, j in combinations(range(n), 2):
            for si, sj in product((1, -1), repeat=2):
                roots.append(vadd(vscale(si, basis_vec(n, i)), vscale(sj, basis_vec(n, j))))
        simples = [vsub(basis_vec(n, i), basis_vec(n, i + 1)) for i in range(n - 1)]
        simples.append(basis_vec(n, n - 1))
        return n, roots, simples
    if label == "C":
        if n < 2:
            raise InvalidRank("C series needs rank >= 2")
        roots = [vscale(2 * s, basis_vec(n, i)) for i in range(n) for s in (1, -1)]
        for i, j in combinations(range(n), 2):
            for si, sj in product((1, -1), repeat=2):
                roots.append(vadd(vscale(si, basis_vec(n, i)), vscale(sj, basis_vec(n, j))))
        simples = [vsub(basis_vec(n, i), basis_vec(n, i + 1)) for i in range(n - 1)]
        simples.append(basis_vec(n, n - 1, 2))
        return n, roots, simples
    if label == "D":
        if n < 3:
            raise InvalidRank("D series needs rank >= 3")
        roots = []
        for i, j in combinations(range(n), 2):
            for si, sj in product((1, -1), repeat=2):
                roots.append(vadd(vscale(si, basis_vec(n, i)), vscale(sj, basis_vec(n, j))))
        simples = [vsub(basis_vec(n, i), basis_vec(n, i + 1)) for i in range(n - 1)]
        simples.append(vadd(basis_vec(n, n - 2), basis_vec(n, n - 1)))
        return n, roots, simples
    if label == "G2":
        roots = []
        for i, j in combinations(range(3), 2):
            d = vsub(basis_vec(3, i), basis_vec(3, j))
            roots.extend([d, vneg(d)])
        for i in range(3):
            j, k = [m for m in range(3) if m != i]
            long = vsub(vscale(2, basis_vec(3, i)), vadd(basis_vec(3, j), basis_vec(3, k)))
            roots.extend([long, vneg(long)])
        simples = [vec(1, -1, 0), vec(-2, 1, 1)]
        return 3, roots, simples
    if label == "F4":
        roots = [vscale(s, basis_vec(4, i)) for i in range(4) for s in (1, -1)]
        for i, j in combinations(range(4), 2):
            for si, sj in product((1, -1), repeat=2):
                roots.append(vadd(vscale(si, basis_vec(4, i)), vscale(sj, basis_vec(4, j))))
        for signs in product((1, -1), repeat=4):
            roots.append(tuple(HALF * s for s in signs))
        simples = [
            vec(0, 1, -1, 0),
            vec(0, 0, 1, -1),
            vec(0, 0, 0, 1),
            (HALF, -HALF, -HALF, -HALF),
        ]
        return 4, roots, simples
    if label in ("E6", "E7", "E8"):
        roots = []
        for i, j in combinations(range(8), 2):
            for si, sj in product((1, -1), repeat=2):
                roots.append(vadd(vscale(si, basis_vec(8, i)), vscale(sj, basis_vec(8, j))))
        for signs in product((1, -1), repeat=8):
            if signs.count(-1) % 2 == 0:
                roots.append(tuple(HALF * s for s in signs))
        simples8 = [
            (HALF, -HALF, -HALF, -HALF, -HALF, -HALF, -HALF, HALF),
            vec(1, 1, 0, 0, 0, 0, 0, 0),
            vec(-1, 1, 0, 0, 0, 0, 0, 0),
            vec(0, -1, 1, 0, 0, 0, 0, 0),
            vec(0, 0, -1, 1, 0, 0, 0, 0),
            vec(0, 0, 0, -1, 1, 0, 0, 0),
            vec(0, 0, 0, 0, -1, 1, 0, 0),
            vec(0, 0, 0, 0, 0, -1, 1, 0),
        ]
        if label == "E8":
            return 8, roots, simples8
        if label == "E7":
            roots = [r for r in roots if r[6] == -r[7]]
            return 8, roots, simples8[:7]
        roots = [r for r in roots if r[5] == r[6] == -r[7]]
        return 8, roots, simples8[:6]
    if label == "A1xA1":
        roots = [vec(1, -1, 0, 0), vec(-1, 1, 0, 0), vec(0, 0, 1, -1), vec(0, 0, -1, 1)]
        simples = [vec(1, -1, 0, 0), vec(0, 0, 1, -1)]
        return 4, roots, simples
    raise InvalidRank(f"unknown series label {label!r}")


def doubled(v) -> tuple:
    """Coordinates of 2v, as ints where integral: every root maps to ints."""
    out = []
    for x in v:
        n, d = x.numerator, x.denominator
        out.append(2 * n if d == 1 else n if d == 2 else Fraction(2 * n, d))
    return tuple(out)


def dot(a, b):
    """Inner product of two coordinate tuples of ints or Fractions."""
    return sum(map(mul, a, b))


def _expander(simples: list[Vec]):
    """Simple-root expansion r -> (numerators, common denominator), from one
    exact inverse of the simple roots' Gram matrix; None off their span."""
    rows = [doubled(s) for s in simples]
    k = len(rows)
    gram = [
        tuple(Fraction(dot(a, b)) for b in rows) + tuple(Fraction(int(i == j)) for j in range(k))
        for i, a in enumerate(rows)
    ]
    red, _ = linalg.rref(gram, 2 * k)
    inverse = [row[k:] for row in red]
    den = math.lcm(*(x.denominator for row in inverse for x in row))
    adj = [[int(x * den) for x in row] for row in inverse]

    def expand(r2):
        proj = [dot(s, r2) for s in rows]
        num = [dot(row, proj) for row in adj]
        recon = [dot(num, col) for col in zip(*rows)]
        if recon != [den * x for x in r2]:
            return None
        return num, den

    return expand


@lru_cache(maxsize=None)
def build(label: str, rank: int) -> RootSystem:
    """Construct the canonical root system for (label, rank)."""
    if label in EXCEPTIONAL_RANK:
        if rank != EXCEPTIONAL_RANK[label]:
            raise InvalidRank(f"{label} has rank {EXCEPTIONAL_RANK[label]}")
    dim, roots, simples = _raw_roots(label, rank)
    expand = _expander(simples)
    expansions = {}
    positives = []
    keyed = sorted((doubled(r), r) for r in roots)  # doubling keeps lex order
    for r2, r in keyed:
        solved = expand(r2)
        if solved is None:
            raise NotARoot(f"root {r} outside the span of the simple roots")
        num, den = solved
        if not (all(c >= 0 for c in num) or all(c <= 0 for c in num)):
            raise NotARoot(f"root {r} has mixed-sign simple expansion")
        if any(c % den for c in num):
            raise NotARoot(f"root {r} has non-integral simple expansion")
        coeffs = tuple(Fraction(c // den) for c in num)
        expansions[r] = coeffs
        if all(c >= 0 for c in num) and not is_zero(r):
            positives.append((sum(num) // den, r2, r))
    positives.sort()
    return RootSystem(
        label=label,
        rank=rank,
        dim=dim,
        roots=tuple(r for _, r in keyed),
        simples=tuple(simples),
        positives=tuple(r for _, _, r in positives),
        root_set=frozenset(roots),
        expansions=expansions,
    )


@dataclass(frozen=True, eq=False)
class RootCore:
    """Integer tables over the roots of one system.

    Root i is ``rs.roots[i]``; as ``rs.roots`` is sorted, index order is
    the lexicographic order of the vectors.  Coordinates are doubled
    (see `doubled`) so that the half-integral F4/E roots become ints.
    """

    index: dict  # root vector -> i
    at: dict  # doubled coordinates -> i
    coords: tuple  # doubled coordinates of root i
    neg: array  # index of -root i
    add: tuple  # add[i][j]: index of root i + root j, or -1
    refl: tuple  # refl[k][i]: root i reflected in simple root k
    norm: array  # squared norm of the doubled root, 4 |r|^2
    height: array
    expansions: tuple  # integer simple-root expansion of root i
    positives: tuple  # indices of rs.positives, in that order
    is_positive: bytes
    simples: tuple  # indices of rs.simples

    def find(self, v2) -> int:
        """Index of the root with doubled coordinates v2, or -1."""
        return self.at.get(v2, -1)


@lru_cache(maxsize=None)
def root_core(rs: RootSystem) -> RootCore:
    """The integer tables of rs, built on first use (cached per system)."""
    roots = rs.roots
    coords = tuple(doubled(r) for r in roots)
    at = {c: i for i, c in enumerate(coords)}
    # doubled coordinates of a sum of two roots lie in [-8, 8], so these
    # base-32 keys add like the vectors they encode
    weights = [32**k for k in range(rs.dim)]
    keys = [dot(c, weights) for c in coords]
    by_key = {key: i for i, key in enumerate(keys)}
    simples = tuple(at[doubled(s)] for s in rs.simples)
    refl = []
    for k in simples:
        s, ks = coords[k], keys[k]
        ss = dot(s, s)
        image = [by_key[kr - 2 * dot(c, s) // ss * ks] for c, kr in zip(coords, keys)]
        refl.append(array("h", image))
    index = {r: i for i, r in enumerate(roots)}
    expansions = tuple(tuple(c.numerator for c in rs.expansions[r]) for r in roots)
    positives = tuple(index[r] for r in rs.positives)
    is_positive = bytearray(len(roots))
    for i in positives:
        is_positive[i] = 1
    return RootCore(
        index=index,
        at=at,
        coords=coords,
        neg=array("h", [by_key[-key] for key in keys]),
        add=tuple(array("h", [by_key.get(ki + kj, -1) for kj in keys]) for ki in keys),
        refl=tuple(refl),
        norm=array("h", [dot(c, c) for c in coords]),
        height=array("h", [sum(e) for e in expansions]),
        expansions=expansions,
        positives=positives,
        is_positive=bytes(is_positive),
        simples=simples,
    )


def _check_dim(rs: RootSystem, v: Vec) -> Vec:
    if len(v) != rs.dim:
        raise DimensionMismatch(f"expected dimension {rs.dim}, got {len(v)}")
    return tuple(Fraction(x) for x in v)


def minimal_root(rs: RootSystem) -> Vec:
    """The lowest root (negative of the highest root)."""
    if rs.label == "A1xA1":
        raise Reducible("A1xA1 has no single minimal root")
    # positives are sorted by height, and the highest root is unique
    return vneg(rs.positives[-1])


def weyl_reflect(rs: RootSystem, mirror: Vec, v: Vec) -> Vec:
    mirror = _check_dim(rs, mirror)
    v = _check_dim(rs, v)
    if mirror not in rs.root_set:
        raise NotARoot(f"mirror {mirror} is not a root")
    c = 2 * vdot(v, mirror) / vdot(mirror, mirror)
    return vsub(v, vscale(c, mirror))


def mirror_index(rs: RootSystem, mirror) -> int:
    """Root index of a reflection mirror; raises as `weyl_reflect` does."""
    mirror = _check_dim(rs, mirror)
    k = root_core(rs).find(doubled(mirror))
    if k < 0:
        raise NotARoot(f"mirror {mirror} is not a root")
    return k


def random_weyl_word(rs: RootSystem, rng, length: int) -> list[Vec]:
    return [rng.choice(rs.simples) for _ in range(length)]


def pair_orbit(core: RootCore, pair: tuple[int, int]) -> set:
    """Diagonal Weyl orbit of an index pair, as a set of index pairs."""
    seen = {pair}
    frontier = [pair]
    while frontier:
        nxt = []
        for a, b in frontier:
            for perm in core.refl:
                img = (perm[a], perm[b])
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def canonical_pair_rep(rs: RootSystem, pair) -> tuple[Vec, Vec]:
    """Deterministic representative of the diagonal Weyl orbit of a pair.

    The representative is the coordinatewise-lexicographically greatest
    element of the orbit, which matches the usual displayed choices
    (e.g. (e1, e2) for orthogonal short pairs in the B series).
    """
    a, b = pair
    a = _check_dim(rs, a)
    b = _check_dim(rs, b)
    if a not in rs.root_set or b not in rs.root_set:
        raise NotARoot(f"pair {pair} contains a non-root")
    core = root_core(rs)
    i, j = max(pair_orbit(core, (core.index[a], core.index[b])))
    return rs.roots[i], rs.roots[j]


def format_vec(v: Vec) -> list[str]:
    return [str(x) for x in v]


def parse_vec(entries) -> Vec:
    return tuple(Fraction(e) for e in entries)
