"""Canonical root systems as integer root tables.

Every system is realised in a fixed ambient Q^dim: the A series in the
sum-zero hyperplane of Q^(n+1), B/C/D in Q^n, G2 in the sum-zero
hyperplane of Q^3, F4 in Q^4 and the E series inside Q^8.  Roots are held
on doubled coordinates (2r), so the half-integral F4/E roots become ints,
and root i is the i-th in the lexicographic order of those coordinates.
Positivity is read off the expansion in the canonical simple roots.
Every layer, `classify`'s candidates included, works on root indices.
Fraction vectors appear only in verdicts, messages and input
`Distortion`s, through the `roots`, `simples` and `positives` views and
the vector helpers below.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul

from .errors import DimensionMismatch, InvalidRank, NotARoot, Reducible

Vec = tuple[Fraction, ...]

EXCEPTIONAL_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2, "A1xA1": 2}

# the largest rank built: B32 and C32 have 2,048 roots and an 8 MB sum table,
# which grows as the fourth power of the rank
MAX_RANK = 32


def vec(*entries) -> Vec:
    return tuple(Fraction(e) for e in entries)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def coroot(r: Vec) -> Vec:
    c = Fraction(2) / dot(r, r)
    return tuple(c * x for x in r)


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


def ratio(n, d: int):
    """n / d exactly: an int where d divides the int n, else a Fraction."""
    if type(n) is int:
        q, r = divmod(n, d)
        if not r:
            return q
    return Fraction(n, d)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """The roots of one system and the integer tables over them.

    Every table is indexed by root index; `roots`, `simples` and
    `positives` are the same roots as Fraction vectors.  A system compares
    by identity: `build` caches, so each (label, rank) is one object.
    """

    label: str
    rank: int
    dim: int
    roots: tuple[Vec, ...]
    simples: tuple[Vec, ...]
    positives: tuple[Vec, ...]  # by height, then lex
    coords: tuple  # doubled coordinates of root i
    at: dict  # doubled coordinates -> i
    neg: array  # index of -root i
    add: tuple  # add[i][j]: index of root i + root j, or -1
    refl: tuple  # refl[k][i]: root i reflected in simple root k
    norm: array  # squared norm of the doubled root, 4 |r|^2
    height: array
    expansions: tuple  # integer simple-root expansion of root i
    positive_idx: tuple  # indices of `positives`, in that order
    is_positive: bytes
    simple_idx: tuple  # indices of `simples`

    def __repr__(self):
        return f"RootSystem({self.label}, rank={self.rank}, {len(self.roots)} roots)"

    def find(self, v2) -> int:
        """Index of the root with doubled coordinates v2, or -1."""
        return self.at.get(v2, -1)

    def index_of(self, v) -> int:
        """Index of the root vector v, or -1 when v is not a root."""
        return self.at.get(doubled(v), -1)


def _pairs(n: int) -> list:
    """Doubled coordinates of ±e_i ± e_j, i < j."""
    out = []
    for i, j in combinations(range(n), 2):
        for si, sj in product((2, -2), repeat=2):
            v = [0] * n
            v[i], v[j] = si, sj
            out.append(tuple(v))
    return out


def _axes(n: int, c: int) -> list:
    """Doubled coordinates ±c of the coordinate axes."""
    return [tuple(s if k == i else 0 for k in range(n)) for i in range(n) for s in (c, -c)]


def _chain(n: int) -> list:
    """Doubled coordinates of e_i - e_(i+1), i < n - 1."""
    return [
        tuple(2 if k == i else -2 if k == i + 1 else 0 for k in range(n)) for i in range(n - 1)
    ]


def _raw_roots(label: str, rank: int) -> tuple[int, list, list]:
    """Ambient dimension, all roots and the canonical simple roots, on
    doubled coordinates."""
    n = rank
    if label == "A":
        if n < 1:
            raise InvalidRank("A series needs rank >= 1")
        return n + 1, [r for r in _pairs(n + 1) if sum(r) == 0], _chain(n + 1)
    if label == "B":
        if n < 2:
            raise InvalidRank("B series needs rank >= 2")
        return n, _axes(n, 2) + _pairs(n), _chain(n) + [(0,) * (n - 1) + (2,)]
    if label == "C":
        if n < 2:
            raise InvalidRank("C series needs rank >= 2")
        return n, _axes(n, 4) + _pairs(n), _chain(n) + [(0,) * (n - 1) + (4,)]
    if label == "D":
        if n < 3:
            raise InvalidRank("D series needs rank >= 3")
        return n, _pairs(n), _chain(n) + [(0,) * (n - 2) + (2, 2)]
    if label == "G2":
        short = [r for r in _pairs(3) if sum(r) == 0]
        long = [
            tuple(4 * s if k == i else -2 * s for k in range(3)) for i in range(3) for s in (1, -1)
        ]
        return 3, short + long, [(2, -2, 0), (-4, 2, 2)]
    if label == "F4":
        roots = _axes(4, 2) + _pairs(4) + list(product((1, -1), repeat=4))
        return 4, roots, [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    if label in ("E6", "E7", "E8"):
        roots = _pairs(8) + [s for s in product((1, -1), repeat=8) if s.count(-1) % 2 == 0]
        simples = [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0)]
        simples += [tuple(-x for x in c) for c in _chain(8)[:6]]
        if label == "E8":
            return 8, roots, simples
        if label == "E7":
            return 8, [r for r in roots if r[6] == -r[7]], simples[:7]
        return 8, [r for r in roots if r[5] == r[6] == -r[7]], simples[:6]
    if label == "A1xA1":
        roots = [(2, -2, 0, 0), (-2, 2, 0, 0), (0, 0, 2, -2), (0, 0, -2, 2)]
        return 4, roots, [roots[0], roots[2]]
    raise InvalidRank(f"unknown series label {label!r}")


# doubled coordinates of roots lie in [-4, 4], of their sums and differences in [-8, 8]
_HALF = {x: Fraction(x, 2) for x in range(-8, 9)}


def halved(v2) -> Vec:
    """The Fraction vector with doubled coordinates v2, each in [-8, 8]."""
    return tuple(_HALF[x] for x in v2)


@lru_cache(maxsize=None)
def build(label: str, rank: int) -> RootSystem:
    """Construct the canonical root system for (label, rank)."""
    if rank > MAX_RANK:
        raise InvalidRank(f"rank {rank} exceeds the maximum rank {MAX_RANK}")
    if label in EXCEPTIONAL_RANK:
        if rank != EXCEPTIONAL_RANK[label]:
            raise InvalidRank(f"{label} has rank {EXCEPTIONAL_RANK[label]}")
    dim, raw, simple_coords = _raw_roots(label, rank)
    coords = tuple(sorted(raw))
    at = {c: i for i, c in enumerate(coords)}
    # doubled coordinates of a sum of two roots lie in [-8, 8], so these
    # base-32 keys add like the vectors they encode
    weights = [32**k for k in range(dim)]
    keys = [dot(c, weights) for c in coords]
    by_key = {key: i for i, key in enumerate(keys)}
    add = tuple(array("h", [by_key.get(ki + kj, -1) for kj in keys]) for ki in keys)
    neg = array("h", [by_key[-key] for key in keys])
    norm = array("h", [dot(c, c) for c in coords])
    simple_idx = tuple(at[s] for s in simple_coords)
    refl = []
    for k in simple_idx:
        s, ks = coords[k], keys[k]
        image = [by_key[kr - 2 * dot(c, s) // norm[k] * ks] for c, kr in zip(coords, keys)]
        refl.append(array("h", image))
    # each positive root is a simple root plus simple roots added one at a
    # time through positive roots, so this search reaches exactly the positives
    expansions = [None] * len(coords)
    frontier = list(simple_idx)
    for k, s in enumerate(simple_idx):
        expansions[s] = tuple(int(j == k) for j in range(rank))
    while frontier:
        nxt = []
        for p in frontier:
            for k, s in enumerate(simple_idx):
                q = add[p][s]
                if q >= 0 and expansions[q] is None:
                    expansions[q] = tuple(c + (j == k) for j, c in enumerate(expansions[p]))
                    nxt.append(q)
        frontier = nxt
    positives = sorted((sum(expansions[i]), i) for i, e in enumerate(expansions) if e is not None)
    for _, p in positives:
        expansions[neg[p]] = tuple(-c for c in expansions[p])
    if 2 * len(positives) != len(coords) or None in expansions:
        raise NotARoot(f"the simple roots of {label}{rank} do not split the roots")
    is_positive = bytearray(len(coords))
    for _, p in positives:
        is_positive[p] = 1
    roots = tuple(map(halved, coords))
    return RootSystem(
        label=label,
        rank=rank,
        dim=dim,
        roots=roots,
        simples=tuple(roots[k] for k in simple_idx),
        positives=tuple(roots[p] for _, p in positives),
        coords=coords,
        at=at,
        neg=neg,
        add=add,
        refl=tuple(refl),
        norm=norm,
        height=array("h", [sum(e) for e in expansions]),
        expansions=tuple(expansions),
        positive_idx=tuple(p for _, p in positives),
        is_positive=bytes(is_positive),
        simple_idx=simple_idx,
    )


def check_dim(rs: RootSystem, v) -> Vec:
    """v as a Fraction vector; raises DimensionMismatch off the ambient space."""
    if len(v) != rs.dim:
        raise DimensionMismatch(f"expected dimension {rs.dim}, got {len(v)}")
    return tuple(Fraction(x) for x in v)


def minimal_root_index(rs: RootSystem) -> int:
    """Index of the minimal root."""
    if rs.label == "A1xA1":
        raise Reducible("A1xA1 has no single minimal root")
    # positives are sorted by height, and the highest root is unique
    return rs.neg[rs.positive_idx[-1]]


def minimal_root(rs: RootSystem) -> Vec:
    """The lowest root (negative of the highest root)."""
    return rs.roots[minimal_root_index(rs)]


def random_weyl_word(rs: RootSystem, rng, length: int) -> list[int]:
    """A Weyl word of `length` simple-root positions, each indexing `rs.refl`;
    the draws are those of `rng.choice(rs.simples)`."""
    return [rng.randrange(rs.rank) for _ in range(length)]


def pair_orbit(rs: RootSystem, pair: tuple[int, int]) -> set:
    """Diagonal Weyl orbit of an index pair, as a set of index pairs."""
    seen = {pair}
    frontier = [pair]
    while frontier:
        nxt = []
        for a, b in frontier:
            for perm in rs.refl:
                img = (perm[a], perm[b])
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def format_vec(v: Vec) -> list[str]:
    return [str(x) for x in v]


def parse_vec(entries) -> Vec:
    """A Fraction vector from "p/q" strings; a zero q is a ValueError."""
    try:
        return tuple(Fraction(e) for e in entries)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {entries}") from None
