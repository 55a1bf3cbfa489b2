"""Canonical root systems as integer root tables.

Every system is realised in a fixed ambient Q^dim: the A series in the
sum-zero hyperplane of Q^(n+1), B/C/D in Q^n, G2 in the sum-zero
hyperplane of Q^3, F4 in Q^4 and the E series inside Q^8.  A system is
given by its canonical simple roots alone: every root is a simple root
moved by simple reflections, so one orbit pass makes the roots, the
reflection tables `refl` and the simple-root expansions.  The explicit
root lists of each series live in the tests, as the independent reference.
Roots are held on doubled coordinates (2r), so the half-integral F4/E roots
become ints, and root i is the i-th in the lexicographic order of those
coordinates.  Positivity is read off the expansion in the simple roots.

A root is found by its base-32 key, the sum of v2[k] * 32**k over its
doubled coordinates v2: `index_of` looks the key up in `by_key`.  Keys add
like the vectors, so delta - r and delta - w_i - w_j are found as
`kd - keys[r]` and `kd - w_i - w_j` from the key kd of delta, with no
coordinate tuple.  Only vectors in the key box have a key: `dim` int
entries, each in [-8, 8], which holds every root (in [-4, 4]) and every
sum or difference of two roots.  A vector off the box matches no root.
Equal keys mean equal vectors: two int vectors whose entries differ by
less than 32 have equal keys only if they are equal (their lowest
differing entry would be a multiple of 32), and every lookup compares a
root with a vector in [-20, 20] (at most, the end eta - 4 xi of a root
string in `chevalley`), so their entries differ by at most 24.

Root addition is sparse: `sums[i]` holds the (j, t) pairs with root i +
root j = root t, unsorted, and `_sum_rows` moves one row per Weyl orbit
through `refl`, so no |Phi|^2 table is built; a lone sum is looked up by key.

Every layer, `classify`'s candidates included, works on root indices.
Fraction vectors appear only in verdicts, messages and input
`Distortion`s, through the `roots` and `simples` views and the vector
helpers below; a config vector enters through `doubled`, the one edge
parser, straight onto doubled coordinates.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DimensionMismatch, InvalidRank, NotARoot, Reducible

Vec = tuple[Fraction, ...]

# the least rank of each series and the rank of each other system, in `classify` order
SERIES_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
EXCEPTIONAL_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8, "A1xA1": 2}

# the largest rank built: B32 and C32 have 2,048 roots, and their dense
# structure-constants table of |Phi|^2 bytes (4 MB, growing as the fourth
# power of the rank) is the largest table of a system
MAX_RANK = 32


def vec(*entries) -> Vec:
    return tuple(Fraction(e) for e in entries)


def coroot(r: Vec) -> Vec:
    c = Fraction(2) / dot(r, r)
    return tuple(c * x for x in r)


def doubled(v) -> tuple:
    """Coordinates of 2v, as ints where integral: every root maps to ints.
    This is the one edge parser of config vectors: an entry is a number,
    read exactly as Fraction reads it, or an ASCII string of an optional
    sign, digits and an optional "/" and digits.  Any other string, a zero
    denominator or an infinite float is a ValueError."""
    out = []
    try:
        for x in v:
            if type(x) is str:
                num, slash, den = x.partition("/")
                digits = num[1:] if num[:1] in "+-" else num
                if not (x.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
                    raise ValueError(f"Invalid literal for Fraction: {x!r}")
                out.append(ratio(2 * int(num), int(den or 1)))
            else:  # a number's ratio is in lowest terms
                n, d = x.as_integer_ratio()
                out.append(2 * n if d == 1 else n if d == 2 else Fraction(2 * n, d))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {v}") from None
    except OverflowError as exc:  # an infinite float, such as JSON's 1e400
        raise ValueError(str(exc)) from None
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

    Every table is indexed by root index; `roots` and `simples` are the
    same roots as Fraction vectors.  A system compares by identity: `build`
    caches, so each (label, rank) is one object.
    """

    label: str
    rank: int
    dim: int
    roots: tuple[Vec, ...]
    simples: tuple[Vec, ...]
    coords: tuple  # doubled coordinates of root i
    keys: tuple  # base-32 key of coords[i], in the key box
    by_key: dict  # key -> i, the one way to find a root
    neg: array  # index of -root i
    sums: tuple  # sums[i]: flat (j, index of root i + root j) pairs, unsorted
    refl: tuple  # refl[k][i]: root i reflected in simple root k
    norm: array  # squared norm of the doubled root, 4 |r|^2
    height: array
    expansions: tuple  # integer simple-root expansion of root i
    positive_idx: tuple  # indices of the positive roots, by height, then lex
    is_positive: bytes
    simple_idx: tuple  # indices of `simples`

    def __repr__(self):
        return f"RootSystem({self.label}, rank={self.rank}, {len(self.roots)} roots)"

    def key(self, v2):
        """Base-32 key of the doubled coordinates v2, or None when v2 is off
        the key box (not `dim` int entries in [-8, 8])."""
        if len(v2) != self.dim or not all(type(x) is int and -8 <= x <= 8 for x in v2):
            return None
        return _key(v2)

    def index_of(self, v) -> int:
        """Index of the root vector v, or -1 when v is not a root."""
        return self.by_key.get(self.key(doubled(v)), -1)


def _key(v2) -> int:
    """The sum of v2[k] * 32**k."""
    key = 0
    for x in reversed(v2):
        key = 32 * key + x
    return key


def _chain(n: int) -> list:
    """Doubled coordinates of e_i - e_(i+1), i < n - 1."""
    return [
        tuple(2 if k == i else -2 if k == i + 1 else 0 for k in range(n)) for i in range(n - 1)
    ]


def _simple_roots(label: str, n: int) -> tuple[int, list]:
    """Ambient dimension and the canonical simple roots of rank n, on doubled coordinates."""
    if label in SERIES_MIN_RANK and n < SERIES_MIN_RANK[label]:
        raise InvalidRank(f"{label} series needs rank >= {SERIES_MIN_RANK[label]}")
    if label == "A":
        return n + 1, _chain(n + 1)
    if label == "B":
        return n, _chain(n) + [(0,) * (n - 1) + (2,)]
    if label == "C":
        return n, _chain(n) + [(0,) * (n - 1) + (4,)]
    if label == "D":
        return n, _chain(n) + [(0,) * (n - 2) + (2, 2)]
    if label == "G2":
        return 3, [(2, -2, 0), (-4, 2, 2)]
    if label == "F4":
        return 4, [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    if label in ("E6", "E7", "E8"):
        simples = [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0)]
        simples += [tuple(-x for x in c) for c in _chain(8)[:6]]
        # E6 and E7 are the subsystems of E8 on its first 6 or 7 simple roots
        return 8, simples[:n]
    if label == "A1xA1":
        return 4, [(2, -2, 0, 0), (0, 0, 2, -2)]
    raise InvalidRank(f"unknown series label {label!r}")


def _sum_rows(keys, by_key, refl) -> tuple:
    """The sparse sum row of every root: flat (j, t) pairs, root i + root j
    = root t.  Root addition is Weyl-equivariant, w(a) + w(b) = w(a + b),
    and each simple reflection permutes the roots, so the row of perm[b]
    is the row of b with both entries of each pair moved by perm.  One row
    per Weyl orbit (per root length, per factor of A1xA1) is found by key
    lookups, and a pass over `refl` moves it onto the rest of its orbit."""
    rows = [None] * len(keys)
    perms = [list(perm) for perm in refl]  # list items need no boxing, unlike array items
    for seed, ks in enumerate(keys):
        if rows[seed] is not None:
            continue
        row = rows[seed] = array("h")
        for j, t in enumerate(map(by_key.get, [ks + kj for kj in keys])):
            if t is not None:
                row.append(j)
                row.append(t)
        work = [seed]
        while work:
            b = work.pop()
            for perm in perms:
                c = perm[b]
                if rows[c] is None:
                    rows[c] = array("h", map(perm.__getitem__, rows[b]))
                    work.append(c)
    return tuple(rows)


# doubled coordinates of roots lie in [-4, 4], of their sums and differences in [-8, 8]
_HALF = {x: Fraction(x, 2) for x in range(-8, 9)}


def halved(v2) -> Vec:
    """The Fraction vector with doubled coordinates v2: from the table for
    ints in [-8, 8], exactly for any other int or Fraction entry."""
    return tuple(_HALF[x] if x in _HALF else Fraction(x, 2) for x in v2)


@lru_cache(maxsize=None)
def build(label: str, rank: int) -> RootSystem:
    """Construct the canonical root system for (label, rank)."""
    if rank > MAX_RANK:
        raise InvalidRank(f"rank {rank} exceeds the maximum rank {MAX_RANK}")
    if label in EXCEPTIONAL_RANK and rank != EXCEPTIONAL_RANK[label]:
        raise InvalidRank(f"{label} has rank {EXCEPTIONAL_RANK[label]}")
    dim, simple_coords = _simple_roots(label, rank)
    simple_keys = list(map(_key, simple_coords))
    # cartan[k][j] = <simple k, coroot of simple j>
    cartan = [[2 * dot(a, s) // dot(s, s) for s in simple_coords] for a in simple_coords]
    # one orbit pass: the simple reflections move the simple roots onto
    # every root (Humphreys, Lie Algebras, 10.3), and root b reflects in
    # simple root k to b - <b, coroot k> simple k; roots are numbered in
    # the order found until the sort below
    found = {key: k for k, key in enumerate(simple_keys)}
    raw, keys, cartans = list(simple_coords), list(simple_keys), list(cartan)
    expansions = [tuple(int(j == k) for j in range(rank)) for k in range(rank)]
    images = [[] for _ in range(rank)]
    b = 0
    while b < len(raw):
        for k, image in enumerate(images):
            c = cartans[b][k]
            key = keys[b] - c * simple_keys[k]
            i = found.setdefault(key, len(raw))
            if i == len(raw):
                raw.append(tuple(x - c * y for x, y in zip(raw[b], simple_coords[k])))
                keys.append(key)
                cartans.append([x - c * y for x, y in zip(cartans[b], cartan[k])])
                expansion = list(expansions[b])
                expansion[k] -= c
                expansions.append(tuple(expansion))
            image.append(i)
        b += 1
    order = sorted(range(len(raw)), key=raw.__getitem__)
    index = {b: i for i, b in enumerate(order)}
    coords = tuple(raw[b] for b in order)
    keys = tuple(keys[b] for b in order)
    by_key = {key: i for i, key in enumerate(keys)}
    neg = array("h", [by_key[-key] for key in keys])
    norm = array("h", [dot(c, c) for c in coords])
    simple_idx = tuple(index[k] for k in range(rank))
    refl = tuple(array("h", [index[image[b]] for b in order]) for image in images)
    sums = _sum_rows(keys, by_key, refl)
    expansions = [expansions[b] for b in order]
    if any(min(e) < 0 < max(e) for e in expansions):
        raise NotARoot(f"the simple roots of {label}{rank} do not split the roots")
    positives = sorted((sum(e), i) for i, e in enumerate(expansions) if max(e) > 0)
    roots = tuple(map(halved, coords))
    return RootSystem(
        label=label,
        rank=rank,
        dim=dim,
        roots=roots,
        simples=tuple(roots[k] for k in simple_idx),
        coords=coords,
        keys=keys,
        by_key=by_key,
        neg=neg,
        sums=sums,
        refl=refl,
        norm=norm,
        height=array("h", [sum(e) for e in expansions]),
        expansions=tuple(expansions),
        positive_idx=tuple(p for _, p in positives),
        is_positive=bytes(max(e) > 0 for e in expansions),
        simple_idx=simple_idx,
    )


def check_dim(rs: RootSystem, v) -> Vec:
    """v as a Fraction vector (a tuple of Fractions is v itself); raises
    DimensionMismatch off the ambient space."""
    if len(v) != rs.dim:
        raise DimensionMismatch(f"expected dimension {rs.dim}, got {len(v)}")
    if type(v) is tuple and set(map(type, v)) == {Fraction}:
        return v
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
    """The Fraction vector of the rationals that `doubled` reads."""
    return halved(doubled(entries))
