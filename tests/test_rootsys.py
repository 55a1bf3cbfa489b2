import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from lieconformal import rootsys
from lieconformal.errors import DimensionMismatch, InvalidRank, NotARoot
from lieconformal.rootsys import (
    MAX_RANK,
    build,
    check_dim,
    coroot,
    dot,
    format_vec,
    minimal_root,
    pair_orbit,
    parse_vec,
    random_weyl_word,
    vec,
)
from conftest import dense_sums, positives, vadd, vsub
from test_linalg import gauss_jordan


def vneg(a):
    return tuple(-x for x in a)


def vscale(c, a):
    c = Fraction(c)
    return tuple(c * x for x in a)


def weyl_reflect(rs, mirror, v):
    """Reference: the reflection of a Fraction vector in a root mirror."""
    mirror, v = tuple(map(Fraction, mirror)), tuple(map(Fraction, v))
    if rs.index_of(mirror) < 0:
        raise NotARoot(f"mirror {mirror} is not a root")
    c = 2 * dot(v, mirror) / dot(mirror, mirror)
    return vsub(v, vscale(c, mirror))


def halved(v2):
    """The Fraction vector with doubled coordinates v2."""
    return tuple(Fraction(x, 2) for x in v2)


def orbit_rep(rs, pair):
    """Index pair of the lex-max member of the diagonal Weyl orbit of a
    vector pair, the representative `enumerate_case1` picks."""
    return max(pair_orbit(rs, tuple(rs.index_of(r) for r in pair)))


def find(rs, v2):
    """The key lookup `index_of` makes once the vector is doubled to v2."""
    return rs.by_key.get(rs.key(v2), -1)


def height(rs, r):
    return rs.height[rs.index_of(r)]


def is_root(rs, v):
    return rs.index_of(v) >= 0


def reflect_word(rs, word, v):
    for mirror in word:
        v = weyl_reflect(rs, mirror, v)
    return v


ROOT_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 7): 56,
    ("B", 2): 8, ("B", 3): 18, ("B", 8): 128,
    ("C", 3): 18, ("C", 8): 128,
    ("D", 4): 24, ("D", 8): 112,
    ("G2", 2): 12, ("F4", 4): 48,
    ("E6", 6): 72, ("E7", 7): 126, ("E8", 8): 240,
}


@pytest.mark.parametrize("label,rank", sorted(ROOT_COUNTS))
def test_root_counts(label, rank):
    """Root cardinality matches the classical count for each type."""
    rs = build(label, rank)
    assert len(rs.roots) == ROOT_COUNTS[(label, rank)]
    assert len(rs.positive_idx) == len(rs.roots) // 2
    assert len(rs.simples) == rank


@pytest.mark.parametrize("label,rank", sorted(ROOT_COUNTS))
def test_roots_closed_under_negation(label, rank):
    rs = build(label, rank)
    for r in rs.roots:
        assert is_root(rs, vneg(r))


@pytest.mark.parametrize("label,rank", sorted(ROOT_COUNTS))
def test_minimal_root_property(label, rank):
    """Subtracting any positive root from the minimal root leaves the system."""
    rs = build(label, rank)
    low = minimal_root(rs)
    assert is_root(rs, low)
    for p in positives(rs):
        assert not is_root(rs, vsub(low, p))


@pytest.mark.parametrize("label,rank", sorted(ROOT_COUNTS))
def test_expansions_are_integral_and_one_signed(label, rank):
    """Every root is an all-nonnegative or all-nonpositive integer combination of simples."""
    rs = build(label, rank)
    for r, coeffs in zip(rs.roots, rs.expansions):
        assert all(isinstance(c, int) for c in coeffs)
        signs = {1 if c > 0 else -1 for c in coeffs if c != 0}
        assert len(signs) == 1
        recon = vec(*([0] * rs.dim))
        for c, s in zip(coeffs, rs.simples):
            recon = vadd(recon, tuple(c * x for x in s))
        assert recon == r


def test_positives_sorted_by_height_then_lex():
    rs = build("F4", 4)
    keys = [(height(rs, p), p) for p in positives(rs)]
    assert keys == sorted(keys)
    assert positives(rs)[:4] == tuple(sorted(rs.simples, reverse=True)[::-1]) or set(
        positives(rs)[:4]
    ) == set(rs.simples)


def test_weyl_reflect_permutes_roots():
    rs = build("D", 4)
    for s in rs.simples:
        image = {weyl_reflect(rs, s, r) for r in rs.roots}
        assert image == set(rs.roots)


def test_reflect_fixes_orthogonal():
    rs = build("B", 3)
    a = vec(1, -1, 0)
    b = vec(0, 0, 1)
    assert weyl_reflect(rs, a, b) == b
    assert weyl_reflect(rs, a, a) == vneg(a)


def test_coroot_values():
    assert coroot(vec(1, -1, 0)) == vec(1, -1, 0)
    assert coroot(vec(0, 0, 1)) == vec(0, 0, 2)
    assert dot(coroot(vec(2, 0)), vec(2, 0)) == 2


def test_is_root_and_errors():
    rs = build("B", 2)
    assert is_root(rs, vec(1, 1))
    assert not is_root(rs, vec(2, 0))
    assert not is_root(rs, vec(Fraction(1, 3), 1))
    with pytest.raises(NotARoot):
        weyl_reflect(rs, vec(2, 0), vec(1, 1))


def test_invalid_rank():
    """A series below its least rank, an exceptional system at another rank
    and an unknown label at any rank each name their fault."""
    for label, rank, message in [
        ("A", 0, "A series needs rank >= 1"),
        ("B", 1, "B series needs rank >= 2"),
        ("C", 1, "C series needs rank >= 2"),
        ("D", 2, "D series needs rank >= 3"),
        ("E8", 7, "E8 has rank 8"),
        ("Z", 3, "unknown series label 'Z'"),
        ("Z", -1, "unknown series label 'Z'"),
    ]:
        with pytest.raises(InvalidRank, match=f"^{re.escape(message)}$"):
            build(label, rank)


def test_build_rejects_simple_roots_that_do_not_split(monkeypatch):
    """Two roots of A2 that are no base, e1 - e2 and e1 - e3, still reach
    every root by reflections, but e2 - e3 has a mixed-sign expansion in
    them: the orbit pass refuses them."""
    monkeypatch.setattr(rootsys, "_simple_roots", lambda label, rank: (3, [(2, -2, 0), (2, 0, -2)]))
    with pytest.raises(NotARoot):
        build.__wrapped__("A", 2)  # past the cache, which holds the true A2


def test_rank_bound():
    """Ranks up to MAX_RANK build (the stress range reaches 16); one more is
    refused before any table is built."""
    assert MAX_RANK >= 16
    assert len(build("A", MAX_RANK).roots) == MAX_RANK * (MAX_RANK + 1)
    with pytest.raises(InvalidRank):
        build("A", MAX_RANK + 1)


def test_g2_simple_roots():
    rs = build("G2", 2)
    assert rs.simples == (vec(1, -1, 0), vec(-2, 1, 1))
    assert all(sum(r) == 0 for r in rs.roots)


def test_orbit_rep_is_weyl_invariant():
    """Every pair in a diagonal Weyl orbit has the same lex-max representative."""
    import random

    rng = random.Random(7)
    rs = build("C", 3)
    pair = (vec(1, 1, 0), vec(1, -1, 0))
    rep = orbit_rep(rs, pair)
    for _ in range(25):
        word = [rs.simples[k] for k in random_weyl_word(rs, rng, rng.randint(1, 8))]
        moved = tuple(reflect_word(rs, word, r) for r in pair)
        assert orbit_rep(rs, moved) == rep


def test_random_weyl_word_draws_like_choice():
    """A seeded word names, position by position, the simple roots that
    rng.choice(rs.simples) draws from the same seed."""
    import random

    for label, rank in [("A", 1), ("A1xA1", 2), ("C", 3), ("F4", 4), ("E6", 6), ("E8", 8)]:
        rs = build(label, rank)
        ours, theirs = random.Random(17), random.Random(17)
        for length in (0, 1, 6, 12):
            word = random_weyl_word(rs, ours, length)
            assert all(type(k) is int for k in word)
            assert [rs.simples[k] for k in word] == [theirs.choice(rs.simples) for _ in word]


def test_f4_displayed_pairs_share_one_orbit():
    """Both classical F4 candidate pairs reduce to the same canonical pair."""
    rs = build("F4", 4)
    h = Fraction(1, 2)
    p1 = (vec(1, 0, 0, 0), vec(0, 1, 0, 0))
    p2 = ((h, h, -h, -h), (h, h, h, h))
    assert orbit_rep(rs, p1) == orbit_rep(rs, p2)


def test_check_dim_returns_doubled_coordinates():
    """`check_dim` reads a vector onto doubled coordinates: its Fraction,
    int, float and string spellings give the same tuple, of ints where
    integral; an entry off the half-integers stays a Fraction; a wrong
    length is refused with its count, but only after `doubled` has
    refused an invalid entry."""
    rs = build("B", 3)
    for v2, spellings in [
        ((2, 0, -6), ([1, 0, -3], (1.0, 0.0, -3.0), ("1", "-0", "-6/2"))),
        ((1, 0, -6), ([Fraction(1, 2), 0, -3], (0.5, 0, -3.0), ("1/2", "0", "-3"))),
    ]:
        for v in (halved(v2), *spellings):
            got = check_dim(rs, v)
            assert got == v2 and type(got) is tuple and all(type(x) is int for x in got)
    got = check_dim(rs, ("1/3", 0.25, Fraction(5, 6)))
    assert got == (Fraction(2, 3), Fraction(1, 2), Fraction(5, 3))
    assert all(type(x) is Fraction for x in got)
    with pytest.raises(DimensionMismatch, match="expected dimension 3, got 2"):
        check_dim(rs, ["1/2", "0"])
    with pytest.raises(ValueError, match="Invalid literal") as exc:
        check_dim(rs, ["1/2", "x"])
    assert type(exc.value) is ValueError


def rational_corpus(rng) -> list:
    """Seeded in-grammar rational strings: signs, leading zeros, -0,
    reducible p/q, denominators 1 and 2, and numerators up to the
    4,300-digit limit of int's string conversion."""
    corpus = ["0", "-0", "+0", "007", "-007/014", "+3/6", "0/7", "-0/3", "4/2", "-6/4", "5/1"]
    for _ in range(400):
        num = "0" * rng.randrange(3) + str(rng.randrange(10 ** rng.randrange(1, 40)))
        den = rng.choice([None, "1", "2", "02", str(rng.randrange(1, 10 ** rng.randrange(1, 25)))])
        corpus.append(rng.choice(["", "+", "-"]) + num + ("" if den is None else "/" + den))
    for digits in (4298, 4299, 4300):
        corpus += ["9" * digits, "-" + "1" * digits + "/2", "+" + "7" * digits + "/" + "6" * digits]
    return corpus


def test_doubled_reads_rationals_as_fraction_does():
    """On in-grammar strings, JSON ints and floats, `doubled` gives the
    doubled value of Fraction(entry), an int exactly where it is integral,
    and `parse_vec` gives the Fractions themselves."""
    corpus = rational_corpus(random.Random(3838))
    corpus += [0, -5, 12345678901234567890, 0.5, -0.0, 1e-3, 2.0, -7.75, 1e20]
    for e in corpus:
        (got,) = rootsys.doubled([e])
        want = 2 * Fraction(e)
        assert got == want and type(got) is (int if want.denominator == 1 else Fraction)
    parsed = parse_vec(corpus)
    assert parsed == tuple(Fraction(e) for e in corpus)
    assert all(type(x) is Fraction for x in parsed)


@pytest.mark.parametrize("entry", [
    "1_0", "0.5", " 1", "1 ", "1\n", "1e3", "\u0661", "\uff11", "", "1/", "/2", "+", "--1",
    "1/-2", "1/2/3", "inf", "nan", "0x10",
])
def test_doubled_refuses_strings_outside_the_grammar(entry):
    """Any string but an optional sign, ASCII digits and an optional "/" and
    digits is a ValueError naming the entry, whatever Fraction accepts."""
    with pytest.raises(ValueError, match=re.escape(f"Invalid literal for Fraction: {entry!r}")):
        rootsys.doubled(["0", entry])


def test_parse_vec_keeps_the_messages_for_bad_numbers():
    """A zero denominator names the vector, and an infinite or NaN float
    keeps Fraction's message."""
    with pytest.raises(ValueError, match=re.escape("zero denominator in ['1', '-3/00']")):
        parse_vec(["1", "-3/00"])
    with pytest.raises(ValueError, match="cannot convert Infinity to integer ratio"):
        parse_vec([float("inf")])
    with pytest.raises(ValueError, match="cannot convert NaN to integer ratio"):
        parse_vec(["1", float("nan")])


def test_parse_format_roundtrip():
    v = (Fraction(1, 2), Fraction(-3), Fraction(0))
    assert parse_vec(format_vec(v)) == v
    assert format_vec(v) == ["1/2", "-3", "0"]


# every system that classify --max-rank 8 builds
CLASSIFY_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8), ("A1xA1", 2)]
)

HALF = Fraction(1, 2)


def basis_vec(dim, i, c=1):
    v = [Fraction(0)] * dim
    v[i] = Fraction(c)
    return tuple(v)


def vector_raw_roots(label, n):
    """Reference: ambient dimension, roots and simple roots built as
    Fraction vectors, independently of the integer construction in `build`."""

    def pm_pairs(dim):
        return [
            vadd(vscale(si, basis_vec(dim, i)), vscale(sj, basis_vec(dim, j)))
            for i, j in combinations(range(dim), 2)
            for si, sj in product((1, -1), repeat=2)
        ]

    def chain(dim, count):
        return [vsub(basis_vec(dim, i), basis_vec(dim, i + 1)) for i in range(count)]

    if label == "A":
        dim = n + 1
        roots = [
            vsub(basis_vec(dim, i), basis_vec(dim, j))
            for i in range(dim)
            for j in range(dim)
            if i != j
        ]
        return dim, roots, chain(dim, n)
    if label in ("B", "C"):
        c = 1 if label == "B" else 2
        roots = [vscale(c * s, basis_vec(n, i)) for i in range(n) for s in (1, -1)]
        return n, roots + pm_pairs(n), chain(n, n - 1) + [basis_vec(n, n - 1, c)]
    if label == "D":
        simples = chain(n, n - 1) + [vadd(basis_vec(n, n - 2), basis_vec(n, n - 1))]
        return n, pm_pairs(n), simples
    if label == "G2":
        roots = []
        for i, j in combinations(range(3), 2):
            d = vsub(basis_vec(3, i), basis_vec(3, j))
            roots.extend([d, vneg(d)])
        for i in range(3):
            j, k = [m for m in range(3) if m != i]
            long = vsub(vscale(2, basis_vec(3, i)), vadd(basis_vec(3, j), basis_vec(3, k)))
            roots.extend([long, vneg(long)])
        return 3, roots, [vec(1, -1, 0), vec(-2, 1, 1)]
    if label == "F4":
        roots = [vscale(s, basis_vec(4, i)) for i in range(4) for s in (1, -1)] + pm_pairs(4)
        roots += [tuple(HALF * s for s in signs) for signs in product((1, -1), repeat=4)]
        simples = [vec(0, 1, -1, 0), vec(0, 0, 1, -1), vec(0, 0, 0, 1)]
        return 4, roots, simples + [(HALF, -HALF, -HALF, -HALF)]
    if label in ("E6", "E7", "E8"):
        roots = pm_pairs(8) + [
            tuple(HALF * s for s in signs)
            for signs in product((1, -1), repeat=8)
            if signs.count(-1) % 2 == 0
        ]
        simples = [(HALF,) + (-HALF,) * 6 + (HALF,), vec(1, 1, 0, 0, 0, 0, 0, 0)]
        simples += [vsub(basis_vec(8, i + 1), basis_vec(8, i)) for i in range(6)]
        if label == "E7":
            roots = [r for r in roots if r[6] == -r[7]]
        elif label == "E6":
            roots = [r for r in roots if r[5] == r[6] == -r[7]]
        return 8, roots, simples[:n]
    assert label == "A1xA1"
    roots = [vec(1, -1, 0, 0), vec(-1, 1, 0, 0), vec(0, 0, 1, -1), vec(0, 0, -1, 1)]
    return 4, roots, [roots[0], roots[2]]


def doubled_ints(v):
    """The integer coordinates of 2v."""
    out = [divmod(2 * x.numerator, x.denominator) for x in v]
    assert not any(rem for _, rem in out), v
    return tuple(q for q, _ in out)


def vector_expansions(simples, roots):
    """Reference: simple-root expansion of every root, from one exact inverse
    of the Gram matrix of the simple roots, scaled to integers so that each
    root costs integer arithmetic only."""
    k = len(simples)
    gram = [
        tuple(dot(a, b) for b in simples) + tuple(Fraction(int(i == j)) for j in range(k))
        for i, a in enumerate(simples)
    ]
    red, _ = gauss_jordan(gram, 2 * k)
    den = lcm(*(x.denominator for row in red for x in row[k:]))
    inverse = [[int(x * den) for x in row[k:]] for row in red]
    simples2 = [doubled_ints(s) for s in simples]
    out = {}
    for r in roots:
        r2 = doubled_ints(r)
        # on doubled coordinates each projection is 4 <s, r>
        proj = [dot(s, r2) for s in simples2]
        coeffs = []
        for row in inverse:
            c, rem = divmod(dot(row, proj), 4 * den)
            assert rem == 0, r
            coeffs.append(c)
        recon = tuple(dot(coeffs, column) for column in zip(*simples2))
        assert recon == r2, r
        assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs), r
        out[r] = tuple(coeffs)
    return out


def sum_pairs(row) -> list:
    """The (j, t) pairs of a flat sum row, sorted."""
    pairs = iter(row)
    return sorted(zip(pairs, pairs))


@pytest.mark.parametrize(
    "label,rank", CLASSIFY_SYSTEMS + [(label, n) for label in "ABCD" for n in (12, 16)]
)
def test_root_core_matches_vector_ops(label, rank):
    """Every integer table of `build` agrees with the Fraction-vector
    construction, with vadd / vneg on vectors and with the reflection
    formula on coordinates; past rank 8 the sum rows, |Φ|² vector sums,
    are left out, to keep the test fast."""
    rs = build(label, rank)
    dim, vroots, vsimples = vector_raw_roots(label, rank)
    roots = tuple(sorted(vroots))
    expansions = vector_expansions(vsimples, roots)
    roots2 = [doubled_ints(r) for r in roots]
    simples2 = [doubled_ints(s) for s in vsimples]
    by_height = sorted(
        (sum(expansions[r]), r) for r in roots if all(c >= 0 for c in expansions[r])
    )
    assert rs.dim == dim
    assert rs.roots == roots
    assert all(repr(a) == repr(b) for a, b in zip(rs.roots, roots))
    assert rs.simples == tuple(vsimples)
    index = {r: i for i, r in enumerate(roots)}
    positive_set = {r for _, r in by_height}
    assert [roots[i] for i in rs.positive_idx] == [r for _, r in by_height]
    assert [roots[i] for i in rs.simple_idx] == list(rs.simples)
    for i, r in enumerate(roots):
        assert tuple(Fraction(x, 2) for x in rs.coords[i]) == r
        assert find(rs, rs.coords[i]) == rs.index_of(r) == i
        assert roots[rs.neg[i]] == vneg(r)
        assert rs.norm[i] == 4 * dot(r, r)
        assert rs.expansions[i] == expansions[r]
        assert rs.height[i] == sum(expansions[r])
        assert bool(rs.is_positive[i]) == (r in positive_set)
        if rank <= 8:
            totals = (index.get(vadd(r, s), -1) for s in roots)
            assert sum_pairs(rs.sums[i]) == [(j, t) for j, t in enumerate(totals) if t >= 0]
        for k, m in enumerate(simples2):
            c, rem = divmod(2 * dot(roots2[i], m), dot(m, m))
            assert rem == 0
            assert roots2[rs.refl[k][i]] == tuple(x - c * y for x, y in zip(roots2[i], m))


# every system up to rank 16, and the largest classical ones
KEY_SYSTEMS = (
    [("A", n) for n in range(1, 17)]
    + [(label, n) for label in "BC" for n in range(2, 17)]
    + [("D", n) for n in range(3, 17)]
    + [("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8), ("A1xA1", 2)]
    + [("B", 32), ("C", 32), ("D", 32)]
)


@pytest.mark.parametrize("label,rank", KEY_SYSTEMS)
def test_sum_rows_match_vector_sums(label, rank):
    """The sparse row `sums[i]` holds every (j, t) with root i + root j =
    root t, each once.  Up to rank 16 every row equals the dense oracle of
    tuple sums.  At rank 32, where that oracle is millions of sums, every
    entry is checked by tuple addition, a seeded sample of rows for
    completeness, and the row of refl[k][i] against the image of row i
    under refl[k] for every k and i, as Weyl equivariance asks."""
    rs = build(label, rank)
    coords = rs.coords
    rows = [sum_pairs(row) for row in rs.sums]
    if rank <= 16:
        assert rows == [[(j, t) for j, t in enumerate(d) if t >= 0] for d in dense_sums(rs)]
        return
    for i, row in enumerate(rows):
        assert all(tuple(map(add, coords[i], coords[j])) == coords[t] for j, t in row)
    index = {c: i for i, c in enumerate(coords)}
    for i in random.Random(26).sample(range(len(coords)), 32):
        totals = (index.get(tuple(map(add, coords[i], c)), -1) for c in coords)
        assert rows[i] == [(j, t) for j, t in enumerate(totals) if t >= 0]
    for perm in rs.refl:
        for i, row in enumerate(rs.sums):
            assert sum_pairs(map(perm.__getitem__, row)) == rows[perm[i]]


@given(data=st.data())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_sum_rows_and_pair_orbits_are_weyl_closed(data):
    """On a drawn system up to rank 8: for every root i and simple k, the sum
    row of refl[k][i] is the row of i mapped through refl[k], as sets of
    pairs; and the `pair_orbit` orbit of a drawn index pair is closed under
    every simple reflection."""
    rs = build(*data.draw(st.sampled_from(CLASSIFY_SYSTEMS)))
    rows = [set(sum_pairs(row)) for row in rs.sums]
    for perm in rs.refl:
        for i, row in enumerate(rs.sums):
            assert set(sum_pairs(map(perm.__getitem__, row))) == rows[perm[i]]
    index = st.integers(0, len(rs.coords) - 1)
    orbit = pair_orbit(rs, (data.draw(index), data.draw(index)))
    assert all((perm[a], perm[b]) in orbit for perm in rs.refl for a, b in orbit)


@pytest.mark.parametrize("label,rank", KEY_SYSTEMS)
def test_find_matches_tuple_lookup(label, rank):
    """`index_of`'s key lookup agrees with a tuple-keyed dict on every root and
    on every sum of two roots, which, as the roots are closed under
    negation, are also every difference; at rank 32, where that is millions
    of sums, on every root plus or minus each simple root.  Vectors off the
    key box find nothing: an entry of +-9, +-16 or a Fraction, one entry
    short or long (a short vector has the key of the zero-padded one), and
    r + 32 e_k - e_(k+1), whose raw key is that of the root r."""
    rs = build(label, rank)
    coords, dim = rs.coords, rs.dim
    oracle = {c: i for i, c in enumerate(coords)}
    assert all(find(rs, c) == i for c, i in oracle.items())
    if rank <= 16:
        partners = [coords[j:] for j in range(len(coords))]
    else:
        simples = [coords[k] for k in rs.simple_idx] + [coords[rs.neg[k]] for k in rs.simple_idx]
        partners = [simples] * len(coords)
    sums = {tuple(map(add, r, s)) for r, ss in zip(coords, partners) for s in ss}
    assert all(find(rs, v) == oracle.get(v, -1) for v in sums)
    for i, r in enumerate(coords):
        k = min(i % dim, dim - 2)
        for x in (9, -9, 16, -16, Fraction(1, 3)):
            assert find(rs, r[:k] + (x,) + r[k + 1 :]) == -1
        alias = r[:k] + (r[k] + 32, r[k + 1] - 1) + r[k + 2 :]
        assert rootsys._key(alias) == rs.keys[i] and find(rs, alias) == -1
        assert find(rs, r[:-1]) == find(rs, r + (0,)) == -1
