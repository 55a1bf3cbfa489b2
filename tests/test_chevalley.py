import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from lieconformal.chevalley import (
    AlgebraElement,
    bracket,
    cached_constants,
    elem_e,
    elem_h,
    structure_constants,
)
from lieconformal.errors import DimensionMismatch, NotARoot, SystemMismatch
from lieconformal.rootsys import build, coroot, dot, doubled, vec
from conftest import dense_sums, vadd
from test_rootsys import CLASSIFY_SYSTEMS

EXHAUSTIVE = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4),
    ("G2", 2), ("F4", 4),
    ("A1xA1", 2),
]

# the simply-laced systems of the Frenkel-Kac check
SIMPLY_LACED = (
    [("A", n) for n in range(1, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E6", 6), ("E7", 7), ("E8", 8)]
)


def basis_elements(rs):
    elems = [elem_h(rs, coroot(s)) for s in rs.simples]
    elems += [elem_e(rs, r) for r in rs.roots]
    return elems


def jacobi_residual(sc, x, y, z):
    out = bracket(sc, x, bracket(sc, y, z))
    out = out.add(bracket(sc, y, bracket(sc, z, x)))
    return out.add(bracket(sc, z, bracket(sc, x, y)))


# ------------------------------------------------ vector reference bracket

@dataclass
class VectorElement:
    """Reference element: an ambient Cartan vector plus coefficients keyed
    by root vectors."""

    cartan: tuple
    coeffs: dict


@lru_cache(maxsize=None)
def vector_n_table(sc):
    """The nonzero constants keyed by pairs of root vectors."""
    roots = sc.system.roots
    return {
        (roots[x], roots[y]): n for x, row in enumerate(sc.table) for y, n in enumerate(row) if n
    }


def vector_bracket(sc, x: VectorElement, y: VectorElement) -> VectorElement:
    """Reference: the bracket on Fraction vectors, with a vector sum, an inner
    product and a coroot per term and vector-pair keys into the constants."""
    rs = sc.system
    n_table = vector_n_table(sc)
    cartan = [Fraction(0)] * rs.dim
    coeffs: dict = {}
    for r, c in y.coeffs.items():
        v = dot(r, x.cartan) * c
        if v != 0:
            coeffs[r] = coeffs.get(r, 0) + v
    for r, c in x.coeffs.items():
        v = dot(r, y.cartan) * c
        if v != 0:
            coeffs[r] = coeffs.get(r, 0) - v
    for r1, c1 in x.coeffs.items():
        for r2, c2 in y.coeffs.items():
            s = vadd(r1, r2)
            if not any(s):
                cartan = [a + c1 * c2 * b for a, b in zip(cartan, coroot(r1))]
            elif rs.index_of(s) >= 0:
                coeffs[s] = coeffs.get(s, 0) + c1 * c2 * n_table[(r1, r2)]
    return VectorElement(tuple(cartan), {r: c for r, c in coeffs.items() if c != 0})


def to_vector(elt: AlgebraElement) -> VectorElement:
    """The same element with root vectors as keys and an ambient Cartan part."""
    roots = elt.system.roots
    return VectorElement(
        tuple(Fraction(x, 2) for x in elt.cartan), {roots[r]: c for r, c in elt.coeffs.items()}
    )


def random_coeff(rng):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def random_element(rng, rs, roots):
    """An element on the given root indices with int or Fraction
    coefficients and, half the time, a Cartan part on doubled coordinates."""
    cartan = None
    if rng.random() < 0.5:
        cartan = tuple(
            rng.randint(-4, 4) if rng.random() < 0.5 else Fraction(rng.randint(-6, 6), 3)
            for _ in range(rs.dim)
        )
    return AlgebraElement(rs, cartan, {r: random_coeff(rng) for r in roots})


@pytest.mark.parametrize("label,rank", CLASSIFY_SYSTEMS)
def test_bracket_matches_vector_path(label, rank):
    """The index bracket equals the vector bracket on seeded random elements,
    once keys are mapped index to vector; half the pairs put -a in y for
    some root a of x, so [E_a, E_-a] is exercised."""
    sc = cached_constants(label, rank)
    rs = sc.system
    rng = random.Random(f"bracket {label}{rank}")
    opposite_pairs = 0
    for _ in range(40):
        xs = rng.sample(range(len(rs.roots)), min(4, len(rs.roots)))
        ys = rng.sample(range(len(rs.roots)), rng.randint(0, min(4, len(rs.roots))))
        if rng.random() < 0.5:
            ys.append(rs.neg[xs[0]])
        x, y = random_element(rng, rs, xs), random_element(rng, rs, ys)
        opposite_pairs += any(rs.neg[a] in y.coeffs for a in x.coeffs)
        assert to_vector(bracket(sc, x, y)) == vector_bracket(sc, to_vector(x), to_vector(y))
    assert opposite_pairs > 0


@pytest.mark.parametrize("label,rank", CLASSIFY_SYSTEMS)
def test_bracket_matches_vector_path_on_zero_and_cartan_parts(label, rank):
    """The index bracket equals the vector bracket when either side is the
    zero element, a pure-Cartan element with Fraction entries, or has a
    Cartan part spelled with Fraction(0) entries, which counts as zero: the
    result is the one of the int zero Cartan part, repr included."""
    sc = cached_constants(label, rank)
    rs = sc.system
    rng = random.Random(f"bracket zero {label}{rank}")
    fraction_zero = (Fraction(0),) * rs.dim

    def roots():
        return rng.sample(range(len(rs.roots)), rng.randint(1, min(4, len(rs.roots))))

    def pure_cartan():
        return AlgebraElement(rs, tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(rs.dim)))

    for _ in range(10):
        xs = roots()
        ys = roots() + [rs.neg[xs[0]]]
        coeffs = {r: random_coeff(rng) for r in xs}
        pool = [
            AlgebraElement(rs),
            AlgebraElement(rs, fraction_zero),
            AlgebraElement(rs, fraction_zero, coeffs),
            pure_cartan(),
            pure_cartan(),
            random_element(rng, rs, xs),
            random_element(rng, rs, ys),
        ]
        for x in pool:
            for y in pool:
                out = bracket(sc, x, y)
                assert to_vector(out) == vector_bracket(sc, to_vector(x), to_vector(y))
        zero = AlgebraElement(rs)
        for y in pool:
            assert bracket(sc, zero, y).is_zero() and bracket(sc, y, zero).is_zero()
        with_fraction_zero = AlgebraElement(rs, fraction_zero, coeffs)
        with_int_zero = AlgebraElement(rs, coeffs=coeffs)
        for y in pool:
            assert repr(bracket(sc, with_fraction_zero, y)) == repr(bracket(sc, with_int_zero, y))
            assert repr(bracket(sc, y, with_fraction_zero)) == repr(bracket(sc, y, with_int_zero))


PROPERTY_SYSTEMS = [("G2", 2), ("B", 3), ("C", 3), ("A", 4), ("F4", 4)]

coefficients = st.one_of(
    st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4).filter(lambda f: f.denominator > 1)
)


def draw_element(data, rs):
    """An element with up to four int or Fraction root coefficients and
    maybe a Cartan part on doubled coordinates."""
    roots = st.integers(0, len(rs.roots) - 1)
    coeffs = data.draw(st.dictionaries(roots, coefficients, max_size=4))
    cartan = data.draw(st.none() | st.tuples(*[coefficients] * rs.dim))
    return AlgebraElement(rs, cartan, coeffs)


def scaled(c, x):
    """c x, through the public constructor."""
    return AlgebraElement(
        x.system, tuple(c * v for v in x.cartan), {r: c * v for r, v in x.coeffs.items()}
    )


@given(data=st.data())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_bracket_is_a_lie_bracket(data):
    """On drawn elements with int and Fraction coefficients and Cartan
    parts, `bracket` is bilinear, antisymmetric and satisfies Jacobi
    exactly."""
    sc = cached_constants(*data.draw(st.sampled_from(PROPERTY_SYSTEMS)))
    rs = sc.system
    x, y, z = (draw_element(data, rs) for _ in range(3))
    c = data.draw(coefficients)
    assert bracket(sc, x.add(y), z) == bracket(sc, x, z).add(bracket(sc, y, z))
    assert bracket(sc, scaled(c, x), y) == scaled(c, bracket(sc, x, y))
    assert bracket(sc, x, y).add(bracket(sc, y, x)).is_zero()
    assert jacobi_residual(sc, x, y, z).is_zero()


def test_bracket_keeps_ints_and_drops_zeros():
    """Results of `bracket` and `add` skip `__init__`'s copy and filter, so
    they must keep its invariant themselves: int coefficients stay ints, no
    coefficient is zero, and a zero Cartan part is the zero dim-tuple."""
    sc = cached_constants("B", 3)
    rs = sc.system
    a, b, c = (rs.index_of(v) for v in (vec(1, -1, 0), vec(0, 1, 1), vec(0, 1, 0)))
    h = elem_h(rs, coroot(rs.simples[0]))
    x = AlgebraElement(rs, h.cartan, {a: 2, b: 3, rs.neg[a]: 1})
    y = AlgebraElement(rs, coeffs={b: 5, rs.neg[a]: -1, rs.neg[b]: 1})
    out = bracket(sc, x, y)
    assert out.coeffs and any(out.cartan)
    # type, not ==, tells 2 from Fraction(2)
    assert all(type(v) is int for v in out.coeffs.values())
    assert all(type(v) is int for v in out.cartan)
    # [x, x] cancels in the Cartan action, the root pairs and the coroots
    zero = bracket(sc, x, x)
    assert zero == AlgebraElement(rs) and not zero.coeffs
    assert zero.cartan == (0,) * rs.dim
    ec = elem_e(rs, rs.roots[c])
    partial = bracket(sc, x, x.add(ec))
    assert 0 not in partial.coeffs.values()
    assert partial == bracket(sc, x, ec) and partial.coeffs
    assert bracket(sc, elem_e(rs, rs.roots[a]), elem_e(rs, rs.roots[b])).cartan == (0,) * rs.dim
    assert x.add(scaled(-1, x)).is_zero()


# ------------------------------------------------ the constants table

def test_a2_sign_oracle():
    """N(e1-e2, e2-e3) = +1 in the fixed sign convention."""
    sc = cached_constants("A", 2)
    rs = sc.system
    assert sc.table[rs.index_of(vec(1, -1, 0))][rs.index_of(vec(0, 1, -1))] == 1


def test_antisymmetry_and_opposites():
    sc = cached_constants("B", 3)
    rs = sc.system
    dense = dense_sums(rs)
    for a, row in enumerate(sc.table):
        for b, n in enumerate(row):
            if not n:
                continue
            assert sc.table[b][a] == -n
            # N(-a,-b) = -N(a,b) in a Chevalley basis.
            if dense[rs.neg[a]][rs.neg[b]] >= 0:
                assert sc.table[rs.neg[a]][rs.neg[b]] == -n


def test_constants_are_nonzero_integers():
    sc = cached_constants("F4", 4)
    dense = dense_sums(sc.system)
    for a, row in enumerate(sc.table):
        for b, n in enumerate(row):
            assert isinstance(n, int)
            assert (n != 0) == (dense[a][b] >= 0)


def test_root_string_magnitudes():
    """|N(a,b)| = p+1 where p is the string length below b in direction a."""
    sc = cached_constants("G2", 2)
    rs = sc.system
    dense = dense_sums(rs)
    for a, row in enumerate(sc.table):
        for b, n in enumerate(row):
            if not n:
                continue
            p, cur = 0, dense[b][rs.neg[a]]
            while cur >= 0:
                p, cur = p + 1, dense[cur][rs.neg[a]]
            assert abs(n) == p + 1


@pytest.mark.parametrize("label,rank", EXHAUSTIVE)
def test_jacobi_exhaustive(label, rank):
    """Jacobi identity over every basis triple of the smaller systems."""
    sc = cached_constants(label, rank)
    elems = basis_elements(sc.system)
    for i, x in enumerate(elems):
        for j in range(i + 1, len(elems)):
            for k in range(j + 1, len(elems)):
                assert jacobi_residual(sc, x, elems[j], elems[k]).is_zero()


@pytest.mark.parametrize("label,rank,trials", [
    ("E6", 6, 4000), ("E7", 7, 4000), ("E8", 8, 4000),
])
def test_jacobi_sampled_exceptional(label, rank, trials):
    """Seeded random Jacobi triples for the large exceptional systems."""
    sc = cached_constants(label, rank)
    elems = basis_elements(sc.system)
    rng = random.Random(20240801 + rank)
    for _ in range(trials):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert jacobi_residual(sc, x, y, z).is_zero()


def test_determinism_across_regeneration():
    """Rebuilding from scratch reproduces the cached table bit for bit."""
    rs = build("F4", 4)
    fresh = structure_constants(rs)
    assert fresh.table == cached_constants("F4", 4).table
    again = structure_constants(build("F4", 4))
    assert again.table == fresh.table


def frenkel_kac_eps(rs):
    """eps(x, y) as the bit 0 or 1 of the sign +1 or -1: the bimultiplicative
    sign of the root lattice with eps(a_i, a_j) = -1 for i = j, and for
    i < j when the simple roots a_i and a_j are joined in the Dynkin
    diagram (Kac, Infinite-dimensional Lie algebras, 7.8)."""
    coords, simples = rs.coords, rs.simple_idx
    rank = len(simples)
    joined = lambda i, j: dot(coords[simples[i]], coords[simples[j]]) != 0
    odd = [[i == j or (i < j and joined(i, j)) for j in range(rank)] for i in range(rank)]
    # bimultiplicative: eps(x, y) is the parity of sum_ij x_i odd_ij y_j
    parity = [sum((c & 1) << j for j, c in enumerate(e)) for e in rs.expansions]
    left = [
        sum((sum(c * odd[i][j] for i, c in enumerate(e)) & 1) << j for j in range(rank))
        for e in rs.expansions
    ]
    return lambda x, y: bin(left[x] & parity[y]).count("1") & 1


def frenkel_kac_signs(rs, table):
    """Sign bits s, bit r of the int for root r, with
    n(x, y) = (-1)^(s_x + s_y + s_(x+y)) eps(x, y) on every root-sum pair,
    or None when there are none.  Solved over GF(2), one int bitset per
    equation; shares no code with the extraspecial-pair recursion."""
    eps = frenkel_kac_eps(rs)
    pivots: dict = {}  # leading bit -> (equation bitset, right-hand side)
    for x, row in enumerate(dense_sums(rs)):
        for y, z in enumerate(row):
            if z < 0:
                continue
            mask, rhs = (1 << x) ^ (1 << y) ^ (1 << z), (table[x][y] < 0) ^ eps(x, y)
            while mask:
                top = mask.bit_length() - 1
                if top not in pivots:
                    pivots[top] = (mask, rhs)
                    break
                m, b = pivots[top]
                mask, rhs = mask ^ m, rhs ^ b
            if not mask and rhs:
                return None
    signs = 0  # free bits stay 0; a pivot's lower bits are set before it
    for top in sorted(pivots):
        m, b = pivots[top]
        if b ^ (bin(m & signs).count("1") & 1):
            signs |= 1 << top
    return signs


def flip_triple(rs, table, x, y):
    """A copy of the table with the twelve entries of the triple
    x + y + z = 0 negated: one constant changed, consistently with the
    negation and cyclic identities."""
    out = [array("b", row) for row in table]
    z = rs.neg[dense_sums(rs)[x][y]]
    for a, b in ((x, y), (y, z), (z, x)):
        for p, q in ((a, b), (b, a), (rs.neg[a], rs.neg[b]), (rs.neg[b], rs.neg[a])):
            out[p][q] = -out[p][q]
    return out


@pytest.mark.parametrize("label,rank", SIMPLY_LACED)
def test_frenkel_kac_cocycle(label, rank):
    """Every simply-laced table is the Frenkel-Kac sign eps up to a sign
    rescaling E_r -> s_r E_r; the solved signs are checked entry by entry."""
    sc = structure_constants(build(label, rank))
    rs = sc.system
    signs = frenkel_kac_signs(rs, sc.table)
    assert signs is not None
    eps = frenkel_kac_eps(rs)
    for x, row in enumerate(dense_sums(rs)):
        for y, z in enumerate(row):
            if z >= 0:
                flip = ((signs >> x) ^ (signs >> y) ^ (signs >> z) ^ eps(x, y)) & 1
                assert sc.table[x][y] == (-1 if flip else 1)


@pytest.mark.parametrize("label,rank", [("A", 4), ("D", 5), ("E6", 6)])
def test_frenkel_kac_rejects_a_flipped_constant(label, rank):
    """Negating the triple of the last pair summing to the highest root, on
    which no other constant depends, leaves a table that no sign rescaling
    of eps reaches."""
    sc = cached_constants(label, rank)
    rs = sc.system
    top = rs.positive_idx[-1]
    dense = dense_sums(rs)
    a = max(a for a in rs.positive_idx if dense[top][rs.neg[a]] >= 0)
    assert frenkel_kac_signs(rs, sc.table) is not None
    assert frenkel_kac_signs(rs, flip_triple(rs, sc.table, a, dense[top][rs.neg[a]])) is None


def test_cartan_action():
    """[coroot(s), e_r] = <r, s-coroot> e_r."""
    sc = cached_constants("C", 3)
    rs = sc.system
    for k in rs.simple_idx:
        s = rs.roots[k]
        h = elem_h(rs, coroot(s))
        assert h.cartan == sc.coroots[k] == doubled(coroot(s))
        for i, r in enumerate(rs.roots):
            out = bracket(sc, h, elem_e(rs, r))
            expect = dot(r, coroot(s))
            assert out.coeffs == ({i: expect} if expect else {})
            assert out.cartan == (0,) * rs.dim


def test_e_minus_e_gives_coroot():
    """[e_r, e_-r] is the coroot of r in the Cartan part."""
    sc = cached_constants("B", 2)
    rs = sc.system
    for i in rs.positive_idx:
        r = rs.roots[i]
        out = bracket(sc, elem_e(rs, r), elem_e(rs, rs.roots[rs.neg[i]]))
        assert not out.coeffs
        assert out.cartan == sc.coroots[i] == doubled(coroot(r))


def test_elem_e_rejects_non_roots():
    """A non-root has no root index; it must not key the last root."""
    rs = build("B", 2)
    for v in (vec(2, 0), vec(0, 0), vec(1, 1, 0), vec(1)):
        with pytest.raises(NotARoot):
            elem_e(rs, v)
    assert elem_e(rs, vec(1, 1), Fraction(1, 2)).coeffs == {rs.index_of(vec(1, 1)): Fraction(1, 2)}


def test_elem_h_rejects_wrong_dimension():
    """A Cartan vector off the ambient space is rejected, not truncated."""
    rs = build("B", 2)
    for v in (vec(1), vec(1, 0, 0)):
        with pytest.raises(DimensionMismatch):
            elem_h(rs, v)
    assert elem_h(rs, vec(Fraction(1, 2), 1)).cartan == (1, 2)


def test_bracket_rejects_elements_of_another_system():
    """Elements of one system bracket normally; an element of another
    system raises SystemMismatch, even where B3 and C3 share the root
    vectors and the ambient space."""
    sc = cached_constants("B", 3)
    b3, c3 = build("B", 3), build("C", 3)
    x, y = vec(1, -1, 0), vec(0, 1, 1)
    out = bracket(sc, elem_e(b3, x), elem_e(b3, y))
    assert set(out.coeffs) == {b3.index_of(vec(1, 0, 1))} and not any(out.cartan)
    for u, v in [
        (elem_e(c3, x), elem_e(b3, y)),
        (elem_e(b3, x), elem_e(c3, y)),
        (elem_h(c3, x), elem_e(b3, y)),
    ]:
        with pytest.raises(SystemMismatch):
            bracket(sc, u, v)
