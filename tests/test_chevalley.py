import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest

from lieconformal.chevalley import (
    AlgebraElement,
    bracket,
    cached_constants,
    elem_e,
    elem_h,
    structure_constants,
)
from lieconformal.errors import DimensionMismatch, NotARoot, SystemMismatch
from lieconformal.rootsys import build, coroot, dot, doubled, vadd, vec
from test_rootsys import CLASSIFY_SYSTEMS

EXHAUSTIVE = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4),
    ("G2", 2), ("F4", 4),
    ("A1xA1", 2),
]


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


# ------------------------------------------------ the constants table

def test_a2_sign_oracle():
    """N(e1-e2, e2-e3) = +1 in the fixed sign convention."""
    sc = cached_constants("A", 2)
    rs = sc.system
    assert sc.table[rs.index_of(vec(1, -1, 0))][rs.index_of(vec(0, 1, -1))] == 1


def test_antisymmetry_and_opposites():
    sc = cached_constants("B", 3)
    rs = sc.system
    for a, row in enumerate(sc.table):
        for b, n in enumerate(row):
            if not n:
                continue
            assert sc.table[b][a] == -n
            # N(-a,-b) = -N(a,b) in a Chevalley basis.
            if rs.add[rs.neg[a]][rs.neg[b]] >= 0:
                assert sc.table[rs.neg[a]][rs.neg[b]] == -n


def test_constants_are_nonzero_integers():
    sc = cached_constants("F4", 4)
    rs = sc.system
    for a, row in enumerate(sc.table):
        for b, n in enumerate(row):
            assert isinstance(n, int)
            assert (n != 0) == (rs.add[a][b] >= 0)


def test_root_string_magnitudes():
    """|N(a,b)| = p+1 where p is the string length below b in direction a."""
    sc = cached_constants("G2", 2)
    rs = sc.system
    for a, row in enumerate(sc.table):
        for b, n in enumerate(row):
            if not n:
                continue
            p, cur = 0, rs.add[b][rs.neg[a]]
            while cur >= 0:
                p, cur = p + 1, rs.add[cur][rs.neg[a]]
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
