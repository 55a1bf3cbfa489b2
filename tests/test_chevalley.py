import random

import pytest

from lieconformal.chevalley import (
    StructureConstants,
    bracket,
    cached_constants,
    elem_e,
    elem_h,
    structure_constants,
)
from lieconformal.rootsys import build, coroot, vadd, vdot, vec, vneg

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


def test_a2_sign_oracle():
    """N(e1-e2, e2-e3) = +1 in the fixed sign convention."""
    sc = cached_constants("A", 2)
    assert sc.n_table[(vec(1, -1, 0), vec(0, 1, -1))] == 1


def test_antisymmetry_and_opposites():
    sc = cached_constants("B", 3)
    rs = sc.system
    for (a, b), n in sc.n_table.items():
        assert sc.n_table[(b, a)] == -n
        # N(-a,-b) = -N(a,b) in a Chevalley basis.
        if rs.index_of(vadd(vneg(a), vneg(b))) >= 0:
            assert sc.n_table[(vneg(a), vneg(b))] == -n


def test_constants_are_nonzero_integers():
    sc = cached_constants("F4", 4)
    for n in sc.n_table.values():
        assert n != 0 and n.denominator == 1


def test_root_string_magnitudes():
    """|N(a,b)| = p+1 where p is the string length below b in direction a."""
    sc = cached_constants("G2", 2)
    rs = sc.system
    for (a, b), n in sc.n_table.items():
        p = 0
        cur = b
        while True:
            cur = vadd(cur, vneg(a))
            if rs.index_of(cur) < 0:
                break
            p += 1
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
    assert fresh.n_table == cached_constants("F4", 4).n_table
    again = structure_constants(build("F4", 4))
    assert again.n_table == fresh.n_table


def test_cartan_action():
    """[coroot(s), e_r] = <r, s-coroot> e_r."""
    sc = cached_constants("C", 3)
    rs = sc.system
    for s in rs.simples:
        h = elem_h(rs, coroot(s))
        for r in rs.roots:
            out = bracket(sc, h, elem_e(rs, r))
            expect = vdot(r, coroot(s))
            assert out.coeffs == ({r: expect} if expect else {})
            assert out.cartan == (0,) * rs.dim


def test_e_minus_e_gives_coroot():
    """[e_r, e_-r] is the coroot of r in the Cartan part."""
    sc = cached_constants("B", 2)
    rs = sc.system
    for r in rs.positives:
        out = bracket(sc, elem_e(rs, r), elem_e(rs, vneg(r)))
        assert not out.coeffs
        assert out.cartan == coroot(r)


@pytest.mark.parametrize("label,rank", [("F4", 4), ("E7", 7)])
def test_n_table_is_lazy_and_matches_eager(label, rank):
    """The vector-keyed table is built on first read from the int table and
    equals one filled eagerly from it."""
    rs = build(label, rank)
    sc = structure_constants(rs)
    assert "n_table" not in vars(sc)
    eager = {}
    for x, row in enumerate(sc.table):
        for y, n in enumerate(row):
            if rs.index_of(vadd(rs.roots[x], rs.roots[y])) >= 0:
                eager[(rs.roots[x], rs.roots[y])] = n
            else:
                assert n == 0
    assert sc.n_table == eager
    assert sc.n_table is sc.n_table
    assert StructureConstants(rs, sc.table).n_table == cached_constants(label, rank).n_table
