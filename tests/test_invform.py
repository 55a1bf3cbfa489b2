import random
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from lieconformal import classify, invform
from lieconformal.chevalley import AlgebraElement, bracket, cached_constants
from lieconformal.errors import NotValidated, ResidualNonzero
from lieconformal.invform import (
    AssembledSystem,
    FormUnknowns,
    _generators,
    assemble,
    form_unknowns,
    gram_matrix,
    solve,
    verify_invariance,
)
from lieconformal.isotropy import (
    CARTAN_LABEL,
    CASE1,
    CASE2,
    PARABOLIC,
    Distortion,
    derive_isotropy,
    parabolic_distortion,
    quotient_basis,
    translate_config,
    validate,
)
from lieconformal.linalg import det, nullspace
from lieconformal.rootsys import (
    build,
    coroot,
    dot,
    minimal_root,
    random_weyl_word,
    vec,
)
from conftest import vadd
from test_chevalley import VectorElement, vector_bracket
from test_isotropy import simple_mirrors, vector_translate
from test_rootsys import halved, vneg


# the first twenty odd primes, the weights of the witness
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)


def make_config(label, rank, case, *, alpha_idx=None, m=None):
    rs = build(label, rank)
    if case == PARABOLIC:
        delta = parabolic_distortion(rs, rs.simples[alpha_idx])
    elif case == CASE2:
        low = minimal_root(rs)
        delta = Distortion(low)
    else:
        delta = Distortion(vneg(m))
    cfg = derive_isotropy(rs, delta, case)
    assert validate(cfg).ok
    return cached_constants(label, rank), cfg


def dense(row, n):
    """The sparse row of (unknown, coefficient) pairs as a dense n-tuple."""
    out = [0] * n
    for u, c in row:
        out[u] += c
    return tuple(out)


def dense_rows(system):
    """The assembled rows, densified over the unknowns."""
    return [dense(row, len(system.unknowns.pairs)) for row in system.rows]


def dense_residual(system, coeffs):
    """Oracle: the largest |row . coeffs| over the densified assembled rows."""
    return max(
        (abs(sum(a * b for a, b in zip(row, coeffs))) for row in dense_rows(system)), default=0
    )


def test_assemble_requires_validation():
    rs = build("B", 3)
    cfg = derive_isotropy(rs, parabolic_distortion(rs, rs.simples[2]), PARABOLIC)
    with pytest.raises(NotValidated):
        assemble(cached_constants("B", 3), cfg)


def test_unknowns_pair_by_weight_sum():
    """Unknowns are exactly the quotient label pairs with weight sum delta."""
    sc, cfg = make_config("B", 3, PARABOLIC, alpha_idx=2)
    labels = quotient_basis(cfg)
    unknowns = form_unknowns(cfg)
    assert unknowns.pairs == [(0, 5), (1, 4), (2, 3)]
    assert len(labels) == 6


def weight_sum_pairs(config):
    """Oracle: the label pairs (i, j), i <= j, whose weights add up to delta,
    by a scan over every pair of quotient labels."""
    rs = config.system
    labels = quotient_basis(config)
    weights = [(0,) * rs.dim if l == CARTAN_LABEL else rs.coords[l] for l in labels]
    return [
        (i, j)
        for i in range(len(labels))
        for j in range(i, len(labels))
        if tuple(a + b for a, b in zip(weights[i], weights[j])) == config.d2
    ]


def test_unknowns_match_the_weight_sum_scan(rank12_solver_systems):
    """The unknowns read off `partner` equal the weight-sum scan on every
    solver system up to rank 12 and on 3 seeded Weyl translates of each,
    which take positivity off the canonical chamber."""
    _, seen = rank12_solver_systems
    assert len(seen) == 55
    rng = random.Random(1919)
    diagonal = cartan = 0
    for system, _ in seen:
        cfg = system.config
        configs = [cfg] + [
            translate_config(cfg, random_weyl_word(cfg.system, rng, rng.randint(1, 8)))
            for _ in range(3)
        ]
        for c in configs:
            unknowns = form_unknowns(c)
            assert unknowns.pairs == weight_sum_pairs(c)
            diagonal += any(i == j for i, j in unknowns.pairs)
            cartan += CARTAN_LABEL in unknowns.labels
    assert diagonal and cartan


def test_b3_spinor_candidate_dim_one():
    """B3 with alpha = e3 admits a one-dimensional, nondegenerate solution."""
    sc, cfg = make_config("B", 3, PARABOLIC, alpha_idx=2)
    system = assemble(sc, cfg)
    sol = solve(system)
    assert sol.feasible
    assert sol.dimension == 1
    assert sol.basis == [(Fraction(1), Fraction(-1), Fraction(1))]
    assert sol.nondegenerate_witness is not None
    assert all(dense_residual(system, b) == 0 for b in sol.basis)


def test_d4_triality_candidates_dim_one():
    for idx in (2, 3):
        sc, cfg = make_config("D", 4, PARABOLIC, alpha_idx=idx)
        sol = solve(assemble(sc, cfg))
        assert sol.feasible and sol.dimension == 1
        assert sol.nondegenerate_witness is not None


def test_einstein_candidate_dn():
    """D4 with alpha = e1 - e2 gives the quadric candidate."""
    sc, cfg = make_config("D", 4, PARABOLIC, alpha_idx=0)
    sol = solve(assemble(sc, cfg))
    assert sol.feasible and sol.dimension == 1
    assert sol.nondegenerate_witness is not None


def test_a2_parabolic_infeasible():
    """The A2 parabolic candidate has only the zero solution."""
    sc, cfg = make_config("A", 2, PARABOLIC, alpha_idx=0)
    sol = solve(assemble(sc, cfg))
    assert not sol.feasible
    assert sol.dimension == 0
    assert sol.degeneracy_certificate


def test_c3_case1_feasible():
    sc, cfg = make_config("C", 3, CASE1, m=vec(1, 1, 0))
    sol = solve(assemble(sc, cfg))
    assert sol.feasible and sol.dimension == 1
    assert sol.nondegenerate_witness is not None


def test_a3_case2_feasible_with_cartan_pair():
    """A3 Case2 feasible; the Cartan label pairs with the distortion root."""
    sc, cfg = make_config("A", 3, CASE2)
    system = assemble(sc, cfg)
    sol = solve(system)
    assert sol.feasible and sol.dimension == 1
    labels = quotient_basis(cfg)
    paired_labels = {
        frozenset((labels[i], labels[j])) for i, j in system.unknowns.pairs
    }
    assert any("cartan" in p for p in paired_labels)


def test_gram_matrix_nondegenerate_on_witness(rank8_survivors):
    """The witness Gram is nondegenerate.  Each quotient label lies in one
    unknown pair, so on each rank-8 survivor `det` equals the product over
    the pairs of c for a self-pair and -c^2 for an off-diagonal pair, c the
    witness value of the pair."""
    sc, cfg = make_config("B", 3, PARABOLIC, alpha_idx=2)
    sol = solve(assemble(sc, cfg))
    g = gram_matrix(assemble(sc, cfg).unknowns, sol.nondegenerate_witness)
    assert det(g) != 0
    for system, solution in rank8_survivors:
        unknowns, witness = system.unknowns, solution.nondegenerate_witness
        product = 1
        for (i, j), c in zip(unknowns.pairs, witness, strict=True):
            product *= c if i == j else -c * c
        assert det(gram_matrix(unknowns, witness)) == product != 0


def test_gram_matrix_is_symmetric_on_the_pairs():
    """The Gram is symmetric and nonzero exactly at the pairs, a diagonal pair
    counted once, with an int where the value is integral; a value vector of
    the wrong length is rejected."""
    unknowns = FormUnknowns(labels=["a", "b", "c", "d"], pairs=[(0, 2), (3, 3)])
    g = gram_matrix(unknowns, (Fraction(4, 2), Fraction(-1, 3)))
    assert g == [
        [0, 0, 2, 0],
        [0, 0, 0, 0],
        [2, 0, 0, 0],
        [0, 0, 0, Fraction(-1, 3)],
    ]
    assert type(g[0][2]) is int and type(g[2][0]) is int
    for coeffs in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            gram_matrix(unknowns, coeffs)


def test_verify_invariance_zero_residual():
    sc, cfg = make_config("B", 3, PARABOLIC, alpha_idx=2)
    sol = solve(assemble(sc, cfg))
    out = verify_invariance(sc, cfg, sol.nondegenerate_witness)
    assert out["max_residual"] == 0
    assert out["constraints_checked"] > 0


def test_verify_invariance_rejects_bad_coeffs():
    sc, cfg = make_config("B", 3, PARABOLIC, alpha_idx=2)
    bad = (Fraction(1), Fraction(1), Fraction(1))
    with pytest.raises(ResidualNonzero):
        verify_invariance(sc, cfg, bad)


def test_verify_invariance_guard(rank8_survivors):
    """On every survivor of rank <= 4, verify_invariance checks every label
    pair (i <= j) against every generator of p, and moving any one witness
    coordinate off the solution space is caught."""
    checked = 0
    for system, sol in rank8_survivors:
        cfg = system.config
        if cfg.system.rank > 4:
            continue
        sc = cached_constants(cfg.system.label, cfg.system.rank)
        n = len(system.unknowns.labels)
        out = verify_invariance(sc, cfg, sol.nondegenerate_witness)
        assert out["constraints_checked"] == len(_generators(sc, cfg)) * n * (n + 1) // 2
        nunk = len(system.unknowns.pairs)
        if sol.dimension < nunk:
            for k in range(nunk):
                bad = list(sol.nondegenerate_witness)
                bad[k] += 1
                with pytest.raises(ResidualNonzero):
                    verify_invariance(sc, cfg, bad)
                checked += 1
    assert checked > 0


def test_verify_invariance_brackets_and_never_assembles(monkeypatch):
    """The oracle stays independent of the assembled rows: on a B3 survivor
    it calls `bracket` once per (generator, label) pair and still passes
    when `assemble` cannot run."""
    sc, cfg = make_config("B", 3, PARABOLIC, alpha_idx=2)
    sol = solve(assemble(sc, cfg))
    assert sol.feasible
    calls = []

    def counting_bracket(*args):
        calls.append(args)
        return bracket(*args)

    def no_assemble(*args):
        raise AssertionError("verify_invariance read the assembled rows")

    monkeypatch.setattr(invform, "bracket", counting_bracket)
    monkeypatch.setattr(invform, "assemble", no_assemble)
    out = verify_invariance(sc, cfg, sol.nondegenerate_witness)
    assert out["max_residual"] == 0
    assert len(calls) == len(_generators(sc, cfg)) * len(quotient_basis(cfg))


def dense_verify_invariance(sc, config, coeffs):
    """Oracle: `verify_invariance` as a dense loop over every label pair,
    each side summed over all the labels [p, u] lands on."""
    rs = config.system
    unknowns = form_unknowns(config)
    labels = unknowns.labels
    n = len(labels)
    gram = gram_matrix(unknowns, coeffs)
    positions = {l: i for i, l in enumerate(labels)}
    nu2 = config.nu2

    def project(elt):
        out = {}
        for r, c in elt.coeffs.items():
            i = positions.get(r)
            if i is not None:
                out[i] = out.get(i, 0) + c
        if nu2 is not None and any(elt.cartan):
            t = Fraction(dot(nu2, elt.cartan), dot(nu2, nu2))
            if t:
                i = positions[CARTAN_LABEL]
                out[i] = out.get(i, 0) + t
        return out

    basis_elems = [
        AlgebraElement(rs, cartan=nu2) if l == CARTAN_LABEL else AlgebraElement(rs, coeffs={l: 1})
        for l in labels
    ]
    checked = 0
    for p, dval in _generators(sc, config):
        moved = [project(bracket(sc, p, u)) for u in basis_elems]
        for i in range(n):
            for j in range(i, n):
                lhs = sum(c * gram[k][j] for k, c in moved[i].items()) + sum(
                    c * gram[i][k] for k, c in moved[j].items()
                )
                rhs = dval * gram[i][j]
                if lhs != rhs:
                    raise ResidualNonzero(
                        f"invariance fails for generator {p!r} on a label pair: "
                        f"{lhs} != {rhs}"
                    )
                checked += 1
    return {"constraints_checked": checked, "max_residual": 0}


def outcome(verify, sc, cfg, coeffs):
    """The report of a verifier, or the message it raised."""
    try:
        return verify(sc, cfg, coeffs)
    except ResidualNonzero as exc:
        return str(exc)


def test_verify_invariance_matches_the_dense_loop(rank8_survivors):
    """On every survivor of rank <= 4, for the witness and each one-coordinate
    perturbation of it, the sparse verifier and the dense pair loop agree on
    the constraint count, on pass or fail and on the message."""
    failed = passed = 0
    for system, sol in rank8_survivors:
        cfg = system.config
        if cfg.system.rank > 4:
            continue
        sc = cached_constants(cfg.system.label, cfg.system.rank)
        witness = list(sol.nondegenerate_witness)
        for k in [None, *range(len(witness))]:
            coeffs = list(witness)
            if k is not None:
                coeffs[k] += 1
            want = outcome(dense_verify_invariance, sc, cfg, coeffs)
            assert outcome(verify_invariance, sc, cfg, coeffs) == want
            failed += isinstance(want, str)
            passed += not isinstance(want, str)
    assert failed and passed


def test_solve_takes_fraction_rows():
    """Sparse ratio rows with denominators 2 and 3, which `solve` walks as
    they are, give the basis and witness of the same rows times 6 and of
    `linalg.nullspace` on the densified rows; a basis vector moved off the
    solution space fails the residual check, whose message carries the
    residual of the Fraction row."""
    h, t = Fraction(1, 2), Fraction(1, 3)
    rows = [((0, h), (1, -t)), ((1, 2 * t), (2, h)), ((0, 1), (2, h)), ()]
    unknowns = FormUnknowns(labels=list(range(4)), pairs=[(i, i) for i in range(4)])
    system = AssembledSystem(config=None, unknowns=unknowns, rows=rows)
    sol = solve(system)
    whole = [tuple((u, int(6 * c)) for u, c in row) for row in rows]
    assert sol == solve(AssembledSystem(config=None, unknowns=unknowns, rows=whole))
    assert sol.basis == nullspace(dense_rows(system), 4) == [
        (Fraction(-1, 2), Fraction(-3, 4), 1, 0),
        (0, 0, 0, 1),
    ]
    assert sol.nondegenerate_witness == (Fraction(-3, 2), Fraction(-9, 4), 3, 5)

    real = invform._residual
    moved = Fraction(1, 7)

    def off_the_solution_space(sparse_rows, x):
        return real(sparse_rows, (x[0] + moved, *x[1:]))

    x = (sol.basis[0][0] + moved, *sol.basis[0][1:])
    unscaled = next(
        r for r in (sum(a * b for a, b in zip(row, x)) for row in dense_rows(system)) if r
    )
    assert unscaled.denominator == 14
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invform, "_residual", off_the_solution_space)
        with pytest.raises(ResidualNonzero, match=f"^nullspace basis has residual {unscaled}$"):
            solve(AssembledSystem(config=None, unknowns=unknowns, rows=rows))


def test_solve_rejects_a_row_with_three_unknowns():
    """A row with three nonzero entries is no ratio edge, so `solve` refuses
    it: `assemble` never emits one, and no elimination backs it up.

    This dim-2 system was built so that its generic determinant vanishes on
    the prime point and on all of {1..4}^2 of the old witness grid."""
    ratios = sorted({Fraction(a, b) for a in range(1, 5) for b in range(1, 5)} | {Fraction(3, 5)})
    n = len(ratios) + 2
    rows = []
    for k, r in enumerate(ratios):
        rows.append(((k, 1), (n - 2, -r.denominator), (n - 1, r.numerator)))
    unknowns = FormUnknowns(labels=list(range(n)), pairs=[(i, i) for i in range(n)])
    system = AssembledSystem(config=None, unknowns=unknowns, rows=rows)
    with pytest.raises(ValueError, match="more than two nonzero entries"):
        solve(system)


def synthetic_system(nlabels, pairs, rows):
    unknowns = FormUnknowns(labels=[f"l{i}" for i in range(nlabels)], pairs=pairs)
    return AssembledSystem(config=None, unknowns=unknowns, rows=rows)


def test_solve_rejects_label_in_two_pairs():
    """The determinant factorization needs at most one partner per label."""
    system = synthetic_system(3, [(0, 1), (1, 2)], [])
    with pytest.raises(ValueError, match="'l1'"):
        solve(system)


@pytest.mark.parametrize(
    "nlabels, pairs, rows",
    [
        # label l2 is in no pair: its Gram row is zero at every point
        (3, [(0, 1)], []),
        # the only row forces the unknown of (1, 2) to zero on a 2-dim space
        (4, [(0, 0), (1, 2), (3, 3)], [((1, 1),)]),
    ],
    ids=["unpaired-label", "forced-zero-unknown"],
)
def test_degenerate_solution_space(nlabels, pairs, rows):
    sol = solve(synthetic_system(nlabels, pairs, rows))
    assert sol.dimension == len(pairs) - len(rows) > 0
    assert sol.nondegenerate_witness is None and not sol.feasible
    assert sol.degeneracy_certificate == "generic Gram determinant is identically zero"


def test_witness_matches_determinant_oracle(rank12_solver_systems):
    """On every solver system up to rank 12, the witness is the first point of
    the prime-then-grid sequence where the exact Gram determinant, expanded
    by elimination with no factorization, is nonzero."""
    _, seen = rank12_solver_systems
    assert len(seen) == 55
    for system, sol in seen:
        n, nunk = len(system.unknowns.labels), len(system.unknowns.pairs)
        first = None
        if sol.dimension:
            grid = product(range(1, n + 2), repeat=sol.dimension)
            for w in chain([ODD_PRIMES[: sol.dimension]], grid):
                coeffs = tuple(
                    sum((c * b[u] for c, b in zip(w, sol.basis)), Fraction(0)) for u in range(nunk)
                )
                if det(gram_matrix(system.unknowns, coeffs)) != 0:
                    first = coeffs
                    break
        assert sol.nondegenerate_witness == first
        assert (sol.degeneracy_certificate is None) == (first is not None)


def test_witness_is_the_prime_point(rank12_solver_systems):
    """On every solver system up to rank 12 the basis vectors have disjoint
    supports, so the witness is the prime point sum p_k b_k, with no zero
    entry: no search is needed."""
    _, seen = rank12_solver_systems
    for system, sol in seen:
        nunk = len(system.unknowns.pairs)
        supports = [{u for u, x in enumerate(b) if x} for b in sol.basis]
        covered = set().union(*supports)
        assert sum(map(len, supports)) == len(covered)
        if sol.feasible:
            assert covered == set(range(nunk))
            point = tuple(
                sum(p * b[u] for p, b in zip(ODD_PRIMES, sol.basis)) for u in range(nunk)
            )
            assert sol.nondegenerate_witness == point


def test_witness_weights_extend_past_the_table():
    """Twenty independent unknowns get the first twenty odd primes, not a
    truncated weight list."""
    system = synthetic_system(20, [(i, i) for i in range(20)], [])
    sol = solve(system)
    assert sol.dimension == 20
    assert sol.nondegenerate_witness == ODD_PRIMES


def assert_basis_is_elimination(system, sol):
    expected = nullspace(dense_rows(system), len(system.unknowns.pairs))
    assert sol.basis == expected
    assert [list(map(type, b)) for b in sol.basis] == [list(map(type, b)) for b in expected]


def test_basis_matches_elimination(rank12_solver_systems, rank8_survivors):
    """The ratio-graph basis equals the RREF nullspace, vector for vector and
    in the same order, on every solver system up to rank 12 and on seeded
    Weyl translates of the rank <= 5 survivors."""
    _, seen = rank12_solver_systems
    assert len(seen) == 55
    for system, sol in seen:
        assert_basis_is_elimination(system, sol)
    rng = random.Random(1717)
    translated = 0
    for system, _ in rank8_survivors:
        cfg = system.config
        if cfg.system.rank > 5:
            continue
        sc = cached_constants(cfg.system.label, cfg.system.rank)
        for _ in range(3):
            word = random_weyl_word(cfg.system, rng, rng.randint(1, 8))
            moved = assemble(sc, translate_config(cfg, word))
            assert_basis_is_elimination(moved, solve(moved))
            translated += 1
    assert translated > 30


DEGENERATE = "generic Gram determinant is identically zero"


@pytest.mark.parametrize(
    "n, rows, basis, certificate",
    [
        # x0 = x1 = x2 along two edges, but x0 = 2 x2 along the third
        (3, [((0, 1), (1, -1)), ((1, 1), (2, -1)), ((0, 1), (2, -2))], [],
         "solution space is zero"),
        # the forced zero x0 = 0 reaches x1 and x2 along the path; x3 has no row
        (4, [((0, 1), (1, -1)), ((1, 1), (2, 2)), ((0, 3),)], [(0, 0, 0, 1)], DEGENERATE),
        # x0 = -x1, and x2 is in no row
        (3, [((0, 1), (1, 1))], [(-1, 1, 0), (0, 0, 1)], None),
        # int and Fraction entries in one row: 2 x0 = 3/4 x1
        (3, [((0, 2), (1, Fraction(-3, 4))), ((2, Fraction(1, 2)),)], [(Fraction(3, 8), 1, 0)],
         DEGENERATE),
    ],
    ids=["inconsistent-cycle", "forced-zero-path", "unknown-without-row", "mixed-int-fraction"],
)
def test_ratio_graph_solver(n, rows, basis, certificate):
    system = synthetic_system(n, [(i, i) for i in range(n)], rows)
    sol = solve(system)
    assert sol.basis == basis
    assert_basis_is_elimination(system, sol)
    assert sol.degeneracy_certificate == certificate
    assert sol.feasible == (certificate is None)


NONZERO = st.integers(-6, 6).filter(bool)
COEFFS = st.one_of(NONZERO, st.builds(Fraction, NONZERO, st.integers(1, 6)))


@st.composite
def ratio_systems(draw):
    """A synthetic system of at most 8 unknowns: ratio edges with int or
    Fraction coefficients, most consistent with a hidden nonzero point and
    some bent off it, so that cycles can be inconsistent, and forced zeros.
    Unknowns sit on diagonal or off-diagonal label pairs, and a trailing
    label may be unpaired."""
    nunk = draw(st.integers(1, 8))
    pairs, nlabels = [], 0
    for _ in range(nunk):
        if draw(st.booleans()):
            pairs.append((nlabels, nlabels))
            nlabels += 1
        else:
            pairs.append((nlabels, nlabels + 1))
            nlabels += 2
    nlabels += draw(st.sampled_from([0, 0, 0, 1]))
    hidden = [draw(COEFFS) for _ in range(nunk)]
    rows = []
    for _ in range(draw(st.integers(0, 2 * nunk))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["bent", "zero"]))
        u, a = draw(st.integers(0, nunk - 1)), draw(COEFFS)
        if kind == "zero" or nunk == 1:
            rows.append(((u, a),))
            continue
        v = draw(st.integers(0, nunk - 2))
        v += v >= u
        # a x_u + b x_v vanishes at the hidden point, unless the edge is bent
        b = Fraction(-a * hidden[u]) / hidden[v] * (2 if kind == "bent" else 1)
        b = b.numerator if b.denominator == 1 else b
        rows.append(((u, a), (v, b)) if u < v else ((v, b), (u, a)))
    return synthetic_system(nlabels, pairs, rows)


@given(system=ratio_systems())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_ratio_graph_solver_properties(system):
    """On drawn ratio-edge systems the basis is the RREF nullspace of the
    densified rows, in value and type, and the system is feasible exactly
    when the Gram at the prime point sum p_k b_k has a nonzero determinant;
    the witness is then that point."""
    sol = solve(system)
    assert_basis_is_elimination(system, sol)
    nunk = len(system.unknowns.pairs)
    point = tuple(
        sum((p * b[u] for p, b in zip(ODD_PRIMES, sol.basis)), Fraction(0)) for u in range(nunk)
    )
    assert sol.feasible == (det(gram_matrix(system.unknowns, point)) != 0)
    assert sol.nondegenerate_witness == (point if sol.feasible else None)


def test_feasibility_invariant_under_weyl_translation():
    """Solver verdicts agree across random Weyl translates of a config."""
    rng = random.Random(17)
    for label, rank, case, kwargs in [
        ("C", 3, CASE1, {"m": vec(1, 1, 0)}),
        ("A", 3, CASE2, {}),
        ("B", 3, PARABOLIC, {"alpha_idx": 2}),
    ]:
        sc, cfg = make_config(label, rank, case, **kwargs)
        base = solve(assemble(sc, cfg))
        for _ in range(5):
            word = random_weyl_word(cfg.system, rng, rng.randint(1, 6))
            moved = translate_config(cfg, word)
            sol = solve(assemble(sc, moved))
            assert (sol.dimension, sol.feasible) == (base.dimension, base.feasible)


def vector_assemble(sc, config):
    """Reference: the vector-path assembly, vector brackets of every generator
    of p with every label, projected through labels keyed by root vector."""
    rs = config.system
    labels = quotient_basis(config)
    dvec = halved(config.d2)
    nu = None if config.nu2 is None else halved(config.nu2)
    zero = (Fraction(0),) * rs.dim
    weights = [zero if l == CARTAN_LABEL else rs.roots[l] for l in labels]
    pairs = [
        (i, j)
        for i in range(len(labels))
        for j in range(i, len(labels))
        if vadd(weights[i], weights[j]) == dvec
    ]
    pair_index = {p: k for k, p in enumerate(pairs)}
    positions = {l if l == CARTAN_LABEL else rs.roots[l]: i for i, l in enumerate(labels)}

    def index(i, j):
        return pair_index.get((i, j) if i <= j else (j, i))

    def project(elt):
        out = {}
        for r, c in elt.coeffs.items():
            i = positions.get(r)
            if i is not None:
                out[i] = out.get(i, 0) + c
        if nu is not None and any(elt.cartan):
            t = dot(nu, elt.cartan) / dot(nu, nu)
            if t != 0:
                i = positions[CARTAN_LABEL]
                out[i] = out.get(i, 0) + t
        return out

    def root_element(r):
        return VectorElement(zero, {r: Fraction(1)})

    generators = [(VectorElement(coroot(s), {}), dot(dvec, coroot(s))) for s in rs.simples]
    generators += [(root_element(rs.roots[g]), 0) for g in sorted(config.p_roots)]
    basis_elems = [
        VectorElement(nu, {}) if l == CARTAN_LABEL else root_element(rs.roots[l]) for l in labels
    ]
    rows = set()
    for p, dval in generators:
        actions = [project(vector_bracket(sc, p, b)) for b in basis_elems]
        for i in range(len(labels)):
            for j in range(i, len(labels)):
                row = [Fraction(0)] * len(pairs)
                for k, c in actions[i].items():
                    if index(k, j) is not None:
                        row[index(k, j)] += c
                for k, c in actions[j].items():
                    if index(i, k) is not None:
                        row[index(i, k)] += c
                if dval != 0 and index(i, j) is not None:
                    row[index(i, j)] -= dval
                if any(row):
                    rows.add(tuple(row))
    return pairs, sorted(rows)


def primitive(row):
    """A dense row as `assemble` stores it: its nonzero entries as
    (unknown, int) pairs, coprime, with a positive first coefficient."""
    entries = [(u, Fraction(c)) for u, c in enumerate(row) if c]
    m = lcm(*(c.denominator for _, c in entries))
    ints = [(u, int(c * m)) for u, c in entries]
    g = gcd(*(c for _, c in ints))
    if ints[0][1] < 0:
        g = -g
    return tuple((u, c // g) for u, c in ints)


def _assembled_configs(monkeypatch):
    """(constants, config) of every rank-8 candidate that reaches assembly."""
    seen = []
    real = invform.assemble

    def record(sc, config):
        seen.append((sc, config))
        return real(sc, config)

    monkeypatch.setattr(invform, "assemble", record)
    report = classify.classify_all(8)
    monkeypatch.undo()
    return report, seen


def test_assemble_matches_vector_path(monkeypatch):
    """Index assembly equals the vector path on every rank-8 candidate that
    reaches the solver and on seeded Weyl translates of each survivor, the
    vector path's dense Fraction rows stored as `assemble` stores them."""
    report, seen = _assembled_configs(monkeypatch)
    assert len(seen) == 39
    rng = random.Random(2024)
    survivors = 0
    for sc, cfg in seen:
        configs = [cfg]
        if solve(assemble(sc, cfg)).feasible:
            survivors += 1
            word = random_weyl_word(cfg.system, rng, rng.randint(1, 8))
            configs.append(translate_config(cfg, word))
        for c in configs:
            system = assemble(sc, c)
            pairs, rows = vector_assemble(sc, c)
            assert system.unknowns.pairs == pairs
            assert system.rows == sorted({primitive(row) for row in rows})
    assert survivors == len(report.survivors) == 37


@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_weyl_translate_matches_vector_path_property(rank8_survivors, data):
    """On a drawn rank-8 survivor and a drawn Weyl word of 0 to 16 simple
    reflections, index transport equals the vector path, and the assembly
    of the translate equals the vector-path assembly."""
    system, _ = data.draw(st.sampled_from(rank8_survivors))
    cfg = system.config
    rs = cfg.system
    word = data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=16))
    moved = translate_config(cfg, word)
    assert moved == vector_translate(cfg, simple_mirrors(rs, word))
    sc = cached_constants(rs.label, rs.rank)
    pairs, rows = vector_assemble(sc, moved)
    got = assemble(sc, moved)
    assert got.unknowns.pairs == pairs
    assert got.rows == sorted({primitive(row) for row in rows})
