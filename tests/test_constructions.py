import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lieconformal import constructions, linalg
from lieconformal.chevalley import cached_constants
from lieconformal.cli import run
from lieconformal.constructions import (
    _g2_relations,
    _omega,
    _rand_scaled,
    _sl_trial,
    _sp_trial,
    _consistency_verdict,
    BracketRelation,
    align_g2_form,
    check_g2_relations,
    check_sl_embedding,
    check_sp_embedding,
    verify_relations_up_to_rescaling,
)
from lieconformal.errors import NoWitness, Unalignable
from lieconformal.invform import assemble, solve
from lieconformal.isotropy import PARABOLIC, derive_isotropy, parabolic_distortion, validate
from lieconformal.rootsys import MAX_RANK, build, vec


def trials_at(n):
    """100 trials, or 10 at MAX_RANK, where the sl denominators reach 60^65."""
    return 10 if n == MAX_RANK else 100


@pytest.mark.parametrize("n", [2, 3, 4, 5, MAX_RANK])
def test_sp_embedding_exact(n):
    """Symplectic conjugation preserves omega with residual exactly 0."""
    out = check_sp_embedding(n, trials=trials_at(n), seed=1000 + n)
    assert out["ok"]
    assert out["max_residual"] == 0
    assert out["trials"] == trials_at(n)


@pytest.mark.parametrize("n", [3, 4, 5, MAX_RANK])
def test_sl_embedding_exact(n):
    out = check_sl_embedding(n, trials=trials_at(n), seed=2000 + n)
    assert out["ok"]
    assert out["max_residual"] == 0
    assert out["codimension"] == 1


def rand_frac(rng):
    """Oracle: a draw as the Fraction it stands for."""
    return Fraction(_rand_scaled(rng), 60)


def rand_vec(rng, n):
    return [rand_frac(rng) for _ in range(n)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def random_symplectic(rng, n):
    """Oracle: the matrix of three symplectic transvections x -> x + c w(x, v) v,
    multiplied out column by column."""
    m = identity(2 * n)
    for _ in range(3):
        v = rand_vec(rng, 2 * n)
        c = rand_frac(rng)
        cols = [[a + c * _omega(n, col, v) * b for a, b in zip(col, v)] for col in zip(*m)]
        m = [list(row) for row in zip(*cols)]
    return m


def random_unimodular(rng, n):
    """Oracle: the matrix of 2n elementary row operations and its inverse."""
    m, inv = identity(n), identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rand_frac(rng)
        for k in range(n):
            m[i][k] += c * m[j][k]
            inv[k][j] -= c * inv[k][i]
    return m, inv


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sp_trial_matches_the_matrix(n):
    """Applying the transvections to x and y gives S x and S y, from the same
    draws, for seeds 0-49: x = X / 60 and S x = SX / D on the int vectors."""
    for seed in range(50):
        rng, oracle = random.Random(seed), random.Random(seed)
        x, y, sx, sy, d = _sp_trial(rng, n)
        x, y = [Fraction(a, 60) for a in x], [Fraction(a, 60) for a in y]
        sx, sy = [Fraction(a, d) for a in sx], [Fraction(a, d) for a in sy]
        s = random_symplectic(oracle, n)
        assert (x, y) == (rand_vec(oracle, 2 * n), rand_vec(oracle, 2 * n))
        assert (sx, sy) == (mat_vec(s, x), mat_vec(s, y))
        assert rng.getstate() == oracle.getstate()


def test_a_non_symplectic_step_fails_the_sp_check(monkeypatch, capsys):
    """Doubling the first coordinate after each transvection breaks omega:
    the sp check reports a nonzero residual and `check-examples` exits 1."""
    real = constructions._transvect

    def stretched(n, z, v, c):
        out = real(n, z, v, c)
        out[0] *= 2
        return out

    monkeypatch.setattr(constructions, "_transvect", stretched)
    out = check_sp_embedding(3, trials=10, seed=5)
    assert not out["ok"]
    assert out["max_residual"] > 0
    assert run(["check-examples", "--construction", "sp", "--n", "3", "--seed", "5"]) == 1
    assert json.loads(capsys.readouterr().out)["results"]["sp"]["ok"] is False


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sl_trial_matches_the_matrix(n):
    """Applying the elementary operations to x and f gives g x and f o g^-1,
    from the same draws, for seeds 0-49: x = X / 60 and g x = GX / D on the
    int vectors, with D = 60^(2n + 1)."""
    for seed in range(50):
        rng, oracle = random.Random(seed), random.Random(seed)
        x, f, gx, f_ginv, d = _sl_trial(rng, n)
        x, f = [Fraction(a, 60) for a in x], [Fraction(a, 60) for a in f]
        gx, f_ginv = [Fraction(a, d) for a in gx], [Fraction(a, d) for a in f_ginv]
        g, ginv = random_unimodular(oracle, n)
        assert (x, f) == (rand_vec(oracle, n), rand_vec(oracle, n))
        assert gx == mat_vec(g, x)
        assert f_ginv == mat_vec(list(zip(*ginv)), f)
        assert d == 60 ** (2 * n + 1)
        assert rng.getstate() == oracle.getstate()


def test_a_non_unimodular_step_fails_the_sl_check(monkeypatch, capsys):
    """Doubling the first coordinate of g x after the elementary operations,
    a last step of determinant 2, breaks the pairing: the sl check reports a
    nonzero residual and `check-examples` exits 1."""
    real = constructions._sl_trial

    def stretched(rng, n):
        x, f, gx, f_ginv, d = real(rng, n)
        gx[0] *= 2
        return x, f, gx, f_ginv, d

    monkeypatch.setattr(constructions, "_sl_trial", stretched)
    out = check_sl_embedding(3, trials=10, seed=5)
    assert not out["ok"]
    assert out["max_residual"] > 0
    assert out["codimension"] == 1
    assert run(["check-examples", "--construction", "sl", "--n", "3", "--seed", "5"]) == 1
    assert json.loads(capsys.readouterr().out)["results"]["sl"]["ok"] is False


CHECK_EXAMPLES_OUTPUT = (
    '{"ok":true,"results":{"g2":{"form_dimension":1,"global_scale":"2/3","ok":true,'
    '"relations_checked":6,"scalars":{"-1,1,0":"-1","-1,2,-1":"1","0,1,-1":"1",'
    '"1,0,-1":"1","1,1,-2":"1"}},"sl":{"codimension":1,"max_residual":"0",'
    '"normalizer_dim":5,"ok":true,"stabilizer_dim":4,"trials":20},'
    '"sp":{"max_residual":"0","ok":true,"trials":20}}}\n'
)


@pytest.mark.parametrize("seed", range(10))
def test_check_examples_output_is_pinned(capsys, seed):
    """`check-examples` prints the pinned report, byte for byte."""
    assert run(["check-examples", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == CHECK_EXAMPLES_OUTPUT


def test_draw_table_holds_every_pair_once():
    """`_rand_scaled` chooses from one entry per pair (p, q), p in [-6, 6]
    and q in [1, 6], so its draws are uniform over the pairs: the table is
    the multiset of the 78 values 60 p / q, each an int."""
    expected = Counter()
    for p in range(-6, 7):
        for q in range(1, 7):
            value = 60 * Fraction(p, q)
            assert value.denominator == 1
            expected[value.numerator] += 1
    assert len(constructions._SCALED_DRAWS) == 78
    assert Counter(constructions._SCALED_DRAWS) == expected
    # seeded draws hit each value at its share of the pairs, within 5 sd
    rng, draws = random.Random(0), 78_000
    seen = Counter(_rand_scaled(rng) for _ in range(draws))
    assert seen.keys() == expected.keys()
    for value, pairs in expected.items():
        mean = draws * pairs / 78
        assert abs(seen[value] - mean) < 5 * (mean * (1 - pairs / 78)) ** 0.5


@pytest.mark.parametrize("n", [4, 6])
def test_check_examples_report_does_not_depend_on_the_seed(capsys, n):
    """The report holds only `ok`, counts and a zero residual, so every
    seed prints the same bytes."""
    argv = ["check-examples", "--n", str(n), "--trials", "3"]
    reports = []
    for seed in range(10):
        assert run([*argv, "--seed", str(seed)]) == 0
        reports.append(capsys.readouterr().out)
    assert json.loads(reports[0])["ok"] is True
    assert reports == reports[:1] * 10


def test_check_examples_all_n8_is_pinned(capsys):
    """The report of every construction at n = 8, 50 trials, seed 7 equals
    the pinned file, which the Fraction draws wrote."""
    pinned = Path(__file__).parent / "data" / "check_examples_all_n8.json"
    argv = ["check-examples", "--construction", "all", "--n", "8", "--trials", "50", "--seed", "7"]
    assert run(argv) == 0
    assert capsys.readouterr().out == pinned.read_text(encoding="utf-8")


def test_check_examples_sl_n32_is_pinned(capsys):
    """The sl check at the largest n equals the pinned file: its stabilizer
    (961) and normalizer (962) dimensions are nullities, through
    `linalg.rank`, of up to 65 rows of 1,025 columns."""
    pinned = Path(__file__).parent / "data" / "check_examples_sl_n32.json"
    assert run(["check-examples", "--construction", "sl", "--n", "32", "--trials", "3"]) == 0
    assert capsys.readouterr().out == pinned.read_text(encoding="utf-8")


def test_sl_embedding_needs_rank_three():
    with pytest.raises(ValueError):
        check_sl_embedding(2)


@pytest.mark.parametrize("check", [check_sp_embedding, check_sl_embedding])
def test_embedding_checks_refuse_n_above_max_rank(check):
    """Both embedding checks bound n by MAX_RANK themselves, not only the CLI."""
    with pytest.raises(ValueError, match=f"n {MAX_RANK + 1} exceeds the maximum rank {MAX_RANK}"):
        check(MAX_RANK + 1)


def _cycle_product(sc, relations, y) -> Fraction:
    """The product of (value / n(a, b))^y_k over the relations, after
    checking on root vectors that y is a cycle: every root's exponents in
    c_a c_b / c_target cancel."""
    rs = sc.system
    exponents = Counter()
    product = Fraction(1)
    for rel, k in zip(relations, y):
        for root, e in ((rel.a, 1), (rel.b, 1), (rel.target, -1)):
            exponents[root] += k * e
        product *= (Fraction(rel.value) / sc.table[rs.index_of(rel.a)][rs.index_of(rel.b)]) ** k
    assert not any(exponents.values())
    return product


def test_g2_relations_consistent():
    out = check_g2_relations()
    assert out["consistent"]
    assert out["relations"] == 6
    assert out["cycles"] == [(1, -1, 1, -1, -1, 1)]
    assert _cycle_product(cached_constants("G2", 2), _g2_relations(), out["cycles"][0]) == 1


def so7_relations():
    return [
        BracketRelation(vec(1, -1, 0), vec(-1, 0, 0), vec(0, -1, 0), Fraction(-2)),
        BracketRelation(vec(1, -1, 0), vec(-1, 0, -1), vec(0, -1, -1), Fraction(-2)),
        BracketRelation(vec(0, 1, -1), vec(0, -1, 0), vec(0, 0, -1), Fraction(-2)),
        BracketRelation(vec(0, 1, -1), vec(-1, -1, 0), vec(-1, 0, -1), Fraction(-2)),
        BracketRelation(vec(-1, 0, 1), vec(0, 0, -1), vec(-1, 0, 0), Fraction(-2)),
        BracketRelation(vec(-1, 0, 1), vec(0, -1, -1), vec(-1, -1, 0), Fraction(-2)),
    ]


def so8_relations():
    return [
        BracketRelation(vec(1, -1, 0, 0), vec(-1, 0, 0, -1), vec(0, -1, 0, -1), Fraction(-2)),
        BracketRelation(vec(1, -1, 0, 0), vec(-1, 0, -1, 0), vec(0, -1, -1, 0), Fraction(-2)),
        BracketRelation(vec(0, 1, -1, 0), vec(0, -1, 0, -1), vec(0, 0, -1, -1), Fraction(-2)),
        BracketRelation(vec(0, 1, -1, 0), vec(-1, -1, 0, 0), vec(-1, 0, -1, 0), Fraction(-2)),
        BracketRelation(vec(-1, 0, 1, 0), vec(0, 0, -1, -1), vec(-1, 0, 0, -1), Fraction(-2)),
        BracketRelation(vec(-1, 0, 1, 0), vec(0, -1, -1, 0), vec(-1, -1, 0, 0), Fraction(-2)),
    ]


def check_so7_relations() -> dict:
    """The six displayed so(7) cycle relations are NOT simultaneously
    realizable under any rescaling over C: the cycle through all six has
    product -1, which no rescaling changes, and the conflict names it.  This
    is why the corresponding candidate is feasible."""
    return _consistency_verdict(cached_constants("B", 3), so7_relations())


def check_so8_relations() -> dict:
    """Same verdict as check_so7_relations for the displayed so(8) cycles."""
    return _consistency_verdict(cached_constants("D", 4), so8_relations())


def test_so7_so8_relations_inconsistent():
    """The six-term so(7)/so(8) sign cycles admit no diagonal rescaling:
    the conflict names the cycle through all six relations, of product -1."""
    cycle = (1, -1, 1, -1, 1, -1)
    for out, sc, relations in (
        (check_so7_relations(), cached_constants("B", 3), so7_relations()),
        (check_so8_relations(), cached_constants("D", 4), so8_relations()),
    ):
        assert out == {
            "consistent": False,
            "conflict": f"relation cycle {cycle} has product -1 under every rescaling",
        }
        assert _cycle_product(sc, relations, cycle) == -1


def test_relation_cycle_ratio_is_basis_invariant():
    """The product of constants around each closed cycle has the wrong sign."""
    sc = cached_constants("B", 3)
    with pytest.raises(NoWitness):
        verify_relations_up_to_rescaling(sc, so7_relations())
    sc8 = cached_constants("D", 4)
    with pytest.raises(NoWitness):
        verify_relations_up_to_rescaling(sc8, so8_relations())


def test_verify_relations_finds_witness():
    """A single true relation admits the identity rescaling and closes no
    cycle; restated as [E_b, E_a] = -E_{a+b}, the two close the cycle (1, -1)."""
    sc = cached_constants("A", 2)
    a, b, t = vec(1, -1, 0), vec(0, 1, -1), vec(1, 0, -1)
    rel = BracketRelation(a, b, t, Fraction(1))
    assert verify_relations_up_to_rescaling(sc, [rel]) == {"cycles": [], "relations": 1}
    swapped = BracketRelation(b, a, t, Fraction(-1))
    assert verify_relations_up_to_rescaling(sc, [rel, swapped]) == {
        "cycles": [(1, -1)],
        "relations": 2,
    }


def test_a2_pair_consistent_by_rescaling_one_root_pair():
    """[E_{e1-e3}, E_{e3-e2}] = 2 E_{e1-e2} and [E_{e1-e2}, E_{e2-e3}] =
    2 E_{e1-e3} hold after c = 2 on E_{+-(e2-e3)}; they share no cycle."""
    sc = cached_constants("A", 2)
    relations = [
        BracketRelation(vec(1, 0, -1), vec(0, -1, 1), vec(1, -1, 0), Fraction(2)),
        BracketRelation(vec(1, -1, 0), vec(0, 1, -1), vec(1, 0, -1), Fraction(2)),
    ]
    assert verify_relations_up_to_rescaling(sc, relations) == {"cycles": [], "relations": 2}


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("factor", [-1, 2])
def test_scaled_relation_breaks_its_cycle(k, factor):
    """Scaling one G2 relation on the returned cycle by -1 or 2 multiplies
    the cycle's product by factor^y_k, and the conflict names that cycle."""
    relations = _g2_relations()
    cycle = check_g2_relations()["cycles"][0]
    rel = relations[k]
    relations[k] = BracketRelation(rel.a, rel.b, rel.target, factor * rel.value)
    product = Fraction(factor) ** cycle[k]
    message = f"relation cycle {cycle} has product {product} under every rescaling"
    with pytest.raises(NoWitness) as info:
        verify_relations_up_to_rescaling(cached_constants("G2", 2), relations)
    assert str(info.value) == message


def test_relation_input_checks():
    """A target other than a + b, and a bracket that vanishes on either
    side, are refused before any elimination."""
    sc = cached_constants("A", 2)
    a, b = vec(1, -1, 0), vec(0, 1, -1)
    for rel, message in (
        (BracketRelation(a, b, vec(0, 1, -1), Fraction(1)), "relation target mismatch"),
        (BracketRelation(a, vec(1, 0, -1), vec(2, -1, -1), Fraction(1)), "bracket vanishes"),
        (BracketRelation(a, b, vec(1, 0, -1), Fraction(0)), "bracket vanishes"),
        (BracketRelation(a, vec(1, 1, 1), vec(2, 0, 1), Fraction(1)), "bracket vanishes"),
    ):
        with pytest.raises(NoWitness, match=message):
            verify_relations_up_to_rescaling(sc, [rel])


RESCALING_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4)]


@given(data=st.data())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_hidden_rescaling_is_always_found(data):
    """Relations made from our own constants under a hidden nonzero rational
    rescaling are always consistent; each returned cycle is a cycle of
    product 1, the cycles span the rational left kernel of M, and scaling a
    relation with an odd entry in the first cycle by -1 breaks that cycle."""
    sc = cached_constants(*data.draw(st.sampled_from(RESCALING_SYSTEMS)))
    rs = sc.system
    triples = [(i, j, t) for i, row in enumerate(rs.sums) for j, t in zip(row[::2], row[1::2])]
    picked = data.draw(st.lists(st.sampled_from(triples), min_size=1, max_size=8))
    nonzero = st.integers(-6, 6).filter(bool)
    c = data.draw(
        st.lists(st.builds(Fraction, nonzero, st.integers(1, 6)),
                 min_size=len(rs.roots), max_size=len(rs.roots))
    )
    relations = [
        BracketRelation(rs.roots[i], rs.roots[j], rs.roots[t], sc.table[i][j] * c[i] * c[j] / c[t])
        for i, j, t in picked
    ]
    out = verify_relations_up_to_rescaling(sc, relations)
    assert out["relations"] == len(relations)
    for y in out["cycles"]:
        assert _cycle_product(sc, relations, y) == 1
    roots = sorted({v for i, j, t in picked for v in (i, j, t)})
    m = [[(v == i) + (v == j) - (v == t) for v in roots] for i, j, t in picked]
    rank = linalg.rank(m, len(roots))
    assert len(out["cycles"]) == len(relations) - rank
    if out["cycles"]:
        assert linalg.rank(out["cycles"], len(relations)) == len(out["cycles"])
        first = out["cycles"][0]
        k = next(k for k, y in enumerate(first) if y % 2)
        rel = relations[k]
        relations[k] = BracketRelation(rel.a, rel.b, rel.target, -rel.value)
        with pytest.raises(NoWitness, match=re.escape(f"relation cycle {first} has product -1")):
            verify_relations_up_to_rescaling(sc, relations)


def test_align_g2_form():
    """The solved G2 form matches the reference pattern after rescaling."""
    rs = build("G2", 2)
    cfg = derive_isotropy(rs, parabolic_distortion(rs, rs.simples[0]), PARABOLIC)
    assert validate(cfg).ok
    sc = cached_constants("G2", 2)
    system = assemble(sc, cfg)
    sol = solve(system)
    assert sol.dimension == 1
    out = align_g2_form(system, sol.nondegenerate_witness)
    assert out["global_scale"] == Fraction(2, 3)
    assert set(out["scalars"].values()) <= {Fraction(1), Fraction(-1)}


@pytest.mark.parametrize("extra", [
    (vec(-1, 1, 0), vec(-1, 2, -1)),  # shares a label with the first pair
    (vec(0, 1, -1), vec(1, 0, -1)),  # shares the self-paired label
])
def test_align_g2_rejects_a_label_in_two_pairs(monkeypatch, extra):
    """A label in two reference pairs is named before any scalar is guessed."""
    rs = build("G2", 2)
    cfg = derive_isotropy(rs, parabolic_distortion(rs, rs.simples[0]), PARABOLIC)
    assert validate(cfg).ok
    system = assemble(cached_constants("G2", 2), cfg)
    reference = {**constructions.G2_REFERENCE_FORM, extra: Fraction(1)}
    monkeypatch.setattr(constructions, "G2_REFERENCE_FORM", reference)
    shared = re.escape(str(extra[0]))
    with pytest.raises(Unalignable, match=f"label {shared} lies in two reference pairs"):
        align_g2_form(system, solve(system).nondegenerate_witness)


def test_align_g2_rejects_wrong_pattern():
    rs = build("G2", 2)
    cfg = derive_isotropy(rs, parabolic_distortion(rs, rs.simples[0]), PARABOLIC)
    validate(cfg)
    sc = cached_constants("G2", 2)
    system = assemble(sc, cfg)
    bad = tuple(Fraction(0) for _ in solve(system).nondegenerate_witness)
    with pytest.raises(Unalignable, match="vanishing pairing"):
        align_g2_form(system, bad)
