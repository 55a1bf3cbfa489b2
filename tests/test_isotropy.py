import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from lieconformal.classify import _systems
from lieconformal.errors import Inconsistent
from lieconformal.isotropy import (
    CARTAN_LABEL,
    CASE1,
    CASE2,
    PARABOLIC,
    Distortion,
    IsotropyConfig,
    _paired,
    case2_normal,
    derive_isotropy,
    parabolic_distortion,
    partner,
    quotient_basis,
    translate_config,
    validate,
)
from lieconformal.linalg import nullspace
from lieconformal.rootsys import (
    build,
    dot,
    doubled,
    minimal_root,
    minimal_root_index,
    random_weyl_word,
    vec,
    vsub,
)
from conftest import positives, vadd
from test_rootsys import halved, vneg, weyl_reflect


def case1_distortion(rs, m):
    return Distortion(vneg(m))


def as_vectors(rs, indices):
    return {rs.roots[i] for i in indices}


def case2_normal_oracle(rs):
    """The Case2 normal from the nullspace over the minimal root and every
    positive root orthogonal to it: twice the primitive integer normal with
    a positive leading entry, or None."""
    coords, simples = rs.coords, rs.simple_idx
    low = minimal_root_index(rs)
    span = [low] + [b for b in rs.positive_idx if dot(coords[low], coords[b]) == 0]
    rows = [tuple(dot(coords[i], coords[k]) for k in simples) for i in span]
    null = nullspace(rows, len(simples))
    if not null:
        return None
    (v,) = null
    normal = [sum(c * coords[k][x] for c, k in zip(v, simples)) for x in range(rs.dim)]
    den = math.lcm(*(Fraction(x).denominator for x in normal))
    ints = [int(x * den) for x in normal]
    g = math.gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
    return tuple(2 * x // g for x in ints)


def test_case2_normal_cache_matches_uncached():
    """The per-system cache of the Case2 normal returns what a fresh
    computation returns, and the same object on a repeat call; on every
    irreducible system up to rank 16 it equals the normal of the span of
    every positive root orthogonal to the minimal root, both where it is
    None and where it is a hyperplane normal."""
    kinds = set()
    for rs in _systems(16):
        if rs.label == "A1xA1":
            continue
        normal = case2_normal(rs)
        assert normal == case2_normal_oracle(rs), rs
        assert normal == case2_normal.__wrapped__(rs), rs
        assert case2_normal(rs) is normal
        kinds.add(normal is None)
    assert kinds == {True, False}


def test_case2_normal_pins_the_cartan_scaling():
    """The Case2 normal on doubled coordinates is twice the least integer
    normal with a positive leading entry; its scale reaches the printed
    `solve` basis through the Cartan label."""
    want = {
        ("A", 2): (2, -4, 2),
        ("A", 3): (2, -2, -2, 2),
        ("A", 4): (6, -4, -4, -4, 6),
        ("A", 8): (14, -4, -4, -4, -4, -4, -4, -4, 14),
        ("D", 3): (0, 0, 2),
    }
    assert {key: case2_normal(build(*key)) for key in want} == want


def test_pairing_partner_rule():
    """r is paired exactly when delta - r is a root or zero."""
    rs = build("C", 3)
    d = case1_distortion(rs, vec(1, 1, 0))
    paired = _paired(rs, rs.key(doubled(d.functional)))
    r = vec(1, -1, 0)
    assert rs.index_of(r) in paired
    assert vsub(d.functional, r) == vec(-2, 0, 0) and rs.index_of(vec(-2, 0, 0)) >= 0
    assert rs.index_of(vec(-1, -1, 0)) in paired  # delta - r is zero
    assert rs.index_of(vec(0, 1, -1)) not in paired


def test_partner_is_an_involution_on_the_paired_labels():
    """On the C3 Case1 config the Cartan label and delta are partners, an
    unpaired root has none, and partner(partner(l)) == l for every paired
    label."""
    rs = build("C", 3)
    kd = rs.key(doubled(case1_distortion(rs, vec(1, 1, 0)).functional))
    d = rs.index_of(vec(-1, -1, 0))
    assert partner(rs, kd, CARTAN_LABEL) == d
    assert partner(rs, kd, d) == CARTAN_LABEL
    assert partner(rs, kd, rs.index_of(vec(0, 1, -1))) is None
    assert partner(rs, kd, rs.index_of(vec(1, -1, 0))) == rs.index_of(vec(-2, 0, 0))
    paired = [l for l in [*range(len(rs.roots)), CARTAN_LABEL] if partner(rs, kd, l) is not None]
    assert CARTAN_LABEL in paired and len(paired) > 2
    for l in paired:
        assert partner(rs, kd, partner(rs, kd, l)) == l
    assert set(paired) - {CARTAN_LABEL} == _paired(rs, kd)


def test_paired_is_the_set_view_of_partner():
    """The one-pass `_paired` equals the roots `partner` pairs, for the
    distortion of every candidate `classify_all(8)` judges."""
    from lieconformal.classify import classify_all

    judged = 0
    for v in classify_all(8).verdicts:
        rs = build(v.label, v.rank)
        kd = rs.key(doubled(v.delta))
        want = {i for i in range(len(rs.coords)) if partner(rs, kd, i) is not None}
        assert _paired(rs, kd) == want
        judged += 1
    assert judged == 215


def tuple_partner(rs, at, d2, label):
    """Reference: `partner` on coordinate tuples, with `at` the tuple-keyed
    dict of the roots and d2 the doubled distortion."""
    if label == CARTAN_LABEL:
        return at.get(d2)
    m = tuple(d - c for d, c in zip(d2, rs.coords[label]))
    return at.get(m) if any(m) else CARTAN_LABEL


def test_paired_and_partner_match_tuple_lookup(rank8_survivors):
    """`_paired` and `partner` on keys agree with tuple arithmetic and a
    tuple-keyed dict for the distortion of every `classify_all(8)`
    candidate and of 3 seeded Weyl translates of each rank <= 5 survivor;
    and off the key box, where nothing pairs, for each distortion with one
    entry moved to 9, to a Fraction, or by +32 with -1 on the next entry,
    which keeps its raw key."""
    from lieconformal.classify import classify_all

    rng = random.Random(2525)
    cases = [(build(v.label, v.rank), doubled(v.delta)) for v in classify_all(8).verdicts]
    for system, _ in rank8_survivors:
        cfg = system.config
        if cfg.system.rank <= 5:
            cases += [
                (cfg.system, translate_config(cfg, random_weyl_word(cfg.system, rng, 6)).d2)
                for _ in range(3)
            ]
    assert len(cases) > 215
    off_box = 0
    for rs, d2 in cases:
        at = {c: i for i, c in enumerate(rs.coords)}
        labels = [*range(len(rs.coords)), CARTAN_LABEL]
        for v2 in (
            d2,
            (9,) + d2[1:],
            (Fraction(1, 3),) + d2[1:],
            (d2[0] + 32, d2[1] - 1) + d2[2:],
        ):
            kd = rs.key(v2)
            want = {l: tuple_partner(rs, at, v2, l) for l in labels}
            assert {l: partner(rs, kd, l) for l in labels} == want
            assert _paired(rs, kd) == {
                i for i in range(len(rs.coords)) if want[i] is not None
            }
            off_box += kd is None
    assert off_box == 3 * len(cases)


def test_case1_c3_derives_and_validates():
    rs = build("C", 3)
    d = case1_distortion(rs, vec(1, 1, 0))
    cfg = derive_isotropy(rs, d, CASE1)
    report = validate(cfg)
    assert report.ok, report.checks
    assert cfg.case_tag == CASE1
    assert rs.roots[cfg.alpha] == vec(1, -1, 0)
    assert cfg.alpha not in cfg.h_roots
    assert cfg.nu2 == rs.coords[cfg.alpha]


def test_case1_b3_eliminated_by_partner_multiplicity():
    """delta = -e1 in B3 admits several orthogonal partners; inconsistent."""
    rs = build("B", 3)
    d = case1_distortion(rs, vec(1, 0, 0))
    with pytest.raises(Inconsistent):
        derive_isotropy(rs, d, CASE1)


def test_case2_a3_derives_and_validates():
    rs = build("A", 3)
    low = minimal_root(rs)
    cfg = derive_isotropy(rs, Distortion(low), CASE2)
    assert validate(cfg).ok
    # the Cartan part of h is a hyperplane
    assert cfg.nu2 is not None


def test_case2_b3_inconsistent():
    """Forced coroots fill the B3 Cartan, so no hyperplane kernel exists."""
    rs = build("B", 3)
    low = minimal_root(rs)
    with pytest.raises(Inconsistent):
        derive_isotropy(rs, Distortion(low), CASE2)


@pytest.mark.parametrize("label,rank,idx", [
    ("B", 3, 0), ("B", 3, 2), ("D", 4, 0), ("G2", 2, 0), ("A", 3, 1),
])
def test_parabolic_derives_and_validates(label, rank, idx):
    rs = build(label, rank)
    cfg = derive_isotropy(rs, parabolic_distortion(rs, rs.simples[idx]), PARABOLIC)
    report = validate(cfg)
    assert report.ok, report.checks
    assert cfg.alpha == rs.simple_idx[idx]
    # h contains the Borel: every positive root except none is in h plus Cartan
    h = as_vectors(rs, cfg.h_roots)
    assert set(positives(rs)) <= h
    missing = [r for r in positives(rs) if vneg(r) not in h]
    assert all(r is not None for r in missing) and missing


def test_parabolic_h_is_maximal():
    """Exactly the negatives supported on alpha are excluded from h."""
    rs = build("B", 3)
    alpha = rs.simples[2]
    cfg = derive_isotropy(rs, parabolic_distortion(rs, alpha), PARABOLIC)
    h = as_vectors(rs, cfg.h_roots)
    for r in positives(rs):
        coeff = rs.expansions[rs.index_of(r)][2]
        assert (vneg(r) in h) == (coeff == 0)


def test_quotient_basis_dimension():
    rs = build("B", 3)
    cfg = derive_isotropy(rs, parabolic_distortion(rs, rs.simples[2]), PARABOLIC)
    validate(cfg)
    labels = quotient_basis(cfg)
    # dim g = 21, dim h = 15 (parabolic for the last simple root of B3)
    assert len(labels) == 6


def test_translate_config_preserves_validation():
    rng = random.Random(3)
    rs = build("C", 3)
    d = case1_distortion(rs, vec(1, 1, 0))
    cfg = derive_isotropy(rs, d, CASE1)
    validate(cfg)
    for _ in range(10):
        word = random_weyl_word(rs, rng, rng.randint(1, 6))
        moved = translate_config(cfg, word)
        assert moved.validated
        assert len(moved.h_roots) == len(cfg.h_roots)
        assert len(moved.p_roots) == len(cfg.p_roots)
        assert moved.h_roots <= set(range(len(rs.roots)))


def vector_translate(config, word):
    """Reference: every ingredient moved through `weyl_reflect`, one mirror
    at a time, as Weyl transport was done before it ran on root indices."""
    rs = config.system

    def move(v):
        for mirror in word:
            v = weyl_reflect(rs, mirror, v)
        return v

    def move_root(i):
        return rs.index_of(move(rs.roots[i]))

    return replace(
        config,
        d2=doubled(move(halved(config.d2))),
        nu2=None if config.nu2 is None else doubled(move(halved(config.nu2))),
        h_roots=frozenset(map(move_root, config.h_roots)),
        p_roots=frozenset(map(move_root, config.p_roots)),
        alpha=None if config.alpha is None else move_root(config.alpha),
        validated=True,
    )


def simple_mirrors(rs, word):
    """The simple roots a word of simple-root positions names."""
    return [rs.simples[k] for k in word]


def test_translate_config_matches_vector_path(rank8_survivors):
    """Index transport equals the vector path on every rank-8 survivor, for
    seeded words of up to 12 simple reflections, whose products reach the
    non-simple reflections too."""
    rng = random.Random(4242)
    for system, _ in rank8_survivors:
        cfg = system.config
        rs = cfg.system
        for _ in range(2):
            word = random_weyl_word(rs, rng, rng.randint(1, 12))
            new = translate_config(cfg, word)
            old = vector_translate(cfg, simple_mirrors(rs, word))
            assert new.h_roots == old.h_roots
            assert new.p_roots == old.p_roots
            assert new.d2 == old.d2
            assert new.nu2 == old.nu2
            assert new.alpha == old.alpha
            assert new == old


def test_translate_config_moves_off_lattice_vectors():
    """A Cartan normal off the root lattice takes rational reflection
    coefficients (the E8 half-spin simple root, an arbitrary B3 vector) and
    still moves as on the vector path."""
    rng = random.Random(4343)
    fractional = 0
    for label, rank, nu in [
        ("G2", 2, vec(1, 0, -1)),
        ("E8", 8, vec(1, 0, 0, 0, 0, 0, 0, 0)),
        ("B", 3, vec(Fraction(1, 3), Fraction(-1, 2), 5)),
    ]:
        rs = build(label, rank)
        d2 = doubled(minimal_root(rs))
        positives = frozenset(rs.positive_idx)
        cfg = IsotropyConfig(CASE2, rs, d2, doubled(nu), positives, positives)
        for _ in range(5):
            word = random_weyl_word(rs, rng, rng.randint(1, 6))
            mirrors = simple_mirrors(rs, word)
            assert translate_config(cfg, word) == vector_translate(cfg, mirrors)
            v = nu
            for mirror in mirrors:
                fractional += (2 * dot(v, mirror) / dot(mirror, mirror)).denominator != 1
                v = weyl_reflect(rs, mirror, v)
    assert fractional > 0


def test_translate_config_rejects_bad_mirrors():
    """A word entry that is not a simple-root position, an int in
    range(rank), is refused with a one-line ValueError."""
    rs = build("C", 3)
    cfg = derive_isotropy(rs, case1_distortion(rs, vec(1, 1, 0)), CASE1)
    validate(cfg)
    for bad in (rs.rank, -1, True, rs.simples[0]):
        with pytest.raises(ValueError) as exc:
            translate_config(cfg, [0, bad])
        assert "\n" not in str(exc.value)


def failed_checks(cfg):
    report = validate(cfg)
    assert not report.ok and not cfg.validated
    return {name: witness for name, _, witness in report.failures()}


def b3_parabolic():
    rs = build("B", 3)
    cfg = derive_isotropy(rs, parabolic_distortion(rs, rs.simples[2]), PARABOLIC)
    assert validate(cfg).ok
    return rs, cfg


def test_validate_rejects_a_dropped_kernel_root():
    """Without -(e1 - e3), h is no longer closed under p and leaves an
    unpaired root outside the kernel; the witnesses are deterministic."""
    rs, cfg = b3_parabolic()
    dropped = rs.index_of(vec(-1, 0, 1))
    broken = replace(
        cfg, h_roots=cfg.h_roots - {dropped}, p_roots=cfg.p_roots - {dropped}, validated=False
    )
    failed = failed_checks(broken)
    assert set(failed) == {
        "bracket closure of h under p",
        "kernel matches the pairing rule exactly",
    }
    beta, gamma = failed["bracket closure of h under p"]
    assert vadd(beta, gamma) == vec(-1, 0, 1)
    assert (beta, gamma) == (vec(-1, 1, 0), vec(0, -1, 1))  # the lex-least failing pair
    assert failed["kernel matches the pairing rule exactly"] == vec(-1, 0, 1)


def test_validate_rejects_a_paired_kernel_root():
    rs, cfg = b3_parabolic()
    added = rs.index_of(vec(0, 0, -1))
    broken = replace(
        cfg, h_roots=cfg.h_roots | {added}, p_roots=cfg.p_roots | {added}, validated=False
    )
    failed = failed_checks(broken)
    assert failed["kernel matches the pairing rule exactly"] == vec(0, 0, -1)


def test_validate_rejects_a_full_cartan_in_case1():
    rs = build("C", 3)
    cfg = derive_isotropy(rs, case1_distortion(rs, vec(1, 1, 0)), CASE1)
    broken = replace(cfg, nu2=None)
    assert "Case1 Cartan part is a hyperplane" in failed_checks(broken)
    assert validate(cfg).ok


def test_validate_rejects_an_unpaired_case1_root():
    """2 e3 is orthogonal to delta = -(e1 + e2) in C3, but delta - 2 e3 is no
    root, so it cannot be the Case1 orthogonal root."""
    rs = build("C", 3)
    cfg = derive_isotropy(rs, case1_distortion(rs, vec(1, 1, 0)), CASE1)
    assert validate(cfg).ok and cfg.alpha == rs.index_of(vec(1, -1, 0))
    broken = replace(cfg, alpha=rs.index_of(vec(0, 0, 2)), validated=False)
    assert set(failed_checks(broken)) == {"Case1 orthogonal root"}
