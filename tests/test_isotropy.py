import math
import random
from dataclasses import replace
from fractions import Fraction
from operator import gt

import pytest
from hypothesis import given, settings, strategies as st

from lieconformal.classify import _systems
from lieconformal.errors import Inconsistent, Reducible
from lieconformal.isotropy import (
    CARTAN_LABEL,
    CASE1,
    CASE2,
    CASE_TAGS,
    LOWRANK,
    PARABOLIC,
    Distortion,
    IsotropyConfig,
    _closure,
    _final_checks,
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
)
from conftest import positives, vadd, vsub
from test_rootsys import halved, vneg, weyl_reflect


def case1_distortion(rs, m):
    return Distortion(vneg(m))


def as_vectors(rs, indices):
    return {rs.roots[i] for i in indices}


def paired_set(rs, kd) -> set:
    """The root indices that the `_paired` mask marks; the mask has one 0/1
    entry per root."""
    mask = _paired(rs, kd)
    assert len(mask) == len(rs.roots) and set(mask) <= {0, 1}
    return {i for i, flag in enumerate(mask) if flag}


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
    paired = paired_set(rs, rs.key(doubled(d.functional)))
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
    assert set(paired) - {CARTAN_LABEL} == paired_set(rs, kd)


def test_paired_is_the_set_view_of_partner():
    """The one-pass `_paired` equals the roots `partner` pairs, for the
    distortion of every candidate `classify_all(8)` judges."""
    from lieconformal.classify import classify_all

    judged = 0
    for v in classify_all(8).verdicts:
        rs = build(v.label, v.rank)
        kd = rs.key(doubled(v.delta))
        want = {i for i in range(len(rs.coords)) if partner(rs, kd, i) is not None}
        assert paired_set(rs, kd) == want
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
            assert paired_set(rs, kd) == {
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


def test_case_seeds_rest_on_two_root_facts():
    """The facts behind the Case1 and Case2 seeds, checked without the
    closure on every system up to rank 16 and on B32, C32 and D32: the
    minimal root -theta pairs no positive root, so Case2's unpaired roots
    hold every positive root; and no root's double is a root, so alpha is
    the one positive root proportional to alpha."""
    for rs in _systems(16) + [build(label, 32) for label in "BCD"]:
        if rs.label != "A1xA1":
            paired = _paired(rs, rs.keys[minimal_root_index(rs)])
            assert not any(paired[i] for i in rs.positive_idx), rs
        assert not any(rs.key(tuple(2 * x for x in c)) in rs.by_key for c in rs.coords), rs


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


def test_parabolic_seeds_are_the_nonnegative_alpha_coefficients():
    """The parabolic seeds, the Borel plus the opposites of the positive
    roots without alpha, are exactly the roots whose alpha-coefficient is
    >= 0, and no pair of `sums` with both summands among them leaves them,
    for every simple root of every system up to rank 16 and for the first,
    middle and last simple root of B32, C32 and D32; so the closure need
    not sweep them."""
    cases = [(rs, a) for rs in _systems(16) for a in range(rs.rank)]
    cases += [(build(label, 32), a) for label in "BCD" for a in (0, 15, 31)]
    for rs, a in cases:
        seeds = set(rs.positive_idx)
        seeds.update(rs.neg[b] for b in rs.positive_idx if rs.expansions[b][a] == 0)
        mask = bytes(e[a] >= 0 for e in rs.expansions)
        assert seeds == {i for i, flag in enumerate(mask) if flag}
        for x in seeds:
            row = rs.sums[x]
            leaving = map(gt, map(mask.__getitem__, row[::2]), map(mask.__getitem__, row[1::2]))
            assert not any(leaving), (rs, a, x)


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


# ------------------------------------------------- set-based closure oracle


def set_closure(rs, d2, forced, nu2) -> set:
    """Reference for `_closure` on root-index sets: sweep the sum row of
    every added root until nothing more joins."""
    sums, neg, coords = rs.sums, rs.neg, rs.coords
    seeds = list(forced)
    if nu2 is not None:
        nn = dot(nu2, nu2)
        for lam in rs.positive_idx:
            lc = dot(coords[lam], nu2)
            if lc * lc != rs.norm[lam] * nn:
                seeds.append(lam)
    s, p = set(), set(rs.positive_idx)
    work = []

    def put(x):
        s.add(x)
        p.add(x)
        work.append(x)

    for x in seeds:
        if x not in s:
            put(x)
    while work:
        x = work.pop()
        pairs = iter(sums[x])
        for g, t in zip(pairs, pairs):
            if g in p and t not in s:
                put(t)
        if neg[x] not in s and dot(d2, coords[x]) == 0:
            put(neg[x])
    return s


def set_final_checks(rs, s, nu2, paired):
    """Reference for `_final_checks` on root-index sets, by set algebra."""
    roots = rs.roots
    bad = sorted(s & paired)
    if bad:
        raise Inconsistent(
            f"paired root {roots[bad[0]]} forced into the kernel", witness=roots[bad[0]]
        )
    missing = sorted(set(range(len(roots))) - paired - s)
    if missing:
        raise Inconsistent(
            f"unpaired root {roots[missing[0]]} left outside the kernel",
            witness=roots[missing[0]],
        )
    if len(s) == len(roots):
        raise Inconsistent("kernel closure swallows the whole algebra")
    if nu2 is not None:
        for beta in sorted(s):
            opposite = rs.neg[beta]
            if (opposite in s or rs.is_positive[opposite]) and dot(nu2, rs.coords[beta]) != 0:
                raise Inconsistent(
                    f"coroot of {roots[beta]} escapes the Cartan hyperplane", witness=roots[beta]
                )


def oracle_derive(rs, delta, case_tag):
    """`derive_isotropy` on root-index sets, with the pairing set from
    `partner`: (case tag, h_roots, p_roots, alpha), or the same exception."""
    d2 = doubled(delta.functional)
    kd = rs.key(d2)
    paired = {i for i in range(len(rs.roots)) if partner(rs, kd, i) is not None}
    if rs.label == "A1xA1":
        if case_tag in (CASE1, CASE2):
            raise Reducible("Case1/Case2 need an irreducible system")
        if delta.functional != vneg(vadd(*rs.simples)):
            raise Inconsistent("product-of-Borels distortion mismatch", witness=delta.functional)
        forced, nu2, alpha, tag = set(rs.positive_idx), None, None, LOWRANK
    elif case_tag in (CASE1, CASE2):
        d = rs.by_key.get(kd, -1)
        if d < 0:
            raise Inconsistent("distortion must be a root in this case", witness=delta.functional)
        if rs.is_positive[d]:
            raise Inconsistent("distortion root must be negative", witness=delta.functional)
        alpha = None
        if case_tag == CASE1:
            candidates = [a for a in rs.positive_idx if dot(d2, rs.coords[a]) == 0 and a in paired]
            if not candidates:
                raise Inconsistent("no orthogonal pairing partner for the distortion")
            if len(candidates) > 1:
                raise Inconsistent(
                    "multiple orthogonal pairing partners",
                    witness=tuple(rs.roots[a] for a in candidates),
                )
            alpha = candidates[0]
            nu2 = rs.coords[alpha]
        else:
            if d != minimal_root_index(rs):
                raise Inconsistent(
                    "Case2 distortion must be the minimal root", witness=delta.functional
                )
            nu2 = case2_normal(rs)
            if nu2 is None:
                raise Inconsistent(
                    "forced coroots fill the whole Cartan", witness=delta.functional
                )
        forced = set(range(len(rs.roots))) - paired
        tag = case_tag
    else:
        alpha = -1 if kd is None else rs.by_key.get(rs.keys[minimal_root_index(rs)] - kd, -1)
        if alpha not in rs.simple_idx:
            raise Inconsistent(
                "distortion is not (minimal root - simple root)",
                witness=vsub(minimal_root(rs), delta.functional),
            )
        a_index = rs.simple_idx.index(alpha)
        forced = set(rs.positive_idx)
        forced.update(rs.neg[b] for b in rs.positive_idx if rs.expansions[b][a_index] == 0)
        nu2 = None
        tag = LOWRANK if rs.rank == 1 else PARABOLIC
    s = set_closure(rs, d2, forced, nu2)
    set_final_checks(rs, s, nu2, paired)
    return tag, frozenset(s), frozenset(s.union(rs.positive_idx)), alpha


def outcome(derive, rs, delta, case_tag):
    """What a derivation gives: the exception type, message and witness, or
    the (case tag, h_roots, p_roots, alpha) of the config."""
    try:
        cfg = derive(rs, delta, case_tag)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    if isinstance(cfg, IsotropyConfig):
        return cfg.case_tag, cfg.h_roots, cfg.p_roots, cfg.alpha
    return cfg


def test_derive_isotropy_matches_the_set_oracle(monkeypatch):
    """On every candidate of `classify_all(12)` with a distortion, those
    the root stage eliminates included, on every root of every irreducible
    system up to rank 10 as a Case1 and as a Case2 distortion, on every
    parabolic candidate of B16, C16, D16, E7 and E8, on every root of A1xA1
    under all four case tags and its product-of-Borels distortion under
    Parabolic and LowRank, and on the off-lattice and off-box configs of
    tests/data, the mask-based derivation raises the same message and
    witness as the set-based oracle, or returns the same kernel, normalizer
    and alpha.  The oracle applies the nu rule; outcomes alone would not
    see a dropped Case1 seed, so a spy on `_closure` also checks that every
    Case1 worklist lists each root once and holds every positive root
    except alpha."""
    import json
    from pathlib import Path

    from lieconformal import isotropy
    from lieconformal.classify import classify_all
    from lieconformal.cli import _config_from_json

    cases = [
        (build(v.label, v.rank), Distortion(v.delta), v.case)
        for v in classify_all(12).verdicts
        if v.delta is not None
    ]
    for rs in _systems(10):
        if rs.label != "A1xA1":
            cases += [(rs, Distortion(r), tag) for r in rs.roots for tag in (CASE1, CASE2)]
    for rs in (build("B", 16), build("C", 16), build("D", 16), build("E7", 7), build("E8", 8)):
        cases += [(rs, parabolic_distortion(rs, a), PARABOLIC) for a in rs.simples]
    rs = build("A1xA1", 2)
    cases += [(rs, Distortion(r), tag) for r in rs.roots for tag in CASE_TAGS]
    cases += [(rs, Distortion(vec(-1, 1, -1, 1)), tag) for tag in (PARABOLIC, LOWRANK)]
    data = Path(__file__).parent / "data"
    for name in ("b3_case1_offlattice", "b3_parabolic_offbox", "a3_case2_offbox"):
        cases.append(_config_from_json(json.loads((data / f"{name}.json").read_text())))
    worklists, closure = [], isotropy._closure

    def spy(rs, d2, in_s, work):
        worklists.append(list(work))
        return closure(rs, d2, in_s, work)

    monkeypatch.setattr(isotropy, "_closure", spy)
    kinds = set()
    nu_rule_adds = 0  # Case1 worklists with a paired root: the nu rule's additions
    for rs, delta, case_tag in cases:
        want = outcome(oracle_derive, rs, delta, case_tag)
        worklists.clear()
        assert outcome(derive_isotropy, rs, delta, case_tag) == want
        kinds.add(want[1].split(" (")[0] if isinstance(want[0], type) else "config")
        if case_tag == CASE1 and worklists:
            [work] = worklists
            assert len(set(work)) == len(work)
            d2 = doubled(delta.functional)
            kd = rs.key(d2)
            [alpha] = [
                a for a in rs.positive_idx
                if dot(d2, rs.coords[a]) == 0 and partner(rs, kd, a) is not None
            ]
            assert set(rs.positive_idx) - set(work) == {alpha}, (rs, delta)
            nu_rule_adds += any(partner(rs, kd, a) is not None for a in work)
    assert {
        "config",
        "paired root",
        "unpaired root",
        "multiple orthogonal pairing partners",
        "distortion is not",
        "distortion must be a root in this case",
        "Case1/Case2 need an irreducible system",
        "product-of-Borels distortion mismatch",
    } <= kinds, kinds
    assert nu_rule_adds > 0


@given(data=st.data())
@settings(derandomize=True, max_examples=120, deadline=None)
def test_closure_reaches_the_set_oracle_fixed_point(data):
    """On B4, F4 and E6, a distortion drawn from the roots or from small
    integer vectors and either a random forced subset with an optional
    Cartan normal nu, listed unmarked with every positive root not
    proportional to nu, or the parabolic seeds of a random simple root
    alpha (every root with alpha-coefficient >= 0) marked with only their
    sl2 additions listed, close to the oracle's fixed point, which sweeps
    every seed and applies the nu rule itself.  The final checks raise
    what the oracle's raise, both against the distortion's pairing and
    against the complement of the kernel, which passes the pairing rule
    and so reaches the whole-algebra and coroot checks."""
    rs = build(*data.draw(st.sampled_from([("B", 4), ("F4", 4), ("E6", 6)])))
    n = len(rs.roots)
    d2 = data.draw(
        st.sampled_from(rs.coords)
        | st.tuples(*[st.integers(-4, 4)] * rs.dim).filter(any)
    )
    if data.draw(st.booleans()):
        a = data.draw(st.integers(0, rs.rank - 1))
        forced = {i for i, e in enumerate(rs.expansions) if e[a] >= 0}
        work = [
            rs.neg[b] for b in rs.positive_idx
            if rs.expansions[b][a] > 0 and dot(d2, rs.coords[b]) == 0
        ]
        seeds = bytearray(i in forced for i in range(n))
        nu2 = None
    else:
        forced = data.draw(st.sets(st.integers(0, n - 1), max_size=n // 8))
        nu2 = data.draw(st.none() | st.sampled_from(rs.coords))
        listed = set(forced)
        if nu2 is not None:
            nn = dot(nu2, nu2)
            listed.update(
                lam for lam in rs.positive_idx if dot(rs.coords[lam], nu2) ** 2 != rs.norm[lam] * nn
            )
        work = sorted(listed)
        seeds = bytearray(n)
    in_s = _closure(rs, d2, seeds, work)
    want = set_closure(rs, d2, forced, nu2)
    assert {i for i, flag in enumerate(in_s) if flag} == want
    kd = rs.key(d2)

    def verdict(check, *args):
        try:
            check(*args)
        except Inconsistent as exc:
            return str(exc), exc.witness
        return None

    paired = {i for i in range(n) if partner(rs, kd, i) is not None}
    assert verdict(_final_checks, rs, in_s, nu2, _paired(rs, kd)) == verdict(
        set_final_checks, rs, want, nu2, paired
    )
    outside = bytearray(1 - flag for flag in in_s)
    assert verdict(_final_checks, rs, in_s, nu2, outside) == verdict(
        set_final_checks, rs, want, nu2, set(range(n)) - want
    )
    # a random pairing mostly breaks the rule both ways, in either index order
    drawn = data.draw(st.sets(st.integers(0, n - 1)))
    mask = bytearray(i in drawn for i in range(n))
    assert verdict(_final_checks, rs, in_s, nu2, mask) == verdict(
        set_final_checks, rs, want, nu2, drawn
    )


def test_final_checks_name_a_coroot_whose_opposite_is_positive():
    """A kernel root whose opposite is a positive root outside the kernel
    still has its coroot checked against the Cartan hyperplane."""
    rs = build("B", 3)
    nu = rs.simple_idx[0]
    in_s = bytearray(len(rs.roots))
    in_s[rs.neg[nu]] = 1
    outside = bytearray(1 - flag for flag in in_s)
    with pytest.raises(Inconsistent) as exc:
        _final_checks(rs, in_s, rs.coords[nu], outside)
    assert exc.value.witness == rs.roots[rs.neg[nu]]
    assert str(exc.value) == f"coroot of {rs.roots[rs.neg[nu]]} escapes the Cartan hyperplane"


def set_validate_witnesses(cfg) -> list:
    """Reference witnesses of `validate`'s bracket-closure, coroot and
    pairing checks, by set algebra on the config's frozensets."""
    rs, s, p, nu2 = cfg.system, cfg.h_roots, cfg.p_roots, cfg.nu2
    bracket = coroot = None
    for b in sorted(s):
        pairs = iter(rs.sums[b])
        g = min((g for g, t in zip(pairs, pairs) if g in p and t not in s), default=None)
        if g is not None:
            bracket = (rs.roots[b], rs.roots[g])
            break
    if nu2 is not None:
        pos = set(rs.positive_idx)
        for b in sorted(s):
            opposite = rs.neg[b]
            if (opposite in s or opposite in pos) and dot(nu2, rs.coords[b]) != 0:
                coroot = rs.roots[b]
                break
    kd = rs.key(cfg.d2)
    paired = {i for i in range(len(rs.roots)) if partner(rs, kd, i) is not None}
    bad = sorted(s & paired) + sorted(set(range(len(rs.roots))) - paired - s)
    return [bracket, coroot, rs.roots[bad[0]] if bad else None]


def test_validate_masks_match_the_set_checks(rank8_survivors):
    """On every rank-8 survivor config and seven seeded corruptions of each
    (a root dropped from or added to h and p, a root toggled in p or in h
    alone, a full Cartan with a wrong alpha, -alpha added to h and p),
    `validate`'s bracket-closure, coroot and pairing checks give the
    witnesses of the set algebra."""
    rng = random.Random(3232)
    failed = coroots = 0
    for system, _ in rank8_survivors:
        cfg = system.config
        n = len(cfg.system.roots)
        variants = [cfg]
        for kind in range(7):
            h, p, x = set(cfg.h_roots), set(cfg.p_roots), rng.randrange(n)
            if kind == 6 and cfg.alpha is not None:
                # its opposite alpha is positive and outside h
                h.add(cfg.system.neg[cfg.alpha])
                p.add(cfg.system.neg[cfg.alpha])
            if kind == 0:
                h.discard(x)
                p.discard(x)
            elif kind == 1:
                h.add(x)
                p.add(x)
            elif kind in (2, 3):
                p ^= {x}
            elif kind == 4:
                h ^= {x}
            variants.append(replace(
                cfg, h_roots=frozenset(h), p_roots=frozenset(p), validated=False,
                nu2=None if kind == 5 else cfg.nu2,
                alpha=rng.randrange(n) if kind == 5 else cfg.alpha,
            ))
        for v in variants:
            report = validate(v)
            want = set_validate_witnesses(v)
            assert [c[2] for c in report.checks[:3]] == want
            assert [c[1] for c in report.checks[:3]] == [w is None for w in want]
            failed += not report.ok
            coroots += report.checks[1][2] is not None
    assert failed > 100 and coroots > 0
