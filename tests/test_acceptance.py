"""End-to-end acceptance checks, one per primary deliverable.

Each test records exactly one PASS/FAIL line; conftest prints the sheet
in the terminal summary after capture ends.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from lieconformal.chevalley import (
    bracket,
    cached_constants,
    elem_e,
    elem_h,
    structure_constants,
)
from lieconformal.classify import classify_all, enumerate_case1
from lieconformal.constructions import align_g2_form, check_sl_embedding, check_sp_embedding
from lieconformal.invform import assemble, solve
from lieconformal.isotropy import (
    CASE1,
    CASE2,
    LOWRANK,
    PARABOLIC,
    Distortion,
    derive_isotropy,
    parabolic_distortion,
    translate_config,
    validate,
)
from lieconformal.rootsys import (
    build,
    coroot,
    minimal_root,
    pair_orbit,
    random_weyl_word,
    vec,
)
from conftest import positives, vsub
from test_classify import vector_pairs

DATA = Path(__file__).parent / "data"

ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
}
EXCEPTIONAL_COUNTS = {"G2": 12, "F4": 48, "E6": 72, "E7": 126, "E8": 240}


RESULT_LINES: list[str] = []


def report(num, ok, text):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}"
    RESULT_LINES.append(line)
    assert ok, line


def survivor_dict(v):
    return {
        "label": v.label,
        "rank": v.rank,
        "case": v.case,
        "alpha": [str(x) for x in v.alpha] if v.alpha is not None else None,
        "delta": [str(x) for x in v.delta] if v.delta is not None else None,
        "survivor_label": v.survivor_label,
    }


def rebuild_config(v):
    rs = build(v.label, v.rank)
    if v.case in (PARABOLIC, LOWRANK):
        if rs.label == "A1xA1":
            delta = Distortion(v.delta)
        else:
            delta = parabolic_distortion(rs, v.alpha)
        cfg = derive_isotropy(rs, delta, PARABOLIC)
    elif v.case == CASE2:
        low = minimal_root(rs)
        cfg = derive_isotropy(rs, Distortion(low), CASE2)
    else:
        cfg = derive_isotropy(rs, Distortion(v.delta), CASE1)
    assert validate(cfg).ok
    return rs, cfg


def test_criterion_1_full_classification():
    """Rank-8 search matches the golden survivor file in under a minute."""
    start = time.time()
    rep = classify_all(8)
    elapsed = time.time() - start
    got = sorted(
        (json.dumps(survivor_dict(v), sort_keys=True) for v in rep.survivors)
    )
    golden = sorted(
        json.dumps(d, sort_keys=True)
        for d in json.loads((DATA / "expected_survivors_rank8.json").read_text())
    )
    ok = rep.matches_expected and got == golden and elapsed < 60
    report(1, ok, f"rank-8 classification matches golden survivors ({len(rep.survivors)} configs, {elapsed:.1f}s)")


def test_criterion_2_pair_enumeration():
    """Weyl-reduced constrained pair lists per family."""
    ok = True
    for n in range(2, 9):
        e1 = vec(*([1] + [0] * (n - 1)))
        e2 = vec(*([0, 1] + [0] * (n - 2)))
        rs = build("B", n)
        ok = ok and vector_pairs(rs, enumerate_case1(rs)) == [(e1, e2)]
        want_c = [(vec(*([1, 1] + [0] * (n - 2))), vec(*([1, -1] + [0] * (n - 2))))]
        rs = build("C", n)
        got_c = vector_pairs(rs, enumerate_case1(rs))
        if n == 2:
            ok = ok and len(got_c) == 1
        else:
            ok = ok and got_c == want_c
    for label, rank in [("A", 8), ("D", 8), ("E6", 6), ("E7", 7), ("E8", 8), ("G2", 2)]:
        ok = ok and enumerate_case1(build(label, rank)) == []
    # both displayed F4 pairs fall in the single enumerated orbit
    rs = build("F4", 4)
    reps = enumerate_case1(rs)
    h = Fraction(1, 2)
    shown = [
        (vec(1, 0, 0, 0), vec(0, 1, 0, 0)),
        ((h, h, -h, -h), (h, h, h, h)),
    ]
    ok = ok and len(reps) == 1
    ok = ok and all(max(pair_orbit(rs, tuple(map(rs.index_of, p)))) == reps[0] for p in shown)
    report(2, ok, "constrained pair enumeration: B_n (e1,e2); C_n (e1+e2,e1-e2); F4 one orbit covering both displayed pairs; others empty")


def test_criterion_3_solver_verdicts():
    """Every parabolic survivor carries a unique nondegenerate class.

    The three spinor-type candidates B3(e3), D4(e3+e4), D4(e3-e4) come
    back feasible with dimension 1 (see the B3 witness (1,-1,1)); the
    six-term sign cycles sometimes quoted against them are not realizable
    in any Chevalley basis, so feasibility is the machine-checked truth.
    """
    special = [("B", 3, vec(0, 0, 1)), ("D", 4, vec(0, 0, 1, -1)), ("D", 4, vec(0, 0, 1, 1))]
    ok = True
    for label, rank, alpha in special:
        rs = build(label, rank)
        cfg = derive_isotropy(rs, parabolic_distortion(rs, alpha), PARABOLIC)
        validate(cfg)
        sol = solve(assemble(cached_constants(label, rank), cfg))
        ok = ok and sol.feasible and sol.dimension == 1 and sol.nondegenerate_witness is not None
    rep = classify_all(8, cases="parabolic")
    for v in rep.survivors:
        _, cfg = rebuild_config(v)
        sol = solve(assemble(cached_constants(v.label, v.rank), cfg))
        ok = ok and sol.feasible and sol.dimension == 1 and sol.nondegenerate_witness is not None
    report(3, ok, "all parabolic survivors feasible with a unique projectivized nondegenerate class (incl. the three spinor/triality candidates)")


def test_criterion_4_g2_alignment():
    start = time.time()
    rs = build("G2", 2)
    cfg = derive_isotropy(rs, parabolic_distortion(rs, rs.simples[0]), PARABOLIC)
    validate(cfg)
    system = assemble(cached_constants("G2", 2), cfg)
    sol = solve(system)
    out = align_g2_form(system, sol.nondegenerate_witness)
    elapsed = time.time() - start
    ok = (
        out["global_scale"] == Fraction(2, 3)
        and set(out["scalars"].values()) <= {Fraction(1), Fraction(-1)}
        and elapsed < 1
    )
    report(4, ok, f"G2 form aligns with the reference 1/-1/2 pattern via diagonal rescaling ({elapsed:.2f}s)")


def test_criterion_5_jacobi():
    start = time.time()
    ok = True
    exhaustive = [("A", n) for n in range(1, 5)]
    exhaustive += [("B", n) for n in range(2, 5)] + [("C", 3), ("C", 4)]
    exhaustive += [("D", 4), ("G2", 2), ("F4", 4), ("A1xA1", 2)]
    for label, rank in exhaustive:
        sc = cached_constants(label, rank)
        rs = sc.system
        elems = [elem_h(rs, coroot(s)) for s in rs.simples]
        elems += [elem_e(rs, r) for r in rs.roots]
        for i, x in enumerate(elems):
            for j in range(i + 1, len(elems)):
                for k in range(j + 1, len(elems)):
                    y, z = elems[j], elems[k]
                    res = bracket(sc, x, bracket(sc, y, z))
                    res = res.add(bracket(sc, y, bracket(sc, z, x)))
                    res = res.add(bracket(sc, z, bracket(sc, x, y)))
                    ok = ok and res.is_zero()
    trials = 0
    for label, rank in [("E6", 6), ("E7", 7), ("E8", 8)]:
        sc = cached_constants(label, rank)
        rs = sc.system
        elems = [elem_h(rs, coroot(s)) for s in rs.simples]
        elems += [elem_e(rs, r) for r in rs.roots]
        rng = random.Random(90000 + rank)
        for _ in range(4000):
            x, y, z = (rng.choice(elems) for _ in range(3))
            res = bracket(sc, x, bracket(sc, y, z))
            res = res.add(bracket(sc, y, bracket(sc, z, x)))
            res = res.add(bracket(sc, z, bracket(sc, x, y)))
            ok = ok and res.is_zero()
            trials += 1
    elapsed = time.time() - start
    ok = ok and trials >= 10_000 and elapsed < 300
    report(5, ok, f"Jacobi exhaustive through rank 4 + G2 + F4, {trials} random E-type triples ({elapsed:.1f}s)")


def test_criterion_6_embeddings():
    start = time.time()
    ok = True
    for n in range(2, 6):
        out = check_sp_embedding(n, trials=100, seed=4200 + n)
        ok = ok and out["ok"] and out["max_residual"] == 0
    for n in range(3, 6):
        out = check_sl_embedding(n, trials=100, seed=4300 + n)
        ok = ok and out["ok"] and out["max_residual"] == 0 and out["codimension"] == 1
    elapsed = time.time() - start
    ok = ok and elapsed < 30
    report(6, ok, f"sp/sl embedding identities exact over 100 trials each, codimension-1 stabilizer count ({elapsed:.1f}s)")


def test_criterion_7_property_suite():
    ok = True
    for label in "ABCD":
        lo = {"A": 1, "B": 2, "C": 2, "D": 3}[label]
        for n in range(lo, 9):
            ok = ok and len(build(label, n).roots) == ROOT_COUNTS[label](n)
    for label, count in EXCEPTIONAL_COUNTS.items():
        rs = build(label, int(label[1]))
        ok = ok and len(rs.roots) == count
        low = minimal_root(rs)
        ok = ok and all(rs.index_of(vsub(low, p)) < 0 for p in positives(rs))
    # determinism across regeneration
    ok = ok and structure_constants(build("F4", 4)).table == cached_constants("F4", 4).table
    # Weyl-invariance of feasibility for every surviving configuration
    rng = random.Random(777)
    rep = classify_all(8)
    for v in rep.survivors:
        rs, cfg = rebuild_config(v)
        sc = cached_constants(v.label, v.rank)
        base = solve(assemble(sc, cfg))
        for _ in range(20):
            word = random_weyl_word(rs, rng, rng.randint(1, 8))
            moved = translate_config(cfg, word)
            sol = solve(assemble(sc, moved))
            ok = ok and (sol.dimension, sol.feasible) == (base.dimension, base.feasible)
    report(7, ok, "root counts, minimal-root property, regeneration determinism, 20-fold Weyl invariance per survivor")
