"""Exhaustive candidate enumeration and elimination.

Three families of candidates exist for an essential structure on G/H:

* Case1 - the distortion is a root with an orthogonal pairing partner;
  candidates are diagonal Weyl orbits of constrained root pairs.
* Case2 - the distortion is the minimal root and every positive root
  space lies in the kernel; the candidate exists only when the forced
  coroots leave room in the Cartan.
* Parabolic - the kernel contains a Borel; one candidate per simple
  root, with distortion (minimal root - simple root).  The reducible
  rank-2 product contributes the product-of-Borels candidate.

Every candidate is judged by one pipeline: fast root combinatorics,
then `judge` (kernel closure, then the exact form solver), which the
`solve` and `check-examples` commands call as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import invform, isotropy
from .chevalley import cached_constants
from .errors import Inconsistent, Reducible
from .isotropy import CASE1, CASE2, LOWRANK, PARABOLIC, Distortion, derive_isotropy, validate
from .rootsys import (
    EXCEPTIONAL_RANK,
    MAX_RANK,
    SERIES_MIN_RANK,
    RootSystem,
    Vec,
    build,
    dot,
    halved,
    minimal_root,
    minimal_root_index,
    pair_orbit,
    vec,
)

STAGE_ROOTS = "RootCombinatorics"
STAGE_CLOSURE = "IsotropyClosure"
STAGE_SOLVER = "SolverFeasibility"
STAGE_SURVIVOR = "Survivor"

CASE_FILTERS = ("case1", "case2", "parabolic", "all")  # `--case` choices, in help order


@dataclass
class CandidateVerdict:
    label: str
    rank: int
    case: str
    delta: Vec | None
    alpha: Vec | None
    stage: str
    eliminated: bool
    witness: object = None
    survivor_label: str | None = None
    notes: tuple = ()
    solution_dimension: int | None = None

    def survivor_key(self):
        return (self.label, self.rank, self.case, self.alpha, self.delta, self.survivor_label)


@dataclass
class ClassificationReport:
    max_rank: int
    cases: str
    verdicts: list = field(default_factory=list)
    survivors: list = field(default_factory=list)
    matches_expected: bool = False


def _systems(max_rank: int):
    out = []
    for label, least in SERIES_MIN_RANK.items():
        out += [build(label, n) for n in range(least, max_rank + 1)]
    return out + [build(label, n) for label, n in EXCEPTIONAL_RANK.items() if n <= max_rank]


def enumerate_case1(rs: RootSystem):
    """Canonical index pairs (m, a) of the constrained pair orbits, for the
    distortion -root m and the orthogonal root a, in decreasing order; each
    is the max of its orbit, and index order is the lex order of roots."""
    if rs.label == "A1xA1":
        raise Reducible("Case1 needs an irreducible system")
    coords = rs.coords
    # W is transitive on the roots of each length of an irreducible system
    # (hence the A1xA1 guard), so every orbit meets the first root m of its length
    reps = []
    seen = set()
    for m in {rs.norm.index(n) for n in set(rs.norm)}:
        for a in rs.sums[m][::2]:
            if dot(coords[m], coords[a]) == 0 and (m, a) not in seen:
                orbit = pair_orbit(rs, (m, a))
                seen |= orbit
                reps.append(max(orbit))
    return sorted(reps, reverse=True)


def enumerate_case2(rs: RootSystem):
    """Cartan normal of the Case2 kernel (`isotropy.case2_normal`), or None
    when the forced coroots already fill the Cartan subalgebra."""
    if rs.label == "A1xA1":
        raise Reducible("Case2 needs an irreducible system")
    return isotropy.case2_normal(rs)


def eliminate_parabolic(rs: RootSystem, k) -> CandidateVerdict:
    """Verdict of the parabolic candidate of the k-th simple root, or of
    the product-of-Borels candidate when k is None."""
    coords = rs.coords
    if k is None:
        a, b = (coords[s] for s in rs.simple_idx)
        return _verdict(rs, LOWRANK, halved(tuple(-x - y for x, y in zip(a, b))), None)
    low, alpha = minimal_root_index(rs), rs.simple_idx[k]
    d2 = isotropy.parabolic_d2(rs, coords[alpha])
    case = LOWRANK if rs.rank == 1 else PARABOLIC
    # fast root-combinatorial stage: every root space outside the kernel
    # must be paired, i.e. -beta must have a partner for every positive
    # beta whose expansion involves alpha
    kd = rs.keys[low] - rs.keys[alpha]
    for beta in rs.positive_idx:
        if rs.expansions[beta][k] and isotropy.partner(rs, kd, rs.neg[beta]) is None:
            return _verdict(rs, case, halved(d2), alpha, ("unpaired", rs.roots[rs.neg[beta]]))
    return _verdict(rs, case, halved(d2), alpha)


def judge(rs: RootSystem, delta: Distortion, case_tag: str):
    """Judge one candidate past the root stage: (witness, system, solution).

    When the forced kernel h is not closed, the witness is the message of
    the `Inconsistent` raised by `derive_isotropy` or the failed `validate`
    checks, and system and solution are None.  Otherwise the witness is
    None and the assembled form system comes with its solution.  Any other
    ValueError (reducible system, unknown case tag, wrong dimension)
    propagates to the caller.
    """
    try:
        config = derive_isotropy(rs, delta, case_tag)
    except Inconsistent as exc:
        return str(exc), None, None
    report = validate(config)
    if not report.ok:
        return report.failures(), None, None
    system = invform.assemble(cached_constants(rs.label, rs.rank), config)
    return None, system, invform.solve(system)


def _verdict(
    rs: RootSystem, case: str, delta: Vec, alpha_index, root_witness=None
) -> CandidateVerdict:
    """The verdict of one candidate: eliminated by root combinatorics when
    `root_witness` is given, else judged by `judge`."""
    alpha = None if alpha_index is None else rs.roots[alpha_index]
    verdict = CandidateVerdict(
        label=rs.label,
        rank=rs.rank,
        case=case,
        delta=delta,
        alpha=alpha,
        stage=STAGE_ROOTS,
        eliminated=True,
        witness=root_witness,
    )
    if root_witness is not None:
        return verdict
    witness, _, solution = judge(rs, Distortion(delta), case)
    if solution is None:
        verdict.stage, verdict.witness = STAGE_CLOSURE, witness
        return verdict
    verdict.solution_dimension = solution.dimension
    if not solution.feasible:
        verdict.stage, verdict.witness = STAGE_SOLVER, solution.degeneracy_certificate
        return verdict
    verdict.stage, verdict.eliminated = STAGE_SURVIVOR, False
    verdict.survivor_label, verdict.notes = _survivor_tag(rs, case, alpha)
    return verdict


def _survivor_tag(rs: RootSystem, case: str, alpha) -> tuple:
    """(survivor label, notes) of a surviving candidate; the notes name
    low-rank coincidences, which are reported, never suppressed."""
    system = (rs.label, rs.rank)
    if case == CASE1:
        if rs.label == "B":
            return "Sp_case", ("B2=C2",)
        return "Sp_case", ("C2=B2",) if system == ("C", 2) else ()
    if case == CASE2:
        return "SL_case", ("D3=A3",) if system == ("D", 3) else ()
    if alpha is None:
        return "CP1xCP1", ()
    if rs.rank == 1:
        return "CP1", ()
    if system == ("B", 3) and sum(1 for c in alpha if c != 0) == 1:
        return "Spin7_Eins6", ("Spin7 subgroup acting on the same quadric Eins6",)
    notes = {("C", 2): ("C2=B2",), ("A", 3): ("A3=D3",), ("D", 3): ("D3=A3",)}.get(system, ())
    if system == ("D", 4) and alpha[0] == 0:
        notes = ("triality image of the alpha=e1-e2 candidate",)
    if rs.rank == 2 and rs.label in ("B", "C"):
        return "Eins3_B2", notes
    tag = {"G2": "G2_Eins5", "B": "Einstein_Bn", "A": "Einstein_Dn", "D": "Einstein_Dn"}
    return tag.get(rs.label), notes


def expected_survivors(max_rank: int, cases: str = "all") -> set:
    """Survivor table implied by the classification theorem, including
    low-rank coincidences (reported with notes, never suppressed)."""
    if cases not in CASE_FILTERS:
        raise ValueError(f"unknown case filter {cases!r}, expected one of {CASE_FILTERS}")
    out = set()

    def add(label, rank, case, alpha, delta, tag):
        out.add((label, rank, case, alpha, delta, tag))

    if cases in ("all", "case1"):
        add("B", 2, CASE1, vec(0, 1), vec(-1, 0), "Sp_case")
        for n in range(2, max_rank + 1):
            delta = vec(*[-1 if k in (0, 1) else 0 for k in range(n)])
            alpha = vec(*[1 if k == 0 else (-1 if k == 1 else 0) for k in range(n)])
            add("C", n, CASE1, alpha, delta, "Sp_case")
    if cases in ("all", "case2"):
        for n in range(2, max_rank + 1):
            delta = vec(*[-1 if k == 0 else (1 if k == n else 0) for k in range(n + 1)])
            add("A", n, CASE2, None, delta, "SL_case")
        if max_rank >= 3:
            # the D3 = A3 coincidence enters through the D-series sweep
            add("D", 3, CASE2, None, vec(-1, -1, 0), "SL_case")
    if cases in ("all", "parabolic"):
        add("A", 1, LOWRANK, vec(1, -1), vec(-2, 2), "CP1")
        add("A1xA1", 2, LOWRANK, None, vec(-1, 1, -1, 1), "CP1xCP1")
        if max_rank >= 3:
            add("A", 3, PARABOLIC, vec(0, 1, -1, 0), vec(-1, -1, 1, 1), "Einstein_Dn")
        add("B", 2, PARABOLIC, vec(1, -1), vec(-2, 0), "Eins3_B2")
        add("C", 2, PARABOLIC, vec(0, 2), vec(-2, -2), "Eins3_B2")
        for n in range(3, max_rank + 1):
            alpha = vec(*[1 if k == 0 else (-1 if k == 1 else 0) for k in range(n)])
            delta = vec(*[-2 if k == 0 else 0 for k in range(n)])
            add("B", n, PARABOLIC, alpha, delta, "Einstein_Bn")
            add("D", n, PARABOLIC, alpha, delta, "Einstein_Dn")
        if max_rank >= 3:
            # Spin(7) on the six-dimensional quadric (spinor variety)
            add("B", 3, PARABOLIC, vec(0, 0, 1), vec(-1, -1, -1), "Spin7_Eins6")
        if max_rank >= 4:
            # triality relabelings of the D4 alpha=e1-e2 candidate
            add("D", 4, PARABOLIC, vec(0, 0, 1, -1), vec(-1, -1, -1, 1), "Einstein_Dn")
            add("D", 4, PARABOLIC, vec(0, 0, 1, 1), vec(-1, -1, -1, -1), "Einstein_Dn")
        add("G2", 2, PARABOLIC, vec(1, -1, 0), vec(0, 2, -2), "G2_Eins5")
    return out


def classify_all(max_rank: int, cases: str = "all") -> ClassificationReport:
    if not 2 <= max_rank <= MAX_RANK:
        raise ValueError(f"max_rank must be between 2 and {MAX_RANK}")
    expected = expected_survivors(max_rank, cases)  # raises on an unknown filter
    verdicts = []
    for rs in _systems(max_rank):
        if cases in ("all", "case1") and rs.label != "A1xA1":
            for m, a in enumerate_case1(rs):
                verdicts.append(_verdict(rs, CASE1, rs.roots[rs.neg[m]], a))
        if cases in ("all", "case2") and rs.label != "A1xA1":
            filled = "forced coroots fill the Cartan" if enumerate_case2(rs) is None else None
            verdicts.append(_verdict(rs, CASE2, minimal_root(rs), None, filled))
        if cases in ("all", "parabolic"):
            for k in [None] if rs.label == "A1xA1" else range(rs.rank):
                verdicts.append(eliminate_parabolic(rs, k))
    verdicts.sort(key=lambda v: (v.label, v.rank, v.case, v.alpha or (), v.delta or ()))
    survivors = [v for v in verdicts if not v.eliminated]
    got = {v.survivor_key() for v in survivors}
    return ClassificationReport(
        max_rank=max_rank,
        cases=cases,
        verdicts=verdicts,
        survivors=survivors,
        matches_expected=(got == expected),
    )
