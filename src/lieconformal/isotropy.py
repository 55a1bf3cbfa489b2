"""Derivation of the isotropy subalgebra forced by a distortion functional.

Given a distortion delta on the Cartan subalgebra, the kernel h of the
degenerate invariant form is pinned down by the pairing rule, which
`partner` decides: the root space of r avoids h exactly when delta - r is
a root or zero.  The forced set is then closed under brackets with the
Borel and with itself; any contradiction (a paired root pulled into the
kernel, an opposite pair whose coroot leaves the allowed Cartan part, the
closure swallowing the whole algebra) is raised as `Inconsistent` and
counts as an elimination verdict for the candidate, not as an error.

Every case runs the same closure and the same final checks.  The closure
adds roots by two rules, bracket closure under p = positives + kernel and
the sl2 of each kernel root on which delta vanishes, to what each case
forces: for Case1 the unpaired roots and, as the Cartan part alpha-perp
forces every positive root not proportional to alpha, all positive roots
but alpha (the system is reduced); for Case2 the unpaired roots, every
positive root among them, as delta = -theta pairs none; for a parabolic
candidate p_alpha, the roots with alpha-coefficient >= 0, a closed set as
coefficients add under root sums, and its sl2 additions; for the product
of Borels on A1xA1, the positive roots, which leave nothing to sweep.

From pairing to verdict the layer works on masks over root indices: a
`bytearray` with one 0/1 entry per root for the paired roots, the kernel
and its normalizer p.  A config keeps its kernel and normalizer as
frozensets of root indices, built once the checks pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import compress
from operator import add, sub

from . import linalg
from .errors import Inconsistent, NotValidated, Reducible
from .rootsys import (
    RootSystem,
    Vec,
    check_dim,
    dot,
    doubled,
    halved,
    minimal_root_index,
    ratio,
)

CASE1 = "Case1"
CASE2 = "Case2"
PARABOLIC = "Parabolic"
LOWRANK = "LowRank"

CASE_TAGS = (CASE1, CASE2, PARABOLIC, LOWRANK)

CARTAN_LABEL = "cartan"


@dataclass(frozen=True)
class Distortion:
    """Nonzero functional on the Cartan, identified with an ambient vector."""

    functional: Vec
    as_root: Vec | None = None

    def __post_init__(self):
        if not any(self.functional):
            raise ValueError("distortion functional must be nonzero")


@dataclass
class IsotropyConfig:
    """A kernel h on the root tables: every vector on doubled coordinates,
    every root as a root index."""

    case_tag: str
    system: RootSystem
    d2: tuple  # the distortion delta
    nu2: tuple | None  # normal of the Cartan part of h; None when it is the whole Cartan
    h_roots: frozenset  # root indices of the kernel
    p_roots: frozenset  # root indices of the normalizer
    validated: bool = False
    alpha: int | None = None  # Case1 orthogonal root / parabolic simple root


@dataclass
class ValidationReport:
    ok: bool
    checks: list = field(default_factory=list)

    def failures(self):
        return [c for c in self.checks if not c[1]]


def partner(rs: RootSystem, kd, label):
    """The label whose root space delta pairs with that of `label`: the root
    delta - r, the Cartan label when r = delta (the Cartan label, of weight
    zero, gets the root delta back), or None when r is unpaired.  kd is
    `rs.key` of doubled delta; None (off the key box) pairs nothing."""
    if kd is None:
        return None
    if label == CARTAN_LABEL:
        return rs.by_key.get(kd)
    m = kd - rs.keys[label]
    return rs.by_key.get(m) if m else CARTAN_LABEL


def _paired(rs: RootSystem, kd) -> bytearray:
    """Mask over the root indices of the roots that delta pairs (kd =
    `rs.key` of doubled delta): 1 for the roots r for which `partner` finds
    delta - r a root or zero, in one pass."""
    if kd is None:
        return bytearray(len(rs.keys))
    by_key = rs.by_key
    return bytearray([kd - k in by_key or k == kd for k in rs.keys])


@lru_cache(maxsize=None)
def case2_normal(rs: RootSystem):
    """Cartan normal of the Case2 kernel on doubled coordinates: the normal,
    inside the Cartan, of the coroots of the minimal root and of the positive
    roots orthogonal to it, as twice the least integer vector with a positive
    leading entry; None if those coroots fill the Cartan.

    Raises Inconsistent if their span has codimension greater than one.  The
    codimension is one less than the number of simple roots not orthogonal
    to the highest root, 1 for A_n (n >= 2) and 0 otherwise, so only a
    broken root table raises.  The normal depends only on the system, so it
    is computed once per system.
    """
    coords, simples = rs.coords, rs.simple_idx
    low = minimal_root_index(rs)
    # the highest root is dominant, so the positive roots orthogonal to it
    # span what the simple roots orthogonal to it span: the RREF is the same
    span = [low] + [k for k in simples if dot(coords[low], coords[k]) == 0]
    # coordinates of the orthocomplement in the simple-root basis of the Cartan
    rows = [tuple(dot(coords[i], coords[k]) for k in simples) for i in span]
    null = linalg.nullspace(rows, len(simples))
    if not null:
        return None
    if len(null) > 1:
        raise Inconsistent(
            "forced Cartan part has codimension > 1", witness=[rs.roots[i] for i in span]
        )
    normal = [sum(c * coords[k][x] for c, k in zip(null[0], simples)) for x in range(rs.dim)]
    normal = linalg.int_row(normal)[0]
    g = math.gcd(*normal) * (1 if next(filter(None, normal)) > 0 else -1)  # lead stays > 0
    return tuple(2 * x // g for x in normal)


def parabolic_d2(rs: RootSystem, alpha2) -> tuple:
    """The parabolic distortion, minimal root - alpha, on doubled coordinates."""
    return tuple(map(sub, rs.coords[minimal_root_index(rs)], alpha2))


def parabolic_distortion(rs: RootSystem, alpha: Vec) -> Distortion:
    return Distortion(halved(parabolic_d2(rs, doubled(check_dim(rs, alpha)))))


def _closure(rs: RootSystem, d2, in_s: bytearray, work: list) -> bytearray:
    """Mark the roots listed in `work` in the mask `in_s` over root indices,
    close it in place by the bracket and sl2 rules and return it.

    Both rules only add roots, so a worklist reaches the least fixed point
    of repeated sweeps.  A sweep of x walks the sum row of x and keeps the
    pairs whose other summand is in p, read as `in_s` or positive.  The
    caller marks the seeds whose sweep would add only seeds, as p_alpha's
    do, and lists the rest once, unmarked.  Each root is swept once, after
    it is marked, so of two kernel roots the one swept later meets the
    other in p.
    """
    sums, neg, coords, is_positive = rs.sums, rs.neg, rs.coords, rs.is_positive
    for x in work:
        in_s[x] = 1
    while work:
        x = work.pop()
        pairs = iter(sums[x])
        for g, t in zip(pairs, pairs):
            if not in_s[t] and (in_s[g] or is_positive[g]):
                in_s[t] = 1
                work.append(t)
        y = neg[x]
        if not in_s[y] and dot(d2, coords[x]) == 0:
            in_s[y] = 1  # the whole sl2 of x sits inside h
            work.append(y)
    return in_s


def _pairing_mismatch(in_s, paired) -> int:
    """The least root index at which the kernel mask breaks the pairing
    rule, or -1: a paired kernel root wins over an unpaired root outside
    the kernel, whatever their order."""
    state = bytes(map(add, in_s, paired))  # 2: paired in h, 0: unpaired outside h
    bad = state.find(2)
    return bad if bad >= 0 else state.find(0)


def _final_checks(rs: RootSystem, in_s: bytearray, nu2, paired: bytearray):
    """Raise Inconsistent unless the kernel mask `in_s` is exactly the
    unpaired roots (`paired` is the mask of `_paired`), leaves a root
    outside, and, with a Cartan hyperplane nu-perp, keeps the coroot of
    every kernel root whose opposite is in p inside nu-perp.  Each failure
    names the least root index that breaks it."""
    roots = rs.roots
    bad = _pairing_mismatch(in_s, paired)
    if bad >= 0:
        r = roots[bad]
        if in_s[bad]:
            raise Inconsistent(f"paired root {r} forced into the kernel", witness=r)
        raise Inconsistent(f"unpaired root {r} left outside the kernel", witness=r)
    if in_s.find(0) < 0:
        raise Inconsistent("kernel closure swallows the whole algebra")
    if nu2 is not None:
        neg, is_positive, coords = rs.neg, rs.is_positive, rs.coords
        for beta in compress(range(len(in_s)), in_s):
            opposite = neg[beta]
            if (in_s[opposite] or is_positive[opposite]) and dot(nu2, coords[beta]) != 0:
                raise Inconsistent(
                    f"coroot of {roots[beta]} escapes the Cartan hyperplane", witness=roots[beta]
                )


def derive_isotropy(rs: RootSystem, delta: Distortion, case_tag: str) -> IsotropyConfig:
    """The kernel h that delta forces in case `case_tag`.  Each case checks
    delta, then marks in the mask or lists to sweep what it forces: Case1
    lists the unpaired roots and the positive roots but alpha, Case2 the
    unpaired roots; Parabolic (LowRank at rank 1) marks p_alpha and lists
    its sl2 additions; LowRank on A1xA1 marks the positive roots."""
    if case_tag not in CASE_TAGS:
        raise ValueError(f"unknown case tag {case_tag!r}")
    dvec = check_dim(rs, delta.functional)
    d2 = doubled(dvec)
    kd = rs.key(d2)
    nu2 = alpha = None

    if case_tag in (CASE1, CASE2):
        if rs.label == "A1xA1":
            raise Reducible("Case1/Case2 need an irreducible system")
        d = rs.by_key.get(kd, -1)  # kd is None off the key box
        if d < 0:
            raise Inconsistent("distortion must be a root in this case", witness=dvec)
        if rs.is_positive[d]:
            raise Inconsistent("distortion root must be negative", witness=dvec)
        if case_tag == CASE2:
            if d != minimal_root_index(rs):
                raise Inconsistent("Case2 distortion must be the minimal root", witness=dvec)
            nu2 = case2_normal(rs)
            if nu2 is None:
                raise Inconsistent("forced coroots fill the whole Cartan", witness=dvec)
        paired = _paired(rs, kd)
        in_s = bytearray(len(paired))
        if case_tag == CASE1:
            candidates = [a for a in rs.positive_idx if paired[a] and dot(d2, rs.coords[a]) == 0]
            if not candidates:
                raise Inconsistent("no orthogonal pairing partner for the distortion")
            if len(candidates) > 1:
                witness = tuple(rs.roots[a] for a in candidates)
                raise Inconsistent("multiple orthogonal pairing partners", witness=witness)
            alpha = candidates[0]
            nu2 = rs.coords[alpha]
            # alpha-perp forces every positive root but alpha (reduced system)
            work = [i for i, f in enumerate(paired) if not f or (rs.is_positive[i] and i != alpha)]
        else:
            # delta = -theta pairs no positive root: theta + r is never a root
            work = [i for i, f in enumerate(paired) if not f]
    elif rs.label == "A1xA1":
        a, b = (rs.coords[k] for k in rs.simple_idx)
        if d2 != tuple(-x - y for x, y in zip(a, b)):
            raise Inconsistent("product-of-Borels distortion mismatch", witness=dvec)
        # the kernel is the Borel of both factors: -(a + b) pairs the negatives
        case_tag, in_s, work = LOWRANK, bytearray(rs.is_positive), []
        paired = _paired(rs, kd)
    else:
        # parabolic: delta = minimal root - alpha for a single simple root alpha
        alpha = -1 if kd is None else rs.by_key.get(rs.keys[minimal_root_index(rs)] - kd, -1)
        if alpha not in rs.simple_idx:
            witness = halved(parabolic_d2(rs, d2))
            raise Inconsistent("distortion is not (minimal root - simple root)", witness=witness)
        k = rs.simple_idx.index(alpha)
        # mask p_alpha (alpha-coefficient >= 0) and list its sl2 additions,
        # -b for positive b with alpha-coefficient > 0 and delta(b) = 0
        in_s, work = bytearray(rs.is_positive), []
        for b in rs.positive_idx:
            if not rs.expansions[b][k]:
                in_s[rs.neg[b]] = 1
            elif dot(d2, rs.coords[b]) == 0:
                work.append(rs.neg[b])
        case_tag = LOWRANK if rs.rank == 1 else PARABOLIC
        paired = _paired(rs, kd)

    _final_checks(rs, _closure(rs, d2, in_s, work), nu2, paired)
    h = frozenset(compress(range(len(in_s)), in_s))
    return IsotropyConfig(case_tag, rs, d2, nu2, h, h.union(rs.positive_idx), alpha=alpha)


def validate(config: IsotropyConfig) -> ValidationReport:
    """Independent re-check of all structural invariants of a configuration.

    The kernel and normalizer are read once into masks over root indices,
    the same representation as the closure, but no closure code is shared.
    A failed check carries as witness its lexicographically least failing
    root (or root pair), as vectors.
    """
    rs = config.system
    d2, nu2, alpha = config.d2, config.nu2, config.alpha
    s, p = config.h_roots, config.p_roots
    n = len(rs.roots)
    in_s, in_p = bytearray(map(s.__contains__, range(n))), bytearray(map(p.__contains__, range(n)))
    checks = []

    def record(name, ok, witness=None):
        checks.append((name, ok, witness))

    # h is a subalgebra and an ideal of p = (Cartan + positives + h)
    witness = None
    for b in compress(range(n), in_s):
        pairs = iter(rs.sums[b])
        escaped = [g for g, t in zip(pairs, pairs) if not in_s[t] and in_p[g]]
        if escaped:
            witness = (rs.roots[b], rs.roots[min(escaped)])
            break
    record("bracket closure of h under p", witness is None, witness)

    witness = None
    if nu2 is not None:
        for b in compress(range(n), in_s):
            opposite = rs.neg[b]
            if (in_s[opposite] or rs.is_positive[opposite]) and dot(nu2, rs.coords[b]) != 0:
                witness = rs.roots[b]
                break
    record("coroots of opposite kernel pairs stay in the Cartan part", witness is None, witness)

    kd = rs.key(d2)
    bad = _pairing_mismatch(in_s, _paired(rs, kd))
    record(
        "kernel matches the pairing rule exactly", bad < 0, rs.roots[bad] if bad >= 0 else None
    )

    record("h is a proper subalgebra", len(s) < n)
    record("p is a proper subalgebra", len(p) < n)

    if config.case_tag == CASE1:
        record("Case1 distortion is a root", kd in rs.by_key)
        record(
            "Case1 orthogonal root",
            alpha is not None
            and dot(d2, rs.coords[alpha]) == 0
            and partner(rs, kd, alpha) is not None,
        )
        record("Case1 Cartan part is a hyperplane", nu2 is not None)
    elif config.case_tag == CASE2:
        low = rs.coords[minimal_root_index(rs)]
        record("Case2 distortion is the minimal root", d2 == low)
        record("positive spaces inside h", s.issuperset(rs.positive_idx))
        record("Case2 Cartan part is a hyperplane", nu2 is not None)
    elif config.case_tag == PARABOLIC:
        record("Borel inside h", s.issuperset(rs.positive_idx) and nu2 is None)
        missing = [rs.roots[k] for k in rs.simple_idx if not in_s[rs.neg[k]]]
        record("exactly one simple root escapes h", len(missing) == 1, missing)
    else:  # LowRank
        record("Borel(s) inside h", s.issuperset(rs.positive_idx) and nu2 is None)

    report = ValidationReport(ok=all(c[1] for c in checks), checks=checks)
    if report.ok:
        config.validated = True
    return report


def quotient_basis(config: IsotropyConfig) -> list:
    """Labels of a basis of g/h: the indices of the roots outside h (by
    height, then lex) plus one Cartan label when the Cartan part of h is a
    hyperplane."""
    if not config.validated:
        raise NotValidated("validate the configuration before using it")
    rs = config.system
    labels = sorted(set(range(len(rs.roots))) - config.h_roots, key=lambda i: (rs.height[i], i))
    if config.nu2 is not None:
        labels.append(CARTAN_LABEL)
    return labels


def translate_config(config: IsotropyConfig, word) -> IsotropyConfig:
    """Apply a Weyl word to every ingredient of a configuration.

    The word lists simple-root positions k, first letter first, each the
    reflection whose root permutation is `rs.refl[k]`; every Weyl element
    is such a word.  The kernel and normalizer roots and alpha move through
    those permutations, the distortion and the Cartan normal as vectors on
    doubled coordinates.

    The result is marked validated: Weyl elements are automorphisms, so
    every structural invariant transports along them (the translated
    positivity is no longer the canonical one, which is exactly the point
    of the feasibility-invariance property).
    """
    rs = config.system
    for k in word:
        if type(k) is not int or not 0 <= k < rs.rank:
            raise ValueError(f"Weyl word entry {k!r} is not in range({rs.rank})")
    perm = range(len(rs.roots))
    for k in word:
        perm = list(map(rs.refl[k].__getitem__, perm))

    def move(c):
        # s(v) = v - q s with q = 2 (v.s)/(s.s): an integer for roots,
        # rational for other vectors
        for k in word:
            s = rs.simple_idx[k]
            q = ratio(2 * dot(c, rs.coords[s]), rs.norm[s])
            if q:
                c = tuple(a - q * b for a, b in zip(c, rs.coords[s]))
        return c

    return replace(
        config,
        d2=move(config.d2),
        nu2=None if config.nu2 is None else move(config.nu2),
        h_roots=frozenset(map(perm.__getitem__, config.h_roots)),
        p_roots=frozenset(map(perm.__getitem__, config.p_roots)),
        alpha=None if config.alpha is None else perm[config.alpha],
        validated=True,
    )
