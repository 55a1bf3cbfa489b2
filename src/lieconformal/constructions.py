"""Exact checks of the explicit homogeneous-space constructions.

Everything here is a verification against reference data: the symplectic
and special-linear quadric embeddings are exercised on random rational
inputs (seeded, exact arithmetic), and displayed bracket relations /
invariant-form values are matched against our Chevalley basis up to a
diagonal rescaling of the root vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
from .chevalley import StructureConstants, cached_constants
from .errors import NoWitness, Unalignable
from .invform import AssembledSystem, gram_matrix
from .rootsys import Vec, vadd, vec

ZERO = Fraction(0)
ONE = Fraction(1)


# every random draw is p / q with q <= 6, so 60 times it is an int: the sp
# check works on those ints
SCALE = 60
CUBE = SCALE**3


def _rand_scaled(rng) -> int:
    """60 p / q for random p in [-6, 6] and q in [1, 6]: an int, as q divides 60."""
    return SCALE * rng.randint(-6, 6) // rng.randint(1, 6)


def _rand_frac(rng) -> Fraction:
    return Fraction(_rand_scaled(rng), SCALE)


def _rand_vec(rng, n):
    return [_rand_frac(rng) for _ in range(n)]


def _omega(n, x, y):
    """Standard symplectic form on 2n coordinates."""
    return sum(map(mul, x[:n], y[n:])) - sum(map(mul, x[n:], y[:n]))


def _transvect(n, z, v, c):
    """The symplectic transvection z -> z + c w(z, v) v on scaled ints: for
    z = Z / D, v = V / 60 and c = C / 60 it maps Z to 60^3 Z + C w(Z, V) V,
    the image over the denominator 60^3 D."""
    t = c * _omega(n, z, v)
    return [CUBE * a + t * b for a, b in zip(z, v)]


def _sp_trial(rng, n):
    """Draw S, a product of three transvections, then x and y, as 60 times
    their values X and Y; return (X, Y, SX, SY, D) with Sx = SX / D and
    Sy = SY / D, applying the transvections one after another."""
    transvections = [
        ([_rand_scaled(rng) for _ in range(2 * n)], _rand_scaled(rng)) for _ in range(3)
    ]
    x = [_rand_scaled(rng) for _ in range(2 * n)]
    y = [_rand_scaled(rng) for _ in range(2 * n)]
    sx, sy, d = x, y, SCALE
    for v, c in transvections:
        sx, sy, d = _transvect(n, sx, v, c), _transvect(n, sy, v, c), CUBE * d
    return x, y, sx, sy, d


def check_sp_embedding(n: int, trials: int = 20, seed: int = 0) -> dict:
    """Diagonal symplectic action preserves the quadric pairing exactly.

    The draws are ints 60 times their values, so both identities are
    compared on ints; a Fraction is built only for a nonzero residual."""
    if n < 1:
        raise ValueError("need n >= 1")
    if trials < 1:
        raise ValueError("need trials >= 1")
    rng = random.Random(seed)
    worst = ZERO
    for _ in range(trials):
        x, y, sx, sy, d = _sp_trial(rng, n)
        w = _omega(n, x, y)
        # w(Sx, Sy) - w(x, y), times (60 D)^2
        r1 = _omega(n, sx, sy) * SCALE**2 - w * d * d
        a, b, c, e = (_rand_scaled(rng) for _ in range(4))
        u = [a * xi + b * yi for xi, yi in zip(x, y)]
        v = [c * xi + e * yi for xi, yi in zip(x, y)]
        # w(u, v) - (ae - bc) w(x, y) for the unscaled draws, times 60^4
        r2 = _omega(n, u, v) - (a * e - b * c) * w
        if r1:
            worst = max(worst, abs(Fraction(r1, (SCALE * d) ** 2)))
        if r2:
            worst = max(worst, abs(Fraction(r2, SCALE**4)))
    return {"ok": worst == 0, "trials": trials, "max_residual": worst}


def _sl_trial(rng, n):
    """Draw g, a product of 2n elementary operations 1 + c e_i e_j^T, then x
    and a covector f; return (x, f, gx, f o g^-1).  Each operation adds
    c x_j to x_i and subtracts c f_i from f_j."""
    ops = [(*rng.sample(range(n), 2), _rand_frac(rng)) for _ in range(2 * n)]
    x = _rand_vec(rng, n)
    f = _rand_vec(rng, n)
    gx, f_ginv = list(x), list(f)
    for i, j, c in ops:
        gx[i] += c * gx[j]
        f_ginv[j] -= c * f_ginv[i]
    return x, f, gx, f_ginv


def _nullity(ncols: int, rows) -> int:
    """Solution dimension of rows given as {column: coefficient}."""
    dense = [tuple(r.get(k, ZERO) for k in range(ncols)) for r in rows]
    return ncols - len(linalg.rref(dense, ncols)[1])


def _stabilizer_dimension(n: int) -> int:
    """dim of {X in sl(n): X fixes the line through (e1, e_n*)}."""
    # unknowns: X[i][j] at i * n + j, then the eigenvalue c at n * n
    c = n * n
    rows = [{i * n: ONE} for i in range(n)]  # X e1 = c e1
    rows[0][c] = -ONE
    rows += [{(n - 1) * n + j: ONE} for j in range(n)]  # e_n* X = -c e_n*
    rows[-1][c] = ONE
    rows.append({i * n + i: ONE for i in range(n)})  # trace zero
    return _nullity(c + 1, rows)


def _normalizer_dimension(n: int) -> int:
    """dim of {X in sl(n): X e1 in C e1, X W <= W} for W = span(e1..e_{n-1})."""
    rows = [{i * n: ONE} for i in range(1, n)]  # first column upper
    rows += [{(n - 1) * n + j: ONE} for j in range(n - 1)]  # last row only in the corner
    rows.append({i * n + i: ONE for i in range(n)})  # trace zero
    return _nullity(n * n, rows)


def check_sl_embedding(n: int, trials: int = 20, seed: int = 0) -> dict:
    """Unimodular action preserves the evaluation pairing; the point
    stabilizer has codimension one inside the flag normalizer."""
    if n < 3:
        # a line in C^2 determines its hyperplane, so the point/flag
        # stabilizer gap below only exists from n = 3 on
        raise ValueError("need n >= 3")
    if trials < 1:
        raise ValueError("need trials >= 1")
    rng = random.Random(seed)
    worst = ZERO
    for _ in range(trials):
        x, f, gx, f_ginv = _sl_trial(rng, n)
        r = sum(a * b for a, b in zip(f_ginv, gx)) - sum(a * b for a, b in zip(f, x))
        worst = max(worst, abs(r))
    stab = _stabilizer_dimension(n)
    norm = _normalizer_dimension(n)
    return {
        "ok": worst == 0 and norm - stab == 1,
        "trials": trials,
        "max_residual": worst,
        "stabilizer_dim": stab,
        "normalizer_dim": norm,
        "codimension": norm - stab,
    }


@dataclass(frozen=True)
class BracketRelation:
    a: Vec
    b: Vec
    target: Vec
    value: Fraction


def verify_relations_up_to_rescaling(sc: StructureConstants, relations) -> dict:
    """Find diagonal scalings c_r with c_a c_b n(a,b) = value * c_target.

    Returns the witness scalings; raises NoWitness when the relations are
    not compatible with our structure constants under any rescaling.
    """
    rs = sc.system
    ratios = []
    variables = set()
    for rel in relations:
        if vadd(rel.a, rel.b) != rel.target:
            raise NoWitness(f"relation target mismatch: {rel}")
        a, b = rs.index_of(rel.a), rs.index_of(rel.b)
        n = sc.table[a][b] if a >= 0 and b >= 0 else 0
        if n == 0:
            raise NoWitness(f"bracket vanishes for {rel}")
        # c_a * c_b / c_target = value / n
        ratios.append(((rel.a, rel.b, rel.target), Fraction(rel.value) / n))
        variables |= {rel.a, rel.b, rel.target}
    assign: dict = {}

    def residual_unknowns(key):
        a, b, t = key
        return [v for v in (a, b, t) if v not in assign]

    pending = list(ratios)
    order = sorted(variables)
    while pending:
        progress = False
        for key, val in list(pending):
            a, b, t = key
            unknown = residual_unknowns(key)
            if len(unknown) == 0:
                if assign[a] * assign[b] / assign[t] != val:
                    raise NoWitness(f"inconsistent relation at {key}")
                pending.remove((key, val))
                progress = True
            elif len(unknown) == 1:
                u = unknown[0]
                if u == t:
                    assign[t] = assign[a] * assign[b] / val
                elif u == a:
                    assign[a] = val * assign[t] / assign[b]
                else:
                    assign[b] = val * assign[t] / assign[a]
                pending.remove((key, val))
                progress = True
        if not progress:
            free = next(v for v in order if v not in assign)
            assign[free] = Fraction(1)
    for v in order:
        assign.setdefault(v, Fraction(1))
    return {"witness": assign, "relations": len(ratios)}


def _g2_relations():
    mk = lambda *xs: vec(*xs)
    return [
        # [E_{2e1-e2-e3}, E_{-(e1-e2)}] = -E_{-(e3-e1)}
        BracketRelation(mk(2, -1, -1), mk(-1, 1, 0), mk(1, 0, -1), Fraction(-1)),
        # [E_{2e1-e2-e3}, E_{-(e1+e3-2e2)}] = -E_{-(2e3-e1-e2)}
        BracketRelation(mk(2, -1, -1), mk(-1, 2, -1), mk(1, 1, -2), Fraction(-1)),
        # [E_{e3-e1}, E_{-(e3-e2)}] = -2 E_{-(e1-e2)}
        BracketRelation(mk(-1, 0, 1), mk(0, 1, -1), mk(-1, 1, 0), Fraction(-2)),
        # [E_{e3-e1}, E_{-(2e3-e1-e2)}] = E_{-(e3-e2)}
        BracketRelation(mk(-1, 0, 1), mk(1, 1, -2), mk(0, 1, -1), Fraction(1)),
        # [E_{e1-e2}, E_{-(e3-e2)}] = -2 E_{-(e3-e1)}
        BracketRelation(mk(1, -1, 0), mk(0, 1, -1), mk(1, 0, -1), Fraction(-2)),
        # [E_{e1-e2}, E_{-(e1+e3-2e2)}] = -E_{-(e3-e2)}
        BracketRelation(mk(1, -1, 0), mk(-1, 2, -1), mk(0, 1, -1), Fraction(-1)),
    ]


def check_g2_relations() -> dict:
    return _consistency_verdict(cached_constants("G2", 2), _g2_relations())


def so7_relations():
    mk = lambda *xs: vec(*xs)
    return [
        BracketRelation(mk(1, -1, 0), mk(-1, 0, 0), mk(0, -1, 0), Fraction(-2)),
        BracketRelation(mk(1, -1, 0), mk(-1, 0, -1), mk(0, -1, -1), Fraction(-2)),
        BracketRelation(mk(0, 1, -1), mk(0, -1, 0), mk(0, 0, -1), Fraction(-2)),
        BracketRelation(mk(0, 1, -1), mk(-1, -1, 0), mk(-1, 0, -1), Fraction(-2)),
        BracketRelation(mk(-1, 0, 1), mk(0, 0, -1), mk(-1, 0, 0), Fraction(-2)),
        BracketRelation(mk(-1, 0, 1), mk(0, -1, -1), mk(-1, -1, 0), Fraction(-2)),
    ]


def so8_relations():
    mk = lambda *xs: vec(*xs)
    return [
        BracketRelation(mk(1, -1, 0, 0), mk(-1, 0, 0, -1), mk(0, -1, 0, -1), Fraction(-2)),
        BracketRelation(mk(1, -1, 0, 0), mk(-1, 0, -1, 0), mk(0, -1, -1, 0), Fraction(-2)),
        BracketRelation(mk(0, 1, -1, 0), mk(0, -1, 0, -1), mk(0, 0, -1, -1), Fraction(-2)),
        BracketRelation(mk(0, 1, -1, 0), mk(-1, -1, 0, 0), mk(-1, 0, -1, 0), Fraction(-2)),
        BracketRelation(mk(-1, 0, 1, 0), mk(0, 0, -1, -1), mk(-1, 0, 0, -1), Fraction(-2)),
        BracketRelation(mk(-1, 0, 1, 0), mk(0, -1, -1, 0), mk(-1, -1, 0, 0), Fraction(-2)),
    ]


def _consistency_verdict(sc, relations) -> dict:
    try:
        result = verify_relations_up_to_rescaling(sc, relations)
    except NoWitness as exc:
        return {"consistent": False, "conflict": str(exc)}
    return {"consistent": True, **result}


def check_so7_relations() -> dict:
    """The six displayed so(7) cycle relations are NOT simultaneously
    realizable: the sign cycle they claim has the wrong basis-invariant
    product, which is why the corresponding candidate is feasible."""
    return _consistency_verdict(cached_constants("B", 3), so7_relations())


def check_so8_relations() -> dict:
    """Same verdict as check_so7_relations for the displayed so(8) cycles."""
    return _consistency_verdict(cached_constants("D", 4), so8_relations())


G2_REFERENCE_FORM = {
    (vec(-1, 1, 0), vec(1, 1, -2)): Fraction(1),
    (vec(1, 0, -1), vec(-1, 2, -1)): Fraction(-1),
    (vec(0, 1, -1), vec(0, 1, -1)): Fraction(2),
}


def align_g2_form(system: AssembledSystem, coeffs) -> dict:
    """Match the solved form to the reference values by a diagonal
    rescaling of the quotient basis plus one global scale."""
    roots = system.config.system.roots
    # the G2 parabolic quotient has no Cartan label: every label is a root index
    labels = [roots[l] for l in system.unknowns.labels]
    gram = gram_matrix(system.unknowns, coeffs)
    ref = {}
    for (a, b), v in G2_REFERENCE_FORM.items():
        ref[(labels.index(a), labels.index(b))] = v
    n = len(labels)
    values = {}
    for i in range(n):
        for j in range(i, n):
            expect = ref.get((i, j)) or ref.get((j, i))
            if expect is None:
                if gram[i][j] != 0:
                    raise Unalignable(f"unexpected nonzero pairing at {labels[i]}, {labels[j]}")
            else:
                if gram[i][j] == 0:
                    raise Unalignable(f"vanishing pairing at {labels[i]}, {labels[j]}")
                values[(i, j)] = (gram[i][j], expect)
    # self-pairing fixes the global scale so the remaining scalars are free
    (si, sj), (got, expect) = next(((k, v) for k, v in values.items() if k[0] == k[1]))
    scale = expect / got
    scalars = {labels[si]: Fraction(1)}
    for (i, j), (got, expect) in values.items():
        if i == j:
            continue
        scalars[labels[i]] = Fraction(1)
        scalars[labels[j]] = expect / (scale * got)
    # exact verification of the witness
    for (i, j), (got, expect) in values.items():
        di = scalars[labels[i]]
        dj = scalars[labels[j]]
        if scale * di * dj * got != expect:
            raise Unalignable("constructed witness fails verification")
    return {"global_scale": scale, "scalars": scalars}
