"""Exact checks of the explicit homogeneous-space constructions.

Everything here is a verification against reference data: the symplectic
and special-linear quadric embeddings are exercised on random rational
inputs (seeded, exact arithmetic), and invariant-form values are matched
against our Chevalley basis up to a diagonal rescaling of the root vectors.
Displayed bracket relations are decided exactly: they hold under some
rescaling E_r -> c_r E_r over C, or a cycle of relations whose product no
rescaling changes is not 1, and that cycle is the certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from operator import mul

from . import linalg
from .chevalley import StructureConstants, cached_constants
from .errors import NoWitness, Unalignable
from .invform import AssembledSystem, gram_matrix
from .rootsys import MAX_RANK, Vec, vec

ZERO = Fraction(0)


# every random draw is p / q with q <= 6, so 60 times it is an int: both
# embedding checks work on those ints
SCALE = 60
CUBE = SCALE**3


# 60 p / q for every pair p in [-6, 6], q in [1, 6], repeats kept: one
# entry per pair, so a uniform choice is uniform over the pairs
_SCALED_DRAWS = tuple(SCALE * p // q for p in range(-6, 7) for q in range(1, 7))


def _rand_scaled(rng) -> int:
    """60 p / q for random p in [-6, 6] and q in [1, 6]: an int, as q divides 60."""
    return rng.choice(_SCALED_DRAWS)


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
    if n > MAX_RANK:
        raise ValueError(f"n {n} exceeds the maximum rank {MAX_RANK}")
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
    """Draw g, a product of 2n operations 1 + c e_i e_j^T, then x and a
    covector f, as ints 60 times their values: (X, F, GX, FG, D) with
    g x = GX / D and f o g^-1 = FG / D, each operation scaling D by 60."""
    ops = [(*rng.sample(range(n), 2), _rand_scaled(rng)) for _ in range(2 * n)]
    x = [_rand_scaled(rng) for _ in range(n)]
    f = [_rand_scaled(rng) for _ in range(n)]
    gx, fg, d = x, f, SCALE
    for i, j, c in ops:
        t, u = c * gx[j], c * fg[i]  # x_i += c x_j and f_j -= c f_i, over 60 D
        gx, fg, d = [SCALE * a for a in gx], [SCALE * a for a in fg], SCALE * d
        gx[i], fg[j] = gx[i] + t, fg[j] - u
    return x, f, gx, fg, d


def _nullity(ncols: int, rows) -> int:
    """Solution dimension of rows given as {column: int coefficient}."""
    dense = [tuple(r.get(k, 0) for k in range(ncols)) for r in rows]
    return ncols - linalg.rank(dense, ncols)


@lru_cache(maxsize=None)
def _stabilizer_dimension(n: int) -> int:
    """dim of {X in sl(n): X fixes the line through (e1, e_n*)}."""
    # unknowns: X[i][j] at i * n + j, then the eigenvalue c at n * n
    c = n * n
    rows = [{i * n: 1} for i in range(n)]  # X e1 = c e1
    rows[0][c] = -1
    rows += [{(n - 1) * n + j: 1} for j in range(n)]  # e_n* X = -c e_n*
    rows[-1][c] = 1
    rows.append({i * n + i: 1 for i in range(n)})  # trace zero
    return _nullity(c + 1, rows)


@lru_cache(maxsize=None)
def _normalizer_dimension(n: int) -> int:
    """dim of {X in sl(n): X e1 in C e1, X W <= W} for W = span(e1..e_{n-1})."""
    rows = [{i * n: 1} for i in range(1, n)]  # first column upper
    rows += [{(n - 1) * n + j: 1} for j in range(n - 1)]  # last row only in the corner
    rows.append({i * n + i: 1 for i in range(n)})  # trace zero
    return _nullity(n * n, rows)


def check_sl_embedding(n: int, trials: int = 20, seed: int = 0) -> dict:
    """Unimodular action preserves the evaluation pairing, compared on ints
    as in `check_sp_embedding`; the point stabilizer has codimension one
    inside the flag normalizer."""
    if n < 3:
        # a line in C^2 determines its hyperplane, so the point/flag
        # stabilizer gap below only exists from n = 3 on
        raise ValueError("need n >= 3")
    if n > MAX_RANK:
        raise ValueError(f"n {n} exceeds the maximum rank {MAX_RANK}")
    if trials < 1:
        raise ValueError("need trials >= 1")
    rng = random.Random(seed)
    worst = ZERO
    for _ in range(trials):
        x, f, gx, fg, d = _sl_trial(rng, n)
        # (f o g^-1)(g x) - f(x), times D^2
        r = sum(map(mul, fg, gx)) - sum(map(mul, f, x)) * (d // SCALE) ** 2
        if r:
            worst = max(worst, abs(Fraction(r, d * d)))
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
    """Decide whether a rescaling E_r -> c_r E_r over C makes our constants
    satisfy every relation [E_a, E_b] = value E_target.

    It maps n(a, b) to n(a, b) c_a c_b / c_target, so relation k reads
    prod_r c_r^M[k][r] = value_k / n_k.  Row operations of determinant +-1
    (Euclid on each column) reduce M, each row carrying its ratio and the
    combination of relations it came from.  The rows reduced to zero give a
    basis y of the integer cycles (y^T M = 0), whose product prod_k
    ratio_k^y_k no rescaling changes, and the relations hold exactly when
    each is 1.  Returns the cycles, each first nonzero entry positive;
    raises NoWitness naming the first cycle of another product.
    """
    rs, m, roots = sc.system, len(relations), len(sc.system.roots)
    rows = []  # the exponents of a relation on every root, then its combination
    for k, rel in enumerate(relations):
        a, b, t = (rs.index_of(r) for r in (rel.a, rel.b, rel.target))
        n = sc.table[a][b] if min(a, b) >= 0 else 0
        if n and (t < 0 or rs.keys[a] + rs.keys[b] != rs.keys[t]):
            raise NoWitness(f"relation target mismatch: {rel}")
        if n == 0 or rel.value == 0:
            raise NoWitness(f"bracket vanishes for {rel}")
        row = [0] * (roots + m)
        row[a] = row[b] = row[roots + k] = 1
        row[t] = -1
        rows.append((row, Fraction(rel.value) / n))
    for c in range(roots):
        while len(live := [r for r in rows if r[0][c]]) > 1:
            p = min(live, key=lambda r: abs(r[0][c]))
            rows = [r if r is p or not r[0][c] else _reduce(r, p, c) for r in rows]
        rows = [r for r in rows if not r[0][c]]
    cycles = []
    for row, ratio in rows:
        y = row[roots:]
        if next(filter(None, y)) < 0:
            y, ratio = [-x for x in y], 1 / ratio
        if ratio != 1:
            raise NoWitness(f"relation cycle {tuple(y)} has product {ratio} under every rescaling")
        cycles.append(tuple(y))
    return {"cycles": cycles, "relations": m}


def _reduce(row, pivot, c):
    """row - q pivot, entries and ratio, for q = row[c] // pivot[c]: the
    entry at c drops below |pivot[c]|."""
    (r, ratio), (p, pratio) = row, pivot
    q = r[c] // p[c]
    return [x - q * z for x, z in zip(r, p)], ratio / pratio**q


def _g2_relations():
    return [
        # [E_{2e1-e2-e3}, E_{-(e1-e2)}] = -E_{-(e3-e1)}
        BracketRelation(vec(2, -1, -1), vec(-1, 1, 0), vec(1, 0, -1), Fraction(-1)),
        # [E_{2e1-e2-e3}, E_{-(e1+e3-2e2)}] = -E_{-(2e3-e1-e2)}
        BracketRelation(vec(2, -1, -1), vec(-1, 2, -1), vec(1, 1, -2), Fraction(-1)),
        # [E_{e3-e1}, E_{-(e3-e2)}] = -2 E_{-(e1-e2)}
        BracketRelation(vec(-1, 0, 1), vec(0, 1, -1), vec(-1, 1, 0), Fraction(-2)),
        # [E_{e3-e1}, E_{-(2e3-e1-e2)}] = E_{-(e3-e2)}
        BracketRelation(vec(-1, 0, 1), vec(1, 1, -2), vec(0, 1, -1), Fraction(1)),
        # [E_{e1-e2}, E_{-(e3-e2)}] = -2 E_{-(e3-e1)}
        BracketRelation(vec(1, -1, 0), vec(0, 1, -1), vec(1, 0, -1), Fraction(-2)),
        # [E_{e1-e2}, E_{-(e1+e3-2e2)}] = -E_{-(e3-e2)}
        BracketRelation(vec(1, -1, 0), vec(-1, 2, -1), vec(0, 1, -1), Fraction(-1)),
    ]


def check_g2_relations() -> dict:
    return _consistency_verdict(cached_constants("G2", 2), _g2_relations())


def _consistency_verdict(sc, relations) -> dict:
    try:
        result = verify_relations_up_to_rescaling(sc, relations)
    except NoWitness as exc:
        return {"consistent": False, "conflict": str(exc)}
    return {"consistent": True, **result}


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
    ref, seen = {}, set()
    for (a, b), v in G2_REFERENCE_FORM.items():
        if a not in labels or b not in labels:
            raise Unalignable(f"reference pair {a}, {b} lies outside the quotient")
        # the scalars below are guessed one pair at a time, which holds
        # only while no label lies in two pairs
        for r in (a,) if a == b else (a, b):
            if r in seen:
                raise Unalignable(f"label {r} lies in two reference pairs")
            seen.add(r)
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
