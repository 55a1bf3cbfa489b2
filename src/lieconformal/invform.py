"""Exact solver for the degenerate invariant bilinear form.

The form lives on g with kernel h, so it is encoded by its values on the
quotient labels.  Labels pair only when their weights add up to the
distortion; `isotropy.partner` names the one label each label can pair
with, so the unknowns are read off with one lookup per label.  Invariance
against every basis element of the normalizer p gives a homogeneous
linear system over Q.  Feasibility means the solution space contains a
nondegenerate point, certified by an exact Gram determinant.

As the label weights are distinct, each label has at most one partner, so
every row is a ratio edge c x_u + c' x_v = 0 or a forced zero c x_u = 0.
`assemble` stores each row sparse, as its (unknown, int coefficient)
pairs in unknown order, scaled to coprime ints with a positive first
coefficient, so rows equal up to scale are stored once.  `solve` reads the
nullspace off the components of that graph, with no elimination: the walk
carries each value as an integer (numerator, denominator) pair and compares
ratios by cross-multiplication, and only the basis and the witness it
returns are built as Fractions.  The Gram at any point is a weighted
partial involution whose determinant is +-(product of the unknowns,
off-diagonal ones squared): it vanishes identically exactly when some
label is unpaired or some unknown is zero on the whole solution space, and
otherwise the prime-weighted sum of the basis, whose supports are
disjoint, is a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

import sympy  # noqa: F401 -- unused; stays until the benchmark change of ROADMAP item 1

from . import linalg
from .chevalley import AlgebraElement, StructureConstants, _element, bracket
from .errors import ResidualNonzero
from .isotropy import CARTAN_LABEL, IsotropyConfig, partner, quotient_basis
from .rootsys import dot, ratio

ZERO = Fraction(0)


@dataclass
class FormUnknowns:
    labels: list
    pairs: list  # index pairs (i, j), i <= j, with weight_i + weight_j = delta


@dataclass
class AssembledSystem:
    config: IsotropyConfig
    unknowns: FormUnknowns
    # sorted sparse rows: tuples of (unknown, int coefficient) pairs
    rows: list = field(repr=False)


@dataclass
class FormSolution:
    dimension: int
    basis: list
    nondegenerate_witness: tuple | None
    degeneracy_certificate: str | None

    @property
    def feasible(self) -> bool:
        return self.nondegenerate_witness is not None


def form_unknowns(config: IsotropyConfig) -> FormUnknowns:
    labels = quotient_basis(config)
    position = {l: i for i, l in enumerate(labels)}
    rs = config.system
    kd = rs.key(config.d2)
    pairs = []
    for i, l in enumerate(labels):
        j = position.get(partner(rs, kd, l))
        if j is not None and j >= i:
            pairs.append((i, j))
    return FormUnknowns(labels=labels, pairs=pairs)


def _generators(sc: StructureConstants, config: IsotropyConfig):
    """Basis of p with the distortion value of each element."""
    rs = sc.system
    gens = []
    for k in rs.simple_idx:
        h2 = sc.coroots[k]
        gens.append((_element(rs, h2, {}), ratio(dot(config.d2, h2), 4)))
    for gamma in sorted(config.p_roots):
        gens.append((_element(rs, sc.zero, {gamma: 1}), 0))
    return gens


def assemble(sc: StructureConstants, config: IsotropyConfig) -> AssembledSystem:
    """Invariance rows for the form unknowns, read off the root tables.

    Only the root vectors E_g (g in p) contribute: for h in the Cartan the
    row of an unknown pair (i, j) is (w_i + w_j - delta)(h) B_ij = 0.  As
    ad E_g shifts weights by g, the row of a label pair (i, j) for E_g is
    nonzero only if g = delta - w_i - w_j, so each label pair yields at
    most one row, with entries on the unknowns (partner(j), j) and
    (partner(i), i).  A row is stored as its nonzero (unknown, coefficient)
    pairs, scaled to coprime ints with a positive first coefficient, so rows
    equal up to scale are stored once.
    """
    unknowns = form_unknowns(config)
    labels = unknowns.labels
    rs = sc.system
    kd = rs.key(config.d2)
    if kd is None:  # off the key box no label pair reaches a root
        return AssembledSystem(config=config, unknowns=unknowns, rows=[])
    neg, coords, norm, find = rs.neg, rs.coords, rs.norm, rs.by_key.get
    nu2, p_roots = config.nu2, config.p_roots
    if nu2 is not None:  # the Cartan label exists
        nn = dot(nu2, nu2)
    weights = [0 if l == CARTAN_LABEL else rs.keys[l] for l in labels]  # as keys
    unknown_of = {}  # label -> the unknown of its pair
    for u, (i, j) in enumerate(unknowns.pairs):
        unknown_of[i] = unknown_of[j] = u

    def image(g, a):
        """Coefficient of [E_g, label a] on the quotient label it lands on."""
        r = labels[a]
        if r == CARTAN_LABEL:
            return Fraction(-dot(coords[g], nu2), 4)  # [E_g, h_nu] = -(g.nu) E_g
        if r == neg[g]:
            # [E_g, E_-g] = coroot of g, projected onto nu
            return Fraction(8 * dot(coords[g], nu2), norm[g] * nn)
        return sc.table[g][r]

    rows = set()
    for i, wi in enumerate(weights):
        for j in range(i, len(labels)):
            g = find(kd - wi - weights[j], -1)
            if g < 0 or g not in p_roots:
                continue
            # [E_g, label i] lands on the unknown of j, [E_g, label j] on that
            # of i; the pair (i, i) takes the image of label i in both slots
            u, v = unknown_of.get(j), unknown_of.get(i)
            a = 0 if u is None else image(g, i)
            b = 0 if v is None else image(g, j)
            row = _primitive(u, a + b) if u == v else _primitive(u, a, v, b)
            if row:
                rows.add(row)
    return AssembledSystem(config=config, unknowns=unknowns, rows=sorted(rows))


def _primitive(u, a, v=None, b=0) -> tuple:
    """The row a x_u + b x_v (u != v, or b = 0) as sparse coprime ints in
    unknown order with a positive first coefficient; () for a zero row.  a
    and b are ints or Fractions, scaled by the lcm of their denominators."""
    if not a:
        return ((v, 1),) if b else ()
    if not b:
        return ((u, 1),)
    m = lcm(a.denominator, b.denominator)
    a, b = a.numerator * (m // a.denominator), b.numerator * (m // b.denominator)
    if v < u:
        u, a, v, b = v, b, u, a
    g = gcd(a, b) if a > 0 else -gcd(a, b)
    return ((u, a // g), (v, b // g))


def gram_matrix(unknowns: FormUnknowns, coeffs):
    """Symmetric Gram matrix of the form on the quotient labels for one value
    per unknown, ints where integral."""
    n = len(unknowns.labels)
    gram = [[0] * n for _ in range(n)]
    for (i, j), c in zip(unknowns.pairs, coeffs, strict=True):
        gram[i][j] = gram[j][i] = ratio(c.numerator, c.denominator)
    return gram


def _witness_weights(k: int) -> list:
    """The first k odd primes, the weights of the witness."""
    weights, n = [], 3
    while len(weights) < k:
        if all(n % p for p in weights):
            weights.append(n)
        n += 2
    return weights


def _residual(rows, x) -> Fraction:
    """The first nonzero row . x over the sparse rows, or 0.  x is scaled
    to ints, so on `assemble`'s int rows the int dot products decide; the
    residual is unscaled only for the row that fails."""
    xs, m = linalg.int_row(x)
    for row in rows:
        r = sum([xs[u] * c for u, c in row])
        if r:
            return Fraction(r, m)
    return ZERO


def solve(system: AssembledSystem) -> FormSolution:
    """Solve the rows as the module describes.  Input contract: each row holds
    at most two nonzero (unknown, coefficient) pairs, ints or Fractions."""
    labels, pairs = system.unknowns.labels, system.unknowns.pairs
    paired = set()
    for pair in pairs:
        for i in set(pair):
            if i in paired:
                # the determinant factorization needs at most one partner per label
                raise ValueError(f"label {labels[i]!r} lies in two unknown pairs")
            paired.add(i)
    nunk = len(pairs)
    forced = set()
    edges = [[] for _ in range(nunk)]
    for row in system.rows:
        row = [(u, c) for u, c in row if c]
        if len(row) > 2:
            raise ValueError("a row has more than two nonzero entries")
        if len(row) == 2:
            (u, a), (v, b) = row
            edges[u].append((v, a, b))
            edges[v].append((u, b, a))
        elif row:
            forced.add(row[0][0])
    # one basis vector per component with a consistent ratio on every edge and
    # no forced zero, scaled to 1 at its largest unknown: the RREF nullspace.
    # The value of u is num[u] / den[u]; den[u] == 0 marks u unvisited.
    num, den = [0] * nunk, [0] * nunk
    components = []
    for top in reversed(range(nunk)):
        if den[top]:
            continue
        num[top] = den[top] = 1
        component, ok = [top], True
        for u in component:
            n, d = num[u], den[u]
            for v, a, b in edges[u]:
                # a x_u + b x_v = 0 puts -a n / (b d) on v
                if den[v]:
                    ok = ok and num[v] * b * d == -a * n * den[v]
                else:
                    num[v], den[v] = -a * n, b * d
                    component.append(v)
        if ok and forced.isdisjoint(component):
            components.append(component)
    components.reverse()
    dim = len(components)
    if dim == 0:
        return FormSolution(0, [], None, "solution space is zero")
    basis = []
    for component in components:
        b = [ZERO] * nunk
        for u in component:
            b[u] = Fraction(num[u], den[u])
        if residual := _residual(system.rows, b):
            raise ResidualNonzero(f"nullspace basis has residual {residual}")
        basis.append(tuple(b))
    # the generic determinant is a product of the unknowns as linear forms
    # in the solution parameters: nonzero iff every factor is
    if len(paired) < len(labels) or sum(map(len, components)) < nunk:
        return FormSolution(dim, basis, None, "generic Gram determinant is identically zero")
    # the supports are disjoint and cover every unknown, so every entry of
    # the weighted sum is nonzero
    witness = [ZERO] * nunk
    for w, component in zip(_witness_weights(dim), components):
        for u in component:
            witness[u] = Fraction(w * num[u], den[u])
    witness = tuple(witness)
    if _residual(system.rows, witness):
        raise ResidualNonzero("witness fails the assembled constraints")
    if linalg.det(gram_matrix(system.unknowns, linalg.int_row(witness)[0])) == 0:
        raise AssertionError("witness Gram determinant is zero")
    return FormSolution(dim, basis, witness, None)


def verify_invariance(sc: StructureConstants, config: IsotropyConfig, coeffs):
    """Re-check invariance by direct bracket evaluation over all of p.

    Independent of `assemble`: evaluates the form on actual algebra
    elements, one `bracket` per (generator, label) pair, rather than
    through precomputed action rows.  Each of the n(n + 1)/2 label pairs
    (i <= j) is checked against every generator of p;
    the difference of the two sides is summed over the nonzero entries of
    the Gram only, which holds for any Gram, paired or not.  Raises
    ResidualNonzero on the first violated constraint in (generator, i, j)
    order.
    """
    rs = config.system
    unknowns = form_unknowns(config)
    labels = unknowns.labels
    n = len(labels)
    gram = gram_matrix(unknowns, coeffs)
    positions = {l: i for i, l in enumerate(labels)}
    nu2, zero = config.nu2, sc.zero
    if nu2 is not None:
        nn, cartan_at = dot(nu2, nu2), positions[CARTAN_LABEL]

    def project(elt: AlgebraElement) -> dict:
        """Coefficients of an element on the quotient labels; the roots of h
        drop out.  The labels are distinct, so no two terms land together."""
        out = {i: c for r, c in elt.coeffs.items() if (i := positions.get(r)) is not None}
        if nu2 is not None and elt.cartan != zero:
            t = Fraction(dot(nu2, elt.cartan), nn)
            if t:
                out[cartan_at] = t
        return out

    basis_elems = [
        _element(rs, nu2, {}) if l == CARTAN_LABEL else _element(rs, zero, {l: 1})
        for l in labels
    ]
    # the nonzero entries of each Gram row: B(u_k, u_j) for j in nonzero[k]
    nonzero = [[(j, g) for j, g in enumerate(row) if g] for row in gram]
    gens = _generators(sc, config)
    for p, dval in gens:
        # [p, u] is projected once per label u and reused in every pair
        moved = [project(bracket(sc, p, u)) for u in basis_elems]
        # lhs - rhs of every pair (i, j), i <= j, summed over the nonzero Gram
        # entries only: B([p, u_a], u_b) lands on the pair (a, b) and, as
        # B(u_b, [p, u_a]), on (b, a); a pair with no term stays 0 = 0
        residual = {}
        for a in range(n):
            for k, c in moved[a].items():
                for b, g in nonzero[k]:
                    t = c * g
                    if a <= b:
                        residual[a, b] = residual.get((a, b), 0) + t
                    if b <= a:
                        residual[b, a] = residual.get((b, a), 0) + t
            if dval:
                for b, g in nonzero[a]:
                    if a <= b:
                        residual[a, b] = residual.get((a, b), 0) - dval * g
        failed = [pair for pair, r in residual.items() if r]
        if failed:
            # B([p, u_i], u_j) + B(u_i, [p, u_j]) = delta(p) B(u_i, u_j)
            i, j = min(failed)
            lhs = sum(c * gram[k][j] for k, c in moved[i].items()) + sum(
                c * gram[i][k] for k, c in moved[j].items()
            )
            rhs = dval * gram[i][j]
            raise ResidualNonzero(
                f"invariance fails for generator {p!r} on a label pair: {lhs} != {rhs}"
            )
    return {"constraints_checked": len(gens) * n * (n + 1) // 2, "max_residual": ZERO}
