"""Cross-ratios on the projective line, residues and condition generators
for stable one-forms, torsion-configuration checks, and the degeneration
combinatorics of marked trees.

Projective points carry homogeneous 2-coordinates so infinity needs no
special case: all cross-ratios are ratios of 2x2 determinants.  A
degeneration tree is a `flatnet.DualGraph`, and its exponents are read off
the graph's tree paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from .exactnum import Cyclotomic, NumberField, RationalMatrix, UPoly, \
    rational, root_of_unity_order, trace_dual_basis
from .multipoly import MultiPoly
from . import intlat


class DegenerateQuadruple(ValueError):
    pass


class CoincidentMarkings(ValueError):
    pass


class UnsupportedNormalization(ValueError):
    pass


class DomainViolation(ValueError):
    pass


class InvalidTree(ValueError):
    pass


# ---------------------------------------------------------------------------
# projective points and cross-ratios
# ---------------------------------------------------------------------------

class ProjPoint:
    """Point of P^1 in homogeneous coordinates (u : v); infinity is (1 : 0).
    Coordinates may be Fractions, field elements, or cyclotomic numbers."""

    __slots__ = ("u", "v")

    def __init__(self, u, v=1):
        if isinstance(u, ProjPoint):
            u, v = u.u, u.v
        self.u = rational(u) if isinstance(u, (int, str)) else u
        self.v = rational(v) if isinstance(v, (int, str)) else v
        if self.u == 0 and self.v == 0:
            raise ValueError("(0 : 0) is not a projective point")

    @classmethod
    def infinity(cls):
        return cls(1, 0)

    @classmethod
    def of(cls, value):
        if isinstance(value, ProjPoint):
            return value
        if isinstance(value, str) and value.strip() in ("inf", "oo"):
            return cls.infinity()
        return cls(value)

    def is_infinity(self):
        return self.v == 0

    def same_as(self, other):
        return _det(self, other) == 0

    def affine(self):
        if self.is_infinity():
            raise ValueError("infinite point")
        return self.u / self.v

    def __repr__(self):
        return "inf" if self.is_infinity() else f"({self.u} : {self.v})"


def _det(a: ProjPoint, b: ProjPoint):
    return a.u * b.v - b.u * a.v


def cross_ratio(z1, z2, z3, z4):
    """[z1, z2, z3, z4] = (z1-z3)(z2-z4) / ((z1-z4)(z2-z3)), computed with
    homogeneous determinants."""
    pts = [ProjPoint.of(z) for z in (z1, z2, z3, z4)]
    for i in range(4):
        for j in range(i + 1, 4):
            if pts[i].same_as(pts[j]):
                raise DegenerateQuadruple(f"points {i+1} and {j+1} coincide")
    num = _det(pts[0], pts[2]) * _det(pts[1], pts[3])
    den = _det(pts[0], pts[3]) * _det(pts[1], pts[2])
    return num / den


def mobius_apply(m, p: ProjPoint) -> ProjPoint:
    """Apply the invertible 2x2 matrix m = [[a, b], [c, d]]."""
    (a, b), (c, d) = m
    return ProjPoint(a * p.u + b * p.v, c * p.u + d * p.v)


# ---------------------------------------------------------------------------
# stable-form configurations and residues
# ---------------------------------------------------------------------------

@dataclass
class StableFormConfig:
    """A form of type (n; m_1..m_k) on P^1: n simple poles, zeros of orders
    m_i >= 1, and a partition of the poles into parts of size >= 2
    (collision classes of nodes) holding each pole index 0..n-1 once."""
    zeros: list  # [(ProjPoint, multiplicity)]
    poles: list  # [ProjPoint]
    pair_partition: list  # [[pole indices]]
    strict: bool = True

    def __post_init__(self):
        self.zeros = [(ProjPoint.of(z), int(m)) for z, m in self.zeros]
        self.poles = [ProjPoint.of(x) for x in self.poles]
        n = len(self.poles)
        for i, (_, m) in enumerate(self.zeros):
            if m < 1:
                raise ValueError(f"zero{i} has order {m}, below 1")
        if self.strict and sum(m for _, m in self.zeros) != n - 2:
            raise ValueError("zero orders must sum to (number of poles) - 2")
        seen = set()
        for part in self.pair_partition:
            if len(part) < 2:
                raise ValueError("partition parts need at least two poles")
            for i in part:
                if not 0 <= i < n:
                    raise ValueError(f"partition names pole {i}, outside "
                                     f"0..{n - 1}")
                if i in seen:
                    raise ValueError(f"pole {i} is in the partition twice")
                seen.add(i)
        if self.pair_partition and len(seen) != n:
            raise ValueError("partition must cover the poles")
        pts = [(z, f"zero{i}") for i, (z, _) in enumerate(self.zeros)] + \
              [(x, f"pole{i}") for i, x in enumerate(self.poles)]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i][0].same_as(pts[j][0]):
                    raise CoincidentMarkings(
                        f"{pts[i][1]} equals {pts[j][1]}")


def _z_product(one, roots):
    """Coefficients, lowest first, of prod (z - r) over the roots, in the
    ring of `one`."""
    coeffs = [one]
    for r in roots:
        coeffs = [-r * coeffs[0]] + [a - r * b for a, b in
                                     zip(coeffs, coeffs[1:])] + [coeffs[-1]]
    return coeffs


def _diff_product(x, roots, one):
    """prod (x - r) over the roots, in the ring of `one`: N(x) for the
    finite zeros, prod_{l != i} (x_i - x_l) for the other poles."""
    return math.prod((x - r for r in roots), start=one)


def residues(cfg: StableFormConfig):
    """Exact residues of  prod (z - z_i)^{m_i} dz / prod (z - x_j)  at the
    poles (finite zeros contribute factors; a zero at infinity only lowers
    the numerator degree).  The residue theorem makes them sum to zero for
    every valid configuration."""
    for x in cfg.poles:
        if x.is_infinity():
            raise UnsupportedNormalization(
                "move poles away from infinity first")
    one = Fraction(1)
    xs = [x.affine() for x in cfg.poles]
    zs = [z.affine() for z, m in cfg.zeros if not z.is_infinity()
          for _ in range(m)]
    return [_diff_product(a, zs, one) /
            _diff_product(a, xs[:i] + xs[i + 1:], one)
            for i, a in enumerate(xs)]


def zero_order_consistent(cfg: StableFormConfig) -> bool:
    """Cross-check of `residues`: the partial-fraction numerator
    sum_i r_i prod_{j != i} (z - x_j) must vanish to the declared order at
    every declared finite zero, and its degree must drop by the order of a
    zero at infinity.  Needs rational coordinates."""
    rs = residues(cfg)
    if not all(isinstance(r, Fraction) for r in rs):
        raise ValueError("zero-order check needs rational coordinates")
    n = len(cfg.poles)
    xs = [x.affine() for x in cfg.poles]
    acc = [Fraction(0)] * n
    for i, r in enumerate(rs):
        for k, c in enumerate(_z_product(Fraction(1), xs[:i] + xs[i + 1:])):
            acc[k] += r * c
    numerator = UPoly(acc)
    inf_order = 0
    for z, m in cfg.zeros:
        if z.is_infinity():
            inf_order = m
            continue
        p = numerator
        for _ in range(m):
            p, rem = divmod(p, UPoly([-z.affine(), 1]))
            if not rem.is_zero():
                return False
    return numerator.degree <= n - 2 - inf_order


# ---------------------------------------------------------------------------
# symbolic condition generators
# ---------------------------------------------------------------------------
#
# Poles and finite zeros are polynomials in n variables; a zero is a pair
# (position, order) and the position 'inf' marks a zero at infinity, which
# only lowers the degree of the numerator N(z) = prod (z - z_k)^{m_k}.

def opposite_residue_conditions(n, poles, zeros, pairs):
    """For each pole pair (i, j), the numerator of Res_i + Res_j of
    N(z) dz / prod (z - x_l), cleared of numeric content: with
    P_k = prod_{l != i,j} (x_k - x_l) it is N(x_i) P_j - N(x_j) P_i."""
    one = MultiPoly.constant(n, 1)
    roots = [z for z, m in zeros if not isinstance(z, str) for _ in range(m)]
    N = [_diff_product(x, roots, one) for x in poles]
    conds = []
    for i, j in pairs:
        rest = [x for l, x in enumerate(poles) if l not in (i, j)]
        cond = N[i] * _diff_product(poles[j], rest, one) - \
            N[j] * _diff_product(poles[i], rest, one)
        conds.append(cond.primitive_part())
    return conds


def zero_order_conditions(n, poles, residues, zeros):
    """With the residues given, the numerator sum_i rho_i prod_{l != i}
    (z - x_l) of sum_i rho_i / (z - x_i) must vanish to the prescribed
    order at each zero (0 and infinity supported): its low coefficients,
    respectively its top ones down to degree (number of poles) - 2 - m.
    Each condition is made primitive with a positive leading term; repeats
    are dropped."""
    npoles = len(poles)
    one = MultiPoly.constant(n, 1)
    prods = [_z_product(one, poles[:i] + poles[i + 1:])
             for i in range(npoles)]
    coeffs = [sum((rho * p[t] for rho, p in zip(residues, prods)),
                  MultiPoly.zero(n)) for t in range(npoles)]
    conds = []
    for z, m in zeros:
        if isinstance(z, str):
            # the very top coefficient may vanish identically
            conds += [coeffs[t] for t in range(npoles - 1 - m, npoles)]
        elif z == 0:
            conds += coeffs[:m]
        else:
            raise UnsupportedNormalization(
                "finite zero-order conditions are implemented at 0")
    out = []
    for c in conds:
        if c.is_zero():
            continue
        c = c.strip_monomial_content().primitive_part()
        lead = max(c.terms, key=lambda e: (sum(e), e))
        if c.terms[lead] < 0:
            c = -c
        if c not in out:
            out.append(c)
    return out


def partition_residue_conditions(n, poles, zeros, parts):
    """Per part, the numerator of  sum_{i in part} N(x_i) / prod_{l != i}
    (x_i - x_l)  over the common denominator, the product of the part's
    pole denominators."""
    one = MultiPoly.constant(n, 1)
    roots = [z for z, m in zeros if not isinstance(z, str) for _ in range(m)]
    N = [_diff_product(x, roots, one) for x in poles]
    dens = [_diff_product(x, poles[:i] + poles[i + 1:], one)
            for i, x in enumerate(poles)]
    return [sum((math.prod((dens[k] for k in part if k != i), start=N[i])
                 for i in part), MultiPoly.zero(n)).primitive_part()
            for part in parts]


# canned normalizations -------------------------------------------------------

def odd4_stability_conditions():
    """Opposite-residue conditions for the one-zero normalization with the
    third pole pair frozen at (1, -1): the two quartic stability polynomials
    (the third pair is redundant by the residue theorem)."""
    variables = ["x1", "y1", "x2", "y2"]
    v = {nm: MultiPoly.variable(4, i) for i, nm in enumerate(variables)}
    one = MultiPoly.constant(4, 1)
    return opposite_residue_conditions(
        4, [v["x1"], v["y1"], v["x2"], v["y2"], one, -one], [("inf", 4)],
        [(0, 1), (2, 3)])


def stability_surface_generators():
    """The two quadrics cutting out the closure of the stable-form locus in
    the (x1, y1, x2, y2) chart."""
    variables = ["x1", "y1", "x2", "y2"]
    f1 = MultiPoly(4, {
        (1, 0, 1, 0): 1, (0, 1, 1, 0): 1, (0, 0, 2, 0): -1,
        (1, 0, 0, 1): 1, (0, 1, 0, 1): 1, (0, 0, 0, 2): -1,
        (0, 0, 0, 0): 2})
    f2 = MultiPoly(4, {
        (2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): -1,
        (0, 0, 0, 2): -1})
    return variables, [f1, f2]


def hyp4_zero_order_conditions():
    """Zero-order system for the hyperelliptic normalization: poles at
    (x_i, -x_i), residues (r_i, -r_i), a four-fold zero at z = 0."""
    variables = ["r1", "r2", "r3", "x1", "x2", "x3"]
    r = [MultiPoly.variable(6, i) for i in range(3)]
    x = [MultiPoly.variable(6, i + 3) for i in range(3)]
    return variables, zero_order_conditions(
        6, [x[0], -x[0], x[1], -x[1], x[2], -x[2]],
        [r[0], -r[0], r[1], -r[1], r[2], -r[2]],
        [(MultiPoly.constant(6, 0), 4), ("inf", 0)])


def s22_opposite_residue_conditions():
    """Opposite-residue conditions D_k for the two-double-zero normalization
    with y_k = zeta_k x_k (zeros at 0 and infinity, both double); the
    zeta_k are adjoined as polynomial variables."""
    variables = ["x1", "x2", "x3", "z1", "z2", "z3"]
    x = [MultiPoly.variable(6, i) for i in range(3)]
    z = [MultiPoly.variable(6, i + 3) for i in range(3)]
    conds = opposite_residue_conditions(
        6, [x[0], x[1], x[2], z[0] * x[0], z[1] * x[1], z[2] * x[2]],
        [(MultiPoly.constant(6, 0), 2), ("inf", 2)], [(3, 0), (4, 1), (5, 2)])
    return variables, [c.strip_monomial_content() for c in conds]


def residue21_condition():
    """Type (5; 2, 1) opposite-residue instance: poles u_1, u_2, u_3, x_1 and
    zeta*x_1, zeros of order 2 at 0 and 1 at infinity; the condition is the
    cubic-in-x_1 constraint that the paired residues cancel."""
    variables = ["x1", "zeta", "u1", "u2", "u3"]
    x1 = MultiPoly.variable(5, 0)
    ze = MultiPoly.variable(5, 1)
    us = [MultiPoly.variable(5, i + 2) for i in range(3)]
    conds = opposite_residue_conditions(
        5, [ze * x1, x1, us[0], us[1], us[2]],
        [(MultiPoly.constant(5, 0), 2), ("inf", 1)], [(0, 1)])
    return variables, [c.strip_monomial_content().primitive_part()
                       for c in conds]


def torsion_fiber_equations():
    """Torsion-point fiber instance for the one-part type (4; 1, 1) form:
    residues r_1..r_3 free, r_4 = -(r_1+r_2+r_3), poles at the roots of
    unity zeta_i (zeta_1 = 1): simple zeros at 0 and infinity force
    sum r_i zeta_i = 0 and (after clearing the unit prod zeta_i)
    sum r_i / zeta_i = 0."""
    variables = ["r1", "r2", "r3", "z2", "z3", "z4"]
    r = [MultiPoly.variable(6, i) for i in range(3)]
    z = [MultiPoly.constant(6, 1)] + \
        [MultiPoly.variable(6, i + 3) for i in range(3)]
    r4 = -(r[0] + r[1] + r[2])
    return variables, zero_order_conditions(
        6, z, [r[0], r[1], r[2], r4],
        [(MultiPoly.constant(6, 0), 1), ("inf", 1)])


# ---------------------------------------------------------------------------
# cross-ratio equation machinery
# ---------------------------------------------------------------------------

def cre_exponents(fld: NumberField, triple):
    """Primitive integer triple b with sum b_i s_{i+1} s_{i+2} = 0 where
    (s_i) is the trace-dual basis of the triple; None when only b = 0
    works."""
    if fld.degree != 3:
        raise ValueError("cross-ratio exponents live over cubic fields")
    s = trace_dual_basis(fld, list(triple))
    prods = [s[1] * s[2], s[2] * s[0], s[0] * s[1]]
    ker = intlat.echelon_kernel([intlat.clear_denominators(
        [p.coords[i] for p in prods]) for i in range(3)], 3)
    return intlat.primitive_vector(ker[0]) if ker else None


def check_cre(pairs, exponents):
    """Evaluate R_1^a1 R_2^a2 R_3^a3 with R_k the cross-ratio of the two
    complementary pole pairs: R_k = [x_i, y_i, x_j, y_j] for {i,j,k} =
    {1,2,3}.  Returns (value, verdict) where the exact verdict states
    root-of-unity membership and the order: ('exact', m) or (None, None)."""
    if len(pairs) != 3 or len(exponents) != 3:
        raise ValueError("three pairs and three exponents expected")
    if all(e == 0 for e in exponents):
        raise ValueError("exponents must not all vanish")
    Rs = []
    for k in range(3):
        i, j = [t for t in range(3) if t != k]
        (xi, yi), (xj, yj) = pairs[i], pairs[j]
        Rs.append(cross_ratio(xi, yi, xj, yj))
    value = math.prod(R ** a for R, a in zip(Rs, exponents) if a)
    order = root_of_unity_order(value)
    return value, ("exact", order) if order else (None, None)


def check_config_cre(cfg: StableFormConfig, exponents):
    """`check_cre` on the pole pairs of a configuration whose partition is
    three parts of two poles each."""
    if len(cfg.pair_partition) != 3 or \
            any(len(p) != 2 for p in cfg.pair_partition):
        raise ValueError("cre check needs three pole pairs")
    pairs = [(cfg.poles[i], cfg.poles[j]) for i, j in cfg.pair_partition]
    return check_cre(pairs, exponents)


def torsion_config_check(cfg: StableFormConfig, N: int):
    """Checks of the determined-by-torsion conditions:
    i) per-part residue sums vanish;
    ii) residue ratios span a Q-space of dimension n - (number of parts)
        and are real (conjugation-invariant) where that is decidable;
    iii) every cross-ratio [z_a, z_b, x_i1, x_i2] with i1, i2 in one part is
        a root of unity of order dividing N (decided exactly).
    Returns ('satisfies', details) or ('violates', condition_id)."""
    if N < 1:
        raise ValueError(f"torsion bound N = {N} is below 1")
    rs = residues(cfg)
    n = len(cfg.poles)
    if any(sum(rs[i] for i in part) != 0 for part in cfg.pair_partition):
        return ("violates", "i")
    ratios = [r / rs[0] for r in rs]
    dim = _q_span_dimension(ratios)
    if dim != n - len(cfg.pair_partition):
        return ("violates", "ii")
    for r in ratios:
        if isinstance(r, Cyclotomic) and not r.is_real():
            return ("violates", "ii")
    # swapping z_a and z_b inverts the cross-ratio, which keeps its order:
    # one check per unordered pair of zeros
    for part in cfg.pair_partition:
        for (za, _), (zb, _) in combinations(cfg.zeros, 2):
            for i1, i2 in combinations(part, 2):
                val = cross_ratio(za, zb, cfg.poles[i1], cfg.poles[i2])
                order = root_of_unity_order(val)
                if order is None or N % order != 0:
                    return ("violates", "iii")
    return ("satisfies", None)


def _q_span_dimension(values):
    """Dimension of the Q-span of scalars that are Fractions, field
    elements, or cyclotomic numbers (coordinates over a common basis)."""
    rows = []
    order = math.lcm(*(v.order for v in values if isinstance(v, Cyclotomic)))
    for v in values:
        if isinstance(v, Fraction):
            rows.append([v])
        elif isinstance(v, Cyclotomic):
            rows.append(list(v.change_order(order).coords))
        else:  # FieldElement
            rows.append(list(v.coords))
    width = max(len(r) for r in rows)
    rows = [r + [Fraction(0)] * (width - len(r)) for r in rows]
    return RationalMatrix(rows).rank()


# ---------------------------------------------------------------------------
# reduced cross-ratio coordinates (k zeros, l pole pairs on P^1)
# ---------------------------------------------------------------------------

def crmin_forward(xy_pairs, extra_zeros):
    """Standard normalization z1 = inf, z2 = 0, z3 = 1: returns the tuple
    (R_2j, R_3j for each pair j; R_i1 for each extra zero i >= 4):
    R_2j = x_j / y_j, R_3j = (1 - x_j)/(1 - y_j), R_i1 = (z_i - x_1)/(z_i - y_1).
    """
    out = {}
    for j, (x, y) in enumerate(xy_pairs, start=1):
        x = Fraction(x)
        y = Fraction(y)
        if 0 in (x, y) or 1 in (x, y) or x == y:
            raise DomainViolation("marked points collide")
        out[(2, j)] = x / y
        out[(3, j)] = (1 - x) / (1 - y)
    x1, y1 = (Fraction(v) for v in xy_pairs[0])
    for i, z in enumerate(extra_zeros, start=4):
        z = Fraction(z)
        if z in (0, 1) or z == x1 or z == y1:
            raise DomainViolation("zero collides with a marked point")
        out[(i, 1)] = (z - x1) / (z - y1)
    return out


def crmin_inverse(values, n_pairs, n_extra):
    """Inverse of crmin_forward on its image: reconstructs ((x_j, y_j)_j,
    (z_i)_i) from {R_2j, R_3j, R_i1}."""
    pairs = []
    for j in range(1, n_pairs + 1):
        r2 = Fraction(values[(2, j)])
        r3 = Fraction(values[(3, j)])
        if r2 == r3 or r2 in (0, 1) or r3 in (0, 1):
            raise DomainViolation("coordinates outside the admissible domain")
        y = (r3 - 1) / (r3 - r2)
        x = r2 * y
        pairs.append((x, y))
    zs = []
    x1, y1 = pairs[0]
    for i in range(4, 4 + n_extra):
        r = Fraction(values[(i, 1)])
        if r == 1:
            raise DomainViolation("R_i1 = 1 sends the zero to infinity")
        z = (x1 - r * y1) / (1 - r)
        zs.append(z)
    return pairs, zs


M010_VARIABLES = ["t21", "t31", "t41", "t22", "t32", "t42",
                  "t23", "t33", "t43"]


def _m010_var(i, j):
    return MultiPoly.variable(9, (j - 1) * 3 + (i - 2))


def m010_system():
    """Numerators of the compatibility equations Eq(4,1,2), Eq(4,1,3),
    Eq(4,2,3) in the nine reduced cross-ratio coordinates: the anchored
    cross-ratio [1, t_2j, t_3j, t_4j] must be independent of the pair j.
    Variable order: (t21, t31, t41, t22, t32, t42, t23, t33, t43)."""
    one = MultiPoly.constant(9, 1)

    def bracket_num_den(j):
        a, b, c = _m010_var(2, j), _m010_var(3, j), _m010_var(4, j)
        return (one - b) * (a - c), (one - c) * (a - b)

    out = []
    for (j, jp) in ((1, 2), (1, 3), (2, 3)):
        n1, d1 = bracket_num_den(j)
        n2, d2 = bracket_num_den(jp)
        h = n1 * d2 - n2 * d1
        out.append(h.primitive_part())
    return out


def _m010_inverse_coordinates():
    """Numerator/denominator pairs (in the nine t-variables) of the inverse
    of the reduced cross-ratio chart: x_j, y_j from (t_2j, t_3j) and the
    fourth zero from the first pair block."""
    one = MultiPoly.constant(9, 1)
    coords = {}
    for j in (1, 2, 3):
        t2, t3 = _m010_var(2, j), _m010_var(3, j)
        coords[f"x{j}"] = (t2 * (t3 - one), t3 - t2)
        coords[f"y{j}"] = (t3 - one, t3 - t2)
    t21, t31, t41 = _m010_var(2, 1), _m010_var(3, 1), _m010_var(4, 1)
    coords["z4"] = ((one - t31) * (t21 - t41), (one - t41) * (t21 - t31))
    return coords


def m010_peripheral_polynomials():
    """Collision numerators cutting out the peripheral locus in the nine
    reduced coordinates: differences of all marked points (including the
    normalized 0, 1) under the inverse chart, plus the chart denominators
    (collision with infinity).  Vanishing loci, not irreducible factors."""
    coords = _m010_inverse_coordinates()
    names = ["x1", "y1", "x2", "y2", "x3", "y3", "z4"]
    zero = MultiPoly.zero(9)
    one = MultiPoly.constant(9, 1)
    out = []

    def add(p):
        p = p.strip_monomial_content().primitive_part()
        if not p.is_zero() and not p.is_constant() and p not in out:
            out.append(p)

    # pairwise collisions among the free marked points
    for i in range(len(names)):
        ni, di = coords[names[i]]
        for j in range(i + 1, len(names)):
            nj, dj = coords[names[j]]
            add(ni * dj - nj * di)
    # collisions with the normalized zeros at 0 and 1
    for nm in names:
        n, d = coords[nm]
        add(n)            # value 0
        add(n - d)        # value 1
    # collisions with infinity: the chart denominators
    for nm in names:
        add(coords[nm][1])
    return out


def m010_opposite_residue_conditions():
    """Numerators (in the nine t-variables) of the pulled-back conditions
    Res_{x_i} + Res_{y_i} = 0 for the one-form with simple zeros at
    0, 1, z4, infinity and poles x_i, y_i."""
    seven = ["x1", "y1", "x2", "y2", "x3", "y3", "z4"]
    v = {nm: MultiPoly.variable(7, i) for i, nm in enumerate(seven)}
    conds = opposite_residue_conditions(
        7, [v["x1"], v["y1"], v["x2"], v["y2"], v["x3"], v["y3"]],
        [(MultiPoly.constant(7, 0), 1), (MultiPoly.constant(7, 1), 1),
         (v["z4"], 1), ("inf", 1)], [(0, 1), (2, 3), (4, 5)])
    coords = _m010_inverse_coordinates()
    nums = [coords[nm][0] for nm in seven]
    dens = [coords[nm][1] for nm in seven]
    out = []
    for c in conds:
        pulled = c.substitute_rational(nums, dens)
        out.append(pulled.strip_monomial_content().primitive_part())
    return out


def m010_point_from_configuration(xy_pairs, z4):
    """Forward image in the nine coordinates of a configuration with three
    pole pairs and a fourth zero (z1=inf, z2=0, z3=1)."""
    vals = {}
    for j, (x, y) in enumerate(xy_pairs, start=1):
        x, y = Fraction(x), Fraction(y)
        vals[(2, j)] = x / y
        vals[(3, j)] = (1 - x) / (1 - y)
        vals[(4, j)] = (Fraction(z4) - x) / (Fraction(z4) - y)
    return [vals[(i, j)] for j in (1, 2, 3) for i in (2, 3, 4)]


# ---------------------------------------------------------------------------
# degeneration trees
# ---------------------------------------------------------------------------

@dataclass
class DecoratedTree:
    """Tree with marked points attached to vertices and twist counts on the
    edges.  Vertex labels use 'z1'.., 'x1'.., 'y1'..; every vertex must
    carry at least one zero."""
    vertex_labels: dict  # vertex id -> iterable of labels
    edges: list  # [(edge id, u, v)]
    twists: dict  # edge id -> d_e >= 0

    def __post_init__(self):
        self.vertex_labels = {v: set(ls) for v, ls in
                              self.vertex_labels.items()}
        if len(self.edges) != len(self.vertex_labels) - 1:
            raise InvalidTree("edge count must be vertex count - 1")
        from .flatnet import DualGraph
        try:
            self.graph = DualGraph(self.vertex_labels, self.edges)
        except ValueError as exc:
            raise InvalidTree(exc.args[0]) from exc
        for v, ls in self.vertex_labels.items():
            if not any(l.startswith("z") for l in ls):
                raise InvalidTree(f"vertex {v} carries no zero")
        if any(self.twists.get(eid, 0) < 0 for eid, _, _ in self.edges):
            raise InvalidTree("negative twist count")

    def vertex_of(self, label):
        for v, ls in self.vertex_labels.items():
            if label in ls:
                return v
        raise InvalidTree(f"label {label} not attached")


def degeneration_exponent(tree: DecoratedTree, zero_pair, pole_pair_index):
    """Exponent of the coordinate R_{abj} on the degenerating family encoded
    by the tree: sum twist(e) s1(e) s2(e) over the edges e shared by the
    tree paths z_a -> z_b and x_j -> y_j, with s1, s2 the two paths' signs
    on e.  The shared edges are the segment between the projections of x_j
    and y_j onto the z_a -> z_b path, and s1 s2 = +1 exactly when the two
    paths cross it in the same direction (the convention that reproduces
    the standard degeneration matrices)."""
    a, b = zero_pair
    j = pole_pair_index
    if a == b:
        raise InvalidTree("need two distinct zeros")
    g = tree.graph
    zpath = g.tree_path(tree.vertex_of(f"z{a}"), tree.vertex_of(f"z{b}"))
    xpath = g.tree_path(tree.vertex_of(f"x{j}"), tree.vertex_of(f"y{j}"))
    return sum(tree.twists.get(e, 0) * s * xpath[e]
               for e, s in zpath.items() if e in xpath)


def standard_degeneration_trees():
    """The three marked trees whose unit-twist exponent rows span all
    admissible degeneration directions for four simple zeros and three pole
    pairs, in the column order (R21, R31, R41, R22, R32, R42, R23, R33, R43).
    """
    tree_a = DecoratedTree(
        {1: {"z1", "x1", "x2"}, 2: {"z2", "x3"}, 3: {"z3", "y3"},
         4: {"z4", "y1", "y2"}},
        [(1, 1, 2), (2, 2, 3), (3, 3, 4)],
        {1: 0, 2: 0, 3: 0})
    tree_b = DecoratedTree(
        {1: {"z1", "x1", "x2"}, 2: {"z2", "x3"}, 3: {"z3", "y1"},
         4: {"z4", "y2", "y3"}},
        [(1, 1, 2), (2, 2, 3), (3, 3, 4)],
        {1: 0, 2: 0, 3: 0})
    tree_c = DecoratedTree(
        {0: {"z1"}, 1: {"z2", "y1", "x2"}, 2: {"z3", "x1", "y3"},
         3: {"z4", "y2", "x3"}},
        [(1, 0, 1), (2, 0, 2), (3, 0, 3)],
        {1: 0, 2: 0, 3: 0})
    return [tree_a, tree_b, tree_c]


def crossratio_m1():
    """Unit-twist exponent matrix M1 of the first standard tree (rows as
    `degeneration_matrix` returns them), as the paper prints it: the golden
    value `reproduce.DEGENERATION_MATRICES[0]`."""
    return _printed_matrix(0)


def crossratio_m2():
    """Unit-twist exponent matrix M2 of the second standard tree."""
    return _printed_matrix(1)


def crossratio_m3():
    """Unit-twist exponent matrix M3 of the third standard tree."""
    return _printed_matrix(2)


def _printed_matrix(k):
    from .reproduce import DEGENERATION_MATRICES
    return list(DEGENERATION_MATRICES[k])


def degeneration_matrix(tree: DecoratedTree):
    """Rows: unit twist on each edge in id order; columns as above.  The
    tree and its twists are left as they are."""
    units = [replace(tree, twists={e: 1}) for e, _, _ in sorted(tree.edges)]
    return [[degeneration_exponent(unit, (1, i), j)
             for j in (1, 2, 3) for i in (2, 3, 4)] for unit in units]
