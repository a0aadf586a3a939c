"""Cross-ratios on the projective line, residues and condition generators
for stable one-forms, torsion-configuration checks, and the degeneration
combinatorics of marked trees.

Projective points carry homogeneous 2-coordinates so infinity needs no
special case: all cross-ratios are ratios of 2x2 determinants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import Cyclotomic, NumberField, RationalMatrix, RootOfUnity, \
    UPoly, trace_dual_basis
from .multipoly import MultiPoly
from . import intlat

NUMERIC_CIRCLE_TOL = 1e-10


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

    INF = None  # set below

    def __init__(self, u, v=1):
        if isinstance(u, ProjPoint):
            u, v = u.u, u.v
        self.u = Fraction(u) if isinstance(u, (int, str)) else u
        self.v = Fraction(v) if isinstance(v, (int, str)) else v
        if self._is_zero(self.u) and self._is_zero(self.v):
            raise ValueError("(0 : 0) is not a projective point")

    @staticmethod
    def _is_zero(x):
        if isinstance(x, Fraction):
            return x == 0
        if hasattr(x, "is_zero"):
            return x.is_zero()
        return x == 0

    @classmethod
    def infinity(cls):
        return cls(1, 0)

    @classmethod
    def of(cls, value):
        if isinstance(value, ProjPoint):
            return value
        if isinstance(value, str) and value.strip() in ("inf", "oo"):
            return cls.infinity()
        if isinstance(value, str):
            return cls(Fraction(value))
        return cls(value)

    def is_infinity(self):
        return self._is_zero(self.v)

    def same_as(self, other):
        return self._is_zero(_det(self, other))

    def affine(self):
        if self.is_infinity():
            raise ValueError("infinite point")
        if isinstance(self.u, Fraction) and isinstance(self.v, Fraction):
            return self.u / self.v
        return self.u * _invert(self.v)

    def __repr__(self):
        return "inf" if self.is_infinity() else f"({self.u} : {self.v})"


ProjPoint.INF = ProjPoint(1, 0)


def _invert(x):
    if isinstance(x, Fraction):
        return Fraction(1) / x
    if hasattr(x, "inverse"):
        return x.inverse()
    return 1 / x


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
    if isinstance(num, Fraction) and isinstance(den, Fraction):
        return num / den
    return num * _invert(den)


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
    m_i, and a partition of the poles into parts of size >= 2 (collision
    classes of nodes)."""
    zeros: list  # [(ProjPoint, multiplicity)]
    poles: list  # [ProjPoint]
    pair_partition: list  # [[pole indices]]
    strict: bool = True

    def __post_init__(self):
        self.zeros = [(ProjPoint.of(z), int(m)) for z, m in self.zeros]
        self.poles = [ProjPoint.of(x) for x in self.poles]
        n = len(self.poles)
        if self.strict and sum(m for _, m in self.zeros) != n - 2:
            raise ValueError("zero orders must sum to (number of poles) - 2")
        seen = set()
        for part in self.pair_partition:
            if len(part) < 2:
                raise ValueError("partition parts need at least two poles")
            seen.update(part)
        if self.pair_partition and seen != set(range(n)):
            raise ValueError("partition must cover the poles")
        pts = [(z, f"zero{i}") for i, (z, _) in enumerate(self.zeros)] + \
              [(x, f"pole{i}") for i, x in enumerate(self.poles)]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i][0].same_as(pts[j][0]):
                    raise CoincidentMarkings(
                        f"{pts[i][1]} equals {pts[j][1]}")


def residues(cfg: StableFormConfig):
    """Exact residues of  prod (z - z_i)^{m_i} dz / prod (z - x_j)  at the
    poles (finite zeros contribute factors; a zero at infinity only lowers
    the numerator degree).  The residue theorem makes them sum to zero for
    every valid configuration."""
    for x in cfg.poles:
        if x.is_infinity():
            raise UnsupportedNormalization(
                "move poles away from infinity first")
    out = []
    for i, x in enumerate(cfg.poles):
        a = x.affine()
        num = None
        for z, m in cfg.zeros:
            if z.is_infinity():
                continue
            f = a - z.affine()
            fm = f ** m if not isinstance(f, Fraction) else f ** m
            num = fm if num is None else num * fm
        if num is None:
            num = Fraction(1)
        den = None
        for j, y in enumerate(cfg.poles):
            if j == i:
                continue
            d = a - y.affine()
            den = d if den is None else den * d
        out.append(num * _invert(den) if den is not None else num)
    return out


def zero_order_consistent(cfg: StableFormConfig) -> bool:
    """Cross-check of `residues`: the partial-fraction numerator
    sum_i r_i prod_{j != i} (z - x_j) must vanish to the declared order at
    every declared finite zero, and its degree must drop by the order of a
    zero at infinity.  Needs rational coordinates."""
    rs = residues(cfg)
    if not all(isinstance(r, Fraction) for r in rs):
        raise ValueError("zero-order check needs rational coordinates")
    n = len(cfg.poles)
    acc = [Fraction(0)] * n
    for i, r in enumerate(rs):
        prod = UPoly([1])
        for j, x in enumerate(cfg.poles):
            if j != i:
                prod = prod * UPoly([-x.affine(), 1])
        for k, c in enumerate(prod.coeffs):
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


def partition_residue_sums(cfg: StableFormConfig):
    rs = residues(cfg)
    return [sum(rs[i] for i in part) for part in cfg.pair_partition]


# ---------------------------------------------------------------------------
# symbolic condition generators
# ---------------------------------------------------------------------------

@dataclass
class SymbolicStableForm:
    """Symbolic configuration: poles and zero positions are polynomials in a
    declared variable ring, residues may be symbolic too (zero-order kind).
    `zero area` entries use 'inf' for a zero at infinity."""
    variables: list
    poles: list  # [MultiPoly]
    zeros: list = field(default_factory=list)  # [(MultiPoly | 'inf', mult)]
    pairs: list = field(default_factory=list)  # ordered pole-index pairs
    residue_symbols: list | None = None  # [MultiPoly], parallel to poles
    omit_redundant_pair: bool = False

    @property
    def n(self):
        return len(self.variables)


def _sym_const(cfgn, c):
    return MultiPoly.constant(cfgn, c)


def _numerator_poly_z(cfg: SymbolicStableForm):
    """Coefficients (in z) of the numerator N(z) = prod (z - z_i)^{m_i} as
    polynomials in the symbol ring."""
    n = cfg.n
    coeffs = [_sym_const(n, 1)]
    for z, m in cfg.zeros:
        if isinstance(z, str) and z == "inf":
            continue
        for _ in range(m):
            new = [_sym_const(n, 0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] = new[i + 1] + c
                new[i] = new[i] - c * z
            coeffs = new
    return coeffs


def _eval_poly_z(coeffs, point: MultiPoly):
    acc = _sym_const(point.n, 0)
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


def stable_form_conditions(kind: str, cfg: SymbolicStableForm):
    """Exact polynomial conditions for a symbolic stable form.

    kind 'opposite-residue': for each configured pair (i, j), the numerator
    of Res_i + Res_j; with residues of N(z) dz / prod(z - x_l) this is
    N(x_i) * prod_{l != i,j} (x_j - x_l)  -  N(x_j) * prod_{l != i,j} (x_i - x_l),
    cleared of numeric content.  The last pair is dropped when the
    configuration marks it redundant (residue theorem).

    kind 'zero-order': residues are the declared symbols and the conditions
    state that the numerator of  sum_i rho_i / (z - x_i)  vanishes to the
    prescribed orders at the configured zeros (0 and infinity supported).

    kind 'partition-residue-sum': per part, the numerator of the residue
    sum.
    """
    n = cfg.n
    if kind == "opposite-residue":
        N = _numerator_poly_z(cfg)
        conds = []
        pairs = list(cfg.pairs)
        if cfg.omit_redundant_pair and len(pairs) > 1:
            pairs = pairs[:-1]
        for (i, j) in pairs:
            xi, xj = cfg.poles[i], cfg.poles[j]
            Ai = _sym_const(n, 1)
            Aj = _sym_const(n, 1)
            for l, xl in enumerate(cfg.poles):
                if l in (i, j):
                    continue
                Ai = Ai * (xi - xl)
                Aj = Aj * (xj - xl)
            cond = _eval_poly_z(N, xi) * Aj - _eval_poly_z(N, xj) * Ai
            conds.append(cond.primitive_part())
        return conds
    if kind == "zero-order":
        if cfg.residue_symbols is None:
            raise UnsupportedNormalization("zero-order needs residue symbols")
        # numerator of sum rho_i / (z - x_i): sum rho_i prod_{l != i}(z - x_l)
        npoles = len(cfg.poles)
        coeffs = [_sym_const(n, 0)] * npoles
        for i, rho in enumerate(cfg.residue_symbols):
            prod = [_sym_const(n, 1)]
            for l, xl in enumerate(cfg.poles):
                if l == i:
                    continue
                new = [_sym_const(n, 0)] * (len(prod) + 1)
                for t, c in enumerate(prod):
                    new[t + 1] = new[t + 1] + c
                    new[t] = new[t] - c * xl
                prod = new
            for t in range(len(prod)):
                coeffs[t] = coeffs[t] + rho * prod[t]
        conds = []
        for z, m in cfg.zeros:
            if isinstance(z, str) and z == "inf":
                # order m at infinity: top coefficients vanish down to
                # degree (npoles - 2 - m); the very top may vanish identically
                for t in range(npoles - 1 - m, npoles):
                    if t < len(coeffs) and not coeffs[t].is_zero():
                        conds.append(coeffs[t])
            else:
                if not (isinstance(z, MultiPoly) and z.is_zero()) and \
                        not (isinstance(z, (int, Fraction)) and z == 0):
                    raise UnsupportedNormalization(
                        "finite zero-order conditions are implemented at 0")
                for t in range(m):
                    if not coeffs[t].is_zero():
                        conds.append(coeffs[t])
        out = []
        for c in conds:
            c = c.strip_monomial_content().primitive_part()
            lead = max(c.terms, key=lambda e: (sum(e), e))
            if c.terms[lead] < 0:
                c = -c
            if c not in out:
                out.append(c)
        return out
    if kind == "partition-residue-sum":
        # numerator of  sum_{i in part} N(x_i) / prod_{l != i} (x_i - x_l)
        # over the common denominator prod_{i in part} prod_{l != i}(x_i-x_l)
        N = _numerator_poly_z(cfg)

        def pole_denominator(i):
            out = _sym_const(n, 1)
            for l, xl in enumerate(cfg.poles):
                if l != i:
                    out = out * (cfg.poles[i] - xl)
            return out

        conds = []
        for part in cfg.pairs:
            total = _sym_const(n, 0)
            for i in part:
                term = _eval_poly_z(N, cfg.poles[i])
                for i2 in part:
                    if i2 != i:
                        term = term * pole_denominator(i2)
                total = total + term
            conds.append(total.primitive_part())
        return conds
    raise UnsupportedNormalization(f"unknown kind {kind!r}")


# canned normalizations -------------------------------------------------------

def odd4_stability_conditions():
    """Opposite-residue conditions for the one-zero normalization with the
    third pole pair frozen at (1, -1): the two quartic stability polynomials
    (the third pair is redundant by the residue theorem)."""
    variables = ["x1", "y1", "x2", "y2"]
    v = {nm: MultiPoly.variable(4, i) for i, nm in enumerate(variables)}
    one = MultiPoly.constant(4, 1)
    cfg = SymbolicStableForm(
        variables=variables,
        poles=[v["x1"], v["y1"], v["x2"], v["y2"], one, -one],
        zeros=[("inf", 4)],
        pairs=[(0, 1), (2, 3), (4, 5)],
        omit_redundant_pair=True,
    )
    return stable_form_conditions("opposite-residue", cfg)


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
    cfg = SymbolicStableForm(
        variables=variables,
        poles=[x[0], -x[0], x[1], -x[1], x[2], -x[2]],
        zeros=[(MultiPoly.constant(6, 0), 4), ("inf", 0)],
        pairs=[(0, 1), (2, 3), (4, 5)],
        residue_symbols=[r[0], -r[0], r[1], -r[1], r[2], -r[2]],
    )
    return variables, stable_form_conditions("zero-order", cfg)


def s22_opposite_residue_conditions():
    """Opposite-residue conditions D_k for the two-double-zero normalization
    with y_k = zeta_k x_k (zeros at 0 and infinity, both double); the
    zeta_k are adjoined as polynomial variables."""
    variables = ["x1", "x2", "x3", "z1", "z2", "z3"]
    x = [MultiPoly.variable(6, i) for i in range(3)]
    z = [MultiPoly.variable(6, i + 3) for i in range(3)]
    cfg = SymbolicStableForm(
        variables=variables,
        poles=[x[0], x[1], x[2], z[0] * x[0], z[1] * x[1], z[2] * x[2]],
        zeros=[(MultiPoly.constant(6, 0), 2), ("inf", 2)],
        pairs=[(3, 0), (4, 1), (5, 2)],
    )
    conds = stable_form_conditions("opposite-residue", cfg)
    return variables, [c.strip_monomial_content() for c in conds]


def residue21_condition():
    """Type (5; 2, 1) opposite-residue instance: poles u_1, u_2, u_3, x_1 and
    zeta*x_1, zeros of order 2 at 0 and 1 at infinity; the condition is the
    cubic-in-x_1 constraint that the paired residues cancel."""
    variables = ["x1", "zeta", "u1", "u2", "u3"]
    x1 = MultiPoly.variable(5, 0)
    ze = MultiPoly.variable(5, 1)
    us = [MultiPoly.variable(5, i + 2) for i in range(3)]
    cfg = SymbolicStableForm(
        variables=variables,
        poles=[ze * x1, x1, us[0], us[1], us[2]],
        zeros=[(MultiPoly.constant(5, 0), 2), ("inf", 1)],
        pairs=[(0, 1)],
    )
    conds = stable_form_conditions("opposite-residue", cfg)
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
    cfg = SymbolicStableForm(
        variables=variables,
        poles=z,
        zeros=[(MultiPoly.constant(6, 0), 1), ("inf", 1)],
        pairs=[],
        residue_symbols=[r[0], r[1], r[2], r4],
    )
    return variables, stable_form_conditions("zero-order", cfg)


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
    m = RationalMatrix([[p.coords[i] for p in prods] for i in range(3)])
    ker = m.kernel()
    if not ker:
        return None
    b = intlat.primitive_vector(intlat.clear_denominators(ker[0]))
    return b


def check_cre(pairs, exponents):
    """Evaluate R_1^a1 R_2^a2 R_3^a3 with R_k the cross-ratio of the two
    complementary pole pairs: R_k = [x_i, y_i, x_j, y_j] for {i,j,k} =
    {1,2,3}.  Returns (value, verdict) where the verdict states root-of-
    unity membership: exact for +-1 or cyclotomic values, otherwise a
    numeric unit-circle test at 1e-10."""
    if len(pairs) != 3 or len(exponents) != 3:
        raise ValueError("three pairs and three exponents expected")
    if all(e == 0 for e in exponents):
        raise ValueError("exponents must not all vanish")
    Rs = []
    for k in range(3):
        i, j = [t for t in range(3) if t != k]
        (xi, yi), (xj, yj) = pairs[i], pairs[j]
        Rs.append(cross_ratio(xi, yi, xj, yj))
    value = None
    for R, a in zip(Rs, exponents):
        if a == 0:
            continue
        f = R ** a if a > 0 else _invert(R) ** (-a)
        value = f if value is None else value * f
    verdict = _root_of_unity_verdict(value)
    return value, verdict


def _root_of_unity_verdict(value):
    """('exact', order) / ('numeric', None) / (None, None)."""
    if isinstance(value, Fraction):
        if value == 1:
            return ("exact", 1)
        if value == -1:
            return ("exact", 2)
        return (None, None)
    if isinstance(value, Cyclotomic):
        ok, order = value.is_root_of_unity()
        return ("exact", order) if ok else (None, None)
    z = complex(value)
    if abs(abs(z) - 1) <= NUMERIC_CIRCLE_TOL:
        return ("numeric", None)
    return (None, None)


def torsion_config_check(cfg: StableFormConfig, fld, N: int):
    """Checks of the determined-by-torsion conditions:
    i) per-part residue sums vanish;
    ii) residue ratios span a Q-space of dimension n - (number of parts)
        and are real (conjugation-invariant) where that is decidable;
    iii) every cross-ratio [z_a, z_b, x_i1, x_i2] with i1, i2 in one part is
        a root of unity of order dividing N (exact for cyclotomic values,
        numeric on the unit circle otherwise).
    Returns ('satisfies', details) or ('violates', condition_id)."""
    rs = residues(cfg)
    n = len(cfg.poles)
    for part, s in zip(cfg.pair_partition, partition_residue_sums(cfg)):
        if not _value_is_zero(s):
            return ("violates", "i")
    ratios = [r * _invert(rs[0]) for r in rs]
    dim = _q_span_dimension(ratios)
    if dim != n - len(cfg.pair_partition):
        return ("violates", "ii")
    for r in ratios:
        if isinstance(r, Cyclotomic) and not r.is_real():
            return ("violates", "ii")
    for part in cfg.pair_partition:
        for a in range(len(cfg.zeros)):
            for b in range(len(cfg.zeros)):
                if a == b:
                    continue
                for t1 in range(len(part)):
                    for t2 in range(t1 + 1, len(part)):
                        val = cross_ratio(cfg.zeros[a][0], cfg.zeros[b][0],
                                          cfg.poles[part[t1]],
                                          cfg.poles[part[t2]])
                        grade, order = _root_of_unity_verdict(val)
                        if grade is None:
                            return ("violates", "iii")
                        if grade == "exact" and N % order != 0:
                            return ("violates", "iii")
    return ("satisfies", None)


def _value_is_zero(x):
    if isinstance(x, Fraction):
        return x == 0
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


def _q_span_dimension(values):
    """Dimension of the Q-span of scalars that are Fractions, field
    elements, or cyclotomic numbers (coordinates over a common basis)."""
    rows = []
    order = 1
    for v in values:
        if isinstance(v, Cyclotomic):
            order = order * v.order // math.gcd(order, v.order)
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
        if out[(2, j)] == out[(3, j)]:
            raise DomainViolation("R_2j = R_3j collapses the pair")
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


def crmin_transform(direction: str, data):
    if direction == "forward":
        xy_pairs, extra = data
        return crmin_forward(xy_pairs, extra)
    if direction == "inverse":
        values, n_pairs, n_extra = data
        return crmin_inverse(values, n_pairs, n_extra)
    raise ValueError("direction must be 'forward' or 'inverse'")


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
    cfg = SymbolicStableForm(
        variables=seven,
        poles=[v["x1"], v["y1"], v["x2"], v["y2"], v["x3"], v["y3"]],
        zeros=[(MultiPoly.constant(7, 0), 1), (MultiPoly.constant(7, 1), 1),
               (v["z4"], 1), ("inf", 1)],
        pairs=[(0, 1), (2, 3), (4, 5)],
    )
    conds = stable_form_conditions("opposite-residue", cfg)
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
        vs = set(self.vertex_labels)
        if len(self.edges) != len(vs) - 1:
            raise InvalidTree("edge count must be vertex count - 1")
        adj = {v: [] for v in vs}
        for eid, u, v in self.edges:
            if u not in vs or v not in vs:
                raise InvalidTree("edge endpoint missing")
            adj[u].append((eid, v))
            adj[v].append((eid, u))
        seen = {next(iter(vs))}
        stack = [next(iter(vs))]
        while stack:
            u = stack.pop()
            for _, w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != vs:
            raise InvalidTree("graph is not connected")
        for v, ls in self.vertex_labels.items():
            if not any(l.startswith("z") for l in ls):
                raise InvalidTree(f"vertex {v} carries no zero")
        if any(self.twists.get(eid, 0) < 0 for eid, _, _ in self.edges):
            raise InvalidTree("negative twist count")
        self._adj = adj

    def vertex_of(self, label):
        for v, ls in self.vertex_labels.items():
            if label in ls:
                return v
        raise InvalidTree(f"label {label} not attached")

    def path(self, a, b):
        """Vertex path from a to b (unique in a tree)."""
        prev = {a: None}
        stack = [a]
        while stack:
            u = stack.pop()
            if u == b:
                break
            for eid, w in self._adj[u]:
                if w not in prev:
                    prev[w] = (u, eid)
                    stack.append(w)
        path = [b]
        edges = []
        u = b
        while prev[u] is not None:
            p, eid = prev[u]
            edges.append(eid)
            path.append(p)
            u = p
        return list(reversed(path)), list(reversed(edges))


def degeneration_exponent(tree: DecoratedTree, zero_pair, pole_pair_index):
    """Exponent of the coordinate R_{abj} on the degenerating family encoded
    by the tree: the signed sum of the twist counts over the overlap of the
    pole-pair path with the (z_a -> z_b) segment.  The sign is positive when
    the oriented segment from the projection of x_j to the projection of
    y_j agrees with the z_a -> z_b orientation (the convention that
    reproduces the standard degeneration matrices)."""
    a, b = zero_pair
    j = pole_pair_index
    if a == b:
        raise InvalidTree("need two distinct zeros")
    za, zb = tree.vertex_of(f"z{a}"), tree.vertex_of(f"z{b}")
    path, edges = tree.path(za, zb)
    pos = {v: i for i, v in enumerate(path)}
    xv, yv = tree.vertex_of(f"x{j}"), tree.vertex_of(f"y{j}")

    def project(v):
        # nearest vertex of the path in the tree metric
        p, _ = tree.path(v, za)
        for u in p:
            if u in pos:
                return u
        raise InvalidTree("projection failed")

    px, py = pos[project(xv)], pos[project(yv)]
    if px == py:
        return 0
    lo, hi = min(px, py), max(px, py)
    total = sum(tree.twists.get(edges[i], 0) for i in range(lo, hi))
    return total if px < py else -total


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
    """Unit-twist exponent matrix of the first standard tree (rows as
    `degeneration_matrix` returns them)."""
    return [(1, 1, 1, 1, 1, 1, 0, 0, 0), (0, 1, 1, 0, 1, 1, 0, 1, 1),
            (0, 0, 1, 0, 0, 1, 0, 0, 0)]


def crossratio_m2():
    """Unit-twist exponent matrix of the second standard tree."""
    return [(1, 1, 1, 1, 1, 1, 0, 0, 0), (0, 1, 1, 0, 1, 1, 0, 1, 1),
            (0, 0, 0, 0, 0, 1, 0, 0, 1)]


def crossratio_m3():
    """Unit-twist exponent matrix of the third standard tree."""
    return [(1, 0, 0, -1, 0, 0, 0, 0, 0), (0, -1, 0, 0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 1, 0, 0, -1)]


def degeneration_matrix(tree: DecoratedTree):
    """Rows: unit twist on each edge in id order; columns as above."""
    rows = []
    for eid, _, _ in sorted(tree.edges):
        tree.twists = {e: (1 if e == eid else 0) for e, _, _ in tree.edges}
        rows.append([degeneration_exponent(tree, (1, i), j)
                     for j in (1, 2, 3) for i in (2, 3, 4)])
    tree.twists = {e: 0 for e, _, _ in tree.edges}
    return rows
