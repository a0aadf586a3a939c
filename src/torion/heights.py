"""Absolute logarithmic Weil heights of rational data, Mahler-measure
heights of algebraic numbers, Dirichlet simultaneous approximation, and
multiplicative-relation detection in Q*.

Heights of rational tuples are exact: the height is log M for an explicit
positive integer M (the largest coordinate of the coprime integer
representative), and all comparisons happen on M itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import intlat
from .exactnum import AlgebraicReal, BudgetExceeded, UPoly, \
    cyclotomic_order, factorize, is_irreducible, Reducible

NUMERIC_ERROR_BOUND = 1e-12


class AllZeroProjective(ValueError):
    pass


class ZeroPolynomial(ValueError):
    pass


class ZeroInput(ValueError):
    pass


@dataclass(frozen=True)
class HeightValue:
    """Nonnegative height; 'exact-log' carries the integer whose log it is."""
    value: float
    exactness: str  # 'exact-log' | 'numeric'
    log_argument: int | None = None
    error: float = 0.0

    def __post_init__(self):
        if self.exactness not in ("exact-log", "numeric"):
            raise ValueError("bad exactness tag")
        if self.exactness == "numeric" and self.error > NUMERIC_ERROR_BOUND:
            raise ValueError("numeric error bound too large")

    @classmethod
    def exact_log(cls, m: int) -> "HeightValue":
        return cls(math.log(m), "exact-log", int(m))

    def __repr__(self):
        if self.exactness == "exact-log":
            return f"HeightValue(log {self.log_argument})"
        return f"HeightValue({self.value!r} +- {self.error:g})"


def coprime_integer_representative(coords):
    """Scale a rational tuple to coprime integers (projective representative)."""
    coords = [Fraction(c) for c in coords]
    if all(c == 0 for c in coords):
        raise AllZeroProjective("all coordinates vanish")
    return list(intlat.clear_denominators(coords))


def height_point(coords, mode: str = "affine") -> HeightValue:
    """Weil height of a rational point.

    affine: h(x) = sum_v log max(1, |x_1|_v, ..., |x_n|_v); equals the
    projective height of [1 : x_1 : ... : x_n].
    projective: scaling-invariant height of the coprime integer
    representative, log max |c_i|.
    """
    coords = [Fraction(c) for c in coords]
    if not coords:
        raise ValueError("empty point")
    if mode == "affine":
        ints = coprime_integer_representative([Fraction(1)] + coords)
    elif mode == "projective":
        ints = coprime_integer_representative(coords)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return HeightValue.exact_log(max(abs(x) for x in ints))


def height_poly(poly) -> HeightValue:
    """Projective height of the tuple of nonzero coefficients."""
    if poly.is_zero():
        raise ZeroPolynomial("zero polynomial has no height")
    coeffs = [poly.terms[e] for e in poly.support()]
    return height_point(coeffs, mode="projective")


def height_algebraic(min_poly: UPoly) -> HeightValue:
    """Height of an algebraic number via its minimal polynomial:
    h = (1/deg) log M(f) with M the Mahler measure.  Rational and
    root-of-unity cases come out exact; the rest is certified numeric."""
    if min_poly.degree < 1:
        raise ValueError("constant polynomial")
    if min_poly.degree > 6:
        raise ValueError("degree above 6 unsupported")
    if not is_irreducible(min_poly):
        raise Reducible(f"{min_poly} is reducible")
    d = min_poly.degree
    if d == 1:
        # root p/q: Mahler measure of qx - p is max(|p|, q)
        a0, a1 = min_poly.primitive_int_coeffs()
        return HeightValue.exact_log(max(abs(a0), abs(a1)))
    if cyclotomic_order(min_poly) is not None:
        return HeightValue.exact_log(1)
    import mpmath
    ints = min_poly.primitive_int_coeffs()
    with mpmath.workdps(60):
        roots, err = mpmath.polyroots([mpmath.mpf(c) for c in reversed(ints)],
                                      maxsteps=200, extraprec=200, error=True)
        measure = mpmath.mpf(abs(ints[-1]))
        for rt in roots:
            measure *= max(mpmath.mpf(1), abs(rt))
        h = mpmath.log(measure) / d
        # |log max(1,|z|)| is 1-Lipschitz in |z|; propagate the root error
        bound = float(d * err) if err > 0 else 1e-40
        value = float(h)
    if bound > NUMERIC_ERROR_BOUND:
        raise ArithmeticError("could not certify the requested accuracy")
    return HeightValue(value, "numeric", None, bound)


# ---------------------------------------------------------------------------
# place decompositions (rational local data; product formula)
# ---------------------------------------------------------------------------

@dataclass
class PlaceDecomposition:
    """Local data of a nonzero rational: finite exponents ord_p(x) and the
    archimedean magnitude |x|."""
    finite: dict
    archimedean: Fraction
    sign: int

    @classmethod
    def of(cls, x) -> "PlaceDecomposition":
        x = Fraction(x)
        if x == 0:
            raise ZeroInput("zero has no place decomposition")
        fin = {}
        for p, e in factorize(abs(x.numerator)).items():
            fin[p] = fin.get(p, 0) + e
        for p, e in factorize(x.denominator).items():
            fin[p] = fin.get(p, 0) - e
        return cls(dict(sorted(fin.items())), abs(x), 1 if x > 0 else -1)

    def reconstruct(self) -> Fraction:
        out = Fraction(self.sign)
        for p, e in self.finite.items():
            out *= Fraction(p) ** e
        return out

    def product_formula_holds(self) -> bool:
        """prod_v |x|_v = 1: |x|_p = p^(-ord_p), |x|_inf = archimedean."""
        prod = self.archimedean
        for p, e in self.finite.items():
            prod *= Fraction(p) ** (-e)
        return prod == 1


# ---------------------------------------------------------------------------
# Dirichlet simultaneous approximation
# ---------------------------------------------------------------------------

def _abs_leq(theta: AlgebraicReal, q: int, p: int, bound: Fraction) -> bool:
    """Decide |q*theta - p| <= bound exactly."""
    return theta.sign(UPoly([-p - bound, q])) <= 0 <= \
        theta.sign(UPoly([-p + bound, q]))


def _nearest_int(theta: AlgebraicReal, q: int) -> int:
    """Integer near q*theta; the caller rechecks both neighbors, so a
    moderately refined midpoint estimate suffices."""
    lo, hi = theta.interval(Fraction(1, 64 * q))
    x = q * (lo + hi) / 2
    fl = x.numerator // x.denominator
    return fl if x - fl <= Fraction(1, 2) else fl + 1


def dirichlet_approx(thetas, Q: int):
    """Smallest q with 1 <= q < Q^n and |q*theta_i - p_i| <= 1/Q for all i,
    with each p_i the least that works; exhaustive search (existence is
    Dirichlet's theorem).  A rational theta r is the root of x - r on
    (r - 1, r]."""
    if Q < 2:
        raise ValueError("Q must be at least 2")
    vals = []
    for t in thetas:
        if not isinstance(t, AlgebraicReal):
            t = Fraction(t)
            t = AlgebraicReal(UPoly([-t, 1]), t - 1, t)
        vals.append(t)
    n = len(vals)
    bound = Fraction(1, Q)
    for q in range(1, Q ** n):
        ps = []
        for v in vals:
            # every p with |q*v - p| <= 1/Q <= 1/2 is within 1 of the estimate
            p = _nearest_int(v, q)
            good = next((c for c in (p - 1, p, p + 1)
                         if _abs_leq(v, q, c, bound)), None)
            if good is None:
                break
            ps.append(good)
        else:
            return q, ps
    raise AssertionError("Dirichlet's theorem guarantees a solution")


# ---------------------------------------------------------------------------
# multiplicative relations among rationals
# ---------------------------------------------------------------------------

def _minimal_supnorm_in_lattice(basis, search_cap=4_000_000):
    """Minimal sup-norm nonzero vector in the row lattice of `basis`
    (exact box enumeration; ties broken lexicographically)."""
    from itertools import product as iproduct
    from .exactnum import RationalMatrix

    k = len(basis)
    n = len(basis[0])
    best = min((tuple(b) for b in basis),
               key=lambda v: (max(abs(x) for x in v), v))
    s0 = max(abs(x) for x in best)
    # coefficient box: any lattice vector v = c*B has c = v * pinv with
    # pinv = B^T (B B^T)^-1, so |c_j| <= supnorm(v) * column-abs-sum of pinv
    B = RationalMatrix([list(r) for r in basis])
    Bt = B.transpose()
    G = B * Bt
    pinv = Bt * G.inverse()  # n x k
    col_bounds = []
    for j in range(k):
        col_bounds.append(sum(abs(pinv.entries[i][j]) for i in range(n)))
    ranges = []
    total = 1
    for j in range(k):
        b = int(s0 * col_bounds[j]) + 1
        ranges.append(range(-b, b + 1))
        total *= 2 * b + 1
    if total > search_cap:
        raise BudgetExceeded(f"relation search space {total} too large")
    for cs in iproduct(*ranges):
        if not any(cs):
            continue
        v = tuple(sum(cs[j] * basis[j][i] for j in range(k)) for i in range(n))
        if not any(v):
            continue
        key = (max(abs(x) for x in v), v)
        if key < (max(abs(x) for x in best), best):
            best = v
    return best


def mult_relation(rs):
    """Primitive integer vector b of minimal sup-norm with r^b in {+1, -1},
    or None when only b = 0 works.  b lies in the integer kernel of the
    prime-exponent matrix of |r_i| (the sign is then automatically +-1)."""
    rs = [Fraction(r) for r in rs]
    if any(r == 0 for r in rs):
        raise ZeroInput("zero entry")
    n = len(rs)
    primes = set()
    decs = []
    for r in rs:
        d = PlaceDecomposition.of(r)
        decs.append(d)
        primes.update(d.finite)
    primes = sorted(primes)
    rows = [[decs[i].finite.get(p, 0) for i in range(n)] for p in primes]
    kernel = intlat.int_kernel(rows, n)
    if not kernel:
        return None
    best = _minimal_supnorm_in_lattice(kernel)
    return intlat.primitive_vector(best)


# ---------------------------------------------------------------------------
# Northcott enumeration
# ---------------------------------------------------------------------------

def enumerate_bounded(height_bound: float, arity: int, cap: int = 10 ** 7):
    """All rational n-tuples of affine height <= bound, lexicographic by
    value.  Coordinatewise, p/q must satisfy max(|p|, q) <= exp(bound)."""
    if height_bound < 0:
        raise ValueError("height bound must be nonnegative")
    m_max = int(math.floor(math.exp(height_bound) + 1e-9))
    coords = set()
    for q in range(1, m_max + 1):
        for p in range(-m_max, m_max + 1):
            if math.gcd(abs(p), q) == 1 and max(abs(p), q) <= m_max:
                coords.add(Fraction(p, q))
    coords = sorted(coords)
    if len(coords) ** arity > cap:
        raise BudgetExceeded(
            f"{len(coords) ** arity} candidate tuples exceed the cap {cap}")
    from itertools import product as iproduct
    out = []
    for tup in iproduct(coords, repeat=arity):
        ints = coprime_integer_representative([Fraction(1)] + list(tup))
        if max(abs(x) for x in ints) <= m_max:
            out.append(tup)
            if len(out) > cap:
                raise BudgetExceeded(f"more than {cap} tuples")
    return out
