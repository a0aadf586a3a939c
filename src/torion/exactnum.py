"""Exact scalar arithmetic: rationals, univariate polynomials over Q, small
number fields with Sturm-based real root isolation, roots of unity and
cyclotomic numbers, and rational matrices.

Rationals are `fractions.Fraction` throughout; it already enforces the
canonical form (reduced, positive denominator).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from . import intlat


class Reducible(ValueError):
    pass


class DegreeOutOfRange(ValueError):
    pass


class DependentBasis(ValueError):
    pass


class NotSquare(ValueError):
    pass


class NotIrreducible(ValueError):
    pass


class NotQuartic(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """A search ran past its explicit cap (flatnet, heights)."""


def rational(text) -> Fraction:
    """Parse 'p/q' or 'p' into a Fraction (an int or a Fraction is taken as
    it is); malformed text and a zero denominator both raise ValueError."""
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"{text!r} is not a rational number") from None


# ---------------------------------------------------------------------------
# univariate polynomials over Q: coefficient tuples, low degree first
# ---------------------------------------------------------------------------

def _horner(coeffs, x):
    """The polynomial with coefficients `coeffs`, low degree first, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class UPoly:
    """Dense univariate polynomial over Q. Immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        return _horner(self.coeffs, x)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return UPoly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UPoly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return UPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        d = other.degree
        lc = other.coeffs[-1]
        while len(r) - 1 >= d and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            f = r[-1] / lc
            q[len(r) - 1 - d] = f
            for i in range(d + 1):
                r[len(r) - 1 - d + i] -= f * other.coeffs[i]
            r.pop()
        return UPoly(q), UPoly(r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def derivative(self):
        return UPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        if self.is_zero():
            return self
        lc = self.coeffs[-1]
        return UPoly([c / lc for c in self.coeffs])

    def primitive_int_coeffs(self):
        """Scale to coprime integer coefficients with positive leading one."""
        if self.is_zero():
            return (0,)
        ints = intlat.clear_denominators(self.coeffs)
        return tuple(-c for c in ints) if ints[-1] < 0 else ints

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    parts.append(xs)
                elif c == -1:
                    parts.append(f"-{xs}")
                else:
                    parts.append(f"{c}*{xs}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def upoly_gcd(a: UPoly, b: UPoly) -> UPoly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def squarefree_part(p: UPoly) -> UPoly:
    g = upoly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    return (p // g).monic()


# ---------------------------------------------------------------------------
# Sturm sequences and real root isolation
# ---------------------------------------------------------------------------

def sturm_sequence(p: UPoly):
    seq = [p, p.derivative()]
    while not seq[-1].is_zero() and seq[-1].degree > 0:
        seq.append(-(seq[-2] % seq[-1]))
    if seq[-1].is_zero():
        seq.pop()
    return seq


def _sign_changes(seq, x):
    signs = []
    for q in seq:
        v = q(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: UPoly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in (lo, hi]; p must be squarefree for exactness."""
    seq = sturm_sequence(p)
    return _sign_changes(seq, lo) - _sign_changes(seq, hi)


def root_bound(p: UPoly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lc = abs(p.coeffs[-1])
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m / lc


def isolate_real_roots(p: UPoly):
    """Disjoint rational intervals (lo, hi], one distinct real root each."""
    p = squarefree_part(p)
    if p.degree <= 0:
        return []
    seq = sturm_sequence(p)
    B = root_bound(p)
    out = []

    def rec(lo, hi, n):
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if p(mid) == 0:
            # nudge the split point so roots stay interior to half-open intervals
            mid = (lo + mid) / 2
        nl = _sign_changes(seq, lo) - _sign_changes(seq, mid)
        rec(lo, mid, nl)
        rec(mid, hi, n - nl)

    total = count_real_roots(p, -B, B)
    rec(-B, B, total)
    return out


class AlgebraicReal:
    """A real root of a rational polynomial, known by an isolating interval
    (lo, hi] that halves on demand."""

    def __init__(self, min_poly: UPoly, lo, hi):
        self.poly = squarefree_part(min_poly)
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if count_real_roots(self.poly, self.lo, self.hi) != 1:
            raise ValueError("interval does not isolate a single root")

    def _halve(self):
        """Keep the half of (lo, hi] that holds the root.  The test uses hi,
        which lies in the interval: lo may be another root of the poly."""
        mid = (self.lo + self.hi) / 2
        at_hi, at_mid = self.poly(self.hi), self.poly(mid)
        if at_hi and (at_mid == 0 or (at_mid > 0) == (at_hi > 0)):
            self.hi = mid
        else:
            self.lo = mid

    def interval(self, width) -> tuple[Fraction, Fraction]:
        while self.hi - self.lo > width:
            self._halve()
        return self.lo, self.hi

    def sign(self, g: UPoly) -> int:
        """Exact sign of g at this root: 0 when gcd(poly, g) has a root in
        (lo, hi]; otherwise halve until g has no root there, and g keeps
        the sign it has at hi (Basu-Pollack-Roy, ch. 10)."""
        if count_real_roots(upoly_gcd(self.poly, g), self.lo, self.hi):
            return 0
        seq = sturm_sequence(squarefree_part(g))
        while _sign_changes(seq, self.lo) != _sign_changes(seq, self.hi):
            self._halve()
        return 1 if g(self.hi) > 0 else -1

    def __float__(self):
        lo, hi = self.interval(Fraction(1, 10 ** 17))
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"AlgebraicReal({self.poly!r} in ({self.lo}, {self.hi}])"


# ---------------------------------------------------------------------------
# integer factorization
# ---------------------------------------------------------------------------

def factorize(n: int):
    """{prime: exponent} of a positive integer (trial division, then
    deterministic Miller-Rabin / Pollard rho for large leftovers)."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 100_000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += inc[i % 8]
        i += 1
    if n > 1:
        for q in _factor_large(n):
            out[q] = out.get(q, 0) + 1
    return out


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor_large(n: int):
    if n == 1:
        return []
    if _is_probable_prime(n):
        return [n]
    # Pollard rho with deterministic restarts
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return sorted(_factor_large(d) + _factor_large(n // d))
        c += 1


def _divisors(n):
    """The positive divisors of a nonzero integer, ascending."""
    out = [1]
    for p, e in factorize(abs(n)).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


# ---------------------------------------------------------------------------
# rational roots and irreducibility over Q
# ---------------------------------------------------------------------------

def rational_roots(p: UPoly):
    """All rational roots, via the rational root theorem on the primitive part."""
    ints = p.primitive_int_coeffs()
    while ints and ints[0] == 0:
        return [Fraction(0)] + rational_roots(UPoly(ints[1:]))
    if len(ints) <= 1:
        return []
    roots = []
    for q in _divisors(ints[-1]):
        for pn in _divisors(ints[0]):
            for cand in (Fraction(pn, q), Fraction(-pn, q)):
                if p(cand) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


def _factor_of_degree(f: UPoly, m: int):
    """A factor of degree m of the primitive integer polynomial f, or None,
    by Kronecker's search (von zur Gathen-Gerhard, Modern Computer Algebra,
    sec. 15; Knuth, TAOCP vol. 2, sec. 4.6.2).

    By Gauss's lemma a factor g may be taken in Z[x]: at an integer node k
    g(k) divides f(k), the divided differences of g at integer nodes are
    integers, and lc(g) divides lc(f).  The nodes are the m + 1 points of
    -(d+m)..d+m with f(k) != 0 whose values have the fewest divisors.  One
    signed divisor per node is chosen depth-first, the first one positive
    (g and -g are one factor), and a choice is dropped at its first
    divided difference that is not an integer.  A full choice's last
    Newton coefficient is lc(g); the Newton interpolant is built by Horner
    and kept if g(k) divides f(k) at every node of -(d+m)..d+m and g
    divides f."""
    d = f.degree
    values = {k: int(f(k)) for k in range(-(d + m), d + m + 1)}
    divisors = {k: _divisors(v) for k, v in values.items() if v}
    nodes = sorted(divisors, key=lambda k: (len(divisors[k]), abs(k)))[:m + 1]
    lc = int(f.coeffs[-1])

    def search(newton, diagonal):
        # diagonal: the divided differences ending at the last node chosen
        j = len(newton)
        k = nodes[j]
        signs = (1, -1) if j else (1,)
        for value in (s * v for v in divisors[k] for s in signs):
            row = [value]
            for i in range(1, j + 1):
                q, r = divmod(row[-1] - diagonal[i - 1], k - nodes[j - i])
                if r:
                    break
                row.append(q)
            else:
                if j < m:
                    g = search(newton + [row[-1]], row)
                    if g is not None:
                        return g
                elif row[-1] and lc % row[-1] == 0:
                    g = [row[-1]]
                    for a, node in zip(reversed(newton), reversed(nodes[:m])):
                        # g * (x - node) + a
                        g = [hi - node * lo for hi, lo in zip([0] + g, g + [0])]
                        g[0] += a
                    # g(k) | f(k) at every node (g(k) = 0 only where
                    # f(k) = 0): an integer test before the division over Q
                    if all(v % gk == 0 if (gk := _horner(g, k)) else not v
                           for k, v in values.items()):
                        g = UPoly(g)
                        if (f % g).is_zero():
                            return g
        return None

    return search([], [])


def is_irreducible(p: UPoly) -> bool:
    """Irreducibility over Q: the primitive integer polynomial has no factor
    of degree 1..deg/2."""
    if p.degree <= 0:
        return False
    f = UPoly(p.primitive_int_coeffs())
    return all(_factor_of_degree(f, m) is None
               for m in range(1, f.degree // 2 + 1))


# ---------------------------------------------------------------------------
# number fields of degree 2..6
# ---------------------------------------------------------------------------

class _Residue:
    """An element of Q[x]/(m) by its coordinates in the power basis 1, x,
    ..., x^(d-1): the arithmetic `FieldElement` and `Cyclotomic` share.  A
    subclass supplies the modulus m (`_modulus`), an element of its own ring
    from coordinates (`_new`, which pads them to length d), and its coercion
    (`_pair`: both operands as elements of one ring, or (None, None) for an
    operand it does not take)."""

    __slots__ = ()

    def _coordwise(self, other, op):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a._new([op(x, y) for x, y in zip(a.coords, b.coords)])

    def __add__(self, other):
        return self._coordwise(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._coordwise(other, operator.sub)

    def __rsub__(self, other):
        return self._coordwise(other, lambda x, y: y - x)

    def __neg__(self):
        return self._new([-c for c in self.coords])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._new([c * other for c in self.coords])
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a._new((UPoly(a.coords) * UPoly(b.coords)
                       % a._modulus()).coeffs)

    __rmul__ = __mul__

    def inverse(self):
        """The first column of the inverse of the multiplication matrix,
        which is the multiplication matrix of the inverse."""
        try:
            inv = self.mult_matrix().inverse()
        except ZeroDivisionError:
            raise ZeroDivisionError("inverse of zero") from None
        return self._new([row[0] for row in inv.entries])

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        """By repeated squaring; a negative k inverts first."""
        base, out = self, self._new([1])
        if k < 0:
            base, k = base.inverse(), -k
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a.coords == b.coords

    def __hash__(self):
        # a rational element equals its Fraction, in any ring
        return hash(self.coords[0]) if self.is_rational() else \
            hash(self.coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def mult_matrix(self) -> "RationalMatrix":
        return _mult_matrix(UPoly(self.coords), self._modulus())


def _mult_matrix(a: UPoly, m: UPoly) -> "RationalMatrix":
    """The matrix of multiplication by a mod m on Q[x]/(m) in the power
    basis 1, x, ..., x^(d-1): column j holds the coordinates of a * x^j.
    Its inverse, trace and determinant are those of a in the algebra
    (Cohen, A Course in Computational Algebraic Number Theory, sec. 4.3)."""
    d = m.degree
    cols = []
    cur = a % m
    for _ in range(d):
        cols.append(cur.coeffs + (0,) * (d - len(cur.coeffs)))
        cur = (cur * UPoly([0, 1])) % m
    return RationalMatrix(list(zip(*cols)))


class NumberField:
    """Q[x]/(min_poly) with its real roots as `AlgebraicReal`s; min_poly
    monic irreducible."""

    def __init__(self, min_poly: UPoly):
        min_poly = min_poly.monic()
        d = min_poly.degree
        if not 2 <= d <= 6:
            raise DegreeOutOfRange(f"degree {d} outside 2..6")
        if not is_irreducible(min_poly):
            raise Reducible(f"{min_poly} factors over Q")
        self.min_poly = min_poly
        self.degree = d
        self.real_roots = [AlgebraicReal(min_poly, lo, hi)
                           for lo, hi in isolate_real_roots(min_poly)]
        self.totally_real = len(self.real_roots) == d

    def element(self, coords) -> "FieldElement":
        cs = [Fraction(x) for x in coords]
        if len(cs) > self.degree:
            raise ValueError("too many coordinates")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def generator(self) -> "FieldElement":
        return self.element([0, 1])

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def __repr__(self):
        return f"NumberField({self.min_poly!r})"


class FieldElement(_Residue):
    """An element of a `NumberField`; it combines with elements of the same
    field and with rationals."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)
        assert len(self.coords) == field.degree

    def _modulus(self):
        return self.field.min_poly

    def _new(self, coords):
        return self.field.element(coords)

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            return self, self._new([other])
        if isinstance(other, FieldElement) and other.field is self.field:
            return self, other
        return None, None

    def trace(self) -> Fraction:
        """The trace of the multiplication matrix."""
        m = self.mult_matrix().entries
        return sum((m[i][i] for i in range(len(m))), Fraction(0))

    def embedding_interval(self, root_index: int, width) -> tuple[Fraction, Fraction]:
        """Rational interval of width <= `width` around the image of this
        element under the real embedding sending the generator to root
        `root_index` (interval arithmetic on Horner evaluation)."""
        root = self.field.real_roots[root_index]
        w = Fraction(width)
        lo, hi = root.lo, root.hi
        while True:
            vlo, vhi = Fraction(0), Fraction(0)
            for c in reversed(self.coords):
                cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
                vlo, vhi = min(cands) + c, max(cands) + c
            if vhi - vlo <= w:
                return vlo, vhi
            lo, hi = root.interval((hi - lo) / 4)

    def compare_embedding(self, other, root_index: int) -> int:
        """Exact sign of (self - other) under the chosen real embedding."""
        return self.field.real_roots[root_index].sign(
            UPoly((self - other).coords))

    def __repr__(self):
        return f"FieldElement{self.coords}"


def number_field(min_poly: UPoly) -> NumberField:
    return NumberField(min_poly)


def trace_dual_basis(field: NumberField, basis):
    """Basis (s_i) with Tr(r_i s_j) = delta_ij, via the trace Gram matrix."""
    d = field.degree
    if len(basis) != d:
        raise DependentBasis(f"need {d} elements")
    coord_m = RationalMatrix([list(b.coords) for b in basis])
    if coord_m.rank() != d:
        raise DependentBasis("basis is linearly dependent over Q")
    gram = RationalMatrix([[(basis[i] * basis[j]).trace() for j in range(d)]
                           for i in range(d)])
    ginv = gram.inverse()
    out = []
    for j in range(d):
        s = field.zero()
        for k in range(d):
            s = s + basis[k] * ginv.entries[j][k]
        out.append(s)
    return out


def min_poly_of(element: FieldElement | Cyclotomic) -> UPoly:
    """Monic minimal polynomial via the characteristic polynomial of the
    multiplication matrix, reduced to its squarefree part."""
    cp = char_poly(element.mult_matrix())
    return squarefree_part(cp)


# ---------------------------------------------------------------------------
# roots of unity and cyclotomic numbers (orders <= 24)
# ---------------------------------------------------------------------------

CYCLOTOMIC_MAX_ORDER = 24


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> UPoly:
    """Phi_n as an exact integer polynomial."""
    p = UPoly([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            p = p // cyclotomic_polynomial(d)
    return p


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def cyclotomic_order(p: UPoly) -> int | None:
    """The m with p a rational multiple of Phi_m, else None.  By Kronecker,
    an algebraic number is a root of unity of order m exactly when its
    minimal polynomial is Phi_m.  Since phi(m) >= sqrt(m/2), only
    m <= 2 deg(p)^2 can match."""
    d = p.degree
    if d < 1:
        return None
    q = p.monic()
    for m in range(1, 2 * d * d + 1):
        if euler_phi(m) == d and cyclotomic_polynomial(m) == q:
            return m
    return None


class Cyclotomic(_Residue):
    """Element of Q(zeta_N) in the power basis modulo Phi_N; N <= 24.  Two
    operands of different orders are both lifted to the lcm order, or,
    when that exceeds 24, to the lcm of their least orders."""

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords):
        if order > CYCLOTOMIC_MAX_ORDER:
            raise ValueError(f"cyclotomic order {order} exceeds "
                             f"{CYCLOTOMIC_MAX_ORDER}")
        d = euler_phi(order)
        cs = [Fraction(c) for c in coords]
        cs += [Fraction(0)] * (d - len(cs))
        self.order = order
        self.coords = tuple(cs[:d])

    @classmethod
    def from_rational(cls, x, order=1):
        return cls(order, [Fraction(x)])

    @classmethod
    def root_of_unity(cls, n: int, k: int = 1):
        k %= n
        phi = cyclotomic_polynomial(n)
        xk = UPoly([0] * k + [1]) % phi
        return cls(n, xk.coeffs)

    def _modulus(self):
        return cyclotomic_polynomial(self.order)

    def _new(self, coords):
        return Cyclotomic(self.order, coords)

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            return self, self._new([other])
        if not isinstance(other, Cyclotomic):
            return None, None
        n = math.lcm(self.order, other.order)
        if n > CYCLOTOMIC_MAX_ORDER:
            # both may lie in a smaller field: lift their least forms
            self, other = (Cyclotomic(*x._least_order())
                           for x in (self, other))
            n = math.lcm(self.order, other.order)
        return self.change_order(n), other.change_order(n)

    def change_order(self, n: int) -> "Cyclotomic":
        if n == self.order:
            return self
        if n % self.order:
            raise ValueError("new order must be a multiple")
        step = n // self.order
        lifted = [0] * (step * len(self.coords))
        lifted[::step] = self.coords
        return Cyclotomic(n, (UPoly(lifted) % cyclotomic_polynomial(n)).coeffs)

    def _least_order(self):
        """(d, coords) of the equal element at the least order d that holds
        it.  Q(zeta_d) meets Q(zeta_n) in Q(zeta_gcd(d, n)), so d divides
        every order that holds the element, and the pair is unique."""
        for d in _divisors(self.order):
            # columns: zeta_d^j at this order for j < phi(d), then -self
            cols = [Cyclotomic(d, [0] * j + [1]).change_order(self.order)
                    .coords for j in range(euler_phi(d))]
            cols.append([-c for c in self.coords])
            kernel = RationalMatrix(list(zip(*cols))).kernel()
            if kernel:
                return d, tuple(kernel[0][:-1])

    def __eq__(self, other):
        # operands of different orders compare at their least orders, so no
        # comparison needs an order above the cap
        if isinstance(other, Cyclotomic) and other.order != self.order:
            return self._least_order() == other._least_order()
        return _Residue.__eq__(self, other)

    def __hash__(self):
        # equal elements hash alike at any order; a rational one as its
        # Fraction
        d, coords = self._least_order()
        return hash(coords[0]) if d == 1 else hash((d, coords))

    def conjugate(self):
        """Complex conjugation, zeta -> zeta^(N-1)."""
        z = Cyclotomic.root_of_unity(self.order, self.order - 1)
        acc = Cyclotomic.from_rational(0, self.order)
        for i in reversed(range(len(self.coords))):
            acc = acc * z + Cyclotomic.from_rational(self.coords[i], self.order)
        return acc

    def is_real(self):
        return self == self.conjugate()

    def is_root_of_unity(self):
        """(True, order) when the value is a root of unity, else (False,
        None), by Kronecker's test on its minimal polynomial."""
        order = cyclotomic_order(min_poly_of(self))
        return order is not None, order

    def __repr__(self):
        return f"Cyclotomic({self.order}, {list(self.coords)})"


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------

class RationalMatrix:
    def __init__(self, entries):
        self.entries = [[Fraction(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged rows")

    def is_square(self):
        return self.rows == self.cols

    def transpose(self):
        return RationalMatrix([[self.entries[i][j] for i in range(self.rows)]
                               for j in range(self.cols)])

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            return RationalMatrix(
                [[sum(self.entries[i][k] * other.entries[k][j]
                      for k in range(self.cols))
                  for j in range(other.cols)] for i in range(self.rows)])
        return RationalMatrix([[x * other for x in row] for row in self.entries])

    def __add__(self, other):
        return RationalMatrix([[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.entries, other.entries)])

    def _int_rows(self):
        return [intlat.clear_denominators(row) for row in self.entries]

    def rank(self) -> int:
        return len(intlat.echelon(self._int_rows())[1])

    def kernel(self):
        """Basis of the right kernel (list of column vectors): one vector per
        free column, 1 there and 0 at the other free columns."""
        out = []
        for v in intlat.echelon_kernel(self._int_rows(), self.cols):
            # the free column is v's last nonzero entry: the pivot columns
            # it touches lie before it
            d = next(x for x in reversed(v) if x)
            out.append([Fraction(x, d) for x in v])
        return out

    def inverse(self) -> "RationalMatrix":
        """Rows of the echelon form of [A | I] are k*[e_i | row i of A^-1]."""
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        n = self.rows
        form, pivots = intlat.echelon(
            [intlat.clear_denominators(row + [int(i == j) for j in range(n)])
             for i, row in enumerate(self.entries)])
        if pivots[:n] != tuple(range(n)):
            raise ZeroDivisionError("singular matrix")
        return RationalMatrix([[Fraction(x, row[i]) for x in row[n:]]
                               for i, row in enumerate(form)])

    def det(self) -> Fraction:
        """(-1)^n times the constant term of the characteristic polynomial."""
        if not self.is_square():
            raise NotSquare("determinant of a non-square matrix")
        c0 = char_poly(self).coeffs[0]
        return -c0 if self.rows % 2 else c0

    def __repr__(self):
        return "RationalMatrix(" + repr([[str(x) for x in row]
                                         for row in self.entries]) + ")"


def identity_matrix(n: int) -> RationalMatrix:
    return RationalMatrix([[Fraction(1 if i == j else 0) for j in range(n)]
                           for i in range(n)])


def char_poly(matrix: RationalMatrix) -> UPoly:
    """Exact characteristic polynomial by Faddeev-LeVerrier, run in
    integers: with A = B/d for an integer matrix B, the coefficient c_k of
    x^(n-k) for B is an integer and c_k/d^k is the one for A."""
    if not matrix.is_square():
        raise NotSquare("characteristic polynomial of a non-square matrix")
    n = matrix.rows
    d = math.lcm(*(x.denominator for row in matrix.entries for x in row))
    B = [[int(x * d) for x in row] for row in matrix.entries]
    cols = list(zip(*B))
    coeffs = [Fraction(1)]
    Mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # Mk is a polynomial in B, so Mk * B = B * Mk
        Mk = [[sum(map(operator.mul, row, col)) for col in cols]
              for row in Mk]
        c = -sum(Mk[i][i] for i in range(n)) // k
        coeffs.append(Fraction(c, d ** k))
        for i in range(n):
            Mk[i][i] += c
    return UPoly(list(reversed(coeffs)))


# ---------------------------------------------------------------------------
# Galois group of an irreducible quartic
# ---------------------------------------------------------------------------

def _fraction_is_square(x: Fraction) -> bool:
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def discriminant(p: UPoly) -> Fraction:
    """disc(p) = (-1)^(d(d-1)/2) Res(p, p') / lc(p), where Res(p, p') =
    lc(p)^(d-1) det(multiplication by p' on Q[x]/(p)); p needs degree >= 1."""
    d = p.degree
    if d < 1:
        raise ValueError(f"discriminant of a polynomial of degree {d}")
    det = _mult_matrix(p.derivative(), p.monic()).det()
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * p.coeffs[-1] ** (d - 2) * det


def quartic_galois_class(poly: UPoly) -> str:
    """Galois group of an irreducible quartic: one of C4, V4, D4, A4, S4.

    Classification by the rational-root count of the resolvent cubic and the
    discriminant square test; the C4/D4 split follows Kappe-Warren.
    """
    if poly.degree != 4:
        raise NotQuartic(f"degree {poly.degree}")
    if not is_irreducible(poly):
        raise NotIrreducible(f"{poly} is reducible")
    p = poly.monic()
    e, c_, b, a, _ = p.coeffs  # x^4 + a x^3 + b x^2 + c x + e
    c = c_
    resolvent = UPoly([-(a * a * e - 4 * b * e + c * c), a * c - 4 * e, -b, 1])
    roots = rational_roots(resolvent)
    disc = discriminant(p)
    if len(roots) >= 3:
        return "V4"
    if len(roots) == 0:
        return "A4" if _fraction_is_square(disc) else "S4"
    y0 = roots[0]
    # C4 iff x^2 - y0 x + e and x^2 + a x + (b - y0) both split over Q(sqrt(disc))
    d1 = y0 * y0 - 4 * e
    d2 = a * a - 4 * (b - y0)
    def splits(delta):
        return delta == 0 or _fraction_is_square(delta) or \
            _fraction_is_square(delta * disc)
    return "C4" if splits(d1) and splits(d2) else "D4"
