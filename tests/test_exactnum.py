import math
import random
from fractions import Fraction as F

import pytest

from torion.exactnum import (AlgebraicReal, Cyclotomic, DegreeOutOfRange,
                             DependentBasis, NotQuartic, NotSquare,
                             RationalMatrix, Reducible, UPoly,
                             _divisors, _factor_of_degree, char_poly, count_real_roots,
                             cyclotomic_order, cyclotomic_polynomial,
                             discriminant, euler_phi, factorize,
                             identity_matrix, is_irreducible,
                             isolate_real_roots, min_poly_of, number_field,
                             quartic_galois_class, rational, rational_roots,
                             root_of_unity_order, squarefree_part, trace_dual_basis, upoly_gcd)


def test_rational_canonicality_random_ops():
    rng = random.Random(0)
    for _ in range(10_000):
        a = F(rng.randint(-50, 50), rng.randint(1, 50))
        b = F(rng.randint(-50, 50), rng.randint(1, 50))
        for v in (a + b, a - b, a * b) + ((a / b,) if b else ()):
            # Fraction is canonical by construction; re-normalizing is a no-op
            assert F(v.numerator, v.denominator) == v
            assert v.denominator > 0
            from math import gcd
            assert gcd(v.numerator, v.denominator) == 1


class TestFactorization:
    N = 5000

    def test_against_sieves(self):
        """Factorization, divisors and phi against independent sieves."""
        spf = list(range(self.N + 1))  # smallest prime factor
        for p in range(2, self.N + 1):
            if spf[p] == p:
                for m in range(p * p, self.N + 1, p):
                    spf[m] = min(spf[m], p)
        divisors = [[] for _ in range(self.N + 1)]
        for d in range(1, self.N + 1):
            for m in range(d, self.N + 1, d):
                divisors[m].append(d)
        phi = list(range(self.N + 1))
        for p in range(2, self.N + 1):
            if spf[p] == p:
                for m in range(p, self.N + 1, p):
                    phi[m] -= phi[m] // p
        for n in range(1, self.N + 1):
            expected = {}
            m = n
            while m > 1:
                expected[spf[m]] = expected.get(spf[m], 0) + 1
                m //= spf[m]
            assert factorize(n) == expected, n
            assert _divisors(n) == _divisors(-n) == divisors[n], n
            assert euler_phi(n) == phi[n], n

    @pytest.mark.parametrize("p,q", [(1000003, 1000033),
                                     (1000037, 2147483647),
                                     (1000003, 1000003)])
    def test_two_large_primes(self, p, q):
        for r in (p, q):
            assert all(r % d for d in range(2, math.isqrt(r) + 1))
        assert factorize(p * q) == ({p: 2} if p == q else {p: 1, q: 1})
        assert _divisors(p * q) == sorted({1, p, q, p * q})
        assert euler_phi(p * q) == (p * (p - 1) if p == q
                                    else (p - 1) * (q - 1))

    def test_nonpositive_rejected(self):
        for n in (0, -6):
            with pytest.raises(ValueError):
                factorize(n)


class TestUPoly:
    def test_divmod_gcd(self):
        p = UPoly([-1, 0, 1])  # x^2 - 1
        q = UPoly([-1, 1])
        assert divmod(p, q)[1].is_zero()
        assert upoly_gcd(p, q) == UPoly([-1, 1])

    def test_squarefree(self):
        p = UPoly([-1, 1]) * UPoly([-1, 1]) * UPoly([2, 1])
        assert squarefree_part(p) == (UPoly([-1, 1]) * UPoly([2, 1])).monic()

    def test_rational_roots(self):
        p = UPoly([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
        assert rational_roots(p) == [1, 2, 3]
        assert rational_roots(UPoly([1, 0, 1])) == []

    def test_rational_roots_lists_zero_once(self):
        assert rational_roots(UPoly([0, 0, 1])) == [0]  # x^2
        assert rational_roots(UPoly([0, 0, 0, -1, 1])) == [0, 1]  # x^3 (x-1)
        with pytest.raises(ValueError, match="zero polynomial"):
            rational_roots(UPoly([]))


class TestSturm:
    def test_root_isolation_count(self):
        # (x^2 - 2)(x - 3): three real roots
        p = UPoly([-2, 0, 1]) * UPoly([-3, 1])
        ivs = isolate_real_roots(p)
        assert len(ivs) == 3
        for lo, hi in ivs:
            assert lo < hi

    def test_count_in_interval(self):
        p = UPoly([-2, 0, 1])
        assert count_real_roots(p, F(0), F(2)) == 1
        assert count_real_roots(p, F(-2), F(2)) == 2

    def test_algebraic_real_refinement(self):
        p = UPoly([-2, 0, 1])
        [_, (lo, hi)] = isolate_real_roots(p)
        a = AlgebraicReal(p, lo, hi)
        l2, h2 = a.interval(F(1, 10 ** 12))
        assert h2 - l2 <= F(1, 10 ** 12)
        assert l2 * l2 <= 2 <= h2 * h2


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible(UPoly([-2, 0, 1]))
        assert not is_irreducible(UPoly([-1, 0, 1]))
        assert is_irreducible(UPoly([-1, -2, 1, 1]))
        assert is_irreducible(UPoly([1, 0, 0, 0, 1]))  # x^4 + 1
        assert not is_irreducible(UPoly([1, 2, 3, 2, 1]))  # (x^2+x+1)^2
        # degree six: cyclotomic Phi_9 irreducible, x^6 - 1 not
        assert is_irreducible(UPoly([1, 0, 0, 1, 0, 0, 1]))
        assert not is_irreducible(UPoly([-1, 0, 0, 0, 0, 0, 1]))

    @pytest.mark.parametrize("coeffs", [
        [1, 1000, 0, 0, 0, 0, 1],        # x^6 + 1000x + 1
        [1, 0, 0, 0, 0, 2, 3],           # 3x^6 + 2x^5 + 1
        [5, -3, 7, 1, -2, 4, 2],         # 2x^6 + 4x^5 - 2x^4 + x^3 + 7x^2 - 3x + 5
    ])
    def test_sextics_with_large_factor_boxes(self, coeffs):
        assert is_irreducible(UPoly(coeffs))

    @staticmethod
    def _random_cases(rng, count):
        """Integer coefficient lists, lowest first, of degree 1..6: random
        non-monic ones, ones with a zero constant term, and products g*h
        of random factors of degree 1..3."""
        def rand(deg, bound):
            return [rng.randint(-bound, bound) for _ in range(deg)] + \
                [rng.choice([-1, 1]) * rng.randint(1, bound)]
        for i in range(count):
            if i % 3 == 0:
                yield rand(rng.randint(1, 6), 30)
            elif i % 3 == 1:
                yield [0] + rand(rng.randint(0, 5), 30)
            else:
                g = UPoly(rand(rng.randint(1, 3), 9))
                h = UPoly(rand(rng.randint(1, 3), 9))
                yield [int(c) for c in (g * h).coeffs]

    def test_matches_sympy(self):
        """Differential test: the verdict is sympy's, and for a reducible f
        a factor of degree m is found exactly when the degrees of sympy's
        irreducible factors have a sub-multiset summing to m."""
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(25)
        for coeffs in self._random_cases(rng, 2100):
            f = UPoly(coeffs)
            ref = sympy.Poly(list(reversed(coeffs)), x)
            assert is_irreducible(f) == ref.is_irreducible, coeffs
            if ref.is_irreducible:
                continue
            sums = {0}
            for factor, mult in ref.factor_list()[1]:
                for _ in range(mult):
                    sums |= {s + factor.degree() for s in sums}
            prim = UPoly(f.primitive_int_coeffs())
            for m in range(1, f.degree // 2 + 1):
                g = _factor_of_degree(prim, m)
                assert (g is not None) == (m in sums), (coeffs, m)
                if g is not None:
                    assert g.degree == m
                    assert (f % g).is_zero()


class TestNumberField:
    def test_quadratic(self):
        f = number_field(UPoly([-2, 0, 1]))
        assert f.totally_real and len(f.real_roots) == 2

    def test_cubic_sturm_oracle(self):
        f = number_field(UPoly([-1, -2, 1, 1]))
        assert f.totally_real and len(f.real_roots) == 3
        # independent count: sign changes of the polynomial on a fine grid
        p = f.min_poly
        grid = [F(k, 8) for k in range(-32, 33)]
        signs = [p(x) > 0 for x in grid if p(x) != 0]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 3

    def test_reducible_rejected(self):
        with pytest.raises(Reducible):
            number_field(UPoly([-1, 0, 1]))

    def test_degree_bounds(self):
        with pytest.raises(DegreeOutOfRange):
            number_field(UPoly([-2, 1]))
        with pytest.raises(DegreeOutOfRange):
            number_field(UPoly([2, 0, 0, 0, 0, 0, 0, 1]))

    def test_arithmetic_and_inverse(self):
        f = number_field(UPoly([-1, -2, 1, 1]))
        a = f.generator()
        prod = a * a.inverse()
        assert prod == f.one()
        assert (a + 1) - 1 == a

    def test_min_poly_reduces_to_zero_in_field(self):
        f = number_field(UPoly([-1, -2, 1, 1]))
        rng = random.Random(3)
        for _ in range(10):
            e = f.element([rng.randint(-4, 4) for _ in range(3)])
            mp = min_poly_of(e)
            acc = f.zero()
            for c in reversed(mp.coeffs):
                acc = acc * e + f.element([c])
            assert acc.is_zero()


class TestEmbeddings:
    def test_embedding_intervals_separate_roots(self):
        f = number_field(UPoly([-2, 0, 1]))
        a = f.generator()
        lo0, hi0 = a.embedding_interval(0, F(1, 1000))
        lo1, hi1 = a.embedding_interval(1, F(1, 1000))
        # the two real embeddings send the generator to -sqrt(2), sqrt(2)
        assert hi0 < 0 < lo1
        assert lo1 * lo1 <= 2 <= hi1 * hi1

    def test_compare_embedding(self):
        f = number_field(UPoly([-2, 0, 1]))
        a = f.generator()
        # under the positive embedding, sqrt(2) > 1.4 = 7/5
        assert (a - f.element([F(7, 5)])).compare_embedding(
            f.zero(), 1) == 1
        assert (a - f.element([F(3, 2)])).compare_embedding(
            f.zero(), 1) == -1
        assert a.compare_embedding(a, 0) == 0


class TestTraceDualBasis:
    def test_gram_matrix_and_duality(self):
        f = number_field(UPoly([-1, -2, 1, 1]))
        a = f.generator()
        basis = [f.one(), a, a * a]
        gram = RationalMatrix([[(basis[i] * basis[j]).trace()
                                for j in range(3)] for i in range(3)])
        assert gram.entries == RationalMatrix(
            [[3, -1, 5], [-1, 5, -4], [5, -4, 13]]).entries
        dual = trace_dual_basis(f, basis)
        # oracle: independent Gram inversion
        ginv = gram.inverse()
        for j in range(3):
            expect = f.zero()
            for k in range(3):
                expect = expect + basis[k] * ginv.entries[j][k]
            assert dual[j] == expect
        for i in range(3):
            for j in range(3):
                assert (basis[i] * dual[j]).trace() == (1 if i == j else 0)

    def test_diagonal_gram(self):
        f = number_field(UPoly([-2, 0, 1]))
        a = f.generator()
        basis = [f.one(), a]  # Gram diag(2, 4)
        dual = trace_dual_basis(f, basis)
        assert dual[0] == f.element([F(1, 2)])
        assert dual[1] == a * F(1, 4)

    def test_dependent_triple(self):
        f = number_field(UPoly([-1, -2, 1, 1]))
        a = f.generator()
        with pytest.raises(DependentBasis):
            trace_dual_basis(f, [f.one(), a, a + 1])


class TestMinPolyOf:
    def test_rational_element(self):
        f = number_field(UPoly([-2, 0, 1]))
        assert min_poly_of(f.element([2])) == UPoly([-2, 1])

    def test_generator(self):
        f = number_field(UPoly([-2, 0, 1]))
        assert min_poly_of(f.generator()) == UPoly([-2, 0, 1])

    def test_shifted_generator(self):
        f = number_field(UPoly([-2, 0, 1]))
        assert min_poly_of(f.generator() + 1) == UPoly([-1, -2, 1])


class TestCharPoly:
    def test_identity(self):
        xm1 = UPoly([-1, 1])
        assert char_poly(identity_matrix(4)) == xm1 * xm1 * xm1 * xm1

    def test_diagonal(self):
        m = RationalMatrix([[1, 0], [0, 2]])
        assert char_poly(m) == UPoly([-1, 1]) * UPoly([-2, 1])

    def test_monodromy_product(self):
        # matrices of the two parabolic generators on the zero-holonomy
        # subspace (the second row of the first matrix carries +2; see the
        # decisions ledger for the verification against the printed source)
        A = RationalMatrix([[1, 0, -1, 0], [0, 1, 0, 2],
                            [0, 0, 1, 0], [0, 0, 0, 1]])
        B = RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0],
                            [-9, 3, 1, 0], [-2, 6, 0, 1]])
        assert char_poly(A * B) == UPoly([1, -25, 144, -25, 1])

    def test_not_square(self):
        with pytest.raises(NotSquare):
            char_poly(RationalMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_cayley_hamilton_random(self):
        rng = random.Random(5)
        for n in (2, 3, 4, 5):
            for _ in range(4):
                m = RationalMatrix([[rng.randint(-3, 3) for _ in range(n)]
                                    for _ in range(n)])
                cp = char_poly(m)
                acc = RationalMatrix([[0] * n for _ in range(n)])
                power = identity_matrix(n)
                for c in cp.coeffs:
                    acc = acc + power * c
                    power = power * m
                assert all(x == 0 for row in acc.entries for x in row)


class TestGalois:
    def test_d4(self):
        assert quartic_galois_class(UPoly([1, -25, 144, -25, 1])) == "D4"

    def test_v4(self):
        assert quartic_galois_class(UPoly([1, 0, 0, 0, 1])) == "V4"

    def test_s4(self):
        assert quartic_galois_class(UPoly([-1, -1, 0, 0, 1])) == "S4"

    def test_c4(self):
        assert quartic_galois_class(UPoly([1, 1, 1, 1, 1])) == "C4"

    def test_a4(self):
        assert quartic_galois_class(UPoly([12, 8, 0, 0, 1])) == "A4"

    def test_errors(self):
        with pytest.raises(NotQuartic):
            quartic_galois_class(UPoly([-2, 0, 1]))
        from torion.exactnum import NotIrreducible
        with pytest.raises(NotIrreducible):
            quartic_galois_class(UPoly([0, 0, 0, 0, 1]))

    def test_discriminant(self):
        assert discriminant(UPoly([-2, 0, 1])) == 8
        assert discriminant(UPoly([-1, -1, 1])) == 5


class TestCyclotomic:
    def test_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == UPoly([-1, 1])
        assert cyclotomic_polynomial(4) == UPoly([1, 0, 1])
        assert cyclotomic_polynomial(12) == UPoly([1, 0, -1, 0, 1])

    def test_cyclotomic_order(self):
        for m in range(1, 40):
            assert cyclotomic_order(cyclotomic_polynomial(m) * F(3, 2)) == m
        assert cyclotomic_order(UPoly([1, F(-6, 5), 1])) is None
        assert cyclotomic_order(UPoly([-1, 0, 0, 0, 1])) is None  # x^4 - 1
        assert cyclotomic_order(UPoly([2])) is None

    def test_field_arithmetic(self):
        z = Cyclotomic.root_of_unity(5)
        assert z ** 5 == 1
        s = z + z ** 2 + z ** 3 + z ** 4
        assert s == -1
        inv = z.inverse()
        assert z * inv == 1

    def test_mixed_orders(self):
        a = Cyclotomic.root_of_unity(3)
        b = Cyclotomic.root_of_unity(8)
        prod = a * b
        assert root_of_unity_order(prod) == 24

    def test_order_cap(self):
        with pytest.raises(ValueError):
            Cyclotomic.root_of_unity(25)

    def test_conjugation_and_reality(self):
        z = Cyclotomic.root_of_unity(8)
        assert not z.is_real()
        assert (z + z.conjugate()).is_real()

    def test_not_root_of_unity(self):
        z = Cyclotomic.root_of_unity(8)
        assert root_of_unity_order(z + 1) is None

    @staticmethod
    def _order_by_powering(z):
        """The least m >= 1 with z^m = 1, or None: a root of unity in
        Q(zeta_N) has order dividing lcm(2, N)."""
        if z.is_zero():
            return None
        acc = z
        for m in range(1, math.lcm(2, z.order) + 1):
            if acc == 1:
                return m
            acc = acc * z
        return None

    def test_root_of_unity_order_matches_powering(self):
        """Kronecker's test against brute-force powering on every +-zeta_n^k
        with n <= 24, and on sums of two of them with n <= 8 (in a common
        Q(zeta_N), N <= 24)."""
        small = []
        for n in range(1, 25):
            for k in range(n):
                for z in (Cyclotomic.root_of_unity(n, k),
                          -Cyclotomic.root_of_unity(n, k)):
                    order = self._order_by_powering(z)
                    assert order is not None
                    assert root_of_unity_order(z) == order, (n, k)
                    if n <= 8:
                        small.append(z)
        pairs = [(a, b) for a in small for b in small
                 if math.lcm(a.order, b.order) <= 24]
        for a, b in random.Random(5).sample(pairs, 150):
            s = a + b
            order = self._order_by_powering(s)
            assert root_of_unity_order(s) == order, s

    def test_hash_agrees_with_equality_across_orders(self):
        """Every +-zeta_n^k with n <= 24, lifted by change_order to each
        multiple of n up to 24: equal elements hash alike and collapse in a
        set.  An element is known by its angle k/n (+1/2 for the minus
        sign) modulo 1."""
        by_angle = {}
        for n in range(1, 25):
            for k in range(n):
                for sign in (0, 1):
                    z = Cyclotomic.root_of_unity(n, k)
                    z = -z if sign else z
                    angle = (F(k, n) + F(sign, 2)) % 1
                    for m in range(n, 25, n):
                        by_angle.setdefault(angle, []).append(
                            z.change_order(m))
        for angle, zs in by_angle.items():
            assert len({hash(z) for z in zs}) == 1, angle
            assert all(z == zs[0] for z in zs), angle
        elements = [z for zs in by_angle.values() for z in zs]
        assert len(set(elements)) == len(by_angle)
        assert Cyclotomic.root_of_unity(8, 2) == Cyclotomic.root_of_unity(4, 1)
        assert len({Cyclotomic.root_of_unity(8, 2),
                    Cyclotomic.root_of_unity(4, 1)}) == 1
        # a rational element hashes as its Fraction
        assert hash(Cyclotomic.root_of_unity(12, 6)) == hash(F(-1))
        assert Cyclotomic.root_of_unity(12, 6) in {F(-1)}
        # orders whose lcm exceeds the cap still compare
        assert Cyclotomic.root_of_unity(16, 2) == \
            Cyclotomic.root_of_unity(24, 3)
        assert Cyclotomic.root_of_unity(5) != Cyclotomic.root_of_unity(7)

    def test_arithmetic_past_the_lcm_cap(self):
        """Operands whose orders have an lcm above 24 are lifted to the lcm
        of their least orders; only a field above the cap raises."""
        a = Cyclotomic.root_of_unity(16, 2)  # zeta_8
        b = Cyclotomic.root_of_unity(24, 3)  # zeta_8
        assert a + b == 2 * Cyclotomic.root_of_unity(8)
        assert (a + b).order == 8
        assert a * b == Cyclotomic.root_of_unity(8, 2)
        assert (a - b).is_zero()
        # zeta_4 * zeta_3 = zeta_12^7, from orders 16 and 18 (lcm 144)
        assert Cyclotomic.root_of_unity(16, 4) * \
            Cyclotomic.root_of_unity(18, 6) == Cyclotomic.root_of_unity(12, 7)
        with pytest.raises(ValueError, match="order 48 exceeds 24"):
            Cyclotomic.root_of_unity(16) + Cyclotomic.root_of_unity(24)


class TestRationalMatrix:
    def test_rank_kernel(self):
        m = RationalMatrix([[1, 2], [2, 4]])
        assert m.rank() == 1
        (k,) = m.kernel()
        assert m.entries[0][0] * k[0] + m.entries[0][1] * k[1] == 0

    def test_inverse(self):
        m = RationalMatrix([[1, 2], [3, 4]])
        assert (m * m.inverse()).entries == identity_matrix(2).entries

    def test_fraction_entries(self):
        m = RationalMatrix([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]])
        assert m.det() == F(1, 14) - F(1, 15)


def test_rational_zero_denominator_is_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        rational("1/0")
    assert rational(" -3/6 ") == F(-1, 2)


# The routes the multiplication matrix replaced, kept here as oracles: the
# inverse by the extended Euclidean algorithm, the trace by Newton's
# identities on the power sums, and the discriminant from the Sylvester
# matrix of p and p'.

def _xgcd_inverse(a):
    """s with s*a + t*m = 1, reduced mod m."""
    m = a._modulus()
    r0, r1 = UPoly(a.coords), m
    s0, s1 = UPoly([1]), UPoly([])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    assert r0.degree == 0
    return a._new((s0 * F(1, r0.coeffs[0]) % m).coeffs)


def _newton_trace(e):
    """sum c_i Tr(x^i), the power sums Tr(x^k) from Newton's identities on
    x^d + c_{d-1} x^{d-1} + ... + c_0."""
    d = e.field.degree
    c = e.field.min_poly.coeffs
    p = [F(d)]
    for k in range(1, d):
        s = sum((c[d - i] * p[k - i] for i in range(1, k)), F(0))
        p.append(-(s + k * c[d - k]))
    return sum((x * p[i] for i, x in enumerate(e.coords)), F(0))


def _sylvester_discriminant(p):
    """(-1)^(d(d-1)/2) Res(p, p') / lc(p), Res as a Sylvester determinant."""
    d = p.degree
    dp = p.derivative()
    m = dp.degree
    pc, dc = list(reversed(p.coeffs)), list(reversed(dp.coeffs))
    rows = [[0] * i + pc + [0] * (m - 1 - i) for i in range(m)] + \
           [[0] * i + dc + [0] * (d - 1 - i) for i in range(d)]
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * RationalMatrix(rows).det() / p.coeffs[-1]


# fields of degree 2..6, one with a non-integral minimal polynomial
_FIELDS = [UPoly([F(5, 7), F(-1, 3), 1]), UPoly([-1, -2, 1, 1]),
           UPoly([1, -25, 144, -25, 1]), UPoly([-1, -1, 0, 0, 0, 1]),
           UPoly([-2, 0, 0, 0, 0, 0, 3])]


def _random_coords(rng, d):
    return [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)]


class TestMultiplicationMatrixRoutes:
    """Inverse, trace and discriminant read off one multiplication matrix
    agree with the extended Euclidean algorithm, Newton's identities and
    the Sylvester matrix."""

    def test_field_inverse_and_trace(self):
        rng = random.Random(28)
        for poly in _FIELDS:
            f = number_field(poly)
            assert f.degree == poly.degree
            for _ in range(12):
                e = f.element(_random_coords(rng, f.degree))
                if e.is_zero():
                    continue
                inv = e.inverse()
                assert inv == _xgcd_inverse(e)
                assert e * inv == f.one()
                assert e.trace() == _newton_trace(e)

    def test_cyclotomic_inverse(self):
        rng = random.Random(29)
        for n in range(1, 25):
            d = euler_phi(n)
            values = [Cyclotomic.root_of_unity(n, k) for k in range(n)] + \
                [Cyclotomic(n, _random_coords(rng, d)) for _ in range(4)]
            for v in values:
                if v.is_zero():
                    continue
                inv = v.inverse()
                assert inv.order == n
                assert inv == _xgcd_inverse(v)
                assert v * inv == 1

    def test_discriminant_against_sylvester(self):
        rng = random.Random(30)
        for _ in range(150):
            d = rng.randint(1, 7)
            coeffs = _random_coords(rng, d) + \
                [F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))]
            p = UPoly(coeffs)
            assert discriminant(p) == _sylvester_discriminant(p), coeffs
        for poly in _FIELDS:
            assert discriminant(poly) == _sylvester_discriminant(poly)

    def test_discriminant_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(31)
        for _ in range(150):
            d = rng.randint(1, 7)
            coeffs = _random_coords(rng, d) + \
                [F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))]
            expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                       for i, c in enumerate(coeffs))
            assert discriminant(UPoly(coeffs)) == \
                F(str(sympy.discriminant(expr, x))), coeffs

    @pytest.mark.parametrize("poly", [UPoly([]), UPoly([3]), UPoly([F(-1, 2)])])
    def test_discriminant_needs_degree_one(self, poly):
        with pytest.raises(ValueError, match="degree"):
            discriminant(poly)

    def test_inverse_of_zero(self):
        f = number_field(_FIELDS[1])
        for zero in (f.zero(), Cyclotomic(12, [])):
            with pytest.raises(ZeroDivisionError, match="inverse of zero"):
                zero.inverse()
            with pytest.raises(ZeroDivisionError):
                1 / zero


# The refine-until-decided route that `AlgebraicReal.sign` replaced, kept
# here as an oracle: bisect an isolating interval of the minimal polynomial
# and evaluate the element by interval arithmetic until the image of the
# difference is bounded away from zero.

def _old_refine(p, lo, hi, width):
    flo = p(lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = p(mid)
        if fm == 0:
            eps = min(width, hi - lo) / 4
            return (mid - eps, mid + eps) if width > 0 else (mid, mid)
        if (flo > 0) != (fm > 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return lo, hi


def _old_compare_embedding(a, b, roots, root_index):
    """roots: a list of (lo, hi) isolating intervals, refined in place."""
    diff = a - b
    if diff.is_zero():
        return 0
    width = F(1, 16)
    while True:
        lo, hi = roots[root_index]
        while True:
            vlo, vhi = F(0), F(0)
            for c in reversed(diff.coords):
                cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
                vlo, vhi = min(cands) + c, max(cands) + c
            if vhi - vlo <= width:
                break
            lo, hi = _old_refine(diff.field.min_poly, lo, hi, (hi - lo) / 4)
            roots[root_index] = (lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        width /= 16


def _embedding_fields(rng):
    """The fields of _FIELDS with a real root, and for each degree 2..6 two
    seeded fields prod (x - r_i) + c, mostly totally real."""
    fields = [number_field(p) for p in _FIELDS]
    for d in range(2, 7):
        made = 0
        while made < 2:
            p = UPoly([rng.choice([-3, -2, -1, 1, 2, 3])])
            prod = UPoly([1])
            for r in rng.sample(range(-4, 5), d):
                prod = prod * UPoly([-r, 1])
            if is_irreducible(prod + p):
                fields.append(number_field(prod + p))
                made += 1
    return [f for f in fields if f.real_roots]


class TestSign:
    """`AlgebraicReal.sign` and `compare_embedding` against the interval
    refinement loop and against floats."""

    def test_direct(self):
        [_, (lo, hi)] = isolate_real_roots(UPoly([-2, 0, 1]))
        root2 = AlgebraicReal(UPoly([-2, 0, 1]), lo, hi)  # sqrt(2)
        assert root2.sign(UPoly([-2, 0, 1]) * UPoly([5, 1])) == 0
        assert root2.sign(UPoly([F(-1, 3)])) == -1
        assert root2.sign(UPoly([7])) == 1
        assert root2.sign(UPoly([])) == 0
        # a negative leading coefficient: 1 - x < 0 and -x^2 + 3 > 0
        assert root2.sign(UPoly([1, -1])) == -1
        assert root2.sign(UPoly([3, 0, -1])) == 1
        # a square factor: (x - 1)^2 (x - 3/2) changes sign only once
        assert root2.sign(UPoly([-1, 1]) * UPoly([-1, 1]) *
                          UPoly([F(-3, 2), 1])) == -1
        # the lower endpoint may be another root of the polynomial
        one = AlgebraicReal(UPoly([-1, 0, 1]), -1, 2)
        assert one.sign(UPoly([-1, 1])) == 0
        assert one.sign(UPoly([1, 1])) == 1
        assert one.sign(UPoly([F(-999, 1000), 1])) == 1
        three = AlgebraicReal(UPoly([-1, 1]) * UPoly([-3, 1]) *
                              UPoly([-5, 1]), 1, 4)
        assert three.sign(UPoly([F(-29, 10), 1])) == 1
        lo, hi = three.interval(F(1, 100))
        assert hi - lo <= F(1, 100) and lo < 3 <= hi

    def test_rational_root(self):
        third = AlgebraicReal(UPoly([-1, 3]), 0, 1)
        for num in range(-7, 8):
            g = UPoly([F(num, 21), -1])
            v = F(num, 21) - F(1, 3)
            assert third.sign(g) == (v > 0) - (v < 0)

    def test_compare_embedding_against_refinement(self):
        rng = random.Random(41)
        compared = 0
        for f in _embedding_fields(rng):
            old_roots = isolate_real_roots(f.min_poly)
            floats = [float(r) for r in f.real_roots]
            for _ in range(8):
                a = f.element(_random_coords(rng, f.degree))
                b = f.element(_random_coords(rng, f.degree))
                # a negative leading coefficient in the difference, and a
                # zero difference
                c = a - f.element([0] * (f.degree - 1) + [
                    a.coords[-1] + rng.randint(1, 3)])
                for x, y in ((a, b), (b, a), (c, f.zero()), (a, a)):
                    for i, t in enumerate(floats):
                        new = x.compare_embedding(y, i)
                        assert new == _old_compare_embedding(
                            x, y, old_roots, i)
                        z = UPoly((x - y).coords)(t)
                        if abs(z) > 1e-9:
                            assert new == (1 if z > 0 else -1)
                        compared += 1
        assert compared > 700

    def test_embedding_interval_leaves_the_root_list(self):
        f = number_field(UPoly([1, -25, 144, -25, 1]))
        roots = list(f.real_roots)
        a = f.element([1, 2, -3, F(1, 2)])
        lo, hi = a.embedding_interval(2, F(1, 10 ** 6))
        assert hi - lo <= F(1, 10 ** 6)
        assert f.real_roots == roots and len(f.real_roots) == 4
        value = UPoly(a.coords)(float(roots[2]))
        assert float(lo) - 1e-9 <= value <= float(hi) + 1e-9
