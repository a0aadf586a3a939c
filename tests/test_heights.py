import math
import random
import threading
from fractions import Fraction as F
from itertools import product

import pytest

from torion.exactnum import AlgebraicReal, UPoly, is_irreducible, \
    isolate_real_roots
from torion.heights import (AllZeroProjective, BudgetExceeded,
                            HeightValue, PlaceDecomposition, ZeroInput,
                            ZeroPolynomial, _abs_leq, dirichlet_approx,
                            enumerate_bounded, height_algebraic,
                            height_point, height_poly, mult_relation)
from torion.multipoly import parse


class TestHeightPoint:
    def test_affine_examples(self):
        assert height_point([F(2, 3)]).log_argument == 3
        assert height_point([F(1)]).log_argument == 1
        assert height_point([F(1)]).value == 0.0

    def test_projective_example(self):
        hv = height_point([3, 4, 5], mode="projective")
        assert hv.log_argument == 5

    def test_all_zero_projective(self):
        with pytest.raises(AllZeroProjective):
            height_point([0, 0], mode="projective")

    def test_homogeneity_random(self):
        rng = random.Random(0)
        for _ in range(1000):
            x = F(rng.randint(-30, 30) or 1, rng.randint(1, 30))
            k = rng.randint(-10, 10)
            if k == 0:
                continue
            hx = height_point([x]).log_argument
            hxk = height_point([x ** k]).log_argument
            assert hxk == hx ** abs(k)

    def test_subadditivity_random(self):
        rng = random.Random(1)
        for _ in range(300):
            x = F(rng.randint(-20, 20) or 1, rng.randint(1, 20))
            y = F(rng.randint(-20, 20) or 1, rng.randint(1, 20))
            hx, hy = (height_point([v]).value for v in (x, y))
            assert height_point([x * y]).value <= hx + hy + 1e-9
            assert height_point([x + y]).value <= hx + hy + math.log(2) + 1e-9

    def test_projective_invariance_random(self):
        rng = random.Random(2)
        for _ in range(300):
            coords = [F(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(3)]
            if all(c == 0 for c in coords):
                continue
            lam = F(rng.randint(1, 9), rng.randint(1, 9)) * \
                rng.choice((1, -1))
            h1 = height_point(coords, mode="projective")
            h2 = height_point([lam * c for c in coords], mode="projective")
            assert h1.log_argument == h2.log_argument


class TestHeightAlgebraic:
    def test_golden_ratio(self):
        hv = height_algebraic(UPoly([-1, -1, 1]))
        assert hv.exactness == "numeric"
        expect = math.log((1 + math.sqrt(5)) / 2) / 2
        assert abs(hv.value - expect) < 1e-11
        assert abs(hv.value - 0.24061) < 1e-4

    def test_sqrt2(self):
        hv = height_algebraic(UPoly([-2, 0, 1]))
        assert abs(hv.value - math.log(2) / 2) < 1e-11

    def test_cyclotomic_exact_zero(self):
        hv = height_algebraic(UPoly([1, 1, 1]))
        assert hv.exactness == "exact-log" and hv.value == 0.0

    def test_rational_exact(self):
        hv = height_algebraic(UPoly([-2, 1]))
        assert hv.exactness == "exact-log" and hv.log_argument == 2

    def test_reducible_rejected(self):
        from torion.exactnum import Reducible
        with pytest.raises(Reducible):
            height_algebraic(UPoly([-1, 0, 1]))


class TestHeightPoly:
    def test_examples(self):
        assert height_poly(parse("2*x + 4*y", ["x", "y"])).log_argument == 2
        assert height_poly(parse("x + y", ["x", "y"])).value == 0.0
        assert height_poly(parse("(3/2)*x^2 - 5", ["x"])).log_argument == 10

    def test_zero(self):
        with pytest.raises(ZeroPolynomial):
            height_poly(parse("0", ["x"]))


class TestPlaceDecomposition:
    def test_reconstruct_and_product_formula(self):
        rng = random.Random(3)
        for _ in range(200):
            x = F(rng.randint(-400, 400) or 7, rng.randint(1, 400))
            d = PlaceDecomposition.of(x)
            assert d.reconstruct() == x
            assert d.product_formula_holds()

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            PlaceDecomposition.of(0)


def _sqrt_algebraic(n):
    p = UPoly([-n, 0, 1])
    intervals = isolate_real_roots(p)
    lo, hi = intervals[-1]
    return AlgebraicReal(p, lo, hi)


class TestDirichlet:
    def test_sqrt2_q10(self):
        q, ps = dirichlet_approx([_sqrt_algebraic(2)], 10)
        assert q == 5 and ps == [7]

    def test_exact_rational(self):
        q, ps = dirichlet_approx([F(1, 3)], 4)
        assert q == 3 and ps == [1]

    def test_rational_root_on_the_bound(self):
        # |1 * 1/3 - 0| = 1/3 is the bound itself: a refinement loop never
        # decides it; run in a thread so a regression fails, not hangs
        theta = AlgebraicReal(UPoly([-1, 3]), 0, 1)
        out = []
        worker = threading.Thread(
            target=lambda: out.append(dirichlet_approx([theta], 3)),
            daemon=True)
        worker.start()
        worker.join(10)
        assert out == [dirichlet_approx([F(1, 3)], 3)] == [(1, [0])]

    def test_rational_roots_agree_with_fractions(self):
        rng = random.Random(44)
        for _ in range(60):
            n = rng.randint(1, 2)
            rs = [F(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(n)]
            roots = [AlgebraicReal(UPoly([-r, 1]), r - 1, r) for r in rs]
            Q = rng.randint(2, 6)
            assert dirichlet_approx(roots, Q) == dirichlet_approx(rs, Q)

    def test_half_integers_take_the_lower_p(self):
        # with Q = 2 both neighbors of q*theta = 3/2 meet the bound 1/2
        assert dirichlet_approx([F(3, 2)], 2) == (1, [1])
        assert dirichlet_approx([F(-1, 2)], 2) == (1, [-1])
        # also when the refined interval's midpoint lies above 3/2
        above = AlgebraicReal(UPoly([-3, 2]), F(7, 5), F(151, 100))
        assert dirichlet_approx([above], 2) == (1, [1])

    def test_two_dimensional(self):
        q, ps = dirichlet_approx([_sqrt_algebraic(2), _sqrt_algebraic(3)], 5)
        assert 1 <= q < 25
        for theta, p in zip((math.sqrt(2), math.sqrt(3)), ps):
            assert abs(q * theta - p) <= 1 / 5 + 1e-12

    def test_postcondition_random(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(1, 2)
            thetas = []
            for _ in range(n):
                if rng.random() < 0.5:
                    thetas.append(F(rng.randint(-20, 20), rng.randint(1, 20)))
                else:
                    thetas.append(_sqrt_algebraic(rng.choice([2, 3, 5, 6, 7])))
            Q = rng.randint(2, 6)
            q, ps = dirichlet_approx(thetas, Q)
            assert 1 <= q < Q ** n
            for theta, p in zip(thetas, ps):
                val = float(theta) if isinstance(theta, AlgebraicReal) \
                    else float(theta)
                assert abs(q * val - p) <= 1 / Q + 1e-9


# The refine-until-decided test that `AlgebraicReal.sign` replaced, kept
# here as an oracle.  It never stops when |q*theta - p| equals the bound,
# so it only sees irrational theta.

def _old_abs_leq(theta, q, p, bound):
    width = bound / 4
    while True:
        lo, hi = theta.interval(width)
        dlo, dhi = q * lo - p, q * hi - p
        if -bound <= dlo and dhi <= bound:
            return True
        if dlo > bound or dhi < -bound:
            return False
        width /= 16


def _real_roots_of_fields(rng):
    """The real roots of seeded irreducible polynomials c * prod (x - r_i)
    + e of degree 2..6, some scaled to a negative leading coefficient."""
    roots = []
    for d in range(2, 7):
        made = 0
        while made < 3:
            p = UPoly([rng.choice([-2, -1, 1, 3])])
            for r in rng.sample(range(-4, 5), d):
                p = p * UPoly([-r, 1])
            p = (p + UPoly([rng.choice([-3, -1, 1, 2])])) * \
                rng.choice([-2, 1, F(-1, 3)])
            intervals = isolate_real_roots(p)
            if intervals and is_irreducible(p):
                roots += [AlgebraicReal(p, lo, hi) for lo, hi in intervals]
                made += 1
    return roots


class TestAbsLeq:
    def test_against_refinement_on_field_roots(self):
        rng = random.Random(42)
        seen = set()
        for theta in _real_roots_of_fields(rng):
            t = float(theta)
            for _ in range(6):
                q = rng.randint(1, 30)
                bound = F(1, rng.randint(2, 9))
                p = round(q * t) + rng.choice([-1, 0, 0, 1])
                verdict = _abs_leq(theta, q, p, bound)
                assert verdict == _old_abs_leq(theta, q, p, bound)
                seen.add(verdict)
        assert seen == {True, False}

    def test_rational_roots_against_fractions(self):
        # a rational r is the root of x - r on (r - 1, r]; the bound is met
        # with equality in many of these cases
        rng = random.Random(43)
        equal = 0
        for _ in range(400):
            r = F(rng.randint(-30, 30), rng.randint(1, 12))
            theta = AlgebraicReal(UPoly([-r, 1]), r - 1, r)
            q = rng.randint(1, 12)
            bound = F(1, rng.randint(2, 6))
            p = round(q * r) + rng.choice([-1, 0, 1])
            assert _abs_leq(theta, q, p, bound) == (abs(q * r - p) <= bound)
            equal += abs(q * r - p) == bound
        assert equal > 10
        third = AlgebraicReal(UPoly([-1, 3]), 0, 1)
        assert _abs_leq(third, 1, 0, F(1, 3))
        assert _abs_leq(third, 1, 1, F(2, 3))
        assert not _abs_leq(third, 1, 1, F(2, 3) - F(1, 10 ** 9))


class TestMultRelation:
    def test_examples(self):
        assert mult_relation([4, 8]) == (3, -2)
        assert mult_relation([2, 3]) is None
        assert mult_relation([-1]) == (1,)

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            mult_relation([2, 0])

    def test_soundness_and_minimality_random(self):
        rng = random.Random(5)
        primes = (2, 3, 5)
        for _ in range(200):
            n = rng.randint(2, 3)
            rs = []
            for _ in range(n):
                v = F(1)
                for p in primes:
                    v *= F(p) ** rng.randint(-2, 2)
                rs.append(v * rng.choice((1, -1)))
            got = mult_relation(rs)
            # brute force over |b|_inf <= 8
            best = None
            for b in product(range(-8, 9), repeat=n):
                if not any(b):
                    continue
                val = F(1)
                for r, e in zip(rs, b):
                    val *= F(r) ** e
                if val in (1, -1):
                    key = (max(abs(x) for x in b), b)
                    if best is None or key < best:
                        best = key
            if best is None:
                assert got is None or max(abs(x) for x in got) > 8
            else:
                assert got is not None
                val = F(1)
                for r, e in zip(rs, got):
                    val *= F(r) ** e
                assert val in (1, -1)
                assert max(abs(x) for x in got) == best[0]


class TestEnumerateBounded:
    def test_log2(self):
        got = enumerate_bounded(math.log(2), 1)
        flat = sorted(t[0] for t in got)
        assert flat == sorted([F(0), F(1), F(-1), F(2), F(-2),
                               F(1, 2), F(-1, 2)])

    def test_zero_bound(self):
        got = enumerate_bounded(0.0, 1)
        assert sorted(t[0] for t in got) == [F(-1), F(0), F(1)]

    def test_log_one_and_a_half(self):
        got = enumerate_bounded(math.log(1.5), 1)
        assert sorted(t[0] for t in got) == [F(-1), F(0), F(1)]

    def test_pairs_filtered_by_joint_height(self):
        got = enumerate_bounded(math.log(2), 2)
        assert (F(1, 2), F(1, 2)) in got
        # (1/2, 1/3) clears to [6:3:2]: height log 6 > log 2
        assert (F(1, 2), F(1, 3)) not in got

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_bounded(math.log(300), 3, cap=1000)
