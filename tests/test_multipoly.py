import random
from functools import reduce
from operator import mul
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from torion.multipoly import (MultiPoly, PolySyntaxError, RingMismatch,
                              UnknownVariable, data_text, parse,
                              read_poly_file, substitute_torus)

XYZ = ["x", "y", "z"]
NAMES = ["x", "y", "z", "w"]


@st.composite
def polys(draw, low=-3):
    """1-4 variables, up to six terms with rational coefficients and
    exponents in [low, 3]."""
    n = draw(st.integers(1, 4))
    mono = st.lists(st.integers(low, 3), min_size=n, max_size=n).map(tuple)
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return MultiPoly(n, draw(st.dictionaries(mono, coeff, max_size=6)))


class TestParse:
    def test_four_term_cubic(self):
        p = parse("x*y*z + x + y + z", XYZ)
        assert len(p.terms) == 4 and p.total_degree() == 3

    def test_zero(self):
        assert parse("0", XYZ).is_zero()

    def test_negative_exponent_mode(self):
        # text has nonnegative exponents; a MultiPoly may have any
        with pytest.raises(PolySyntaxError, match="negative exponent"):
            parse("x^-1 + 1", XYZ)
        q = MultiPoly(3, {(-1, 0, 0): 1, (0, 0, 0): 1})
        assert q.terms[(-1, 0, 0)] == 1

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse("x + w", XYZ)

    def test_rationals_and_parens(self):
        p = parse("(3/2)*x^2 - 5", ["x"])
        assert p.terms == {(2,): F(3, 2), (0,): F(-5)}

    def test_implicit_multiplication(self):
        assert parse("2x", ["x"]) == parse("2*x", ["x"])

    def test_parse_print_round_trip(self):
        rng = random.Random(11)
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                e = tuple(rng.randint(0, 3) for _ in range(3))
                terms[e] = F(rng.randint(-9, 9)) or F(1)
            p = MultiPoly(3, terms)
            assert parse(p.to_string(XYZ), XYZ) == p

    @settings(max_examples=200, deadline=None)
    @given(polys(low=0))
    def test_parse_print_round_trip_property(self, p):
        names = NAMES[:p.n]
        assert parse(p.to_string(names), names) == p


class TestArith:
    def test_difference_of_squares(self):
        x_plus = parse("x + y", ["x", "y"])
        x_minus = parse("x - y", ["x", "y"])
        assert x_plus * x_minus == parse("x^2 - y^2", ["x", "y"])

    def test_zeroth_power(self):
        assert parse("x + 1", ["x"]) ** 0 == \
            MultiPoly.constant(1, 1)

    @pytest.mark.parametrize("negative", [False, True])
    def test_monomial_power_is_the_repeated_product(self, negative):
        # a monomial is a unit: m ** -1 is its inverse
        rng = random.Random(12)
        lo = -3 if negative else 0
        one = MultiPoly.constant(3, 1)
        for _ in range(20):
            e = tuple(rng.randint(lo, 3) for _ in range(3))
            c = F(rng.choice([-5, -2, 1, 3, 7]), rng.randint(1, 4))
            m = MultiPoly(3, {e: c})
            for k in range(9):
                assert m ** k == reduce(mul, [m] * k, one)
            inv = MultiPoly(3, {tuple(-x for x in e): 1 / c})
            assert m * m ** -1 == one
            for k in range(1, 9):
                assert m ** -k == reduce(mul, [inv] * k, one)

    def test_negative_power_of_a_non_monomial(self):
        with pytest.raises(ValueError, match="non-unit"):
            parse("x + 1", ["x"]) ** -1

    def test_cancellation(self):
        p = parse("x + y", ["x", "y"])
        assert (p + -p).is_zero()

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            parse("x", ["x"]) + parse("x + y", ["x", "y"])

    def test_ring_axioms_random(self):
        rng = random.Random(2)

        def rand_poly():
            return MultiPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                                 F(rng.randint(-4, 4)) or F(1)
                                 for _ in range(3)})
        for _ in range(50):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)


class TestSupport:
    def test_cubic_support(self):
        p = parse("x*y*z + x + y + z", XYZ)
        assert set(p.support()) == {(1, 1, 1), (1, 0, 0), (0, 1, 0),
                                    (0, 0, 1)}

    def test_zero_support(self):
        assert parse("0", XYZ).support() == []

    def test_transcribed_surface(self):
        _, (h,) = read_poly_file(data_text("surface_deg14.poly"))
        assert len(h.support()) == 199
        assert h.total_degree() == 14
        # symmetric under every coordinate permutation
        from itertools import permutations
        for perm in permutations(range(3)):
            assert all(h.terms.get(tuple(e[perm[i]] for i in range(3))) == c
                       for e, c in h.terms.items())
        assert h.evaluate([F(1), F(1), F(1)]) == 0

    def test_as_upoly(self):
        from torion.exactnum import UPoly
        assert parse("3*y^2 - 1/2*y + 1", XYZ).as_upoly(1) == \
            UPoly([1, F(-1, 2), 3])
        assert parse("0", XYZ).as_upoly(0) == UPoly([])
        for p in (parse("x*y + 1", XYZ), MultiPoly(3, {(0, -1, 0): F(1)})):
            with pytest.raises(ValueError, match="not univariate"):
                p.as_upoly(1)


class TestSubstituteTorus:
    def test_row_projection(self):
        p = parse("x*y*z + x + y + z", XYZ)
        parts = dict(substitute_torus(p, [[1, 0, 0]]))
        assert parts[(1,)] == parse("x*y*z + x", XYZ)
        assert parts[(0,)] == parse("y + z", XYZ)

    def test_zero_row_collapses(self):
        p = parse("x*y - 3*z + 1/2", XYZ)
        parts = substitute_torus(p, [[0, 0, 0]])
        assert len(parts) == 1 and parts[0][1] == p

    def test_three_singletons(self):
        p = parse("x + y + 1", ["x", "y"])
        parts = substitute_torus(p, [[1, -1]])
        assert sorted(J for J, _ in parts) == [(-1,), (0,), (1,)]
        assert all(len(q.terms) == 1 for _, q in parts)

    def test_partition_property_random(self):
        rng = random.Random(4)
        _, (h,) = read_poly_file(data_text("coset_cubic.poly"))
        polys = [h, parse("x^2*y - z + 4", XYZ)]
        for p in polys:
            for _ in range(100):
                r = rng.randint(1, 3)
                E = [[rng.randint(-2, 2) for _ in range(3)]
                     for _ in range(r)]
                parts = substitute_torus(p, E)
                union = []
                for _, q in parts:
                    union.extend(q.terms)
                assert sorted(union) == sorted(p.terms)

    @settings(max_examples=200, deadline=None)
    @given(polys(), st.data())
    def test_parts_partition_the_support(self, p, data):
        """Every term lands in exactly one part, the part of its image
        under E, and the parts add up to p."""
        row = st.lists(st.integers(-3, 3), min_size=p.n, max_size=p.n)
        E = data.draw(st.lists(row, min_size=1, max_size=3))
        parts = substitute_torus(p, E)
        assert [J for J, _ in parts] == sorted({J for J, _ in parts})
        placed = [e for _, q in parts for e in q.terms]
        assert sorted(placed) == sorted(p.terms)
        total = MultiPoly.zero(p.n)
        for J, q in parts:
            assert q.terms
            assert all(tuple(sum(map(mul, r, e)) for r in E) == J
                       for e in q.terms)
            total = total + q
        assert total == p

    def test_substitution_identity(self):
        # sum_J p_J(a) t^J == p(a_1 t^E1, ..., a_n t^En) for random a, t
        rng = random.Random(9)
        p = parse("x*y*z + 2*x - y*z + 7", XYZ)
        for _ in range(20):
            E = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)]
            a = [F(rng.randint(1, 5)), F(rng.randint(1, 5)),
                 F(rng.randint(1, 5))]
            t = [F(rng.randint(2, 5)), F(rng.randint(2, 5))]
            parts = substitute_torus(p, E)
            lhs = sum((q.evaluate(a) * t[0] ** J[0] * t[1] ** J[1]
                       for J, q in parts), F(0))
            coords = [a[i] * t[0] ** E[0][i] * t[1] ** E[1][i]
                      for i in range(3)]
            assert lhs == p.evaluate(coords)


class TestGoldenFiles:
    def test_missing_header(self):
        with pytest.raises(ValueError):
            read_poly_file("x + y\n")
        # no polynomial line either: still no variables to read them in
        with pytest.raises(ValueError, match="missing '# vars:' header"):
            read_poly_file("# only a comment\n")

    def test_write_read_round_trip(self, tmp_path):
        from torion.multipoly import write_poly_file
        p = parse("x^2*y - 3*z + 1/2", XYZ)
        path = tmp_path / "t.poly"
        write_poly_file(path, XYZ, [p])
        variables, polys = read_poly_file(path.read_text())
        assert variables == XYZ and polys == [p]


class TestLaurentNormalization:
    def test_unit_extraction(self):
        # x^-2*y + x^-1 is y + x up to the monomial unit x^-2
        p = MultiPoly(2, {(-2, 1): 1, (-1, 0): 1})
        assert p.evaluate([2, 3]) == p.evaluate([F(2), F(3)]) == F(5, 4)
        assert p.monomial_content() == (-2, 0)
        q = p.strip_monomial_content()
        assert q.terms == {(0, 1): F(1), (1, 0): F(1)}

    def test_monomial_content(self):
        p = parse("x^2*y + x*y^2", ["x", "y"])
        assert p.monomial_content() == (1, 1)
        assert p.strip_monomial_content() == parse("x + y", ["x", "y"])
