import random
from fractions import Fraction as F

import pytest

from torion.multipoly import (MultiPoly, PolySyntaxError, RingMismatch,
                              UnknownVariable, data_text, parse,
                              read_poly_file, substitute_torus)

XYZ = ["x", "y", "z"]


class TestParse:
    def test_four_term_cubic(self):
        p = parse("x*y*z + x + y + z", XYZ)
        assert len(p.terms) == 4 and p.total_degree() == 3

    def test_zero(self):
        assert parse("0", XYZ).is_zero()

    def test_negative_exponent_mode(self):
        with pytest.raises(PolySyntaxError):
            parse("x^-1 + 1", XYZ)
        q = parse("x^-1 + 1", XYZ, laurent=True)
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


class TestArith:
    def test_difference_of_squares(self):
        x_plus = parse("x + y", ["x", "y"])
        x_minus = parse("x - y", ["x", "y"])
        assert x_plus * x_minus == parse("x^2 - y^2", ["x", "y"])

    def test_zeroth_power(self):
        assert parse("x + 1", ["x"]) ** 0 == \
            MultiPoly.constant(1, 1)

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

    def test_write_read_round_trip(self, tmp_path):
        from torion.multipoly import write_poly_file
        p = parse("x^2*y - 3*z + 1/2", XYZ)
        path = tmp_path / "t.poly"
        write_poly_file(path, XYZ, [p])
        variables, polys = read_poly_file(str(path))
        assert variables == XYZ and polys == [p]


class TestLaurentNormalization:
    def test_unit_extraction(self):
        p = parse("x^-2*y + x^-1", ["x", "y"], laurent=True)
        q = p.as_polynomial()
        assert q.terms == {(0, 1): F(1), (1, 0): F(1)}

    def test_monomial_content(self):
        p = parse("x^2*y + x*y^2", ["x", "y"])
        assert p.monomial_content() == (1, 1)
        assert p.strip_monomial_content() == parse("x + y", ["x", "y"])
