import random
import re
from functools import reduce
from operator import mul
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from torion.exactnum import rational
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

    @pytest.mark.parametrize("text", ["x^4/2", "x^6/3 + y", "x^3/2"])
    def test_exponent_is_an_integer_literal(self, text):
        # 4/2 is the integer 2 as a rational, but not as an exponent
        with pytest.raises(PolySyntaxError, match=re.escape(
                "integer exponent expected (at position 2)")):
            parse(text, XYZ)

    @pytest.mark.parametrize("text, want", [
        ("x - x + y", "y"), ("x + y - x", "y"), ("2x - (x + x)", "0")])
    def test_cancellation_inside_one_line(self, text, want):
        p = parse(text, XYZ)
        assert p == parse(want, XYZ)
        assert all(p.terms.values())

    def test_nesting_depth_is_limited(self):
        # 200 levels parse; the 201st opening parenthesis is bad input, at
        # its position, however deep the text goes on
        assert parse("(" * 200 + "x" + ")" * 200, XYZ) == parse("x", XYZ)
        # depth, not the count of parentheses: 300 side by side parse
        assert parse("(x)" * 300, XYZ) == parse("x^300", XYZ)
        for depth in (201, 600, 5000):
            with pytest.raises(PolySyntaxError, match=re.escape(
                    "nesting too deep (at position 200)")):
                parse("(" * depth + "x" + ")" * depth, XYZ)
        with pytest.raises(PolySyntaxError, match=re.escape(
                "nesting too deep (at position 201)")):
            parse("-" + "(" * 201 + "x", XYZ)

    def test_round_trip_of_four_thousand_terms(self):
        rng = random.Random(26)
        terms = {}
        while len(terms) < 4000:
            e = tuple(rng.randint(0, 12) for _ in NAMES)
            terms[e] = F(rng.choice([-1, 1]) * rng.randint(1, 99),
                         rng.randint(1, 30))
        p = MultiPoly(4, terms)
        q = parse(p.to_string(NAMES), NAMES)
        assert q == p
        assert all(type(c) is F for c in q.terms.values())


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


# ---------------------------------------------------------------------------
# the token-by-token parser that the one-pass parser replaced, kept as the
# reference: one MultiPoly per token, general products, a copy of the
# running sum per term
# ---------------------------------------------------------------------------

class _ReferenceTokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def next_token(self):
        ch = self.peek()
        if ch is None:
            return None, self.pos
        start = self.pos
        if ch in "+-*^()":
            self.pos += 1
            return ch, start
        if ch.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            if j < len(self.text) and self.text[j] == "/":
                k = j + 1
                while k < len(self.text) and self.text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise PolySyntaxError("malformed rational", j)
                j = k
            tok = self.text[start:j]
            self.pos = j
            try:
                return rational(tok), start
            except ValueError as exc:
                raise PolySyntaxError(str(exc), start) from None
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or
                                          self.text[j] == "_"):
                j += 1
            tok = self.text[self.pos:j]
            self.pos = j
            return ("var", tok), start
        raise PolySyntaxError(f"unexpected character {ch!r}", self.pos)


class _ReferenceParser:
    def __init__(self, text, variables):
        self.toks = []
        tz = _ReferenceTokenizer(text)
        while True:
            tok, pos = tz.next_token()
            if tok is None:
                break
            self.toks.append((tok, pos))
        self.i = 0
        self.variables = list(variables)
        self.n = len(self.variables)

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def pos(self):
        return self.toks[self.i][1] if self.i < len(self.toks) else \
            (self.toks[-1][1] + 1 if self.toks else 0)

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def parse(self):
        p = self.expr()
        if self.i != len(self.toks):
            raise PolySyntaxError("trailing input", self.pos())
        return p

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        p = self.term() * sign
        while self.peek() in ("+", "-"):
            op, _ = self.take()
            sign = 1 if op == "+" else -1
            while self.peek() in ("+", "-"):
                if self.take()[0] == "-":
                    sign = -sign
            p = p + self.term() * sign
        return p

    def term(self):
        p = self.power()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
                p = p * self.power()
            elif nxt == "(" or isinstance(nxt, tuple) or \
                    isinstance(nxt, F):
                p = p * self.power()
            else:
                return p

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            neg = False
            while self.peek() in ("+", "-"):
                if self.take()[0] == "-":
                    neg = not neg
            tok, pos = self.take() if self.peek() is not None else \
                (None, self.pos())
            if not isinstance(tok, F) or tok.denominator != 1:
                raise PolySyntaxError("integer exponent expected", pos)
            k = int(tok) * (-1 if neg else 1)
            if k < 0:
                raise PolySyntaxError("negative exponent", pos)
            return base ** k
        return base

    def atom(self):
        tok = self.peek()
        pos = self.pos()
        if tok is None:
            raise PolySyntaxError("unexpected end of input", pos)
        if tok == "(":
            self.take()
            p = self.expr()
            if self.peek() != ")":
                raise PolySyntaxError("missing closing parenthesis",
                                      self.pos())
            self.take()
            return p
        if isinstance(tok, F):
            self.take()
            return MultiPoly.constant(self.n, tok)
        if isinstance(tok, tuple) and tok[0] == "var":
            self.take()
            name = tok[1]
            if name not in self.variables:
                raise UnknownVariable(f"unknown variable {name!r}")
            return MultiPoly.variable(self.n, self.variables.index(name))
        raise PolySyntaxError(f"unexpected token {tok!r}", pos)


def reference_parse(text, variables):
    return _ReferenceParser(text, variables).parse()


def _random_expression(rng, depth=0):
    """Signed terms of factors: numbers, rationals, declared and undeclared
    names, parenthesised sums, each maybe raised to a (signed) power, in
    explicit and implicit products, with random whitespace between tokens
    (none where two words would run together)."""
    toks = []
    for i in range(rng.randint(1, 3)):
        signs = [rng.choice("+-") for _ in range(rng.choice([0, 0, 1, 2]))]
        if i and not signs:
            signs = [rng.choice("+-")]
        toks += signs
        for j in range(rng.randint(1, 3)):
            if j:
                toks += rng.choice([["*"], [], []])
            kind = rng.random()
            if kind < 0.3:
                toks.append(str(rng.randint(0, 12)))
            elif kind < 0.4:
                toks.append(f"{rng.randint(0, 9)}/{rng.randint(1, 9)}")
            elif kind < 0.8 or depth >= 2:
                toks.append(rng.choice(["x", "y", "z", "x1", "_t"] * 5 + ["w"]))
            else:
                toks += ["("] + _random_expression(rng, depth + 1) + [")"]
            if rng.random() < 0.3:
                toks += ["^"] + rng.choice([[], [], ["+"], ["-"], ["-", "-"]])
                toks.append(str(rng.randint(0, 3)))
    return toks


def _join(rng, toks):
    out = toks[0]
    for a, b in zip(toks, toks[1:]):
        word = (a[-1].isalnum() or a[-1] == "_") and \
            (b[0].isalnum() or b[0] == "_")
        out += rng.choice([" ", "  ", "\t"] if word else ["", "", " ", "\n"])
        out += b
    return out


def _outcome(parser, text, names):
    try:
        p = parser(text, names)
    except (PolySyntaxError, UnknownVariable) as exc:
        return type(exc), str(exc)
    return list(p.terms.items())


class TestAgainstReferenceParser:
    """The one-pass parser gives the reference's terms in the reference's
    order, or the same exception class and message.  The one deliberate
    difference: an exponent written p/q (such as x^4/2, which the
    reference read as x^2) is refused."""

    NAMES = ["x", "y", "z", "x1", "_t"]
    P_Q_EXPONENT = re.compile(r"\^[\s+-]*\d+/\d")

    def check(self, text, names=NAMES):
        got = _outcome(parse, text, names)
        want = _outcome(reference_parse, text, names)
        if self.P_Q_EXPONENT.search(text) and got != want:
            assert got[0] is PolySyntaxError, text
            assert "integer exponent expected" in got[1], text
            return got
        assert got == want, text
        if isinstance(got, list):
            assert all(type(c) is F and c for _, c in got), text
        return got

    def test_random_expressions(self):
        rng = random.Random(2026)
        parsed = 0
        for _ in range(3000):
            text = _join(rng, _random_expression(rng))
            parsed += isinstance(self.check(text), list)
        assert parsed > 1500

    def test_corrupted_expressions(self):
        # one character inserted, deleted or replaced: mostly malformed
        rng = random.Random(2027)
        for _ in range(2000):
            text = _join(rng, _random_expression(rng))
            i = rng.randrange(len(text) + 1)
            edit = rng.choice(["+-*^()/ $.,0123x", ""])
            char = rng.choice(edit) if edit else ""
            cut = rng.choice([0, 1])
            self.check(text[:i] + char + text[i + cut:])

    @pytest.mark.parametrize("text", [
        "", " ", "x +", "x^", "x^ ", "x^y", "x^zz", "x^(2)", "x^-2", "x^--2",
        "x^-0", "x^1/2", "x^4/2", "x^-4/2", "2^3", "0^0", "(x - x)^0",
        "1/2^2", "1/", "1/x", "x + 1/0", "0/0", "1/00", "(x + 1", "(x + 1 ",
        "x + 1)", "x)", ")", "*x", "x**2", "x*-y", "x * * y", "x^2^3", "x $ y",
        "x.5", "x,y", "1/2/3", "()", "(())", "( )", "x(", "x()", "^2",
        "x + zz + $", "zz + )", "x + ) + zz", "x y z", "x zz", "2x3y",
        "2(x+1)^3 y", "2 3", "(x+1)(x-1)", "(x+y)^3 - (x-y)^3",
        "(x + 1)(y) x (z - 1)", "+-+-x", "- - (-(x))", "x +\ty\n",
        "٣x", "x²", "1" * 5000, "x^" + "1" * 5000,
    ])
    def test_malformed_and_edge_strings(self, text):
        self.check(text)

    def test_repeated_and_unicode_names(self):
        # a repeated name is its first position; names may be non-ASCII
        self.check("x*y + 2*x^2", ["x", "y", "x"])
        self.check("α^2 - β + 1", ["α", "β"])
