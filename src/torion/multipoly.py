"""Sparse multivariate Laurent polynomials over Q.

Monomials are integer exponent tuples of fixed arity, negative exponents
included (the parser reads only nonnegative ones); terms live in a dict
keyed by exponent tuple with nonzero Fraction coefficients.  Printing and
support enumeration use descending graded-lexicographic order so every
textual form is canonical.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add

from .exactnum import UPoly, rational


class PolySyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ValueError):
    pass


class RingMismatch(ValueError):
    pass


def _grlex_key(e):
    return (sum(e), e)


class MultiPoly:
    """Multivariate Laurent polynomial: exponents are any integers."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c) if isinstance(c, (int, Fraction)) else c
                if isinstance(c, Fraction) and c == 0:
                    continue
                e = tuple(int(x) for x in e)
                if len(e) != n:
                    raise RingMismatch(f"exponent arity {len(e)} != {n}")
                self.terms[e] = self.terms.get(e, Fraction(0)) + c
            self.terms = {e: c for e, c in self.terms.items() if c != 0}

    # -- constructors ------------------------------------------------------
    @classmethod
    def _raw(cls, n, terms):
        """The polynomial with the dict `terms` itself as its terms, which
        must already be normal: exponent tuples of length n, no zero
        coefficient.  The ring operations build their results this way."""
        p = cls.__new__(cls)
        p.n = n
        p.terms = terms
        return p

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def constant(cls, n, c):
        return cls(n, {tuple([0] * n): Fraction(c)})

    @classmethod
    def variable(cls, n, i):
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): Fraction(1)})

    # -- ring structure ----------------------------------------------------
    def _check(self, other):
        if not isinstance(other, MultiPoly):
            raise RingMismatch("not a polynomial")
        if other.n != self.n:
            raise RingMismatch("mixed rings")
        return other

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.n, other)
        other = self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = out.get(e, Fraction(0)) + c
            if nc:
                out[e] = nc
            elif e in out:
                del out[e]
        return MultiPoly._raw(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly.zero(self.n)
            return MultiPoly._raw(self.n, {e: c * other
                                           for e, c in self.terms.items()})
        other = self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nc = out.get(e, Fraction(0)) + c1 * c2
                if nc:
                    out[e] = nc
                elif e in out:
                    del out[e]
        return MultiPoly._raw(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if len(self.terms) == 1:
            # a single term's power is one term: no repeated products
            (e, c), = self.terms.items()
            return MultiPoly._raw(self.n, {tuple(x * k for x in e): c ** k})
        if k < 0:
            raise ValueError("negative power of a non-unit")
        out = MultiPoly.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.n, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.n, self.terms) == (other.n, other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- inspection ----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def support(self):
        """Exponent vectors, descending graded-lex (deterministic)."""
        return sorted(self.terms, key=_grlex_key, reverse=True)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=None)

    def degree_in(self, i):
        return max((e[i] for e in self.terms), default=None)

    def as_upoly(self, var):
        """The same polynomial as a UPoly in the variable `var`; raises
        ValueError if another variable or a negative power occurs."""
        coeffs = [Fraction(0)] * ((self.degree_in(var) or 0) + 1)
        for e, c in self.terms.items():
            if e[var] < 0 or any(x for i, x in enumerate(e) if i != var):
                raise ValueError("not univariate")
            coeffs[e[var]] = c
        return UPoly(coeffs)

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return used

    def content(self) -> Fraction:
        """Positive rational c with self/c primitive with integer coefficients."""
        if not self.terms:
            return Fraction(1)
        cs = self.terms.values()
        return Fraction(math.gcd(*(c.numerator for c in cs)),
                        math.lcm(*(c.denominator for c in cs)))

    def primitive_part(self):
        c = self.content()
        return self * (1 / c) if c != 1 else self

    def monomial_content(self):
        """Componentwise min of the support: the largest monomial dividing
        every term, the canonical monomial unit."""
        return tuple(map(min, zip(*self.terms))) if self.terms else \
            (0,) * self.n

    def strip_monomial_content(self):
        m = self.monomial_content()
        if not any(m):
            return self
        return MultiPoly._raw(self.n, {tuple(a - b for a, b in zip(e, m)): c
                                       for e, c in self.terms.items()})

    def derivative(self, i: int) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return MultiPoly._raw(self.n, out)

    def evaluate(self, values):
        """Evaluate at a full point; coordinates may be Fraction, float,
        complex, FieldElement or Cyclotomic (anything with ring ops)."""
        if len(values) != self.n:
            raise ValueError("wrong number of values")
        total = None
        for e, c in sorted(self.terms.items(),
                           key=lambda kv: _grlex_key(kv[0]), reverse=True):
            term = c
            for i, k in enumerate(e):
                if k == 0:
                    continue
                v = values[i]
                if k < 0:
                    v = Fraction(1, v) if isinstance(v, int) else 1 / v
                    k = -k
                term = term * v ** k
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def substitute_rational(self, numerators, denominators):
        """Substitute x_i -> numerators[i]/denominators[i] and clear
        denominators: returns the numerator polynomial of the pullback,
        i.e. self(n_i/d_i) * prod d_i^(deg_i self)."""
        degs = [max((e[i] for e in self.terms), default=0) for i in range(self.n)]
        if any(min((e[i] for e in self.terms), default=0) < 0 for i in range(self.n)):
            raise ValueError("substitute_rational needs nonnegative exponents")
        out = MultiPoly.zero(numerators[0].n)
        npow = [[None] * (degs[i] + 1) for i in range(self.n)]
        dpow = [[None] * (degs[i] + 1) for i in range(self.n)]
        for i in range(self.n):
            npow[i][0] = MultiPoly.constant(numerators[i].n, 1)
            dpow[i][0] = MultiPoly.constant(numerators[i].n, 1)
            for k in range(1, degs[i] + 1):
                npow[i][k] = npow[i][k - 1] * numerators[i]
                dpow[i][k] = dpow[i][k - 1] * denominators[i]
        for e, c in self.terms.items():
            term = MultiPoly.constant(numerators[0].n, c)
            for i, k in enumerate(e):
                term = term * npow[i][k] * dpow[i][degs[i] - k]
            out = out + term
        return out

    # -- printing / parsing --------------------------------------------------
    def to_string(self, variables=None):
        if variables is None:
            variables = [f"x{i+1}" for i in range(self.n)]
        if not self.terms:
            return "0"
        parts = []
        for e in self.support():
            c = self.terms[e]
            factors = []
            for i, k in enumerate(e):
                if k == 0:
                    continue
                factors.append(variables[i] if k == 1 else
                               f"{variables[i]}^{k}")
            if not factors:
                body = str(abs(c))
            else:
                mono = "*".join(factors)
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
        first = parts[0]
        out = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        for p in parts[1:]:
            out += " " + p
        return out

    def __repr__(self):
        return f"MultiPoly({self.to_string()})"


# ---------------------------------------------------------------------------
# parser: integers, rationals p/q, + - * ^, parentheses, variables
# ---------------------------------------------------------------------------

# One token per match, after any whitespace: a digit run with an optional
# "/digits" (an empty denominator is an error), a name, or one character.
_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d*)?)|([^\W\d]\w*)|(\S))")

# The parser recurses twice per parenthesis level; deeper input is refused
# as bad input well before Python's default recursion limit of 1000.
_MAX_DEPTH = 200


def _number(text, start):
    """A digit run as an int, p/q as a Fraction; a zero denominator, or more
    digits than int() converts, raises with rational's message."""
    if "/" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    try:
        return rational(text)
    except ValueError as exc:
        raise PolySyntaxError(str(exc), start) from None


class _Parser:
    """Recursive descent over token kinds: "n" a number, "v" a variable (its
    index), "u" an undeclared name, an operator character itself, and "$"
    the end.  A sum is added into one dict in place; numbers and variable
    powers in a product fold into one coefficient and exponent list.
    Parentheses nest at most _MAX_DEPTH deep."""

    def __init__(self, text, variables):
        variables = list(variables)
        index = {}
        for i, name in enumerate(variables):
            index.setdefault(name, i)
        self.n = len(variables)
        self.kinds, self.vals, self.where = kinds, vals, where = [], [], []
        for m in _TOKEN.finditer(text):
            group = m.lastindex
            tok, start = m[group], m.start(group)
            if group == 1:
                if tok[-1] == "/":
                    raise PolySyntaxError("malformed rational", m.end() - 1)
                kinds.append("n")
                vals.append(_number(tok, start))
            elif group == 2:
                kinds.append("v" if tok in index else "u")
                vals.append(index.get(tok, tok))
            elif tok in "+-*^()":
                kinds.append(tok)
                vals.append(None)
            else:
                raise PolySyntaxError(f"unexpected character {tok!r}", start)
            where.append(start)
        kinds.append("$")
        vals.append(None)
        where.append(where[-1] + 1 if where else 0)
        self.i = 0
        self.depth = 0

    def fail(self, message):
        raise PolySyntaxError(message, self.where[self.i])

    def parse(self):
        terms = self.expr()
        if self.kinds[self.i] != "$":
            self.fail("trailing input")
        return MultiPoly._raw(self.n, {e: Fraction(c)
                                       for e, c in terms.items()})

    def expr(self):
        kinds = self.kinds
        acc = {}
        while True:
            sign = 1
            while kinds[self.i] in "+-":
                if kinds[self.i] == "-":
                    sign = -sign
                self.i += 1
            for e, c in self.term(sign):
                if e not in acc:
                    acc[e] = c
                elif s := acc[e] + c:
                    acc[e] = s
                else:
                    del acc[e]
            if kinds[self.i] not in "+-":
                return acc

    def term(self, c):
        """The (exponents, coefficient) pairs of c times a product of
        factors; implicit products such as "2x", "x y", "2(x+1)" included."""
        kinds, vals = self.kinds, self.vals
        e = [0] * self.n
        poly = None
        while True:
            kind = kinds[self.i]
            if kind == "v" or kind == "n":
                val = vals[self.i]
                self.i += 1
                k = self.exponent() if kinds[self.i] == "^" else 1
                if kind == "v":
                    e[val] += k
                else:
                    c *= val ** k
            elif kind == "(":
                if self.depth == _MAX_DEPTH:
                    self.fail("nesting too deep")
                self.depth += 1
                self.i += 1
                q = MultiPoly._raw(self.n, self.expr())
                if kinds[self.i] != ")":
                    self.fail("missing closing parenthesis")
                self.depth -= 1
                self.i += 1
                if kinds[self.i] == "^":
                    q = q ** self.exponent()
                poly = q if poly is None else poly * q
            elif kind == "u":
                raise UnknownVariable(f"unknown variable {vals[self.i]!r}")
            else:
                self.fail("unexpected end of input" if kind == "$" else
                          f"unexpected token {kind!r}")
            kind = kinds[self.i]
            if kind == "*":
                self.i += 1
            elif kind not in "vn(u":
                break
        if not c:
            return ()
        if poly is None:
            return ((tuple(e), c),)
        return [(tuple(map(add, m, e)), a * c) for m, a in poly.terms.items()]

    def exponent(self):
        """The power after "^": signs, then a digit run; p/q is refused."""
        kinds = self.kinds
        self.i += 1
        neg = False
        while kinds[self.i] in "+-":
            neg ^= kinds[self.i] == "-"
            self.i += 1
        k = self.vals[self.i]
        if kinds[self.i] != "n" or type(k) is not int:
            self.fail("integer exponent expected")
        if neg and k:
            self.fail("negative exponent")
        self.i += 1
        return k


def parse(text: str, variables) -> MultiPoly:
    """Parse polynomial text over the given ordered variable names;
    exponents are nonnegative integer literals."""
    return _Parser(text, variables).parse()


# ---------------------------------------------------------------------------
# golden-file IO: header '# vars: x y z', one polynomial per line
# ---------------------------------------------------------------------------

def read_poly_file(text):
    """Parse the text of a polynomial file: returns (variables,
    [MultiPoly]).  A text that never declares its variables is an error,
    also when it holds no polynomial, and so is a second header that
    declares other variables: a polynomial is stored by the positions of
    its variables, so it would rename them silently."""
    variables = None
    polys = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("vars:"):
                declared = body[len("vars:"):].split()
                if variables not in (None, declared):
                    raise ValueError(
                        f"line {lineno}: variables {' '.join(declared)} "
                        f"differ from {' '.join(variables)} in the first "
                        f"'# vars:' header")
                variables = declared
            continue
        if variables is None:
            raise ValueError(f"line {lineno}: missing '# vars:' header")
        try:
            polys.append(parse(line, variables))
        except ValueError as exc:
            exc.args = (f"line {lineno}: {exc}",)
            raise
    if variables is None:
        raise ValueError("missing '# vars:' header")
    return variables, polys


def data_text(name: str) -> str:
    """Text of a polynomial file shipped in the package's data directory."""
    from importlib import resources
    return resources.files("torion.data").joinpath(name).read_text()


def write_poly_file(path, variables, polys):
    with open(path, "w") as fh:
        fh.write("# vars: " + " ".join(variables) + "\n")
        for p in polys:
            fh.write(p.to_string(variables) + "\n")
