"""Sparse multivariate (Laurent) polynomials over Q.

Monomials are exponent tuples of fixed arity; terms live in a dict keyed by
exponent tuple with nonzero Fraction coefficients.  Printing and support
enumeration use descending graded-lexicographic order so every textual form
is canonical.
"""

from __future__ import annotations

import math
from fractions import Fraction


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
    """Multivariate polynomial, optionally Laurent (negative exponents)."""

    __slots__ = ("n", "laurent", "terms")

    def __init__(self, n: int, terms=None, laurent: bool = False):
        self.n = n
        self.laurent = laurent
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c) if isinstance(c, (int, Fraction)) else c
                if isinstance(c, Fraction) and c == 0:
                    continue
                e = tuple(int(x) for x in e)
                if len(e) != n:
                    raise RingMismatch(f"exponent arity {len(e)} != {n}")
                if not laurent and any(x < 0 for x in e):
                    raise RingMismatch("negative exponent outside Laurent mode")
                self.terms[e] = self.terms.get(e, Fraction(0)) + c
            self.terms = {e: c for e, c in self.terms.items() if c != 0}

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n, laurent=False):
        return cls(n, {}, laurent)

    @classmethod
    def constant(cls, n, c, laurent=False):
        return cls(n, {tuple([0] * n): Fraction(c)}, laurent)

    @classmethod
    def variable(cls, n, i, laurent=False):
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): Fraction(1)}, laurent)

    @classmethod
    def monomial(cls, n, exponents, coeff=1, laurent=False):
        return cls(n, {tuple(exponents): Fraction(coeff)}, laurent)

    # -- ring structure ----------------------------------------------------
    def _check(self, other):
        if not isinstance(other, MultiPoly):
            raise RingMismatch("not a polynomial")
        if other.n != self.n or other.laurent != self.laurent:
            raise RingMismatch("mixed rings")
        return other

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.n, other, self.laurent)
        other = self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = out.get(e, Fraction(0)) + c
            if nc:
                out[e] = nc
            elif e in out:
                del out[e]
        r = MultiPoly(self.n, None, self.laurent)
        r.terms = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = MultiPoly(self.n, None, self.laurent)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.n, other, self.laurent)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly.zero(self.n, self.laurent)
            r = MultiPoly(self.n, None, self.laurent)
            r.terms = {e: c * other for e, c in self.terms.items()}
            return r
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
        r = MultiPoly(self.n, None, self.laurent)
        r.terms = out
        return r

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            if len(self.terms) == 1 and self.laurent:
                (e, c), = self.terms.items()
                inv = MultiPoly(self.n, {tuple(-x for x in e): 1 / c}, True)
                return inv ** (-k)
            raise ValueError("negative power of a non-unit")
        out = MultiPoly.constant(self.n, 1, self.laurent)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.n, other, self.laurent)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.n, self.laurent, self.terms) == \
            (other.n, other.laurent, other.terms)

    def __hash__(self):
        return hash((self.n, self.laurent, frozenset(self.terms.items())))

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

    def coefficient_of(self, exponents):
        return self.terms.get(tuple(exponents), Fraction(0))

    def constant_term(self):
        return self.terms.get(tuple([0] * self.n), Fraction(0))

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
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive_part(self):
        c = self.content()
        return self * (1 / c) if c != 1 else self

    def monomial_content(self):
        """Componentwise min of the support (the largest monomial dividing
        every term; in Laurent mode this is the canonical unit)."""
        if not self.terms:
            return tuple([0] * self.n)
        mins = [min(e[i] for e in self.terms) for i in range(self.n)]
        return tuple(mins)

    def strip_monomial_content(self):
        m = self.monomial_content()
        if not any(m):
            return self
        r = MultiPoly(self.n, None, self.laurent)
        r.terms = {tuple(a - b for a, b in zip(e, m)): c
                   for e, c in self.terms.items()}
        return r

    def as_polynomial(self) -> "MultiPoly":
        """Drop Laurent mode after shifting away negative exponents
        (multiplication by a monomial unit; valid on the torus)."""
        if not self.laurent:
            return self
        mins = [min((e[i] for e in self.terms), default=0) for i in range(self.n)]
        shift = [min(0, m) for m in mins]
        r = MultiPoly(self.n, None, False)
        r.terms = {tuple(a - s for a, s in zip(e, shift)): c
                   for e, c in self.terms.items()}
        return r

    def as_laurent(self) -> "MultiPoly":
        if self.laurent:
            return self
        r = MultiPoly(self.n, None, True)
        r.terms = dict(self.terms)
        return r

    def derivative(self, i: int) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        r = MultiPoly(self.n, None, self.laurent)
        r.terms = out
        return r

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
                    if isinstance(v, Fraction) or isinstance(v, int):
                        v = Fraction(1) / Fraction(v)
                    else:
                        v = 1 / v
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
            raise ValueError("substitute_rational needs polynomial mode")
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

class _Tokenizer:
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
                tok = self.text[self.pos:k]
                self.pos = k
                return Fraction(tok), start
            tok = self.text[self.pos:j]
            self.pos = j
            return Fraction(tok), start
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or
                                          self.text[j] == "_"):
                j += 1
            tok = self.text[self.pos:j]
            self.pos = j
            return ("var", tok), start
        raise PolySyntaxError(f"unexpected character {ch!r}", self.pos)


class _Parser:
    def __init__(self, text, variables, laurent):
        self.toks = []
        tz = _Tokenizer(text)
        while True:
            tok, pos = tz.next_token()
            if tok is None:
                break
            self.toks.append((tok, pos))
        self.i = 0
        self.variables = list(variables)
        self.laurent = laurent
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
                    isinstance(nxt, Fraction):
                # implicit multiplication: "2x", "x y", "2(x+1)"
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
            tok, pos = self.take() if self.peek() is not None else (None, self.pos())
            if not isinstance(tok, Fraction) or tok.denominator != 1:
                raise PolySyntaxError("integer exponent expected", pos)
            k = int(tok) * (-1 if neg else 1)
            if k < 0:
                if not self.laurent:
                    raise PolySyntaxError("negative exponent outside "
                                          "Laurent mode", pos)
                if len(base.terms) != 1:
                    raise PolySyntaxError("negative power of a non-monomial",
                                          pos)
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
                raise PolySyntaxError("missing closing parenthesis", self.pos())
            self.take()
            return p
        if isinstance(tok, Fraction):
            self.take()
            return MultiPoly.constant(self.n, tok, self.laurent)
        if isinstance(tok, tuple) and tok[0] == "var":
            self.take()
            name = tok[1]
            if name not in self.variables:
                raise UnknownVariable(f"unknown variable {name!r}")
            return MultiPoly.variable(self.n, self.variables.index(name),
                                      self.laurent)
        raise PolySyntaxError(f"unexpected token {tok!r}", pos)


def parse(text: str, variables, laurent: bool = False) -> MultiPoly:
    """Parse polynomial text over the given ordered variable names."""
    return _Parser(text, variables, laurent).parse()


def substitute_torus(p: MultiPoly, E):
    """Group the terms of p by the image of their exponent vectors under the
    integer matrix E (rows index torus coordinates): substituting
    z_i = a_i * t^(E column i) turns p into  sum_J p_J(a) * t^J  with
    p_J(a) = sum over E.I = J of b_I a^I.

    Returns [(J, p_J)] sorted by J; the parts partition the support of p.
    """
    r = len(E)
    if any(len(row) != p.n for row in E):
        raise RingMismatch(f"matrix must have {p.n} columns")
    groups = {}
    for e, c in p.terms.items():
        J = tuple(sum(E[i][k] * e[k] for k in range(p.n)) for i in range(r))
        groups.setdefault(J, {})[e] = c
    out = []
    for J in sorted(groups):
        q = MultiPoly(p.n, None, p.laurent)
        q.terms = groups[J]
        out.append((J, q))
    return out


# ---------------------------------------------------------------------------
# golden-file IO: header '# vars: x y z', one polynomial per line
# ---------------------------------------------------------------------------

def read_poly_file(path_or_text, laurent=False):
    """Returns (variables, [MultiPoly]); accepts a path or raw text."""
    import os
    text = path_or_text
    if isinstance(path_or_text, (str, os.PathLike)) and \
            os.path.exists(str(path_or_text)):
        with open(path_or_text) as fh:
            text = fh.read()
    variables = None
    polys = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("vars:"):
                variables = body[len("vars:"):].split()
            continue
        if variables is None:
            raise ValueError("missing '# vars:' header")
        polys.append(parse(line, variables, laurent))
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
