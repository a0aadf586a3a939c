"""Content normalization against a reference transcription.

`intlat.clear_denominators` and `intlat.primitive_vector` are the one
"rationals -> coprime integers" decision: `MultiPoly.content`, the Groebner
kernel's `_to_int_poly` and `_normalize`, and `echelon`'s final rows use
them or the same `math.gcd`/`math.lcm` step.  The `_ref_*` functions below
keep the earlier, separately coded gcd/lcm loops (and `echelon` with its
own final normalization); these tests check that every current version
returns the same values, of the same types, on ints mixed with Fractions,
negatives, zero entries and empty input.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from torion import groebner, intlat
from torion.multipoly import MultiPoly


# ---------------------------------------------------------------------------
# reference transcription
# ---------------------------------------------------------------------------

def _ref_primitive_vector(v):
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    if g == 0:
        return None
    v = tuple(x // g for x in v)
    for x in v:
        if x:
            return v if x > 0 else tuple(-y for y in v)
    return None


def _ref_clear_denominators(row):
    l = 1
    for x in row:
        x = Fraction(x)
        l = l * x.denominator // math.gcd(l, x.denominator)
    ints = [int(Fraction(x) * l) for x in row]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _ref_content(p):
    if not p.terms:
        return Fraction(1)
    num = 0
    den = 1
    for c in p.terms.values():
        num = math.gcd(num, abs(c.numerator))
        den = den * c.denominator // math.gcd(den, c.denominator)
    return Fraction(num, den)


def _ref_to_int_poly(p):
    c = _ref_content(p)
    num, den = c.numerator, c.denominator
    return {e: v.numerator // num * (den // v.denominator)
            for e, v in p.terms.items()}


def _ref_normalize(p):
    if not p:
        return p
    g = 0
    for c in p.values():
        g = math.gcd(g, abs(c))
        if g == 1:
            break
    if g > 1:
        p = {e: c // g for e, c in p.items()}
    if p[max(p)] < 0:
        p = {e: -c for e, c in p.items()}
    return p


def _ref_echelon(rows):
    M = [list(r) for r in rows if any(r)]
    m = len(M)
    n = len(M[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        prow = M[r]
        a = prow[c]
        for i in range(m):
            b = M[i][c]
            if b and i != r:
                g = math.gcd(a, b)
                ai, bi = a // g, b // g
                new = [ai * x - bi * y for x, y in zip(M[i], prow)]
                g = math.gcd(*new)
                M[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == m:
            break
    form = []
    for row, c in zip(M, pivots):
        g = math.gcd(*row)
        if row[c] < 0:
            g = -g
        form.append(tuple(x // g for x in row))
    return tuple(form), tuple(pivots)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

ints = st.integers(-10**6, 10**6)
mixed = st.one_of(st.just(0), ints,
                  st.fractions(-10**4, 10**4, max_denominator=500),
                  st.integers(-5, 5).map(lambda k: Fraction(k, 6)))
vectors = st.lists(st.one_of(st.just(0), ints), max_size=7)


@st.composite
def polys(draw):
    n = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(
        st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple),
        mixed, max_size=8))
    return MultiPoly(n, terms)


@st.composite
def int_dicts(draw):
    return draw(st.dictionaries(st.integers(0, 500),
                                st.one_of(ints, st.integers(-4, 4)
                                          .map(lambda k: 6 * k)),
                                max_size=10))


def _same(a, b):
    assert a == b
    assert type(a) is type(b)
    if isinstance(a, (tuple, list)):
        assert [type(x) for x in a] == [type(x) for x in b]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(st.lists(mixed, max_size=7))
def test_clear_denominators(values):
    _same(intlat.clear_denominators(values),
          _ref_clear_denominators(values))
    _same(intlat.clear_denominators(tuple(values)),
          _ref_clear_denominators(tuple(values)))


def test_clear_denominators_edges():
    assert intlat.clear_denominators([]) == ()
    assert intlat.clear_denominators([0, Fraction(0)]) == (0, 0)
    assert intlat.clear_denominators([Fraction(-2, 3), 4]) == (-1, 6)


@settings(max_examples=400, deadline=None)
@given(vectors)
def test_primitive_vector(v):
    _same(intlat.primitive_vector(v), _ref_primitive_vector(v))
    _same(intlat.primitive_vector(tuple(v)), _ref_primitive_vector(tuple(v)))


def test_primitive_vector_edges():
    assert intlat.primitive_vector([]) is None
    assert intlat.primitive_vector([0, 0]) is None
    assert intlat.primitive_vector([0, -4, 6]) == (0, 2, -3)


@settings(max_examples=400, deadline=None)
@given(polys())
def test_content_and_int_poly(p):
    _same(p.content(), _ref_content(p))
    got = groebner._to_int_poly(p)
    want = _ref_to_int_poly(p)
    assert got == want
    assert list(got) == list(want)
    assert all(type(c) is int for c in got.values())


@settings(max_examples=400, deadline=None)
@given(int_dicts())
def test_normalize(p):
    got = groebner._normalize(dict(p))
    want = _ref_normalize(dict(p))
    assert got == want
    assert list(got) == list(want)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=5)))
def test_echelon(rows):
    _same(intlat.echelon(rows), _ref_echelon(rows))
