"""Tests of intlat: the fraction-free echelon form and its kernel against
sympy's RREF (skipped when sympy is absent), RationalMatrix rank, kernel,
inverse and determinant against sympy, property tests of the Hermite normal
form, the integer kernel and row saturation, and oracles for the last two:
the saturated sympy nullspace and the integer points of the row span.
Row saturation, which reads most lattices off their echelon form, is also
compared with the kernel-of-kernel route on every lattice."""

import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from torion.exactnum import RationalMatrix
from torion.intlat import echelon, echelon_kernel, hnf, int_kernel, \
    saturate_echelon, saturate_rows


@st.composite
def int_matrices(draw):
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    return cols, [draw(st.lists(entry, min_size=cols, max_size=cols))
                  for _ in range(rows)]


@st.composite
def rational_matrices(draw, square=False):
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.fractions(-6, 6, max_denominator=5))
    return [draw(st.lists(entry, min_size=cols, max_size=cols))
            for _ in range(rows)]


def _sympy():
    return pytest.importorskip("sympy")


def _fractions(matrix):
    """A sympy matrix as rows of Fractions."""
    return [[Fraction(int(x.p), int(x.q)) for x in matrix.row(i)]
            for i in range(matrix.rows)]


def _rref(rows):
    """sympy's RREF: (rows of Fractions, pivot columns)."""
    sympy = _sympy()
    R, pivots = sympy.Matrix(rows).rref()
    return _fractions(R), pivots


def _primitive(row):
    """Scale a rational row to coprime integers, keeping its sign."""
    den = math.lcm(*(x.denominator for x in row))
    ints = [int(x * den) for x in row]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def _q_rank(vectors):
    return len(_rref(vectors)[1]) if vectors else 0


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_echelon_is_primitive_rref(case):
    cols, rows = case
    form, pivots = echelon(rows)
    if not rows:
        assert form == () and pivots == ()
        return
    R, ref_pivots = _rref(rows)
    assert pivots == tuple(ref_pivots)
    # the RREF has pivot 1, so scaling to coprime integers keeps the pivot
    # positive
    assert form == tuple(_primitive(R[i]) for i in range(len(ref_pivots)))


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_echelon_kernel_matches_rational_kernel(case):
    cols, rows = case
    kern = [list(v) for v in echelon_kernel(rows, cols)]
    rank = _q_rank(rows)
    assert len(kern) == cols - rank
    for v in kern:
        assert all(isinstance(x, int) for x in v)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
    ref = [[Fraction(int(x.p), int(x.q)) for x in v]
           for v in _sympy().Matrix(rows).nullspace()] if rows else \
        [[int(i == j) for j in range(cols)] for i in range(cols)]
    # same Q-space: each basis spans the other
    assert _q_rank(kern + ref) == len(ref) == _q_rank(kern)


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_rational_matrix_rank_and_kernel_match_sympy(rows):
    sympy = _sympy()
    m = RationalMatrix(rows)
    ref = sympy.Matrix(rows)
    assert m.rank() == ref.rank()
    # sympy's nullspace has the same normalization: 1 at the free column, 0
    # at the other free columns
    kern = m.kernel()
    assert all(isinstance(x, Fraction) for v in kern for x in v)
    assert kern == [[Fraction(int(x.p), int(x.q)) for x in v]
                    for v in ref.nullspace()]


@settings(max_examples=100, deadline=None)
@given(rational_matrices(square=True))
def test_rational_matrix_inverse_matches_sympy(rows):
    sympy = _sympy()
    ref = sympy.Matrix(rows)
    if ref.det() == 0:
        with pytest.raises(ZeroDivisionError):
            RationalMatrix(rows).inverse()
        return
    assert RationalMatrix(rows).inverse().entries == _fractions(ref.inv())


def test_echelon_is_a_row_space_key():
    a, _ = echelon([[2, 0, 2], [0, 3, 0]])
    b, _ = echelon([[1, 1, 1], [-1, 1, -1], [4, 4, 4]])
    assert a == b == ((1, 0, 1), (0, 1, 0))


def test_kernel_vectors_are_primitive():
    kern = echelon_kernel([[2, 3, 0]], 3)
    assert kern == [(-3, 2, 0), (0, 0, 1)]
    assert echelon_kernel([], 2) == [(1, 0), (0, 1)]


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_hnf_shape(case):
    _, rows = case
    H = hnf(rows)
    last = -1
    for i, row in enumerate(H):
        c = next(j for j, x in enumerate(row) if x)
        assert c > last
        last = c
        assert row[c] > 0
        assert all(0 <= H[k][c] < row[c] for k in range(i))
    assert len(H) == len(echelon(rows)[1])


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_hnf_is_idempotent_and_keeps_the_lattice(case):
    _, rows = case
    H = hnf(rows)
    assert hnf(H) == H
    assert hnf(rows + [list(r) for r in H]) == H


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_int_kernel_annihilates_and_has_full_size(case):
    cols, rows = case
    ker = int_kernel(rows, cols)
    assert all(sum(a * b for a, b in zip(row, v)) == 0
               for row in rows for v in ker)
    assert len(ker) == cols - len(hnf(rows))
    # the kernel of an integer matrix is saturated
    assert saturate_rows(ker, cols) == hnf(ker)


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_saturation_contains_the_rows_with_the_same_span(case):
    cols, rows = case
    sat = saturate_rows(rows, cols)
    assert hnf([list(r) for r in sat] + rows) == sat
    assert len(sat) == len(hnf(rows))


def _in_lattice(v, H):
    """Membership of v in the row lattice of the Hermite normal form H, by
    clearing the pivots top to bottom."""
    v = list(v)
    for row in H:
        c = next(j for j, x in enumerate(row) if x)
        q, r = divmod(v[c], row[c])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _nullspace(rows, cols):
    """sympy's Q-kernel basis, each vector scaled to coprime integers."""
    if not rows:
        return [tuple(int(i == j) for j in range(cols)) for i in range(cols)]
    return [_primitive([Fraction(int(x.p), int(x.q)) for x in v])
            for v in _sympy().Matrix(rows).nullspace()]


@st.composite
def narrow_int_matrices(draw):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(1, 4))
    entry = st.integers(-4, 4)
    return cols, [draw(st.lists(entry, min_size=cols, max_size=cols))
                  for _ in range(rows)]


@settings(max_examples=60, deadline=None)
@given(narrow_int_matrices())
def test_saturation_holds_every_integer_point_of_the_span(case):
    """Every vector of [-3, 3]^n in the Q-row span (orthogonal to sympy's
    kernel) lies in the saturated lattice."""
    cols, rows = case
    sat = saturate_rows(rows, cols)
    kern = _nullspace(rows, cols)
    for v in product(range(-3, 4), repeat=cols):
        if all(sum(a * b for a, b in zip(v, k)) == 0 for k in kern):
            assert _in_lattice(v, sat), (rows, v)


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_int_kernel_is_the_saturated_nullspace(case):
    """int_kernel spans the saturation of the lattice of sympy's nullspace:
    the same Q-span, primitive (its maximal minors have gcd 1) and holding
    every nullspace vector."""
    sympy = _sympy()
    cols, rows = case
    ker = int_kernel(rows, cols)
    ref = _nullspace(rows, cols)
    assert len(ker) == len(ref)
    if not ker:
        return
    assert _q_rank(ker + ref) == len(ref)
    k = len(ker)
    minors = [sympy.Matrix([[v[c] for c in cs] for v in ker]).det()
              for cs in combinations(range(cols), k)]
    assert math.gcd(*(int(m) for m in minors)) == 1
    H = hnf(ker)
    assert all(_in_lattice(v, H) for v in ref)


@settings(max_examples=100, deadline=None)
@given(rational_matrices(square=True))
def test_det_matches_sympy(rows):
    ref = _sympy().Matrix(rows).det()
    assert RationalMatrix(rows).det() == Fraction(int(ref.p), int(ref.q))


def reference_saturate_rows(rows, n):
    """Row saturation by the kernel-of-kernel route for every lattice: the
    HNF of the integer kernel of the Q-kernel."""
    return hnf(int_kernel(echelon_kernel(rows, n), n))


@st.composite
def lattices(draw):
    """(n, rows) of rank 0..n: a basis that is random or a reduced echelon
    form with unit pivots, each row scaled (so the lattice need not be
    saturated), then integer combinations of the basis and zero rows, in a
    random order."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        pivots = sorted(draw(st.permutations(range(n)))[:k])
        base = []
        for p in pivots:
            row = [0] * n
            row[p] = 1
            for j in range(p + 1, n):
                if j not in pivots:
                    row[j] = draw(entry)
            base.append(row)
    else:
        base = [draw(st.lists(entry, min_size=n, max_size=n))
                for _ in range(k)]
    scale = st.sampled_from([1, 1, 1, -1, 2, 3, -4])
    rows = [[c * x for x in row] for row, c in
            zip(base, draw(st.lists(scale, min_size=k, max_size=k)))]
    for _ in range(draw(st.integers(0, 2))):
        cs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        rows.append([sum(c * row[j] for c, row in zip(cs, base))
                     for j in range(n)])
    rows += [[0] * n] * draw(st.integers(0, 1))
    return n, draw(st.permutations(rows))


@settings(max_examples=1500, deadline=None)
@given(lattices())
def test_saturation_matches_the_kernel_of_kernel_route(case):
    n, rows = case
    assert saturate_rows(rows, n) == reference_saturate_rows(rows, n)
    if rows:
        assert saturate_rows(rows) == reference_saturate_rows(rows, n)


@settings(max_examples=500, deadline=None)
@given(lattices())
def test_saturate_echelon_takes_the_canonical_form(case):
    n, rows = case
    form = echelon(rows)[0]
    assert saturate_echelon(form, n) == reference_saturate_rows(rows, n)


@pytest.mark.parametrize("rows, sat", [
    ([], ()),
    ([[0, 0, 0]], ()),
    ([[0, -4, 6]], ((0, 2, -3),)),
    ([[2, 0, 2], [0, 3, 0]], ((1, 0, 1), (0, 1, 0))),
    # pivots 2: the saturation holds (1, 1, 1) = ((2, 0, 1) + (0, 2, 1))/2
    ([[2, 0, 1], [0, 2, 1]], ((1, 1, 1), (0, 2, 1))),
])
def test_saturation_examples(rows, sat):
    assert saturate_rows(rows, 3) == reference_saturate_rows(rows, 3) == sat


def test_m010_subgroups_are_saturations_of_their_rows():
    """The 554 subspaces of the M_{0,10} search: each basis is the
    kernel-of-kernel saturation of the canonical echelon rows that key its
    Q-span, and the list keeps its (-rank, basis) order."""
    from torion.crossratio import (crossratio_m1, crossratio_m2,
                                   crossratio_m3, m010_system)
    from torion.toruscan import ExponentSubgroup, enumerate_subspaces_multi
    starts = [ExponentSubgroup(m, 9) for m in
              (crossratio_m1(), crossratio_m2(), crossratio_m3())]
    subs = enumerate_subspaces_multi(m010_system(), starts)
    assert len(subs) == 554
    for s in subs:
        assert s.basis == reference_saturate_rows(echelon(s.basis)[0], 9)
    keys = [(-s.rank, s.basis) for s in subs]
    assert keys == sorted(keys)
