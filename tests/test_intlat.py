"""Tests of intlat: the fraction-free echelon form and its kernel against
sympy's RREF (skipped when sympy is absent), RationalMatrix rank, kernel,
inverse and determinant against sympy, property tests of the Hermite normal
form, the integer kernel and row saturation, and oracles for the last two:
the saturated sympy nullspace and the integer points of the row span."""

import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from torion.exactnum import RationalMatrix
from torion.intlat import echelon, echelon_kernel, hnf, int_kernel, \
    saturate_rows


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
