"""Oracle tests for the fraction-free echelon form and its kernel: the
Fraction RREF of RationalMatrix is the reference."""

import math

from hypothesis import given, settings, strategies as st

from torion.exactnum import RationalMatrix
from torion.intlat import echelon, echelon_kernel


@st.composite
def int_matrices(draw):
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    return cols, [draw(st.lists(entry, min_size=cols, max_size=cols))
                  for _ in range(rows)]


def _primitive(row):
    """Scale a rational row to coprime integers, keeping its sign."""
    den = math.lcm(*(x.denominator for x in row))
    ints = [int(x * den) for x in row]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def _q_rank(vectors):
    return RationalMatrix(vectors).rank() if vectors else 0


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_echelon_is_primitive_rref(case):
    cols, rows = case
    form, pivots = echelon(rows)
    if not rows:
        assert form == () and pivots == ()
        return
    R, ref_pivots = RationalMatrix(rows)._rref()
    assert pivots == tuple(ref_pivots)
    # the Fraction RREF has pivot 1, so scaling to coprime integers keeps the
    # pivot positive
    assert form == tuple(_primitive(R[i]) for i in range(len(ref_pivots)))


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_echelon_kernel_matches_rational_kernel(case):
    cols, rows = case
    kern = [list(v) for v in echelon_kernel(rows, cols)]
    rank = RationalMatrix(rows).rank() if rows else 0
    assert len(kern) == cols - rank
    for v in kern:
        assert all(isinstance(x, int) for x in v)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
    ref = RationalMatrix(rows).kernel() if rows else \
        [[int(i == j) for j in range(cols)] for i in range(cols)]
    ref = [list(v) for v in ref]
    # same Q-space: each basis spans the other
    assert _q_rank(kern + ref) == len(ref) == _q_rank(kern)


def test_echelon_is_a_row_space_key():
    a, _ = echelon([[2, 0, 2], [0, 3, 0]])
    b, _ = echelon([[1, 1, 1], [-1, 1, -1], [4, 4, 4]])
    assert a == b == ((1, 0, 1), (0, 1, 0))


def test_kernel_vectors_are_primitive():
    kern = echelon_kernel([[2, 3, 0]], 3)
    assert kern == [(-3, 2, 0), (0, 0, 1)]
    assert echelon_kernel([], 2) == [(1, 0), (0, 1)]
