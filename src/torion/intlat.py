"""Exact integer linear algebra: Hermite normal form, integer kernels,
saturation of row lattices, and the fraction-free echelon form that keys
Q-row spaces and gives Q-kernels in integers, and the one scaling of
rationals to coprime integers.  Everything is small and dense.
"""

from __future__ import annotations

import math


def hnf(rows):
    """Row Hermite normal form: positive pivots, entries above each pivot
    reduced into [0, pivot); zero rows dropped.  Returns a tuple of tuples."""
    M = [list(r) for r in rows]
    m = len(M)
    n = len(M[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, m):
            while M[i][c] != 0:
                q = M[r][c] // M[i][c]
                M[r] = [a - q * b for a, b in zip(M[r], M[i])]
                M[r], M[i] = M[i], M[r]
        if M[r][c] < 0:
            M[r] = [-a for a in M[r]]
        for i in range(r):
            q = M[i][c] // M[r][c]
            if q:
                M[i] = [a - q * b for a, b in zip(M[i], M[r])]
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in M[:r])


def int_kernel(rows, n=None):
    """Basis of {x in Z^n : M x = 0} for the integer matrix with the given
    rows, in Hermite normal form: the rows of hnf([M^T | I_n]) whose M^T
    part is zero, read in their identity part (Cohen, A Course in
    Computational Algebraic Number Theory, sec. 2.4).  The kernel of an integer
    matrix is automatically saturated."""
    rows = [list(r) for r in rows]
    if n is None:
        n = len(rows[0]) if rows else 0
    m = len(rows)
    aug = [[row[j] for row in rows] + [int(i == j) for i in range(n)]
           for j in range(n)]
    return [h[m:] for h in hnf(aug) if not any(h[:m])]


def saturate_rows(rows, n=None):
    """HNF basis of the saturation of the row lattice (the integer points of
    its Q-span): `saturate_echelon` of its canonical echelon rows."""
    if n is None:
        n = len(rows[0]) if rows else 0
    return saturate_echelon(echelon(rows)[0], n)


def saturate_echelon(form, n):
    """`saturate_rows` of rows given in the canonical form of `echelon`,
    which is not run again.  Those rows already are the saturation's HNF
    basis when there is one row (a primitive vector with a positive pivot)
    or when every pivot entry is 1 (an integer point x of the span is the
    sum of x[p] times the row with pivot p, and the rows are reduced);
    otherwise it is the integer kernel of the Q-kernel."""
    if len(form) <= 1:
        return form
    # a row's pivot is its first nonzero entry
    pivots = [next(i for i, x in enumerate(row) if x) for row in form]
    if all(row[p] == 1 for row, p in zip(form, pivots)):
        return form
    return hnf(int_kernel(_form_kernel(form, pivots, n), n))


def primitive_vector(v):
    """Divide by the gcd; canonical sign: first nonzero entry positive."""
    g = math.gcd(*v)
    if g == 0:
        return None
    if next(filter(None, v)) < 0:
        g = -g
    return tuple([x // g for x in v])


def clear_denominators(values):
    """Scale a sequence of rationals (Fractions or ints) to coprime integers
    with the same signs: divide by the content gcd(numerators) /
    lcm(denominators).  All zeros stay zeros."""
    den = math.lcm(*(x.denominator for x in values))
    g = math.gcd(*(x.numerator for x in values)) or 1
    return tuple([x.numerator // g * (den // x.denominator) for x in values])


def echelon(rows):
    """Reduced row echelon form over Q of an integer matrix, computed without
    fractions.  Gauss-Jordan elimination replaces a row by the integer
    combination a*row - b*pivot_row that clears the pivot column (the
    fraction-free step of Bareiss 1968) and then divides the row by its
    content, where Bareiss divides by the previous pivot; so rows the pivot
    column does not touch need no update.  Each row of the result is scaled
    to coprime integers with a positive pivot, so equal Q-row spaces give
    equal forms: a canonical key.  Zero rows are dropped.  Returns
    (rows, pivot columns) as tuples."""
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
    # a row's pivot is its first nonzero entry
    return tuple(map(primitive_vector, M[:r])), tuple(pivots)


def echelon_kernel(rows, n):
    """Basis of the Q-kernel {x : M x = 0} of an integer matrix with n
    columns, read off its echelon form: one primitive integer vector per
    free column f, positive at f and zero at the other free columns."""
    return _form_kernel(*echelon(rows), n)


def _form_kernel(form, pivots, n):
    """`echelon_kernel` of the rows whose echelon form is (form, pivots)."""
    out = []
    for f in range(n):
        if f in pivots:
            continue
        den = math.lcm(*(row[pc] // math.gcd(row[pc], row[f])
                         for row, pc in zip(form, pivots)))
        v = [0] * n
        v[f] = den
        for row, pc in zip(form, pivots):
            v[pc] = -den * row[f] // row[pc]
        out.append(tuple(v))
    return out
