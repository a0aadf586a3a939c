"""Differential test of the Buchberger engine against sympy's Gröbner bases
on random small ideals from fixed seeds: reduced bases, block elimination
(by Buchberger and by FGLM), saturation, normal forms and lex bases
converted from grevlex by FGLM (skipped when sympy is absent)."""

import random
from fractions import Fraction

import pytest

from torion import groebner
from torion.groebner import (BUDGET_PROFILES, GREVLEX, Ideal, TermOrder,
                             elimination_order, eliminate, normal_form,
                             saturate)
from torion.multipoly import MultiPoly

sympy = pytest.importorskip("sympy")

SEEDS = range(24)


def random_ideal(seed):
    """2-3 variables, 2-3 generators of degree <= 3 with coefficients in
    [-3, 3]."""
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    count = rng.randint(2, 3)
    gens = []
    while len(gens) < count:
        terms = {}
        for _ in range(rng.randint(2, 4)):
            deg = rng.randint(0, 3)
            e = [0] * n
            for _ in range(deg):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = rng.randint(-3, 3)
        p = MultiPoly(n, terms)
        if not p.is_zero():
            gens.append(p)
    return n, gens


def _as_set(polys):
    return {frozenset(p.terms.items()) for p in polys}


def sympy_basis(n, gens, order, syms=None):
    """sympy's reduced basis, each member made monic, as MultiPolys."""
    syms = syms or sympy.symbols(f"x0:{n}")
    polys = [sympy.Poly.from_dict({e: sympy.Rational(c.numerator,
                                                     c.denominator)
                                   for e, c in g.terms.items()}, *syms)
             for g in gens]
    out = []
    for q in sympy.groebner(polys, *syms, order=order).polys:
        lc = q.LC(order=order)
        out.append(MultiPoly(n, {e: Fraction(int(c.p), int(c.q)) / Fraction(
            int(lc.p), int(lc.q)) for e, c in q.as_dict().items()}))
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_reduced_basis_matches_sympy(seed, kind):
    n, gens = random_ideal(seed)
    ours = Ideal(n, gens).groebner_basis(TermOrder(kind))
    assert _as_set(ours) == _as_set(sympy_basis(n, gens, kind))


@pytest.mark.parametrize("seed", SEEDS)
def test_block_elimination_matches_sympy_lex(seed):
    """eliminate(..., method='block') against the members of sympy's lex
    basis free of the eliminated first variable; both are compared through
    their reduced grevlex bases."""
    n, gens = random_ideal(seed)
    keep = list(range(1, n))
    ours = eliminate(Ideal(n, gens), keep, method="block").generators
    lex = sympy_basis(n, gens, "lex")
    kept = [g for g in lex if all(e[0] == 0 for e in g.terms)]
    assert _as_set(Ideal(n, ours).groebner_basis(GREVLEX)) == \
        _as_set(Ideal(n, kept).groebner_basis(GREVLEX))


@pytest.mark.parametrize("seed", SEEDS)
def test_saturation_matches_sympy_lex(seed):
    """saturate, seeded by the grevlex basis, against the members free of y
    of sympy's lex basis of I[y] + (1 - y*f), y compared first, through
    their reduced grevlex bases; f is a variable or the sum of two."""
    n, gens = random_ideal(seed)
    rng = random.Random(500 + seed)
    f = MultiPoly.variable(n, rng.randrange(n))
    if seed % 2:
        f = f + MultiPoly.variable(n, rng.randrange(n))
    ours = saturate(Ideal(n, gens), f).generators
    lifted = [MultiPoly(n + 1, {(0,) + e: c for e, c in g.terms.items()})
              for g in gens]
    rel = MultiPoly.constant(n + 1, 1) - MultiPoly(
        n + 1, {(1,) + e: c for e, c in f.terms.items()})
    kept = [MultiPoly(n, {e[1:]: c for e, c in g.terms.items()})
            for g in sympy_basis(n + 1, lifted + [rel], "lex")
            if all(e[0] == 0 for e in g.terms)]
    assert _as_set(ours) == _as_set(Ideal(n, kept).groebner_basis(GREVLEX))


def random_poly(rng, n, size=5, degree=4):
    """Up to `size` terms of degree <= `degree`, coefficients in [-5, 5]
    over denominators up to 4."""
    terms = {}
    for _ in range(rng.randint(1, size)):
        e = [0] * n
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return MultiPoly(n, terms)


def _to_sympy(p, syms):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator)
         for e, c in p.terms.items()}, *syms)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_normal_form_matches_sympy_reduced(seed, kind):
    """The exact remainder, not rescaled, equals sympy's remainder modulo
    the same reduced basis.  The last polynomial is long enough that the
    integer reduction divides out contents along the way."""
    n, gens = random_ideal(seed)
    I = Ideal(n, gens)
    order = TermOrder(kind)
    syms = sympy.symbols(f"x0:{n}")
    basis = [_to_sympy(g, syms) for g in I.groebner_basis(order)]
    rng = random.Random(1000 + seed)
    for size, degree in [(5, 4)] * 4 + [(120, 7)]:
        p = random_poly(rng, n, size, degree)
        _, ref = sympy.reduced(_to_sympy(p, syms), basis, *syms, order=kind)
        expected = {e: Fraction(int(c.p), int(c.q))
                    for e, c in ref.as_dict().items()}
        assert normal_form(p, I, order).terms == expected


def random_zero_dim_ideal(seed):
    """2-4 variables, n generators of degree <= 2 (<= 3 in two variables)
    with 3-6 terms, drawn again until the grevlex basis has a pure power of
    every variable and is not the unit ideal."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    degree = 3 if n == 2 else 2
    while True:
        gens = [random_poly(rng, n, 6, degree) for _ in range(n)]
        if any(len(g.terms) < 3 for g in gens):
            continue
        basis = Ideal(n, gens).groebner_basis()
        leads = [max(g.terms, key=GREVLEX.key) for g in basis]
        if all(any(0 < sum(e) == e[i] for e in leads) for i in range(n)):
            return n, gens


def sympy_lex(n, gens, perm):
    """sympy's reduced lex basis with the variables compared in the order
    perm, each member made monic, as MultiPolys."""
    syms = sympy.symbols(f"x0:{n}")
    polys = [_to_sympy(g, syms).as_expr() for g in gens]
    out = []
    for q in sympy.groebner(polys, *[syms[i] for i in perm],
                            order="lex").polys:
        lc = Fraction(int(q.LC().p), int(q.LC().q))
        terms = {}
        for e, c in q.as_dict().items():
            x = [0] * n
            for i, k in zip(perm, e):
                x[i] = k
            terms[tuple(x)] = Fraction(int(c.p), int(c.q)) / lc
        out.append(MultiPoly(n, terms))
    return out


def lex_perms(n):
    return [tuple(range(n)), tuple(reversed(range(n))),
            elimination_order(n, [n - 1]).perm]


# the kernel itself, kept before a test replaces it by a spy
BUCHBERGER = groebner._buchberger


@pytest.mark.parametrize("seed", range(40))
def test_fglm_matches_lex_buchberger_and_sympy(seed, buchberger_orders):
    """Lex bases of zero-dimensional ideals come from the grevlex basis by
    FGLM, so only grevlex runs Buchberger, and they equal lex Buchberger's
    (member for member, in its order) and sympy's, for three variable
    orders; the lex counters are the grevlex run's."""
    n, gens = random_zero_dim_ideal(seed)
    buchberger_orders.clear()
    I = Ideal(n, gens)
    ints = [groebner._to_int_poly(g) for g in gens]
    for perm in lex_perms(n):
        order = TermOrder("lex", perm=perm)
        ours = I.groebner_basis(order)
        raw, _ = BUCHBERGER(n, ints, order, BUDGET_PROFILES["default"])
        assert [g.terms for g in ours] == \
            [{e: Fraction(c, p[le]) for e, c in p.items()} for le, p in raw]
        assert _as_set(ours) == _as_set(sympy_lex(n, gens, perm))
        assert I.stats(order) == I.stats(GREVLEX)
    assert buchberger_orders == ["grevlex"]


def test_fglm_unit_ideal(buchberger_orders):
    """The unit ideal converts too: its lex basis is 1 in every order."""
    gens = [MultiPoly(3, {(1, 1, 0): 1, (0, 0, 0): -1}),
            MultiPoly(3, {(1, 0, 0): 1, (0, 0, 1): 2}),
            MultiPoly(3, {(0, 0, 1): 1})]
    I = Ideal(3, gens)
    ints = [groebner._to_int_poly(g) for g in gens]
    for perm in lex_perms(3):
        order = TermOrder("lex", perm=perm)
        ours = I.groebner_basis(order)
        raw, _ = BUCHBERGER(3, ints, order, BUDGET_PROFILES["default"])
        assert [g.terms for g in ours] == [{(0, 0, 0): 1}] == \
            [{e: Fraction(c, p[le]) for e, c in p.items()} for le, p in raw]
        assert _as_set(ours) == _as_set(sympy_lex(3, gens, perm))
    assert buchberger_orders == ["grevlex"]


@pytest.mark.parametrize("seed", range(24))
def test_block_elimination_by_fglm_matches_sympy_lex(seed,
                                                     buchberger_orders):
    """eliminate(..., method='block') of a zero-dimensional ideal converts
    the grevlex basis by FGLM (no block run); a random nonempty set of
    variables is eliminated, and the result is compared with the members
    of sympy's lex basis, eliminated variables first, free of them."""
    n, gens = random_zero_dim_ideal(seed)
    rng = random.Random(700 + seed)
    eliminated = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
    keep = [i for i in range(n) if i not in eliminated]
    buchberger_orders.clear()
    ours = eliminate(Ideal(n, gens), keep, method="block").generators
    assert buchberger_orders == ["grevlex"]
    kept = [g for g in sympy_lex(n, gens, eliminated + keep)
            if not any(e[i] for e in g.terms for i in eliminated)]
    assert _as_set(Ideal(n, ours).groebner_basis(GREVLEX)) == \
        _as_set(Ideal(n, kept).groebner_basis(GREVLEX))
