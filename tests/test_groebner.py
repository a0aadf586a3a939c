import heapq
import random
from dataclasses import fields
from fractions import Fraction as F
from itertools import combinations
from operator import add, le, sub

import pytest
from hypothesis import given, settings, strategies as st

from torion import groebner
from torion.groebner import (BUDGET_PROFILES, GREVLEX, Budget, GBStats,
                             Ideal, ResourceExhausted, TermOrder, eliminate,
                             intersect, is_trivial, normal_form, saturate,
                             saturate_by_ideal, saturate_many)
from torion.intlat import clear_denominators, echelon_kernel
from torion.multipoly import MultiPoly, RingMismatch, parse

XY = ["x", "y"]

# the kernel itself, kept before a test replaces it by a spy
BUCHBERGER = groebner._buchberger


def mk(n, *texts):
    names = [f"x{i+1}" for i in range(n)] if n > 2 else XY[:n]
    return Ideal(n, [parse(t, names) for t in texts])


class TestBasis:
    def test_lex_example(self):
        I = Ideal(1, [parse("x^2 - 1", ["x"]), parse("x - 1", ["x"])])
        basis = I.groebner_basis(TermOrder("lex"))
        assert [g.to_string(["x"]) for g in basis] == ["x - 1"]

    def test_unit(self):
        I = Ideal(1, [parse("x", ["x"]), parse("x + 1", ["x"])])
        assert is_trivial(I)

    def test_generators_reduce_to_zero(self):
        I = mk(2, "x^2*y - 1", "x*y^2 - x", "x^3 + y")
        I.groebner_basis()
        for g in I.generators:
            assert normal_form(g, I).is_zero()

    def test_determinism_and_cache(self):
        I = mk(2, "x^2 + y", "x*y - 1")
        b1 = I.groebner_basis()
        b2 = I.groebner_basis()
        assert b1 is b2
        J = mk(2, "x^2 + y", "x*y - 1")
        assert [g.terms for g in J.groebner_basis()] == \
            [g.terms for g in b1]

    def test_univariate_is_monic_gcd(self):
        rng = random.Random(1)
        for _ in range(20):
            from torion.exactnum import UPoly, upoly_gcd

            def rnd():
                return UPoly([rng.randint(-3, 3) for _ in range(4)] + [1])
            p, q = rnd(), rnd()
            I = Ideal(1, [parse(str(p), ["x"]), parse(str(q), ["x"])])
            basis = I.groebner_basis()
            g = upoly_gcd(p, q)
            assert len(basis) == 1
            got = basis[0]
            expect = {(k,): c for k, c in enumerate(g.coeffs) if c != 0}
            assert got.terms == expect


class TestTermOrder:
    def test_repr_names_the_block_size(self):
        assert repr(TermOrder("block", nblock=2)) == \
            "TermOrder('block', perm=None, nblock=2)"
        assert repr(TermOrder("block", perm=(1, 0, 2), nblock=1)) == \
            "TermOrder('block', perm=(1, 0, 2), nblock=1)"
        assert repr(TermOrder("grevlex", nblock=2)) == \
            "TermOrder('grevlex', perm=None)"


class TestInputsInTheQueue:
    def test_unit_before_any_pair(self):
        """x - 1 and x - 2 have the least sugar, so they pop first and the
        second reduces to a constant: the thirty higher-degree generators
        never join and no S-pair is popped."""
        higher = [f"x^{2 + k % 6}*y^{k // 6} + {k}*y - 1" for k in range(30)]
        I = mk(2, "x - 1", "x - 2", *higher)
        assert is_trivial(I)
        stats = I.stats()
        assert stats.pairs == stats.reductions == 0
        assert stats.basis_size == 1

    def test_reducible_input_is_dropped_or_reduced(self):
        """x - 1 joins first; x^2 - 1 and x^2*y - y then reduce to zero
        and are dropped, and y^2 + x joins with its tail x, which the final
        interreduction turns into 1."""
        I = mk(2, "x^2*y - y", "x - 1", "x^2 - 1", "y^2 + x")
        assert [g.to_string(XY) for g in I.groebner_basis()] == \
            ["x - 1", "y^2 + 1"]

    def test_max_pairs_counts_pairs_only(self):
        """Inputs take none of the pair budget: the unit example needs no
        pair at all, and a basis that pops P pairs fits max_pairs = P."""
        higher = [f"x^{k + 2} - y" for k in range(5)]
        assert is_trivial(mk(2, "x - 1", "x - 2", *higher),
                          Budget(max_pairs=0))
        texts = ("x1^2*x2 - x3", "x2^2*x3 - x1", "x3^2*x1 - x2")
        I = mk(3, *texts)
        basis = I.groebner_basis()
        pairs = I.stats().pairs
        assert mk(3, *texts).groebner_basis(
            budget=Budget(max_pairs=pairs)) == basis
        with pytest.raises(ResourceExhausted) as info:
            mk(3, *texts).groebner_basis(budget=Budget(max_pairs=pairs - 1))
        assert info.value.stats.pairs == pairs - 1


class TestNormalForm:
    def test_examples(self):
        assert normal_form(parse("x^2", XY), mk(2, "x")).is_zero()
        nf = normal_form(parse("x + 1", XY), mk(2, "x^2"))
        assert nf == parse("x + 1", XY)

    def test_additivity_of_members(self):
        I = mk(2, "x^2 - y", "y^2 - 1")
        p = parse("(x^2 - y)*(x + 3)", XY)
        q = parse("(y^2 - 1)*y", XY)
        assert normal_form(p, I).is_zero()
        assert normal_form(q, I).is_zero()
        assert normal_form(p + q, I).is_zero()

    @pytest.mark.parametrize("kind", ["grevlex", "lex"])
    def test_exact_remainder_of_a_long_polynomial(self, kind):
        """Reducing y leaves only even coefficients on more than 64 terms,
        so the integer reduction divides out a content of 2 on the way; the
        remainder is still the exact one, with y replaced by 2z."""
        names = ["x", "y", "z"]
        y, z = parse("y", names), parse("z", names)
        tail = MultiPoly(3, {(i, 0, j): F(i + 2 * j + 1)
                             for i in range(9) for j in range(9)})
        p = (y + tail * 2) * F(3, 7)
        rem = normal_form(p, mk(3, "x2 - 2*x3"), TermOrder(kind))
        assert rem == (z + tail) * F(6, 7)


class TestEliminate:
    def test_substitution(self):
        I = mk(2, "x - y^2", "y - 2")
        J = eliminate(I, [0])
        assert [g.to_string(XY) for g in J.generators] == ["x - 4"]

    def test_keep_everything(self):
        I = mk(2, "x - y")
        J = eliminate(I, [0, 1])
        assert [g.to_string(XY) for g in J.generators] == ["x - y"]

    def test_only_kept_variables(self):
        I = mk(3, "x1 - x2^2", "x2 - x3", "x3^2 - 2")
        J = eliminate(I, [0])
        for g in J.generators:
            assert all(e[1] == 0 and e[2] == 0 for e in g.terms)

    def test_unknown_method_raises(self):
        I = mk(2, "x - y^2", "y - 2")
        with pytest.raises(ValueError, match="'lex' or 'block'"):
            eliminate(I, [0], method="blok")

    @pytest.mark.parametrize("method", ["lex", "block"])
    @pytest.mark.parametrize("keep, bad", [([5], 5), ([-1], -1),
                                           ([0, 2], 2)])
    def test_variable_index_out_of_range_raises(self, method, keep, bad):
        I = mk(2, "x - y^2", "y - 2")
        with pytest.raises(ValueError) as info:
            eliminate(I, keep, method=method)
        assert str(info.value) == \
            f"variable index {bad} out of range for 2 variables"

    def test_identity_permutation_shares_the_lex_cache(self,
                                                        buchberger_orders):
        """eliminate(I, [1]) in two variables asks for lex with the
        identity permutation: the basis already cached for plain lex."""
        I = mk(2, "x*y - 1", "x^2 - y")
        lex = I.groebner_basis(TermOrder("lex"))
        runs = list(buchberger_orders)
        assert eliminate(I, [1]).generators == \
            [g for g in lex if all(e[0] == 0 for e in g.terms)]
        assert I.groebner_basis(TermOrder("lex", perm=(0, 1))) is lex
        assert I.groebner_basis(TermOrder("grevlex", perm=(0, 1),
                                          nblock=2)) is I.groebner_basis()
        assert buchberger_orders == runs


class TestSaturate:
    def test_examples(self):
        I = mk(2, "x*y")
        S = saturate(I, parse("y", XY))
        assert [g.to_string(XY) for g in S.generators] == ["x"]
        S2 = saturate(mk(1, "x"), parse("x", ["x"]))
        assert is_trivial(S2)
        # x^2 * 1 already lies in (x^2, xy), so the full saturation is the
        # unit ideal (the single quotient (x^2, xy) : (x) would be (x, y))
        S3 = saturate(mk(2, "x^2", "x*y"), parse("x", XY))
        assert is_trivial(S3)

    def test_contains_original(self):
        I = mk(2, "x^2*y - x", "y^2 - 1")
        S = saturate(I, parse("y", XY))
        for g in I.generators:
            assert normal_form(g, S).is_zero()

    def test_saturation_absorbs_factor(self):
        rng = random.Random(7)
        for _ in range(10):
            I = mk(2, f"x*y - {rng.randint(1, 4)}",
                   f"x^2 + {rng.randint(1, 3)}*y")
            f = parse("x", XY)
            S = saturate(I, f)
            g = parse(f"y^2 + {rng.randint(1, 3)}", XY)
            fg = f * g
            if normal_form(fg, S).is_zero():
                assert normal_form(g, S).is_zero()

    def test_product_as_successive(self):
        I = mk(2, "x^2*y^3")
        S = saturate_many(I, [parse("x", XY), parse("y", XY)])
        assert is_trivial(S)

    def test_saturate_many_of_a_unit_ideal_is_presented_by_1(
            self, monkeypatch):
        """(x*y - 1, x - 2, y - 3) is the unit ideal before any saturation:
        no saturation runs and the result's generators are [1]."""
        monkeypatch.setattr(groebner, "saturate", None)
        S = saturate_many(mk(2, "x*y - 1", "x - 2", "y - 3"),
                          [parse("x", XY), parse("y", XY)])
        assert [g.to_string(XY) for g in S.generators] == ["1"]
        assert S.groebner_basis() == S.generators

    def test_saturate_many_is_presented_by_its_grevlex_basis(self):
        I = mk(2, "x^3*y - x^2", "x*y^2 - y", "x^2 - x*y")
        S = saturate_many(I, [parse("y", XY)])
        assert S.generators == Ideal(2, S.generators).groebner_basis()
        assert S.generators == saturate(I, parse("y", XY)).generators
        assert saturate_many(I, []).generators == I.groebner_basis()

    def test_saturate_starts_from_the_cached_basis(self, monkeypatch):
        """Three generators, a two-member basis: the saturation gets the
        basis and 1 - y*f, three inputs."""
        I = mk(2, "x^2*y - x", "y^2 - 1", "x^2*y^3 - x*y^2")
        raw = saturate(I, parse("y", XY)).groebner_basis()
        assert len(I.groebner_basis()) == 2
        sizes = []
        run = groebner._buchberger
        monkeypatch.setattr(groebner, "_buchberger",
                            lambda n, gens, *a, **kw: sizes.append(len(gens))
                            or run(n, gens, *a, **kw))
        assert saturate(I, parse("y", XY)).groebner_basis() == raw
        assert sizes == [3]

    def test_polynomial_of_another_arity_raises(self):
        """x^2 - y saturated by a variable of a 3-variable ring is an
        error, not a 4-variable computation inside a 3-variable ideal."""
        I = mk(2, "x^2 - y")
        z = MultiPoly.variable(3, 0)
        with pytest.raises(RingMismatch, match="arity mismatch"):
            saturate(I, z)
        with pytest.raises(RingMismatch, match="arity mismatch"):
            saturate(I, MultiPoly.zero(3))
        with pytest.raises(RingMismatch, match="arity mismatch"):
            saturate_many(I, [parse("x", XY), z])
        for gens in ([z], [parse("x", XY), z], [parse("x", XY),
                                                MultiPoly.zero(3)]):
            with pytest.raises(RingMismatch, match="arity mismatch"):
                saturate_by_ideal(I, gens)

    def test_saturate_many_checks_every_arity_first(self):
        """A unit ideal stops the loop before the second polynomial, which
        is still checked."""
        with pytest.raises(RingMismatch):
            saturate_many(mk(2, "x - 1", "x - 2"),
                          [parse("x", XY), MultiPoly.variable(1, 0)])

    def test_saturate_computes_and_caches_the_grevlex_basis(
            self, buchberger_orders):
        expect = mk(2, "x^2*y - x", "y^2 - 1").groebner_basis()
        buchberger_orders.clear()
        I = mk(2, "x^2*y - x", "y^2 - 1", "x^2*y^3 - x*y^2")
        S = saturate(I, parse("y", XY))
        assert buchberger_orders == ["grevlex", "block"]
        assert I._basis_cache[I._cache_key(GREVLEX)] == expect
        assert saturate(I, parse("y", XY)).generators == S.generators
        assert buchberger_orders == ["grevlex", "block", "block"]

    def test_saturate_falls_back_to_the_generators(self, monkeypatch):
        """When the grevlex basis runs out of budget, the block run enters
        by the generators, unseeded."""
        runs = []

        def run(n, gens, order, budget, seeded=0):
            runs.append((order.kind, len(gens), seeded))
            if order.kind == "grevlex":
                raise ResourceExhausted("max_pairs")
            return BUCHBERGER(n, gens, order, budget, seeded=seeded)
        monkeypatch.setattr(groebner, "_buchberger", run)
        I = mk(2, "x^2*y - x", "y^2 - 1", "x^2*y^3 - x*y^2")
        S = saturate(I, parse("y", XY))
        assert runs == [("grevlex", 3, 0), ("block", 4, 0)]
        assert not I._basis_cache
        assert S.generators == _saturate_reference(I, parse("y", XY))

    def test_saturate_many_out_of_budget_raises(self):
        I = mk(3, "x1^2*x2 - x3", "x2^2*x3 - x1", "x3^2*x1 - x2")
        with pytest.raises(ResourceExhausted):
            saturate_many(I, [parse("x1", ["x1", "x2", "x3"])],
                          Budget(max_pairs=1))


def _saturate_many_reference(I, polys):
    """Successive saturation as saturate_many ran it before the unit test
    came first: each saturation from the raw generators, the unit test
    after each one."""
    J = I
    for f in polys:
        J = saturate(Ideal(J.n, J.generators), f)
        if is_trivial(J):
            break
    return J


def _saturate_by_ideal_reference(I, generators):
    """I : (generators)^infinity as the intersection of the saturations by
    the individual nonzero generators."""
    result = I
    for k, f in enumerate(g for g in generators if not g.is_zero()):
        S = saturate(I, f)
        result = S if k == 0 else intersect(result, S)
    return result


class TestSaturateByIdeal:
    # (x + y - 2) * (x - 2, y): the line x + y = 2 and the point (2, 0) on
    # it, where the sum of the generators x - 2 and y vanishes on both
    I = mk(2, "x^2 + x*y - 4*x - 2*y + 4", "x*y + y^2 - 2*y")

    def test_removes_the_components_inside_the_locus(self):
        S = saturate_by_ideal(self.I, [parse("x - 2", XY), parse("y", XY)])
        assert S.groebner_basis() == [parse("x + y - 2", XY)]

    def test_constant_generator(self):
        S = saturate_by_ideal(self.I, [parse("x - 2", XY), parse("3", XY)])
        assert S.groebner_basis() == self.I.groebner_basis()

    def test_laurent_generator(self):
        # x^-1*y^-1*(x - 2) is x - 2 up to a monomial unit
        g = MultiPoly(2, {(0, -1): 1, (-1, -1): -2})
        S = saturate_by_ideal(self.I, [g, parse("y", XY)])
        assert S.groebner_basis() == [parse("x + y - 2", XY)]

    def test_zero_generators(self):
        zero = MultiPoly.zero(2)
        assert saturate_by_ideal(self.I, []) is self.I
        assert saturate_by_ideal(self.I, [zero, zero]) is self.I

    def test_lifted_ideal_is_presented_by_the_cached_basis(
            self, buchberger_orders):
        """With I's grevlex basis cached, I[t] needs no grevlex run: one
        seeded block run saturates it and one eliminates t."""
        I = Ideal(2, self.I.generators)
        I.groebner_basis()
        buchberger_orders.clear()
        S = saturate_by_ideal(I, [parse("x - 2", XY), parse("y", XY)])
        assert buchberger_orders == ["block", "block"]
        assert S.groebner_basis() == [parse("x + y - 2", XY)]

    def test_one_saturation_and_no_intersection(self, monkeypatch):
        calls = []
        real = groebner.saturate
        monkeypatch.setattr(groebner, "saturate",
                            lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(groebner, "intersect", None)
        saturate_by_ideal(self.I, [parse("x - 2", XY), MultiPoly.zero(2),
                                   parse("y", XY), parse("x + y", XY)])
        assert len(calls) == 1


class TestBudgets:
    def test_resource_exhausted(self):
        I = mk(3, "x1^2*x2 - x3", "x2^2*x3 - x1", "x3^2*x1 - x2")
        with pytest.raises(ResourceExhausted):
            I.groebner_basis(budget=Budget(max_pairs=2, max_degree=60,
                                           max_basis=5000))

    def test_exhaustion_carries_counters(self):
        I = mk(3, "x1^2*x2 - x3", "x2^2*x3 - x1", "x3^2*x1 - x2")
        with pytest.raises(ResourceExhausted) as info:
            I.groebner_basis(budget=Budget(max_pairs=2, max_degree=60,
                                           max_basis=5000))
        exc = info.value
        assert exc.stage == "max_pairs"
        assert exc.stats == GBStats(pairs=2, reductions=2, basis_size=5,
                                    max_degree=3, max_coeff_bits=1)
        assert str(exc).startswith("resource budget exhausted: max_pairs 2 (")
        for f in fields(GBStats):
            assert f"{f.name}={getattr(exc.stats, f.name)}" in str(exc)

    def test_degree_limit_counts_the_offending_degree(self):
        I = mk(3, "x1^2*x2 - x3", "x2^2*x3 - x1", "x3^2*x1 - x2")
        with pytest.raises(ResourceExhausted) as info:
            I.groebner_basis(budget=Budget(max_degree=3))
        assert info.value.stage == "max_degree"
        assert info.value.stats.max_degree > 3
        assert info.value.stats.zero_reductions <= \
            info.value.stats.reductions <= info.value.stats.pairs

    def test_field_overflow_raises_instead_of_wrapping(self):
        """max_degree 3 gives 4-bit fields; in lex, reducing the S-pair of
        x1 - x2^3 and x1^2 - 1 rewrites x1^2 as x3^18, past them."""
        I = mk(3, "x1 - x2^3", "x2 - x3^3", "x1^2 - 1")
        with pytest.raises(ResourceExhausted) as info:
            I.groebner_basis(TermOrder("lex"), Budget(max_degree=3))
        exc = info.value
        assert exc.stage == "max_degree"
        assert "field overflow" in str(exc)
        assert exc.stats.pairs >= exc.stats.reductions == 1
        assert I.stats(TermOrder("lex")) is None

    @pytest.mark.parametrize("kind, expect", [
        ("lex", {(0, 82): F(2 ** 40, 3)}),
        ("grevlex", {(41, 0): F(1, 6)}),
    ])
    def test_normal_form_above_the_degree_budget(self, kind, expect):
        """x^40*y^2 modulo x - 2*y^2 with max_degree 3: the fields are sized
        from the input too, so the remainder is still the exact one."""
        I = mk(2, "x - 2*y^2")
        p = parse("x^40*y^2", XY) * F(1, 3)
        rem = normal_form(p, I, TermOrder(kind), Budget(max_degree=3))
        assert rem.terms == expect

    def test_counters_on_success(self):
        I = mk(3, "x1^2*x2 - x3", "x2^2*x3 - x1", "x3^2*x1 - x2")
        assert I.stats() is None
        basis = I.groebner_basis()
        stats = I.stats()
        assert stats.basis_size >= len(basis)
        assert stats.pairs >= stats.reductions >= stats.zero_reductions
        assert stats.seconds >= 0
        assert f"seconds={stats.seconds}" in str(stats)
        assert I.stats(TermOrder("lex")) is None
        again = mk(3, "x1^2*x2 - x3", "x2^2*x3 - x1", "x3^2*x1 - x2")
        again.groebner_basis()
        assert again.stats() == stats  # seconds are not compared

    def test_converted_lex_carries_the_grevlex_counters(self):
        I = mk(3, "x1^2 - x2", "x2^2 - x3", "x3^2 - x1*x2 - 1")
        I.groebner_basis(TermOrder("lex"))
        stats = I.stats(TermOrder("lex"))
        assert stats == I.stats()
        assert stats.seconds >= I.stats().seconds

    def test_handed_over_grevlex_converts_without_counters(
            self, buchberger_orders):
        S = saturate(mk(2, "x^2*y - x", "y^2 - 1"), parse("y", XY))
        runs = list(buchberger_orders)
        assert [g.to_string(XY) for g in S.groebner_basis(
            TermOrder("lex"))] == ["y^2 - 1", "x^2 - x*y"]
        assert buchberger_orders == runs
        assert S.stats(TermOrder("lex")) is None

    def test_positive_dimensional_lex_runs_buchberger(self,
                                                      buchberger_orders):
        I = mk(3, "x1^2 - x2*x3", "x2^2 - x1*x3")
        I.groebner_basis(TermOrder("lex"))
        assert buchberger_orders == ["grevlex", "lex"]
        assert I.stats(TermOrder("lex")) != I.stats()
        for g in I.generators:
            assert normal_form(g, I, TermOrder("lex")).is_zero()

    @pytest.mark.parametrize("max_degree, runs", [
        (8, ["grevlex", "lex"]), (9, ["grevlex"]), (60, ["grevlex"])])
    def test_quotient_dimension_above_the_degree_budget_runs_buchberger(
            self, buchberger_orders, max_degree, runs):
        """x^3 - 1, y^3 - 1 have 9 standard monomials: FGLM only from
        max_degree 9 on; both ways give the same basis."""
        I = mk(2, "x^3 - 1", "y^3 - 1")
        basis = I.groebner_basis(TermOrder("lex"),
                                 Budget(max_degree=max_degree))
        assert [g.to_string(XY) for g in basis] == ["y^3 - 1", "x^3 - 1"]
        assert buchberger_orders == runs

    def test_lex_runs_buchberger_when_grevlex_runs_out(self,
                                                       buchberger_orders):
        """x - y^2, y^3 - 1 is a lex basis already (coprime leads), while
        grevlex needs a second pair."""
        I = mk(2, "x - y^2", "y^3 - 1")
        basis = I.groebner_basis(TermOrder("lex"), Budget(max_pairs=1))
        assert [g.to_string(XY) for g in basis] == ["y^3 - 1", "-y^2 + x"]
        assert buchberger_orders == ["grevlex", "lex"]
        assert I.stats() is None

    def test_seeded_exhaustion_notes_the_seed_skips(self):
        """A seeded block run that runs out of pairs reports the seeded
        pairs it treated without reducing them."""
        I = Ideal(5, cyclic(5))
        I.groebner_basis()
        with pytest.raises(ResourceExhausted) as info:
            saturate(I, MultiPoly.variable(5, 0) + MultiPoly.variable(5, 1),
                     Budget(max_pairs=10))
        skips = info.value.stats.seed_skips
        assert skips > 0 and info.value.stats.pairs == 10
        assert f"seed_skips={skips}, seconds=" in str(info.value)
        assert info.value.untimed.endswith(f"seed_skips={skips})")

    def test_profiles_exist(self):
        assert set(BUDGET_PROFILES) == {"default", "extended", "stretch"}


class TestStabilityMembership:
    def test_quartics_lie_in_surface_ideal(self):
        from torion.crossratio import odd4_stability_conditions, \
            stability_surface_generators
        variables, (f1, f2) = stability_surface_generators()
        I = Ideal(4, [f1, f2])
        P1, P2 = odd4_stability_conditions()
        assert normal_form(P1, I).is_zero()
        assert normal_form(P2, I).is_zero()

    def test_smooth_point_jacobian_rank(self):
        from torion.crossratio import stability_surface_generators
        from torion.exactnum import RationalMatrix
        _, (f1, f2) = stability_surface_generators()
        point = [F(1), F(-1), F(1), F(-1)]
        jac = RationalMatrix([[f.derivative(i).evaluate(point)
                               for i in range(4)] for f in (f1, f2)])
        assert jac.rank() == 2


# ---------------------------------------------------------------------------
# properties of the reduced basis on random small ideals
# ---------------------------------------------------------------------------

@st.composite
def small_ideals(draw, max_gens=3):
    """2-3 variables, generators of degree <= 3 with coefficients in
    [-3, 3]."""
    n = draw(st.integers(2, 3))
    return n, draw(st.lists(small_polys(n), min_size=1, max_size=max_gens))


def small_polys(n):
    mono = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
        lambda e: sum(e) <= 3).map(tuple)
    return st.dictionaries(mono, st.integers(-3, 3), min_size=1,
                           max_size=3).map(lambda t: MultiPoly(n, t))


def draw_order(data, n):
    kind = data.draw(st.sampled_from(["grevlex", "lex", "block"]))
    if kind != "block":
        return TermOrder(kind)
    return TermOrder("block", perm=data.draw(st.permutations(range(n))),
                     nblock=data.draw(st.integers(1, n - 1)))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_packing_is_the_order(data):
    """Packed words compare as order.key does, add as exponents do, and the
    guard test is the componentwise <=, for every order kind and perm."""
    n = data.draw(st.integers(1, 5))
    kind = data.draw(st.sampled_from(["lex", "grevlex", "block"]))
    perm = data.draw(st.none() | st.permutations(range(n)))
    order = TermOrder(kind, perm=perm, nblock=data.draw(st.integers(1, n)))
    exps = st.lists(st.integers(0, 40), min_size=n, max_size=n).map(tuple)
    a, b = data.draw(exps), data.draw(exps)
    packing = groebner._Packing(n, order, sum(a) + sum(b))
    pa, pb = packing.encode(a), packing.encode(b)
    assert (pa < pb) == (order.key(a) < order.key(b))
    assert (pa == pb) == (a == b)
    assert pa + pb == packing.encode(tuple(map(add, a, b)))
    assert packing.decode(pa) == a
    assert ((pb - pa) & packing.guard == 0) == all(map(le, a, b))


@settings(max_examples=150, deadline=None)
@given(small_ideals(), st.data())
def test_basis_is_reduced_and_generates(case, data):
    """Leads are monic and ascending, no term of a member is divisible by
    another member's lead, every S-pair and every generator reduces to 0."""
    n, gens = case
    order = draw_order(data, n)
    I = Ideal(n, gens)
    basis = I.groebner_basis(order)
    leads = [max(g.terms, key=order.key) for g in basis]
    assert [order.key(le) for le in leads] == \
        sorted(order.key(le) for le in leads)
    for g, lg in zip(basis, leads):
        assert g.terms[lg] == 1
        for h, lh in zip(basis, leads):
            if h is not g:
                assert not any(_divides(lh, e) for e in g.terms)
    for (g, lg), (h, lh) in combinations(zip(basis, leads), 2):
        lcm = tuple(map(max, lg, lh))
        s_pair = MultiPoly(n, {tuple(map(sub, lcm, lg)): 1}) * g - \
            MultiPoly(n, {tuple(map(sub, lcm, lh)): 1}) * h
        assert normal_form(s_pair, I, order).is_zero()
    for g in gens:
        assert normal_form(g, I, order).is_zero()


@settings(max_examples=100, deadline=None)
@given(small_ideals(), small_ideals(max_gens=2), st.data())
def test_saturation_carries_its_grevlex_basis(case, other, data):
    """saturate, saturate_by_ideal and intersect hand back the grevlex basis
    of their result, equal to a fresh computation from the result's
    generators."""
    n, gens = case
    f = data.draw(st.sampled_from(
        [MultiPoly.variable(n, i) for i in range(n)] +
        [g for g in other[1] if other[0] == n and not g.is_zero()]))
    I = Ideal(n, gens)
    results = [saturate(I, f),
               saturate_by_ideal(I, [f, MultiPoly.variable(n, n - 1)])]
    if other[0] == n:
        results.append(intersect(I, Ideal(n, other[1])))
    for J in results:
        cached = J._basis_cache[J._cache_key(GREVLEX)]
        assert cached == Ideal(n, J.generators).groebner_basis(GREVLEX)


@settings(max_examples=150, deadline=None)
@given(small_ideals(), st.data())
def test_saturate_by_ideal_is_the_intersection_of_saturations(case, data):
    """One saturation in an extra variable gives the ideal that the
    intersection of the per-generator saturations gives.  Half the time I
    also gets the hypersurface of a combination of the generators as a
    component: a saturation by that combination alone would drop it."""
    n, gens = case
    J = data.draw(st.lists(small_polys(n), min_size=1, max_size=3))
    if data.draw(st.booleans()):
        c = data.draw(st.lists(st.sampled_from([1, -1, 2]),
                               min_size=len(J), max_size=len(J)))
        mix = sum((k * g for k, g in zip(c, J)), MultiPoly.zero(n))
        gens = [g * mix for g in gens]
    I = Ideal(n, gens)
    assert saturate_by_ideal(I, J).groebner_basis() == \
        _saturate_by_ideal_reference(I, J).groebner_basis()


@settings(max_examples=150, deadline=None)
@given(small_ideals(), st.data())
def test_saturating_by_a_disjoint_ideal_changes_nothing(case, data):
    """When I + J = (1), no associated prime of I contains J, so
    I : J^infinity = I: the skip the coset scan takes for a peripheral
    locus that misses the coset family."""
    n, gens = case
    J = data.draw(st.lists(small_polys(n), min_size=1, max_size=3))
    I = Ideal(n, gens)
    if not is_trivial(Ideal(n, gens + J)) or \
            all(g.is_zero() for g in J):
        return
    assert saturate_by_ideal(I, J).groebner_basis() == I.groebner_basis()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.dictionaries(
    st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    max_size=6).map(lambda t: MultiPoly(n, t))))
def test_to_int_poly_is_the_content_quotient(p):
    c = p.content()
    assert groebner._to_int_poly(p) == \
        {e: int(v / c) for e, v in p.terms.items()}


def test_is_trivial_after_saturation_runs_no_buchberger(monkeypatch):
    S = saturate(mk(2, "x^2*y - x", "y^2 - 1"), parse("y", XY))
    T = saturate(mk(2, "x^2", "x*y"), parse("x", XY))

    def forbidden(*args):
        raise AssertionError("Buchberger ran")
    monkeypatch.setattr(groebner, "_buchberger", forbidden)
    assert not is_trivial(S)
    assert is_trivial(T)


@settings(max_examples=100, deadline=None)
@given(small_ideals(max_gens=4), st.data())
def test_basis_ignores_order_repeats_and_scale(case, data):
    """Shuffled, duplicated and rescaled generators give the same reduced
    basis in every order kind."""
    n, gens = case
    order = draw_order(data, n)
    expect = Ideal(n, gens).groebner_basis(order)
    gens = gens + data.draw(st.lists(st.sampled_from(gens), max_size=3))
    gens = data.draw(st.permutations(gens))
    scales = st.sampled_from([F(-1), F(2), F(-3), F(1, 2), F(-5, 3)])
    gens = [g * data.draw(scales) for g in gens]
    assert Ideal(n, gens).groebner_basis(order) == expect


@settings(max_examples=150, deadline=None)
@given(small_ideals(), st.data())
def test_saturate_from_the_cached_basis_is_from_the_generators(case, data):
    """The block run seeded by the grevlex basis gives the saturation that
    the unseeded block run from the generators gives."""
    n, gens = case
    f = data.draw(st.sampled_from([MultiPoly.variable(n, i)
                                   for i in range(n)]) |
                  small_polys(n).filter(lambda p: not p.is_zero()))
    I = Ideal(n, gens)
    assert saturate(I, f).generators == _saturate_reference(I, f)


@settings(max_examples=100, deadline=None)
@given(small_ideals(), st.data())
def test_saturate_many_is_the_old_loop(case, data):
    n, gens = case
    polys = data.draw(st.lists(
        st.sampled_from([MultiPoly.variable(n, i) for i in range(n)]) |
        small_polys(n).filter(lambda p: not p.is_zero()), max_size=3))
    I = Ideal(n, gens)
    assert saturate_many(I, polys).groebner_basis() == \
        _saturate_many_reference(I, polys).groebner_basis()


def test_saturate_many_is_the_old_loop_on_m010_candidates():
    """The coordinate saturations of the first eight M_{0,10} candidates
    without a singleton part (rank two, a few ms each)."""
    from torion import toruscan
    from torion.crossratio import (crossratio_m1, crossratio_m2,
                                   crossratio_m3, m010_system)
    polys = m010_system()
    starts = [toruscan.ExponentSubgroup(m, 9) for m in
              (crossratio_m1(), crossratio_m2(), crossratio_m3())]
    subs = [N for N in toruscan.enumerate_subspaces_multi(polys, starts)
            if not toruscan.has_singleton_part(polys, N)]
    n = polys[0].n
    for N in subs[:8]:
        gens = [q for _, q in toruscan.induced_parts(polys, N)]
        I = Ideal(n, [g.strip_monomial_content() for g in gens])
        used = sorted(set().union(*[g.variables_used() for g in gens]))
        xs = [MultiPoly.variable(n, i) for i in used]
        assert saturate_many(I, xs).generators == \
            _saturate_many_reference(I, xs).groebner_basis()


# ---------------------------------------------------------------------------
# pinned pair order and the FGLM echelon, on classic systems
# ---------------------------------------------------------------------------

def katsura(n):
    """Katsura-n in u0..un, generators in the benchmark's order."""
    def u(i):
        i = abs(i)
        return MultiPoly.variable(n + 1, i) if i <= n else \
            MultiPoly.zero(n + 1)
    first = u(0) - MultiPoly.constant(n + 1, 1)
    for i in range(1, n + 1):
        first = first + u(i) * 2
    out = [first]
    for m in range(n):
        s = MultiPoly.zero(n + 1)
        for l in range(-n, n + 1):
            s = s + u(l) * u(m - l)
        out.append(s - u(m))
    return out


def cyclic(n):
    """Cyclic-n in x0..x(n-1), generators in the benchmark's order."""
    x = [MultiPoly.variable(n, i) for i in range(n)]
    out = []
    for d in range(1, n):
        s = MultiPoly.zero(n)
        for i in range(n):
            t = MultiPoly.constant(n, 1)
            for k in range(d):
                t = t * x[(i + k) % n]
            s = s + t
        out.append(s)
    prod = MultiPoly.constant(n, 1)
    for xi in x:
        prod = prod * xi
    out.append(prod - MultiPoly.constant(n, 1))
    return out


def _counters(stats):
    """Every GBStats counter but seconds, as pairs/coprime_skips/...."""
    return "/".join(str(getattr(stats, f.name)) for f in fields(GBStats)
                    if f.name != "seconds")


def _spy_runs(monkeypatch):
    """The (n, order kind, seeded, counters) of each kernel run during the
    test, in call order."""
    runs = []

    def spy(n, gens, order, budget, seeded=0):
        basis, stats = BUCHBERGER(n, gens, order, budget, seeded=seeded)
        runs.append((n, order.kind, seeded, _counters(stats)))
        return basis, stats
    monkeypatch.setattr(groebner, "_buchberger", spy)
    return runs


def _saturation_inputs(gens, f=None):
    """The integer inputs of the saturation of (gens) by f (default
    x0 + x1) from the generators: each with y prepended, then 1 - y*f."""
    n = (f or gens[0]).n
    f = f or MultiPoly.variable(n, 0) + MultiPoly.variable(n, 1)
    lifted = [groebner._append_variable(g) for g in gens]
    rel = MultiPoly.constant(n + 1, 1) - MultiPoly(
        n + 1, {(1,) + e: c for e, c in f.terms.items()})
    return [groebner._to_int_poly(g) for g in lifted + [rel]]


class TestPinnedPairOrder:
    """The counters of the benchmark computations.  Each is fixed by the
    order in which pairs pop, so a change to the queue or the criteria
    that reorders pairs shows here (a reordered queue can blow up the
    coefficients: see ROADMAP item 1).  The block runs from the generators
    are pinned through direct kernel calls, since eliminate and saturate
    no longer make them."""

    def test_katsura5_grevlex(self):
        I = Ideal(6, katsura(5))
        I.groebner_basis()
        assert _counters(I.stats()) == "231/94/73/64/48/22/6/76/0"

    def test_cyclic5_grevlex(self):
        I = Ideal(5, cyclic(5))
        I.groebner_basis()
        assert _counters(I.stats()) == "703/106/489/108/75/38/8/10/0"

    def test_katsura4_block_run(self):
        _, stats = BUCHBERGER(5, [groebner._to_int_poly(g)
                                  for g in katsura(4)],
                              TermOrder("block", nblock=3),
                              BUDGET_PROFILES["default"])
        assert _counters(stats) == "210/81/87/42/26/21/6/277/0"

    def test_cyclic5_saturation_block_run(self):
        """Saturating by x0 + x1 from the generators, unseeded."""
        _, stats = BUCHBERGER(6, _saturation_inputs(cyclic(5)),
                              TermOrder("block", nblock=1),
                              BUDGET_PROFILES["default"])
        assert _counters(stats) == "1378/272/915/191/144/53/8/10/0"

    def test_katsura4_block_elimination(self, monkeypatch):
        """eliminate by method 'block' runs grevlex only and converts; the
        block basis carries the grevlex counters."""
        runs = _spy_runs(monkeypatch)
        I = Ideal(5, katsura(4))
        eliminate(I, [3, 4], method="block")
        assert runs == [(5, "grevlex", 0, "78/37/15/26/18/13/5/34/0")]
        assert I.stats(TermOrder("block", nblock=3)) == I.stats()

    def test_cyclic5_saturation(self, monkeypatch):
        """Saturating by x0 + x1 is the grevlex run and one block run in six
        variables seeded by the twenty grevlex members: their 190 pairs are
        never reduced."""
        runs = _spy_runs(monkeypatch)
        saturate(Ideal(5, cyclic(5)),
                 MultiPoly.variable(5, 0) + MultiPoly.variable(5, 1))
        assert runs == [(5, "grevlex", 0, "703/106/489/108/75/38/8/10/0"),
                        (6, "block", 20, "216/67/104/45/37/29/8/8/190")]


def _fglm_reference(basis, pk, staircase, n, order):
    """The FGLM conversion as it was before the incremental echelon: the
    whole normal-form matrix goes through intlat.echelon_kernel for every
    candidate."""
    target = groebner._Packing(n, order, len(staircase))
    words, vecs, scales = [], [], []
    leads, out = [], []
    heap, seen = [(0, -1, 0)], set()
    while heap:
        t, parent, v = heapq.heappop(heap)
        if t in seen:
            continue
        seen.add(t)
        if any(not (t - le) & target.guard for le in leads):
            continue
        if parent < 0:
            r, scale = groebner._reduce_int({0: 1}, basis, pk)
        else:
            r, scale = groebner._reduce_int(
                {m + pk.units[v]: c for m, c in vecs[parent].items()},
                basis, pk)
            scale *= scales[parent]
        cols = vecs + [r]
        kernel = echelon_kernel([[col.get(m, 0) for col in cols]
                                 for m in staircase], len(cols))
        if not kernel:
            words.append(t)
            vecs.append(r)
            scales.append(scale)
            for i in range(n):
                heapq.heappush(heap, (t + target.units[i], len(vecs) - 1, i))
            continue
        ws, coeffs = zip(*[(w, k * s) for w, k, s in zip(
            words + [t], kernel[0], scales + [scale]) if k])
        ints = clear_denominators(coeffs)
        sign = 1 if ints[-1] > 0 else -1
        leads.append(t)
        out.append((target.decode(t), {target.decode(w): sign * a for w, a
                                       in zip(reversed(ws), reversed(ints))}))
    return out


def _both_fglms(gens, order, budget=BUDGET_PROFILES["default"]):
    """The new and the reference conversion of the ideal of gens to the lex
    order `order`, as lists of (lead, items in order)."""
    n = gens[0].n
    pk, basis = groebner._packed_basis(
        Ideal(n, gens).groebner_basis(GREVLEX, budget), n, GREVLEX, budget)
    staircase = groebner._staircase(basis, pk, n, budget.max_degree)
    assert staircase is not None
    return [[(le, list(p.items())) for le, p in fglm(
        basis, pk, staircase, n, order)]
        for fglm in (groebner._fglm, _fglm_reference)]


def _random_zero_dimensional(rng):
    """2-4 variables, x_i^d_i plus lower-degree terms for each variable:
    grevlex has a pure power of each variable and the quotient has
    dimension d_1 * ... * d_n (Bezout, no zero at infinity)."""
    n = rng.randint(2, 4)

    def lower(degree):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = [0] * n
            for _ in range(rng.randint(0, degree)):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = F(rng.randint(-5, 5), rng.randint(1, 3))
        return MultiPoly(n, terms)
    gens = []
    for i in range(n):
        d = rng.randint(1, 3 if n < 4 else 2)
        power = MultiPoly.variable(n, i)
        for _ in range(d - 1):
            power = power * MultiPoly.variable(n, i)
        gens.append(power + lower(d - 1))
    return gens, lower


class TestIncrementalFglm:
    @pytest.mark.parametrize("name, gens, budget", [
        ("katsura-4", katsura(4), "default"),
        ("katsura-5", katsura(5), "default"),
        ("cyclic-5", cyclic(5), "extended"),
    ])
    def test_classic_systems(self, name, gens, budget):
        new, old = _both_fglms(gens, TermOrder("lex"),
                               BUDGET_PROFILES[budget])
        assert new == old

    @pytest.mark.parametrize("seed", range(30))
    def test_random_zero_dimensional_ideals(self, seed):
        """x_i^d_i plus lower-degree terms for each variable, under a
        random lex permutation: grevlex has a pure power of each variable
        and the quotient has dimension d_1 * ... * d_n (Bezout, no zero at
        infinity).  Every sixth ideal gets one more random generator,
        which mostly makes it the unit ideal."""
        rng = random.Random(seed)
        gens, lower = _random_zero_dimensional(rng)
        n = len(gens)
        if seed % 6 == 0:
            gens.append(lower(2))
        perm = list(range(n))
        rng.shuffle(perm)
        new, old = _both_fglms(gens, TermOrder("lex", perm=perm))
        assert new == old


# ---------------------------------------------------------------------------
# the seeded saturation and block bases by FGLM against the block runs
# they replace
# ---------------------------------------------------------------------------

def _saturate_reference(I, f):
    """I : f^infinity as saturate computed it before it entered by the
    grevlex basis: the members free of y of one unseeded block run on I's
    generators and 1 - y*f, monic."""
    raw, _ = BUCHBERGER(I.n + 1, _saturation_inputs(I.generators, f),
                        TermOrder("block", nblock=1),
                        BUDGET_PROFILES["default"])
    return [MultiPoly(I.n, {e[1:]: F(c, p[le]) for e, c in p.items()})
            for le, p in raw if not le[0]]


def _block_reference(I, order, budget=BUDGET_PROFILES["default"]):
    """The reduced basis in the block order `order` as Ideal.groebner_basis
    computed it before FGLM: one Buchberger run on the generators."""
    raw, _ = BUCHBERGER(I.n, [groebner._to_int_poly(g)
                              for g in I.generators], order, budget)
    return [MultiPoly(I.n, {e: F(c, p[le]) for e, c in p.items()})
            for le, p in raw]


def _random_block_order(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return TermOrder("block", perm=perm, nblock=rng.randint(1, n - 1))


@settings(max_examples=150, deadline=None)
@given(small_ideals(), st.data())
def test_block_basis_after_grevlex_is_the_block_run(case, data):
    """With the grevlex basis cached, a block basis (random split and
    permutation) is converted by FGLM when the ideal is zero-dimensional
    and run by Buchberger otherwise; either way it is the block run's."""
    n, gens = case
    order = TermOrder("block", perm=data.draw(st.permutations(range(n))),
                      nblock=data.draw(st.integers(1, n - 1)))
    I = Ideal(n, gens)
    I.groebner_basis()
    assert I.groebner_basis(order) == _block_reference(I, order)


@pytest.mark.parametrize("seed", range(30))
def test_zero_dimensional_block_bases_by_fglm(seed, buchberger_orders):
    """Random zero-dimensional ideals (every sixth one mostly the unit
    ideal), random block splits and permutations: the block basis, and
    eliminate by method 'block', take only the grevlex run and equal the
    block run's basis and its members free of the eliminated variables."""
    rng = random.Random(seed)
    gens, lower = _random_zero_dimensional(rng)
    n = len(gens)
    if seed % 6 == 0:
        gens.append(lower(2))
    order = _random_block_order(rng, n)
    I = Ideal(n, gens)
    I.groebner_basis()
    assert I.groebner_basis(order) == _block_reference(I, order)
    eliminated = order.perm[:order.nblock]
    J = eliminate(Ideal(n, gens), order.perm[order.nblock:],
                  method="block")
    assert buchberger_orders == ["grevlex", "grevlex"]
    elimination = TermOrder("block", perm=sorted(eliminated) + sorted(
        order.perm[order.nblock:]), nblock=order.nblock)
    assert J.generators == [
        g for g in _block_reference(I, elimination)
        if not any(e[i] for e in g.terms for i in eliminated)]


@pytest.mark.parametrize("seed", range(20))
def test_seeded_saturation_of_zero_dimensional_ideals(seed):
    rng = random.Random(100 + seed)
    gens, lower = _random_zero_dimensional(rng)
    f = lower(2)
    if f.is_zero():
        f = MultiPoly.variable(len(gens), 0)
    I = Ideal(len(gens), gens)
    assert saturate(I, f).generators == _saturate_reference(I, f)


def test_a_seeded_input_reduced_before_it_joins_pairs_as_usual():
    """y^2 and 2*x^3 - y - 1 form a grevlex basis, but x pops first and
    reduces 2*x^3 - y - 1 to y + 1: its pair with y^2 must then be reduced,
    and it gives the unit ideal.  Only the pairs of seeded inputs that
    joined unchanged are skipped, here none."""
    seeds = [parse("y^2", XY), parse("2*x^3 - y - 1", XY)]
    assert Ideal(2, seeds).groebner_basis() == [parse("y^2", XY),
                                                 parse("x^3 - 1/2*y - 1/2",
                                                       XY)]
    ints = [groebner._to_int_poly(g) for g in seeds + [parse("x", XY)]]
    default = BUDGET_PROFILES["default"]
    basis, stats = BUCHBERGER(2, ints, GREVLEX, default, seeded=2)
    assert basis == [((0, 0), {(0, 0): 1})]
    assert stats.seed_skips == 0
    unseeded, plain = BUCHBERGER(2, ints, GREVLEX, default)
    assert (basis, _counters(stats)) == (unseeded, _counters(plain))


def test_seeded_inputs_that_join_unchanged_skip_their_pairs():
    """Three grevlex members and one more input: the three pairs of the
    members are treated when they join, and the basis is the unseeded
    run's."""
    seeds = mk(2, "x^2 - y", "x*y - 1").groebner_basis()
    assert len(seeds) == 3
    ints = [groebner._to_int_poly(g) for g in seeds + [parse("y^3 + x",
                                                             XY)]]
    default = BUDGET_PROFILES["default"]
    seeded, stats = BUCHBERGER(2, ints, GREVLEX, default, seeded=3)
    assert stats.seed_skips == 3
    assert seeded == BUCHBERGER(2, ints, GREVLEX, default)[0]


class TestClassicSystemsAgainstTheBlockRuns:
    @pytest.mark.parametrize("name, gens, f", [
        ("cyclic-5", cyclic(5), "x1 + x2"),
        ("cyclic-5", cyclic(5), "x3"),
        ("katsura-4", katsura(4), "x1"),
        ("katsura-4", katsura(4), "x2 + x3 - 1"),
    ])
    def test_saturation(self, name, gens, f):
        n = gens[0].n
        f = parse(f, [f"x{i + 1}" for i in range(n)])
        I = Ideal(n, gens)
        assert saturate(I, f).generators == _saturate_reference(I, f)

    @pytest.mark.parametrize("seed", range(4))
    def test_katsura4_block_bases(self, seed, buchberger_orders):
        order = _random_block_order(random.Random(seed), 5)
        I = Ideal(5, katsura(4))
        I.groebner_basis()
        assert I.groebner_basis(order) == _block_reference(I, order)
        assert buchberger_orders == ["grevlex"]

    def test_cyclic5_block_basis(self, buchberger_orders):
        """The quotient has dimension 70, past the default max_degree, so
        FGLM needs the extended budget."""
        extended = BUDGET_PROFILES["extended"]
        order = TermOrder("block", perm=(4, 0, 1, 2, 3), nblock=1)
        I = Ideal(5, cyclic(5))
        I.groebner_basis()
        assert I.groebner_basis(order, extended) == \
            _block_reference(I, order, extended)
        assert buchberger_orders == ["grevlex"]
