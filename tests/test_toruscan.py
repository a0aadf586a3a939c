import math
import operator
import random
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from torion import intlat, toruscan
from torion import groebner
from torion.groebner import Budget, Ideal, is_trivial, saturate_by_ideal, \
    saturate_many
from torion.multipoly import MultiPoly, RingMismatch, data_text, parse, \
    read_poly_file, substitute_torus
from torion.toruscan import (CosetCandidate, ExponentSubgroup, ScanOptions,
                             coefficient_variety, coset_lines_for_report,
                             enumerate_subspaces, enumerate_subspaces_multi,
                             has_singleton_part, induced_parts, scan,
                             singleton_free, tier1_candidates,
                             tier2_friend_filter)
from torion.toruscan import _rational_roots_of_univariate

XYZ = ["x", "y", "z"]


class TestExponentSubgroup:
    def test_hnf_canonical_equality(self):
        a = ExponentSubgroup([[2, 0, 2], [0, 1, 0]])
        b = ExponentSubgroup([[1, 0, 1], [1, 1, 1]])
        assert a == b  # same Q-span after saturation

    def test_rank_one_vector(self):
        s = ExponentSubgroup([[-2, 4, -2]])
        assert s.vector() == (1, -2, 1)


class TestEnumerateSubspaces:
    def test_linear_example(self):
        polys = [parse("x + y + 1", ["x", "y"])]
        subs = enumerate_subspaces(polys, ExponentSubgroup.full(2))
        keys = {s.basis for s in subs}
        assert keys == {
            ((1, 0), (0, 1)),
            ((0, 1),),
            ((1, 0),),
            ((1, 1),),
        }

    def test_rank_one_start_is_closed(self):
        polys = [parse("x + y + 1", ["x", "y"]),
                 parse("x*y - 2", ["x", "y"])]
        M = ExponentSubgroup([[1, 1]])
        subs = enumerate_subspaces(polys, M)
        assert subs == [M]


class TestCoefficientVariety:
    def test_cubic_axis_subgroup(self):
        h = parse("x*y*z + x + y + z", XYZ)
        cand = coefficient_variety([h], ExponentSubgroup([[1, 0, 0]]))
        gens = {g.to_string(["a1", "a2", "a3"])
                for g in cand.coefficient_ideal.generators}
        assert gens == {"a1*a2*a3 + a1", "a2 + a3"}
        assert cand.status == "survivor"
        sols = {s for s in cand.cosets}
        assert sols == {(None, F(1), F(-1)), (None, F(-1), F(1))}

    def test_undetermined_note_names_counters(self):
        h = parse("x*y*z + x + y + z", XYZ)
        cand = coefficient_variety([h], ExponentSubgroup([[1, 0, 0]]),
                                   Budget(max_pairs=1))
        assert cand.status == "undetermined"
        assert cand.note.startswith("resource budget exhausted: max_pairs 1")
        assert "pairs=1" in cand.note and "basis_size=" in cand.note

    def test_singleton_pruned(self):
        h = parse("x + y + 1", ["x", "y"])
        cand = coefficient_variety([h], ExponentSubgroup([[1, -1]]))
        assert cand.status == "pruned-singleton"
        # at least one part is a monomial, syntactically
        assert any(len(q.terms) == 1 for _, q in cand.parts)

    def test_trivial_candidate_is_saturated_to_1(self):
        # parts x - 1 and (x - 2)*y: a1 = 1 and a1 = 2 on the torus, a unit
        # ideal before any saturation
        h = parse("x - 1 + x*y - 2*y", ["x", "y"])
        cand = coefficient_variety([h], ExponentSubgroup([[0, 1]]))
        assert cand.status == "trivial-ideal"
        assert [g.to_string(["a1", "a2"])
                for g in cand.saturated_generators] == ["1"]

    def test_whole_variety_is_subgroup(self):
        h = parse("x*y - 1", ["x", "y"])
        cand = coefficient_variety([h], ExponentSubgroup([[1, -1]]))
        assert cand.status == "survivor"
        gens = [g.to_string(["a1", "a2"])
                for g in cand.coefficient_ideal.generators]
        assert gens == ["a1*a2 - 1"]
        assert cand.cosets == ["unresolved"]

    @pytest.mark.parametrize("text,roots,splits", [
        ("(y-1)^2*(y-2)", [1, 2], True),
        ("(y-1)^2*(y^2-2)", [1], False),
        ("(y-1)^3", [1], True),
        ("(y+3)^3*(y-1)^2*(y^2+1)", [-3, 1], False),
    ])
    def test_univariate_splitting(self, text, roots, splits):
        p = parse(text, ["x", "y"])
        assert _rational_roots_of_univariate(p, 1) == (roots, splits)


class TestScan:
    def test_cubic_six_lines(self):
        _, polys = read_poly_file(data_text("coset_cubic.poly"))
        rep = scan(polys)
        lines = set()
        for cand in rep.survivors:
            lines.update(coset_lines_for_report(cand))
        assert lines == {"(t, 1, -1)", "(t, -1, 1)", "(1, t, -1)",
                         "(-1, t, 1)", "(1, -1, t)", "(-1, 1, t)"}
        assert rep.per_rank_counts[3] == 1

    def test_one_dimensional_no_translates(self):
        rep = scan([parse("x - 1", ["x"])])
        assert rep.survivors == []

    def test_survivor_soundness_exact_substitution(self):
        _, polys = read_poly_file(data_text("coset_cubic.poly"))
        rep = scan(polys)
        rng = random.Random(6)
        for cand in rep.survivors:
            e = cand.subgroup.vector()
            for sol in cand.cosets:
                for _ in range(20):
                    t = F(rng.randint(2, 30), rng.randint(1, 7))
                    coords = [
                        (sol[i] if sol[i] is not None else F(1)) * t ** e[i]
                        for i in range(3)]
                    assert polys[0].evaluate(coords) == 0

    def test_determinism_across_threads(self):
        _, polys = read_poly_file(data_text("coset_cubic.poly"))
        r1 = scan(polys, options=ScanOptions(threads=1))
        r2 = scan(polys, options=ScanOptions(threads=2))
        assert r1.to_json_dict() == r2.to_json_dict()

    @staticmethod
    def random_small_polys(seed):
        rng = random.Random(seed)
        for _ in range(12):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                e = (rng.randint(0, 2), rng.randint(0, 2))
                terms[e] = F(rng.choice([-2, -1, 1, 2]))
            p = MultiPoly(2, terms)
            if not (p.is_zero() or p.is_constant()):
                yield p

    def test_brute_force_oracle_small(self):
        """Every (direction, small coefficient) coset that lies in the
        variety is matched by a scan survivor, and vice versa."""
        grid = [F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)]
        for p in self.random_small_polys(8):
            rep = scan([p])
            surviving = {}
            for cand in rep.survivors:
                if cand.subgroup.rank == 1:
                    surviving[cand.subgroup.vector()] = cand
            vectors = set()
            for e1 in range(-3, 4):
                for e2 in range(-3, 4):
                    from torion.intlat import primitive_vector
                    v = primitive_vector((e1, e2))
                    if v:
                        vectors.add(v)
            for v in sorted(vectors):
                parts = substitute_torus(p, [list(v)])
                for a in product(grid, repeat=2):
                    if all(q.evaluate(list(a)) == 0 for _, q in parts):
                        # genuine coset: the scanner must report it
                        assert v in surviving, (p, v, a)
                        cand = surviving[v]
                        gens = cand.coefficient_ideal.generators
                        assert all(g.evaluate(list(a)) == 0 for g in gens)

    def test_constant_peripheral_changes_nothing(self):
        # the constant 2 vanishes nowhere, so saturating by it keeps every
        # candidate exactly as the plain scan classifies it
        two = MultiPoly.constant(2, 2)
        for p in self.random_small_polys(8):
            plain = scan([p])
            saturated = scan([p], peripheral=[two])
            assert [c.status for c in saturated.candidates] == \
                [c.status for c in plain.candidates]
            assert [(c.subgroup, c.cosets) for c in saturated.survivors] == \
                [(c.subgroup, c.cosets) for c in plain.survivors]

    def test_pool_fallback_is_recorded(self, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise OSError("no semaphores")
        _, polys = read_poly_file(data_text("coset_cubic.poly"))
        serial = scan(polys)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        rep = scan(polys, options=ScanOptions(threads=2))
        assert rep.budget_notes == serial.budget_notes + [
            "process pool unavailable (no semaphores); classified serially"]
        assert [c.status for c in rep.candidates] == \
            [c.status for c in serial.candidates]


class TestTierPipeline:
    def setup_method(self):
        _, (self.h,) = read_poly_file(data_text("surface_deg14.poly"))

    def test_anchor_is_grevlex_max(self):
        sup = sorted(self.h.terms,
                     key=lambda e: (sum(e), tuple(-x for x in reversed(e))),
                     reverse=True)
        assert sup[0] == (6, 6, 2)

    def test_tier1_count_antipodal(self):
        cands = tier1_candidates(self.h)
        assert len(cands) == 8796

    def test_tier2_is_the_printed_list(self):
        cands = tier2_friend_filter(self.h, tier1_candidates(self.h))
        assert len(cands) == 51
        expected = {
            (1, 2, 1), (4, -1, -1), (1, 8, -1), (1, -8, 1), (1, -1, 8),
            (1, 1, 6), (2, 1, 1), (0, 1, 0), (8, -1, -1), (6, 1, 1),
            (1, -6, 1), (1, 0, 0), (1, 1, 2), (6, 1, -1), (6, -1, -1),
            (1, 1, 4), (1, -6, -1), (1, -1, 4), (1, 2, -1), (1, -8, -1),
            (1, -1, -6), (1, -1, -8), (1, -1, -4), (1, 8, 1), (4, -1, 1),
            (1, -4, -1), (1, -1, 2), (1, 4, -1), (1, 1, -4), (1, -2, -1),
            (2, -1, 1), (8, 1, 1), (2, -1, -1), (8, -1, 1), (1, 1, -6),
            (1, 1, -2), (1, 6, -1), (4, 1, 1), (1, 1, -8), (1, 4, 1),
            (1, -1, 6), (0, 0, 1), (1, 6, 1), (2, 1, -1), (4, 1, -1),
            (1, -4, 1), (1, -2, 1), (6, -1, 1), (8, 1, -1), (1, 1, 8),
            (1, -1, -2)}
        assert set(cands) == expected

    def test_signed_convention_flag(self):
        signed = tier1_candidates(self.h, antipodal=False)
        folded = tier1_candidates(self.h, antipodal=True)
        assert len(signed) >= len(folded)
        from torion.intlat import primitive_vector
        assert {primitive_vector(v) for v in signed} == set(folded)



# Brute-force references for the tier kernels.  Tier 1 searches all of the
# support for each closing element and takes each cross product and
# primitive vector afresh; tier 2 sums one generator per support element and
# candidate.
def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _tier1_reference(poly, antipodal=True):
    from torion.intlat import primitive_vector
    sup = sorted(poly.terms,
                 key=lambda e: (sum(e), tuple(-x for x in reversed(e))),
                 reverse=True)
    anchor = sup[0]
    out = set()
    for l1p in sup:
        if l1p == anchor:
            continue
        v1 = tuple(a - b for a, b in zip(anchor, l1p))
        l2 = None
        for cand in sup:
            if all(_cross(v1, tuple(a - b for a, b in zip(cand, l2p)))
                   != (0, 0, 0)
                   for l2p in sup if l2p != cand):
                l2 = cand
                break
        if l2 is None:
            raise ValueError("no closing support element exists; the "
                             "anchored pipeline does not apply")
        for l2p in sup:
            if l2p == l2:
                continue
            E = _cross(v1, tuple(a - b for a, b in zip(l2, l2p)))
            if antipodal:
                E = primitive_vector(E)
                if E:
                    out.add(E)
            else:
                g = math.gcd(math.gcd(abs(E[0]), abs(E[1])), abs(E[2]))
                if g:
                    out.add(tuple(x // g for x in E))
    return sorted(out)


def _tier2_reference(poly, candidates):
    out = []
    for E in candidates:
        groups = {}
        for e in poly.terms:
            key = sum(a * b for a, b in zip(e, E))
            groups[key] = groups.get(key, 0) + 1
        if all(v >= 2 for v in groups.values()):
            out.append(E)
    return out


def _random_support_poly(rng):
    size = rng.randint(2, 25)
    sup = set()
    while len(sup) < size:
        sup.add(tuple(rng.randint(0, 5) for _ in range(3)))
    return MultiPoly(3, {e: 1 for e in sup})


class TestTierKernelsDifferential:
    """The tier kernels equal their brute-force references, in order."""

    @pytest.mark.parametrize("antipodal", [True, False])
    def test_random_supports(self, antipodal):
        rng = random.Random(20141)
        raised = 0
        for _ in range(300):
            h = _random_support_poly(rng)
            try:
                expected = _tier1_reference(h, antipodal)
            except ValueError as exc:
                raised += 1
                with pytest.raises(ValueError) as got:
                    tier1_candidates(h, antipodal)
                assert str(got.value) == str(exc)
                continue
            assert tier1_candidates(h, antipodal) == expected
            assert tier2_friend_filter(h, expected) == \
                _tier2_reference(h, expected)
        assert 0 < raised < 300

    def test_surface_deg14(self):
        _, (h,) = read_poly_file(data_text("surface_deg14.poly"))
        cands = tier1_candidates(h)
        assert cands == _tier1_reference(h)
        assert tier2_friend_filter(h, cands) == _tier2_reference(h, cands)

    @pytest.mark.parametrize("antipodal", [True, False])
    def test_no_closing_element(self, antipodal):
        # every element shares its line parallel to (1, 0, 0) or (0, 1, 0)
        # with another, so no element closes the system for any l1'
        h = MultiPoly(3, {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1,
                          (1, 1, 0): 1})
        with pytest.raises(ValueError) as exc:
            _tier1_reference(h, antipodal)
        with pytest.raises(ValueError) as got:
            tier1_candidates(h, antipodal)
        assert str(got.value) == str(exc.value)

    def test_laurent_supports(self):
        # negative exponents, with tier-1 and random candidates of both signs
        rng = random.Random(20142)
        for _ in range(200):
            size = rng.randint(2, 25)
            sup = set()
            while len(sup) < size:
                sup.add(tuple(rng.randint(-5, 5) for _ in range(3)))
            h = MultiPoly(3, {e: 1 for e in sup})
            cands = [tuple(rng.randint(-4, 4) for _ in range(3))
                     for _ in range(20)]
            try:
                cands += tier1_candidates(h, False)
            except ValueError:
                pass
            assert tier2_friend_filter(h, cands) == _tier2_reference(h, cands)

    @pytest.mark.parametrize("scale, width", [(2 ** 14, 32), (2 ** 40, 64)])
    def test_wide_fields(self, scale, width):
        # pairs e, e + (1, -1, 0): every E = (k, k, m) gives each element a
        # friend, so wide candidates are kept as well as rejected
        rng = random.Random(scale)
        sup = set()
        while len(sup) < 30:
            e = tuple(rng.randint(-9, 9) for _ in range(3))
            sup.update((e, (e[0] + 1, e[1] - 1, e[2])))
        h = MultiPoly(3, {e: 1 for e in sup})
        cands = [(scale, scale, -scale + 3), (scale - 1, scale - 1, 7)]
        cands += [tuple(rng.randint(-scale, scale) for _ in range(3))
                  for _ in range(40)]
        span = max(abs(x) for e in sup for x in e) * \
            max(sum(map(abs, E)) for E in cands)
        assert 2 ** (width // 2) <= 2 * span < 2 ** width
        got = tier2_friend_filter(h, cands)
        assert got == _tier2_reference(h, cands)
        assert got[:2] == cands[:2]

    def test_empty_inputs(self):
        h = MultiPoly(3, {(0, 0, 0): 1, (1, 2, 3): 1, (2, 4, 6): 1})
        assert tier2_friend_filter(h, []) == _tier2_reference(h, []) == []
        zero = MultiPoly.zero(3)
        cands = [(1, 0, 0), (0, 1, -1), (5, 3, 2)]
        assert tier2_friend_filter(zero, cands) == \
            _tier2_reference(zero, cands) == cands
        # any iterable: the kernel reads the candidates twice
        cands.append((3, 0, -1))
        assert tier2_friend_filter(h, iter(cands)) == \
            _tier2_reference(h, cands) == [(3, 0, -1)]

    def test_count_rejects_with_friends_at_the_extremes(self):
        # <e, (1, 0, 0)> takes 0 and 2 twice each but 1 once; (0, 0, 1)
        # gives every element the value 0
        h = MultiPoly(3, {(0, 0, 0): 1, (0, 1, 0): 1, (1, 0, 0): 1,
                          (2, 0, 0): 1, (2, 1, 0): 1})
        cands = [(1, 0, 0), (0, 0, 1)]
        assert tier2_friend_filter(h, cands) == \
            _tier2_reference(h, cands) == [(0, 0, 1)]

    def test_beyond_64_bit_fields(self):
        # 2*span = 6 * (2^64 + 5) needs 128-bit fields, unpacked by
        # int.from_bytes; the second candidate gives both elements value 0
        h = MultiPoly(3, {(0, 0, 0): 1, (3, 1, 0): 1})
        cands = [(1, 2 ** 62, 0), (2 ** 62, -3 * 2 ** 62, 5)]
        assert tier2_friend_filter(h, cands) == \
            _tier2_reference(h, cands) == cands[1:]


def _box(a, b, c, shift=(0, 0, 0)):
    return [(x + shift[0], y + shift[1], z + shift[2])
            for x in range(a + 1) for y in range(b + 1) for z in range(c + 1)]


def _simplex(d, shift=(0, 0, 0)):
    return [e for e in _box(d, d, d, shift)
            if sum(e) - sum(shift) <= d]


def _thinned(points, rng, keep):
    return [e for e in points if rng.random() < keep]


# supports with many lattice points on the edges and facets of their Newton
# polytopes, so that many directions take an extreme on a whole edge or facet
_CORNER_SUPPORTS = {
    "box": _box(3, 2, 2),
    "cube": _box(2, 2, 2),
    "slab": _box(4, 3, 0),
    "rod": _box(5, 0, 0),
    "laurent-box": _box(4, 2, 3, (-2, -1, -3)),
    "simplex": _simplex(4),
    "laurent-simplex": _simplex(3, (-1, -2, 0)),
    "thin-box": _thinned(_box(4, 4, 3), random.Random(1), 0.6),
    "thin-simplex": _thinned(_simplex(5), random.Random(2), 0.7),
    "thin-laurent-box": _thinned(_box(4, 4, 4, (-2, -2, -2)),
                                 random.Random(3), 0.5),
    "collinear": [(k, 2 * k, -k) for k in (-3, -1, 0, 1, 2, 5)],
    "coplanar": [(x, y, 3 - x - y) for x in range(-1, 4)
                 for y in range(3) if (x + y) % 3],
    "coplanar-skew": [(x, y, x - 2 * y) for x in range(4) for y in range(3)],
    "one-point": [(2, -1, 3)],
    "two-points": [(0, 0, 0), (2, 4, -2)],
}

_SMALL_DIRECTIONS = [E for E in product(range(-2, 3), repeat=3)
                     if E != (0, 0, 0)]


class TestNewtonCorners:
    """Tier 2 decides the extremes on `_newton_corners`; it equals its
    reference on supports whose extremes are often taken on whole edges
    and facets."""

    @pytest.mark.parametrize("name", sorted(_CORNER_SUPPORTS))
    def test_differential(self, name):
        sup = _CORNER_SUPPORTS[name]
        h = MultiPoly(3, {e: 1 for e in sup})
        cands = list(_SMALL_DIRECTIONS)
        try:
            cands += tier1_candidates(h, False)
        except ValueError:
            pass
        got = tier2_friend_filter(h, cands)
        assert got == _tier2_reference(h, cands)
        if len(sup) > 1:
            assert got, "no direction kept: the extremes go untested"

    def test_differential_keeps_and_rejects(self):
        kept = rejected = 0
        for sup in _CORNER_SUPPORTS.values():
            h = MultiPoly(3, {e: 1 for e in sup})
            got = tier2_friend_filter(h, _SMALL_DIRECTIONS)
            kept += len(got)
            rejected += len(_SMALL_DIRECTIONS) - len(got)
        assert kept > 200 and rejected > 200

    @pytest.mark.parametrize("sup, vertices", [
        (_box(3, 2, 2), set(product((0, 3), (0, 2), (0, 2)))),
        (_box(4, 3, 0), set(product((0, 4), (0, 3), (0,)))),
        (_simplex(4), {(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)}),
        (_CORNER_SUPPORTS["collinear"], {(-3, -6, 3), (5, 10, -5)}),
        ([(2, -1, 3)], {(2, -1, 3)}),
        ([(0, 0, 0), (2, 4, -2)], {(0, 0, 0), (2, 4, -2)}),
    ])
    def test_full_supports_give_the_vertices(self, sup, vertices):
        corners = toruscan._newton_corners(sup)
        assert set(corners) == vertices
        assert corners == [e for e in sup if e in vertices]

    def test_surface_deg14_has_12_corners(self):
        _, (h,) = read_poly_file(data_text("surface_deg14.poly"))
        assert len(h.terms) == 199
        assert len(toruscan._newton_corners(list(h.terms))) == 12

    @settings(max_examples=300, deadline=None)
    @given(sup=st.sets(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1,
                       max_size=30),
           E=st.one_of(st.tuples(*[st.integers(-2, 2)] * 3),
                       st.tuples(*[st.integers(-40, 40)] * 3)))
    def test_extremes_agree_with_the_support(self, sup, E):
        sup = sorted(sup)
        corners = toruscan._newton_corners(sup)
        assert set(corners) <= set(sup)
        on_sup = [sum(map(operator.mul, e, E)) for e in sup]
        on_corners = [sum(map(operator.mul, e, E)) for e in corners]
        for extreme in (max, min):
            m = extreme(on_sup)
            assert extreme(on_corners) == m
            assert (on_corners.count(m) == 1) == (on_sup.count(m) == 1)


class TestTierInputChecks:
    def test_tier1_zero_polynomial(self):
        with pytest.raises(ValueError, match="nonempty support"):
            tier1_candidates(MultiPoly.zero(3))
        with pytest.raises(ValueError, match="nonempty support"):
            scan([MultiPoly.zero(3)], options=ScanOptions(tier_mode=True))

    @pytest.mark.parametrize("n", [2, 4])
    def test_tier2_support_arity(self, n):
        h = MultiPoly(n, {(0,) * n: 1, (1,) + (0,) * (n - 1): 1})
        with pytest.raises(ValueError, match="needs exactly 3 variables"):
            tier2_friend_filter(h, [(1, 0, 0), (0, 1, 0)])
        with pytest.raises(ValueError, match="needs exactly 3 variables"):
            tier2_friend_filter(MultiPoly.zero(n), [])

    @pytest.mark.parametrize("bad", [(1, 0), (1, 0, 0, 0), ()])
    def test_tier2_candidate_arity(self, bad):
        h = MultiPoly(3, {(0, 0, 0): 1, (1, 0, 0): 1})
        message = f"candidate {bad} has {len(bad)} entries, expected 3"
        for poly in (h, MultiPoly.zero(3)):
            with pytest.raises(ValueError) as exc:
                tier2_friend_filter(poly, [(0, 0, 1), bad])
            assert str(exc.value) == message


def _saturating_path(polys, N, peripheral):
    """The saturated coefficient ideal of one stage with every peripheral
    locus saturated, disjoint or not, until the ideal is 1."""
    n = polys[0].n
    gens = [q.strip_monomial_content() for _, q in induced_parts(polys, N)]
    used = sorted(set().union(*[g.variables_used() for g in gens]))
    J = saturate_many(Ideal(n, gens), [MultiPoly.variable(n, i)
                                       for i in used])
    for p in peripheral:
        if is_trivial(J):
            break
        J = saturate_by_ideal(J, [q.strip_monomial_content()
                                  for _, q in induced_parts([p], N)])
    return J


class TestSaturatedScan:
    def test_toy_peripheral(self):
        # variety x1 x2 = 1; peripheral locus z1 = 1: the candidate
        # subgroup span(1, -1) keeps its full ideal after saturation
        polys = [parse("x*y - 1", ["x", "y"])]
        peripheral = [parse("x - 1", ["x", "y"])]
        starts = [ExponentSubgroup([[1, -1]])]
        rep = scan(polys, starts, peripheral=peripheral)
        assert len(rep.survivors) == 1
        cand = rep.survivors[0]
        assert cand.subgroup.vector() == (1, -1)
        gens = sorted(g.to_string(["a1", "a2"])
                      for g in cand.saturated_generators)
        assert gens == ["a1*a2 - 1"]

    def test_peripheral_kills_contained_candidate(self):
        # variety x = 1 (rank-1 coset family a1 = 1 in the x-direction
        # never exists; use x1 x2 = 1 against a peripheral equal to the
        # variety itself: everything is peripheral, nothing survives)
        polys = [parse("x*y - 1", ["x", "y"])]
        peripheral = [parse("x*y - 1", ["x", "y"])]
        starts = [ExponentSubgroup([[1, -1]])]
        rep = scan(polys, starts, peripheral=peripheral)
        assert rep.survivors == []

    def test_hyperplane_component_is_not_a_survivor(self):
        # coefficient ideal (a1 + a2, a1 - a2): its only point has
        # a1 = a2 = 0, off the torus; the irrelevant peripheral z - 5 must
        # not turn it into a survivor
        polys = [parse("x + y + x*z - y*z", XYZ)]
        N = ExponentSubgroup([[0, 0, 1]])
        for peripheral in ((), [parse("z - 5", XYZ)]):
            rep = scan(polys, N, peripheral=peripheral)
            assert [c.status for c in rep.candidates] == ["trivial-ideal"]
            assert rep.survivors == []

    def test_conditions_stage(self):
        polys = [parse("x*y - 1", ["x", "y"])]
        starts = [ExponentSubgroup([[1, -1]])]
        kept = scan(polys, starts,
                    conditions=[parse("2*x*y - 2", ["x", "y"])])
        assert [c.subgroup.vector() for c in kept.survivors] == [(1, -1)]
        killed = scan(polys, starts, conditions=[parse("x*y - 2", ["x", "y"])])
        assert killed.survivors == []
        assert [c.status for c in killed.candidates] == ["trivial-ideal"]

    def test_determinism_across_threads(self):
        polys = [parse("x*y*z + x + y + z", XYZ)]
        peripheral = [parse("x - 1", XYZ)]
        conditions = [parse("y + z", XYZ)]
        docs = [scan(polys, peripheral=peripheral, conditions=conditions,
                     options=ScanOptions(threads=k)).to_json_dict()
                for k in (1, 2)]
        assert docs[0] == docs[1]
        assert docs[0]["survivors"]

    def test_digest_covers_every_section(self):
        polys = [parse("x*y - 1", ["x", "y"])]
        f = parse("x - 1", ["x", "y"])
        starts = [ExponentSubgroup([[1, -1]])]
        digests = {scan(polys, starts, **kw).input_digest for kw in
                   ({}, {"peripheral": [f]}, {"conditions": [f]})}
        assert len(digests) == 3

    def test_disjoint_locus_is_not_saturated(self, monkeypatch):
        """The coset (1, 1, t) of x*z - y*z + x - 1 has J = (a1 - 1,
        a2 - 1); the locus of x*z + y*z - 2*z + x - 3 has parts
        a1 + a2 - 2 and a1 - 3, so J + P = (1) and J : P^infinity = J:
        the same survivor as with no peripheral polynomial, and no
        saturation by the locus."""
        polys = [parse("x*z - y*z + x - 1", XYZ)]
        N = ExponentSubgroup([[0, 0, 1]])
        plain = coefficient_variety(polys, N)
        calls = []
        monkeypatch.setattr(toruscan, "saturate_by_ideal",
                            lambda *args: calls.append(args))
        cand = coefficient_variety(
            polys, N, peripheral=[parse("x*z + y*z - 2*z + x - 3", XYZ)])
        assert calls == []
        assert cand.status == plain.status == "survivor"
        assert cand.saturated_generators == plain.saturated_generators
        assert cand.cosets == plain.cosets == [(F(1), F(1), None)]

    def test_budget_run_out_in_the_disjointness_test(self, monkeypatch):
        """A budget run-out in the J + P unit test leaves the candidate
        undetermined."""
        polys = [parse("x*z - y*z + x - 1", XYZ)]
        checked = []

        def run_out(I, budget):
            checked.append(len(I.generators))
            if len(I.generators) == 4:  # J + P, two generators each
                raise groebner.ResourceExhausted("max_pairs")
            return is_trivial(I, budget)
        monkeypatch.setattr(toruscan, "is_trivial", run_out)
        cand = coefficient_variety(
            polys, ExponentSubgroup([[0, 0, 1]]),
            peripheral=[parse("x*z + y*z - 2*z + x - 3", XYZ)])
        assert checked == [2, 4]
        assert cand.status == "undetermined"
        assert cand.note.startswith("resource budget exhausted: max_pairs")

    @pytest.mark.parametrize("seed", range(16))
    def test_skipping_disjoint_loci_is_the_saturating_path(self, seed):
        """Random systems whose coset ideal holds the line a1 = c*a2^e, and
        two peripheral polynomials whose locus is one random point, on the
        line or off it: the verdict and the saturated ideal equal those of
        saturating by every locus.  Over the seeds some loci are skipped
        and some saturated."""
        rng = random.Random(seed)
        line = f"(x - {rng.randint(1, 3)}*y^{rng.randint(0, 1)})"

        def cofactor():
            return (f"({rng.choice([1, -1, 2])}*x^{rng.randint(0, 2)}"
                    f"*y^{rng.randint(0, 2)} + {rng.choice([-3, -1, 1, 2])})")
        polys = [parse(" + ".join(f"{line}*{cofactor()}*z^{k}"
                                  for k in range(rng.randint(2, 3))), XYZ)]
        peripheral = [parse(f"x - {rng.randint(1, 3)} + "
                            f"(y - {rng.randint(1, 3)})*z", XYZ)
                      for _ in range(2)]
        N = ExponentSubgroup([[0, 0, 1]])
        cand = coefficient_variety(polys, N, peripheral=peripheral)
        J = _saturating_path(polys, N, peripheral)
        assert cand.status == ("trivial-ideal" if is_trivial(J)
                               else "survivor")
        assert Ideal(3, cand.saturated_generators).groebner_basis() == \
            J.groebner_basis()

    def test_rejects_zero_peripheral(self):
        with pytest.raises(ValueError):
            scan([parse("x*y - 1", ["x", "y"])],
                 peripheral=[MultiPoly.constant(2, 0)])

    @pytest.mark.parametrize("tier_mode", [False, True])
    def test_rejects_no_polynomials(self, tier_mode):
        with pytest.raises(ValueError,
                           match="scan needs at least one polynomial"):
            scan([], options=ScanOptions(tier_mode=tier_mode))


class TestMultiStart:
    def test_m010_profile(self):
        from torion.crossratio import (crossratio_m1, crossratio_m2,
                                       crossratio_m3, m010_system)
        polys = m010_system()
        starts = [ExponentSubgroup(m, 9) for m in
                  (crossratio_m1(), crossratio_m2(), crossratio_m3())]
        subs = enumerate_subspaces_multi(polys, starts)
        by_rank = {}
        for s in subs:
            by_rank[s.rank] = by_rank.get(s.rank, 0) + 1
        assert len(subs) == 554
        assert by_rank == {1: 454, 2: 97, 3: 3}
        remaining = [s for s in subs if not has_singleton_part(polys, s)]
        assert len(remaining) == 78

    def test_shared_closure_is_union_of_closures(self):
        polys = [parse("x*y*z + x + y + z", XYZ),
                 parse("x^2*y - z + 3", XYZ)]
        starts = [ExponentSubgroup([[1, 0, 0], [0, 1, 0]]),
                  ExponentSubgroup([[0, 1, 1], [1, 0, -1]]),
                  ExponentSubgroup.full(3)]
        union = {}
        for M in starts:
            for S in enumerate_subspaces(polys, M):
                union[S.key()] = S
        multi = enumerate_subspaces_multi(polys, starts)
        assert len({S.key() for S in multi}) == len(multi)
        assert sorted(S.key() for S in multi) == sorted(union)
        assert len(multi) < sum(len(enumerate_subspaces(polys, M))
                                for M in starts)


def _intersect_reference(rows, w):
    """The pairwise intersection the packed enumeration replaced: one
    echelon per hyperplane w."""
    g = [sum(a * b for a, b in zip(row, w)) for row in rows]
    p = next((i for i, x in enumerate(g) if x), None)
    if p is None:
        return None
    gp, rp = g[p], rows[p]
    out = [[gp * x - gi * y for x, y in zip(row, rp)] if gi else row
           for i, (row, gi) in enumerate(zip(rows, g)) if i != p]
    return intlat.echelon(out)[0]


def _hyperplanes_reference(polys):
    out = set()
    for p in polys:
        sup = p.support()
        for i in range(len(sup)):
            for j in range(i + 1, len(sup)):
                w = intlat.primitive_vector(
                    tuple(a - b for a, b in zip(sup[i], sup[j])))
                if w:
                    out.add(w)
    return sorted(out)


def _enumerate_reference(polys, starts):
    hyperplanes = _hyperplanes_reference(polys)
    seen = set()
    queue = []
    for M in starts:
        S = intlat.echelon(M.basis)[0]
        if S not in seen:
            seen.add(S)
            queue.append(S)
    for S in queue:
        if len(S) <= 1:
            continue
        for w in hyperplanes:
            N = _intersect_reference(S, w)
            if N and N not in seen:
                seen.add(N)
                queue.append(N)
    out = [ExponentSubgroup(S, starts[0].n) for S in seen]
    out.sort(key=lambda s: (-s.rank, s.basis))
    return out


def _random_laurent_system(rng, n, scale=1):
    """1-3 Laurent polynomials in n variables; exponents in [-3, 3], or
    near +-scale when scale > 1, so that the pairings need wide fields."""
    polys = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        while len(terms) < rng.randint(2, 5):
            e = tuple(rng.randint(-3, 3) + scale * rng.randint(-1, 1)
                      for _ in range(n))
            terms[e] = F(rng.choice([-2, -1, 1, 3]))
        polys.append(MultiPoly(n, terms))
    return polys


def _random_starts(rng, n, scale=1):
    starts = []
    for _ in range(rng.randint(1, 3)):
        rows = []
        for _ in range(rng.randint(1, n)):
            row = [0] * n
            while not any(row):
                row = [rng.randint(-2, 2) * scale + rng.randint(-2, 2)
                       for _ in range(n)]
            rows.append(row)
        starts.append(ExponentSubgroup(rows, n))
    return starts


def _singleton_reference(polys, N):
    return any(len(q.terms) == 1 for _, q in induced_parts(polys, N))


class TestEnumerationDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_laurent_systems(self, seed):
        rng = random.Random(seed)
        n = 2 + seed % 4
        polys = _random_laurent_system(rng, n)
        starts = _random_starts(rng, n)
        if seed % 3 == 0:
            starts.append(ExponentSubgroup.full(n))
        got = enumerate_subspaces_multi(polys, starts)
        expected = _enumerate_reference(polys, starts)
        assert [S.basis for S in got] == [S.basis for S in expected]
        for S in got:
            assert has_singleton_part(polys, S) == \
                _singleton_reference(polys, S)

    @pytest.mark.parametrize("scale", [2 ** 20, 2 ** 40, 2 ** 70, 2 ** 200])
    def test_wide_entries(self, scale):
        # scale 2**70 and 2**200 need fields of 128 and 256 bits or more
        rng = random.Random(scale)
        n = 3
        polys = _random_laurent_system(rng, n, scale)
        starts = _random_starts(rng, n, scale) + [ExponentSubgroup.full(n)]
        got = enumerate_subspaces_multi(polys, starts)
        expected = _enumerate_reference(polys, starts)
        assert [S.basis for S in got] == [S.basis for S in expected]
        assert len(got) > len(starts)
        for S in got:
            assert has_singleton_part(polys, S) == \
                _singleton_reference(polys, S)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_echelon_per_pairing_direction(self, seed, monkeypatch):
        # every subspace S of rank >= 2 is intersected once with each line
        # {primitive g(w)} of pairing vectors g(w) = (<row_i, w>)_i != 0
        rng = random.Random(100 + seed)
        n = 3 + seed % 3
        polys = _random_laurent_system(rng, n)
        starts = [ExponentSubgroup.full(n)] + _random_starts(rng, n)
        calls = {}
        original = toruscan._intersect_hyperplane

        def record(rows, g):
            calls.setdefault(rows, []).append(tuple(g))
            return original(rows, g)
        monkeypatch.setattr(toruscan, "_intersect_hyperplane", record)
        got = enumerate_subspaces_multi(polys, starts)
        hyperplanes = _hyperplanes_reference(polys)
        wide = {intlat.echelon(S.basis)[0] for S in got if S.rank >= 2}
        assert set(calls) <= wide
        for S in wide:
            gs = calls.get(S, [])
            lines = {intlat.primitive_vector(
                [sum(a * b for a, b in zip(row, w)) for row in S])
                for w in hyperplanes} - {None}
            assert len(gs) == len(set(gs)) == len(lines)
            assert set(gs) == lines

    @pytest.mark.parametrize("w, span", [(16, 0), (16, 2 ** 15 - 1),
                                         (32, 2 ** 15), (64, 2 ** 63 - 1),
                                         (128, 2 ** 63), (256, 2 ** 200)])
    def test_packed_pairing_widths(self, w, span):
        rng = random.Random(span)
        points = [(span, 0), (0, -span), (-span, 0)]
        points += [tuple(rng.randint(-span, span) for _ in range(2))
                   for _ in range(20)]
        vectors = [(1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)]
        pairing, half = toruscan._packed_pairing(points, 2, span)
        assert half == 2 ** (w - 1)
        for v in vectors:
            assert pairing(v) == [v[0] * a + v[1] * b + half
                                  for a, b in points]
        assert toruscan._packed_pairing([], 2, span)[0]((1, 1)) == []

    def test_has_singleton_part_random_subgroups(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 5)
            polys = _random_laurent_system(rng, n)
            for N in _random_starts(rng, n):
                assert has_singleton_part(polys, N) == \
                    _singleton_reference(polys, N)


def _singleton_tuple_per_term(polys, N):
    """has_singleton_part as one tuple of row values per term."""
    return any(1 in Counter(tuple(sum(map(operator.mul, row, e))
                                  for row in N.basis)
                            for e in p.terms).values() for p in polys)


class TestSingletonDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_supports_and_ranks(self, seed):
        rng = random.Random(270 + seed)
        ranks = Counter()
        for _ in range(60):
            n = rng.randint(1, 5)
            polys = _random_laurent_system(rng, n)
            if rng.random() < 0.3:
                # a one-term polynomial is a singleton under every rank
                e = tuple(rng.randint(-3, 3) for _ in range(n))
                polys.append(MultiPoly(n, {e: F(1)}))
            rank = rng.randint(0, min(3, n))
            rows = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(n)]
                    for _ in range(rank)]
            N = ExponentSubgroup(rows, n)
            ranks[N.rank] += 1
            assert has_singleton_part(polys, N) == \
                _singleton_tuple_per_term(polys, N)
        assert set(ranks) >= {0, 1, 2}

    def test_rank_zero_keeps_each_polynomial_whole(self):
        N = ExponentSubgroup([], 3)
        one = MultiPoly(3, {(1, 2, 0): F(5)})
        two = parse("x*y - z", XYZ)
        zero = MultiPoly(3)
        for polys, want in (([one], True), ([two], False),
                            ([two, one], True), ([zero], False),
                            ([zero, two], False)):
            assert has_singleton_part(polys, N) is want
            assert _singleton_tuple_per_term(polys, N) is want

    def test_zero_polynomial_under_a_subgroup(self):
        N = ExponentSubgroup([[1, 0, 0]])
        assert not has_singleton_part([MultiPoly(3)], N)
        assert has_singleton_part([MultiPoly(3), parse("x + y", XYZ)], N)

    @staticmethod
    def _check_singleton_free(polys, subgroups):
        got = singleton_free(polys, subgroups)
        want = [N for N in subgroups
                if not _singleton_tuple_per_term(polys, N)]
        # the same objects, in the order given
        assert list(map(id, got)) == list(map(id, want))
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_singleton_free_random_lists(self, seed):
        rng = random.Random(300 + seed)
        ranks = Counter()
        for _ in range(30):
            n = rng.randint(1, 5)
            polys = _random_laurent_system(rng, n)
            if rng.random() < 0.3:
                e = tuple(rng.randint(-3, 3) for _ in range(n))
                polys.append(MultiPoly(n, {e: F(1)}))
            if rng.random() < 0.2:
                polys.insert(rng.randint(0, len(polys)), MultiPoly(n))
            subgroups = []
            for _ in range(rng.randint(1, 8)):
                rows = [[rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(n)]
                        for _ in range(rng.randint(0, n))]
                subgroups.append(ExponentSubgroup(rows, n))
            ranks.update(N.rank for N in subgroups)
            self._check_singleton_free(polys, subgroups)
        assert set(ranks) >= {0, 1, 2, 3}

    @pytest.mark.parametrize("scale", [2 ** 20, 2 ** 40, 2 ** 70])
    def test_singleton_free_wide_fields(self, scale, monkeypatch):
        # keys past 64 bits are unpacked by int.from_bytes
        rng = random.Random(scale)
        cases = []
        for n in (2, 3, 4):
            polys = _random_laurent_system(rng, n, scale)
            subgroups = _random_starts(rng, n, scale) + [
                ExponentSubgroup.full(n), ExponentSubgroup([], n)]
            subgroups += enumerate_subspaces_multi(polys, subgroups[:-1])
            cases.append((polys, subgroups))
        halves = []
        original = toruscan._packed_pairing

        def record(points, n, span):
            pairing, half = original(points, n, span)
            halves.append(half)
            return pairing, half
        monkeypatch.setattr(toruscan, "_packed_pairing", record)
        for polys, subgroups in cases:
            self._check_singleton_free(polys, subgroups)
        assert len(halves) == 3 and min(halves) > 2 ** 63

    def test_singleton_free_edge_cases(self):
        two = parse("x*y - z", XYZ)
        N = ExponentSubgroup([[1, 0, 0]])
        full, none = ExponentSubgroup.full(3), ExponentSubgroup([], 3)
        assert singleton_free([two], []) == []
        assert singleton_free([], [N, none]) == [N, none]
        assert singleton_free([MultiPoly(3)], [N, full, none]) == \
            [N, full, none]
        assert singleton_free([MultiPoly(3), parse("x + y", XYZ)], [N]) == []
        assert singleton_free([MultiPoly(3), two], [none, full]) == [none]

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_singleton_free_extreme_digits(self, m):
        # the pairings reach +-max|e| * max||row||_1: the terms x^m and
        # x^-1*y (or their inverses) share no part under Z^2, though
        # m = -1 + (m + 1) in base m + 1
        full = ExponentSubgroup.full(2)
        for sign in (1, -1):
            p = MultiPoly(2, {(sign * m, 0): F(1), (-sign, sign): F(1)})
            self._check_singleton_free([p], [full])
            assert singleton_free([p], [full]) == []

    def test_singleton_free_arity_mismatch(self):
        with pytest.raises(RingMismatch):
            singleton_free([parse("x + y + 1", ["x", "y"])],
                           [ExponentSubgroup([[1, 0, 1]])])
        with pytest.raises(RingMismatch):
            singleton_free([parse("x*y - z", XYZ)],
                           [ExponentSubgroup.full(3),
                            ExponentSubgroup.full(2)])

    def test_singleton_free_m010_kept_list(self):
        polys, subs = _m010_subspaces()
        kept = self._check_singleton_free(polys, subs)
        assert len(kept) == 78


def _m010_subspaces():
    from torion.crossratio import (crossratio_m1, crossratio_m2,
                                   crossratio_m3, m010_system)
    polys = m010_system()
    starts = [ExponentSubgroup(m, 9) for m in
              (crossratio_m1(), crossratio_m2(), crossratio_m3())]
    return polys, enumerate_subspaces_multi(polys, starts)


class TestSubgroupsFromEchelonKeys:
    """enumerate_subspaces_multi saturates its echelon keys directly; each
    subgroup equals the one the public constructor builds."""

    @staticmethod
    def _check(subs, n):
        differ = 0
        for S in subs:
            key = intlat.echelon(S.basis)[0]
            for ref in (ExponentSubgroup(S.basis, n),
                        ExponentSubgroup(key, n)):
                assert (S.basis, S.rank, S.n) == (ref.basis, ref.rank, ref.n)
                assert S == ref and hash(S) == hash(ref)
            differ += S.basis != key
        return differ

    def test_m010(self):
        # 6 of the 554 saturations differ from their echelon rows
        _, subs = _m010_subspaces()
        assert len(subs) == 554
        assert self._check(subs, 9) == 6

    @pytest.mark.parametrize("seed", range(8))
    def test_random_small_systems(self, seed):
        rng = random.Random(400 + seed)
        n = 2 + seed % 4
        polys = _random_laurent_system(rng, n)
        starts = _random_starts(rng, n, scale=3) + [ExponentSubgroup.full(n)]
        self._check(enumerate_subspaces_multi(polys, starts), n)


class TestRankZeroStart:
    def test_enumeration_rejects_a_rank_zero_start(self):
        polys = [parse("x*y*z + x + y + z", XYZ)]
        for starts in ([ExponentSubgroup([[0, 0, 0]])],
                       [ExponentSubgroup.full(3), ExponentSubgroup([], 3)]):
            with pytest.raises(ValueError, match="rank 0"):
                enumerate_subspaces_multi(polys, starts)
        with pytest.raises(ValueError, match="rank 0"):
            enumerate_subspaces(polys, ExponentSubgroup([[0, 0, 0]]))
        with pytest.raises(ValueError, match="rank 0"):
            scan(polys, ExponentSubgroup([[0, 0, 0], [0, 0, 0]]))


class TestArityMismatch:
    def test_polynomial_and_start(self):
        polys = [parse("x + y + 1", ["x", "y"])]
        with pytest.raises(RingMismatch):
            enumerate_subspaces_multi(polys, [ExponentSubgroup.full(3)])
        with pytest.raises(RingMismatch):
            enumerate_subspaces(polys, ExponentSubgroup.full(3))
        with pytest.raises(RingMismatch):
            scan(polys, ExponentSubgroup.full(3))

    def test_mixed_polynomials(self):
        polys = [parse("x + y + 1", ["x", "y"]),
                 parse("x*y*z - 2", XYZ)]
        with pytest.raises(RingMismatch):
            enumerate_subspaces_multi(polys, [ExponentSubgroup.full(3)])

    def test_mixed_starts(self):
        polys = [parse("x*y*z - 2 + x", XYZ)]
        starts = [ExponentSubgroup.full(3), ExponentSubgroup.full(2)]
        with pytest.raises(RingMismatch):
            enumerate_subspaces_multi(polys, starts)

    def test_has_singleton_part(self):
        polys = [parse("x + y + 1", ["x", "y"])]
        with pytest.raises(RingMismatch):
            has_singleton_part(polys, ExponentSubgroup([[1, 0, 1]]))
