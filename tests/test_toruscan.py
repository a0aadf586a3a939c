import random
from fractions import Fraction as F
from itertools import product

import pytest

from torion.groebner import Budget
from torion.multipoly import MultiPoly, data_text, parse, read_poly_file, \
    substitute_torus
from torion.toruscan import (CosetCandidate, ExponentSubgroup, ScanOptions,
                             coefficient_variety, coset_lines_for_report,
                             enumerate_subspaces, enumerate_subspaces_multi,
                             has_singleton_part, scan, tier1_candidates,
                             tier2_friend_filter)

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

    def test_singleton_pruned(self):
        h = parse("x + y + 1", ["x", "y"])
        cand = coefficient_variety([h], ExponentSubgroup([[1, -1]]))
        assert cand.status == "pruned-singleton"
        # at least one part is a monomial, syntactically
        assert any(len(q.terms) == 1 for _, q in cand.parts)

    def test_whole_variety_is_subgroup(self):
        h = parse("x*y - 1", ["x", "y"])
        cand = coefficient_variety([h], ExponentSubgroup([[1, -1]]))
        assert cand.status == "survivor"
        gens = [g.to_string(["a1", "a2"])
                for g in cand.coefficient_ideal.generators]
        assert gens == ["a1*a2 - 1"]
        assert cand.cosets == ["unresolved"]


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

    def test_rejects_zero_peripheral(self):
        with pytest.raises(ValueError):
            scan([parse("x*y - 1", ["x", "y"])],
                 peripheral=[MultiPoly.constant(2, 0)])


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
