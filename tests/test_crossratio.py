import hashlib
import random
from fractions import Fraction as F

import pytest

from torion.crossratio import (CoincidentMarkings, DegenerateQuadruple,
                               DecoratedTree, DomainViolation, InvalidTree,
                               ProjPoint, StableFormConfig,
                               check_config_cre, check_cre, cre_exponents,
                               cross_ratio,
                               crossratio_m1, crossratio_m2, crossratio_m3,
                               crmin_forward, crmin_inverse,
                               degeneration_exponent, degeneration_matrix,
                               hyp4_zero_order_conditions,
                               m010_peripheral_polynomials, m010_system,
                               m010_point_from_configuration, mobius_apply,
                               odd4_stability_conditions,
                               partition_residue_conditions, residues,
                               residue21_condition,
                               s22_opposite_residue_conditions,
                               stability_surface_generators,
                               standard_degeneration_trees,
                               torsion_config_check, torsion_fiber_equations,
                               zero_order_consistent)
from torion.exactnum import Cyclotomic, UPoly, number_field, \
    root_of_unity_order
from torion.multipoly import MultiPoly, parse


class TestCrossRatio:
    def test_examples(self):
        assert cross_ratio(0, 1, 2, 3) == F(4, 3)
        t = F(22, 7)
        assert cross_ratio(ProjPoint.infinity(), 0, 1, t) == t
        assert cross_ratio(2, -2, 1, -1) == F(1, 9)

    def test_degenerate(self):
        with pytest.raises(DegenerateQuadruple):
            cross_ratio(1, 1, 2, 3)

    def test_mobius_invariance_random(self):
        rng = random.Random(0)
        done = 0
        while done < 100:
            zs = [F(rng.randint(-20, 20), rng.randint(1, 5))
                  for _ in range(4)]
            if len({z for z in zs}) < 4:
                continue
            m = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
                continue
            pts = [ProjPoint.of(z) for z in zs]
            moved = [mobius_apply(m, p) for p in pts]
            assert cross_ratio(*pts) == cross_ratio(*moved)
            done += 1

    def test_permutation_identity(self):
        rng = random.Random(1)
        for _ in range(50):
            zs = rng.sample(range(-40, 40), 4)
            a = cross_ratio(zs[0], zs[1], zs[2], zs[3])
            b = cross_ratio(zs[0], zs[1], zs[3], zs[2])
            assert a * b == 1


class TestResidues:
    def test_two_pole_example(self):
        # z dz / ((z-1)(z+1)): residues (1/2, 1/2); the form has a third
        # pole at infinity, so the finite residues do not sum to zero
        cfg = StableFormConfig(zeros=[(0, 1)], poles=[1, -1],
                               pair_partition=[], strict=False)
        assert residues(cfg) == [F(1, 2), F(1, 2)]

    def test_hyperelliptic_ray(self):
        cfg = StableFormConfig(zeros=[(0, 4)], poles=[1, 2, 3, -1, -2, -3],
                               pair_partition=[[0, 3], [1, 4], [2, 5]])
        rs = residues(cfg)
        assert sum(rs) == 0
        scale = rs[0] / 5
        assert rs[1] == -64 * scale and rs[2] == 81 * scale

    def test_residue_sums_zero_corpus(self):
        rng = random.Random(2)
        for _ in range(50):
            poles = rng.sample(range(-30, 30), 4)
            zeros = rng.sample([x for x in range(-60, 60)
                                if x not in poles], 2)
            cfg = StableFormConfig(zeros=[(zeros[0], 1), (zeros[1], 1)],
                                   poles=poles,
                                   pair_partition=[[0, 1], [2, 3]])
            assert sum(residues(cfg)) == 0

    def test_zero_order_consistent(self):
        cfg = StableFormConfig(zeros=[(0, 4)], poles=[1, 2, 3, -1, -2, -3],
                               pair_partition=[[0, 3], [1, 4], [2, 5]])
        assert zero_order_consistent(cfg)
        at_infinity = StableFormConfig(zeros=[("inf", 2)],
                                       poles=[1, 2, -1, -2],
                                       pair_partition=[[0, 2], [1, 3]])
        assert zero_order_consistent(at_infinity)
        rng = random.Random(3)
        for _ in range(20):
            poles = rng.sample(range(-30, 30), 4)
            zeros = rng.sample([x for x in range(-60, 60)
                                if x not in poles], 2)
            cfg = StableFormConfig(zeros=[(zeros[0], 1), (zeros[1], 1)],
                                   poles=poles,
                                   pair_partition=[[0, 1], [2, 3]])
            assert zero_order_consistent(cfg)

    def test_zero_order_degree_excess(self):
        # z dz / ((z-1)(z+1)) also has a pole at infinity: the numerator
        # degree exceeds (number of poles) - 2
        cfg = StableFormConfig(zeros=[(0, 1)], poles=[1, -1],
                               pair_partition=[], strict=False)
        assert not zero_order_consistent(cfg)

    def test_coincident_markings(self):
        with pytest.raises(CoincidentMarkings):
            StableFormConfig(zeros=[(1, 2)], poles=[1, -1, 2, -2],
                             pair_partition=[[0, 1], [2, 3]])

    @pytest.mark.parametrize("zeros, parts, message", [
        # the parts share pole 1
        ([(0, 1), ("inf", 1)], [[0, 1], [1, 2, 3]],
         "pole 1 is in the partition twice"),
        ([(0, 1), ("inf", 1)], [[0, 1], [2, 2, 3]],
         "pole 2 is in the partition twice"),
        ([(0, 1), ("inf", 1)], [[0, 1], [2, 4]],
         "partition names pole 4, outside 0..3"),
        ([(0, 1), ("inf", 1)], [[0, 1], [-1, 3]],
         "partition names pole -1, outside 0..3"),
        ([(0, 1), ("inf", 1)], [[0, 1, 2]], "partition must cover the poles"),
        # the orders sum to 2, but one is negative
        ([(0, -1), ("inf", 3)], [], "zero0 has order -1, below 1"),
        ([(0, 2), ("inf", 0)], [[0, 1], [2, 3]], "zero1 has order 0, below 1"),
    ])
    def test_invalid_configurations(self, zeros, parts, message):
        with pytest.raises(ValueError, match=message):
            StableFormConfig(zeros=zeros, poles=[1, -1, 2, -2],
                             pair_partition=parts)


class TestConditionGenerators:
    def test_hyp4_system_verbatim(self):
        variables, conds = hyp4_zero_order_conditions()
        texts = [c.to_string(variables) for c in conds]
        assert texts[0] == "r1*x2*x3 + r2*x1*x3 + r3*x1*x2"
        assert texts[1] == ("r1*x1*x2^2 + r1*x1*x3^2 + r2*x1^2*x2 "
                            "+ r2*x2*x3^2 + r3*x1^2*x3 + r3*x2^2*x3")

    def test_hyp4_solution_ray(self):
        variables, conds = hyp4_zero_order_conditions()
        xs = [F(1), F(2), F(3)]
        ray = (5, -64, 81)
        for c in conds:
            vals = [F(r) for r in ray] + xs
            assert c.evaluate(vals) == 0

    def test_odd4_matches_transcribed_quartics(self):
        P1, P2 = odd4_stability_conditions()
        vars4 = ["x1", "y1", "x2", "y2"]
        t1 = parse("(y1-x2)*(y1-y2)*(y1^2-1) - (x1-x2)*(x1-y2)*(x1^2-1)",
                   vars4)
        t2 = parse("(y2-x1)*(y2-y1)*(y2^2-1) - (x2-x1)*(x2-y1)*(x2^2-1)",
                   vars4)
        assert P1 == t1 and P2 == t2

    def test_s22_leading_coefficient(self):
        # D_k = zeta_k^2 prod (x_k - x_j)(x_k - zeta_j x_j)
        #     - prod (zeta_k x_k - x_j)(zeta_k x_k - zeta_j x_j):
        # the x_1^4 coefficient of D_1 is zeta_1^2 - zeta_1^4
        variables, conds = s22_opposite_residue_conditions()
        d1 = conds[0]
        lead = {e[3:]: c for e, c in d1.terms.items()
                if e[:3] == (4, 0, 0)}
        assert lead == {(2, 0, 0): F(1), (4, 0, 0): F(-1)}

    def test_s22_matches_direct_formula(self):
        variables, conds = s22_opposite_residue_conditions()
        # direct transcription for k = 1
        v = variables
        direct = parse(
            "z1^2*(x1-x2)*(x1-z2*x2)*(x1-x3)*(x1-z3*x3)"
            " - (z1*x1-x2)*(z1*x1-z2*x2)*(z1*x1-x3)*(z1*x1-z3*x3)", v)
        assert conds[0] == direct

    def test_residue21_instance(self):
        variables, (cond,) = residue21_condition()
        direct = parse(
            "zeta^2*(x1-u1)*(x1-u2)*(x1-u3)"
            " - (zeta*x1-u1)*(zeta*x1-u2)*(zeta*x1-u3)", variables)
        assert cond == direct or cond == -direct
        assert cond.degree_in(0) == 3  # degree three in x1

    def test_torsion_fiber_equations(self):
        variables, conds = torsion_fiber_equations()
        # first condition: sum r_i zeta_i (with zeta_1 = 1)
        first = parse("r1 + r2*z2 + r3*z3 - (r1+r2+r3)*z4", variables)
        second = parse(
            "r1*z2*z3*z4 + r2*z3*z4 + r3*z2*z4 - (r1+r2+r3)*z2*z3",
            variables)
        texts = set()
        for c in conds:
            texts.add(c)
        assert first in texts or -first in texts
        assert second in texts or -second in texts

    def test_partition_residue_sum_kind(self):
        # two pole pairs (x, -x), (u, -u) with numerator z^2: each part sum
        # must vanish identically in the symbols
        xs = [MultiPoly.variable(2, 0), -MultiPoly.variable(2, 0),
              MultiPoly.variable(2, 1), -MultiPoly.variable(2, 1)]
        conds = partition_residue_conditions(
            2, xs, [(MultiPoly.constant(2, 0), 2)], [[0, 1], [2, 3]])
        assert all(c.is_zero() for c in conds)


class TestCre:
    def setup_method(self):
        self.field = number_field(UPoly([-1, -2, 1, 1]))

    def test_power_basis_has_no_relation(self):
        # the exact 3x3 solve on (1, a, a^2) has full rank (determinant
        # 1/2401), so only the zero vector works: relations exist only for
        # special triples
        a = self.field.generator()
        triple = [self.field.one(), a, a * a]
        assert cre_exponents(self.field, triple) is None

    def _singular_triple(self):
        f = self.field
        return [f.element([-1, 1, 1]), f.element([0, 2, -1]),
                f.element([-2, 2, 1])]

    def test_exponents_exist_and_satisfy_dual_identity(self):
        triple = self._singular_triple()
        b = cre_exponents(self.field, triple)
        assert b == (4, -7, -13)
        from torion.exactnum import trace_dual_basis
        s = trace_dual_basis(self.field, triple)
        # defining identity, via an independent route: sum b_i / s_i = 0
        total = self.field.zero()
        for bi, si in zip(b, s):
            total = total + si.inverse() * bi
        assert total.is_zero()
        # and the product form: sum b_i s_{i+1} s_{i+2} = 0
        total = self.field.zero()
        for i, bi in enumerate(b):
            total = total + s[(i + 1) % 3] * s[(i + 2) % 3] * bi
        assert total.is_zero()

    def test_scaling_invariance(self):
        triple = self._singular_triple()
        doubled = [t * 2 for t in triple]
        assert cre_exponents(self.field, triple) == \
            cre_exponents(self.field, doubled)

    def test_check_cre_value_one(self):
        # x = (1, 2, 4): R_k = ((x_i - x_j)/(x_i + x_j))^2 gives
        # R = (1/9, 9/25, 1/9); exponents (1, 0, -1) multiply to 1
        pairs = [(F(1), F(-1)), (F(2), F(-2)), (F(4), F(-4))]
        value, verdict = check_cre(pairs, (1, 0, -1))
        assert value == 1 and verdict == ("exact", 1)

    def test_check_cre_generic_value(self):
        pairs = [(F(1), F(-1)), (F(2), F(-2)), (F(3), F(-3))]
        value, verdict = check_cre(pairs, (1, 1, 1))
        assert verdict == (None, None)
        # R1 = [x2,y2,x3,y3] = ((2-3)/(2+3))^2 etc.
        assert value == F(1, 25) * F(1, 4) * F(1, 9)

    def test_zero_exponents_rejected(self):
        pairs = [(F(1), F(-1)), (F(2), F(-2)), (F(3), F(-3))]
        with pytest.raises(ValueError):
            check_cre(pairs, (0, 0, 0))

    def test_degenerate_pairs(self):
        pairs = [(F(1), F(1)), (F(2), F(-2)), (F(3), F(-3))]
        with pytest.raises(DegenerateQuadruple):
            check_cre(pairs, (1, 1, 1))

    def test_config_pairs_from_partition(self):
        poles = ["1", "-1", "2", "-2", "4", "-4"]
        cfg = StableFormConfig([("0", 4)], poles, [[0, 1], [2, 3], [4, 5]])
        pairs = [(F(1), F(-1)), (F(2), F(-2)), (F(4), F(-4))]
        for exps in ((1, 0, -1), (1, 1, 1)):
            assert check_config_cre(cfg, exps) == check_cre(pairs, exps)
        # three parts with one of three poles need a seventh pole: parts
        # that share a pole are no partition
        for zeros, points, parts in (
                ([("0", 4)], poles, [[0, 1, 2], [3, 4, 5]]),
                ([("0", 5)], poles + ["5"], [[0, 1], [2, 3], [4, 5, 6]])):
            cfg = StableFormConfig(zeros, points, parts)
            with pytest.raises(ValueError, match="three pole pairs"):
                check_config_cre(cfg, (1, 0, -1))
        with pytest.raises(ValueError, match="pole 1 is in the partition"):
            StableFormConfig([("0", 4)], poles, [[0, 1], [2, 3], [4, 5, 1]])


def _ratio_of_sines_config():
    # two-part type (4; 1, 1) data: x2 = zx^2 x1, u2 = zu^2 u1 with
    # u1 = -zx/zu; residues then cancel in pairs exactly
    zx = Cyclotomic.root_of_unity(3)
    zu = Cyclotomic.root_of_unity(8)
    one = Cyclotomic.from_rational(1)
    x1 = one
    x2 = zx * zx
    u1 = -(zx * zu.inverse())
    u2 = zu * zu * u1
    return StableFormConfig(
        zeros=[(ProjPoint(0), 1), (ProjPoint.infinity(), 1)],
        poles=[ProjPoint(x1), ProjPoint(x2), ProjPoint(u1), ProjPoint(u2)],
        pair_partition=[[0, 1], [2, 3]])


class TestTorsionConfigCheck:
    def test_ratio_of_sines_configuration(self):
        verdict, detail = torsion_config_check(_ratio_of_sines_config(), 24)
        assert (verdict, detail) == ("satisfies", None)

    def test_torsion_bound_below_one(self):
        # the pole-pair cross-ratios have orders 3 and 8, so N = 2 fails
        # condition iii; a bound N <= 0 is no bound and is rejected
        cfg = _ratio_of_sines_config()
        assert torsion_config_check(cfg, 2) == ("violates", "iii")
        for N in (0, -24):
            with pytest.raises(ValueError, match=f"N = {N} is below 1"):
                torsion_config_check(cfg, N)

    def test_span_dimension_violation(self):
        # equal roots of unity in the two parts make every residue ratio
        # rational: the Q-span has dimension 1, not 2
        z = Cyclotomic.root_of_unity(8)
        one = Cyclotomic.from_rational(1)
        cfg = StableFormConfig(
            zeros=[(ProjPoint(0), 1), (ProjPoint.infinity(), 1)],
            poles=[ProjPoint(one), ProjPoint(z * z), ProjPoint(-one),
                   ProjPoint(-(z * z))],
            pair_partition=[[0, 1], [2, 3]])
        verdict, detail = torsion_config_check(cfg, 8)
        assert verdict == "violates" and detail == "ii"

    def test_residue_sum_violation(self):
        # plain symmetric poles with zeros at 0 and infinity: the paired
        # residues are equal, not opposite, so condition i fails
        cfg = StableFormConfig(
            zeros=[(0, 1), (ProjPoint.infinity(), 1)],
            poles=[1, -1, 2, -2],
            pair_partition=[[0, 1], [2, 3]])
        verdict, detail = torsion_config_check(cfg, 4)
        assert verdict == "violates" and detail == "i"

    def test_cross_ratio_not_unit(self):
        # same shape but a part whose pole pair has cross-ratio off the
        # unit circle
        zx = Cyclotomic.root_of_unity(3)
        zu = Cyclotomic.root_of_unity(8)
        one = Cyclotomic.from_rational(1)
        u1 = -(zx * zu.inverse())
        cfg = StableFormConfig(
            zeros=[(ProjPoint(0), 1), (ProjPoint.infinity(), 1)],
            poles=[ProjPoint(one), ProjPoint(zx * zx), ProjPoint(u1),
                   ProjPoint(zu * zu * u1)],
            pair_partition=[[0, 1], [2, 3]])
        verdict, detail = torsion_config_check(cfg, 2)
        # the pole-pair cross-ratios have orders 3 and 8: they do not
        # divide 2
        assert verdict == "violates" and detail == "iii"

    def test_number_field_configuration(self):
        # the same shape over Q(zeta_8) = Q[x]/(x^4 + 1) with zx = zeta_8
        # and zu = i: the pole-pair cross-ratios have order 4
        fld = number_field(UPoly([1, 0, 0, 0, 1]))
        zx = fld.generator()
        zu = zx * zx
        one = fld.one()
        u1 = -(zx * zu.inverse())
        cfg = StableFormConfig(
            zeros=[(ProjPoint(0), 1), (ProjPoint.infinity(), 1)],
            poles=[ProjPoint(one), ProjPoint(zx * zx), ProjPoint(u1),
                   ProjPoint(zu * zu * u1)],
            pair_partition=[[0, 1], [2, 3]])
        assert torsion_config_check(cfg, 4) == ("satisfies", None)
        assert torsion_config_check(cfg, 2) == ("violates", "iii")


class TestRootOfUnityVerdict:
    def test_zeta8_in_number_field(self):
        zeta8 = number_field(UPoly([1, 0, 0, 0, 1])).generator()
        assert root_of_unity_order(zeta8) == 8
        assert root_of_unity_order(zeta8 ** 2) == 4
        assert root_of_unity_order(zeta8 + 1) is None

    def test_unit_circle_non_root_rejected(self):
        # (3 + 4i)/5 has absolute value 1 but minimal polynomial
        # x^2 - 6/5 x + 1, which is not cyclotomic
        i = number_field(UPoly([1, 0, 1])).generator()
        assert root_of_unity_order((i * 4 + 3) / 5) is None

    def test_rationals(self):
        assert root_of_unity_order(F(1)) == 1
        assert root_of_unity_order(F(-1)) == 2
        assert root_of_unity_order(F(0)) is None
        assert root_of_unity_order(F(2)) is None

    def test_check_cre_over_number_field(self):
        i = number_field(UPoly([1, 0, 1])).generator()
        pairs = [(i, -i), (i * 2, -(i * 2)), (i * 4, -(i * 4))]
        value, verdict = check_cre(pairs, (1, 0, -1))
        assert value == 1 and verdict == ("exact", 1)

    def test_check_cre_negative_exponent_over_cyclotomic(self):
        # R ** -k inverts R first: the value is the reciprocal of the one
        # with the exponent made positive
        z = Cyclotomic.root_of_unity(8)
        one = Cyclotomic.from_rational(1)
        pairs = [(one, z), (one * 2, z * 3), (z * z, one * -1)]
        for negative, positive in (((0, -3, 0), (0, 3, 0)),
                                   ((-1, 0, -2), (1, 0, 2))):
            value, verdict = check_cre(pairs, negative)
            inverse, inverse_verdict = check_cre(pairs, positive)
            assert isinstance(value, Cyclotomic) and value != 1
            assert value == 1 / inverse and value * inverse == 1
            assert verdict == inverse_verdict


class TestCrmin:
    def test_forward_values(self):
        vals = crmin_forward([(F(2), F(3))], [])
        assert vals[(2, 1)] == F(2, 3) and vals[(3, 1)] == F(1, 2)

    def test_round_trip_random(self):
        rng = random.Random(5)
        done = 0
        while done < 100:
            try:
                pairs = [(F(rng.randint(-20, 20), rng.randint(1, 4)),
                          F(rng.randint(-20, 20), rng.randint(1, 4)))
                         for _ in range(3)]
                zs = [F(rng.randint(2, 30), rng.randint(1, 3))]
                vals = crmin_forward(pairs, zs)
            except DomainViolation:
                continue
            got_pairs, got_zs = crmin_inverse(vals, 3, 1)
            assert got_pairs == pairs and got_zs == zs
            done += 1

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            crmin_inverse({(2, 1): F(1, 2), (3, 1): F(1, 2)}, 1, 0)


class TestM010System:
    def test_nonzero_and_vanishing(self):
        hs = m010_system()
        assert all(not h.is_zero() for h in hs)
        rng = random.Random(9)
        done = 0
        while done < 50:
            try:
                xy = [(F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
                      for _ in range(3)]
                z4 = F(rng.randint(2, 19), rng.randint(1, 5))
                pt = m010_point_from_configuration(xy, z4)
            except ZeroDivisionError:
                continue
            for h in hs:
                assert h.evaluate(pt) == 0
            done += 1

    def test_antisymmetry_in_pair_exchange(self):
        # Eq(4, j, j') swaps to Eq(4, j', j) up to sign: h changes sign
        # under exchanging the variable blocks of j and j'
        h1, h2, h3 = m010_system()

        def swap_blocks(p, j, jp):
            out = {}
            for e, c in p.terms.items():
                e2 = list(e)
                for i in range(3):
                    e2[(j - 1) * 3 + i], e2[(jp - 1) * 3 + i] = \
                        e2[(jp - 1) * 3 + i], e2[(j - 1) * 3 + i]
                out[tuple(e2)] = c
            q = MultiPoly(9, None)
            q.terms = out
            return q
        assert swap_blocks(h1, 1, 2) == -h1

    def test_peripheral_polynomials(self):
        """The 31 collision numerators, pinned by a digest of their printed
        forms in order."""
        ps = m010_peripheral_polynomials()
        assert len(ps) == 31
        assert all(p.n == 9 and not p.is_constant() for p in ps)
        assert ps[0].to_string() == \
            "-x1^2*x2 + x1*x2^2 + x1^2 - x2^2 - x1 + x2"
        text = "\n".join(p.to_string() for p in ps)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "7182a440797a1501671b96cab7025d074c2d34ac7f00499f83cf8d1a71293e05"


class TestDegenerationTrees:
    def test_matrices_exact(self):
        trees = standard_degeneration_trees()
        expected = [crossratio_m1(), crossratio_m2(), crossratio_m3()]
        for tree, M in zip(trees, expected):
            got = degeneration_matrix(tree)
            assert [tuple(r) for r in got] == [tuple(r) for r in M]

    def test_matrix_leaves_the_twists(self):
        tree = standard_degeneration_trees()[0]
        tree.twists = {1: 2, 2: 5, 3: 1}
        assert degeneration_exponent(tree, (1, 2), 1) == 2
        assert [tuple(r) for r in degeneration_matrix(tree)] == \
            [tuple(r) for r in crossratio_m1()]
        assert tree.twists == {1: 2, 2: 5, 3: 1}
        assert degeneration_exponent(tree, (1, 2), 1) == 2

    def test_zero_twists_zero_row(self):
        tree = standard_degeneration_trees()[0]
        tree.twists = {1: 0, 2: 0, 3: 0}
        assert all(degeneration_exponent(tree, (1, i), j) == 0
                   for i in (2, 3, 4) for j in (1, 2, 3))

    def test_linearity_in_twists(self):
        rng = random.Random(4)
        for tree in standard_degeneration_trees():
            for _ in range(10):
                d1 = {e: rng.randint(0, 4) for e, _, _ in tree.edges}
                d2 = {e: rng.randint(0, 4) for e, _, _ in tree.edges}
                for (a, b) in ((1, 2), (1, 4), (1, 3)):
                    for j in (1, 2, 3):
                        tree.twists = d1
                        v1 = degeneration_exponent(tree, (a, b), j)
                        tree.twists = d2
                        v2 = degeneration_exponent(tree, (a, b), j)
                        tree.twists = {e: d1[e] + d2[e] for e in d1}
                        v12 = degeneration_exponent(tree, (a, b), j)
                        assert v12 == v1 + v2

    def test_invalid_tree(self):
        with pytest.raises(InvalidTree):
            DecoratedTree({1: {"z1"}, 2: {"x1"}}, [(1, 1, 2)], {1: 0})

    @pytest.mark.parametrize("labels, edges", [
        # an edge to a vertex that carries no labels at all
        ({1: {"z1"}, 2: {"z2"}}, [(1, 1, 3)]),
        # the right edge count, but a cycle and an unreached vertex
        ({1: {"z1"}, 2: {"z2"}, 3: {"z3"}, 4: {"z4"}},
         [(1, 1, 2), (2, 2, 3), (3, 3, 1)]),
        # a path whose two edges share an id
        ({1: {"z1"}, 2: {"z2"}, 3: {"z3"}}, [(1, 1, 2), (1, 2, 3)]),
    ], ids=["missing-endpoint", "disconnected", "duplicate-edge-id"])
    def test_invalid_graph(self, labels, edges):
        with pytest.raises(InvalidTree):
            DecoratedTree(labels, edges, {})

    def test_swaps_negate(self):
        """Swapping x_j with y_j, or z_a with z_b, negates the exponent."""
        rng = random.Random(8)
        for _ in range(40):
            nv = rng.randint(2, 6)
            edges = [(v, rng.randrange(v), v) for v in range(1, nv)]
            labels = {v: {f"z{v + 1}"} for v in range(nv)}
            for j in (1, 2, 3):
                labels[rng.randrange(nv)].add(f"x{j}")
                labels[rng.randrange(nv)].add(f"y{j}")
            swapped = {v: {{"x": "y", "y": "x"}.get(l[0], l[0]) + l[1:]
                           for l in ls} for v, ls in labels.items()}
            twists = {e: rng.randint(0, 5) for e, _, _ in edges}
            tree = DecoratedTree(labels, edges, twists)
            flipped = DecoratedTree(swapped, edges, twists)
            for a in range(1, nv + 1):
                for b in range(1, nv + 1):
                    if a == b:
                        continue
                    for j in (1, 2, 3):
                        e = degeneration_exponent(tree, (a, b), j)
                        assert degeneration_exponent(tree, (b, a), j) == -e
                        assert degeneration_exponent(flipped, (a, b), j) == -e


class TestImageOnSurface:
    def test_numeric_pullback_vanishing(self):
        """Samples of the stability surface map into the vanishing locus of
        the degree-14 polynomial under the cross-ratio map (numeric check,
        tolerance 1e-8; evaluated at 60 digits so rounding is negligible)."""
        import mpmath
        from torion.multipoly import data_text, read_poly_file
        _, (h,) = read_poly_file(data_text("surface_deg14.poly"))
        rng = random.Random(12)
        done = 0
        with mpmath.workdps(60):
            while done < 50:
                x1 = mpmath.mpf(rng.randint(-300, 300)) / 100
                y1 = mpmath.mpf(rng.randint(-300, 300)) / 100
                if abs(x1 + y1) < mpmath.mpf("0.001"):
                    continue
                q0 = x1 * x1 + y1 * y1
                s = (q0 - 2) / (x1 + y1)
                disc = 2 * q0 - s * s
                if disc <= mpmath.mpf("1e-6"):
                    continue
                r = mpmath.sqrt(disc) / 2
                x2 = s / 2 + r
                y2 = s / 2 - r
                try:
                    R1 = (x2 - 1) * (y2 + 1) / ((x2 + 1) * (y2 - 1))
                    R2 = (x1 - 1) * (y1 + 1) / ((x1 + 1) * (y1 - 1))
                    R3 = (x2 - x1) * (y1 - y2) / ((x1 - y2) * (x2 - y1))
                except ZeroDivisionError:
                    continue
                if max(abs(R1), abs(R2), abs(R3)) > 20:
                    continue
                val = mpmath.mpf(0)
                for e, c in h.terms.items():
                    val += int(c) * R1 ** e[0] * R2 ** e[1] * R3 ** e[2]
                assert abs(val) <= mpmath.mpf("1e-8")
                done += 1
