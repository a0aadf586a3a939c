"""The residue formula of `crossratio` against a reference transcription.

`_reference_conditions` and `_reference_residues` keep the earlier,
separately coded forms of the three symbolic generators (one `kind` string
dispatch over a configuration) and of the numeric residues.  The library
now computes all of them from one product-and-evaluate pair; these tests
check that it returns the same polynomials, in the same order, and the
same residues, on random data.
"""

import random
from fractions import Fraction as F

import pytest

from torion.crossratio import (CoincidentMarkings, ProjPoint,
                               StableFormConfig, UnsupportedNormalization,
                               hyp4_zero_order_conditions,
                               odd4_stability_conditions,
                               opposite_residue_conditions,
                               partition_residue_conditions,
                               residue21_condition, residues,
                               s22_opposite_residue_conditions,
                               torsion_fiber_equations,
                               zero_order_conditions)
from torion.exactnum import Cyclotomic, UPoly, number_field
from torion.multipoly import MultiPoly


# ---------------------------------------------------------------------------
# reference transcription
# ---------------------------------------------------------------------------

def _ref_numerator(n, zeros):
    coeffs = [MultiPoly.constant(n, 1)]
    for z, m in zeros:
        if isinstance(z, str) and z == "inf":
            continue
        for _ in range(m):
            new = [MultiPoly.constant(n, 0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] = new[i + 1] + c
                new[i] = new[i] - c * z
            coeffs = new
    return coeffs


def _ref_eval(coeffs, point):
    acc = MultiPoly.constant(point.n, 0)
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


def _reference_conditions(kind, n, poles, zeros=(), pairs=(),
                          residue_symbols=None, omit_redundant_pair=False):
    if kind == "opposite-residue":
        N = _ref_numerator(n, zeros)
        conds = []
        pairs = list(pairs)
        if omit_redundant_pair and len(pairs) > 1:
            pairs = pairs[:-1]
        for (i, j) in pairs:
            xi, xj = poles[i], poles[j]
            Ai = MultiPoly.constant(n, 1)
            Aj = MultiPoly.constant(n, 1)
            for l, xl in enumerate(poles):
                if l in (i, j):
                    continue
                Ai = Ai * (xi - xl)
                Aj = Aj * (xj - xl)
            cond = _ref_eval(N, xi) * Aj - _ref_eval(N, xj) * Ai
            conds.append(cond.primitive_part())
        return conds
    if kind == "zero-order":
        npoles = len(poles)
        coeffs = [MultiPoly.constant(n, 0)] * npoles
        for i, rho in enumerate(residue_symbols):
            prod = [MultiPoly.constant(n, 1)]
            for l, xl in enumerate(poles):
                if l == i:
                    continue
                new = [MultiPoly.constant(n, 0)] * (len(prod) + 1)
                for t, c in enumerate(prod):
                    new[t + 1] = new[t + 1] + c
                    new[t] = new[t] - c * xl
                prod = new
            for t in range(len(prod)):
                coeffs[t] = coeffs[t] + rho * prod[t]
        conds = []
        for z, m in zeros:
            if isinstance(z, str) and z == "inf":
                for t in range(npoles - 1 - m, npoles):
                    if t < len(coeffs) and not coeffs[t].is_zero():
                        conds.append(coeffs[t])
            else:
                if not (isinstance(z, MultiPoly) and z.is_zero()) and \
                        not (isinstance(z, (int, F)) and z == 0):
                    raise UnsupportedNormalization(
                        "finite zero-order conditions are implemented at 0")
                for t in range(m):
                    if not coeffs[t].is_zero():
                        conds.append(coeffs[t])
        out = []
        for c in conds:
            c = c.strip_monomial_content().primitive_part()
            lead = max(c.terms, key=lambda e: (sum(e), e))
            if c.terms[lead] < 0:
                c = -c
            if c not in out:
                out.append(c)
        return out
    assert kind == "partition-residue-sum"
    N = _ref_numerator(n, zeros)

    def pole_denominator(i):
        out = MultiPoly.constant(n, 1)
        for l, xl in enumerate(poles):
            if l != i:
                out = out * (poles[i] - xl)
        return out

    conds = []
    for part in pairs:
        total = MultiPoly.constant(n, 0)
        for i in part:
            term = _ref_eval(N, poles[i])
            for i2 in part:
                if i2 != i:
                    term = term * pole_denominator(i2)
            total = total + term
        conds.append(total.primitive_part())
    return conds


def _invert(x):
    return x.inverse() if hasattr(x, "inverse") else 1 / x


def _reference_residues(cfg):
    out = []
    for i, x in enumerate(cfg.poles):
        a = x.affine()
        num = None
        for z, m in cfg.zeros:
            if z.is_infinity():
                continue
            fm = (a - z.affine()) ** m
            num = fm if num is None else num * fm
        if num is None:
            num = F(1)
        den = None
        for j, y in enumerate(cfg.poles):
            if j == i:
                continue
            d = a - y.affine()
            den = d if den is None else den * d
        out.append(num * _invert(den) if den is not None else num)
    return out


# ---------------------------------------------------------------------------
# random data
# ---------------------------------------------------------------------------

N_VARS = 3


def _rand_poly(rng, degree=1, terms=2):
    out = {}
    for _ in range(rng.randint(1, terms)):
        e = [0] * N_VARS
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(N_VARS)] += 1
        out[tuple(e)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return MultiPoly(N_VARS, out)


def _rand_poles(rng, lo=3, hi=5):
    return [_rand_poly(rng) for _ in range(rng.randint(lo, hi))]


def _rand_zeros(rng):
    zeros = [(_rand_poly(rng), rng.randint(1, 2))
             for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.5:
        zeros.insert(rng.randint(0, len(zeros)), ("inf", rng.randint(0, 2)))
    return zeros


# ---------------------------------------------------------------------------
# symbolic generators
# ---------------------------------------------------------------------------

class TestSymbolicGenerators:
    def test_opposite_residue_random(self):
        rng = random.Random(11)
        for _ in range(40):
            poles = _rand_poles(rng)
            zeros = _rand_zeros(rng)
            pairs = [tuple(rng.sample(range(len(poles)), 2))
                     for _ in range(rng.randint(1, 3))]
            want = _reference_conditions("opposite-residue", N_VARS, poles,
                                         zeros, pairs)
            assert opposite_residue_conditions(
                N_VARS, poles, zeros, pairs) == want

    def test_zero_order_random(self):
        # zeros at 0 and at infinity, in either order, one or both
        rng = random.Random(12)
        zero = MultiPoly.zero(N_VARS)
        for _ in range(40):
            poles = _rand_poles(rng)
            rhos = [_rand_poly(rng) for _ in poles]
            zeros = [(zero, rng.randint(0, 2)), ("inf", rng.randint(0, 2))]
            rng.shuffle(zeros)
            zeros = zeros[:rng.randint(1, 2)]
            want = _reference_conditions("zero-order", N_VARS, poles, zeros,
                                         residue_symbols=rhos)
            assert zero_order_conditions(N_VARS, poles, rhos, zeros) == want

    def test_partition_residue_random(self):
        rng = random.Random(13)
        for _ in range(30):
            poles = _rand_poles(rng, 4, 6)
            zeros = _rand_zeros(rng)
            order = list(range(len(poles)))
            rng.shuffle(order)
            cut = rng.randint(2, len(order) - 2)
            parts = [order[:cut], order[cut:]]
            want = _reference_conditions("partition-residue-sum", N_VARS,
                                         poles, zeros, parts)
            assert partition_residue_conditions(
                N_VARS, poles, zeros, parts) == want

    def test_zero_order_rejects_nonzero_finite_zero(self):
        x = MultiPoly.variable(2, 0)
        one = MultiPoly.constant(2, 1)
        with pytest.raises(UnsupportedNormalization, match="at 0"):
            zero_order_conditions(2, [x, -x, one, -one], [one, one, x, x],
                                  [(one, 1), ("inf", 1)])

    def test_canned_generators_match_reference(self):
        v4 = [MultiPoly.variable(4, i) for i in range(4)]
        one4 = MultiPoly.constant(4, 1)
        assert odd4_stability_conditions() == _reference_conditions(
            "opposite-residue", 4, v4 + [one4, -one4], [("inf", 4)],
            [(0, 1), (2, 3), (4, 5)], omit_redundant_pair=True)

        r = [MultiPoly.variable(6, i) for i in range(3)]
        x = [MultiPoly.variable(6, i + 3) for i in range(3)]
        assert hyp4_zero_order_conditions()[1] == _reference_conditions(
            "zero-order", 6, [x[0], -x[0], x[1], -x[1], x[2], -x[2]],
            [(MultiPoly.constant(6, 0), 4), ("inf", 0)],
            residue_symbols=[r[0], -r[0], r[1], -r[1], r[2], -r[2]])

        x = [MultiPoly.variable(6, i) for i in range(3)]
        z = [MultiPoly.variable(6, i + 3) for i in range(3)]
        ref = _reference_conditions(
            "opposite-residue", 6,
            [x[0], x[1], x[2], z[0] * x[0], z[1] * x[1], z[2] * x[2]],
            [(MultiPoly.constant(6, 0), 2), ("inf", 2)],
            [(3, 0), (4, 1), (5, 2)])
        assert s22_opposite_residue_conditions()[1] == \
            [c.strip_monomial_content() for c in ref]

        x1, ze = MultiPoly.variable(5, 0), MultiPoly.variable(5, 1)
        us = [MultiPoly.variable(5, i + 2) for i in range(3)]
        ref = _reference_conditions(
            "opposite-residue", 5, [ze * x1, x1] + us,
            [(MultiPoly.constant(5, 0), 2), ("inf", 1)], [(0, 1)])
        assert residue21_condition()[1] == \
            [c.strip_monomial_content().primitive_part() for c in ref]

        r = [MultiPoly.variable(6, i) for i in range(3)]
        z = [MultiPoly.constant(6, 1)] + \
            [MultiPoly.variable(6, i + 3) for i in range(3)]
        assert torsion_fiber_equations()[1] == _reference_conditions(
            "zero-order", 6, z, [(MultiPoly.constant(6, 0), 1), ("inf", 1)],
            residue_symbols=[r[0], r[1], r[2], -(r[0] + r[1] + r[2])])


# ---------------------------------------------------------------------------
# numeric residues
# ---------------------------------------------------------------------------

def _configs(rng, point, count):
    """Random configurations with points drawn by `point`: 2-5 poles, up to
    two finite zeros of order 1-2 and sometimes a zero at infinity."""
    done = 0
    while done < count:
        poles = [point() for _ in range(rng.randint(2, 5))]
        zeros = [(point(), rng.randint(1, 2))
                 for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.5:
            zeros.append((ProjPoint.infinity(), rng.randint(1, 2)))
        try:
            cfg = StableFormConfig(zeros, [ProjPoint(p) for p in poles], [],
                                   strict=False)
        except CoincidentMarkings:
            continue
        done += 1
        yield cfg


def _assert_same_residues(cfg):
    got, want = residues(cfg), _reference_residues(cfg)
    assert got == want
    assert [type(r) for r in got] == [type(r) for r in want]


class TestNumericResidues:
    def test_rational_random(self):
        rng = random.Random(21)

        def point():
            return F(rng.randint(-12, 12), rng.randint(1, 4))
        for cfg in _configs(rng, point, 200):
            _assert_same_residues(cfg)

    def test_cyclotomic_random(self):
        rng = random.Random(22)

        def point():
            return Cyclotomic.root_of_unity(
                rng.choice([3, 4, 8]), rng.randint(0, 7)) * \
                rng.choice([1, 2, -1, F(1, 2)])
        for cfg in _configs(rng, point, 40):
            _assert_same_residues(cfg)

    def test_number_field_random(self):
        rng = random.Random(23)
        fld = number_field(UPoly([1, 0, 0, 0, 1]))
        a = fld.generator()

        def point():
            return sum((a ** k * rng.randint(-2, 2) for k in range(4)),
                       fld.one() * rng.randint(-3, 3))
        for cfg in _configs(rng, point, 40):
            _assert_same_residues(cfg)
