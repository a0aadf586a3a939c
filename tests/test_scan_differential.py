"""The scan's tier-1 pass, torus substitution and coset back-substitution
against reference transcriptions of their earlier loops.

`tier1_candidates` runs one pass per primitive line direction over packed
keys; `_tier1_loop` below keeps the pass per anchor difference with one
key tuple per element.  `toruscan._Projection` reads every projection of
a system's supports off one packed integer combination per matrix row;
`_substitute_torus_loop` keeps the nested generator of the torus
substitution.  `_partial_substitute` raises each power of a value once;
`_partial_substitute_loop` raises it once per term.  Each pair must give
the same values in the same order, errors included.
"""

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from torion import toruscan
from torion.groebner import Budget, Ideal
from torion.multipoly import MultiPoly, data_text, parse, read_poly_file
from torion.toruscan import (ExponentSubgroup, ScanOptions, _Projection,
                             _partial_substitute, _solve_coset_points,
                             coefficient_variety, induced_parts, scan,
                             tier1_candidates)


# ---------------------------------------------------------------------------
# reference transcriptions
# ---------------------------------------------------------------------------

def _tier1_loop(poly, antipodal=True):
    if poly.n != 3:
        raise ValueError("anchored tier pipeline needs exactly 3 variables")
    if poly.is_zero():
        raise ValueError("anchored tier pipeline needs a nonempty support; "
                         "the polynomial is 0")
    sup = sorted(poly.terms,
                 key=lambda e: (sum(e), tuple(-x for x in reversed(e))),
                 reverse=True)
    a0, a1, a2 = sup[0]
    out = set()
    for b0, b1, b2 in sup[1:]:
        u0, u1, u2 = a0 - b0, a1 - b1, a2 - b2
        keys = [(u1 * z - u2 * y, u2 * x - u0 * z, u0 * y - u1 * x)
                for x, y, z in sup]
        counts = Counter(keys)
        k = next((k for k in keys if counts[k] == 1), None)
        if k is None:
            raise ValueError("no closing support element exists; the "
                             "anchored pipeline does not apply")
        k0, k1, k2 = k
        for x, y, z in keys:
            E = (k0 - x, k1 - y, k2 - z)
            g = math.gcd(*E)
            if g:
                if antipodal and E < (0, 0, 0):
                    g = -g
                out.add((E[0] // g, E[1] // g, E[2] // g))
    return sorted(out)


def _substitute_torus_loop(p, E):
    r = len(E)
    groups = {}
    for e, c in p.terms.items():
        J = tuple(sum(E[i][k] * e[k] for k in range(p.n)) for i in range(r))
        groups.setdefault(J, {})[e] = c
    out = []
    for J in sorted(groups):
        q = MultiPoly(p.n)
        q.terms = groups[J]
        out.append((J, q))
    return out


def _partial_substitute_loop(p, assignment):
    out = {}
    for e, c in p.terms.items():
        e2 = list(e)
        for i, v in assignment.items():
            if e[i]:
                c = c * (F(v) ** e[i])
                e2[i] = 0
        key = tuple(e2)
        out[key] = out.get(key, F(0)) + c
    return MultiPoly(p.n, out)


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def _grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def _deg14():
    _, (h,) = read_poly_file(data_text("surface_deg14.poly"))
    return h


def _directions(poly):
    """The anchor differences of a support, and how many of them lie on a
    line through the origin with another one."""
    sup = sorted(poly.terms, key=_grevlex_key, reverse=True)
    us = [tuple(a - b for a, b in zip(sup[0], e)) for e in sup[1:]]
    lines = Counter(tuple(x // math.gcd(*u) for x in u) for u in us)
    return us, sum(c for c in lines.values() if c > 1)


def _largest_key_difference(poly):
    """The largest |entry| of key(l2) - key(e) over the primitive anchor
    directions of a support."""
    sup = sorted(poly.terms, key=_grevlex_key, reverse=True)
    largest = 0
    for e in sup[1:]:
        u = [a - b for a, b in zip(sup[0], e)]
        u0, u1, u2 = (x // math.gcd(*u) for x in u)
        keys = [(u1 * z - u2 * y, u2 * x - u0 * z, u0 * y - u1 * x)
                for x, y, z in sup]
        counts = Counter(keys)
        k = next(k for k in keys if counts[k] == 1)
        largest = max([largest] + [abs(a - b) for key in keys
                                   for a, b in zip(k, key)])
    return largest


def _random_support(rng, lo=-6, hi=9):
    """A random Laurent support with exponents in [lo, hi]; about half get
    a run anchor - k*d (k = 1, 2, 3) of anchor differences on one line, and
    a run b - d, b + d of differences on one line around another element
    b.  Each polynomial gets random nonzero rational coefficients."""
    size = rng.randint(2, 20)
    sup = set()
    while len(sup) < size:
        sup.add(tuple(rng.randint(lo, hi) for _ in range(3)))
    if rng.random() < 0.5:
        anchor = max(sup, key=_grevlex_key)
        d = tuple(rng.randint(-2, 2) for _ in range(3))
        if _grevlex_key(d) < _grevlex_key((0, 0, 0)):
            d = tuple(-x for x in d)
        if any(d):
            sup.update(tuple(a - k * x for a, x in zip(anchor, d))
                       for k in (1, 2, 3))
            b = rng.choice(sorted(sup))
            if b != anchor:
                sup.update(tuple(y + s * x for y, x in zip(b, d))
                           for s in (-1, 1))
    return MultiPoly(3, {e: F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
                         for e in sup})


# ---------------------------------------------------------------------------
# tier 1
# ---------------------------------------------------------------------------

class TestTier1AgainstLoop:
    @pytest.mark.parametrize("antipodal, count", [(True, 8796),
                                                  (False, 10635)])
    def test_surface_deg14(self, antipodal, count):
        h = _deg14()
        got = tier1_candidates(h, antipodal)
        assert len(got) == count
        assert got == _tier1_loop(h, antipodal)
        # 198 anchor differences on 152 lines through the origin; 80 of
        # them share their line with another
        us, shared = _directions(h)
        assert (len(us), shared) == (198, 80)

    @pytest.mark.parametrize("antipodal", [True, False])
    def test_random_supports(self, antipodal):
        rng = random.Random(3201)
        raised = parallel = 0
        for _ in range(420):
            h = _random_support(rng)
            expected = _outcome(_tier1_loop, h, antipodal)
            assert _outcome(tier1_candidates, h, antipodal) == expected
            raised += expected[0] is ValueError
            parallel += _directions(h)[1] > 0
        assert 0 < raised < 200
        assert parallel > 150

    def test_no_antiparallel_anchor_differences(self):
        # grevlex is a total order compatible with addition, so anchor - u
        # and anchor + u are never both below the anchor: one direction
        # never meets its negative among the anchor differences, and the
        # passes for v1 and -v1 are never both run
        rng = random.Random(3202)
        for _ in range(200):
            us = set(_directions(_random_support(rng))[0])
            assert not any(tuple(-x for x in u) in us for u in us)

    @pytest.mark.parametrize("antipodal", [True, False])
    def test_wide_fields(self, antipodal, monkeypatch):
        # a coordinate at or above 2^16 puts the packed keys past 64 bits,
        # into 128-bit or wider fields unpacked by int.from_bytes
        halves = []
        packed = toruscan._packed_pairing

        def spy(points, n, span):
            pairing, half = packed(points, n, span)
            halves.append(half)
            return pairing, half
        monkeypatch.setattr(toruscan, "_packed_pairing", spy)
        rng = random.Random(3203)
        raised = 0
        for scale in (2 ** 16, 2 ** 16 + 1, 2 ** 20, 2 ** 33):
            for _ in range(25):
                h = _random_support(rng, -scale, scale)
                h.terms[(scale, 0, 0)] = F(1)
                expected = _outcome(_tier1_loop, h, antipodal)
                halves.clear()
                assert _outcome(tier1_candidates, h, antipodal) == expected
                raised += expected[0] is ValueError
                assert halves and halves[0] >= 2 ** 127
        assert raised < 100

    @pytest.mark.parametrize("antipodal", [True, False])
    def test_no_closing_element_message(self, antipodal):
        # every element shares its line parallel to (1, 0, 0) or (0, 1, 0)
        # with another, so no element closes the system
        h = MultiPoly(3, {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1,
                          (1, 1, 0): 1})
        expected = _outcome(_tier1_loop, h, antipodal)
        assert expected == (ValueError, "no closing support element "
                            "exists; the anchored pipeline does not apply")
        assert _outcome(tier1_candidates, h, antipodal) == expected

    def test_largest_digit(self):
        # with m = 1, key entries reach 4m^2 = 4 for a primitive direction
        # with entries +-2, so a key difference reaches 8m^2, the largest
        # balanced base-B digit
        for sup in ([(-1, 0, -1), (-1, 1, 1), (0, 0, 1), (1, -1, 1),
                     (1, 1, -1), (1, 1, 1)],
                    [(-1, -1, -1), (-1, -1, 1), (-1, 1, -1), (1, 0, 1),
                     (1, 1, -1)]):
            h = MultiPoly(3, dict.fromkeys(sup, 1))
            assert _largest_key_difference(h) == 8
            for antipodal in (True, False):
                assert tier1_candidates(h, antipodal) == \
                    _tier1_loop(h, antipodal)

    def test_small_supports(self):
        for terms in ({(0, 0, 0): 1}, {(3, -1, 2): 1},
                      {(0, 0, 0): 1, (1, 2, 3): 1},
                      {(0, 0, 0): 1, (2, 4, 6): 1, (1, 2, 3): 1}):
            h = MultiPoly(3, terms)
            for antipodal in (True, False):
                assert _outcome(tier1_candidates, h, antipodal) == \
                    _outcome(_tier1_loop, h, antipodal)


# ---------------------------------------------------------------------------
# torus substitution
# ---------------------------------------------------------------------------

def _random_laurent(rng, n):
    return MultiPoly(n, {tuple(rng.randint(-4, 6) for _ in range(n)):
                         F(rng.randint(-9, 9) or 1, rng.randint(1, 5))
                         for _ in range(rng.randint(1, 25))})


def substitute_torus(p, E):
    return _Projection([p])(E)[0]


def _as_items(parts):
    return [(J, list(q.terms.items())) for J, q in parts]


def _random_system(rng, n):
    """One to three random Laurent polynomials, now and then a zero one."""
    return [_random_laurent(rng, n) if rng.random() < 0.9 else MultiPoly(n)
            for _ in range(rng.randint(1, 3))]


def _random_subgroup(rng, n, rank, scale=3):
    """A subgroup of rank `rank` from random rows (rank 0: no rows)."""
    while True:
        N = ExponentSubgroup([[rng.randint(-scale, scale) for _ in range(n)]
                              for _ in range(rank)], n)
        if N.rank == rank:
            return N


def _check_projection(projection, polys, N):
    """The projection of every generator by N's basis: the loop's parts, in
    its order of J and of terms, generator by generator."""
    got = projection(N.basis)
    assert [_as_items(parts) for parts in got] == \
        [_as_items(_substitute_torus_loop(p, N.basis)) for p in polys]
    return got


class TestSubstituteTorusAgainstLoop:
    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_random_matrices(self, rank):
        rng = random.Random(3210 + rank)
        for _ in range(150):
            n = rng.randint(max(rank, 1), 4)
            p = _random_laurent(rng, n)
            E = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
            got = substitute_torus(p, E)
            expected = _substitute_torus_loop(p, E)
            assert [J for J, _ in got] == [J for J, _ in expected]
            assert [list(q.terms.items()) for _, q in got] == \
                [list(q.terms.items()) for _, q in expected]

    def test_tuple_rows_and_zero_polynomial(self):
        p = parse("x*y^2 - 3*y*z + 1/2*z^4", ["x", "y", "z"])
        E = ((1, -1, 0), (0, 2, -1))
        assert [(J, q.terms) for J, q in substitute_torus(p, E)] == \
            [(J, q.terms) for J, q in _substitute_torus_loop(p, E)]
        assert substitute_torus(MultiPoly.zero(3), E) == []


class TestPackedProjectionAgainstLoop:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_systems_and_subgroups(self, seed):
        """One projection per system serves subgroups of every rank from 0
        to n, in a random order, as the scan uses it."""
        rng = random.Random(3230 + seed)
        for _ in range(10):
            n = rng.randint(1, 4)
            polys = _random_system(rng, n)
            subgroups = [_random_subgroup(rng, n, rank)
                         for rank in range(n + 1) for _ in range(3)]
            rng.shuffle(subgroups)
            projection = _Projection(polys)
            for N in subgroups:
                _check_projection(projection, polys, N)
                assert _as_items(induced_parts(polys, N)) == [
                    item for p in polys
                    for item in _as_items(_substitute_torus_loop(p, N.basis))]

    def test_rank_zero_gives_one_part_per_generator(self):
        polys = [parse("x*y - 3*z + 1/2", ["x", "y", "z"]),
                 parse("x^2 - y^3", ["x", "y", "z"]), MultiPoly(3)]
        projection = _Projection(polys)
        # before and after a packing for rank-one rows
        for N in (ExponentSubgroup([], 3), ExponentSubgroup([[1, 0, 0]]),
                  ExponentSubgroup([], 3)):
            got = _check_projection(projection, polys, N)
        assert [[J for J, _ in parts] for parts in got] == [[()], [()], []]
        assert [q for parts in got for _, q in parts] == polys[:2]

    def test_narrow_to_wide_subgroups_repack(self, monkeypatch):
        """Subgroups whose projections need 16, 32, 64 and 128-bit fields,
        in that order: the supports are packed four times, each time
        wider, and narrower subgroups after them reuse the widest."""
        halves = []
        packed = toruscan._packed_pairing

        def spy(points, n, span):
            pairing, half = packed(points, n, span)
            halves.append(half)
            return pairing, half
        monkeypatch.setattr(toruscan, "_packed_pairing", spy)
        rng = random.Random(3240)
        polys = _random_system(rng, 3) + [
            MultiPoly(3, {(6, -2, 1): F(1), (0, 3, -4): F(-2)})]
        projection = _Projection(polys)
        widths = [1, 2 ** 13, 2 ** 29, 2 ** 61]  # 6 * width crosses 2^(w-1)
        for k in widths + widths[::-1]:
            for rank in (1, 2, 3):
                rows = [[k if i == j else rng.randint(-2, 2) for j in range(3)]
                        for i in range(rank)]
                _check_projection(projection, polys, ExponentSubgroup(rows, 3))
        assert halves == [2 ** 15, 2 ** 31, 2 ** 63, 2 ** 127]

    def test_candidate_parts_are_the_loops(self):
        """coefficient_variety and the scan read each candidate's parts off
        the packed projection: the loop's parts, generators in order."""
        polys = [parse("x*y*z + x + y + z", ["x", "y", "z"]),
                 parse("x^2*z - y + 2", ["x", "y", "z"])]
        rep = scan(polys)
        assert rep.candidates
        for cand in rep.candidates:
            expected = [item for p in polys for item in _as_items(
                _substitute_torus_loop(p, cand.subgroup.basis))]
            assert _as_items(cand.parts) == expected
            assert _as_items(coefficient_variety(
                polys, cand.subgroup).parts) == expected


# ---------------------------------------------------------------------------
# coset back-substitution
# ---------------------------------------------------------------------------

class TestPartialSubstituteAgainstLoop:
    def test_random_rational_assignments(self):
        rng = random.Random(3220)
        for _ in range(300):
            n = rng.randint(1, 4)
            p = _random_laurent(rng, n)
            assignment = {i: F(rng.choice([-7, -3, -1, 1, 2, 5]),
                               rng.choice([1, 2, 3, 7]))
                          for i in rng.sample(range(n), rng.randint(0, n))}
            got = _partial_substitute(p, assignment)
            expected = _partial_substitute_loop(p, assignment)
            assert list(got.terms.items()) == list(expected.terms.items())
            assert all(type(c) is F for c in got.terms.values())

    def test_cancellation_drops_terms(self):
        p = parse("4*x^2*y - y + x*z", ["x", "y", "z"])
        got = _partial_substitute(p, {0: F(1, 2)})
        assert got.terms == _partial_substitute_loop(p, {0: F(1, 2)}).terms
        assert got.terms == {(0, 0, 1): F(1, 2)}

    def test_coset_points_of_deg14_survivors(self, monkeypatch):
        rep = scan([_deg14()], options=ScanOptions(tier_mode=True))
        budget = ScanOptions().budget
        ideals = [Ideal(3, c.saturated_generators) for c in rep.survivors]
        got = [_solve_coset_points(I, 3, budget) for I in ideals]
        assert got == [c.cosets for c in rep.survivors] == [
            [(F(1), F(1), None)], [(F(1), None, F(1))],
            [(None, F(1), F(1))]]
        monkeypatch.setattr(toruscan, "_partial_substitute",
                            _partial_substitute_loop)
        assert [_solve_coset_points(Ideal(3, I.generators), 3, budget)
                for I in ideals] == got

    def test_coset_points_with_fractions(self, monkeypatch):
        xyz = ["x", "y", "z"]
        I = Ideal(3, [parse(s, xyz) for s in
                      ("(2*x - 1)*(3*x + 2)", "7*y + 3*x - 1", "z^2 - 4/9")])
        got = _solve_coset_points(I, 3, Budget())
        assert len(got) == 4
        monkeypatch.setattr(toruscan, "_partial_substitute",
                            _partial_substitute_loop)
        assert _solve_coset_points(Ideal(3, I.generators), 3, Budget()) == \
            got


# ---------------------------------------------------------------------------
# budget notes
# ---------------------------------------------------------------------------

class TestUndeterminedNotes:
    def test_equal_reports_when_the_budget_runs_out(self):
        options = ScanOptions(tier_mode=True, budget=Budget(max_pairs=20))
        first = scan([_deg14()], options=options)
        second = scan([_deg14()], options=options)
        assert first.undetermined
        assert first.to_json_dict() == second.to_json_dict()
        for cand in first.undetermined:
            assert cand.note.startswith(
                "resource budget exhausted: max_pairs 20 (pairs=")
            assert "max_coeff_bits=" in cand.note
            assert "seconds" not in cand.note
