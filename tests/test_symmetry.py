"""Coordinate symmetries of a scan, and the orbit path of `scan`.

`symmetry_generators` is checked against an independent permutation of
polynomials and a brute-force search over all n! permutations.  The orbit
path (one candidate classified per orbit, the verdict transported to the
rest) is checked field by field against `coefficient_variety` run on every
candidate, which is what a scan did before it used symmetry.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from torion import toruscan
from torion.crossratio import (m010_opposite_residue_conditions,
                               m010_peripheral_polynomials, m010_system)
from torion.groebner import Budget
from torion.multipoly import MultiPoly, RingMismatch, data_text, parse, \
    read_poly_file
from torion.toruscan import (ExponentSubgroup, ScanOptions,
                             coefficient_variety, scan, symmetry_generators)

XYZ = ["x", "y", "z"]


def _file(name):
    return read_poly_file(data_text(name))[1]


# ---------------------------------------------------------------------------
# an independent permutation action and group closure
# ---------------------------------------------------------------------------

def rename(p, sigma):
    """p(x) with x_i replaced by x_sigma(i), written term by term."""
    terms = {}
    for e, c in p.terms.items():
        f = [0] * p.n
        for i, x in enumerate(e):
            f[sigma[i]] = x
        terms[tuple(f)] = c
    return MultiPoly(p.n, terms)


def monic(p):
    """p divided by its coefficient at its largest exponent vector."""
    if p.is_zero():
        return p
    lc = p.terms[max(p.terms)]
    return MultiPoly(p.n, {e: c / lc for e, c in p.terms.items()})


def preserves(sigma, system):
    return {monic(rename(p, sigma)) for p in system} == \
        {monic(p) for p in system}


def closure(generators, n):
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    for s in frontier:
        for g in generators:
            h = tuple(g[x] for x in s)
            if h not in group:
                group.add(h)
                frontier.append(h)
    return group


def brute_force(systems, n):
    return {sigma for sigma in itertools.permutations(range(n))
            if all(preserves(sigma, system) for system in systems)}


def random_poly(rng, n, terms, degree):
    return MultiPoly(n, {tuple(rng.randint(0, degree) for _ in range(n)):
                         F(rng.choice([-3, -2, -1, 1, 2, 3]),
                           rng.choice([1, 1, 2]))
                         for _ in range(terms)})


def symmetrized(rng, n, generators, terms=3, degree=2):
    """A random system fixed by the group the permutations generate: the
    orbit of a random polynomial, each member rescaled at random."""
    f = random_poly(rng, n, terms, degree)
    return [rename(f, sigma) * F(rng.choice([1, -1, 2, -3]))
            for sigma in sorted(closure(generators, n))]


def random_s3_system(rng):
    """A random system fixed by S_3: a symmetric cubic, which may hold
    coset lines, or the orbit of a random polynomial; each polynomial up to
    a random factor."""
    if rng.random() < 0.5:
        a, b, c, d = (rng.choice([-2, -1, 1, 2]) for _ in range(4))
        if rng.random() < 0.5:
            # a*(xyz + k^2 (x + y + z)) holds the lines (t, k, -k)
            b, c, d = 0, a * rng.randint(1, 3) ** 2, 0
        cubic = parse(f"{a}*x*y*z + {b}*(x*y + y*z + z*x) + "
                      f"{c}*(x + y + z) + {d}", XYZ)
        return [cubic * F(rng.choice([1, -2, 3]))]
    polys = symmetrized(rng, 3, [(1, 0, 2), (1, 2, 0)],
                        terms=rng.randint(2, 3), degree=2)
    return [p for p in polys if not p.is_constant()] or \
        [parse("x + y + z - 1", XYZ)]


# ---------------------------------------------------------------------------
# symmetry_generators
# ---------------------------------------------------------------------------

class TestSymmetryGenerators:
    @pytest.mark.parametrize("systems, n, order", [
        (lambda: [_file("surface_deg14.poly")], 3, 6),
        (lambda: [_file("coset_cubic.poly")], 3, 6),
        (lambda: [m010_system()], 9, 36),
        (lambda: [m010_system(), m010_peripheral_polynomials()], 9, 4),
        (lambda: [[parse("x*y*z + 2*x + y + z", XYZ)]], 3, 2),
        (lambda: [[parse("x*y*z + 2*x + 3*y + z", XYZ)]], 3, 1),
        (lambda: [_file("coset_cubic.poly"), [parse("x - 2*y", XYZ)]], 3, 1),
    ])
    def test_group_order(self, systems, n, order):
        systems = systems()
        generators = symmetry_generators(systems, n)
        assert len(closure(generators, n)) == order
        for sigma in generators:
            assert sorted(sigma) == list(range(n))
            assert all(preserves(sigma, system) for system in systems)

    def test_m010_with_conditions(self):
        systems = [m010_system(), m010_peripheral_polynomials(),
                   m010_opposite_residue_conditions()]
        generators = symmetry_generators(systems, 9)
        assert len(closure(generators, 9)) == 4
        for sigma in generators:
            assert all(preserves(sigma, system) for system in systems)

    def test_up_to_rational_factor(self):
        # 2*(y - x) is y - x up to the factor -2 after x and y swap
        systems = [[parse("x - y", ["x", "y"]), parse("x + y - 1/2",
                                                      ["x", "y"])]]
        assert closure(symmetry_generators(systems, 2), 2) == \
            {(0, 1), (1, 0)}
        # a factor is per polynomial; the coefficients stay in ratio
        assert symmetry_generators([[parse("x + 2*y", ["x", "y"])]], 2) == []

    @pytest.mark.parametrize("signs, constant, order", [
        ("+++++++++", " - 1", 362880),     # S_9
        ("+-+-+-+-+", "", 120 * 24),       # S_5 x S_4
        ("+-+-+-+-", "", 2 * 24 * 24),     # -1 swaps the two classes
    ])
    def test_linear_forms(self, signs, constant, order):
        """Linear forms in x1..x9.  The generators form a strong generating
        set for the base x_0, x_1, ..., so the group order is the product
        of the basic orbit lengths."""
        names = [f"x{i}" for i in range(1, 10)]
        text = " ".join(f"{s} {x}" for s, x in zip(signs, names)) + constant
        generators = symmetry_generators([[parse(text, names)]], 9)
        product = 1
        for k in range(9):
            fixing = [g for g in generators if g[:k] == tuple(range(k))]
            orbit, frontier = {k}, [k]
            for x in frontier:
                for g in fixing:
                    if g[x] not in orbit:
                        orbit.add(g[x])
                        frontier.append(g[x])
            product *= len(orbit)
        assert product == order

    @pytest.mark.parametrize("seed", range(24))
    def test_brute_force_small(self, seed):
        """n <= 4: the closure of the generators is every permutation that
        fixes every system up to scale.  Each system is the orbit of a
        random polynomial under a random group, or a random polynomial."""
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        systems = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.7:
                gens = [tuple(rng.sample(range(n), n))
                        for _ in range(rng.randint(1, 2))]
                systems.append(symmetrized(rng, n, gens))
            else:
                systems.append([random_poly(rng, n, rng.randint(1, 4), 2)])
        assert closure(symmetry_generators(systems, n), n) == \
            brute_force(systems, n)

    def test_brute_force_finds_nontrivial_groups(self):
        orders = set()
        for seed in range(24):
            rng = random.Random(seed)
            n = rng.randint(2, 4)
            gens = [tuple(rng.sample(range(n), n))]
            system = symmetrized(rng, n, gens)
            group = closure(symmetry_generators([system], n), n)
            assert group == brute_force([system], n)
            orders.add(len(group))
        assert len(orders) >= 3

    def test_empty_systems(self):
        assert len(closure(symmetry_generators([[], ()], 3), 3)) == 6
        assert symmetry_generators([], 1) == []

    def test_arity_mismatch(self):
        cubic = _file("coset_cubic.poly")
        with pytest.raises(RingMismatch,
                           match="system 1 has a polynomial in 2 variables, "
                                 "expected 3"):
            symmetry_generators([cubic, [parse("x - 1", ["x", "y"])]], 3)


# ---------------------------------------------------------------------------
# the orbit path against coefficient_variety on every candidate
# ---------------------------------------------------------------------------

def fields(cand):
    """Every field of a candidate, the budget note included: it names the
    counters reached but not the wall time, so equal runs give equal
    notes."""
    return (cand.subgroup, cand.status, cand.parts,
            cand.coefficient_ideal.generators, cand.saturated_generators,
            cand.cosets, cand.note)


def assert_as_direct(polys, options=ScanOptions(), peripheral=(),
                     conditions=()):
    rep = scan(polys, options=options, peripheral=peripheral,
               conditions=conditions)
    direct = [coefficient_variety(polys, c.subgroup, options.budget,
                                  peripheral, conditions)
              for c in rep.candidates]
    assert [fields(c) for c in rep.candidates] == list(map(fields, direct))
    return rep


class TestOrbitScan:
    @pytest.mark.parametrize("antipodal", [True, False])
    def test_deg14_tier_list(self, antipodal):
        rep = assert_as_direct(_file("surface_deg14.poly"), ScanOptions(
            tier_mode=True, antipodal=antipodal))
        assert len(rep.candidates) == 51
        assert rep.representatives == 13
        assert [c.subgroup.vector() for c in rep.survivors] == \
            [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    @pytest.mark.parametrize("peripheral, representatives", [
        ((), 6), ((parse("x - 1", XYZ),), 10)])
    def test_cubic(self, peripheral, representatives):
        rep = assert_as_direct(_file("coset_cubic.poly"),
                               peripheral=peripheral)
        assert len(rep.candidates) == 14
        assert rep.representatives == representatives
        assert len(rep.survivors) == 3

    def test_cubic_conditions(self):
        rep = assert_as_direct(_file("coset_cubic.poly"),
                               peripheral=[parse("x - 1", XYZ)],
                               conditions=[parse("y + z", XYZ)])
        assert rep.survivors

    @pytest.mark.parametrize("seed", range(12))
    def test_random_symmetrized_systems(self, seed):
        """Systems fixed by S_3, with peripheral polynomials that keep a
        smaller group or none."""
        rng = random.Random(seed)
        polys = random_s3_system(rng)
        peripheral = [
            (), [parse(f"x - {rng.randint(2, 4)}", XYZ)],
            [parse(f"x*y - {rng.randint(1, 3)}", XYZ)],
            [parse(f"x - {rng.randint(1, 2)}*y + 1", XYZ)]][seed % 4]
        group = closure(symmetry_generators([polys, peripheral], 3), 3)
        rep = assert_as_direct(polys, peripheral=peripheral)
        if len(group) == 1:
            assert rep.representatives == len(rep.candidates)

    def test_random_systems_transport_survivors(self):
        """Over the seeds above, some survivors are transported, some of
        them with rational cosets."""
        survivors = resolved = 0
        for seed in range(12):
            polys = random_s3_system(random.Random(seed))
            rep = scan(polys)
            links = toruscan._orbits([c.subgroup for c in rep.candidates],
                                     symmetry_generators([polys], 3), 3)
            for i, ((r, _), c) in enumerate(zip(links, rep.candidates)):
                if r != i and c.status == "survivor":
                    survivors += 1
                    resolved += "unresolved" not in c.cosets
        assert survivors and resolved

    @pytest.mark.parametrize("max_pairs", [3, 12])
    def test_small_budget(self, max_pairs):
        """Representatives the budget leaves undetermined: their orbits
        are classified directly, with the same notes."""
        rep = assert_as_direct(_file("surface_deg14.poly"), ScanOptions(
            tier_mode=True, budget=Budget(max_pairs=max_pairs)))
        assert rep.undetermined
        assert rep.representatives == 13

    def test_threads(self):
        polys = _file("surface_deg14.poly")
        one, two = (scan(polys, options=ScanOptions(tier_mode=True,
                                                    threads=k))
                    for k in (1, 2))
        assert list(map(fields, one.candidates)) == \
            list(map(fields, two.candidates))
        assert one.representatives == two.representatives == 13

    def test_no_symmetry_classifies_every_candidate(self, monkeypatch):
        calls = []
        run = toruscan.coefficient_variety

        def spy(polys, N, *args):
            calls.append(N)
            return run(polys, N, *args)
        monkeypatch.setattr(toruscan, "coefficient_variety", spy)
        polys = [parse("x*y*z + 2*x + 3*y + z", XYZ)]
        rep = scan(polys)
        assert rep.representatives == len(rep.candidates) == len(calls)

    def test_transported_saturation_is_the_permuted_one(self):
        """The survivors of the cubic: the saturated ideal of each one is
        its representative's with the coordinates renamed."""
        rep = scan(_file("coset_cubic.poly"))
        by_vector = {c.subgroup.vector(): c for c in rep.survivors}
        base = by_vector[(0, 0, 1)]
        for sigma in itertools.permutations(range(3)):
            v = [0, 0, 0]
            v[sigma[2]] = 1
            cand = by_vector[tuple(v)]
            renamed = toruscan.Ideal(3, [rename(g, sigma) for g in
                                         base.saturated_generators])
            assert renamed.groebner_basis() == cand.saturated_generators


class TestTransport:
    """_transported against coefficient_variety on the transported
    candidate: a survivor's basis and cosets are renamed where that is
    sound and computed where it is not."""

    @pytest.mark.parametrize("cubic, resolved", [
        ("x*y*z + x + y + z", True),
        # the lines (t, k, -k) with k^2 = 2 are not rational
        ("x*y*z + 2*x + 2*y + 2*z", False)])
    def test_resolved_and_unresolved_representatives(self, cubic, resolved):
        rep = assert_as_direct([parse(cubic, XYZ)])
        assert len(rep.survivors) == 3 and rep.representatives < 14
        assert all(("unresolved" not in c.cosets) == resolved
                   for c in rep.survivors)

    @staticmethod
    def _transport(polys, rep, sigma, monkeypatch, orders=()):
        """_transported of rep by sigma, the number of coset solves it ran
        and the Buchberger runs it added to `orders`."""
        before = len(orders)
        solves = []
        solve = toruscan._solve_coset_points

        def spy(*args):
            solves.append(args)
            return solve(*args)
        monkeypatch.setattr(toruscan, "_solve_coset_points", spy)
        M = toruscan._permuted_subgroup(rep.subgroup, sigma)
        cand = toruscan._transported(toruscan._Projection(polys), M, sigma,
                                     rep, ScanOptions().budget)
        runs = list(orders[before:])
        monkeypatch.setattr(toruscan, "_solve_coset_points", solve)
        assert fields(cand) == fields(coefficient_variety(polys, M))
        return cand, len(solves), runs

    @pytest.mark.parametrize("sigma, runs", [
        ((1, 2, 0), []),             # keeps x < y: the basis is renamed
        ((2, 1, 0), ["grevlex"]),    # sends x, y to z, y: a grevlex run
        ((1, 0, 2), ["grevlex"]),    # swaps x and y, fixes the subgroup
    ])
    def test_basis_renamed_only_when_the_order_is_kept(
            self, sigma, runs, buchberger_orders, monkeypatch):
        polys = _file("coset_cubic.poly")
        rep = coefficient_variety(polys, ExponentSubgroup([[0, 0, 1]]))
        assert rep.status == "survivor" and rep.cosets
        assert set().union(*[g.variables_used()
                             for g in rep.saturated_generators]) == {0, 1}
        cand, solves, transport_runs = self._transport(
            polys, rep, sigma, monkeypatch, buchberger_orders)
        assert cand.status == "survivor" and solves == 0
        assert transport_runs == runs

    @pytest.mark.parametrize("cosets", [[], ["unresolved"]])
    def test_cosets_solved_anew_unless_resolved_and_nonempty(
            self, cosets, monkeypatch):
        """A representative whose list is empty or unresolved hands over no
        cosets: the transported candidate solves its own."""
        polys = _file("coset_cubic.poly")
        rep = coefficient_variety(polys, ExponentSubgroup([[0, 0, 1]]))
        rep.cosets = cosets
        cand, solves, _ = self._transport(polys, rep, (1, 2, 0), monkeypatch)
        assert solves == 1 and cand.cosets not in ([], ["unresolved"])

    def test_deg14_transported_survivors_run_no_buchberger(
            self, buchberger_orders, monkeypatch):
        runs = []
        transport = toruscan._transported

        def spy(*args):
            before = len(buchberger_orders)
            cand = transport(*args)
            runs.append((cand.status, buchberger_orders[before:]))
            return cand
        monkeypatch.setattr(toruscan, "_transported", spy)
        rep = scan(_file("surface_deg14.poly"),
                   options=ScanOptions(tier_mode=True))
        assert len(rep.survivors) == 3
        assert [r for status, r in runs if status == "survivor"] == [[], []]


class TestScanArity:
    @pytest.mark.parametrize("group, message", [
        ("peripheral", "peripheral polynomial 1 has 2 variables, "
                       "expected 3"),
        ("conditions", "condition 1 has 2 variables, expected 3"),
    ])
    def test_named_up_front(self, group, message, monkeypatch):
        def unreachable(*args):
            raise AssertionError("classified before the arity check")
        monkeypatch.setattr(toruscan, "coefficient_variety", unreachable)
        polys = _file("coset_cubic.poly")
        bad = [parse("x - 1", XYZ), parse("x - 1", ["x", "y"])]
        with pytest.raises(RingMismatch, match=message):
            scan(polys, ExponentSubgroup([[0, 0, 1]]), **{group: bad})

    def test_generators(self):
        polys = [parse("x + y + 1", ["x", "y"]),
                 parse("x*y*z - 2", XYZ)]
        with pytest.raises(RingMismatch,
                           match="polynomial 1 has 3 variables, expected 2"):
            scan(polys)
