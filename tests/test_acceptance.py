"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; 'exact' means Fraction/integer equality.
"""

import math
import random
import time
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from torion.crossratio import crossratio_m1, crossratio_m2, crossratio_m3
from torion.exactnum import RationalMatrix, UPoly, char_poly, number_field, \
    quartic_galois_class
from torion.groebner import Ideal, normal_form
from torion.heights import dirichlet_approx, enumerate_bounded, height_point, \
    mult_relation
from torion.multipoly import MultiPoly, data_text, parse, read_poly_file
from torion import crossratio, flatnet, toruscan


def report(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {text}")
    assert ok, f"criterion {num}: {text}"


# -- 1: cubic coset scan ------------------------------------------------------

def test_criterion_1_cubic_scan():
    t0 = time.time()
    _, polys = read_poly_file(data_text("coset_cubic.poly"))
    rep = toruscan.scan(polys)
    lines = set()
    for cand in rep.survivors:
        lines.update(toruscan.coset_lines_for_report(cand))
    expected = {"(t, 1, -1)", "(t, -1, 1)", "(1, t, -1)", "(-1, t, 1)",
                "(1, -1, t)", "(-1, 1, t)"}
    elapsed = time.time() - t0
    report(1, lines == expected and elapsed < 1.0,
           f"six coset lines, exact set equality, {elapsed:.2f}s < 1s")


# -- 2: degree-14 tiered pipeline --------------------------------------------

def test_criterion_2_degree14_pipeline():
    t0 = time.time()
    _, (h,) = read_poly_file(data_text("surface_deg14.poly"))
    transcription = (
        len(h.terms) == 199 and h.total_degree() == 14 and
        h.evaluate([F(1), F(1), F(1)]) == 0 and
        all(h.terms.get(tuple(e[p[i]] for i in range(3))) == c
            for p in ((1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1))
            for e, c in h.terms.items()))
    rep = toruscan.scan([h], options=toruscan.ScanOptions(tier_mode=True))
    survivors = {c.subgroup.vector(): toruscan.coset_lines_for_report(c)
                 for c in rep.survivors}
    expected = {(1, 0, 0): ["(t, 1, 1)"], (0, 1, 0): ["(1, t, 1)"],
                (0, 0, 1): ["(1, 1, t)"]}
    elapsed = time.time() - t0
    # survivor set equality is hard; the intermediate counts match the
    # documented canonicalization (primitive, first nonzero entry positive)
    report(2, transcription and rep.tier_counts == [8796, 51, 3] and
           survivors == expected and elapsed < 1800,
           f"tiers {rep.tier_counts}, survivors exact, {elapsed:.1f}s < 30min")


# -- 3: M_{0,10} subspace enumeration ----------------------------------------

def test_criterion_3_m010_enumeration():
    t0 = time.time()
    polys = crossratio.m010_system()
    starts = [toruscan.ExponentSubgroup(m, 9) for m in
              (crossratio_m1(), crossratio_m2(), crossratio_m3())]
    subs = toruscan.enumerate_subspaces_multi(polys, starts)
    by_rank = {}
    for s in subs:
        by_rank[s.rank] = by_rank.get(s.rank, 0) + 1
    survivors = [s for s in subs
                 if not toruscan.has_singleton_part(polys, s)]
    elapsed = time.time() - t0
    report(3, len(subs) == 554 and by_rank == {3: 3, 2: 97, 1: 454} and
           len(survivors) == 78 and elapsed < 600,
           f"554 subspaces {by_rank}, 78 after pruning, "
           f"{elapsed:.1f}s < 10min")


# -- 4: degeneration matrices -------------------------------------------------

def test_criterion_4_degeneration_matrices():
    t0 = time.time()
    trees = crossratio.standard_degeneration_trees()
    expected = [crossratio_m1(), crossratio_m2(), crossratio_m3()]
    ok = all([tuple(r) for r in crossratio.degeneration_matrix(t)] ==
             [tuple(r) for r in m] for t, m in zip(trees, expected))
    elapsed = time.time() - t0
    report(4, ok and elapsed < 1.0,
           f"unit twists reproduce all three matrices exactly, "
           f"{elapsed:.2f}s < 1s")


# -- 5: stability ideal membership -------------------------------------------

def test_criterion_5_stability_membership():
    t0 = time.time()
    _, (f1, f2) = crossratio.stability_surface_generators()
    I = Ideal(4, [f1, f2])
    P1, P2 = crossratio.odd4_stability_conditions()
    member = normal_form(P1, I).is_zero() and normal_form(P2, I).is_zero()
    point = [F(1), F(-1), F(1), F(-1)]
    jac = RationalMatrix([[f.derivative(i).evaluate(point) for i in range(4)]
                          for f in (f1, f2)])
    elapsed = time.time() - t0
    report(5, member and jac.rank() == 2 and elapsed < 10,
           f"P1, P2 in (f1, f2); Jacobian rank 2 at (1,-1,1,-1); "
           f"{elapsed:.2f}s < 10s")


# -- 6: monodromy characteristic polynomial -----------------------------------

def test_criterion_6_monodromy():
    t0 = time.time()
    A = RationalMatrix([[1, 0, -1, 0], [0, 1, 0, 2],
                        [0, 0, 1, 0], [0, 0, 0, 1]])
    B = RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0],
                        [-9, 3, 1, 0], [-2, 6, 0, 1]])
    cp = char_poly(A * B)
    target = UPoly([1, -25, 144, -25, 1])
    galois = quartic_galois_class(cp)
    elapsed = time.time() - t0
    report(6, cp == target and galois == "D4" and elapsed < 1.0,
           f"char poly {cp!r}, Galois {galois}, {elapsed:.2f}s < 1s")


# -- 7: height property suite -------------------------------------------------

def test_criterion_7_height_properties():
    t0 = time.time()
    rng = random.Random(101)
    ok = True
    for _ in range(1000):
        x = F(rng.randint(-40, 40) or 3, rng.randint(1, 40))
        k = rng.randint(1, 10) * rng.choice((1, -1))
        ok &= height_point([x ** k]).log_argument == \
            height_point([x]).log_argument ** abs(k)
    for _ in range(300):
        coords = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        if all(c == 0 for c in coords):
            continue
        lam = F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        ok &= height_point(coords, "projective").log_argument == \
            height_point([lam * c for c in coords],
                         "projective").log_argument
    for _ in range(100):
        n = rng.randint(1, 2)
        thetas = [F(rng.randint(-30, 30), rng.randint(1, 30))
                  for _ in range(n)]
        Q = rng.randint(2, 5)
        q, ps = dirichlet_approx(thetas, Q)
        ok &= 1 <= q < Q ** n
        ok &= all(abs(q * t - p) <= F(1, Q) for t, p in zip(thetas, ps))
    primes = (2, 3, 5)
    for _ in range(200):
        n = rng.randint(2, 3)
        rs = []
        for _ in range(n):
            v = F(1)
            for p in primes:
                v *= F(p) ** rng.randint(-2, 2)
            rs.append(v * rng.choice((1, -1)))
        got = mult_relation(rs)
        best = None
        for b in product(range(-8, 9), repeat=n):
            if not any(b):
                continue
            val = F(1)
            for r, e in zip(rs, b):
                val *= r ** e
            if val in (1, -1):
                s = max(abs(x) for x in b)
                if best is None or s < best:
                    best = s
        if best is None:
            ok &= got is None or max(abs(x) for x in got) > 8
        else:
            val = F(1)
            for r, e in zip(rs, got):
                val *= r ** e
            ok &= val in (1, -1) and max(abs(x) for x in got) == best
    elapsed = time.time() - t0
    report(7, ok and elapsed < 30,
           f"homogeneity/invariance/Dirichlet/relations all exact, "
           f"{elapsed:.1f}s < 30s")


# -- 8: electrical-network suite ----------------------------------------------

def _acceptance_catalog():
    G = flatnet.DualGraph
    return [
        G(["a", "b"], [("e1", "b", "a"), ("e2", "b", "a")]),
        G(["a", "b"], [("e1", "b", "a"), ("e2", "b", "a"),
                       ("e3", "b", "a")]),
        G(["a", "b"], [("e1", "b", "a"), ("e2", "b", "a"), ("e3", "b", "a"),
                       ("e4", "b", "a")]),
        G(["a", "b"], [("e1", "b", "a"), ("e2", "b", "a"), ("e3", "b", "a"),
                       ("e4", "b", "a"), ("e5", "b", "a")]),
        G(["a", "b", "c"], [("e1", "a", "b"), ("e2", "a", "b"),
                            ("e3", "b", "c"), ("e4", "b", "c")]),
        G(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c"),
                            ("e3", "c", "a"), ("e4", "a", "b")]),
        G(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c"),
                            ("e3", "c", "a"), ("e4", "a", "b"),
                            ("e5", "b", "c")]),
        G(["a", "b", "c"], [("e1", "a", "b"), ("e2", "a", "b"),
                            ("e3", "b", "c"), ("e4", "b", "c"),
                            ("e5", "a", "a")]),
    ]


def test_criterion_8_network_suite():
    t0 = time.time()
    ok = True
    audited = 0
    for g in _acceptance_catalog():
        nblocks = len(flatnet.block_decomposition(g).blocks)
        circuits = g.fundamental_circuits()
        for v1, v2 in combinations(g.vertices, 2):
            for N in (1, 2, 3, 4):
                flows = flatnet.enumerate_currents(g, N, (v1, v2))
                families = [[f] for f in flows]
                if flows:
                    families.append(flows)
                for fam in families:
                    out = flatnet.solve_moduli(g, fam)
                    if out.kind == "unique-per-block":
                        ok &= out.nullity == nblocks
                        m = out.moduli.values
                        for ca in fam:
                            for _, circ in circuits:
                                total = sum(s * ca.currents[e] * m[e]
                                            for e, s in circ.items())
                                ok &= total == 0
                        for _, tup in out.moduli.block_canonical:
                            res, _, _ = flatnet.moduli_height_audit(tup, N)
                            ok &= res
                            audited += 1
                    else:
                        ok &= out.nullity is None or out.nullity != nblocks \
                            or out.kind == "infeasible"
    elapsed = time.time() - t0
    report(8, ok and elapsed < 300,
           f"circuit relations, nullspace oracle, audits ({audited} blocks) "
           f"all exact, {elapsed:.1f}s < 5min")


# -- 9: trace-matrix checks ----------------------------------------------------

def _is_psd(m: RationalMatrix) -> bool:
    n = m.rows
    for r in range(1, n + 1):
        for subset in combinations(range(n), r):
            sub = RationalMatrix([[m.entries[i][j] for j in subset]
                                  for i in subset])
            if sub.det() < 0:
                return False
    return True


def test_criterion_9_trace_matrix():
    t0 = time.time()
    G = flatnet.DualGraph
    blocks = [
        G(["a", "b"], [("e1", "b", "a"), ("e2", "b", "a")]),
        G(["a", "b"], [("e1", "b", "a"), ("e2", "b", "a"),
                       ("e3", "b", "a")]),
        G(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c"),
                            ("e3", "c", "a"), ("e4", "a", "b")]),
    ]
    ok = True
    rng = random.Random(7)
    for g in blocks:
        ids = g.edge_ids()
        m = {e: F(rng.randint(1, 5)) for e in ids}
        q = flatnet.trace_matrix(g, m).matrix
        ok &= q.entries == q.transpose().entries
        ok &= _is_psd(q)
        q_scaled = flatnet.trace_matrix(
            g, {e: 3 * v for e, v in m.items()}).matrix
        ok &= (q_scaled * F(3)).entries == q.entries
    worked = flatnet.trace_matrix(
        G(["a", "b"], [("e1", "b", "a"), ("e2", "b", "a")]),
        {"e1": F(1), "e2": F(2)}).matrix
    ok &= worked.entries == RationalMatrix([[F(1, 3), F(-1, 3)],
                                            [F(-1, 3), F(1, 3)]]).entries
    elapsed = time.time() - t0
    report(9, ok and elapsed < 10,
           f"Q symmetric PSD, inverse scaling, worked example exact, "
           f"{elapsed:.2f}s < 10s")


# -- 10: cross-ratio / stable-form suite --------------------------------------

def test_criterion_10_crossratio_suite():
    t0 = time.time()
    rng = random.Random(23)
    ok = True
    # residue sums vanish on a configuration corpus
    for _ in range(40):
        poles = rng.sample(range(-40, 40), 6)
        cfg = crossratio.StableFormConfig(
            zeros=[(rng.choice([x for x in range(41, 60)]), 4)],
            poles=poles,
            pair_partition=[[0, 1], [2, 3], [4, 5]])
        ok &= sum(crossratio.residues(cfg)) == 0
    # Moebius invariance
    done = 0
    while done < 100:
        zs = [F(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(4)]
        if len(set(zs)) < 4:
            continue
        mat = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        if mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] == 0:
            continue
        pts = [crossratio.ProjPoint.of(z) for z in zs]
        ok &= crossratio.cross_ratio(*pts) == crossratio.cross_ratio(
            *[crossratio.mobius_apply(mat, p) for p in pts])
        done += 1
    # round trips
    done = 0
    while done < 100:
        try:
            pairs = [(F(rng.randint(-20, 20), rng.randint(1, 3)),
                      F(rng.randint(-20, 20), rng.randint(1, 3)))
                     for _ in range(3)]
            zs = [F(rng.randint(2, 40), rng.randint(1, 3))]
            vals = crossratio.crmin_forward(pairs, zs)
        except crossratio.DomainViolation:
            continue
        got_pairs, got_zs = crossratio.crmin_inverse(vals, 3, 1)
        ok &= got_pairs == pairs and got_zs == zs
        done += 1
    # numeric vanishing of the degree-14 polynomial on surface samples
    import mpmath
    _, (h,) = read_poly_file(data_text("surface_deg14.poly"))
    done = 0
    with mpmath.workdps(60):
        while done < 50:
            x1 = mpmath.mpf(rng.randint(-280, 280)) / 100
            y1 = mpmath.mpf(rng.randint(-280, 280)) / 100
            if abs(x1 + y1) < mpmath.mpf("0.01"):
                continue
            q0 = x1 * x1 + y1 * y1
            s = (q0 - 2) / (x1 + y1)
            disc = 2 * q0 - s * s
            if disc <= mpmath.mpf("1e-4"):
                continue
            r = mpmath.sqrt(disc) / 2
            x2, y2 = s / 2 + r, s / 2 - r
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
            ok &= abs(val) <= mpmath.mpf("1e-8")
            done += 1
    elapsed = time.time() - t0
    report(10, ok and elapsed < 120,
           f"residue sums, invariance, round trips, numeric membership "
           f"<= 1e-8, {elapsed:.1f}s < 2min")
