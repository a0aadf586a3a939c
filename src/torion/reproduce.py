"""Golden-value reproductions of the paper's computations.

Each target is a function `(budget, threads) -> (ok, results)`: it runs
one exact computation and compares it with the values the paper states.
The scans of lem-so and lem-so-odd classify on `threads` worker processes;
the other targets run serially.  `results` holds the computed values
(JSON-ready, every one exact) and `GOLDEN` the paper's values under the
same keys.  A scan that the budget cuts short decides nothing: its target
returns ok = None, with the number of undetermined candidates under
`results["undetermined"]`.  The targets:

- lem-so: the six coset lines of the cubic xyz + x + y + z = 0 in G_m^3;
- lem-so-odd: the degree-14 hypersurface scan, whose tiers count
  8796 -> 51 -> 3 with the three coordinate lines surviving;
- m010-subspaces, m010-prune: the computer search for subtori of the
  codimension-two subvariety of G^9 (M_{0,10}), 554 subspaces of ranks
  {1: 454, 2: 97, 3: 3}, 78 of them with no singleton part;
- matrices-m123: the degeneration matrices M1-M3 of the standard trees;
- charpoly-d4: the characteristic polynomial x^4 - 25x^3 + 144x^2 - 25x + 1
  of the monodromy product, with Galois group D4;
- moduli-audit: the moduli height bound on every unique-per-block flow of
  the small graph catalog.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import crossratio
from . import flatnet
from . import toruscan
from .exactnum import RationalMatrix, UPoly, char_poly, quartic_galois_class
from .multipoly import data_text, read_poly_file

M010_COUNTS = {"total": 554, "rank_profile": {"1": 454, "2": 97, "3": 3}}

GOLDEN = {
    "lem-so": {"lines": sorted(["(t, 1, -1)", "(t, -1, 1)", "(1, t, -1)",
                                "(-1, t, 1)", "(1, -1, t)", "(-1, 1, t)"])},
    "lem-so-odd": {
        "tier_counts": [8796, 51, 3],
        "survivors": {"(0, 0, 1)": ["(1, 1, t)"],
                      "(0, 1, 0)": ["(1, t, 1)"],
                      "(1, 0, 0)": ["(t, 1, 1)"]},
    },
    "m010-subspaces": M010_COUNTS,
    "m010-prune": {**M010_COUNTS, "after_pruning": 78},
    "matrices-m123": {"matrices": [
        [list(row) for row in m()] for m in (crossratio.crossratio_m1,
                                             crossratio.crossratio_m2,
                                             crossratio.crossratio_m3)]},
    "charpoly-d4": {"char_poly": repr(UPoly([1, -25, 144, -25, 1])),
                    "galois_class": "D4"},
    "moduli-audit": {"failures": []},
}

# the printed degree-14 polynomial: its term count and total degree, and it
# vanishes at (1, 1, 1)
DEG14_TERMS = 199
DEG14_DEGREE = 14

# the two monodromy matrices whose product has the D4 characteristic
# polynomial
D4_A = [[1, 0, -1, 0], [0, 1, 0, 2], [0, 0, 1, 0], [0, 0, 0, 1]]
D4_B = [[1, 0, 0, 0], [0, 1, 0, 0], [-9, 3, 1, 0], [-2, 6, 0, 1]]


def _verdict(target, results):
    """(results agree with the golden values, results)."""
    golden = GOLDEN[target]
    return all(results[k] == v for k, v in golden.items()), results


def _scan_verdict(target, rep, results):
    """`_verdict` of a finished scan; (None, results) when the budget left
    candidates undetermined."""
    if rep.undetermined:
        return None, {**results, "undetermined": len(rep.undetermined)}
    return _verdict(target, results)


def lem_so(budget, threads):
    _, polys = read_poly_file(data_text("coset_cubic.poly"))
    rep = toruscan.scan(polys, options=toruscan.ScanOptions(
        budget=budget, threads=threads))
    lines = set()
    for cand in rep.survivors:
        lines.update(toruscan.coset_lines_for_report(cand))
    return _scan_verdict("lem-so", rep, {"lines": sorted(lines)})


def lem_so_odd(budget, threads):
    """Also checks the transcription of the printed polynomial."""
    _, polys = read_poly_file(data_text("surface_deg14.poly"))
    h = polys[0]
    transcribed = len(h.terms) == DEG14_TERMS and \
        h.total_degree() == DEG14_DEGREE and \
        h.evaluate([Fraction(1)] * 3) == 0
    rep = toruscan.scan(polys, options=toruscan.ScanOptions(
        tier_mode=True, budget=budget, threads=threads))
    survivors = {str(cand.subgroup.vector()):
                 toruscan.coset_lines_for_report(cand)
                 for cand in rep.survivors}
    ok, results = _scan_verdict("lem-so-odd", rep, {
        "tier_counts": rep.tier_counts,
        "survivors": dict(sorted(survivors.items()))})
    return transcribed and ok, results


def _m010(target, prune):
    polys = crossratio.m010_system()
    M = [toruscan.ExponentSubgroup(rows, 9)
         for rows in (crossratio.crossratio_m1(), crossratio.crossratio_m2(),
                      crossratio.crossratio_m3())]
    subs = toruscan.enumerate_subspaces_multi(polys, M)
    by_rank = {}
    for s in subs:
        by_rank[s.rank] = by_rank.get(s.rank, 0) + 1
    results = {"total": len(subs),
               "rank_profile": {str(k): v
                                for k, v in sorted(by_rank.items())}}
    if prune:
        results["after_pruning"] = len(toruscan.singleton_free(polys, subs))
    return _verdict(target, results)


def m010_subspaces(budget, threads):
    return _m010("m010-subspaces", prune=False)


def m010_prune(budget, threads):
    return _m010("m010-prune", prune=True)


def matrices_m123(budget, threads):
    return _verdict("matrices-m123", {
        "matrices": [crossratio.degeneration_matrix(t)
                     for t in crossratio.standard_degeneration_trees()]})


def charpoly_d4(budget, threads):
    cp = char_poly(RationalMatrix(D4_A) * RationalMatrix(D4_B))
    galois = quartic_galois_class(cp) if cp.degree == 4 else None
    return _verdict("charpoly-d4", {"char_poly": repr(cp),
                                    "galois_class": galois})


def moduli_audit(budget, threads):
    failures = []
    checked = 0
    for g in flatnet.small_graph_catalog(max_edges=4):
        # the vertices are sorted, so each pair comes once, v1 < v2
        for pair in combinations(g.vertices, 2):
            for N in (1, 2, 3):
                for ca in flatnet.enumerate_currents(g, N, pair):
                    out = flatnet.solve_moduli(g, [ca])
                    if out.kind != "unique-per-block":
                        continue
                    for _, tup in out.moduli.block_canonical:
                        checked += 1
                        if not flatnet.moduli_height_audit(tup, N)[0]:
                            failures.append((repr(g), N, tup))
    return _verdict("moduli-audit", {"unique_blocks_checked": checked,
                                     "failures": failures})


TARGETS = {
    "lem-so": lem_so,
    "lem-so-odd": lem_so_odd,
    "m010-subspaces": m010_subspaces,
    "m010-prune": m010_prune,
    "matrices-m123": matrices_m123,
    "charpoly-d4": charpoly_d4,
    "moduli-audit": moduli_audit,
}
