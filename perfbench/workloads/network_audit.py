"""network-audit: the criterion-8 loop driven through the public flatnet API.

Over the eight-graph acceptance catalog, every vertex pair and N in 1..4:
enumerate_currents, then solve_moduli on each flow and on each whole family,
then moduli_height_audit on every unique block.  The exact linear algebra
here is RationalMatrix rank and kernel on integer circuit rows, where
enum-m010 runs intlat's RREF in nine dimensions; a merge of the two layers
shows on both workloads.  The seed permutes the order in which each graph
lists its edges, which cannot change a verdict.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from torion import flatnet
from torion.exactnum import RationalMatrix, identity_matrix

from core import NULL

GOLDEN = {
    "flows": 9305,
    "solves": 9369,
    "unique-per-block": 39,
    "underdetermined": 44,
    "infeasible": 9286,
    "audited": 81,
}

LAYERS = [
    "flatnet.enumerate_currents.s", "flatnet.enumerate_currents.calls",
    "flatnet.enumerate_currents.flows",
    "flatnet.solve_moduli.s", "flatnet.solve_moduli.calls",
    "flatnet.solve_moduli.unique", "flatnet.solve_moduli.underdetermined",
    "flatnet.solve_moduli.infeasible",
    "flatnet.block_decomposition.s", "flatnet.fundamental_circuits.s",
    "exactnum.RationalMatrix.rank.s", "exactnum.RationalMatrix.rank.calls",
    "exactnum.RationalMatrix.kernel.s",
    "exactnum.RationalMatrix.kernel.calls",
    "flatnet.moduli_height_audit.s", "flatnet.moduli_height_audit.calls",
]

# The acceptance catalog: banana graphs with 2..5 edges, two bananas sharing
# a vertex, a triangle with a doubled edge (with and without a second
# doubled edge), and the shared-vertex bananas with a loop.
CATALOG = [
    (["a", "b"], [("e1", "b", "a"), ("e2", "b", "a")]),
    (["a", "b"], [("e1", "b", "a"), ("e2", "b", "a"), ("e3", "b", "a")]),
    (["a", "b"], [("e1", "b", "a"), ("e2", "b", "a"), ("e3", "b", "a"),
                  ("e4", "b", "a")]),
    (["a", "b"], [("e1", "b", "a"), ("e2", "b", "a"), ("e3", "b", "a"),
                  ("e4", "b", "a"), ("e5", "b", "a")]),
    (["a", "b", "c"], [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c"),
                       ("e4", "b", "c")]),
    (["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
                       ("e4", "a", "b")]),
    (["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
                       ("e4", "a", "b"), ("e5", "b", "c")]),
    (["a", "b", "c"], [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c"),
                       ("e4", "b", "c"), ("e5", "a", "a")]),
]


def build(seed, tr, out_dir):
    rng = random.Random(seed)
    graphs = []
    for vertices, edges in CATALOG:
        edges = list(edges)
        if seed:
            rng.shuffle(edges)
        graphs.append(flatnet.DualGraph(vertices, edges))
    return {"graphs": graphs}


def _pass(inputs, check, tr):
    kinds = dict.fromkeys(("unique-per-block", "underdetermined",
                           "infeasible"), 0)
    flows_total = audited = 0
    moduli = []
    solved = []
    for gi, g in enumerate(inputs["graphs"]):
        with tr.span("flatnet.block_decomposition"):
            blocks = flatnet.block_decomposition(g).blocks
        with tr.span("flatnet.fundamental_circuits"):
            circuits = g.fundamental_circuits()
        for v1, v2 in combinations(g.vertices, 2):
            for N in (1, 2, 3, 4):
                try:
                    with tr.span("flatnet.enumerate_currents"):
                        flows = flatnet.enumerate_currents(g, N, (v1, v2))
                    flows_total += len(flows)
                    families = [[f] for f in flows] + ([flows] if flows
                                                       else [])
                    for fam in families:
                        with tr.span("flatnet.solve_moduli"):
                            out = flatnet.solve_moduli(g, fam)
                        kinds[out.kind] += 1
                        solved.append((g, blocks, circuits, fam, out))
                        if out.kind != "unique-per-block":
                            check("nullity oracle",
                                  out.nullity is None
                                  or out.nullity != len(blocks)
                                  or out.kind == "infeasible")
                            continue
                        m = out.moduli.values
                        check("nullity equals block count",
                              out.nullity == len(blocks))
                        check("circuit relations vanish",
                              all(sum(s * ca.currents[e] * m[e]
                                      for e, s in circ.items()) == 0
                                  for ca in fam for _, circ in circuits))
                        for _, tup in out.moduli.block_canonical:
                            with tr.span("flatnet.moduli_height_audit"):
                                ok, _, _ = flatnet.moduli_height_audit(tup,
                                                                       N)
                            check("height audit", ok)
                            audited += 1
                        moduli.append((gi, v1, v2, N, len(fam),
                                       sorted((e, str(x))
                                              for e, x in m.items())))
                except flatnet.BudgetExceeded:
                    check.undetermined += 1
                    check.fail(f"budget exceeded: graph {gi}, N={N}")
    answer = {"flows": flows_total, "solves": len(solved),
              **kinds, "audited": audited}
    for key, value in answer.items():
        check(f"{key} count", value == GOLDEN[key])
    tr.set("flatnet.enumerate_currents.flows", flows_total)
    tr.set("flatnet.solve_moduli.unique", kinds["unique-per-block"])
    tr.set("flatnet.solve_moduli.underdetermined", kinds["underdetermined"])
    tr.set("flatnet.solve_moduli.infeasible", kinds["infeasible"])
    answer["moduli"] = moduli
    return answer, solved


def run(inputs, check):
    return _pass(inputs, check, NULL)[0]


def traced_pass(inputs, check, tr):
    return _pass(inputs, check, tr)[1]


def _canonical(vec):
    """Coprime integer form with a positive first entry, as solve_moduli
    reports a block's ray."""
    if vec[0] < 0:
        vec = [-x for x in vec]
    den = 1
    for x in vec:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    return tuple(x // g for x in ints)


def replay(inputs, check, tr, solved):
    """Replays solve_moduli's linear algebra on the same circuit rows: the
    rank of the whole system and the kernel of every block."""
    for g, blocks, circuits, fam, out in solved:
        ids = g.edge_ids()
        pos = {eid: i for i, eid in enumerate(ids)}
        rows = []
        for _, circ in circuits:
            for ca in fam:
                row = [Fraction(0)] * len(ids)
                for eid, s in circ.items():
                    row[pos[eid]] = Fraction(s * ca.currents.get(eid, 0))
                rows.append(row)
        with tr.span("exactnum.RationalMatrix.rank"):
            rank = RationalMatrix(rows).rank() if rows else 0
        if out.nullity is not None:
            check("replayed nullity", len(ids) - rank == out.nullity)
        dof = 0
        rays = []
        for blk in blocks:
            cols = [pos[e] for e in blk]
            brows = [sub for sub in ([row[c] for c in cols] for row in rows)
                     if any(sub)]
            if brows:
                with tr.span("exactnum.RationalMatrix.kernel"):
                    kern = RationalMatrix(brows).kernel()
            else:
                kern = identity_matrix(len(cols)).entries
            dof += max(len(kern) - 1, 0)
            if len(kern) == 1:
                rays.append((list(blk), _canonical(kern[0])))
        if out.kind == "unique-per-block":
            check("replayed block rays", rays == out.moduli.block_canonical)
        elif out.kind == "underdetermined":
            check("replayed degrees of freedom",
                  dof == out.degrees_of_freedom)
