import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from itertools import combinations, permutations, product

import pytest

from torion import flatnet, intlat
from torion.exactnum import RationalMatrix, UPoly, number_field
from torion.flatnet import (BudgetExceeded, CurrentAssignment, Disconnected,
                            DualGraph, ModuliOutcome, ModuliVector,
                            SingularP, UnknownEdge, UnknownVertex,
                            block_decomposition, enumerate_currents,
                            kirchhoff_check, moduli_height_audit,
                            small_graph_catalog,
                            solve_moduli, trace_matrix)


def theta():
    return DualGraph(["a", "b"],
                     [("e1", "b", "a"), ("e2", "b", "a"), ("e3", "b", "a")])


def banana2():
    return DualGraph(["a", "b"], [("e1", "b", "a"), ("e2", "b", "a")])


def two_triangles():
    """A triangle with a doubled edge, and with two doubled edges."""
    return [DualGraph(["a", "b", "c"],
                      [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
                       ("e4", "a", "b")]),
            DualGraph(["a", "b", "c"],
                      [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
                       ("e4", "a", "b"), ("e5", "b", "c")])]


def bananas_with_loop():
    """Two bananas sharing a vertex, with a loop."""
    return DualGraph(["a", "b", "c"],
                     [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c"),
                      ("e4", "b", "c"), ("e5", "a", "a")])


def trees():
    """Graphs with no circuit (b1 = 0): one edge, and the path a-b-c."""
    return [DualGraph(["a", "b"], [("e1", "a", "b")]),
            DualGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "c", "b")])]


def audit_catalog():
    """The eight graphs of the criterion-8 network audit: banana graphs
    with 2..5 edges, two bananas sharing a vertex, the two triangles and
    the shared-vertex bananas with a loop."""
    return small_graph_catalog()[:5] + two_triangles() + \
        [bananas_with_loop()]


class TestGraph:
    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            DualGraph(["a", "b", "c"], [("e1", "a", "b")])

    def test_stable_mode_rejects_bridges(self):
        # not the dual graph of a stable curve: e3 separates c
        g = DualGraph(["a", "b", "c"],
                      [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c")])
        assert g.bridges() == ["e3"]

    def test_spanning_tree_smallest_ids(self):
        g = theta()
        assert g.spanning_tree() == ["e1"]

    def test_bridges_match_edge_deletion(self):
        """bridges() equals the non-loop edges whose deletion disconnects
        the graph, on random connected multigraphs."""
        def connected(vs, edges):
            seen = {vs[0]}
            grow = True
            while grow:
                grow = False
                for _, t, h in edges:
                    if (t in seen) != (h in seen):
                        seen.update((t, h))
                        grow = True
            return seen == set(vs)

        rng = random.Random(1)
        checked = 0
        while checked < 200:
            vs = [chr(ord("a") + i) for i in range(rng.randint(2, 5))]
            edges = [(f"e{i+1}", rng.choice(vs), rng.choice(vs))
                     for i in range(rng.randint(len(vs) - 1, 7))]
            if not connected(vs, edges):
                continue
            checked += 1
            expect = [eid for eid, t, h in edges if t != h and not
                      connected(vs, [e for e in edges if e[0] != eid])]
            assert DualGraph(vs, edges).bridges() == sorted(expect), edges


class TestBlocks:
    def test_theta_single_block(self):
        assert block_decomposition(theta()).blocks == [["e1", "e2", "e3"]]

    def test_two_blocks_at_articulation(self):
        g = DualGraph(["a", "b", "c"],
                      [("e1", "a", "b"), ("e2", "a", "b"),
                       ("e3", "b", "c"), ("e4", "b", "c")])
        d = block_decomposition(g)
        assert d.blocks == [["e1", "e2"], ["e3", "e4"]]
        assert d.articulation_vertices == ["b"]

    def test_decomposition_is_a_copy(self):
        """The blocks are cached on the graph; what callers get back is
        theirs to change."""
        g = DualGraph(["a", "b", "c"],
                      [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c")])
        d = block_decomposition(g)
        d.blocks[0].append("e9")
        d.blocks.append(["e8"])
        d.articulation_vertices.clear()
        g.bridges().append("e7")
        again = block_decomposition(g)
        assert again.blocks == [["e1", "e2"], ["e3"]]
        assert again.articulation_vertices == ["b"]
        assert g.bridges() == ["e3"]

    def test_loop_is_own_block(self):
        g = DualGraph(["a", "b"],
                      [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "a", "a")])
        d = block_decomposition(g)
        assert ["e3"] in d.blocks

    def test_brute_force_oracle(self):
        """Blocks agree with the delete-a-vertex oracle on all connected
        multigraphs with <= 6 edges over <= 4 vertices (sampled)."""
        rng = random.Random(0)
        checked = 0
        while checked < 60:
            nv = rng.randint(2, 4)
            vs = [chr(ord("a") + i) for i in range(nv)]
            ne = rng.randint(nv - 1, 6)
            edges = []
            for i in range(ne):
                t, h = rng.choice(vs), rng.choice(vs)
                edges.append((f"e{i+1}", t, h))
            try:
                g = DualGraph(vs, edges)
            except Disconnected:
                continue
            checked += 1
            blocks = block_decomposition(g).blocks
            # oracle: blocks are the transitive closure of "the two edges
            # lie on a common simple cycle"; simple cycles of a multigraph
            # are the connected edge subsets in which every touched vertex
            # has degree exactly two (a loop counts twice)
            ids = g.edge_ids()
            parent = {e: e for e in ids}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for r in range(1, len(ids) + 1):
                for subset in combinations(ids, r):
                    deg = {}
                    for e in subset:
                        t, h = g.edges[e]
                        deg[t] = deg.get(t, 0) + 1
                        deg[h] = deg.get(h, 0) + 1
                    if any(d != 2 for d in deg.values()):
                        continue
                    touched = set(deg)
                    seen = {next(iter(touched))}
                    grow = True
                    while grow:
                        grow = False
                        for e in subset:
                            t, h = g.edges[e]
                            if (t in seen) != (h in seen):
                                seen.update({t, h})
                                grow = True
                    if seen != touched:
                        continue
                    first = subset[0]
                    for e in subset[1:]:
                        parent[find(e)] = find(first)
            oracle_blocks = {}
            for e in ids:
                oracle_blocks.setdefault(find(e), []).append(e)
            expect = sorted(sorted(b) for b in oracle_blocks.values())
            assert sorted(blocks) == expect, (g,)
            # oracle: a vertex is an articulation vertex when deleting it
            # disconnects the rest (loops play no part in that), or when it
            # carries a loop and another edge
            arts = []
            for v in vs:
                rest = [u for u in vs if u != v]
                es = [(t, h) for t, h in g.edges.values()
                      if v not in (t, h) and t != h]
                seen = {rest[0]}
                grow = True
                while grow:
                    grow = False
                    for t, h in es:
                        if (t in seen) != (h in seen):
                            seen.update({t, h})
                            grow = True
                at_v = [(t, h) for t, h in g.edges.values() if v in (t, h)]
                if seen != set(rest) or \
                        ((v, v) in at_v and len(at_v) > 1):
                    arts.append(v)
            assert block_decomposition(g).articulation_vertices == arts, (g,)


class TestKirchhoff:
    def test_theta_examples(self):
        g = theta()
        assert kirchhoff_check(g, CurrentAssignment(
            {"a": 3, "b": -3}, {"e1": 1, "e2": 1, "e3": 1}))
        assert not kirchhoff_check(g, CurrentAssignment(
            {"a": 3, "b": -3}, {"e1": 1, "e2": 1, "e3": 2}))

    def test_circulation(self):
        g = DualGraph(["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")])
        assert kirchhoff_check(g, CurrentAssignment(
            {"a": 0, "b": 0}, {"e1": 5, "e2": 5}))

    def test_unknown_edge(self):
        with pytest.raises(UnknownEdge):
            kirchhoff_check(theta(), CurrentAssignment({"a": 0, "b": 0},
                                                       {"zz": 1}))

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            kirchhoff_check(theta(), CurrentAssignment(
                {"a": 1, "zz": -1}, {"e1": 0}))

    def test_unknown_edge_before_unknown_vertex(self):
        with pytest.raises(UnknownEdge):
            kirchhoff_check(theta(), CurrentAssignment(
                {"a": 1, "zz": -1}, {"e1": 0, "e9": 1}))

    def test_loop_current_nets_to_zero(self):
        g = DualGraph(["a", "b"], [("e1", "b", "a"), ("e2", "a", "a")])
        assert kirchhoff_check(g, CurrentAssignment(
            {"a": 2, "b": -2}, {"e1": 2, "e2": 7}))
        assert not kirchhoff_check(g, CurrentAssignment(
            {"a": 2, "b": -2}, {"e1": 1, "e2": 1}))

    def test_parallel_pair(self):
        g = banana2()
        assert kirchhoff_check(g, CurrentAssignment(
            {"a": 3, "b": -3}, {"e1": 5, "e2": -2}))
        assert not kirchhoff_check(g, CurrentAssignment(
            {"a": 3, "b": -3}, {"e1": 3, "e2": 3}))


class TestEnumerate:
    def test_two_edge_examples(self):
        g = banana2()
        flows = enumerate_currents(g, 3, ("a", "b"))
        assert sorted(tuple(f.currents[e] for e in ("e1", "e2"))
                      for f in flows) == [(0, 3), (1, 2), (2, 1), (3, 0)]
        flows1 = enumerate_currents(g, 1, ("a", "b"))
        assert sorted(tuple(f.currents[e] for e in ("e1", "e2"))
                      for f in flows1) == [(0, 1), (1, 0)]

    def test_theta_n1(self):
        flows = enumerate_currents(theta(), 1, ("a", "b"))
        got = sorted(tuple(f.currents[e] for e in ("e1", "e2", "e3"))
                     for f in flows)
        expect = sorted(t for t in product((-1, 0, 1), repeat=3)
                        if sum(t) == 1)
        assert got == expect

    def test_brute_force_oracle(self):
        """The flows are, in order, the points of the box [-N, N]^|E| that
        satisfy the current law with divisor N(v1 - v2).  Only tree
        currents are computed and bounded; a chord carries its own
        coordinate."""
        graphs = small_graph_catalog() + [
            two_triangles()[1], bananas_with_loop(),
            # a banana with a bridge to a pendant vertex
            DualGraph(["a", "b", "c"],
                      [("e1", "a", "b"), ("e2", "b", "a"), ("e3", "b", "c")]),
            # a 4-cycle with a diagonal
            DualGraph(["a", "b", "c", "d"],
                      [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d"),
                       ("e4", "d", "a"), ("e5", "a", "c")]),
        ] + trees()
        for g in graphs:
            ids = g.edge_ids()
            for v1, v2 in permutations(g.vertices, 2):
                for N in (1, 2, 3):
                    div = {v: 0 for v in g.vertices}
                    div[v1], div[v2] = N, -N
                    expect = [w for w in product(range(-N, N + 1),
                                                 repeat=len(ids))
                              if kirchhoff_check(g, CurrentAssignment(
                                  div, dict(zip(ids, w))))]
                    flows = enumerate_currents(g, N, (v1, v2))
                    assert [tuple(f.currents[e] for e in ids)
                            for f in flows] == expect, (g, v1, v2, N)
                    assert all(f.divisor == div and list(f.currents) == ids
                               for f in flows)
                    if not g._circuits:  # no circuit: the particular flow
                        assert len(flows) == 1, (g, v1, v2, N)

    def test_budget_exceeded_before_any_work(self, monkeypatch):
        """(2N+1)^b1 above `cap` raises before a single chord vector is
        produced; at the cap the enumeration runs."""
        g = theta()  # b1 = 2: 9 chord vectors at N = 1, 25 at N = 2
        assert len(enumerate_currents(g, 1, ("a", "b"), cap=9)) == 6

        def no_work(*args, **kwargs):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(flatnet, "product", no_work)
        monkeypatch.setattr(DualGraph, "tree_path", no_work)
        with pytest.raises(BudgetExceeded):
            enumerate_currents(g, 1, ("a", "b"), cap=8)
        with pytest.raises(BudgetExceeded):
            enumerate_currents(g, 2, ("a", "b"), cap=24)
        with pytest.raises(AssertionError):
            enumerate_currents(g, 2, ("a", "b"), cap=25)

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            enumerate_currents(theta(), 1, ("a", "a"))


class TestLawfulFlows:
    """Flows from enumerate_currents are immutable and carry the graph they
    were built lawful on; solve_moduli skips the current-law check for
    them on that graph alone."""

    def test_flows_are_immutable(self):
        g = theta()
        flows = enumerate_currents(g, 2, ("a", "b"))
        f = flows[0]
        with pytest.raises(TypeError):
            f.currents["e1"] = 0
        with pytest.raises(TypeError):
            f.divisor["a"] = 0
        for name in ("divisor", "currents", "torsion_bound", "_lawful_on"):
            with pytest.raises(FrozenInstanceError):
                setattr(f, name, None)
        assert all(h.divisor is f.divisor for h in flows)
        hand = CurrentAssignment({"a": 2, "b": -2}, {"e1": 1, "e2": 1,
                                                     "e3": 0})
        with pytest.raises(FrozenInstanceError):
            hand.currents = {}

    def test_flows_compare_as_plain_dicts(self):
        """The tag takes no part in comparison or repr, and each flow
        passes the checks of the public constructor, which enumerated
        flows skip."""
        for g in audit_catalog():
            v1, v2 = g.vertices[:2]
            for f in enumerate_currents(g, 2, (v1, v2)):
                plain = CurrentAssignment(dict(f.divisor), dict(f.currents),
                                          2)
                assert f.currents == dict(f.currents)
                assert f.divisor == {v: 2 if v == v1 else -2 if v == v2
                                     else 0 for v in g.vertices}
                assert f == plain and plain == f
                assert "_lawful_on" not in repr(f)
                assert "DualGraph" not in repr(f)
                assert plain._lawful_on is None

    @staticmethod
    def spy(monkeypatch):
        calls = []
        check = flatnet.kirchhoff_check

        def counted(g, ca):
            calls.append(ca)
            return check(g, ca)

        monkeypatch.setattr(flatnet, "kirchhoff_check", counted)
        return calls

    def test_check_skipped_on_own_graph_only(self, monkeypatch):
        calls = self.spy(monkeypatch)
        for g in audit_catalog():
            flows = enumerate_currents(g, 2, tuple(g.vertices[:2]))
            out = solve_moduli(g, flows)
            assert calls == []
            # an equal but distinct graph checks every flow, same outcome
            twin = DualGraph(g.vertices, [(e, t, h)
                                          for e, (t, h) in g.edges.items()])
            assert_same_outcome(solve_moduli(twin, flows), out, g)
            assert calls == flows
            calls.clear()

    def test_hand_built_checked_on_every_call(self, monkeypatch):
        calls = self.spy(monkeypatch)
        g = theta()
        good = CurrentAssignment({"a": 3, "b": -3},
                                 {"e1": 1, "e2": 1, "e3": 1})
        for n in (1, 2, 3):
            solve_moduli(g, [good])
            assert len(calls) == n
        bad = CurrentAssignment({"a": 3, "b": -3},
                                {"e1": 1, "e2": 1, "e3": 2})
        with pytest.raises(ValueError, match="constraint fails the current "
                                             "law"):
            solve_moduli(g, [bad])
        assert len(calls) == 4

    def test_other_graph_still_raises(self):
        """A flow of one graph handed to a graph without its edges or
        vertices raises as a hand-built one does."""
        flows = enumerate_currents(theta(), 1, ("a", "b"))
        with pytest.raises(UnknownEdge):
            solve_moduli(banana2(), flows)
        g = DualGraph(["a", "c"], [("e1", "c", "a"), ("e2", "c", "a"),
                                   ("e3", "c", "a")])
        with pytest.raises(UnknownVertex):
            solve_moduli(g, flows)
        # a lawless assignment among the flows of the same graph
        g = theta()
        bad = CurrentAssignment({"a": 1, "b": -1}, {"e1": 1, "e2": 1,
                                                    "e3": 1})
        with pytest.raises(ValueError, match="constraint fails the current "
                                             "law"):
            solve_moduli(g, enumerate_currents(g, 1, ("b", "a")) + [bad])


class TestSolveModuli:
    def test_ratio_example(self):
        out = solve_moduli(banana2(), [CurrentAssignment(
            {"a": 3, "b": -3}, {"e1": 2, "e2": 1})])
        assert out.kind == "unique-per-block"
        assert out.moduli.values == {"e1": F(1), "e2": F(2)}

    def test_symmetric_theta(self):
        out = solve_moduli(theta(), [CurrentAssignment(
            {"a": 3, "b": -3}, {"e1": 1, "e2": 1, "e3": 1})])
        assert out.kind == "unique-per-block"
        assert out.moduli.block_canonical == [(["e1", "e2", "e3"], (1, 1, 1))]

    def test_infeasible_with_witness(self):
        out = solve_moduli(theta(), [CurrentAssignment(
            {"a": 3, "b": -3}, {"e1": 3, "e2": 0, "e3": 0})])
        assert out.kind == "infeasible"
        # the row of circuit e2 - e1 is (-3, 0, 0): one-signed
        assert list(out.witness_circuit.items()) == [("e2", 1), ("e1", -1)]

    def test_returned_circuits_are_copies(self):
        """The graph's circuits are built once and shared; mutating a
        returned witness or circuit list changes no later result."""
        g = theta()
        ca = CurrentAssignment({"a": 3, "b": -3},
                               {"e1": 3, "e2": 0, "e3": 0})
        first = solve_moduli(g, [ca])
        witness = dict(first.witness_circuit)
        first.witness_circuit.clear()
        first.witness_circuit["e9"] = 5
        for _, circ in g.fundamental_circuits():
            circ.clear()
        g.spanning_tree().clear()
        again = solve_moduli(g, [ca])
        assert again.kind == "infeasible"
        assert again.witness_circuit == witness
        assert again.witness_circuit is not first.witness_circuit
        ok = solve_moduli(g, [CurrentAssignment(
            {"a": 3, "b": -3}, {"e1": 1, "e2": 1, "e3": 1})])
        assert ok.moduli.block_canonical == [(["e1", "e2", "e3"], (1, 1, 1))]

    def test_circuit_relations_hold(self):
        g = theta()
        out = solve_moduli(g, [CurrentAssignment(
            {"a": 4, "b": -4}, {"e1": 2, "e2": 1, "e3": 1})])
        assert out.kind == "unique-per-block"
        m = out.moduli.values
        for _, circ in g.fundamental_circuits():
            total = sum(s * 2 * m["e1"] if e == "e1" else
                        s * 1 * m[e] for e, s in circ.items())
            assert total == 0

    def test_per_block_scaling_invariance(self):
        g = DualGraph(["a", "b", "c"],
                      [("e1", "a", "b"), ("e2", "a", "b"),
                       ("e3", "b", "c"), ("e4", "b", "c")])
        ca = CurrentAssignment({"a": -2, "c": 2, "b": 0},
                               {"e1": 1, "e2": 1, "e3": 1, "e4": 1})
        out = solve_moduli(g, [ca])
        assert out.kind == "unique-per-block"
        # each block canonicalizes independently to (1, 1)
        assert [tup for _, tup in out.moduli.block_canonical] == \
            [(1, 1), (1, 1)]

    def test_uniqueness_matches_nullity_oracle(self):
        rng = random.Random(3)
        graphs = [banana2(), theta(),
                  DualGraph(["a", "b", "c"],
                            [("e1", "a", "b"), ("e2", "a", "b"),
                             ("e3", "b", "c"), ("e4", "b", "c")]),
                  DualGraph(["a", "b", "c"],
                            [("e1", "a", "b"), ("e2", "b", "c"),
                             ("e3", "c", "a"), ("e4", "a", "b")])]
        for g in graphs:
            nblocks = len(block_decomposition(g).blocks)
            pairs = [(v1, v2) for v1 in g.vertices for v2 in g.vertices
                     if v1 < v2]
            for (v1, v2) in pairs:
                for N in (1, 2, 3, 4):
                    flows = enumerate_currents(g, N, (v1, v2))
                    families = [[f] for f in flows] + \
                        ([flows] if flows else [])
                    for fam in families:
                        out = solve_moduli(g, fam)
                        if out.kind == "unique-per-block":
                            assert out.nullity == nblocks


class TestAudit:
    def test_examples(self):
        ok, margin, _ = moduli_height_audit((1, 2), 2)
        assert ok and abs(margin) < 1e-12
        ok0, _, _ = moduli_height_audit((1, 1, 1), 7)
        assert ok0
        bad, _, _ = moduli_height_audit((1, 5), 2)
        assert not bad

    def test_exhaustive_small_catalog(self):
        """Every unique block modulus from every current family with N <= 4
        passes the torsion height bound (desk-scale audit)."""
        graphs = [banana2(), theta(),
                  DualGraph(["a", "b"], [("e1", "b", "a"), ("e2", "b", "a"),
                                         ("e3", "b", "a"), ("e4", "b", "a")]),
                  DualGraph(["a", "b", "c"],
                            [("e1", "a", "b"), ("e2", "a", "b"),
                             ("e3", "b", "c"), ("e4", "b", "c")]),
                  DualGraph(["a", "b", "c"],
                            [("e1", "a", "b"), ("e2", "b", "c"),
                             ("e3", "c", "a"), ("e4", "a", "b"),
                             ("e5", "b", "c")])]
        checked = 0
        for g in graphs:
            for v1 in g.vertices:
                for v2 in g.vertices:
                    if v1 >= v2:
                        continue
                    for N in (1, 2, 3, 4):
                        for f in enumerate_currents(g, N, (v1, v2)):
                            out = solve_moduli(g, [f])
                            if out.kind != "unique-per-block":
                                continue
                            for _, tup in out.moduli.block_canonical:
                                ok, _, _ = moduli_height_audit(tup, N)
                                assert ok, (g, f.currents, tup, N)
                                checked += 1
        assert checked >= 30


class TestTraceMatrix:
    def test_worked_example(self):
        tm = trace_matrix(banana2(), {"e1": F(1), "e2": F(2)})
        assert tm.matrix.entries == RationalMatrix(
            [[F(1, 3), F(-1, 3)], [F(-1, 3), F(1, 3)]]).entries

    def test_inverse_scaling(self):
        q1 = trace_matrix(banana2(), {"e1": F(1), "e2": F(2)}).matrix
        q2 = trace_matrix(banana2(), {"e1": F(2), "e2": F(4)}).matrix
        assert (q2 * F(2)).entries == q1.entries

    def test_theta_symmetric_psd_rank(self):
        q = trace_matrix(theta(), {"e1": F(1), "e2": F(1), "e3": F(1)}).matrix
        assert q.entries == q.transpose().entries
        assert q.rank() == 2
        # PSD via leading principal minors of a symmetric PSD matrix being
        # nonnegative is not sufficient in general; use the Gram route:
        # Q = L P^-1 L^T with P = L^T M L positive definite, hence PSD.
        # Spot-check x^T Q x >= 0 on a rational grid.
        for x in product((-2, -1, 0, 1, 2), repeat=3):
            val = sum(F(x[i]) * q.entries[i][j] * F(x[j])
                      for i in range(3) for j in range(3))
            assert val >= 0

    def test_quadratic_field_gram_reproduction(self):
        """A width vector in ker Tr over Q(sqrt(2)) whose Kirchhoff flow
        matches the two-edge block reproduces Q as its trace Gram matrix."""
        f = number_field(UPoly([-2, 0, 1]))
        a = f.generator()
        # widths r, -r with Tr(r^2) = 1/3: r = 1/3 + sqrt(2)/6
        r1 = f.element([F(1, 3), F(1, 6)])
        r2 = -r1
        assert (r1 * r1).trace() == F(1, 3)
        q = trace_matrix(banana2(), {"e1": F(1), "e2": F(2)}).matrix
        gram = RationalMatrix([[(x * y).trace() for y in (r1, r2)]
                               for x in (r1, r2)])
        assert gram.entries == q.entries

    def test_k4_random_moduli(self):
        """Q is symmetric of rank b1, and Q M c = c for every fundamental
        circuit c (Q M is the projection onto the cycle space)."""
        g = DualGraph(["a", "b", "c", "d"],
                      [("e1", "a", "b"), ("e2", "c", "a"), ("e3", "a", "d"),
                       ("e4", "b", "c"), ("e5", "d", "b"), ("e6", "c", "d")])
        circuits = [[circ.get(e, 0) for e in g.edge_ids()]
                    for _, circ in g.fundamental_circuits()]
        rng = random.Random(4)
        for _ in range(5):
            m = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(6)]
            tm = trace_matrix(g, dict(zip(g.edge_ids(), m)))
            q = tm.matrix
            assert tm.edge_ids == g.edge_ids()
            assert q.entries == q.transpose().entries
            assert q.rank() == len(circuits) == 3
            for c in circuits:
                mc = [mi * ci for mi, ci in zip(m, c)]
                assert [sum(x * y for x, y in zip(row, mc))
                        for row in q.entries] == c

    def test_singular_p_flagged(self):
        g = banana2()
        with pytest.raises(SingularP):
            trace_matrix(g, {"e1": F(1), "e2": F(-1)})


class TestBlockNullity:
    def test_block_sum_matches_whole_rank(self):
        """solve_moduli sums block kernel dimensions; the rank of the whole
        circuit system in Fraction arithmetic is the reference."""
        from torion.flatnet import small_graph_catalog
        checked = 0
        for g in small_graph_catalog():
            ids = g.edge_ids()
            circuits = g.fundamental_circuits()
            for v1, v2 in combinations(g.vertices, 2):
                for N in (1, 2):
                    flows = enumerate_currents(g, N, (v1, v2))
                    for fam in [[f] for f in flows] + [flows]:
                        out = solve_moduli(g, fam)
                        if out.kind == "infeasible":
                            continue
                        rows = [[F(circ.get(e, 0) * ca.currents.get(e, 0))
                                 for e in ids]
                                for _, circ in circuits for ca in fam]
                        rank = RationalMatrix(rows).rank() if rows else 0
                        assert out.nullity == len(ids) - rank
                        checked += 1
        assert checked > 0


def _reference_circuit_rows(g, constraints):
    """One full-width integer row per (fundamental circuit, constraint)."""
    ids = g.edge_ids()
    pos = {eid: i for i, eid in enumerate(ids)}
    rows = []
    tags = []
    for chord, circ in g.fundamental_circuits():
        for ci, ca in enumerate(constraints):
            row = [0] * len(ids)
            for eid, s in circ.items():
                row[pos[eid]] = s * ca.currents.get(eid, 0)
            rows.append(row)
            tags.append((chord, ci, circ))
    return ids, rows, tags


def _reference_find_witness(rows, tags, cols):
    """The first row on `cols` whose nonzero entries share a sign, else the
    first nonzero row."""
    fallback = None
    for row, (chord, ci, circ) in zip(rows, tags):
        sub = [row[c] for c in cols]
        if not any(sub):
            continue
        fallback = fallback or circ
        nz = [x for x in sub if x != 0]
        if all(x > 0 for x in nz) or all(x < 0 for x in nz):
            return dict(circ)
    return None if fallback is None else dict(fallback)


def reference_solve_moduli(g, constraints):
    """solve_moduli as it was before the sign check came first: eliminate
    every block over full-width rows, test positivity by Fourier-Motzkin,
    and look for a witness only after a block fails."""
    for ca in constraints:
        if not kirchhoff_check(g, ca):
            raise ValueError("constraint fails the current law")
    ids, rows, tags = _reference_circuit_rows(g, constraints)
    pos = {eid: i for i, eid in enumerate(ids)}
    values = {}
    canonical = []
    dof = 0
    nullity = 0
    for blk in block_decomposition(g).blocks:
        cols = [pos[e] for e in blk]
        brows = [sub for sub in ([row[c] for c in cols] for row in rows)
                 if any(sub)]
        kern = intlat.echelon_kernel(brows, len(cols))
        if len(kern) == 0 or \
                not flatnet._positive_combination_exists(kern, len(cols)):
            witness = _reference_find_witness(rows, tags, cols)
            return ModuliOutcome("infeasible", witness_circuit=witness)
        nullity += len(kern)
        if len(kern) > 1:
            dof += len(kern) - 1
            continue
        vec = kern[0]
        if vec[0] < 0:
            vec = tuple(-x for x in vec)
        for e, v in zip(blk, vec):
            values[e] = F(v)
        canonical.append((list(blk), vec))
    if dof > 0:
        return ModuliOutcome("underdetermined", degrees_of_freedom=dof,
                             nullity=nullity)
    return ModuliOutcome("unique-per-block",
                         moduli=ModuliVector(values, canonical),
                         nullity=nullity)


def assert_same_outcome(got, want, context):
    """Every ModuliOutcome field equal (moduli compares the values and the
    block_canonical rays)."""
    for field in ("kind", "moduli", "degrees_of_freedom", "nullity",
                  "witness_circuit"):
        assert getattr(got, field) == getattr(want, field), (field, context)
    if want.witness_circuit is not None:  # printed by the CLI: same order
        assert list(got.witness_circuit.items()) == \
            list(want.witness_circuit.items()), context


class TestSignCheckFirst:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_elimination_first_reference(self, seed):
        """On the network-audit catalog with shuffled edge lists, every
        vertex pair and N <= 4, single flows and whole families give the
        elimination-first reference's outcome, field for field."""
        rng = random.Random(seed)
        kinds = dict.fromkeys(("unique-per-block", "underdetermined",
                               "infeasible"), 0)
        for base in audit_catalog():
            edges = [(e, t, h) for e, (t, h) in base.edges.items()]
            if seed:
                rng.shuffle(edges)
            g = DualGraph(base.vertices, edges)
            for v1, v2 in combinations(g.vertices, 2):
                for N in (1, 2, 3, 4):
                    flows = enumerate_currents(g, N, (v1, v2))
                    for fam in [[f] for f in flows] + \
                            ([flows] if flows else []):
                        want = reference_solve_moduli(g, fam)
                        got = solve_moduli(g, fam)
                        assert_same_outcome(got, want,
                                            (g, v1, v2, N, len(fam)))
                        kinds[want.kind] += 1
        # the network-audit golden counts: every outcome kind is exercised
        assert kinds == {"unique-per-block": 39, "underdetermined": 44,
                         "infeasible": 9286}

    def test_fallback_witness_without_one_signed_row(self):
        """Two theta flows that admit no common positive moduli although
        every circuit row has both signs: the witness is the first nonzero
        row, as before."""
        g = theta()
        fam = [CurrentAssignment({"a": 3, "b": -3},
                                 {"e1": 1, "e2": 1, "e3": 1}),
               CurrentAssignment({"a": 4, "b": -4},
                                 {"e1": 1, "e2": 2, "e3": 1})]
        _, rows, _ = _reference_circuit_rows(g, fam)
        assert all(min(r) < 0 < max(r) for r in rows)
        out = solve_moduli(g, fam)
        assert out.kind == "infeasible"
        assert list(out.witness_circuit.items()) == [("e2", 1), ("e1", -1)]
        assert_same_outcome(out, reference_solve_moduli(g, fam), fam)
