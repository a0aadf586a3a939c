"""Electrical-network model of periodic directions: dual graphs, block
decompositions, integral Kirchhoff currents, exact moduli recovery from
circuit relations, height audits, and the trace-matrix construction.

The spanning tree with the smallest edge ids and its fundamental circuits
are the one graph layer: tree paths, flows, bridges, blocks (the components
of the cycle matroid, by union-find over the circuits) and trace matrices
all come from them.  Degeneration trees in `crossratio` use the same tree
paths.

Currents are integers, moduli are positive rationals determined per block up
to scale; every linear step is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from types import MappingProxyType

from . import intlat
from .exactnum import BudgetExceeded, RationalMatrix


class Disconnected(ValueError):
    pass


class UnknownEdge(ValueError):
    pass


class UnknownVertex(ValueError):
    pass


class SingularP(ArithmeticError, ValueError):
    pass


def find(parent, x):
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class DualGraph:
    """Oriented multigraph; loops and parallel edges allowed.  Edges are
    (id, tail, head).  The dual graph of a stable curve has no bridges:
    bridges() is that check."""

    def __init__(self, vertices, edges):
        self.vertices = sorted(set(vertices))
        self.edges = {}
        for eid, tail, head in edges:
            for v in (tail, head):
                if v not in self.vertices:
                    raise UnknownVertex(f"edge {eid} touches missing vertex "
                                        f"{v}")
            if eid in self.edges:
                raise ValueError(f"duplicate edge id {eid}")
            self.edges[eid] = (tail, head)
        if not self.is_connected():
            raise Disconnected("graph is not connected")

    def edge_ids(self):
        return sorted(self.edges)

    def is_connected(self):
        return len(self._tree) == len(self.vertices) - 1

    def bridges(self):
        """Separating edges: the blocks made of one non-loop edge."""
        out = []
        for blk in self._blocks[0]:
            t, h = self.edges[blk[0]]
            if len(blk) == 1 and t != h:
                out.append(blk[0])
        return out

    def spanning_tree(self):
        """Edge ids of the lexicographically smallest spanning tree (Kruskal
        over sorted ids)."""
        return list(self._tree)

    # A DualGraph is not changed after construction, so its spanning tree,
    # the tree's adjacency, the fundamental circuits and the blocks are
    # built once and shared by every tree path, flow, block decomposition
    # and circuit system; the public methods hand out copies.
    @cached_property
    def _tree(self):
        parent = {v: v for v in self.vertices}
        tree = []
        for eid in self.edge_ids():
            t, h = self.edges[eid]
            rt, rh = find(parent, t), find(parent, h)
            if rt != rh:
                parent[rt] = rh
                tree.append(eid)
        return tree

    @cached_property
    def _tree_adjacency(self):
        adj = {v: [] for v in self.vertices}
        for eid in self._tree:
            t, h = self.edges[eid]
            adj[t].append((eid, h, 1))
            adj[h].append((eid, t, -1))
        return adj

    def tree_path(self, a, b):
        """{edge id: +-1} of the spanning-tree path from vertex a to vertex
        b, +1 where the path runs from an edge's tail to its head."""
        adj = self._tree_adjacency
        prev = {a: None}
        stack = [a]
        while stack:
            u = stack.pop()
            if u == b:
                break
            for eid, w, s in adj[u]:
                if w not in prev:
                    prev[w] = (u, eid, s)
                    stack.append(w)
        path = {}
        u = b
        while prev[u] is not None:
            p, eid, s = prev[u]
            path[eid] = s
            u = p
        return path

    def fundamental_circuits(self):
        """[(chord id, {edge id: +-1})]: each chord with its tree-path
        closure, the chord crossed positively."""
        return [(chord, dict(circ)) for chord, circ in self._circuits]

    @cached_property
    def _circuits(self):
        tree = set(self._tree)
        out = []
        for eid in self.edge_ids():
            if eid in tree:
                continue
            t, h = self.edges[eid]
            circ = {eid: 1}
            if t != h:
                # close from head back to tail through the tree
                circ.update(self.tree_path(h, t))
            out.append((eid, circ))
        return out

    @cached_property
    def _blocks(self):
        """(blocks, articulation vertices), as `block_decomposition` states
        them."""
        parent = {eid: eid for eid in self.edges}
        for chord, circ in self._circuits:
            root = find(parent, chord)
            for eid in circ:
                parent[find(parent, eid)] = root
        members = {}
        for eid in self.edge_ids():  # a block first appears at its smallest id
            members.setdefault(find(parent, eid), []).append(eid)
        blocks = list(members.values())
        seen = set()
        arts = set()
        for blk in blocks:
            for v in {v for eid in blk for v in self.edges[eid]}:
                if v in seen:
                    arts.add(v)
                seen.add(v)
        return blocks, sorted(arts)

    @cached_property
    def _block_circuits(self):
        """Per block, in `_blocks` order: its circuits in global order, each
        as (circuit, [(column in the block, edge id, sign)])."""
        col = {e: i for blk in self._blocks[0] for i, e in enumerate(blk)}
        return [[(circ, [(col[e], e, s) for e, s in circ.items()])
                 for chord, circ in self._circuits if chord in blk]
                for blk in self._blocks[0]]

    def __repr__(self):
        return f"DualGraph({self.vertices}, {sorted(self.edges.items())})"


@dataclass
class BlockDecomposition:
    blocks: list  # [sorted edge id lists]
    articulation_vertices: list


def block_decomposition(g: DualGraph) -> BlockDecomposition:
    """Blocks: the connected components of the cycle matroid.  Two edges
    share a block exactly when a chain of fundamental circuits, each sharing
    an edge with the next, links them; a loop's circuit is the loop alone
    and a bridge lies on no circuit, so each is a block of one edge.
    Blocks are ordered by smallest edge id; articulation vertices are the
    vertices that lie in two or more blocks."""
    blocks, arts = g._blocks
    return BlockDecomposition([list(blk) for blk in blocks], list(arts))


@dataclass(frozen=True, slots=True)
class CurrentAssignment:
    """Vertex divisor c_v (summing to zero) and integer edge currents.

    Immutable: the fields cannot be rebound, and a flow from
    `enumerate_currents` hands out read-only views of its divisor and
    currents.  `_lawful_on` is the graph whose current law the assignment
    is known to satisfy (set only by `enumerate_currents`, which builds
    every flow lawful, through `_lawful`); it takes no part in comparison
    or repr, and `solve_moduli` skips the check for it on that graph
    alone."""
    divisor: dict
    currents: dict
    torsion_bound: int | None = None
    _lawful_on: DualGraph | None = field(default=None, init=False,
                                         compare=False, repr=False)

    def __post_init__(self):
        if sum(self.divisor.values()) != 0:
            raise ValueError("divisor degrees must sum to zero")
        if self.torsion_bound is not None and \
                any(abs(w) > self.torsion_bound
                    for w in self.currents.values()):
            raise ValueError("current exceeds the torsion bound")

    @classmethod
    def _lawful(cls, g, divisor, currents, torsion_bound):
        """A flow built lawful on g, of degree zero and within the torsion
        bound; `__post_init__`'s checks hold by construction and are not
        run."""
        ca = object.__new__(cls)
        object.__setattr__(ca, "divisor", divisor)
        object.__setattr__(ca, "currents", currents)
        object.__setattr__(ca, "torsion_bound", torsion_bound)
        object.__setattr__(ca, "_lawful_on", g)
        return ca


def kirchhoff_check(g: DualGraph, assignment: CurrentAssignment) -> bool:
    """Incoming minus outgoing current equals the vertex weight, everywhere
    (a loop's current leaves and enters its vertex, so it nets to zero)."""
    net = dict.fromkeys(g.vertices, 0)
    for eid, w in assignment.currents.items():
        if eid not in g.edges:
            raise UnknownEdge(f"unknown edge {eid}")
        t, h = g.edges[eid]
        net[t] -= w
        net[h] += w
    for v, c in assignment.divisor.items():
        if v not in net:
            raise UnknownVertex(f"unknown vertex {v}")
        net[v] -= c
    return not any(net.values())


def _interval_flows(tree_rows, k, N):
    """The current vectors, tree edges then chords, of `enumerate_currents`
    with k + 1 chords: the first k chords' currents c run over [-N, N]^k and
    the last chord's over the interval that keeps every tree current within
    N (empty when a tree edge off the last circuit leaves it)."""
    for c in product(range(-N, N + 1), repeat=k):
        lo, hi = -N, N
        xs = []
        for base, terms, s in tree_rows:
            x = base + sum(c[j] * t for j, t in terms)
            if s > 0:  # -N - x <= last <= N - x
                if -N - x > lo:
                    lo = -N - x
                if N - x < hi:
                    hi = N - x
            elif s < 0:  # x - N <= last <= x + N
                if x - N > lo:
                    lo = x - N
                if x + N < hi:
                    hi = x + N
            elif not -N <= x <= N:
                break
            xs.append((x, s))
        else:
            for last in range(lo, hi + 1):
                w = [x + s * last for x, s in xs]
                w.extend(c)
                w.append(last)
                yield w


def enumerate_currents(g: DualGraph, N: int, source_pair,
                       cap: int = 2_000_000):
    """All integral flows with divisor N(v1 - v2) and |w_e| <= N,
    lexicographic in edge-id order.

    Such a flow is the particular flow, N units along the tree path from v2
    to v1, plus sum_j c_j circuit_j over the fundamental circuits, where c_j
    is the current on chord j; so the flows are the chord vectors c in
    [-N, N]^b1 whose tree currents also stay within N.  Only the first
    b1 - 1 chords are looped over: a tree edge's current is x + s t with
    s in {-1, 0, 1} its entry on the last chord's circuit, so the last
    chord's current t runs over the intersection of the intervals
    -N <= x + s t <= N with [-N, N].  A graph with no circuit has the
    particular flow alone.  BudgetExceeded is raised before any work when
    (2N+1)^b1 exceeds `cap`.

    Every flow is built lawful, so it is tagged with g (`solve_moduli`
    checks it no further on g), and it is immutable: its currents are a
    read-only view of a dict of its own, and the flows of one call share
    one read-only view of the divisor."""
    v1, v2 = source_pair
    if N < 1:
        raise ValueError(f"torsion bound N = {N} is below 1")
    if v1 == v2:
        raise ValueError("source and sink must differ")
    for v in source_pair:
        if v not in g.vertices:
            raise UnknownVertex(f"unknown vertex {v}")
    circuits = g._circuits
    if (2 * N + 1) ** len(circuits) > cap:
        raise BudgetExceeded("current enumeration cap")
    ids = g.edge_ids()
    tree = g._tree
    path = g.tree_path(v2, v1)
    # the chords looped over, and the last one, whose current is an interval
    head, last_circ = circuits[:-1], (circuits[-1][1] if circuits else {})
    # per tree edge: the particular current, its nonzero entries on the
    # looped circuits and its entry on the last circuit; w is the tree
    # currents, the looped chords' currents c, then the last chord's
    tree_rows = [(N * path.get(e, 0), [(j, circ[e]) for j, (_, circ)
                                       in enumerate(head) if e in circ],
                  last_circ.get(e, 0))
                 for e in tree]
    order = tree + [chord for chord, _ in circuits]
    take = [order.index(e) for e in ids]
    if circuits:
        vectors = _interval_flows(tree_rows, len(head), N)
    else:  # a tree: the particular flow alone
        vectors = [[base for base, _, _ in tree_rows]]
    flows = sorted(tuple([w[i] for i in take]) for w in vectors)
    div = MappingProxyType({**dict.fromkeys(g.vertices, 0), v1: N, v2: -N})
    return [CurrentAssignment._lawful(g, div,
                                      MappingProxyType(dict(zip(ids, w))), N)
            for w in flows]


@dataclass
class ModuliVector:
    """Positive rational moduli per edge; each block carries its canonical
    coprime positive integer form."""
    values: dict
    block_canonical: list  # [(block edge ids, integer tuple)]


@dataclass
class ModuliOutcome:
    kind: str  # unique-per-block | underdetermined | infeasible
    moduli: ModuliVector | None = None
    degrees_of_freedom: int | None = None
    witness_circuit: dict | None = None
    nullity: int | None = None


def _positive_combination_exists(kernel_basis, n):
    """Exact Fourier-Motzkin feasibility of  sum_j c_j K_j  > 0 in every
    coordinate (homogeneous strict system; sizes here are tiny)."""
    k = len(kernel_basis)
    ineqs = [tuple(kernel_basis[j][i] for j in range(k)) for i in range(n)]
    if any(not any(a) for a in ineqs):
        return False  # a coordinate is identically zero on the kernel
    for var in range(k - 1, -1, -1):
        pos, neg, rest = [], [], []
        for a in ineqs:
            if a[var] > 0:
                pos.append(a)
            elif a[var] < 0:
                neg.append(a)
            else:
                rest.append(a[:var])
        combined = [tuple(p[i] * (-q[var]) + q[i] * p[var]
                          for i in range(var))
                    for p in pos for q in neg]
        ineqs = []
        for a in rest + combined:
            if not any(a):
                return False  # the inequality 0 > 0 was derived
            ineqs.append(a)
        if len(ineqs) > 4096:
            raise BudgetExceeded("positivity elimination blow-up")
    return True


def solve_moduli(g: DualGraph, constraints) -> ModuliOutcome:
    """Solve the homogeneous circuit relations for positive moduli, block by
    block.  Outcomes: unique-per-block (one positive ray per block),
    underdetermined (extra degrees of freedom), infeasible (positivity
    impossible, with a witness circuit).  Every fundamental circuit lies in
    one block, so the nullity of the whole system is the sum of the block
    kernel dimensions.  Each (circuit, constraint) pair gives a row
    sum_e sigma_e w_e m_e = 0; one whose nonzero coefficients share a sign
    certifies infeasibility exactly and is the witness.  A block with no
    such row goes to elimination and Fourier-Motzkin, and the witness of a
    failure there is its first nonzero row (a copy, as circuits are
    shared).

    Every constraint must satisfy the current law of g (ValueError
    otherwise).  The check is skipped only for a flow that
    `enumerate_currents` built on this very g, which is lawful by
    construction; an assignment built by hand, or enumerated on another
    graph (even an equal one), is checked on every call."""
    for ca in constraints:
        if ca._lawful_on is not g and not kirchhoff_check(g, ca):
            raise ValueError("constraint fails the current law")
    currents = [ca.currents for ca in constraints]
    values = {}
    canonical = []
    dof = 0
    nullity = 0
    for blk, circuits in zip(g._blocks[0], g._block_circuits):
        rows = []
        first = None
        for circ, entries in circuits:
            for cur in currents:
                row = [0] * len(blk)
                for col, eid, s in entries:
                    row[col] = s * cur.get(eid, 0)
                lo, hi = min(row), max(row)
                if lo == hi == 0:
                    continue
                if lo >= 0 or hi <= 0:  # one-signed
                    return ModuliOutcome("infeasible",
                                         witness_circuit=dict(circ))
                rows.append(row)
                first = first or circ
        kern = intlat.echelon_kernel(rows, len(blk))
        if not kern or not _positive_combination_exists(kern, len(blk)):
            return ModuliOutcome("infeasible", witness_circuit=dict(first))
        nullity += len(kern)
        if len(kern) > 1:
            dof += len(kern) - 1
            continue
        vec = kern[0]
        if vec[0] < 0:
            vec = tuple(-x for x in vec)
        for e, v in zip(blk, vec):
            values[e] = Fraction(v)
        canonical.append((list(blk), vec))
    if dof > 0:
        return ModuliOutcome("underdetermined", degrees_of_freedom=dof,
                             nullity=nullity)
    return ModuliOutcome("unique-per-block",
                         moduli=ModuliVector(values, canonical),
                         nullity=nullity)


def moduli_height_audit(block_moduli, N: int):
    """Exact check h(m_1 : ... : m_n) <= (n-1) log N + log (n-1)! for one
    block's coprime positive integer moduli.  The comparison happens on
    integers: max m_i <= N^(n-1) * (n-1)!.  Returns (ok, margin_log,
    remark_bound) with the remark-level bound reported informationally."""
    if N < 1:
        raise ValueError(f"torsion bound N = {N} is below 1")
    ms = [int(x) for x in block_moduli]
    if any(x <= 0 for x in ms):
        raise ValueError("moduli must be positive integers")
    n = len(ms)
    bound_int = (N ** (n - 1)) * math.factorial(n - 1)
    big = max(ms)
    ok = big <= bound_int
    margin = math.log(bound_int) - math.log(big)
    return ok, margin, bound_int


@dataclass
class TraceMatrix:
    edge_ids: list
    matrix: RationalMatrix


def trace_matrix(block: DualGraph, moduli) -> TraceMatrix:
    """Trace Gram matrix of the width vectors of a 2-connected block with
    the given positive moduli.

    Deterministic construction: N is the fundamental circuit matrix of the
    spanning tree with smallest edge ids (a row per chord, columns in
    edge-id order), M = diag(m), P = N M N^T and Q = N^T P^(-1) N.  Q is
    symmetric positive semidefinite of rank |E| - |V| + 1 and scales by
    1/q when the moduli scale by q."""
    ids = block.edge_ids()
    if any(block.edges[e][0] == block.edges[e][1] for e in ids):
        raise ValueError("loops carry no width data in the block formula")
    missing = [e for e in ids if e not in moduli]
    if missing:
        raise ValueError(f"no modulus for edges {missing}")
    circuits = block._circuits
    if not circuits:
        raise SingularP("a tree block has no circuit matrix")
    Nmat = RationalMatrix([[circ.get(e, 0) for e in ids]
                           for _, circ in circuits])
    M = RationalMatrix([[moduli[e] if i == j else 0
                         for j in range(len(ids))]
                        for i, e in enumerate(ids)])
    P = Nmat * M * Nmat.transpose()
    try:
        Pinv = P.inverse()
    except ZeroDivisionError as exc:
        raise SingularP("P = N M N^T is singular") from exc
    return TraceMatrix(ids, Nmat.transpose() * Pinv * Nmat)


def small_graph_catalog(max_edges=5):
    """Connected bridgeless multigraphs on <= 3 vertices with <= max_edges
    edges: banana graphs, two bananas sharing a vertex, and a triangle with
    a doubled edge (a deterministic list)."""
    out = [DualGraph(["a", "b"],
                     [(f"e{i}", "b", "a") for i in range(1, k + 1)])
           for k in range(2, max_edges + 1)]
    out.append(DualGraph(
        ["a", "b", "c"],
        [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c"),
         ("e4", "b", "c")]))
    out.append(DualGraph(
        ["a", "b", "c"],
        [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
         ("e4", "a", "b")]))
    return out

