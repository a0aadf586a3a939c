"""Electrical-network model of periodic directions: dual graphs, block
decompositions, integral Kirchhoff currents, exact moduli recovery from
circuit relations, height audits, and the trace-matrix construction.

Currents are integers, moduli are positive rationals determined per block up
to scale; every linear step is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import RationalMatrix, identity_matrix


class Disconnected(ValueError):
    pass


class UnknownEdge(KeyError):
    pass


class UnknownVertex(KeyError):
    pass


class BudgetExceeded(RuntimeError):
    pass


class SingularP(ArithmeticError):
    pass


class DualGraph:
    """Oriented multigraph; loops and parallel edges allowed.  Edges are
    (id, tail, head); stable-curve mode additionally forbids bridges."""

    def __init__(self, vertices, edges, stable: bool = False):
        self.vertices = sorted(set(vertices))
        self.edges = {}
        for eid, tail, head in edges:
            if tail not in self.vertices or head not in self.vertices:
                raise UnknownVertex(f"edge {eid} touches a missing vertex")
            if eid in self.edges:
                raise ValueError(f"duplicate edge id {eid}")
            self.edges[eid] = (tail, head)
        if not self.is_connected():
            raise Disconnected("graph is not connected")
        if stable and self.bridges():
            raise ValueError("stable mode forbids separating edges")

    def edge_ids(self):
        return sorted(self.edges)

    def incident(self, v):
        out = []
        for eid, (t, h) in self.edges.items():
            if t == v or h == v:
                out.append(eid)
        return sorted(out)

    def is_connected(self):
        if not self.vertices:
            return False
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        adj = {v: set() for v in self.vertices}
        for t, h in self.edges.values():
            adj[t].add(h)
            adj[h].add(t)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == set(self.vertices)

    def bridges(self):
        out = []
        for eid in self.edges:
            t, h = self.edges[eid]
            if t == h:
                continue
            seen = {self.vertices[0]}
            stack = [self.vertices[0]]
            while stack:
                u = stack.pop()
                for e2, (a, b) in self.edges.items():
                    if e2 == eid:
                        continue
                    for (p, q) in ((a, b), (b, a)):
                        if p == u and q not in seen:
                            seen.add(q)
                            stack.append(q)
            if seen != set(self.vertices):
                out.append(eid)
        return sorted(out)

    def subgraph(self, edge_subset):
        es = [(eid, *self.edges[eid]) for eid in edge_subset]
        vs = sorted({v for _, t, h in es for v in (t, h)})
        return DualGraph(vs, es)

    def spanning_tree(self):
        """Edge ids of the lexicographically smallest spanning tree (Kruskal
        over sorted ids)."""
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        tree = []
        for eid in self.edge_ids():
            t, h = self.edges[eid]
            rt, rh = find(t), find(h)
            if rt != rh:
                parent[rt] = rh
                tree.append(eid)
        return tree

    def fundamental_circuits(self):
        """[(chord id, {edge id: +-1})]: each chord with its tree-path
        closure, the chord crossed positively."""
        tree = set(self.spanning_tree())
        adj = {v: [] for v in self.vertices}
        for eid in tree:
            t, h = self.edges[eid]
            adj[t].append((eid, h, 1))
            adj[h].append((eid, t, -1))

        def tree_path(a, b):
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

        out = []
        for eid in self.edge_ids():
            if eid in tree:
                continue
            t, h = self.edges[eid]
            circ = {eid: 1}
            if t != h:
                # close from head back to tail through the tree
                back = tree_path(h, t)
                for e2, s in back.items():
                    circ[e2] = s
            out.append((eid, circ))
        return out

    def __repr__(self):
        return f"DualGraph({self.vertices}, {sorted(self.edges.items())})"


@dataclass
class BlockDecomposition:
    blocks: list  # [sorted edge id lists]
    articulation_vertices: list


def block_decomposition(g: DualGraph) -> BlockDecomposition:
    """Biconnected components; loops form their own blocks.  Deterministic:
    blocks ordered by smallest edge id."""
    loops = [eid for eid, (t, h) in g.edges.items() if t == h]
    nonloop = [(eid, *g.edges[eid]) for eid in g.edges if eid not in loops]

    index = {}
    low = {}
    counter = [0]
    stack = []
    blocks = []
    arts = set()

    adj = {v: [] for v in g.vertices}
    for eid, t, h in nonloop:
        adj[t].append((eid, h))
        adj[h].append((eid, t))

    def dfs(u, parent_edge):
        index[u] = low[u] = counter[0]
        counter[0] += 1
        children = 0
        for eid, w in adj[u]:
            if eid == parent_edge:
                continue
            if w not in index:
                children += 1
                stack.append(eid)
                dfs(w, eid)
                low[u] = min(low[u], low[w])
                if (parent_edge is None and children > 1) or \
                        (parent_edge is not None and low[w] >= index[u]):
                    arts.add(u)
                if low[w] >= index[u]:
                    blk = set()
                    while True:
                        e2 = stack.pop()
                        blk.add(e2)
                        if e2 == eid:
                            break
                    blocks.append(sorted(blk))
            elif index[w] < index[u]:
                stack.append(eid)
                low[u] = min(low[u], index[w])

    import sys
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * len(g.vertices) + 64))
    try:
        for v in g.vertices:
            if v not in index:
                dfs(v, None)
                if stack:
                    blocks.append(sorted(set(stack)))
                    stack.clear()
    finally:
        sys.setrecursionlimit(old)
    for eid in sorted(loops):
        blocks.append([eid])
        v = g.edges[eid][0]
        if any(e2 != eid for e2 in g.incident(v)):
            arts.add(v)
    blocks.sort(key=lambda b: b[0])
    return BlockDecomposition(blocks, sorted(arts))


@dataclass
class CurrentAssignment:
    """Vertex divisor c_v (summing to zero) and integer edge currents."""
    divisor: dict
    currents: dict
    torsion_bound: int | None = None

    def __post_init__(self):
        if sum(self.divisor.values()) != 0:
            raise ValueError("divisor degrees must sum to zero")
        if self.torsion_bound is not None and \
                any(abs(w) > self.torsion_bound
                    for w in self.currents.values()):
            raise ValueError("current exceeds the torsion bound")


def kirchhoff_check(g: DualGraph, assignment: CurrentAssignment) -> bool:
    """Incoming minus outgoing current equals the vertex weight, everywhere."""
    for eid in assignment.currents:
        if eid not in g.edges:
            raise UnknownEdge(str(eid))
    for v in assignment.divisor:
        if v not in g.vertices:
            raise UnknownVertex(str(v))
    for v in g.vertices:
        inc = sum(w for eid, w in assignment.currents.items()
                  if g.edges[eid][1] == v and g.edges[eid][0] != v)
        out = sum(w for eid, w in assignment.currents.items()
                  if g.edges[eid][0] == v and g.edges[eid][1] != v)
        if inc - out != assignment.divisor.get(v, 0):
            return False
    return True


def enumerate_currents(g: DualGraph, N: int, source_pair,
                       cap: int = 2_000_000):
    """All integral flows with divisor N(v1 - v2) and |w_e| <= N,
    lexicographic in edge-id order."""
    v1, v2 = source_pair
    if v1 == v2:
        raise ValueError("source and sink must differ")
    ids = g.edge_ids()
    div = {v: 0 for v in g.vertices}
    div[v1] = N
    div[v2] = -N
    out = []
    box = range(-N, N + 1)
    count = [0]

    def feasible_partial(assigned):
        # vertices all of whose incident edges are assigned must balance
        for v in g.vertices:
            inc_edges = g.incident(v)
            if all(e in assigned for e in inc_edges):
                inc = sum(w for e, w in assigned.items()
                          if g.edges[e][1] == v and g.edges[e][0] != v)
                o = sum(w for e, w in assigned.items()
                        if g.edges[e][0] == v and g.edges[e][1] != v)
                if inc - o != div[v]:
                    return False
        return True

    def rec(i, assigned):
        count[0] += 1
        if count[0] > cap:
            raise BudgetExceeded("current enumeration cap")
        if i == len(ids):
            ca = CurrentAssignment(dict(div), dict(assigned), N)
            if kirchhoff_check(g, ca):
                out.append(ca)
            return
        for w in box:
            assigned[ids[i]] = w
            if feasible_partial(assigned):
                rec(i + 1, assigned)
        del assigned[ids[i]]

    rec(0, {})
    return out


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


def _circuit_rows(g: DualGraph, constraints):
    """One row per (fundamental circuit, current assignment): the relation
    sum_e sigma_e w_e m_e = 0 on the edge-modulus unknowns."""
    ids = g.edge_ids()
    pos = {eid: i for i, eid in enumerate(ids)}
    rows = []
    tags = []
    for chord, circ in g.fundamental_circuits():
        for ci, ca in enumerate(constraints):
            row = [Fraction(0)] * len(ids)
            for eid, s in circ.items():
                row[pos[eid]] = Fraction(s * ca.currents.get(eid, 0))
            rows.append(row)
            tags.append((chord, ci, circ))
    return ids, rows, tags


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
    impossible, with a witness circuit)."""
    for ca in constraints:
        if not kirchhoff_check(g, ca):
            raise ValueError("constraint fails the current law")
    ids, rows, tags = _circuit_rows(g, constraints)
    pos = {eid: i for i, eid in enumerate(ids)}
    blocks = block_decomposition(g).blocks
    m = RationalMatrix(rows) if rows else None
    nullity = len(ids) - (m.rank() if m else 0)

    values = {}
    canonical = []
    dof = 0
    for blk in blocks:
        cols = [pos[e] for e in blk]
        brows = []
        for row in rows:
            sub = [row[c] for c in cols]
            if any(sub):
                brows.append(sub)
        if brows:
            bm = RationalMatrix(brows)
            kern = bm.kernel()
        else:
            kern = identity_matrix(len(cols)).entries
        if len(kern) == 0 or \
                not _positive_combination_exists(kern, len(cols)):
            witness = _find_witness(g, constraints, blk)
            return ModuliOutcome("infeasible", witness_circuit=witness)
        if len(kern) > 1:
            dof += len(kern) - 1
            continue
        vec = kern[0]
        if vec[0] < 0:
            vec = [-x for x in vec]
        l = 1
        for x in vec:
            l = l * x.denominator // math.gcd(l, x.denominator)
        ints = [int(x * l) for x in vec]
        gg = 0
        for x in ints:
            gg = math.gcd(gg, x)
        ints = [x // gg for x in ints]
        for e, v in zip(blk, ints):
            values[e] = Fraction(v)
        canonical.append((list(blk), tuple(ints)))
    if dof > 0:
        return ModuliOutcome("underdetermined", degrees_of_freedom=dof,
                             nullity=nullity)
    return ModuliOutcome("unique-per-block",
                         moduli=ModuliVector(values, canonical),
                         nullity=nullity)


def _find_witness(g, constraints, blk):
    """A circuit relation participating in the contradiction: prefer one
    whose nonzero coefficients share a sign (it pins some modulus to zero)."""
    _, rows, tags = _circuit_rows(g, constraints)
    pos = {eid: i for i, eid in enumerate(g.edge_ids())}
    cols = [pos[e] for e in blk]
    fallback = None
    for row, (chord, ci, circ) in zip(rows, tags):
        sub = [row[c] for c in cols]
        if not any(sub):
            continue
        fallback = fallback or circ
        nz = [x for x in sub if x != 0]
        if all(x > 0 for x in nz) or all(x < 0 for x in nz):
            return circ
    return fallback


def moduli_height_audit(block_moduli, N: int):
    """Exact check h(m_1 : ... : m_n) <= (n-1) log N + log (n-1)! for one
    block's coprime positive integer moduli.  The comparison happens on
    integers: max m_i <= N^(n-1) * (n-1)!.  Returns (ok, margin_log,
    remark_bound) with the remark-level bound reported informationally."""
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

    Deterministic construction: spanning tree with smallest edge ids; edges
    reordered chords-first; A, B the reduced incidence columns of chords and
    tree edges, K = -B^(-1) A, L = [I; K]; N the fundamental circuit matrix
    (which equals L^T), M = diag(m); P = N M L and Q = L P^(-1) L^T,
    returned in original edge-id order.  Q is symmetric positive
    semidefinite of rank |E| - |V| + 1 and scales by 1/q when the moduli
    scale by q."""
    ids = block.edge_ids()
    if any(block.edges[e][0] == block.edges[e][1] for e in ids):
        raise ValueError("loops carry no width data in the block formula")
    tree = block.spanning_tree()
    chords = [e for e in ids if e not in tree]
    if not chords:
        raise SingularP("a tree block has no circuit matrix")
    order = chords + [e for e in ids if e in tree]
    vs = block.vertices[1:]  # drop the smallest vertex as basepoint
    vpos = {v: i for i, v in enumerate(vs)}

    def incidence_col(eid):
        t, h = block.edges[eid]
        col = [Fraction(0)] * len(vs)
        if h in vpos:
            col[vpos[h]] += 1
        if t in vpos:
            col[vpos[t]] -= 1
        return col

    A = RationalMatrix([[incidence_col(e)[i] for e in chords]
                        for i in range(len(vs))])
    B = RationalMatrix([[incidence_col(e)[i] for e in order[len(chords):]]
                        for i in range(len(vs))])
    try:
        Binv = B.inverse()
    except ZeroDivisionError as exc:
        raise SingularP("tree incidence matrix is singular") from exc
    K = Binv * A * Fraction(-1)
    m = len(chords)
    L_rows = identity_matrix(m).entries + K.entries
    L = RationalMatrix(L_rows)
    circuits = dict(block.fundamental_circuits())
    Nrows = []
    for ch in chords:
        circ = circuits[ch]
        Nrows.append([Fraction(circ.get(e, 0)) for e in order])
    Nmat = RationalMatrix(Nrows)
    M = RationalMatrix([[Fraction(moduli[e]) if i == j else Fraction(0)
                         for j, e in enumerate(order)]
                        for i, e in enumerate(order)])
    P = Nmat * M * L
    try:
        Pinv = P.inverse()
    except ZeroDivisionError as exc:
        raise SingularP("P = N M L is singular") from exc
    Q = L * Pinv * L.transpose()
    # back to original edge order
    perm = [order.index(e) for e in ids]
    Qr = RationalMatrix([[Q.entries[perm[i]][perm[j]]
                          for j in range(len(ids))] for i in range(len(ids))])
    return TraceMatrix(ids, Qr)


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


# ---------------------------------------------------------------------------
# file format: 'vertex', 'edge', 'current', 'source', 'modulus' lines
# ---------------------------------------------------------------------------

def parse_network(text: str):
    """Parse a network file: returns (DualGraph, currents dict,
    sources dict, moduli dict)."""
    vertices = []
    edges = []
    currents = {}
    sources = {}
    moduli = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "vertex":
            vertices.append(parts[1])
        elif kind == "edge":
            edges.append((parts[1], parts[2], parts[3]))
        elif kind == "current":
            currents[parts[1]] = int(parts[2])
        elif kind == "source":
            sources[parts[1]] = int(parts[2])
        elif kind == "modulus":
            moduli[parts[1]] = Fraction(parts[2])
        else:
            raise ValueError(f"line {lineno}: unknown directive {kind!r}")
    return DualGraph(vertices, edges), currents, sources, moduli
