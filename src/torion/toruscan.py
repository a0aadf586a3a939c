"""Torus-translate detection in subvarieties of G_m^n.

Enumerates candidate subtorus character subgroups from support differences
of the defining polynomials, builds the coefficient ideal of each candidate,
and decides which translates survive: a coset a*T_N lies in the variety iff
the coefficient vector a satisfies every grouped part of every generator.

The anchored rank-one pipeline (`scan` with tier_mode) reproduces the
three-tier count bookkeeping used for hypersurface scans: pairwise linear
systems through a distinguished support element, the friend filter, and the
unit-ideal test after clearing coordinate-hyperplane components.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import intlat
from .groebner import (BUDGET_PROFILES, Budget, Ideal, ResourceExhausted,
                       TermOrder, is_trivial, saturate_by_ideal,
                       saturate_many)
from .multipoly import MultiPoly, substitute_torus


class ExponentSubgroup:
    """Saturated subgroup of Z^n in row Hermite normal form; equality is
    matrix equality.  Rank-one subgroups expose their primitive vector."""

    __slots__ = ("rank", "n", "basis")

    def __init__(self, rows, n=None):
        rows = [tuple(int(x) for x in r) for r in rows]
        if n is None:
            if not rows:
                raise ValueError("empty subgroup needs explicit arity")
            n = len(rows[0])
        sat = intlat.saturate_rows(rows, n)
        self.basis = sat
        self.rank = len(sat)
        self.n = n

    @classmethod
    def full(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_vector(cls, v):
        return cls([list(v)], len(v))

    def vector(self):
        if self.rank != 1:
            raise ValueError("not rank one")
        return intlat.primitive_vector(self.basis[0])

    def key(self):
        return (self.rank, self.basis)

    def __eq__(self, other):
        return isinstance(other, ExponentSubgroup) and \
            self.basis == other.basis and self.n == other.n

    def __hash__(self):
        return hash((self.n, self.basis))

    def __repr__(self):
        return f"ExponentSubgroup(rank={self.rank}, basis={self.basis})"


@dataclass
class CosetCandidate:
    subgroup: ExponentSubgroup
    coefficient_ideal: Ideal | None
    status: str  # open | pruned-singleton | trivial-ideal | survivor | undetermined
    parts: list = field(default_factory=list)
    saturated_generators: list = field(default_factory=list)
    cosets: list = field(default_factory=list)  # solved points, if resolved
    note: str = ""


@dataclass
class ScanReport:
    input_digest: str
    per_rank_counts: dict
    candidates: list
    survivors: list
    tier_counts: list | None = None
    undetermined: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    budget_notes: list = field(default_factory=list)

    def to_json_dict(self):
        def enc_subgroup(s):
            return [list(r) for r in s.basis]

        def enc_candidate(c):
            if c.subgroup.rank == 1:
                cosets = coset_lines_for_report(c)
            else:
                cosets = [str(sol) for sol in c.cosets]
            return {
                "subgroup": enc_subgroup(c.subgroup),
                "status": c.status,
                "ideal": sorted(g.to_string() for g in
                                (c.coefficient_ideal.generators
                                 if c.coefficient_ideal else [])),
                "cosets": cosets,
                "note": c.note,
            }
        return {
            "input_digest": self.input_digest,
            "per_rank_counts": {str(k): v for k, v in
                                sorted(self.per_rank_counts.items())},
            "tier_counts": self.tier_counts,
            "survivors": [enc_candidate(c) for c in self.survivors],
            "undetermined": [enc_candidate(c) for c in self.undetermined],
            "budget_notes": self.budget_notes,
        }


def _digest_polys(polys, peripheral=(), conditions=()):
    """Digest of the scan input; the peripheral and condition sections are
    marked, so moving a polynomial between sections changes it."""
    h = hashlib.sha256()
    for label, group in ((b"", polys), (b"peripheral", peripheral),
                         (b"conditions", conditions)):
        if label and group:
            h.update(b"## " + label + b"\n")
        for p in group:
            h.update(p.to_string().encode())
            h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# subspace enumeration (general ranks)
# ---------------------------------------------------------------------------

def _support_difference_hyperplanes(polys):
    out = set()
    for p in polys:
        sup = p.support()
        for i in range(len(sup)):
            for j in range(i + 1, len(sup)):
                w = intlat.primitive_vector(
                    tuple(a - b for a, b in zip(sup[i], sup[j])))
                if w:
                    out.add(w)
    return sorted(out)


def _intersect_hyperplane(rref_rows, w):
    """RREF basis of (row space) intersected with w-perp, or None if the
    space already lies inside the hyperplane."""
    n = len(w)
    r = len(rref_rows)
    g = [sum(row[k] * w[k] for k in range(n)) for row in rref_rows]
    if all(x == 0 for x in g):
        return None
    p = next(i for i in range(r) if g[i] != 0)
    rows = []
    for i in range(r):
        if i == p:
            continue
        rows.append(tuple(rref_rows[i][k] - g[i] / g[p] * rref_rows[p][k]
                          for k in range(n)))
    if not rows:
        return tuple()
    return intlat.rational_row_space_basis(rows)


def enumerate_subspaces(polys, M: ExponentSubgroup):
    """Closure of {M} under the rule: for every listed subspace S, every
    generator h, and every support pair v, w of h, add the orthogonal
    complement within S of the projection of v - w.  (For x in S the pairing
    <x, proj_S(v-w)> equals <x, v-w>, so the complement is S intersected
    with the difference hyperplane.)  Deduplicated as Q-subspaces; rank >= 1.
    """
    hyperplanes = _support_difference_hyperplanes(polys)
    start = intlat.rational_row_space_basis(M.basis)
    seen = {start}
    queue = [start]
    qi = 0
    while qi < len(queue):
        S = queue[qi]
        qi += 1
        if len(S) <= 1:
            continue
        for w in hyperplanes:
            N = _intersect_hyperplane(S, w)
            if N is None or len(N) == 0:
                continue
            if N not in seen:
                seen.add(N)
                queue.append(N)
    out = [ExponentSubgroup([intlat.clear_denominators(row) for row in S], M.n)
           for S in seen]
    out.sort(key=lambda s: (-s.rank, s.basis))
    return out


def enumerate_subspaces_multi(polys, starts):
    seen = {}
    for M in starts:
        for S in enumerate_subspaces(polys, M):
            seen[S.key()] = S
    out = list(seen.values())
    out.sort(key=lambda s: (-s.rank, s.basis))
    return out


# ---------------------------------------------------------------------------
# coefficient ideals
# ---------------------------------------------------------------------------

def induced_parts(polys, N: ExponentSubgroup):
    """All support parts of all generators under projection by N's basis."""
    E = [list(r) for r in N.basis]
    parts = []
    for p in polys:
        for J, q in substitute_torus(p, E):
            parts.append((J, q))
    return parts


def has_singleton_part(polys, N: ExponentSubgroup) -> bool:
    return any(len(q.terms) == 1 for _, q in induced_parts(polys, N))


def coefficient_variety(polys, N: ExponentSubgroup,
                        budget: Budget = BUDGET_PROFILES["default"],
                        peripheral=(), conditions=()) -> CosetCandidate:
    """Build the coefficient ideal of the candidate subgroup and classify it.

    A part consisting of a single term forces a coefficient to vanish, which
    is impossible on the torus: status 'pruned-singleton'.  Otherwise the
    ideal goes through one stage, or two when `conditions` are given (the
    second adds the conditions' parts).  Each stage removes the components
    inside the coordinate hyperplanes (successive saturation by each used
    variable), then those inside each peripheral locus: a coset lies in V(f)
    iff all parts of f vanish, so it saturates by the ideal of f's parts.
    The first unit ideal makes the candidate 'trivial-ideal'; budget
    exhaustion makes it 'undetermined', never dropped."""
    parts = induced_parts(polys, N)
    n = polys[0].n
    gens = [q for _, q in parts]
    cand = CosetCandidate(N, Ideal(n, gens), "open", parts=parts)
    if any(len(q.terms) == 1 for q in gens):
        cand.status = "pruned-singleton"
        return cand
    stages = [gens]
    if conditions:
        stages.append([q for _, q in induced_parts(conditions, N)])
    try:
        peripheral_parts = [[q.strip_monomial_content()
                             for _, q in induced_parts([p], N)]
                            for p in peripheral]
        J = Ideal(n, [])
        used = set()
        for added in stages:
            used.update(*[g.variables_used() for g in added])
            J = Ideal(n, J.generators +
                      [g.strip_monomial_content() for g in added])
            J = saturate_many(J, [MultiPoly.variable(n, i)
                                  for i in sorted(used)], budget)
            for part_gens in peripheral_parts:
                if is_trivial(J, budget):
                    break
                J = saturate_by_ideal(J, part_gens, budget)
            cand.saturated_generators = J.generators
            if is_trivial(J, budget):
                cand.status = "trivial-ideal"
                return cand
        cand.status = "survivor"
        cand.cosets = _solve_coset_points(J, n, budget)
    except ResourceExhausted as exc:
        cand.status = "undetermined"
        cand.note = str(exc)
    return cand


def _rational_roots_of_univariate(p: MultiPoly, var: int):
    """Rational roots of a polynomial using only `var`, plus whether those
    roots (with multiplicity) exhaust the degree, i.e. whether the
    polynomial splits over Q."""
    from .exactnum import UPoly, rational_roots
    deg = p.degree_in(var) or 0
    coeffs = [Fraction(0)] * (deg + 1)
    for e, c in p.terms.items():
        if any(e[i] for i in range(p.n) if i != var):
            raise ValueError("not univariate")
        coeffs[e[var]] += c
    u = UPoly(coeffs)
    roots = rational_roots(u)
    total_mult = 0
    for r in roots:
        q = u
        while True:
            quo, rem = divmod(q, UPoly([-r, 1]))
            if rem.is_zero():
                q = quo
                total_mult += 1
            else:
                break
    return roots, total_mult == u.degree


def _solve_coset_points(ideal: Ideal, n: int, budget: Budget):
    """Solve the saturated coefficient ideal when it is 'triangular enough':
    free variables stay free (torus directions), the rest must come out as
    rational points via back-substitution.  Returns a list of coordinate
    tuples with None marking free coordinates, or ['unresolved'] markers."""
    gens = ideal.generators
    if not gens:
        return [tuple([None] * n)]
    used = sorted(set().union(*[g.variables_used() for g in gens]))
    free = [i for i in range(n) if i not in used]
    try:
        basis = ideal.groebner_basis(TermOrder("lex"), budget)
    except ResourceExhausted:
        return ["unresolved"]
    sols = [dict()]
    for var in reversed(range(n)):
        if var not in used:
            continue
        new_sols = []
        for partial in sols:
            cands = None
            exhausted_any = False
            inconsistent = False
            for g in basis:
                sub = _partial_substitute(g, partial)
                if sub.is_zero():
                    continue
                vars_left = sub.variables_used()
                if not vars_left:
                    inconsistent = True
                    break
                if vars_left == {var}:
                    roots, exhausted = _rational_roots_of_univariate(sub, var)
                    exhausted_any = exhausted_any or exhausted
                    rs = set(roots)
                    cands = rs if cands is None else (cands & rs)
            if inconsistent:
                continue
            if cands is None or not exhausted_any:
                # no univariate constraint pins this variable down over Q:
                # there may be irrational solutions; do not guess
                return ["unresolved"]
            for r in sorted(cands):
                if r == 0:
                    continue  # torus coordinates are nonzero
                d2 = dict(partial)
                d2[var] = r
                new_sols.append(d2)
        sols = new_sols
    out = []
    for s in sols:
        if all(_partial_substitute(g, s).is_zero() for g in gens):
            out.append(tuple(s.get(i) for i in range(n)))
    out.sort(key=lambda t: tuple((x is not None, x) for x in t))
    return out


def _partial_substitute(p: MultiPoly, assignment: dict) -> MultiPoly:
    out = {}
    for e, c in p.terms.items():
        coef = c
        e2 = list(e)
        for i, v in assignment.items():
            if e[i]:
                coef = coef * (Fraction(v) ** e[i])
                e2[i] = 0
        key = tuple(e2)
        nc = out.get(key, Fraction(0)) + coef
        if nc:
            out[key] = nc
        elif key in out:
            del out[key]
    r = MultiPoly(p.n, None, p.laurent)
    r.terms = out
    return r


# ---------------------------------------------------------------------------
# anchored rank-one tier pipeline
# ---------------------------------------------------------------------------

def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def tier1_candidates(poly: MultiPoly, anchor=None, antipodal: bool = True):
    """Rank-one candidate vectors from anchored pairwise systems (3 variables
    only).  For each potential friend l1' of the anchor, the first support
    element l2 (descending graded-reverse-lex) whose difference vectors are
    all independent of anchor - l1' closes the system; every anomalous
    direction solves one of the resulting 2x2 systems, i.e. is a cross
    product.  `antipodal` folds E and -E together (primitive, first nonzero
    entry positive); with antipodal=False both signs are listed."""
    if poly.n != 3:
        raise ValueError("anchored tier pipeline needs exactly 3 variables")
    sup = sorted(poly.terms,
                 key=lambda e: (sum(e), tuple(-x for x in reversed(e))),
                 reverse=True)
    if anchor is None:
        anchor = sup[0]
    anchor = tuple(anchor)
    if anchor not in poly.terms:
        raise ValueError("anchor not in the support")
    out = set()
    for l1p in sup:
        if l1p == anchor:
            continue
        v1 = tuple(a - b for a, b in zip(anchor, l1p))
        l2 = None
        for cand in sup:
            if all(_cross(v1, tuple(a - b for a, b in zip(cand, l2p)))
                   != (0, 0, 0)
                   for l2p in sup if l2p != cand):
                l2 = cand
                break
        if l2 is None:
            raise ValueError("no closing support element exists; the "
                             "anchored pipeline does not apply")
        for l2p in sup:
            if l2p == l2:
                continue
            E = _cross(v1, tuple(a - b for a, b in zip(l2, l2p)))
            if antipodal:
                E = intlat.primitive_vector(E)
                if E:
                    out.add(E)
            else:
                g = math.gcd(math.gcd(abs(E[0]), abs(E[1])), abs(E[2]))
                if g:
                    out.add(tuple(x // g for x in E))
    return sorted(out)


def tier2_friend_filter(poly: MultiPoly, candidates):
    """Keep the vectors E for which every support element has a friend:
    grouping the support by the value of <., E> leaves no singleton."""
    out = []
    for E in candidates:
        groups = {}
        for e in poly.terms:
            key = sum(a * b for a, b in zip(e, E))
            groups[key] = groups.get(key, 0) + 1
        if all(v >= 2 for v in groups.values()):
            out.append(E)
    return out


# ---------------------------------------------------------------------------
# scan driver
# ---------------------------------------------------------------------------

@dataclass
class ScanOptions:
    tier_mode: bool = False
    anchor: tuple | None = None
    antipodal: bool = True
    budget: Budget = BUDGET_PROFILES["default"]
    threads: int = 1


_WORKER_ARGS = None  # set in each worker process by the pool initializer


def _init_worker(*args):
    global _WORKER_ARGS
    _WORKER_ARGS = args


def _classify_in_worker(N):
    polys, budget, peripheral, conditions = _WORKER_ARGS
    return coefficient_variety(polys, N, budget, peripheral, conditions)


def _classify_all(subgroups, args, threads, notes):
    """coefficient_variety on every subgroup; `args` = (polys, budget,
    peripheral, conditions) reach each worker process once, through the
    pool initializer.  A pool that cannot start falls back to serial and
    says so in `notes`."""
    if threads > 1 and len(subgroups) >= 4:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(
                    max_workers=threads,
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=_init_worker, initargs=args) as ex:
                return list(ex.map(_classify_in_worker, subgroups,
                                   chunksize=8))
        except OSError as exc:
            notes.append(f"process pool unavailable ({exc}); "
                         f"classified serially")
    polys, budget, peripheral, conditions = args
    return [coefficient_variety(polys, N, budget, peripheral, conditions)
            for N in subgroups]


def scan(polys, starts=None, options: ScanOptions | None = None,
         peripheral=(), conditions=()) -> ScanReport:
    """Full scan: enumerate candidate subgroups (the closure of `starts`, a
    subgroup or a list of them, by default the whole lattice), classify each
    with `coefficient_variety`, and report deterministically (candidates
    ordered by canonical subgroup key).  tier_mode replicates the anchored
    rank-one pipeline for a single 3-variable hypersurface and records the
    tier counters."""
    options = options or ScanOptions()
    peripheral, conditions = tuple(peripheral), tuple(conditions)
    if any(p.is_zero() for p in peripheral):
        raise ValueError("peripheral polynomials must be nonzero")
    t0 = time.perf_counter()
    n = polys[0].n
    tiers = None
    if options.tier_mode:
        if len(polys) != 1:
            raise ValueError("tier mode expects a single hypersurface")
        h = polys[0]
        t1 = tier1_candidates(h, options.anchor, options.antipodal)
        t2 = tier2_friend_filter(h, t1)
        subgroups = [ExponentSubgroup.from_vector(E) for E in t2]
        tiers = [len(t1), len(t2)]
    else:
        if starts is None:
            starts = ExponentSubgroup.full(n)
        if isinstance(starts, ExponentSubgroup):
            starts = [starts]
        subgroups = enumerate_subspaces_multi(polys, starts)
    t_enum = time.perf_counter()
    notes = []
    results = _classify_all(
        subgroups, (polys, options.budget, peripheral, conditions),
        options.threads, notes)
    t_classify = time.perf_counter()
    by_rank = {}
    for N in subgroups:
        by_rank[N.rank] = by_rank.get(N.rank, 0) + 1
    order = sorted(range(len(subgroups)), key=lambda i: subgroups[i].key())
    candidates = [results[i] for i in order]
    survivors = [c for c in candidates if c.status == "survivor"]
    undetermined = [c for c in candidates if c.status == "undetermined"]
    pruned = sum(c.status == "pruned-singleton" for c in candidates)
    if tiers is not None:
        tiers.append(len(survivors))
    return ScanReport(
        input_digest=_digest_polys(polys, peripheral, conditions),
        per_rank_counts=by_rank,
        candidates=candidates,
        survivors=survivors,
        tier_counts=tiers,
        undetermined=undetermined,
        timings={"enumerate_s": round(t_enum - t0, 3),
                 "classify_s": round(t_classify - t_enum, 3)},
        budget_notes=[f"singleton-pruned: {pruned}"] + notes,
    )


def coset_lines_for_report(candidate: CosetCandidate):
    """Human-readable coset descriptions for a rank-one survivor: the free
    torus coordinate prints as 't'."""
    if candidate.subgroup.rank != 1:
        return []
    v = candidate.subgroup.vector()
    out = []
    for sol in candidate.cosets:
        if sol == "unresolved":
            out.append("unresolved")
            continue
        coords = []
        for i, x in enumerate(sol):
            if x is None:
                coords.append("t" if v[i] != 0 else "*")
            else:
                coords.append(str(x))
        out.append("(" + ", ".join(coords) + ")")
    return out
