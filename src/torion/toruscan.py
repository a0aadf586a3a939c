"""Torus-translate detection in subvarieties of G_m^n.

Enumerates candidate subtorus character subgroups from support differences
of the defining polynomials, builds the coefficient ideal of each candidate,
and decides which translates survive: a coset a*T_N lies in the variety iff
the coefficient vector a satisfies every grouped part of every generator.

The anchored rank-one pipeline (`scan` with tier_mode) reproduces the
three-tier count bookkeeping used for hypersurface scans: pairwise linear
systems through a distinguished support element, the friend filter, and the
unit-ideal test after clearing coordinate-hyperplane components.

A scan classifies one candidate per orbit of the coordinate permutations
that fix the generators, the peripheral polynomials and the conditions,
each up to a nonzero rational factor (`symmetry_generators`, a backtracking
search pruned by projected terms).  Such a permutation sigma maps a
coset a*T_N of the variety to the coset sigma(a)*T_sigma(N), and every
step of the classification commutes with it, so the verdict of sigma(N)
is sigma of the verdict of N: a unit ideal stays the unit ideal, and a
survivor's saturated ideal is presented by the reduced grevlex basis of its
permuted generators, which is unique.  That is the representative's basis
renamed when sigma keeps the order of the variables it uses, and a resolved
nonempty list of cosets is renamed too; otherwise the basis is computed and
the cosets are solved anew, since the lex order is not symmetric.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import intlat
from .groebner import (BUDGET_PROFILES, GREVLEX, Budget, Ideal,
                       ResourceExhausted, TermOrder, _presented_by_basis,
                       is_trivial, saturate_by_ideal, saturate_many)
from .multipoly import MultiPoly, RingMismatch


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
        for r in rows:
            if len(r) != n:
                raise ValueError(f"row {' '.join(map(str, r))} has {len(r)} "
                                 f"entries, expected {n}")
        self.basis = intlat.saturate_rows(rows, n)
        self.rank = len(self.basis)
        self.n = n

    @classmethod
    def from_echelon(cls, form, n):
        """The subgroup of Z^n whose Q-span has the canonical
        `intlat.echelon` rows `form`; the rows are not checked."""
        self = cls.__new__(cls)
        self.basis = intlat.saturate_echelon(form, n)
        self.rank = len(self.basis)
        self.n = n
        return self

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
    representatives: int = 0  # candidates classified, one per orbit

    def to_json_dict(self):
        def enc_candidate(c):
            return {
                "subgroup": [list(r) for r in c.subgroup.basis],
                "status": c.status,
                "ideal": sorted(g.to_string() for g in
                                (c.coefficient_ideal.generators
                                 if c.coefficient_ideal else [])),
                "cosets": coset_lines_for_report(c) if c.subgroup.rank == 1
                else [str(sol) for sol in c.cosets],
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
    return sorted({w for p in polys
                   for u, v in itertools.combinations(p.support(), 2)
                   if (w := intlat.primitive_vector(tuple(map(operator.sub,
                                                              u, v))))})


def _intersect_hyperplane(rows, g):
    """Canonical echelon rows of the row space cut by the hyperplane on which
    the rows pair to g != 0: g_p*row_i - g_i*row_p (i != p) span it."""
    p = next(i for i, x in enumerate(g) if x)
    gp, rp = g[p], rows[p]
    out = [[gp * x - gi * y for x, y in zip(row, rp)] if gi else row
           for i, (row, gi) in enumerate(zip(rows, g)) if i != p]
    return intlat.echelon(out)[0]


def enumerate_subspaces(polys, M: ExponentSubgroup):
    """Closure of {M} under the rule: for every listed subspace S, every
    generator h, and every support pair v, w of h, add the orthogonal
    complement within S of the projection of v - w.  (For x in S the pairing
    <x, proj_S(v-w)> equals <x, v-w>, so the complement is S intersected
    with the difference hyperplane.)  Deduplicated as Q-subspaces; rank >= 1.
    """
    return enumerate_subspaces_multi(polys, [M])


def enumerate_subspaces_multi(polys, starts):
    """Union of the closures of the start subgroups, explored once: the rule
    acts on each subspace alone, so one shared set of seen subspaces (keyed
    by their canonical integer echelon rows) gives the union.  S meet w-perp
    depends only on the line through g = (<row_i, w>)_i, so each S pairs its
    rows with all hyperplanes at once (`_packed_pairing`) and runs one
    echelon per distinct primitive g.  The subgroups returned are saturated
    straight from those keys (`ExponentSubgroup.from_echelon`).  Polynomials
    and starts of different arity raise RingMismatch; a start of rank 0
    raises ValueError."""
    if len({p.n for p in polys} | {M.n for M in starts}) > 1:
        raise RingMismatch("polynomials and start subgroups differ in arity")
    if any(M.rank == 0 for M in starts):
        raise ValueError("start subgroup has rank 0; subspaces have rank >= 1")
    hyperplanes = _support_difference_hyperplanes(polys)
    wmax = max((abs(x) for w in hyperplanes for x in w), default=0)
    half = 0  # packed anew only when a subspace needs wider fields
    seen = set()
    queue = []
    for M in starts:
        S = intlat.echelon(M.basis)[0]
        if S not in seen:
            seen.add(S)
            queue.append(S)
    for S in queue:
        if len(S) <= 1:
            continue
        span = wmax * max(sum(map(abs, row)) for row in S)
        if span >= half:
            pairing, half = _packed_pairing(hyperplanes, len(S[0]), span)
        lines = dict.fromkeys(intlat.primitive_vector([x - half for x in g])
                              for g in dict.fromkeys(zip(*map(pairing, S))))
        lines.pop(None, None)  # S lies inside these hyperplanes
        for g in lines:
            N = _intersect_hyperplane(S, g)
            if N not in seen:
                seen.add(N)
                queue.append(N)
    out = [ExponentSubgroup.from_echelon(S, starts[0].n) for S in seen]
    out.sort(key=lambda s: (-s.rank, s.basis))
    return out


# ---------------------------------------------------------------------------
# coefficient ideals
# ---------------------------------------------------------------------------

class _Projection:
    """The parts of the polynomials `polys` under projection by integer
    rows E: called with E, per polynomial p the list [(J, p_J)] by J
    ascending, where p_J holds p's terms b_e x^e with E.e = J, in p's term
    order.  Substituting z_i = a_i * t^(E column i) turns p into the sum of
    p_J(a) * t^J.  The supports are packed once (`_packed_pairing`), and
    again wider only when rows need wider fields; one combination per row
    gives its value on every term.  Pickled as its polynomials, so a worker
    process packs its own."""

    def __init__(self, polys):
        self.polys = tuple(polys)
        self.points = [e for p in self.polys for e in p.terms]
        self.top = max((abs(x) for e in self.points for x in e), default=0)
        self.pairing, self.half = None, 0

    def __reduce__(self):
        return _Projection, (self.polys,)

    def __call__(self, E):
        keys = itertools.repeat(())  # with no rows each polynomial is one part
        if E:
            span = self.top * max(sum(map(abs, row)) for row in E)
            if span >= self.half:
                self.pairing, self.half = _packed_pairing(self.points,
                                                          len(E[0]), span)
            keys = zip(*map(self.pairing, E))
        half, out = self.half, []
        for p in self.polys:
            groups = {}
            # zip takes p's terms first, so it stops before p's last key
            for (e, c), J in zip(p.terms.items(), keys):
                groups.setdefault(J, {})[e] = c
            out.append([(tuple(x - half for x in J),
                         MultiPoly._raw(p.n, groups[J]))
                        for J in sorted(groups)])
        return out


def induced_parts(polys, N: ExponentSubgroup):
    """All support parts of all generators under projection by N's basis."""
    return [part for parts in _Projection(polys)(N.basis) for part in parts]


def has_singleton_part(polys, N: ExponentSubgroup) -> bool:
    """Whether some part in `induced_parts(polys, N)` has one term: some
    projection E.e of a generator's support element occurs once."""
    return not singleton_free(polys, [N])


def singleton_free(polys, subgroups):
    """The subgroups N, in the order given, for which no part of
    `induced_parts(polys, N)` has one term.  Element e of generator k has
    the key k*B^r + sum_i B^i <row_i, e> for N's r basis rows, with
    B = 2 * max|e| * max ||row||_1 + 1 over all the subgroups: each
    <row_i, e> is a balanced base-B digit, so keys are equal exactly when
    the elements share a generator and a projection, and a key taken once
    is a one-term part.  The supports, with k as a first coordinate, are
    packed once (`_packed_pairing`): one combination per subgroup.
    Polynomials and subgroups of different arity raise RingMismatch."""
    if len({p.n for p in polys} | {N.n for N in subgroups}) > 1:
        raise RingMismatch("polynomials and subgroups differ in arity")
    points = [(k,) + e for k, p in enumerate(polys) for e in p.terms]
    B = 2 * max((abs(x) for e in points for x in e[1:]), default=0) * max(
        (sum(map(abs, row)) for N in subgroups for row in N.basis),
        default=0) + 1
    r = max((N.rank for N in subgroups), default=0)
    pairing = _packed_pairing(points, len(points[0]) if points else 1,
                              len(polys) * B ** r)[0]
    out = []
    for N in subgroups:
        # sum_i B^i row_i by Horner; with no rows the key is k alone, and
        # each generator is one part
        v = []
        for row in reversed(N.basis):
            v = [x + B * a for x, a in zip(row, v)] if v else list(row)
        if 1 not in Counter(pairing([B ** N.rank] + v)).values():
            out.append(N)
    return out


def _opened(polys: _Projection, N: ExponentSubgroup) -> CosetCandidate:
    """N's candidate with its parts and coefficient ideal, 'open', or
    'pruned-singleton' when some part has one term."""
    parts = [part for parts in polys(N.basis) for part in parts]
    gens = [q for _, q in parts]
    cand = CosetCandidate(N, Ideal(N.n, gens), "open", parts=parts)
    if any(len(q.terms) == 1 for q in gens):
        cand.status = "pruned-singleton"
    return cand


def coefficient_variety(polys, N: ExponentSubgroup,
                        budget: Budget = BUDGET_PROFILES["default"],
                        peripheral=(), conditions=()) -> CosetCandidate:
    """Build the coefficient ideal of the candidate subgroup and classify it.

    A part consisting of a single term forces a coefficient to vanish, which
    is impossible on the torus: status 'pruned-singleton'.  Otherwise the
    ideal goes through one stage, or two when `conditions` are given (the
    second adds the conditions' parts).  Each stage removes the components
    inside the coordinate hyperplanes (successive saturation by each
    variable that a generator, freed of its monomial content, uses), then
    those inside each peripheral locus: a coset lies in V(f) iff all parts
    of f vanish, so it saturates by the ideal of f's parts, unless that
    ideal and the stage's ideal together generate 1 (then the saturation
    changes nothing and is skipped).  The first unit ideal
    makes the candidate 'trivial-ideal'; budget exhaustion makes it
    'undetermined', never dropped.  Each of `polys`, `peripheral` and
    `conditions` may be given as its _Projection, as a scan does, which
    packs them once for all its candidates."""
    polys, peripheral, conditions = (
        g if isinstance(g, _Projection) else _Projection(g)
        for g in (polys, peripheral, conditions))
    cand = _opened(polys, N)
    if cand.status == "pruned-singleton":
        return cand
    n = N.n
    stages = [[q for _, q in cand.parts]]
    if conditions.polys:
        stages.append([q for parts in conditions(N.basis) for _, q in parts])
    peripheral_parts = [[q.strip_monomial_content() for _, q in parts]
                        for parts in peripheral(N.basis)]
    try:
        J = Ideal(n, [])
        used = set()
        for added in stages:
            added = [g.strip_monomial_content() for g in added]
            # a variable no generator contains is a nonzerodivisor modulo
            # J, so saturating by it would change nothing
            used.update(*[g.variables_used() for g in added])
            J = Ideal(n, J.generators + added)
            J = saturate_many(J, [MultiPoly.variable(n, i)
                                  for i in sorted(used)], budget)
            for part_gens in peripheral_parts:
                if is_trivial(J, budget):
                    break
                # if J + P = (1), no associated prime of J contains P, so
                # J : P^infinity = J
                if is_trivial(Ideal(n, J.generators + part_gens), budget):
                    continue
                J = saturate_by_ideal(J, part_gens, budget)
            cand.saturated_generators = J.generators
            if is_trivial(J, budget):
                cand.status = "trivial-ideal"
                return cand
        cand.status = "survivor"
        cand.cosets = _solve_coset_points(J, n, budget)
    except ResourceExhausted as exc:
        cand.status = "undetermined"
        cand.note = exc.untimed
    return cand


def _rational_roots_of_univariate(p: MultiPoly, var: int):
    """Rational roots of a polynomial using only `var`, plus whether the
    polynomial splits over Q: whether its distinct rational roots are as
    many as the degree of its squarefree part."""
    from .exactnum import rational_roots, squarefree_part
    u = p.as_upoly(var)
    roots = rational_roots(u)
    return roots, len(roots) == squarefree_part(u).degree


def _solve_coset_points(ideal: Ideal, n: int, budget: Budget):
    """Solve the saturated coefficient ideal when it is 'triangular enough':
    free variables stay free (torus directions), the rest must come out as
    rational points via back-substitution.  Returns a list of coordinate
    tuples with None marking free coordinates, or ['unresolved'] markers."""
    gens = ideal.generators
    if not gens:
        return [tuple([None] * n)]
    used = sorted(set().union(*[g.variables_used() for g in gens]))
    try:
        basis = ideal.groebner_basis(TermOrder("lex"), budget)
    except ResourceExhausted:
        return ["unresolved"]
    sols = [{}]
    for var in reversed(used):
        new_sols = []
        for partial in sols:
            subs = [_partial_substitute(g, partial) for g in basis]
            if any(sub.terms and not sub.variables_used() for sub in subs):
                continue  # a nonzero constant: no point extends partial
            roots = [_rational_roots_of_univariate(sub, var) for sub in subs
                     if sub.variables_used() == {var}]
            if not any(splits for _, splits in roots):
                # no univariate constraint pins this variable down over Q:
                # there may be irrational solutions; do not guess
                return ["unresolved"]
            # torus coordinates are nonzero
            new_sols += [{**partial, var: r} for r in sorted(
                set.intersection(*[set(rs) for rs, _ in roots])) if r]
        sols = new_sols
    return sorted((tuple(map(s.get, range(n))) for s in sols
                   if all(_partial_substitute(g, s).is_zero() for g in gens)),
                  key=_coset_key)


def _coset_key(point):
    return tuple((x is not None, x) for x in point)


def _partial_substitute(p: MultiPoly, assignment: dict) -> MultiPoly:
    powers = {i: {k: Fraction(v) ** k for k in {e[i] for e in p.terms} if k}
              for i, v in assignment.items()}
    out = {}
    for e, c in p.terms.items():
        e2 = list(e)
        for i, pw in powers.items():
            if e[i]:
                c *= pw[e[i]]
                e2[i] = 0
        key = tuple(e2)
        out[key] = out[key] + c if key in out else c
    return MultiPoly._raw(p.n, {e: c for e, c in out.items() if c})


# ---------------------------------------------------------------------------
# anchored rank-one tier pipeline
# ---------------------------------------------------------------------------

def tier1_candidates(poly: MultiPoly, antipodal: bool = True):
    """Rank-one candidate vectors from anchored pairwise systems (3 variables
    only), anchored at the graded-reverse-lex largest support element.  Per
    line direction v1 = (anchor - l1')/g, l1' another element and g > 0 the
    gcd (scaling v1 scales the keys, not the primitive E), the elements e
    on one line parallel to v1 share the key cross(v1, e).  The first
    element l2 (descending graded-reverse-lex) with a key of its own closes
    the system; each anomalous direction is E = key(l2) - key(e), made
    primitive; `antipodal` folds E and -E together (first nonzero entry
    positive), antipodal=False lists both.  Keys are packed ints in base
    B = 16m^2 + 1 (m = max |coordinate|), from one `_packed_pairing` sum."""
    if poly.n != 3:
        raise ValueError("anchored tier pipeline needs exactly 3 variables")
    if poly.is_zero():
        raise ValueError("anchored tier pipeline needs a nonempty support; "
                         "the polynomial is 0")
    sup = sorted(poly.terms,
                 key=lambda e: (sum(e), tuple(-x for x in reversed(e))),
                 reverse=True)
    h = 8 * max(abs(x) for e in sup for x in e) ** 2  # |key entry| <= h/2
    B = 2 * h + 1
    c = h * (B * B + B + 1)  # bounds every key; shifts digits to [0, B)
    # key(e) = <(y - zB, zB^2 - x, xB - yB^2), v1> = cross(v1, e) packed
    pairing = _packed_pairing([(y - z * B, z * B * B - x, x * B - y * B * B)
                               for x, y, z in sup], 3, c)[0]
    vs = [[a - b for a, b in zip(sup[0], e)] for e in sup[1:]]
    lines = dict.fromkeys(tuple(x // math.gcd(*v) for x in v) for v in vs)
    out = set()
    for v in lines:
        keys = pairing(v)
        counts = Counter(keys)
        k = next((k for k in keys if counts[k] == 1), None)
        if k is None:
            raise ValueError("no closing support element exists; the "
                             "anchored pipeline does not apply")
        for d in {k - x for x in keys} - {0}:
            # d has the sign of E's first nonzero entry
            q, e2 = divmod((abs(d) if antipodal else d) + c, B)
            e0, e1 = divmod(q, B)
            E = (e0 - h, e1 - h, e2 - h)
            g = math.gcd(*E)
            out.add((E[0] // g, E[1] // g, E[2] // g))
    return sorted(out)


def _packed_pairing(points, n, span):
    """(pairing, half): pairing(v) = [<p, v> + half for p in points] when
    every |<p, v>| <= span, where half = 2^(w-1) > span for the least such
    w of 16, 32, 64, 128 and so on.  The n coordinate columns of the points
    are packed into ints once, one w-bit field per point; one combination
    of them plus half in each field holds every value with no carry.  It is
    unpacked in C: `memoryview.cast`, or `int.from_bytes` past 64 bits."""
    w = 16
    while span >> (w - 1):
        w *= 2
    columns, ones = [0] * n, 0
    for p in reversed(points):
        columns = [(c << w) + x for c, x in zip(columns, p)]
        ones = ones << w | 1
    offset, step, order = ones << (w - 1), w // 8, sys.byteorder
    nbytes = step * len(points)
    fmt = {16: "H", 32: "I", 64: "Q"}.get(w)  # memoryview codes by width

    def pairing(v):
        data = (sum(map(operator.mul, v, columns)) + offset).to_bytes(
            nbytes, order)
        if fmt:
            return memoryview(data).cast(fmt).tolist()
        return [int.from_bytes(data[i:i + step], order)
                for i in range(0, nbytes, step)]
    return pairing, 1 << (w - 1)


def _newton_corners(points):
    """The points that are no midpoint of two others, a superset of the
    vertices of their convex hull.  In base b > 4 * max|coordinate|, the
    packed sum of two points is the sum of their packed ints."""
    b = 4 * max((abs(x) for p in points for x in p), default=0) + 1
    keys = [(x * b + y) * b + z for x, y, z in points]
    sums = {u + v for u, v in itertools.combinations(keys, 2)}
    return [p for p, k in zip(points, keys) if 2 * k not in sums]


def tier2_friend_filter(poly: MultiPoly, candidates):
    """Keep the vectors E for which every support element e has a friend,
    another element with the same value <e, E>; the order is kept.

    Packed kernel: with span = max|coordinate| * max ||E||_1, every value
    lies in [-span, span], and `_packed_pairing` gives all values <e, E> of
    one candidate from one integer combination.  E is rejected at once when
    its largest or smallest value is taken once on the corner set C
    (`_newton_corners`): the elements that attain an extreme form a face of
    the Newton polytope, one element exactly when the face is a vertex, and
    a larger face has two vertices, both in C.  The rest are counted.

    Needs 3 variables and 3-entry candidates.  An empty support keeps every
    candidate."""
    if poly.n != 3:
        raise ValueError("anchored tier pipeline needs exactly 3 variables")
    sup, candidates = list(poly.terms), list(candidates)
    for E in candidates:
        if len(E) != 3:
            raise ValueError(f"candidate {E} has {len(E)} entries, "
                             f"expected 3")
    if not sup:
        return candidates
    span = max(map(abs, (x for e in sup for x in e))) * max(
        (abs(a) + abs(b) + abs(c) for a, b, c in candidates), default=0)
    pairing = _packed_pairing(sup, 3, span)[0]
    corners = _packed_pairing(_newton_corners(sup), 3, span)[0]
    out = []
    for E in candidates:
        vals = corners(E)
        if vals.count(max(vals)) == 1 or vals.count(min(vals)) == 1:
            continue
        if 1 not in Counter(pairing(E)).values():
            out.append(E)
    return out


# ---------------------------------------------------------------------------
# coordinate symmetries
# ---------------------------------------------------------------------------

def _inverse(sigma):
    return sorted(range(len(sigma)), key=sigma.__getitem__)


def _permuted(p: MultiPoly, sigma) -> MultiPoly:
    """p with x_i renamed x_sigma[i]: exponent e becomes e' with
    e'[sigma[i]] = e[i]."""
    inverse = _inverse(sigma)
    return MultiPoly._raw(p.n, {tuple(e[i] for i in inverse): c
                                for e, c in p.terms.items()})


def _permuted_subgroup(N: ExponentSubgroup, sigma) -> ExponentSubgroup:
    inverse = _inverse(sigma)
    return ExponentSubgroup([[row[i] for i in inverse] for row in N.basis],
                            N.n)


def symmetry_generators(systems, n):
    """Generators of the group of coordinate permutations sigma (x_i goes
    to x_sigma[i]) that map each system onto itself, each polynomial taken
    up to a nonzero rational factor.

    A polynomial is compared by its terms with coprime integer
    coefficients, which fix it up to sign.  Backtracking over the images
    of x_0, x_1, ... prunes a prefix when some polynomial's terms,
    projected on the assigned coordinates, are not (up to sign) the
    projected terms of a polynomial of the same system; with every
    coordinate assigned the test is sigma(p) = +-q.  x_i may only go to a
    variable whose terms look alike (`profile`).  The levels run from
    x_{n-1} up; at level k, for each x_j outside the orbit of x_k under
    the permutations kept so far (all of them fix x_0..x_{k-1}), one
    permutation fixing x_0..x_{k-1} and sending x_k to x_j is kept.  These
    generate the group (a strong generating set for the base x_0, x_1, ...).
    A polynomial in other than n variables raises RingMismatch."""
    for k, system in enumerate(systems):
        for p in system:
            if p.n != n:
                raise RingMismatch(f"system {k} has a polynomial in {p.n} "
                                   f"variables, expected {n}")
    systems = [[(list(p.terms), cs, tuple(-c for c in cs)) for p in system
                for cs in [intlat.clear_denominators(p.terms.values())]]
               for system in systems]

    def shadow(sup, cs, coords):
        """Terms projected on `coords`, as (projection, coefficient)."""
        return frozenset(zip(map(operator.itemgetter(*coords), sup), cs))

    def profile(i):
        """The exponents of x_i with their coefficients, per polynomial
        up to sign: equal for x_i and x_sigma[i]."""
        return tuple(frozenset(min(tuple(sorted(shadow(sup, c, [i])))
                                   for c in (cs, neg))
                               for sup, cs, neg in system)
                     for system in systems)

    profiles = [profile(i) for i in range(n)]
    own = {}  # prefix length -> the projections of each polynomial

    def consistent(images):
        m = len(images)
        if m not in own:
            own[m] = [[(shadow(sup, cs, range(m)), shadow(sup, neg, range(m)))
                       for sup, cs, neg in system] for system in systems]
        for system, projections in zip(systems, own[m]):
            targets = {shadow(sup, cs, images) for sup, cs, _ in system}
            if any(a not in targets and b not in targets
                   for a, b in projections):
                return False
        return True

    def extend(images):
        if len(images) == n:
            return images
        for j in range(n):
            if j not in images and profiles[j] == profiles[len(images)] \
                    and consistent(images + [j]):
                found = extend(images + [j])
                if found:
                    return found
        return None

    generators = []
    for k in reversed(range(n)):
        orbit = {k}
        for j in range(k + 1, n):
            if j in orbit or profiles[j] != profiles[k]:
                continue
            prefix = list(range(k)) + [j]
            found = extend(prefix) if consistent(prefix) else None
            if found:
                generators.append(tuple(found))
                orbit, frontier = {k}, [k]
                for x in frontier:  # grows while it is walked
                    for g in generators:
                        if g[x] not in orbit:
                            orbit.add(g[x])
                            frontier.append(g[x])
    return generators


def _orbits(subgroups, generators, n):
    """For each listed subgroup, (r, sigma): the index r of its orbit's
    representative and a permutation with subgroup = sigma(subgroups[r]).
    Breadth first from each subgroup not yet reached, linking N to g(N) for
    each generator g when g(N) is listed."""
    index = {N: i for i, N in enumerate(subgroups)}
    links = [None] * len(subgroups)
    for r in range(len(subgroups)):
        if links[r] is not None:
            continue
        links[r] = (r, tuple(range(n)))
        queue = [r]
        for a in queue:
            sigma = links[a][1]
            for g in generators:
                b = index.get(_permuted_subgroup(subgroups[a], g))
                if b is not None and links[b] is None:
                    links[b] = (r, tuple(g[x] for x in sigma))
                    queue.append(b)
    return links


def _transported(polys: _Projection, M: ExponentSubgroup, sigma,
                 rep: CosetCandidate, budget: Budget):
    """The candidate of M = sigma(rep.subgroup), given rep classified: the
    parts and the singleton test from M itself; a unit ideal stays the unit
    ideal; a survivor's saturated ideal is sigma of rep's, presented by its
    reduced grevlex basis.  That is rep's basis renamed when sigma keeps the
    order of the variables it uses (grevlex on them is then the same order),
    else a grevlex run.  The cosets are rep's renamed when those are a
    resolved nonempty list: all the rational points of the saturated ideal,
    which sigma maps onto M's, and a direct solve finds the same set
    (Gianni-Kalkbrener); else they are solved anew.  None when M is to be
    classified directly: rep undetermined, or the budget runs out."""
    cand = _opened(polys, M)
    n = M.n
    if cand.status == "pruned-singleton":
        return cand
    if rep.status == "trivial-ideal":
        cand.status = "trivial-ideal"
        cand.saturated_generators = [MultiPoly.constant(n, 1)]
        return cand
    if rep.status != "survivor":
        return None
    basis = [_permuted(g, sigma) for g in rep.saturated_generators]
    images = [sigma[i] for i in sorted(set().union(
        *[g.variables_used() for g in rep.saturated_generators]))]
    if images != sorted(images):
        try:
            basis = Ideal(n, basis).groebner_basis(GREVLEX, budget)
        except ResourceExhausted:
            return None
    J = _presented_by_basis(n, basis)
    cand.status = "survivor"
    cand.saturated_generators = J.generators
    if rep.cosets and "unresolved" not in rep.cosets:
        inverse = _inverse(sigma)
        cand.cosets = sorted((tuple(point[i] for i in inverse)
                              for point in rep.cosets), key=_coset_key)
    else:
        cand.cosets = _solve_coset_points(J, n, budget)
    return cand


# ---------------------------------------------------------------------------
# scan driver
# ---------------------------------------------------------------------------

@dataclass
class ScanOptions:
    tier_mode: bool = False
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
    peripheral, conditions), the three groups as their _Projection, reach
    each worker process once, through the pool initializer, which unpickles
    the projections as their polynomials and packs them anew there.  A pool
    that cannot start falls back to serial and says so in `notes`."""
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
    subgroup or a list of them, by default the whole lattice), classify
    them, and report deterministically (candidates ordered by canonical
    subgroup key).  One subgroup per orbit of `symmetry_generators` is
    classified with `coefficient_variety`, from supports packed once per
    scan (`_Projection`); the verdicts of the others are
    transported to them (`_transported`), or, where that cannot be done,
    they are classified directly too.  tier_mode replicates the anchored
    rank-one pipeline for a single 3-variable hypersurface and records the
    tier counters; it takes no `starts`, and only it takes
    antipodal=False (ValueError otherwise).  A polynomial of another arity
    than the first raises RingMismatch naming its group."""
    if not polys:
        raise ValueError("scan needs at least one polynomial")
    options = options or ScanOptions()
    peripheral, conditions = tuple(peripheral), tuple(conditions)
    if any(p.is_zero() for p in peripheral):
        raise ValueError("peripheral polynomials must be nonzero")
    t0 = time.perf_counter()
    n = polys[0].n
    for name, group in (("polynomial", polys),
                        ("peripheral polynomial", peripheral),
                        ("condition", conditions)):
        for i, p in enumerate(group):
            if p.n != n:
                raise RingMismatch(f"{name} {i} has {p.n} variables, "
                                   f"expected {n}")
    tiers = None
    if options.tier_mode:
        if len(polys) != 1:
            raise ValueError("tier mode expects a single hypersurface")
        if starts is not None:
            raise ValueError("tier mode takes no start subgroups")
        h = polys[0]
        t1 = tier1_candidates(h, options.antipodal)
        t2 = tier2_friend_filter(h, t1)
        # E and -E give one subgroup: classify it once, in first-seen order
        subgroups = list(dict.fromkeys(ExponentSubgroup.from_vector(E)
                                       for E in t2))
        tiers = [len(t1), len(t2)]
    else:
        if not options.antipodal:
            raise ValueError("signed vectors (antipodal=False) apply to "
                             "tier mode only")
        if starts is None:
            starts = ExponentSubgroup.full(n)
        if isinstance(starts, ExponentSubgroup):
            starts = [starts]
        subgroups = enumerate_subspaces_multi(polys, starts)
    t_enum = time.perf_counter()
    notes = []
    results = [None] * len(subgroups)
    args = (_Projection(polys), options.budget, _Projection(peripheral),
            _Projection(conditions))

    def classify(indices, threads):
        for i, cand in zip(indices, _classify_all(
                [subgroups[i] for i in indices], args, threads, notes)):
            results[i] = cand

    links = _orbits(subgroups, symmetry_generators(
        [polys, peripheral, conditions], n), n)
    reps = [i for i, (r, _) in enumerate(links) if r == i]
    classify(reps, options.threads)
    for i, (r, sigma) in enumerate(links):
        if r != i:
            results[i] = _transported(args[0], subgroups[i], sigma,
                                      results[r], options.budget)
    direct = [i for i, cand in enumerate(results) if cand is None]
    if direct:
        # a pool that failed to start above is not tried again
        classify(direct, 1 if notes else options.threads)
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
        representatives=len(reps),
    )


def coset_lines_for_report(candidate: CosetCandidate):
    """Human-readable coset descriptions for a rank-one survivor: the free
    torus coordinate prints as 't'."""
    if candidate.subgroup.rank != 1:
        return []
    v = candidate.subgroup.vector()
    return [sol if sol == "unresolved" else "(" + ", ".join(
        ("t" if v[i] else "*") if x is None else str(x)
        for i, x in enumerate(sol)) + ")" for sol in candidate.cosets]
