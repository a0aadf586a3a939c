"""Buchberger-based ideal engine over Q: reduced bases, normal forms,
elimination, saturation, and unit-ideal tests.

The one reduction loop works on content-free integer coefficient
dictionaries (fast exact arithmetic) and serves both the basis computation
and normal_form, which undoes the loop's tracked scalings to return the
exact remainder; reduced bases are presented monic with Fraction
coefficients.  Pair selection uses the sugar strategy with both Buchberger
criteria.  Each basis computation computes the order key of a monomial at
most once.  The minimal basis is interreduced in ascending lead order, each
member against the members already reduced before it: a tail term t of g
lies below lead(g), so only leads <= t can divide it.  All resource limits
are explicit: exceeding one raises ResourceExhausted, which carries the
GBStats counters reached and which pipelines treat as "undetermined", never
as a mathematical answer.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction

from .multipoly import MultiPoly, RingMismatch


@dataclass
class GBStats:
    """How far one Buchberger computation got."""
    pairs: int = 0            # pairs popped from the queue
    coprime_skips: int = 0    # pairs skipped by the coprime-leads criterion
    chain_skips: int = 0      # pairs skipped by the chain criterion
    reductions: int = 0       # S-polynomials reduced
    zero_reductions: int = 0  # of those, the ones that reduced to zero
    basis_size: int = 0       # members so far, before minimalization
    max_degree: int = 0       # largest lead degree added
    max_coeff_bits: int = 0   # largest coefficient added, in bits

    def __str__(self):
        return ", ".join(f"{f.name}={getattr(self, f.name)}"
                         for f in fields(self))


class ResourceExhausted(RuntimeError):
    def __init__(self, stage, detail="", stats: GBStats | None = None):
        msg = f"resource budget exhausted: {stage} {detail}".strip()
        if stats is not None:
            msg += f" ({stats})"
        super().__init__(msg)
        self.stage = stage
        self.stats = stats


@dataclass(frozen=True)
class Budget:
    max_pairs: int = 100_000
    max_degree: int = 60
    max_basis: int = 5_000


BUDGET_PROFILES = {
    "default": Budget(),
    "extended": Budget(max_pairs=400_000, max_degree=90, max_basis=20_000),
    "stretch": Budget(max_pairs=2_000_000, max_degree=140, max_basis=60_000),
}


def _grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def _lex_key(e):
    return e


class TermOrder:
    """Monomial order: 'lex' or 'grevlex', after an optional variable
    permutation (perm[i] = source index of the i-th compared variable).
    'block1' is the single-variable elimination order used by saturation;
    'block' with nblock=k compares the first k (permuted) variables by
    grevlex, then the rest (a general elimination order)."""

    def __init__(self, kind: str = "grevlex", perm=None, nblock: int = 1):
        if kind not in ("lex", "grevlex", "block1", "block"):
            raise ValueError(f"unknown order {kind!r}")
        self.kind = kind
        self.perm = tuple(perm) if perm is not None else None
        self.nblock = nblock
        if self.perm is not None and sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm must be a permutation")

    def key(self, e):
        if self.perm is not None:
            e = tuple(e[i] for i in self.perm)
        if self.kind == "lex":
            return _lex_key(e)
        if self.kind == "block1":
            return (e[0], _grevlex_key(e[1:]))
        if self.kind == "block":
            k = self.nblock
            return (_grevlex_key(e[:k]), _grevlex_key(e[k:]))
        return _grevlex_key(e)

    def __repr__(self):
        return f"TermOrder({self.kind!r}, perm={self.perm})"


GREVLEX = TermOrder("grevlex")


class _KeyCache(dict):
    """Order keys of the monomials one computation meets, each computed once.
    Pass the bound __getitem__ as a sort key: a hit stays in C, a miss goes
    through __missing__."""

    def __init__(self, order: TermOrder):
        super().__init__()
        self.order_key = order.key

    def __missing__(self, e):
        k = self[e] = self.order_key(e)
        return k


def elimination_order(n: int, eliminate) -> TermOrder:
    """Lex order with the eliminated variables largest."""
    elim = [i for i in range(n) if i in set(eliminate)]
    keep = [i for i in range(n) if i not in set(eliminate)]
    return TermOrder("lex", perm=elim + keep)


# ---------------------------------------------------------------------------
# integer-primitive engine
# ---------------------------------------------------------------------------

def _to_int_poly(p: MultiPoly):
    """Integer dict of p / p.content(): coprime integer coefficients with the
    signs of p's (a positive rescaling, so ideals are unchanged)."""
    c = p.content()
    return {e: int(v / c) for e, v in p.terms.items()}


def _normalize(p, key):
    if not p:
        return p
    g = 0
    for c in p.values():
        g = math.gcd(g, abs(c))
        if g == 1:
            break
    if g > 1:
        p = {e: c // g for e, c in p.items()}
    le = max(p, key=key)
    if p[le] < 0:
        p = {e: -c for e, c in p.items()}
    return p


def _divides(a, b):
    return all(map(operator.le, a, b))


def _mono_mul(p, e0, c0):
    if c0 == 1 and not any(e0):
        return dict(p)
    return {tuple(map(operator.add, e, e0)): c * c0 for e, c in p.items()}


def _add_into(a, b):
    for e, c in b.items():
        nc = a.get(e, 0) + c
        if nc:
            a[e] = nc
        elif e in a:
            del a[e]
    return a


def _reduce_int(p, basis, leads, key):
    """Full normal form of the integer dict p modulo the list of integer
    polys.  Returns (r, s): r is content-free with positive lead and equals
    s times the exact remainder; s (a nonzero Fraction) accounts for the
    multipliers and content divisions applied along the way."""
    p = dict(p)
    out = {}
    num = den = 1
    while p:
        e = max(p, key=key)
        for g, (lg, lc) in zip(basis, leads):
            if _divides(lg, e):
                break
        else:
            out[e] = p.pop(e)
            continue
        c = p[e]
        d = math.gcd(abs(c), lc)
        mp = lc // d
        mg = c // d
        if mp != 1:
            num *= mp
            for k in p:
                p[k] *= mp
            for k in out:
                out[k] *= mp
        _add_into(p, _mono_mul(g, tuple(map(operator.sub, e, lg)), -mg))
        if len(p) + len(out) > 64:
            g = 0
            for c0 in p.values():
                g = math.gcd(g, abs(c0))
                if g == 1:
                    break
            if g != 1:
                for c0 in out.values():
                    g = math.gcd(g, abs(c0))
                    if g == 1:
                        break
            if g > 1:
                den *= g
                p = {k: v // g for k, v in p.items()}
                out = {k: v // g for k, v in out.items()}
    r = _normalize(out, key)
    if not r:
        return r, Fraction(num, den)
    e = next(iter(r))
    return r, Fraction(num * r[e], den * out[e])


def _buchberger(gens, order: TermOrder, budget: Budget):
    key = _KeyCache(order).__getitem__
    stats = GBStats()
    G, leads, sugars = [], [], []

    def exhausted(limit):
        return ResourceExhausted(limit, str(getattr(budget, limit)), stats)

    def push(p, sug=None):
        le = max(p, key=key)
        deg = sum(le)
        stats.max_degree = max(stats.max_degree, deg)
        stats.max_coeff_bits = max(stats.max_coeff_bits,
                                   max(map(abs, p.values())).bit_length())
        if deg > budget.max_degree:
            raise exhausted("max_degree")
        G.append(p)
        leads.append((le, p[le]))
        sugars.append(sug if sug is not None else deg)
        stats.basis_size = len(G)
        if len(G) > budget.max_basis:
            raise exhausted("max_basis")

    for g in gens:
        g = _normalize(dict(g), key)
        if g:
            push(g)
    if not G:
        return []

    def lcm_of(i, j):
        return tuple(max(a, b) for a, b in zip(leads[i][0], leads[j][0]))

    def pair_entry(i, j):
        l = lcm_of(i, j)
        si = sugars[i] + sum(l) - sum(leads[i][0])
        sj = sugars[j] + sum(l) - sum(leads[j][0])
        return (max(si, sj), sum(l), i, j)

    pq = [pair_entry(i, j) for i in range(len(G)) for j in range(i)]
    heapq.heapify(pq)
    done = set()
    while pq:
        if stats.pairs >= budget.max_pairs:
            raise exhausted("max_pairs")
        sug, _, i, j = heapq.heappop(pq)
        stats.pairs += 1
        if (i, j) in done:
            continue
        done.add((i, j))
        li, ci = leads[i]
        lj, cj = leads[j]
        l = lcm_of(i, j)
        if all(a + b == m for a, b, m in zip(li, lj, l)):
            stats.coprime_skips += 1
            continue
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if _divides(leads[k][0], l):
                if (max(i, k), min(i, k)) in done and \
                        (max(j, k), min(j, k)) in done:
                    skip = True
                    break
        if skip:
            stats.chain_skips += 1
            continue
        d = math.gcd(ci, cj)
        cl = ci // d * cj
        sp = _mono_mul(G[i], tuple(map(operator.sub, l, li)), cl // ci)
        _add_into(sp, _mono_mul(G[j], tuple(map(operator.sub, l, lj)),
                                -cl // cj))
        stats.reductions += 1
        nf, _ = _reduce_int(sp, G, leads, key)
        if not nf:
            stats.zero_reductions += 1
            continue
        le = max(nf, key=key)
        if not any(x for x in le):
            return [{le: 1}]  # unit ideal
        idx = len(G)
        push(nf, sug)
        for k in range(idx):
            heapq.heappush(pq, pair_entry(idx, k))
    # minimalize: drop members whose lead is divisible by another lead
    keep = []
    for i in range(len(G)):
        li = leads[i][0]
        dominated = False
        for j in range(len(G)):
            if j == i:
                continue
            lj = leads[j][0]
            if _divides(lj, li) and (lj != li or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    # interreduce in ascending lead order, each member against the members
    # already reduced (every member of G is content-free with positive lead)
    keep.sort(key=lambda i: key(leads[i][0]))
    out, out_leads = [], []
    for i in keep:
        r = _reduce_int(G[i], out, out_leads, key)[0] if out else G[i]
        le = leads[i][0]
        out.append(r)
        out_leads.append((le, r[le]))
    return out


# ---------------------------------------------------------------------------
# public ideal API
# ---------------------------------------------------------------------------

class Ideal:
    """Ideal of Q[x_1..x_n], given by generators.  Laurent generators are
    normalized to ordinary polynomials times a monomial unit on entry
    (coordinates are invertible on the torus, so the ideal of the Laurent
    ring is unchanged)."""

    def __init__(self, n: int, generators):
        self.n = n
        gens = []
        for g in generators:
            if g.n != n:
                raise RingMismatch("generator arity mismatch")
            if g.laurent:
                g = g.strip_monomial_content().as_polynomial()
            if not g.is_zero():
                gens.append(g)
        self.generators = gens
        self._basis_cache = {}

    def _cache_key(self, order: TermOrder):
        return (order.kind, order.perm, order.nblock)

    def groebner_basis(self, order: TermOrder = GREVLEX,
                       budget: Budget = BUDGET_PROFILES["default"]):
        key = self._cache_key(order)
        if key in self._basis_cache:
            return self._basis_cache[key]
        raw = _buchberger([_to_int_poly(g) for g in self.generators],
                          order, budget)
        basis = []
        for p in raw:
            le = max(p, key=order.key)
            lc = Fraction(p[le])
            q = MultiPoly(self.n, None, False)
            q.terms = {e: Fraction(c) / lc for e, c in p.items()}
            basis.append(q)
        self._basis_cache[key] = basis
        return basis

    def __repr__(self):
        return f"Ideal(n={self.n}, {len(self.generators)} generators)"


def groebner_basis(I: Ideal, order: TermOrder = GREVLEX,
                   budget: Budget = BUDGET_PROFILES["default"]):
    return I.groebner_basis(order, budget)


def normal_form(p: MultiPoly, I: Ideal, order: TermOrder = GREVLEX,
                budget: Budget = BUDGET_PROFILES["default"]) -> MultiPoly:
    """Remainder of p modulo the reduced basis; zero iff p is a member."""
    if p.n != I.n:
        raise RingMismatch("arity mismatch")
    if p.laurent:
        p = p.strip_monomial_content().as_polynomial()
    key = _KeyCache(order).__getitem__
    basis = [_to_int_poly(g) for g in I.groebner_basis(order, budget)]
    leads = []
    for g in basis:
        le = max(g, key=key)
        leads.append((le, g[le]))
    rem, scale = _reduce_int(_to_int_poly(p), basis, leads, key)
    factor = p.content() / scale
    r = MultiPoly(I.n, None, False)
    r.terms = {e: c * factor for e, c in rem.items()}
    return r


def eliminate(I: Ideal, keep, budget: Budget = BUDGET_PROFILES["default"],
              method: str = "lex") -> Ideal:
    """Generators of I intersected with the subring in the kept variables,
    via a lex basis with the eliminated variables largest (method 'block'
    swaps in a grevlex-block elimination order: same elimination ideal,
    usually far cheaper on large inputs)."""
    keep = set(keep)
    eliminated = [i for i in range(I.n) if i not in keep]
    if method == "block":
        perm = eliminated + [i for i in range(I.n) if i in keep]
        order = TermOrder("block", perm=perm, nblock=len(eliminated))
    else:
        order = elimination_order(I.n, eliminated)
    basis = I.groebner_basis(order, budget)
    kept = [g for g in basis
            if all(all(e[i] == 0 for i in eliminated) for e in g.terms)]
    return Ideal(I.n, kept)


def _append_variable(p: MultiPoly) -> MultiPoly:
    q = MultiPoly(p.n + 1, None, False)
    q.terms = {(0,) + e: c for e, c in p.terms.items()}
    return q


def _eliminate_first(J: Ideal, budget: Budget) -> Ideal:
    """J intersected with the subring without the first variable, read off
    the reduced block1 basis.  Its members free of the first variable are
    the reduced basis of that intersection in the order block1 induces
    there, which is grevlex, so the result carries them as its grevlex
    basis."""
    out = []
    for g in J.groebner_basis(TermOrder("block1"), budget):
        if all(e[0] == 0 for e in g.terms):
            q = MultiPoly(J.n - 1, None, False)
            q.terms = {e[1:]: c for e, c in g.terms.items()}
            out.append(q)
    result = Ideal(J.n - 1, out)
    result._basis_cache[result._cache_key(GREVLEX)] = list(out)
    return result


def saturate(I: Ideal, f: MultiPoly,
             budget: Budget = BUDGET_PROFILES["default"]) -> Ideal:
    """I : f^infinity by the extra-variable method: adjoin y, add 1 - y*f,
    and eliminate y (single-block elimination order)."""
    if f.is_zero():
        raise ValueError("saturation by zero")
    if f.laurent:
        f = f.strip_monomial_content().as_polynomial()
    lifted = [_append_variable(g) for g in I.generators]
    rel = MultiPoly.constant(I.n + 1, 1)
    yf = MultiPoly(I.n + 1, None, False)
    yf.terms = {(1,) + e: c for e, c in f.terms.items()}
    rel = rel - yf
    J = Ideal(I.n + 1, lifted + [rel])
    return _eliminate_first(J, budget)


def saturate_many(I: Ideal, polys,
                  budget: Budget = BUDGET_PROFILES["default"]) -> Ideal:
    """Successive saturation; saturating by a product equals saturating by
    each factor in turn."""
    J = I
    for f in polys:
        J = saturate(J, f, budget)
        if is_trivial(J, budget):
            return J
    return J


def intersect(I: Ideal, J: Ideal,
              budget: Budget = BUDGET_PROFILES["default"]) -> Ideal:
    """I intersect J, via eliminating t from t*I + (1-t)*J."""
    if I.n != J.n:
        raise RingMismatch("arity mismatch")
    n1 = I.n + 1
    t = MultiPoly.variable(n1, 0)
    one_minus_t = MultiPoly.constant(n1, 1) - t
    gens = [t * _append_variable(g) for g in I.generators] + \
           [one_minus_t * _append_variable(g) for g in J.generators]
    return _eliminate_first(Ideal(n1, gens), budget)


def saturate_by_ideal(I: Ideal, generators,
                      budget: Budget = BUDGET_PROFILES["default"]) -> Ideal:
    """I : J^infinity for J = (generators): the intersection of the
    saturations by the individual generators (this removes exactly the
    components contained in V(J))."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return I
    result = None
    for f in gens:
        S = saturate(I, f, budget)
        result = S if result is None else intersect(result, S, budget)
        # early exit: the running intersection is already the zero ideal,
        # and intersecting it with further saturations keeps it zero
        if result is not None and not result.generators:
            break
    return result if result is not None else I


def is_trivial(I: Ideal, budget: Budget = BUDGET_PROFILES["default"]) -> bool:
    """True iff 1 lies in the ideal (reduced basis == {1})."""
    if not I.generators:
        return False
    basis = I.groebner_basis(GREVLEX, budget)
    return len(basis) == 1 and basis[0].is_constant() and \
        not basis[0].is_zero()
