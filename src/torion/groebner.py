"""Buchberger-based ideal engine over Q: reduced bases, normal forms,
elimination, saturation, and unit-ideal tests.

Inside the kernel a monomial is one Python int (see _Packing): the fields
of its order key come first, most significant, then its exponents, each
field with a guard bit above it.  Comparing two monomials in the term order
is one int comparison, multiplying them is one addition, and testing
lead | t is one subtraction and mask.  Exponent tuples are packed on entry
and unpacked on exit; a product that would overflow a field raises
ResourceExhausted("max_degree") instead of wrapping.

The one reduction loop works on content-free integer coefficient
dictionaries (fast exact arithmetic) and serves both the basis computation
and normal_form, which undoes the loop's tracked scalings to return the
exact remainder; reduced bases are presented monic with Fraction
coefficients.  The loop keeps the monomials of the polynomial it reduces in
a heap, so each step pops the lead instead of searching for it.  Each basis
it reduces by keeps a memo from a monomial to the index of its first
divisor among the leads (for a monomial no lead divides, the basis length
it was checked against); a basis only grows, so the memo picks the reducer
a linear scan would.  Pair selection uses the sugar strategy with both
Buchberger criteria: each S-pair's queue entry carries its packed lcm,
computed once when it is pushed, and the chain criterion looks for a
divisor of the lcm only among the members whose pairs with both ends are
already treated.  The inputs are queue entries too (Giovini, Mora,
Niesi, Robbiano and Traverso, "One sugar cube, please", ISSAC 1991): each
waits with its degree as sugar, ahead of the S-pairs with the same sugar and
lcm degree.  A popped input whose lead no member's lead divides joins the
basis as it is; any other is reduced like an S-polynomial, dropped at zero,
and a constant ends the run with the unit ideal.  A member is paired with
the others when it joins, so an ideal that reaches 1 early never pairs its
late inputs.  One pass in ascending lead order makes the basis reduced: a
member whose lead a kept member's lead divides is dropped (a lead that
another lead divides comes after it), and any other is reduced against the
members kept before it: a tail term t of g lies below lead(g), so only
leads <= t can divide it.

The first inputs of a run may be marked as a Groebner basis in its order
(Gebauer and Moeller, JSC 6, 1988: a pair with a standard representation
needs no reduction).  When two of them join unchanged, their pair is
treated at once, never pushed or reduced, and the chain criterion can use
it.  A marked input that an earlier member reduces joins as any other, and
its pairs are reduced as usual.  saturate(I, f) marks I's reduced grevlex
basis: free of y, it is a Groebner basis in the block order [y | x], which
restricts to grevlex on x.

A basis in any order but grevlex is converted from the grevlex basis by
FGLM (Faugere, Gianni, Lazard and Mora, JSC 16, 1993) where
Ideal._convert_from_grevlex says, and otherwise runs Buchberger: normal
forms come from the one reduction loop, and each candidate's dependency
test is one pass against an incremental fraction-free echelon form of the
standard monomials' normal forms.  The saturation's own block run calls
the kernel directly.

All resource limits are explicit: exceeding one raises ResourceExhausted,
which carries the GBStats counters reached and which pipelines treat as
"undetermined", never as a mathematical answer.
"""

from __future__ import annotations

import heapq
import math
import operator
import time
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import reduce
from itertools import chain

from .intlat import clear_denominators
from .multipoly import MultiPoly, RingMismatch


@dataclass
class GBStats:
    """How far one Buchberger computation got."""
    pairs: int = 0            # S-pairs popped from the queue (not inputs)
    coprime_skips: int = 0    # pairs skipped by the coprime-leads criterion
    chain_skips: int = 0      # pairs skipped by the chain criterion
    reductions: int = 0       # S-polynomials reduced
    zero_reductions: int = 0  # of those, the ones that reduced to zero
    basis_size: int = 0       # members so far (inputs that joined and
                              # S-pair remainders), before the final pass
                              # drops the dominated ones
    max_degree: int = 0       # largest lead degree added
    max_coeff_bits: int = 0   # largest coefficient added, in bits
    seed_skips: int = 0       # pairs of two seeded inputs that joined
                              # unchanged: treated, never pushed or reduced
    seconds: float = field(default=0.0, compare=False)  # wall time, to 1 us

    def counters(self):
        """str() without the wall time: equal runs give equal text."""
        return ", ".join(f"{f.name}={getattr(self, f.name)}"
                         for f in fields(self) if f.compare)

    def __str__(self):
        return f"{self.counters()}, seconds={self.seconds}"


class ResourceExhausted(RuntimeError):
    def __init__(self, stage, detail="", stats: GBStats | None = None):
        msg = f"resource budget exhausted: {stage} {detail}".strip()
        self.untimed = msg if stats is None else f"{msg} ({stats.counters()})"
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
    'block' with nblock=k compares the first k (permuted) variables by
    grevlex, then the rest (an elimination order; with k = 1 it is the
    one saturation uses)."""

    def __init__(self, kind: str = "grevlex", perm=None, nblock: int = 1):
        if kind not in ("lex", "grevlex", "block"):
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
        if self.kind == "block":
            k = self.nblock
            return (_grevlex_key(e[:k]), _grevlex_key(e[k:]))
        return _grevlex_key(e)

    def __repr__(self):
        nblock = f", nblock={self.nblock}" if self.kind == "block" else ""
        return f"TermOrder({self.kind!r}, perm={self.perm}{nblock})"


GREVLEX = TermOrder("grevlex")


def elimination_order(n: int, eliminate) -> TermOrder:
    """Lex order with the eliminated variables largest."""
    elim = [i for i in range(n) if i in set(eliminate)]
    keep = [i for i in range(n) if i not in set(eliminate)]
    return TermOrder("lex", perm=elim + keep)


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

class _FieldOverflow(ArithmeticError):
    """A packed monomial does not fit its fields."""


def _grevlex_fields(vs):
    """Order fields of grevlex on the variables vs, as the variables each
    field sums: the degree, then the partial sums of the first
    len(vs) - 1, ..., 1 of them (a larger sum of the first k means a smaller
    exponent further on)."""
    return [vs[:k] for k in range(len(vs), 0, -1)]


class _Packing:
    """Monomials in n variables packed into one int each, for one term
    order.  The order fields come first, most significant (lex: the
    exponents; grevlex: the degree and partial sums; block orders: one such
    list per block, after the order's permutation), then the n exponents.
    Each field is w bits with a guard bit above them, 2^w > 4 * degree.

    Every field is a sum of exponents, so packing is additive: words compare
    as the monomials do in the order, adding words multiplies monomials, and
    lead | t iff (t - lead) & guard == 0, since an exponent of t smaller than
    lead's borrows into its guard bit.  No field exceeds the total degree;
    a word or product whose fields would reach 2^w raises _FieldOverflow."""

    def __init__(self, n: int, order: TermOrder, degree: int):
        vs = list(order.perm) if order.perm is not None else list(range(n))
        if order.kind == "lex":
            rows = [[v] for v in vs]
        elif order.kind == "grevlex":
            rows = _grevlex_fields(vs)
        else:
            k = order.nblock
            rows = _grevlex_fields(vs[:k]) + _grevlex_fields(vs[k:])
        rows += [[i] for i in range(n)]
        w = (4 * max(degree, 1)).bit_length()
        width = w + 1
        self.units = [0] * n  # the word of each variable
        for j, row in enumerate(reversed(rows)):
            for v in row:
                self.units[v] += 1 << (j * width)
        guards = [1 << (j * width + w) for j in range(len(rows))]
        self.guard = sum(guards[:n])     # the exponent fields' guard bits
        self.full_guard = sum(guards)
        self.limit = 1 << w
        self.shifts = [(n - 1 - i) * width for i in range(n)]

    def encode(self, e) -> int:
        if sum(e) >= self.limit:
            raise _FieldOverflow
        return sum(map(operator.mul, e, self.units))

    def decode(self, m) -> tuple:
        mask = self.limit - 1
        return tuple((m >> s) & mask for s in self.shifts)

    def packed(self, p):
        return {self.encode(e): c for e, c in p.items()}

    def unpacked(self, p):
        return {self.decode(m): c for m, c in p.items()}

    def check_shift(self, g, hi, q):
        """Raise _FieldOverflow if some monomial of g times q overflows a
        field.  Each field of hi, the bitwise or of g's monomials, bounds
        theirs, so the exact test runs only when hi + q fails."""
        guard = self.full_guard
        if (hi + q) & guard and any((m + q) & guard for m in g):
            raise _FieldOverflow


class _Basis:
    """Content-free integer polynomials with packed monomials, with their
    leads, lead coefficients and the bitwise or of their monomials, and the
    memo of first divisors that _reduce_int keeps for them.  Members are
    only appended, so a first divisor stays the first."""

    def __init__(self):
        self.polys, self.leads, self.lcs, self.his = [], [], [], []
        self.memo = {}

    def append(self, p, le):
        self.polys.append(p)
        self.leads.append(le)
        self.lcs.append(p[le])
        self.his.append(reduce(operator.or_, p))


def _packed_basis(polys, n, order: TermOrder, budget: Budget, extra=()):
    """The _Packing for order with fields sized from the budget, the reduced
    basis polys (MultiPolys) and the integer dicts extra, and the _Basis of
    polys packed by it."""
    ints = [_to_int_poly(g) for g in polys]
    pk = _Packing(n, order, max([budget.max_degree] +
                                [sum(e) for g in ints + list(extra)
                                 for e in g]))
    basis = _Basis()
    for g in ints:
        g = pk.packed(g)
        basis.append(g, max(g))
    return pk, basis


# ---------------------------------------------------------------------------
# integer-primitive engine
# ---------------------------------------------------------------------------

def _to_int_poly(p: MultiPoly):
    """Integer dict of p / p.content(): coprime integer coefficients with the
    signs of p's (a positive rescaling, so ideals are unchanged)."""
    return dict(zip(p.terms, clear_denominators(p.terms.values())))


def _normalize(p):
    """p scaled to coprime integers with a positive lead."""
    if not p:
        return p
    g = math.gcd(*p.values()) or 1
    if p[max(p)] < 0:
        g = -g
    return {e: c // g for e, c in p.items()} if g != 1 else p


def _sub_shifted(p, g, q, c):
    """p -= c * x^q * g, in place."""
    for m, cg in g.items():
        t = m + q
        nc = p.get(t, 0) - cg * c
        if nc:
            p[t] = nc
        else:
            del p[t]


def _reduce_int(p, basis: _Basis, packing: _Packing):
    """Full normal form of the integer dict p modulo the basis.  Returns
    (r, s): r is content-free with positive lead and equals s times the
    exact remainder; s (a nonzero Fraction) accounts for the multipliers
    and content divisions applied along the way."""
    polys, leads, lcs, his = basis.polys, basis.leads, basis.lcs, basis.his
    memo, guard = basis.memo, packing.guard
    p = dict(p)
    heap = [-t for t in p]  # p's monomials, negated; stale ones are skipped
    heapq.heapify(heap)
    out = {}
    num = den = 1
    while heap:
        e = -heapq.heappop(heap)
        if e not in p:
            continue
        k = memo.get(e, -1)
        if k < 0:  # no lead among the first ~k divides e
            k, nb = ~k, len(leads)
            while k < nb and (e - leads[k]) & guard:
                k += 1
            if k == nb:
                memo[e] = ~nb
                out[e] = p.pop(e)
                continue
            memo[e] = k
        c = p[e]
        lc = lcs[k]
        d = math.gcd(abs(c), lc)
        mp = lc // d
        mg = c // d
        if mp != 1:
            num *= mp
            for t in p:
                p[t] *= mp
            for t in out:
                out[t] *= mp
        q = e - leads[k]
        packing.check_shift(polys[k], his[k], q)
        for m, cg in polys[k].items():
            t = m + q
            nc = p.get(t)
            if nc is None:
                p[t] = -cg * mg
                heapq.heappush(heap, -t)
            else:
                nc -= cg * mg
                if nc:
                    p[t] = nc
                else:
                    del p[t]
        if len(p) + len(out) > 64:
            g = math.gcd(*p.values())
            if g != 1:  # out's content matters only when p's is not 1
                g = math.gcd(g, *out.values())
            if g > 1:
                den *= g
                p = {t: v // g for t, v in p.items()}
                out = {t: v // g for t, v in out.items()}
    r = _normalize(out)
    if not r:
        return r, Fraction(num, den)
    e = next(iter(r))
    return r, Fraction(num * r[e], den * out[e])


def _buchberger(n, gens, order: TermOrder, budget: Budget, seeded=0):
    """Reduced basis of the integer dicts gens (exponent tuples, n
    variables) and the counters of the computation.  The basis is a list of
    (lead, poly) pairs in ascending lead order, each poly content-free with
    a positive lead coefficient.  The first `seeded` gens must form a
    Groebner basis in `order`: the S-pair of two of them that both join
    unchanged reduces to zero by them, so it is marked treated when the
    second joins and never pushed."""
    start = time.perf_counter()
    stats = GBStats()

    def stop():
        stats.seconds = round(time.perf_counter() - start, 6)
        return stats

    def exhausted(limit, note=""):
        return ResourceExhausted(limit, f"{getattr(budget, limit)}{note}",
                                 stop())

    pk = _Packing(n, order, max([budget.max_degree] +
                                [sum(e) for g in gens for e in g]))
    G = _Basis()
    exps, sugars = [], []  # lead exponents and sugar of each member

    def push(p, sug):
        le = max(p)
        lexp = pk.decode(le)
        deg = sum(lexp)
        stats.max_degree = max(stats.max_degree, deg)
        stats.max_coeff_bits = max(stats.max_coeff_bits,
                                   max(map(abs, p.values())).bit_length())
        if deg > budget.max_degree:
            raise exhausted("max_degree")
        G.append(p, le)
        exps.append(lexp)
        sugars.append(sug)
        stats.basis_size = len(G.polys)
        if len(G.polys) > budget.max_basis:
            raise exhausted("max_basis")

    def pair_entry(i, j):
        lcm = tuple(map(max, exps[i], exps[j]))
        l = sum(lcm)
        si = sugars[i] + l - sum(exps[i])
        sj = sugars[j] + l - sum(exps[j])
        return (max(si, sj), l, i, j, pk.encode(lcm))

    try:
        # an input is the entry (its degree as sugar, its lead's degree, -1,
        # its index, None): ahead of the S-pairs (sugar, lcm degree, i, j,
        # packed lcm) with the same first two keys; (i, j) is unique, so the
        # last field is never compared
        inputs, pq = [], []
        for k, g in enumerate(gens):
            p = _normalize(pk.packed(g))
            if p:
                pq.append((max(map(sum, g)), sum(pk.decode(max(p))), -1,
                           len(inputs), None))
                inputs.append((p, k < seeded))
        heapq.heapify(pq)
        leads, guard = G.leads, pk.guard
        done = []  # done[k]: the members whose pair with k is treated
        seeds = set()  # the seeded inputs that joined unchanged
        while pq:
            sug, _, i, j, l = heapq.heappop(pq)
            seed = False
            if i < 0:
                nf, seed = inputs[j]
                le = max(nf)
                if any(not (le - lk) & guard for lk in leads):
                    seed = False
                    nf = _reduce_int(nf, G, pk)[0]
                    if not nf:
                        continue
            else:
                if stats.pairs >= budget.max_pairs:
                    raise exhausted("max_pairs")
                stats.pairs += 1
                done[i].add(j)
                done[j].add(i)
                li, lj = leads[i], leads[j]
                if l == li + lj:
                    stats.coprime_skips += 1
                    continue
                # chain criterion: some k whose pairs with i and j are
                # both treated has a lead dividing the lcm
                if any(not (l - leads[k]) & guard
                       for k in done[i] & done[j]):
                    stats.chain_skips += 1
                    continue
                ci, cj = G.lcs[i], G.lcs[j]
                d = math.gcd(ci, cj)
                cl = ci // d * cj
                qi, qj = l - li, l - lj
                pk.check_shift(G.polys[i], G.his[i], qi)
                pk.check_shift(G.polys[j], G.his[j], qj)
                sp = {m + qi: c * (cl // ci) for m, c in G.polys[i].items()}
                _sub_shifted(sp, G.polys[j], qj, cl // cj)
                stats.reductions += 1
                nf, _ = _reduce_int(sp, G, pk)
                if not nf:
                    stats.zero_reductions += 1
                    continue
            if not max(nf):
                zero = (0,) * n
                return [(zero, {zero: 1})], stop()  # unit ideal
            idx = len(leads)
            push(nf, sug)
            treated = set(seeds) if seed else set()
            for k in treated:
                done[k].add(idx)
            stats.seed_skips += len(treated)
            done.append(treated)
            if seed:
                seeds.add(idx)
            for k in range(idx):
                if k not in treated:
                    heapq.heappush(pq, pair_entry(idx, k))
        # minimalize and interreduce in one ascending pass; of equal leads
        # the stable sort keeps the first (every member of G is
        # content-free with positive lead)
        out = _Basis()
        for i in sorted(range(len(leads)), key=leads.__getitem__):
            li = leads[i]
            if any(not (li - lk) & guard for lk in out.leads):
                continue
            r = _reduce_int(G.polys[i], out, pk)[0] if out.polys \
                else G.polys[i]
            out.append(r, li)
    except _FieldOverflow:
        raise exhausted("max_degree", ", field overflow") from None
    return [(pk.decode(le), pk.unpacked(r))
            for le, r in zip(out.leads, out.polys)], stop()


# ---------------------------------------------------------------------------
# change of order (FGLM)
# ---------------------------------------------------------------------------

def _staircase(basis: _Basis, pk: _Packing, used, cap):
    """The standard monomials (no lead divides them) of the reduced basis
    in the variables `used`, packed, or None when one of them has no pure
    power among the leads (the ideal is not zero-dimensional in them) or
    there are more than cap.  Variables that no basis member uses stay
    free and have no part in the staircase."""
    exps = [pk.decode(le) for le in basis.leads]
    if not all(any(not any(e[:i] + e[i + 1:]) for e in exps)
               for i in used):
        return None
    guard, out = pk.guard, []
    stack = [(0, 0)]  # a monomial and the least variable it may still gain
    while stack:
        m, i = stack.pop()
        if all((m - le) & guard for le in basis.leads):
            out.append(m)
            if len(out) > cap:
                return None
            stack.extend((m + pk.units[used[j]], j)
                         for j in range(i, len(used)))
    return out


def _fglm(basis: _Basis, pk: _Packing, staircase, n, order: TermOrder,
          used):
    """Reduced basis in the order `order` of the ideal with reduced basis
    `basis` (packed by pk, any order), zero-dimensional in the variables
    `used` that its members use, with standard monomials `staircase` in
    them, in _buchberger's format.  The candidates x_i * s, x_i a used
    variable and s a standard monomial of the new order, are taken
    smallest first.  A candidate divisible by a new lead is skipped.
    Otherwise its normal form, the normal form of x_i times that of s,
    either depends on those of the standard monomials already found, and
    the relation is a new basis member with lead the candidate, or the
    candidate is standard too.  Each normal form is kept as (r, scale),
    r = scale * NF as _reduce_int gives it, so a relation sum k_j r_j = 0
    is the member sum k_j scale_j m_j.  The r's of the standard monomials
    are kept in fraction-free echelon rows (pivot, vector, combination k):
    vector = sum k_j r_j, both divided by their common content, zero at
    the pivots of earlier rows.  So one pass over the rows in order leaves
    a candidate's r zero at every pivot: a zero remainder's combination is
    the relation (unique up to scale), a nonzero one a new row."""
    target = _Packing(n, order, len(staircase))
    words, vecs, scales = [], [], []  # the new standard monomials
    rows, leads, out = [], [], []
    heap, seen = [(0, -1, 0)], set()  # (target word, parent, variable)
    while heap:
        t, parent, v = heapq.heappop(heap)
        if t in seen:
            continue
        seen.add(t)
        if any(not (t - le) & target.guard for le in leads):
            continue
        if parent < 0:
            r, scale = _reduce_int({0: 1}, basis, pk)
        else:
            r, scale = _reduce_int({m + pk.units[v]: c
                                    for m, c in vecs[parent].items()},
                                   basis, pk)
            scale *= scales[parent]
        vec, comb = r, {len(words): 1}  # rebound, never changed in place
        for pivot, rvec, rcomb in rows:
            b = vec.get(pivot)
            if b is None:
                continue
            g = math.gcd(rvec[pivot], b)
            a, b = rvec[pivot] // g, b // g
            vec = {m: a * c for m, c in vec.items()}
            comb = {k: a * c for k, c in comb.items()}
            _sub_shifted(vec, rvec, 0, b)
            _sub_shifted(comb, rcomb, 0, b)
            g = math.gcd(*vec.values(), *comb.values())
            if g > 1:
                vec = {m: c // g for m, c in vec.items()}
                comb = {k: c // g for k, c in comb.items()}
        if vec:
            rows.append((max(vec), vec, comb))
            words.append(t)
            vecs.append(r)
            scales.append(scale)
            for i in used:
                heapq.heappush(heap, (t + target.units[i], len(vecs) - 1, i))
            continue
        ws, coeffs = zip(*[(w, comb[k] * s) for k, (w, s) in enumerate(
            zip(words + [t], scales + [scale])) if k in comb])
        ints = clear_denominators(coeffs)
        sign = 1 if ints[-1] > 0 else -1  # t's coefficient, the lead
        leads.append(t)
        out.append((target.decode(t), {target.decode(w): sign * a for w, a
                                       in zip(reversed(ws), reversed(ints))}))
    return out


# ---------------------------------------------------------------------------
# public ideal API
# ---------------------------------------------------------------------------

def _polynomial(f: MultiPoly) -> MultiPoly:
    """f free of monomial content if it has a negative exponent: an ordinary
    polynomial with the same zero set on the torus; else f as it is."""
    if min(chain.from_iterable(f.terms), default=0) < 0:
        return f.strip_monomial_content()
    return f


class Ideal:
    """Ideal of Q[x_1..x_n], given by generators.  A generator with a
    negative exponent is divided by its monomial content on entry, which
    leaves an ordinary polynomial (coordinates are invertible on the torus,
    so the ideal of the Laurent ring is unchanged)."""

    def __init__(self, n: int, generators):
        self.n = n
        gens = []
        for g in generators:
            if g.n != n:
                raise RingMismatch("generator arity mismatch")
            if not g.is_zero():
                gens.append(_polynomial(g))
        self.generators = gens
        self._basis_cache = {}
        self._stats_cache = {}

    def _cache_key(self, order: TermOrder):
        """Equal orders share a key: an identity permutation is no
        permutation, and only a block order has a block size."""
        perm = None if order.perm == tuple(range(self.n)) else order.perm
        return (order.kind, perm,
                order.nblock if order.kind == "block" else None)

    def groebner_basis(self, order: TermOrder = GREVLEX,
                       budget: Budget = BUDGET_PROFILES["default"]):
        """Reduced basis in the given order, monic, cached per order; by
        FGLM from the grevlex basis where `_convert_from_grevlex` applies,
        else by Buchberger."""
        key = self._cache_key(order)
        if key in self._basis_cache:
            return self._basis_cache[key]
        raw = None
        if order.kind != "grevlex":
            raw, stats = self._convert_from_grevlex(order, budget)
        if raw is None:
            raw, stats = _buchberger(self.n, [_to_int_poly(g)
                                              for g in self.generators],
                                     order, budget)
        basis = [MultiPoly._raw(self.n, {e: Fraction(c, p[le])
                                         for e, c in p.items()})
                 for le, p in raw]
        self._basis_cache[key] = basis
        if stats is not None:
            self._stats_cache[key] = stats
        return basis

    def _convert_from_grevlex(self, order: TermOrder, budget: Budget):
        """(basis, stats) by FGLM from the grevlex basis, in _buchberger's
        format, with the grevlex run's counters and its seconds plus the
        conversion's (None without a grevlex run here); (None, None) when
        the conversion does not apply.  It applies when every variable the
        generators use has a pure power among the grevlex leads and the
        quotient by the ideal in those variables has dimension
        D <= budget.max_degree (the other variables stay free, and the
        reduced basis in any order uses none of them).  Every proper
        divisor of a lead in the new order is a standard monomial, so no
        lead exceeds degree D and the result fits the budget and the
        fields.  The grevlex basis is the cached one, or computed here
        under the same budget and cached; it is not computed when there
        are fewer nonzero generators than the variables they use (by
        Krull's height theorem the unit ideal or positive-dimensional),
        and running out of budget for it means no conversion."""
        used = sorted(set().union(*[g.variables_used()
                                    for g in self.generators]))
        if len(self.generators) < len(used) and \
                self._cache_key(GREVLEX) not in self._basis_cache:
            return None, None
        try:
            grevlex = self.groebner_basis(GREVLEX, budget)
        except ResourceExhausted:
            return None, None
        start = time.perf_counter()
        pk, basis = _packed_basis(grevlex, self.n, GREVLEX, budget)
        # the basis uses no variable the generators do not
        staircase = _staircase(basis, pk, used, budget.max_degree)
        if staircase is None:
            return None, None
        raw = _fglm(basis, pk, staircase, self.n, order, used)
        stats = self.stats(GREVLEX)
        if stats is not None:
            stats = replace(stats, seconds=round(
                stats.seconds + time.perf_counter() - start, 6))
        return raw, stats

    def stats(self, order: TermOrder = GREVLEX) -> GBStats | None:
        """Counters of the Buchberger run behind the cached basis in this
        order; None when no run here produced it (not computed yet, or
        handed over by the saturation or intersection that made this
        ideal).  A basis converted from the grevlex basis by FGLM
        carries the grevlex run's counters, with seconds covering that run
        and the conversion; None when the grevlex basis was handed over."""
        return self._stats_cache.get(self._cache_key(order))

    def __repr__(self):
        return f"Ideal(n={self.n}, {len(self.generators)} generators)"


def normal_form(p: MultiPoly, I: Ideal, order: TermOrder = GREVLEX,
                budget: Budget = BUDGET_PROFILES["default"]) -> MultiPoly:
    """Remainder of p modulo the reduced basis; zero iff p is a member."""
    if p.n != I.n:
        raise RingMismatch("arity mismatch")
    p = _polynomial(p)
    q = _to_int_poly(p)
    pk, basis = _packed_basis(I.groebner_basis(order, budget), I.n, order,
                              budget, [q])
    try:
        rem, scale = _reduce_int(pk.packed(q), basis, pk)
    except _FieldOverflow:
        raise ResourceExhausted("max_degree",
                                f"{budget.max_degree}, field overflow",
                                I.stats(order) or GBStats()) from None
    factor = p.content() / scale
    return MultiPoly._raw(I.n, {pk.decode(m): c * factor
                                for m, c in rem.items()})


def eliminate(I: Ideal, keep, budget: Budget = BUDGET_PROFILES["default"],
              method: str = "lex") -> Ideal:
    """Generators of I intersected with the subring in the kept variables,
    via a lex basis with the eliminated variables largest (method 'block'
    swaps in a grevlex-block elimination order: same elimination ideal,
    usually far cheaper on large inputs)."""
    if method not in ("lex", "block"):
        raise ValueError(f"unknown elimination method {method!r}: "
                         "expected 'lex' or 'block'")
    keep = set(keep)
    for i in sorted(keep):
        if not 0 <= i < I.n:
            raise ValueError(f"variable index {i} out of range for "
                             f"{I.n} variables")
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
    return MultiPoly._raw(p.n + 1, {(0,) + e: c for e, c in p.terms.items()})


def _eliminate_first(J: Ideal, budget: Budget, seeded=0) -> Ideal:
    """J intersected with the subring without the first variable, read off
    the reduced basis in the block order with the first variable alone in
    its block, from one Buchberger run on J's generators, the first
    `seeded` of them a Groebner basis in that order (never by FGLM: a
    grevlex run on J costs more than the conversion saves).  Its members
    with a lead free of the first variable are free of it, and they are the
    reduced basis of that intersection in the order the block order induces
    there, which is grevlex, so the result carries them as its grevlex
    basis."""
    raw, _ = _buchberger(J.n, [_to_int_poly(g) for g in J.generators],
                         TermOrder("block", nblock=1), budget, seeded=seeded)
    out = [MultiPoly._raw(J.n - 1, {e[1:]: Fraction(c, p[le])
                                    for e, c in p.items()})
           for le, p in raw if not le[0]]
    return _presented_by_basis(J.n - 1, out)


def _presented_by_basis(n: int, basis) -> Ideal:
    """The ideal with reduced grevlex basis `basis`, generated by it and
    carrying it as its cached grevlex basis."""
    result = Ideal(n, basis)
    result._basis_cache[result._cache_key(GREVLEX)] = list(basis)
    return result


def _check_arity(I: Ideal, polys):
    if any(p.n != I.n for p in polys):
        raise RingMismatch("arity mismatch")


def saturate(I: Ideal, f: MultiPoly,
             budget: Budget = BUDGET_PROFILES["default"]) -> Ideal:
    """I : f^infinity by the extra-variable method: adjoin y, add 1 - y*f,
    and eliminate y (single-block elimination order).  I enters by its
    reduced grevlex basis, computed and cached here if need be, which stays
    a Groebner basis in the block order (the order restricts to grevlex on
    polynomials free of y), so the block run never reduces its pairs; when
    that basis runs out of budget, I enters by its generators."""
    _check_arity(I, [f])
    if f.is_zero():
        raise ValueError("saturation by zero")
    try:
        gens = I.groebner_basis(GREVLEX, budget)
        seeded = len(gens)
    except ResourceExhausted:
        gens, seeded = I.generators, 0
    rel = MultiPoly.constant(I.n + 1, 1)
    yf = MultiPoly._raw(I.n + 1, {(1,) + e: c
                                  for e, c in _polynomial(f).terms.items()})
    J = Ideal(I.n + 1, [_append_variable(g) for g in gens] + [rel - yf])
    return _eliminate_first(J, budget, seeded)


def saturate_many(I: Ideal, polys,
                  budget: Budget = BUDGET_PROFILES["default"]) -> Ideal:
    """Successive saturation; saturating by a product equals saturating by
    each factor in turn.  The unit test runs before each saturation, so a
    unit ideal is never saturated; the result is presented by its reduced
    grevlex basis (the unit ideal by 1)."""
    polys = list(polys)
    _check_arity(I, polys)
    J = I
    for f in polys:
        if is_trivial(J, budget):
            break
        J = saturate(J, f, budget)
    return _presented_by_basis(J.n, J.groebner_basis(GREVLEX, budget))


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
    """I : J^infinity for J = (g_0, ..., g_k), the nonzero generators, by
    one saturation in one extra variable t: with h = sum_j t^j g_j,

        I : J^infinity = (I[t] : h^infinity) intersected with Q[x].

    Proof: take a primary decomposition of I; h lies in p[t] exactly when
    every g_j lies in p, so saturating I[t] by h drops the same primary
    components as saturating I by J (Cox, Little and O'Shea, Ideals,
    Varieties, and Algorithms, sec. 4.4).  A cached grevlex basis of I,
    with t appended, is the reduced grevlex basis of I[t] (t is compared
    last), so I[t] is presented by it."""
    generators = list(generators)
    _check_arity(I, generators)
    gens = [g for g in generators if not g.is_zero()]
    if len(gens) < 2:
        return saturate(I, gens[0], budget) if gens else I
    h = MultiPoly._raw(I.n + 1, {(j,) + e: c for j, g in enumerate(gens)
                                 for e, c in _polynomial(g).terms.items()})
    basis = I._basis_cache.get(I._cache_key(GREVLEX))
    if basis is None:
        lifted = Ideal(I.n + 1, [_append_variable(g) for g in I.generators])
    else:
        lifted = _presented_by_basis(I.n + 1,
                                     [_append_variable(g) for g in basis])
    return _eliminate_first(saturate(lifted, h, budget), budget)


def is_trivial(I: Ideal, budget: Budget = BUDGET_PROFILES["default"]) -> bool:
    """True iff 1 lies in the ideal (reduced basis == {1})."""
    if not I.generators:
        return False
    basis = I.groebner_basis(GREVLEX, budget)
    return len(basis) == 1 and basis[0].is_constant() and \
        not basis[0].is_zero()
