"""enum-m010: `torion reproduce m010-prune`, the M_{0,10} subspace
enumeration and singleton pruning.

Exact linear algebra (intlat's Fraction RREF) dominates and no Gröbner
basis is computed, so a Gröbner change should leave this workload alone.
The CLI target fixes its own inputs; the seed permutes the generator order
and the start-subgroup order of the traced run, neither of which can change
the verified answer.
"""

from __future__ import annotations

import random

from torion import cli, crossratio, intlat, toruscan

from core import reproduce

GOLDEN = {
    "total": 554,
    "rank_profile": {"1": 454, "2": 97, "3": 3},
    "after_pruning": 78,
    "per_start": {"m1": 141, "m2": 202, "m3": 219},
    "hyperplanes": 351,
}

LAYERS = [
    "crossratio.m010_system.s",
    "toruscan.enumerate_subspaces.s",
    "toruscan.enumerate_subspaces.count_m1",
    "toruscan.enumerate_subspaces.count_m2",
    "toruscan.enumerate_subspaces.count_m3",
    "toruscan.enumerate_subspaces.intersections",
    "toruscan.enumerate_subspaces_multi.s",
    "toruscan.enumerate_subspaces_multi.count",
    "toruscan.enumerate_subspaces_multi.dedup_ratio",
    "toruscan.has_singleton_part.s", "toruscan.has_singleton_part.kept",
]


def build(seed, tr, out_dir):
    with tr.span("crossratio.m010_system"):
        polys = crossratio.m010_system()
    starts = [("m1", cli.crossratio_m1()), ("m2", cli.crossratio_m2()),
              ("m3", cli.crossratio_m3())]
    starts = [(name, toruscan.ExponentSubgroup(rows, 9))
              for name, rows in starts]
    if seed:
        rng = random.Random(seed)
        rng.shuffle(polys)
        rng.shuffle(starts)
    return {"polys": polys, "starts": starts,
            "report": out_dir / "cli-enum-m010.json"}


def run(inputs, check):
    """One untraced pass: the CLI target, checked from its JSON report."""
    code, results = reproduce(cli, "m010-prune", inputs["report"])
    check("exit code", code == 0)
    check("total", results.get("total") == GOLDEN["total"])
    check("rank profile",
          results.get("rank_profile") == GOLDEN["rank_profile"])
    check("after pruning",
          results.get("after_pruning") == GOLDEN["after_pruning"])
    return {key: results.get(key)
            for key in ("total", "rank_profile", "after_pruning")}


def _profile(subs):
    out = {}
    for s in subs:
        out[str(s.rank)] = out.get(str(s.rank), 0) + 1
    return dict(sorted(out.items()))


def traced_pass(inputs, check, tr):
    polys = inputs["polys"]
    with tr.span("toruscan.enumerate_subspaces_multi"):
        subs = toruscan.enumerate_subspaces_multi(
            polys, [M for _, M in inputs["starts"]])
    kept = 0
    for S in subs:
        with tr.span("toruscan.has_singleton_part"):
            kept += not toruscan.has_singleton_part(polys, S)
    check("traced total", len(subs) == GOLDEN["total"])
    check("traced rank profile", _profile(subs) == GOLDEN["rank_profile"])
    check("traced after pruning", kept == GOLDEN["after_pruning"])
    tr.set("toruscan.enumerate_subspaces_multi.count", len(subs))
    tr.set("toruscan.has_singleton_part.kept", kept)
    return subs


def _hyperplane_count(polys):
    """Distinct primitive support differences, up to sign: the hyperplanes
    every subspace of rank >= 2 in a closure is intersected with."""
    out = set()
    for p in polys:
        sup = p.support()
        for i, a in enumerate(sup):
            for b in sup[i + 1:]:
                w = intlat.primitive_vector(tuple(x - y for x, y in zip(a, b)))
                if w:
                    out.add(w)
    return len(out)


def replay(inputs, check, tr, subs):
    """Replays enumerate_subspaces_multi start by start and requires the
    union of the closures to be its result."""
    polys = inputs["polys"]
    union = {}
    per_start = {}
    wide = 0
    for name, M in inputs["starts"]:
        with tr.span("toruscan.enumerate_subspaces"):
            closure = toruscan.enumerate_subspaces(polys, M)
        per_start[name] = len(closure)
        wide += sum(1 for S in closure if S.rank >= 2)
        for S in closure:
            union[S.key()] = S
    hyperplanes = _hyperplane_count(polys)
    check("per-start closure sizes", per_start == GOLDEN["per_start"])
    check("hyperplane count", hyperplanes == GOLDEN["hyperplanes"])
    check("replayed union",
          sorted(union) == sorted(S.key() for S in subs))
    for name, count in per_start.items():
        tr.set(f"toruscan.enumerate_subspaces.count_{name}", count)
    tr.set("toruscan.enumerate_subspaces.intersections", wide * hyperplanes)
    tr.set("toruscan.enumerate_subspaces_multi.dedup_ratio",
           len(subs) / sum(per_start.values()))
