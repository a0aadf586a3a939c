"""scan-deg14: `torion reproduce lem-so-odd`, the degree-14 tier pipeline.

The only workload in which toruscan's tier filter and Gröbner
classification inside a scan both do real work.  The input is a single
hypersurface, so there is no generator order to permute and the seed does
not change it.
"""

from __future__ import annotations


from torion import cli, toruscan
from torion.groebner import BUDGET_PROFILES, GREVLEX, Ideal, TermOrder, \
    is_trivial, saturate
from torion.multipoly import MultiPoly, read_poly_file

from core import basis_stats, reproduce

GOLDEN = {
    "tier_counts": [8796, 51, 3],
    "survivors": {"(0, 0, 1)": ["(1, 1, t)"],
                  "(0, 1, 0)": ["(1, t, 1)"],
                  "(1, 0, 0)": ["(t, 1, 1)"]},
    "trivial": 48,
}

LAYERS = [
    "multipoly.read_poly_file.s",
    "toruscan.tier1_candidates.s", "toruscan.tier1_candidates.count",
    "toruscan.tier2_friend_filter.s", "toruscan.tier2_friend_filter.count",
    "toruscan.tier2_friend_filter.keep_ratio",
    "toruscan.coefficient_variety.s", "toruscan.coefficient_variety.calls",
    "toruscan.induced_parts.s",
    "groebner.saturate_many.s", "groebner.saturate_many.calls",
    "groebner.saturate.s", "groebner.saturate.calls",
    "groebner.is_trivial.s", "groebner.is_trivial.calls",
    "groebner.groebner_basis.deg14-survivors-lex.s",
    "groebner.groebner_basis.deg14-survivors-lex.basis_size",
    "groebner.groebner_basis.deg14-survivors-lex.basis_terms",
    "groebner.groebner_basis.deg14-survivors-lex.max_coeff_bits",
]

BUDGET = BUDGET_PROFILES["default"]


def build(seed, tr, out_dir):
    with tr.span("multipoly.read_poly_file"):
        _, polys = read_poly_file(cli.data_text("surface_deg14.poly"))
    return {"polys": polys, "report": out_dir / "cli-scan-deg14.json"}


def run(inputs, check):
    """One untraced pass: the CLI target, checked from its JSON report."""
    code, results = reproduce(cli, "lem-so-odd", inputs["report"])
    check("exit code", code == 0)
    check("tier counts", results.get("tier_counts") == GOLDEN["tier_counts"])
    check("survivor lines",
          results.get("survivors") == GOLDEN["survivors"])
    return {"tier_counts": results.get("tier_counts"),
            "survivors": results.get("survivors")}


def traced_pass(inputs, check, tr):
    """The scan driven step by step through the public tier functions."""
    polys = inputs["polys"]
    h = polys[0]
    with tr.span("toruscan.tier1_candidates"):
        t1 = toruscan.tier1_candidates(h)
    with tr.span("toruscan.tier2_friend_filter"):
        t2 = toruscan.tier2_friend_filter(h, t1)
    cands = []
    for E in t2:
        N = toruscan.ExponentSubgroup.from_vector(E)
        with tr.span("toruscan.coefficient_variety"):
            cands.append(toruscan.coefficient_variety(polys, N, BUDGET))
    survivors = {str(c.subgroup.vector()): toruscan.coset_lines_for_report(c)
                 for c in cands if c.status == "survivor"}
    statuses = [c.status for c in cands]
    check.undetermined += statuses.count("undetermined")
    tiers = [len(t1), len(t2), len(survivors)]
    check("traced tier counts", tiers == GOLDEN["tier_counts"])
    check("traced survivor lines", survivors == GOLDEN["survivors"])
    check("traced trivial count",
          statuses.count("trivial-ideal") == GOLDEN["trivial"])
    tr.set("toruscan.tier1_candidates.count", len(t1))
    tr.set("toruscan.tier2_friend_filter.count", len(t2))
    tr.set("toruscan.tier2_friend_filter.keep_ratio", len(t2) / len(t1))
    return cands


def replay(inputs, check, tr, cands):
    """Replays each coefficient_variety call as induced_parts -> Ideal ->
    saturate_many (its documented loop of saturate and is_trivial) ->
    is_trivial -> lex groebner_basis, and requires the same outcome."""
    polys = inputs["polys"]
    n = polys[0].n
    lex = TermOrder("lex")
    bases = []
    for cand in cands:
        with tr.span("toruscan.induced_parts"):
            parts = toruscan.induced_parts(polys, cand.subgroup)
        gens = [q for _, q in parts]
        J = Ideal(n, [g.strip_monomial_content() for g in gens])
        used = sorted(set().union(*[g.variables_used() for g in gens]))
        with tr.span("groebner.saturate_many"):
            for i in used:
                with tr.span("groebner.saturate"):
                    J = saturate(J, MultiPoly.variable(n, i), BUDGET)
                with tr.span("groebner.is_trivial"):
                    if is_trivial(J, BUDGET):
                        break
        with tr.span("groebner.is_trivial"):
            trivial = is_trivial(J, BUDGET)
        status = "trivial-ideal" if trivial else "survivor"
        check("replayed status", status == cand.status)
        if not trivial:
            with tr.span("groebner.groebner_basis.deg14-survivors-lex"):
                bases.extend(J.groebner_basis(lex, BUDGET))
            program = Ideal(n, cand.saturated_generators)
            check("replayed saturation",
                  J.groebner_basis(GREVLEX, BUDGET)
                  == program.groebner_basis(GREVLEX, BUDGET))
    size, terms, bits = basis_stats(bases)
    prefix = "groebner.groebner_basis.deg14-survivors-lex."
    tr.set(prefix + "basis_size", size)
    tr.set(prefix + "basis_terms", terms)
    tr.set(prefix + "max_coeff_bits", bits)
