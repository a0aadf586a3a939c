"""Command-line front end: torus scans, ideal operations, heights,
cross-ratio checks, network analysis, and golden-value reproduction runs.

Exit codes: 0 complete, 1 infeasible or violation verdict, 2 parse error,
3 budget-undetermined results present.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .exactnum import RationalMatrix, UPoly, char_poly, quartic_galois_class, \
    rational
from .groebner import BUDGET_PROFILES, GREVLEX, Ideal, ResourceExhausted, \
    TermOrder, eliminate, is_trivial, normal_form, saturate_many
from .heights import height_algebraic, height_point
from .multipoly import PolySyntaxError, UnknownVariable, data_text, parse, \
    read_poly_file
from . import crossratio
from . import flatnet
from . import toruscan
from .crossratio import crossratio_m1, crossratio_m2, crossratio_m3

REPORT_SCHEMA = 1


def _read_polys(path):
    """Read a polynomial file; a missing path raises FileNotFoundError
    naming it instead of being parsed as polynomial text."""
    with open(path) as fh:
        return read_poly_file(fh.read())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Report:
    def __init__(self, tool: str):
        self.doc = {
            "schema": REPORT_SCHEMA,
            "tool": tool,
            "version": __version__,
            "inputs": {},
            "results": {},
            "grades": {},
            "timings": {},
        }

    def set_input(self, name, digest):
        self.doc["inputs"][name] = digest

    def set(self, key, value, grade=None):
        self.doc["results"][key] = value
        if grade is not None:
            self.doc["grades"][key] = grade

    def timing(self, key, seconds):
        self.doc["timings"][key] = round(seconds, 3)

    def emit(self, path):
        with open(path, "w") as fh:
            json.dump(self.doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _budget(args):
    return BUDGET_PROFILES[args.budget]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_height(args, report: Report) -> int:
    if args.minpoly:
        coeff_poly = parse(args.minpoly, ["x"])
        deg = coeff_poly.degree_in(0) or 0
        coeffs = [coeff_poly.coefficient_of((k,)) for k in range(deg + 1)]
        hv = height_algebraic(UPoly(coeffs))
        report.set("height", {"value": hv.value, "exactness": hv.exactness,
                              "log_argument": hv.log_argument,
                              "error": hv.error},
                   grade="exact" if hv.exactness == "exact-log" else "numeric")
        print(f"{hv.exactness}: {hv!r}")
        return 0
    coords = [rational(tok) for tok in args.coords.split(",")]
    mode = "projective" if args.projective else "affine"
    hv = height_point(coords, mode)
    report.set("height", {"value": hv.value, "exactness": hv.exactness,
                          "log_argument": hv.log_argument}, grade="exact")
    print(f"exact-log: log({hv.log_argument}) = {hv.value:.12g}")
    return 0


def cmd_ideal(args, report: Report) -> int:
    variables, polys = _read_polys(args.polys)
    n = len(variables)
    I = Ideal(n, polys)
    budget = _budget(args)
    order = TermOrder(args.order) if args.order != "grevlex" else GREVLEX
    try:
        if args.op == "gb":
            basis = I.groebner_basis(order, budget)
            report.set("basis", [g.to_string(variables) for g in basis],
                       grade="exact")
            for g in basis:
                print(g.to_string(variables))
        elif args.op == "member":
            p = parse(args.poly, variables)
            nf = normal_form(p, I, order, budget)
            report.set("normal_form", nf.to_string(variables), grade="exact")
            report.set("member", nf.is_zero(), grade="exact")
            print(nf.to_string(variables))
        elif args.op == "eliminate":
            keep = [variables.index(v) for v in args.keep.split(",")]
            J = eliminate(I, keep, budget)
            report.set("generators", [g.to_string(variables)
                                      for g in J.generators], grade="exact")
            for g in J.generators:
                print(g.to_string(variables))
        elif args.op == "saturate":
            f = parse(args.poly, variables)
            J = saturate_many(I, [f], budget)
            report.set("generators", [g.to_string(variables)
                                      for g in J.generators], grade="exact")
            for g in J.generators:
                print(g.to_string(variables))
        elif args.op == "trivial":
            t = is_trivial(I, budget)
            report.set("trivial", t, grade="exact")
            print("unit ideal" if t else "proper ideal")
    except ResourceExhausted as exc:
        report.set("undetermined", str(exc), grade="undetermined")
        print(f"undetermined: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_torus_scan(args, report: Report) -> int:
    variables, polys = _read_polys(args.polys)
    peripheral = _read_polys(args.saturate)[1] if args.saturate else []
    conditions = _read_polys(args.conditions)[1] if args.conditions else []
    starts = None if args.subspace == "identity" else \
        _read_subspaces(args.subspace, len(variables))
    options = toruscan.ScanOptions(
        tier_mode=args.tier_mode,
        budget=_budget(args),
        threads=args.threads,
        antipodal=not args.signed_vectors,
    )
    report.set_input("polys", toruscan._digest_polys(polys))
    rep = toruscan.scan(polys, starts, options, peripheral, conditions)
    for k, v in rep.timings.items():
        report.timing(k, v)
    doc = rep.to_json_dict()
    for k, v in doc.items():
        report.set(k, v)
    report.set("survivor_count", len(rep.survivors), grade="exact")
    for cand in rep.survivors:
        lines = toruscan.coset_lines_for_report(cand)
        print(f"survivor {list(cand.subgroup.basis)}"
              + (f" cosets {lines}" if lines else ""))
    if rep.tier_counts:
        print("tier counts:", " -> ".join(str(t) for t in rep.tier_counts))
    if rep.undetermined:
        print(f"{len(rep.undetermined)} candidates undetermined (budget)",
              file=sys.stderr)
        return 3
    return 0


def _read_subspaces(path, n):
    """Blocks of integer rows separated by blank lines."""
    blocks = []
    cur = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#")[0].strip()
            if not line:
                if cur:
                    blocks.append(cur)
                    cur = []
                continue
            cur.append([int(tok) for tok in line.split()])
    if cur:
        blocks.append(cur)
    if not blocks:
        raise ValueError(f"no subspace rows in {path}")
    return [toruscan.ExponentSubgroup(rows, n) for rows in blocks]


def cmd_cross_ratio(args, report: Report) -> int:
    cfg = _read_config(args.config)
    if args.check == "torsion":
        verdict, detail = crossratio.torsion_config_check(
            cfg, None, args.torsion_order)
        report.set("verdict", verdict, grade="exact")
        report.set("detail", detail)
        print(verdict if detail is None else f"{verdict}({detail})")
        return 0 if verdict == "satisfies" else 1
    if args.check == "residues":
        rs = crossratio.residues(cfg)
        report.set("residues", [str(r) for r in rs], grade="exact")
        print(" ".join(str(r) for r in rs))
        return 0
    if args.check == "cre":
        if not args.exponents:
            raise ValueError("--check cre needs --exponents a,b,c")
        exps = tuple(int(t) for t in args.exponents.split(","))
        if len(cfg.pair_partition) != 3 or \
                any(len(p) != 2 for p in cfg.pair_partition):
            raise ValueError("cre check needs three pole pairs")
        pairs = [(cfg.poles[i], cfg.poles[j])
                 for i, j in cfg.pair_partition]
        value, (grade, order) = crossratio.check_cre(pairs, exps)
        report.set("value", str(value),
                   grade="exact" if grade == "exact" else
                   ("numeric" if grade == "numeric" else "exact"))
        report.set("root_of_unity",
                   {"grade": grade, "order": order})
        print(f"value {value}; root of unity: "
              f"{grade if grade else 'no'}"
              + (f" (order {order})" if order else ""))
        return 0 if grade is not None else 1
    if args.check == "zero-order":
        ok = crossratio.zero_order_consistent(cfg)
        report.set("zero_order_consistent", ok, grade="exact")
        print("zero orders consistent" if ok else "zero orders FAIL")
        return 0 if ok else 1
    raise ValueError(f"unknown check {args.check!r}")


def _read_config(path) -> crossratio.StableFormConfig:
    zeros = []
    poles = []
    parts = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#")[0].strip()
            if not line:
                continue
            toks = line.split()
            if toks[0] == "zero":
                zeros.append((toks[1], int(toks[2])))
            elif toks[0] == "pole":
                poles.append(toks[1])
            elif toks[0] == "part":
                parts.append([int(t) for t in toks[1:]])
            else:
                raise ValueError(f"unknown directive {toks[0]!r}")
    return crossratio.StableFormConfig(zeros, poles, parts)


def cmd_network(args, report: Report) -> int:
    with open(args.graph) as fh:
        text = fh.read()
    g, currents, sources, moduli = flatnet.parse_network(text)
    report.set_input("graph", _digest(text))
    if args.check_kirchhoff:
        div = {v: sources.get(v, 0) for v in g.vertices}
        ca = flatnet.CurrentAssignment(div, currents)
        ok = flatnet.kirchhoff_check(g, ca)
        report.set("kirchhoff", ok, grade="exact")
        print("kirchhoff holds" if ok else "kirchhoff fails")
        return 0 if ok else 1
    if args.solve_moduli:
        div = {v: sources.get(v, 0) for v in g.vertices}
        ca = flatnet.CurrentAssignment(div, currents)
        out = flatnet.solve_moduli(g, [ca])
        report.set("outcome", out.kind, grade="exact")
        if out.kind == "unique-per-block":
            blocks = [(blk, [str(x) for x in tup])
                      for blk, tup in out.moduli.block_canonical]
            report.set("moduli", blocks)
            print("unique-per-block:", blocks)
            return 0
        if out.kind == "underdetermined":
            report.set("degrees_of_freedom", out.degrees_of_freedom)
            print(f"underdetermined ({out.degrees_of_freedom} dof)")
            return 0
        report.set("witness", out.witness_circuit)
        print("infeasible; witness circuit:", out.witness_circuit)
        return 1
    if args.trace_matrix:
        tm = flatnet.trace_matrix(g, moduli)
        rows = [[str(x) for x in row] for row in tm.matrix.entries]
        report.set("edge_order", tm.edge_ids, grade="exact")
        report.set("trace_matrix", rows, grade="exact")
        print(json.dumps(rows))
        return 0
    if args.audit is not None:
        div = {v: sources.get(v, 0) for v in g.vertices}
        ca = flatnet.CurrentAssignment(div, currents)
        out = flatnet.solve_moduli(g, [ca])
        if out.kind != "unique-per-block":
            print(out.kind)
            return 1
        all_ok = True
        margins = []
        for blk, tup in out.moduli.block_canonical:
            ok, margin, bound = flatnet.moduli_height_audit(tup, args.audit)
            remark = f"remark-level bound not asserted (block {blk})"
            margins.append({"block": blk, "ok": ok, "margin": margin,
                            "bound_integer": bound, "note": remark})
            all_ok = all_ok and ok
        report.set("audit", margins, grade="exact")
        print("audit pass" if all_ok else "audit FAIL")
        return 0 if all_ok else 1
    if args.enumerate:
        N, v1, v2 = args.enumerate
        flows = flatnet.enumerate_currents(g, int(N), (v1, v2))
        listing = [sorted(f.currents.items()) for f in flows]
        report.set("count", len(flows), grade="exact")
        report.set("flows", listing)
        print(len(flows))
        return 0
    print("nothing to do", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# reproduction targets
# ---------------------------------------------------------------------------

def _reproduce_lem_so(report: Report):
    variables, polys = read_poly_file(data_text("coset_cubic.poly"))
    rep = toruscan.scan(polys)
    got = set()
    for cand in rep.survivors:
        for line in toruscan.coset_lines_for_report(cand):
            got.add(line)
    expected = {"(t, 1, -1)", "(t, -1, 1)", "(1, t, -1)", "(-1, t, 1)",
                "(1, -1, t)", "(-1, 1, t)"}
    report.set("lines", sorted(got), grade="exact")
    return got == expected, {"expected": sorted(expected), "got": sorted(got)}


def _reproduce_lem_so_odd(report: Report, budget):
    variables, polys = read_poly_file(data_text("surface_deg14.poly"))
    h = polys[0]
    checks = {
        "terms": len(h.terms) == 199,
        "degree": h.total_degree() == 14,
        "vanishes_at_unit": h.evaluate([Fraction(1)] * 3) == 0,
    }
    rep = toruscan.scan(polys, options=toruscan.ScanOptions(
        tier_mode=True, budget=budget))
    report.set("tier_counts", rep.tier_counts, grade="exact")
    survivors = {}
    for cand in rep.survivors:
        survivors[cand.subgroup.vector()] = \
            toruscan.coset_lines_for_report(cand)
    expected = {
        (1, 0, 0): ["(t, 1, 1)"],
        (0, 1, 0): ["(1, t, 1)"],
        (0, 0, 1): ["(1, 1, t)"],
    }
    ok = rep.tier_counts == [8796, 51, 3] and survivors == expected and \
        all(checks.values())
    report.set("survivors", {str(k): v for k, v in sorted(survivors.items())},
               grade="exact")
    return ok, {"tier_counts": rep.tier_counts,
                "survivors": {str(k): v for k, v in survivors.items()},
                "transcription_checks": checks}


def _reproduce_m010(report: Report, prune: bool):
    polys = crossratio.m010_system()
    M = [toruscan.ExponentSubgroup(rows, 9)
         for rows in (crossratio_m1(), crossratio_m2(), crossratio_m3())]
    subs = toruscan.enumerate_subspaces_multi(polys, M)
    by_rank = {}
    for s in subs:
        by_rank[s.rank] = by_rank.get(s.rank, 0) + 1
    report.set("total", len(subs), grade="exact")
    report.set("rank_profile", {str(k): v for k, v in sorted(by_rank.items())},
               grade="exact")
    ok = len(subs) == 554 and by_rank == {1: 454, 2: 97, 3: 3}
    detail = {"total": len(subs), "profile": by_rank}
    if prune:
        surv = [s for s in subs if not toruscan.has_singleton_part(polys, s)]
        report.set("after_pruning", len(surv), grade="exact")
        ok = ok and len(surv) == 78
        detail["after_pruning"] = len(surv)
    return ok, detail


def _reproduce_matrices_m123(report: Report):
    trees = crossratio.standard_degeneration_trees()
    expected = [crossratio_m1(), crossratio_m2(), crossratio_m3()]
    got = [crossratio.degeneration_matrix(t) for t in trees]
    ok = all(tuple(map(tuple, g)) == tuple(map(tuple, e))
             for g, e in zip(got, expected))
    report.set("matrices", got, grade="exact")
    return ok, {"got": got}


def _reproduce_charpoly_d4(report: Report):
    A = RationalMatrix([[1, 0, -1, 0], [0, 1, 0, 2],
                        [0, 0, 1, 0], [0, 0, 0, 1]])
    B = RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0],
                        [-9, 3, 1, 0], [-2, 6, 0, 1]])
    cp = char_poly(A * B)
    target = UPoly([1, -25, 144, -25, 1])
    galois = quartic_galois_class(cp) if cp.degree == 4 else None
    report.set("char_poly", repr(cp), grade="exact")
    report.set("galois_class", galois, grade="exact")
    ok = cp == target and galois == "D4"
    return ok, {"char_poly": repr(cp), "galois": galois}


def _reproduce_moduli_audit(report: Report):
    failures = []
    checked = 0
    for g in flatnet.small_graph_catalog(max_edges=4):
        for v1 in g.vertices:
            for v2 in g.vertices:
                if v1 >= v2:
                    continue
                for N in (1, 2, 3):
                    for ca in flatnet.enumerate_currents(g, N, (v1, v2)):
                        out = flatnet.solve_moduli(g, [ca])
                        if out.kind != "unique-per-block":
                            continue
                        for blk, tup in out.moduli.block_canonical:
                            checked += 1
                            ok, _, _ = flatnet.moduli_height_audit(tup, N)
                            if not ok:
                                failures.append((repr(g), N, tup))
    report.set("unique_blocks_checked", checked, grade="exact")
    report.set("failures", failures, grade="exact")
    return not failures, {"checked": checked, "failures": failures}


REPRODUCE_TARGETS = {
    "lem-so": lambda args, rep: _reproduce_lem_so(rep),
    "lem-so-odd": lambda args, rep: _reproduce_lem_so_odd(rep, _budget(args)),
    "m010-subspaces": lambda args, rep: _reproduce_m010(rep, prune=False),
    "m010-prune": lambda args, rep: _reproduce_m010(rep, prune=True),
    "matrices-m123": lambda args, rep: _reproduce_matrices_m123(rep),
    "charpoly-d4": lambda args, rep: _reproduce_charpoly_d4(rep),
    "moduli-audit": lambda args, rep: _reproduce_moduli_audit(rep),
}


def cmd_reproduce(args, report: Report) -> int:
    fn = REPRODUCE_TARGETS[args.target]
    t0 = time.perf_counter()
    ok, detail = fn(args, report)
    report.timing(args.target, time.perf_counter() - t0)
    report.set("target", args.target)
    report.set("pass", ok, grade="exact")
    if ok:
        print(f"reproduce {args.target}: pass")
        return 0
    print(f"reproduce {args.target}: MISMATCH", file=sys.stderr)
    print(json.dumps(detail, indent=2, sort_keys=True, default=str),
          file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="torion",
        description="Exact torus-translate scans, heights, cross-ratio "
                    "conditions, and cylinder-moduli networks.")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--budget", choices=sorted(BUDGET_PROFILES),
                    default="default")
    ap.add_argument("--report", metavar="PATH", default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("height", help="Weil heights of rational points")
    p.add_argument("--affine", dest="coords")
    p.add_argument("--projective", action="store_true")
    p.add_argument("--minpoly", default=None)
    p.set_defaults(fn=cmd_height)

    p = sub.add_parser("ideal", help="Groebner-basis operations")
    p.add_argument("--op", choices=["gb", "member", "eliminate", "saturate",
                                    "trivial"], required=True)
    p.add_argument("--polys", required=True)
    p.add_argument("--poly", default=None)
    p.add_argument("--keep", default=None)
    p.add_argument("--order", choices=["grevlex", "lex"], default="grevlex")
    p.set_defaults(fn=cmd_ideal)

    p = sub.add_parser("torus-scan", help="coset scans in G_m^n")
    p.add_argument("--polys", required=True)
    p.add_argument("--subspace", default="identity")
    p.add_argument("--tier-mode", action="store_true")
    p.add_argument("--signed-vectors", action="store_true",
                   help="count E and -E separately in tier 1")
    p.add_argument("--saturate", default=None,
                   help="peripheral polynomial file")
    p.add_argument("--conditions", default=None,
                   help="extra condition polynomial file")
    p.set_defaults(fn=cmd_torus_scan)

    p = sub.add_parser("cross-ratio", help="stable-form configuration checks")
    p.add_argument("--config", required=True)
    p.add_argument("--check", choices=["torsion", "cre", "zero-order",
                                       "residues"],
                   default="residues")
    p.add_argument("--torsion-order", type=int, default=1)
    p.add_argument("--exponents", default=None,
                   help="a,b,c for the cre check")
    p.set_defaults(fn=cmd_cross_ratio)

    p = sub.add_parser("network", help="electrical-network computations")
    p.add_argument("--graph", required=True)
    p.add_argument("--check-kirchhoff", action="store_true")
    p.add_argument("--solve-moduli", action="store_true")
    p.add_argument("--trace-matrix", action="store_true")
    p.add_argument("--audit", type=int, default=None)
    p.add_argument("--enumerate", nargs=3, metavar=("N", "V1", "V2"),
                   default=None)
    p.set_defaults(fn=cmd_network)

    p = sub.add_parser("reproduce", help="golden-value reproduction runs")
    p.add_argument("target", choices=sorted(REPRODUCE_TARGETS))
    p.set_defaults(fn=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    report = Report(args.command)
    try:
        code = args.fn(args, report)
    except (PolySyntaxError, UnknownVariable, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report:
        report.emit(args.report)
    return code


if __name__ == "__main__":
    sys.exit(main())
