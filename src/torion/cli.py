"""Command-line front end: torus scans, ideal operations, heights,
cross-ratio checks, network analysis, and golden-value reproduction runs.

Exit codes: 0 complete; 1 infeasible or violation verdict; 2 input error
(unreadable or malformed input, an unknown vertex or edge, a missing
argument); 3 budget-undetermined results present, or a budget ran out;
4 internal error (an unexpected exception; its traceback and an "internal
error: ..." line go to stderr).  With --report the report is written in
every case, with the error in it when the run failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from itertools import groupby

from . import __version__
from .exactnum import BudgetExceeded, rational
from .groebner import BUDGET_PROFILES, GREVLEX, Ideal, ResourceExhausted, \
    TermOrder, eliminate, is_trivial, normal_form, saturate_many
from .multipoly import UnknownVariable, parse, read_poly_file
from . import reproduce
from . import toruscan
# not used here: perfbench's workloads import it from torion.cli
from .multipoly import data_text

# crossratio, flatnet and heights are imported by the commands that use
# them, so `import torion.cli` and a run of `torion reproduce lem-so-odd`
# never compile them.

REPORT_SCHEMA = 1


def _read_polys(path):
    """Read a polynomial file; a missing path raises FileNotFoundError
    naming it, and a bad line an error naming the path and the line."""
    with open(path) as fh:
        text = fh.read()
    try:
        return read_poly_file(text)
    except ValueError as exc:
        exc.args = (f"{path}, {exc}",)
        raise


def _read_polys_over(path, variables, polys_path):
    """The polynomials of a file whose header must declare `variables`,
    those of `polys_path`, in the same order: a polynomial is stored by the
    positions of its variables in its own header, so another header would
    rename them silently."""
    declared, polys = _read_polys(path)
    if declared != variables:
        raise ValueError(f"{path}: variables {' '.join(declared)} differ "
                         f"from {' '.join(variables)} in {polys_path}")
    return polys


def _digest(path) -> str:
    with open(path) as fh:
        return hashlib.sha256(fh.read().encode()).hexdigest()[:16]


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
# input files: each line 'kind field...', or a row of fields; '#' starts a
# comment.  Every error names the file and the line.
# ---------------------------------------------------------------------------

def _integer(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer") from None


def _tagged(tag, fn, *args):
    """fn(*args); its ValueError is re-raised with the tag in front."""
    try:
        return fn(*args)
    except ValueError as exc:
        exc.args = (f"{tag}: {exc}",)
        raise


def _records(path):
    """(tag, fields) for each line of path: tag is '<path>, line N', fields
    the words before any '#'."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            yield f"{path}, line {lineno}", line.split("#")[0].split()


def _directives(path, table):
    """(tag, kind, values) for each non-blank line 'kind field...' of path.
    table[kind] lists one converter per field; a trailing ... applies the
    converter before it to any further fields."""
    for tag, fields in _records(path):
        if not fields:
            continue
        kind, *fields = fields
        if kind not in table:
            raise ValueError(f"{tag}: unknown directive {kind!r}")
        converters = table[kind]
        more = converters[-1] is ...
        need = len(converters) - more
        if len(fields) < need or len(fields) > need and not more:
            least = "at least " if more else ""
            raise ValueError(f"{tag}: {kind} takes {least}{need} field(s)")
        yield tag, kind, [_tagged(tag, converters[min(i, need - 1)], field)
                          for i, field in enumerate(fields)]


def _read_subspaces(path, n):
    """Blocks of integer rows of n entries separated by blank lines; each
    block spans a subspace of rank >= 1."""
    blocks = []
    for nonblank, lines in groupby(_records(path), lambda rec: bool(rec[1])):
        if nonblank:
            lines = list(lines)
            rows = []
            for tag, fields in lines:
                if len(fields) != n:
                    raise ValueError(f"{tag}: row {' '.join(fields)} has "
                                     f"{len(fields)} entries, expected {n}")
                rows.append([_tagged(tag, _integer, x) for x in fields])
            block = toruscan.ExponentSubgroup(rows, n)
            if not block.rank:
                raise ValueError(f"{lines[0][0]}: subspace block has rank 0 "
                                 f"(every row is zero)")
            blocks.append(block)
    if not blocks:
        raise ValueError(f"no subspace rows in {path}")
    return blocks


def _read_config(path):
    """'zero <point> <order>', 'pole <point>' and 'part <pole index>...'
    lines, a point being 'inf', 'oo' or a rational: returns the
    crossratio.StableFormConfig."""
    from .crossratio import ProjPoint, StableFormConfig
    point = ProjPoint.of
    found = {"zero": [], "pole": [], "part": []}
    for _, kind, values in _directives(path, {"zero": [point, _integer],
                                              "pole": [point],
                                              "part": [_integer, ...]}):
        found[kind].append(values)
    return _tagged(path, StableFormConfig, found["zero"],
                   [p for p, in found["pole"]], found["part"])


# the fields of each network directive that name a vertex or an edge
_NETWORK_NAMES = {"vertex": {}, "edge": {1: "vertex", 2: "vertex"},
                  "current": {0: "edge"}, "source": {0: "vertex"},
                  "modulus": {0: "edge"}}


def _read_network(path):
    """'vertex <id>', 'edge <id> <tail> <head>', 'current <edge> <int>',
    'source <vertex> <int>' and 'modulus <edge> <rational>' lines, in any
    order, one per kind and id, naming only declared vertices and edges:
    returns (DualGraph, currents, sources, moduli), the last three dicts."""
    from .flatnet import DualGraph
    records = list(_directives(path, {
        "vertex": [str], "edge": [str, str, str],
        "current": [str, _integer], "source": [str, _integer],
        "modulus": [str, rational]}))
    # the first line of each kind and id; a later one is a duplicate
    first = {(kind, fields[0]): tag for tag, kind, fields in reversed(records)}
    vertices, edges = [], []
    values = {"current": {}, "source": {}, "modulus": {}}
    for tag, kind, fields in records:
        if first[kind, fields[0]] != tag:
            raise ValueError(f"{tag}: duplicate {kind} {fields[0]}")
        for i, what in _NETWORK_NAMES[kind].items():
            if (what, fields[i]) not in first:
                raise ValueError(f"{tag}: unknown {what} {fields[i]}")
        if kind == "vertex":
            vertices.append(fields[0])
        elif kind == "edge":
            edges.append(tuple(fields))
        else:
            values[kind][fields[0]] = fields[1]
    return (DualGraph(vertices, edges), values["current"],
            values["source"], values["modulus"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_height(args, report: Report) -> int:
    from .heights import height_algebraic, height_point
    if args.minpoly is not None:
        hv = height_algebraic(parse(args.minpoly, ["x"]).as_upoly(0))
        report.set("height", {"value": hv.value, "exactness": hv.exactness,
                              "log_argument": hv.log_argument,
                              "error": hv.error},
                   grade="exact" if hv.exactness == "exact-log" else "numeric")
        print(f"{hv.exactness}: {hv!r}")
        return 0
    mode = "projective" if args.projective else "affine"
    hv = height_point(args.coords, mode)
    report.set("height", {"value": hv.value, "exactness": hv.exactness,
                          "log_argument": hv.log_argument}, grade="exact")
    print(f"exact-log: log({hv.log_argument}) = {hv.value:.12g}")
    return 0


def cmd_ideal(args, report: Report) -> int:
    variables, polys = _read_polys(args.polys)
    n = len(variables)
    I = Ideal(n, polys)
    budget = _budget(args)
    order = TermOrder("lex") if args.order == "lex" else GREVLEX
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
        keep = args.keep.split(",")
        for v in keep:
            if v not in variables:
                raise UnknownVariable(f"unknown variable {v!r}")
        J = eliminate(I, [variables.index(v) for v in keep], budget)
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
    return 0


def cmd_torus_scan(args, report: Report) -> int:
    variables, polys = _read_polys(args.polys)
    if not polys:
        raise ValueError(f"{args.polys}: no polynomials")
    peripheral, conditions = (
        _read_polys_over(path, variables, args.polys) if path else []
        for path in (args.saturate, args.conditions))
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
    report.set("representatives", rep.representatives)
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


def cmd_cross_ratio(args, report: Report) -> int:
    from . import crossratio
    cfg = _read_config(args.config)
    if args.check == "torsion":
        verdict, detail = crossratio.torsion_config_check(
            cfg, args.torsion_order)
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
        exps = tuple(_tagged("--exponents", _integer, t)
                     for t in args.exponents.split(","))
        value, (grade, order) = crossratio.check_config_cre(cfg, exps)
        report.set("value", str(value), grade="exact")
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


def cmd_network(args, report: Report) -> int:
    from . import flatnet
    g, currents, sources, moduli = _read_network(args.graph)
    report.set_input("graph", _digest(args.graph))
    if args.trace_matrix:
        tm = flatnet.trace_matrix(g, moduli)
        rows = [[str(x) for x in row] for row in tm.matrix.entries]
        report.set("edge_order", tm.edge_ids, grade="exact")
        report.set("trace_matrix", rows, grade="exact")
        print(json.dumps(rows))
        return 0
    if args.enumerate:
        N, v1, v2 = args.enumerate
        flows = flatnet.enumerate_currents(
            g, _tagged("--enumerate N", _integer, N), (v1, v2))
        listing = [sorted(f.currents.items()) for f in flows]
        report.set("count", len(flows), grade="exact")
        report.set("flows", listing)
        print(len(flows))
        return 0
    ca = flatnet.CurrentAssignment({v: sources.get(v, 0) for v in g.vertices},
                                   currents)
    if args.check_kirchhoff:
        ok = flatnet.kirchhoff_check(g, ca)
        report.set("kirchhoff", ok, grade="exact")
        print("kirchhoff holds" if ok else "kirchhoff fails")
        return 0 if ok else 1
    out = _tagged(args.graph, flatnet.solve_moduli, g, [ca])
    if args.solve_moduli:
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
    # --audit N
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


def cmd_reproduce(args, report: Report) -> int:
    target = reproduce.TARGETS[args.target]
    t0 = time.perf_counter()
    ok, results = target(_budget(args), args.threads)
    report.timing(args.target, time.perf_counter() - t0)
    for k, v in results.items():
        report.set(k, v, grade="undetermined" if k == "undetermined"
                   else "exact")
    report.set("target", args.target)
    report.set("pass", ok, grade="exact" if ok is not None
               else "undetermined")
    if ok is None:
        print(f"reproduce {args.target}: undetermined, "
              f"{results['undetermined']} candidates left by the budget",
              file=sys.stderr)
        return 3
    if ok:
        print(f"reproduce {args.target}: pass")
        return 0
    print(f"reproduce {args.target}: MISMATCH", file=sys.stderr)
    print(json.dumps({"golden": reproduce.GOLDEN[args.target],
                      "results": results},
                     indent=2, sort_keys=True, default=str), file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _positive_integer(text):
    """An integer of at least 1."""
    try:
        k = _integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if k < 1:
        raise argparse.ArgumentTypeError(f"{k} is below 1")
    return k


def _rational_list(text):
    """Comma-separated rationals; a bad number is a parse error."""
    try:
        return [rational(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# each optional ideal flag: the operations it applies to, and whether they
# need it
IDEAL_FLAGS = {"poly": (("member", "saturate"), True),
               "keep": (("eliminate",), True),
               "order": (("gb", "member"), False)}


def _check_args(ap, args):
    """Arguments argparse cannot check or convert; each failure exits 2
    with a message naming the missing, misplaced or malformed argument."""
    if args.command == "ideal":
        for flag, (ops, needed) in IDEAL_FLAGS.items():
            given = getattr(args, flag) is not None
            if given and args.op not in ops:
                ap.error(f"ideal --{flag} applies to --op {' or '.join(ops)}"
                         f", not {args.op}")
            if needed and not given and args.op in ops:
                ap.error(f"ideal --op {args.op} needs --{flag}")
    elif args.command == "height":
        if args.coords is None and args.minpoly is None:
            ap.error("height needs --affine COORDS or --minpoly POLY")
        if args.projective and args.minpoly is not None:
            ap.error("height --projective applies to --affine, not --minpoly")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="torion",
        description="Exact torus-translate scans, heights, cross-ratio "
                    "conditions, and cylinder-moduli networks.")
    ap.add_argument("--threads", type=_positive_integer, default=1)
    ap.add_argument("--budget", choices=sorted(BUDGET_PROFILES),
                    default="default")
    ap.add_argument("--report", metavar="PATH", default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("height", help="Weil heights of rational points")
    point = p.add_mutually_exclusive_group()
    point.add_argument("--affine", dest="coords", type=_rational_list)
    point.add_argument("--minpoly", default=None)
    p.add_argument("--projective", action="store_true")
    p.set_defaults(fn=cmd_height)

    p = sub.add_parser("ideal", help="Groebner-basis operations")
    p.add_argument("--op", choices=["gb", "member", "eliminate", "saturate",
                                    "trivial"], required=True)
    p.add_argument("--polys", required=True)
    p.add_argument("--poly", default=None)
    p.add_argument("--keep", default=None)
    p.add_argument("--order", choices=["grevlex", "lex"], default=None)
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
    op = p.add_mutually_exclusive_group(required=True)
    op.add_argument("--check-kirchhoff", action="store_true")
    op.add_argument("--solve-moduli", action="store_true")
    op.add_argument("--trace-matrix", action="store_true")
    op.add_argument("--audit", type=_positive_integer, metavar="N")
    op.add_argument("--enumerate", nargs=3, metavar=("N", "V1", "V2"))
    p.set_defaults(fn=cmd_network)

    p = sub.add_parser("reproduce", help="golden-value reproduction runs")
    p.add_argument("target", choices=sorted(reproduce.TARGETS))
    p.set_defaults(fn=cmd_reproduce)
    return ap


# exceptions that end a run with exit 2 (bad input; the library raises
# ValueError for every input error) and 3 (out of budget)
INPUT_ERRORS = (FileNotFoundError, ValueError)
BUDGET_ERRORS = (BudgetExceeded, ResourceExhausted)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    _check_args(ap, args)
    report = Report(args.command)
    try:
        code = args.fn(args, report)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        report.set("error", str(exc))
        code = 2
    except BUDGET_ERRORS as exc:
        print(f"undetermined: {exc}", file=sys.stderr)
        report.set("undetermined", str(exc), grade="undetermined")
        code = 3
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        report.set("error", f"internal error: {exc!r}")
        code = 4
    if args.report:
        report.emit(args.report)
    return code


def __getattr__(name):
    """crossratio_m1/2/3, which perfbench's enum-m010 workload reads from
    here, are crossratio's own; crossratio loads on first use."""
    if name in ("crossratio_m1", "crossratio_m2", "crossratio_m3"):
        from . import crossratio
        return getattr(crossratio, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
