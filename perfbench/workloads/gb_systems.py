"""gb-systems: Buchberger on classic benchmark systems, built in a few lines.

katsura-5 and cyclic-5 in grevlex, katsura-4 in lex, katsura-4 block
elimination keeping u3 and u4, cyclic-5 saturated by x0 + x1, and the
criterion-5 stability membership.  Grevlex reduction and lex or block
elimination are two uses of one kernel, so an order-key cache or a
pair-criterion change shows on each.  Outputs are compared with the
reference reduced bases in reference/gb_bases.json (GOLDEN).

The seed permutes the order in which the six steps run.  It does not
permute generators: a different generator order changes Buchberger's pair
order, and with it the work done, by up to a tenth on these systems.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from torion import crossratio
from torion.exactnum import RationalMatrix
from torion.groebner import GREVLEX, Ideal, ResourceExhausted, TermOrder, \
    eliminate, normal_form, saturate
from torion.multipoly import MultiPoly, parse

from core import GB_STATS, GB_SYSTEMS, NULL, basis_stats

# The reference reduced bases, checked against sympy by
# verify_references.py.
GOLDEN = {name: [parse(p, entry["vars"]) for p in entry["polys"]]
          for name, entry in json.loads(
              (Path(__file__).resolve().parent.parent / "reference"
               / "gb_bases.json").read_text()).items()}

ORDERS = {"grevlex": GREVLEX, "lex": TermOrder("lex")}

LAYERS = [
    *[f"groebner.groebner_basis.{system}.{stat}"
      for system in GB_SYSTEMS for stat in GB_STATS],
    "groebner.eliminate.s", "groebner.eliminate.basis_size",
    "groebner.eliminate.basis_terms", "groebner.eliminate.max_coeff_bits",
    "groebner.saturate.s", "groebner.saturate.calls",
    "groebner.normal_form.s", "groebner.normal_form.calls",
]


def katsura(n):
    """Katsura-n in u0..un: u0 + 2(u1 + ... + un) = 1 and, for m < n,
    sum over l in -n..n of u_|l| u_|m-l| = u_m (u_k = 0 for k > n)."""
    def u(i):
        i = abs(i)
        return MultiPoly.variable(n + 1, i) if i <= n else \
            MultiPoly.zero(n + 1)
    first = u(0) - MultiPoly.constant(n + 1, 1)
    for i in range(1, n + 1):
        first = first + u(i) * 2
    out = [first]
    for m in range(n):
        s = MultiPoly.zero(n + 1)
        for l in range(-n, n + 1):
            s = s + u(l) * u(m - l)
        out.append(s - u(m))
    return out


def cyclic(n):
    """Cyclic-n in x0..x(n-1): the elementary cyclic sums of degree 1..n-1
    and x0*...*x(n-1) - 1."""
    x = [MultiPoly.variable(n, i) for i in range(n)]
    out = []
    for d in range(1, n):
        s = MultiPoly.zero(n)
        for i in range(n):
            t = MultiPoly.constant(n, 1)
            for k in range(d):
                t = t * x[(i + k) % n]
            s = s + t
        out.append(s)
    prod = MultiPoly.constant(n, 1)
    for xi in x:
        prod = prod * xi
    out.append(prod - MultiPoly.constant(n, 1))
    return out


def build(seed, tr, out_dir):
    _, stability = crossratio.stability_surface_generators()
    steps = list(STEPS)
    if seed:
        random.Random(seed).shuffle(steps)
    return {
        "katsura5": katsura(5),
        "katsura4": katsura(4),
        "cyclic5": cyclic(5),
        "stability": stability,
        "stability_conditions": crossratio.odd4_stability_conditions(),
        "steps": steps,
    }


def _record(tr, prefix, polys):
    if tr.enabled:
        size, terms, bits = basis_stats(polys)
        tr.set(prefix + ".basis_size", size)
        tr.set(prefix + ".basis_terms", terms)
        tr.set(prefix + ".max_coeff_bits", bits)


def _basis(system, order):
    name = f"{system}-{order}"

    def step(inputs, check, tr):
        gens = inputs[system]
        with tr.span(f"groebner.groebner_basis.{name}"):
            basis = Ideal(gens[0].n, gens).groebner_basis(ORDERS[order])
        check(f"{name} reduced basis", basis == GOLDEN[name])
        _record(tr, f"groebner.groebner_basis.{name}", basis)
        return basis
    return step


def _eliminate(inputs, check, tr):
    gens = inputs["katsura4"]
    with tr.span("groebner.eliminate"):
        J = eliminate(Ideal(5, gens), [3, 4], method="block")
    check("katsura4 elimination",
          J.generators == GOLDEN["katsura4-eliminate-u3u4"])
    _record(tr, "groebner.eliminate", J.generators)
    return J.generators


def _saturate(inputs, check, tr):
    gens = inputs["cyclic5"]
    f = MultiPoly.variable(5, 0) + MultiPoly.variable(5, 1)
    with tr.span("groebner.saturate"):
        J = saturate(Ideal(5, gens), f)
    check("cyclic5 saturation",
          J.generators == GOLDEN["cyclic5-saturate-x0+x1"])
    return J.generators


def _stability(inputs, check, tr):
    """Criterion 5: P1 and P2 lie in (f1, f2), whose Jacobian has rank 2 at
    (1, -1, 1, -1)."""
    f1, f2 = inputs["stability"]
    I = Ideal(4, [f1, f2])
    remainders = []
    for P in inputs["stability_conditions"]:
        with tr.span("groebner.normal_form"):
            remainders.append(normal_form(P, I))
    check("stability membership", all(r.is_zero() for r in remainders))
    point = [Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)]
    jac = RationalMatrix([[f.derivative(i).evaluate(point) for i in range(4)]
                          for f in (f1, f2)])
    check("stability Jacobian rank", jac.rank() == 2)
    return remainders


STEPS = {
    "katsura5-grevlex": _basis("katsura5", "grevlex"),
    "cyclic5-grevlex": _basis("cyclic5", "grevlex"),
    "katsura4-lex": _basis("katsura4", "lex"),
    "katsura4-eliminate-u3u4": _eliminate,
    "cyclic5-saturate-x0+x1": _saturate,
    "stability-membership": _stability,
}


def _pass(inputs, check, tr):
    answer = {}
    for name in inputs["steps"]:
        try:
            answer[name] = STEPS[name](inputs, check, tr)
        except ResourceExhausted as exc:
            check.undetermined += 1
            check.fail(f"{name}: {exc}")
    return answer


def run(inputs, check):
    return _pass(inputs, check, NULL)


def traced_pass(inputs, check, tr):
    return _pass(inputs, check, tr)


def replay(inputs, check, tr, state):
    """Every step is a public call already; nothing to replay."""
