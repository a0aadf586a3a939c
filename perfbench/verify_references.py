#!/usr/bin/env python3
"""Checks reference/gb_bases.json against sympy's Gröbner bases.

    python3 perfbench/verify_references.py     # about seven minutes

A one-off oracle for the gb-systems workload: each stored basis must equal
the monic reduced basis sympy computes for the same ideal and order.  The
elimination ideal is taken from sympy's lex basis and the saturation from
the extra-variable method with a lex elimination of the new variable; both
are then reduced in grevlex.  Exits 0 with a message when sympy is absent.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main():
    try:
        import sympy
    except ImportError:
        print("sympy is not installed; reference check skipped")
        return 0
    from workloads.gb_systems import cyclic, katsura

    refs = json.loads((HERE / "reference" / "gb_bases.json").read_text())

    def to_sympy(polys, names):
        syms = sympy.symbols(names)
        local = dict(zip(names, syms))
        return [sympy.sympify(p.to_string(names).replace("^", "**"),
                              locals=local) for p in polys], syms

    def stored(name):
        entry = refs[name]
        syms = sympy.symbols(entry["vars"])
        local = dict(zip(entry["vars"], syms))
        return [sympy.sympify(p.replace("^", "**"), locals=local)
                for p in entry["polys"]]

    def reduced(polys, syms, order):
        gb = sympy.groebner(polys, *syms, order=order)
        return {sympy.expand(g / sympy.Poly(g, *syms).LC(order=order))
                for g in gb.exprs}

    u5 = [f"u{i}" for i in range(6)]
    x5 = [f"x{i}" for i in range(5)]
    k5, s_u5 = to_sympy(katsura(5), u5)
    k4, s_u4 = to_sympy(katsura(4), u5[:5])
    c5, s_x5 = to_sympy(cyclic(5), x5)

    expected = {
        "katsura5-grevlex": reduced(k5, s_u5, "grevlex"),
        "cyclic5-grevlex": reduced(c5, s_x5, "grevlex"),
        "katsura4-lex": reduced(k4, s_u4, "lex"),
    }
    lex = sympy.groebner(k4, *s_u4, order="lex").exprs
    kept = [g for g in lex if g.free_symbols <= set(s_u4[3:])]
    expected["katsura4-eliminate-u3u4"] = reduced(kept, s_u4, "grevlex")
    y = sympy.Symbol("y")
    lifted = sympy.groebner(c5 + [1 - y * (s_x5[0] + s_x5[1])], y, *s_x5,
                            order="lex").exprs
    free = [g for g in lifted if y not in g.free_symbols]
    expected["cyclic5-saturate-x0+x1"] = reduced(free, s_x5, "grevlex")

    bad = 0
    for name, want in expected.items():
        got = {sympy.expand(p) for p in stored(name)}
        ok = got == want
        bad += not ok
        print(f"{name}: {'matches sympy' if ok else 'DIFFERS from sympy'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
