"""Stretch-budget targets: not part of the default suite (set
TORION_STRETCH=1 to run).  Budget exhaustion shows up as undetermined
candidates, never as silently dropped ones."""

import os

import pytest

stretch = pytest.mark.skipif(os.environ.get("TORION_STRETCH") != "1",
                             reason="stretch budget run (TORION_STRETCH=1)")


@stretch
def test_m010_peripheral_saturation_to_17():
    from torion.crossratio import (crossratio_m1, crossratio_m2,
                                   crossratio_m3,
                                   m010_peripheral_polynomials, m010_system)
    from torion.groebner import BUDGET_PROFILES
    from torion import toruscan

    polys = m010_system()
    starts = [toruscan.ExponentSubgroup(m, 9) for m in
              (crossratio_m1(), crossratio_m2(), crossratio_m3())]
    peripheral = m010_peripheral_polynomials()
    options = toruscan.ScanOptions(budget=BUDGET_PROFILES["extended"])
    rep = toruscan.scan(polys, starts, options, peripheral=peripheral)
    # all 554 candidates accounted for: pruned + trivial + survivors +
    # undetermined
    assert len(rep.candidates) == 554
    survivors = rep.survivors
    assert all(c.subgroup.rank == 1 for c in survivors)
    assert len(survivors) + len(rep.undetermined) >= 17
    assert len(survivors) <= 17
    if not rep.undetermined:
        assert len(survivors) == 17


@stretch
def test_m010_opposite_residue_stage():
    from torion.crossratio import (crossratio_m1, crossratio_m2,
                                   crossratio_m3,
                                   m010_opposite_residue_conditions,
                                   m010_peripheral_polynomials, m010_system)
    from torion.groebner import BUDGET_PROFILES
    from torion import toruscan

    polys = m010_system()
    starts = [toruscan.ExponentSubgroup(m, 9) for m in
              (crossratio_m1(), crossratio_m2(), crossratio_m3())]
    peripheral = m010_peripheral_polynomials()
    conditions = m010_opposite_residue_conditions()
    options = toruscan.ScanOptions(budget=BUDGET_PROFILES["stretch"])
    rep = toruscan.scan(polys, starts, options, peripheral=peripheral,
                        conditions=conditions)
    # at most one candidate may remain undetermined-or-surviving
    assert len(rep.survivors) + len(rep.undetermined) <= 1


@stretch
def test_projection_elimination_453_terms():
    from torion.groebner import BUDGET_PROFILES, Ideal, eliminate
    from torion.multipoly import parse

    V = ["c1", "c2", "x1", "y1", "x2", "y2", "t"]
    f1 = parse("x1*x2 + y1*x2 - x2^2 + x1*y2 + y1*y2 - y2^2 + 2", V)
    f2 = parse("x1^2 + y1^2 - x2^2 - y2^2", V)
    f = parse("2*c1*(x2 - y2) + 2*c2*(x1 - y1) + (x1 - y1)*(x2 - y2)", V)
    rel = parse("(x1 + 1)*t - (y1 + 1)", V)
    I = Ideal(7, [f1, f2, f, rel])
    J = eliminate(I, [0, 1, 4, 6], BUDGET_PROFILES["stretch"],
                  method="block")
    assert len(J.generators) == 1
    g = J.generators[0]
    assert len(g.terms) == 453
    assert g.total_degree() == 12
    assert g.degree_in(6) == 6
