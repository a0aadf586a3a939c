#!/usr/bin/env python3
"""Checks the benchmark itself; takes about three minutes.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json names exactly the workloads and metrics of core.py, with
   the same units.
2. On every workload, a corrupted golden value makes a checked pass fail,
   so failed_frac rises above 0.
3. On every workload, seed 0 and seed 7 give identical verified answers,
   and the traced pass passes its checks under both seeds.
"""

from __future__ import annotations

import importlib
import json
import sys

from core import END_TO_END, PER_LAYER, WORKLOADS, Checker, NULL, Tracer
from run import OUT, ROOT, SRC

OTHER_SEED = 7


def corrupt(value):
    if isinstance(value, int):
        return value + 1
    if isinstance(value, dict):
        return {**value, "corrupted": 0}
    return list(value) + [None]


def catalog_problems():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in doc["workloads"]] != list(WORKLOADS):
        problems.append("workloads differ from core.WORKLOADS")
    for key, catalog in (("end_to_end", END_TO_END),
                         ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in doc[key]]
        if listed != catalog:
            problems.append(f"{key} differs from core.py")
    return problems


def main():
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    problems = catalog_problems()
    for name, module in WORKLOADS.items():
        mod = importlib.import_module(f"workloads.{module}")

        key = next(iter(mod.GOLDEN))
        golden = mod.GOLDEN
        mod.GOLDEN = {**golden, key: corrupt(golden[key])}
        check = Checker()
        try:
            mod.run(mod.build(0, NULL, OUT), check)
        finally:
            mod.GOLDEN = golden
        if check.failed == 0:
            problems.append(f"{name}: corrupted golden {key!r} went unnoticed")

        answers = []
        for seed in (0, OTHER_SEED):
            inputs = mod.build(seed, NULL, OUT)
            check = Checker()
            answers.append(mod.run(inputs, check))
            mod.traced_pass(inputs, check, Tracer())
            if check.failed:
                problems.append(f"{name}: seed {seed} failed {check.notes}")
        if answers[0] != answers[1]:
            problems.append(f"{name}: seeds 0 and {OTHER_SEED} disagree")
        print(f"{name}: checked", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
