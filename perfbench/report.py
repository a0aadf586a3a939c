#!/usr/bin/env python3
"""Prints every end-to-end and per-layer metric of all four workloads.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs run.py once per workload with tracing off and once with tracing on,
one run at a time, and prints each metric with its value and unit.  Takes
about five minutes at the default 25 seconds.  Exits 1 if any run failed a
check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from core import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n"
                      f"{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"\n{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for line in lines[:-1]:
                print(line)
            for name, metric in result["metrics"].items():
                print(f"  {name:<58} {metric['value']:>16.6g} "
                      f"{metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
