#!/usr/bin/env python3
"""Runs one benchmark workload for one seed, with tracing off or on.

    python3 perfbench/run.py --workload scan-deg14 --seed 0 --seconds 25 --trace 0

The program under test is the `src/torion` package of the checkout that
holds this file; nothing is installed.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0  a fresh set-up and a checked pass are repeated for about
           --seconds; the metrics are the end-to-end ones, medians over the
           passes, with times scaled to a reference speed (see SpeedProbe).
--trace 1  one untraced checked pass, then one traced pass and a replay of
           the steps hidden inside single public calls; the metrics are the
           per-layer ones, in raw seconds.

The environment, per-pass figures and spans are written to .perfbench_out/
in the checkout.  Exit status: 0 when every check passed, 1 when one failed,
2 when the checkout has no torion source to run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from core import END_TO_END, PER_LAYER, WORKLOADS, Checker, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# At least this many set-ups per run; setup_s is their median.
SETUP_REPS = 5


def environment():
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
    }


def _git_sha():
    """The checked-out commit, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    """Identifies the program under test where no git sha is available."""
    h = hashlib.sha256()
    for path in sorted((SRC / "torion").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


class SpeedProbe:
    """Measures how fast this machine runs Python while code is timed.

    On a shared host the same code runs up to 1.6 times slower while
    neighbours are busy, and the speed changes within seconds.  A probe is a
    fixed piece of Fraction arithmetic, the kind of work torion does.  It
    runs a few times just before and just after the timed code, and every
    INTERVAL seconds during it from a SIGALRM handler.  Times are scaled by
    REFERENCE over the probe's mean time, which gives the code's duration at
    one fixed reference speed.  Probes inside the timed code cost about 2%
    of it, on every commit alike.
    """

    INTERVAL = 0.03
    EDGE_SAMPLES = 3
    REFERENCE = 0.5e-3

    def __init__(self):
        self.samples = []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        self.samples.append(time.perf_counter() - t0)

    def timed(self, fn, *args):
        """Calls fn; returns (wall seconds, CPU seconds, speed scale)."""
        first = len(self.samples)
        for _ in range(self.EDGE_SAMPLES):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            fn(*args)
        finally:
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(self.EDGE_SAMPLES):
            self._sample()
        scale = self.REFERENCE / statistics.mean(self.samples[first:])
        return wall, cpu, scale


class Setups:
    """Repeated set-up: each one imports torion afresh and builds the
    workload's inputs.  The passes always use the latest module and inputs,
    so set-ups can be spread over the run."""

    def __init__(self, workload, seed, probe):
        self.qualified = f"workloads.{WORKLOADS[workload]}"
        self.seed = seed
        self.probe = probe
        self.raw = []
        self.seconds = []
        self.tracers = []
        self.mod = self.inputs = None

    def __call__(self):
        for name in [n for n in sys.modules
                     if n in ("torion", self.qualified)
                     or n.startswith("torion.")]:
            del sys.modules[name]
        self.mod = self.inputs = None
        gc.collect()
        tr = Tracer()
        wall, _, scale = self.probe.timed(self._build, tr)
        self.raw.append(wall)
        self.seconds.append(wall * scale)
        self.tracers.append(tr)

    def _build(self, tr):
        with tr.span("torion.import"):
            mod = importlib.import_module(self.qualified)
        self.inputs = mod.build(self.seed, tr, OUT)
        self.mod = mod

    def top_up(self):
        while len(self.seconds) < SETUP_REPS:
            self()


def checked(fn, check, *args):
    """Calls fn; an exception counts as a failed check."""
    try:
        return fn(*args)
    except Exception:
        check.fail(traceback.format_exc(limit=4))
        return None


def end_to_end(setups, check, seconds):
    """A set-up and a checked pass, repeated while the next pair is
    expected to end within `seconds` (at least once).  Times are at the
    probe's reference speed; the raw ones go to the result file."""
    raw = {"wall_s": [], "cpu_s": []}
    scaled = {"wall_s": [], "cpu_s": []}
    start = time.perf_counter()
    while True:
        setups()
        wall, cpu, scale = setups.probe.timed(
            checked, setups.mod.run, check, setups.inputs, check)
        for key, value in (("wall_s", wall), ("cpu_s", cpu)):
            raw[key].append(value)
            scaled[key].append(value * scale)
        expected = statistics.median(raw["wall_s"]) + \
            statistics.median(setups.raw)
        if time.perf_counter() - start + expected > seconds:
            break
    setups.top_up()
    values = {
        "wall_s": statistics.median(scaled["wall_s"]),
        "cpu_s": statistics.median(scaled["cpu_s"]),
        "setup_s": statistics.median(setups.seconds),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw["setup_s"] = setups.raw
    passes = {"scaled": {**scaled, "setup_s": setups.seconds}, "raw": raw}
    return values, passes, None


def per_layer(setups, check, seconds):
    """Untraced pass, traced pass, replay; --seconds does not apply."""
    setups.top_up()
    mod, inputs = setups.mod, setups.inputs
    w0 = time.perf_counter()
    checked(mod.run, check, inputs, check)
    untraced = time.perf_counter() - w0

    tr = Tracer()
    with tr.span("pass"):
        state = checked(mod.traced_pass, check, inputs, check, tr)
    if state is not None:
        with tr.span("replay"):
            checked(mod.replay, check, inputs, check, tr, state)

    names = {name for name, _ in PER_LAYER}
    values = dict.fromkeys(names, 0)
    measured = set()

    def put(name, value):
        if name in names:
            values[name] = value
            measured.add(name)

    for name, (secs, calls) in tr.totals().items():
        put(name + ".s", secs)
        put(name + ".calls", calls)
    for name, value in tr.values.items():
        put(name, value)
    setup_totals = [rep.totals() for rep in setups.tracers]
    for name in set().union(*setup_totals):
        put(name + ".s", statistics.median(
            totals.get(name, (0.0, 0))[0] for totals in setup_totals))
    for name in mod.LAYERS:
        check(f"layer metric {name} measured", name in measured)

    root = tr.root("pass")
    covered = sum(tr.duration(i) for i in tr.children(root))
    put("trace.coverage", covered / tr.duration(root))
    put("trace.overhead_s", tr.duration(root) - untraced)
    put("run.undetermined", check.undetermined)
    put("run.failed_frac", check.failed / check.attempted)
    passes = {"untraced_wall_s": untraced, "traced_wall_s": tr.duration(root)}
    return values, passes, tr


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "torion" / "__init__.py").is_file():
        print(f"error: no torion source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env_start = environment()

    setups = Setups(args.workload, args.seed, SpeedProbe())
    setups()
    imported = Path(sys.modules["torion"].__file__).resolve()
    if SRC.resolve() not in imported.parents:
        print(f"error: torion was imported from {imported}, not {SRC}",
              file=sys.stderr)
        return 2

    check = Checker()
    measure = per_layer if args.trace else end_to_end
    values, passes, tr = measure(setups, check, args.seconds)
    catalog = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in catalog}
    correct = check.failed == 0 and check.attempted > 0

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": {**env_start, "loadavg_end": list(os.getloadavg())},
        "passes": passes,
        "checks": {"attempted": check.attempted, "failed": check.failed,
                   "undetermined": check.undetermined,
                   "notes": check.notes},
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tr is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(tr.to_json()))

    for note in check.notes:
        print(f"# failed: {note}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"attempted={check.attempted} failed={check.failed} "
          f"failed_frac={check.failed / max(check.attempted, 1):.6g} "
          f"undetermined={check.undetermined}")
    if "raw" in passes:
        print("# raw medians, before scaling to the reference speed: "
              + " ".join(f"{key}={statistics.median(v):.6g}"
                         for key, v in passes["raw"].items()))
    print("# environment " + json.dumps(record["environment"]))
    print(json.dumps({"correct": correct, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
