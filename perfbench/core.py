"""Shared pieces of the benchmark: the metric catalog, checks, spans.

Every metric the benchmark can print is listed here once; BENCHMARK.json at
the repository root names the same metrics with the same units, and
`selfcheck.py` verifies that the two agree.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

WORKLOADS = {
    "scan-deg14": "scan_deg14",
    "enum-m010": "enum_m010",
    "network-audit": "network_audit",
    "gb-systems": "gb_systems",
}

# (name, unit); reported by every run with tracing off.
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

GB_SYSTEMS = ("katsura5-grevlex", "cyclic5-grevlex", "katsura4-lex")
GB_STATS = ("s", "basis_size", "basis_terms", "max_coeff_bits")

# (name, unit); reported by every traced run.  A layer that a workload's
# traced run does not call reads 0 there.
PER_LAYER = [
    ("run.failed_frac", "ratio"),
    ("run.undetermined", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
    ("torion.import.s", "s"),
    ("multipoly.read_poly_file.s", "s"),
    ("crossratio.m010_system.s", "s"),
    # toruscan, scan-deg14
    ("toruscan.tier1_candidates.s", "s"),
    ("toruscan.tier1_candidates.count", "count"),
    ("toruscan.tier2_friend_filter.s", "s"),
    ("toruscan.tier2_friend_filter.count", "count"),
    ("toruscan.tier2_friend_filter.keep_ratio", "ratio"),
    ("toruscan.coefficient_variety.s", "s"),
    ("toruscan.coefficient_variety.calls", "count"),
    ("toruscan.induced_parts.s", "s"),
    # groebner, scan-deg14 and gb-systems
    ("groebner.saturate_many.s", "s"),
    ("groebner.saturate_many.calls", "count"),
    ("groebner.is_trivial.s", "s"),
    ("groebner.is_trivial.calls", "count"),
    *[(f"groebner.groebner_basis.{system}.{stat}",
       "s" if stat == "s" else "count")
      for system in GB_SYSTEMS + ("deg14-survivors-lex",)
      for stat in GB_STATS],
    ("groebner.eliminate.s", "s"),
    ("groebner.eliminate.basis_size", "count"),
    ("groebner.eliminate.basis_terms", "count"),
    ("groebner.eliminate.max_coeff_bits", "count"),
    ("groebner.saturate.s", "s"),
    ("groebner.saturate.calls", "count"),
    ("groebner.normal_form.s", "s"),
    ("groebner.normal_form.calls", "count"),
    # toruscan and intlat, enum-m010
    ("toruscan.enumerate_subspaces.s", "s"),
    ("toruscan.enumerate_subspaces.count_m1", "count"),
    ("toruscan.enumerate_subspaces.count_m2", "count"),
    ("toruscan.enumerate_subspaces.count_m3", "count"),
    ("toruscan.enumerate_subspaces.intersections", "count-computed"),
    ("toruscan.enumerate_subspaces_multi.s", "s"),
    ("toruscan.enumerate_subspaces_multi.count", "count"),
    ("toruscan.enumerate_subspaces_multi.dedup_ratio", "ratio"),
    ("toruscan.has_singleton_part.s", "s"),
    ("toruscan.has_singleton_part.kept", "count"),
    # flatnet and exactnum, network-audit
    ("flatnet.enumerate_currents.s", "s"),
    ("flatnet.enumerate_currents.calls", "count"),
    ("flatnet.enumerate_currents.flows", "count"),
    ("flatnet.solve_moduli.s", "s"),
    ("flatnet.solve_moduli.calls", "count"),
    ("flatnet.solve_moduli.unique", "count"),
    ("flatnet.solve_moduli.underdetermined", "count"),
    ("flatnet.solve_moduli.infeasible", "count"),
    ("flatnet.block_decomposition.s", "s"),
    ("flatnet.fundamental_circuits.s", "s"),
    ("exactnum.RationalMatrix.rank.s", "s"),
    ("exactnum.RationalMatrix.rank.calls", "count"),
    ("exactnum.RationalMatrix.kernel.s", "s"),
    ("exactnum.RationalMatrix.kernel.calls", "count"),
    ("flatnet.moduli_height_audit.s", "s"),
    ("flatnet.moduli_height_audit.calls", "count"),
]


class Checker:
    """Counts checks of program outputs; `undetermined` counts verdicts the
    program left open because a resource budget ran out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.undetermined = 0
        self.notes = []

    def __call__(self, what: str, ok: bool) -> bool:
        if ok:
            self.attempted += 1
        else:
            self.fail(what)
        return ok

    def fail(self, what: str):
        """Counts one attempted check that failed."""
        self.attempted += 1
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def set(self, name, value):
        pass


NULL = NullTracer()


class Tracer:
    """Spans (name, start, end, parent index) and named values, kept in
    memory and written out when the run ends."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.values = {}
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def set(self, name, value):
        self.values[name] = value

    def root(self, name):
        """Index of the first top-level span called `name`."""
        return next(i for i, s in enumerate(self.spans)
                    if s[0] == name and s[3] is None)

    def duration(self, index):
        s = self.spans[index]
        return s[2] - s[1]

    def children(self, index):
        return [i for i, s in enumerate(self.spans) if s[3] == index]

    def totals(self):
        """{span name: (total seconds, calls)} over every span."""
        out = {}
        for name, t0, t1, _ in self.spans:
            tot, calls = out.get(name, (0.0, 0))
            out[name] = (tot + (t1 - t0), calls + 1)
        return out

    def to_json(self):
        base = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [{"name": n, "start": t0 - base, "end": t1 - base,
                       "parent": p} for n, t0, t1, p in self.spans],
            "values": self.values,
        }


def basis_stats(polys):
    """(size, total terms, largest numerator or denominator bit length)."""
    bits = 0
    for p in polys:
        for c in p.terms.values():
            bits = max(bits, c.numerator.bit_length(),
                       c.denominator.bit_length())
    return len(polys), sum(len(p.terms) for p in polys), bits


def reproduce(cli, target, report):
    """Runs `torion --threads 1 --report <report> reproduce <target>` in
    this process with its output discarded; returns the exit code and the
    report's results ({} when no report was written)."""
    report.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--threads", "1", "--report", str(report),
                         "reproduce", target])
    if not report.exists():
        return code, {}
    return code, json.loads(report.read_text())["results"]
