"""Which torion modules an entry point loads, checked in a fresh
interpreter: `python tests/import_graph.py` exits 1, naming each failed
check, when

- `import torion.cli`, or a run of `torion reproduce lem-so-odd` after it,
  loads crossratio, flatnet or heights;
- `import torion.crossratio` loads flatnet;
- cli.crossratio_m1/2/3 differ from the matrices crossratio defines.

tests/test_import_graph.py runs it on the torion the tests import; CI runs
it on the installed package.
"""

import sys

DEFERRED = ("torion.crossratio", "torion.flatnet", "torion.heights")


def loaded(names):
    return [name for name in names if name in sys.modules]


def main():
    failures = []
    import torion.cli as cli
    if loaded(DEFERRED):
        failures.append(f"import torion.cli loads {loaded(DEFERRED)}")
    code = cli.main(["reproduce", "lem-so-odd"])
    if code != 0:
        failures.append(f"reproduce lem-so-odd exits {code}")
    if loaded(DEFERRED):
        failures.append(f"reproduce lem-so-odd loads {loaded(DEFERRED)}")
    import torion.crossratio as crossratio
    if loaded(["torion.flatnet"]):
        failures.append("import torion.crossratio loads torion.flatnet")
    for name in ("crossratio_m1", "crossratio_m2", "crossratio_m3"):
        if getattr(cli, name)() != getattr(crossratio, name)():
            failures.append(f"cli.{name} differs from crossratio.{name}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
