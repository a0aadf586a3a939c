"""`import torion.cli` loads only the modules its commands share: the
checks of tests/import_graph.py, run in a fresh interpreter on the torion
imported here."""

import os
import subprocess
import sys
from pathlib import Path

import torion

CHECK = Path(__file__).resolve().parent / "import_graph.py"


def test_entry_points_load_only_what_they_use():
    src = str(Path(torion.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    done = subprocess.run([sys.executable, str(CHECK)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "reproduce lem-so-odd: pass\n"
