"""The functions the benchmark's child wraps by module attribute all exist:
a renamed or removed one fails here, not only in a traced benchmark run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys

sys.path[:0] = sys.argv[1:]
import child

child.Tracer().install()
child.FitLog().install()
"""


def test_benchmark_child_wraps_only_names_the_program_has():
    # a fresh interpreter: installing the wrappers replaces the program's functions
    done = subprocess.run([sys.executable, "-c", INSTALL, str(ROOT / "perfbench"), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
