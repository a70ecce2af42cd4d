"""The functions the benchmark's child wraps by module attribute all exist:
a renamed or removed one fails here, not only in a traced benchmark run.
Those the program itself never calls are listed in README's table of
names kept for the benchmark."""

from __future__ import annotations

import ast
import re
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


def _wrapped() -> dict[str, str]:
    """Each function the child wraps, `w(owner, "attr", "name", ...)`: its traced name -> attr."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    return {call.args[2].value: call.args[1].value for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "w"}


def _called_in_src() -> set[str]:
    """Every name a module of the program calls, bare (f()) or as an attribute (x.f())."""
    called = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                called.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
    return called


def _kept_for_the_benchmark() -> set[str]:
    """The names in the first column of README's "Names kept for the benchmark" table."""
    section = (ROOT / "README.md").read_text().partition("### Names kept for the benchmark")[2].partition("\n#")[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    return {name for row in rows for name in re.findall(r"`([\w.]+)`", row)}


def test_every_name_only_the_benchmark_calls_is_in_the_readme_table():
    # a name kept in src/ only because the benchmark wraps it says so where the reader looks
    called, listed = _called_in_src(), _kept_for_the_benchmark()
    assert [name for name, attr in _wrapped().items() if attr not in called and name not in listed] == []
