"""numpy is the only runtime dependency: the CLI's commands import nothing
else outside the standard library, though other packages are installed."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter: an import hook refuses every top-level module
# outside the standard library, numpy and newsbias, then the commands run
# through cli.main. A refused import that newsbias itself makes is noted even
# if it is caught; those the standard library probes for (copy tries
# org.python.core) are its own affair.
GUARD = """
import json, sys

allowed = set(sys.stdlib_module_names) | {"numpy", "newsbias"}
refused = []


def importer():
    frame = sys._getframe(2)
    while frame.f_code.co_filename.startswith("<frozen"):
        frame = frame.f_back
    return frame.f_globals.get("__name__", "")


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in allowed:
            if importer().partition(".")[0] == "newsbias":
                refused.append(name)
            raise ModuleNotFoundError(f"{name} is not a runtime dependency", name=name)
        return None


sys.meta_path.insert(0, Refuse())
from newsbias import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "refused": refused}))
"""


def test_commands_import_only_numpy_and_the_standard_library(tmp_path):
    data = tmp_path / "data"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "paths": {"articles": str(data / "articles.jsonl"), "registry": str(data / "registry.json")},
        "features": {"min_df": 2},
        "classifier": {"epochs": 3},
        "evaluate": {"k": 3},
        "sweep": {"schemes": ["unigram/article", "unigram/sentence"],
                  "classifiers": ["svm", "nb-bernoulli", "tree"]},
    }))
    common = ["--config", str(config), "--out"]
    commands = [
        ["gen-synth", "--out", str(data), "--n", "60", "--planted", "husband:0.3:0.01"],
        ["sweep", *common, str(tmp_path / "sweep")],
        ["rank", *common, str(tmp_path / "rank")],
        ["kwic", "husband", *common, str(tmp_path / "kwic")],
        ["stats", "--term", "husband", *common, str(tmp_path / "stats")],
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", GUARD, json.dumps(commands)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == {"codes": [0] * len(commands), "refused": []}
