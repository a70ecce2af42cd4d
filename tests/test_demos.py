"""Smoke tests: every demo script runs to completion, and the benchmark's tracer installs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_demos_are_found():
    assert DEMOS, "no demo scripts under demos/"


def test_benchmark_tracer_installs():
    # perfbench/child.py wraps public functions by module attribute; a rename must fail here
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    result = subprocess.run(
        [sys.executable, "-c", "import child; child.Tracer().install(); child.FitLog().install()"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("workload", ["sweep-grid", "audit-ground", "wide-vocab"])
def test_benchmark_commands_load_through_the_config_table(workload, monkeypatch, tmp_path):
    # the benchmark checks that each manifest records the file's config plus the flags
    from newsbias import cli

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    paths = {"articles": "articles.jsonl", "registry": "registry.json", "stoplist": "stoplist.txt"}
    loaded = []
    for name in ("ingest", "label", "sweep", "rank", "kwic", "stats", "gen_synth"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda config, *rest: loaded.append(config) or 0)
    for cmd in workloads.WORKLOADS[workload].commands(paths, 7):
        config_path = tmp_path / f"{cmd.name}.json"
        config_path.write_text(json.dumps(cmd.config), encoding="utf-8")
        assert cli.main([*cmd.argv, "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
        config = loaded.pop()
        if cmd.argv[0] == "sweep":
            cli._sweep_combinations(config)
        recorded = {key: value for key, value in config.items() if key != "out"}
        assert json.dumps(recorded, sort_keys=True) == json.dumps(cmd.manifest_config, sort_keys=True)
