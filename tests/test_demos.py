"""Smoke tests: every demo script runs to completion with numpy's runtime
warnings as errors, the benchmark's tracer counts what a traced run did, and
the benchmark's fit log maps every fit back to its training rows."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    # the policy pyproject.toml sets for in-process tests: an overflow or invalid value fails the demo
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_demos_are_found():
    assert DEMOS, "no demo scripts under demos/"


@pytest.mark.parametrize("workload", ["sweep-grid", "audit-ground", "wide-vocab"])
def test_benchmark_commands_load_through_the_config_table(workload, monkeypatch, tmp_path):
    # the benchmark checks that each manifest records the file's config plus the flags
    from newsbias import cli

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    paths = {"articles": "articles.jsonl", "registry": "registry.json", "stoplist": "stoplist.txt"}
    loaded = []
    for name in ("ingest", "label", "sweep", "rank", "kwic", "stats", "gen_synth"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda config, **flags: loaded.append(config) or 0)
    for cmd in workloads.WORKLOADS[workload].commands(paths, 7):
        config_path = tmp_path / f"{cmd.name}.json"
        config_path.write_text(json.dumps(cmd.config), encoding="utf-8")
        assert cli.main([*cmd.argv, "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
        config = loaded.pop()
        if cmd.argv[0] == "sweep":
            cli._sweep_combinations(config)
        recorded = {key: value for key, value in config.items() if key != "out"}
        assert json.dumps(recorded, sort_keys=True) == json.dumps(cmd.manifest_config, sort_keys=True)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    from newsbias import cli

    data = tmp_path_factory.mktemp("fitlog")
    assert cli.main(["gen-synth", "--out", str(data), "--seed", "3", "--n", "150",
                     "--planted", "husband:0.3:0.02"]) == 0
    return data


def _child(tmp_path, config, argv, trace):
    """Runs one command under perfbench/child.py; its result and the fit arrays it dumped."""
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    prefix = tmp_path / "result"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(prefix), "1" if trace else "0", *argv,
         "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    with np.load(f"{prefix}.npz") as arrays:
        return json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8")), dict(arrays)


def _under_child(tmp_path, corpus_dir, command, undersample):
    """Runs a sweep or rank under perfbench/child.py, untraced; its result, fit arrays and config."""
    config = {
        "seed": 11,
        "paths": {"articles": str(corpus_dir / "articles.jsonl"), "registry": str(corpus_dir / "registry.json")},
        "features": {"min_df": 2},
        "classifier": {"epochs": 5},
        "evaluate": {"k": 3, "undersample": undersample},
        "sweep": {"schemes": ["unigram/article"], "representations": ["boolean"],
                  "classifiers": ["svm", "nb-bernoulli", "tree"]},
    }
    return *_child(tmp_path, config, [command], trace=False), config


@pytest.mark.parametrize("argv", [
    ["label"], ["kwic", "husband", "--masked", "--cooccur"], ["stats", "--term", "husband", "--masked"],
], ids=["label", "kwic", "stats"])
def test_benchmark_traced_run_counts_tokens_stems_and_lines(small_corpus, tmp_path, argv):
    # with TRACE=1 the benchmark's per-layer counts come from the wrapped public
    # functions' results, so a change to what they return must show here
    (tmp_path / "stoplist.txt").write_text("the\na\nof\nand\n", encoding="utf-8")
    config = {
        "paths": {"articles": str(small_corpus / "articles.jsonl"), "registry": str(small_corpus / "registry.json"),
                  "stoplist": str(tmp_path / "stoplist.txt")},
        "pipeline": {"remove_stopwords": True, "stem": True},
    }
    result, _ = _child(tmp_path, config, argv, trace=True)
    assert result["status"] == 0
    trace = result["trace"]
    assert trace["counts"]["preprocess.tokens"] > 0
    assert trace["stemmed"]
    if argv[0] == "kwic":
        with open(tmp_path / "out" / "kwic.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert trace["counts"]["interpret.kwic_lines"] == len(rows) > 0


@pytest.mark.parametrize("command", ["sweep", "rank"])
@pytest.mark.parametrize("undersample", [False, True], ids=["all", "undersampled"])
def test_benchmark_fit_log_maps_every_fit_to_its_rows(small_corpus, tmp_path, command, undersample):
    # the benchmark checks each fit through rows it maps back by the identity of dataset.vectors
    from newsbias import corpus, learn, pipeline

    result, arrays, config = _under_child(tmp_path, small_corpus, command, undersample)
    assert result["status"] == 0
    instances = pipeline.build_instances(corpus.load_articles(small_corpus / "articles.jsonl"),
                                         corpus.load_registry(small_corpus / "registry.json"))
    dataset = pipeline.build_dataset(instances, scheme="unigram", min_df=2)
    if command == "rank":
        # rank fits once, on the dataset (under-sampled first when asked)
        assert [(f["descriptor"], f["base"]) for f in result["fits"]] == [(None, 0)]
        if undersample:
            dataset = learn.undersample(dataset, config["seed"])
    else:
        assert sorted((f["descriptor"], f["fold"]) for f in result["fits"]) == [
            (f"unigram/article/boolean/{c}", fold) for c in ("nb-bernoulli", "svm", "tree") for fold in range(3)]
        assert {f["base"] for f in result["fits"]} == {0}
    # the one base is the dataset the command built, row for row
    entries, lengths = dataset.csr.gather(dataset.rows)
    assert np.array_equal(arrays["base0_indptr"], np.concatenate(([0], np.cumsum(lengths))))
    assert np.array_equal(arrays["base0_indices"], dataset.csr.indices[entries])
    assert np.array_equal(arrays["base0_data"], dataset.csr.data[entries])
    labels = arrays["base0_labels"]
    assert np.array_equal(labels, dataset.y[dataset.rows])

    left_out = np.zeros(len(labels), dtype=int)
    for fit in result["fits"]:
        rows = arrays[f"{fit['name']}_rows"]
        assert len(rows) and rows.min() >= 0 and rows.max() < len(labels)
        assert np.all(np.diff(rows) > 0)
        counts = np.bincount(labels[rows], minlength=2).tolist()
        if undersample:
            assert counts[0] == counts[1]
        if fit["classifier"] == "tree":
            assert fit["root"] == counts
        if fit["classifier"] == "svm":
            # the fit's objective, recomputed over the base rows with the base's labels
            objective = learn.svm_objective(arrays[f"{fit['name']}_weights"], fit["bias"],
                                            dataset.subset(rows), fit["lam"])
            assert objective == pytest.approx(fit["best_objective"], rel=1e-12)
        if fit["descriptor"] is not None and not undersample:
            left_out += ~np.isin(np.arange(len(labels)), rows)
    if command == "sweep" and not undersample:
        assert np.all(left_out == 3)  # every row is tested once per classifier
