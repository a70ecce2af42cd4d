"""Self-test of the benchmark's checks on tiny corpora; finishes in seconds.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it runs one round of the real commands on a tiny
corpus and requires every check to pass, apart from the known SVM
fault. Then it tampers with one output, or one expected value, at a
time and requires the benchmark to report a failed operation with an
unexpected error each time. Exit status 0 means every check passed on
the real outputs and caught every tampering.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

SEED = 1
TINY = {"sweep-grid": 600, "audit-ground": 200, "wide-vocab": 400}


def _json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _csv(path: Path, edit) -> None:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _lines(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines), encoding="utf-8")


def _first_fit(result: dict, kind: str) -> dict:
    return next(f for f in result["fits"] if f["classifier"] == kind)


def _report(out: Path, descriptor: str) -> Path:
    return out / "reports" / (descriptor.replace("/", "_") + ".json")


def _bump_fold(descriptor: str, n_test_hint: int = 1000):
    def edit(report):
        report["per_fold_accuracy"][0] += 1.0 / n_test_hint
    return lambda out: _json(_report(out, descriptor), edit)


def _bump_sweep(field: str, delta):
    def edit(rows):
        rows[0][field] += delta
    return lambda out: _json(out / "sweep_summary.json", edit)


def _bump_confusion(out: Path) -> None:
    rows = json.loads((out / "sweep_summary.json").read_text(encoding="utf-8"))

    def edit(report):
        report["confusion"]["female"]["male"] += 1
    _json(_report(out, rows[0]["descriptor"]), edit)


def _sink_tree(out: Path) -> None:
    def edit(rows):
        for row in rows:
            if row["classifier"] == "tree":
                row["mean_accuracy"] = row["majority_baseline"] - 0.01
    _json(out / "sweep_summary.json", edit)


def _bump_manifest(out: Path) -> None:
    def edit(manifest):
        manifest["config"]["seed"] += 1
    _json(out / "manifest.json", edit)


def _stats_cell(term: str, column: int, value: str):
    def edit(rows):
        for row in rows[1:]:
            if row[0] == term:
                row[column] = value
                return
    return lambda out: _csv(out / "stats.csv", edit)


def _leak_name(out: Path) -> None:
    def edit(rows):
        rows[1][2] = rows[1][2] + " healy"
    _csv(out / "kwic.csv", edit)


def _flip_headline(out: Path) -> None:
    def edit(lines):
        rec = json.loads(lines[0])
        rec["headline_mention"] = not rec["headline_mention"]
        lines[0] = json.dumps(rec) + "\n"
    _lines(out / "instances.jsonl", edit)


def _flip_rank_weight(out: Path) -> None:
    def edit(ranked):
        ranked["female"][0]["weight"] = -ranked["female"][0]["weight"]
    _json(out / "ranked_features.json", edit)


# (workload, command, what is tampered, output edit, result edit, expected edit)
TAMPERS = [
    ("sweep-grid", "sweep", "exit status", None, lambda r: r.update(status=1), None),
    ("sweep-grid", "sweep", "manifest config", _bump_manifest, None, None),
    ("sweep-grid", "sweep", "instance count", _bump_sweep("n_instances", 1), None, None),
    ("sweep-grid", "sweep", "majority baseline", _bump_sweep("majority_baseline", 0.001), None, None),
    ("sweep-grid", "sweep", "confusion matrix", _bump_confusion, None, None),
    ("sweep-grid", "sweep", "accuracy below baseline",
     _bump_sweep("mean_accuracy", -1.0), None, None),
    ("sweep-grid", "sweep", "naive bayes fold accuracy",
     _bump_fold("unigram/article/boolean/nb-bernoulli", 30), None, None),
    ("sweep-grid", "sweep", "svm model bias", None,
     lambda r: _first_fit(r, "svm").update(bias=_first_fit(r, "svm")["bias"] + 1.0), None),
    ("sweep-grid", "sweep", "tree root counts", None,
     lambda r: _first_fit(r, "tree").update(root=[0, 0]), None),
    ("sweep-grid", "sweep", "expected female count", None, None,
     lambda e: e.update(n_female=e["n_female"] + 1)),
    ("audit-ground", "label", "headline flag", _flip_headline, None, None),
    ("audit-ground", "label", "dropped instance", lambda out: _lines(out / "instances.jsonl", lambda ls: ls.pop()), None, None),
    ("audit-ground", "label", "expected unmatched count", None, None,
     lambda e: e.update(n_articles_matched=e["n_articles_matched"] - 1)),
    ("audit-ground", "kwic-raw", "dropped line", lambda out: _csv(out / "kwic.csv", lambda rs: rs.pop()), None, None),
    ("audit-ground", "kwic-raw", "tag column", lambda out: _csv(out / "kwic.csv", lambda rs: rs[1].__setitem__(5, "x")), None, None),
    ("audit-ground", "kwic-masked", "name in context", _leak_name, None, None),
    ("audit-ground", "kwic-masked", "expected co-occurrence count", None, None,
     lambda e: e["planted_cooccur_female"].update(
         {k: v + 1 for k, v in list(e["planted_cooccur_female"].items())[:1]})),
    ("audit-ground", "stats-raw", "count", _stats_cell("husband", 2, "0"), None, None),
    ("audit-ground", "stats-raw", "years", _stats_cell("husband", 3, "1.000000"), None, None),
    ("audit-ground", "stats-masked", "marker count", _stats_cell("NAMEFORM_FULL", 2, "1"), None, None),
    ("audit-ground", "stats-masked", "expected years", None, None,
     lambda e: e["years"].update(female=e["years"]["female"] + 0.01)),
    ("wide-vocab", "sweep-boolean", "feature count", _bump_sweep("n_features", 1), None, None),
    ("wide-vocab", "sweep-boolean", "tree below baseline", _sink_tree, None, None),
    ("wide-vocab", "sweep-count", "multinomial fold accuracy",
     _bump_fold("unigram/article/count/nb-multinomial", 30), None, None),
    ("wide-vocab", "sweep-count", "expected feature count", None, None,
     lambda e: e.update(n_features=e["n_features"] - 1)),
    ("wide-vocab", "rank", "sign of a weight", _flip_rank_weight, None, None),
    ("wide-vocab", "rank", "expected vocabulary", None, None, lambda e: e.update(features=[])),
]


def check_traced_round(run: bench.Run, workload: str) -> list[str]:
    """A traced round yields every per-layer metric, and the layers that ran are the right ones."""
    metrics = bench.layer_metrics(run.round(trace=True))
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]} - {"trace.overhead_pct"}
    problems = []
    if set(metrics) != names:
        problems.append(f"{workload} traced round: metrics {sorted(set(metrics) ^ names)} "
                        "differ from BENCHMARK.json")
    ran = {layer: metrics[metric] > 0 for layer, metric in (
        ("porter", "porter.stem_calls"), ("learn", "learn.fits"),
        ("kwic", "interpret.kwic_lines"), ("features", "features.extract_calls"))}
    want = {"porter": workload == "audit-ground", "learn": workload != "audit-ground",
            "kwic": workload == "audit-ground", "features": workload != "audit-ground"}
    if ran != want:
        problems.append(f"{workload} traced round: layers that ran {ran}, expected {want}")
    print(f"{'ok' if not problems else 'FAILED'}: {workload} traced round, "
          f"{sum(1 for v in metrics.values() if v)} of {len(metrics)} per-layer metrics nonzero")
    return problems


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "newsbias" / "cli.py").is_file():
        print("error: run from the root of a newsbias checkout", file=sys.stderr)
        return 2
    work_root = root / ".perfbench_runs" / f"selftest-{os.getpid()}"
    problems = []
    try:
        runs = {}
        for workload, n in TINY.items():
            run = bench.Run(root, workload, SEED, work_root / workload, n_articles=n)
            run.round(trace=False)
            status = "ok" if not run.unexpected else "FAILED"
            print(f"{status}: {workload} on {n} articles, {run.attempted} operations, "
                  f"{run.failed} failed, {len(run.unexpected)} unexpected")
            if run.unexpected:
                problems.append(f"{workload} clean round: {run.unexpected[:3]}")
            runs[workload] = run
            problems += check_traced_round(run, workload)

        for workload, name, what, edit_out, edit_result, edit_expected in TAMPERS:
            run = runs[workload]
            cmd = next(c for c in run.commands if c.name == name)
            prefix = run.work / f"child-{cmd.name}"
            with tempfile.TemporaryDirectory(dir=work_root) as tmp:
                out = Path(tmp) / "out"
                shutil.copytree(run.work / "out" / cmd.name, out)
                if edit_out:
                    edit_out(out)
                result = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
                if edit_result:
                    edit_result(result)
                expected = copy.deepcopy(run.expected)
                if edit_expected:
                    edit_expected(expected)
                failed, unexpected = run.failed, len(run.unexpected)
                run._check(cmd, out, 0, result, prefix, expected)
                caught = run.failed > failed and len(run.unexpected) > unexpected
            print(f"{'caught' if caught else 'MISSED'}: {workload} {name}: tampered {what}")
            if not caught:
                problems.append(f"{workload} {name}: tampered {what} went unreported")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
