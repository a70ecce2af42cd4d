"""The newsbias benchmark: times the CLI end to end on generated corpora and checks every output.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 40 --trace 0

One benchmark process runs the program's commands one at a time, each
in a fresh interpreter, as a user would run them. A run generates its
workload's corpus from the seed, measures set-up time, then runs whole
rounds of the workload's commands until ``--seconds`` is spent, checking
every output against the generator's ground truth. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones. With
``--trace 1`` untraced and traced rounds alternate, and the metrics are
per-layer self times and counts plus the tracing overhead.
See README.md in this directory for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 12
SETUP_BATCH = 4
# pin every numeric library's thread pool: the machine has two cores and
# the benchmark runs one command at a time
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_CODE = (
    "import sys\n"
    "import newsbias.cli\n"
    "from newsbias import corpus\n"
    "corpus.load_articles(sys.argv[1])\n"
    "corpus.load_registry(sys.argv[2])\n"
)

# per-layer metric -> (what the child's trace holds, the names summed):
# self_s, total_s, calls and counts are summed over commands, the largest
# feature space is the maximum, and distinct stemmed words are a union
LAYER_METRICS = {
    "cli.command_s": ("total_s", ["cli.main"]),
    "cli.self_s": ("self_s", ["cli.main"]),
    "cli.output_bytes": ("output", []),
    "corpus.load_s": ("self_s", ["corpus.load_articles", "corpus.load_registry"]),
    "corpus.scan_s": ("self_s", ["corpus.scan_corpus"]),
    "corpus.mentions": ("counts", ["corpus.mentions"]),
    "preprocess.tokenize_s": ("self_s", ["preprocess.tokenize"]),
    "preprocess.tokens": ("counts", ["preprocess.tokens"]),
    "preprocess.split_s": ("self_s", ["preprocess.split_sentences"]),
    "preprocess.mask_s": ("self_s", ["preprocess.mask_gender_signals"]),
    "preprocess.stopwords_s": ("self_s", ["preprocess.remove_stopwords"]),
    "preprocess.stem_s": ("self_s", ["preprocess.stem"]),
    "porter.stem_s": ("self_s", ["porter.stem"]),
    "porter.stem_calls": ("calls", ["porter.stem"]),
    "porter.stem_distinct": ("stemmed", []),
    "pipeline.build_instances_s": ("self_s", ["pipeline.build_instances"]),
    "pipeline.build_instances_calls": ("calls", ["pipeline.build_instances"]),
    "pipeline.build_doc_views_s": ("self_s", ["pipeline.build_doc_views"]),
    "pipeline.build_doc_views_calls": ("calls", ["pipeline.build_doc_views"]),
    "pipeline.build_dataset_s": ("self_s", ["pipeline.build_dataset"]),
    "features.extract_s": ("self_s", ["features.extract_terms"]),
    "features.extract_calls": ("calls", ["features.extract_terms"]),
    "features.build_space_s": ("self_s", ["features.build_space"]),
    "features.vectorize_s": ("self_s", ["features.vectorize"]),
    "features.n_features": ("largest", ["features.n_features"]),
    "features.nnz": ("counts", ["features.nnz"]),
    "learn.cv_s": ("self_s", ["learn.cross_validate"]),
    "learn.fits": ("calls", ["learn.train_svm", "learn.train_nb", "learn.train_tree"]),
    "learn.train_svm_s": ("self_s", ["learn.train_svm"]),
    "learn.svm_objective_s": ("self_s", ["learn.svm_objective"]),
    "learn.svm_objective_calls": ("calls", ["learn.svm_objective"]),
    "learn.subset_s": ("self_s", ["learn.Dataset.subset"]),
    "learn.predict_s": ("self_s", ["learn.predict"]),
    "learn.predict_calls": ("calls", ["learn.predict"]),
    "learn.train_tree_s": ("self_s", ["learn.train_tree"]),
    "learn.train_nb_s": ("self_s", ["learn.train_nb"]),
    "rng.shuffle_s": ("self_s", ["rng.Rng.shuffle"]),
    "rng.shuffled_items": ("counts", ["rng.shuffled_items"]),
    "interpret.kwic_s": ("self_s", ["interpret.kwic"]),
    "interpret.kwic_lines": ("counts", ["interpret.kwic_lines"]),
    "interpret.term_count_s": ("self_s", ["interpret.term_count"]),
    "interpret.rank_features_s": ("self_s", ["interpret.rank_features"]),
}


class Run:
    """One benchmark run: a work directory, its inputs, and the operations tallied."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path,
                 n_articles: int | None = None):
        self.root = root
        self.work = work
        self.env = {**os.environ, **PINNED, "PYTHONPATH": str(root / "src")}
        articles, registry, truth = gen.generate(workload, seed, n_articles)
        self.n_articles = len(articles)
        paths = gen.write_inputs(work / "inputs", articles, registry)
        self.paths = {key: str(p) for key, p in paths.items()}
        spec = workloads.WORKLOADS[workload]
        self.expected = spec.expected(truth)
        self.commands = spec.commands(self.paths, seed)
        self.config_files = {}
        for cmd in self.commands:
            path = work / f"config-{cmd.name}.json"
            path.write_text(json.dumps(cmd.config, indent=1), encoding="utf-8")
            self.config_files[cmd.name] = path
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.rounds = 0

    def _spawn(self, argv: list[str], log: Path):
        """Run one child to its end: (exit status, start time, reap time, peak RSS in MB)."""
        with log.open("wb") as out:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, start, reaped, usage.ru_maxrss / 1024.0

    def setup_samples(self, n: int) -> list[float]:
        """Wall times of fresh interpreters importing newsbias and loading the corpus."""
        argv = [sys.executable, "-c", SETUP_CODE, self.paths["articles"], self.paths["registry"]]
        samples = []
        for _ in range(n):
            status, start, reaped, _ = self._spawn(argv, self.work / "setup.log")
            if status != 0:
                raise RuntimeError(f"set-up failed: {(self.work / 'setup.log').read_text()[-500:]}")
            samples.append(reaped - start)
        return samples

    def _tally(self, name: str, errors: list[str], known: bool = False) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if not known:
                self.unexpected.extend(f"{name}: {e}" for e in errors)

    def round(self, trace: bool) -> dict:
        """Run every command once; returns wall seconds, peak RSS and trace totals."""
        self.rounds += 1
        wall = 0.0
        peak = 0.0
        traces: list[dict] = []
        output_bytes = 0
        for cmd in self.commands:
            out = self.work / "out" / cmd.name
            shutil.rmtree(out, ignore_errors=True)
            prefix = self.work / f"child-{cmd.name}"
            for suffix in (".json", ".npz"):
                prefix.with_suffix(suffix).unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "child.py"), str(prefix), "1" if trace else "0",
                    *cmd.argv, "--config", str(self.config_files[cmd.name]), "--out", str(out)]
            status, start, reaped, rss = self._spawn(argv, prefix.with_suffix(".log"))
            peak = max(peak, rss)
            result = None
            if status == 0 and prefix.with_suffix(".json").exists():
                result = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
            wall += (result["end"] if result else reaped) - start
            self._check(cmd, out, status, result, prefix)
            if result and trace:
                traces.append(result["trace"])
            output_bytes += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        return {"wall": wall, "peak_rss_mb": peak, "traces": traces, "output_bytes": output_bytes}

    def _check(self, cmd, out: Path, status: int, result: dict | None, prefix: Path,
               expected: dict | None = None) -> None:
        """Tally the command and each classifier fit it made as operations."""
        expected = self.expected if expected is None else expected
        if result is None or result["status"] != 0:
            log = prefix.with_suffix(".log").read_text(encoding="utf-8", errors="replace")
            self._tally(cmd.name, [f"exit status {status}/{result and result['status']}: {log[-300:]}"])
            return
        try:
            errors = workloads.check_manifest(cmd, out) + cmd.check(cmd, out, expected)
        except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            errors = [f"output unreadable: {exc!r}"]
        self._tally(cmd.name, errors)
        arrays = np.load(prefix.with_suffix(".npz"))
        reports = {}
        for path in (out / "reports").glob("*.json") if (out / "reports").is_dir() else ():
            report = json.loads(path.read_text(encoding="utf-8"))
            reports[report["descriptor"]] = report
        bases = {}
        for fit in result["fits"]:
            b = fit["base"]
            if b not in bases:
                bases[b] = {k: arrays[f"base{b}_{k}"] for k in ("indptr", "indices", "data", "labels")}
            fit = {**fit, "rows": arrays[f"{fit['name']}_rows"]}
            if fit["classifier"] == "svm":
                fit["weights"] = arrays[f"{fit['name']}_weights"]
            try:
                errors, known = workloads.check_fit(fit, bases[b], result["dims"][b], reports)
            except (KeyError, IndexError, ValueError) as exc:
                errors, known = [f"fit not checkable: {exc!r}"], False
            self._tally(f"{cmd.name} {fit['classifier']} fit", errors, known)


def layer_metrics(round_: dict) -> dict[str, float]:
    """Fold one traced round's per-command traces into the per-layer metrics."""
    traces = round_["traces"]
    values = {}
    for metric, (kind, keys) in LAYER_METRICS.items():
        if kind == "output":
            values[metric] = round_["output_bytes"]
        elif kind == "stemmed":
            values[metric] = len({w for t in traces for w in t["stemmed"]})
        elif kind == "largest":
            values[metric] = max((t["counts"].get(k, 0) for t in traces for k in keys), default=0)
        else:
            values[metric] = sum(t[kind].get(k, 0) for t in traces for k in keys)
    return values


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Whole rounds, at least one; another starts only if it should end within ``seconds``.

    The reference machine's speed drifts by tens of percent over seconds to minutes,
    so set-up samples are spread over the run (a batch before each of the
    first rounds) and throughput is the run's time average, which weighs
    fast and slow spells by how long they lasted. A traced run alternates
    untraced and traced rounds, so the overhead compares rounds made under
    the same conditions.
    """
    run.setup_samples(1)  # fills the page cache and writes bytecode
    wanted = 0 if trace else SETUP_SAMPLES
    setup: list[float] = []
    rounds, reference = [], []
    spent = 0.0
    while True:
        if len(setup) < wanted:
            setup += run.setup_samples(SETUP_BATCH)
        started = time.monotonic()
        if trace:
            reference.append(run.round(trace=False))
        rounds.append(run.round(trace=trace))
        spent += time.monotonic() - started
        if spent + spent / len(rounds) > seconds:
            break
    setup += run.setup_samples(max(0, wanted - len(setup)))
    if not trace:
        return {
            "articles_per_s": run.n_articles * len(rounds) / sum(r["wall"] for r in rounds),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        }
    per_round = [layer_metrics(r) for r in rounds]
    metrics = {m: statistics.median(v[m] for v in per_round) for m in LAYER_METRICS}
    traced = sum(r["wall"] for r in rounds)
    untraced = sum(r["wall"] for r in reference)
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="newsbias benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "newsbias" / "cli.py").is_file():
        print(f"error: no newsbias sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(root, args.workload, args.seed, work)
        measured = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only once no other run is using it
        except OSError:
            pass

    if args.trace:
        metrics = {m: {"value": v, "unit": "%" if m == "trace.overhead_pct" else unit_of(m)}
                   for m, v in measured.items()}
    else:
        metrics = {
            "articles_per_s": {"value": measured["articles_per_s"], "unit": "articles/s"},
            "setup_s": {"value": measured["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
    for line in run.unexpected[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {run.rounds} rounds, {run.attempted} operations, "
          f"{run.failed} failed ({len(run.unexpected)} unexpected errors)", file=sys.stderr)
    print(json.dumps({
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
