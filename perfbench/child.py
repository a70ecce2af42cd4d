"""Runs one newsbias CLI command in this process, as the benchmark's child.

Usage: python3 child.py RESULT_PREFIX TRACE(0|1) COMMAND [ARGS...]

Before the command runs, the classifier entry points of ``newsbias.learn``
are wrapped so that every fit's training rows and model summary can be
checked afterwards; with TRACE=1 the public functions of every module
are wrapped too, and their self time and counts are recorded. The
wrappers live here, never in the program. After ``cli.main`` returns,
the child notes the monotonic clock (shared by every process on the
machine, so the parent can time the command without the dump that
follows), then writes RESULT_PREFIX.json and RESULT_PREFIX.npz.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from newsbias import cli, corpus, features, interpret, learn, pipeline, porter, preprocess, rng


class Tracer:
    """Self time, calls and counts per wrapped function, aggregated in memory.

    Spans are folded into per-name totals as they close rather than kept
    one by one: porter.stem alone closes millions of them per command.
    A span's self time is its duration minus the durations of the
    wrapped calls it made.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.stemmed: set[str] = set()
        self._children = [0.0]

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        fn = getattr(owner, attr)
        children = self._children
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                self_s[name] += elapsed - inner
                total_s[name] += elapsed
                calls[name] += 1
                children[-1] += elapsed
            if on_result is not None:
                on_result(result, args)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        count = self.counts

        def add(key, fn):
            def on_result(result, args):
                count[key] += fn(result, args)
            return on_result

        def biggest(result, args):
            count["features.n_features"] = max(count["features.n_features"], len(result))

        def stem_word(result, args):
            self.stemmed.add(args[0])

        w = self.wrap
        w(cli, "main", "cli.main")
        w(corpus, "load_articles", "corpus.load_articles")
        w(corpus, "load_registry", "corpus.load_registry")
        w(corpus, "scan_corpus", "corpus.scan_corpus",
          add("corpus.mentions", lambda r, a: sum(len(s.mention_spans) for s in r)))
        w(preprocess, "tokenize", "preprocess.tokenize",
          add("preprocess.tokens", lambda r, a: len(r)))
        w(preprocess, "split_sentences", "preprocess.split_sentences")
        w(preprocess, "mask_gender_signals", "preprocess.mask_gender_signals")
        w(preprocess, "remove_stopwords", "preprocess.remove_stopwords")
        w(preprocess, "stem", "preprocess.stem")
        w(porter, "stem", "porter.stem", stem_word)
        w(pipeline, "build_instances", "pipeline.build_instances")
        w(pipeline, "build_doc_views", "pipeline.build_doc_views")
        w(pipeline, "build_dataset", "pipeline.build_dataset")
        w(features, "extract_terms", "features.extract_terms")
        w(features, "build_space", "features.build_space", biggest)
        w(features, "vectorize", "features.vectorize", add("features.nnz", lambda r, a: len(r)))
        w(learn, "cross_validate", "learn.cross_validate")
        w(learn, "train_svm", "learn.train_svm")
        w(learn, "train_nb", "learn.train_nb")
        w(learn, "train_tree", "learn.train_tree")
        w(learn, "svm_objective", "learn.svm_objective")
        w(learn, "predict", "learn.predict")
        w(learn.Dataset, "subset", "learn.Dataset.subset")
        w(rng.Rng, "shuffle", "rng.Rng.shuffle", add("rng.shuffled_items", lambda r, a: len(a[1])))
        w(interpret, "kwic", "interpret.kwic", add("interpret.kwic_lines", lambda r, a: len(r)))
        w(interpret, "term_count", "interpret.term_count")
        w(interpret, "rank_features", "interpret.rank_features")

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "stemmed": sorted(self.stemmed),
        }


class FitLog:
    """Records every classifier fit: its training rows and what the checks need."""

    def __init__(self):
        self.bases: list = []          # datasets the fits' rows index into
        self._base_of: dict[int, tuple[int, dict]] = {}
        self._cv: list = []            # (base number, row map, descriptor, fold counter)
        self.fits: list[dict] = []
        self.arrays: dict[str, np.ndarray] = {}

    def _base(self, dataset) -> tuple[int, dict]:
        key = id(dataset)
        if key not in self._base_of:
            rows = {id(v): i for i, v in enumerate(dataset.vectors)}
            self._base_of[key] = (len(self.bases), rows)
            self.bases.append(dataset)
        return self._base_of[key]

    def _record(self, kind: str, dataset, extra: dict) -> dict:
        if self._cv:
            frame = self._cv[-1]
            number, rows = frame[0], frame[1]
            fit = {"descriptor": frame[2], "fold": frame[3]}
            frame[3] += 1
        else:
            number, rows = self._base(dataset)
            fit = {"descriptor": None, "fold": None}
        name = f"fit{len(self.fits)}"
        self.arrays[f"{name}_rows"] = np.array([rows[id(v)] for v in dataset.vectors], dtype=np.int64)
        fit.update({"classifier": kind, "base": number, "name": name, **extra})
        self.fits.append(fit)
        return fit

    def install(self) -> None:
        cross_validate, train_svm = learn.cross_validate, learn.train_svm
        train_nb, train_tree = learn.train_nb, learn.train_tree

        def logged_cv(dataset, classifier, **kwargs):
            number, rows = self._base(dataset)
            self._cv.append([number, rows, kwargs.get("descriptor", ""), 0])
            try:
                return cross_validate(dataset, classifier, **kwargs)
            finally:
                self._cv.pop()

        def logged_svm(dataset, **kwargs):
            model = train_svm(dataset, **kwargs)
            fit = self._record("svm", dataset, {
                "lam": kwargs.get("lam", learn.DEFAULT_SVM_LAMBDA),
                "bias": float(model.bias),
                "best_objective": min(model.epoch_objectives),
            })
            self.arrays[f"{fit['name']}_weights"] = np.asarray(model.weights, dtype=np.float64)
            return model

        def logged_nb(dataset, variant="bernoulli", alpha=learn.DEFAULT_NB_ALPHA):
            model = train_nb(dataset, variant, alpha)
            self._record(f"nb-{variant}", dataset, {"alpha": alpha})
            return model

        def logged_tree(dataset, **kwargs):
            model = train_tree(dataset, **kwargs)
            depth, leaf_total, leaf_majority = _tree_summary(model.root)
            self._record("tree", dataset, {
                "root": [model.root.n_female, model.root.n_male],
                "depth": depth, "leaf_total": leaf_total, "leaf_majority": leaf_majority,
                "max_depth": model.max_depth,
            })
            return model

        learn.cross_validate = logged_cv
        learn.train_svm = logged_svm
        learn.train_nb = logged_nb
        learn.train_tree = logged_tree

    def dump_bases(self) -> list[int]:
        dims = []
        for number, dataset in enumerate(self.bases):
            lengths = [len(v.ids) for v in dataset.vectors]
            self.arrays[f"base{number}_indptr"] = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
            self.arrays[f"base{number}_indices"] = np.array(
                [i for v in dataset.vectors for i in v.ids], dtype=np.int64)
            self.arrays[f"base{number}_data"] = np.array(
                [x for v in dataset.vectors for x in v.values], dtype=np.float64)
            self.arrays[f"base{number}_labels"] = np.array(
                [0 if lab == corpus.FEMALE else 1 for lab in dataset.labels], dtype=np.int64)
            dims.append(len(dataset.space))
        return dims


def _tree_summary(node) -> tuple[int, int, int]:
    """(depth, rows over all leaves, rows the leaves' majority labels get right)."""
    if node.feature is None:
        return 0, node.n_female + node.n_male, max(node.n_female, node.n_male)
    a = _tree_summary(node.present)
    b = _tree_summary(node.absent)
    return 1 + max(a[0], b[0]), a[1] + b[1], a[2] + b[2]


def main(argv: list[str]) -> int:
    prefix, trace, command = argv[0], argv[1] == "1", argv[2:]
    tracer = Tracer()
    if trace:
        tracer.install()
    log = FitLog()
    log.install()
    status = cli.main(command)
    end = time.monotonic()
    dims = log.dump_bases()
    np.savez(prefix + ".npz", **log.arrays)
    result = {"status": status, "end": end, "fits": log.fits, "dims": dims}
    if trace:
        result["trace"] = tracer.report()
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
