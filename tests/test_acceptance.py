"""Acceptance gate: every shipped criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from newsbias import cli, corpus, features, interpret, learn, pipeline, preprocess, synth
from newsbias.learn import (
    cross_validate,
    majority_baseline,
    nb_log_posterior,
    predict,
    stratified_folds,
    svm_objective,
    train_nb,
    train_svm,
    train_tree,
    undersample,
)
from newsbias.preprocess import DEFAULT_GENDERED_SIGNALS, MARKER, WORD
from newsbias.rng import Rng

from util import make_dataset, make_vec

F, M = "female", "male"
ROOT = Path(__file__).resolve().parent.parent


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------
# 1. Naive Bayes log posteriors match brute-force enumeration (<= 1e-12)

def test_criterion_01_nb_oracle_equivalence():
    rows = [((0, 2), F), ((0,), F), ((0, 1, 3), F), ((1,), M), ((1, 3), M), ((2, 3), M)]
    dim = 4
    ds = make_dataset([(list(ids), lab) for ids, lab in rows], n_features=dim)
    model = train_nb(ds, variant="bernoulli", alpha=1.0)

    def oracle(x_ids):
        joint = {}
        for c in (F, M):
            members = [ids for ids, lab in rows if lab == c]
            p = Fraction(len(members), len(rows))
            for j in range(dim):
                theta = Fraction(sum(1 for ids in members if j in ids) + 1, len(members) + 2)
                p *= theta if j in x_ids else 1 - theta
            joint[c] = p
        total = joint[F] + joint[M]
        return {c: math.log(float(joint[c] / total)) for c in (F, M)}

    worst = 0.0
    for ids in [ids for ids, _ in rows] + [(), (0, 1, 2, 3), (3,)]:
        got = nb_log_posterior(model, make_vec([(i, 1.0) for i in ids]))
        want = oracle(set(ids))
        worst = max(worst, abs(got[F] - want[F]), abs(got[M] - want[M]))
    report(1, "naive bayes matches enumeration", worst <= 1e-12, f"max |Δlog| = {worst:.2e}")


# ----------------------------------------------------------------------
# 2. Decision tree equals exhaustive search over depth <= 2 trees

def test_criterion_02_tree_oracle_equivalence():
    rows = [((0,), F), ((0, 2), F), ((0, 1), F), ((0, 1, 2), F),
            ((1,), M), ((1, 2), M), ((), F), ((2,), M)]
    labels = [lab for _, lab in rows]

    def leaf_correct(members):
        nf = sum(1 for i in members if labels[i] == F)
        return max(nf, len(members) - nf)

    def split(members, f):
        return ([i for i in members if f in rows[i][0]],
                [i for i in members if f not in rows[i][0]])

    def best_child(members):
        return max(
            [leaf_correct(members)]
            + [leaf_correct(p) + leaf_correct(a) for f in range(3) for p, a in [split(members, f)]]
        )

    idx = list(range(8))
    exhaustive = max(
        [leaf_correct(idx)]
        + [best_child(p) + best_child(a) for f in range(3) for p, a in [split(idx, f)]]
    ) / 8

    ds = make_dataset([(list(ids), lab) for ids, lab in rows], n_features=3)
    model = train_tree(ds, max_depth=2, min_leaf=1)
    ours = sum(predict(model, v) == l for v, l in zip(ds.vectors, ds.labels)) / 8
    report(2, "tree equals exhaustive depth-2 search", ours == exhaustive,
           f"greedy {ours:.3f} vs exhaustive {exhaustive:.3f}")


# ----------------------------------------------------------------------
# 3. SVM: separable accuracy 1.0, objective within 5% of random search

def test_criterion_03_svm_optimization_sanity():
    rows = [([(0, 1.0)], F)] * 3 + [([(0, 1.0), (1, 0.5)], F)] \
        + [([(1, 1.0)], M)] * 3 + [([(0, 0.5), (1, 1.0)], M)]
    ds = make_dataset(rows, n_features=2, representation="count")
    lam = 0.01
    model = train_svm(ds, lam=lam, epochs=300)
    accuracy = sum(predict(model, v) == l for v, l in zip(ds.vectors, ds.labels)) / len(ds)
    ours = svm_objective(model.weights, model.bias, ds, lam)
    rng = Rng(12345)
    oracle = math.inf
    for _ in range(10_000):
        w = np.array([rng.random() * 20 - 10, rng.random() * 20 - 10])
        oracle = min(oracle, svm_objective(w, rng.random() * 20 - 10, ds, lam))
    ok = accuracy == 1.0 and ours <= 1.05 * oracle
    report(3, "svm separable fixture", ok,
           f"accuracy {accuracy:.2f}, objective {ours:.4f} vs oracle {oracle:.4f}")


# ----------------------------------------------------------------------
# 4. Planted-bias recovery on a generated corpus

def test_criterion_04_planted_bias_recovery(tmp_path):
    out = tmp_path / "synth"
    code = cli.main([
        "gen-synth", "--out", str(out), "--seed", "42", "--n", "2000",
        "--balance", "0.5", "--planted", "husband:0.10:0.01",
    ])
    assert code == 0
    articles = corpus.load_articles(out / "articles.jsonl")
    registry = corpus.load_registry(out / "registry.json")
    instances = pipeline.build_instances(articles, registry)
    dataset, space = pipeline.build_dataset(
        instances, scheme="unigram", representation="boolean", min_df=3
    )
    cv = cross_validate(dataset, "svm", k=10, seed=7, descriptor="unigram/article/boolean/svm")
    model = train_svm(dataset)
    ranked = interpret.rank_features(model, space, k=10)
    female_surfaces = [s for s, _, _ in ranked.female]
    ok = cv.mean_accuracy >= 0.65 and "husband" in female_surfaces
    report(4, "planted bias recovered", ok,
           f"cv mean {cv.mean_accuracy:.3f}, female top-10 {female_surfaces[:3]}...")


# ----------------------------------------------------------------------
# 4b. At its defaults the SVM beats the zero model (objective 1.0) on
#     criterion 4's corpus, in every cross-validation fold and on all the data

@pytest.mark.parametrize("seed", [42, 43, 44])
def test_svm_defaults_beat_the_zero_model_on_the_criterion_04_corpus(tmp_path, monkeypatch, seed):
    out = tmp_path / "synth"
    assert cli.main(["gen-synth", "--out", str(out), "--seed", str(seed), "--n", "2000",
                     "--balance", "0.5", "--planted", "husband:0.10:0.01"]) == 0
    instances = pipeline.build_instances(corpus.load_articles(out / "articles.jsonl"),
                                         corpus.load_registry(out / "registry.json"))
    dataset, _ = pipeline.build_dataset(instances, scheme="unigram", representation="boolean", min_df=3)
    fits = []

    def recorded(ds, **kwargs):
        fits.append(train_svm(ds, **kwargs))
        return fits[-1]

    monkeypatch.setattr(learn, "train_svm", recorded)
    cross_validate(dataset, "svm", k=10, seed=7)
    fits.append(train_svm(dataset))
    best = [min(model.epoch_objectives) for model in fits]
    assert len(fits) == 11
    assert max(best) < 1.0, best
    model = fits[-1]
    objective = svm_objective(model.weights, model.bias, dataset, learn.DEFAULT_SVM_LAMBDA)
    assert objective == pytest.approx(best[-1], abs=1e-12)


# ----------------------------------------------------------------------
# 4c. rank (tf-idf, otherwise the default config) puts the planted term
#     first for the female class on the benchmark's wide-vocabulary corpus

@pytest.mark.parametrize("seed", [1, 201])
def test_rank_puts_the_planted_term_first_on_the_wide_vocab_corpus(tmp_path, seed):
    inputs = tmp_path / "inputs"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"), "--workload", "wide-vocab",
                    "--seed", str(seed), "--out", str(inputs)], check=True, capture_output=True, timeout=120)
    config = {"seed": seed, "features": {"representation": "tfidf"},
              "paths": {"articles": str(inputs / "articles.jsonl"), "registry": str(inputs / "registry.json")}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["rank", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 0
    ranked = json.loads((tmp_path / "out" / "ranked_features.json").read_text())
    assert ranked["female"][0]["surface"] == "husband", ranked["female"][:3]


# ----------------------------------------------------------------------
# 5. Null-signal calibration: all classifiers near chance

def test_criterion_05_null_signal_calibration():
    articles, registry = synth.generate_corpus(1000, balance=0.5, planted=(), seed=11)
    instances = pipeline.build_instances(articles, registry)
    dataset, _ = pipeline.build_dataset(
        instances, scheme="unigram", representation="boolean", min_df=3
    )
    means = {}
    for clf in ("svm", "nb-bernoulli", "tree"):
        means[clf] = cross_validate(dataset, clf, k=10, seed=5, descriptor=clf).mean_accuracy
    ok = all(0.45 <= m <= 0.55 for m in means.values())
    report(5, "no signal stays at chance", ok,
           ", ".join(f"{c} {m:.3f}" for c, m in means.items()))


# ----------------------------------------------------------------------
# 6. Stratified folds: exact and within-one proportionality

def test_criterion_06_stratification():
    balanced = make_dataset([([0], F)] * 50 + [([1], M)] * 50, n_features=2)
    folds10 = stratified_folds(balanced, k=10, seed=3)
    exact = all(
        len(f) == 10
        and sum(1 for i in f if balanced.labels[i] == F) == 5
        for f in folds10
    )
    skewed = make_dataset([([0], F)] * 12 + [([1], M)] * 8, n_features=2)
    folds4 = stratified_folds(skewed, k=4, seed=3)
    within_one = all(
        abs(sum(1 for i in f if skewed.labels[i] == F) - 12 * len(f) / 20) <= 1
        and abs(sum(1 for i in f if skewed.labels[i] == M) - 8 * len(f) / 20) <= 1
        for f in folds4
    )
    report(6, "stratification", exact and within_one,
           f"balanced folds exact: {exact}, 12/8 within one: {within_one}")


# ----------------------------------------------------------------------
# 7. Undersampling: exact balance, sub-multiset, seed-stable

def test_criterion_07_undersampling():
    ds = make_dataset([([0], M)] * 30 + [([1], F)] * 10, n_features=2)
    first = undersample(ds, seed=21)
    second = undersample(ds, seed=21)
    balanced = first.class_counts() == {F: 10, M: 10}
    rows = list(zip(ds.vectors, ds.labels))
    it = iter(rows)
    submultiset = all(row in it for row in zip(first.vectors, first.labels))
    stable = first.vectors == second.vectors and first.labels == second.labels
    report(7, "undersampling", balanced and submultiset and stable,
           f"balanced {balanced}, sub-multiset {submultiset}, stable {stable}")


# ----------------------------------------------------------------------
# 8. Published-count arithmetic fixtures

def test_criterion_08_rate_and_baseline_arithmetic():
    ratio = interpret.rate_ratio(
        interpret.RateStat(term="husband", group=F, count=48, years=38.6),
        interpret.RateStat(term="wife", group=M, count=27, years=84.1),
    )
    baseline = majority_baseline(
        make_dataset([([0], F)] * 52 + [([1], M)] * 48, n_features=2)
    )
    ok = abs(ratio.value - 3.87) <= 0.01 and round(ratio.value) == 4 and baseline == pytest.approx(0.52, abs=1e-12)
    report(8, "published-count arithmetic", ok,
           f"spouse ratio {ratio.value:.4f}, baseline {baseline:.2f}")


# ----------------------------------------------------------------------
# 9. KWIC equals a brute-force scan on 50 random small articles

def test_criterion_09_kwic_brute_force():
    articles, registry = synth.generate_corpus(
        50, seed=17, planted=(synth.PlantedTerm("budget", 0.05, 0.05),)
    )
    views = pipeline.build_doc_views(articles, registry, masked=False)
    window = 6
    got = interpret.kwic(views, "budget", window=window)
    expected = []
    for doc in sorted(views, key=lambda d: d.article_id):
        surfaces = [t.surface for t in doc.stream.tokens]
        for i, s in enumerate(surfaces):
            if s == "budget":
                expected.append((
                    doc.article_id, i,
                    tuple(surfaces[max(0, i - window): i]),
                    "budget",
                    tuple(surfaces[i + 1: i + 1 + window]),
                ))
    ours = [(l.article_id, l.position, l.left, l.keyword, l.right) for l in got]
    truncated = any(len(l.left) < window or len(l.right) < window for l in got)
    report(9, "kwic equals brute-force scan", ours == expected and len(got) > 0,
           f"{len(got)} lines, boundary truncation exercised: {truncated}")


# ----------------------------------------------------------------------
# 10. Masking: no gendered tokens survive, one marker per mention, idempotent

def test_criterion_10_masking_completeness():
    articles, registry = synth.generate_corpus(300, seed=31)
    scans = corpus.scan_corpus(articles, registry)
    leaked = 0
    marker_mismatch = 0
    not_idempotent = 0
    for scan in scans:
        masked = preprocess.mask_gender_signals(scan.stream, scan.mention_spans)
        leaked += sum(
            1 for t in masked.tokens if t.kind == WORD and t.surface in DEFAULT_GENDERED_SIGNALS
        )
        markers = sum(1 for t in masked.tokens if t.kind == MARKER)
        if markers != len(scan.mention_spans):
            marker_mismatch += 1
        if preprocess.mask_gender_signals(masked, []) != masked:
            not_idempotent += 1
    # the generator plants pronouns and titles, so masking had real work to do
    had_signals = any(
        t.surface in DEFAULT_GENDERED_SIGNALS for s in scans for t in s.stream.tokens
    )
    ok = leaked == 0 and marker_mismatch == 0 and not_idempotent == 0 and had_signals
    report(10, "masking completeness", ok,
           f"leaks {leaked}, marker mismatches {marker_mismatch}, non-idempotent {not_idempotent}")


# ----------------------------------------------------------------------
# 11. Sweep outputs byte-identical for identical config and seed

def test_criterion_11_sweep_determinism(tmp_path):
    data = tmp_path / "data"
    cli.main([
        "gen-synth", "--out", str(data), "--seed", "99", "--n", "120",
        "--planted", "husband:0.4:0.01",
    ])
    config = {
        "seed": 7,
        "paths": {
            "articles": str(data / "articles.jsonl"),
            "registry": str(data / "registry.json"),
        },
        "features": {"min_df": 2},
        "classifier": {"lam": 0.001, "epochs": 60},
        "evaluate": {"k": 4},
        "sweep": {
            "schemes": ["unigram/article", "nameform/article"],
            "representations": ["boolean"],
            "classifiers": ["svm", "nb-bernoulli"],
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    def run_to(out: Path) -> dict[str, bytes]:
        assert cli.main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
        return {
            str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }

    first = run_to(tmp_path / "run1")
    second = run_to(tmp_path / "run2")
    ok = first == second and "sweep_summary.csv" in first and "sweep_summary.json" in first
    report(11, "sweep byte-determinism", ok, f"{len(first)} files compared")


# ----------------------------------------------------------------------
# 12. Representation laws

def test_criterion_12_representation_laws():
    docs = [
        Counter({("everywhere", "unigram"): 1, ("twice", "unigram"): 2}),
        Counter({("everywhere", "unigram"): 3}),
        Counter({("everywhere", "unigram"): 1, ("other", "unigram"): 1}),
    ]
    space = features.build_space(docs, min_df=1)
    indicator_ok = True
    for doc in docs:
        boolean = features.vectorize(doc, space, "boolean")
        count = features.vectorize(doc, space, "count")
        indicator_ok &= boolean.ids == count.ids and all(v == 1.0 for v in boolean.values)
    tfidf0 = features.vectorize(docs[1], space, "tfidf")
    everywhere_dropped = space.id_of("everywhere", "unigram") not in tfidf0.ids
    tfidf = features.vectorize(docs[0], space, "tfidf")
    got = dict(zip(tfidf.ids, tfidf.values))[space.id_of("twice", "unigram")]
    hand = 2 * math.log(3 / 1)
    ok = indicator_ok and everywhere_dropped and abs(got - hand) <= 1e-9
    report(12, "representation laws", ok,
           f"indicator {indicator_ok}, zero-idf dropped {everywhere_dropped}, |Δtfidf| = {abs(got - hand):.1e}")
