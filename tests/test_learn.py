"""Classifiers against independent oracles; folds, sampling, evaluation."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbias.errors import ConfigError, DataError
from newsbias.learn import (
    SVM_GAP_TOLERANCE,
    _cutting_planes,
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
from newsbias.rng import Rng

from util import make_dataset, make_vec

F, M = "female", "male"


# --- undersample ---

def test_undersample_balances_30_10():
    ds = make_dataset([([0], M)] * 30 + [([1], F)] * 10, n_features=2)
    got = undersample(ds, seed=9)
    assert got.class_counts() == {F: 10, M: 10}


def test_undersample_is_submultiset_and_deterministic():
    ds = make_dataset([([0], M)] * 30 + [([1], F)] * 10, n_features=2)
    a = undersample(ds, seed=7)
    b = undersample(ds, seed=7)
    assert a.vectors == b.vectors and a.labels == b.labels
    # order-preserving subset of the input rows
    rows = list(zip(ds.vectors, ds.labels))
    it = iter(rows)
    assert all(row in it for row in zip(a.vectors, a.labels))


def test_undersample_different_seeds_differ():
    ds = make_dataset([([i % 3], M) for i in range(40)] + [([1], F)] * 5, n_features=3)
    picks = {undersample(ds, seed=s).vectors for s in range(6)}
    assert len(picks) > 1


def test_undersample_balanced_identity():
    ds = make_dataset([([0], F)] * 10 + [([1], M)] * 10, n_features=2)
    assert undersample(ds, seed=0) is ds


def test_undersample_single_class_error():
    ds = make_dataset([([0], F)] * 5, n_features=1)
    with pytest.raises(DataError):
        undersample(ds, seed=0)


# --- stratified_folds ---

def test_folds_100_balanced_k10():
    ds = make_dataset([([0], F)] * 50 + [([1], M)] * 50, n_features=2)
    folds = stratified_folds(ds, k=10, seed=4)
    assert len(folds) == 10
    for fold in folds:
        assert len(fold) == 10
        labels = [ds.labels[i] for i in fold]
        assert labels.count(F) == 5 and labels.count(M) == 5


def test_folds_12_8_k4():
    ds = make_dataset([([0], F)] * 12 + [([1], M)] * 8, n_features=2)
    folds = stratified_folds(ds, k=4, seed=1)
    for fold in folds:
        labels = [ds.labels[i] for i in fold]
        assert len(fold) == 5
        assert labels.count(F) == 3 and labels.count(M) == 2


def test_folds_partition_law():
    ds = make_dataset([([0], F)] * 13 + [([1], M)] * 9, n_features=2)
    folds = stratified_folds(ds, k=3, seed=2)
    flat = sorted(i for fold in folds for i in fold)
    assert flat == list(range(22))


def test_folds_proportionality_within_one():
    ds = make_dataset([([0], F)] * 17 + [([1], M)] * 29, n_features=2)
    k = 5
    folds = stratified_folds(ds, k=k, seed=8)
    for fold in folds:
        labels = [ds.labels[i] for i in fold]
        for label, total in ((F, 17), (M, 29)):
            exact = total * len(fold) / 46
            assert abs(labels.count(label) - exact) <= 1


def test_folds_class_smaller_than_k():
    ds = make_dataset([([0], F)] * 3 + [([1], M)] * 20, n_features=2)
    with pytest.raises(DataError):
        stratified_folds(ds, k=5, seed=0)


def test_folds_deterministic():
    ds = make_dataset([([0], F)] * 20 + [([1], M)] * 20, n_features=2)
    assert stratified_folds(ds, 4, seed=11) == stratified_folds(ds, 4, seed=11)


# --- SVM ---

def separable_dataset(scale=1.0):
    rows = [
        ([(0, 1.0 * scale)], F),
        ([(0, 1.0 * scale)], F),
        ([(0, 1.0 * scale)], F),
        ([(0, 1.0 * scale), (1, 0.5 * scale)], F),
        ([(1, 1.0 * scale)], M),
        ([(1, 1.0 * scale)], M),
        ([(1, 1.0 * scale)], M),
        ([(0, 0.5 * scale), (1, 1.0 * scale)], M),
    ]
    return make_dataset(rows, n_features=2, representation="count")


def train_accuracy(model, ds):
    return sum(predict(model, v) == l for v, l in zip(ds.vectors, ds.labels)) / len(ds)


def test_svm_single_predictive_feature():
    ds = make_dataset([([0], F)] * 4 + [([], M)] * 4, n_features=1)
    model = train_svm(ds, lam=0.01, epochs=100)
    assert model.weights[0] > 0
    assert train_accuracy(model, ds) == 1.0


def test_svm_all_zero_vectors():
    ds = make_dataset([([], F)] * 3 + [([], M)] * 3, n_features=2)
    model = train_svm(ds, lam=0.01, epochs=5)
    assert list(model.weights) == [0.0, 0.0]
    # prediction falls to the bias/tie rule
    assert predict(model, make_vec([])) in (F, M)


def test_svm_objective_vs_random_search_oracle():
    # The oracle upper-bounds the achievable objective with 10k uniform
    # samples of (w, b) in [-10, 10]^3; training must land within 5%.
    ds = separable_dataset()
    lam = 0.01
    model = train_svm(ds, lam=lam, epochs=300)
    assert train_accuracy(model, ds) == 1.0
    ours = svm_objective(model.weights, model.bias, ds, lam)
    rng = Rng(12345)
    oracle = math.inf
    for _ in range(10_000):
        w = np.array([rng.random() * 20 - 10, rng.random() * 20 - 10])
        b = rng.random() * 20 - 10
        oracle = min(oracle, svm_objective(w, b, ds, lam))
    assert ours <= 1.05 * oracle


def test_svm_scaled_inputs_still_separate():
    ds = separable_dataset(scale=10.0)
    model = train_svm(ds, lam=0.01, epochs=300)
    assert train_accuracy(model, ds) == 1.0


def test_svm_epoch_objectives_recorded():
    # the separable fixture stops early; the first noisy one runs to its cap;
    # the second stops early, its recorded objective lowest before the last iteration
    for ds, lam, epochs, early in ((separable_dataset(), 0.01, 50, True),
                                   (random_dataset(120, 25, seed=4), 1e-4, 5, False),
                                   (random_dataset(60, 10, seed=12), 0.01, 500, True)):
        model = train_svm(ds, lam=lam, epochs=epochs)
        assert 1 <= len(model.epoch_objectives) == model.iterations <= epochs
        assert (model.iterations < epochs) == early
        if early:
            assert model.gap <= SVM_GAP_TOLERANCE
        final = svm_objective(model.weights, model.bias, ds, lam)
        # the returned model is the iterate scoring lowest: the recorded minimum
        assert final == pytest.approx(min(model.epoch_objectives), abs=1e-12)


def test_svm_deterministic():
    ds = separable_dataset()
    a = train_svm(ds, lam=0.01, epochs=30)
    b = train_svm(ds, lam=0.01, epochs=30)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def solver_objective(weights, bias, ds, lam):
    """The objective the solver minimises: svm_objective with the bias regularised too."""
    return svm_objective(weights, bias, ds, lam) + 0.5 * lam * bias * bias


def dual_coordinate_descent(ds, lam, passes):
    """Reference fit: dual coordinate descent (Hsieh et al., ICML 2008) on
    1/2 ||v||^2 + C sum of hinges, C = 1 / (lam n), whose minimiser is the
    solver's; v is (w, b), each row carrying a constant 1 for the bias. Rows
    are visited in order, one at a time. Returns (w, b, dual value scaled to
    the solver's objective), the dual value a lower bound on its minimum."""
    n, dim = len(ds), len(ds.space)
    x = np.zeros((n, dim + 1))
    for r, vector in enumerate(ds.vectors):
        x[r, list(vector.ids)] = vector.values
    x[:, dim] = 1.0
    y = np.array([1.0 if label == F else -1.0 for label in ds.labels])
    c = 1.0 / (lam * n)
    alpha, v = np.zeros(n), np.zeros(dim + 1)
    norms = (x * x).sum(axis=1)
    for _ in range(passes):
        for i in range(n):
            new = min(max(alpha[i] - (y[i] * (v @ x[i]) - 1.0) / norms[i], 0.0), c)
            v += (new - alpha[i]) * y[i] * x[i]
            alpha[i] = new
    return v[:dim], float(v[dim]), lam * (float(alpha.sum()) - 0.5 * float(v @ v))


def count_dataset(n, n_features, seed):
    """Counts 1-5 on up to four features; feature 0 makes female likelier, not certain."""
    rng = Rng(seed)
    rows = []
    for _ in range(n):
        ids = sorted({rng.randbelow(n_features) for _ in range(4)})
        label = F if rng.random() < (0.7 if 0 in ids else 0.3) else M
        rows.append(([(j, 1.0 + rng.randbelow(5)) for j in ids], label))
    return make_dataset(rows, n_features=n_features, representation="count")


@pytest.mark.parametrize("ds, lam", [(lambda: random_dataset(60, 10, seed=12), 0.01),
                                     (lambda: count_dataset(50, 6, seed=3), 0.01)], ids=["boolean", "count"])
def test_svm_agrees_with_a_long_run_dual_coordinate_descent(ds, lam):
    ds = ds()
    w, b, lower = dual_coordinate_descent(ds, lam, passes=3000)
    reference = solver_objective(w, b, ds, lam)
    assert reference - lower <= 1e-6 * reference  # the reference is converged
    # the solver's best point when its gap is certified, as train_svm stops it
    for iterations, (point, objective, lower) in zip(range(1, 501), _cutting_planes(ds, lam)):
        if objective - lower <= SVM_GAP_TOLERANCE * objective:
            break
    assert lower <= reference <= objective + 1e-9
    assert objective - reference <= 1e-3 * reference
    # train_svm stops there too and returns a model no worse on the documented objective
    model = train_svm(ds, lam=lam, epochs=500)
    assert model.iterations == iterations < 500
    assert model.gap == pytest.approx((objective - lower) / objective, abs=1e-15)
    assert svm_objective(model.weights, model.bias, ds, lam) <= svm_objective(point[:-1], point[-1], ds, lam)


@st.composite
def small_problems(draw):
    """A small dataset, count-valued or boolean, a lam, and points (w, b) to test at."""
    n_features = draw(st.integers(1, 4))
    count = draw(st.booleans())
    value = st.floats(0.1, 10.0) if count else st.just(1.0)
    rows = draw(st.lists(st.tuples(st.dictionaries(st.integers(0, n_features - 1), value, max_size=n_features),
                                   st.sampled_from([F, M])), min_size=2, max_size=12))
    ds = make_dataset([(sorted(ids.items()), label) for ids, label in rows], n_features=n_features,
                      representation="count" if count else "boolean")
    coordinate = st.floats(-10.0, 10.0)
    points = draw(st.lists(st.tuples(st.lists(coordinate, min_size=n_features, max_size=n_features), coordinate),
                           min_size=1, max_size=5))
    return ds, draw(st.sampled_from([1e-4, 1e-2, 1.0])), points


@settings(max_examples=150, deadline=None)
@given(small_problems())
def test_svm_lower_bound_never_exceeds_the_objective(problem):
    ds, lam, points = problem
    lowers = []
    for _, (point, objective, lower) in zip(range(8), _cutting_planes(ds, lam)):
        assert lower <= objective + 1e-9 * objective
        lowers.append(lower)
    for w, b in points:
        value = solver_objective(np.array(w), b, ds, lam)
        assert max(lowers) <= value + 1e-9 * max(1.0, value)


def test_svm_rejects_bad_params():
    ds = separable_dataset()
    with pytest.raises(ConfigError):
        train_svm(ds, lam=0.0)
    with pytest.raises(ConfigError):
        train_svm(ds, epochs=0)


# --- Naive Bayes vs brute-force enumeration ---

TOY_ROWS = [
    ((0, 2), F),
    ((0,), F),
    ((0, 1, 3), F),
    ((1,), M),
    ((1, 3), M),
    ((2, 3), M),
]
TOY_DIM = 4


def bernoulli_oracle(rows, dim, alpha, x_ids):
    """Exact posterior by direct probability products over all features."""
    joint = {}
    for c in (F, M):
        class_rows = [ids for ids, lab in rows if lab == c]
        prior = Fraction(len(class_rows), len(rows))
        p = prior
        for j in range(dim):
            present = sum(1 for ids in class_rows if j in ids)
            theta = Fraction(present + alpha, len(class_rows) + 2 * alpha)
            p *= theta if j in x_ids else 1 - theta
        joint[c] = p
    total = joint[F] + joint[M]
    return {c: math.log(float(joint[c] / total)) for c in (F, M)}


def multinomial_oracle(rows, dim, alpha, x_counts):
    joint = {}
    for c in (F, M):
        class_rows = [counts for counts, lab in rows if lab == c]
        prior = Fraction(len(class_rows), len(rows))
        totals = sum(sum(counts.values()) for counts in class_rows)
        p = prior
        for j, x_j in x_counts.items():
            n_j = sum(counts.get(j, 0) for counts in class_rows)
            theta = Fraction(n_j + alpha, totals + alpha * dim)
            p *= theta**x_j
        joint[c] = p
    total = joint[F] + joint[M]
    return {c: math.log(float(joint[c] / total)) for c in (F, M)}


def test_nb_bernoulli_matches_enumeration():
    ds = make_dataset([(list(ids), lab) for ids, lab in TOY_ROWS], n_features=TOY_DIM)
    model = train_nb(ds, variant="bernoulli", alpha=1.0)
    queries = [ids for ids, _ in TOY_ROWS] + [(), (0, 1, 2, 3), (3,)]
    for ids in queries:
        got = nb_log_posterior(model, make_vec([(i, 1.0) for i in ids]))
        want = bernoulli_oracle(TOY_ROWS, TOY_DIM, 1, set(ids))
        assert got[F] == pytest.approx(want[F], abs=1e-12)
        assert got[M] == pytest.approx(want[M], abs=1e-12)


def test_nb_multinomial_matches_enumeration():
    rows = [
        ({0: 2, 2: 1}, F),
        ({0: 1}, F),
        ({0: 1, 1: 3}, F),
        ({1: 2}, M),
        ({1: 1, 3: 2}, M),
        ({2: 1, 3: 1}, M),
    ]
    ds = make_dataset(
        [([(j, c) for j, c in counts.items()], lab) for counts, lab in rows],
        n_features=TOY_DIM,
        representation="count",
    )
    model = train_nb(ds, variant="multinomial", alpha=1.0)
    for counts, _ in rows + [({0: 1, 3: 1}, None), ({2: 4}, None)]:
        got = nb_log_posterior(model, make_vec([(j, c) for j, c in counts.items()], "count"))
        want = multinomial_oracle(rows, TOY_DIM, 1, counts)
        assert got[F] == pytest.approx(want[F], abs=1e-12)
        assert got[M] == pytest.approx(want[M], abs=1e-12)


def test_nb_large_alpha_flattens_to_priors():
    ds = make_dataset([(list(ids), lab) for ids, lab in TOY_ROWS], n_features=TOY_DIM)
    query = make_vec([(0, 1.0)])
    prior_f = math.log(3 / 6)
    gaps = []
    for alpha in (1.0, 10.0, 100.0, 1000.0):
        model = train_nb(ds, variant="bernoulli", alpha=alpha)
        gaps.append(abs(nb_log_posterior(model, query)[F] - prior_f))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.01


def test_nb_mirrored_dataset_mirrors_tables():
    ds = make_dataset([(list(ids), lab) for ids, lab in TOY_ROWS], n_features=TOY_DIM)
    flipped = make_dataset(
        [(list(ids), F if lab == M else M) for ids, lab in TOY_ROWS], n_features=TOY_DIM
    )
    a = train_nb(ds, variant="bernoulli")
    b = train_nb(flipped, variant="bernoulli")
    assert np.allclose(a.feature_log_prob[0], b.feature_log_prob[1])
    assert np.allclose(a.feature_log_prob[1], b.feature_log_prob[0])


def test_nb_representation_mismatch():
    counts = make_dataset([([(0, 2.0)], F), ([(1, 1.0)], M)], n_features=2, representation="count")
    with pytest.raises(ConfigError):
        train_nb(counts, variant="bernoulli")
    tfidf = make_dataset([([(0, 2.5)], F), ([(1, 1.2)], M)], n_features=2, representation="tfidf")
    with pytest.raises(ConfigError):
        train_nb(tfidf, variant="multinomial")


# --- decision tree vs exhaustive depth-2 search ---

def tree_oracle_best_accuracy(rows, n_features):
    """Best training accuracy over all depth <= 2 presence-split trees."""
    labels = [lab for _, lab in rows]
    idx = list(range(len(rows)))

    def leaf_correct(members):
        nf = sum(1 for i in members if labels[i] == F)
        return max(nf, len(members) - nf)

    def split(members, f):
        present = [i for i in members if f in rows[i][0]]
        absent = [i for i in members if f not in rows[i][0]]
        return present, absent

    def best_child(members):
        best = leaf_correct(members)
        for f in range(n_features):
            p, a = split(members, f)
            best = max(best, leaf_correct(p) + leaf_correct(a))
        return best

    best = leaf_correct(idx)
    for root in range(n_features):
        p, a = split(idx, root)
        best = max(best, best_child(p) + best_child(a))
    return best / len(rows)


NOISY_TREE_ROWS = [
    ((0,), F),
    ((0, 2), F),
    ((0, 1), F),
    ((0, 1, 2), F),
    ((1,), M),
    ((1, 2), M),
    ((), F),
    ((2,), M),
]


def test_tree_matches_exhaustive_oracle_perfect():
    rows = [((0,), F), ((0, 2), F), ((0, 1), F), ((0, 1, 2), F),
            ((1,), M), ((1, 2), M), ((), F), ((2,), F)]
    ds = make_dataset([(list(ids), lab) for ids, lab in rows], n_features=3)
    model = train_tree(ds, max_depth=2, min_leaf=1)
    assert train_accuracy(model, ds) == tree_oracle_best_accuracy(rows, 3) == 1.0


def test_tree_matches_exhaustive_oracle_noisy():
    ds = make_dataset([(list(ids), lab) for ids, lab in NOISY_TREE_ROWS], n_features=3)
    model = train_tree(ds, max_depth=2, min_leaf=1)
    assert train_accuracy(model, ds) == tree_oracle_best_accuracy(NOISY_TREE_ROWS, 3) == 7 / 8


def test_tree_single_predictive_feature_depth_one():
    ds = make_dataset([([0], F)] * 4 + [([], M)] * 4, n_features=2)
    model = train_tree(ds, max_depth=5, min_leaf=1)
    assert model.root.feature == 0
    assert model.root.present.feature is None and model.root.absent.feature is None
    assert train_accuracy(model, ds) == 1.0


def test_tree_pure_input_single_leaf():
    ds = make_dataset([([0], F), ([1], F), ([], F)], n_features=2)
    model = train_tree(ds)
    assert model.root.feature is None
    assert model.root.label == F


def test_tree_respects_min_leaf():
    ds = make_dataset([([0], F)] * 2 + [([], M)] * 2, n_features=1)
    model = train_tree(ds, max_depth=5, min_leaf=3)
    assert model.root.feature is None  # 4 < 2*min_leaf, no split allowed


def test_tree_rejects_non_boolean():
    ds = make_dataset([([(0, 2.0)], F), ([(1, 1.0)], M)], n_features=2, representation="count")
    with pytest.raises(ConfigError):
        train_tree(ds)


# --- predict tie-breaks and dimension checks ---

def test_predict_zero_model_ties_female():
    ds = make_dataset([([], F)] * 2 + [([], M)] * 2, n_features=2)
    model = train_svm(ds, lam=0.01, epochs=2)
    assert predict(model, make_vec([(0, 1.0)], "count")) == F


def test_predict_nb_equal_posteriors_female():
    rows = [((0,), F), ((1,), M)]
    ds = make_dataset([(list(ids), lab) for ids, lab in rows], n_features=2)
    model = train_nb(ds, variant="bernoulli")
    # symmetric training data and an empty query: posteriors tie exactly
    assert predict(model, make_vec([])) == F


def test_predict_dimension_mismatch():
    ds = make_dataset([([0], F)] * 2 + [([1], M)] * 2, n_features=2)
    for model in (
        train_svm(ds, lam=0.01, epochs=2),
        train_nb(ds, variant="bernoulli"),
        train_tree(ds),
    ):
        with pytest.raises(ValueError):
            predict(model, make_vec([(5, 1.0)]))


# --- cross_validate ---

def random_dataset(n, n_features, seed, predictive=False):
    rng = Rng(seed)
    rows = []
    for i in range(n):
        label = F if i % 2 == 0 else M
        ids = sorted({rng.randbelow(n_features) for _ in range(6)})
        if predictive:
            marker = 0 if label == F else 1
            ids = sorted(set([marker] + [2 + rng.randbelow(n_features - 2) for _ in range(5)]))
        elif 0 in ids or 1 in ids:
            ids = [i for i in ids if i > 1]
        rows.append((ids, label))
    return make_dataset(rows, n_features=n_features)


def test_cv_chance_on_label_independent_data():
    for seed in (0, 1, 2):
        ds = random_dataset(200, 30, seed=seed + 50)
        report = cross_validate(ds, "nb-bernoulli", k=10, seed=seed)
        assert 0.35 <= report.mean_accuracy <= 0.65


def test_cv_perfect_feature_gives_one():
    ds = random_dataset(100, 20, seed=3, predictive=True)
    params = {"svm": {"lam": 0.01, "epochs": 50}, "nb-bernoulli": {}, "tree": {}}
    for clf in ("svm", "nb-bernoulli", "tree"):
        report = cross_validate(ds, clf, params=params[clf], k=10, seed=6, descriptor=clf)
        assert report.mean_accuracy == 1.0


def test_cv_report_reproducible_bytes():
    ds = random_dataset(60, 15, seed=21)
    a = cross_validate(ds, "svm", k=5, seed=13, descriptor="unigram/article/boolean/svm")
    b = cross_validate(ds, "svm", k=5, seed=13, descriptor="unigram/article/boolean/svm")
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_cv_mean_and_confusion_consistency():
    ds = random_dataset(80, 12, seed=33)
    report = cross_validate(ds, "nb-bernoulli", k=8, seed=5)
    assert report.mean_accuracy == pytest.approx(
        sum(report.per_fold_accuracy) / 8, abs=1e-12
    )
    total = sum(report.confusion[a][p] for a in (F, M) for p in (F, M))
    assert total == len(ds)


def test_cv_undersample_applies_to_training_only():
    # 36 female / 12 male: test folds keep the full imbalance
    ds = make_dataset(
        [([0, 2 + i % 3], F) for i in range(36)] + [([1, 2 + i % 3], M) for i in range(12)],
        n_features=6,
    )
    report = cross_validate(ds, "nb-bernoulli", k=4, seed=2, undersample_train=True)
    tested = sum(report.confusion[a][p] for a in (F, M) for p in (F, M))
    assert tested == 48  # every instance tested exactly once despite undersampling
    actual_f = sum(report.confusion[F].values())
    assert actual_f == 36


def test_cv_all_three_classifiers_learn_perfect_feature():
    ds = random_dataset(60, 10, seed=8, predictive=True)
    for clf in ("svm", "nb-bernoulli", "tree"):
        model = {
            "svm": lambda: train_svm(ds, lam=0.01, epochs=50),
            "nb-bernoulli": lambda: train_nb(ds, variant="bernoulli"),
            "tree": lambda: train_tree(ds),
        }[clf]()
        assert train_accuracy(model, ds) == 1.0


# --- majority_baseline ---

def test_majority_baseline_52_48():
    ds = make_dataset([([0], F)] * 52 + [([1], M)] * 48, n_features=2)
    assert majority_baseline(ds) == pytest.approx(0.52, abs=1e-12)


def test_majority_baseline_balanced():
    ds = make_dataset([([0], F), ([1], M)], n_features=2)
    assert majority_baseline(ds) == 0.5


def test_majority_baseline_single_class():
    ds = make_dataset([([0], F), ([1], F)], n_features=2)
    assert majority_baseline(ds) == 1.0
