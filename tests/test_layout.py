"""The CSR layout the learners share, against per-vector references.

The references below are the per-vector algorithms the learners used
before the layout: one row at a time, straight from each FeatureVector.
Table entries and tree structure must match exactly; objectives and
scores, whose sums now run in another order, within rounding. A dataset's
CSR is checked against vectorize row by row, and the rows its subsets
pick against string-label references.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbias import features, learn, pipeline
from newsbias.corpus import GENDERS
from newsbias.interpret import rank_features
from newsbias.learn import (
    TreeNode,
    cross_validate,
    fold_plan,
    predict,
    svm_objective,
    train_nb,
    train_svm,
    train_tree,
    undersample,
)
from newsbias.errors import DataError
from newsbias.preprocess import TokenStream, split_sentences
from newsbias.rng import Rng

from util import folds_of, instances_of, make_dataset, make_space, make_vec, ref_folds, space_of, terms_of

F, M = "female", "male"

SETTINGS = settings(max_examples=60, deadline=None)


# --- per-vector references ---

def arrays(vector):
    return np.asarray(vector.ids, dtype=np.int64), np.asarray(vector.values, dtype=np.float64)


def ref_nb_counts(ds, variant):
    accum = np.zeros((2, len(ds.space)))
    for vector, label in zip(ds.vectors, ds.labels):
        ids, values = arrays(vector)
        accum[0 if label == F else 1][ids] += 1.0 if variant == "bernoulli" else values
    return accum


def ref_svm_objective(weights, bias, ds, lam):
    total = 0.0
    for vector, label in zip(ds.vectors, ds.labels):
        ids, values = arrays(vector)
        margin = float(weights[ids] @ values) + bias if len(ids) else bias
        total += max(0.0, 1.0 - (1.0 if label == F else -1.0) * margin)
    return 0.5 * lam * float(weights @ weights) + total / len(ds)


def ref_entropy(counts_a, counts_b):
    """The tree's split entropy as the recursive grower computed it."""
    total = counts_a + counts_b
    out = np.zeros_like(total, dtype=float)
    nz = total > 0
    for part in (counts_a, counts_b):
        p = np.zeros_like(out)
        p[nz] = part[nz] / total[nz]
        pos = p > 0
        out[pos] -= p[pos] * np.log2(p[pos])
    return out


def ref_tree(ds, max_depth, min_leaf):
    member = [set(v.ids) for v in ds.vectors]
    labels = [0 if lab == F else 1 for lab in ds.labels]
    dim = len(ds.space)

    def entropy(a, b):
        return ref_entropy(np.asarray(a, dtype=float), np.asarray(b, dtype=float))

    def grow(rows, depth):
        nf = sum(1 for i in rows if labels[i] == 0)
        nm = len(rows) - nf
        if nf == 0 or nm == 0 or depth >= max_depth or len(rows) < 2 * min_leaf:
            return TreeNode(nf, nm)
        pf, pm = np.zeros(dim), np.zeros(dim)
        for i in rows:
            for j in member[i]:
                (pf if labels[i] == 0 else pm)[j] += 1.0
        af, am = nf - pf, nm - pm
        n_present, n_absent = pf + pm, af + am
        node = entropy([float(nf)], [float(nm)])[0]
        gain = node - (n_present * entropy(pf, pm) + n_absent * entropy(af, am)) / len(rows)
        split = entropy(n_present, n_absent)
        valid = (n_present > 0) & (n_absent > 0) & (gain > learn._GAIN_EPS) & (split > 0)
        if not valid.any():
            return TreeNode(nf, nm)
        feature = int(np.argmax(np.where(valid, gain / np.where(split > 0, split, 1.0), -np.inf)))
        return TreeNode(
            nf, nm, feature,
            present=grow([i for i in rows if feature in member[i]], depth + 1),
            absent=grow([i for i in rows if feature not in member[i]], depth + 1),
        )

    return grow(list(range(len(ds))), 0)


def ref_female_margin(model, vector):
    """Score whose sign gives the prediction: >= 0 means female."""
    ids, values = arrays(vector)
    if isinstance(model, learn.LinearModel):
        return (float(model.weights[ids] @ values) if len(ids) else 0.0) + model.bias
    if model.variant == "bernoulli":
        joint = model.class_log_prior + model.absent_log_prob.sum(axis=1)
        if len(ids):
            joint = joint + (model.feature_log_prob[:, ids] - model.absent_log_prob[:, ids]).sum(axis=1)
    else:
        joint = model.class_log_prior + (model.feature_log_prob[:, ids] @ values if len(ids) else 0.0)
    return float(joint[0] - joint[1])


def ref_tree_predict(model, vector):
    node = model.root
    while node.feature is not None:
        node = node.present if node.feature in vector.ids else node.absent
    return node.label


def ref_undersample(labels, seed):
    """Row positions undersample keeps, computed over string labels."""
    n_female, n_male = labels.count(F), labels.count(M)
    if n_female == n_male:
        return list(range(len(labels)))
    minority = F if n_female < n_male else M
    majority_idx = [i for i, lab in enumerate(labels) if lab != minority]
    keep = {i for i, lab in enumerate(labels) if lab == minority}
    positions = list(range(len(majority_idx)))
    Rng(seed).shuffle(positions)
    keep.update(majority_idx[p] for p in positions[:labels.count(minority)])
    return sorted(keep)


# --- strategies ---

def draw_label(draw, i):
    # both classes always present
    return F if i == 0 else M if i == 1 else draw(st.sampled_from([F, M]))


def with_subsets(draw, rows, dim, representation):
    """The dataset of the rows, then a subset of it and a subset of that
    subset, both of which may repeat rows."""
    n = len(rows)
    root = make_dataset(rows, n_features=dim, representation=representation)
    first = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2 * n))
    sub = root.subset(first)
    second = draw(st.lists(st.integers(-len(sub), len(sub) - 1), min_size=2, max_size=2 * n))
    return root, sub, sub.subset(second)


@st.composite
def datasets(draw, representation=None):
    """A small dataset, then a subset of it and a subset of that subset."""
    representation = representation or draw(st.sampled_from(["boolean", "count"]))
    dim = draw(st.integers(1, 12))
    rows = []
    for i in range(draw(st.integers(4, 30))):
        ids = draw(st.sets(st.integers(0, dim - 1), max_size=dim))
        if representation == "boolean":
            pairs = [(j, 1.0) for j in ids]
        else:
            pairs = [(j, float(draw(st.integers(1, 5)))) for j in ids]
        rows.append((pairs, draw_label(draw, i)))
    return with_subsets(draw, rows, dim, representation)


@st.composite
def tree_datasets(draw):
    """A boolean dataset of up to 64 features and 120 rows whose features
    copy a few base columns, so that splits tie exactly, and its subsets."""
    dim = draw(st.integers(1, 64))
    n_base = draw(st.integers(1, min(dim, 12)))
    source = list(range(n_base)) + draw(st.lists(st.integers(0, n_base - 1), min_size=dim - n_base,
                                                 max_size=dim - n_base))
    rows = []
    for i in range(draw(st.integers(4, 120))):
        base = draw(st.sets(st.integers(0, n_base - 1), max_size=n_base))
        rows.append(([j for j in range(dim) if source[j] in base], draw_label(draw, i)))
    return with_subsets(draw, rows, dim, "boolean")


def lopsided_rows(seed, dim, n, n_common):
    """n rows over dim features: the first n_common features, each in about 70% of
    the female rows and 30% of the male ones, split the rows about evenly; one or
    two rare features per row, most leaning to its label (even ids to female, odd to
    male), split a few rows off at a time."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        label = F if i == 0 else M if i == 1 else rng.choice([F, M])
        ids = {j for j in range(n_common) if rng.random() < (0.7 if label == F else 0.3)}
        for _ in range(rng.randint(1, 2)):
            even = (rng.random() < 0.8) == (label == F)
            ids.add(n_common + 2 * rng.randrange((dim - n_common) // 2) + (not even))
        rows.append((sorted(ids), label))
    return rows


@st.composite
def wide_tree_datasets(draw):
    """A boolean dataset of hundreds of features and short rows, whose widest nodes
    lose a few rows a level, a resample of its rows with repeats, and its rows
    under-sampled: in a node of as many female as male rows, mirrored pairs of
    counts tie."""
    dim = draw(st.integers(100, 500))
    n = draw(st.integers(40, 250))
    rows = lopsided_rows(draw(st.integers(0, 2**32 - 1)), dim, n, draw(st.integers(0, 3)))
    root = make_dataset(rows, n_features=dim)
    seed = draw(st.integers(0, 2**32 - 1))
    return root, root.subset(random.Random(seed).choices(range(n), k=n)), undersample(root, seed)


def both_classes(ds):
    return set(ds.labels) == {F, M}


# --- properties ---

@SETTINGS
@given(datasets())
def test_subsets_share_vectors_and_address_the_root(sets):
    root, sub, subsub = sets
    for ds in (sub, subsub):
        assert ds.csr is root.csr and ds.y is root.y
        for vector, label, row in zip(ds.vectors, ds.labels, ds.rows.tolist()):
            assert vector is root.vectors[row]
            assert root.y[row] == (label != F)


@SETTINGS
@given(datasets(), st.sampled_from(["bernoulli", "multinomial"]))
def test_nb_tables_match_reference(sets, variant):
    for ds in sets:
        if not both_classes(ds) or (variant == "bernoulli" and ds.vectors[0].representation != "boolean"):
            continue
        model = train_nb(ds, variant=variant, alpha=1.0)
        counts = ref_nb_counts(ds, variant)
        if variant == "bernoulli":
            n = np.array([[ds.labels.count(F)], [ds.labels.count(M)]], dtype=float)
            want = np.log((counts + 1.0) / (n + 2.0))
        else:
            want = np.log((counts + 1.0) / (counts.sum(axis=1, keepdims=True) + len(ds.space)))
        assert np.array_equal(model.feature_log_prob, want)


@SETTINGS
@given(tree_datasets(), st.integers(1, 10), st.integers(1, 3), st.sampled_from([learn._COUNT_CELLS, 8, 40, 300]))
def test_tree_structure_matches_reference(sets, max_depth, min_leaf, count_cells):
    # small tables: nodes counted in groups, features in ranges, and pairs too large for the pair table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learn, "_COUNT_CELLS", count_cells)
        for ds in sets:
            model = train_tree(ds, max_depth=max_depth, min_leaf=min_leaf)
            assert model.root == ref_tree(ds, max_depth, min_leaf)


@SETTINGS
@given(wide_tree_datasets(), st.integers(1, 10), st.integers(1, 3), st.sampled_from([8, 4, 2]),
       st.sampled_from([learn._COUNT_CELLS, 300]))
def test_wide_tree_structure_matches_reference(sets, max_depth, min_leaf, wide, count_cells):
    # a smaller _WIDE lowers the bar to dense counts: nodes cross it both ways, and small tables count in ranges
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learn, "_WIDE", wide)
        patch.setattr(learn, "_COUNT_CELLS", count_cells)
        for ds in sets:
            model = train_tree(ds, max_depth=max_depth, min_leaf=min_leaf)
            assert model.root == ref_tree(ds, max_depth, min_leaf)


def test_wide_nodes_keep_dense_counts_until_they_narrow(monkeypatch):
    ds = make_dataset(lopsided_rows(11, 298, 243, 1), n_features=298)
    levels = []
    advance = learn._WideNodes.advance

    def spy(self, grows, larger, counted):
        split = int((self.node >= 0).sum())
        pieces = advance(self, grows, larger, counted)
        levels.append((split, len(self.node), len(pieces) > 1))
        return pieces

    monkeypatch.setattr(learn._WideNodes, "advance", spy)
    model = train_tree(ds, max_depth=10, min_leaf=1)
    assert model.root == ref_tree(ds, 10, 1)
    # (dense nodes that split above, dense nodes now, whether one fell back to cells):
    # the root is dense, its smaller child joins it, and one of them later narrows
    assert levels[:2] == [(0, 1, False), (1, 2, False)]
    assert any(narrowed for _, _, narrowed in levels[2:])


def test_mirrored_pairs_of_a_dense_node_split_on_the_lowest_id(monkeypatch):
    # feature 0 is in two female rows, feature 1 in two male ones: in a node of as many of each the two
    # splits score alike, and the lower pair code is feature 1's
    monkeypatch.setattr(learn, "_WIDE", 1)  # every node holding every feature is dense
    ds = make_dataset([([0], F), ([0], F), ([], F), ([], F), ([1], M), ([1], M), ([], M), ([], M)], n_features=2)
    model = train_tree(ds, max_depth=1, min_leaf=1)
    assert model.root == ref_tree(ds, 1, 1)
    assert model.root.feature == 0


@pytest.mark.parametrize("dim", [20_000, 200_000])
def test_tree_growth_holds_at_most_the_count_cells(dim):
    # bushy and wide: 64 features spread over dim, each in about half the rows;
    # at 200,000 features one node's count alone is more than the bound
    rng = np.random.default_rng(5)
    columns = np.sort(rng.choice(dim, 64, replace=False))
    rows = [(columns[rng.random(64) < 0.5].tolist(), F if rng.random() < 0.5 else M) for _ in range(400)]
    ds = make_dataset(rows, n_features=dim)
    tracemalloc.start()
    try:
        model = train_tree(ds, max_depth=10, min_leaf=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.root == ref_tree(ds, 10, 1)
    widths = Counter()
    stack = [(model.root, 0)]
    while stack:
        node, depth = stack.pop()
        widths[depth] += 1
        if node.feature is not None:
            stack += [(node.present, depth + 1), (node.absent, depth + 1)]
    # counting every smaller child of the widest level at once would take four times the bound
    assert max(widths.values()) // 2 * 2 * dim >= 4 * learn._COUNT_CELLS
    # 8 bytes per count; the rest grows with the training entries
    assert peak <= 8 * learn._COUNT_CELLS + 64 * len(ds.csr.indices)


@SETTINGS
@given(
    datasets(),
    st.lists(st.floats(-5, 5), min_size=12, max_size=12),
    st.floats(-3, 3),
    st.floats(1e-4, 1.0),
)
def test_svm_objective_matches_reference(sets, weights, bias, lam):
    for ds in sets:
        w = np.array(weights[: len(ds.space)])
        got = svm_objective(w, bias, ds, lam)
        assert got == pytest.approx(ref_svm_objective(w, bias, ds, lam), rel=1e-12, abs=1e-15)


def batch_labels(model, ds):
    """The labels cross_validate predicts for the dataset's rows, all in one batch."""
    return [F if female else M for female in learn._female(model, ds.csr, ds.rows).tolist()]


@SETTINGS
@given(datasets())
def test_predictions_match_per_vector_reference(sets):
    root, sub, subsub = sets
    for ds in (sub, subsub):
        if not both_classes(ds):
            continue
        models = [train_svm(ds, lam=0.1, epochs=3), train_nb(ds, variant="multinomial")]
        if ds.vectors[0].representation == "boolean":
            models.append(train_nb(ds, variant="bernoulli"))
            tree = train_tree(ds, max_depth=len(ds), min_leaf=1)  # no depth bound binds
            assert batch_labels(tree, root) == [ref_tree_predict(tree, v) for v in root.vectors]
        for model in models:
            got = batch_labels(model, root)
            for vector, label in zip(root.vectors, got):
                margin = ref_female_margin(model, vector)
                if abs(margin) > 1e-9:  # a near-tie may go either way after reordered sums
                    assert label == (F if margin >= 0 else M)
                assert predict(model, vector) == label


# "." ends a sentence and the marker makes its sentence part of the sentence window
WORDS = ["budget", "health", "school", "road", "tax", "farm", "NAMEFORM_FULL", "."]


@st.composite
def instance_lists(draw):
    """A corpus pass of labeled instances over a few words, so that words repeat
    across rows; every text starts with "every", a term in every document of
    the article window, which tf-idf drops."""
    n = draw(st.integers(2, 12))
    return instances_of(
        [split_sentences(TokenStream.of(("every", *draw(st.lists(st.sampled_from(WORDS), max_size=10)))))
         for _ in range(n)],
        [F if i == 0 else M if i == 1 else draw(st.sampled_from([F, M])) for i in range(n)],
    )


@SETTINGS
@given(instance_lists(), st.sampled_from(features.REPRESENTATIONS), st.sampled_from(features.WINDOWS),
       st.integers(1, 3))
def test_build_dataset_packs_what_vectorize_gives_row_by_row(instances, representation, window, min_df):
    terms = terms_of(instances, "unigram", window=window)
    if max(Counter(t for row in terms for t in row).values(), default=0) < min_df:
        with pytest.raises(DataError, match="no features survive min_df"):
            pipeline.build_dataset(instances, scheme="unigram", window=window, min_df=min_df)
        return
    ds = pipeline.build_dataset(instances, scheme="unigram", window=window,
                                representation=representation, min_df=min_df)
    # terms under min_df fall outside the space, and rows of only such terms come out empty
    space = ds.space
    assert space == space_of(terms, min_df, kind="unigram")
    want = [features.vectorize(t, space, representation) for t in terms]
    assert ds.csr.representation == representation
    assert ds.csr.indptr.tolist() == [0, *np.cumsum([len(v) for v in want]).tolist()]
    assert ds.csr.indices.tolist() == [i for v in want for i in v.ids]
    assert ds.csr.data.tolist() == [x for v in want for x in v.values]
    assert ds.rows.tolist() == list(range(len(instances)))
    assert ds.labels == tuple((F, M)[y] for y in instances.y.tolist())
    # the per-row view holds the same vectors; boolean rows share the one 1.0
    assert ds.vectors == tuple(want)
    if representation == "boolean":
        assert len({id(x) for v in ds.vectors for x in v.values}) <= 1


@pytest.mark.parametrize("representation", features.REPRESENTATIONS)
def test_build_dataset_makes_no_feature_vector(monkeypatch, representation):
    texts = ["tax road tax", "farm road", "tax school", "farm farm road", "school"]
    instances = instances_of([TokenStream.of(words.split()) for words in texts], [(F, M)[i % 2] for i in range(5)])

    def refuse(*args, **kwargs):
        raise AssertionError("a FeatureVector was made")

    monkeypatch.setattr(features, "vectorize", refuse)
    monkeypatch.setattr(features.FeatureVector, "__post_init__", refuse)
    ds = pipeline.build_dataset(instances, scheme="unigram", representation=representation, min_df=1)
    assert ds.space.entries == ("farm", "road", "school", "tax")
    assert ds.csr.indptr.tolist() == [0, 2, 4, 6, 8, 9]
    assert ds.csr.indices.tolist() == [1, 3, 0, 1, 2, 3, 0, 1, 2]
    assert ds.csr.data.tolist() == {
        "boolean": [1.0] * 9,
        "count": [1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0],
        "tfidf": [math.log(5 / 3), 2 * math.log(5 / 2), math.log(5 / 2), math.log(5 / 3), math.log(5 / 2),
                  math.log(5 / 2), 2 * math.log(5 / 2), math.log(5 / 3), math.log(5 / 2)],
    }[representation]
    assert ds.y.dtype == np.int8 and ds.y.tolist() == [0, 1, 0, 1, 0]


@SETTINGS
@given(st.lists(st.sampled_from([F, M]), min_size=2, max_size=40), st.integers(0, 2**64 - 1), st.data())
def test_int8_labels_pick_the_same_rows_as_string_labels(labels, seed, data):
    # ids above 256, which the interpreter does not cache, show whether the view shares one int per id
    root = make_dataset([([300 + i % 3], lab) for i, lab in enumerate(labels)], n_features=303)
    shared = {}
    assert all(shared.setdefault(i, i) is i for v in root.vectors for i in v.ids)
    idx = data.draw(st.lists(st.integers(0, len(labels) - 1), min_size=2, max_size=60))
    sub = root.subset(idx)
    for ds, labs in ((root, labels), (sub, [labels[i] for i in idx])):
        assert ds.labels == tuple(labs)
        assert ds.class_counts() == {F: labs.count(F), M: labs.count(M)}
        derived = [ds]
        if F in labs and M in labs:
            kept = undersample(ds, seed)
            assert kept.rows.tolist() == ds.rows[ref_undersample(labs, seed)].tolist()
            derived.append(kept)
        k = data.draw(st.integers(2, 5))
        if min(labs.count(F), labs.count(M)) >= k:
            folds = folds_of(fold_plan(ds, k, seed))
            assert folds == ref_folds(labs, k, seed)
            derived.extend(ds.subset(fold) for fold in folds if len(fold) >= 2)
        # every subset reads the root's one per-row view
        view = root.vectors
        for d in derived:
            assert d.csr is root.csr
            assert all(v is view[row] for v, row in zip(d.vectors, d.rows.tolist()))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 50))
def test_shuffle_equals_randbelow_spec_and_leaves_same_state(seed, n):
    spec, fast = Rng(seed), Rng(seed)
    want = list(range(n))
    for i in range(n - 1, 0, -1):
        j = spec.randbelow(i + 1)
        want[i], want[j] = want[j], want[i]
    got = list(range(n))
    fast.shuffle(got)
    assert got == want
    assert [fast.next_u64() for _ in range(4)] == [spec.next_u64() for _ in range(4)]


def ref_rank(weights, space, k):
    """rank_features as a full sort of every weight, class by class."""
    return {label: tuple(sorted(((surface, space.kind, w) for surface, w in zip(space.entries, weights)
                                 if sign * w > 0), key=lambda e: (-sign * e[2], e[0]))[:k])
            for label, sign in zip(GENDERS, (1.0, -1.0))}


@SETTINGS
@given(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=60),
       st.integers(1, 12))
def test_rank_features_equals_a_full_sort(weights, k):
    # seven weights over up to 60 features: the k-th place is mostly a tie, broken on the surface
    space = make_space(len(weights))
    model = learn.LinearModel(weights=np.array(weights), bias=0.0)
    assert rank_features(model, space, k) == ref_rank(weights, space, k)


# --- what the layout must keep for callers that wrap the learners ---

@pytest.mark.parametrize("classifier, entry", [
    ("svm", "train_svm"), ("nb-bernoulli", "train_nb"), ("tree", "train_tree"),
])
def test_cross_validate_fits_through_module_attributes(monkeypatch, classifier, entry):
    ds = make_dataset([([0, 2], F)] * 12 + [([1, 2], M)] * 12, n_features=3)
    calls = []
    original = getattr(learn, entry)

    def counted(dataset, *args, **kwargs):
        calls.append([id(v) for v in dataset.vectors])
        return original(dataset, *args, **kwargs)

    monkeypatch.setattr(learn, entry, counted)
    report = cross_validate(ds, classifier, params={"epochs": 2}, k=4, seed=3)
    assert len(calls) == 4
    root_ids = {id(v) for v in ds.vectors}
    assert all(set(fit) <= root_ids and len(fit) == 18 for fit in calls)
    assert sum(sum(row.values()) for row in report.confusion.values()) == len(ds)


def test_out_of_range_id_is_rejected_once_per_layout():
    # build_dataset writes only ids of its space; a vector from elsewhere is checked when it is predicted
    ds = make_dataset([([0], F), ([1], M)] * 2, n_features=2)
    for model in (train_svm(ds, epochs=2), train_nb(ds), train_tree(ds)):
        with pytest.raises(ValueError, match="vector id 5 out of range for 2 features"):
            predict(model, make_vec([(5, 1.0)]))
