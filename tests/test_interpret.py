"""Feature ranking, concordance extraction, and rate statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from newsbias import pipeline, synth
from newsbias.interpret import (
    DocView,
    RateRatio,
    RateStat,
    kwic,
    rank_features,
    rate_ratio,
    term_count,
)
from newsbias.learn import LinearModel
from newsbias.preprocess import split_sentences, tokenize

from util import make_space


def model_with(weights):
    return LinearModel(weights=np.array(weights, dtype=float), bias=0.0)


# --- rank_features ---

def test_rank_simple_signs():
    space = make_space(3)
    ranked = rank_features(model_with([2.0, 1.0, -3.0]), space, k=2)
    assert [s for s, _, _ in ranked.female] == ["f000", "f001"]
    assert [s for s, _, _ in ranked.male] == ["f002"]


def test_rank_zero_model_empty():
    ranked = rank_features(model_with([0.0, 0.0]), make_space(2), k=5)
    assert ranked.female == () and ranked.male == ()


def test_rank_orders_male_by_magnitude():
    ranked = rank_features(model_with([-1.0, -5.0, -2.0]), make_space(3), k=3)
    assert [s for s, _, _ in ranked.male] == ["f001", "f002", "f000"]


def test_rank_invariant_under_positive_rescaling():
    space = make_space(4)
    weights = [0.5, -1.5, 2.5, -0.25]
    a = rank_features(model_with(weights), space, k=4)
    b = rank_features(model_with([w * 10 for w in weights]), space, k=4)
    assert [(s, k) for s, k, _ in a.female] == [(s, k) for s, k, _ in b.female]
    assert [(s, k) for s, k, _ in a.male] == [(s, k) for s, k, _ in b.male]


def test_rank_tie_breaks_on_kind_surface():
    space = make_space(3)
    ranked = rank_features(model_with([1.0, 1.0, 1.0]), space, k=3)
    assert [s for s, _, _ in ranked.female] == ["f000", "f001", "f002"]


def test_rank_k_validation():
    with pytest.raises(ValueError):
        rank_features(model_with([1.0]), make_space(1), k=0)
    with pytest.raises(ValueError):
        rank_features(model_with([1.0, 2.0]), make_space(3), k=1)


def test_rank_planted_perfect_feature_is_first():
    from newsbias.learn import train_svm
    from util import make_dataset

    rows = [([0, 2], "female"), ([0, 3], "female"), ([0, 4], "female"),
            ([1, 2], "male"), ([1, 3], "male"), ([1, 4], "male")]
    ds = make_dataset(rows, n_features=5)
    model = train_svm(ds, lam=0.01, epochs=100)
    ranked = rank_features(model, ds.space, k=3)
    assert ranked.female[0][0] == "f000"
    assert ranked.male[0][0] == "f001"


def test_rank_lists_disjoint():
    space = make_space(5)
    ranked = rank_features(model_with([1.0, -1.0, 0.0, 2.0, -0.5]), space, k=5)
    female = {(s, k) for s, k, _ in ranked.female}
    male = {(s, k) for s, k, _ in ranked.male}
    assert not female & male
    assert ("f002", "unigram") not in female | male


# --- kwic ---

def view(article_id, text, groups=frozenset(), mention_sentences=frozenset()):
    return DocView(
        article_id=article_id,
        stream=split_sentences(tokenize(text)),
        groups=frozenset(groups),
        mention_sentences=frozenset(mention_sentences),
    )


def test_kwic_term_at_start_empty_left():
    lines = kwic([view("a1", "budget cuts loom")], "budget", window=4)
    assert len(lines) == 1
    assert lines[0].left == () and lines[0].right == ("cuts", "loom")


def test_kwic_absent_term():
    assert kwic([view("a1", "nothing here")], "budget") == []


def test_kwic_orders_by_article_then_position():
    docs = [view("b", "budget twice budget"), view("a", "one budget")]
    lines = kwic(docs, "budget", window=2)
    assert [(l.article_id, l.position) for l in lines] == [("a", 1), ("b", 0), ("b", 2)]


def test_kwic_group_filter():
    docs = [
        view("a1", "the budget speech", groups={"female"}),
        view("a2", "a budget row", groups={"male"}),
        view("a3", "budget again", groups={"female", "male"}),
    ]
    assert {l.article_id for l in kwic(docs, "budget", group="female")} == {"a1", "a3"}
    assert {l.article_id for l in kwic(docs, "budget", group="male")} == {"a2", "a3"}


def test_kwic_cooccurrence_restricts_to_mention_sentences():
    doc = view(
        "a1",
        "the budget passed. Keane disputed the budget loudly.",
        mention_sentences={1},
    )
    lines = kwic([doc], "budget", require_cooccurrence=True)
    assert len(lines) == 1
    assert lines[0].position > 3


def test_kwic_multi_token_query_rejected():
    with pytest.raises(ValueError, match="phrase"):
        kwic([view("a1", "x")], "mary harney")


def test_kwic_window_validation():
    with pytest.raises(ValueError):
        kwic([view("a1", "x")], "x", window=0)


def test_kwic_marker_query_over_masked_views():
    arts, reg = synth.generate_corpus(20, seed=3)
    views = pipeline.build_doc_views(arts, reg, masked=True)
    lines = kwic(views, "NAMEFORM_FULL", window=3)
    assert lines, "synthetic corpus should contain full-name mentions"
    assert all(l.keyword == "NAMEFORM_FULL" for l in lines)


def test_kwic_matches_brute_force_scan():
    # independent oracle: plain linear scan with slicing at boundaries
    arts, reg = synth.generate_corpus(
        50, seed=17, planted=(synth.PlantedTerm("budget", 0.05, 0.05),)
    )
    views = pipeline.build_doc_views(arts, reg, masked=False)
    window = 5
    lines = kwic(views, "budget", window=window)
    expected = []
    for doc in sorted(views, key=lambda d: d.article_id):
        surfaces = doc.stream.tokens
        for i, s in enumerate(surfaces):
            if s == "budget":
                expected.append(
                    (
                        doc.article_id,
                        i,
                        tuple(surfaces[max(0, i - window) : i]),
                        tuple(surfaces[i + 1 : i + 1 + window]),
                    )
                )
    assert [(l.article_id, l.position, l.left, l.right) for l in lines] == expected
    assert len(lines) == term_count(views, "budget")


def test_kwic_line_reconstructs_contiguous_slice():
    arts, reg = synth.generate_corpus(10, seed=23)
    views = pipeline.build_doc_views(arts, reg, masked=True)
    by_id = {v.article_id: v for v in views}
    for line in kwic(views, "NAMEFORM_SURNAME", window=4):
        surfaces = by_id[line.article_id].stream.tokens
        start = line.position - len(line.left)
        end = line.position + 1 + len(line.right)
        assert tuple(surfaces[start:end]) == line.left + (line.keyword,) + line.right


def test_kwic_additive_over_disjoint_doc_sets():
    arts, reg = synth.generate_corpus(
        30, seed=29, planted=(synth.PlantedTerm("budget", 0.05, 0.05),)
    )
    views = pipeline.build_doc_views(arts, reg, masked=False)
    whole = kwic(views, "budget")
    parts = kwic(views[:10], "budget") + kwic(views[10:], "budget")
    assert len(whole) == len(parts)


# --- term_count ---

def test_term_count_both_groups_counts_twice():
    docs = [view("a1", "family matters for family", groups={"female", "male"})]
    assert term_count(docs, "family", "female") == 2
    assert term_count(docs, "family", "male") == 2


def test_term_count_absent_zero():
    assert term_count([view("a1", "x y z")], "budget", "female") == 0


def test_term_count_equals_kwic_length():
    docs = [
        view("a1", "one budget here", groups={"female"}),
        view("a2", "budget and budget", groups={"female"}),
    ]
    assert term_count(docs, "budget", "female") == len(kwic(docs, "budget", group="female"))


# --- rates ---

def test_rate_basic():
    assert RateStat(term="husband", group="female", count=48, years=38.6).rate == pytest.approx(48 / 38.6)
    for years in (0.0, -1.0):
        with pytest.raises(ValueError):
            RateStat(term="husband", group="female", count=1, years=years)


def test_rate_stat_consistency():
    st = RateStat(term="husband", group="female", count=48, years=38.6)
    assert st.rate * st.years == pytest.approx(st.count, abs=1e-9)


def test_rate_ratio_spouse_fixture():
    a = RateStat(term="husband", group="female", count=48, years=38.6)
    b = RateStat(term="wife", group="male", count=27, years=84.1)
    got = rate_ratio(a, b)
    assert got.value == pytest.approx(3.87, abs=0.01)
    assert not got.undefined
    # consistent with the qualitative reading "about four times as often"
    assert round(got.value) == 4


def test_rate_ratio_equal_rates():
    a = RateStat(term="t", group="female", count=10, years=5.0)
    b = RateStat(term="t", group="male", count=20, years=10.0)
    assert rate_ratio(a, b).value == pytest.approx(1.0)


def test_rate_ratio_zero_numerator():
    a = RateStat(term="t", group="female", count=0, years=10.0)
    b = RateStat(term="t", group="male", count=5, years=10.0)
    assert rate_ratio(a, b) == RateRatio(0.0, False)


def test_rate_ratio_zero_denominator_flagged():
    a = RateStat(term="t", group="female", count=5, years=10.0)
    b = RateStat(term="t", group="male", count=0, years=10.0)
    got = rate_ratio(a, b)
    assert math.isinf(got.value) and got.undefined


def test_rate_ratio_reciprocal_law():
    a = RateStat(term="t", group="female", count=7, years=3.5)
    b = RateStat(term="t", group="male", count=11, years=9.25)
    assert rate_ratio(a, b).value * rate_ratio(b, a).value == pytest.approx(1.0, abs=1e-9)
