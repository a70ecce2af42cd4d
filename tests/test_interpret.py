"""Feature ranking, concordance extraction, and rate statistics."""

from __future__ import annotations

import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from util import make_space
from newsbias import corpus, pipeline, synth
from newsbias.corpus import GENDERS, Instances
from newsbias.interpret import (
    RateRatio,
    RateStat,
    kwic,
    rank_features,
    rate_ratio,
    term_count,
)
from newsbias.learn import LinearModel
from newsbias.preprocess import split_sentences, tokenize



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

def doc(article_id, text, groups=(), mention_sentences=()):
    """One article of pass_of(): its id, its text, its groups and the indices of
    its sentences that mention a politician."""
    return article_id, text, frozenset(groups), frozenset(mention_sentences)


def pass_of(*docs):
    """One corpus pass over the docs, their texts tokenized and split together, with
    an instance per doc and group that names no politician."""
    ids, texts, groups, mentions = zip(*docs)
    stream = split_sentences(tokenize(list(texts)))
    first = np.searchsorted(stream.ends, stream.bounds[:-1], side="right")
    held = np.zeros(len(stream.ends), bool)
    held[[f + s for f, sentences in zip(first.tolist(), mentions) for s in sentences]] = True
    rows = [(a, y) for a, gs in enumerate(groups) for y, g in enumerate(GENDERS) if g in gs]
    article, y = np.array(rows, np.int64).reshape(-1, 2).T
    return Instances(ids, ("news",) * len(ids), stream, article, y.astype(np.int8), ((),) * len(rows),
                     np.zeros(len(rows), bool), held)


def test_kwic_term_at_start_empty_left():
    lines = kwic(pass_of(doc("a1", "budget cuts loom")), "budget", window=4)
    assert len(lines) == 1
    assert lines[0].left == () and lines[0].right == ("cuts", "loom")


def test_kwic_absent_term():
    assert kwic(pass_of(doc("a1", "nothing here")), "budget") == []


def test_kwic_orders_by_article_then_position():
    docs = pass_of(doc("b", "budget twice budget"), doc("a", "one budget"))
    lines = kwic(docs, "budget", window=2)
    assert [(l.article_id, l.position) for l in lines] == [("a", 1), ("b", 0), ("b", 2)]
    # context stops at the article's own bounds
    assert [(l.left, l.right) for l in lines] == [(("one",), ()), ((), ("twice", "budget")), (("budget", "twice"), ())]


def test_kwic_group_filter():
    docs = pass_of(
        doc("a1", "the budget speech", groups={"female"}),
        doc("a2", "a budget row", groups={"male"}),
        doc("a3", "budget again", groups={"female", "male"}),
    )
    assert {l.article_id for l in kwic(docs, "budget", group="female")} == {"a1", "a3"}
    assert {l.article_id for l in kwic(docs, "budget", group="male")} == {"a2", "a3"}


def test_kwic_cooccurrence_restricts_to_mention_sentences():
    docs = pass_of(
        doc("a0", "budget. budget!", mention_sentences={0}),
        doc("a1", "the budget passed. Keane disputed the budget loudly.", mention_sentences={1}),
    )
    lines = kwic(docs, "budget", require_cooccurrence=True)
    assert [(l.article_id, l.position) for l in lines] == [("a0", 0), ("a1", 7)]


def test_kwic_multi_token_query_rejected():
    with pytest.raises(ValueError, match="phrase"):
        kwic(pass_of(doc("a1", "x")), "mary harney")


def test_kwic_window_validation():
    with pytest.raises(ValueError):
        kwic(pass_of(doc("a1", "x")), "x", window=0)


def test_kwic_marker_query_over_masked_views():
    arts, reg = synth.generate_corpus(20, seed=3)
    instances = pipeline.build_instances(arts, reg, masked=True)
    lines = kwic(instances, "NAMEFORM_FULL", window=3)
    assert lines, "synthetic corpus should contain full-name mentions"
    assert all(l.keyword == "NAMEFORM_FULL" for l in lines)


def test_kwic_matches_brute_force_scan():
    # independent oracle: plain linear scan with slicing at boundaries
    arts, reg = synth.generate_corpus(
        50, seed=17, planted=(synth.PlantedTerm("budget", 0.05, 0.05),)
    )
    instances = pipeline.build_instances(arts, reg, masked=False)
    window = 5
    lines = kwic(instances, "budget", window=window)
    expected = []
    for article_id, text in sorted(zip(instances.article_ids, instances.stream.texts()), key=lambda doc: doc[0]):
        surfaces = text.tokens
        for i, s in enumerate(surfaces):
            if s == "budget":
                expected.append(
                    (
                        article_id,
                        i,
                        tuple(surfaces[max(0, i - window) : i]),
                        tuple(surfaces[i + 1 : i + 1 + window]),
                    )
                )
    assert [(l.article_id, l.position, l.left, l.right) for l in lines] == expected
    assert len(lines) == term_count(instances, "budget")


def test_kwic_line_reconstructs_contiguous_slice():
    arts, reg = synth.generate_corpus(10, seed=23)
    instances = pipeline.build_instances(arts, reg, masked=True)
    by_id = dict(zip(instances.article_ids, instances.stream.texts()))
    for line in kwic(instances, "NAMEFORM_SURNAME", window=4):
        surfaces = by_id[line.article_id].tokens
        start = line.position - len(line.left)
        end = line.position + 1 + len(line.right)
        assert tuple(surfaces[start:end]) == line.left + (line.keyword,) + line.right


def test_kwic_additive_over_disjoint_doc_sets():
    arts, reg = synth.generate_corpus(
        30, seed=29, planted=(synth.PlantedTerm("budget", 0.05, 0.05),)
    )
    whole = kwic(pipeline.build_instances(arts, reg, masked=False), "budget")
    # two disjoint article sets, interleaved, each its own corpus pass
    parts = [line for half in (arts[::2], arts[1::2])
             for line in kwic(pipeline.build_instances(half, reg, masked=False), "budget")]
    assert whole and sorted(parts, key=lambda l: (l.article_id, l.position)) == whole


NAMES = ["Ann", "Lee", "May"]
# names, the query words, signals and sentence ends, several to a chunk at times
PIECES = NAMES + ["budget", "budget", "Budget.", "the", "she", "said", ".", "!", "?", "mr"]
QUERIES = ["budget", "the", ".", "ann", "NAMEFORM_FULL", "NAMEFORM_SURNAME", "NAMEFORM_GIVEN", "absent"]


@st.composite
def query_corpora(draw):
    """A registry over a few shared names and articles whose ids repeat and run
    out of order, with headlines and bodies (often empty) of the pieces above."""
    names = st.sampled_from(NAMES)
    text = st.lists(st.sampled_from(PIECES), max_size=16).map(" ".join)
    registry = [corpus.PoliticianRecord(id=f"p{i}", gender=draw(st.sampled_from(GENDERS)),
                                        given_name=draw(names), surname=draw(names))
                for i in range(draw(st.integers(1, 3)))]
    articles = [corpus.Article(id=draw(st.sampled_from("dcba")), source="s", date=datetime.date(2005, 1, 1),
                               section="news", headline=draw(text), body=draw(text))
                for _ in range(draw(st.integers(0, 6)))]
    return articles, registry


@settings(max_examples=300, deadline=None)
@given(query_corpora(), st.booleans(), st.sampled_from([None, *GENDERS]), st.booleans(), st.integers(1, 10),
       st.sampled_from(QUERIES))
def test_one_pass_kwic_and_term_count_equal_the_per_article_loop(case, masked, group, cooccur, window, term):
    articles, registry = case
    instances = pipeline.build_instances(articles, registry, masked=masked)
    lines = kwic(instances, term, window, group=group, require_cooccurrence=cooccur)
    assert [(l.article_id, l.position, l.left, l.keyword, l.right) for l in lines] == util.ref_kwic(
        instances, term, window, group, cooccur)
    assert term_count(instances, term, group) == util.ref_term_count(instances, term, group)


# --- term_count ---

def test_term_count_both_groups_counts_twice():
    docs = pass_of(doc("a1", "family matters for family", groups={"female", "male"}))
    assert term_count(docs, "family", "female") == 2
    assert term_count(docs, "family", "male") == 2


def test_term_count_absent_zero():
    assert term_count(pass_of(doc("a1", "x y z")), "budget", "female") == 0


def test_term_count_equals_kwic_length():
    docs = pass_of(
        doc("a1", "one budget here", groups={"female"}),
        doc("a2", "budget and budget", groups={"female"}),
        doc("a3", "budget", groups={"male"}),
    )
    assert term_count(docs, "budget", "female") == len(kwic(docs, "budget", group="female")) == 3


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
