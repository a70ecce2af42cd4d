"""End-to-end wiring helpers: date filtering, datasets, query views."""

from __future__ import annotations

import datetime

import pytest

from newsbias import corpus, features, pipeline, synth
from newsbias.errors import DataError
from newsbias.preprocess import MARKER


@pytest.fixture(scope="module")
def small_corpus():
    return synth.generate_corpus(60, seed=19)


def test_filter_by_date(small_corpus):
    articles, _ = small_corpus
    cut = datetime.date(2004, 1, 1)
    early = pipeline.filter_by_date(articles, date_to=cut)
    late = pipeline.filter_by_date(articles, date_from=cut)
    assert len(early) + len(late) == len(articles)
    assert all(a.date < cut for a in early)
    assert all(a.date >= cut for a in late)


def test_build_instances_with_date_window(small_corpus):
    articles, registry = small_corpus
    cut = datetime.date(2004, 1, 1)
    instances = pipeline.build_instances(articles, registry, date_to=cut)
    kept_ids = {a.id for a in pipeline.filter_by_date(articles, date_to=cut)}
    assert {i.article_id for i in instances} <= kept_ids


def test_build_dataset_shares_space_across_representations(small_corpus):
    articles, registry = small_corpus
    instances = pipeline.build_instances(articles, registry)
    ds_bool, space = pipeline.build_dataset(
        instances, scheme="unigram", representation="boolean", min_df=2
    )
    ds_count, space2 = pipeline.build_dataset(
        instances, scheme="unigram", representation="count", min_df=2, space=space
    )
    assert space2 is space
    assert len(ds_bool) == len(ds_count) == len(instances)
    for b, c in zip(ds_bool.vectors, ds_count.vectors):
        assert b.ids == c.ids


def test_sentence_window_dataset_is_smaller(small_corpus):
    articles, registry = small_corpus
    instances = pipeline.build_instances(articles, registry)
    article_terms = pipeline.instance_terms(instances, "unigram", "article")
    sentence_terms = pipeline.instance_terms(instances, "unigram", "sentence")
    assert sum(sum(t.values()) for t in sentence_terms) < sum(
        sum(t.values()) for t in article_terms
    )
    assert all(s[t] <= a[t] for a, s in zip(article_terms, sentence_terms) for t in s)


def test_doc_views_masked_vs_raw(small_corpus):
    articles, registry = small_corpus
    masked = pipeline.build_doc_views(articles, registry, masked=True)
    raw = pipeline.build_doc_views(articles, registry, masked=False)
    surnames = {r.surname.lower() for r in registry}
    assert any(
        t.kind == MARKER for view in masked for t in view.stream.tokens
    )
    assert not any(
        t.surface in surnames for view in masked for t in view.stream.tokens
    )
    assert any(t.surface in surnames for view in raw for t in view.stream.tokens)
    # groups identical regardless of the stream flavour
    assert [v.groups for v in masked] == [v.groups for v in raw]
    assert all(v.groups for v in masked)  # every synthetic article features someone


def test_doc_views_mention_sentences_nonempty(small_corpus):
    articles, registry = small_corpus
    for view in pipeline.build_doc_views(articles, registry, masked=True):
        assert view.mention_sentences
        n_sentences = len(view.stream.sentence_spans)
        assert all(0 <= idx < n_sentences for idx in view.mention_sentences)


def test_build_dataset_min_df_too_high(small_corpus):
    articles, registry = small_corpus
    instances = pipeline.build_instances(articles, registry)
    with pytest.raises(DataError):
        pipeline.build_dataset(instances, scheme="unigram", min_df=10_000)


@pytest.mark.parametrize("stoplist", [None, frozenset({"the", "a", "of", "and", "to", "in", "said"})])
@pytest.mark.parametrize("apply_stem", [False, True])
def test_instances_and_views_share_one_prepared_stream(small_corpus, stoplist, apply_stem):
    articles, registry = small_corpus
    opts = {"stoplist": stoplist, "apply_stem": apply_stem}
    instances = pipeline.build_instances(articles, registry, **opts)
    masked = {v.article_id: v for v in pipeline.build_doc_views(articles, registry, masked=True, **opts)}
    raw = pipeline.build_doc_views(articles, registry, masked=False, **opts)
    scans = corpus.scan_corpus(articles, registry)
    assert {i.article_id for i in instances} == {s.article.id for s in scans if s.matches}
    for inst in instances:
        view = masked[inst.article_id]
        assert view.stream == inst.stream
        # the sentence window reads exactly the sentences the view marks as mentions
        spans = view.stream.sentence_spans
        assert [inst.stream.tokens[i] for i in features._window_token_indices(inst.stream, "sentence")] == [
            tok for s in sorted(view.mention_sentences) for tok in view.stream.tokens[slice(*spans[s])]
        ]
    # raw views are the scanned text, whatever the stoplist and stemming settings
    assert [v.stream for v in raw] == [s.stream for s in scans]
