"""End-to-end wiring helpers: date filtering, datasets, query views."""

from __future__ import annotations

import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from newsbias import corpus, features, pipeline, synth
from newsbias.errors import ConfigError, DataError
from newsbias.preprocess import DEFAULT_GENDERED_SIGNALS, MARKER, MARKER_SURFACES, kind_of


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


def test_build_dataset_rejects_a_space_of_another_scheme(small_corpus):
    articles, registry = small_corpus
    instances = pipeline.build_instances(articles, registry)
    _, space = pipeline.build_dataset(instances, scheme="unigram", min_df=2)
    assert space.kind == "unigram"
    with pytest.raises(ConfigError, match="unigram"):
        pipeline.build_dataset(instances, scheme="section", space=space)


def test_sentence_window_dataset_is_smaller(small_corpus):
    articles, registry = small_corpus
    instances = pipeline.build_instances(articles, registry)
    article_terms = [features.extract_terms(inst, "unigram", window="article") for inst in instances]
    sentence_terms = [features.extract_terms(inst, "unigram", window="sentence") for inst in instances]
    assert sum(sum(t.values()) for t in sentence_terms) < sum(
        sum(t.values()) for t in article_terms
    )
    assert all(s[t] <= a[t] for a, s in zip(article_terms, sentence_terms) for t in s)


def test_doc_views_masked_vs_raw(small_corpus):
    articles, registry = small_corpus
    masked = pipeline.build_doc_views(articles, registry, masked=True)
    raw = pipeline.build_doc_views(articles, registry, masked=False)
    surnames = {r.surname.lower() for r in registry}
    assert any(kind_of(t) == MARKER for t in masked.stream.tokens)
    assert not any(t in surnames for t in masked.stream.tokens)
    assert any(t in surnames for t in raw.stream.tokens)
    # one text per article, and groups identical regardless of the stream flavour
    assert masked.article_ids == raw.article_ids == tuple(a.id for a in articles)
    assert len(masked.stream.bounds) == len(raw.stream.bounds) == len(articles) + 1
    assert masked.groups.keys() == raw.groups.keys() == set(corpus.GENDERS)
    assert all(masked.groups[g].tolist() == raw.groups[g].tolist() for g in corpus.GENDERS)
    assert all(masked.groups["female"] | masked.groups["male"])  # every synthetic article features someone


def test_doc_views_mention_sentences_nonempty(small_corpus):
    articles, registry = small_corpus
    views = pipeline.build_doc_views(articles, registry, masked=True)
    assert views.mention_sentences.dtype == bool and len(views.mention_sentences) == len(views.stream.ends)
    cuts = np.searchsorted(views.stream.ends, views.stream.bounds, side="right").tolist()
    assert all(views.mention_sentences[a:b].any() for a, b in zip(cuts, cuts[1:]))


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
    masked = {aid: (text, mentions) for aid, text, _, mentions
              in util.per_article(pipeline.build_doc_views(articles, registry, masked=True, **opts))}
    raw = pipeline.build_doc_views(articles, registry, masked=False, **opts)
    scans = corpus.scan_corpus(articles, registry)
    assert {i.article_id for i in instances} == {s.article.id for s in scans if s.matches}
    for inst in instances:
        text, mentions = masked[inst.article_id]
        assert text == inst.stream
        # the sentence window reads exactly the sentences the views mark as mentions
        spans = text.sentence_spans
        surfaces = inst.stream.vocab.surfaces
        assert [surfaces[i] for i in features._window_tokens(inst.stream, "sentence")] == [
            tok for s in sorted(mentions) for tok in text.tokens[slice(*spans[s])]
        ]
    # raw views are the scanned text, whatever the stoplist and stemming settings
    assert raw.stream == scans.stream


# --- the batch front end, against the token-by-token reference ---

NAMES = ["Ann", "Lee", "May", "Rose"]
# names, an abbreviation before ".", runs of . ! ?, signals and stopwords,
# words the stemmer changes, and chunks that hold several tokens
PIECES = NAMES + ["mr", "Mr", "dr", ".", ".", "!", "?", "?!", "...", ",", "said", "the", "she", "his",
                  "husband", "ministers", "3.4bn", "Ann's", "co-chair"]
SEPARATORS = [" ", " ", " ", "", "\n", "  "]


@st.composite
def texts(draw, max_size):
    # often a name first and last, so that names meet at the headline's and the body's ends
    names = st.lists(st.sampled_from(NAMES), max_size=1)
    pieces = [*draw(names), *draw(st.lists(st.sampled_from(PIECES), max_size=max_size)), *draw(names)]
    return "".join(piece + draw(st.sampled_from(SEPARATORS)) for piece in pieces)


@st.composite
def front_end_cases(draw):
    """A registry over a few shared names, articles whose headlines (often
    empty) and bodies start and end anywhere, and masking settings whose
    word lists may hold a name token."""
    names = st.sampled_from(NAMES)
    registry = [
        corpus.PoliticianRecord(
            id=f"p{i}", gender=draw(st.sampled_from(corpus.GENDERS)),
            given_name=draw(names), surname=draw(names),
            extra_variants=tuple(" ".join(draw(st.lists(names, min_size=1, max_size=2)))
                                 for _ in range(draw(st.integers(0, 1)))),
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    articles = [
        corpus.Article(id=f"a{i}", source="s", date=datetime.date(2005, 1, 1), section="news",
                       headline=draw(texts(4)), body=draw(texts(14)))
        for i in range(draw(st.integers(0, 5)))
    ]
    signals = draw(st.sampled_from([DEFAULT_GENDERED_SIGNALS, frozenset({"ann", "said"}), frozenset()]))
    stoplist = draw(st.sampled_from([None, frozenset({"the", "lee", "ministers"})]))
    return articles, registry, signals, stoplist, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(front_end_cases())
def test_batch_front_end_equals_the_token_by_token_reference(case):
    articles, registry, signals, stoplist, apply_stem = case
    refs = [util.ref_article(article, registry) for article in articles]
    for scan, ref in zip(corpus.scan_corpus(articles, registry), refs, strict=True):
        assert list(scan.stream.tokens) == ref["tokens"]
        assert list(scan.stream.sentence_spans) == ref["spans"]
        assert [(m.start, m.end, m.form) for m in scan.mention_spans] == ref["mentions"]
        assert {m.politician_id: ([(s.start, s.end, s.form) for s in m.spans], m.headline_mention)
                for m in scan.matches} == ref["matches"]

    opts = {"signals": signals, "stoplist": stoplist, "apply_stem": apply_stem}
    raw = pipeline.build_doc_views(articles, registry, masked=False, **opts)
    masked = pipeline.build_doc_views(articles, registry, masked=True, **opts)
    instances = pipeline.build_instances(articles, registry, **opts)
    gender_of = {r.id: r.gender for r in registry}
    for article, ref, raw_view, masked_view in zip(articles, refs, util.per_article(raw), util.per_article(masked),
                                                   strict=True):
        raw_id, raw_text, raw_groups, raw_mentions = raw_view
        _, masked_text, masked_groups, masked_mentions = masked_view
        groups = {gender_of[rid] for rid in ref["matches"]}
        assert (raw_id, raw_groups, masked_groups) == (article.id, groups, groups)
        assert (list(raw_text.tokens), list(raw_text.sentence_spans)) == (ref["tokens"], ref["spans"])
        assert raw_mentions == util.ref_sentences(ref["spans"], [s for s, _, _ in ref["mentions"]])
        tokens, spans = util.ref_mask(ref["tokens"], ref["spans"], ref["mentions"],
                                      signals | (stoplist or frozenset()), apply_stem)
        assert (list(masked_text.tokens), list(masked_text.sentence_spans)) == (tokens, spans)
        markers = [i for i, tok in enumerate(tokens) if tok in MARKER_SURFACES]
        assert masked_mentions == util.ref_sentences(spans, markers)
    by_id = {aid: text for aid, text, _, _ in util.per_article(masked)}
    assert all(inst.stream == by_id[inst.article_id] for inst in instances)
    assert {inst.article_id for inst in instances} == {a.id for a, ref in zip(articles, refs) if ref["matches"]}
