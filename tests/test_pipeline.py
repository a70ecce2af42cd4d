"""End-to-end wiring helpers: date filtering, corpus passes, datasets."""

from __future__ import annotations

import datetime
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from newsbias import corpus, features, pipeline, preprocess, synth
from newsbias.errors import DataError
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
    assert {instances.article_ids[a] for a in instances.article.tolist()} <= kept_ids


def test_build_dataset_shares_space_across_representations(small_corpus):
    # a dataset carries its space, and the representation does not change it
    articles, registry = small_corpus
    instances = pipeline.build_instances(articles, registry)
    ds_bool = pipeline.build_dataset(instances, scheme="unigram", representation="boolean", min_df=2)
    ds_count = pipeline.build_dataset(instances, scheme="unigram", representation="count", min_df=2)
    assert ds_bool.space.kind == ds_count.space.kind == "unigram"
    assert ds_bool.space.entries == ds_count.space.entries
    assert len(ds_bool) == len(ds_count) == len(instances)
    for b, c in zip(ds_bool.vectors, ds_count.vectors):
        assert b.ids == c.ids


def test_sentence_window_dataset_is_smaller(small_corpus):
    articles, registry = small_corpus
    instances = pipeline.build_instances(articles, registry)
    article_terms = util.terms_of(instances, "unigram", window="article")
    sentence_terms = util.terms_of(instances, "unigram", window="sentence")
    assert sum(sum(t.values()) for t in sentence_terms) < sum(
        sum(t.values()) for t in article_terms
    )
    assert all(s[t] <= a[t] for a, s in zip(article_terms, sentence_terms) for t in s)


def columns(instances) -> tuple:
    """What a corpus pass says of its articles and instances, whatever its stream."""
    return (instances.article_ids, instances.sections, instances.article.tolist(), instances.y.tolist(),
            instances.politician_ids, instances.headline_mention.tolist())


def test_doc_views_masked_vs_raw(small_corpus):
    # the passes kwic and stats query, built under the name they call
    articles, registry = small_corpus
    masked = pipeline.build_doc_views(articles, registry, masked=True)
    raw = pipeline.build_doc_views(articles, registry, masked=False)
    surnames = {r.surname.lower() for r in registry}
    assert any(kind_of(t) == MARKER for t in masked.stream.tokens)
    assert not any(t in surnames for t in masked.stream.tokens)
    assert any(t in surnames for t in raw.stream.tokens)
    # one text per article, and every synthetic article features someone
    assert masked.article_ids == raw.article_ids == tuple(a.id for a in articles)
    assert len(masked.stream.bounds) == len(raw.stream.bounds) == len(articles) + 1
    assert set(masked.article.tolist()) == set(range(len(articles)))


@pytest.mark.parametrize("stoplist", [None, frozenset({"the", "a", "of", "and", "to", "in", "said"})])
@pytest.mark.parametrize("apply_stem", [False, True])
def test_raw_and_masked_passes_hold_the_same_instances(small_corpus, stoplist, apply_stem):
    articles, registry = small_corpus
    opts = {"stoplist": stoplist, "apply_stem": apply_stem, "date_from": datetime.date(2003, 1, 1)}
    # kwic and stats build their pass under the other name, and it is the same builder
    assert pipeline.build_doc_views is pipeline.build_instances
    raw = pipeline.build_instances(articles, registry, masked=False, **opts)
    masked = pipeline.build_instances(articles, registry, masked=True, **opts)
    instances = pipeline.build_instances(pipeline.filter_by_date(articles, opts["date_from"]), registry)
    assert len(instances) and columns(raw) == columns(masked) == columns(instances)


def test_doc_views_mention_sentences_nonempty(small_corpus):
    articles, registry = small_corpus
    for masked in (True, False):
        views = pipeline.build_doc_views(articles, registry, masked=masked)
        held = views.mention_sentences
        assert held.dtype == bool and len(held) == len(views.stream.ends)
        cuts = np.searchsorted(views.stream.ends, views.stream.bounds, side="right").tolist()
        assert all(held[a:b].any() for a, b in zip(cuts, cuts[1:]))


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
    # the passes kwic and stats query, built apart under the name they call
    masked = {aid: (text, mentions) for aid, text, _, mentions
              in util.per_article(pipeline.build_doc_views(articles, registry, masked=True, **opts))}
    raw = pipeline.build_doc_views(articles, registry, masked=False, **opts)
    scans = corpus.scan_corpus(articles, registry)
    texts = instances.stream.texts()
    featured = [instances.article_ids[a] for a in instances.article.tolist()]
    assert set(featured) == {art.id for art, names in zip(scans.articles, util.matches(scans)) if names}
    for a in instances.article.tolist():
        text, mentions = masked[instances.article_ids[a]]
        stream = texts[a]
        assert text == stream
        # the pass marks as mentions exactly the sentences that hold a marker, which the
        # sentence window reads, and which extract_terms marks in a text of its own
        spans = text.sentence_spans
        assert [tok for s, e in spans if MARKER in map(kind_of, text.tokens[s:e]) for tok in text.tokens[s:e]] == [
            tok for s in sorted(mentions) for tok in text.tokens[slice(*spans[s])]
        ]
    # a raw pass holds the scanned text, whatever the stoplist and stemming settings
    assert raw.stream == scans.stream


# --- the batch front end, against the token-by-token reference ---

NAMES = ["Ann", "Lee", "May", "Rose"]
# names, an abbreviation before ".", runs of . ! ?, signals and stopwords,
# words the stemmer changes, chunks that hold several tokens, and words of
# letters beyond ASCII (one whose lowercase is longer, a titlecase one)
PIECES = NAMES + ["mr", "Mr", "dr", ".", ".", "!", "?", "?!", "...", ",", "said", "the", "she", "his",
                  "husband", "ministers", "3.4bn", "Ann's", "co-chair", "İlhan", "ǅuro", "Ōta"]
SEPARATORS = [" ", " ", " ", "", "\n", "  "]


@st.composite
def texts(draw, max_size):
    # often names first and last, so that names meet at the headline's and the
    # body's ends, and runs of up to three names, as long as the longest variants
    names = st.lists(st.sampled_from(NAMES), max_size=3)
    pieces = [*draw(names), *draw(st.lists(st.sampled_from(PIECES), max_size=max_size)), *draw(names)]
    return "".join(piece + draw(st.sampled_from(SEPARATORS)) for piece in pieces)


@st.composite
def front_end_cases(draw):
    """A registry over a few shared names, with extra variants of up to three
    names that may nest inside one another, articles whose headlines (often
    empty) and bodies start and end anywhere, and masking settings whose
    word lists may hold a name token."""
    names = st.sampled_from(NAMES)
    registry = [
        corpus.PoliticianRecord(
            id=f"p{i}", gender=draw(st.sampled_from(corpus.GENDERS)),
            given_name=draw(names), surname=draw(names),
            extra_variants=tuple(" ".join(draw(st.lists(names, min_size=1, max_size=3)))
                                 for _ in range(draw(st.integers(0, 2)))),
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
    scans = corpus.scan_corpus(articles, registry)
    for scan, names, ref in zip(scans, util.matches(scans), refs, strict=True):
        assert list(scan.stream.tokens) == ref["tokens"]
        assert list(scan.stream.sentence_spans) == ref["spans"]
        assert [(s, e, preprocess.FORMS[f]) for s, e, f in scan.mention_spans.tolist()] == ref["mentions"]
        assert names == ref["matches"]

    opts = {"signals": signals, "stoplist": stoplist, "apply_stem": apply_stem}
    raw = pipeline.build_instances(articles, registry, masked=False, **opts)
    masked = pipeline.build_instances(articles, registry, masked=True, **opts)
    instances = pipeline.build_instances(articles, registry, **opts)
    assert columns(raw) == columns(masked) == columns(instances)
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
    texts = instances.stream.texts()
    featured = [instances.article_ids[a] for a in instances.article.tolist()]
    assert all(texts[a] == by_id[aid] for a, aid in zip(instances.article.tolist(), featured))
    assert set(featured) == {a.id for a, ref in zip(articles, refs) if ref["matches"]}
    # an instance per article and gender it features: that gender's politicians, and whether one is in the headline
    want = {}
    for article, ref in zip(articles, refs):
        for gender in corpus.GENDERS:
            ids = tuple(sorted(rid for rid in ref["matches"] if gender_of[rid] == gender))
            if ids:
                want[article.id, gender] = (ids, any(ref["matches"][rid][1] for rid in ids))
    got = [((aid, corpus.GENDERS[y]), (ids, headline)) for aid, y, ids, headline
           in zip(featured, instances.y.tolist(), instances.politician_ids, instances.headline_mention.tolist())]
    assert (len(got), dict(got)) == (len(want), want)


# --- the one-pass dataset, against ref_terms and the per-instance CSR ---

PASS_WORDS = ["Ann", "Lee", "Rose", "she", "the", "chief", "vote", "votes", "voting", "embrace", "embraced",
              "strong", "2010", ",", ".", ".", "!"]
# a word in several categories, a lexicon word the stemmer changes, and entries
# that are no word token, which the schemes never read
PASS_LEXICON = features.LexiconSet({"POWER": frozenset({"chief", "vote", "2010"}),
                                    "ACTIVE": frozenset({"vote", "embraced", ","})})
PASS_POS = features.PosLexicon({"strong": "ADJ", "vote": "VERB", "embraced": "VERB", "chief": "NOUN", "2010": "ADJ",
                                ",": "VERB"})


@st.composite
def passes(draw):
    """Articles (often featuring both genders, with empty bodies and blank sections) over a
    two- or three-politician registry, and masking settings."""
    registry = [corpus.PoliticianRecord("p0", "female", "Ann", "Lee"),
                corpus.PoliticianRecord("p1", "male", "Rose", "Byrne")][:draw(st.integers(1, 2))]
    if draw(st.booleans()):
        registry.append(corpus.PoliticianRecord("p2", draw(st.sampled_from(corpus.GENDERS)), "Ann", "Rose"))
    words = st.lists(st.sampled_from(PASS_WORDS), max_size=14)
    articles = [corpus.Article(f"a{i}", "s", datetime.date(2005, 1, 1),
                               draw(st.sampled_from(["news", "politics", "", "  "])),
                               " ".join(draw(st.lists(st.sampled_from(PASS_WORDS), max_size=3))), " ".join(draw(words)))
                for i in range(draw(st.integers(0, 7)))]
    return articles, registry, draw(st.sampled_from([None, frozenset({"the", "chief"})])), draw(st.booleans())


@settings(max_examples=120, deadline=None)
@given(passes(), st.integers(1, 2))
def test_one_pass_dataset_equals_the_per_instance_reference(case, min_df):
    articles, registry, stoplist, apply_stem = case
    instances = pipeline.build_instances(articles, registry, stoplist=stoplist, apply_stem=apply_stem)
    lexicon, pos = (PASS_LEXICON.stemmed(), PASS_POS.stemmed()) if apply_stem else (PASS_LEXICON, PASS_POS)
    resources = {"lexicon": lexicon, "pos_lexicon": pos}
    for scheme in features.SCHEMES:
        for window in features.WINDOWS:
            terms = util.terms_of(instances, scheme, window=window, **resources)
            build = functools.partial(pipeline.build_dataset, instances, scheme=scheme, window=window,
                                      min_df=min_df, **resources)
            if len(instances) < 2:
                with pytest.raises(DataError, match=f"the corpus yields {len(instances)}"):
                    build()
                continue
            try:
                # terms under min_df fall outside the space, and rows of only such terms come out empty
                space = util.space_of(terms, min_df, kind=scheme)
            except DataError:
                with pytest.raises(DataError, match="no features survive min_df"):
                    build()
                continue
            for representation in features.REPRESENTATIONS:
                ds = build(representation=representation)
                want = util.from_terms(terms, space, representation)
                assert (ds.space.entries, ds.space.doc_freq, ds.space.n_docs) == (
                    space.entries, space.doc_freq, space.n_docs)
                assert ds.csr.indptr.tolist() == want.indptr.tolist()
                assert ds.csr.indices.tolist() == want.indices.tolist()
                assert ds.csr.data.tolist() == want.data.tolist()
                assert ds.y.tolist() == instances.y.tolist()


def test_pass_path_makes_no_per_mention_objects(small_corpus, monkeypatch):
    # who an article features is read from the scan's owner rows: iterating the scan article by article fails here
    articles, registry = small_corpus

    def build_all():
        return [(columns(p), p.stream, p.mention_sentences.tolist())
                for p in (pipeline.build_instances(articles, registry, masked=masked) for masked in (True, False))]

    want = build_all()
    assert all(c[4] and any(c[5]) and any(held) for c, _, held in want)

    def refuse(*args, **kwargs):
        raise AssertionError("per-article scan on the pass path")

    monkeypatch.setattr(corpus.CorpusScan, "__iter__", refuse)
    assert build_all() == want


def test_datasets_make_no_per_instance_terms_texts_or_views(small_corpus, monkeypatch):
    # the dataset path reads the pass as a whole: a return to per-instance work fails here
    articles, registry = small_corpus
    lexicon = features.LexiconSet({"POWER": frozenset({"minister", "said"})})

    def build_all():
        instances = pipeline.build_instances(articles, registry)
        columns = (instances.article_ids, instances.sections, instances.stream, instances.article.tolist(),
                   instances.y.tolist(), instances.politician_ids, instances.headline_mention.tolist())
        datasets = []
        for scheme in (features.UNIGRAM, features.LEXICON_CATEGORY, features.SECTION):
            for window in features.WINDOWS:
                for representation in features.REPRESENTATIONS:
                    ds = pipeline.build_dataset(instances, scheme=scheme, window=window,
                                                representation=representation, min_df=2, lexicon=lexicon)
                    datasets.append((ds.space, ds.csr.indptr.tolist(), ds.csr.indices.tolist(), ds.csr.data.tolist(),
                                     ds.y.tolist()))
        return columns, datasets

    want = build_all()

    def refuse(*args, **kwargs):
        raise AssertionError("per-instance work on the dataset path")

    monkeypatch.setattr(features, "extract_terms", refuse)
    monkeypatch.setattr(preprocess.TokenStream, "texts", refuse)
    assert build_all() == want
