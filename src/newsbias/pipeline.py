"""High-level wiring: articles + registry -> instances -> datasets/views.

These helpers chain the lower modules in the canonical order so that
the CLI, the demos, and tests all agree on how a corpus is prepared.
The masking chain (mask and drop stopwords in one pass, then stem)
lives in one place here, so labeled instances and masked query views
hold the same stream.
"""

from __future__ import annotations

import datetime
from collections import Counter
from typing import Sequence

from . import corpus, features, preprocess
from .corpus import GENDERS, Article, LabeledInstance, PoliticianRecord
from .features import FeatureSpace, LexiconSet, PosLexicon
from .interpret import DocView
from .learn import Dataset
from .preprocess import DEFAULT_GENDERED_SIGNALS, TokenStream


def filter_by_date(
    articles: Sequence[Article],
    date_from: datetime.date | None = None,
    date_to: datetime.date | None = None,
) -> list[Article]:
    """Keep articles with date_from <= date < date_to (either bound optional)."""
    out = []
    for art in articles:
        if date_from is not None and art.date < date_from:
            continue
        if date_to is not None and art.date >= date_to:
            continue
        out.append(art)
    return out


def _masked_stream(scan: corpus.ArticleScan, dropped: frozenset[str], apply_stem: bool) -> TokenStream:
    """The text the classifiers see: mentions masked and the dropped words
    deleted in one pass, then words stemmed when asked."""
    stream = preprocess.mask_gender_signals(scan.stream, scan.mention_spans, dropped)
    return preprocess.stem(stream) if apply_stem else stream


def build_instances(
    articles: Sequence[Article],
    registry: Sequence[PoliticianRecord],
    *,
    signals: frozenset[str] = DEFAULT_GENDERED_SIGNALS,
    stoplist: frozenset[str] | None = None,
    apply_stem: bool = False,
    date_from: datetime.date | None = None,
    date_to: datetime.date | None = None,
) -> list[LabeledInstance]:
    """One instance per (article in the date window, gender with >=1 matched politician).

    An article featuring both genders yields two instances sharing the
    same masked stream; an article featuring none yields nothing. All
    matched mentions are masked regardless of gender, so the text never
    reveals the label through names, and the stream is identical across
    a pair of instances.
    """
    gender_of = {r.id: r.gender for r in registry}
    dropped = signals | stoplist if stoplist else signals
    instances: list[LabeledInstance] = []
    for scan in corpus.scan_corpus(filter_by_date(articles, date_from, date_to), registry):
        if not scan.matches:
            continue
        stream = _masked_stream(scan, dropped, apply_stem)
        for gender in GENDERS:
            matches = [m for m in scan.matches if gender_of[m.politician_id] == gender]
            if matches:
                instances.append(
                    LabeledInstance(
                        article_id=scan.article.id,
                        label=gender,
                        politician_ids=tuple(m.politician_id for m in matches),
                        headline_mention=any(m.headline_mention for m in matches),
                        stream=stream,
                        section=scan.article.section,
                    )
                )
    return instances


def instance_terms(
    instances: Sequence[LabeledInstance],
    scheme: str,
    window: str = "article",
    *,
    pos_lexicon: PosLexicon | None = None,
    lexicon: LexiconSet | None = None,
) -> list[Counter]:
    return [
        features.extract_terms(
            inst, scheme, window=window, pos_lexicon=pos_lexicon, lexicon=lexicon
        )
        for inst in instances
    ]


def build_dataset(
    instances: Sequence[LabeledInstance],
    *,
    scheme: str,
    window: str = "article",
    representation: str = "boolean",
    min_df: int = features.DEFAULT_MIN_DF,
    pos_lexicon: PosLexicon | None = None,
    lexicon: LexiconSet | None = None,
    space: FeatureSpace | None = None,
) -> tuple[Dataset, FeatureSpace]:
    """Vectorize instances under one scheme/window/representation.

    Pass an existing space to vectorize a new batch against a fixed
    vocabulary; otherwise the space is built from these instances. The
    vectors are packed into the dataset's CSR here and then dropped.
    """
    terms = instance_terms(
        instances, scheme, window, pos_lexicon=pos_lexicon, lexicon=lexicon
    )
    if space is None:
        space = features.build_space(terms, min_df)
    vectors = [features.vectorize(t, space, representation) for t in terms]
    del terms  # the term counts outweigh the CSR: free them before it is packed
    return Dataset.pack(vectors, [inst.label for inst in instances], space), space


def build_doc_views(
    articles: Sequence[Article],
    registry: Sequence[PoliticianRecord],
    *,
    masked: bool = True,
    signals: frozenset[str] = DEFAULT_GENDERED_SIGNALS,
    stoplist: frozenset[str] | None = None,
    apply_stem: bool = False,
) -> list[DocView]:
    """Per-article query views over masked or raw token streams.

    Masked views show exactly what the classifiers saw; raw views keep
    the original tokens (names, pronouns and all) for corpus analyses,
    so they ignore the stoplist and stemming settings.
    Group membership is the set of genders the article features.
    """
    gender_of = {r.id: r.gender for r in registry}
    dropped = signals | stoplist if stoplist else signals
    views: list[DocView] = []
    for scan in corpus.scan_corpus(articles, registry):
        groups = frozenset(gender_of[m.politician_id] for m in scan.matches)
        if masked:
            stream = _masked_stream(scan, dropped, apply_stem)
            mention_sentences = preprocess.marker_sentences(stream)
        else:
            stream = scan.stream
            starts = [span.start for span in scan.mention_spans]
            mention_sentences = frozenset(preprocess.sentence_ids(stream.sentence_spans, starts))
        views.append(DocView(scan.article.id, stream, groups, mention_sentences))
    return views
