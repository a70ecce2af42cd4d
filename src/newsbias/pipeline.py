"""High-level wiring: articles + registry -> instances -> datasets/views.

These helpers chain the lower modules in the canonical order so that
the CLI, the demos, and tests all agree on how a corpus is prepared.
The masking chain (mask and drop stopwords in one pass, then stem)
lives in one place here, so labeled instances and masked query views
hold the same stream, and term counts go straight into a dataset's CSR.
"""

from __future__ import annotations

import datetime
from typing import Sequence

import numpy as np

from . import corpus, features, preprocess
from .corpus import GENDERS, MALE, Article, LabeledInstance, PoliticianRecord
from .errors import ConfigError
from .features import FeatureSpace, LexiconSet, PosLexicon
from .interpret import DocViews
from .learn import CSR, Dataset
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


def _masked_stream(scan: corpus.CorpusScan, signals: frozenset[str], stoplist: frozenset[str] | None,
                   apply_stem: bool) -> TokenStream:
    """The text the classifiers see, one text per article: mentions masked and the
    signals and stopwords deleted in one pass, then words stemmed when asked."""
    stream = preprocess.mask_gender_signals(scan.stream, scan.mentions, signals | stoplist if stoplist else signals)
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
    scan = corpus.scan_corpus(filter_by_date(articles, date_from, date_to), registry)
    masked = _masked_stream(scan, signals, stoplist, apply_stem)
    instances: list[LabeledInstance] = []
    for article, found, stream in zip(scan.articles, scan.matches, masked.texts()):
        for gender in GENDERS:
            matches = [m for m in found if gender_of[m.politician_id] == gender]
            if matches:
                instances.append(LabeledInstance(article.id, gender, tuple(m.politician_id for m in matches),
                                                 any(m.headline_mention for m in matches), stream, article.section))
    return instances


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

    Pass an existing space of the scheme to vectorize a new batch against
    a fixed vocabulary; otherwise the space is built from these instances.
    Each instance's term counts go straight into its row of the CSR.
    """
    if space is not None and space.kind != scheme:
        raise ConfigError(f"a {space.kind} feature space cannot vectorize scheme {scheme!r}")
    terms = [features.extract_terms(inst, scheme, window=window, pos_lexicon=pos_lexicon, lexicon=lexicon)
             for inst in instances]
    if space is None:
        space = features.build_space(terms, min_df, kind=scheme)
    csr = CSR.from_terms(terms, space, representation)
    del terms  # the term counts outweigh the CSR: free them as soon as it is written
    y = np.array([inst.label == MALE for inst in instances], dtype=np.int8)
    return Dataset(csr, y, space, np.arange(len(y))), space


def build_doc_views(
    articles: Sequence[Article],
    registry: Sequence[PoliticianRecord],
    *,
    masked: bool = True,
    signals: frozenset[str] = DEFAULT_GENDERED_SIGNALS,
    stoplist: frozenset[str] | None = None,
    apply_stem: bool = False,
) -> DocViews:
    """Query views of the articles over masked or raw token streams, in one pass.

    Masked views show exactly what the classifiers saw; raw views keep
    the original tokens (names, pronouns and all) for corpus analyses,
    so they ignore the stoplist and stemming settings.
    An article belongs to the group of each gender it features.
    """
    gender_of = {r.id: r.gender for r in registry}
    scan = corpus.scan_corpus(articles, registry)
    if masked:
        stream = _masked_stream(scan, signals, stoplist, apply_stem)
        mentions = np.flatnonzero(stream.ids < len(preprocess.FORMS))
    else:
        stream, mentions = scan.stream, scan.mentions[:, 0]
    featured = [{gender_of[m.politician_id] for m in found} for found in scan.matches]
    return DocViews(tuple(article.id for article in scan.articles), stream,
                    {gender: np.array([gender in f for f in featured], bool) for gender in GENDERS},
                    preprocess.sentences_holding(stream, mentions))
