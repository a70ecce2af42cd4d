"""High-level wiring: articles + registry -> one corpus pass -> datasets.

These helpers chain the lower modules in the canonical order so that
the CLI, the demos, and tests all agree on how a corpus is prepared.
One builder makes the corpus pass that labeling, classification, kwic
and stats all read, over masked or raw text. The masking chain (mask
and drop stopwords in one pass, then stem) lives in one place here, and
a dataset's CSR is counted from the masked stream in one pass.
"""

from __future__ import annotations

import datetime
import math
from typing import Sequence

import numpy as np

from . import corpus, features, preprocess
from .corpus import GENDERS, Article, Instances, PoliticianRecord
from .errors import ConfigError, DataError
from .features import LexiconSet, PosLexicon
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


def _featured(scan: corpus.CorpusScan, registry: Sequence[PoliticianRecord]) -> tuple[np.ndarray, ...]:
    """The scan's owner rows read as who each article features: (article, gender,
    politician, in headline) columns, one row per politician an article names, in
    (article, gender, politician id) order; gender indexes GENDERS, politician
    scan.politicians, and in headline says whether one of its mentions is there."""
    gender_of = {r.id: GENDERS.index(r.gender) for r in registry}
    gender = np.array([gender_of[rid] for rid in scan.politicians], np.int64)
    mention, politician, _, headline = scan.owners.T
    article = np.searchsorted(scan.stream.bounds, scan.mentions[mention, 0], side="right") - 1
    keys, row = np.unique((article * 2 + gender[politician]) * len(gender) + politician, return_inverse=True)
    article, key = np.divmod(keys, 2 * len(gender))
    label, politician = np.divmod(key, len(gender))
    return article, label, politician, np.bincount(row, headline, len(keys)) > 0


def build_instances(
    articles: Sequence[Article],
    registry: Sequence[PoliticianRecord],
    *,
    masked: bool = True,
    signals: frozenset[str] = DEFAULT_GENDERED_SIGNALS,
    stoplist: frozenset[str] | None = None,
    apply_stem: bool = False,
    date_from: datetime.date | None = None,
    date_to: datetime.date | None = None,
) -> Instances:
    """One corpus pass over the articles in the date window, with one instance per
    (article, gender with >=1 matched politician).

    An article featuring both genders yields two instances sharing the
    same text; an article featuring none yields nothing. The masked
    stream is what the classifiers see: all matched mentions are masked
    regardless of gender, so the text never reveals the label through
    names, and the text is identical across a pair of instances. A raw
    pass keeps the original tokens (names, pronouns and all) for corpus
    analyses, so it ignores the stoplist and stemming settings; its
    instances are the masked pass's. The pass records whether it is
    stemmed, so queries on it stem themselves.
    """
    scan = corpus.scan_corpus(filter_by_date(articles, date_from, date_to), registry)
    if masked:
        stream = _masked_stream(scan, signals, stoplist, apply_stem)
        mentions = np.flatnonzero(stream.ids < len(preprocess.FORMS))
    else:
        stream, mentions = scan.stream, scan.mentions[:, 0]
    article, gender, politician, headline = _featured(scan, registry)
    # an instance per (article, gender): the run of rows that share both
    first = np.flatnonzero(np.diff(article * 2 + gender, prepend=-1))
    ids = [scan.politicians[p] for p in politician.tolist()]
    cuts = [*first.tolist(), len(ids)]
    return Instances(tuple(art.id for art in scan.articles), tuple(art.section for art in scan.articles),
                     tuple(art.date for art in scan.articles), stream, article[first], gender[first].astype(np.int8),
                     tuple(tuple(ids[a:b]) for a, b in zip(cuts, cuts[1:])), np.logical_or.reduceat(headline, first),
                     preprocess.sentences_holding(stream, mentions), masked and apply_stem)


# kwic and stats build their pass under this name, which the benchmark's tracer times apart from label's
build_doc_views = build_instances


def build_dataset(
    instances: Instances,
    *,
    scheme: str,
    window: str = "article",
    representation: str = "boolean",
    min_df: int = features.DEFAULT_MIN_DF,
    pos_lexicon: PosLexicon | None = None,
    lexicon: LexiconSet | None = None,
) -> Dataset:
    """Vectorize instances under one scheme/window/representation.

    The space is built from these instances and is the dataset's space.
    The terms of every article are counted in one pass over the masked
    stream and written as one CSR row per article, and each instance's
    row is its article's.
    """
    if representation not in features.REPRESENTATIONS:
        raise ConfigError(f"unknown representation {representation!r}")
    n_docs = len(instances)
    if n_docs < 2:
        raise DataError(f"a dataset needs at least two instances, and the corpus yields {n_docs}")
    # an article is as many documents as it has instances, and none is not read
    weight = np.bincount(instances.article, minlength=len(instances.article_ids))
    text, term, counts, surfaces = features.count_terms(
        instances.stream, instances.sections, weight > 0, instances.mention_sentences, scheme, window=window,
        pos_lexicon=pos_lexicon, lexicon=lexicon)
    doc_freq = np.bincount(term, weights=weight[text], minlength=len(surfaces)).astype(np.int64)
    space = features.build_space(dict(zip(surfaces, doc_freq.tolist())), n_docs, min_df, kind=scheme)
    # space entries are in surface order, as the terms are, so columns increase with terms
    column = np.array([space.index.get(surface, -1) for surface in surfaces], np.int32)[term]
    keep = column >= 0
    text, column, data = text[keep], column[keep], counts[keep].astype(np.float64)
    if representation == "tfidf":
        # one math.log per feature, as vectorize takes it, times the count;
        # a feature in every document weighs 0 and makes no entry
        data *= np.array([math.log(space.n_docs / df) for df in space.doc_freq])[column]
        keep = data > 0
        text, column, data = text[keep], column[keep], data[keep]
    # one row per article (of counts, for a boolean dataset), and each instance's row gathered from its article's
    articles = CSR(np.concatenate(([0], np.cumsum(np.bincount(text, minlength=len(weight))))), column, data,
                   representation)
    positions, lengths = articles.gather(instances.article)
    data = np.broadcast_to(1.0, len(positions)) if representation == "boolean" else data[positions]
    csr = CSR(np.concatenate(([0], np.cumsum(lengths))), column[positions], data, representation)
    return Dataset(csr, instances.y, space, np.arange(n_docs))
