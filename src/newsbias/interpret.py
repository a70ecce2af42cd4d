"""Model interpretation and corpus statistics, as plain data.

Covers the read-only analyses that follow classification: ranking the
features a linear model found most discriminative for each gender,
keyword-in-context concordance extraction, and mention-rate statistics
normalized by years in office. Queries read a corpus pass, the
`corpus.Instances` that labeling builds too, over masked or raw text:
an article belongs to the group of each gender it has an instance of.
A query is stemmed when the pass it reads is.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import preprocess
from .corpus import GENDERS, Instances, PoliticianRecord
from .features import FeatureSpace
from .learn import LinearModel
from .preprocess import MARKER_SURFACES

DEFAULT_KWIC_WINDOW = 8


def rank_features(model: LinearModel, space: FeatureSpace, k: int) -> dict[str, tuple[tuple[str, str, float], ...]]:
    """Top-k (surface, the space's kind, weight) per class by linear weight, keyed by GENDERS, strongest
    first: female features weigh above zero, male ones below, and ties break on the surface."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(model.weights) != len(space):
        raise ValueError(
            f"model has {len(model.weights)} weights but space has {len(space)} features"
        )
    weights = list(zip(space.entries, model.weights.tolist()))
    return {label: tuple(sorted(((surface, space.kind, w) for surface, w in weights if sign * w > 0),
                                key=lambda e: (-sign * e[2], e[0]))[:k])
            for label, sign in zip(GENDERS, (1.0, -1.0))}


def normalize_query(term: str, stem: bool = False) -> str:
    """Single-token surface for a query term, via the pipeline tokenizer.

    Marker surfaces (NAMEFORM_*) pass through verbatim so masked streams
    can be queried for them. Pass stem when the pass searched was stemmed.
    """
    if term in MARKER_SURFACES:
        return term
    stream = preprocess.tokenize(term)
    if len(stream.tokens) != 1:
        raise ValueError(
            f"query {term!r} is not a single token; phrase search is not supported"
        )
    return (preprocess.stem(stream) if stem else stream).tokens[0]


def _hits(instances: Instances, surface: str, group: str | None, cooccur: bool = False,
          held: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stream positions of the surface in articles of the group (None: all), in sentences
    that mention a politician when cooccur, and the index of each one's article. held, a
    bool per instance, narrows the group to the articles of its held instances."""
    stream = instances.stream
    hits = np.flatnonzero(stream.ids == stream.vocab.index.get(surface, -1))
    article = np.searchsorted(stream.bounds, hits, side="right") - 1
    if group is None and held is None:
        keep = np.ones(len(hits), bool)
    else:
        # an article is in the group when it has an instance of the group's gender
        chosen = np.ones(len(instances), bool) if group is None else instances.y == GENDERS.index(group)
        if held is not None:
            chosen &= held
        keep = np.bincount(instances.article[chosen], minlength=len(instances.article_ids))[article] > 0
    if cooccur:
        keep &= instances.mention_sentences[preprocess.sentence_ids(stream, hits)]
    return hits[keep], article[keep]


def kwic(
    instances: Instances,
    term: str,
    window: int = DEFAULT_KWIC_WINDOW,
    *,
    group: str | None = None,
    require_cooccurrence: bool = False,
) -> list[tuple[str, int, tuple[str, ...], str, tuple[str, ...]]]:
    """Concordance lines for every occurrence of the term, each (article id, position,
    left context, keyword, right context).

    Context never crosses article boundaries: it is truncated at the ends of
    the article's text, and positions count from its start. With require_cooccurrence,
    only hits in sentences that mention a politician are returned. Lines come back
    ordered by (article id, token position). The term is stemmed when the pass is.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    window = min(window, len(instances.stream.ids))  # a longer window reaches no further
    surface = normalize_query(term, instances.stemmed)
    hits, article = _hits(instances, surface, group, require_cooccurrence)
    # hits run in stream order, so a stable sort on the article id keeps each article's in position order
    order = np.argsort(np.array(instances.article_ids)[article], kind="stable")
    hits, article = hits[order], article[order]
    stream = instances.stream
    ids, surfaces, bounds = stream.ids, stream.vocab.surfaces.__getitem__, stream.bounds
    return [(instances.article_ids[a], i - start, tuple(map(surfaces, ids[left:i].tolist())), surface,
             tuple(map(surfaces, ids[i + 1:right].tolist())))
            for a, i, start, left, right in zip(article.tolist(), hits.tolist(), bounds[article].tolist(),
                                                np.maximum(bounds[article], hits - window).tolist(),
                                                np.minimum(bounds[article + 1], hits + 1 + window).tolist())]


def term_count(instances: Instances, term: str, group: str | None = None, *, portfolio: str | None = None,
               registry: Sequence[PoliticianRecord] = ()) -> int:
    """Occurrences of the term in articles belonging to the group.

    An article in both groups counts toward both; group None counts all
    articles. With a portfolio, an article counts toward a group only when
    one of its politicians of that gender held the portfolio on its date:
    the date lies in one of their registry terms in it, by the half-open
    rule of corpus.years_in_office (start <= date < end). The term is
    stemmed when the pass is.
    """
    held = None
    if portfolio is not None:
        spans = {record.id: [(t.start, t.end) for t in record.terms if t.portfolio == portfolio]
                 for record in registry}
        dates = instances.dates
        # one lookup per politician an instance features
        held = np.array([any(start <= dates[a] < end for p in ids for start, end in spans[p])
                         for a, ids in zip(instances.article.tolist(), instances.politician_ids)], bool)
    return len(_hits(instances, normalize_query(term, instances.stemmed), group, held=held)[0])


def rate_ratio(count_a: int, years_a: float, count_b: int, years_b: float) -> float:
    """How many times higher a's mention rate (count per year in office) is than b's;
    math.inf when count_b is 0, where the ratio is undefined."""
    if years_a <= 0 or years_b <= 0:
        raise ValueError("years must be positive")
    if count_a < 0 or count_b < 0:
        raise ValueError("count must be non-negative")
    return math.inf if count_b == 0 else count_a / years_a / (count_b / years_b)
