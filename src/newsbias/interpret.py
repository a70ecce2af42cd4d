"""Model interpretation and corpus statistics.

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
from dataclasses import dataclass

import numpy as np

from . import preprocess
from .corpus import GENDERS, Instances
from .features import FeatureSpace
from .learn import LinearModel
from .preprocess import MARKER_SURFACES

DEFAULT_KWIC_WINDOW = 8


@dataclass(frozen=True)
class RankedFeatures:
    """Top discriminative features per class, strongest first.

    Female-associated features have positive weights, male-associated
    ones negative; zero-weight features never appear in either list.
    """

    female: tuple[tuple[str, str, float], ...]
    male: tuple[tuple[str, str, float], ...]


@dataclass(frozen=True, slots=True)
class ConcordanceLine:
    article_id: str
    position: int
    left: tuple[str, ...]
    keyword: str
    right: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class RateStat:
    term: str
    group: str
    count: int
    years: float

    def __post_init__(self):
        if self.years <= 0:
            raise ValueError("years must be positive")
        if self.count < 0:
            raise ValueError("count must be non-negative")

    @property
    def rate(self) -> float:
        return self.count / self.years


@dataclass(frozen=True, slots=True)
class RateRatio:
    value: float
    undefined: bool  # True when the denominator count is zero


def rank_features(model: LinearModel, space: FeatureSpace, k: int) -> RankedFeatures:
    """Top-k (surface, the space's kind, weight) per class by linear weight; ties break on the surface."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(model.weights) != len(space):
        raise ValueError(
            f"model has {len(model.weights)} weights but space has {len(space)} features"
        )
    kind = space.kind
    positives = []
    negatives = []
    for surface, w in zip(space.entries, model.weights.tolist()):
        if w > 0:
            positives.append((surface, kind, w))
        elif w < 0:
            negatives.append((surface, kind, w))
    positives.sort(key=lambda e: (-e[2], e[0]))
    negatives.sort(key=lambda e: (e[2], e[0]))
    return RankedFeatures(female=tuple(positives[:k]), male=tuple(negatives[:k]))


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


def _hits(instances: Instances, surface: str, group: str | None,
          cooccur: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Stream positions of the surface in articles of the group (None: all), in sentences
    that mention a politician when cooccur, and the index of each one's article."""
    stream = instances.stream
    hits = np.flatnonzero(stream.ids == stream.vocab.index.get(surface, -1))
    article = np.searchsorted(stream.bounds, hits, side="right") - 1
    if group is None:
        keep = np.ones(len(hits), bool)
    else:
        # an article is in the group when it has an instance of the group's gender
        keep = np.bincount(instances.article[instances.y == GENDERS.index(group)],
                           minlength=len(instances.article_ids))[article] > 0
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
) -> list[ConcordanceLine]:
    """Concordance lines for every occurrence of the term.

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
    return [ConcordanceLine(instances.article_ids[a], i - start, tuple(map(surfaces, ids[left:i].tolist())), surface,
                            tuple(map(surfaces, ids[i + 1:right].tolist())))
            for a, i, start, left, right in zip(article.tolist(), hits.tolist(), bounds[article].tolist(),
                                                np.maximum(bounds[article], hits - window).tolist(),
                                                np.minimum(bounds[article + 1], hits + 1 + window).tolist())]


def term_count(instances: Instances, term: str, group: str | None = None) -> int:
    """Occurrences of the term in articles belonging to the group.

    An article in both groups counts toward both; group None counts all
    articles. The term is stemmed when the pass is.
    """
    return len(_hits(instances, normalize_query(term, instances.stemmed), group)[0])


def rate_ratio(a: RateStat, b: RateStat) -> RateRatio:
    """How many times higher a's mention rate is than b's.

    A zero denominator count makes the ratio undefined; it is reported
    as +inf with the undefined flag set.
    """
    if b.count == 0:
        return RateRatio(math.inf, True)
    return RateRatio(a.rate / b.rate, False)
