"""Model interpretation and corpus statistics.

Covers the read-only analyses that follow classification: ranking the
features a linear model found most discriminative for each gender,
keyword-in-context concordance extraction, and mention-rate statistics
normalized by years in office.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import preprocess
from .features import FeatureSpace
from .learn import LinearModel
from .preprocess import MARKER_SURFACES, TokenStream

DEFAULT_KWIC_WINDOW = 8


@dataclass(frozen=True)
class RankedFeatures:
    """Top discriminative features per class, strongest first.

    Female-associated features have positive weights, male-associated
    ones negative; zero-weight features never appear in either list.
    """

    female: tuple[tuple[str, str, float], ...]
    male: tuple[tuple[str, str, float], ...]
    k: int


@dataclass(frozen=True, slots=True)
class DocView:
    """One article prepared for querying: tokens, group labels, mention sentences."""

    article_id: str
    stream: TokenStream
    groups: frozenset[str]
    mention_sentences: frozenset[int]


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
    """Top-k features per class by linear weight; ties break on (kind, surface)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(model.weights) != len(space):
        raise ValueError(
            f"model has {len(model.weights)} weights but space has {len(space)} features"
        )
    positives = []
    negatives = []
    for fid, (surface, kind) in enumerate(space.entries):
        w = float(model.weights[fid])
        if w > 0:
            positives.append((surface, kind, w))
        elif w < 0:
            negatives.append((surface, kind, w))
    positives.sort(key=lambda e: (-e[2], e[1], e[0]))
    negatives.sort(key=lambda e: (e[2], e[1], e[0]))
    return RankedFeatures(female=tuple(positives[:k]), male=tuple(negatives[:k]), k=k)


def normalize_query(term: str) -> str:
    """Single-token surface for a query term, via the pipeline tokenizer.

    Marker surfaces (NAMEFORM_*) pass through verbatim so masked streams
    can be queried for them.
    """
    if term in MARKER_SURFACES:
        return term
    stream = preprocess.tokenize(term)
    if len(stream.tokens) != 1:
        raise ValueError(
            f"query {term!r} is not a single token; phrase search is not supported"
        )
    return stream.tokens[0].surface


def kwic(
    docs: Sequence[DocView],
    term: str,
    window: int = DEFAULT_KWIC_WINDOW,
    *,
    group: str | None = None,
    require_cooccurrence: bool = False,
) -> list[ConcordanceLine]:
    """Concordance lines for every occurrence of the term.

    Context never crosses article boundaries (it is truncated at the
    ends of the token stream). With require_cooccurrence, only hits in
    sentences that mention a politician are returned. Lines come back
    ordered by (article id, token position).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    surface = normalize_query(term)
    lines: list[ConcordanceLine] = []
    for doc in sorted(docs, key=lambda d: d.article_id):
        if group is not None and group not in doc.groups:
            continue
        tokens = doc.stream.tokens
        hits = [i for i, tok in enumerate(tokens) if tok.surface == surface]
        if require_cooccurrence:
            sentences = preprocess.sentence_ids(doc.stream.sentence_spans, hits)
            hits = [i for i, sent in zip(hits, sentences) if sent in doc.mention_sentences]
        for i in hits:
            lines.append(
                ConcordanceLine(
                    article_id=doc.article_id,
                    position=i,
                    left=tuple(t.surface for t in tokens[max(0, i - window) : i]),
                    keyword=tokens[i].surface,
                    right=tuple(t.surface for t in tokens[i + 1 : i + 1 + window]),
                )
            )
    return lines


def term_count(docs: Sequence[DocView], term: str, group: str | None = None) -> int:
    """Occurrences of the term in articles belonging to the group.

    An article in both groups counts toward both; group None counts all
    articles.
    """
    surface = normalize_query(term)
    total = 0
    for doc in docs:
        if group is not None and group not in doc.groups:
            continue
        total += sum(1 for t in doc.stream.tokens if t.surface == surface)
    return total


def rate(count: int, years: float) -> float:
    """Mentions per year in office."""
    if years <= 0:
        raise ValueError("years must be positive")
    return count / years


def rate_ratio(a: RateStat, b: RateStat) -> RateRatio:
    """How many times higher a's mention rate is than b's.

    A zero denominator count makes the ratio undefined; it is reported
    as +inf with the undefined flag set.
    """
    if b.count == 0:
        return RateRatio(math.inf, True)
    return RateRatio(a.rate / b.rate, False)
