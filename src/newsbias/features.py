"""Feature extraction: typed vocabularies and sparse vectors.

Five extraction schemes are supported (unigrams, adjectives, verbs,
lexicon categories, newspaper section) plus the name-form markers, each
over either the whole article or only the sentences that mention a
politician. Vectors come in boolean, count, and tf-idf flavours; tf-idf
is raw count times ln(n_docs / doc_freq) with no smoothing, which is
well defined because every indexed feature occurs in at least one
document.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import LabeledInstance
from .errors import ConfigError, DataError, read_text
from .preprocess import MARKER, WORD, TokenStream, marker_sentences

# feature kinds
UNIGRAM = "unigram"
ADJECTIVE = "adjective"
VERB = "verb"
LEXICON_CATEGORY = "lexicon_category"
SECTION = "section"
NAMEFORM = "nameform"

SCHEMES = (UNIGRAM, ADJECTIVE, VERB, LEXICON_CATEGORY, SECTION, NAMEFORM)
WINDOWS = ("article", "sentence")
REPRESENTATIONS = ("boolean", "count", "tfidf")

POS_TAGS = ("ADJ", "VERB", "NOUN", "OTHER")

DEFAULT_MIN_DF = 3


@dataclass(frozen=True, slots=True)
class LexiconSet:
    """Named word lists grouped by category (power words, action words, ...)."""

    name: str
    categories: Mapping[str, frozenset[str]]


@dataclass(frozen=True, slots=True)
class PosLexicon:
    """Word -> part-of-speech lookup with one primary tag per word."""

    primary: Mapping[str, str]


@dataclass(frozen=True, slots=True)
class FeatureVector:
    """Sparse vector: strictly increasing ids, positive values."""

    ids: tuple[int, ...]
    values: tuple[float, ...]
    representation: str

    def __post_init__(self):
        if len(self.ids) != len(self.values):
            raise ValueError("ids and values must be parallel")
        if any(b <= a for a, b in zip(self.ids, self.ids[1:])):
            raise ValueError("feature ids must be strictly increasing")
        if any(v <= 0 for v in self.values):
            raise ValueError("feature values must be positive")
        if self.representation == "boolean" and any(v != 1.0 for v in self.values):
            raise ValueError("boolean vectors carry only 1.0 values")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class FeatureSpace:
    """Indexed vocabulary of (surface, kind) features with document frequencies."""

    entries: tuple[tuple[str, str], ...]
    index: Mapping[tuple[str, str], int]
    doc_freq: tuple[int, ...]
    n_docs: int

    def __len__(self) -> int:
        return len(self.entries)

    def id_of(self, surface: str, kind: str) -> int | None:
        return self.index.get((surface, kind))


def load_lexicon(path: str | Path, name: str | None = None) -> LexiconSet:
    """Parse `WORD<TAB>CAT1,CAT2,...` lines into category word sets."""
    path = Path(path)
    categories: dict[str, set[str]] = {}
    for line_no, line in enumerate(read_text(path, "lexicon file").splitlines(), start=1):
        entry = line.split("#", 1)[0].rstrip()
        if not entry.strip():
            continue
        parts = entry.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path.name}:{line_no}: expected WORD<TAB>CATEGORIES")
        word = parts[0].strip().lower()
        cats = [c.strip().upper() for c in parts[1].split(",")]
        if not word or any(not c for c in cats) or not cats:
            raise DataError(f"{path.name}:{line_no}: empty word or category")
        for cat in cats:
            categories.setdefault(cat, set()).add(word)
    return LexiconSet(
        name=name or path.stem,
        categories={c: frozenset(ws) for c, ws in categories.items()},
    )


def load_pos_lexicon(path: str | Path) -> PosLexicon:
    """Parse `word<TAB>PRIMARYTAG<TAB>alt1,alt2` lines (alt tags optional, only validated)."""
    path = Path(path)
    primary: dict[str, str] = {}
    for line_no, line in enumerate(read_text(path, "POS lexicon file").splitlines(), start=1):
        entry = line.split("#", 1)[0].rstrip()
        if not entry.strip():
            continue
        parts = entry.split("\t")
        if len(parts) not in (2, 3):
            raise DataError(f"{path.name}:{line_no}: expected word<TAB>TAG[<TAB>alts]")
        word = parts[0].strip().lower()
        tag = parts[1].strip().upper()
        alts = [t.strip().upper() for t in parts[2].split(",")] if len(parts) == 3 and parts[2].strip() else []
        for t in [tag, *alts]:
            if t not in POS_TAGS:
                raise DataError(f"{path.name}:{line_no}: unknown tag {t!r}")
        if word in primary and primary[word] != tag:
            raise DataError(f"{path.name}:{line_no}: conflicting primary tag for {word!r}")
        primary[word] = tag
    return PosLexicon(primary=primary)


def _window_token_indices(stream: TokenStream, window: str) -> Iterable[int]:
    if window == "article" or not stream.sentence_spans:
        return range(len(stream.tokens))
    spans = stream.sentence_spans
    return [i for s in sorted(marker_sentences(stream)) for i in range(*spans[s])]


def extract_terms(
    instance: LabeledInstance,
    scheme: str,
    *,
    window: str = "article",
    pos_lexicon: PosLexicon | None = None,
    lexicon: LexiconSet | None = None,
) -> Counter:
    """Multiset of (surface, kind) terms for one instance under a scheme.

    With window="sentence" only tokens inside sentences that contain a
    name marker are considered (the section scheme ignores the window:
    it is a property of the article, not of any sentence).
    """
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}")
    if window not in WINDOWS:
        raise ConfigError(f"unknown window {window!r}")
    if scheme == SECTION:
        section = instance.section.strip()
        return Counter({(section, SECTION): 1}) if section else Counter()

    stream = instance.stream
    terms: Counter = Counter()
    indices = _window_token_indices(stream, window)
    if scheme == UNIGRAM:
        for i in indices:
            tok = stream.tokens[i]
            if tok.kind in (WORD, MARKER):
                terms[(tok.surface, UNIGRAM)] += 1
    elif scheme in (ADJECTIVE, VERB):
        if pos_lexicon is None:
            raise ConfigError(f"scheme {scheme!r} requires a POS lexicon")
        wanted = "ADJ" if scheme == ADJECTIVE else "VERB"
        for i in indices:
            tok = stream.tokens[i]
            if tok.kind == WORD and pos_lexicon.primary.get(tok.surface) == wanted:
                terms[(tok.surface, scheme)] += 1
    elif scheme == LEXICON_CATEGORY:
        if lexicon is None:
            raise ConfigError("scheme 'lexicon_category' requires a lexicon")
        for i in indices:
            tok = stream.tokens[i]
            if tok.kind != WORD:
                continue
            for cat, words in lexicon.categories.items():
                if tok.surface in words:
                    terms[(cat, LEXICON_CATEGORY)] += 1
    elif scheme == NAMEFORM:
        for i in indices:
            tok = stream.tokens[i]
            if tok.kind == MARKER:
                terms[(tok.surface, NAMEFORM)] += 1
    return terms


def build_space(term_multisets: Sequence[Counter], min_df: int = DEFAULT_MIN_DF) -> FeatureSpace:
    """Index all terms with document frequency >= min_df, ordered by (kind, surface)."""
    if min_df < 1:
        raise ConfigError(f"min_df must be >= 1, got {min_df}")
    df: Counter = Counter()
    for terms in term_multisets:
        df.update(set(terms))
    kept = sorted(
        (term for term, n in df.items() if n >= min_df),
        key=lambda term: (term[1], term[0]),
    )
    if not kept:
        raise DataError("no features survive min_df")
    index = {term: i for i, term in enumerate(kept)}
    return FeatureSpace(
        entries=tuple(kept),
        index=index,
        doc_freq=tuple(df[term] for term in kept),
        n_docs=len(term_multisets),
    )


def vectorize(terms: Counter, space: FeatureSpace, representation: str) -> FeatureVector:
    """Sparse vector over the space; terms outside the space are ignored."""
    if representation not in REPRESENTATIONS:
        raise ConfigError(f"unknown representation {representation!r}")
    pairs: list[tuple[int, float]] = []
    for term, count in terms.items():
        fid = space.index.get(term)
        if fid is None:
            continue
        if representation == "boolean":
            value = 1.0
        elif representation == "count":
            value = float(count)
        else:
            value = count * math.log(space.n_docs / space.doc_freq[fid])
        if value > 0:
            pairs.append((fid, value))
    pairs.sort()
    return FeatureVector(
        ids=tuple(i for i, _ in pairs),
        values=tuple(v for _, v in pairs),
        representation=representation,
    )
