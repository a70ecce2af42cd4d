"""Feature extraction: one scheme's vocabulary and sparse vectors over it.

Five extraction schemes are supported (unigrams, adjectives, verbs,
lexicon categories, newspaper section) plus the name-form markers, each
over either the whole article or only the sentences that mention a
politician. A feature is its surface string (a token, lexicon category
or section), and a space holds one scheme's features, its kind, in
surface order. Vectors come in boolean, count, and tf-idf flavours;
tf-idf is raw count times ln(n_docs / doc_freq) with no smoothing, which
is well defined because every indexed feature occurs in at least one
document.

count_terms reads a whole corpus pass a block of texts at a time:
per-id tables over the pass's vocabulary give the term each token id
counts as (word and marker kinds, marker ids or the POS lexicon, ranked
in surface order, or one table per lexicon category, since a word may
sit in several), the pass's mention-sentence mask gives the sentence
window, and one np.unique over each block's (text, term) keys counts its
texts' terms. extract_terms is count_terms over one text, as a Counter;
vectorize writes one row, the reference each row of a dataset equals.
tests/util.py keeps ref_terms, the token-by-token reference of the pass.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, read_entries
from .preprocess import FORMS, MARKER, WORD, TokenStream, Vocab, read_word, sentences_holding, stem

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

# count_terms reads a block of texts of about this many tokens at a time
BLOCK_TOKENS = 1 << 20


def _stems(words: Sequence[str]) -> dict[str, str]:
    """Each word's stem by the masking chain's stemmer, the form it takes in stemmed text."""
    return dict(zip(words, stem(TokenStream.of(words)).tokens))


@dataclass(frozen=True, slots=True)
class LexiconSet:
    """Word lists grouped by category (power words, action words, ...)."""

    categories: Mapping[str, frozenset[str]]

    def stemmed(self) -> "LexiconSet":
        """The same lists with each word stemmed, to look up stemmed tokens."""
        stems = _stems(sorted(set().union(*self.categories.values())))
        return LexiconSet({c: frozenset(stems[w] for w in ws) for c, ws in self.categories.items()})


@dataclass(frozen=True, slots=True)
class PosLexicon:
    """Word -> part-of-speech lookup with one primary tag per word."""

    primary: Mapping[str, str]

    def stemmed(self) -> "PosLexicon":
        """The same lookup keyed by stems, to look up stemmed tokens; two
        words that share a stem must share their primary tag."""
        primary: dict[str, str] = {}
        first: dict[str, str] = {}
        for word, word_stem in _stems(sorted(self.primary)).items():
            tag = self.primary[word]
            other = first.setdefault(word_stem, word)
            if primary.setdefault(word_stem, tag) != tag:
                raise DataError(f"POS lexicon words {other!r} ({primary[word_stem]}) and {word!r} ({tag}) "
                                f"share the stem {word_stem!r} but not a primary tag")
        return PosLexicon(primary)


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
    """The indexed vocabulary of one scheme, its kind: sorted surfaces with document frequencies."""

    kind: str
    entries: tuple[str, ...]
    index: Mapping[str, int]
    doc_freq: tuple[int, ...]
    n_docs: int

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(*paths: str | Path) -> LexiconSet:
    """Parse `WORD<TAB>CAT1,CAT2,...` lines, each WORD read by read_word, into
    category word sets merged across the files; a file with no entry raises."""
    categories: dict[str, set[str]] = {}
    for path in paths:
        for where, entry in read_entries(path, "lexicon file"):
            parts = entry.split("\t")
            if len(parts) != 2:
                raise DataError(f"{where}: expected WORD<TAB>CATEGORIES")
            word = read_word(parts[0], where, "lexicon word")
            cats = [c.strip().upper() for c in parts[1].split(",")]
            if not all(cats):
                raise DataError(f"{where}: empty category")
            for cat in cats:
                categories.setdefault(cat, set()).add(word)
    return LexiconSet({c: frozenset(ws) for c, ws in categories.items()})


def load_pos_lexicon(path: str | Path) -> PosLexicon:
    """Parse `word<TAB>PRIMARYTAG<TAB>alt1,alt2` lines, each word read by read_word
    (alt tags optional, only validated); a file with no entry raises."""
    primary: dict[str, str] = {}
    for where, entry in read_entries(path, "POS lexicon file"):
        parts = entry.split("\t")
        if len(parts) not in (2, 3):
            raise DataError(f"{where}: expected word<TAB>TAG[<TAB>alts]")
        word = read_word(parts[0], where, "POS lexicon word")
        tag = parts[1].strip().upper()
        alts = [t.strip().upper() for t in parts[2].split(",")] if len(parts) == 3 and parts[2].strip() else []
        for t in [tag, *alts]:
            if t not in POS_TAGS:
                raise DataError(f"{where}: unknown tag {t!r}")
        if primary.setdefault(word, tag) != tag:
            raise DataError(f"{where}: conflicting primary tag for {word!r}")
    return PosLexicon(primary=primary)


def _check(scheme: str, window: str, pos_lexicon: PosLexicon | None, lexicon: LexiconSet | None) -> None:
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}")
    if window not in WINDOWS:
        raise ConfigError(f"unknown window {window!r}")
    if scheme in (ADJECTIVE, VERB) and pos_lexicon is None:
        raise ConfigError(f"scheme {scheme!r} requires a POS lexicon")
    if scheme == LEXICON_CATEGORY and lexicon is None:
        raise ConfigError("scheme 'lexicon_category' requires a lexicon")


def extract_terms(
    stream: TokenStream,
    section: str,
    scheme: str,
    *,
    window: str = "article",
    pos_lexicon: PosLexicon | None = None,
    lexicon: LexiconSet | None = None,
) -> Counter[str]:
    """Multiset of the surfaces of one text's features under a scheme: count_terms
    over the stream as a pass of its one text, whose article's section is section
    and whose sentences holding a marker mention a politician."""
    held = sentences_holding(stream, np.flatnonzero(stream.ids < len(FORMS)))
    _, term, counts, surfaces = count_terms(stream, [section], np.ones(1, bool), held, scheme, window=window,
                                            pos_lexicon=pos_lexicon, lexicon=lexicon)
    return Counter(dict(zip(map(surfaces.__getitem__, term.tolist()), counts.tolist())))


def _reads(vocab: Vocab, scheme: str, pos_lexicon: PosLexicon | None) -> np.ndarray:
    """A table over the ids: True at the tokens a token-level scheme counts as themselves."""
    if scheme == UNIGRAM:
        return vocab.of_kind(WORD) | vocab.of_kind(MARKER)
    if scheme == NAMEFORM:
        return vocab.of_kind(MARKER)
    tag = "ADJ" if scheme == ADJECTIVE else "VERB"
    return vocab.flags(word for word, t in pos_lexicon.primary.items() if t == tag) & vocab.of_kind(WORD)


def count_terms(
    stream: TokenStream,
    sections: Sequence[str],
    read: np.ndarray,
    mention_sentences: np.ndarray,
    scheme: str,
    *,
    window: str = "article",
    pos_lexicon: PosLexicon | None = None,
    lexicon: LexiconSet | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Each text's term counts under a scheme, read from a whole corpus pass.

    Returns (text, term, count) int64 entries, one per term present in a
    text, sorted by text and then term, and the terms' surfaces in surface
    order: term t is surfaces[t]. Only texts where read[i] is True count.
    A text's terms are its word and marker tokens (unigram), its markers
    (nameform), its words whose primary POS tag is ADJ or VERB (adjective,
    verb), each lexicon category once per word token in it
    (lexicon_category), or its stripped section sections[i] once unless
    blank (section). With window="sentence" only tokens inside sentences
    that mention_sentences (a bool per sentence of the stream) marks count,
    or every token of a stream before splitting; the section scheme
    ignores the window, a section being the article's. The stream's
    sentences must cover it once split, as split_sentences leaves them.
    Texts are counted a block of about BLOCK_TOKENS tokens at a time, in
    text order, so memory beyond the entries stays bounded.
    """
    _check(scheme, window, pos_lexicon, lexicon)
    if scheme == SECTION:
        present = [(i, section.strip()) for i, section in enumerate(sections) if read[i] and section.strip()]
        surfaces = sorted({section for _, section in present})
        rank = {section: t for t, section in enumerate(surfaces)}
        text = np.array([i for i, _ in present], np.int64)
        term = np.array([rank[section] for _, section in present], np.int64)
        n_terms = max(len(surfaces), 1)
        keys, counts = np.unique(text * n_terms + term, return_counts=True)
        return (*np.divmod(keys, n_terms), counts, surfaces)
    vocab, bounds = stream.vocab, stream.bounds
    if scheme == LEXICON_CATEGORY:
        # one table per category: a word in several categories counts toward each
        surfaces = sorted(lexicon.categories)
        word = vocab.of_kind(WORD)
        tables = [np.where(vocab.flags(lexicon.categories[c]) & word, t, -1).astype(np.int32)
                  for t, c in enumerate(surfaces)]
        counted = vocab.flags(set().union(*lexicon.categories.values())) & word
    else:
        # every id the scheme reads, ranked in surface order (the ids stand for their surfaces until
        # the end, where the ranks present are renumbered)
        surfaces = sorted(np.flatnonzero(_reads(vocab, scheme, pos_lexicon)).tolist(), key=vocab.surfaces.__getitem__)
        tables = [np.full(len(vocab.surfaces), -1, np.int32)]
        tables[0][surfaces] = np.arange(len(surfaces))
        counted = tables[0] >= 0
    n_terms = max(len(surfaces), 1)
    cuts = np.append(np.unique(np.searchsorted(bounds[:-1], np.arange(0, bounds[-1], BLOCK_TOKENS))), len(bounds) - 1)
    texts, terms, counts = [], [], []
    for first, last in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        start, end = bounds[first], bounds[last]
        ids = stream.ids[start:end]
        text = np.repeat(np.arange(last - first, dtype=np.int32), np.diff(bounds[first:last + 1]))
        selected = read[first:last][text] & counted[ids]
        if window == "sentence" and len(stream.ends):
            # the block's sentences, which end inside it, as a bool per token
            held = slice(*np.searchsorted(stream.ends, (start, end), side="right"))
            selected &= np.repeat(mention_sentences[held], np.diff(stream.ends[held], prepend=start))
        positions = np.flatnonzero(selected)
        ids, text = ids[positions], text[positions]
        if scheme == LEXICON_CATEGORY:
            term = np.concatenate([ids[:0], *(table[ids] for table in tables)])
            text = np.tile(text, len(tables))[term >= 0]
            term = term[term >= 0]
        else:
            term = tables[0][ids]
        # int32 keys where the block's texts times the terms fit
        dtype = np.int32 if (last - first) * n_terms < 2 ** 31 else np.int64
        keys, n = np.unique(text.astype(dtype, copy=False) * n_terms + term, return_counts=True)
        text, term = np.divmod(keys, n_terms)
        # each block's entries kept in int32 where the texts and counts fit, widened once all are counted
        fit = np.int32 if max(len(bounds), end - start) < 2 ** 31 else np.int64
        texts.append((text + first).astype(fit))
        terms.append(term.astype(fit))
        counts.append(n.astype(fit))
    if scheme != LEXICON_CATEGORY:
        # renumber the ranks present, which keeps their order
        present = np.zeros(len(surfaces), bool)
        for term in terms:
            present[term] = True
        renumbered = np.cumsum(present, dtype=np.int32) - 1
        terms = [renumbered[term] for term in terms]
        surfaces = list(map(vocab.surfaces.__getitem__, compress(surfaces, present.tolist())))
    for pieces in (texts, terms, counts):
        # one column at a time, so that each column's pieces are let go before the next is widened
        pieces[:] = [np.concatenate([np.zeros(0, np.int64), *pieces], dtype=np.int64)]
    return texts[0], terms[0], counts[0], surfaces


def build_space(doc_freq: Mapping[str, int], n_docs: int, min_df: int = DEFAULT_MIN_DF, *,
                kind: str) -> FeatureSpace:
    """Index the terms of one scheme with document frequency >= min_df over n_docs documents, in surface order."""
    if min_df < 1:
        raise ConfigError(f"min_df must be >= 1, got {min_df}")
    kept = sorted(term for term, n in doc_freq.items() if n >= min_df)
    if not kept:
        raise DataError("no features survive min_df")
    return FeatureSpace(
        kind=kind,
        entries=tuple(kept),
        index={term: i for i, term in enumerate(kept)},
        doc_freq=tuple(doc_freq[term] for term in kept),
        n_docs=n_docs,
    )


def vectorize(terms: Counter[str], space: FeatureSpace, representation: str) -> FeatureVector:
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
