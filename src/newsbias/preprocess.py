"""Tokenization, sentence splitting, and gender-signal masking.

The pipeline order is: tokenize -> split_sentences -> mask_gender_signals
(which drops the gender signals and, when configured, the stopwords in
one pass) -> (optionally) stem. All operations are pure and return new
TokenStream values, so they are safe to run data-parallel per article.

Tokens are frozen and shared: tokenize and stem hand out one Token per
(surface, kind) pair, and memoise their per-string work (the tokens of
each whitespace-delimited chunk, the Porter stem of each word), so it
runs once per distinct string rather than once per occurrence. Each
memo empties itself once it holds _CACHE_LIMIT entries; the memos change
no output. A Token of kind MARKER must carry one of MARKER_SURFACES;
Token checks this when made, and masking takes its markers from the
shared tokens too, so the check runs once per distinct token.

Masking deletes grammatical gender signals (pronouns and titles, see
DEFAULT_GENDERED_SIGNALS) and replaces each politician mention with a
single neutral marker that records the form of the name used
(full name, surname only, or given name only). Content words that merely
relate to gender ("husband", "female", ...) are deliberately left in
place: they are analysis targets, not leakage.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import porter
from .errors import InvariantError, read_text

# token kinds
WORD = "word"
NUMBER = "number"
PUNCT = "punct"
MARKER = "marker"

# name-form markers; the only surfaces a marker token may carry
FORM_FULL = "full"
FORM_SURNAME = "surname"
FORM_GIVEN = "given"
MARKER_FOR_FORM = {
    FORM_FULL: "NAMEFORM_FULL",
    FORM_SURNAME: "NAMEFORM_SURNAME",
    FORM_GIVEN: "NAMEFORM_GIVEN",
}
MARKER_SURFACES = frozenset(MARKER_FOR_FORM.values())

# grammatical gender signals deleted outright by masking; titles included,
# gendered content nouns (wife, husband, female, ...) deliberately excluded
DEFAULT_GENDERED_SIGNALS = frozenset(
    """he him his himself she her hers herself
    mr mrs ms miss madam sir
    spokesman spokeswoman chairman chairwoman""".split()
)

DEFAULT_ABBREVIATIONS = frozenset({"mr", "mrs", "ms", "dr", "st"})

_SENTENCE_FINAL = frozenset({".", "!", "?"})

# numbers: digit runs with dots between digits and trailing letters ("3.4bn");
# words: unicode letters with internal apostrophes/hyphens kept
_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)*[^\W\d_]*)"
    r"|(?P<word>[^\W\d_]+(?:['’\-][^\W\d_]+)*)"
    r"|(?P<punct>\S)",
)


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    kind: str

    def __post_init__(self):
        if self.kind == MARKER and self.surface not in MARKER_SURFACES:
            raise InvariantError(f"unknown marker token {self.surface!r}")


@dataclass(frozen=True, slots=True)
class MentionSpan:
    """Token index span [start, end) covering one politician mention."""

    start: int
    end: int
    form: str

    def __post_init__(self):
        if self.form not in MARKER_FOR_FORM:
            raise InvariantError(f"unknown name form {self.form!r}")
        if not 0 <= self.start < self.end:
            raise InvariantError(f"bad mention span [{self.start}, {self.end})")


@dataclass(frozen=True, slots=True)
class TokenStream:
    """Immutable token sequence, optionally carrying sentence spans."""

    tokens: tuple[Token, ...]
    sentence_spans: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.sentence_spans:
            expected = 0
            for start, end in self.sentence_spans:
                if start != expected or end <= start:
                    raise InvariantError("sentence spans must partition the tokens")
                expected = end
            if expected != len(self.tokens):
                raise InvariantError("sentence spans must cover all tokens")

    def __len__(self) -> int:
        return len(self.tokens)


# entries per memo; a distinct word costs about 350 bytes over the three
# memos, and a 20,000-word vocabulary fills about 27,000 chunk entries
_CACHE_LIMIT = 1 << 16


class _Memo(dict):
    """A dict that fills a missing key from fn and empties itself at _CACHE_LIMIT entries."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        if len(self) >= _CACHE_LIMIT:
            self.clear()
        value = self[key] = self.fn(key)
        return value


# (surface, kind) -> the one shared Token
_TOKENS = _Memo(lambda key: Token(*key))


def _tokenize_chunk(chunk: str) -> tuple[Token, ...]:
    out = []
    for m in _TOKEN_RE.finditer(chunk):  # the pattern's group names are the kinds
        kind = m.lastgroup
        surface = m.group()
        out.append(_TOKENS[(surface if kind == PUNCT else surface.lower(), kind)])
    return tuple(out)


# whitespace-delimited chunk -> its tokens; str.split() splits on exactly
# the characters \S excludes, so no token spans two chunks and a text's
# tokens are its chunks' tokens in order
_CHUNKS = _Memo(_tokenize_chunk)

# word surface -> the Token of its Porter stem
_STEMS = _Memo(lambda surface: _TOKENS[(porter.stem(surface), WORD)])


def tokenize(text: str) -> TokenStream:
    """Lowercased tokens over letters/digits; single-char punct; no sentence spans."""
    return TokenStream(tuple(chain.from_iterable(map(_CHUNKS.__getitem__, text.split()))))


def split_sentences(
    stream: TokenStream,
    abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS,
) -> TokenStream:
    """Close a sentence after each run of . ! ? unless guarded by an abbreviation.

    The guard applies to a lone "." directly preceded by a registered
    abbreviation word ("dr", "st", ...). A final unterminated sentence is
    closed at the end of the stream; an empty stream has no spans.
    """
    tokens = stream.tokens
    spans = []
    start = 0
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind == PUNCT and tok.surface in _SENTENCE_FINAL:
            run_start = i
            while i + 1 < n and tokens[i + 1].kind == PUNCT and tokens[i + 1].surface in _SENTENCE_FINAL:
                i += 1
            lone_period = i == run_start and tok.surface == "."
            guarded = (
                lone_period
                and run_start > 0
                and tokens[run_start - 1].kind == WORD
                and tokens[run_start - 1].surface in abbreviations
            )
            if not guarded:
                spans.append((start, i + 1))
                start = i + 1
        i += 1
    if start < n:
        spans.append((start, n))
    return TokenStream(tokens, tuple(spans))


def concat_streams(a: TokenStream, b: TokenStream) -> TokenStream:
    """Join two streams, keeping both sets of sentence spans (b's shifted)."""
    offset = len(a.tokens)
    spans = tuple(a.sentence_spans) + tuple((s + offset, e + offset) for s, e in b.sentence_spans)
    return TokenStream(tuple(a.tokens) + tuple(b.tokens), spans)


def sentence_ids(
    spans: Sequence[tuple[int, int]], positions: Iterable[int]
) -> list[int | None]:
    """Index of the sentence span holding each position; None where no span does.

    Spans must be sorted and disjoint, as a TokenStream's are: the last
    span starting at or before a position is the only one that can hold it.
    """
    starts = [start for start, _ in spans]
    out: list[int | None] = []
    for pos in positions:
        idx = bisect_right(starts, pos) - 1
        out.append(idx if idx >= 0 and pos < spans[idx][1] else None)
    return out


def mask_gender_signals(
    stream: TokenStream,
    mentions: Sequence[MentionSpan],
    signals: frozenset[str] = DEFAULT_GENDERED_SIGNALS,
) -> TokenStream:
    """Delete the words in signals and collapse each mention span to one marker.

    This is the one loop that deletes tokens and reindexes sentence
    spans: pass signals | stoplist to drop stopwords in the same pass.
    Mention spans must be disjoint and within bounds (they come from the
    matcher, which guarantees both); overlap is an upstream contract
    violation and raises. All other tokens pass through unchanged,
    including quoted material.
    """
    n = len(stream.tokens)
    ordered = sorted(mentions, key=lambda s: s.start)
    prev_end = 0
    for span in ordered:
        if span.start < prev_end:
            raise InvariantError(f"overlapping mention spans at token {span.start}")
        if span.end > n:
            raise InvariantError(f"mention span [{span.start}, {span.end}) exceeds stream length {n}")
        prev_end = span.end

    marker_at = {s.start: s for s in ordered}
    out: list[Token] = []
    new_pos = [0] * (n + 1)
    i = 0
    while i < n:
        new_pos[i] = len(out)
        span = marker_at.get(i)
        if span is not None:
            out.append(_TOKENS[(MARKER_FOR_FORM[span.form], MARKER)])
            for j in range(i + 1, span.end):
                new_pos[j] = len(out) - 1
            i = span.end
            continue
        tok = stream.tokens[i]
        if not (tok.kind == WORD and tok.surface in signals):
            out.append(tok)
        i += 1
    new_pos[n] = len(out)
    # new_pos[i] = number of output tokens emitted for input tokens < i;
    # sentences that end up empty are dropped
    spans = tuple((new_pos[s], new_pos[e]) for s, e in stream.sentence_spans if new_pos[e] > new_pos[s])
    return TokenStream(tuple(out), spans)


def remove_stopwords(stream: TokenStream, stoplist: frozenset[str]) -> TokenStream:
    """Drop word tokens found in the stoplist; markers are never removed."""
    return mask_gender_signals(stream, (), stoplist)


def marker_sentences(stream: TokenStream) -> frozenset[int]:
    """Indices of the sentence spans that hold a name marker: the sentences
    of masked text that mention a politician."""
    positions = [i for i, tok in enumerate(stream.tokens) if tok.kind == MARKER]
    return frozenset(sentence_ids(stream.sentence_spans, positions)) - {None}


def stem(stream: TokenStream) -> TokenStream:
    """Replace each word token by its Porter stem; other kinds untouched."""
    stems = _STEMS
    tokens = tuple([stems[t.surface] if t.kind == WORD else t for t in stream.tokens])
    return TokenStream(tokens, stream.sentence_spans)


def load_wordlist(path: str | Path) -> frozenset[str]:
    """One lowercase token per line; blank lines and '#' comments ignored."""
    words = set()
    for line in read_text(path, "word list").splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            words.add(entry.lower())
    return frozenset(words)
