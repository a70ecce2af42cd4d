"""Tokenization, sentence splitting, and gender-signal masking, over token ids.

The pipeline order is: tokenize -> split_sentences -> mask_gender_signals
(which drops the gender signals and, when configured, the stopwords in
one pass) -> (optionally) stem. Each step takes a whole corpus at once, a
TokenStream of texts end to end (one text is a stream of one).

A token is its surface string; within one corpus pass each distinct
surface has one int32 id that never changes (a Vocab, made per pass). A
token's kind follows from the surface (kind_of: MARKER for the three
marker surfaces, else the name of the tokenizer pattern's group that
matches it), exact because lowercasing and Porter-stemming keep a word's
first character a letter and masking alone makes markers. The vocabulary
tokenizes each distinct whitespace chunk once, and a token's kind, stem
and membership of a word list are per-id tables filled once per distinct
surface, so each step is a few numpy operations over the whole corpus. A
vocabulary lives as long as its pass's streams and is bounded by the
pass's distinct chunks: about 340 bytes per distinct word.

Masking deletes grammatical gender signals (pronouns and titles, see
DEFAULT_GENDERED_SIGNALS) and replaces each politician mention with a
single neutral marker that records the form of the name used
(full name, surname only, or given name only). Mentions reach it as the
corpus scan keeps them: (start, end, form index) int rows. Content words
that merely relate to gender ("husband", "female", ...) are deliberately
left in place: they are analysis targets, not leakage.
"""

from __future__ import annotations

import re
import struct
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import porter
from .errors import DataError, InvariantError, read_entries

# token kinds
WORD = "word"
NUMBER = "number"
PUNCT = "punct"
MARKER = "marker"

# name-form markers, from the most specific naming down; the only surfaces a
# marker token may carry, and the marker of FORMS[i] has id i in every vocabulary
FORM_FULL = "full"
FORM_SURNAME = "surname"
FORM_GIVEN = "given"
MARKER_FOR_FORM = {
    FORM_FULL: "NAMEFORM_FULL",
    FORM_SURNAME: "NAMEFORM_SURNAME",
    FORM_GIVEN: "NAMEFORM_GIVEN",
}
MARKER_SURFACES = frozenset(MARKER_FOR_FORM.values())
FORMS = tuple(MARKER_FOR_FORM)

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
    rf"(?P<{NUMBER}>\d+(?:\.\d+)*[^\W\d_]*)"
    rf"|(?P<{WORD}>[^\W\d_]+(?:['’\-][^\W\d_]+)*)"
    rf"|(?P<{PUNCT}>\S)",
)

# one id, or two, as the native int32 bytes np.array(ids, np.int32).tobytes() gives
_PACK_ID = struct.Struct("=i").pack
_PACK_IDS = struct.Struct("=ii").pack

_NO_POSITIONS = np.zeros(0, np.int64)
_NO_MENTIONS = np.zeros((0, 3), np.int64)


def kind_of(surface: str) -> str:
    """MARKER for the three marker surfaces, else the kind the tokenizer's pattern gives the surface."""
    return MARKER if surface in MARKER_SURFACES else _TOKEN_RE.match(surface).lastgroup


def has_word(text: str) -> bool:
    """Whether the tokenizer reads a word token in text."""
    return any(m.lastgroup == WORD for m in _TOKEN_RE.finditer(text))


class Vocab(dict):
    """One corpus pass's memo of the whitespace chunks it has tokenized: chunk ->
    its tokens' int32 ids, as bytes. index maps a surface to its id (a new one
    takes the next, and its kind from the tokenizer that made it or else from
    kind_of), and surfaces and kinds give each id's surface and kind."""

    def __init__(self):
        super().__init__()
        self.surfaces: list[str] = []
        self.kinds: list[str] = []
        self.index: dict[str, int] = {}
        for form in FORMS:
            self.id(MARKER_FOR_FORM[form])

    def id(self, surface: str, kind: str | None = None) -> int:
        i = self.index.setdefault(surface, len(self.surfaces))
        if i == len(self.surfaces):
            self.surfaces.append(surface)
            self.kinds.append(kind or kind_of(surface))
        return i

    def __missing__(self, chunk: str) -> bytes:
        # re's \w is str.isalnum() or "_", so a letter is a \w that is neither \d nor
        # "_": [^\W\d_]+ matches a chunk of letters whole, one word, its lowercased
        # self. Letters then one character that is not alphanumeric are that word,
        # then that character as punctuation: no group reaches past the letters.
        if chunk.isalpha():
            ids = _PACK_ID(self.id(chunk.lower(), WORD))
        elif chunk[:-1].isalpha() and not chunk[-1].isalnum():
            ids = _PACK_IDS(self.id(chunk[:-1].lower(), WORD), self.id(chunk[-1], PUNCT))
        else:
            # the pattern's group names are the kinds: only words and numbers are lowercased
            ids = array("i", [self.id(m.group() if m.lastgroup == PUNCT else m.group().lower(), m.lastgroup)
                              for m in _TOKEN_RE.finditer(chunk)]).tobytes()
        self[chunk] = ids
        return ids

    def flags(self, words: Iterable[str]) -> np.ndarray:
        """A table over the ids: True at the surfaces in words."""
        table = np.zeros(len(self.surfaces), bool)
        table[[i for i in map(self.index.get, words) if i is not None]] = True
        return table

    def of_kind(self, kind: str) -> np.ndarray:
        """A table over the ids: True at the surfaces of the kind."""
        return np.array([k == kind for k in self.kinds], bool)


@dataclass(frozen=True, eq=False, slots=True)
class TokenStream:
    """Texts end to end as int32 token ids over one vocabulary: text i is
    ids[bounds[i]:bounds[i + 1]]. ends holds the sentence ends, none before
    split_sentences: a sentence runs from the previous end (or 0) to its own,
    and none crosses the end of a text. Streams over different vocabularies
    are equal when their surfaces, texts and sentences are."""

    vocab: Vocab
    ids: np.ndarray
    bounds: np.ndarray
    ends: np.ndarray

    @classmethod
    def of(cls, tokens: Sequence[str], sentence_spans: Sequence[tuple[int, int]] = ()) -> "TokenStream":
        """One text from its surfaces, with (start, end) sentence spans that partition it or none."""
        cuts = [0, *(end for _, end in sentence_spans)]
        if sentence_spans and ([*map(tuple, sentence_spans)] != [*zip(cuts, cuts[1:])] or cuts[-1] != len(tokens)
                               or cuts != sorted(set(cuts))):
            raise InvariantError("sentence spans must partition the tokens")
        return cls(vocab := Vocab(), np.fromiter(map(vocab.id, tokens), np.int32), np.array((0, len(tokens))),
                   np.array(cuts[1:], np.int64))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        return isinstance(other, TokenStream) and (self.tokens, self.bounds.tolist(), self.ends.tolist()) == (
            other.tokens, other.bounds.tolist(), other.ends.tolist())

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(map(self.vocab.surfaces.__getitem__, self.ids.tolist()))

    @property
    def sentence_spans(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip([0, *self.ends.tolist()], self.ends.tolist()))

    def texts(self) -> list["TokenStream"]:
        """Each text as a stream of its own over the same vocabulary, its ids a view of this stream's."""
        bounds = self.bounds.tolist()
        cuts = np.searchsorted(self.ends, self.bounds, side="right")
        # each text's sentence ends and bounds, counted from the text's start
        ends = self.ends - np.repeat(self.bounds[:-1], np.diff(cuts))
        own = np.column_stack((np.zeros(len(bounds) - 1, np.int64), np.diff(self.bounds)))
        cuts = cuts.tolist()
        return [TokenStream(self.vocab, self.ids[bounds[i]:bounds[i + 1]], own[i], ends[cuts[i]:cuts[i + 1]])
                for i in range(len(own))]


def tokenize(texts: str | Sequence[str], vocab: Vocab | None = None) -> TokenStream:
    """Lowercased tokens over letters/digits; single-char punct; no sentence ends.
    One text per item of texts (a str is one text), over vocab or a new one."""
    if isinstance(texts, str):
        texts = (texts,)
    vocab = Vocab() if vocab is None else vocab
    # str.split() splits on exactly the characters \S excludes, so no token spans
    # two chunks; joining the chunks' bytes is the fastest way to lay ids end to end
    parts = [b"".join(map(vocab.__getitem__, text.split())) for text in texts]
    bounds = np.zeros(len(parts) + 1, np.int64)
    np.cumsum([len(part) // 4 for part in parts], out=bounds[1:])
    return TokenStream(vocab, np.frombuffer(b"".join(parts), np.int32), bounds, _NO_POSITIONS)


def split_sentences(stream: TokenStream) -> TokenStream:
    """Close a sentence after each run of . ! ? unless guarded by an abbreviation.

    The guard applies to a lone "." directly preceded, in its own text, by a
    word in DEFAULT_ABBREVIATIONS ("dr", "st", ...). A final unterminated
    sentence is closed at the end of its text; an empty text has none.
    """
    ids, vocab, n = stream.ids, stream.vocab, len(stream.ids)
    final = vocab.flags(_SENTENCE_FINAL)[ids]
    # a run ends before a token that is not final; one that runs on into the
    # next text ends at its own text's end all the same, as every sentence does
    run_end = final.copy()
    run_end[:-1] &= ~final[1:]
    # an abbreviation is not sentence-final, so a "." after one starts its run
    guarded = np.zeros(n + 1, bool)
    guarded[1:n] = run_end[1:] & vocab.flags((".",))[ids[1:]] & vocab.flags(DEFAULT_ABBREVIATIONS)[ids[:-1]]
    guarded[stream.bounds] = False
    is_end = np.zeros(n + 1, bool)
    is_end[1:] = run_end & ~guarded[:n]
    is_end[stream.bounds] = True
    is_end[0] = False
    return replace(stream, ends=np.flatnonzero(is_end))


def sentence_ids(stream: TokenStream, positions: Sequence[int]) -> np.ndarray:
    """Index of the sentence holding each position, counted over the whole
    stream; -1 where none does (outside the stream, or before splitting)."""
    positions = np.asarray(positions, np.int64)
    out = np.searchsorted(stream.ends, positions, side="right")
    out[(positions < 0) | (out >= len(stream.ends))] = -1
    return out


def sentences_holding(stream: TokenStream, positions: Sequence[int]) -> np.ndarray:
    """A bool per sentence of the stream: True where the sentence holds any of
    the positions (mention starts, or marker ids: the sentences that mention a politician)."""
    held = np.zeros(len(stream.ends) + 1, bool)
    held[np.searchsorted(stream.ends, positions, side="right")] = True  # past the last sentence: the spare slot
    return held[:-1]


def mask_gender_signals(stream: TokenStream, mentions: np.ndarray,
                        signals: frozenset[str] = DEFAULT_GENDERED_SIGNALS) -> TokenStream:
    """Delete the words in signals and collapse each mention span to one marker.

    This is the one pass that deletes tokens and remaps sentence ends and
    text bounds: pass signals | stoplist to drop stopwords in the same pass.
    Mentions index the whole stream as a corpus scan keeps them:
    (start, end, index of the form in FORMS) rows sorted by start. They
    must be disjoint and within bounds (the matcher guarantees both), and
    overlap raises. All other tokens pass through unchanged, including
    quoted material; a sentence left empty is gone.
    """
    starts, ends, forms = mentions.T
    n = len(stream.ids)
    overlaps = np.flatnonzero(starts[1:] < ends[:-1])
    if len(overlaps):
        raise InvariantError(f"overlapping mention spans at token {starts[overlaps[0] + 1]}")
    if len(ends) and ends[-1] > n:
        raise InvariantError(f"mention span [{starts[-1]}, {ends[-1]}) exceeds stream length {n}")

    keep = ~(stream.vocab.flags(signals) & stream.vocab.of_kind(WORD))[stream.ids]
    # every token of a mention but its first goes; the first becomes the marker
    inner = ends - starts - 1
    offsets = np.cumsum(inner) - inner
    keep[np.arange(inner.sum()) + np.repeat(starts + 1 - offsets, inner)] = False
    keep[starts] = True
    kept = np.zeros(n + 1, np.int32)  # kept[i]: tokens kept before token i
    np.cumsum(keep, out=kept[1:])
    ids = stream.ids[keep]
    ids[kept[starts]] = forms
    ends = kept[stream.ends]
    return TokenStream(stream.vocab, ids, kept[stream.bounds], ends[np.diff(ends, prepend=0) > 0])


def remove_stopwords(stream: TokenStream, stoplist: frozenset[str]) -> TokenStream:
    """Drop word tokens found in the stoplist; markers are never removed."""
    return mask_gender_signals(stream, _NO_MENTIONS, stoplist)


def stem(stream: TokenStream) -> TokenStream:
    """Replace each word token by its Porter stem; other kinds untouched."""
    vocab = stream.vocab
    table = np.arange(len(vocab.surfaces), dtype=np.int32)
    present = np.bincount(stream.ids, minlength=len(table)) > 0
    words = np.flatnonzero(present & vocab.of_kind(WORD)).tolist()
    table[words] = [vocab.id(porter.stem(vocab.surfaces[i])) for i in words]
    return replace(stream, ids=table[stream.ids])


def read_word(text: str, where: str, what: str) -> str:
    """The word a word field of a line-entry file names, lowercased: its stripped text must be one
    token of kind word, as no other could ever match one, else it raises naming where, what and it."""
    text = text.strip()
    # a run of letters is one word whole, as Vocab.__missing__ reads it; else one match must span the text
    if not text.isalpha():
        match = _TOKEN_RE.match(text)
        if not match or match.lastgroup != WORD or match.end() != len(text):
            raise DataError(f"{where}: {what} {text!r} is not one word")
    return text.lower()


def load_wordlist(path: str | Path) -> frozenset[str]:
    """One word per line, read by read_word; blank lines and '#' comments
    ignored, and a file with no entry raises."""
    return frozenset(read_word(entry, where, "word list entry") for where, entry in read_entries(path, "word list"))
