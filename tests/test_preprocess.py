"""Tokenizer, sentence splitter, masking, stopwords, and stemming."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbias import porter, preprocess
from newsbias.errors import InvariantError
from newsbias.preprocess import (
    DEFAULT_GENDERED_SIGNALS,
    MARKER,
    NUMBER,
    PUNCT,
    WORD,
    MentionSpan,
    Token,
    TokenStream,
    concat_streams,
    marker_sentences,
    mask_gender_signals,
    remove_stopwords,
    sentence_ids,
    split_sentences,
    stem,
    tokenize,
)


def surfaces(stream):
    return [t.surface for t in stream.tokens]


def kinds(stream):
    return [t.kind for t in stream.tokens]


# --- tokenize ---

def test_tokenize_keeps_internal_apostrophe_and_hyphen():
    got = tokenize("Harney's co-op plan.")
    assert surfaces(got) == ["harney's", "co-op", "plan", "."]
    assert kinds(got) == [WORD, WORD, WORD, PUNCT]


def test_tokenize_empty():
    assert tokenize("").tokens == ()


def test_tokenize_numbers_and_currency():
    got = tokenize("€3.4bn in 2007")
    assert surfaces(got) == ["€", "3.4bn", "in", "2007"]
    assert kinds(got) == [PUNCT, NUMBER, WORD, NUMBER]


def test_tokenize_lowercases():
    assert surfaces(tokenize("Mary HARNEY Said")) == ["mary", "harney", "said"]


def test_tokenize_number_dot_boundary():
    # the dot only joins digits on both sides
    assert surfaces(tokenize("3. 4")) == ["3", ".", "4"]
    assert surfaces(tokenize("1.2.3")) == ["1.2.3"]


def test_tokenize_trailing_apostrophe_is_punct():
    assert surfaces(tokenize("ministers' plan")) == ["ministers", "'", "plan"]


def test_tokenize_no_empty_tokens():
    got = tokenize("  a  -  b  ")
    assert all(t.surface for t in got.tokens)
    assert surfaces(got) == ["a", "-", "b"]


# --- split_sentences ---

def test_split_two_sentences():
    got = split_sentences(tokenize("She won. He lost."))
    assert got.sentence_spans == ((0, 3), (3, 6))


def test_split_no_terminal_punct_single_span():
    got = split_sentences(tokenize("the minister spoke"))
    assert got.sentence_spans == ((0, 3),)


def test_split_abbreviation_guard():
    got = split_sentences(tokenize("Dr. Smith spoke. All left."))
    assert len(got.sentence_spans) == 2
    first = got.sentence_spans[0]
    assert surfaces(got)[first[0] : first[1]] == ["dr", ".", "smith", "spoke", "."]


def test_split_groups_terminal_runs():
    got = split_sentences(tokenize("Really?! Yes."))
    assert got.sentence_spans == ((0, 3), (3, 5))


def test_split_empty_stream():
    got = split_sentences(tokenize(""))
    assert got.sentence_spans == ()


def test_spans_partition_tokens():
    for text in ["", "one", "a. b! c?", "x y. z", "Mr. Mason said. Fine."]:
        got = split_sentences(tokenize(text))
        covered = [i for s, e in got.sentence_spans for i in range(s, e)]
        assert covered == list(range(len(got.tokens)))


# --- mask_gender_signals ---

def test_mask_replaces_span_and_deletes_pronoun():
    stream = split_sentences(tokenize("Mary Harney said she would"))
    got = mask_gender_signals(stream, [MentionSpan(0, 2, "full")])
    assert surfaces(got) == ["NAMEFORM_FULL", "said", "would"]
    assert kinds(got)[0] == MARKER


def test_mask_no_matches_no_signals_is_identity():
    stream = split_sentences(tokenize("the budget passed today."))
    assert mask_gender_signals(stream, []) == stream


def test_mask_deletes_title_keeps_surname_marker():
    stream = split_sentences(tokenize("Ms Harney smiled"))
    got = mask_gender_signals(stream, [MentionSpan(1, 2, "surname")])
    assert surfaces(got) == ["NAMEFORM_SURNAME", "smiled"]


def test_mask_overlapping_spans_rejected():
    stream = tokenize("mary harney smith")
    with pytest.raises(InvariantError):
        mask_gender_signals(stream, [MentionSpan(0, 2, "full"), MentionSpan(1, 3, "full")])


def test_mask_removes_all_signals():
    text = "He said his sister saw her and herself while Mr Jones and Mrs Day spoke"
    got = mask_gender_signals(split_sentences(tokenize(text)), [])
    assert not set(surfaces(got)) & DEFAULT_GENDERED_SIGNALS


def test_mask_is_idempotent():
    stream = split_sentences(tokenize("She told Mary Harney that he agreed. Fine."))
    once = mask_gender_signals(stream, [MentionSpan(2, 4, "full")])
    twice = mask_gender_signals(once, [])
    assert twice == once


def test_mask_token_count_law():
    stream = split_sentences(tokenize("She told Mary Harney the plan and he agreed"))
    spans = [MentionSpan(2, 4, "full")]
    got = mask_gender_signals(stream, spans)
    deleted = sum(
        1 for t in stream.tokens if t.kind == WORD and t.surface in DEFAULT_GENDERED_SIGNALS
    )
    span_tokens = sum(s.end - s.start for s in spans)
    assert len(got.tokens) == len(stream.tokens) - deleted - (span_tokens - len(spans))


def test_mask_reindexes_sentences():
    stream = split_sentences(tokenize("She won. Mary Harney lost."))
    got = mask_gender_signals(stream, [MentionSpan(3, 5, "full")])
    assert surfaces(got) == ["won", ".", "NAMEFORM_FULL", "lost", "."]
    assert got.sentence_spans == ((0, 2), (2, 5))


def test_mask_custom_signal_list():
    stream = tokenize("the wife said")
    got = mask_gender_signals(stream, [], signals=frozenset({"wife"}))
    assert surfaces(got) == ["the", "said"]


# --- remove_stopwords ---

def test_remove_stopwords_basic():
    got = remove_stopwords(tokenize("the minister spoke"), frozenset({"the"}))
    assert surfaces(got) == ["minister", "spoke"]


def test_remove_stopwords_empty_stoplist_identity():
    stream = split_sentences(tokenize("the minister spoke."))
    assert remove_stopwords(stream, frozenset()) == stream


def test_remove_stopwords_markers_immune():
    stream = mask_gender_signals(
        tokenize("the mary harney plan"), [MentionSpan(1, 3, "full")]
    )
    got = remove_stopwords(stream, frozenset({"the", "nameform_full", "plan"}))
    assert surfaces(got) == ["NAMEFORM_FULL"]


def test_remove_stopwords_reindexes_spans():
    stream = split_sentences(tokenize("the end. a new start."))
    got = remove_stopwords(stream, frozenset({"the", "a"}))
    assert got.sentence_spans == ((0, 2), (2, 5))


# --- stem ---

# frozen reference vectors for the Porter algorithm (classic rule-table
# examples plus domain words), full-word stems
PORTER_VECTORS = [
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"), ("feed", "feed"),
    ("agreed", "agre"), ("plastered", "plaster"), ("bled", "bled"),
    ("motoring", "motor"), ("sing", "sing"), ("conflated", "conflat"),
    ("troubled", "troubl"), ("sized", "size"), ("hopping", "hop"),
    ("tanned", "tan"), ("falling", "fall"), ("hissing", "hiss"),
    ("fizzed", "fizz"), ("failing", "fail"), ("filing", "file"),
    ("happy", "happi"), ("sky", "sky"), ("relational", "relat"),
    ("conditional", "condit"), ("rational", "ration"), ("valency", "valenc"),
    ("hesitancy", "hesit"), ("digitizer", "digit"), ("formality", "formal"),
    ("sensitivity", "sensit"), ("sensibility", "sensibl"),
    ("triplicate", "triplic"), ("formative", "form"), ("formalize", "formal"),
    ("electricity", "electr"), ("electrical", "electr"), ("hopeful", "hope"),
    ("goodness", "good"), ("revival", "reviv"), ("allowance", "allow"),
    ("inference", "infer"), ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"), ("defensible", "defens"), ("irritant", "irrit"),
    ("replacement", "replac"), ("adjustment", "adjust"), ("dependent", "depend"),
    ("adoption", "adopt"), ("communism", "commun"), ("activate", "activ"),
    ("angularity", "angular"), ("effective", "effect"), ("bowdlerize", "bowdler"),
    ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
    ("controlled", "control"), ("rolled", "roll"),
    ("generalizations", "gener"), ("oscillators", "oscil"),
    ("embraces", "embrac"), ("embrace", "embrac"), ("agree", "agre"),
    ("wooed", "woo"), ("beaten", "beaten"), ("drinking", "drink"),
    ("ministers", "minist"), ("governments", "govern"), ("voting", "vote"),
    ("elected", "elect"), ("formidable", "formid"),
    ("distinguished", "distinguish"), ("cooperation", "cooper"),
]


@pytest.mark.parametrize("word,expected", PORTER_VECTORS)
def test_porter_vectors(word, expected):
    assert porter.stem(word) == expected


def test_porter_short_words_unchanged():
    assert porter.stem("a") == "a"
    assert porter.stem("is") == "is"


def test_porter_deterministic_and_stable():
    rng = random.Random(0)
    alphabet = "abcdefghilmnoprstuy"
    for _ in range(300):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 12)))
        once = porter.stem(word)
        assert porter.stem(word) == once


def test_stem_stream_touches_only_words():
    stream = mask_gender_signals(
        split_sentences(tokenize("Mary Harney embraces 3 policies.")),
        [MentionSpan(0, 2, "full")],
    )
    got = stem(stream)
    assert surfaces(got) == ["NAMEFORM_FULL", "embrac", "3", "polici", "."]
    assert got.sentence_spans == stream.sentence_spans


# --- stream plumbing ---

def test_concat_streams_offsets_spans():
    a = split_sentences(tokenize("Headline here"))
    b = split_sentences(tokenize("Body one. Body two."))
    got = concat_streams(a, b)
    assert got.sentence_spans == ((0, 2), (2, 5), (5, 8))


def test_stream_rejects_bad_spans():
    toks = tuple(tokenize("a b c").tokens)
    with pytest.raises(InvariantError):
        TokenStream(toks, ((0, 2),))
    with pytest.raises(InvariantError):
        TokenStream(toks, ((0, 2), (2, 4)))


def test_stream_rejects_unknown_marker():
    # the check runs where a marker token is made, once per distinct token
    with pytest.raises(InvariantError):
        TokenStream((Token("NAMEFORM_NICKNAME", MARKER),))
    assert Token("NAMEFORM_NICKNAME", WORD).kind == WORD


# --- shared tokens and memoised stems, against per-occurrence references ---

# whitespace the tokenizer must split on like the regex does, letters whose
# lowercase is longer or combining, non-ASCII digits, and the joiners
SPECIAL_CHARS = list("aAbZé09.,!?'’-_ \t\n") + [" ", " ", "\x1c", "İ", "ß", "̇", "٣"]
TEXTS = st.text(st.one_of(st.sampled_from(SPECIAL_CHARS), st.characters()), max_size=40)
WORDY_TEXTS = st.text(st.sampled_from(list("abcdeilmnorstuy   .,")), max_size=80)


def ref_tokenize(text):
    # the tokenizer as a plain scan of the pattern, one new Token per match
    tokens = []
    for m in preprocess._TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tokens.append(Token(m.group() if kind == PUNCT else m.group().lower(), kind))
    return tuple(tokens)


@pytest.fixture
def fresh_memos():
    """Start from empty memos, so no memo empties itself in the middle of the test."""
    for memo in (preprocess._TOKENS, preprocess._CHUNKS, preprocess._STEMS):
        memo.clear()


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_tokenize_equals_pattern_scan(text):
    assert tokenize(text).tokens == ref_tokenize(text)
    # a second call, served from the memo, gives the same
    assert tokenize(text).tokens == ref_tokenize(text)


def test_tokenize_shares_one_token_per_surface_and_kind(fresh_memos):
    tokens = tokenize("Husband husband, HUSBAND. 3 3").tokens
    words = [t for t in tokens if t.kind == WORD]
    assert len(words) == 3 and all(t is words[0] for t in words)
    assert tokens[-1] is tokens[-2]
    assert stem(TokenStream(tokens)).tokens[0] is words[0]  # "husband" is its own stem


@settings(max_examples=100, deadline=None)
@given(WORDY_TEXTS)
def test_stem_equals_porter_per_token(text):
    stream = split_sentences(tokenize(text))
    got = stem(stream)
    assert [(t.surface, t.kind) for t in got.tokens] == [
        (porter.stem(t.surface) if t.kind == WORD else t.surface, t.kind) for t in stream.tokens
    ]
    assert got.sentence_spans == stream.sentence_spans


def test_memos_stay_within_their_bound(fresh_memos, monkeypatch):
    monkeypatch.setattr(preprocess, "_CACHE_LIMIT", 50)
    memos = (preprocess._TOKENS, preprocess._CHUNKS, preprocess._STEMS)
    rng = random.Random(3)
    words = sorted({
        "".join(rng.choice("bdfgklmnprstv") + rng.choice("aeiou") for _ in range(4))
        for _ in range(400)
    })
    largest = [0, 0, 0]
    for i, word in enumerate(words):
        text = f"{word}, {word}" if i % 3 else word
        stream = tokenize(text)
        stemmed = stem(stream)
        assert stream.tokens == ref_tokenize(text)
        assert [t.surface for t in stemmed.tokens] == [
            porter.stem(t.surface) if t.kind == WORD else t.surface for t in stream.tokens
        ]
        largest = [max(size, len(memo)) for size, memo in zip(largest, memos)]
    assert largest == [50, 50, 50]


# --- sentence lookup, against a linear scan ---

def ref_sentence_ids(spans, positions):
    out = []
    for pos in positions:
        for idx, (start, end) in enumerate(spans):
            if start <= pos < end:
                out.append(idx)
                break
        else:
            out.append(None)
    return out


@st.composite
def spans_and_positions(draw):
    # sorted, disjoint, non-empty spans with optional gaps between them
    spans, pos = [], draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 8))):
        length = draw(st.integers(1, 5))
        spans.append((pos, pos + length))
        pos += length + draw(st.sampled_from([0, 0, 0, 2]))
    positions = draw(st.lists(st.integers(-2, pos + 2), max_size=20))
    return spans, positions


@settings(max_examples=300, deadline=None)
@given(spans_and_positions())
def test_sentence_ids_equal_linear_scan(case):
    spans, positions = case
    assert sentence_ids(spans, positions) == ref_sentence_ids(spans, positions)


# --- the one masking pass, against the chain of separate passes ---

def ref_remove_stopwords(stream, stoplist):
    # the separate stopword pass that masking now folds in
    out = []
    new_pos = [0] * (len(stream.tokens) + 1)
    for i, tok in enumerate(stream.tokens):
        new_pos[i] = len(out)
        if not (tok.kind == WORD and tok.surface in stoplist):
            out.append(tok)
    new_pos[len(stream.tokens)] = len(out)
    spans = tuple((new_pos[s], new_pos[e]) for s, e in stream.sentence_spans if new_pos[e] > new_pos[s])
    return TokenStream(tuple(out), spans)


def ref_marker_sentences(stream):
    return frozenset(
        idx for idx, (start, end) in enumerate(stream.sentence_spans)
        if any(tok.kind == MARKER for tok in stream.tokens[start:end])
    )


# signals, stopwords, words that look like markers, and the words between
MASK_WORDS = ["she", "his", "mr", "the", "a", "of", "said", "plan", "ministers",
              "nameform_full", "NAMEFORM_SURNAME", "marker"]
MASK_TOKENS = (
    [Token(w, WORD) for w in MASK_WORDS]
    + [Token(".", PUNCT), Token("3", NUMBER), Token("NAMEFORM_GIVEN", MARKER)]
)
STOPLISTS = st.frozensets(st.sampled_from(MASK_WORDS + ["he", "nameform_given", "NAMEFORM_GIVEN"]))


@st.composite
def masking_cases(draw):
    """A stream with or without sentence spans (short sentences, so some end up
    empty), disjoint mention spans over it, a signal list and a stoplist."""
    tokens = tuple(draw(st.lists(st.sampled_from(MASK_TOKENS), max_size=30)))
    n = len(tokens)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n // 2))) if n > 1 else []
    bounds = [0, *cuts, n]
    spans = tuple(zip(bounds, bounds[1:])) if n and draw(st.booleans()) else ()
    mentions, pos = [], 0
    while pos < n and draw(st.booleans()):
        start = draw(st.integers(pos, n - 1))
        end = draw(st.integers(start + 1, min(n, start + 3)))
        mentions.append(MentionSpan(start, end, draw(st.sampled_from(["full", "surname", "given"]))))
        pos = end
    signals = draw(st.sampled_from([DEFAULT_GENDERED_SIGNALS, frozenset({"said", "the"}), frozenset()]))
    return TokenStream(tokens, spans), mentions, signals, draw(STOPLISTS)


@settings(max_examples=400, deadline=None)
@given(masking_cases(), st.booleans())
def test_one_masking_pass_equals_mask_then_stopwords_then_stem(case, apply_stem):
    stream, mentions, signals, stoplist = case
    three = ref_remove_stopwords(mask_gender_signals(stream, mentions, signals), stoplist)
    one = mask_gender_signals(stream, mentions, signals | stoplist)
    if apply_stem:
        three, one = stem(three), stem(one)
    assert one.tokens == three.tokens
    assert one.sentence_spans == three.sentence_spans
    assert remove_stopwords(stream, stoplist) == ref_remove_stopwords(stream, stoplist)


@settings(max_examples=300, deadline=None)
@given(masking_cases())
def test_marker_sentences_equal_a_scan_of_each_sentence(case):
    stream, mentions, signals, stoplist = case
    for s in (stream, mask_gender_signals(stream, mentions, signals | stoplist)):
        assert marker_sentences(s) == ref_marker_sentences(s)


def test_masking_hands_out_the_shared_marker_token():
    got = mask_gender_signals(tokenize("mary harney spoke"), [MentionSpan(0, 2, "full")])
    assert got.tokens[0] is preprocess._TOKENS[("NAMEFORM_FULL", MARKER)]
