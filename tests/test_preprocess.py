"""Tokenizer, sentence splitter, masking, stopwords, and stemming."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbias import pipeline, porter, preprocess, synth
from newsbias.errors import InvariantError
from newsbias.preprocess import (
    DEFAULT_GENDERED_SIGNALS,
    FORMS,
    MARKER,
    MARKER_SURFACES,
    NUMBER,
    PUNCT,
    WORD,
    MentionSpan,
    TokenStream,
    Vocab,
    kind_of,
    mask_gender_signals,
    remove_stopwords,
    sentence_ids,
    sentences_holding,
    split_sentences,
    stem,
    tokenize,
)


def surfaces(stream):
    return list(stream.tokens)


def kinds(stream):
    """(surface, kind) of each token."""
    return [(t, kind_of(t)) for t in stream.tokens]


# --- tokenize ---

def test_tokenize_keeps_internal_apostrophe_and_hyphen():
    got = tokenize("Harney's co-op plan.")
    assert kinds(got) == [("harney's", WORD), ("co-op", WORD), ("plan", WORD), (".", PUNCT)]


def test_tokenize_empty():
    assert tokenize("").tokens == ()


def test_tokenize_numbers_and_currency():
    got = tokenize("€3.4bn in 2007")
    assert kinds(got) == [("€", PUNCT), ("3.4bn", NUMBER), ("in", WORD), ("2007", NUMBER)]


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
    assert all(got.tokens)
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
    assert kinds(got) == [("NAMEFORM_FULL", MARKER), ("said", WORD), ("would", WORD)]


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
        1 for t in stream.tokens if kind_of(t) == WORD and t in DEFAULT_GENDERED_SIGNALS
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

def test_texts_of_one_stream_keep_their_own_sentences():
    got = split_sentences(tokenize(["Headline here", "", "Body one. Body two."]))
    assert got.sentence_spans == ((0, 2), (2, 5), (5, 8))
    head, empty, body = got.texts()
    assert head.tokens == ("headline", "here") and head.sentence_spans == ((0, 2),)
    assert empty.tokens == () and empty.sentence_spans == ()
    assert body.sentence_spans == ((0, 3), (3, 6))
    assert body.vocab is got.vocab


def test_stream_rejects_bad_spans():
    toks = tuple(tokenize("a b c").tokens)
    with pytest.raises(InvariantError):
        TokenStream.of(toks, ((0, 2),))
    with pytest.raises(InvariantError):
        TokenStream.of(toks, ((0, 2), (2, 4)))


def test_stream_rejects_unknown_marker():
    # a surface is a marker exactly when it is one of the three name forms;
    # any other surface takes the kind the tokenizer's pattern gives it
    assert kind_of("NAMEFORM_NICKNAME") == WORD
    assert {kind_of(m) for m in MARKER_SURFACES} == {MARKER}
    with pytest.raises(InvariantError):
        TokenStream.of(("NAMEFORM_FULL", "said"), ((0, 1),))


# --- derived kinds, and tokens and stems over a vocabulary, against per-occurrence references ---

# whitespace the tokenizer must split on like the regex does, letters whose
# lowercase is longer or combining, non-ASCII digits, and the joiners
SPECIAL_CHARS = list("aAbZé09.,!?'’-_ \t\n") + [" ", " ", "\x1c", "İ", "ß", "̇", "٣"]
TEXTS = st.text(st.one_of(st.sampled_from(SPECIAL_CHARS), st.characters()), max_size=40)
WORDY_TEXTS = st.text(st.sampled_from(list("abcdeilmnorstuy   .,")), max_size=80)


def ref_tokenize(text):
    # the tokenizer as a plain scan of the pattern: (surface, kind) per match
    tokens = []
    for m in preprocess._TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tokens.append((m.group() if kind == PUNCT else m.group().lower(), kind))
    return tokens


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_tokenize_equals_pattern_scan(text):
    vocab = Vocab()
    assert kinds(tokenize(text, vocab)) == ref_tokenize(text)
    # a second call, served from the vocabulary's chunks, gives the same
    assert kinds(tokenize(text, vocab)) == ref_tokenize(text)


@settings(max_examples=500, deadline=None)
@given(st.text(st.characters(), max_size=60))
def test_kind_follows_from_the_surface(text):
    # over all of Unicode: the kind read back from a token's surface is the
    # kind the pattern gave its match, and a word's Porter stem is a word
    for surface, kind in ref_tokenize(text):
        assert kind_of(surface) == kind
        if kind == WORD:
            assert kind_of(porter.stem(surface)) == WORD


def test_tokenize_shares_one_token_per_surface_and_kind():
    # one id per surface: case variants of a word and repeats of a number share it
    vocab = Vocab()
    stream = tokenize("Husband husband, HUSBAND. 3 3", vocab)
    assert [t for t in stream.tokens if kind_of(t) == WORD] == ["husband"] * 3
    assert stream.ids.tolist() == [vocab.index[t] for t in stream.tokens]
    assert len(set(stream.ids.tolist())) == len(set(stream.tokens)) == 4
    assert [vocab.kinds[i] for i in stream.ids.tolist()] == [kind_of(t) for t in stream.tokens]
    assert stem(stream).ids[0] == stream.ids[0]  # "husband" is its own stem


def test_memos_stay_within_their_bound():
    # a pass's memos are its vocabulary: one chunk entry per distinct whitespace
    # chunk, one surface per distinct token or stem, and none outlives the pass
    rng = random.Random(3)
    words = sorted({
        "".join(rng.choice("bdfgklmnprstv") + rng.choice("aeiou") for _ in range(4))
        for _ in range(400)
    })
    vocab = Vocab()
    fresh = len(vocab.surfaces)
    chunks, seen = set(), set()
    for i, word in enumerate(words):
        text = f"{word}, {word}" if i % 3 else word
        stream = tokenize(text, vocab)
        stemmed = stem(stream)
        assert kinds(stream) == ref_tokenize(text)
        assert list(stemmed.tokens) == [porter.stem(t) if kind == WORD else t for t, kind in kinds(stream)]
        chunks.update(text.split())
        seen.update(stream.tokens + stemmed.tokens)
        assert len(vocab) == len(chunks)
        assert len(vocab.surfaces) == len(vocab.kinds) == len(vocab.index) == fresh + len(seen)
    assert len(vocab) > 400
    assert not Vocab() and len(Vocab().surfaces) == fresh


def test_passes_do_not_share_a_vocabulary_and_ids_never_change():
    text = "Husband husband, HUSBAND. 3 3"
    vocab = Vocab()
    first = tokenize(text, vocab)
    assert first.tokens == ("husband", "husband", ",", "husband", ".", "3", "3")
    assert len(set(first.ids[[0, 1, 3]].tolist())) == 1 and first.ids[5] == first.ids[6]
    # growing the vocabulary, stemming over it and masking leave every id's surface as it was
    surfaces = list(vocab.surfaces)
    later = stem(mask_gender_signals(split_sentences(tokenize("Ministers spoke; husbands too.", vocab)), []))
    assert vocab.surfaces[: len(surfaces)] == surfaces
    assert tokenize(text, vocab).ids.tolist() == first.ids.tolist()
    assert later.vocab is vocab and later.tokens == ("minist", "spoke", ";", "husband", "too", ".")
    # each pass of the pipeline makes its own vocabulary, shared by the streams it makes
    articles, registry = synth.generate_corpus(20, seed=5)
    raw = pipeline.build_instances(articles, registry, masked=False)
    instances = pipeline.build_instances(articles, registry)
    vocabs = {id(raw.stream.vocab)}, {id(i.stream.vocab) for i in instances}
    assert [len(found) for found in vocabs] == [1, 1] and not vocabs[0] & vocabs[1]


@settings(max_examples=100, deadline=None)
@given(WORDY_TEXTS)
def test_stem_equals_porter_per_token(text):
    stream = split_sentences(tokenize(text))
    got = stem(stream)
    assert kinds(got) == [(porter.stem(t) if kind == WORD else t, kind) for t, kind in kinds(stream)]
    assert got.sentence_spans == stream.sentence_spans


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
    # sentence spans that partition a text, or none (a text not split), and
    # positions inside and outside it
    n = draw(st.integers(0, 20))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=8))) if n > 1 else []
    bounds = [0, *cuts, n]
    spans = list(zip(bounds, bounds[1:])) if n and draw(st.booleans()) else []
    return n, spans, draw(st.lists(st.integers(-2, n + 2), max_size=20))


@settings(max_examples=300, deadline=None)
@given(spans_and_positions())
def test_sentence_ids_equal_linear_scan(case):
    n, spans, positions = case
    got = sentence_ids(TokenStream.of(["x"] * n, spans), positions)
    assert got.tolist() == [-1 if idx is None else idx for idx in ref_sentence_ids(spans, positions)]


# --- the one masking pass, against the chain of separate passes ---

def ref_remove_stopwords(stream, stoplist):
    # the separate stopword pass that masking now folds in
    out = []
    new_pos = [0] * (len(stream.tokens) + 1)
    for i, tok in enumerate(stream.tokens):
        new_pos[i] = len(out)
        if not (REF_KINDS[tok] == WORD and tok in stoplist):
            out.append(tok)
    new_pos[len(stream.tokens)] = len(out)
    spans = tuple((new_pos[s], new_pos[e]) for s, e in stream.sentence_spans if new_pos[e] > new_pos[s])
    return TokenStream.of(tuple(out), spans)


def ref_marker_sentences(stream):
    """Per sentence, whether a token of it is a marker."""
    return [any(REF_KINDS[tok] == MARKER for tok in stream.tokens[start:end])
            for start, end in stream.sentence_spans]


# signals, stopwords, words that look like markers, and the words between,
# with each token's kind written out for the references above
MASK_WORDS = ["she", "his", "mr", "the", "a", "of", "said", "plan", "ministers",
              "nameform_full", "marker"]
MASK_TOKENS = (
    [(w, WORD) for w in MASK_WORDS]
    + [(".", PUNCT), ("3", NUMBER), ("NAMEFORM_GIVEN", MARKER), ("NAMEFORM_SURNAME", MARKER)]
)
REF_KINDS = {**dict(MASK_TOKENS), **{m: MARKER for m in MARKER_SURFACES}}
# stoplists may hold markers, punctuation and numbers too: only words are dropped
STOPLISTS = st.frozensets(st.sampled_from(
    MASK_WORDS + ["he", "nameform_given", "NAMEFORM_GIVEN", "NAMEFORM_SURNAME", ".", "3"]))


@st.composite
def masking_cases(draw):
    """A stream with or without sentence spans (short sentences, so some end up
    empty), disjoint mention spans over it, a signal list and a stoplist."""
    tokens = tuple(draw(st.lists(st.sampled_from([tok for tok, _ in MASK_TOKENS]), max_size=30)))
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
    return TokenStream.of(tokens, spans), mentions, signals, draw(STOPLISTS)


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
def test_sentences_holding_equal_a_scan_of_each_sentence(case):
    stream, mentions, signals, stoplist = case
    # the sentences that mention a politician: those of raw text holding a mention's start
    starts = [m.start for m in mentions]
    assert sentences_holding(stream, starts).tolist() == [any(a <= p < b for p in starts)
                                                          for a, b in stream.sentence_spans]
    # and those of masked text holding a marker
    for s in (stream, mask_gender_signals(stream, mentions, signals | stoplist)):
        assert sentences_holding(s, np.flatnonzero(s.ids < len(FORMS))).tolist() == ref_marker_sentences(s)


def test_masking_hands_out_the_shared_marker_token():
    got = mask_gender_signals(tokenize("mary harney spoke"), [MentionSpan(0, 2, "full")])
    assert kinds(got) == [("NAMEFORM_FULL", MARKER), ("spoke", WORD)]
