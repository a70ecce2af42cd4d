"""Lexicon loading, term extraction schemes, spaces, and representations."""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbias import features
from newsbias.errors import ConfigError, DataError
from newsbias.features import (
    FeatureVector,
    LexiconSet,
    PosLexicon,
    build_space,
    extract_terms,
    load_lexicon,
    load_pos_lexicon,
    vectorize,
)
from newsbias.preprocess import TokenStream, load_wordlist, mask_gender_signals, split_sentences, tokenize

import util
from util import instances_of, mention_rows, space_of


def make_text(text, spans=()):
    """One masked text, its mentions given as (start, end, form) spans."""
    return mask_gender_signals(split_sentences(tokenize(text)), mention_rows(spans))


# --- lexicon loading ---

def test_load_lexicon_two_categories(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("chief\tPOWER\njail\tPOWER\nembrace\tACTIVE\n")
    lex = load_lexicon(path)
    assert set(lex.categories) == {"POWER", "ACTIVE"}
    assert lex.categories["POWER"] == {"chief", "jail"}


def test_load_lexicon_duplicates_collapse(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("chief\tPOWER\nChief\tpower\n")
    lex = load_lexicon(path)
    assert lex.categories["POWER"] == {"chief"}


def test_load_lexicon_word_in_two_categories(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("command\tPOWER,ACTIVE\n")
    lex = load_lexicon(path)
    assert "command" in lex.categories["POWER"]
    assert "command" in lex.categories["ACTIVE"]


def test_load_lexicon_empty_category_rejected(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("chief\tPOWER,\n")
    with pytest.raises(DataError, match="empty"):
        load_lexicon(path)


def test_load_lexicon_comments_ignored(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("# header\nchief\tPOWER\n\n")
    assert load_lexicon(path).categories == {"POWER": frozenset({"chief"})}


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_line_entry_files_end_lines_at_line_feeds_only(tmp_path, separator):
    # str.splitlines also breaks at these, which numbers every later entry a line too far
    path = tmp_path / "lex.tsv"
    path.write_text(f"chief\tPOWER  # a{separator}note\njail\tPOWER\nbad entry\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"lex\.tsv:3: expected WORD<TAB>CATEGORIES"):
        load_lexicon(path)
    words = tmp_path / "words.txt"
    words.write_text(f"she{separator}he\nmr.\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"words.txt:1: word list entry {f'she{separator}he'!r} is not one")):
        load_wordlist(words)


def test_load_pos_lexicon(tmp_path):
    path = tmp_path / "pos.tsv"
    path.write_text("formidable\tADJ\nrun\tVERB\tNOUN\nfast\tADJ\tOTHER\n")
    pos = load_pos_lexicon(path)
    assert pos.primary["formidable"] == "ADJ"
    assert pos.primary["run"] == "VERB"


def test_load_pos_lexicon_conflicting_primary(tmp_path):
    path = tmp_path / "pos.tsv"
    path.write_text("run\tVERB\nrun\tNOUN\n")
    with pytest.raises(DataError, match="conflicting"):
        load_pos_lexicon(path)


def test_load_pos_lexicon_unknown_tag(tmp_path):
    path = tmp_path / "pos.tsv"
    path.write_text("run\tGERUND\n")
    with pytest.raises(DataError, match="unknown tag"):
        load_pos_lexicon(path)


# --- extract_terms ---

@pytest.fixture
def pos_lexicon(tmp_path):
    path = tmp_path / "pos.tsv"
    path.write_text("formidable\tADJ\nembrace\tVERB\nleader\tNOUN\nspoke\tVERB\n")
    return load_pos_lexicon(path)


@pytest.fixture
def lexicon(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("embrace\tACTIVE\nchief\tPOWER\njail\tPOWER\n")
    return load_lexicon(path)


def test_extract_unigrams_include_markers():
    text = make_text("Mary Harney embraced the policy", spans=[(0, 2, "full")])
    got = extract_terms(text, "", "unigram")
    assert got == Counter({"NAMEFORM_FULL": 1, "embraced": 1, "the": 1, "policy": 1})


def test_extract_unigrams_skip_numbers_and_punct():
    text = make_text("a budget of €3.4bn, agreed.")
    got = extract_terms(text, "", "unigram")
    assert set(got) == {"a", "budget", "of", "agreed"}


def test_extract_lexicon_category(lexicon):
    text = make_text("Mary Harney would embrace policy", spans=[(0, 2, "full")])
    got = extract_terms(text, "", "lexicon_category", lexicon=lexicon)
    assert got == Counter({"ACTIVE": 1})


def test_extract_lexicon_counts_occurrences(lexicon):
    text = make_text("jail the chief, then jail him again")
    got = extract_terms(text, "", "lexicon_category", lexicon=lexicon)
    assert got["POWER"] == 3


def test_extract_adjectives(pos_lexicon):
    text = make_text("the formidable leader spoke")
    got = extract_terms(text, "", "adjective", pos_lexicon=pos_lexicon)
    assert got == Counter({"formidable": 1})


def test_extract_verbs_primary_tag_only(pos_lexicon):
    text = make_text("they embrace the formidable leader who spoke")
    got = extract_terms(text, "", "verb", pos_lexicon=pos_lexicon)
    assert got == Counter({"embrace": 1, "spoke": 1})


def test_extract_section():
    assert extract_terms(make_text("body text"), "politics", "section") == Counter({"politics": 1})
    assert extract_terms(make_text("body"), "", "section") == Counter()


def test_extract_nameform():
    text = make_text("Mary Harney met Harney", spans=[(0, 2, "full"), (3, 4, "surname")])
    got = extract_terms(text, "", "nameform")
    assert got == Counter({"NAMEFORM_FULL": 1, "NAMEFORM_SURNAME": 1})


def test_sentence_window_restricts_to_mention_sentences():
    text = make_text(
        "Mary Harney backed the plan. Opponents dissented loudly.",
        spans=[(0, 2, "full")],
    )
    got = extract_terms(text, "", "unigram", window="sentence")
    assert "backed" in got
    assert "dissented" not in got


def test_sentence_window_subset_of_article_window(lexicon):
    rng = random.Random(3)
    words = ["embrace", "chief", "plan", "vote", "house"]
    for _ in range(20):
        body = ". ".join(
            " ".join(rng.choice(words) for _ in range(rng.randint(2, 6)))
            for _ in range(rng.randint(1, 4))
        )
        text = make_text("Mary Harney spoke. " + body, spans=[(0, 2, "full")])
        for scheme, kwargs in [("unigram", {}), ("lexicon_category", {"lexicon": lexicon})]:
            article = extract_terms(text, "", scheme, window="article", **kwargs)
            sentence = extract_terms(text, "", scheme, window="sentence", **kwargs)
            assert all(sentence[t] <= article[t] for t in sentence)


def test_extract_missing_resources_error():
    text = make_text("text here")
    with pytest.raises(ConfigError):
        extract_terms(text, "", "adjective")
    with pytest.raises(ConfigError):
        extract_terms(text, "", "lexicon_category")
    with pytest.raises(ConfigError):
        extract_terms(text, "", "unigram", window="paragraph")
    with pytest.raises(ConfigError):
        extract_terms(text, "", "bigram")


# --- count_terms, a block of texts at a time ---

# words of every scheme's kinds, a marker, and "." to end sentences
BLOCK_WORDS = ["chief", "jail", "embrace", "formidable", "spoke", "plan", "NAMEFORM_FULL", "NAMEFORM_SURNAME", "."]
BLOCK_POS = PosLexicon({"formidable": "ADJ", "embrace": "VERB", "spoke": "VERB", "chief": "NOUN"})
BLOCK_LEXICON = LexiconSet({"POWER": frozenset({"chief", "jail"}), "ACTIVE": frozenset({"embrace", "jail"}),
                            "NONE": frozenset({"absent"})})


@st.composite
def blocked_passes(draw):
    """A corpus pass of texts over the words above (some empty, the first longer than
    any block drawn), which texts are read, and a block size of 1 to 8 tokens."""
    words = st.lists(st.sampled_from(BLOCK_WORDS), max_size=20)
    texts = [draw(st.lists(st.sampled_from(BLOCK_WORDS), min_size=9, max_size=20)), *draw(st.lists(words, max_size=8))]
    instances = instances_of([split_sentences(TokenStream.of(text)) for text in texts], ["female"] * len(texts))
    return instances, np.array(draw(st.lists(st.booleans(), min_size=len(texts), max_size=len(texts)))), \
        draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(blocked_passes(), st.sampled_from(features.SCHEMES), st.sampled_from(features.WINDOWS))
def test_blocked_counting_equals_one_shot_counting(case, scheme, window):
    instances, read, block = case
    kwargs = {"window": window, "pos_lexicon": BLOCK_POS, "lexicon": BLOCK_LEXICON}

    def counted(block_tokens):
        with mock.patch.object(features, "BLOCK_TOKENS", block_tokens):
            return features.count_terms(instances.stream, instances.sections, read, instances.mention_sentences,
                                        scheme, **kwargs)

    *one_shot, surfaces = counted(len(instances.stream.ids) + 1)
    *blocked, blocked_surfaces = counted(block)
    assert blocked_surfaces == surfaces
    for got, want in zip(blocked, one_shot):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
    # and the one-shot count is each read text's, token by token
    text, term, counts = one_shot
    want = [util.ref_terms(t, section, scheme, **kwargs) if r else Counter()
            for t, section, r in zip(instances.stream.texts(), instances.sections, read.tolist())]
    got = [Counter() for _ in want]
    for i, t, n in zip(text.tolist(), term.tolist(), counts.tolist()):
        got[i][surfaces[t]] = n
    assert got == want


# --- build_space ---

def test_build_space_min_df_filters():
    space = build_space({"rare": 1, "common": 3}, 3, min_df=2, kind="unigram")
    assert space.kind == "unigram"
    assert space.entries == ("common",)
    assert space.doc_freq == (3,)
    assert space.n_docs == 3


def test_build_space_min_df_one_keeps_everything():
    space = build_space({"a": 1, "b": 1}, 2, min_df=1, kind="unigram")
    assert set(space.entries) == {"a", "b"}


def test_build_space_ordering_independent_of_doc_order():
    docs = [
        Counter({"zeta": 1, "alpha": 1, "NAMEFORM_FULL": 1}),
        Counter({"alpha": 2, "NAMEFORM_FULL": 1}),
        Counter({"zeta": 1}),
    ]
    a = space_of(docs, min_df=1, kind="unigram")
    b = space_of(list(reversed(docs)), min_df=1, kind="unigram")
    assert a.entries == b.entries == ("NAMEFORM_FULL", "alpha", "zeta")
    assert a.index == b.index == {"NAMEFORM_FULL": 0, "alpha": 1, "zeta": 2}
    assert a.doc_freq == b.doc_freq == (2, 2, 2)


def test_build_space_empty_error():
    with pytest.raises(DataError, match="no features survive min_df"):
        build_space({"once": 1}, 1, min_df=2, kind="unigram")


def test_build_space_bad_min_df():
    with pytest.raises(ConfigError):
        build_space({"x": 1}, 1, min_df=0, kind="unigram")


# --- vectorize ---

@pytest.fixture
def three_doc_space():
    docs = [
        Counter({"everywhere": 1, "twice": 2}),
        Counter({"everywhere": 3}),
        Counter({"everywhere": 1, "other": 1}),
    ]
    return docs, space_of(docs, min_df=1, kind="unigram")


def test_vectorize_count(three_doc_space):
    docs, space = three_doc_space
    vec = vectorize(docs[0], space, "count")
    fid = space.index["twice"]
    assert dict(zip(vec.ids, vec.values))[fid] == 2.0


def test_vectorize_boolean_is_indicator(three_doc_space):
    docs, space = three_doc_space
    for doc in docs:
        boolean = vectorize(doc, space, "boolean")
        count = vectorize(doc, space, "count")
        assert boolean.ids == count.ids
        assert all(v == 1.0 for v in boolean.values)


def test_vectorize_tfidf_everywhere_term_dropped(three_doc_space):
    docs, space = three_doc_space
    vec = vectorize(docs[1], space, "tfidf")
    assert space.index["everywhere"] not in vec.ids
    assert vec.ids == ()  # doc 1 contains only the everywhere term


def test_vectorize_tfidf_hand_computed(three_doc_space):
    docs, space = three_doc_space
    vec = vectorize(docs[0], space, "tfidf")
    fid = space.index["twice"]
    expected = 2 * math.log(3)  # two occurrences, present in 1 of 3 docs
    assert dict(zip(vec.ids, vec.values))[fid] == pytest.approx(expected, abs=1e-9)


def test_vectorize_tfidf_subset_of_count_ids(three_doc_space):
    docs, space = three_doc_space
    for doc in docs:
        tfidf = vectorize(doc, space, "tfidf")
        count = vectorize(doc, space, "count")
        assert set(tfidf.ids) <= set(count.ids)


def test_vectorize_unknown_terms_ignored(three_doc_space):
    _, space = three_doc_space
    vec = vectorize(Counter({"unseen": 4}), space, "count")
    assert vec.ids == ()


def test_vectorize_empty_multiset(three_doc_space):
    _, space = three_doc_space
    for rep in features.REPRESENTATIONS:
        assert vectorize(Counter(), space, rep).ids == ()


def test_vectorize_bad_representation(three_doc_space):
    _, space = three_doc_space
    with pytest.raises(ConfigError):
        vectorize(Counter(), space, "hashing")


def test_feature_vector_invariants():
    with pytest.raises(ValueError):
        FeatureVector(ids=(2, 1), values=(1.0, 1.0), representation="boolean")
    with pytest.raises(ValueError):
        FeatureVector(ids=(1,), values=(0.0,), representation="count")
    with pytest.raises(ValueError):
        FeatureVector(ids=(1,), values=(2.0,), representation="boolean")
