"""Lexicon loading, term extraction schemes, spaces, and representations."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from newsbias import features
from newsbias.corpus import LabeledInstance
from newsbias.errors import ConfigError, DataError
from newsbias.features import (
    FeatureVector,
    build_space,
    extract_terms,
    load_lexicon,
    load_pos_lexicon,
    vectorize,
)
from newsbias.preprocess import MentionSpan, mask_gender_signals, split_sentences, tokenize


def make_instance(text, spans=(), section="", label="female"):
    stream = mask_gender_signals(split_sentences(tokenize(text)), list(spans))
    return LabeledInstance(
        article_id="a1",
        label=label,
        politician_ids=("p1",),
        headline_mention=False,
        stream=stream,
        section=section,
    )


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
    inst = make_instance("Mary Harney embraced the policy", spans=[MentionSpan(0, 2, "full")])
    got = extract_terms(inst, "unigram")
    assert got == Counter({
        ("NAMEFORM_FULL", "unigram"): 1,
        ("embraced", "unigram"): 1,
        ("the", "unigram"): 1,
        ("policy", "unigram"): 1,
    })


def test_extract_unigrams_skip_numbers_and_punct():
    inst = make_instance("a budget of €3.4bn, agreed.")
    got = extract_terms(inst, "unigram")
    assert set(got) == {("a", "unigram"), ("budget", "unigram"), ("of", "unigram"), ("agreed", "unigram")}


def test_extract_lexicon_category(lexicon):
    inst = make_instance("Mary Harney would embrace policy", spans=[MentionSpan(0, 2, "full")])
    got = extract_terms(inst, "lexicon_category", lexicon=lexicon)
    assert got == Counter({("ACTIVE", "lexicon_category"): 1})


def test_extract_lexicon_counts_occurrences(lexicon):
    inst = make_instance("jail the chief, then jail him again")
    got = extract_terms(inst, "lexicon_category", lexicon=lexicon)
    assert got[("POWER", "lexicon_category")] == 3


def test_extract_adjectives(pos_lexicon):
    inst = make_instance("the formidable leader spoke")
    got = extract_terms(inst, "adjective", pos_lexicon=pos_lexicon)
    assert got == Counter({("formidable", "adjective"): 1})


def test_extract_verbs_primary_tag_only(pos_lexicon):
    inst = make_instance("they embrace the formidable leader who spoke")
    got = extract_terms(inst, "verb", pos_lexicon=pos_lexicon)
    assert got == Counter({("embrace", "verb"): 1, ("spoke", "verb"): 1})


def test_extract_section():
    inst = make_instance("body text", section="politics")
    assert extract_terms(inst, "section") == Counter({("politics", "section"): 1})
    assert extract_terms(make_instance("body", section=""), "section") == Counter()


def test_extract_nameform():
    inst = make_instance("Mary Harney met Harney", spans=[MentionSpan(0, 2, "full"), MentionSpan(3, 4, "surname")])
    got = extract_terms(inst, "nameform")
    assert got == Counter({
        ("NAMEFORM_FULL", "nameform"): 1,
        ("NAMEFORM_SURNAME", "nameform"): 1,
    })


def test_sentence_window_restricts_to_mention_sentences():
    inst = make_instance(
        "Mary Harney backed the plan. Opponents dissented loudly.",
        spans=[MentionSpan(0, 2, "full")],
    )
    got = extract_terms(inst, "unigram", window="sentence")
    assert ("backed", "unigram") in got
    assert ("dissented", "unigram") not in got


def test_sentence_window_subset_of_article_window(lexicon):
    rng = random.Random(3)
    words = ["embrace", "chief", "plan", "vote", "house"]
    for _ in range(20):
        body = ". ".join(
            " ".join(rng.choice(words) for _ in range(rng.randint(2, 6)))
            for _ in range(rng.randint(1, 4))
        )
        text = "Mary Harney spoke. " + body
        inst = make_instance(text, spans=[MentionSpan(0, 2, "full")])
        for scheme, kwargs in [("unigram", {}), ("lexicon_category", {"lexicon": lexicon})]:
            article = extract_terms(inst, scheme, window="article", **kwargs)
            sentence = extract_terms(inst, scheme, window="sentence", **kwargs)
            assert all(sentence[t] <= article[t] for t in sentence)


def test_extract_missing_resources_error():
    inst = make_instance("text here")
    with pytest.raises(ConfigError):
        extract_terms(inst, "adjective")
    with pytest.raises(ConfigError):
        extract_terms(inst, "lexicon_category")
    with pytest.raises(ConfigError):
        extract_terms(inst, "unigram", window="paragraph")
    with pytest.raises(ConfigError):
        extract_terms(inst, "bigram")


# --- build_space ---

def term(surface, kind="unigram"):
    return (surface, kind)


def test_build_space_min_df_filters():
    docs = [Counter({term("rare"): 1, term("common"): 2}),
            Counter({term("common"): 1}),
            Counter({term("common"): 5})]
    space = build_space(docs, min_df=2)
    assert space.entries == (term("common"),)
    assert space.doc_freq == (3,)
    assert space.n_docs == 3


def test_build_space_min_df_one_keeps_everything():
    docs = [Counter({term("a"): 1}), Counter({term("b"): 1})]
    space = build_space(docs, min_df=1)
    assert set(space.entries) == {term("a"), term("b")}


def test_build_space_ordering_independent_of_doc_order():
    docs = [
        Counter({term("zeta"): 1, term("alpha"): 1, ("POWER", "lexicon_category"): 1}),
        Counter({term("alpha"): 2, ("POWER", "lexicon_category"): 1}),
        Counter({term("zeta"): 1}),
    ]
    a = build_space(docs, min_df=1)
    b = build_space(list(reversed(docs)), min_df=1)
    assert a.entries == b.entries == (
        ("POWER", "lexicon_category"), ("alpha", "unigram"), ("zeta", "unigram"),
    )
    assert a.doc_freq == b.doc_freq


def test_build_space_empty_error():
    with pytest.raises(DataError, match="no features survive min_df"):
        build_space([Counter({term("once"): 1})], min_df=2)


def test_build_space_bad_min_df():
    with pytest.raises(ConfigError):
        build_space([Counter({term("x"): 1})], min_df=0)


# --- vectorize ---

@pytest.fixture
def three_doc_space():
    docs = [
        Counter({term("everywhere"): 1, term("twice"): 2}),
        Counter({term("everywhere"): 3}),
        Counter({term("everywhere"): 1, term("other"): 1}),
    ]
    return docs, build_space(docs, min_df=1)


def test_vectorize_count(three_doc_space):
    docs, space = three_doc_space
    vec = vectorize(docs[0], space, "count")
    fid = space.id_of("twice", "unigram")
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
    assert space.id_of("everywhere", "unigram") not in vec.ids
    assert vec.ids == ()  # doc 1 contains only the everywhere term


def test_vectorize_tfidf_hand_computed(three_doc_space):
    docs, space = three_doc_space
    vec = vectorize(docs[0], space, "tfidf")
    fid = space.id_of("twice", "unigram")
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
    vec = vectorize(Counter({term("unseen"): 4}), space, "count")
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
