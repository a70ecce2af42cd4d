"""Ingestion, registry validation, matching, labeling, years in office."""

from __future__ import annotations

import datetime
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbias import corpus, pipeline, preprocess
from newsbias.errors import DataError
from newsbias.preprocess import MARKER, kind_of

import util
from util import article_row, days_after, politician, write_articles, write_registry


@pytest.fixture
def registry_file(tmp_path):
    path = tmp_path / "registry.json"
    write_registry(
        path,
        [
            politician("p1", "female", "Mary", "Harney", terms=[("health", "2000-01-01", "2004-06-15")]),
            politician("p2", "male", "Brian", "Cowen", terms=[("finance", "2004-06-16", "2008-05-06")]),
            politician("p3", "male", "Noel", "Dempsey", terms=[("transport", "2002-06-06", "2011-03-09")]),
        ],
    )
    return path


def load_registry(registry_file):
    return corpus.load_registry(registry_file)


# --- load_articles ---

def test_load_articles_order_preserved(tmp_path):
    path = tmp_path / "a.jsonl"
    write_articles(path, [article_row(f"a{i}", f"body {i}") for i in (3, 1, 2)])
    got = corpus.load_articles(path)
    assert [a.id for a in got] == ["a3", "a1", "a2"]


def test_load_articles_empty_file(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text("")
    assert corpus.load_articles(path) == []


def test_load_articles_missing_body_names_record(tmp_path):
    path = tmp_path / "a.jsonl"
    row = article_row("a2", "x")
    del row["body"]
    write_articles(path, [article_row("a1", "fine"), row])
    with pytest.raises(DataError, match="missing field body at line 2"):
        corpus.load_articles(path)


def test_load_articles_errors_name_the_line(tmp_path):
    # a blank line is skipped but counted: the bad record is on line 3
    path = tmp_path / "a.jsonl"
    row = article_row("a2", "x")
    del row["body"]
    path.write_text("\n".join([json.dumps(article_row("a1", "fine")), "", json.dumps(row)]) + "\n")
    with pytest.raises(DataError, match="missing field body at line 3"):
        corpus.load_articles(path)
    path.write_text("\n".join([json.dumps(article_row("a1", "x")), "  ", json.dumps(article_row("a1", "y"))]) + "\n")
    with pytest.raises(DataError, match="duplicate article id 'a1' at line 3"):
        corpus.load_articles(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        *(pytest.param(field, None, f"null field {field} at line 2", id=field)
          for field in ["body", "headline", "section", "source", "id", "date"]),
        # nor another JSON type as its text: the list body used to match the politician it names
        pytest.param("body", ["Keane", "said"], "field body must be a string, got ['Keane', 'said'] at line 2",
                     id="list-body"),
        pytest.param("section", ["news"], "field section must be a string, got ['news'] at line 2",
                     id="list-section"),
        pytest.param("headline", {"text": "h"}, "field headline must be a string, got {'text': 'h'} at line 2",
                     id="object-headline"),
        pytest.param("source", True, "field source must be a string, got True at line 2", id="bool-source"),
        pytest.param("id", 7, "field id must be a string, got 7 at line 2", id="number-id"),
        # an id must be printable and, like a body, not blank
        pytest.param("id", " ", "field id is blank or not printable: ' ' at line 2", id="blank-id"),
        pytest.param("id", "\x00", "field id is blank or not printable: '\\x00' at line 2", id="nul-id"),
        pytest.param("body", " ", "field body is blank: ' ' at line 2", id="blank-body"),
    ],
)
def test_load_articles_null_field_names_field_and_record(field, value, message, tmp_path):
    # a null must not be ingested as the text "None"
    path = tmp_path / "a.jsonl"
    row = article_row("a2", "x", headline="h")
    row[field] = value
    write_articles(path, [article_row("a1", "fine"), row])
    with pytest.raises(DataError, match=re.escape(message)):
        corpus.load_articles(path)


def test_load_articles_duplicate_id(tmp_path):
    path = tmp_path / "a.jsonl"
    write_articles(path, [article_row("dup", "x"), article_row("dup", "y")])
    with pytest.raises(DataError, match="dup"):
        corpus.load_articles(path)


def test_load_articles_bad_json_names_line(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text(json.dumps(article_row("a1", "x")) + "\n{broken\n")
    with pytest.raises(DataError, match="line 2"):
        corpus.load_articles(path)


def test_load_articles_bare_carriage_return_between_tokens(tmp_path):
    # a lone "\r" is JSON whitespace inside a record, not a line end
    path = tmp_path / "a.jsonl"
    record = json.dumps(article_row("a1", "x")).replace(", ", ",\r ")
    path.write_bytes((record + "\n").encode("utf-8"))
    assert [a.id for a in corpus.load_articles(path)] == ["a1"]


def test_load_articles_crlf_equals_lf(tmp_path):
    rows = [article_row(f"a{i}", f"body {i}\r\nsecond line", headline="h") for i in range(3)]
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    write_articles(lf, rows)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert corpus.load_articles(crlf) == corpus.load_articles(lf)
    assert len(corpus.load_articles(lf)) == 3


def test_load_articles_bad_date(tmp_path):
    path = tmp_path / "a.jsonl"
    write_articles(path, [article_row("a1", "x", date="2005-13-40")])
    with pytest.raises(DataError, match="invalid date"):
        corpus.load_articles(path)


def test_articles_round_trip(tmp_path):
    path = tmp_path / "a.jsonl"
    write_articles(
        path,
        [
            article_row("a1", "Mary Harney spoke.", headline="Budget", section=""),
            article_row("a2", "Über die Brücke – 3.4bn €", date="1999-02-28"),
        ],
    )
    first = corpus.load_articles(path)
    out = tmp_path / "b.jsonl"
    corpus.save_articles(first, out)
    assert corpus.load_articles(out) == first


# --- load_registry ---

def test_load_registry_counts(registry_file):
    records = load_registry(registry_file)
    assert len(records) == 3
    assert sum(len(r.terms) for r in records) == 3


def test_registry_term_start_after_end(tmp_path):
    path = tmp_path / "r.json"
    write_registry(path, [politician("p1", "female", "Mary", "Harney", terms=[("health", "2004-01-01", "2004-01-01")])])
    with pytest.raises(DataError, match="not before"):
        corpus.load_registry(path)


def test_registry_overlapping_terms_named(tmp_path):
    path = tmp_path / "r.json"
    write_registry(
        path,
        [politician("p1", "female", "Mary", "Harney",
                    terms=[("health", "2000-01-01", "2004-01-01"), ("finance", "2003-01-01", "2005-01-01")])],
    )
    with pytest.raises(DataError, match=r"p1.*2000-01-01"):
        corpus.load_registry(path)


def test_registry_duplicate_id(tmp_path):
    path = tmp_path / "r.json"
    write_registry(path, [politician("p1", "female", "A", "B"), politician("p1", "male", "C", "D")])
    with pytest.raises(DataError, match="duplicate"):
        corpus.load_registry(path)


def test_registry_requires_names(tmp_path):
    path = tmp_path / "r.json"
    write_registry(path, [politician("p1", "female", "", "Harney")])
    with pytest.raises(DataError, match=re.escape("field given_name holds no word: '' for politician 'p1'")):
        corpus.load_registry(path)


def test_registry_bad_gender(tmp_path):
    path = tmp_path / "r.json"
    write_registry(path, [{"id": "p1", "gender": "other", "given_name": "A", "surname": "B", "terms": []}])
    with pytest.raises(DataError, match="gender"):
        corpus.load_registry(path)


def harney(**changes):
    return {**politician("p1", "female", "Mary", "Harney"), **changes}


@pytest.mark.parametrize(
    "entry, message",
    [
        (harney(given_name=None), "null field given_name for politician 'p1'"),
        (harney(surname=None), "null field surname for politician 'p1'"),
        (harney(extra_variants=None), "null field extra_variants for politician 'p1'"),
        (harney(terms=None), "null field terms for politician 'p1'"),
        (harney(terms=["x"]), "field terms must be an object, got 'x' for politician 'p1'"),
        (
            harney(terms=[{"portfolio": None, "start": "2000-01-01", "end": "2001-01-01"}]),
            "null field portfolio for politician 'p1'",
        ),
        (harney(id=None), "null field id in politician entry 2"),
        ("Mary Harney", "politician entry 2 is not an object"),
        (harney(extra_variants="Bert"), "field extra_variants must be a list, got 'Bert' for politician 'p1'"),
        (harney(extra_variants=[5]), "field extra_variants must be a string, got 5 for politician 'p1'"),
        # a name or portfolio of another JSON type than a string is not turned into text
        (harney(id=7), "field id must be a string, got 7 in politician entry 2"),
        (harney(given_name=["Mary"]), "field given_name must be a string, got ['Mary'] for politician 'p1'"),
        (harney(surname=5), "field surname must be a string, got 5 for politician 'p1'"),
        (
            harney(terms=[{"portfolio": 7, "start": "2000-01-01", "end": "2001-01-01"}]),
            "field portfolio must be a string, got 7 for politician 'p1'",
        ),
        # terms are a list of objects, each with an ISO start and end
        (harney(terms=5), "field terms must be a list, got 5 for politician 'p1'"),
        (harney(terms="ab"), "field terms must be a list, got 'ab' for politician 'p1'"),
        (harney(terms=[{"portfolio": "health", "end": "2001-01-01"}]), "missing field start for politician 'p1'"),
        (harney(terms=[{"portfolio": "health", "start": "2000-01-01"}]), "missing field end for politician 'p1'"),
        (
            harney(terms=[{"portfolio": "health", "start": "2000-01-01", "end": 2001}]),
            "field end must be an ISO date string, got 2001 for politician 'p1'",
        ),
        # a name part in which the tokenizer reads no word would leave "Mary"
        # alone a full-name mention, or make every "-" a surname mention
        (harney(surname=" "), "field surname holds no word: ' ' for politician 'p1'"),
        (harney(surname="-"), "field surname holds no word: '-' for politician 'p1'"),
        (harney(given_name="\t."), "field given_name holds no word: '\\t.' for politician 'p1'"),
        (harney(given_name="3rd"), "field given_name holds no word: '3rd' for politician 'p1'"),
        (harney(extra_variants=["Bert", " "]), "field extra_variants holds no word: ' ' for politician 'p1'"),
        (harney(extra_variants=["- 2"]), "field extra_variants holds no word: '- 2' for politician 'p1'"),
        # an id must be printable and not blank, and a portfolio not blank: stats --portfolio '' selected it
        (harney(id=" "), "field id is blank or not printable: ' ' in politician entry 2"),
        (harney(id="\x00"), "field id is blank or not printable: '\\x00' in politician entry 2"),
        (harney(terms=[{"portfolio": "", "start": "2000-01-01", "end": "2001-01-01"}]),
         "field portfolio is blank: '' for politician 'p1'"),
        (harney(terms=[{"portfolio": " ", "start": "2000-01-01", "end": "2001-01-01"}]),
         "field portfolio is blank: ' ' for politician 'p1'"),
        (harney(terms=[{"start": "2000-01-01", "end": "2001-01-01"}]), "missing field portfolio for politician 'p1'"),
    ],
    ids=["null-given", "null-surname", "null-extras", "null-terms", "term-not-object",
         "null-portfolio", "null-id", "entry-not-object", "string-extras", "non-string-extra",
         "number-id", "list-given", "number-surname", "number-portfolio", "number-terms", "string-terms",
         "term-without-start", "term-without-end", "number-end",
         "blank-surname", "dash-surname", "punct-given", "number-given", "blank-extra", "punct-number-extra",
         "blank-id", "nul-id", "empty-portfolio", "blank-portfolio", "term-without-portfolio"],
)
def test_registry_rejects_malformed_entry(tmp_path, entry, message):
    path = tmp_path / "r.json"
    write_registry(path, [politician("p0", "male", "Brian", "Cowen"), entry])
    with pytest.raises(DataError, match=re.escape(message)):
        corpus.load_registry(path)


def test_input_formats_are_the_readme_table():
    # README "Input formats" states every row of the record table: its record, field, JSON type and rule
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Input formats", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().replace("`", "") for cell in line.strip().strip("|").split("|")]
            for line in table.splitlines() if line.startswith("| ")]
    records = {corpus.Article: "article", corpus.OfficeTerm: "term", corpus.PoliticianRecord: "politician"}
    types = {str: "string", datetime.date: "YYYY-MM-DD string"}

    def json_type(kind):
        return f"list of {records.get(kind[0], 'string')}s" if isinstance(kind, list) else types[kind]

    assert rows[1:] == [[records[cls], field, json_type(kind), " or ".join(rule) if isinstance(rule, tuple) else rule]
                        for cls, fields in corpus.RECORDS.items() for field, (kind, rule) in fields.items()]


# --- matching (corpus.scan_corpus's owner rows) ---

def make_article(body, headline="", id="a1"):
    return corpus.Article(
        id=id, source="s", date=datetime.date(2005, 1, 1),
        section="news", headline=headline, body=body,
    )


def match(article, registry) -> dict:
    """Who one article names, read from its scan's owner rows: politician id -> (spans, in headline)."""
    return util.matches(corpus.scan_corpus([article], registry))[0]


def test_match_full_name(registry_file):
    registry = load_registry(registry_file)
    got = match(make_article("Minister Mary Harney said"), registry)
    assert got == {"p1": ([(1, 3, "full")], False)}


def test_match_is_token_bounded(registry_file):
    registry = load_registry(registry_file)
    assert match(make_article("the harness broke"), registry) == {}


def test_match_headline_flag(registry_file):
    registry = load_registry(registry_file)
    got = match(make_article("the vote passed", headline="Harney defends budget"), registry)
    assert list(got) == ["p1"]
    spans, in_headline = got["p1"]
    assert in_headline is True
    assert spans[0][2] == "surname"


def test_match_longest_variant_wins(registry_file):
    registry = load_registry(registry_file)
    spans, _ = match(make_article("Mary Harney and later just Harney and Mary"), registry)["p1"]
    assert [form for _, _, form in spans] == ["full", "surname", "given"]
    assert [(start, end) for start, end, _ in spans] == [(0, 2), (5, 6), (7, 8)]


def test_match_case_insensitive(registry_file):
    registry = load_registry(registry_file)
    got = match(make_article("BRIAN COWEN arrived"), registry)
    assert list(got) == ["p2"]


def test_match_extra_variants(tmp_path):
    path = tmp_path / "r.json"
    write_registry(
        path,
        [politician("p1", "male", "Bartholomew", "Ahern", extra=["Bertie Ahern", "Bert"])],
    )
    registry = corpus.load_registry(path)
    spans, _ = match(make_article("Bertie Ahern, known as Bert"), registry)["p1"]
    forms = [form for _, _, form in spans]
    assert forms == ["full", "surname"]  # multi-token extra: full; single-token: surname


def test_match_independent_of_registry_order(registry_file):
    registry = load_registry(registry_file)
    art = make_article("Mary Harney met Brian Cowen and Noel Dempsey. Cowen agreed.")
    expected = corpus.scan_corpus([art], registry)
    got = corpus.scan_corpus([art], list(reversed(registry)))
    assert got.politicians == expected.politicians
    assert got.mentions.tolist() == expected.mentions.tolist()
    assert got.owners.tolist() == expected.owners.tolist()
    assert util.matches(got) == util.matches(expected)


def test_match_shared_surname_matches_both(tmp_path):
    path = tmp_path / "r.json"
    write_registry(
        path,
        [politician("p1", "female", "Mary", "Lenihan"), politician("p2", "male", "Brian", "Lenihan")],
    )
    registry = corpus.load_registry(path)
    got = match(make_article("Lenihan spoke first"), registry)
    assert list(got) == ["p1", "p2"]


def test_no_match_empty_result(registry_file):
    registry = load_registry(registry_file)
    assert match(make_article("nothing to see"), registry) == {}


# --- labeling (pipeline.build_instances) ---

def test_label_single_female(registry_file):
    registry = load_registry(registry_file)
    got = pipeline.build_instances([make_article("Mary Harney said it")], registry)
    assert len(got) == 1
    assert got.y.tolist() == [corpus.GENDERS.index("female")]
    assert got.politician_ids == (("p1",),)


def test_label_both_genders_two_instances(registry_file):
    registry = load_registry(registry_file)
    art = make_article("Mary Harney met Brian Cowen and Noel Dempsey")
    got = pipeline.build_instances([art], registry)
    assert [corpus.GENDERS[y] for y in got.y.tolist()] == ["female", "male"]
    assert got.politician_ids == (("p1",), ("p2", "p3"))
    # both instances share one masked stream: their article's one text
    assert got.article.tolist() == [0, 0] and len(got.stream.bounds) == 2


def test_label_no_politicians_no_instances(registry_file):
    registry = load_registry(registry_file)
    assert len(pipeline.build_instances([make_article("made no mention")], registry)) == 0


def test_label_instance_count_bounded(registry_file):
    registry = load_registry(registry_file)
    arts = [
        make_article("Mary Harney alone", id="a1"),
        make_article("Brian Cowen and Noel Dempsey", id="a2"),
        make_article("Mary Harney and Brian Cowen", id="a3"),
        make_article("no names", id="a4"),
    ]
    got = pipeline.build_instances(arts, registry)
    per_article = {}
    for a in got.article.tolist():
        per_article[got.article_ids[a]] = per_article.get(got.article_ids[a], 0) + 1
    assert per_article == {"a1": 1, "a2": 1, "a3": 2}


def test_label_masks_names_and_pronouns(registry_file):
    registry = load_registry(registry_file)
    got = pipeline.build_instances([make_article("Mary Harney said she would resign")], registry)
    assert got.stream.tokens == ("NAMEFORM_FULL", "said", "would", "resign")
    assert kind_of(got.stream.tokens[0]) == MARKER


def test_label_headline_mention_per_gender(registry_file):
    registry = load_registry(registry_file)
    art = make_article("Brian Cowen responded", headline="Harney wins vote")
    got = pipeline.build_instances([art], registry)
    flags = {corpus.GENDERS[y]: flag for y, flag in zip(got.y.tolist(), got.headline_mention.tolist())}
    assert flags == {"female": True, "male": False}


def test_a_mention_lies_inside_its_headline_or_its_body(tmp_path):
    path = tmp_path / "r.json"
    write_registry(path, [politician("p1", "male", "John", "Kelly")])
    registry = corpus.load_registry(path)
    art = make_article("Kelly said no.", headline="Talks with John")
    got = match(art, registry)
    assert got == {"p1": ([(2, 3, "given"), (3, 4, "surname")], True)}
    # each text keeps its own marker, in its own sentence
    masked = pipeline.build_instances([art], registry)
    assert masked.article_ids == ("a1",)
    assert masked.stream.tokens == ("talks", "with", "NAMEFORM_GIVEN", "NAMEFORM_SURNAME", "said", "no", ".")
    assert masked.stream.sentence_spans == ((0, 3), (3, 7)) and masked.mention_sentences.tolist() == [True, True]


def test_label_keeps_section(registry_file):
    registry = load_registry(registry_file)
    art = corpus.Article(
        id="a1", source="s", date=datetime.date(2005, 1, 1),
        section="opinion", headline="", body="Mary Harney wrote this",
    )
    got = pipeline.build_instances([art], registry)
    assert got.sections[got.article[0]] == "opinion"


# --- years_in_office ---

def record_with_terms(terms, gender="female"):
    return corpus.PoliticianRecord(
        id="x", gender=gender, given_name="A", surname="B",
        terms=tuple(
            corpus.OfficeTerm(p, datetime.date.fromisoformat(s), datetime.date.fromisoformat(e))
            for p, s, e in terms
        ),
    )


def window(start, end):
    return (datetime.date.fromisoformat(start), datetime.date.fromisoformat(end))


def test_years_full_term_inside_window():
    rec = record_with_terms([("health", "2000-01-01", "2001-01-01")])
    got = corpus.years_in_office(rec, window("1999-01-01", "2002-01-01"))
    assert got == pytest.approx(1.0, abs=0.01)


def test_years_term_outside_window():
    rec = record_with_terms([("health", "2000-01-01", "2001-01-01")])
    assert corpus.years_in_office(rec, window("2005-01-01", "2006-01-01")) == 0.0


def test_years_partial_overlap():
    rec = record_with_terms([("health", "2000-01-01", "2000-12-31")])
    got = corpus.years_in_office(rec, window("2000-06-01", "2009-01-01"))
    days = (datetime.date(2000, 12, 31) - datetime.date(2000, 6, 1)).days
    assert got == pytest.approx(days / 365.25, abs=1e-9)


def test_years_portfolio_filter():
    rec = record_with_terms([
        ("health", "2000-01-01", "2001-01-01"),
        ("finance", "2002-01-01", "2003-01-01"),
    ])
    win = window("1999-01-01", "2004-01-01")
    everything = corpus.years_in_office(rec, win)
    health_only = corpus.years_in_office(rec, win, portfolio="health")
    assert health_only < everything
    assert health_only == pytest.approx(366 / 365.25, abs=1e-9)


def test_years_additive_over_disjoint_windows():
    rec = record_with_terms([
        ("health", "2000-03-04", "2003-11-20"),
        ("finance", "2005-01-10", "2008-06-30"),
    ])
    w1 = window("1999-01-01", "2004-01-01")
    w2 = window("2004-01-01", "2010-01-01")
    whole = window("1999-01-01", "2010-01-01")
    assert corpus.years_in_office(rec, w1) + corpus.years_in_office(rec, w2) == pytest.approx(
        corpus.years_in_office(rec, whole), abs=1e-9
    )


def test_years_fixture_totals_near_paper_scale(tmp_path):
    # Day counts chosen so the groups sum to 38.6 and 84.1 decimal years.
    female_days = [7305, 6794]            # 14099 days
    male_days = [10958, 10958, 8802]      # 30718 days
    path = tmp_path / "r.json"
    write_registry(
        path,
        [
            politician("f1", "female", "Mary", "Keane",
                       terms=[("health", "1997-06-26", days_after("1997-06-26", female_days[0]))]),
            politician("f2", "female", "Nora", "Brophy",
                       terms=[("education", "2000-01-01", days_after("2000-01-01", female_days[1]))]),
            politician("m1", "male", "Brian", "Dunne",
                       terms=[("finance", "1997-06-26", days_after("1997-06-26", male_days[0]))]),
            politician("m2", "male", "Noel", "Nolan",
                       terms=[("transport", "1998-01-01", days_after("1998-01-01", male_days[1])),
                              ("justice", days_after("1998-01-01", male_days[1] + 100),
                               days_after("1998-01-01", male_days[1] + 100 + male_days[2]))]),
        ],
    )
    registry = corpus.load_registry(path)
    win = window("1995-01-01", "2080-01-01")
    female_total = sum(corpus.years_in_office(r, win) for r in registry if r.gender == "female")
    male_total = sum(corpus.years_in_office(r, win) for r in registry if r.gender == "male")
    assert female_total == pytest.approx(sum(female_days) / 365.25, abs=1e-9)
    assert male_total == pytest.approx(sum(male_days) / 365.25, abs=1e-9)
    assert female_total == pytest.approx(38.6, abs=0.05)
    assert male_total == pytest.approx(84.1, abs=0.05)
    assert corpus.total_years(registry, "female", win) == pytest.approx(female_total, abs=1e-12)


def test_years_bad_window():
    rec = record_with_terms([("health", "2000-01-01", "2001-01-01")])
    with pytest.raises(ValueError):
        corpus.years_in_office(rec, window("2002-01-01", "2001-01-01"))


# --- the first-token gate on the variant scan ---

NAME_POOL = ["Ann", "Lee", "May", "Rose", "Kay"]


@st.composite
def registries_and_surfaces(draw):
    # names from one small pool, so a given name is often another's surname
    # and extra variants overlap the generated ones
    names = st.sampled_from(NAME_POOL)
    registry = [
        corpus.PoliticianRecord(
            id=f"p{i}",
            gender=draw(st.sampled_from(corpus.GENDERS)),
            given_name=draw(names),
            surname=draw(names),
            extra_variants=tuple(
                " ".join(draw(st.lists(names, min_size=1, max_size=3)))
                for _ in range(draw(st.integers(0, 2)))
            ),
        )
        for i in range(draw(st.integers(1, 4)))
    ]
    words = st.sampled_from([n.lower() for n in NAME_POOL] + ["the", "said", "."])
    return registry, draw(st.lists(words, max_size=30))


@settings(max_examples=300, deadline=None)
@given(registries_and_surfaces())
def test_gated_scan_equals_ungated_reference(case):
    registry, surfaces = case
    assert scanned(registry, surfaces) == util.ref_scan(registry, surfaces)


def scanned(registry, surfaces):
    """The scan's mentions of one text as (start, end, owners), as util.ref_scan gives them."""
    politicians, mentions, owners = corpus._scan_mentions(registry, preprocess.tokenize(" ".join(surfaces)))
    owned = [[] for _ in mentions]
    for m, p, f in owners.tolist():
        owned[m].append((politicians[p], preprocess.FORMS[f]))
    return [(start, end, owned[row]) for row, (_, start, end, _) in enumerate(mentions.tolist())]


def test_scan_keeps_leftmost_longest_along_long_chains_of_overlapping_names():
    # each position starts a two- or three-token name that overlaps the next
    # one's, so which match is kept depends on every match kept before it
    registry = [
        corpus.PoliticianRecord(id="p0", gender="female", given_name="Ann", surname="Lee"),
        corpus.PoliticianRecord(id="p1", gender="male", given_name="Lee", surname="Ann"),
        corpus.PoliticianRecord(id="p2", gender="male", given_name="May", surname="Rose",
                                extra_variants=("Lee Ann May", "Rose May")),
    ]
    surfaces = ["ann", "lee"] * 1500 + ["may"] + ["lee", "ann", "may"] * 700 + ["rose", "may"] * 300 + ["lee"]
    got = scanned(registry, surfaces)
    assert got == util.ref_scan(registry, surfaces)
    assert len(got) == 1500 + 1 + 700 + 300 + 1
