"""Ingestion, registry validation, matching, labeling, years in office."""

from __future__ import annotations

import datetime
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbias import corpus, pipeline
from newsbias.errors import DataError
from newsbias.preprocess import MARKER

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
    with pytest.raises(DataError, match="missing field body at record 2"):
        corpus.load_articles(path)


@pytest.mark.parametrize("field", ["body", "headline", "section", "source", "id", "date"])
def test_load_articles_null_field_names_field_and_record(field, tmp_path):
    # a null must not be ingested as the text "None"
    path = tmp_path / "a.jsonl"
    row = article_row("a2", "x", headline="h")
    row[field] = None
    write_articles(path, [article_row("a1", "fine"), row])
    with pytest.raises(DataError, match=f"null field {field} at record 2"):
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
    with pytest.raises(DataError, match="given_name and surname"):
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
        (harney(terms=["x"]), "term 'x' is not an object for politician 'p1'"),
        (
            harney(terms=[{"portfolio": None, "start": "2000-01-01", "end": "2001-01-01"}]),
            "null field portfolio for politician 'p1'",
        ),
        (harney(id=None), "null field id in politician entry 2"),
        ("Mary Harney", "politician entry 2 is not an object"),
        (harney(extra_variants="Bert"), "extra_variants must be a list of strings for politician 'p1'"),
        (harney(extra_variants=[5]), "extra_variants must be a list of strings for politician 'p1'"),
    ],
    ids=["null-given", "null-surname", "null-extras", "null-terms", "term-not-object",
         "null-portfolio", "null-id", "entry-not-object", "string-extras", "non-string-extra"],
)
def test_registry_rejects_malformed_entry(tmp_path, entry, message):
    path = tmp_path / "r.json"
    write_registry(path, [politician("p0", "male", "Brian", "Cowen"), entry])
    with pytest.raises(DataError, match=re.escape(message)):
        corpus.load_registry(path)


# --- match_politicians ---

def make_article(body, headline="", id="a1"):
    return corpus.Article(
        id=id, source="s", date=datetime.date(2005, 1, 1),
        section="news", headline=headline, body=body,
    )


def test_match_full_name(registry_file):
    registry = load_registry(registry_file)
    got = corpus.match_politicians(make_article("Minister Mary Harney said"), registry)
    assert len(got) == 1
    match = got[0]
    assert match.politician_id == "p1"
    assert len(match.spans) == 1
    assert (match.spans[0].start, match.spans[0].end, match.spans[0].form) == (1, 3, "full")
    assert match.headline_mention is False


def test_match_is_token_bounded(registry_file):
    registry = load_registry(registry_file)
    assert corpus.match_politicians(make_article("the harness broke"), registry) == []


def test_match_headline_flag(registry_file):
    registry = load_registry(registry_file)
    got = corpus.match_politicians(make_article("the vote passed", headline="Harney defends budget"), registry)
    assert len(got) == 1
    assert got[0].headline_mention is True
    assert got[0].spans[0].form == "surname"


def test_match_longest_variant_wins(registry_file):
    registry = load_registry(registry_file)
    got = corpus.match_politicians(make_article("Mary Harney and later just Harney and Mary"), registry)
    spans = got[0].spans
    assert [s.form for s in spans] == ["full", "surname", "given"]
    assert [(s.start, s.end) for s in spans] == [(0, 2), (5, 6), (7, 8)]


def test_match_case_insensitive(registry_file):
    registry = load_registry(registry_file)
    got = corpus.match_politicians(make_article("BRIAN COWEN arrived"), registry)
    assert [m.politician_id for m in got] == ["p2"]


def test_match_extra_variants(tmp_path):
    path = tmp_path / "r.json"
    write_registry(
        path,
        [politician("p1", "male", "Bartholomew", "Ahern", extra=["Bertie Ahern", "Bert"])],
    )
    registry = corpus.load_registry(path)
    got = corpus.match_politicians(make_article("Bertie Ahern, known as Bert"), registry)
    forms = [s.form for s in got[0].spans]
    assert forms == ["full", "surname"]  # multi-token extra: full; single-token: surname


def test_match_independent_of_registry_order(registry_file):
    registry = load_registry(registry_file)
    art = make_article("Mary Harney met Brian Cowen and Noel Dempsey. Cowen agreed.")
    expected = corpus.match_politicians(art, registry)
    assert corpus.match_politicians(art, list(reversed(registry))) == expected


def test_match_shared_surname_matches_both(tmp_path):
    path = tmp_path / "r.json"
    write_registry(
        path,
        [politician("p1", "female", "Mary", "Lenihan"), politician("p2", "male", "Brian", "Lenihan")],
    )
    registry = corpus.load_registry(path)
    got = corpus.match_politicians(make_article("Lenihan spoke first"), registry)
    assert [m.politician_id for m in got] == ["p1", "p2"]


def test_no_match_empty_result(registry_file):
    registry = load_registry(registry_file)
    assert corpus.match_politicians(make_article("nothing to see"), registry) == []


# --- labeling (pipeline.build_instances) ---

def test_label_single_female(registry_file):
    registry = load_registry(registry_file)
    got = pipeline.build_instances([make_article("Mary Harney said it")], registry)
    assert len(got) == 1
    assert got[0].label == "female"
    assert got[0].politician_ids == ("p1",)


def test_label_both_genders_two_instances(registry_file):
    registry = load_registry(registry_file)
    art = make_article("Mary Harney met Brian Cowen and Noel Dempsey")
    got = pipeline.build_instances([art], registry)
    assert [i.label for i in got] == ["female", "male"]
    assert got[0].politician_ids == ("p1",)
    assert got[1].politician_ids == ("p2", "p3")
    # both instances share one masked stream
    assert got[0].stream == got[1].stream


def test_label_no_politicians_no_instances(registry_file):
    registry = load_registry(registry_file)
    assert pipeline.build_instances([make_article("made no mention")], registry) == []


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
    for inst in got:
        per_article[inst.article_id] = per_article.get(inst.article_id, 0) + 1
    assert per_article == {"a1": 1, "a2": 1, "a3": 2}


def test_label_masks_names_and_pronouns(registry_file):
    registry = load_registry(registry_file)
    got = pipeline.build_instances([make_article("Mary Harney said she would resign")], registry)
    words = [t.surface for t in got[0].stream.tokens]
    assert words == ["NAMEFORM_FULL", "said", "would", "resign"]
    assert got[0].stream.tokens[0].kind == MARKER


def test_label_headline_mention_per_gender(registry_file):
    registry = load_registry(registry_file)
    art = make_article("Brian Cowen responded", headline="Harney wins vote")
    got = pipeline.build_instances([art], registry)
    flags = {i.label: i.headline_mention for i in got}
    assert flags == {"female": True, "male": False}


def test_label_keeps_section(registry_file):
    registry = load_registry(registry_file)
    art = corpus.Article(
        id="a1", source="s", date=datetime.date(2005, 1, 1),
        section="opinion", headline="", body="Mary Harney wrote this",
    )
    assert pipeline.build_instances([art], registry)[0].section == "opinion"


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


def ref_scan(registry, surfaces):
    # leftmost-longest over every position, as the scan ran before the gate
    entries = {}
    for record in registry:
        for tt, form in corpus.name_variants(record):
            entries.setdefault(tt, []).append((record.id, form))
    for owners in entries.values():
        owners.sort()
    max_len = max(map(len, entries))
    out, i, n = [], 0, len(surfaces)
    while i < n:
        for length in range(min(max_len, n - i), 0, -1):
            owners = entries.get(tuple(surfaces[i : i + length]))
            if owners:
                out.append((i, i + length, owners))
                i += length
                break
        else:
            i += 1
    return out


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
    assert list(corpus._VariantTable(registry).scan(surfaces)) == ref_scan(registry, surfaces)
