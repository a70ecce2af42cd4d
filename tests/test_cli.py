"""Command-line surface: outputs, determinism, exit codes."""

from __future__ import annotations

import csv
import datetime
import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newsbias import cli, corpus, learn

from util import article_row, days_after, politician, write_articles, write_registry


def run(*argv):
    return cli.main(list(argv))


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def read_csv_rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def synth_corpus(tmp_path):
    """Generated corpus on disk plus a config pointing at it."""
    data = tmp_path / "data"
    code = run(
        "gen-synth", "--out", str(data), "--seed", "99", "--n", "120",
        "--planted", "husband:0.4:0.01",
    )
    assert code == 0
    config = {
        "seed": 7,
        "paths": {
            "articles": str(data / "articles.jsonl"),
            "registry": str(data / "registry.json"),
        },
        "features": {"min_df": 2},
        "classifier": {"lam": 0.001, "epochs": 100},
        "evaluate": {"k": 4},
        "sweep": {
            "schemes": ["unigram/article"],
            "representations": ["boolean", "count"],
            "classifiers": ["svm", "nb-multinomial"],
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path


@pytest.fixture
def spouse_fixture(tmp_path):
    """Registry with 38.6 / 84.1 group years; 48 'husband' / 27 'wife' mentions."""
    registry_path = tmp_path / "registry.json"
    write_registry(
        registry_path,
        [
            politician("f1", "female", "Mary", "Keane",
                       terms=[("health", "1997-06-26", days_after("1997-06-26", 7305))]),
            politician("f2", "female", "Nora", "Brophy",
                       terms=[("education", "2000-01-01", days_after("2000-01-01", 6794))]),
            politician("m1", "male", "Brian", "Dunne",
                       terms=[("finance", "1997-06-26", days_after("1997-06-26", 10958))]),
            politician("m2", "male", "Noel", "Nolan",
                       terms=[("transport", "1998-01-01", days_after("1998-01-01", 10958)),
                              ("justice", days_after("1998-01-01", 11058),
                               days_after("1998-01-01", 11058 + 8802))]),
        ],
    )
    articles_path = tmp_path / "articles.jsonl"
    rows = []
    for i in range(6):  # 6 articles x 8 = 48 "husband" in female-group articles
        body = "Mary Keane spoke about it. " + " ".join(["husband"] * 8) + "."
        rows.append(article_row(f"f{i}", body))
    for i in range(9):  # 9 articles x 3 = 27 "wife" in male-group articles
        body = "Brian Dunne responded. " + " ".join(["wife"] * 3) + "."
        rows.append(article_row(f"m{i}", body))
    write_articles(articles_path, rows)
    config = {
        "paths": {"articles": str(articles_path), "registry": str(registry_path)},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path


# --- gen-synth ---

def test_gen_synth_outputs_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("gen-synth", "--out", str(a), "--seed", "4", "--n", "30") == 0
    assert run("gen-synth", "--out", str(b), "--seed", "4", "--n", "30") == 0
    ta, tb = read_tree(a), read_tree(b)
    assert set(ta) == {"articles.jsonl", "registry.json", "manifest.json"}
    assert ta == tb  # same seed and config: byte-identical including manifest


def test_gen_synth_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run("gen-synth", "--out", str(a), "--seed", "1", "--n", "20")
    run("gen-synth", "--out", str(b), "--seed", "2", "--n", "20")
    assert read_tree(a)["articles.jsonl"] != read_tree(b)["articles.jsonl"]


# --- ingest / label ---

def test_ingest_summary(synth_corpus, tmp_path):
    out = tmp_path / "ingest"
    assert run("ingest", "--config", str(synth_corpus), "--out", str(out)) == 0
    summary = json.loads((out / "ingest_summary.json").read_text())
    assert summary["n_articles"] == 120
    assert summary["n_politicians"] == 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert manifest["seed"] == 7


def test_label_outputs(synth_corpus, tmp_path):
    out = tmp_path / "label"
    assert run("label", "--config", str(synth_corpus), "--out", str(out)) == 0
    lines = (out / "instances.jsonl").read_text().splitlines()
    summary = json.loads((out / "label_summary.json").read_text())
    assert summary["n_instances"] == len(lines) == 120
    assert summary["n_female_instances"] == 60


def test_missing_articles_is_config_error(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"paths": {"registry": "nowhere.json"}}))
    assert run("ingest", "--config", str(config), "--out", str(tmp_path / "o")) == 1


def test_duplicate_article_id_is_data_error(tmp_path):
    articles = tmp_path / "a.jsonl"
    write_articles(articles, [article_row("dup", "x"), article_row("dup", "y")])
    registry = tmp_path / "r.json"
    write_registry(registry, [politician("p1", "female", "Mary", "Keane")])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"paths": {"articles": str(articles), "registry": str(registry)}}))
    assert run("ingest", "--config", str(config), "--out", str(tmp_path / "o")) == 2


def test_invalid_seed_rejected(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"seed": -3}))
    assert run("ingest", "--config", str(config), "--out", str(tmp_path / "o")) == 1


def test_usage_errors_exit_one():
    assert run() == 1
    assert run("sweep", "--no-such-flag") == 1


def test_internal_errors_exit_three(monkeypatch, tmp_path):
    from newsbias.errors import InvariantError

    def boom(config):
        raise InvariantError("sentence spans must partition the tokens")

    monkeypatch.setattr(cli, "cmd_ingest", boom)
    config = tmp_path / "c.json"
    config.write_text("{}")
    assert run("ingest", "--config", str(config), "--out", str(tmp_path / "o")) == 3


# --- sweep ---

def test_sweep_rows_and_determinism(synth_corpus, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run("sweep", "--config", str(synth_corpus), "--out", str(out1)) == 0
    assert run("sweep", "--config", str(synth_corpus), "--out", str(out2)) == 0
    rows = read_csv_rows(out1 / "sweep_summary.csv")
    assert len(rows) == 4  # 1 scheme x 2 representations x 2 classifiers
    assert [r["descriptor"] for r in rows] == sorted(r["descriptor"] for r in rows)
    for row in rows:
        assert 0.0 <= float(row["mean_accuracy"]) <= 1.0
        assert float(row["majority_baseline"]) == 0.5
    assert read_tree(out1) == read_tree(out2)
    report_names = {p.name for p in (out1 / "reports").iterdir()}
    assert "unigram_article_boolean_svm.json" in report_names
    # svm reports record each fold's fit: iterations up to the cap, and a
    # certified gap within the tolerance whenever a fit stopped early
    for name in report_names:
        report = json.loads((out1 / "reports" / name).read_text())
        if not name.endswith("_svm.json"):
            assert "per_fold_fit" not in report
            continue
        assert len(report["per_fold_fit"]) == 4
        for fit in report["per_fold_fit"]:
            assert 1 <= fit["iterations"] <= 100 and fit["gap"] >= 0
            assert fit["iterations"] == 100 or fit["gap"] <= learn.SVM_GAP_TOLERANCE


def test_sweep_planted_signal_beats_baseline(synth_corpus, tmp_path):
    out = tmp_path / "s"
    run("sweep", "--config", str(synth_corpus), "--out", str(out))
    rows = {r["descriptor"]: r for r in read_csv_rows(out / "sweep_summary.csv")}
    svm = rows["unigram/article/boolean/svm"]
    assert float(svm["mean_accuracy"]) > float(svm["majority_baseline"])


def test_sweep_invalid_combination_named(synth_corpus, tmp_path):
    config = json.loads(Path(synth_corpus).read_text())
    config["sweep"] = {
        "schemes": ["unigram/article"],
        "representations": ["tfidf"],
        "classifiers": ["nb-bernoulli"],
    }
    bad = Path(synth_corpus).with_name("bad.json")
    bad.write_text(json.dumps(config))
    assert run("sweep", "--config", str(bad), "--out", str(tmp_path / "o")) == 1


# --- rank ---

def test_rank_lists_bounded_by_k(synth_corpus, tmp_path):
    out = tmp_path / "rank"
    assert run("rank", "--config", str(synth_corpus), "--out", str(out), "--k", "10") == 0
    payload = json.loads((out / "ranked_features.json").read_text())
    assert len(payload["female"]) <= 10 and len(payload["male"]) <= 10
    assert payload["female"], "planted corpus must produce female-associated features"
    top_surfaces = [e["surface"] for e in payload["female"][:3]]
    assert "husband" in top_surfaces
    assert payload["fit"].keys() == {"iterations", "gap"} and 1 <= payload["fit"]["iterations"] <= 100


# --- kwic ---

def test_kwic_absent_term_header_only(synth_corpus, tmp_path):
    out = tmp_path / "kwic"
    assert run("kwic", "zzzmissing", "--config", str(synth_corpus), "--out", str(out)) == 0
    content = (out / "kwic.csv").read_text()
    assert content == "article_id,position,left,keyword,right,tag\n"


def test_kwic_rows_and_tag(synth_corpus, tmp_path):
    out = tmp_path / "kwic"
    assert run(
        "kwic", "husband", "--config", str(synth_corpus), "--out", str(out),
        "--window", "3", "--group", "female", "--tag", "spouse",
    ) == 0
    rows = read_csv_rows(out / "kwic.csv")
    assert rows, "planted term must be found"
    for row in rows:
        assert row["keyword"] == "husband"
        assert row["tag"] == "spouse"
        assert len(row["left"].split()) <= 3 and len(row["right"].split()) <= 3


def test_kwic_multi_token_term_is_usage_error(synth_corpus, tmp_path):
    assert run(
        "kwic", "mary keane", "--config", str(synth_corpus), "--out", str(tmp_path / "o")
    ) == 1


# --- stats ---

def test_stats_spouse_rates(spouse_fixture, tmp_path):
    out = tmp_path / "stats"
    assert run(
        "stats", "--config", str(spouse_fixture), "--out", str(out),
        "--term", "husband", "--term", "wife",
    ) == 0
    rows = {(r["term"], r["group"]): r for r in read_csv_rows(out / "stats.csv")}
    assert len(rows) == 4
    husband = rows[("husband", "female")]
    wife = rows[("wife", "male")]
    assert int(husband["count"]) == 48
    assert int(wife["count"]) == 27
    assert float(husband["rate"]) == pytest.approx(1.244, abs=0.01)
    assert float(wife["rate"]) == pytest.approx(0.321, abs=0.01)


def test_stats_requires_term(spouse_fixture, tmp_path):
    assert run("stats", "--config", str(spouse_fixture), "--out", str(tmp_path / "o")) == 1


def test_stats_portfolio_filter_changes_years(spouse_fixture, tmp_path):
    out_all = tmp_path / "all"
    out_health = tmp_path / "health"
    run(
        "stats", "--config", str(spouse_fixture), "--out", str(out_all),
        "--term", "husband", "--groups", "female",
    )
    run(
        "stats", "--config", str(spouse_fixture), "--out", str(out_health),
        "--term", "husband", "--groups", "female", "--portfolio", "health",
    )
    years_all = float(read_csv_rows(out_all / "stats.csv")[0]["years"])
    years_health = float(read_csv_rows(out_health / "stats.csv")[0]["years"])
    assert years_health < years_all


def test_stats_half_open_window_counts_years_from_date_from(tmp_path):
    # only date_from is set: years in office run from it to the registry's end
    registry_path = tmp_path / "registry.json"
    write_registry(
        registry_path,
        [
            politician("f1", "female", "Mary", "Keane", terms=[("health", "1994-01-01", "2006-03-01")]),
            politician("m1", "male", "Brian", "Dunne", terms=[("finance", "1994-01-01", "2006-03-01")]),
        ],
    )
    articles_path = tmp_path / "articles.jsonl"
    write_articles(articles_path, [
        article_row("f2003", "Mary Keane spoke. husband husband.", date="2003-05-01"),
        article_row("f2005", "Mary Keane spoke. husband.", date="2005-05-01"),
        article_row("m2005", "Brian Dunne spoke. husband.", date="2005-05-01"),
    ])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "paths": {"articles": str(articles_path), "registry": str(registry_path)},
        "pipeline": {"date_from": "2004-01-01"},
    }))
    out = tmp_path / "stats"
    assert run("stats", "--config", str(config), "--out", str(out), "--term", "husband") == 0
    rows = {r["group"]: r for r in read_csv_rows(out / "stats.csv")}
    assert int(rows["female"]["count"]) == 1  # the 2003 article is outside the window
    for group in ("female", "male"):
        assert float(rows[group]["years"]) == pytest.approx(2.16, abs=0.005)


def test_flag_overrides_do_not_leak_into_later_runs(spouse_fixture, tmp_path):
    # the config has no interpret section, so it comes from the defaults
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(
        "kwic", "husband", "--masked", "--group", "female",
        "--config", str(spouse_fixture), "--out", str(first),
    ) == 0
    assert run("kwic", "husband", "--config", str(spouse_fixture), "--out", str(second)) == 0
    manifest = json.loads((second / "manifest.json").read_text())
    assert manifest["config"]["interpret"]["masked"] is False
    assert "group" not in manifest["config"]["interpret"]
    assert "group" not in cli.DEFAULT_CONFIG["interpret"]


def test_version_flag():
    assert run("--version") == 0


def test_sweep_drops_each_dataset_once_its_key_is_done(synth_corpus, monkeypatch, tmp_path):
    # the fixture's sweep runs two classifiers on the boolean dataset, then
    # two on the count dataset; the boolean one must be gone by then
    import gc
    import weakref

    from newsbias import learn

    cross_validate = learn.cross_validate
    first = []  # a weak reference to the first dataset cross-validated
    alive_at_second = []  # whether it was still alive when the next one started

    def watched(dataset, classifier, **kwargs):
        if not first:
            first.append(weakref.ref(dataset))
        elif dataset is not first[0]() and not alive_at_second:
            gc.collect()
            alive_at_second.append(first[0]() is not None)
        return cross_validate(dataset, classifier, **kwargs)

    monkeypatch.setattr(learn, "cross_validate", watched)
    assert run("sweep", "--config", str(synth_corpus), "--out", str(tmp_path / "s")) == 0
    assert alive_at_second == [False]


def test_null_article_field_is_data_error(tmp_path):
    row = article_row("a1", "Mary Keane spoke.")
    row["headline"] = None
    articles = tmp_path / "a.jsonl"
    write_articles(articles, [row])
    registry = tmp_path / "r.json"
    write_registry(registry, [politician("p1", "female", "Mary", "Keane")])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"paths": {"articles": str(articles), "registry": str(registry)}}))
    assert run("ingest", "--config", str(config), "--out", str(tmp_path / "o")) == 2


def test_null_registry_name_is_data_error(tmp_path):
    # a null given name must not become the name "None" and match "Mary None spoke."
    articles = tmp_path / "a.jsonl"
    write_articles(articles, [article_row("a1", "Mary None spoke.")])
    registry = tmp_path / "r.json"
    write_registry(registry, [{**politician("p1", "female", "Mary", "Keane"), "surname": None}])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"paths": {"articles": str(articles), "registry": str(registry)}}))
    assert run("label", "--config", str(config), "--out", str(tmp_path / "o")) == 2


def test_string_extra_variants_is_data_error(tmp_path):
    # a string of extra variants must not become one name variant per letter
    articles = tmp_path / "a.jsonl"
    write_articles(articles, [article_row("a1", "The letter t was read.")])
    registry = tmp_path / "r.json"
    write_registry(registry, [{**politician("p1", "female", "Mary", "Keane"), "extra_variants": "Bert"}])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"paths": {"articles": str(articles), "registry": str(registry)}}))
    assert run("label", "--config", str(config), "--out", str(tmp_path / "o")) == 2


# --- the config table ---

def test_rank_k_zero_is_config_error(synth_corpus, tmp_path):
    assert run("rank", "--config", str(synth_corpus), "--out", str(tmp_path / "flag"), "--k", "0") == 1
    config = json.loads(synth_corpus.read_text())
    config["interpret"] = {"k": 0}
    bad = synth_corpus.with_name("k0.json")
    bad.write_text(json.dumps(config))
    assert run("rank", "--config", str(bad), "--out", str(tmp_path / "file")) == 1
    assert not (tmp_path / "flag").exists() and not (tmp_path / "file").exists()


@pytest.mark.parametrize(
    "sweep",
    [
        # every combination but the last is valid
        {"schemes": ["unigram"], "representations": ["boolean", "tfidf"], "classifiers": ["svm", "tree"]},
        {"schemes": ["unigram", "lexicon_category"], "representations": ["boolean"], "classifiers": ["svm"]},
        {"schemes": ["unigram", "adjective/sentence"], "representations": ["boolean"], "classifiers": ["svm"]},
    ],
    ids=["tree-tfidf", "lexicon-without-lexicons", "adjective-without-pos-lexicon"],
)
def test_sweep_combinations_checked_before_any_work(synth_corpus, monkeypatch, tmp_path, sweep):
    from newsbias import pipeline

    calls = []
    build_instances = pipeline.build_instances
    monkeypatch.setattr(pipeline, "build_instances", lambda *a, **kw: calls.append(1) or build_instances(*a, **kw))
    config = {**json.loads(synth_corpus.read_text()), "sweep": sweep}
    bad = synth_corpus.with_name("bad.json")
    bad.write_text(json.dumps(config))
    assert run("sweep", "--config", str(bad), "--out", str(tmp_path / "o")) == 1
    assert calls == []



@pytest.mark.parametrize("window", [("2009-01-01", "2001-01-01"), ("2005-06-15", "2005-06-15")],
                         ids=["reversed", "empty"])
@pytest.mark.parametrize("command", [["label"], ["stats", "--term", "husband"]], ids=["label", "stats"])
def test_date_window_must_run_forwards(synth_corpus, monkeypatch, tmp_path, capsys, window, command):
    from newsbias import pipeline

    calls = []
    monkeypatch.setattr(pipeline, "build_instances", lambda *a, **kw: calls.append(1))
    monkeypatch.setattr(pipeline, "build_doc_views", lambda *a, **kw: calls.append(1))
    config = {**json.loads(synth_corpus.read_text()), "pipeline": dict(zip(("date_from", "date_to"), window))}
    bad = synth_corpus.with_name("bad.json")
    bad.write_text(json.dumps(config))
    assert run(*command, "--config", str(bad), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert "pipeline.date_from" in err and "pipeline.date_to" in err
    assert calls == [] and not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["stats", "--term", "husband", "--groups", "female,nobody"],
    ["stats", "--term", "husband", "--groups", ","],
    ["stats", "--term", "mary keane"],
    ["kwic", "mary keane"],
    ["stats", "--term", "husband", "--groups", "female,male,female"],
], ids=["unknown-group", "no-group", "stats-phrase", "kwic-phrase", "repeated-group"])
def test_query_usage_checked_before_any_work(synth_corpus, monkeypatch, tmp_path, argv):
    from newsbias import pipeline

    calls = []
    monkeypatch.setattr(pipeline, "build_doc_views", lambda *a, **kw: calls.append(1))
    assert run(*argv, "--config", str(synth_corpus), "--out", str(tmp_path / "o")) == 1
    assert calls == [] and not (tmp_path / "o").exists()


@pytest.mark.parametrize("bad", ["directory", "not-utf8", "not-utf8-late"])
@pytest.mark.parametrize("key", ["config", "articles", "registry", "stoplist", "signals",
                                 "lexicons", "pos_lexicon"])
def test_unreadable_input_file_is_a_config_or_data_error(synth_corpus, tmp_path, capsys, key, bad):
    config = json.loads(synth_corpus.read_text())
    path = tmp_path / "bad"
    if bad == "directory":
        path.mkdir()
    elif bad == "not-utf8":
        path.write_bytes(b"\xffthe\n")
    else:
        # valid article records, many read buffers long, before the bad byte
        articles = Path(config["paths"]["articles"]).read_bytes()
        assert len(articles) > 64 * 1024
        path.write_bytes(articles + b"\xffthe\n")
    stoplist = tmp_path / "stoplist.txt"
    stoplist.write_text("the\n")
    config["paths"]["stoplist"] = str(stoplist)
    config["pipeline"] = {"remove_stopwords": True}
    if key != "config":
        config["paths"][key] = [str(path)] if key == "lexicons" else str(path)
    config_path = tmp_path / "probe.json"
    config_path.write_text(json.dumps(config))
    given = path if key == "config" else config_path
    assert run("rank", "--config", str(given), "--out", str(tmp_path / "o")) == (1 if key == "config" else 2)
    assert str(path) in capsys.readouterr().err


def _flatten(config: dict) -> dict:
    flat = {}
    for key, value in config.items():
        if key in cli._SECTIONS:
            flat.update((f"{key}.{name}", item) for name, item in value.items())
        else:
            flat[key] = value
    return flat


def _nest(flat: dict) -> dict:
    config: dict = {}
    for key, value in flat.items():
        section, _, name = key.rpartition(".")
        (config.setdefault(section, {}) if section else config)[name] = value
    return config


TABLE_DEFAULTS = {key: default for key, (default, _, _) in cli.SCHEMA.items() if default is not cli._UNSET}


def test_default_config_is_the_table_and_the_readme():
    assert _flatten(cli.DEFAULT_CONFIG) == TABLE_DEFAULTS
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("A full config with defaults:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    documented = _flatten(json.loads(block))
    assert documented.keys() == TABLE_DEFAULTS.keys()
    # the README shows example file names for the two corpus paths
    for key in ("paths.articles", "paths.registry"):
        documented[key] = TABLE_DEFAULTS[key]
    assert documented == TABLE_DEFAULTS


# JSON values by type; a key's type accepts some of these and rejects the rest
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-2**70, 2**70),
    "float": st.floats(allow_nan=True, allow_infinity=True).filter(lambda f: not f.is_integer()),
    "str": st.text(max_size=8),
    "list": st.lists(st.integers(), max_size=2),
    "dict": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
}
ACCEPTED = {int: {"int"}, float: {"int", "float"}, bool: {"bool"}, str: {"str"}, str | None: {"str", "null"}}


def _valid_value(key: str):
    """A value the table takes for the key, drawn from its type and allowed values."""
    _, kind, allowed = cli.SCHEMA[key]
    if key.startswith("pipeline.date_"):
        return st.one_of(st.none(), st.dates().map(datetime.date.isoformat))
    if key == "synth.planted":
        probability = st.floats(0, 1) | st.integers(0, 1)
        term = st.text(min_size=1, max_size=6).filter(lambda t: ":" not in t)
        spelt = st.builds(lambda t, f, m: f"{t}:{float(f)!r}:{float(m)!r}", term, probability, probability)
        mapping = st.fixed_dictionaries({"term": term, "p_female": probability, "p_male": probability})
        return st.lists(spelt | mapping, max_size=3)
    item_kind = kind[0] if isinstance(kind, list) else kind
    if isinstance(allowed, tuple):
        items = st.sampled_from(allowed)
    elif item_kind is bool:
        items = st.booleans()
    elif item_kind in (int, float):
        numbers = st.integers(0, 2**64 - 1) if item_kind is int else st.floats(0, 10) | st.integers(0, 10)
        items = st.one_of(st.integers(0, 12), numbers).filter(allowed)
    else:
        items = st.text(max_size=8) if item_kind is str else st.none() | st.text(max_size=8)
    return st.lists(items, max_size=3) if isinstance(kind, list) else items


@st.composite
def well_formed(draw):
    keys = draw(st.lists(st.sampled_from(sorted(cli.SCHEMA)), unique=True, max_size=12))
    values = {key: draw(_valid_value(key)) for key in keys}
    # a window whose two dates are both set must run forwards
    start, end = values.get("pipeline.date_from"), values.get("pipeline.date_to")
    assume(not (start and end) or start < end)
    flags = set(draw(st.lists(st.sampled_from(keys), unique=True))) if keys else set()
    return {k: v for k, v in values.items() if k not in flags}, {k: v for k, v in values.items() if k in flags}


@settings(max_examples=200, deadline=None)
@given(well_formed())
def test_well_formed_config_loads_as_defaults_overlaid_with_its_values(tmp_path_factory, drawn):
    in_file, overrides = drawn
    path = tmp_path_factory.mktemp("config") / "c.json"
    path.write_text(json.dumps(_nest(in_file)))
    assert _flatten(cli.load_config(str(path), overrides)) == {**TABLE_DEFAULTS, **in_file, **overrides}


@st.composite
def malformed(draw):
    """A config with exactly one fault: a wrong type, an out-of-range value, or an unknown key."""
    fault = draw(st.sampled_from(["type", "range", "unknown", "section"]))
    key = draw(st.sampled_from(sorted(cli.SCHEMA)))
    _, kind, allowed = cli.SCHEMA[key]
    if fault == "type":
        accepted = {"list"} if isinstance(kind, list) else ACCEPTED.get(kind, set())
        wrong = draw(st.sampled_from(sorted(JSON_VALUES.keys() - accepted)))
        return _nest({key: draw(JSON_VALUES[wrong])})
    if fault == "range":
        if key.startswith("pipeline.date_"):
            bad = draw(st.sampled_from(["", "2004-13-01", "2004-02-30", "yesterday"]))
        elif key == "synth.planted":
            bad = [draw(st.sampled_from(["x:1.5:0", "x:0.1", ":0.1:0.1", "x:a:b", "x:nan:0"]))]
        elif isinstance(allowed, tuple):
            bad = draw(st.text(max_size=12).filter(lambda t: t not in allowed))
            bad = [bad] if isinstance(kind, list) else bad
        elif callable(allowed):
            numbers = st.integers(-2**70, 2**70) if kind is int else st.floats() | st.integers(-10, 10)
            bad = draw(numbers.filter(lambda v: not allowed(v)))
        else:
            bad = [5] if isinstance(kind, list) else draw(JSON_VALUES["dict"])
        return _nest({key: bad})
    name = draw(st.text(min_size=1, max_size=8))
    if fault == "unknown":
        # a top-level key, a key inside a section, or a section's key spelt at the top level
        depth = draw(st.sampled_from(["top", "section", "dotted"]))
        if depth == "dotted":
            assume("." in key)
            return {key: draw(_valid_value(key))}
        section = key.partition(".")[0] if "." in key else "interpret"
        unknown = name if depth == "top" else f"{section}.{name}"
        assume(unknown not in cli.SCHEMA and unknown not in cli._SECTIONS)
        return _nest({unknown: 1})
    section = draw(st.sampled_from(sorted(cli._SECTIONS)))
    return {section: draw(st.one_of(*(JSON_VALUES[t] for t in JSON_VALUES if t != "dict")))}


@settings(max_examples=300, deadline=None)
@given(malformed())
def test_malformed_config_exits_one_before_any_work(tmp_path_factory, config):
    root = tmp_path_factory.mktemp("malformed")
    (root / "c.json").write_text(json.dumps(config))
    for command in (["ingest"], ["sweep"], ["kwic", "husband"]):
        assert run(*command, "--config", str(root / "c.json"), "--out", str(root / "out")) == 1
        assert not (root / "out").exists()


registries = st.lists(
    st.builds(
        lambda gender, names, extras, spans: (gender, names, extras, spans),
        st.sampled_from(["female", "male"]),
        st.tuples(st.text(min_size=1, max_size=6), st.text(min_size=1, max_size=6)),
        st.lists(st.text(max_size=6), max_size=2),
        st.lists(st.tuples(st.integers(0, 500), st.integers(1, 500)), max_size=3),
    ),
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(registries, st.text(max_size=6))
def test_save_then_load_registry_is_the_identity(tmp_path_factory, drawn, portfolio):
    records = []
    for i, (gender, (given_name, surname), extras, spans) in enumerate(drawn):
        day, terms = datetime.date(1990, 1, 1), []
        for gap, length in spans:  # ordered, non-overlapping terms
            start = day + datetime.timedelta(days=gap)
            day = start + datetime.timedelta(days=length)
            terms.append(corpus.OfficeTerm(portfolio, start, day))
        records.append(corpus.PoliticianRecord(f"p{i}", gender, given_name, surname, tuple(extras), tuple(terms)))
    path = tmp_path_factory.mktemp("registry") / "r.json"
    corpus.save_registry(records, path)
    assert corpus.load_registry(path) == records
