"""Command-line surface: outputs, determinism, exit codes."""

from __future__ import annotations

import contextlib
import csv
import datetime
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newsbias import cli, corpus, features, learn, pipeline
from newsbias.errors import DataError
from newsbias.preprocess import WORD, kind_of

import util
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


def test_label_counts_the_articles_of_the_date_window(synth_corpus, tmp_path):
    # every synthetic article names a politician, so none in the window is unmatched
    config = {**json.loads(synth_corpus.read_text()), "pipeline": {"date_from": "2005-01-01"}}
    windowed = tmp_path / "windowed.json"
    windowed.write_text(json.dumps(config))
    out = tmp_path / "label"
    assert run("label", "--config", str(windowed), "--out", str(out)) == 0
    summary = json.loads((out / "label_summary.json").read_text())
    assert summary["n_articles_unmatched"] == 0
    assert 0 < summary["n_articles"] == summary["n_articles_matched"] < 120


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


@pytest.mark.parametrize("command, bodies, named", [
    ("rank", ["Mary Keane spoke.", "Nobody spoke."], "the corpus yields 1"),
    ("sweep", ["Mary Keane spoke.", "Nobody spoke."], "the corpus yields 1"),
    ("rank", ["Mary Keane spoke.", "Keane voted.", "Mary Keane won."], "class 'male' has none"),
], ids=["rank-one-instance", "sweep-one-instance", "rank-one-class"])
def test_too_few_instances_or_one_class_is_a_data_error(tmp_path, capsys, command, bodies, named):
    articles = tmp_path / "a.jsonl"
    write_articles(articles, [article_row(f"a{i}", body) for i, body in enumerate(bodies)])
    registry = tmp_path / "r.json"
    write_registry(registry, [politician("p1", "female", "Mary", "Keane"), politician("p2", "male", "John", "Byrne")])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"paths": {"articles": str(articles), "registry": str(registry)},
                                  "features": {"min_df": 1}, "evaluate": {"k": 2}}))
    assert run(command, "--config", str(config), "--out", str(tmp_path / "o")) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("lam", [1e-300, 1e-320])
@pytest.mark.parametrize("command", ["sweep", "rank"])
def test_lam_too_small_for_a_finite_fit_is_a_config_error(synth_corpus, tmp_path, capsys, command, lam):
    config = json.loads(Path(synth_corpus).read_text())
    config["classifier"]["lam"] = lam
    tiny = Path(synth_corpus).with_name("tiny.json")
    tiny.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(command, "--config", str(tiny), "--out", str(out)) == 1
    assert "classifier.lam" in capsys.readouterr().err
    assert not out.exists()


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


# --- every scheme, end to end ---

@pytest.fixture
def every_scheme_corpus(tmp_path):
    """Generated corpus whose planted words a lexicon and a POS lexicon name, plus a config."""
    data = tmp_path / "data"
    planted = ["formidable:0.03:0.01", "shrill:0.02:0.02", "embrace:0.01:0.03", "insist:0.02:0.02",
               "chief:0.02:0.02"]
    assert run("gen-synth", "--out", str(data), "--seed", "99", "--n", "60",
               *(arg for p in planted for arg in ("--planted", p))) == 0
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("chief\tPOWER\nformidable\tPOWER,WARM\nembrace\tWARM\n")
    pos_lexicon = tmp_path / "pos.tsv"
    pos_lexicon.write_text("formidable\tADJ\nshrill\tADJ\nembrace\tVERB\ninsist\tVERB\nchief\tNOUN\n")
    config = {
        "seed": 7,
        "paths": {
            "articles": str(data / "articles.jsonl"),
            "registry": str(data / "registry.json"),
            "lexicons": [str(lexicon)],
            "pos_lexicon": str(pos_lexicon),
        },
        "features": {"min_df": 2},
        "evaluate": {"k": 3},
        "sweep": {
            "schemes": [f"{s}/{w}" for s in features.SCHEMES for w in features.WINDOWS],
            "representations": ["boolean"],
            "classifiers": ["svm", "nb-bernoulli", "tree"],
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path


def test_sweep_runs_every_scheme_and_window(every_scheme_corpus, tmp_path):
    out = tmp_path / "sweep"
    assert run("sweep", "--config", str(every_scheme_corpus), "--out", str(out)) == 0
    rows = read_csv_rows(out / "sweep_summary.csv")
    expected = {f"{s}/{w}/boolean/{c}" for s in features.SCHEMES for w in features.WINDOWS
                for c in ("svm", "nb-bernoulli", "tree")}
    assert len(rows) == len(expected) == 36
    assert {r["descriptor"] for r in rows} == expected
    assert all(int(r["n_features"]) >= 1 for r in rows)


@pytest.mark.parametrize("scheme", features.SCHEMES)
def test_rank_entries_carry_the_scheme_as_kind(every_scheme_corpus, tmp_path, scheme):
    out = tmp_path / "rank"
    config = json.loads(every_scheme_corpus.read_text())
    config["features"]["scheme"] = scheme
    config_path = tmp_path / f"{scheme}.json"
    config_path.write_text(json.dumps(config))
    assert run("rank", "--config", str(config_path), "--out", str(out)) == 0
    payload = json.loads((out / "ranked_features.json").read_text())
    entries = payload["female"] + payload["male"]
    assert entries
    assert {e["kind"] for e in entries} == {scheme}
    rows = read_csv_rows(out / "ranked_features.csv")
    assert [(r["surface"], r["kind"]) for r in rows] == [(e["surface"], e["kind"]) for e in entries]


@pytest.mark.parametrize("command", ["sweep", "rank"])
def test_lexicon_schemes_find_their_words_under_stemming(every_scheme_corpus, tmp_path, command):
    # "formidable" and "embrace" stem to "formid" and "embrac": the lexicons are stemmed to match
    outputs = {}
    for stem in (False, True):
        config = json.loads(every_scheme_corpus.read_text())
        config["pipeline"] = {"stem": stem}
        config["features"]["scheme"] = "adjective"
        config["sweep"]["schemes"] = ["adjective/article", "verb/article", "lexicon_category/article"]
        config_path = tmp_path / f"stem-{stem}.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / f"out-{stem}"
        assert run(command, "--config", str(config_path), "--out", str(out)) == 0
        outputs[stem] = read_tree(out)
    if command == "sweep":
        # the stems index the same rows as the words, so every number is the same
        assert outputs[True]["sweep_summary.csv"] == outputs[False]["sweep_summary.csv"]
    else:
        ranked = json.loads(outputs[True]["ranked_features.json"])
        assert {e["surface"] for e in ranked["female"] + ranked["male"]} == {"formid", "shrill"}


def test_stemmed_pos_lexicon_refuses_words_whose_stems_disagree(every_scheme_corpus, tmp_path, capsys):
    config = json.loads(every_scheme_corpus.read_text())
    pos_lexicon = tmp_path / "pos-clash.tsv"
    pos_lexicon.write_text("embrace\tVERB\nembraced\tADJ\nembraces\tVERB\n")
    config["paths"]["pos_lexicon"] = str(pos_lexicon)
    config["sweep"]["schemes"] = ["verb/article"]
    config["sweep"]["classifiers"] = ["nb-bernoulli"]
    for stem, code in ((False, 0), (True, 2)):
        config["pipeline"] = {"stem": stem}
        config_path = tmp_path / f"stem-{stem}.json"
        config_path.write_text(json.dumps(config))
        assert run("sweep", "--config", str(config_path), "--out", str(tmp_path / f"out-{stem}")) == code
    err = capsys.readouterr().err
    assert "'embrace' (VERB) and 'embraced' (ADJ)" in err and "'embrac'" in err
    # the failed load leaves no --out behind
    assert (tmp_path / "out-False").is_dir() and not (tmp_path / "out-True").exists()


@pytest.mark.parametrize("command", ["sweep", "rank"])
def test_stemming_leaves_lexicons_no_scheme_reads(every_scheme_corpus, tmp_path, command):
    # a POS lexicon whose stems disagree stops only the schemes that read it
    config = json.loads(every_scheme_corpus.read_text())
    pos_lexicon = tmp_path / "pos-clash.tsv"
    pos_lexicon.write_text("embrace\tVERB\nembraced\tADJ\n")
    config["paths"]["pos_lexicon"] = str(pos_lexicon)
    config["pipeline"] = {"stem": True}
    config["sweep"]["classifiers"] = ["nb-bernoulli"]
    for scheme, code in (("unigram", 0), ("lexicon_category", 0), ("adjective", 2)):
        config["features"]["scheme"] = scheme
        config["sweep"]["schemes"] = [f"{scheme}/article"]
        config_path = tmp_path / f"{scheme}.json"
        config_path.write_text(json.dumps(config))
        assert run(command, "--config", str(config_path), "--out", str(tmp_path / f"out-{scheme}")) == code


@pytest.mark.parametrize("command", ["sweep", "rank"])
@pytest.mark.parametrize("key, scheme, text", [("lexicons", "lexicon_category", "# categories to come\n\n"),
                                               ("pos_lexicon", "adjective", "")], ids=["lexicons", "pos_lexicon"])
def test_lexicon_file_with_no_entry_is_a_data_error(every_scheme_corpus, tmp_path, capsys, command, key, scheme,
                                                    text):
    # such a file used to read as no lexicon at all, or to leave no feature, without naming the file
    config = json.loads(every_scheme_corpus.read_text())
    empty = tmp_path / "empty.tsv"
    empty.write_text(text)
    config["paths"][key] = [str(empty)] if key == "lexicons" else str(empty)
    config["features"]["scheme"] = scheme
    config["sweep"]["schemes"] = [f"{scheme}/article"]
    config_path = tmp_path / "probe.json"
    config_path.write_text(json.dumps(config))
    assert run(command, "--config", str(config_path), "--out", str(tmp_path / "o")) == 2
    assert f"{empty} holds no entry" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["signals", "stoplist"])
def test_word_list_with_no_entry_is_a_data_error(synth_corpus, tmp_path, capsys, key):
    # an empty signals list used to switch pronoun masking off without a word
    config = json.loads(synth_corpus.read_text())
    empty = tmp_path / "empty.txt"
    empty.write_text("# words to come\n\n")
    config["paths"][key] = str(empty)
    config["pipeline"] = {"remove_stopwords": key == "stoplist"}
    config_path = tmp_path / "probe.json"
    config_path.write_text(json.dumps(config))
    for argv in (["label"], ["kwic", "husband", "--masked"]):
        assert run(*argv, "--config", str(config_path), "--out", str(tmp_path / "o")) == 2
        assert f"word list {empty} holds no entry" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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


def test_kwic_window_past_int64_reads_the_whole_article(synth_corpus, tmp_path):
    # a window longer than the stream is clamped to it, so no context bound leaves int64
    written = {}
    for window in (10**6, 2**62, 2**63 - 1, 10**20):
        out = tmp_path / str(window)
        assert run("kwic", "husband", "--window", str(window), "--config", str(synth_corpus), "--out", str(out)) == 0
        written[window] = (out / "kwic.csv").read_bytes()
    assert all(content == written[10**6] for content in written.values())
    rows = read_csv_rows(tmp_path / str(10**6) / "kwic.csv")
    assert rows and all(row["left"] or row["right"] for row in rows)


@pytest.mark.parametrize("argv", [["kwic", "NAMEFORM_FULL"], ["stats", "--term", "husband", "--term", "NAMEFORM_GIVEN"]],
                         ids=["kwic", "stats"])
def test_marker_query_on_the_raw_pass_names_masked(synth_corpus, tmp_path, capsys, argv):
    # a NAMEFORM_* token exists only once names are masked: on raw text it could only count 0
    assert run(*argv, "--config", str(synth_corpus), "--out", str(tmp_path / "raw")) == 1
    err = capsys.readouterr().err
    assert f"query {argv[-1]!r} is a masking marker" in err and "--masked (interpret.masked)" in err
    assert run(*argv, "--masked", "--config", str(synth_corpus), "--out", str(tmp_path / "masked")) == 0


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


def test_stats_portfolio_counts_only_articles_dated_in_its_terms(tmp_path):
    # the count used to stay over all the group's articles: 622 female "husband" mentions under every portfolio
    data = tmp_path / "data"
    assert run("gen-synth", "--out", str(data), "--n", "400", "--planted", "husband:0.05:0.005", "--seed", "3") == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"paths": {"articles": str(data / "articles.jsonl"),
                                            "registry": str(data / "registry.json")}}))
    articles, registry = corpus.load_articles(data / "articles.jsonl"), corpus.load_registry(data / "registry.json")
    texts = pipeline.build_instances(articles, registry, masked=False).stream.texts()
    assert run("stats", "--config", str(config), "--out", str(tmp_path / "all"), "--term", "husband") == 0
    every = {r["group"]: int(r["count"]) for r in read_csv_rows(tmp_path / "all" / "stats.csv")}
    assert every == {"female": 622, "male": 61}
    assert run("stats", "--config", str(config), "--out", str(tmp_path / "arts"), "--term", "husband",
               "--portfolio", "arts") == 0
    rows = read_csv_rows(tmp_path / "arts" / "stats.csv")
    assert {r["group"]: int(r["count"]) for r in rows} == {
        group: util.ref_portfolio_count(articles, registry, texts, "husband", group, "arts")
        for group in corpus.GENDERS}
    assert all(0 < int(r["count"]) < every[r["group"]] for r in rows)
    assert all(float(r["rate"]) == pytest.approx(int(r["count"]) / float(r["years"]), rel=1e-5) for r in rows)


def test_stats_portfolio_no_term_holds_names_the_flag(spouse_fixture, tmp_path, capsys):
    # it used to report a group with zero years in office, naming neither the flag nor the cause
    out = tmp_path / "o"
    assert run("stats", "--config", str(spouse_fixture), "--out", str(out), "--term", "husband",
               "--portfolio", "helth") == 2
    err = capsys.readouterr().err
    assert "--portfolio 'helth'" in err and "education, finance, health, justice, transport" in err
    assert not out.exists()


def test_stats_portfolio_one_group_never_held_names_the_flag(spouse_fixture, tmp_path, capsys):
    # health is a registry portfolio that only a female politician held; the message used to name neither
    out = tmp_path / "o"
    assert run("stats", "--config", str(spouse_fixture), "--out", str(out), "--term", "husband",
               "--portfolio", "health") == 2
    assert "group 'male' has zero years in office in --portfolio 'health' in the window" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("masked, stem, code", [(True, True, 1), (False, True, 0), (True, False, 0)],
                         ids=["masked-stemmed", "raw-stemmed", "masked-unstemmed"])
def test_stats_queries_that_search_one_stem_are_named_twice(tmp_path, capsys, masked, stem, code):
    # a masked pass under pipeline.stem searches both terms as "husband", which used to count its hits twice
    data = tmp_path / "data"
    assert run("gen-synth", "--out", str(data), "--n", "120", "--planted", "husband:0.05:0.01") == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "paths": {"articles": str(data / "articles.jsonl"), "registry": str(data / "registry.json")},
        "pipeline": {"stem": stem},
    }))
    out = tmp_path / "stats"
    flags = ["--masked"] if masked else []
    assert run("stats", "--term", "husband", "--term", "husbands", *flags, "--config", str(config),
               "--out", str(out)) == code
    if code:
        assert "--term names a query twice (each searched as its stem): husband,husbands" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert [r["term"] for r in read_csv_rows(out / "stats.csv")] == ["husband"] * 2 + ["husbands"] * 2


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


@pytest.mark.parametrize("key, value", [("date_from", "2030-01-01"), ("date_from", "2006-03-01"),
                                        ("date_to", "1990-01-01"), ("date_to", "1994-01-01")],
                         ids=["from-after", "from-at-end", "to-before", "to-at-start"])
def test_stats_window_past_the_registry_is_a_data_error(tmp_path, capsys, key, value):
    # the one side set leaves no time in office between it and the registry's bound on the other side
    registry_path = tmp_path / "registry.json"
    write_registry(registry_path, [
        politician("f1", "female", "Mary", "Keane", terms=[("health", "1994-01-01", "2006-03-01")]),
        politician("m1", "male", "Brian", "Dunne", terms=[("finance", "1995-01-01", "2001-03-01")]),
    ])
    articles_path = tmp_path / "articles.jsonl"
    write_articles(articles_path, [article_row("f", "Mary Keane spoke. husband.", date="2005-05-01")])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"paths": {"articles": str(articles_path), "registry": str(registry_path)},
                                  "pipeline": {key: value}}))
    out = tmp_path / "stats"
    assert run("stats", "--config", str(config), "--out", str(out), "--term", "husband") == 2
    err = capsys.readouterr().err
    assert f"pipeline.{key} {value}" in err and "1994-01-01 to 2006-03-01" in err
    assert not out.exists()


# --- queries against stemmed views ---

@pytest.fixture
def stemmed_corpus(tmp_path):
    """Generated corpus with a planted word the stemmer changes ("bedite" -> "bedit"), stemming on."""
    data = tmp_path / "data"
    assert run("gen-synth", "--out", str(data), "--seed", "99", "--n", "40",
               "--planted", "bedite:0.04:0.02") == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "paths": {"articles": str(data / "articles.jsonl"), "registry": str(data / "registry.json")},
        "pipeline": {"stem": True},
    }))
    return config_path


@pytest.mark.parametrize("term", ["bedite", "Bedite"])
def test_stats_masked_under_stemming_counts_what_raw_counts(stemmed_corpus, tmp_path, term):
    counts = {}
    for flags in ([], ["--masked"]):
        out = tmp_path / ("masked" if flags else "raw")
        assert run("stats", "--term", term, *flags, "--config", str(stemmed_corpus), "--out", str(out)) == 0
        counts[bool(flags)] = {r["group"]: int(r["count"]) for r in read_csv_rows(out / "stats.csv")}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest.get("searched") == ({term: "bedit"} if flags else None)
    assert counts[True] == counts[False]
    assert all(counts[True].values())


def test_kwic_masked_under_stemming_finds_what_raw_finds(stemmed_corpus, tmp_path):
    found = {}
    for flags in ([], ["--masked"]):
        out = tmp_path / ("masked" if flags else "raw")
        assert run("kwic", "bedite", *flags, "--config", str(stemmed_corpus), "--out", str(out)) == 0
        rows = read_csv_rows(out / "kwic.csv")
        assert {r["keyword"] for r in rows} == {"bedit" if flags else "bedite"}
        found[bool(flags)] = sorted(r["article_id"] for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest.get("searched") == ({"bedite": "bedit"} if flags else None)
    assert found[True] == found[False] != []


def test_query_that_is_its_own_stem_records_no_searched_form(stemmed_corpus, tmp_path):
    out = tmp_path / "stats"
    assert run("stats", "--term", "bedit", "--term", "NAMEFORM_FULL", "--masked",
               "--config", str(stemmed_corpus), "--out", str(out)) == 0
    assert "searched" not in json.loads((out / "manifest.json").read_text())
    assert all(int(r["count"]) > 0 for r in read_csv_rows(out / "stats.csv"))


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
    assert "group" not in cli.load_config(None)["interpret"]


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


@pytest.mark.parametrize("part, value, body", [
    # read as names, a blank surname would leave "Mary" alone a full-name
    # mention, and a "-" surname would label an article that names nobody
    ("surname", " ", "Mary spoke."),
    ("surname", "-", "Costs - and more costs - rose."),
    ("given_name", "3", "Keane spoke in 3 places."),
    ("extra_variants", [" "], "Mary Keane spoke."),
])
def test_registry_name_part_without_a_word_is_data_error(tmp_path, capsys, part, value, body):
    articles = tmp_path / "a.jsonl"
    write_articles(articles, [article_row("a1", body)])
    registry = tmp_path / "r.json"
    write_registry(registry, [{**politician("p1", "female", "Mary", "Keane"), part: value}])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"paths": {"articles": str(articles), "registry": str(registry)}}))
    assert run("label", "--config", str(config), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert f"field {part} holds no word" in err and "for politician 'p1'" in err and not (tmp_path / "o").exists()


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
    "sweep,named",
    [
        # every combination but the last is valid
        ({"schemes": ["unigram"], "representations": ["boolean", "tfidf"], "classifiers": ["svm", "tree"]},
         "unigram/article/tfidf/tree"),
        ({"schemes": ["unigram", "lexicon_category"], "representations": ["boolean"], "classifiers": ["svm"]},
         "lexicon_category"),
        ({"schemes": ["unigram", "adjective/sentence"], "representations": ["boolean"], "classifiers": ["svm"]},
         "adjective"),
        # "unigram" is "unigram/article", and the classifier is named twice too
        ({"schemes": ["unigram", "unigram/article"], "representations": ["boolean"],
          "classifiers": ["nb-bernoulli", "nb-bernoulli"]},
         "unigram/article/boolean/nb-bernoulli is named more than once"),
    ],
    ids=["tree-tfidf", "lexicon-without-lexicons", "adjective-without-pos-lexicon", "repeated-combination"],
)
def test_sweep_combinations_checked_before_any_work(synth_corpus, monkeypatch, tmp_path, capsys, sweep, named):
    from newsbias import pipeline

    calls = []
    build_instances = pipeline.build_instances
    monkeypatch.setattr(pipeline, "build_instances", lambda *a, **kw: calls.append(1) or build_instances(*a, **kw))
    config = {**json.loads(synth_corpus.read_text()), "sweep": sweep}
    bad = synth_corpus.with_name("bad.json")
    bad.write_text(json.dumps(config))
    assert run("sweep", "--config", str(bad), "--out", str(tmp_path / "o")) == 1
    assert named in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "o").exists()



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
    ["stats", "--term", "husband", "--term", "husband"],
    ["stats", "--term", "husband", "--term", "wife", "--term", "Husband"],
    ["stats", "--term", "NAMEFORM_SURNAME"],
    ["kwic", "NAMEFORM_FULL"],
], ids=["unknown-group", "no-group", "stats-phrase", "kwic-phrase", "repeated-group", "repeated-term",
        "repeated-normalised-term", "stats-raw-marker", "kwic-raw-marker"])
def test_query_usage_checked_before_any_work(synth_corpus, monkeypatch, tmp_path, argv):
    from newsbias import pipeline

    calls = []
    monkeypatch.setattr(pipeline, "build_doc_views", lambda *a, **kw: calls.append(1))
    assert run(*argv, "--config", str(synth_corpus), "--out", str(tmp_path / "o")) == 1
    assert calls == [] and not (tmp_path / "o").exists()


@pytest.mark.parametrize("bad", ["directory", "not-utf8", "not-utf8-late", "missing"])
@pytest.mark.parametrize("key", ["config", "articles", "registry", "stoplist", "signals",
                                 "lexicons", "pos_lexicon"])
def test_unreadable_input_file_is_a_config_or_data_error(synth_corpus, tmp_path, capsys, key, bad):
    config = json.loads(synth_corpus.read_text())
    path = tmp_path / "bad"
    if bad == "directory":
        path.mkdir()
    elif bad == "not-utf8":
        path.write_bytes(b"\xffthe\n")
    elif bad == "not-utf8-late":
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
    code = 1 if key == "config" or bad == "missing" else 2
    assert run("rank", "--config", str(given), "--out", str(tmp_path / "o")) == code
    assert str(path) in capsys.readouterr().err
    # a failed load leaves no --out behind
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("entry", ["mr.", "2010", "co chair", "NAMEFORM_FULL", "-"])
@pytest.mark.parametrize("key", ["signals", "stoplist"])
def test_word_list_entry_that_is_not_one_word_is_a_data_error(synth_corpus, tmp_path, capsys, key, entry):
    # masking deletes word tokens only, so such an entry could never delete anything
    config = json.loads(synth_corpus.read_text())
    words = tmp_path / "words.txt"
    words.write_text(f"# a word list\nShe\n\n{entry}  # not one word\nhe\n", encoding="utf-8")
    config["paths"][key] = str(words)
    config["pipeline"] = {"remove_stopwords": key == "stoplist"}
    config_path = tmp_path / "probe.json"
    config_path.write_text(json.dumps(config))
    for argv in (["label"], ["kwic", "husband", "--masked"]):
        assert run(*argv, "--config", str(config_path), "--out", str(tmp_path / "o")) == 2
        assert f"words.txt:4: word list entry {entry!r} is not one word" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("entry", ["mr.", "2010", "co chair", "NAMEFORM_FULL", "-", "abandon*", "prime minister",
                                   "3rd", "e.g.", "strong.", ""])
@pytest.mark.parametrize("key", ["lexicons", "pos_lexicon"])
def test_lexicon_word_that_is_not_one_word_is_a_data_error(synth_corpus, tmp_path, capsys, key, entry):
    # a lexicon word is matched whole against word tokens, so such an entry could never match one
    field, what = {"lexicons": ("POWER", "lexicon word"), "pos_lexicon": ("ADJ", "POS lexicon word")}[key]
    config = json.loads(synth_corpus.read_text())
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(f"# a lexicon\nChief\t{field}\n\n{entry}\t{field}  # not one word\nvote\t{field}\n",
                       encoding="utf-8")
    config["paths"][key] = [str(lexicon)] if key == "lexicons" else str(lexicon)
    config_path = tmp_path / "probe.json"
    config_path.write_text(json.dumps(config))
    # rank loads every configured lexicon, whatever its scheme reads
    assert run("rank", "--config", str(config_path), "--out", str(tmp_path / "o")) == 2
    assert f"lexicon.tsv:4: {what} {entry!r} is not one word" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_that_cannot_be_a_directory_is_a_config_error(synth_corpus, monkeypatch, tmp_path, capsys, out):
    from newsbias import corpus

    calls = []
    monkeypatch.setattr(corpus, "load_articles", lambda *a, **kw: calls.append(1))
    (tmp_path / "afile").write_text("kept\n")
    assert run("label", "--config", str(synth_corpus), "--out", str(tmp_path / out)) == 1
    err = capsys.readouterr().err
    assert f"out {tmp_path / out} cannot be a directory: {tmp_path / 'afile'} is not one" in err
    assert calls == [] and (tmp_path / "afile").read_text() == "kept\n"


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
    assert _flatten(cli.load_config(None)) == TABLE_DEFAULTS
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("A full config with defaults:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    documented = _flatten(json.loads(block))
    assert documented.keys() == TABLE_DEFAULTS.keys()
    # the README shows example file names for the two corpus paths
    for key in ("paths.articles", "paths.registry"):
        documented[key] = TABLE_DEFAULTS[key]
    assert documented == TABLE_DEFAULTS


def _documented_outputs() -> dict[tuple[str, str], list[str]]:
    """The README's output table: (command, file) -> the CSV columns or JSON keys it lists."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Output formats", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
            for line in table.splitlines() if line.startswith("| ")]
    return {(command, file): keys.split(",") for command, file, keys in rows[1:]}


def _written_keys(path: Path) -> list[str]:
    """A CSV's header; else the sorted keys of the JSON object, of every line of
    a JSON Lines file or of every item of a JSON list."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return next(csv.reader(text.splitlines()))
    objects = [json.loads(line) for line in text.splitlines()] if path.suffix == ".jsonl" else json.loads(text)
    return sorted(set().union(*(objects if isinstance(objects, list) else [objects])))


def test_output_formats_are_the_readme_table(synth_corpus, tmp_path):
    argv = {"ingest": [], "label": [], "sweep": [], "rank": [], "kwic": ["husband"], "stats": ["--term", "husband"]}
    outs = {"gen-synth": tmp_path / "data"}  # the fixture's gen-synth run
    for command, rest in argv.items():
        outs[command] = tmp_path / command
        assert run(command, *rest, "--config", str(synth_corpus), "--out", str(outs[command])) == 0
    written: dict[tuple[str, str], list[str]] = {}
    for command, out in outs.items():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            name = path.relative_to(out).as_posix()
            if name.startswith("reports/"):
                name = "reports/<descriptor>.json"
            key = ("every command", name) if name == "manifest.json" else (command, name)
            keys = _written_keys(path)
            if path.suffix != ".csv":  # the keys any of the reports or manifests holds
                keys = sorted({*written.get(key, []), *keys})
            written[key] = keys
    assert written == _documented_outputs()


# the command that reads each int key of the table; a new int key fails the tests
# below until it is named here or in INT_KEYS_EXEMPT
INT_KEY_COMMANDS = {
    "features.min_df": ["sweep"],
    "classifier.max_depth": ["sweep"],
    "classifier.min_leaf": ["sweep"],
    "evaluate.k": ["sweep"],
    "interpret.k": ["rank"],
    "interpret.kwic_window": ["kwic", "husband"],
}
INT_KEYS_EXEMPT = {
    "synth.n": "a large value asks for that many articles: real work, not a bad value",
    "classifier.epochs": "a large value asks for that many svm iterations: real work, not a bad value",
    "seed": "its predicate bounds it below 2**64",
    "synth.per_gender": "its predicate bounds it by synth.MAX_PER_GENDER",
}
INT_KEYS = [key for key, (_, kind, _) in cli.SCHEMA.items() if kind is int]


def test_every_int_key_is_tested_or_exempt():
    assert sorted(INT_KEY_COMMANDS.keys() | INT_KEYS_EXEMPT.keys()) == sorted(INT_KEYS)
    assert not INT_KEY_COMMANDS.keys() & INT_KEYS_EXEMPT.keys()


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    data = tmp_path_factory.mktemp("tiny")
    assert run("gen-synth", "--out", str(data), "--seed", "5", "--n", "40", "--planted", "husband:0.4:0.05") == 0
    return {"paths": {"articles": str(data / "articles.jsonl"), "registry": str(data / "registry.json")},
            "classifier": {"epochs": 3}, "evaluate": {"k": 2}, "sweep": {"classifiers": ["svm", "tree"]}}


@pytest.mark.parametrize("value", [2**63 - 1, 2**64, 10**20])
@pytest.mark.parametrize("key", [key for key in INT_KEYS if key not in INT_KEYS_EXEMPT])
def test_int_key_at_an_extreme_value_exits_zero_one_or_two(tiny_corpus, tmp_path, capsys, key, value):
    # up to and past int64: a bound the run cannot reach is taken, a value the data cannot meet is refused
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_nest({**_flatten(tiny_corpus), key: value})))
    code = run(*INT_KEY_COMMANDS[key], "--config", str(path), "--out", str(tmp_path / "o"))
    assert code in (0, 1, 2), capsys.readouterr().err


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
            bad = draw(st.sampled_from(["", "2004-13-01", "2004-02-30", "yesterday", "20040101", "2004-W01-1"]))
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


def registries(name, extra):
    """Registries of up to four politicians: names drawn from name, extra variants from extra."""
    return st.lists(
        st.builds(
            lambda gender, names, extras, spans: (gender, names, extras, spans),
            st.sampled_from(["female", "male"]),
            st.tuples(name, name),
            st.lists(extra, max_size=2),
            st.lists(st.tuples(st.integers(0, 500), st.integers(1, 500)), max_size=3),
        ),
        max_size=4,
    )


def saved_registry(tmp_path_factory, drawn, portfolio):
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
    return records, path


# a name that starts with a letter holds a word, whatever follows
WORDY_NAMES = st.builds(str.__add__, st.characters(categories=["L"]), st.text(max_size=5))
# a portfolio that is not blank: a blank one is refused on load
PORTFOLIOS = st.text(min_size=1, max_size=6).filter(lambda text: not text.isspace())


@settings(max_examples=100, deadline=None)
@given(registries(WORDY_NAMES, WORDY_NAMES), PORTFOLIOS)
def test_save_then_load_registry_is_the_identity(tmp_path_factory, drawn, portfolio):
    records, path = saved_registry(tmp_path_factory, drawn, portfolio)
    assert corpus.load_registry(path) == records


@settings(max_examples=100, deadline=None)
@given(registries(st.text(min_size=1, max_size=6), st.text(max_size=6)), PORTFOLIOS)
def test_registry_name_part_without_a_word_is_refused(tmp_path_factory, drawn, portfolio):
    # a name part in which the tokenizer reads no word is refused, the first one met naming its field
    records, path = saved_registry(tmp_path_factory, drawn, portfolio)
    wordless = [(field, value, r.id) for r in records
                for field, value in (("given_name", r.given_name), ("surname", r.surname),
                                     *(("extra_variants", v) for v in r.extra_variants))
                if WORD not in map(kind_of, util.ref_tokens(value))]
    if wordless:
        field, value, rid = wordless[0]
        with pytest.raises(DataError) as raised:
            corpus.load_registry(path)
        assert str(raised.value) == f"field {field} holds no word: {value!r} for politician {rid!r}"
    else:
        assert corpus.load_registry(path) == records


# --- the input record table ---

@pytest.mark.parametrize("target, value, code, named", [
    # from Python 3.11 date.fromisoformat also reads these; a date is YYYY-MM-DD on every Python
    ("article", "20050615", 2, "invalid date '20050615' in field date at line 1"),
    ("article", "2005-W24-3", 2, "invalid date '2005-W24-3' in field date at line 1"),
    ("term", "20100101", 2, "invalid date '20100101' in field end for politician 'p1'"),
    ("config", "20050101", 1, "pipeline.date_from does not take the value '20050101'"),
], ids=["article-basic", "article-week", "term-end-basic", "config-basic"])
def test_dates_are_yyyy_mm_dd(tmp_path, capsys, target, value, code, named):
    articles, registry = tmp_path / "a.jsonl", tmp_path / "r.json"
    date, end = (value if target == "article" else "2005-06-15"), (value if target == "term" else "2010-01-01")
    write_articles(articles, [article_row("a1", "Mary Keane spoke.", date=date)])
    write_registry(registry, [politician("p1", "female", "Mary", "Keane", terms=[("health", "2000-01-01", end)])])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"paths": {"articles": str(articles), "registry": str(registry)},
                                  "pipeline": {"date_from": value if target == "config" else None}}))
    assert run("label", "--config", str(config), "--out", str(tmp_path / "o")) == code
    assert named in capsys.readouterr().err and not (tmp_path / "o").exists()


LEFT_OUT = object()
# a field's JSON value mutated to one of these, or its key left out
MUTATIONS = [None, 7, True, ["Bert"], {"x": 1}, "", " ", "\x00", "-", "3", "20050615", "2005-02-30"]


def refused_field(kind, rule, name, value):
    """The field the table's row (kind, rule) refuses value for, named as
    README "Input formats" states the rules; None where the row takes it."""
    if value is LEFT_OUT:
        return None if rule == "optional" or isinstance(kind, list) else name
    if isinstance(kind, list):
        return name if type(value) is not list else next(
            filter(None, (refused_field(kind[0], rule, name, item) for item in value)), None)
    if kind in corpus.RECORDS:
        return name if type(value) is not dict else next(
            filter(None, (refused_field(*row, field, value.get(field, LEFT_OUT))
                          for field, row in corpus.RECORDS[kind].items())), None)
    if type(value) is not str:
        return name
    if kind is datetime.date:
        try:
            return None if re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", value) and datetime.date(
                *map(int, value.split("-"))) else name
        except ValueError:
            return name
    ok = value in rule if isinstance(rule, tuple) else {
        "optional": True,
        "required": value.strip() != "",
        "id": value.strip() != "" and value.isprintable(),
        "word": WORD in map(kind_of, util.ref_tokens(value)),
    }[rule]
    return None if ok else name


def mutated(record: dict, field: str, value) -> dict:
    return {key: item for key, item in record.items() if key != field} | ({} if value is LEFT_OUT else {field: value})


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([(cls, field) for cls, rows in corpus.RECORDS.items() for field in rows]),
       st.sampled_from([LEFT_OUT, *MUTATIONS]) | st.sampled_from(MUTATIONS).map(lambda value: [value]))
def test_a_mutated_field_exits_two_naming_it_or_is_taken(tmp_path_factory, row, value):
    # one field of the first article, politician or office term mutated; label
    # and stats refuse it naming the field, or run as the table takes it
    cls, field = row
    articles = [article_row("a1", "Mary Keane spoke of her husband."), article_row("a2", "Brian Dunne spoke."),
                article_row("a3", "Nora Brophy and her husband spoke."), article_row("a4", "Noel Nolan spoke.")]
    registry = [politician("f1", "female", "Mary", "Keane", terms=[("health", "2000-01-01", "2010-01-01")]),
                politician("m1", "male", "Brian", "Dunne", terms=[("finance", "2000-01-01", "2010-01-01")]),
                politician("f2", "female", "Nora", "Brophy", terms=[("justice", "2000-01-01", "2010-01-01")]),
                politician("m2", "male", "Noel", "Nolan", terms=[("transport", "2000-01-01", "2010-01-01")])]
    if cls is corpus.Article:
        articles[0] = mutated(articles[0], field, value)
    elif cls is corpus.PoliticianRecord:
        registry[0] = mutated(registry[0], field, value)
    else:
        registry[0]["terms"] = [mutated(registry[0]["terms"][0], field, value)]
    root = tmp_path_factory.mktemp("mutated")
    write_articles(root / "a.jsonl", articles)
    write_registry(root / "r.json", registry)
    (root / "c.json").write_text(json.dumps({"paths": {"articles": str(root / "a.jsonl"),
                                                       "registry": str(root / "r.json")}}))
    refused = refused_field(*corpus.RECORDS[cls][field], field, value)
    for command in (["label"], ["stats", "--term", "husband"]):
        out = root / command[0]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run(*command, "--config", str(root / "c.json"), "--out", str(out))
        if refused:
            assert code == 2 and f"field {refused} " in err.getvalue(), (code, err.getvalue())
            assert not out.exists()
        else:
            assert code == 0, err.getvalue()
