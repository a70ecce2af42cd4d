"""Synthetic corpus generator: determinism, balance, planted signal."""

from __future__ import annotations

import numpy as np
import pytest

import util
from newsbias import corpus, pipeline, synth
from newsbias.errors import ConfigError
from newsbias.rng import Rng


def test_generation_is_deterministic():
    a_arts, a_reg = synth.generate_corpus(40, seed=5)
    b_arts, b_reg = synth.generate_corpus(40, seed=5)
    assert a_arts == b_arts and a_reg == b_reg


def test_different_seeds_differ():
    a, _ = synth.generate_corpus(20, seed=1)
    b, _ = synth.generate_corpus(20, seed=2)
    assert a != b


def test_balance_is_exact():
    arts, reg = synth.generate_corpus(100, balance=0.3, seed=7)
    instances = pipeline.build_instances(arts, reg)
    females = int(np.sum(instances.y == corpus.GENDERS.index("female")))
    assert len(instances) == 100  # every article features exactly one politician
    assert females == 30


def test_every_article_matches_one_politician():
    arts, reg = synth.generate_corpus(60, seed=9)
    scans = corpus.scan_corpus(arts, reg)
    for scan, names in zip(scans, util.matches(scans), strict=True):
        assert len(names) == 1
        assert len(scan.mention_spans)


def test_registry_round_trips_through_validation(tmp_path):
    _, reg = synth.generate_corpus(10, seed=3)
    path = tmp_path / "registry.json"
    corpus.save_registry(reg, path)
    assert corpus.load_registry(path) == reg


def test_articles_round_trip(tmp_path):
    arts, _ = synth.generate_corpus(10, seed=3)
    path = tmp_path / "articles.jsonl"
    corpus.save_articles(arts, path)
    assert corpus.load_articles(path) == arts


def test_planted_term_skews_by_label():
    planted = (synth.PlantedTerm("husband", 0.08, 0.005),)
    arts, reg = synth.generate_corpus(300, planted=planted, seed=13)
    instances = pipeline.build_instances(arts, reg)
    hits = {"female": 0, "male": 0}
    texts = instances.stream.texts()
    for a, y in zip(instances.article.tolist(), instances.y.tolist()):
        if "husband" in texts[a].tokens:
            hits[corpus.GENDERS[y]] += 1
    assert hits["female"] > 3 * hits["male"]


def test_filler_vocabulary_avoids_planted_terms():
    # a planted term with probability zero must never appear: the filler
    # pool itself is built to exclude it
    arts, _ = synth.generate_corpus(50, planted=(synth.PlantedTerm("budget", 0.0, 0.0),), seed=2)
    for art in arts:
        assert "budget" not in art.body.lower().split()


def test_pronouns_and_titles_present_before_masking():
    arts, reg = synth.generate_corpus(200, seed=21)
    raw = " ".join(a.body.lower() for a in arts)
    assert " she said" in raw and " he said" in raw
    assert "ms " in raw or "mr " in raw


def test_param_validation():
    with pytest.raises(ConfigError):
        synth.generate_corpus(1)
    with pytest.raises(ConfigError):
        synth.generate_corpus(10, balance=1.5)
    with pytest.raises(ConfigError):
        synth.PlantedTerm("x", -0.1, 0.5)
    with pytest.raises(ConfigError):
        synth.make_registry(Rng(0), per_gender=0)
