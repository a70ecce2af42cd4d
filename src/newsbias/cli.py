"""Batch command-line front-end.

Subcommands: ingest, label, sweep, rank, kwic, stats, gen-synth. All
behaviour is driven by a single JSON config document; command-line
flags override individual config keys. Every command writes its outputs
plus a run manifest (config hash, seed, package version) into the
output directory, and identical (inputs, config, seed) produce
byte-identical output files.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import copy
import csv
import datetime
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, corpus, features, interpret, learn, pipeline, preprocess, synth
from .errors import ConfigError, DataError, NewsbiasError, read_text


def _parse_planted(raw) -> synth.PlantedTerm:
    """A planted term from "TERM:P_FEMALE:P_MALE" or {"term": ..., "p_female": ..., "p_male": ...}."""
    if type(raw) is str and raw.count(":") == 2:
        term, p_female, p_male = raw.split(":")
        raw = {"term": term, "p_female": float(p_female), "p_male": float(p_male)}
    if not (type(raw) is dict and raw.keys() == {"term", "p_female", "p_male"} and type(raw["term"]) is str
            and type(raw["p_female"]) in (int, float) and type(raw["p_male"]) in (int, float)):
        raise ConfigError(f"{raw!r} is neither TERM:P_FEMALE:P_MALE nor an object of those three")
    return synth.PlantedTerm(**raw)


_UNSET = object()  # no default: the key is in a config only when it is set
_SCHEME_ENTRIES = (*features.SCHEMES, *(f"{s}/{w}" for s in features.SCHEMES for w in features.WINDOWS))

# Every config key: (default, type, allowed values). A float key takes an int
# too, and only a bool key takes true or false; [T] is a list whose items are
# each checked. A key may be null when its type says so. The allowed values are
# a tuple of choices, or a function that returns false or raises on a bad value.
SCHEMA = {
    "seed": (0, int, lambda v: 0 <= v < 2**64),
    "out": ("out", str, None),
    "paths.articles": (None, str | None, None),
    "paths.registry": (None, str | None, None),
    "paths.stoplist": (None, str | None, None),
    "paths.signals": (None, str | None, None),
    "paths.lexicons": ([], [str], None),
    "paths.pos_lexicon": (None, str | None, None),
    "pipeline.remove_stopwords": (False, bool, None),
    "pipeline.stem": (False, bool, None),
    "pipeline.date_from": (None, str | None, datetime.date.fromisoformat),
    "pipeline.date_to": (None, str | None, datetime.date.fromisoformat),
    "features.scheme": ("unigram", str, features.SCHEMES),
    "features.window": ("article", str, features.WINDOWS),
    "features.representation": ("boolean", str, features.REPRESENTATIONS),
    "features.min_df": (features.DEFAULT_MIN_DF, int, lambda v: v >= 1),
    "classifier.name": ("svm", str, ("svm",)),
    # the svm's iterates scale as 1/lam, which must at least be finite
    "classifier.lam": (learn.DEFAULT_SVM_LAMBDA, float, lambda v: 0 < v < math.inf and 1 / v < math.inf),
    "classifier.epochs": (learn.DEFAULT_SVM_EPOCHS, int, lambda v: v >= 1),
    "classifier.alpha": (learn.DEFAULT_NB_ALPHA, float, lambda v: 0 < v < math.inf),
    "classifier.max_depth": (learn.DEFAULT_TREE_MAX_DEPTH, int, lambda v: v >= 1),
    "classifier.min_leaf": (learn.DEFAULT_TREE_MIN_LEAF, int, lambda v: v >= 1),
    "evaluate.k": (10, int, lambda v: v >= 2),
    "evaluate.undersample": (False, bool, None),
    "sweep.schemes": (["unigram/article"], [str], _SCHEME_ENTRIES),
    "sweep.representations": (["boolean"], [str], features.REPRESENTATIONS),
    "sweep.classifiers": (["svm"], [str], learn.CLASSIFIERS),
    "interpret.k": (20, int, lambda v: v >= 1),
    "interpret.kwic_window": (interpret.DEFAULT_KWIC_WINDOW, int, lambda v: v >= 1),
    "interpret.masked": (False, bool, None),
    "interpret.group": (_UNSET, str, corpus.GENDERS),
    "interpret.cooccur": (_UNSET, bool, None),
    "synth.n": (200, int, lambda v: v >= 2),
    "synth.balance": (0.5, float, lambda v: 0 <= v <= 1),
    "synth.planted": ([], [str | dict], _parse_planted),
    "synth.per_gender": (3, int, lambda v: 1 <= v <= synth.MAX_PER_GENDER),
}
_SECTIONS = {key.partition(".")[0] for key in SCHEMA if "." in key}


def _set(config: dict, key: str, value) -> None:
    """Store value under the dotted key, after checking it against the table."""
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    _, kind, allowed = SCHEMA[key]
    kind, items = (kind[0], value) if isinstance(kind, list) else (kind, [value])
    if type(items) is not list:
        raise ConfigError(f"{key} must be a list, got {value!r}")
    for item in items:
        if not isinstance(item, int | float if kind is float else kind) or (
                isinstance(item, bool) and kind is not bool):
            raise ConfigError(f"{key} must be of type {getattr(kind, '__name__', kind)}, got {item!r}")
        try:
            ok = allowed is None or item is None or (item in allowed if isinstance(allowed, tuple) else allowed(item))
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from None
        if not ok:
            raise ConfigError(f"{key} does not take the value {item!r}")
    section, _, name = key.rpartition(".")
    (config.setdefault(section, {}) if section else config)[name] = value


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """The table's defaults overlaid with the config file, then with the
    overrides (keyed like the table); every key is checked against the table."""
    user = {}
    if path is not None:
        try:
            user = json.loads(read_text(path, "config file", ConfigError))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc.msg}") from None
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
    given = {key: copy.deepcopy(default) for key, (default, _, _) in SCHEMA.items() if default is not _UNSET}
    for key, value in user.items():
        if key in _SECTIONS and type(value) is dict:
            given.update((f"{key}.{name}", item) for name, item in value.items())
        elif key in _SECTIONS or "." in key:
            raise ConfigError(f"config section {key!r} must be an object, got {value!r}" if key in _SECTIONS
                              else f"unknown config key {key!r}")
        else:
            given[key] = value
    config: dict = {}
    for key, value in [*given.items(), *(overrides or {}).items()]:
        _set(config, key, value)
    start, end = (config["pipeline"][key] for key in ("date_from", "date_to"))
    if start and end and datetime.date.fromisoformat(start) >= datetime.date.fromisoformat(end):
        raise ConfigError(f"pipeline.date_from {start} must precede pipeline.date_to {end}")
    return config


DEFAULT_CONFIG = load_config(None)


def config_hash(config: dict) -> str:
    """Hash of the effective config, excluding the output directory."""
    hashable = {k: v for k, v in config.items() if k != "out"}
    canonical = json.dumps(hashable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _require_path(config: dict, key: str) -> Path:
    value = config["paths"][key]
    if not value:
        raise ConfigError(f"config paths.{key} is required for this command")
    p = Path(value)
    if not p.exists():
        raise ConfigError(f"paths.{key} does not exist: {p}")
    return p


class _Run:
    """Collects output files and writes the manifest at the end."""

    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = config
        self.out_dir = Path(config["out"])
        # the directory is made at the first write, so a run that fails before it leaves none behind
        found = next(path for path in (self.out_dir, *self.out_dir.parents) if path.exists())
        if not found.is_dir():
            raise ConfigError(f"out {self.out_dir} cannot be a directory: {found} is not one")
        self.outputs: list[str] = []

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        p.parent.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return p

    def write_json(self, name: str, payload) -> Path:
        p = self.path(name)
        p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return p

    def write_manifest(self, searched: dict[str, str] | None = None) -> None:
        # the embedded config (sans output directory) makes the manifest
        # sufficient to re-execute the run
        manifest = {
            "command": self.command,
            "config": {k: v for k, v in self.config.items() if k != "out"},
            "config_sha256": config_hash(self.config),
            "seed": self.config["seed"],
            "version": __version__,
            "outputs": sorted(self.outputs),
        }
        if searched:
            manifest["searched"] = searched
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _open_csv(path: Path):
    fh = path.open("w", encoding="utf-8", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def _load_corpus(config: dict):
    articles = corpus.load_articles(_require_path(config, "articles"))
    registry = corpus.load_registry(_require_path(config, "registry"))
    return articles, registry


def _pipeline_options(config: dict) -> dict:
    pconf = config["pipeline"]
    signals = preprocess.DEFAULT_GENDERED_SIGNALS
    if config["paths"]["signals"]:
        signals = preprocess.load_wordlist(_require_path(config, "signals"))
    stoplist = None
    if pconf["remove_stopwords"]:
        stoplist = preprocess.load_wordlist(_require_path(config, "stoplist"))
    return {
        "signals": signals,
        "stoplist": stoplist,
        "apply_stem": pconf["stem"],
        "date_from": pconf["date_from"] and datetime.date.fromisoformat(pconf["date_from"]),
        "date_to": pconf["date_to"] and datetime.date.fromisoformat(pconf["date_to"]),
    }


def _load_resources(config: dict, schemes: set[str]):
    """The configured lexicon and POS lexicon; with stemming on, those the
    schemes read are stemmed, as the tokens they look up are."""
    lexicon = None
    merged: dict[str, set[str]] = {}
    for path in config["paths"]["lexicons"]:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"lexicon file does not exist: {p}")
        lex = features.load_lexicon(p)
        for cat, words in lex.categories.items():
            merged.setdefault(cat, set()).update(words)
    if merged:
        lexicon = features.LexiconSet(
            name="config", categories={c: frozenset(w) for c, w in merged.items()}
        )
    pos_lexicon = None
    if config["paths"]["pos_lexicon"]:
        pos_lexicon = features.load_pos_lexicon(_require_path(config, "pos_lexicon"))
    if config["pipeline"]["stem"]:
        if lexicon and features.LEXICON_CATEGORY in schemes:
            lexicon = lexicon.stemmed()
        if pos_lexicon and schemes & {features.ADJECTIVE, features.VERB}:
            pos_lexicon = pos_lexicon.stemmed()
    return lexicon, pos_lexicon


def _prepare(config: dict, query: bool = False):
    """Articles, registry, pipeline options and the corpus pass over the articles in the
    configured date window. label, sweep and rank classify the masked pass, which must hold
    an instance; with query, kwic and stats read the pass interpret.masked asks for. A caller
    keeps only what it reads, so the articles are freed once the pass is built."""
    articles, registry = _load_corpus(config)
    opts = _pipeline_options(config)
    if query:
        return articles, registry, opts, pipeline.build_doc_views(
            articles, registry, masked=config["interpret"]["masked"], **opts)
    instances = pipeline.build_instances(articles, registry, **opts)
    if not instances:
        raise DataError("no articles matched any registry politician")
    return articles, registry, opts, instances


def cmd_ingest(config: dict) -> int:
    run = _Run("ingest", config)
    articles, registry = _load_corpus(config)
    summary = {
        "n_articles": len(articles),
        "n_politicians": len(registry),
        "n_female_politicians": sum(1 for r in registry if r.gender == corpus.FEMALE),
        "n_male_politicians": sum(1 for r in registry if r.gender == corpus.MALE),
        "date_min": min(a.date for a in articles).isoformat() if articles else None,
        "date_max": max(a.date for a in articles).isoformat() if articles else None,
        "sources": sorted({a.source for a in articles}),
        "sections": sorted({a.section for a in articles if a.section}),
    }
    run.write_json("ingest_summary.json", summary)
    run.write_manifest()
    print(f"ingested {summary['n_articles']} articles, {summary['n_politicians']} politicians")
    return 0


def cmd_label(config: dict) -> int:
    run = _Run("label", config)
    articles, _, _, instances = _prepare(config)
    # every instance's text is its article's: count tokens and sentences per article
    stream = instances.stream
    n_tokens = np.diff(stream.bounds).tolist()
    n_sentences = np.diff(np.searchsorted(stream.ends, stream.bounds, side="right")).tolist()
    with run.path("instances.jsonl").open("w", encoding="utf-8") as fh:
        for a, label, politician_ids, headline_mention in zip(
                instances.article.tolist(), instances.y.tolist(), instances.politician_ids,
                instances.headline_mention.tolist()):
            record = {"article_id": instances.article_ids[a], "label": corpus.GENDERS[label],
                      "politician_ids": list(politician_ids), "headline_mention": headline_mention,
                      "n_tokens": n_tokens[a], "n_sentences": n_sentences[a]}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    n_matched = len(set(instances.article.tolist()))
    n_male = int(instances.y.sum())
    summary = {
        "n_articles": len(articles),
        "n_articles_matched": n_matched,
        "n_articles_unmatched": len(articles) - n_matched,
        "n_articles_both_genders": len(instances) - n_matched,
        "n_instances": len(instances),
        "n_female_instances": len(instances) - n_male,
        "n_male_instances": n_male,
    }
    run.write_json("label_summary.json", summary)
    run.write_manifest()
    print(
        f"labeled {summary['n_instances']} instances "
        f"({summary['n_female_instances']} female / {summary['n_male_instances']} male)"
    )
    return 0


def _check_scheme(config: dict, scheme: str) -> None:
    """Reject a scheme whose resource the config does not name."""
    path = {features.ADJECTIVE: "pos_lexicon", features.VERB: "pos_lexicon",
            features.LEXICON_CATEGORY: "lexicons"}.get(scheme)
    if path and not config["paths"][path]:
        raise ConfigError(f"scheme {scheme} needs paths.{path}")


def _sweep_combinations(config: dict) -> list[tuple[str, str, str, str]]:
    """Every (scheme, window, representation, classifier) of the sweep, all checked before any runs."""
    combinations = []
    for entry, representation, classifier in itertools.product(
            *(config["sweep"][key] for key in ("schemes", "representations", "classifiers"))):
        scheme, _, window = entry.partition("/")
        combination = (scheme, window or "article", representation, classifier)
        _check_scheme(config, scheme)
        if representation not in learn.ACCEPTS[classifier]:
            raise ConfigError(f"sweep combination {'/'.join(combination)}: {classifier} "
                              f"takes only {' or '.join(learn.ACCEPTS[classifier])} vectors")
        if combination in combinations:
            raise ConfigError(f"sweep combination {'/'.join(combination)} is named more than once")
        combinations.append(combination)
    return combinations


def cmd_sweep(config: dict) -> int:
    combinations = _sweep_combinations(config)
    run = _Run("sweep", config)
    lexicon, pos_lexicon = _load_resources(config, {c[0] for c in combinations})
    instances = _prepare(config)[-1]
    seed = config["seed"]
    k = config["evaluate"]["k"]
    min_df = config["features"]["min_df"]

    rows = []
    reports = []
    spaces: dict[tuple[str, str], features.FeatureSpace] = {}
    # combinations come grouped by dataset key: keep only the current key's
    # dataset, dropped before the next is built (a key that comes back is rebuilt)
    dataset_key, dataset = None, None
    for scheme, window, representation, classifier in combinations:
        descriptor = f"{scheme}/{window}/{representation}/{classifier}"
        try:
            key = (scheme, window, representation)
            if key != dataset_key:
                dataset = None
                dataset, space = pipeline.build_dataset(
                    instances,
                    scheme=scheme,
                    window=window,
                    representation=representation,
                    min_df=min_df,
                    pos_lexicon=pos_lexicon,
                    lexicon=lexicon,
                    space=spaces.get((scheme, window)),
                )
                spaces[(scheme, window)] = space
                dataset_key = key
            report = learn.cross_validate(
                dataset,
                classifier,
                params=config["classifier"],
                k=k,
                seed=seed,
                undersample_train=config["evaluate"]["undersample"],
                descriptor=descriptor,
            )
        except NewsbiasError as exc:
            raise type(exc)(f"sweep combination {descriptor}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"sweep combination {descriptor}: {exc}") from exc
        rows.append(
            {
                "descriptor": descriptor,
                "scheme": scheme,
                "window": window,
                "representation": representation,
                "classifier": classifier,
                "n_instances": len(dataset),
                "n_features": len(dataset.space),
                "majority_baseline": learn.majority_baseline(dataset),
                "mean_accuracy": report.mean_accuracy,
            }
        )
        reports.append(report)

    rows.sort(key=lambda r: r["descriptor"])
    reports.sort(key=lambda r: r.descriptor)
    fh, writer = _open_csv(run.path("sweep_summary.csv"))
    with fh:
        writer.writerow(
            [
                "descriptor", "scheme", "window", "representation", "classifier",
                "n_instances", "n_features", "majority_baseline", "mean_accuracy",
            ]
        )
        for row in rows:
            writer.writerow(
                [
                    row["descriptor"], row["scheme"], row["window"],
                    row["representation"], row["classifier"],
                    row["n_instances"], row["n_features"],
                    f"{row['majority_baseline']:.6f}", f"{row['mean_accuracy']:.6f}",
                ]
            )
    run.write_json("sweep_summary.json", rows)
    for report in reports:
        slug = report.descriptor.replace("/", "_")
        run.write_json(f"reports/{slug}.json", report.to_dict())
    run.write_manifest()
    for row in rows:
        print(f"{row['descriptor']}: {row['mean_accuracy']:.4f} (baseline {row['majority_baseline']:.4f})")
    return 0


def cmd_rank(config: dict) -> int:
    fconf = config["features"]
    _check_scheme(config, fconf["scheme"])
    run = _Run("rank", config)
    lexicon, pos_lexicon = _load_resources(config, {fconf["scheme"]})
    instances = _prepare(config)[-1]
    dataset, space = pipeline.build_dataset(
        instances,
        scheme=fconf["scheme"],
        window=fconf["window"],
        representation=fconf["representation"],
        min_df=fconf["min_df"],
        pos_lexicon=pos_lexicon,
        lexicon=lexicon,
    )
    for label, n in dataset.class_counts().items():
        if not n:
            raise DataError(f"rank needs instances of both classes, and class {label!r} has none")
    if config["evaluate"]["undersample"]:
        dataset = learn.undersample(dataset, config["seed"])
    model = learn.train_svm(dataset, lam=config["classifier"]["lam"], epochs=config["classifier"]["epochs"])
    k = config["interpret"]["k"]
    ranked = interpret.rank_features(model, space, k)
    payload = {
        "k": k,
        "descriptor": f"{fconf['scheme']}/{fconf['window']}/{fconf['representation']}/svm",
        "female": [{"surface": s, "kind": kd, "weight": w} for s, kd, w in ranked.female],
        "male": [{"surface": s, "kind": kd, "weight": w} for s, kd, w in ranked.male],
        "fit": {"iterations": model.iterations, "gap": model.gap},
    }
    run.write_json("ranked_features.json", payload)
    fh, writer = _open_csv(run.path("ranked_features.csv"))
    with fh:
        writer.writerow(["class", "rank", "surface", "kind", "weight"])
        for label, entries in (("female", ranked.female), ("male", ranked.male)):
            for pos, (surface, kind, weight) in enumerate(entries, start=1):
                writer.writerow([label, pos, surface, kind, f"{weight:.9f}"])
    run.write_manifest()
    print(f"ranked {len(ranked.female)} female / {len(ranked.male)} male features")
    return 0


def _stemmed(terms: list[str], stem: bool) -> dict[str, str]:
    """Each query the stemmer changes, mapped to the stem searched in its place."""
    forms = {term: interpret.normalize_query(term, stem=True) for term in terms if stem}
    return {term: form for term, form in forms.items() if form != interpret.normalize_query(term)}


def cmd_kwic(config: dict, term: str, tag: str) -> int:
    run = _Run("kwic", config)
    instances = _prepare(config, query=True)[-1]
    # a masked pass under pipeline.stem holds stems, and so the query is stemmed
    stem = config["interpret"]["masked"] and config["pipeline"]["stem"]
    lines = interpret.kwic(
        instances,
        term,
        window=config["interpret"]["kwic_window"],
        group=config["interpret"].get("group"),
        require_cooccurrence=config["interpret"].get("cooccur", False),
        stem=stem,
    )
    fh, writer = _open_csv(run.path("kwic.csv"))
    with fh:
        writer.writerow(["article_id", "position", "left", "keyword", "right", "tag"])
        for line in lines:
            writer.writerow(
                [
                    line.article_id, line.position,
                    " ".join(line.left), line.keyword, " ".join(line.right), tag,
                ]
            )
    run.write_manifest(_stemmed([term], stem))
    print(f"{len(lines)} concordance lines for {term!r}")
    return 0


def cmd_stats(config: dict, terms: list[str], groups: list[str], portfolio: str | None) -> int:
    unknown = [group for group in groups if group not in corpus.GENDERS]
    if unknown or not groups:
        raise ConfigError(f"unknown group {unknown[0]!r}" if unknown else "--groups names no group")
    if len(set(groups)) < len(groups):
        raise ConfigError(f"--groups names a group twice: {','.join(groups)}")
    if len({interpret.normalize_query(term) for term in terms}) < len(terms):
        raise ConfigError(f"--term names a query twice: {','.join(terms)}")
    run = _Run("stats", config)
    registry, opts, instances = _prepare(config, query=True)[1:]
    stem = config["interpret"]["masked"] and config["pipeline"]["stem"]
    # years in office cover the counted dates: an unset side takes the registry's bound
    registry_from, registry_to = corpus.registry_window(registry)
    window = (opts["date_from"] or registry_from, opts["date_to"] or registry_to)
    if window[0] >= window[1]:
        # a window with both sides set runs forwards, so the one side set lies past the registry's terms
        key = "date_from" if opts["date_from"] else "date_to"
        raise DataError(f"pipeline.{key} {opts[key]} leaves no years in office: the registry's terms run from "
                        f"{registry_from} to {registry_to}")
    stats = []
    for term in terms:
        for group in groups:
            count = interpret.term_count(instances, term, group, stem=stem)
            years = corpus.total_years(registry, group, window, portfolio)
            if years <= 0:
                raise DataError(f"group {group!r} has zero years in office in the window")
            stats.append(interpret.RateStat(term=term, group=group, count=count, years=years))
    fh, writer = _open_csv(run.path("stats.csv"))
    with fh:
        writer.writerow(["term", "group", "count", "years", "rate"])
        for st in stats:
            writer.writerow([st.term, st.group, st.count, f"{st.years:.6f}", f"{st.rate:.6f}"])
    run.write_manifest(_stemmed(terms, stem))
    for st in stats:
        print(f"{st.term}/{st.group}: {st.count} mentions over {st.years:.2f} years = {st.rate:.3f}/year")
    return 0


def cmd_gen_synth(config: dict) -> int:
    run = _Run("gen-synth", config)
    sconf = config["synth"]
    articles, registry = synth.generate_corpus(
        sconf["n"],
        balance=sconf["balance"],
        planted=tuple(_parse_planted(p) for p in sconf["planted"]),
        seed=config["seed"],
        per_gender=sconf["per_gender"],
    )
    corpus.save_articles(articles, run.path("articles.jsonl"))
    corpus.save_registry(registry, run.path("registry.json"))
    run.write_manifest()
    print(f"generated {len(articles)} articles featuring {len(registry)} politicians")
    return 0


def _query(term: str) -> str:
    """A query term, checked before any work: one token or a marker surface."""
    try:
        interpret.normalize_query(term)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return term


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsbias",
        description="Audit gender balance in news coverage of politicians.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", help="override output directory")
        return p

    common(sub.add_parser("ingest", help="load and summarize articles and registry"))
    common(sub.add_parser("label", help="produce labeled instances"))
    common(sub.add_parser("sweep", help="cross-validated accuracy over scheme/representation/classifier grid"))

    rank = common(sub.add_parser("rank", help="rank discriminative features of the linear model"))
    rank.add_argument("--k", dest="interpret.k", type=int, help="features per class (default from config)")

    kwic = common(sub.add_parser("kwic", help="keyword-in-context concordance"))
    kwic.add_argument("term", type=_query, help="single-token query")
    kwic.add_argument("--window", dest="interpret.kwic_window", type=int, help="context tokens per side")
    kwic.add_argument("--group", dest="interpret.group", choices=list(corpus.GENDERS),
                      help="restrict to one instance group")
    kwic.add_argument("--cooccur", dest="interpret.cooccur", action="store_true", default=None,
                      help="only sentences mentioning a politician")
    kwic.add_argument("--masked", dest="interpret.masked", action="store_true", default=None,
                      help="query the masked stream instead of raw text")
    kwic.add_argument("--tag", default="", help="pass-through tag column for qualitative grouping")

    stats = common(sub.add_parser("stats", help="mention counts and per-year rates"))
    stats.add_argument("--term", type=_query, action="append", required=True, help="query term (repeatable)")
    stats.add_argument("--groups", default="female,male", help="comma-separated groups")
    stats.add_argument("--portfolio", help="restrict years in office to one portfolio")
    stats.add_argument("--masked", dest="interpret.masked", action="store_true", default=None,
                       help="count over masked streams")

    gen = common(sub.add_parser("gen-synth", help="generate a synthetic labeled corpus"))
    gen.add_argument("--n", dest="synth.n", type=int, help="number of articles")
    gen.add_argument("--balance", dest="synth.balance", type=float, help="fraction of female-featuring articles")
    gen.add_argument("--planted", dest="synth.planted", action="append", help="TERM:P_FEMALE:P_MALE (repeatable)")
    gen.add_argument("--per-gender", dest="synth.per_gender", type=int, help="politicians per gender")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; usage problems are exit code 1 here
        return 0 if exc.code == 0 else 1
    try:
        # each flag's dest is the config key it overrides; an absent flag is None
        overrides = {key: value for key, value in vars(args).items() if key in SCHEMA and value is not None}
        config = load_config(args.config, overrides)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "label":
            return cmd_label(config)
        if args.command == "sweep":
            return cmd_sweep(config)
        if args.command == "rank":
            return cmd_rank(config)
        if args.command == "kwic":
            return cmd_kwic(config, args.term, args.tag)
        if args.command == "stats":
            groups = [g.strip() for g in args.groups.split(",") if g.strip()]
            return cmd_stats(config, args.term, groups, args.portfolio)
        return cmd_gen_synth(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # InvariantError and anything unexpected
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
