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
import json
import sys
from pathlib import Path

from . import __version__, corpus, features, interpret, learn, pipeline, preprocess, synth
from .errors import ConfigError, DataError, NewsbiasError

DEFAULT_CONFIG = {
    "seed": 0,
    "out": "out",
    "paths": {
        "articles": None,
        "registry": None,
        "stoplist": None,
        "signals": None,
        "lexicons": [],
        "pos_lexicon": None,
    },
    "pipeline": {
        "remove_stopwords": False,
        "stem": False,
        "date_from": None,
        "date_to": None,
    },
    "features": {
        "scheme": "unigram",
        "window": "article",
        "representation": "boolean",
        "min_df": features.DEFAULT_MIN_DF,
    },
    "classifier": {
        "name": "svm",
        "lam": learn.DEFAULT_SVM_LAMBDA,
        "epochs": learn.DEFAULT_SVM_EPOCHS,
        "alpha": learn.DEFAULT_NB_ALPHA,
        "max_depth": learn.DEFAULT_TREE_MAX_DEPTH,
        "min_leaf": learn.DEFAULT_TREE_MIN_LEAF,
    },
    "evaluate": {"k": 10, "undersample": False},
    "sweep": {
        "schemes": ["unigram/article"],
        "representations": ["boolean"],
        "classifiers": ["svm"],
    },
    "interpret": {"k": 20, "kwic_window": interpret.DEFAULT_KWIC_WINDOW, "masked": False},
    "synth": {"n": 200, "balance": 0.5, "planted": [], "per_gender": 3},
}


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        user = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc.msg}") from None
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    # a copy: overrides are written into the result, never into the defaults
    return _deep_merge(copy.deepcopy(DEFAULT_CONFIG), user)


def validate_config(config: dict) -> None:
    seed = config.get("seed")
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed!r}")


def config_hash(config: dict) -> str:
    """Hash of the effective config, excluding the output directory."""
    hashable = {k: v for k, v in config.items() if k != "out"}
    canonical = json.dumps(hashable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _parse_config_date(value, key: str) -> datetime.date | None:
    if value is None:
        return None
    try:
        return datetime.date.fromisoformat(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an ISO date, got {value!r}") from None


def _require_path(config: dict, key: str) -> Path:
    value = config["paths"].get(key)
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
        self.out_dir.mkdir(parents=True, exist_ok=True)
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

    def write_manifest(self) -> None:
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
    if config["paths"].get("signals"):
        signals = preprocess.load_wordlist(_require_path(config, "signals"))
    stoplist = None
    if pconf.get("remove_stopwords"):
        stoplist = preprocess.load_wordlist(_require_path(config, "stoplist"))
    return {
        "signals": signals,
        "stoplist": stoplist,
        "apply_stem": bool(pconf.get("stem")),
        "date_from": _parse_config_date(pconf.get("date_from"), "pipeline.date_from"),
        "date_to": _parse_config_date(pconf.get("date_to"), "pipeline.date_to"),
    }


def _load_resources(config: dict):
    lexicon = None
    paths = config["paths"].get("lexicons") or []
    merged: dict[str, set[str]] = {}
    for path in paths:
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
    if config["paths"].get("pos_lexicon"):
        pos_lexicon = features.load_pos_lexicon(_require_path(config, "pos_lexicon"))
    return lexicon, pos_lexicon


def _build_instances(config: dict):
    articles, registry = _load_corpus(config)
    opts = _pipeline_options(config)
    instances = pipeline.build_instances(articles, registry, **opts)
    if not instances:
        raise DataError("no articles matched any registry politician")
    return articles, registry, instances


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
    articles, registry, instances = _build_instances(config)
    with run.path("instances.jsonl").open("w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(
                json.dumps(
                    {
                        "article_id": inst.article_id,
                        "label": inst.label,
                        "politician_ids": list(inst.politician_ids),
                        "headline_mention": inst.headline_mention,
                        "n_tokens": len(inst.stream),
                        "n_sentences": len(inst.stream.sentence_spans),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    matched = {inst.article_id for inst in instances}
    both = len(instances) - len(matched)
    summary = {
        "n_articles": len(articles),
        "n_articles_matched": len(matched),
        "n_articles_unmatched": len(articles) - len(matched),
        "n_articles_both_genders": both,
        "n_instances": len(instances),
        "n_female_instances": sum(1 for i in instances if i.label == corpus.FEMALE),
        "n_male_instances": sum(1 for i in instances if i.label == corpus.MALE),
    }
    run.write_json("label_summary.json", summary)
    run.write_manifest()
    print(
        f"labeled {summary['n_instances']} instances "
        f"({summary['n_female_instances']} female / {summary['n_male_instances']} male)"
    )
    return 0


def _sweep_combinations(config: dict):
    sweep = config["sweep"]
    for scheme_entry in sweep["schemes"]:
        scheme, _, window = str(scheme_entry).partition("/")
        window = window or "article"
        for representation in sweep["representations"]:
            for classifier in sweep["classifiers"]:
                yield scheme, window, representation, classifier


def _classifier_params(config: dict, classifier: str) -> dict:
    conf = config["classifier"]
    if classifier == "svm":
        return {"lam": conf["lam"], "epochs": conf["epochs"]}
    if classifier.startswith("nb-"):
        return {"alpha": conf["alpha"]}
    if classifier == "tree":
        return {"max_depth": conf["max_depth"], "min_leaf": conf["min_leaf"]}
    raise ConfigError(f"unknown classifier {classifier!r}")


def cmd_sweep(config: dict) -> int:
    run = _Run("sweep", config)
    _, _, instances = _build_instances(config)
    lexicon, pos_lexicon = _load_resources(config)
    seed = config["seed"]
    k = config["evaluate"]["k"]
    min_df = config["features"]["min_df"]

    rows = []
    reports = []
    spaces: dict[tuple[str, str], features.FeatureSpace] = {}
    # combinations come grouped by dataset key: keep only the current key's
    # dataset, dropped before the next is built (a key that comes back is rebuilt)
    dataset_key, dataset = None, None
    for scheme, window, representation, classifier in _sweep_combinations(config):
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
                params=_classifier_params(config, classifier),
                k=k,
                seed=seed,
                undersample_train=bool(config["evaluate"]["undersample"]),
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
    run = _Run("rank", config)
    _, _, instances = _build_instances(config)
    lexicon, pos_lexicon = _load_resources(config)
    fconf = config["features"]
    dataset, space = pipeline.build_dataset(
        instances,
        scheme=fconf["scheme"],
        window=fconf["window"],
        representation=fconf["representation"],
        min_df=fconf["min_df"],
        pos_lexicon=pos_lexicon,
        lexicon=lexicon,
    )
    seed = config["seed"]
    if config["evaluate"]["undersample"]:
        dataset = learn.undersample(dataset, seed)
    model = learn.train_svm(
        dataset,
        lam=config["classifier"]["lam"],
        epochs=config["classifier"]["epochs"],
        seed=seed,
    )
    k = config["interpret"]["k"]
    ranked = interpret.rank_features(model, space, k)
    payload = {
        "k": k,
        "descriptor": f"{fconf['scheme']}/{fconf['window']}/{fconf['representation']}/svm",
        "female": [{"surface": s, "kind": kd, "weight": w} for s, kd, w in ranked.female],
        "male": [{"surface": s, "kind": kd, "weight": w} for s, kd, w in ranked.male],
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


def _build_views(config: dict):
    """Registry, the configured date window, and query views of the articles inside it."""
    articles, registry = _load_corpus(config)
    opts = _pipeline_options(config)
    window = (opts.pop("date_from"), opts.pop("date_to"))
    views = pipeline.build_doc_views(
        pipeline.filter_by_date(articles, *window),
        registry,
        masked=bool(config["interpret"]["masked"]),
        **opts,
    )
    return registry, window, views


def cmd_kwic(config: dict, term: str, tag: str) -> int:
    run = _Run("kwic", config)
    _, _, views = _build_views(config)
    try:
        lines = interpret.kwic(
            views,
            term,
            window=config["interpret"]["kwic_window"],
            group=config["interpret"].get("group"),
            require_cooccurrence=bool(config["interpret"].get("cooccur")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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
    run.write_manifest()
    print(f"{len(lines)} concordance lines for {term!r}")
    return 0


def cmd_stats(config: dict, terms: list[str], groups: list[str], portfolio: str | None) -> int:
    run = _Run("stats", config)
    if not terms:
        raise ConfigError("stats needs at least one --term")
    for group in groups:
        if group not in corpus.GENDERS:
            raise ConfigError(f"unknown group {group!r}")
    registry, (date_from, date_to), views = _build_views(config)
    # years in office cover the counted dates: an unset side takes the registry's bound
    registry_from, registry_to = corpus.registry_window(registry)
    window = (date_from or registry_from, date_to or registry_to)
    stats = []
    for term in terms:
        for group in groups:
            try:
                count = interpret.term_count(views, term, group)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            years = corpus.total_years(registry, group, window, portfolio)
            if years <= 0:
                raise DataError(f"group {group!r} has zero years in office in the window")
            stats.append(interpret.RateStat(term=term, group=group, count=count, years=years))
    fh, writer = _open_csv(run.path("stats.csv"))
    with fh:
        writer.writerow(["term", "group", "count", "years", "rate"])
        for st in stats:
            writer.writerow([st.term, st.group, st.count, f"{st.years:.6f}", f"{st.rate:.6f}"])
    run.write_manifest()
    for st in stats:
        print(f"{st.term}/{st.group}: {st.count} mentions over {st.years:.2f} years = {st.rate:.3f}/year")
    return 0


def _parse_planted(raw) -> synth.PlantedTerm:
    if isinstance(raw, dict):
        try:
            return synth.PlantedTerm(
                term=str(raw["term"]),
                p_female=float(raw["p_female"]),
                p_male=float(raw["p_male"]),
            )
        except KeyError as exc:
            raise ConfigError(f"planted term missing key {exc}") from None
    parts = str(raw).split(":")
    if len(parts) != 3:
        raise ConfigError(f"planted term must be TERM:P_FEMALE:P_MALE, got {raw!r}")
    try:
        return synth.PlantedTerm(term=parts[0], p_female=float(parts[1]), p_male=float(parts[2]))
    except ValueError:
        raise ConfigError(f"bad planted probabilities in {raw!r}") from None


def cmd_gen_synth(config: dict) -> int:
    run = _Run("gen-synth", config)
    sconf = config["synth"]
    planted = tuple(_parse_planted(p) for p in sconf.get("planted", []))
    articles, registry = synth.generate_corpus(
        int(sconf["n"]),
        balance=float(sconf["balance"]),
        planted=planted,
        seed=config["seed"],
        per_gender=int(sconf.get("per_gender", 3)),
    )
    corpus.save_articles(articles, run.path("articles.jsonl"))
    corpus.save_registry(registry, run.path("registry.json"))
    run.write_manifest()
    print(f"generated {len(articles)} articles featuring {len(registry)} politicians")
    return 0


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
    rank.add_argument("--k", type=int, help="features per class (default from config)")

    kwic = common(sub.add_parser("kwic", help="keyword-in-context concordance"))
    kwic.add_argument("term", help="single-token query")
    kwic.add_argument("--window", type=int, help="context tokens per side")
    kwic.add_argument("--group", choices=list(corpus.GENDERS), help="restrict to one instance group")
    kwic.add_argument("--cooccur", action="store_true", help="only sentences mentioning a politician")
    kwic.add_argument("--masked", action="store_true", help="query the masked stream instead of raw text")
    kwic.add_argument("--tag", default="", help="pass-through tag column for qualitative grouping")

    stats = common(sub.add_parser("stats", help="mention counts and per-year rates"))
    stats.add_argument("--term", action="append", default=[], help="query term (repeatable)")
    stats.add_argument("--groups", default="female,male", help="comma-separated groups")
    stats.add_argument("--portfolio", help="restrict years in office to one portfolio")
    stats.add_argument("--masked", action="store_true", help="count over masked streams")

    gen = common(sub.add_parser("gen-synth", help="generate a synthetic labeled corpus"))
    gen.add_argument("--n", type=int, help="number of articles")
    gen.add_argument("--balance", type=float, help="fraction of female-featuring articles")
    gen.add_argument("--planted", action="append", default=[], help="TERM:P_FEMALE:P_MALE (repeatable)")
    gen.add_argument("--per-gender", type=int, help="politicians per gender")

    return parser


def _apply_overrides(config: dict, args: argparse.Namespace) -> dict:
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["out"] = args.out
    command = args.command
    if command == "rank" and args.k is not None:
        config["interpret"]["k"] = args.k
    if command == "kwic":
        if args.window is not None:
            config["interpret"]["kwic_window"] = args.window
        if args.group:
            config["interpret"]["group"] = args.group
        if args.cooccur:
            config["interpret"]["cooccur"] = True
        if args.masked:
            config["interpret"]["masked"] = True
    if command == "stats" and args.masked:
        config["interpret"]["masked"] = True
    if command == "gen-synth":
        if args.n is not None:
            config["synth"]["n"] = args.n
        if args.balance is not None:
            config["synth"]["balance"] = args.balance
        if args.planted:
            config["synth"]["planted"] = list(args.planted)
        if args.per_gender is not None:
            config["synth"]["per_gender"] = args.per_gender
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; usage problems are exit code 1 here
        return 0 if exc.code == 0 else 1
    try:
        config = load_config(args.config)
        config = _apply_overrides(config, args)
        validate_config(config)
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
        if args.command == "gen-synth":
            return cmd_gen_synth(config)
        raise ConfigError(f"unknown command {args.command!r}")
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
