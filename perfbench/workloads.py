"""The benchmark's workloads: the commands each runs and the checks on their outputs.

Every check compares an output with the generator's ground truth or
with a property the method must have; none compares with a stored copy
of an earlier output. A check returns a list of error strings, empty
when the output is right.
"""

from __future__ import annotations

import csv
import datetime
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen

MIN_DF = 3
K_FOLDS = 10
SVM_LAMBDA = 1e-4
KWIC_WINDOW = 8
# the program's documented gender-signal list, which masking deletes
SIGNALS = frozenset(
    "he him his himself she her hers herself mr mrs ms miss madam sir "
    "spokesman spokeswoman chairman chairwoman".split()
)
# hinge objective of the all-zero model (w = 0, b = 0)
ZERO_MODEL_OBJECTIVE = 1.0
SVM_PROPERTY = "objective above the zero model's"


@dataclass
class Command:
    """One CLI invocation: argv after the program name, minus --config/--out."""

    name: str
    argv: list[str]
    config: dict
    # the config the manifest must record: the file's, plus the flags' overrides
    manifest_config: dict
    check: Callable[["Command", Path, dict], list[str]]


@dataclass
class Workload:
    commands: Callable[[dict[str, str], int], list[Command]]
    expected: Callable[[gen.Truth], dict]


def full_config(paths: dict[str, str], seed: int, **sections) -> dict:
    """Every section of the config written out, so no default is left implicit."""
    config = {
        "seed": seed % 2**64,  # the program takes unsigned 64-bit seeds
        "paths": {"articles": paths["articles"], "registry": paths["registry"],
                  "stoplist": paths["stoplist"], "signals": None, "lexicons": [],
                  "pos_lexicon": None},
        "pipeline": {"remove_stopwords": False, "stem": False, "date_from": None, "date_to": None},
        "features": {"scheme": "unigram", "window": "article", "representation": "boolean",
                     "min_df": MIN_DF},
        "classifier": {"name": "svm", "lam": SVM_LAMBDA, "epochs": 20, "alpha": 1.0,
                       "max_depth": 10, "min_leaf": 2},
        "evaluate": {"k": K_FOLDS, "undersample": False},
        "sweep": {"schemes": ["unigram/article"], "representations": ["boolean"],
                  "classifiers": ["svm"]},
        "interpret": {"k": 20, "kwic_window": KWIC_WINDOW, "masked": False},
        "synth": {"n": 200, "balance": 0.5, "planted": [], "per_gender": 3},
    }
    for section, values in sections.items():
        config[section] = {**config[section], **values}
    return config


def with_interpret(config: dict, **values) -> dict:
    return {**config, "interpret": {**config["interpret"], **values}}


# ---------------------------------------------------------------- expected values

def expected_instances(truth: gen.Truth) -> dict:
    gender_of = {r["id"]: r["gender"] for r in truth.registry}
    instances = {}
    for aid, featured in truth.featured.items():
        for gender in ("female", "male"):
            ids = sorted(pid for pid in featured if gender_of[pid] == gender)
            if ids:
                instances[f"{aid}/{gender}"] = {
                    "politician_ids": ids,
                    "headline_mention": any(featured[pid] for pid in ids),
                }
    n_female = sum(1 for key in instances if key.endswith("/female"))
    n = len(instances)
    return {
        "n_articles": len(truth.planted),
        "n_articles_matched": len(truth.featured),
        "n_articles_both_genders": n - len(truth.featured),
        "n_instances": n,
        "n_female": n_female,
        "n_male": n - n_female,
        "majority_baseline": max(n_female, n - n_female) / n,
        "instances": instances,
    }


def expected_features(truth: gen.Truth, instances: dict) -> list[str]:
    """Unigram terms with document frequency >= MIN_DF over the instances."""
    df: Counter = Counter()
    for key in instances:
        df.update(truth.terms[key.split("/")[0]])
    return sorted(term for term, n in df.items() if n >= MIN_DF)


def expected_wide(truth: gen.Truth) -> dict:
    out = expected_instances(truth)
    out["features"] = expected_features(truth, out["instances"])
    out["n_features"] = len(out["features"])
    return out


def expected_audit(truth: gen.Truth) -> dict:
    out = expected_instances(truth)
    gender_of = {r["id"]: r["gender"] for r in truth.registry}
    groups = {aid: sorted({gender_of[p] for p in featured}) for aid, featured in truth.featured.items()}
    counts = {g: {gen.PLANTED: 0, "NAMEFORM_FULL": 0} for g in ("female", "male")}
    for aid, gs in groups.items():
        for g in gs:
            counts[g][gen.PLANTED] += truth.planted[aid]
            counts[g]["NAMEFORM_FULL"] += truth.markers[aid].get("NAMEFORM_FULL", 0)
    days = {"female": 0, "male": 0}
    for r in truth.registry:
        for t in r["terms"]:
            start, end = datetime.date.fromisoformat(t["start"]), datetime.date.fromisoformat(t["end"])
            days[r["gender"]] += (end - start).days
    out.update({
        "planted": {aid: n for aid, n in truth.planted.items() if n},
        "planted_cooccur_female": {
            aid: truth.planted_in_mention_sentences[aid]
            for aid, gs in groups.items()
            if "female" in gs and truth.planted_in_mention_sentences[aid]
        },
        "counts": counts,
        "years": {g: d / 365.25 for g, d in days.items()},
        "name_tokens": sorted({r[k].lower() for r in truth.registry for k in ("given_name", "surname")}),
    })
    return out


# ---------------------------------------------------------------- checks

def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def check_manifest(cmd: Command, out: Path) -> list[str]:
    manifest = _read_json(out / "manifest.json")
    errors = []
    if manifest.get("command") != cmd.argv[0]:
        errors.append(f"manifest command {manifest.get('command')!r}, ran {cmd.argv[0]!r}")
    if manifest.get("config") != cmd.manifest_config:
        errors.append("manifest config differs from the config the command was given")
    return errors


def check_sweep_rows(cmd: Command, out: Path, exp: dict, beat_baseline: Callable[[str], bool],
                     n_features: int | None = None) -> list[str]:
    errors = []
    rows = _read_json(out / "sweep_summary.json")
    sweep = cmd.config["sweep"]
    wanted = sorted(
        f"{s if '/' in s else s + '/article'}/{r}/{c}"
        for s in sweep["schemes"] for r in sweep["representations"] for c in sweep["classifiers"]
    )
    if [row["descriptor"] for row in rows] != wanted:
        return [f"sweep descriptors {[row['descriptor'] for row in rows]}, expected {wanted}"]
    for row in rows:
        d = row["descriptor"]
        if row["n_instances"] != exp["n_instances"]:
            errors.append(f"{d}: {row['n_instances']} instances, expected {exp['n_instances']}")
        if row["majority_baseline"] != exp["majority_baseline"]:
            errors.append(f"{d}: baseline {row['majority_baseline']}, expected {exp['majority_baseline']}")
        if n_features is not None and row["n_features"] != n_features:
            errors.append(f"{d}: {row['n_features']} features, expected {n_features}")
        if beat_baseline(d) and not row["mean_accuracy"] > exp["majority_baseline"]:
            errors.append(f"{d}: accuracy {row['mean_accuracy']} does not beat the baseline")
        report = _read_json(out / "reports" / (d.replace("/", "_") + ".json"))
        confusion = report["confusion"]
        for gender in ("female", "male"):
            if sum(confusion[gender].values()) != exp[f"n_{gender}"]:
                errors.append(f"{d}: {gender} row of the confusion matrix sums to "
                              f"{sum(confusion[gender].values())}, expected {exp[f'n_{gender}']}")
        if len(report["per_fold_accuracy"]) != cmd.config["evaluate"]["k"]:
            errors.append(f"{d}: {len(report['per_fold_accuracy'])} folds reported")
    return errors


def check_grid_sweep(cmd: Command, out: Path, exp: dict) -> list[str]:
    return check_sweep_rows(cmd, out, exp, beat_baseline=lambda d: True)


def check_wide_sweep(cmd: Command, out: Path, exp: dict) -> list[str]:
    return check_sweep_rows(cmd, out, exp, beat_baseline=lambda d: d.endswith("/tree"),
                            n_features=exp["n_features"])


def check_rank(cmd: Command, out: Path, exp: dict) -> list[str]:
    """Per class at most k indexed features, strongest first, on the right side of zero."""
    errors = []
    ranked = _read_json(out / "ranked_features.json")
    k = cmd.config["interpret"]["k"]
    vocabulary = set(exp["features"])
    for label, sign in (("female", 1.0), ("male", -1.0)):
        entries = ranked[label]
        weights = [sign * e["weight"] for e in entries]
        if not 0 < len(entries) <= k:
            errors.append(f"rank lists {len(entries)} {label} features, k is {k}")
        if any(w <= 0 for w in weights) or weights != sorted(weights, reverse=True):
            errors.append(f"rank {label} weights are not strongest-first on the {label} side of zero")
        unknown = [e["surface"] for e in entries
                   if e["kind"] != "unigram" or e["surface"] not in vocabulary]
        if unknown:
            errors.append(f"rank lists {label} features outside the vocabulary: {unknown[:3]}")
    rows = _read_csv(out / "ranked_features.csv")
    if len(rows) - 1 != len(ranked["female"]) + len(ranked["male"]):
        errors.append(f"ranked_features.csv has {len(rows) - 1} rows, the JSON lists "
                      f"{len(ranked['female']) + len(ranked['male'])}")
    return errors


def check_label(cmd: Command, out: Path, exp: dict) -> list[str]:
    errors = []
    got = {}
    with (out / "instances.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            got[f"{rec['article_id']}/{rec['label']}"] = {
                "politician_ids": rec["politician_ids"],
                "headline_mention": rec["headline_mention"],
            }
    want = exp["instances"]
    if got.keys() != want.keys():
        missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
        errors.append(f"instances differ: missing {missing[:3]}, unexpected {extra[:3]}")
    wrong = [k for k in want.keys() & got.keys() if got[k] != want[k]]
    if wrong:
        k = sorted(wrong)[0]
        errors.append(f"{len(wrong)} instances differ, first {k}: {got[k]} != {want[k]}")
    summary = _read_json(out / "label_summary.json")
    for key, value in (("n_articles", exp["n_articles"]),
                       ("n_articles_matched", exp["n_articles_matched"]),
                       ("n_articles_unmatched", exp["n_articles"] - exp["n_articles_matched"]),
                       ("n_articles_both_genders", exp["n_articles_both_genders"]),
                       ("n_instances", exp["n_instances"]),
                       ("n_female_instances", exp["n_female"]),
                       ("n_male_instances", exp["n_male"])):
        if summary.get(key) != value:
            errors.append(f"label summary {key} = {summary.get(key)}, expected {value}")
    return errors


def _kwic_rows(out: Path) -> tuple[list[str], list[list[str]]]:
    rows = _read_csv(out / "kwic.csv")
    return rows[0], rows[1:]


def _per_article(rows: list[list[str]]) -> dict[str, int]:
    return dict(Counter(row[0] for row in rows))


def check_kwic_raw(cmd: Command, out: Path, exp: dict) -> list[str]:
    errors = []
    header, rows = _kwic_rows(out)
    if header != ["article_id", "position", "left", "keyword", "right", "tag"]:
        errors.append(f"kwic header {header}")
    if _per_article(rows) != exp["planted"]:
        errors.append(f"raw kwic finds {len(rows)} lines, the generator planted "
                      f"{sum(exp['planted'].values())}")
    if any(row[3] != gen.PLANTED or row[5] != "spouse" for row in rows):
        errors.append("raw kwic line with a wrong keyword or tag")
    if [(r[0], int(r[1])) for r in rows] != sorted((r[0], int(r[1])) for r in rows):
        errors.append("raw kwic lines not ordered by article and position")
    return errors


def check_kwic_masked(cmd: Command, out: Path, exp: dict) -> list[str]:
    errors = []
    _, rows = _kwic_rows(out)
    if _per_article(rows) != exp["planted_cooccur_female"]:
        errors.append(f"masked co-occurrence kwic finds {len(rows)} lines, the generator planted "
                      f"{sum(exp['planted_cooccur_female'].values())} in mention sentences")
    forbidden = SIGNALS | set(exp["name_tokens"])
    for row in rows:
        left, right = row[2].split(), row[4].split()
        leaked = forbidden.intersection(left + right)
        if leaked:
            errors.append(f"masked context of {row[0]} shows {sorted(leaked)}")
            break
        if len(left) > KWIC_WINDOW or len(right) > KWIC_WINDOW:
            errors.append(f"masked context of {row[0]} is wider than {KWIC_WINDOW} tokens")
            break
    return errors


def _check_stats(out: Path, exp: dict, terms: list[str]) -> list[str]:
    errors = []
    rows = _read_csv(out / "stats.csv")
    if rows[0] != ["term", "group", "count", "years", "rate"]:
        errors.append(f"stats header {rows[0]}")
    got = {(r[0], r[1]): r[2:] for r in rows[1:]}
    want_keys = [(t, g) for t in terms for g in ("female", "male")]
    if sorted(got) != sorted(want_keys):
        return errors + [f"stats rows {sorted(got)}, expected {want_keys}"]
    for term, group in want_keys:
        count, years, rate = got[(term, group)]
        want_count = exp["counts"][group][term]
        want_years = exp["years"][group]
        if int(count) != want_count:
            errors.append(f"stats {term}/{group}: count {count}, the generator planted {want_count}")
        if abs(float(years) - want_years) > 1e-6:
            errors.append(f"stats {term}/{group}: {years} years, the registry sums to {want_years:.6f}")
        if abs(float(rate) - want_count / want_years) > 1e-6 * max(1.0, want_count / want_years):
            errors.append(f"stats {term}/{group}: rate {rate}, expected {want_count / want_years:.6f}")
    return errors


def check_stats_raw(cmd: Command, out: Path, exp: dict) -> list[str]:
    return _check_stats(out, exp, [gen.PLANTED])


def check_stats_masked(cmd: Command, out: Path, exp: dict) -> list[str]:
    return _check_stats(out, exp, [gen.PLANTED, "NAMEFORM_FULL"])


# ---------------------------------------------------------------- commands

def _command(name, argv, config, check, **overrides) -> Command:
    manifest = with_interpret(config, **overrides) if overrides else config
    return Command(name, argv, config, manifest, check)


def sweep_grid_commands(paths, seed):
    config = full_config(paths, seed, sweep={
        "schemes": ["unigram/article", "unigram/sentence"],
        "representations": ["boolean"],
        "classifiers": ["svm", "nb-bernoulli", "tree"],
    })
    return [_command("sweep", ["sweep"], config, check_grid_sweep)]


def audit_ground_commands(paths, seed):
    config = full_config(paths, seed, pipeline={"remove_stopwords": True, "stem": True})
    return [
        _command("label", ["label"], config, check_label),
        _command("kwic-raw", ["kwic", gen.PLANTED, "--tag", "spouse"], config, check_kwic_raw),
        _command("kwic-masked", ["kwic", gen.PLANTED, "--masked", "--group", "female", "--cooccur"],
                 config, check_kwic_masked, masked=True, group="female", cooccur=True),
        _command("stats-raw", ["stats", "--term", gen.PLANTED], config, check_stats_raw),
        _command("stats-masked", ["stats", "--term", gen.PLANTED, "--term", "NAMEFORM_FULL", "--masked"],
                 config, check_stats_masked, masked=True),
    ]


def wide_vocab_commands(paths, seed):
    boolean = full_config(paths, seed, sweep={
        "schemes": ["unigram/article"], "representations": ["boolean"],
        "classifiers": ["tree", "nb-bernoulli"],
    })
    count = full_config(paths, seed, sweep={
        "schemes": ["unigram/article"], "representations": ["count"],
        "classifiers": ["nb-multinomial"],
    })
    rank = full_config(paths, seed, features={"representation": "tfidf"})
    return [
        _command("sweep-boolean", ["sweep"], boolean, check_wide_sweep),
        _command("sweep-count", ["sweep"], count, check_wide_sweep),
        _command("rank", ["rank"], rank, check_rank),
    ]


WORKLOADS = {
    "sweep-grid": Workload(sweep_grid_commands, expected_instances),
    "audit-ground": Workload(audit_ground_commands, expected_audit),
    "wide-vocab": Workload(wide_vocab_commands, expected_wide),
}


# ---------------------------------------------------------------- classifier fits

def _rows_of(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def svm_objective(base: dict, rows: np.ndarray, weights: np.ndarray, bias: float, lam: float) -> float:
    """lam/2 ||w||^2 + mean hinge loss over the given rows, recomputed with numpy."""
    indptr, indices, data, labels = base["indptr"], base["indices"], base["data"], base["labels"]
    margins = np.bincount(_rows_of(indptr), weights=data * weights[indices],
                          minlength=len(labels)) + bias
    y = np.where(labels[rows] == 0, 1.0, -1.0)
    hinge = np.maximum(0.0, 1.0 - y * margins[rows])
    return 0.5 * lam * float(weights @ weights) + float(hinge.mean())


def nb_correct_range(base: dict, train: np.ndarray, test: np.ndarray, variant: str,
                     alpha: float, dim: int) -> tuple[int, int]:
    """Correct test predictions of a dense-numpy Naive Bayes fit on the train rows.

    Returns (lowest, highest) over predictions within rounding of a tie,
    which may go either way.
    """
    indptr, indices, data, labels = base["indptr"], base["indices"], base["data"], base["labels"]
    entry_rows = _rows_of(indptr)
    in_train = np.zeros(len(labels), dtype=bool)
    in_train[train] = True
    sel = in_train[entry_rows]
    values = np.ones(int(sel.sum())) if variant == "bernoulli" else data[sel]
    accum = np.bincount(labels[entry_rows[sel]] * dim + indices[sel], weights=values,
                        minlength=2 * dim).reshape(2, dim)
    class_n = np.bincount(labels[train], minlength=2).astype(float)
    log_prior = np.log(class_n / class_n.sum())

    dense = np.zeros((len(test), dim))
    for pos, r in enumerate(test):
        lo, hi = indptr[r], indptr[r + 1]
        dense[pos, indices[lo:hi]] = 1.0 if variant == "bernoulli" else data[lo:hi]
    if variant == "bernoulli":
        theta = (accum + alpha) / (class_n[:, None] + 2.0 * alpha)
        absent = np.log1p(-theta)
        joint = log_prior + absent.sum(axis=1) + dense @ (np.log(theta) - absent).T
    else:
        theta = (accum + alpha) / (accum.sum(axis=1, keepdims=True) + alpha * dim)
        joint = log_prior + dense @ np.log(theta).T
    diff = joint[:, 0] - joint[:, 1]
    tie = np.abs(diff) <= 1e-9 * np.maximum(1.0, np.abs(joint).max(axis=1))
    truth = labels[test]
    sure = (~tie) & (np.where(diff > 0, 0, 1) == truth)
    return int(sure.sum()), int(sure.sum() + tie.sum())


def check_fit(fit: dict, base: dict, dim: int, reports: dict) -> tuple[list[str], bool]:
    """Errors of one classifier fit, and whether they are the known SVM fault alone."""
    rows = fit["rows"]
    kind = fit["classifier"]
    errors: list[str] = []
    if kind == "svm":
        objective = svm_objective(base, rows, fit["weights"], fit["bias"], fit["lam"])
        if abs(objective - fit["best_objective"]) > 1e-9 * max(1.0, objective):
            errors.append(f"svm: recomputed objective {objective:.6f} differs from the model's "
                          f"recorded best {fit['best_objective']:.6f}")
        if objective > ZERO_MODEL_OBJECTIVE:
            errors.append(f"svm: {SVM_PROPERTY} ({objective:.4f} > {ZERO_MODEL_OBJECTIVE})")
        known = len(errors) == 1 and SVM_PROPERTY in errors[0]
        return errors, known
    if kind == "tree":
        labels = base["labels"][rows]
        nf, nm = int((labels == 0).sum()), int((labels == 1).sum())
        if (fit["root"], fit["leaf_total"]) != ([nf, nm], nf + nm):
            errors.append(f"tree: root counts {fit['root']} / leaves {fit['leaf_total']}, "
                          f"training rows hold {[nf, nm]}")
        if fit["depth"] > fit["max_depth"]:
            errors.append(f"tree: depth {fit['depth']} above max_depth {fit['max_depth']}")
        if fit["leaf_majority"] < max(nf, nm):
            errors.append("tree: training accuracy below the training majority share")
        return errors, False
    if fit.get("descriptor") and kind.startswith("nb-"):
        test = np.setdiff1d(np.arange(len(base["labels"])), rows)
        lo, hi = nb_correct_range(base, rows, test, kind[3:], fit["alpha"], dim)
        accuracy = reports[fit["descriptor"]]["per_fold_accuracy"][fit["fold"]]
        got = round(accuracy * len(test))
        if not lo <= got <= hi or abs(got / len(test) - accuracy) > 1e-12:
            errors.append(f"{fit['descriptor']} fold {fit['fold']}: accuracy {accuracy:.6f}, "
                          f"a dense Naive Bayes gets {lo}..{hi} of {len(test)}")
    return errors, False
