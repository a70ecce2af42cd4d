"""Seeded corpus generator for the benchmark, with the ground truth its checks use.

The generator is the benchmark's own and imports nothing from newsbias,
so a change to the program (its synthetic-corpus module included)
cannot change the inputs of one commit only. Everything is drawn from
one ``random.Random`` keyed by the workload name and the seed.

Make-up of every corpus:

- a registry of ``PER_GENDER`` female and ``PER_GENDER`` male politicians
  with unique given names and surnames, each spelt with a letter
  (c, h, w or y) that filler words never contain, so no filler word,
  stemmed or not, can be mistaken for a name;
- articles that feature one politician, or (``BOTH_SHARE``) one of each
  gender, or (``UNMATCHED_SHARE``) nobody;
- bodies of sentences drawn from a filler vocabulary of pseudo-words over
  the letters b d f g k l m n p r s t v z and the five vowels, with the
  planted term emitted at each slot with a per-gender probability;
- mention sentences that name a featured politician in full, by surname
  or by given name, sometimes after a title, sometimes followed by a
  pronoun clause ("she said");
- optionally common stopwords mixed into the text.

Run as a script to write one workload's inputs and expected values::

    python3 perfbench/gen.py --workload audit-ground --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import datetime
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

PER_GENDER = 4
FEMALE_GIVEN = ["Hannah", "Wendy", "Cathy", "Joyce", "Sheila", "Ruth"]
MALE_GIVEN = ["Hugh", "Charles", "Wayne", "Joseph", "Colm", "Henry"]
SURNAMES = ["Healy", "Walsh", "Coyle", "Hogan", "Whelan", "Cowen", "Byrne", "Harney",
            "Ahern", "Cullen", "Hanafin", "Coughlan"]
PORTFOLIOS = ["health", "finance", "education", "justice", "enterprise", "arts"]
SECTIONS = ["news", "politics", "business", "opinion", "lifestyle"]
SOURCES = ["The Daily Ledger", "The Morning Chronicle"]
STOPWORDS = ["the", "of", "and", "to", "in", "a", "on", "for", "with", "at"]
TITLES = {"female": "Ms", "male": "Mr"}
PRONOUNS = {"female": "she", "male": "he"}

ONSETS = "b d f g k l m n p r s t v z".split()
VOWELS = "a e i o u".split()
CODAS = ["", "", "n", "r", "s", "l"]

WINDOW_START = datetime.date(1997, 6, 1)
WINDOW_END = datetime.date(2011, 6, 1)

PLANTED = "husband"
BOTH_SHARE = 0.06
UNMATCHED_SHARE = 0.03
FEMALE_SHARE = 0.5

# forms as the program's masking names them
MARKER = {"full": "NAMEFORM_FULL", "surname": "NAMEFORM_SURNAME", "given": "NAMEFORM_GIVEN"}


@dataclass(frozen=True)
class Spec:
    n_articles: int
    vocabulary: int
    p_female: float
    p_male: float
    stopword_share: float = 0.0


SPECS = {
    "sweep-grid": Spec(n_articles=2000, vocabulary=400, p_female=0.04, p_male=0.005),
    "audit-ground": Spec(n_articles=5000, vocabulary=400, p_female=0.04, p_male=0.005,
                         stopword_share=0.15),
    "wide-vocab": Spec(n_articles=2000, vocabulary=20000, p_female=0.04, p_male=0.005),
}


@dataclass
class Truth:
    """What the generator planted, per article and per registry record."""

    registry: list = field(default_factory=list)
    # article id -> {politician id: headline mention}
    featured: dict = field(default_factory=dict)
    # article id -> planted-term count over the whole article
    planted: dict = field(default_factory=dict)
    # article id -> planted-term count in sentences that carry a mention
    planted_in_mention_sentences: dict = field(default_factory=dict)
    # article id -> marker surface -> count in the masked stream
    markers: dict = field(default_factory=dict)
    # article id -> set of unigram terms of the masked stream (stemming off)
    terms: dict = field(default_factory=dict)


def _pseudo_word(rng: random.Random) -> str:
    syllables = 2 + rng.randrange(2)
    return "".join(rng.choice(ONSETS) + rng.choice(VOWELS) for _ in range(syllables)) + rng.choice(CODAS)


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    vocab: list[str] = []
    seen = set(STOPWORDS)
    while len(vocab) < size:
        word = _pseudo_word(rng)
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def _registry(rng: random.Random) -> list[dict]:
    surnames = list(SURNAMES)
    rng.shuffle(surnames)
    records = []
    for gender, givens, prefix in (("female", FEMALE_GIVEN, "f"), ("male", MALE_GIVEN, "m")):
        for i in range(PER_GENDER):
            cursor = WINDOW_START + datetime.timedelta(days=rng.randrange(365 * 2))
            terms = []
            for _ in range(1 + rng.randrange(2)):
                end = min(cursor + datetime.timedelta(days=365 + rng.randrange(365 * 5)), WINDOW_END)
                if end <= cursor:
                    break
                terms.append({"portfolio": rng.choice(PORTFOLIOS),
                              "start": cursor.isoformat(), "end": end.isoformat()})
                cursor = end + datetime.timedelta(days=30 + rng.randrange(365))
            records.append({"id": f"{prefix}{i + 1}", "gender": gender, "given_name": givens[i],
                            "surname": surnames.pop(), "extra_variants": [], "terms": terms})
    return records


def generate(workload: str, seed: int, n_articles: int | None = None):
    """(articles, registry, truth) for one workload and seed.

    ``n_articles`` overrides the workload's corpus size (the self-test
    uses a tiny one); everything else follows the workload's spec.
    """
    spec = SPECS[workload]
    n = spec.n_articles if n_articles is None else n_articles
    rng = random.Random(f"{workload}:{seed}")
    registry = _registry(rng)
    vocab = _vocabulary(rng, spec.vocabulary)
    by_gender = {g: [r for r in registry if r["gender"] == g] for g in ("female", "male")}
    truth = Truth(registry=registry)
    window_days = (WINDOW_END - WINDOW_START).days

    articles = []
    for i in range(n):
        aid = f"a{i + 1:06d}"
        roll = rng.random()
        if roll < UNMATCHED_SHARE:
            featured = []
        elif roll < UNMATCHED_SHARE + BOTH_SHARE:
            featured = [rng.choice(by_gender["female"]), rng.choice(by_gender["male"])]
        else:
            gender = "female" if rng.random() < FEMALE_SHARE else "male"
            featured = [rng.choice(by_gender[gender])]
        # slot probability of the planted term follows the featured genders
        genders = {r["gender"] for r in featured}
        p = spec.p_female if "female" in genders else spec.p_male if genders else 0.0

        terms: set = set()
        markers: Counter = Counter()
        planted = planted_mention = 0

        def word() -> str:
            if spec.stopword_share and rng.random() < spec.stopword_share:
                return rng.choice(STOPWORDS)
            return vocab[rng.randrange(len(vocab))]

        def mention(record: dict) -> str:
            roll = rng.random()
            if roll < 0.5:
                form, text = "full", f"{record['given_name']} {record['surname']}"
            elif roll < 0.9:
                form, text = "surname", record["surname"]
            else:
                form, text = "given", record["given_name"]
            markers[MARKER[form]] += 1
            terms.add(MARKER[form])
            if rng.random() < 0.3:
                text = f"{TITLES[record['gender']]} {text}"
            # a filler after every mention keeps two mentions from touching:
            # "Hannah" then "Healy" side by side would read as one full name
            after = vocab[rng.randrange(len(vocab))]
            terms.add(after)
            return f"{text} {after}"

        n_slots = 40 + rng.randrange(41)
        n_sentences = max(1, n_slots // (8 + rng.randrange(7)))
        mention_at: dict[int, list[dict]] = {}
        for record in featured:
            for _ in range(1 + rng.randrange(3)):
                mention_at.setdefault(rng.randrange(n_sentences), []).append(record)
        sentences = []
        remaining = n_slots
        for s in range(n_sentences):
            take = remaining if s == n_sentences - 1 else max(3, remaining // (n_sentences - s))
            remaining -= take
            words = []
            for _ in range(take):
                if p and rng.random() < p:
                    words.append(PLANTED)
                else:
                    words.append(word())
            n_planted = words.count(PLANTED)
            terms.update(words)
            planted += n_planted
            for record in mention_at.get(s, ()):
                words.insert(rng.randrange(len(words) + 1), mention(record))
                if rng.random() < 0.4:
                    words.append(f"{PRONOUNS[record['gender']]} said")
                    terms.add("said")
            if s in mention_at:
                planted_mention += n_planted
            sentences.append(" ".join(words) + ".")

        headline = [vocab[rng.randrange(len(vocab))] for _ in range(3 + rng.randrange(4))]
        terms.update(headline)
        headline_ids = set()
        if featured and rng.random() < 0.5:
            record = rng.choice(featured)
            headline.insert(rng.randrange(len(headline) + 1), record["surname"])
            headline_ids.add(record["id"])
            markers[MARKER["surname"]] += 1
            terms.add(MARKER["surname"])

        articles.append({
            "id": aid,
            "source": rng.choice(SOURCES),
            "date": (WINDOW_START + datetime.timedelta(days=rng.randrange(window_days))).isoformat(),
            "section": rng.choice(SECTIONS),
            "headline": " ".join(headline),
            "body": " ".join(sentences),
        })
        if featured:
            truth.featured[aid] = {r["id"]: r["id"] in headline_ids for r in featured}
        truth.planted[aid] = planted
        truth.planted_in_mention_sentences[aid] = planted_mention
        truth.markers[aid] = dict(markers)
        truth.terms[aid] = terms
    return articles, registry, truth


def write_inputs(directory: Path, articles: list[dict], registry: list[dict]) -> dict[str, Path]:
    """Write the program's input files; returns their paths by config key."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "articles": directory / "articles.jsonl",
        "registry": directory / "registry.json",
        "stoplist": directory / "stoplist.txt",
    }
    with paths["articles"].open("w", encoding="utf-8") as fh:
        for art in articles:
            fh.write(json.dumps(art) + "\n")
    paths["registry"].write_text(json.dumps({"politicians": registry}, indent=1) + "\n", encoding="utf-8")
    paths["stoplist"].write_text("\n".join(STOPWORDS) + "\n", encoding="utf-8")
    return paths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    # imported here because workloads imports this module
    import workloads

    articles, registry, truth = generate(args.workload, args.seed)
    write_inputs(args.out, articles, registry)
    expected = workloads.WORKLOADS[args.workload].expected(truth)
    (args.out / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(articles)} articles and expected values to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
