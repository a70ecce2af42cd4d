"""Synthetic labeled corpora for calibration and end-to-end testing.

Generates a small politician registry and a stream of articles that
exercise the whole pipeline: names in several forms (with occasional
titles), pronouns matching the featured politician, sectioned articles,
and filler text drawn from a label-independent pseudo-word vocabulary.
Bias is injected only through explicitly planted terms: at every body
token slot the generator emits a planted term with the configured
per-class probability instead of a filler word. With no planted terms
the masked text carries no label signal at all, so classifiers should
sit at chance.

Everything is driven by one seeded generator, making output corpora
byte-for-byte reproducible.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from .corpus import FEMALE, MALE, Article, OfficeTerm, PoliticianRecord
from .errors import ConfigError
from .rng import Rng

_FEMALE_GIVEN = ["Mary", "Nora", "Joan", "Una", "Maire", "Brid"]
_MALE_GIVEN = ["Sean", "Brian", "Liam", "Noel", "Conor", "Eamon"]
_SURNAMES = [
    "Keane", "Brophy", "Dunne", "Nolan", "Whelan", "Burke",
    "Quinn", "Healy", "Brady", "Dillon", "Farrell", "Hogan",
]
MAX_PER_GENDER = len(_SURNAMES) // 2
_PORTFOLIOS = ["health", "finance", "education", "justice", "enterprise", "arts"]
_SECTIONS = ["news", "politics", "business", "sport", "opinion", "lifestyle"]
_SOURCES = ["The Daily Ledger", "The Morning Chronicle"]

_ONSETS = "b c d f g l m n p r s t v".split()
_VOWELS = "a e i o u".split()
_CODAS = ["", "", "n", "r", "s", "l"]

_WINDOW_START = datetime.date(1997, 6, 1)
_WINDOW_END = datetime.date(2011, 6, 1)
_VOCABULARY_SIZE = 400  # filler words


@dataclass(frozen=True)
class PlantedTerm:
    """A term injected with different per-token probabilities per class."""

    term: str
    p_female: float
    p_male: float

    def __post_init__(self):
        if not self.term:
            raise ConfigError("planted term must be non-empty")
        for p in (self.p_female, self.p_male):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"planted probability {p} outside [0, 1]")


def _pseudo_word(rng: Rng) -> str:
    syllables = 2 + rng.randbelow(2)
    word = "".join(
        rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables)
    )
    return word + rng.choice(_CODAS)


def _filler_vocabulary(rng: Rng, size: int, reserved: set[str]) -> list[str]:
    vocab: list[str] = []
    seen = set(reserved)
    while len(vocab) < size:
        word = _pseudo_word(rng)
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def make_registry(rng: Rng, per_gender: int = 3) -> list[PoliticianRecord]:
    """Politicians with unique surnames and non-overlapping office terms."""
    if not 1 <= per_gender <= MAX_PER_GENDER:
        raise ConfigError(f"politicians per gender must be in 1..{MAX_PER_GENDER}")
    records = []
    surnames = list(_SURNAMES)
    rng.shuffle(surnames)
    for gender, givens, prefix in ((FEMALE, _FEMALE_GIVEN, "f"), (MALE, _MALE_GIVEN, "m")):
        for i in range(per_gender):
            surname = surnames.pop()
            cursor = _WINDOW_START + datetime.timedelta(days=rng.randbelow(365 * 2))
            terms = []
            for _ in range(1 + rng.randbelow(2)):
                length = datetime.timedelta(days=365 + rng.randbelow(365 * 5))
                end = min(cursor + length, _WINDOW_END)
                if end <= cursor:
                    break
                terms.append(OfficeTerm(rng.choice(_PORTFOLIOS), cursor, end))
                cursor = end + datetime.timedelta(days=30 + rng.randbelow(365))
            records.append(
                PoliticianRecord(
                    id=f"{prefix}{i + 1}",
                    gender=gender,
                    given_name=givens[i % len(givens)],
                    surname=surname,
                    terms=tuple(terms),
                )
            )
    return records


def _mention_text(rng: Rng, record: PoliticianRecord) -> str:
    roll = rng.random()
    if roll < 0.5:
        name = f"{record.given_name} {record.surname}"
    elif roll < 0.9:
        name = record.surname
    else:
        name = record.given_name
    if rng.random() < 0.3:
        title = "Ms" if record.gender == FEMALE else "Mr"
        return f"{title} {name}"
    return name


def generate_corpus(
    n_articles: int,
    *,
    balance: float = 0.5,
    planted: tuple[PlantedTerm, ...] = (),
    seed: int = 0,
    per_gender: int = 3,
) -> tuple[list[Article], list[PoliticianRecord]]:
    """A labeled corpus of n_articles, each featuring one politician.

    balance is the fraction of female-featuring articles (made exact by
    construction, then shuffled). Planted terms replace filler words
    token-by-token with their per-class probability.
    """
    if n_articles < 2:
        raise ConfigError("need at least two articles")
    if not 0.0 <= balance <= 1.0:
        raise ConfigError(f"balance {balance} outside [0, 1]")
    rng = Rng(seed)
    registry = make_registry(rng, per_gender)
    by_gender = {
        FEMALE: [r for r in registry if r.gender == FEMALE],
        MALE: [r for r in registry if r.gender == MALE],
    }
    reserved = {t.term for t in planted}
    for r in registry:
        reserved.update({r.given_name.lower(), r.surname.lower()})
    vocab = _filler_vocabulary(rng, _VOCABULARY_SIZE, reserved)

    n_female = round(n_articles * balance)
    labels = [FEMALE] * n_female + [MALE] * (n_articles - n_female)
    rng.shuffle(labels)

    window_days = (_WINDOW_END - _WINDOW_START).days
    articles: list[Article] = []
    for i, label in enumerate(labels):
        record = rng.choice(by_gender[label])
        pronoun = "she" if label == FEMALE else "he"

        def fill_slot() -> str:
            for term in planted:
                p = term.p_female if label == FEMALE else term.p_male
                if rng.random() < p:
                    return term.term
            return vocab[rng.randbelow(len(vocab))]

        n_slots = 40 + rng.randbelow(41)
        n_sentences = max(1, n_slots // (8 + rng.randbelow(7)))
        mention_sentences = {rng.randbelow(n_sentences) for _ in range(1 + rng.randbelow(3))}
        sentences = []
        remaining = n_slots
        for s in range(n_sentences):
            take = remaining if s == n_sentences - 1 else max(3, remaining // (n_sentences - s))
            words = [fill_slot() for _ in range(take)]
            remaining -= take
            if s in mention_sentences:
                pos = rng.randbelow(len(words) + 1)
                words.insert(pos, _mention_text(rng, record))
                if rng.random() < 0.4:
                    words.append(f"{pronoun} said")
            sentences.append(" ".join(words) + ".")

        headline_words = [vocab[rng.randbelow(len(vocab))] for _ in range(3 + rng.randbelow(4))]
        if rng.random() < 0.5:
            headline_words.insert(rng.randbelow(len(headline_words) + 1), record.surname)

        articles.append(
            Article(
                id=f"a{i + 1:05d}",
                source=rng.choice(_SOURCES),
                date=_WINDOW_START + datetime.timedelta(days=rng.randbelow(window_days)),
                section=rng.choice(_SECTIONS),
                headline=" ".join(headline_words),
                body=" ".join(sentences),
            )
        )
    return articles, registry
