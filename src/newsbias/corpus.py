"""Article ingestion, politician registry, and name matching.

Articles arrive as JSON Lines (one object per line with fields id,
source, date, section, headline, body); the registry is a single JSON
document listing politicians with their name parts, gender, and dated
office terms. An article "features" a politician when any name variant
(full "Given Surname", surname only, given only, or a registered extra
variant) occurs token-bounded and case-insensitively in the headline or
body. scan_corpus tokenizes and matches a whole corpus in one pass and
keeps each mention once, as int rows: its span and marker form, and one
owner row per politician whose name variant it is. match_politicians
reads one article's owner rows back as PoliticianMatch objects.
Labeling and masking live in `pipeline`, which builds at most one
labeled instance per article and gender, all of a corpus pass in one
Instances object.
"""

from __future__ import annotations

import datetime
import json
from collections import namedtuple
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import preprocess
from .errors import DataError, read_lines, read_text
from .preprocess import (
    FORM_FULL,
    FORM_GIVEN,
    FORM_SURNAME,
    MentionSpan,
    TokenStream,
)

FEMALE = "female"
MALE = "male"
GENDERS = (FEMALE, MALE)

DAYS_PER_YEAR = 365.25

@dataclass(frozen=True, slots=True)
class Article:
    id: str
    source: str
    date: datetime.date
    section: str
    headline: str
    body: str


@dataclass(frozen=True, slots=True)
class OfficeTerm:
    portfolio: str
    start: datetime.date
    end: datetime.date


@dataclass(frozen=True, slots=True)
class PoliticianRecord:
    id: str
    gender: str
    given_name: str
    surname: str
    extra_variants: tuple[str, ...] = ()
    terms: tuple[OfficeTerm, ...] = ()


@dataclass(frozen=True, slots=True)
class PoliticianMatch:
    """Resolved mentions of one politician within one article."""

    politician_id: str
    spans: tuple[MentionSpan, ...]
    headline_mention: bool


@dataclass(frozen=True, slots=True)
class LabeledInstance:
    """One (article, gender) classification unit with its masked stream."""

    article_id: str
    label: str
    politician_ids: tuple[str, ...]
    headline_mention: bool
    stream: TokenStream
    section: str = ""


@dataclass(frozen=True, eq=False)
class Instances(Sequence[LabeledInstance]):
    """One corpus pass: its stream and its labeled instances, as columns.

    stream holds one text per article of the pass, matched or not, masked
    or raw, whose ids and sections are article_ids and sections, and
    mention_sentences a bool per sentence of it: True where the sentence
    holds a marker (masked) or a mention's start (raw), so it mentions a
    politician. Instance i is article article[i] seen from gender
    GENDERS[y[i]] (y is 0 for female, 1 for male): politician_ids[i] are
    the politicians of that gender it features and headline_mention[i]
    says whether one is named in the headline. An article featuring both
    genders is two instances over one text. Indexing gives instance i as
    a LabeledInstance.
    """

    article_ids: tuple[str, ...]
    sections: tuple[str, ...]
    stream: TokenStream
    article: np.ndarray
    y: np.ndarray
    politician_ids: tuple[tuple[str, ...], ...]
    headline_mention: np.ndarray
    mention_sentences: np.ndarray

    def __len__(self) -> int:
        return len(self.article)

    def __getitem__(self, i: int) -> LabeledInstance:
        a = int(self.article[i])
        return LabeledInstance(self.article_ids[a], GENDERS[self.y[i]], self.politician_ids[i],
                               bool(self.headline_mention[i]), self.stream.text(a), self.sections[a])


def _parse_date(value, where: str) -> datetime.date:
    if not isinstance(value, str):
        raise DataError(f"date must be an ISO string {where}")
    try:
        return datetime.date.fromisoformat(value)
    except ValueError:
        raise DataError(f"invalid date {value!r} {where}") from None


def _reject_nulls(obj: dict, names: Sequence[str], where: str) -> None:
    for name in names:
        if obj.get(name, "") is None:
            raise DataError(f"null field {name} {where}")


def _article_from_record(obj: dict, record_no: int) -> Article:
    where = f"at record {record_no}"
    for name in ("id", "date", "body"):
        if name not in obj:
            raise DataError(f"missing field {name} {where}")
    _reject_nulls(obj, ("id", "source", "date", "section", "headline", "body"), where)
    art = Article(
        id=str(obj["id"]),
        source=str(obj.get("source", "")),
        date=_parse_date(obj["date"], where),
        section=str(obj.get("section", "")),
        headline=str(obj.get("headline", "")),
        body=str(obj["body"]),
    )
    if not art.id:
        raise DataError(f"empty id {where}")
    if not art.body:
        raise DataError(f"empty body {where}")
    return art


def load_articles(path: str | Path) -> list[Article]:
    """Load articles in input order, rejecting duplicates and bad records."""
    articles: list[Article] = []
    seen: set[str] = set()
    record_no = 0
    # lines end at "\n" only: str.splitlines would also break at a U+2028 inside a JSON string
    for line_no, line in enumerate(read_lines(path, "article file"), start=1):
        if not line.strip():
            continue
        record_no += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed record at line {line_no}: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise DataError(f"malformed record at line {line_no}: not an object")
        art = _article_from_record(obj, record_no)
        if art.id in seen:
            raise DataError(f"duplicate article id {art.id!r}")
        seen.add(art.id)
        articles.append(art)
    return articles


def save_articles(articles: Iterable[Article], path: str | Path) -> None:
    """Write JSON Lines that load_articles reads back identically."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for art in articles:
            fh.write(json.dumps({**asdict(art), "date": art.date.isoformat()}, ensure_ascii=False) + "\n")


def load_registry(path: str | Path) -> list[PoliticianRecord]:
    """Load and validate the politician registry (single JSON document)."""
    try:
        doc = json.loads(read_text(path, "registry file"))
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed registry: {exc.msg}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("politicians"), list):
        raise DataError('registry must be an object with a "politicians" list')

    records: list[PoliticianRecord] = []
    seen: set[str] = set()
    for entry_no, entry in enumerate(doc["politicians"], start=1):
        if not isinstance(entry, dict):
            raise DataError(f"politician entry {entry_no} is not an object")
        _reject_nulls(entry, ("id",), f"in politician entry {entry_no}")
        rid = str(entry.get("id", ""))
        where = f"for politician {rid!r}"
        if not rid:
            raise DataError("politician entry missing id")
        if rid in seen:
            raise DataError(f"duplicate politician id {rid!r}")
        seen.add(rid)
        gender = entry.get("gender")
        if gender not in GENDERS:
            raise DataError(f"gender must be 'female' or 'male' {where}")
        _reject_nulls(entry, ("given_name", "surname", "extra_variants", "terms"), where)
        given = str(entry.get("given_name", ""))
        surname = str(entry.get("surname", ""))
        if not given or not surname:
            raise DataError(f"given_name and surname required {where}")
        extras = entry.get("extra_variants", [])
        if type(extras) is not list or not all(type(v) is str for v in extras):
            raise DataError(f"extra_variants must be a list of strings {where}")
        terms = []
        for t in entry.get("terms", []):
            if not isinstance(t, dict):
                raise DataError(f"term {t!r} is not an object {where}")
            _reject_nulls(t, ("portfolio",), where)
            start = _parse_date(t.get("start"), where)
            end = _parse_date(t.get("end"), where)
            if start >= end:
                raise DataError(f"term start {start} not before end {end} {where}")
            terms.append(OfficeTerm(str(t.get("portfolio", "")), start, end))
        terms.sort(key=lambda t: (t.start, t.end))
        for prev, cur in zip(terms, terms[1:]):
            if cur.start < prev.end:
                raise DataError(
                    f"overlapping terms {where}: "
                    f"{prev.start}..{prev.end} and {cur.start}..{cur.end}"
                )
        records.append(
            PoliticianRecord(
                id=rid,
                gender=gender,
                given_name=given,
                surname=surname,
                extra_variants=tuple(extras),
                terms=tuple(terms),
            )
        )
    return records


def save_registry(records: Iterable[PoliticianRecord], path: str | Path) -> None:
    doc = {
        "politicians": [
            {
                "id": r.id,
                "gender": r.gender,
                "given_name": r.given_name,
                "surname": r.surname,
                "extra_variants": list(r.extra_variants),
                "terms": [
                    {"portfolio": t.portfolio, "start": t.start.isoformat(), "end": t.end.isoformat()}
                    for t in r.terms
                ],
            }
            for r in records
        ]
    }
    Path(path).write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def name_variants(record: PoliticianRecord) -> list[tuple[tuple[str, ...], str]]:
    """Token-tuple variants for one politician, each with its name form.

    Single-token extra variants count as surname-style references,
    multi-token ones as full names.
    """
    def toks(text: str) -> tuple[str, ...]:
        return preprocess.tokenize(text).tokens

    variants: list[tuple[tuple[str, ...], str]] = []
    seen: set[tuple[str, ...]] = set()
    candidates = [
        (toks(f"{record.given_name} {record.surname}"), FORM_FULL),
        (toks(record.surname), FORM_SURNAME),
        (toks(record.given_name), FORM_GIVEN),
    ]
    for extra in record.extra_variants:
        tt = toks(extra)
        if tt:
            candidates.append((tt, FORM_FULL if len(tt) > 1 else FORM_SURNAME))
    for tt, form in candidates:
        if tt and tt not in seen:
            seen.add(tt)
            variants.append((tt, form))
    return variants


def _scan_mentions(registry: Sequence[PoliticianRecord], stream: TokenStream):
    """Leftmost-longest name mentions within each text of a stream. Returns the
    registry's ids sorted (the politicians), one (text, start, end, form) row per
    mention with positions over the whole stream and form the index in
    preprocess.FORMS of the most specific form claiming the span, and one
    (mention row, politician, form) row per politician whose variant the span
    is, in politician order. Spans never overlap."""
    vocab = stream.vocab
    politicians = tuple(sorted(r.id for r in registry))
    rank = {rid: p for p, rid in enumerate(politicians)}
    owners_of: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for record in registry:
        for tt, form in name_variants(record):
            owners_of.setdefault(tuple(map(vocab.id, tt)), []).append((rank[record.id], preprocess.FORMS.index(form)))
    # preprocess.FORMS runs from the most specific naming down, and when one span
    # is claimed under several forms the most specific wins the marker
    entries = {tt: (min(f for _, f in owners), sorted(owners)) for tt, owners in owners_of.items()}
    longest = max(map(len, entries), default=0)
    # a mention can only start at a token that starts some variant
    first = np.zeros(len(vocab.surfaces), bool)
    first[[tt[0] for tt in entries]] = True
    starts = np.flatnonzero(first[stream.ids])
    text = np.searchsorted(stream.bounds, starts, side="right")
    caps = np.minimum(stream.bounds[text] - starts, longest)
    grams = stream.ids[np.minimum(starts[:, None] + np.arange(longest), len(stream.ids) - 1)]
    mentions: list[tuple[int, int, int, int]] = []
    owners: list[tuple[int, int, int]] = []
    end = 0
    for t, i, cap, gram in zip((text - 1).tolist(), starts.tolist(), caps.tolist(), grams.tolist()):
        if i < end:
            continue
        for length in range(cap, 0, -1):
            entry = entries.get(tuple(gram[:length]))
            if entry:
                end = i + length
                owners.extend((len(mentions), p, f) for p, f in entry[1])
                mentions.append((t, i, end, entry[0]))
                break
    return politicians, np.array(mentions, np.int64).reshape(-1, 4), np.array(owners, np.int64).reshape(-1, 3)


# one article of a corpus scan: its unmasked stream and its resolved mention spans
ArticleScan = namedtuple("ArticleScan", "article stream mention_spans")


@dataclass(frozen=True)
class CorpusScan:
    """Every article tokenized and matched in one pass: stream holds one text
    per article (headline, then body), and mentions the resolved spans over it
    as (start, end, index of the form in preprocess.FORMS) rows in order. Who
    a mention names is in owners, one (mention row, politician, form, in
    headline) row per politician whose name variant the span is, ordered by
    mention and then politician: politician indexes politicians (the
    registry's ids, sorted), form indexes preprocess.FORMS and in headline is
    1 where the mention lies in the article's headline. Iterating gives one
    ArticleScan per article."""

    articles: tuple[Article, ...]
    stream: TokenStream
    mentions: np.ndarray
    politicians: tuple[str, ...]
    owners: np.ndarray

    def __iter__(self) -> Iterator[ArticleScan]:
        bounds, mentions = self.stream.bounds.tolist(), self.mentions.tolist()
        cuts = np.searchsorted(self.mentions[:, 0], bounds).tolist()
        for i, view in enumerate(self.stream.texts()):
            yield ArticleScan(self.articles[i], view, tuple(
                MentionSpan(s - bounds[i], e - bounds[i], preprocess.FORMS[f]) for s, e, f in mentions[cuts[i]:cuts[i + 1]]))


def scan_corpus(articles: Sequence[Article], registry: Sequence[PoliticianRecord]) -> CorpusScan:
    """Tokenize and match every article (matched or not) against the registry.
    Headlines and bodies are texts of their own until matched, so a mention lies
    inside one of them; an article's text is then its headline and its body."""
    texts = preprocess.split_sentences(
        preprocess.tokenize([text for art in articles for text in (art.headline, art.body)], preprocess.Vocab()))
    politicians, mentions, owners = _scan_mentions(registry, texts)
    stream = TokenStream(texts.vocab, texts.ids, texts.bounds[::2], texts.ends)
    # headlines are the even texts
    owners = np.column_stack((owners, mentions[owners[:, 0], 0] % 2 == 0))
    return CorpusScan(tuple(articles), stream, mentions[:, 1:], politicians, owners)


def match_politicians(article: Article, registry: Sequence[PoliticianRecord]) -> list[PoliticianMatch]:
    """All politicians featured in the article, with their mention spans over its
    headline+body stream, sorted by politician id whatever the registry's order."""
    scan = scan_corpus([article], registry)
    found: dict[int, list[tuple[MentionSpan, int]]] = {}
    for m, p, form, headline in scan.owners.tolist():
        found.setdefault(p, []).append((MentionSpan(*scan.mentions[m, :2].tolist(), preprocess.FORMS[form]), headline))
    return [PoliticianMatch(scan.politicians[p], tuple(span for span, _ in rows), any(h for _, h in rows))
            for p, rows in sorted(found.items())]


def years_in_office(
    record: PoliticianRecord,
    window: tuple[datetime.date, datetime.date],
    portfolio: str | None = None,
) -> float:
    """Decimal years (days/365.25) the record's terms overlap the window.

    The window is half-open [start, end), so adjacent windows partition
    time cleanly. An optional portfolio name restricts which terms count.
    """
    start, end = window
    if start >= end:
        raise ValueError(f"window start {start} must precede end {end}")
    days = 0
    for term in record.terms:
        if portfolio is not None and term.portfolio != portfolio:
            continue
        lo = max(term.start, start)
        hi = min(term.end, end)
        if hi > lo:
            days += (hi - lo).days
    return days / DAYS_PER_YEAR


def registry_window(registry: Sequence[PoliticianRecord]) -> tuple[datetime.date, datetime.date]:
    """Smallest window covering every term in the registry."""
    starts = [t.start for r in registry for t in r.terms]
    ends = [t.end for r in registry for t in r.terms]
    if not starts:
        raise DataError("registry has no office terms")
    return min(starts), max(ends)


def total_years(
    registry: Sequence[PoliticianRecord],
    gender: str,
    window: tuple[datetime.date, datetime.date] | None = None,
    portfolio: str | None = None,
) -> float:
    """Summed years in office for all registry politicians of one gender."""
    if window is None:
        window = registry_window(registry)
    return sum(
        years_in_office(r, window, portfolio) for r in registry if r.gender == gender
    )
