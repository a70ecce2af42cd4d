"""Article ingestion, politician registry, and name matching.

Articles arrive as JSON Lines (one object per line with fields id,
source, date, section, headline, body); the registry is a single JSON
document listing politicians with their name parts, gender, and dated
office terms. An article "features" a politician when any name variant
(full "Given Surname", surname only, given only, or a registered extra
variant) occurs token-bounded and case-insensitively in the headline or
body. Labeling and masking live in `pipeline`, which builds at most
one labeled instance per article and gender.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

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

# when one text span is claimed under several forms, the more specific
# naming wins for the marker choice
_FORM_PRIORITY = {FORM_FULL: 0, FORM_SURNAME: 1, FORM_GIVEN: 2}


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
            fh.write(
                json.dumps(
                    {
                        "id": art.id,
                        "source": art.source,
                        "date": art.date.isoformat(),
                        "section": art.section,
                        "headline": art.headline,
                        "body": art.body,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


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
        return tuple(t.surface for t in preprocess.tokenize(text).tokens)

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


class _VariantTable:
    def __init__(self, registry: Sequence[PoliticianRecord]):
        self.entries: dict[tuple[str, ...], list[tuple[str, str]]] = {}
        self.max_len = 0
        for record in registry:
            for tt, form in name_variants(record):
                self.entries.setdefault(tt, []).append((record.id, form))
                self.max_len = max(self.max_len, len(tt))
        for owners in self.entries.values():
            owners.sort()
        # a mention can only start at a token that starts some variant
        self.first_tokens = frozenset(tt[0] for tt in self.entries)

    def scan(self, surfaces: Sequence[str]):
        """Leftmost-longest resolution of mentions over a token surface list.

        Yields (span_start, span_end, owners) with owners a list of
        (politician_id, form); spans never overlap.
        """
        n = len(surfaces)
        first = self.first_tokens
        entries = self.entries
        end = 0
        for i in [i for i, s in enumerate(surfaces) if s in first]:
            if i < end:
                continue
            for length in range(min(self.max_len, n - i), 0, -1):
                owners = entries.get(tuple(surfaces[i : i + length]))
                if owners:
                    end = i + length
                    yield i, end, owners
                    break


@dataclass(frozen=True)
class ArticleScan:
    """One article tokenized and matched: the unmasked combined stream,
    per-politician matches, and the resolved (non-overlapping) mention spans."""

    article: Article
    stream: TokenStream
    matches: tuple[PoliticianMatch, ...]
    mention_spans: tuple[MentionSpan, ...]


def _scan_article(article: Article, table: _VariantTable) -> ArticleScan:
    """Tokenize headline+body and resolve mentions over the combined stream."""
    headline = preprocess.split_sentences(preprocess.tokenize(article.headline))
    body = preprocess.split_sentences(preprocess.tokenize(article.body))
    stream = preprocess.concat_streams(headline, body)
    n_headline = len(headline.tokens)
    surfaces = [t.surface for t in stream.tokens]

    per_politician: dict[str, list[MentionSpan]] = {}
    headline_hit: dict[str, bool] = {}
    resolved: list[MentionSpan] = []
    for start, end, owners in table.scan(surfaces):
        form = min((f for _, f in owners), key=_FORM_PRIORITY.__getitem__)
        resolved.append(MentionSpan(start, end, form))
        for rid, rid_form in owners:
            per_politician.setdefault(rid, []).append(MentionSpan(start, end, rid_form))
            if start < n_headline:
                headline_hit[rid] = True
    matches = tuple(
        PoliticianMatch(rid, tuple(spans), headline_hit.get(rid, False))
        for rid, spans in sorted(per_politician.items())
    )
    return ArticleScan(article, stream, matches, tuple(resolved))


def scan_corpus(
    articles: Sequence[Article], registry: Sequence[PoliticianRecord]
) -> list[ArticleScan]:
    """Tokenize and match every article (matched or not) against the registry."""
    table = _VariantTable(registry)
    return [_scan_article(article, table) for article in articles]


def match_politicians(article: Article, registry: Sequence[PoliticianRecord]) -> list[PoliticianMatch]:
    """All politicians featured in the article, with their mention spans.

    Spans index into the combined headline+body token stream (headline
    first). Results are sorted by politician id and do not depend on
    registry ordering.
    """
    return list(_scan_article(article, _VariantTable(registry)).matches)


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
