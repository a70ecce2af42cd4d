"""Article ingestion, politician registry, and name matching.

Articles arrive as JSON Lines (one object per line with fields id,
source, date, section, headline, body); the registry is a single JSON
document listing politicians with their name parts, gender, and dated
office terms. An article "features" a politician when any name variant
(full "Given Surname", surname only, given only, or a registered extra
variant) occurs token-bounded and case-insensitively in the headline or
body. scan_corpus tokenizes and matches a whole corpus in one pass and
keeps each mention once, as int rows: its span and marker form, and one
owner row per politician whose name variant it is; who an article
features is read from those rows. Labeling and masking live in
`pipeline`, which builds at most one labeled instance per article and
gender, all of a corpus pass as the columns of one Instances object.
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
from .preprocess import FORM_FULL, FORM_GIVEN, FORM_SURNAME, TokenStream

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


@dataclass(frozen=True, eq=False)
class Instances:
    """One corpus pass: its stream and its labeled instances, as columns.

    stream holds one text per article of the pass, matched or not, masked
    or raw, whose ids and sections are article_ids and sections, and
    mention_sentences a bool per sentence of it: True where the sentence
    holds a marker (masked) or a mention's start (raw), so it mentions a
    politician. Instance i is article article[i] seen from gender
    GENDERS[y[i]] (y is 0 for female, 1 for male): politician_ids[i] are
    the politicians of that gender it features and headline_mention[i]
    says whether one is named in the headline. An article featuring both
    genders is two instances over one text. stemmed says whether the
    stream holds Porter stems, so a query must be stemmed to match it.
    """

    article_ids: tuple[str, ...]
    sections: tuple[str, ...]
    stream: TokenStream
    article: np.ndarray
    y: np.ndarray
    politician_ids: tuple[tuple[str, ...], ...]
    headline_mention: np.ndarray
    mention_sentences: np.ndarray
    stemmed: bool

    def __len__(self) -> int:
        return len(self.article)


_KINDS = {str: "a string", list: "a list", datetime.date: "an ISO date string"}


def _field(obj: dict, name: str, where: str, kind: type = str, required: bool = False):
    """obj[name] as kind: a JSON string, a list, or an ISO date string read as
    a date. A field left out is a data error where required and otherwise
    empty ("" or []); a null, or a value of another JSON type, is a data error
    naming the field, not text made of it."""
    if name not in obj:
        if required:
            raise DataError(f"missing field {name} {where}")
        return kind()
    value = obj[name]
    if value is None:
        raise DataError(f"null field {name} {where}")
    if kind is datetime.date and type(value) is str:
        try:
            return datetime.date.fromisoformat(value)
        except ValueError:
            raise DataError(f"invalid date {value!r} in field {name} {where}") from None
    if type(value) is not kind:
        raise DataError(f"field {name} must be {_KINDS[kind]}, got {value!r} {where}")
    return value


def _article_from_record(obj: dict, record_no: int) -> Article:
    where = f"at record {record_no}"
    art = Article(
        id=_field(obj, "id", where, required=True),
        source=_field(obj, "source", where),
        date=_field(obj, "date", where, datetime.date, required=True),
        section=_field(obj, "section", where),
        headline=_field(obj, "headline", where),
        body=_field(obj, "body", where, required=True),
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
            fh.write(json.dumps(asdict(art), ensure_ascii=False, default=datetime.date.isoformat) + "\n")


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
        rid = _field(entry, "id", f"in politician entry {entry_no}")
        where = f"for politician {rid!r}"
        if not rid:
            raise DataError("politician entry missing id")
        if rid in seen:
            raise DataError(f"duplicate politician id {rid!r}")
        seen.add(rid)
        gender = _field(entry, "gender", where)
        if gender not in GENDERS:
            raise DataError(f"gender must be 'female' or 'male' {where}")
        given = _field(entry, "given_name", where)
        surname = _field(entry, "surname", where)
        extras = _field(entry, "extra_variants", where, list)
        raw_terms = _field(entry, "terms", where, list)
        if not given or not surname:
            raise DataError(f"given_name and surname required {where}")
        if not all(type(v) is str for v in extras):
            raise DataError(f"extra_variants must be a list of strings {where}")
        # a name part with no word token would leave the matcher reading its other parts, or punctuation, as names
        for name, value in (("given_name", given), ("surname", surname), *(("extra_variants", v) for v in extras)):
            if not preprocess.has_word(value):
                raise DataError(f"field {name} holds no word: {value!r} {where}")
        terms = []
        for t in raw_terms:
            if not isinstance(t, dict):
                raise DataError(f"term {t!r} is not an object {where}")
            term = OfficeTerm(_field(t, "portfolio", where), _field(t, "start", where, datetime.date, required=True),
                              _field(t, "end", where, datetime.date, required=True))
            if term.start >= term.end:
                raise DataError(f"term start {term.start} not before end {term.end} {where}")
            terms.append(term)
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
    """Write the registry document that load_registry reads back identically."""
    doc = {"politicians": [asdict(r) for r in records]}
    Path(path).write_text(json.dumps(doc, indent=2, ensure_ascii=False, default=datetime.date.isoformat) + "\n",
                          encoding="utf-8")


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
    vocab, ids = stream.vocab, stream.ids
    politicians = tuple(sorted(r.id for r in registry))
    rank = {rid: p for p, rid in enumerate(politicians)}
    owners_of: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for record in registry:
        for tt, form in name_variants(record):
            owners_of.setdefault(tuple(map(vocab.id, tt)), []).append((rank[record.id], preprocess.FORMS.index(form)))
    variants = list(owners_of)
    owned = [sorted(owners) for owners in owners_of.values()]
    owner_rows = np.array([row for owners in owned for row in owners], np.int64).reshape(-1, 2)
    n_owners = np.array([len(owners) for owners in owned], np.int64)
    # preprocess.FORMS runs from the most specific naming down, and when one span
    # is claimed under several forms the most specific wins the marker
    marker = np.array([min(f for _, f in owners) for owners in owned], np.int64)
    lengths = np.array([len(tt) for tt in variants], np.int64)
    longest = int(lengths.max(initial=0))
    # a mention can only start at a token that starts some variant
    first = np.zeros(len(vocab.surfaces), bool)
    first[[tt[0] for tt in variants]] = True
    starts = np.flatnonzero(first[ids])
    text = np.searchsorted(stream.bounds, starts, side="right")
    room = stream.bounds[text] - starts
    # the candidates' grams, then the variants, -1 past a variant's end; a gram
    # past its text's end is never read, as room rules it out
    n = len(starts)
    padded = np.full((len(variants), longest), -1, np.int64)
    padded[np.arange(longest) < lengths[:, None]] = [i for tt in variants for i in tt]
    grams = np.concatenate((ids[np.minimum(starts[:, None] + np.arange(longest), len(ids) - 1)], padded))
    # code k numbers the grams' (k + 1)-token prefixes, equal where the prefixes
    # are: the token id, then (previous code, next token) numbered by np.unique,
    # so it stays below max(ids, rows); each candidate's match is the longest
    # variant whose code it shares and that fits before its text's end
    match = np.full(n, -1)
    for k in range(longest):
        code = grams[:, 0] if k == 0 else np.unique(code * (len(vocab.surfaces) + 1) + grams[:, k] + 1,
                                                    return_inverse=True)[1]
        ending = np.flatnonzero(lengths == k + 1)
        variant_of = np.full(max(len(vocab.surfaces), len(grams)), -1)
        variant_of[code[n + ending]] = ending
        hit = variant_of[code[:n]]
        match = np.where((hit >= 0) & (room > k), hit, match)
    # leftmost-longest keeps the first match, then after each one kept the first
    # match starting at or past its end: the orbit of match 0 under that step,
    # walked by pointer doubling (the path so far, then each of its steps 2^k on)
    found = np.flatnonzero(match >= 0)
    after = np.append(np.searchsorted(starts[found], starts[found] + lengths[match[found]]), len(found))
    path = np.zeros(min(len(found), 1), np.int64)
    while len(path) and path[-1] < len(found):
        path, after = np.concatenate((path, after[path])), after[after]
    kept = found[path[path < len(found)]]
    variant = match[kept]
    mentions = np.column_stack((text[kept] - 1, starts[kept], starts[kept] + lengths[variant], marker[variant]))
    # each mention's variant's owner rows, gathered in order
    count = n_owners[variant]
    offset = np.cumsum(n_owners) - n_owners
    rows = np.arange(count.sum()) + np.repeat(offset[variant] - (np.cumsum(count) - count), count)
    return politicians, mentions, np.column_stack((np.repeat(np.arange(len(kept)), count), owner_rows[rows]))


# one article of a corpus scan: its unmasked stream and its mentions as
# (start, end, index of the form in preprocess.FORMS) rows over that stream
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
    ArticleScan per article, its mention rows counted from the article's start."""

    articles: tuple[Article, ...]
    stream: TokenStream
    mentions: np.ndarray
    politicians: tuple[str, ...]
    owners: np.ndarray

    def __iter__(self) -> Iterator[ArticleScan]:
        bounds = self.stream.bounds
        cuts = np.searchsorted(self.mentions[:, 0], bounds).tolist()
        for i, view in enumerate(self.stream.texts()):
            yield ArticleScan(self.articles[i], view, self.mentions[cuts[i]:cuts[i + 1]] - (bounds[i], bounds[i], 0))


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
    window: tuple[datetime.date, datetime.date],
    portfolio: str | None = None,
) -> float:
    """Summed years in office in the window for all registry politicians of one gender."""
    return sum(
        years_in_office(r, window, portfolio) for r in registry if r.gender == gender
    )
