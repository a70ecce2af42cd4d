"""Article ingestion, politician registry, and name matching.

Articles arrive as JSON Lines, and the registry of politicians with
their dated office terms as one JSON document; RECORDS gives the fields
of each record. An article "features" a politician when any name variant
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
import re
from collections import namedtuple
from dataclasses import asdict, dataclass, fields, replace
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
    or raw, whose ids, sections and dates are article_ids, sections and
    dates, and mention_sentences a bool per sentence of it: True where the
    sentence holds a marker (masked) or a mention's start (raw), so it
    mentions a politician. Instance i is article article[i] seen from gender
    GENDERS[y[i]] (y is 0 for female, 1 for male): politician_ids[i] are
    the politicians of that gender it features and headline_mention[i]
    says whether one is named in the headline. An article featuring both
    genders is two instances over one text. stemmed says whether the
    stream holds Porter stems, so a query must be stemmed to match it.
    """

    article_ids: tuple[str, ...]
    sections: tuple[str, ...]
    dates: tuple[datetime.date, ...]
    stream: TokenStream
    article: np.ndarray
    y: np.ndarray
    politician_ids: tuple[tuple[str, ...], ...]
    headline_mention: np.ndarray
    mention_sentences: np.ndarray
    stemmed: bool

    def __len__(self) -> int:
        return len(self.article)


# Every field of an input record: (kind, rule). A kind is str (a JSON string),
# datetime.date (a YYYY-MM-DD string), a record class (a JSON object read by its
# own rows) or [kind] (a JSON list of that kind, read as a tuple). A rule is
# "optional" (may be blank or left out), "required" (present and not blank),
# "id" (required, and printable), "word" (holds a word as the tokenizer reads
# it) or a tuple of the values the field takes; a list may be left out, and its
# rule holds for each item. Keys no row names are ignored: scraped records carry more.
RECORDS = {
    Article: {"id": (str, "id"), "source": (str, "optional"), "date": (datetime.date, "required"),
              "section": (str, "optional"), "headline": (str, "optional"), "body": (str, "required")},
    OfficeTerm: {"portfolio": (str, "required"), "start": (datetime.date, "required"),
                 "end": (datetime.date, "required")},
    PoliticianRecord: {"id": (str, "id"), "gender": (str, GENDERS), "given_name": (str, "word"),
                       "surname": (str, "word"), "extra_variants": ([str], "word"),
                       "terms": ([OfficeTerm], "optional")},
}
# each rule a string may fail: its test, and what a string that fails it is
_RULES = {"required": (str.strip, "is blank"), "word": (preprocess.has_word, "holds no word"),
          "id": (lambda v: v.strip() and v.isprintable(), "is blank or not printable")}
_MISSING = object()
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}").fullmatch


def read_date(text: str) -> datetime.date | None:
    """The date a YYYY-MM-DD string names; None for any other string, as from
    Python 3.11 date.fromisoformat also reads "20050615" and "2005-W24-3"."""
    try:
        return datetime.date.fromisoformat(text) if _DATE(text) else None
    except ValueError:  # a day the calendar lacks
        return None


def _reader(name: str, kind, rule):
    """The reader of one row of RECORDS: (the JSON value, or _MISSING where its
    key is left out; where) -> the field's value. A value the row takes passes
    one test; refuse reads a list or an optional string left out, and raises
    the DataError naming the field for every other value."""
    is_list = type(kind) is list
    test, problem = ((rule.__contains__, "is not " + " or ".join(map(repr, rule))) if type(rule) is tuple
                     else _RULES.get(rule, (None, "")))
    expected = ("a list" if is_list else "an object" if kind in RECORDS
                else "an ISO date string" if kind is datetime.date else "a string")

    def refuse(value, where):
        if value is _MISSING and (is_list or rule == "optional"):
            return () if is_list else ""
        if value is _MISSING or value is None:
            raise DataError(f"{'null' if value is None else 'missing'} field {name} {where}")
        if type(value) is str and kind in (str, datetime.date):
            raise DataError(f"field {name} {problem}: {value!r} {where}" if kind is str
                            else f"invalid date {value!r} in field {name} {where}")
        raise DataError(f"field {name} must be {expected}, got {value!r} {where}")

    if is_list:
        read_item = _reader(name, kind[0], rule)
        return lambda value, where: (tuple([read_item(item, where) for item in value]) if type(value) is list
                                     else refuse(value, where))
    if kind in RECORDS:
        return lambda value, where: read_record(kind, value, where) if type(value) is dict else refuse(value, where)
    if kind is datetime.date:
        return lambda value, where: (type(value) is str and read_date(value)) or refuse(value, where)
    return lambda value, where: value if type(value) is str and (test is None or test(value)) else refuse(value, where)


# each record's readers in the order its class takes its fields
_READERS = {cls: tuple((f.name, _reader(f.name, *RECORDS[cls][f.name])) for f in fields(cls)) for cls in RECORDS}


def read_record(cls: type, obj: dict, where: str):
    """A cls made of the JSON object obj by the rows of RECORDS; a field that
    breaks its row is a DataError naming the field and ending with where."""
    values = []
    for name, read in _READERS[cls]:  # a loop: before Python 3.12 a comprehension is a call per record
        values.append(read(obj.get(name, _MISSING), where))
    return cls(*values)


def load_articles(path: str | Path) -> list[Article]:
    """Load articles in input order, rejecting duplicates and bad records."""
    articles: list[Article] = []
    seen: set[str] = set()
    # lines end at "\n" only: str.splitlines would also break at a U+2028 inside a JSON string
    for line_no, line in enumerate(read_lines(path, "article file"), start=1):
        if not line.strip():
            continue
        where = f"at line {line_no}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed record {where}: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise DataError(f"malformed record {where}: not an object")
        art = read_record(Article, obj, where)
        if art.id in seen:
            raise DataError(f"duplicate article id {art.id!r} {where}")
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
    read_id = dict(_READERS[PoliticianRecord])["id"]
    for entry_no, entry in enumerate(doc["politicians"], start=1):
        if not isinstance(entry, dict):
            raise DataError(f"politician entry {entry_no} is not an object")
        # errors name a politician by its id, once the id is read
        rid = read_id(entry.get("id", _MISSING), f"in politician entry {entry_no}")
        where = f"for politician {rid!r}"
        record = read_record(PoliticianRecord, entry, where)
        if record.id in seen:
            raise DataError(f"duplicate politician id {record.id!r}")
        seen.add(record.id)
        for term in record.terms:
            if term.start >= term.end:
                raise DataError(f"term start {term.start} not before end {term.end} {where}")
        terms = sorted(record.terms, key=lambda t: (t.start, t.end))
        for prev, cur in zip(terms, terms[1:]):
            if cur.start < prev.end:
                raise DataError(f"overlapping terms {where}: {prev.start}..{prev.end} and {cur.start}..{cur.end}")
        records.append(replace(record, terms=tuple(terms)))
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
