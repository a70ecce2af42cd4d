"""Shared builders for test fixtures."""

from __future__ import annotations

import datetime
import json
import math
from collections import Counter
from itertools import repeat

import numpy as np

from newsbias import features
from newsbias.corpus import GENDERS, MALE, Instances
from newsbias.features import FeatureSpace, FeatureVector
from newsbias.learn import CSR, Dataset
from newsbias.preprocess import FORMS, TokenStream, Vocab, sentences_holding


def make_space(n: int, kind: str = "unigram", n_docs: int = 10) -> FeatureSpace:
    entries = tuple(f"f{i:03d}" for i in range(n))
    return FeatureSpace(
        kind=kind,
        entries=entries,
        index={e: i for i, e in enumerate(entries)},
        doc_freq=(1,) * n,
        n_docs=n_docs,
    )


def make_vec(pairs, representation: str = "boolean") -> FeatureVector:
    pairs = sorted(pairs)
    return FeatureVector(
        ids=tuple(i for i, _ in pairs),
        values=tuple(float(v) for _, v in pairs),
        representation=representation,
    )


def pack(vectors, labels, space: FeatureSpace) -> Dataset:
    """One CSR row per vector, labelled 0 (female) or 1 (male); boolean
    only when every vector is (or there are none)."""
    assert len(vectors) == len(labels) and set(labels) <= set(GENDERS)
    representation = next((v.representation for v in vectors if v.representation != "boolean"), "boolean")
    indptr = np.concatenate(([0], np.cumsum([len(v) for v in vectors]))).astype(np.int64)
    indices = np.array([i for v in vectors for i in v.ids], dtype=np.int32)
    if representation == "boolean":
        data = np.broadcast_to(1.0, len(indices))
    else:
        data = np.array([x for v in vectors for x in v.values], dtype=np.float64)
    y = np.array([label == MALE for label in labels], dtype=np.int8)
    return Dataset(CSR(indptr, indices, data, representation), y, space, np.arange(len(y)))


def make_dataset(rows, n_features: int, representation: str = "boolean") -> Dataset:
    """rows: list of (feature-id list or (id, value) pairs, label)."""
    vectors = []
    labels = []
    for ids, label in rows:
        pairs = [(i, 1.0) if isinstance(i, int) else i for i in ids]
        vectors.append(make_vec(pairs, representation))
        labels.append(label)
    return pack(vectors, labels, make_space(n_features))


# --- datasets instance by instance: the reference the one-pass dataset equals ---

def space_of(term_multisets, min_df: int = features.DEFAULT_MIN_DF, *, kind: str) -> FeatureSpace:
    """The space of one term multiset per document: each term's document frequency counted over them."""
    return features.build_space(Counter(term for terms in term_multisets for term in terms), len(term_multisets),
                                min_df, kind=kind)


def from_terms(terms, space: FeatureSpace, representation: str) -> CSR:
    """One row per multiset of surfaces, the row vectorize gives it: ids in
    increasing order, terms outside the space ignored, entries <= 0 dropped."""
    get, outside = space.index.get, repeat(-1)
    weighted = representation != "boolean"
    lengths, indices, counts = [], [], []
    for row in terms:
        ids = list(map(get, row, outside))  # a term outside the space takes id -1
        if weighted:
            count_of = dict(zip(ids, row.values()))
        ids.sort()
        del ids[:ids.count(-1)]  # the -1s sort first
        lengths.append(len(ids))
        indices += ids
        if weighted:
            counts += map(count_of.__getitem__, ids)
    indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    indices = np.array(indices, dtype=np.int32)
    if not weighted:
        return CSR(indptr, indices, np.broadcast_to(1.0, len(indices)), representation)
    data = np.array(counts, dtype=np.float64)
    if representation == "tfidf":
        # one math.log per feature, as vectorize takes it, times the count
        data *= np.array([math.log(space.n_docs / df) for df in space.doc_freq])[indices]
    keep = data > 0
    if not keep.all():
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
        indices, data = indices[keep], data[keep]
    return CSR(indptr, indices, data, representation)


def instances_of(labeled) -> Instances:
    """Labeled instances as one corpus pass, each over an article of its own: their
    streams laid end to end over one vocabulary, with their sentences, of which
    those holding a marker mention a politician."""
    vocab = Vocab()
    texts = [np.fromiter(map(vocab.id, inst.stream.tokens), np.int32, len(inst.stream)) for inst in labeled]
    bounds = np.concatenate(([0], np.cumsum([len(text) for text in texts], dtype=np.int64)))
    ends = [inst.stream.ends + start for inst, start in zip(labeled, bounds.tolist())]
    stream = TokenStream(vocab, np.concatenate([np.zeros(0, np.int32), *texts]), bounds,
                         np.concatenate([np.zeros(0, np.int64), *ends]))
    return Instances(tuple(inst.article_id for inst in labeled), tuple(inst.section for inst in labeled), stream,
                     np.arange(len(labeled)), np.array([GENDERS.index(inst.label) for inst in labeled], np.int8),
                     tuple(inst.politician_ids for inst in labeled),
                     np.array([inst.headline_mention for inst in labeled], bool),
                     sentences_holding(stream, np.flatnonzero(stream.ids < len(FORMS))))


def write_articles(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def write_registry(path, politicians) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"politicians": politicians}, fh)


def article_row(
    id: str,
    body: str,
    headline: str = "",
    date: str = "2005-06-15",
    source: str = "The Daily Ledger",
    section: str = "news",
) -> dict:
    return {
        "id": id,
        "source": source,
        "date": date,
        "section": section,
        "headline": headline,
        "body": body,
    }


def politician(
    id: str,
    gender: str,
    given: str,
    surname: str,
    terms=None,
    extra=None,
) -> dict:
    return {
        "id": id,
        "gender": gender,
        "given_name": given,
        "surname": surname,
        "extra_variants": list(extra or []),
        "terms": [
            {"portfolio": p, "start": s, "end": e} for p, s, e in (terms or [])
        ],
    }


def days_after(start: str, days: int) -> str:
    d = datetime.date.fromisoformat(start) + datetime.timedelta(days=days)
    return d.isoformat()


# --- the front end token by token: the reference the batch front end equals ---

def ref_tokens(text: str) -> list[str]:
    """The tokenizer as a plain scan of its pattern: only punctuation keeps its case."""
    from newsbias import preprocess

    return [m.group() if m.lastgroup == preprocess.PUNCT else m.group().lower()
            for m in preprocess._TOKEN_RE.finditer(text)]


def ref_split(tokens: list[str]) -> list[tuple[int, int]]:
    """Sentence spans of one text: a run of . ! ? closes a sentence, unless it
    is a lone "." after an abbreviation; the text's end closes the last."""
    from newsbias.preprocess import DEFAULT_ABBREVIATIONS

    spans, start, i, n = [], 0, 0, len(tokens)
    while i < n:
        if tokens[i] in (".", "!", "?"):
            run_start = i
            while i + 1 < n and tokens[i + 1] in (".", "!", "?"):
                i += 1
            guarded = (i == run_start and tokens[i] == "." and run_start > 0
                       and tokens[run_start - 1] in DEFAULT_ABBREVIATIONS)
            if not guarded:
                spans.append((start, i + 1))
                start = i + 1
        i += 1
    if start < n:
        spans.append((start, n))
    return spans


def ref_scan(registry, tokens: list[str]) -> list[tuple[int, int, list[tuple[str, str]]]]:
    """Leftmost-longest mentions of one text, trying every position: (start, end, owners)."""
    from newsbias import corpus

    entries: dict = {}
    for record in registry:
        for tt, form in corpus.name_variants(record):
            entries.setdefault(tt, []).append((record.id, form))
    longest = max(map(len, entries), default=0)
    out, i, n = [], 0, len(tokens)
    while i < n:
        for length in range(min(longest, n - i), 0, -1):
            owners = entries.get(tuple(tokens[i : i + length]))
            if owners:
                out.append((i, i + length, sorted(owners)))
                i += length
                break
        else:
            i += 1
    return out


def ref_article(article, registry) -> dict:
    """One article's raw tokens and sentence spans (headline then body), its
    mentions (start, end, form) and, per politician id, its (start, end, form)
    spans and whether one lies in the headline."""
    head, body = ref_tokens(article.headline), ref_tokens(article.body)
    shift = len(head)
    spans = ref_split(head) + [(s + shift, e + shift) for s, e in ref_split(body)]
    hits = ref_scan(registry, head) + [(s + shift, e + shift, o) for s, e, o in ref_scan(registry, body)]
    matches: dict = {}
    for start, end, owners in hits:
        for rid, form in owners:
            spans_of, in_headline = matches.get(rid, ([], False))
            matches[rid] = (spans_of + [(start, end, form)], in_headline or start < shift)
    # the most specific form claiming a span names its marker
    priority = {"full": 0, "surname": 1, "given": 2}
    mentions = [(s, e, min((f for _, f in o), key=priority.__getitem__)) for s, e, o in hits]
    return {"tokens": head + body, "spans": spans, "mentions": mentions, "matches": matches}


def ref_sentences(spans, positions) -> frozenset[int]:
    return frozenset(idx for idx, (s, e) in enumerate(spans) if any(s <= p < e for p in positions))


def ref_mask(tokens, spans, mentions, dropped, apply_stem: bool):
    """Each mention collapsed to its marker and the dropped words deleted, one
    token at a time, then words stemmed when asked: (tokens, spans)."""
    from newsbias import porter
    from newsbias.preprocess import MARKER_FOR_FORM, WORD, kind_of

    marker_at = {start: (end, form) for start, end, form in mentions}
    out, new_pos, i, n = [], [0] * (len(tokens) + 1), 0, len(tokens)
    while i < n:
        new_pos[i] = len(out)
        if i in marker_at:
            end, form = marker_at[i]
            out.append(MARKER_FOR_FORM[form])
            for j in range(i + 1, end):
                new_pos[j] = len(out) - 1
            i = end
            continue
        if not (tokens[i] in dropped and kind_of(tokens[i]) == WORD):
            out.append(tokens[i])
        i += 1
    new_pos[n] = len(out)
    if apply_stem:
        out = [porter.stem(t) if kind_of(t) == WORD else t for t in out]
    return out, [(new_pos[s], new_pos[e]) for s, e in spans if new_pos[e] > new_pos[s]]


# --- queries article by article: the reference the one-pass kwic and term_count equal ---

def per_article(instances: Instances) -> list[tuple]:
    """Each article of a corpus pass as (article id, its own stream, the genders
    it has an instance of, the indices of its sentences that mention a politician)."""
    stream = instances.stream
    cuts = np.searchsorted(stream.ends, stream.bounds, side="right").tolist()
    groups = [set() for _ in instances.article_ids]
    for a, y in zip(instances.article.tolist(), instances.y.tolist()):
        groups[a].add(GENDERS[y])
    return [(aid, text, frozenset(groups[i]),
             frozenset(np.flatnonzero(instances.mention_sentences[cuts[i]:cuts[i + 1]]).tolist()))
            for i, (aid, text) in enumerate(zip(instances.article_ids, stream.texts()))]


def ref_kwic(views, surface: str, window: int, group=None, cooccur: bool = False) -> list[tuple]:
    """Concordance lines found one article at a time, each over its own stream,
    in (article id, position) order: (article id, position, left, keyword, right)."""
    from newsbias.preprocess import sentence_ids

    lines = []
    for aid, text, groups, mentions in sorted(per_article(views), key=lambda doc: doc[0]):
        if group is not None and group not in groups:
            continue
        tokens = text.tokens
        hits = [i for i, tok in enumerate(tokens) if tok == surface]
        if cooccur:
            hits = [i for i, sent in zip(hits, sentence_ids(text, hits).tolist()) if sent in mentions]
        lines.extend((aid, i, tokens[max(0, i - window):i], surface, tokens[i + 1:i + 1 + window]) for i in hits)
    return lines


def ref_term_count(views, surface: str, group=None) -> int:
    return len(ref_kwic(views, surface, 1, group))


# --- the svm solver with one array per cut: the reference the one-array cut store equals ---

def ref_cutting_planes(dataset: Dataset, lam: float):
    """learn._cutting_planes with the cuts held in a list: each Gram row one
    dot product per cut, the Gram matrix and offsets rebuilt per cut, and the
    model summed cut by cut from zeros. Yields the same (point, objective,
    lower) triples."""
    from newsbias.learn import _CUT_STEP, _dot, _line_search, _row_sums, _simplex_qp

    csr, rows = dataset.csr, dataset.rows
    n, dim = len(rows), len(dataset.space)
    entries, lengths = csr.gather(rows)
    ids = csr.indices[entries]
    values = None if csr.representation == "boolean" else csr.data[entries]
    ys = np.where(dataset.y[rows] == 0, 1.0, -1.0)

    def margins(w):
        products = w[ids]
        if values is not None:
            products *= values
        return ys * (_row_sums(products, lengths) + w[-1])

    def cut(violated):
        coef = np.where(violated, -ys / n, 0.0)
        per_entry = np.repeat(coef, lengths)
        if values is not None:
            per_entry *= values
        return np.append(np.bincount(ids, per_entry, dim), coef.sum()), int(violated.sum()) / n

    best, at_best = np.zeros(dim + 1), np.zeros(n)
    first, offset = cut(at_best < 1)
    cuts, offsets = [first], np.array([0.0, offset])
    gram, alpha = np.array([[0.0, 0.0], [0.0, _dot(first, first)]]), np.array([0.0, 1.0])
    while True:
        alpha = _simplex_qp(gram, offsets, lam, alpha)
        model = sum((alpha[t] * cuts[t - 1] for t in np.flatnonzero(alpha) if t), np.zeros(dim + 1))
        model *= -1.0 / lam
        lower = _dot(alpha, offsets) - 0.5 * _dot(np.outer(alpha, alpha), gram) / lam
        at_model = margins(model)
        k = _line_search(lam, best, model - best, at_best, at_model)
        best = best + k * (model - best)
        at_best = at_best + k * (at_model - at_best)
        objective = 0.5 * lam * _dot(best, best) + float(np.maximum(0.0, 1.0 - at_best).sum()) / n
        yield best, objective, lower
        new, offset = cut((1 - _CUT_STEP) * at_best + _CUT_STEP * at_model < 1)
        row = np.array([0.0] + [_dot(c, new) for c in cuts])
        cuts.append(new)
        offsets = np.append(offsets, offset)
        gram = np.block([[gram, row[:, None]], [row[None, :], np.array([[_dot(new, new)]])]])
        alpha = np.append(alpha, 0.0)
