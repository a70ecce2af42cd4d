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
from newsbias.errors import DataError
from newsbias.features import FeatureSpace, FeatureVector
from newsbias.learn import CSR, BayesModel, Dataset, _nb_joint
from newsbias.preprocess import FORMS, MARKER, WORD, TokenStream, Vocab, kind_of, sentences_holding, tokenize
from newsbias.rng import Rng


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


def nb_log_posterior(model: BayesModel, vector: FeatureVector) -> dict[str, float]:
    """Normalized log P(class | vector) for both classes, from the joint probabilities predict reads."""
    ids, values = np.array(vector.ids, dtype=np.intp), np.array(vector.values)
    joint = _nb_joint(model, ids, values, np.array([len(ids)]))[0]
    m = float(joint.max())
    norm = m + math.log(float(np.exp(joint - m).sum()))
    return {g: float(joint[i] - norm) for i, g in enumerate(GENDERS)}


# --- folds as lists: the reference the fold plan equals ---

def ref_folds(labels, k: int, seed: int) -> list[list[int]]:
    """k sorted lists of row positions over string labels, dealt list by list: each
    class's positions are shuffled with the seeded generator (females first, males
    second, one shared stream) and appended to the folds round-robin."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = Rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in GENDERS:
        idx = [i for i, lab in enumerate(labels) if lab == label]
        if len(idx) < k:
            raise DataError(f"class {label!r} has {len(idx)} members, fewer than k={k}")
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[pos % k].append(i)
    return [sorted(f) for f in folds]


def folds_of(plan: np.ndarray) -> list[list[int]]:
    """The rows of each fold of a fold plan, fold 0 up to its largest fold id."""
    return [np.flatnonzero(plan == fold).tolist() for fold in range(int(plan.max()) + 1)]


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


def instances_of(streams, labels) -> Instances:
    """One unstemmed corpus pass of one instance per stream and label, each over
    an article of its own (ids a0, a1, ..., no section, featuring politician "p",
    not in a headline): the streams laid end to end over one vocabulary, with
    their sentences, of which those holding a marker mention a politician."""
    vocab = Vocab()
    texts = [np.fromiter(map(vocab.id, text.tokens), np.int32, len(text)) for text in streams]
    bounds = np.concatenate(([0], np.cumsum([len(text) for text in texts], dtype=np.int64)))
    ends = [text.ends + start for text, start in zip(streams, bounds.tolist())]
    stream = TokenStream(vocab, np.concatenate([np.zeros(0, np.int32), *texts]), bounds,
                         np.concatenate([np.zeros(0, np.int64), *ends]))
    return Instances(tuple(f"a{i}" for i in range(len(texts))), ("",) * len(texts),
                     (datetime.date(2005, 1, 1),) * len(texts), stream, np.arange(len(texts)),
                     np.array([GENDERS.index(label) for label in labels], np.int8), (("p",),) * len(texts),
                     np.zeros(len(texts), bool), sentences_holding(stream, np.flatnonzero(stream.ids < len(FORMS))),
                     False)


def ref_terms(text: TokenStream, section: str, scheme: str, *, window: str = "article",
              pos_lexicon=None, lexicon=None) -> Counter:
    """One text's terms under a scheme, token by token: the multiset features.count_terms
    counts for a text whose article's section is section."""
    if scheme == features.SECTION:
        section = section.strip()
        return Counter({section: 1}) if section else Counter()
    tokens = text.tokens
    if window == "sentence" and text.sentence_spans:
        tokens = [tok for s, e in text.sentence_spans if MARKER in map(kind_of, tokens[s:e]) for tok in tokens[s:e]]
    wanted = {features.UNIGRAM: (WORD, MARKER), features.NAMEFORM: (MARKER,)}.get(scheme, (WORD,))
    counts = Counter(tok for tok in tokens if kind_of(tok) in wanted)
    if scheme in (features.UNIGRAM, features.NAMEFORM):
        return counts
    if scheme in (features.ADJECTIVE, features.VERB):
        tag = "ADJ" if scheme == features.ADJECTIVE else "VERB"
        return Counter({tok: n for tok, n in counts.items() if pos_lexicon.primary.get(tok) == tag})
    return +Counter({category: sum(counts[tok] for tok in words) for category, words in lexicon.categories.items()})


def terms_of(instances: Instances, scheme: str, **kwargs) -> list[Counter]:
    """Each instance's terms as ref_terms counts them in its article's text and section."""
    texts = instances.stream.texts()
    return [ref_terms(texts[a], instances.sections[a], scheme, **kwargs) for a in instances.article.tolist()]


def mention_rows(spans) -> np.ndarray:
    """(start, end, form) spans as the masker reads mentions: (start, end, index of the form in FORMS) int rows."""
    return np.array([(start, end, FORMS.index(form)) for start, end, form in spans], np.int64).reshape(-1, 3)


def matches(scan) -> list[dict]:
    """A corpus scan's owner rows read back article by article: each politician id
    the article names, in id order, with the (start, end, form) spans over the
    article's text that name it and whether one of them lies in the headline."""
    starts = scan.stream.bounds.tolist()
    article = (np.searchsorted(scan.stream.bounds, scan.mentions[:, 0], side="right") - 1).tolist()
    found = [{} for _ in scan.articles]
    for m, p, form, headline in scan.owners.tolist():
        a, (start, end) = article[m], scan.mentions[m, :2].tolist()
        spans, named = found[a].get(scan.politicians[p], ([], False))
        found[a][scan.politicians[p]] = (spans + [(start - starts[a], end - starts[a], FORMS[form])],
                                         named or bool(headline))
    return [dict(sorted(names.items())) for names in found]


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


def ref_word(text: str) -> str | None:
    """The word a word field names, read by a whole tokenize: its one token when that is a word, else None."""
    stream = tokenize(text)
    return stream.tokens[0] if len(stream) == 1 and stream.vocab.kinds[stream.ids[0]] == WORD else None


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


def ref_portfolio_count(articles, registry, texts, surface: str, group: str, portfolio: str) -> int:
    """Occurrences of the surface in each article's text (texts, in article order) that
    names a politician of the group who, on the article's date, was in a term in the
    portfolio: start <= date < end, checked article by article over the scan's matches."""
    from newsbias.corpus import scan_corpus

    records = {record.id: record for record in registry}
    return sum(text.tokens.count(surface)
               for article, text, names in zip(articles, texts, matches(scan_corpus(articles, registry)))
               if any(records[p].gender == group and term.portfolio == portfolio
                      and term.start <= article.date < term.end for p in names for term in records[p].terms))


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
