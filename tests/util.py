"""Shared builders for test fixtures."""

from __future__ import annotations

import datetime
import json

import numpy as np

from newsbias.corpus import GENDERS, MALE
from newsbias.features import FeatureSpace, FeatureVector
from newsbias.learn import CSR, Dataset


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
