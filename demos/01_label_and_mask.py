"""Walk through ingestion, matching, labeling, and masking on a tiny corpus.

Who an article features is read from the corpus scan's owner rows, and the
labeled instances from the columns of one corpus pass.

Run with: python demos/01_label_and_mask.py
"""

import datetime

import numpy as np

from newsbias import pipeline
from newsbias.corpus import (
    GENDERS,
    Article,
    OfficeTerm,
    PoliticianRecord,
    scan_corpus,
    years_in_office,
)
from newsbias.preprocess import FORMS

registry = [
    PoliticianRecord(
        id="harney",
        gender="female",
        given_name="Mary",
        surname="Harney",
        terms=(OfficeTerm("health", datetime.date(2000, 1, 27), datetime.date(2011, 3, 9)),),
    ),
    PoliticianRecord(
        id="cowen",
        gender="male",
        given_name="Brian",
        surname="Cowen",
        terms=(OfficeTerm("finance", datetime.date(2004, 9, 29), datetime.date(2008, 5, 7)),),
    ),
]

articles = [
    Article(
        id="a1",
        source="The Daily Ledger",
        date=datetime.date(2006, 11, 3),
        section="politics",
        headline="Harney defends health budget",
        body=(
            "Minister Mary Harney said she would not reverse the cuts. "
            "Her spokesman insisted the plan was fair, but Brian Cowen "
            "declined to comment on whether he supported it."
        ),
    ),
    Article(
        id="a2",
        source="The Daily Ledger",
        date=datetime.date(2007, 2, 14),
        section="business",
        headline="Budget outlook steady",
        body="The outlook for the budget remains steady, analysts said.",
    ),
]

print("=== matches per article ===")
scan = scan_corpus(articles, registry)
# one owner row per mention and politician whose name variant it is: (mention, politician, form, in headline)
article_of = np.searchsorted(scan.stream.bounds, scan.mentions[:, 0], side="right") - 1
for a, article in enumerate(articles):
    found = {}
    for mention, politician, form, headline in scan.owners.tolist():
        if article_of[mention] == a:
            forms, named = found.get(scan.politicians[politician], ([], False))
            found[scan.politicians[politician]] = (forms + [FORMS[form]], named or bool(headline))
    print(f"{article.id}: {[(pid, forms, named) for pid, (forms, named) in sorted(found.items())]}")

print("\n=== labeled instances ===")
instances = pipeline.build_instances(articles, registry)
texts = instances.stream.texts()
for a, y, headline in zip(instances.article.tolist(), instances.y.tolist(), instances.headline_mention.tolist()):
    print(f"{instances.article_ids[a]} -> {GENDERS[y]} (headline mention: {headline})")
    print("   masked:", " ".join(texts[a].tokens))

print("\n=== years in office (2000-2011 window) ===")
window = (datetime.date(2000, 1, 1), datetime.date(2011, 12, 31))
for record in registry:
    print(f"{record.id}: {years_in_office(record, window):.2f} years")
