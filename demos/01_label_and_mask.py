"""Walk through ingestion, matching, labeling, and masking on a tiny corpus.

Run with: python demos/01_label_and_mask.py
"""

import datetime

from newsbias import pipeline
from newsbias.corpus import (
    Article,
    OfficeTerm,
    PoliticianRecord,
    match_politicians,
    years_in_office,
)

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
for article in articles:
    matches = match_politicians(article, registry)
    print(f"{article.id}: {[(m.politician_id, [s.form for s in m.spans], m.headline_mention) for m in matches]}")

print("\n=== labeled instances ===")
for inst in pipeline.build_instances(articles, registry):
    print(f"{inst.article_id} -> {inst.label} (headline mention: {inst.headline_mention})")
    print("   masked:", " ".join(t.surface for t in inst.stream.tokens))

print("\n=== years in office (2000-2011 window) ===")
window = (datetime.date(2000, 1, 1), datetime.date(2011, 12, 31))
for record in registry:
    print(f"{record.id}: {years_in_office(record, window):.2f} years")
