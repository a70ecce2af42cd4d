"""Concordance lines and time-normalized mention rates.

Shows the qualitative half of the toolkit: keyword-in-context lines for
a term of interest, counts per coverage group, and mention rates scaled
by each group's years in office.

Run with: python demos/03_concordance_and_rates.py
"""

import math

from newsbias import pipeline, synth
from newsbias.corpus import registry_window, total_years
from newsbias.interpret import kwic, rate_ratio, term_count

articles, registry = synth.generate_corpus(
    400,
    balance=0.5,
    planted=(synth.PlantedTerm("husband", 0.03, 0.002),),
    seed=7,
)
# one raw corpus pass over the whole corpus: its stream holds every article's text
raw = pipeline.build_instances(articles, registry, masked=False)
print(f"{len(raw.article_ids)} articles, {raw.mention_sentences.sum()} of "
      f"{len(raw.mention_sentences)} sentences mention a politician\n")

print("=== concordance: 'husband', window 5, female-group articles ===")
for article_id, _, left, keyword, right in kwic(raw, "husband", window=5, group="female")[:8]:
    print(f"{article_id} {' '.join(left):>40s} [{keyword}] {' '.join(right)}")

print("\n=== counts and rates per group ===")
window = registry_window(registry)
stats = {}
for group in ("female", "male"):
    count = term_count(raw, "husband", group)
    years = total_years(registry, group, window)
    stats[group] = count, years
    print(f"{group:6s}: {count:4d} mentions / {years:6.1f} years in office = {count / years:.3f} per year")

ratio = rate_ratio(*stats["female"], *stats["male"])
print(f"\nmention-rate ratio female:male = {ratio:.2f}"
      + (" (denominator count is zero)" if ratio == math.inf else ""))
