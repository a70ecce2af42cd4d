"""Concordance lines and time-normalized mention rates.

Shows the qualitative half of the toolkit: keyword-in-context lines for
a term of interest, counts per coverage group, and mention rates scaled
by each group's years in office.

Run with: python demos/03_concordance_and_rates.py
"""

from newsbias import pipeline, synth
from newsbias.corpus import registry_window, total_years
from newsbias.interpret import RateStat, kwic, rate_ratio, term_count

articles, registry = synth.generate_corpus(
    400,
    balance=0.5,
    planted=(synth.PlantedTerm("husband", 0.03, 0.002),),
    seed=7,
)
# one query view over the whole corpus pass: its stream holds every article's text
views = pipeline.build_doc_views(articles, registry, masked=False)
print(f"{len(views.article_ids)} articles, {views.mention_sentences.sum()} of "
      f"{len(views.mention_sentences)} sentences mention a politician\n")

print("=== concordance: 'husband', window 5, female-group articles ===")
for line in kwic(views, "husband", window=5, group="female")[:8]:
    left = " ".join(line.left)
    right = " ".join(line.right)
    print(f"{line.article_id} {left:>40s} [{line.keyword}] {right}")

print("\n=== counts and rates per group ===")
window = registry_window(registry)
stats = {}
for group in ("female", "male"):
    count = term_count(views, "husband", group)
    years = total_years(registry, group, window)
    stats[group] = RateStat(term="husband", group=group, count=count, years=years)
    print(f"{group:6s}: {count:4d} mentions / {years:6.1f} years in office = {stats[group].rate:.3f} per year")

ratio = rate_ratio(stats["female"], stats["male"])
print(f"\nmention-rate ratio female:male = {ratio.value:.2f}"
      + (" (denominator count is zero)" if ratio.undefined else ""))
