"""Corpus analytics for auditing gender balance in political news coverage.

The package labels articles by the gender of the politicians they
feature, masks surface gender signals, trains interpretable classifiers
to measure how separable the two groups' language is, and supports
concordance and time-normalized frequency analysis of the findings.
"""

__version__ = "0.1.0"
