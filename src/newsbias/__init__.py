"""Corpus analytics for auditing gender balance in political news coverage.

The package labels articles by the gender of the politicians they
feature, masks surface gender signals, trains interpretable classifiers
to measure how separable the two groups' language is, and supports
concordance and time-normalized frequency analysis of the findings.
"""

__version__ = "0.1.0"

from .corpus import (
    Article,
    Instances,
    LabeledInstance,
    OfficeTerm,
    PoliticianRecord,
    load_articles,
    load_registry,
    match_politicians,
    years_in_office,
)
from .errors import ConfigError, DataError, InvariantError, NewsbiasError
from .features import (
    FeatureSpace,
    FeatureVector,
    LexiconSet,
    PosLexicon,
    build_space,
    extract_terms,
    load_lexicon,
    load_pos_lexicon,
    vectorize,
)
from .interpret import (
    ConcordanceLine,
    RankedFeatures,
    RateRatio,
    RateStat,
    kwic,
    rank_features,
    rate_ratio,
    term_count,
)
from .learn import (
    BayesModel,
    CVReport,
    Dataset,
    LinearModel,
    TreeModel,
    cross_validate,
    majority_baseline,
    predict,
    stratified_folds,
    train_nb,
    train_svm,
    train_tree,
    undersample,
)
from .preprocess import (
    TokenStream,
    mask_gender_signals,
    remove_stopwords,
    split_sentences,
    stem,
    tokenize,
)
