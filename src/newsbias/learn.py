"""Classifier training and stratified cross-validated evaluation.

Three model families are implemented from first principles so that
every quantity is inspectable: a linear SVM on the hinge loss fit by
cutting planes (OCAS), Naive Bayes in Bernoulli and multinomial
variants, and a C4.5-flavoured decision tree over presence/absence
splits. Evaluation is stratified k-fold cross-validation with optional
under-sampling of the training portion.

Determinism: no learner draws random numbers; the randomized steps
(fold shuffles and under-sampling) key off an explicit 64-bit seed via
the generators in newsbias.rng. cross_validate derives its sub-seeds
from the master seed with SplitMix64 in a fixed layout (fold shuffle
first, then two per fold: the under-sampling seed and one no learner
reads, kept so the under-sampling seeds stay where they have always
been), so a report is byte-for-byte reproducible.

Ties (zero scores, equal posteriors, equal leaf counts) always resolve
to "female", the lexicographically smaller label.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .corpus import FEMALE, GENDERS, MALE
from .errors import ConfigError, DataError
from .features import REPRESENTATIONS, FeatureSpace, FeatureVector
from .rng import Rng, derive_seeds

DEFAULT_SVM_LAMBDA = 1e-4
DEFAULT_SVM_EPOCHS = 20
DEFAULT_NB_ALPHA = 1.0
DEFAULT_TREE_MAX_DEPTH = 10
DEFAULT_TREE_MIN_LEAF = 2

# an svm fit stops once its certified relative gap is this small
SVM_GAP_TOLERANCE = 1e-3
# how far on from the best point, towards the model's minimiser, each new cut is placed
_CUT_STEP = 0.1

# the vector representations each classifier accepts
ACCEPTS = {"svm": REPRESENTATIONS, "nb-bernoulli": ("boolean",),
           "nb-multinomial": ("boolean", "count"), "tree": ("boolean",)}
CLASSIFIERS = tuple(ACCEPTS)

# guards against float noise masquerading as information gain
_GAIN_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class CSR:
    """Sparse rows: row r has ids indices[indptr[r]:indptr[r + 1]], values the same slice of data.

    For boolean vectors, data is a read-only broadcast of 1.0 that takes no memory.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    representation: str

    @classmethod
    def from_vectors(cls, vectors: Sequence[FeatureVector]) -> "CSR":
        """Pack vectors; boolean only when every vector is (or there are none)."""
        representation = next((v.representation for v in vectors if v.representation != "boolean"), "boolean")
        indptr = np.concatenate(([0], np.cumsum([len(v.ids) for v in vectors], dtype=np.int64)))
        nnz = int(indptr[-1])
        indices = np.fromiter(chain.from_iterable(v.ids for v in vectors), np.int32, nnz)
        if representation == "boolean":
            return cls(indptr, indices, np.broadcast_to(1.0, nnz), representation)
        data = np.fromiter(chain.from_iterable(v.values for v in vectors), np.float64, nnz)
        return cls(indptr, indices, data, representation)

    @cached_property
    def vectors(self) -> tuple[FeatureVector, ...]:
        """One FeatureVector per row, made on first read; like vectorize's rows,
        they share one int object per feature id and the one 1.0."""
        ids = np.arange(self.indices.max(initial=-1) + 1).astype(object)[self.indices].tolist()
        values = [1.0] * len(ids) if self.representation == "boolean" else self.data.tolist()
        bounds = self.indptr.tolist()
        return tuple(FeatureVector(tuple(ids[a:b]), tuple(values[a:b]), self.representation)
                     for a, b in zip(bounds, bounds[1:]))

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the given rows' entries, row after row, and the rows' lengths."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        ends = np.cumsum(lengths)
        entries = np.repeat(starts - (ends - lengths), lengths)
        entries += np.arange(len(entries))
        return entries, lengths


def _row_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of values, one run per row of the given length."""
    sums = np.zeros(len(lengths))
    # an empty row has no run: reduceat would hand it its successor's first value
    nonempty = np.flatnonzero(lengths)
    if len(nonempty):
        sums[nonempty] = np.add.reduceat(values, (np.cumsum(lengths) - lengths)[nonempty])
    return sums


def _check_range(indices: np.ndarray, n_features: int) -> None:
    bad = indices[(indices < 0) | (indices >= n_features)]
    if len(bad):
        raise ValueError(f"vector id {bad.max()} out of range for {n_features} features")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of one CSR over one feature space, labelled 0 (female) or 1 (male) in y.

    A subset shares its parent's csr and y and holds other row ids.
    """

    csr: CSR
    y: np.ndarray
    space: FeatureSpace
    rows: np.ndarray

    def __post_init__(self):
        if len(self.rows) < 2:
            raise ValueError("a dataset needs at least two instances")

    @classmethod
    def pack(cls, vectors: Sequence[FeatureVector], labels: Sequence[str], space: FeatureSpace) -> "Dataset":
        """One row per vector, its ids checked against the space here, once."""
        if len(vectors) != len(labels) or not set(labels) <= set(GENDERS):
            raise ValueError(f"vectors need one label each, of {GENDERS}")
        csr = CSR.from_vectors(vectors)
        _check_range(csr.indices, len(space))
        y = np.array([label == MALE for label in labels], dtype=np.int8)
        return cls(csr, y, space, np.arange(len(y)))

    def __len__(self) -> int:
        return len(self.rows)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """The given rows of this dataset, over the same CSR."""
        return Dataset(self.csr, self.y, self.space, self.rows[np.asarray(indices, dtype=np.intp)])

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(GENDERS[label] for label in self.y[self.rows].tolist())

    @property
    def vectors(self) -> tuple[FeatureVector, ...]:
        """This dataset's rows of the CSR's one per-row view, shared by every subset."""
        view = self.csr.vectors
        return tuple(view[row] for row in self.rows.tolist())

    def class_counts(self) -> dict[str, int]:
        n_male = int(self.y[self.rows].sum())
        return {FEMALE: len(self) - n_male, MALE: n_male}


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Dense linear separator; scores > 0 (and exact ties) mean female.

    A fit records its objective after each iteration, how many iterations
    it ran and the certified relative gap it stopped at.
    """

    weights: np.ndarray
    bias: float
    positive_class: str = FEMALE
    epoch_objectives: tuple[float, ...] = ()
    iterations: int = 0
    gap: float = math.inf


@dataclass(frozen=True, eq=False)
class BayesModel:
    variant: str
    class_log_prior: np.ndarray          # aligned with GENDERS
    feature_log_prob: np.ndarray         # (2, V): log P(feature | class)
    absent_log_prob: np.ndarray | None   # (2, V): bernoulli only
    alpha: float
    n_features: int


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature split) or leaf (feature is None)."""

    n_female: int
    n_male: int
    feature: int | None = None
    present: "TreeNode | None" = None
    absent: "TreeNode | None" = None

    @property
    def label(self) -> str:
        return FEMALE if self.n_female >= self.n_male else MALE


@dataclass(frozen=True)
class TreeModel:
    root: TreeNode
    max_depth: int
    min_leaf: int
    n_features: int


@dataclass(frozen=True)
class CVReport:
    """Per-fold accuracies plus an aggregate confusion matrix; for the svm,
    also each fold's iteration count and certified gap."""

    per_fold_accuracy: tuple[float, ...]
    mean_accuracy: float
    confusion: dict
    seed: int
    descriptor: str
    n_instances: int
    per_fold_fit: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        report = {**asdict(self), "per_fold_accuracy": list(self.per_fold_accuracy),
                  "per_fold_fit": list(self.per_fold_fit)}
        if not self.per_fold_fit:
            del report["per_fold_fit"]
        return report


def undersample(dataset: Dataset, seed: int) -> Dataset:
    """Balance classes by uniform down-sampling of the majority class.

    The minority class is kept whole; the surviving subset preserves
    dataset order, so the result is a sub-multiset of the input and is
    identical for identical seeds.
    """
    labels = dataset.y[dataset.rows]
    n_male = int(labels.sum())
    if n_male in (0, len(labels)):
        raise DataError("undersample needs both classes present")
    if 2 * n_male == len(labels):
        return dataset
    minority = int(2 * n_male < len(labels))
    keep = labels == minority
    majority_idx = np.flatnonzero(~keep)
    keep[majority_idx[Rng(seed).sample_indices(len(majority_idx), int(keep.sum()))]] = True
    return dataset.subset(np.flatnonzero(keep))


def stratified_folds(dataset: Dataset, k: int, seed: int) -> list[list[int]]:
    """Partition indices into k folds with per-fold class counts within 1 of proportional.

    Each class's indices are shuffled with the seeded generator (females
    first, males second, one shared stream) and dealt round-robin.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = Rng(seed)
    labels = dataset.y[dataset.rows]
    folds: list[list[int]] = [[] for _ in range(k)]
    for code, label in enumerate(GENDERS):
        idx = np.flatnonzero(labels == code).tolist()
        if len(idx) < k:
            raise DataError(f"class {label!r} has {len(idx)} members, fewer than k={k}")
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[pos % k].append(i)
    return [sorted(f) for f in folds]


def svm_objective(
    weights: np.ndarray, bias: float, dataset: Dataset, lam: float
) -> float:
    """Regularized hinge objective: lam/2 ||w||^2 + mean hinge loss."""
    csr, labels, rows = dataset.csr, dataset.y, dataset.rows
    products = weights[csr.indices]
    products *= csr.data
    margins = _row_sums(products, np.diff(csr.indptr))[rows] + bias
    hinge = np.maximum(0.0, 1.0 - np.where(labels[rows] == 0, 1.0, -1.0) * margins)
    return 0.5 * lam * float(weights @ weights) + float(hinge.sum()) / len(dataset)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b by numpy's own summation, whose order, unlike BLAS's, does
    not depend on how many threads BLAS runs."""
    return float(np.multiply(a, b).sum())


def _simplex_qp(gram: np.ndarray, offsets: np.ndarray, lam: float, alpha: np.ndarray) -> np.ndarray:
    """argmax over the simplex of offsets @ a - a @ gram @ a / (2 lam), by a
    primal active-set method started from the feasible alpha.

    A ridge of 1e-10 of gram's largest diagonal keeps every working-set
    system solvable when cuts are linearly dependent; the answer is always
    on the simplex, so the dual value it gives is a valid lower bound.
    """
    q = gram + np.eye(len(gram)) * max(1e-10 * float(gram.diagonal().max()), 1e-300)
    r = lam * offsets
    tol = 1e-12 * max(float(q.diagonal().max()), float(np.abs(r).max()))
    alpha, free = alpha.copy(), alpha > 0
    # capped against cycling on degenerate cuts: every alpha on the way is feasible
    for _ in range(4 * len(alpha) + 20):
        on = np.flatnonzero(free)
        kkt = np.zeros((len(on) + 1, len(on) + 1))
        kkt[:-1, :-1] = q[np.ix_(on, on)]
        kkt[:-1, -1] = -1.0
        kkt[-1, :-1] = 1.0
        solution = np.linalg.solve(kkt, np.append(r[on], 1.0))
        target, level = solution[:-1], solution[-1]
        if (target >= 0).all():
            alpha = np.zeros(len(alpha))
            alpha[on] = target
            # a zero coordinate may enter when its multiplier is negative
            multipliers = (q * alpha).sum(axis=1) - r - level
            multipliers[on] = np.inf
            enter = int(np.argmin(multipliers))
            if multipliers[enter] >= -tol:
                break
            free[enter] = True
        else:
            # step towards the target until the first coordinate reaches zero, and fix it there
            step = target - alpha[on]
            shrinking = np.flatnonzero(step < 0)
            ratios = alpha[on][shrinking] / -step[shrinking]
            leave = int(np.argmin(ratios))
            alpha[on] += ratios[leave] * step
            alpha[on[shrinking[leave]]] = 0.0
            free[on[shrinking[leave]]] = False
    alpha = np.maximum(alpha, 0.0)
    return alpha / alpha.sum()


def _line_search(lam: float, w: np.ndarray, direction: np.ndarray,
                 margins: np.ndarray, towards: np.ndarray) -> float:
    """The k in [0, 1] minimising lam/2 ||w + k direction||^2 + mean(max(0, 1 - m - k (t - m))),
    m the margins at w and t those at w + direction (towards).

    The slope in k is non-decreasing and jumps at each hinge's breakpoint,
    so its root is found with one sort of the breakpoints. Stopping at 1,
    the model's minimiser, bounds how far rounding in the step can grow.
    """
    n = len(margins)
    change = towards - margins
    curvature = lam * _dot(direction, direction)
    active = (margins < 1) | ((margins == 1) & (change < 0))
    start = lam * _dot(w, direction) - float(change[active].sum()) / n  # the slope just right of 0
    if start >= 0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        breaks = (1.0 - margins) / change
    at = np.flatnonzero((change != 0) & (breaks > 0) & (breaks < 1))
    order = np.argsort(breaks[at], kind="stable")
    points, jumps = breaks[at][order], np.abs(change[at][order]) / n
    # the slope less curvature * k, between each breakpoint and the one before it
    before = start + np.concatenate(([0.0], np.cumsum(jumps)))
    after = before[1:] + curvature * points  # the slope just right of each breakpoint
    j = int(np.argmax(after >= 0)) if len(points) and after[-1] >= 0 else len(points)
    if j < len(points) and before[j] + curvature * points[j] <= 0:
        return float(points[j])
    if before[j] + curvature >= 0:
        return -float(before[j]) / curvature
    return 1.0


def _cutting_planes(dataset: Dataset, lam: float) -> Iterator[tuple[np.ndarray, float, float]]:
    """OCAS (Franc & Sonnenburg, JMLR 2009) on lam/2 (||w||^2 + b^2) + mean hinge loss.

    The bias is the weight of a constant feature 1 appended to every row.
    Each iteration minimises the cutting-plane model of the hinge loss
    (a small QP over the cuts so far, warm-started), searches the line
    from the best point towards that minimiser exactly, and adds the cut
    at a point a tenth of the way on from the new best point. That costs
    one sparse X @ w and one X.T @ v (a bincount) per iteration. Yields,
    per iteration, the best point so far (weights with the bias last),
    its objective, and the QP's dual value: a lower bound on the minimum.
    """
    csr, rows = dataset.csr, dataset.rows
    n, dim = len(rows), len(dataset.space)
    entries, lengths = csr.gather(rows)
    ids = csr.indices[entries]
    values = None if csr.representation == "boolean" else csr.data[entries]
    del entries
    ys = np.where(dataset.y[rows] == 0, 1.0, -1.0)

    def margins(w: np.ndarray) -> np.ndarray:
        products = w[ids]
        if values is not None:
            products *= values
        return ys * (_row_sums(products, lengths) + w[-1])

    def cut(violated: np.ndarray) -> tuple[np.ndarray, float]:
        """The mean hinge loss's linear minorant, exact wherever just these rows violate their margins."""
        coef = np.where(violated, -ys / n, 0.0)
        per_entry = np.repeat(coef, lengths)
        if values is not None:
            per_entry *= values
        return np.append(np.bincount(ids, per_entry, dim), coef.sum()), int(violated.sum()) / n

    best, at_best = np.zeros(dim + 1), np.zeros(n)
    first, offset = cut(at_best < 1)
    # cut 0 is the loss's floor, zero, which no vector stands for in cuts:
    # it keeps the model's minimiser near the data from the first iteration
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


def train_svm(
    dataset: Dataset,
    *,
    lam: float = DEFAULT_SVM_LAMBDA,
    epochs: int = DEFAULT_SVM_EPOCHS,
) -> LinearModel:
    """Linear SVM on the hinge loss by cutting planes (OCAS), deterministic.

    The solver minimises svm_objective plus lam/2 b^2, the bias being the
    weight of a constant feature. It runs at most `epochs` iterations and
    stops early once the certified relative gap (best objective less lower
    bound, over the best objective) is at most SVM_GAP_TOLERANCE. Each
    iteration's best point is scored by svm_objective's formula; the
    returned model is the one scoring lowest, and records those scores,
    the iteration count and the last gap.
    """
    if lam <= 0 or epochs < 1:
        raise ConfigError("svm needs lam > 0 and epochs >= 1")
    best: tuple[float, np.ndarray, float] | None = None
    history: list[float] = []
    for point, objective, lower in _cutting_planes(dataset, lam):
        bias = float(point[-1])
        # the documented objective leaves the bias unregularised
        history.append(objective - 0.5 * lam * bias * bias)
        if best is None or history[-1] < best[0]:
            best = (history[-1], point[:-1], bias)
        gap = (objective - lower) / objective
        if gap <= SVM_GAP_TOLERANCE or len(history) == epochs:
            break
    assert best is not None
    return LinearModel(
        weights=best[1],
        bias=best[2],
        positive_class=FEMALE,
        epoch_objectives=tuple(history),
        iterations=len(history),
        gap=gap,
    )


def _check_representation(dataset: Dataset, classifier: str) -> None:
    accepted = ACCEPTS[classifier]
    if dataset.csr.representation not in accepted:
        raise ConfigError(f"{classifier} requires {' or '.join(accepted)} vectors")


def train_nb(
    dataset: Dataset, variant: str = "bernoulli", alpha: float = DEFAULT_NB_ALPHA
) -> BayesModel:
    """Naive Bayes with Laplace smoothing alpha and empirical class priors."""
    if variant not in ("bernoulli", "multinomial"):
        raise ConfigError(f"unknown naive bayes variant {variant!r}")
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    _check_representation(dataset, f"nb-{variant}")

    dim = len(dataset.space)
    class_n = np.array([[n] for n in dataset.class_counts().values()], dtype=float)  # female, male
    if not class_n.all():
        raise DataError("training needs both classes present")

    # one bincount over (class, feature) cells; summed in entry order
    csr, labels, rows = dataset.csr, dataset.y, dataset.rows
    entries, lengths = csr.gather(rows)
    cells = np.repeat(labels[rows].astype(np.intp) * dim, lengths) + csr.indices[entries]
    weights = None if variant == "bernoulli" else csr.data[entries]
    del entries
    accum = np.bincount(cells, weights=weights, minlength=2 * dim).reshape(2, dim)

    if variant == "bernoulli":
        theta = (accum + alpha) / (class_n + 2.0 * alpha)
    else:
        theta = (accum + alpha) / (accum.sum(axis=1, keepdims=True) + alpha * dim)
    return BayesModel(
        variant=variant,
        class_log_prior=np.log(class_n[:, 0] / len(dataset)),
        feature_log_prob=np.log(theta),
        absent_log_prob=np.log1p(-theta) if variant == "bernoulli" else None,
        alpha=alpha,
        n_features=dim,
    )


def _nb_joint(model: BayesModel, ids: np.ndarray, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(rows, 2) log joint probabilities, columns aligned with GENDERS, for rows of the given lengths."""
    _check_range(ids, model.n_features)
    if model.variant == "bernoulli":
        base = model.class_log_prior + model.absent_log_prob.sum(axis=1)
        per_entry = (model.feature_log_prob - model.absent_log_prob)[:, ids]
    else:
        base = model.class_log_prior
        per_entry = model.feature_log_prob[:, ids] * values
    return base + np.column_stack([_row_sums(v, lengths) for v in per_entry])


def nb_log_posterior(model: BayesModel, vector: FeatureVector) -> dict[str, float]:
    """Normalized log P(class | vector) for both classes."""
    ids, values = np.array(vector.ids, dtype=np.intp), np.array(vector.values)
    joint = _nb_joint(model, ids, values, np.array([len(ids)]))[0]
    m = float(joint.max())
    norm = m + math.log(float(np.exp(joint - m).sum()))
    return {g: float(joint[i] - norm) for i, g in enumerate(GENDERS)}


def _entropy(counts_a: np.ndarray, counts_b: np.ndarray) -> np.ndarray:
    total = counts_a + counts_b
    out = np.zeros_like(total, dtype=float)
    nz = total > 0
    for part in (counts_a, counts_b):
        p = np.zeros_like(out)
        p[nz] = part[nz] / total[nz]
        pos = p > 0
        out[pos] -= p[pos] * np.log2(p[pos])
    return out


def _best_split(
    csr: CSR, labels: np.ndarray, rows: np.ndarray, nf: int, nm: int, dim: int
) -> int | None:
    """The feature whose presence split of rows has the best gain ratio, if any gains.

    Apart from the tree's growth so that its temporaries are freed before the recursion.
    """
    entries, lengths = csr.gather(rows)
    ids = csr.indices[entries]
    del entries
    pm = np.bincount(ids[np.repeat(labels[rows], lengths) == 1], minlength=dim)
    pf = np.bincount(ids, minlength=dim) - pm
    del ids

    n = float(len(rows))
    af, am = nf - pf, nm - pm
    n_present = pf + pm
    n_absent = af + am
    node_entropy = _entropy(np.array([float(nf)]), np.array([float(nm)]))[0]
    child_entropy = (
        n_present * _entropy(pf, pm) + n_absent * _entropy(af, am)
    ) / n
    gain = node_entropy - child_entropy
    split_info = _entropy(n_present, n_absent)
    valid = (n_present > 0) & (n_absent > 0) & (gain > _GAIN_EPS) & (split_info > 0)
    if not valid.any():
        return None
    ratio = np.where(valid, gain / np.where(split_info > 0, split_info, 1.0), -np.inf)
    return int(np.argmax(ratio))  # argmax takes the lowest id on ties


def _has_feature(csr: CSR, rows: np.ndarray, feature: int) -> np.ndarray:
    """Mask over rows: whether each holds the feature."""
    entries, lengths = csr.gather(rows)
    hits = np.flatnonzero(csr.indices[entries] == feature)
    present = np.zeros(len(rows), dtype=bool)
    present[np.searchsorted(np.cumsum(lengths), hits, side="right")] = True
    return present


def train_tree(
    dataset: Dataset,
    *,
    max_depth: int = DEFAULT_TREE_MAX_DEPTH,
    min_leaf: int = DEFAULT_TREE_MIN_LEAF,
) -> TreeModel:
    """Greedy top-down induction maximizing information gain ratio.

    Splits are on feature presence/absence, so vectors must be boolean.
    Growth stops at purity, zero gain, max_depth, or nodes smaller than
    2*min_leaf; leaves predict their majority label (ties: female).
    """
    if max_depth < 1 or min_leaf < 1:
        raise ConfigError("tree needs max_depth >= 1 and min_leaf >= 1")
    _check_representation(dataset, "tree")
    dim = len(dataset.space)
    csr, labels, rows = dataset.csr, dataset.y, dataset.rows

    def grow(rows: np.ndarray, depth: int) -> TreeNode:
        nm = int(labels[rows].sum())
        nf = len(rows) - nm
        if nf == 0 or nm == 0 or depth >= max_depth or len(rows) < 2 * min_leaf:
            return TreeNode(nf, nm)
        feature = _best_split(csr, labels, rows, nf, nm, dim)
        if feature is None:
            return TreeNode(nf, nm)
        present = _has_feature(csr, rows, feature)
        return TreeNode(nf, nm, feature, grow(rows[present], depth + 1), grow(rows[~present], depth + 1))

    return TreeModel(root=grow(rows, 0), max_depth=max_depth, min_leaf=min_leaf, n_features=dim)


def _female(model, csr: CSR, rows: np.ndarray) -> np.ndarray:
    """Whether the model predicts female for each of the given rows; all ties do."""
    entries, lengths = csr.gather(rows)
    ids, values = csr.indices[entries], csr.data[entries]
    if isinstance(model, LinearModel):
        _check_range(ids, len(model.weights))
        return _row_sums(model.weights[ids] * values, lengths) + model.bias >= 0
    if isinstance(model, BayesModel):
        joint = _nb_joint(model, ids, values, lengths)
        return joint[:, 0] >= joint[:, 1]
    if isinstance(model, TreeModel):
        _check_range(ids, model.n_features)
        female = np.zeros(len(csr.indptr) - 1, dtype=bool)
        _route(model.root, csr, rows, female)
        return female[rows]
    raise TypeError(f"unknown model type {type(model).__name__}")


def _route(node: TreeNode, csr: CSR, rows: np.ndarray, female: np.ndarray) -> None:
    """Send rows down the tree, marking those whose leaf predicts female."""
    if node.feature is None:
        female[rows] = node.label == FEMALE
    elif len(rows):
        present = _has_feature(csr, rows, node.feature)
        _route(node.present, csr, rows[present], female)
        _route(node.absent, csr, rows[~present], female)


def predict_batch(model, vectors: Sequence[FeatureVector]) -> list[str]:
    """Predicted label for every vector; all ties resolve to female."""
    female = _female(model, CSR.from_vectors(vectors), np.arange(len(vectors)))
    return [FEMALE if f else MALE for f in female.tolist()]


def predict(model, vector: FeatureVector) -> str:
    """Predicted label for one vector; all ties resolve to female."""
    return predict_batch(model, [vector])[0]


def _train_for(classifier: str, dataset: Dataset, params: dict):
    if classifier == "svm":
        return train_svm(dataset, lam=params.get("lam", DEFAULT_SVM_LAMBDA),
                         epochs=params.get("epochs", DEFAULT_SVM_EPOCHS))
    if classifier in ("nb-bernoulli", "nb-multinomial"):
        return train_nb(dataset, variant=classifier[3:], alpha=params.get("alpha", DEFAULT_NB_ALPHA))
    if classifier == "tree":
        return train_tree(dataset, max_depth=params.get("max_depth", DEFAULT_TREE_MAX_DEPTH),
                          min_leaf=params.get("min_leaf", DEFAULT_TREE_MIN_LEAF))
    raise ConfigError(f"unknown classifier {classifier!r}")


def cross_validate(
    dataset: Dataset,
    classifier: str,
    *,
    params: dict | None = None,
    k: int = 10,
    seed: int = 0,
    undersample_train: bool = False,
    descriptor: str = "",
) -> CVReport:
    """Stratified k-fold evaluation; test folds are never under-sampled."""
    params = params or {}
    sub_seeds = derive_seeds(seed, 1 + 2 * k)
    folds = stratified_folds(dataset, k, sub_seeds[0])
    labels = dataset.y[dataset.rows]
    cells = np.zeros(4, dtype=np.int64)  # (actual, predicted) counts, 0 female and 1 male
    per_fold: list[float] = []
    per_fold_fit: list[dict] = []
    for fold_no, test_idx in enumerate(folds):
        train_ds = dataset.subset(np.setdiff1d(np.arange(len(dataset)), test_idx))
        if undersample_train:
            train_ds = undersample(train_ds, sub_seeds[1 + 2 * fold_no])
        model = _train_for(classifier, train_ds, params)
        if isinstance(model, LinearModel):
            per_fold_fit.append({"iterations": model.iterations, "gap": model.gap})
        got = ~_female(model, dataset.csr, dataset.rows[test_idx])
        actual = labels[test_idx]
        cells += np.bincount(2 * actual + got, minlength=4)
        per_fold.append(int((got == actual).sum()) / len(test_idx))
    confusion = {a: {p: int(cells[2 * i + j]) for j, p in enumerate(GENDERS)} for i, a in enumerate(GENDERS)}
    return CVReport(
        per_fold_accuracy=tuple(per_fold),
        mean_accuracy=sum(per_fold) / len(per_fold),
        confusion=confusion,
        seed=seed,
        descriptor=descriptor,
        n_instances=len(dataset),
        per_fold_fit=tuple(per_fold_fit),
    )


def majority_baseline(dataset: Dataset) -> float:
    """Accuracy of always predicting the most frequent class."""
    counts = dataset.class_counts()
    return max(counts.values()) / len(dataset)
