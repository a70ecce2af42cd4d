"""Classifier training and stratified cross-validated evaluation.

Three model families are implemented from first principles so that
every quantity is inspectable: a linear SVM on the hinge loss fit by
cutting planes (OCAS), Naive Bayes in Bernoulli and multinomial
variants, and a C4.5-flavoured decision tree over presence/absence
splits. Evaluation is stratified k-fold cross-validation with optional
under-sampling of the training portion.

Determinism: no learner draws random numbers; the randomized steps
(fold shuffles and under-sampling) key off an explicit 64-bit seed via
the generators in newsbias.rng. cross_validate reads one SplitMix64
stream over its seed in a fixed order: the fold plan's seed first, then
two per fold, the under-sampling seed and one no learner reads, kept so
the under-sampling seeds stay where they have always been. So a report
is byte-for-byte reproducible.

Ties (zero scores, equal posteriors, equal leaf counts) always resolve
to "female", the lexicographically smaller label; features of equal gain
ratio resolve to the lowest feature id.

The tree grows level by level. One node-id array over the CSR's rows says
which node of the level each training row is in. A row goes down a split
by a search of its own ids, which increase strictly, for the split's
feature, every row of the level at once; prediction sends test rows down
the same way. Per level, only the smaller child of each split is counted,
in one bincount over (node, class, feature) cells; the larger child's
counts are its parent's less the smaller's (histogram subtraction, as in
LightGBM). Between levels a node keeps its counts sparse, one (pf, pm)
pair of female and male rows per feature present in it, and a gain
ratio, which depends only on the node's class counts and that pair, is
computed once per distinct pair, found with a table rather than a sort
(pairs too large for the table are computed one by one). A level so
costs one pass over the entries of its smaller children, one over its
nodes' present features and, to route, as many rounds over its rows as
the longest row's length has bits, with a fixed number of numpy calls
however many nodes it has. Memory: one bincount holds at most
_COUNT_CELLS int64 counts (2 MiB), however wide the space: the smaller
children of a wide level are counted in groups of nodes, and a node
whose 2 * dim cells are more than that, _COUNT_CELLS // 2 features at a
time; the table of pairs holds at most _COUNT_CELLS int32 entries.
Everything else the grower holds grows with the training entries: the
sparse counts are at most one int32 pair per entry.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .corpus import FEMALE, GENDERS, MALE
from .errors import ConfigError, DataError
from .features import REPRESENTATIONS, FeatureSpace, FeatureVector
from .rng import Rng, SplitMix64

DEFAULT_SVM_LAMBDA = 1e-4
DEFAULT_SVM_EPOCHS = 20
DEFAULT_NB_ALPHA = 1.0
DEFAULT_TREE_MAX_DEPTH = 10
DEFAULT_TREE_MIN_LEAF = 2

# an svm fit stops once its certified relative gap is this small
SVM_GAP_TOLERANCE = 1e-3
# how far on from the best point, towards the model's minimiser, each new cut is placed
_CUT_STEP = 0.1
# the most products one block of a new cut's Gram row multiplies at once: 512 KiB
_GRAM_BLOCK_CELLS = 1 << 16

# the vector representations each classifier accepts
ACCEPTS = {"svm": REPRESENTATIONS, "nb-bernoulli": ("boolean",),
           "nb-multinomial": ("boolean", "count"), "tree": ("boolean",)}
CLASSIFIERS = tuple(ACCEPTS)

# guards against float noise masquerading as information gain
_GAIN_EPS = 1e-12
# the most (node, class, feature) counts one bincount of the tree grower holds: 2 MiB
_COUNT_CELLS = 1 << 18


@dataclass(frozen=True, eq=False)
class CSR:
    """Sparse rows: row r has ids indices[indptr[r]:indptr[r + 1]], values the same slice of data.

    For boolean vectors, data is a read-only broadcast of 1.0 that takes no memory.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    representation: str

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
        return _spans(starts, lengths), lengths


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions starts[i] up to starts[i] + lengths[i], span after span."""
    ends = np.cumsum(lengths)
    positions = np.repeat(starts - (ends - lengths), lengths)
    positions += np.arange(len(positions))
    return positions


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

    The minority class is kept whole, with as many majority rows as it has: the first
    of the majority's positions after Rng(seed).shuffle. The subset preserves dataset
    order, so it is a sub-multiset of the input, identical for identical seeds.
    """
    labels = dataset.y[dataset.rows]
    n_male = int(labels.sum())
    if n_male in (0, len(labels)):
        raise DataError("undersample needs both classes present")
    if 2 * n_male == len(labels):
        return dataset
    minority = int(2 * n_male < len(labels))
    keep = labels == minority
    majority_idx = np.flatnonzero(~keep).tolist()
    Rng(seed).shuffle(majority_idx)
    keep[majority_idx[:int(keep.sum())]] = True
    return dataset.subset(np.flatnonzero(keep))


def fold_plan(dataset: Dataset, k: int, seed: int) -> np.ndarray:
    """The fold, 0 to k - 1, of each row, with per-fold class counts within 1 of proportional.

    k and the class sizes are checked before anything is drawn. Each class's rows are then
    shuffled with one seeded generator (females first, males second) and dealt round-robin.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    labels = dataset.y[dataset.rows]
    classes = [np.flatnonzero(labels == code).tolist() for code in range(len(GENDERS))]
    for label, idx in zip(GENDERS, classes):
        if len(idx) < k:
            raise DataError(f"class {label!r} has {len(idx)} members, fewer than k={k}")
    rng = Rng(seed)
    plan = np.empty(len(labels), dtype=np.intp)
    for idx in classes:
        rng.shuffle(idx)
        plan[idx] = np.arange(len(idx)) % k
    return plan


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
    at a point a tenth of the way on from the new best point. Yields,
    per iteration, the best point so far (weights with the bias last),
    its objective, and the QP's dual value: a lower bound on the minimum.

    One iteration costs one X @ w (a gather at the fit's entries, whose
    ids are widened to intp once per fit, and one reduceat), one X.T @ v
    (a repeat and one bincount), one sort of at most n breakpoints, the
    QP, one scaled add per cut the QP keeps and, for the new cut's Gram
    row, t dot products of length dim + 1, t the cuts so far, multiplied
    in blocks of at most _GRAM_BLOCK_CELLS. The cuts are rows of one
    array of DEFAULT_SVM_EPOCHS rows, doubled when full and never sized
    from an epochs cap; the Gram matrix and offsets grow with it.
    """
    csr, rows = dataset.csr, dataset.rows
    n, dim = len(rows), len(dataset.space)
    entries, lengths = csr.gather(rows)
    ids = csr.indices[entries].astype(np.intp)
    values = None if csr.representation == "boolean" else csr.data[entries]
    del entries
    # reduceat's run starts, non-empty rows only: it would hand an empty row its successor's first value
    nonempty = np.flatnonzero(lengths)
    starts = (np.cumsum(lengths) - lengths)[nonempty]
    ys = np.where(dataset.y[rows] == 0, 1.0, -1.0)

    def margins(w: np.ndarray) -> np.ndarray:
        products = w[ids]
        if values is not None:
            products *= values
        sums = np.zeros(n)
        if len(nonempty):
            sums[nonempty] = np.add.reduceat(products, starts)
        return ys * (sums + w[-1])

    def cut(violated: np.ndarray, into: np.ndarray) -> float:
        """Write into the mean hinge loss's linear minorant, exact wherever just
        these rows violate their margins, and return its offset."""
        coef = np.where(violated, -ys / n, 0.0)
        per_entry = np.repeat(coef, lengths)
        if values is not None:
            per_entry *= values
        into[:-1] = np.bincount(ids, per_entry, dim)
        into[-1] = coef.sum()
        return int(violated.sum()) / n

    # row t of cuts is cut t + 1; cut 0 is the loss's floor, zero, which no row
    # stands for: it keeps the model's minimiser near the data from the first iteration
    cuts = np.empty((DEFAULT_SVM_EPOCHS, dim + 1))
    gram, offsets = np.zeros((len(cuts) + 1, len(cuts) + 1)), np.zeros(len(cuts) + 1)
    best, at_best = np.zeros(dim + 1), np.zeros(n)
    offsets[1] = cut(at_best < 1, cuts[0])
    gram[1, 1] = _dot(cuts[0], cuts[0])
    alpha, t = np.array([0.0, 1.0]), 1  # t cuts so far besides the floor
    block = max(1, _GRAM_BLOCK_CELLS // (dim + 1))
    while True:
        alpha = _simplex_qp(gram[:t + 1, :t + 1], offsets[:t + 1], lam, alpha)
        model = np.zeros(dim + 1)
        for i in np.flatnonzero(alpha[1:]):
            model += alpha[i + 1] * cuts[i]
        model *= -1.0 / lam
        lower = _dot(alpha, offsets[:t + 1]) - 0.5 * _dot(np.outer(alpha, alpha), gram[:t + 1, :t + 1]) / lam
        at_model = margins(model)
        k = _line_search(lam, best, model - best, at_best, at_model)
        best = best + k * (model - best)
        at_best = at_best + k * (at_model - at_best)
        objective = 0.5 * lam * _dot(best, best) + float(np.maximum(0.0, 1.0 - at_best).sum()) / n
        yield best, objective, lower
        if t == len(cuts):
            cuts = np.concatenate((cuts, np.empty_like(cuts)))
            gram, offsets = np.pad(gram, (0, t)), np.pad(offsets, (0, t))
        new = cuts[t]
        offsets[t + 1] = cut((1 - _CUT_STEP) * at_best + _CUT_STEP * at_model < 1, new)
        for lo in range(0, t + 1, block):
            hi = min(lo + block, t + 1)
            gram[t + 1, lo + 1:hi + 1] = np.multiply(cuts[lo:hi], new).sum(axis=1)
        gram[1:t + 2, t + 1] = gram[t + 1, 1:t + 2]
        alpha = np.append(alpha, 0.0)
        t += 1


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
    the iteration count and the last gap. A fit whose iterates overflow,
    which a tiny lam brings about, raises ConfigError.
    """
    if not 0 < lam < math.inf or epochs < 1:
        raise ConfigError("svm needs a finite lam > 0 and epochs >= 1")
    best: tuple[float, np.ndarray, float] | None = None
    history: list[float] = []
    try:
        # the iterates scale as 1/lam: where that overflows, no objective or model can be trusted
        with np.errstate(over="raise", invalid="raise"):
            for point, objective, lower in _cutting_planes(dataset, lam):
                bias = float(point[-1])
                # the documented objective leaves the bias unregularised
                history.append(objective - 0.5 * lam * bias * bias)
                if best is None or history[-1] < best[0]:
                    best = (history[-1], point[:-1], bias)
                gap = (objective - lower) / objective
                if gap <= SVM_GAP_TOLERANCE or len(history) == epochs:
                    break
    except FloatingPointError:
        raise ConfigError(f"classifier.lam {lam!r} is too small: the svm fit's iterates "
                          f"stopped being finite at iteration {len(history) + 1}") from None
    assert best is not None
    return LinearModel(
        weights=best[1],
        bias=best[2],
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


def _gain_ratios(pf: np.ndarray, pm: np.ndarray, nf: np.ndarray, nm: np.ndarray) -> np.ndarray:
    """Gain ratio of splitting a node of nf female and nm male rows on a feature
    that pf and pm of them hold; -inf where the split is not valid."""
    af, am = nf - pf, nm - pm
    n_present = pf + pm
    n_absent = af + am
    node_entropy = _entropy(nf.astype(float), nm.astype(float))
    child_entropy = (
        n_present * _entropy(pf, pm) + n_absent * _entropy(af, am)
    ) / (nf + nm).astype(float)
    gain = node_entropy - child_entropy
    split_info = _entropy(n_present, n_absent)
    valid = (n_present > 0) & (n_absent > 0) & (gain > _GAIN_EPS) & (split_info > 0)
    return np.where(valid, gain / np.where(split_info > 0, split_info, 1.0), -np.inf)


def _best_features(cells: tuple[np.ndarray, ...], nf: np.ndarray, nm: np.ndarray) -> np.ndarray:
    """Per node of a level, the feature whose presence split has the best gain
    ratio, the lowest id among equals, or -1 where none gains.

    cells are (node, feature, pf, pm): the features present in each node with
    the node's female and male rows holding them, one node's cells together
    and in feature order. A ratio depends only on the node's nf and nm and the
    cell's (pf, pm) pair, so the cells of a node that share a pair share one
    computation, for every pair small enough for a table of w * w pairs per
    node to hold at most _COUNT_CELLS; the larger pairs, which only features
    common in a big node have, are computed one by one.
    """
    node, feature, pf, pm = cells
    best = np.full(len(nf), -1)
    if not len(node):
        return best
    # the cells whose pf and pm are both below w share a ratio per (node, pf, pm),
    # computed for whichever of them the table keeps
    w = min(math.isqrt(_COUNT_CELLS // len(nf)), int(max(nf.max(), nm.max())) + 1)
    cell = np.arange(len(node))
    small = np.flatnonzero((pf < w) & (pm < w))
    pair = (node[small] * w + pf[small]) * w + pm[small]
    table = np.empty(len(nf) * w * w, dtype=np.int32)  # read only where written
    table[pair] = small
    stand = cell.copy()
    stand[small] = table[pair]
    scored = np.flatnonzero(stand == cell)
    ratio = np.empty(len(node))
    ratio[scored] = _gain_ratios(pf[scored], pm[scored], nf[node[scored]], nm[node[scored]])
    ratio = ratio[stand]
    starts = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
    top = np.repeat(np.maximum.reduceat(ratio, starts), np.diff(np.append(starts, len(node))))
    # the first of a node's cells with its top ratio has the lowest id
    hits = np.flatnonzero(ratio == top)
    lowest = hits[np.concatenate(([True], node[hits][1:] != node[hits][:-1]))]
    gains = top[lowest] > -np.inf
    best[node[lowest[gains]]] = feature[lowest[gains]]
    return best


def _descend(csr: CSR, node_of: np.ndarray, live: np.ndarray, feature: np.ndarray) -> np.ndarray:
    """Send the live rows one level down; return those still live.

    A live row is in node node_of[row] of the level, whose split feature is
    feature[node] (-1 at a leaf). The i-th split node's children in the next
    level are 2i (holds the feature) and 2i + 1 (lacks it); a row at a leaf
    gets -1. Copies of a row share one entry, so they go down together.
    """
    split = np.flatnonzero(feature >= 0)
    rank = np.full(len(feature), -1)
    rank[split] = np.arange(len(split))
    ranks = rank[node_of[live]]
    node_of[live[ranks < 0]] = -1
    live, ranks = live[ranks >= 0], ranks[ranks >= 0]
    node_of[live] = 2 * ranks + ~_holds(csr, live, feature[node_of[live]])
    return live


def _holds(csr: CSR, rows: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Whether each of the rows holds its feature. A row's ids increase
    strictly, so every row is searched at once, in steps of halving length:
    as many rounds over the rows as the longest row's length has bits."""
    pos, end = csr.indptr[rows], csr.indptr[rows + 1]
    step = 1 << int((end - pos).max(initial=0)).bit_length()
    last = len(csr.indices) - 1
    while step > 1:
        step >>= 1
        ahead = pos + (step - 1)
        pos += step * ((ahead < end) & (csr.indices[np.minimum(ahead, last)] < features))
    # pos is each row's first position whose id is not below its feature
    holds = pos < end
    holds[holds] = csr.indices[pos[holds]] == features[holds]
    return holds


def _level_cells(
    csr: CSR, y: np.ndarray, rows: np.ndarray, node_of: np.ndarray, dim: int,
    grows: np.ndarray, sizes: np.ndarray, parents: tuple[np.ndarray, ...] | None,
) -> tuple[np.ndarray, ...]:
    """The cells (node, feature, pf, pm) of the level's nodes that may grow.

    rows are the training rows, node_of[row] the node of the level a row is
    in (-1 once it has reached a leaf) and y[row] its label. Children
    2i and 2i + 1 come from the i-th split node of the level above, whose
    cells, keyed by i, are parents (None at the root). Only the smaller
    child of each pair is counted; the larger one's cells are its parent's
    less those counts. The counts are bincounts over (node, class, feature)
    of at most _COUNT_CELLS cells each: the smaller children are counted in
    groups of _COUNT_CELLS // (2 * dim) nodes, or, where one node's 2 * dim
    cells are more than that, one node and _COUNT_CELLS // 2 features at a time.
    """
    if parents is None:
        direct = np.flatnonzero(grows)
    else:
        pairs = np.arange(0, len(grows), 2, dtype=np.int32)
        smaller = pairs + (sizes[pairs] > sizes[pairs + 1])
        larger = smaller ^ 1
        direct = smaller[grows[pairs] | grows[pairs + 1]]
        derive = grows[larger]
    slot = np.full(len(grows) + 1, -1, dtype=np.int32)  # the last entry answers for node -1
    row_node = node_of[rows]
    counted_cells, derived_cells = [], []
    group = max(1, _COUNT_CELLS // (2 * dim))
    width = min(dim, _COUNT_CELLS // 2)
    for start in range(0, len(direct), group):
        counted = direct[start:start + group]
        slot[counted] = np.arange(len(counted))
        row_slot = slot[row_node]
        sel = row_slot >= 0
        entries, lengths = csr.gather(rows[sel])
        ids = csr.indices[entries]
        del entries
        base = np.repeat((row_slot[sel] * 2 + y[rows[sel]]).astype(np.intp) * width, lengths)
        for lo in range(0, dim, width):
            if width < dim:
                inside = (ids >= lo) & (ids < lo + width)
                cells = base[inside] + (ids[inside] - lo)
            else:  # the only range: summed in place, and base and ids let go
                cells = base
                cells += ids
                del base, ids
            table = np.bincount(cells, minlength=len(counted) * 2 * width).reshape(len(counted), 2, width)
            del cells
            k, f = np.nonzero(np.logical_or(table[:, 0], table[:, 1]))
            keep = grows[counted[k]]
            k, f = k[keep], f[keep]
            # int32 cells, each cast as it is made: a wide level's cells outweigh its table
            counted_cells.append((counted[k].astype(np.int32), (f + lo).astype(np.int32),
                                  table[k, 0, f].astype(np.int32), table[k, 1, f].astype(np.int32)))
            if parents is not None:
                rank, pfeature, ppf, ppm = parents
                by = slot[smaller]
                take = (derive & (by >= 0))[rank]
                if width < dim:
                    take &= (pfeature >= lo) & (pfeature < lo + width)
                rank, pfeature, by = rank[take], pfeature[take], by[rank[take]]
                pf = (ppf[take] - table[by, 0, pfeature - lo]).astype(np.int32)
                pm = (ppm[take] - table[by, 1, pfeature - lo]).astype(np.int32)
                held = (pf + pm) > 0
                derived_cells.append((larger[rank[held]], pfeature[held], pf[held], pm[held]))
            del table  # before the next one is made
        slot[counted] = -1
    # a node is counted or derived, and its cells come out together, in feature order
    pieces = counted_cells + derived_cells
    if not pieces:
        return tuple(np.zeros(0, np.int32) for _ in range(4))
    return tuple(np.concatenate(column) for column in zip(*pieces))


def train_tree(
    dataset: Dataset,
    *,
    max_depth: int = DEFAULT_TREE_MAX_DEPTH,
    min_leaf: int = DEFAULT_TREE_MIN_LEAF,
) -> TreeModel:
    """Greedy top-down induction maximizing information gain ratio.

    Splits are on feature presence/absence, so vectors must be boolean.
    Growth stops at purity, zero gain, max_depth, or nodes smaller than
    2*min_leaf; leaves predict their majority label (ties: female). Among
    features of equal gain ratio the lowest id splits.

    The tree grows level by level: see the module docstring for the order
    and for what a level costs.
    """
    if max_depth < 1 or min_leaf < 1:
        raise ConfigError("tree needs max_depth >= 1 and min_leaf >= 1")
    _check_representation(dataset, "tree")
    dim = len(dataset.space)
    csr, y, rows = dataset.csr, dataset.y, dataset.rows
    labels = y[rows]
    node_of = np.full(len(csr.indptr) - 1, -1, dtype=np.intp)
    node_of[rows] = 0
    live = np.flatnonzero(node_of == 0)
    nm = np.array([int(labels.sum())])
    nf = len(rows) - nm
    levels, parents = [], None
    for depth in range(max_depth + 1):
        sizes = nf + nm
        grows = (nf > 0) & (nm > 0) & (sizes >= 2 * min_leaf) & (depth < max_depth)
        cells = _level_cells(csr, y, rows, node_of, dim, grows, sizes, parents)
        parents = None  # its counts live on in this level's cells
        feature = _best_features(cells, nf, nm)
        levels.append((nf.tolist(), nm.tolist(), feature.tolist()))
        split = feature >= 0
        if not split.any():
            break
        rank = (np.cumsum(split) - 1).astype(np.int32)
        kept = split[cells[0]]
        parents = (rank[cells[0][kept]], *(column[kept] for column in cells[1:]))
        del cells, kept  # before the next level's are made
        live = _descend(csr, node_of, live, feature)
        at = node_of[rows]
        inside = at >= 0
        counts = np.bincount(2 * at[inside] + labels[inside], minlength=4 * int(split.sum())).reshape(-1, 2)
        nf, nm = counts[:, 0], counts[:, 1]

    below: list[TreeNode] = []
    for nfs, nms, features in reversed(levels):
        nodes, children = [], iter(below)
        for n_female, n_male, f in zip(nfs, nms, features):
            nodes.append(TreeNode(n_female, n_male) if f < 0
                         else TreeNode(n_female, n_male, f, next(children), next(children)))
        below = nodes
    return TreeModel(root=below[0], max_depth=max_depth, min_leaf=min_leaf, n_features=dim)


def _tree_female(root: TreeNode, csr: CSR, rows: np.ndarray) -> np.ndarray:
    """Whether the tree's leaf for each of the given rows predicts female,
    the rows sent down level by level as in training."""
    female = np.zeros(len(csr.indptr) - 1, dtype=bool)
    node_of = np.full(len(female), -1, dtype=np.intp)
    node_of[rows] = 0
    live = np.flatnonzero(node_of == 0)
    level = [root]
    while len(live):
        female[live] = np.array([node.feature is None and node.label == FEMALE for node in level])[node_of[live]]
        feature = np.array([-1 if node.feature is None else node.feature for node in level])
        live = _descend(csr, node_of, live, feature)
        level = [child for node in level if node.feature is not None for child in (node.present, node.absent)]
    return female[rows]


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
        return _tree_female(model.root, csr, rows)
    raise TypeError(f"unknown model type {type(model).__name__}")


def predict(model, vector: FeatureVector) -> str:
    """Predicted label for one vector; all ties resolve to female."""
    csr = CSR(np.array([0, len(vector)]), np.array(vector.ids, dtype=np.int32),
              np.array(vector.values), vector.representation)
    return FEMALE if _female(model, csr, np.zeros(1, dtype=np.intp))[0] else MALE


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
    seeds = SplitMix64(seed)
    plan = fold_plan(dataset, k, seeds.next_u64())
    labels = dataset.y[dataset.rows]
    cells = np.zeros(4, dtype=np.int64)  # (actual, predicted) counts, 0 female and 1 male
    per_fold: list[float] = []
    per_fold_fit: list[dict] = []
    for fold in range(k):
        undersample_seed, _ = seeds.next_u64(), seeds.next_u64()
        test_idx = np.flatnonzero(plan == fold)
        train_ds = dataset.subset(np.flatnonzero(plan != fold))
        if undersample_train:
            train_ds = undersample(train_ds, undersample_seed)
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
