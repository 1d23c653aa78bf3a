"""Cross-entropy loss family with real-world cost weighting.

Six loss variants share a common shape: a per-example sum of weighted log
terms, averaged over the batch and negated.  The plain and class-weighted
variants are the familiar binary/categorical cross-entropies; the
real-world-weight variants replace the class weights with marginal dollar
(or hour, or any unit) costs of false negatives and false positives, so the
training objective is denominated in the same units as the deployment cost.

All losses use natural log and clip each log argument below at EPSILON so a
saturated probability yields a large finite penalty instead of an infinity.
Each variant is a choice of term weights: (a, b) on the positive and negative
log terms for binary variants, (a, FP) on the true-class and wrong-class terms
for categorical ones.  One unchecked kernel, loss_and_gradient, evaluates
every variant's loss and logit gradient together from those weights, so the
weighted variants degenerate to the unweighted ones exactly when their
weights are 1 (and FP is 0); tests hold them to that.  loss_value and
fused_gradient_from_probs validate a batch and call it; train() validates its
labels once through checked_targets and calls it per batch.  The six named
loss functions are thin wrappers over loss_value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

EPSILON = 1e-7

VARIANTS = ("bce", "wbce", "cce", "wcce", "rwwce_binary", "rwwce_categorical")
BINARY_VARIANTS = ("bce", "wbce", "rwwce_binary")
CATEGORICAL_VARIANTS = ("cce", "wcce", "rwwce_categorical")

ROW_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class BinaryCostModel:
    """Marginal real-world costs of the two binary error types.

    fn_cost is charged against the positive-label log term (missing a real
    positive), fp_cost against the negative-label term (a false alarm).
    Costs must be finite, nonnegative, and not both zero.
    """

    fn_cost: float
    fp_cost: float

    def __post_init__(self) -> None:
        for name in ("fn_cost", "fp_cost"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")
        if self.fn_cost == 0 and self.fp_cost == 0:
            raise ValueError("at least one of fn_cost, fp_cost must be positive")


@dataclass
class CategoricalCostModel:
    """Per-class false-negative costs and a per-pair false-positive cost matrix.

    fn_costs has length K.  fp_costs is K x K where fp_costs[k][k'] prices
    predicting class k' on an example whose true class is k.  The diagonal is
    never read: a correct prediction is not an error.
    """

    fn_costs: np.ndarray
    fp_costs: np.ndarray

    def __post_init__(self) -> None:
        self.fn_costs = np.asarray(self.fn_costs, dtype=np.float64)
        self.fp_costs = np.asarray(self.fp_costs, dtype=np.float64)
        if self.fn_costs.ndim != 1:
            raise ValueError("fn_costs must be a vector")
        k = self.fn_costs.shape[0]
        if k < 2:
            raise ValueError("need at least two classes")
        if self.fp_costs.shape != (k, k):
            raise ValueError(
                f"fp_costs must be {k}x{k} to match fn_costs, got {self.fp_costs.shape}"
            )
        for name, arr in (("fn_costs", self.fn_costs), ("fp_costs", self.fp_costs)):
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"{name} entries must be finite and nonnegative")

    @property
    def num_classes(self) -> int:
        return self.fn_costs.shape[0]

    def fp_costs_off_diagonal(self) -> np.ndarray:
        """fp_costs with the (unread) diagonal forced to zero."""
        out = self.fp_costs.copy()
        np.fill_diagonal(out, 0.0)
        return out


@dataclass
class LegacyWeights:
    """Class weights for the standard weighted cross-entropies.

    positive scales the positive-label term of the binary loss; per_class
    scales each true-class term of the categorical loss.  Both must be
    strictly positive.
    """

    positive: float = 1.0
    per_class: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.positive) or self.positive <= 0:
            raise ValueError(f"positive weight must be finite and > 0, got {self.positive!r}")
        if self.per_class is not None:
            self.per_class = np.asarray(self.per_class, dtype=np.float64)
            if self.per_class.ndim != 1 or self.per_class.size < 2:
                raise ValueError("per_class must be a vector of length >= 2")
            if not np.all(np.isfinite(self.per_class)) or np.any(self.per_class <= 0):
                raise ValueError("per_class weights must be finite and > 0")


@dataclass
class LossSpec:
    """A loss variant plus whatever weight payload that variant needs."""

    variant: str
    weights: LegacyWeights | None = None
    binary_cost: BinaryCostModel | None = None
    categorical_cost: CategoricalCostModel | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")
        if self.variant == "wbce" and (self.weights is None):
            raise ValueError("wbce requires LegacyWeights with a positive weight")
        if self.variant == "wcce" and (self.weights is None or self.weights.per_class is None):
            raise ValueError("wcce requires LegacyWeights with per_class weights")
        if self.variant == "rwwce_binary" and self.binary_cost is None:
            raise ValueError("rwwce_binary requires a BinaryCostModel")
        if self.variant == "rwwce_categorical" and self.categorical_cost is None:
            raise ValueError("rwwce_categorical requires a CategoricalCostModel")

    @property
    def is_binary(self) -> bool:
        return self.variant in BINARY_VARIANTS

    @classmethod
    def bce(cls) -> "LossSpec":
        return cls("bce")

    @classmethod
    def wbce(cls, positive_weight: float) -> "LossSpec":
        return cls("wbce", weights=LegacyWeights(positive=positive_weight))

    @classmethod
    def cce(cls) -> "LossSpec":
        return cls("cce")

    @classmethod
    def wcce(cls, per_class: Sequence[float] | np.ndarray) -> "LossSpec":
        return cls("wcce", weights=LegacyWeights(per_class=np.asarray(per_class, dtype=np.float64)))

    @classmethod
    def rwwce_binary(cls, fn_cost: float, fp_cost: float) -> "LossSpec":
        return cls("rwwce_binary", binary_cost=BinaryCostModel(fn_cost, fp_cost))

    @classmethod
    def rwwce_categorical(cls, fn_costs, fp_costs) -> "LossSpec":
        return cls(
            "rwwce_categorical",
            categorical_cost=CategoricalCostModel(np.asarray(fn_costs), np.asarray(fp_costs)),
        )


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) elsewhere; never overflows
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"softmax expects a 2-D array of logits, got shape {z.shape}")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _binary_term_weights(spec: LossSpec) -> tuple[float, float]:
    """(positive-term, negative-term) multipliers for a binary variant."""
    if spec.variant == "bce":
        return 1.0, 1.0
    if spec.variant == "wbce":
        return spec.weights.positive, 1.0
    return spec.binary_cost.fn_cost, spec.binary_cost.fp_cost


def _categorical_term_weights(spec: LossSpec, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(true-class vector, off-diagonal fp matrix) multipliers for a categorical variant."""
    if spec.variant == "cce":
        return np.ones(k), np.zeros((k, k))
    if spec.variant == "wcce":
        w = spec.weights.per_class
        if w.shape[0] != k:
            raise ValueError(f"per_class has {w.shape[0]} entries for {k} classes")
        return w, np.zeros((k, k))
    cost = spec.categorical_cost
    if cost.num_classes != k:
        raise ValueError(f"cost model has {cost.num_classes} classes, batch has {k}")
    return cost.fn_costs, cost.fp_costs_off_diagonal()


def checked_targets(spec: LossSpec, y, h_shape) -> tuple[np.ndarray, tuple]:
    """Validate labels for probabilities of shape h_shape and resolve the term weights.

    Binary labels and probabilities may each be (M,) or a single column
    (M, 1); categorical ones are (M, K) with one-hot label rows.  These are
    loss_value's label checks and messages.  Returns (labels, weights) as
    loss_and_gradient takes them, binary labels flattened; train() calls
    this once for its whole training set.
    """
    y = np.asarray(y, dtype=np.float64)
    if spec.is_binary:
        if len(h_shape) == 2 and h_shape[1] == 1:
            h_shape = h_shape[:1]
        if y.ndim == 2 and y.shape[1] == 1:
            y = y[:, 0]
        if len(h_shape) != 1 or y.ndim != 1:
            raise ValueError(f"expected vectors, got shapes {h_shape} and {y.shape}")
    elif len(h_shape) != 2 or y.ndim != 2:
        raise ValueError(f"expected 2-D arrays, got shapes {h_shape} and {y.shape}")
    if h_shape != y.shape:
        raise ValueError(f"shape mismatch: {h_shape} probabilities vs {y.shape} labels")
    if y.shape[0] == 0:
        raise ValueError("empty batch")
    if spec.is_binary:
        if np.any((y != 0.0) & (y != 1.0)):
            raise ValueError("binary labels must be exactly 0 or 1")
        return y, _binary_term_weights(spec)
    if h_shape[1] < 2:
        raise ValueError("categorical batch needs at least two classes")
    if np.any((y != 0.0) & (y != 1.0)) or np.any(y.sum(axis=1) != 1.0):
        raise ValueError("labels must be exact one-hot rows")
    return y, _categorical_term_weights(spec, h_shape[1])


def _checked(spec: LossSpec, h, y) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(weights, probabilities, labels) of one batch, validated for loss_and_gradient."""
    h = np.asarray(h, dtype=np.float64)
    y, weights = checked_targets(spec, y, h.shape)
    if np.any(h < 0.0) or np.any(h > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if not spec.is_binary and np.any(np.abs(h.sum(axis=1) - 1.0) > ROW_SUM_TOLERANCE):
        raise ValueError("probability rows must sum to 1")
    return weights, h, y


def loss_and_gradient(
    spec: LossSpec, weights, h: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """The batch loss and its gradient with respect to the final-layer logits.

    Unchecked: h holds float64 probabilities and (y, weights) are what
    checked_targets returns for them.  With each log argument clipped below
    at EPSILON, and u_t = -a_t on a row's true class t, u_j = (y @ FP)_j *
    h_j / (1 - h_j) elsewhere:

      binary       loss = -mean(a * y * log h + b * (1 - y) * log(1 - h))
                   dJ/dz = (a * y * (h - 1) + b * (1 - y) * h) / M
      categorical  loss = -mean over rows of sum(a * y * log h) + sum((y @ FP) * log(1 - h))
                   dJ/dz_i = (u_i - h_i * sum_j u_j) / M

    The sigmoid/softmax Jacobian is folded in analytically, which keeps the
    gradient free of the 1/h and 1/(1-h) blowups a chain through the raw
    probability gradient would hit.  The gradient has h's shape.
    """
    if spec.is_binary:
        a, b = weights
        hv = h.reshape(y.shape)
        pos = a * y
        neg = b * (1.0 - y)
        log_h = np.log(np.maximum(hv, EPSILON))
        log_not_h = np.log(np.maximum(1.0 - hv, EPSILON))
        loss = float(-np.mean(pos * log_h + neg * log_not_h))
        dz = (pos * (hv - 1.0) + neg * hv) / hv.shape[0]
        return loss, dz.reshape(h.shape)
    a, fp = weights
    pos = a * y
    wrong = y @ fp
    not_h = np.maximum(1.0 - h, EPSILON)
    log_h = np.log(np.maximum(h, EPSILON))
    loss = float(-np.mean((pos * log_h).sum(axis=1) + (wrong * np.log(not_h)).sum(axis=1)))
    u = -pos + wrong * (h / not_h)
    s = u.sum(axis=1, keepdims=True)
    return loss, (u - h * s) / h.shape[0]


def loss_value(spec: LossSpec, h, y) -> float:
    """Evaluate the loss named by spec on a batch of predictions.

    Validates the batch, then evaluates loss_and_gradient's formula with
    (a, b) or (a, FP) taken from the variant's term weights.
    """
    return loss_and_gradient(spec, *_checked(spec, h, y))[0]


def bce_loss(h, y) -> float:
    """Binary cross-entropy, averaged over the batch."""
    return loss_value(LossSpec.bce(), h, y)


def wbce_loss(h, y, weights: LegacyWeights) -> float:
    """Binary cross-entropy with the positive-label term scaled by weights.positive."""
    return loss_value(LossSpec("wbce", weights=weights), h, y)


def rwwce_binary_loss(h, y, cost: BinaryCostModel) -> float:
    """Binary cross-entropy with each error term priced at its marginal cost.

    The positive-label log term carries cost.fn_cost, the negative-label term
    cost.fp_cost, so the value is the batch-mean expected cost surrogate.
    """
    return loss_value(LossSpec("rwwce_binary", binary_cost=cost), h, y)


def cce_loss(h, y) -> float:
    """Categorical cross-entropy over probability rows and one-hot labels."""
    return loss_value(LossSpec.cce(), h, y)


def wcce_loss(h, y, weights: LegacyWeights) -> float:
    """Categorical cross-entropy with each true-class term scaled by its class weight."""
    return loss_value(LossSpec("wcce", weights=weights), h, y)


def rwwce_categorical_loss(h, y, cost: CategoricalCostModel) -> float:
    """Categorical cross-entropy priced by real-world costs.

    For an example of true class k the loss charges fn_costs[k] on the
    true-class log term and, for every other class k', fp_costs[k][k'] on
    log(1 - h_k'), penalizing probability parked on wrong classes that are
    expensive to confuse.  The diagonal of fp_costs is ignored.
    """
    return loss_value(LossSpec("rwwce_categorical", categorical_cost=cost), h, y)


def fused_gradient_from_probs(spec: LossSpec, h, y) -> np.ndarray:
    """Gradient of loss_value with respect to the final-layer logits,
    expressed through the activation outputs h (sigmoid or softmax rows).

    Returns an array shaped like h, already carrying the 1/M batch-mean
    factor; see loss_and_gradient for the formulas.
    """
    return loss_and_gradient(spec, *_checked(spec, h, y))[1]


def fused_logit_gradient(spec: LossSpec, z, y) -> np.ndarray:
    """Gradient of loss_value(spec, activation(z), y) with respect to z.

    For binary variants z holds sigmoid logits, shape (M,) or (M, 1); for
    categorical variants z holds softmax logit rows, shape (M, K).  Matches
    central finite differences of the composed loss.
    """
    z = np.asarray(z, dtype=np.float64)
    if spec.is_binary:
        h = sigmoid(z)
    else:
        h = softmax(z)
    return fused_gradient_from_probs(spec, h, y)
