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
for categorical ones.  A LossSpec is a variant name plus those weights,
resolved and validated once by the classmethod named after the variant.
checked_targets validates labels and weighs each example's log h and
log(1 - h) terms as (pos, neg); from those, one unchecked kernel,
loss_and_gradient, evaluates one loss expression for every variant and its
logit gradient, so the weighted variants degenerate to the unweighted ones
exactly when their weights are 1 (and FP is 0); tests hold them to that.
loss_value and fused_gradient_from_probs validate a batch and call it;
train() weighs its labels once and calls it per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

EPSILON = 1e-7

VARIANTS = ("bce", "wbce", "cce", "wcce", "rwwce_binary", "rwwce_categorical")
BINARY_VARIANTS = ("bce", "wbce", "rwwce_binary")

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

    def fp_costs_off_diagonal(self) -> np.ndarray:
        """fp_costs with the (unread) diagonal forced to zero."""
        out = self.fp_costs.copy()
        np.fill_diagonal(out, 0.0)
        return out


def _is_number_pair(terms) -> bool:
    return (
        isinstance(terms, tuple)
        and len(terms) == 2
        and all(isinstance(t, Real) and not isinstance(t, bool) for t in terms)
    )


def _is_vector_and_matrix(terms) -> bool:
    if not (isinstance(terms, tuple) and len(terms) == 2):
        return False
    a, fp = terms
    return (
        isinstance(a, np.ndarray)
        and isinstance(fp, np.ndarray)
        and a.ndim == 1
        and fp.shape == (a.size, a.size)
    )


@dataclass(frozen=True)
class LossSpec:
    """A loss variant and its term weights, as loss_and_gradient reads them.

    terms is (a, b), the positive- and negative-label multipliers, for the
    binary variants; (a, FP), a true-class weight vector and an off-diagonal
    false-positive matrix, for wcce and rwwce_categorical; and None for cce,
    whose class count comes from the batch.  Build a spec with the
    classmethod named after its variant, which validates the weights; a spec
    built directly has only the shape of its terms checked.
    """

    variant: str
    terms: tuple | None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")
        if self.variant == "cce":
            shape_ok, expected = self.terms is None, "None"
        elif self.is_binary:
            shape_ok, expected = _is_number_pair(self.terms), "a pair of numbers (a, b)"
        else:
            shape_ok = _is_vector_and_matrix(self.terms)
            expected = "(a, FP): a length-K array and a KxK array"
        if not shape_ok:
            raise ValueError(f"{self.variant} terms must be {expected}, got {self.terms!r}")

    @property
    def is_binary(self) -> bool:
        return self.variant in BINARY_VARIANTS

    @classmethod
    def bce(cls) -> "LossSpec":
        return cls("bce", (1.0, 1.0))

    @classmethod
    def wbce(cls, positive_weight: float) -> "LossSpec":
        """Binary cross-entropy with the positive-label term scaled by positive_weight."""
        if not np.isfinite(positive_weight) or positive_weight <= 0:
            raise ValueError(f"positive weight must be finite and > 0, got {positive_weight!r}")
        return cls("wbce", (float(positive_weight), 1.0))

    @classmethod
    def cce(cls) -> "LossSpec":
        return cls("cce", None)

    @classmethod
    def wcce(cls, per_class) -> "LossSpec":
        """Categorical cross-entropy with each true-class term scaled by its class weight."""
        w = np.array(per_class, dtype=np.float64)  # a copy: the spec owns its weights
        if w.ndim != 1 or w.size < 2:
            raise ValueError("per_class must be a vector of length >= 2")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("per_class weights must be finite and > 0")
        return cls("wcce", (w, np.zeros((w.size, w.size))))

    @classmethod
    def rwwce_binary(cls, fn_cost: float, fp_cost: float) -> "LossSpec":
        """Binary cross-entropy with each error term priced at its marginal cost.

        The positive-label log term carries fn_cost, the negative-label term
        fp_cost, so the value is the batch-mean expected cost surrogate.
        """
        cost = BinaryCostModel(fn_cost, fp_cost)
        return cls("rwwce_binary", (float(cost.fn_cost), float(cost.fp_cost)))

    @classmethod
    def rwwce_categorical(cls, fn_costs, fp_costs) -> "LossSpec":
        """Categorical cross-entropy priced by real-world costs.

        For an example of true class k the loss charges fn_costs[k] on the
        true-class log term and, for every other class k', fp_costs[k][k'] on
        log(1 - h_k'), penalizing probability parked on wrong classes that are
        expensive to confuse.  The diagonal of fp_costs is ignored.
        """
        cost = CategoricalCostModel(fn_costs, fp_costs)
        return cls("rwwce_categorical", (cost.fn_costs.copy(), cost.fp_costs_off_diagonal()))


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


def checked_targets(spec: LossSpec, y, h_shape) -> tuple[np.ndarray, np.ndarray]:
    """Validate labels for probabilities of shape h_shape and weigh each example's terms.

    Binary labels and probabilities may each be (M,) or a single column
    (M, 1); categorical ones are (M, K) with one-hot label rows.  These are
    loss_value's label checks and messages.  Returns (pos, neg), the weights
    of each example's log h and log(1 - h) terms: a * y and b * (1 - y) as
    (M, 1) columns for binary (a, b), a * y and y @ FP as (M, K) arrays for
    categorical (a, FP).  train() calls this once for its whole training set.
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
        a, b = spec.terms
        y = y[:, None]
        return a * y, b * (1.0 - y)
    k = h_shape[1]
    if k < 2:
        raise ValueError("categorical batch needs at least two classes")
    if np.any((y != 0.0) & (y != 1.0)) or np.any(y.sum(axis=1) != 1.0):
        raise ValueError("labels must be exact one-hot rows")
    if spec.terms is None:
        a, fp = np.ones(k), np.zeros((k, k))
    else:
        a, fp = spec.terms
        if a.size != k:
            if spec.variant == "wcce":
                raise ValueError(f"per_class has {a.size} entries for {k} classes")
            raise ValueError(f"cost model has {a.size} classes, batch has {k}")
    return a * y, y @ fp


def _checked(spec: LossSpec, h, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(probabilities, pos, neg) of one batch, validated for loss_and_gradient;
    binary probabilities come back as a column."""
    h = np.asarray(h, dtype=np.float64)
    pos, neg = checked_targets(spec, y, h.shape)
    if np.any(h < 0.0) or np.any(h > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if not spec.is_binary and np.any(np.abs(h.sum(axis=1) - 1.0) > ROW_SUM_TOLERANCE):
        raise ValueError("probability rows must sum to 1")
    return h.reshape(pos.shape), pos, neg


def loss_and_gradient(h: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> tuple[float, np.ndarray]:
    """The batch loss and its gradient with respect to the final-layer logits.

    Unchecked: h holds float64 probabilities, one sigmoid unit as an (M, 1)
    column or softmax rows as (M, K), and (pos, neg) are what checked_targets
    returns for them.  With each log argument clipped below at EPSILON, every
    variant has one loss, and only its gradient depends on the activation,
    with u = -pos + neg * h / (1 - h):

      loss = -mean over rows of sum(pos * log h) + sum(neg * log(1 - h))
      sigmoid unit  dJ/dz = (pos * (h - 1) + neg * h) / M
      softmax rows  dJ/dz_i = (u_i - h_i * sum_j u_j) / M

    The activation's Jacobian is folded in analytically, which keeps the
    gradient free of the 1/h and 1/(1-h) blowups a chain through the raw
    probability gradient would hit.  The gradient has h's shape.
    """
    not_h = np.maximum(1.0 - h, EPSILON)
    log_h = np.log(np.maximum(h, EPSILON))
    loss = float(-np.mean((pos * log_h).sum(axis=1) + (neg * np.log(not_h)).sum(axis=1)))
    if h.shape[1] == 1:
        return loss, (pos * (h - 1.0) + neg * h) / h.shape[0]
    u = -pos + neg * (h / not_h)
    s = u.sum(axis=1, keepdims=True)
    return loss, (u - h * s) / h.shape[0]


def loss_value(spec: LossSpec, h, y) -> float:
    """Evaluate the loss named by spec on a batch of predictions.

    Validates the batch, weighs each example's log terms with
    checked_targets, and evaluates loss_and_gradient's one loss expression.
    """
    return loss_and_gradient(*_checked(spec, h, y))[0]


def fused_gradient_from_probs(spec: LossSpec, h, y) -> np.ndarray:
    """Gradient of loss_value with respect to the final-layer logits,
    expressed through the activation outputs h (sigmoid or softmax rows).

    Returns an array shaped like h, already carrying the 1/M batch-mean
    factor; see loss_and_gradient for the formulas.
    """
    return loss_and_gradient(*_checked(spec, h, y))[1].reshape(np.shape(h))
