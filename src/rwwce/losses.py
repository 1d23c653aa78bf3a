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
for categorical ones.  A LossSpec is a variant name plus those weights; the
classmethod named after the variant builds them, and constructing any spec
checks them against that variant's rules.
checked_targets holds labels to data.Dataset's rule and weighs each
example's log h and log(1 - h) terms as (pos, neg); from those, one
unchecked kernel, loss_and_gradient, evaluates one loss expression for every
variant and its logit gradient, so the weighted variants degenerate to the
unweighted ones exactly when their weights are 1 (and FP is 0); tests hold
them to that.  loss_value and fused_gradient_from_probs validate a batch
and call it; train() weighs its labels once and calls it per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .data import check_labels

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


def _terms_fault(variant: str, terms) -> str | None:
    """Why terms break variant's rules, or None when they fit.

    A fault that a classmethod's arguments can cause names the argument.
    """
    if variant == "cce":
        return None if terms is None else f"got {terms!r}"
    if variant in BINARY_VARIANTS:
        if not (isinstance(terms, tuple) and len(terms) == 2
                and all(isinstance(t, Real) and not isinstance(t, bool) for t in terms)):
            return f"got {terms!r}"
        a, b = terms
        if variant == "rwwce_binary":
            try:
                BinaryCostModel(a, b)
            except ValueError as err:
                return str(err)
            return None
        if variant == "wbce" and (not np.isfinite(a) or a <= 0):
            return f"positive weight must be finite and > 0, got {a!r}"
        if variant == "bce" and a != 1.0:
            return f"the positive-label weight must be 1.0, got {a!r}"
        return None if b == 1.0 else f"the negative-label weight must be 1.0, got {b!r}"
    if not (isinstance(terms, tuple) and len(terms) == 2
            and all(isinstance(t, np.ndarray) for t in terms)):
        return f"got {terms!r}"
    a, fp = terms
    a_name, fp_name = ("per_class", "FP") if variant == "wcce" else ("fn_costs", "fp_costs")
    if a.ndim != 1 or a.size < 2:
        return f"{a_name} must be a vector of length >= 2"
    k = a.size
    if fp.shape != (k, k):
        return f"{fp_name} must be {k}x{k} to match {a_name}, got {fp.shape}"
    if variant == "wcce":
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            return "per_class weights must be finite and > 0"
        return None if not np.any(fp) else "FP must be all zeros"
    for name, arr in ((a_name, a), (fp_name, fp)):
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            return f"{name} entries must be finite and nonnegative"
    return None if not np.any(np.diagonal(fp)) else "the diagonal of fp_costs must be zero"


_TERMS_SHAPE = {
    "cce": "None",
    **dict.fromkeys(BINARY_VARIANTS, "a pair of numbers (a, b)"),
    **dict.fromkeys(("wcce", "rwwce_categorical"), "(a, FP): a length-K array and a KxK array"),
}


@dataclass(frozen=True)
class LossSpec:
    """A loss variant and its term weights, as loss_and_gradient reads them.

    terms is (a, b), the positive- and negative-label multipliers, for the
    binary variants; (a, FP), a true-class weight vector and an off-diagonal
    false-positive matrix, for wcce and rwwce_categorical; and None for cce,
    whose class count comes from the batch.  Construction holds every spec,
    however built, to its variant's rules: bce weighs both terms by 1.0; wbce
    is (a, 1.0) with a finite and > 0; rwwce_binary is a pair of costs
    BinaryCostModel accepts; wcce is finite, positive class weights (K >= 2)
    with an all-zero FP; rwwce_categorical is finite, nonnegative costs
    (K >= 2) with a zero FP diagonal.  The classmethod named after each
    variant turns its arguments into those terms.
    """

    variant: str
    terms: tuple | None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")
        fault = _terms_fault(self.variant, self.terms)
        if fault is not None:
            raise ValueError(f"{self.variant} terms must be {_TERMS_SHAPE[self.variant]}: {fault}")

    @property
    def is_binary(self) -> bool:
        return self.variant in BINARY_VARIANTS

    @classmethod
    def bce(cls) -> "LossSpec":
        return cls("bce", (1.0, 1.0))

    @classmethod
    def wbce(cls, positive_weight: float) -> "LossSpec":
        """Binary cross-entropy with the positive-label term scaled by positive_weight."""
        return cls("wbce", (float(positive_weight), 1.0))

    @classmethod
    def cce(cls) -> "LossSpec":
        return cls("cce", None)

    @classmethod
    def wcce(cls, per_class) -> "LossSpec":
        """Categorical cross-entropy with each true-class term scaled by its class weight."""
        w = np.array(per_class, dtype=np.float64)  # a copy: the spec owns its weights
        return cls("wcce", (w, np.zeros((w.size, w.size))))

    @classmethod
    def rwwce_binary(cls, fn_cost: float, fp_cost: float) -> "LossSpec":
        """Binary cross-entropy with each error term priced at its marginal cost.

        The positive-label log term carries fn_cost, the negative-label term
        fp_cost, so the value is the batch-mean expected cost surrogate.
        """
        return cls("rwwce_binary", (float(fn_cost), float(fp_cost)))

    @classmethod
    def rwwce_categorical(cls, fn_costs, fp_costs) -> "LossSpec":
        """Categorical cross-entropy priced by real-world costs.

        For an example of true class k the loss charges fn_costs[k] on the
        true-class log term and, for every other class k', fp_costs[k][k'] on
        log(1 - h_k'), penalizing probability parked on wrong classes that are
        expensive to confuse.  The diagonal of fp_costs is ignored: a correct
        prediction is not an error, so the spec's copy has it zeroed.
        """
        a = np.array(fn_costs, dtype=np.float64)  # copies: the spec owns its costs
        fp = np.array(fp_costs, dtype=np.float64)
        if fp.ndim == 2:  # any other shape is refused on construction
            np.fill_diagonal(fp, 0.0)
        return cls("rwwce_categorical", (a, fp))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) elsewhere; never overflows
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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
    (M, 1); categorical ones are (M, K), K >= 2; then the labels must keep
    data.Dataset's rule (check_labels).  Returns (pos, neg), the weights of
    each example's log h and log(1 - h) terms: for binary (a, b), a * y and
    b * (1 - y) as (M, 1) columns; for categorical (a, FP), a * y and y @ FP
    as (M, K) arrays.  train() calls this once for its whole training set.
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
    if not spec.is_binary and h_shape[1] < 2:
        raise ValueError("categorical batch needs at least two classes")
    check_labels(y)
    if spec.is_binary:
        a, b = spec.terms
        return a * y[:, None], b * (1.0 - y[:, None])
    k = h_shape[1]
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
