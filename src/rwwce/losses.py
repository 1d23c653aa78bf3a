"""Cross-entropy loss family with real-world cost weighting.

Every loss here is a per-example sum of weighted log terms, averaged over
the batch and negated.  The plain and class-weighted losses are the familiar
binary/categorical cross-entropies; the real-world-weight ones replace the
class weights with marginal dollar (or hour, or any unit) costs of false
negatives and false positives, so the training objective is denominated in
the same units as the deployment cost.

All losses use natural log and clip each log argument below at EPSILON so a
saturated probability yields a large finite penalty instead of an infinity.
A LossSpec is a loss's term weights, in one of two families: binary (a, b)
on the positive- and negative-label log terms, or categorical (a, FP) on
the true-class and wrong-class terms; its six classmethods build the
paper's weightings, each a point of one family.
checked_targets holds labels, one class index per example, to
data.check_labels and weighs each example's log h and log(1 - h) terms as
(pos, neg); from those, one unchecked kernel, loss_and_gradient, evaluates
one loss expression for every spec and its logit gradient, so the weighted
losses degenerate to the unweighted ones exactly when their weights are 1
(and FP is 0); tests hold them to that.  loss_value and
fused_gradient_from_probs validate a batch and call it; train() weighs its
labels once and calls it per batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_labels, check_nonnegative, check_real

EPSILON = 1e-7

ROW_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class BinaryCostModel:
    """Marginal real-world costs of the two binary error types.

    fn_cost is charged against the positive-label log term (missing a real
    positive), fp_cost against the negative-label term (a false alarm).
    Each is a plain float, finite and >= 0 (data.check_real); not both are 0.
    cost_per_error lays them out as the 2x2 cost matrix that
    metrics.real_world_cost prices a binary confusion matrix with.
    """

    fn_cost: float
    fp_cost: float

    def __post_init__(self) -> None:
        for name in ("fn_cost", "fp_cost"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), least=0))
        if self.fn_cost == 0 and self.fp_cost == 0:
            raise ValueError("at least one of fn_cost, fp_cost must be positive")

    @property
    def cost_per_error(self) -> np.ndarray:
        """[[0, fp_cost], [fn_cost, 0]]: rows are the true class, columns the
        predicted one, so a false negative (true 1, predicted 0) costs fn_cost."""
        return np.array([[0.0, self.fp_cost], [self.fn_cost, 0.0]])


@dataclass(frozen=True)
class LossSpec:
    """A loss's term weights, as loss_and_gradient reads them.

    terms is one of two families, held to its rules however the spec is
    built.  Binary: (a, b), the positive- and negative-label multipliers, a
    pair of costs (fn_cost, fp_cost) that BinaryCostModel accepts, stored as
    plain floats.  Categorical: (a, FP), a true-class vector fn_costs of
    length K >= 2 and a KxK wrong-class matrix fp_costs with a zero
    diagonal, every entry finite and >= 0; or None, unit weights whose class
    count comes from the batch.  The classmethods build the paper's six
    weightings: bce is (1.0, 1.0), wbce (w, 1.0), cce None, wcce (w, 0).
    """

    terms: tuple | None

    def __post_init__(self) -> None:
        terms = self.terms
        pair = isinstance(terms, tuple) and len(terms) == 2
        if pair and all(isinstance(t, np.ndarray) for t in terms):
            a, fp = terms
            if a.ndim != 1 or a.size < 2:
                raise ValueError("fn_costs must be a vector of length >= 2")
            if fp.shape != (a.size, a.size):
                raise ValueError(f"fp_costs must be {a.size}x{a.size} to match fn_costs, got {fp.shape}")
            check_nonnegative("fn_costs", a)
            check_nonnegative("fp_costs", fp)
            if np.any(np.diagonal(fp)):
                raise ValueError("the diagonal of fp_costs must be zero")
        elif pair:  # BinaryCostModel names a term that is not a number
            cost = BinaryCostModel(*terms)
            object.__setattr__(self, "terms", (cost.fn_cost, cost.fp_cost))
        elif terms is not None:
            raise ValueError(
                "loss terms must be None, a pair of numbers (fn_cost, fp_cost) "
                f"or a pair of arrays (fn_costs, fp_costs), got {terms!r}"
            )

    @property
    def is_binary(self) -> bool:
        return self.terms is not None and isinstance(self.terms[0], float)

    @classmethod
    def bce(cls) -> "LossSpec":
        return cls((1.0, 1.0))

    @classmethod
    def wbce(cls, positive_weight: float) -> "LossSpec":
        """Binary cross-entropy with the positive-label term scaled by positive_weight."""
        return cls((check_real("positive weight", positive_weight, above=0), 1.0))

    @classmethod
    def cce(cls) -> "LossSpec":
        return cls(None)

    @classmethod
    def wcce(cls, per_class) -> "LossSpec":
        """Categorical cross-entropy with each true-class term scaled by its class weight."""
        w = np.array(per_class, dtype=np.float64)  # a copy: the spec owns its weights
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("per_class weights must be finite and > 0")
        return cls((w, np.zeros((w.size, w.size))))

    @classmethod
    def rwwce_binary(cls, fn_cost: float, fp_cost: float) -> "LossSpec":
        """Binary cross-entropy with each error term priced at its marginal cost.

        The positive-label log term carries fn_cost, the negative-label term
        fp_cost, so the value is the batch-mean expected cost surrogate.
        """
        return cls((fn_cost, fp_cost))

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
        return cls((a, fp))


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

    Binary probabilities are (M,) or a single column (M, 1), categorical
    ones (M, K) with K >= 2; the labels y are M class indices that keep
    data.check_labels' rule for 2 or K classes.  Returns (pos, neg), the
    weights of each example's log h and log(1 - h) terms: for binary (a, b),
    a * y and b * (1 - y) as (M, 1) columns; for categorical (a, FP), the
    (M, K) arrays that hold a[y] at each row's true class and 0 elsewhere,
    and FP's row y.  train() calls this once for its whole training set.
    """
    if spec.is_binary and len(h_shape) == 2 and h_shape[1] == 1:
        h_shape = h_shape[:1]
    if len(h_shape) != (1 if spec.is_binary else 2):
        expected = "a vector" if spec.is_binary else "a 2-D array"
        raise ValueError(f"expected {expected} of probabilities, got shape {h_shape}")
    k = 2 if spec.is_binary else h_shape[1]
    if k < 2:
        raise ValueError("categorical batch needs at least two classes")
    y = check_labels(y, k)
    if y.shape[0] != h_shape[0]:
        raise ValueError(f"{y.shape[0]} labels for {h_shape[0]} examples")
    if spec.is_binary:
        a, b = spec.terms
        return a * y[:, None], b * (1 - y[:, None])
    if spec.terms is None:
        a, fp = np.ones(k), np.zeros((k, k))
    else:
        a, fp = spec.terms
        if a.size != k:
            raise ValueError(f"cost model has {a.size} classes, batch has {k}")
    pos = np.zeros(h_shape)
    pos[np.arange(y.size), y] = a[y]
    return pos, fp[y]


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
    spec has one loss, and only its gradient depends on the activation,
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
