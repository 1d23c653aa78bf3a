"""Evaluation metrics for cost-sensitive classifiers.

Binary confusion counts with a strict decision threshold, F1 and an
exhaustive best-F1 threshold search, multiclass confusion matrices, the
real-world cost of a test run (errors priced by their marginal costs, not
just counted), top-1 error, and a paired two-sided t-test for comparing
per-trial metric vectors; labels keep data.Dataset's rule (check_labels).
The Student-t tail probability comes from the regularized incomplete beta
function, so the package carries no statistics dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import check_labels, check_nonnegative, check_real


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _scores_and_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Scores and 0/1 labels as matching non-empty float64 vectors, or ValueError."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise ValueError(f"scores and labels must be matching vectors, got {scores.shape} and {labels.shape}")
    check_labels(labels)
    return scores, labels


def confusion_binary(scores, labels, threshold: float) -> ConfusionCounts:
    """Count the four outcomes of thresholding scores at a strict cutoff.

    An example is predicted positive exactly when its score is strictly
    greater than threshold, so a score equal to the threshold is negative.
    threshold is any finite number (data.check_real), not only one in [0, 1]:
    best_f1_threshold's sentinels lie outside the scores.
    """
    scores, labels = _scores_and_labels(scores, labels)
    predicted = scores > check_real("threshold", threshold)
    actual = labels == 1.0
    return ConfusionCounts(
        tp=int(np.count_nonzero(predicted & actual)),
        fp=int(np.count_nonzero(predicted & ~actual)),
        tn=int(np.count_nonzero(~predicted & ~actual)),
        fn=int(np.count_nonzero(~predicted & actual)),
    )


def f1_score(counts: ConfusionCounts) -> float:
    """F1 = 2tp / (2tp + fp + fn); defined as 0 when that denominator is 0."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        return 0.0
    return 2.0 * counts.tp / denom


def best_f1_threshold(scores, labels) -> tuple[float, float]:
    """Exhaustively search thresholds for the best F1 on this sample.

    Candidates are one sentinel above the maximum score, the midpoints
    between consecutive distinct scores (the lower score where the midpoint
    rounds up to the upper one), and one sentinel below the minimum (each
    sentinel 1.0 away, or the adjacent double where that rounds back);
    together these realize every achievable confusion split under the strict
    greater-than rule.  Returns (threshold, f1); ties in F1 go to the larger
    threshold.  When no positive labels exist every candidate scores 0 and
    the above-maximum sentinel is returned.
    """
    scores, labels = _scores_and_labels(scores, labels)
    distinct = np.unique(scores)  # ascending
    descending = distinct[::-1]
    candidates = np.empty(distinct.size + 1)
    candidates[0] = max(descending[0] + 1.0, np.nextafter(descending[0], np.inf))
    # The midpoint of two adjacent doubles can round up to the upper score,
    # which would then be scored negative; the lower score splits them instead.
    midpoints = (descending[:-1] + descending[1:]) / 2.0
    candidates[1:-1] = np.where(midpoints < descending[:-1], midpoints, descending[1:])
    candidates[-1] = min(descending[-1] - 1.0, np.nextafter(descending[-1], -np.inf))

    pos_sorted = np.sort(scores[labels == 1.0])
    neg_sorted = np.sort(scores[labels == 0.0])
    n_pos = pos_sorted.size
    # Predicted positive at threshold t means score > t, so count by bisection.
    tp = n_pos - np.searchsorted(pos_sorted, candidates, side="right")
    fp = neg_sorted.size - np.searchsorted(neg_sorted, candidates, side="right")
    fn = n_pos - tp

    denom = 2 * tp + fp + fn
    f1 = np.divide(2.0 * tp, denom, out=np.zeros(candidates.size), where=denom > 0)
    best = int(np.argmax(f1))  # the first maximum: the largest threshold wins ties
    return float(candidates[best]), float(f1[best])


def real_world_cost_binary(fn, fp, n, cost) -> float:
    """Mean per-example cost of a binary test run: (fn_cost*fn + fp_cost*fp) / n.

    fn and fp may be fractional (e.g. means over trials); each is finite and
    >= 0, and n finite and > 0 (data.check_real).
    """
    fn, fp = check_real("fn", fn, least=0), check_real("fp", fp, least=0)
    return (cost.fn_cost * fn + cost.fp_cost * fp) / check_real("n", n, above=0)


@dataclass
class ConfusionMatrix:
    """counts[k, k'] tallies examples of true class k predicted as k'.

    The tallies may be fractional; each is finite and >= 0
    (data.check_nonnegative).
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        check_nonnegative("tallies", self.counts)

    @property
    def total(self) -> int | float:
        """The sum of the tallies: a plain int for integer counts, else a float."""
        return self.counts.sum().item()


def confusion_categorical(probabilities, labels) -> ConfusionMatrix:
    """Tally argmax predictions against one-hot labels.

    Argmax ties resolve to the lowest class index on both sides.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.ndim != 2 or y.shape != p.shape:
        raise ValueError(f"expected matching 2-D arrays, got {p.shape} and {y.shape}")
    check_labels(y)
    k = p.shape[1]
    predicted = np.argmax(p, axis=1)
    actual = np.argmax(y, axis=1)
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (actual, predicted), 1)
    return ConfusionMatrix(counts)


def real_world_cost_categorical(tallies, cost_per_error) -> float:
    """Mean per-example cost of a multiclass test run.

    tallies is a ConfusionMatrix or a real-valued square array of (possibly
    fractional) confusion tallies; cost_per_error[k, k'] prices a class-k
    example predicted as k' and must have a zero diagonal, since a correct
    prediction costs nothing.  Every entry of both is finite and >= 0.
    """
    counts = tallies.counts if isinstance(tallies, ConfusionMatrix) else np.asarray(tallies, dtype=np.float64)
    cost = np.asarray(cost_per_error, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError("tallies must be square")
    if cost.shape != counts.shape:
        raise ValueError(f"cost matrix shape {cost.shape} does not match tallies {counts.shape}")
    check_nonnegative("tallies", counts)
    check_nonnegative("cost_per_error", cost)
    if np.any(np.diagonal(cost) != 0.0):
        raise ValueError("cost_per_error must have a zero diagonal")
    total = counts.sum()
    if total <= 0:
        raise ValueError("tallies are empty")
    return float((counts * cost).sum() / total)


def top1_error(matrix: ConfusionMatrix) -> float:
    """Fraction of examples whose argmax prediction missed the true class."""
    total = matrix.total
    if total <= 0:
        raise ValueError("confusion matrix is empty")
    return 1.0 - float(np.trace(matrix.counts)) / total


# --- Student-t machinery -----------------------------------------------------

_BETACF_MAX_ITER = 300
_BETACF_EPS = 3e-16
_BETACF_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_FPMIN:
        d = _BETACF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        # The even and then the odd half-step; convergence is judged after the odd one.
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _BETACF_FPMIN:
                d = _BETACF_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _BETACF_FPMIN:
                c = _BETACF_FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), accurate to well under 1e-10 absolute over the t-test range."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fastest below the distribution mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    p_value: float
    df: int


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired t-test on matched metric vectors.

    t = mean(d) / (sd(d)/sqrt(n)) on the differences d = a - b with the
    sample (n-1) standard deviation; the two-sided p-value comes from the
    Student-t survival function, p = I_x(df/2, 1/2) with x = df/(df + t^2).
    Raises on fewer than two pairs and on zero-variance differences, where
    the statistic is undefined.  Differences whose standard deviation is
    within rounding of the inputs' magnitude (4 machine epsilons of the
    largest |a| or |b|) count as zero variance: they are constant but for
    the rounding of a and b.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"expected matching vectors, got shapes {a.shape} and {b.shape}")
    n = a.size
    if n < 2:
        raise ValueError("paired t-test needs at least two pairs")
    d = a - b
    sd = float(d.std(ddof=1))
    rounding = 4.0 * np.finfo(np.float64).eps * max(np.abs(a).max(), np.abs(b).max())
    if sd <= rounding:
        raise ValueError("differences have zero variance; t statistic undefined")
    t = float(d.mean() / (sd / math.sqrt(n)))
    df = n - 1
    x = df / (df + t * t)
    p = regularized_incomplete_beta(df / 2.0, 0.5, x)
    return TTestResult(t_statistic=t, p_value=min(max(p, 0.0), 1.0), df=df)
