"""Single-parameter demonstration that cost weighting moves the optimum.

A weighted Bernoulli model: n_pos positive observations with weight w_pos
each and n_neg negatives with weight w_neg each.  The weighted cross-entropy
over the sample, normalized by the total weight M = w_pos*n_pos + w_neg*n_neg,

    J(p) = -(w_pos*n_pos*ln p + w_neg*n_neg*ln(1-p)) / M,

is strictly convex with the closed-form minimizer
p* = w_pos*n_pos / (w_pos*n_pos + w_neg*n_neg), which is also the maximum
likelihood estimate when each observation is replicated in proportion to its
weight.  The module exposes the closed form, a plain gradient descent that
reaches it from any interior start, the loss curve, and a grid-plus-ternary
likelihood maximizer that confirms the MLE equivalence numerically.

Log and clipping conventions match the losses module (natural log, log
arguments clipped below at EPSILON).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .losses import EPSILON


@dataclass(frozen=True)
class BernoulliScenario:
    """Weighted counts of a two-outcome sample."""

    n_pos: int
    n_neg: int
    w_pos: float = 1.0
    w_neg: float = 1.0

    def __post_init__(self) -> None:
        if self.n_pos < 0 or self.n_neg < 0:
            raise ValueError("counts must be nonnegative")
        if self.n_pos + self.n_neg < 1:
            raise ValueError("need at least one observation")
        for name in ("w_pos", "w_neg"):
            w = getattr(self, name)
            if not math.isfinite(w) or w <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {w!r}")

    @property
    def weighted_pos(self) -> float:
        return self.w_pos * self.n_pos

    @property
    def weighted_neg(self) -> float:
        return self.w_neg * self.n_neg

    @property
    def total_weight(self) -> float:
        return self.weighted_pos + self.weighted_neg


def analytic_minimizer(scenario: BernoulliScenario) -> float:
    """Closed-form argmin of the weighted loss: weighted positives over total weight."""
    total = scenario.total_weight
    if total == 0:
        raise ValueError("total weight is zero; minimizer undefined")
    return scenario.weighted_pos / total


def loss(scenario: BernoulliScenario, p: float) -> float:
    """J(p), the total-weight-normalized weighted cross-entropy at parameter p."""
    a = scenario.weighted_pos
    b = scenario.weighted_neg
    m = scenario.total_weight
    return -(a * math.log(max(p, EPSILON)) + b * math.log(max(1.0 - p, EPSILON))) / m


def loss_curve(scenario: BernoulliScenario, grid) -> list[tuple[float, float]]:
    """(p, J(p)) pairs over a grid of interior parameter values."""
    points = []
    for p in grid:
        p = float(p)
        if not 0.0 < p < 1.0:
            raise ValueError(f"grid values must lie strictly inside (0, 1), got {p}")
        points.append((p, loss(scenario, p)))
    return points


def descend(
    scenario: BernoulliScenario,
    p0: float = 0.5,
    step: float = 0.01,
    iterations: int = 100_000,
) -> float:
    """Minimize J by plain gradient descent from p0.

    The iterate is clamped to [EPSILON, 1-EPSILON] so the log terms stay
    finite.  With step <= 0.01 the map is a contraction near the optimum and
    the default budget converges far tighter than 1e-4 for moderate weights.
    """
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"p0 must lie strictly inside (0, 1), got {p0}")
    if step <= 0:
        raise ValueError("step must be > 0")
    if not math.isfinite(step):
        raise ValueError("step must be finite")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    a = scenario.weighted_pos
    b = scenario.weighted_neg
    m = scenario.total_weight
    lo, hi = EPSILON, 1.0 - EPSILON
    p = p0
    for _ in range(iterations):
        gradient = -(a / p - b / (1.0 - p)) / m
        p -= step * gradient
        if p < lo:
            p = lo
        elif p > hi:
            p = hi
    return p


def likelihood_check(scenario: BernoulliScenario) -> tuple[float, float]:
    """(numerical likelihood argmax, analytic loss argmin).

    Maximizes the weighted log-likelihood a*ln(p) + b*ln(1-p) over a dense
    10^4-point interior grid, refines the bracket around the best grid point
    with ternary search, then takes one parabolic-vertex step.  The whole
    procedure only ever evaluates the likelihood: ternary alone stalls near
    sqrt(double epsilon) because the objective is locally quadratic, and the
    vertex step through a wider stencil recovers the remaining digits.  The
    two returned values agree to well under 1e-8, demonstrating that
    minimizing the weighted loss and maximizing the weighted likelihood pick
    the same parameter.
    """
    a = scenario.weighted_pos
    b = scenario.weighted_neg

    def log_likelihood(p: float) -> float:
        return a * math.log(p) + b * math.log(1.0 - p)

    n = 10_000
    best_i = 1
    best_ll = -math.inf
    for i in range(1, n):
        ll = log_likelihood(i / n)
        if ll > best_ll:
            best_ll = ll
            best_i = i
    lo = max(best_i - 1, 1) / n
    hi = min(best_i + 1, n - 1) / n
    for _ in range(200):
        third = (hi - lo) / 3.0
        left = lo + third
        right = hi - third
        if log_likelihood(left) < log_likelihood(right):
            lo = left
        else:
            hi = right
    argmax = (lo + hi) / 2.0

    h = min(1e-6, argmax / 2.0, (1.0 - argmax) / 2.0)
    f_minus = log_likelihood(argmax - h)
    f_zero = log_likelihood(argmax)
    f_plus = log_likelihood(argmax + h)
    curvature = f_plus - 2.0 * f_zero + f_minus
    if curvature < 0.0:
        offset = 0.5 * h * (f_minus - f_plus) / curvature
        # An offset beyond the stencil means the quadratic fit was noise.
        if abs(offset) < h:
            argmax += offset
    return argmax, analytic_minimizer(scenario)
