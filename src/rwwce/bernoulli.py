"""Single-parameter demonstration that cost weighting moves the optimum.

A weighted Bernoulli model: n_pos positive observations with weight w_pos
each and n_neg negatives with weight w_neg each.  The weighted cross-entropy
over the sample, normalized by the total weight M = w_pos*n_pos + w_neg*n_neg,

    J(p) = -(w_pos*n_pos*ln p + w_neg*n_neg*ln(1-p)) / M,

is strictly convex with the closed-form minimizer
p* = w_pos*n_pos / (w_pos*n_pos + w_neg*n_neg), which is also the maximum
likelihood estimate when each observation is replicated in proportion to its
weight.  The module exposes the closed form, damped Fisher scoring that
reaches it from any start, the loss curve, and a likelihood maximizer over
the logit of p that confirms the MLE equivalence numerically.

Log and clipping conventions match the losses module (natural log, log
arguments clipped below at EPSILON).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .losses import EPSILON

# The logit range likelihood_check searches: sigmoid(40) rounds to 1.0 and
# sigmoid(-40) to 4.2e-18 in float64, so it reaches both ends of [0, 1].
LOGIT_BOUND = 40.0


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
        try:
            total = self.total_weight
        except OverflowError:  # a count too large to convert to float
            total = math.inf
        if not math.isfinite(total):
            raise ValueError("total weight w_pos*n_pos + w_neg*n_neg overflows to inf")

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
    return scenario.weighted_pos / scenario.total_weight


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


def check_descend_args(p0: float, step: float, iterations: int) -> None:
    """Raise ValueError for a start, step or budget descend cannot run with."""
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"p0 must lie strictly inside (0, 1), got {p0}")
    if step <= 0:
        raise ValueError("step must be > 0")
    if not math.isfinite(step):
        raise ValueError("step must be finite")
    if step > 1:
        raise ValueError("step must be <= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")


def descend(
    scenario: BernoulliScenario,
    p0: float = 0.5,
    step: float = 0.01,
    iterations: int = 100_000,
) -> float:
    """Minimize J from p0 by damped Fisher scoring.

    Each update is the gradient of J scaled by p(1-p), the inverse Fisher
    information of one Bernoulli draw, written out so nothing divides by p:
    p += step * (a*(1-p) - b*p) / M.  That moves p the fraction step of the
    way to the minimizer, so for 0 < step <= 1 the iterate never leaves
    [0, 1] and converges geometrically, even to a minimizer at 0 or 1.  a and
    b are divided by M first, so subnormal weights keep their digits.
    """
    check_descend_args(p0, step, iterations)
    m = scenario.total_weight
    a, b = scenario.weighted_pos / m, scenario.weighted_neg / m
    p = p0
    for _ in range(iterations):
        p += step * (a * (1.0 - p) - b * p)
    return p


def likelihood_check(scenario: BernoulliScenario) -> tuple[float, float]:
    """(numerical likelihood argmax, analytic loss argmin).

    Maximizes the weighted log-likelihood a*ln(p) + b*ln(1-p) over the logit z
    of p, where it is a*ln(sigmoid(z)) + b*ln(sigmoid(-z)): concave and finite
    everywhere, so a ternary search over [-LOGIT_BOUND, LOGIT_BOUND] finds it
    even at p = 0 or 1.  Ternary stalls near sqrt(double epsilon), as the
    objective is locally quadratic; one parabolic-vertex step through a wider
    stencil recovers the rest.  Only the likelihood is evaluated, divided by
    max(a, b) so that every value stays a normal float.  The two returned
    values agree to well under 1e-8: minimizing the weighted loss and
    maximizing the weighted likelihood pick the same parameter.
    """
    top = max(scenario.weighted_pos, scenario.weighted_neg)
    a, b = scenario.weighted_pos / top, scenario.weighted_neg / top

    def log_likelihood(z: float) -> float:
        return -a * math.log1p(math.exp(-z)) - b * math.log1p(math.exp(z))

    lo, hi = -LOGIT_BOUND, LOGIT_BOUND
    for _ in range(200):
        third = (hi - lo) / 3.0
        if log_likelihood(lo + third) < log_likelihood(hi - third):
            lo += third
        else:
            hi -= third
    z = (lo + hi) / 2.0

    # The stencil's cubic term moves the vertex by about (1 - 2p) * h**2 / 6 in
    # z, at most 1.6e-10 in p at this h, while rounding noise grows as h shrinks.
    h = 1e-4
    f_minus = log_likelihood(z - h)
    f_zero = log_likelihood(z)
    f_plus = log_likelihood(z + h)
    curvature = f_plus - 2.0 * f_zero + f_minus
    if curvature < 0.0:
        offset = 0.5 * h * (f_minus - f_plus) / curvature
        # An offset beyond the stencil means the quadratic fit was noise.
        if abs(offset) < h:
            z += offset
    return 1.0 / (1.0 + math.exp(-z)), analytic_minimizer(scenario)
