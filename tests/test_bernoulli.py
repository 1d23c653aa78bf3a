"""One-parameter weighted-MLE demonstration: closed form, descent, likelihood."""

import math

import numpy as np
import pytest

from rwwce import BernoulliScenario, analytic_minimizer, descend, likelihood_check, loss_curve
from rwwce.bernoulli import check_descend_args, loss


def test_analytic_minimizer_worked_case():
    # One positive at weight 9 against one negative at weight 1.
    scenario = BernoulliScenario(n_pos=1, n_neg=1, w_pos=9.0, w_neg=1.0)
    assert abs(analytic_minimizer(scenario) - 0.9) < 1e-12


def test_analytic_minimizer_is_weighted_frequency():
    assert analytic_minimizer(BernoulliScenario(9, 1)) == 0.9
    assert analytic_minimizer(BernoulliScenario(1, 9, w_pos=9.0, w_neg=1.0)) == 0.5
    assert analytic_minimizer(BernoulliScenario(3, 1, w_pos=1.0, w_neg=3.0)) == 0.5
    assert analytic_minimizer(BernoulliScenario(0, 5)) == 0.0


def test_loss_value_and_minimum_location():
    scenario = BernoulliScenario(9, 1)
    assert loss(scenario, 0.5) == pytest.approx(math.log(2.0), rel=1e-14)
    p_star = analytic_minimizer(scenario)
    assert loss(scenario, p_star) < loss(scenario, p_star - 0.05)
    assert loss(scenario, p_star) < loss(scenario, p_star + 0.05)


def test_loss_is_finite_at_the_boundaries():
    scenario = BernoulliScenario(9, 1)
    assert math.isfinite(loss(scenario, 0.0))
    assert math.isfinite(loss(scenario, 1.0))


def test_loss_curve_grid_and_validation():
    scenario = BernoulliScenario(2, 2)
    points = loss_curve(scenario, [0.25, 0.5, 0.75])
    assert [p for p, _ in points] == [0.25, 0.5, 0.75]
    assert points[1][1] == pytest.approx(math.log(2.0), rel=1e-14)
    with pytest.raises(ValueError):
        loss_curve(scenario, [0.0, 0.5])
    with pytest.raises(ValueError):
        loss_curve(scenario, [1.0])


def test_descend_reaches_the_closed_form():
    scenario = BernoulliScenario(1, 1, w_pos=9.0, w_neg=1.0)
    assert abs(descend(scenario) - 0.9) < 1e-12
    # Starts on either side of the optimum converge too, even hard against a
    # boundary: each step moves p a fixed fraction of the way to the minimizer.
    for p0 in (1e-9, 0.05, 0.99, 1.0 - 1e-9):
        assert abs(descend(scenario, p0=p0) - 0.9) < 1e-12, p0


def test_descend_reaches_boundary_extreme_and_random_minimizers():
    scenarios = [
        BernoulliScenario(9, 1),
        BernoulliScenario(1, 100_000),
        BernoulliScenario(100_000, 1),
        BernoulliScenario(0, 5),
        BernoulliScenario(5, 0),
        BernoulliScenario(3, 4, w_pos=5e-324, w_neg=5e-324),
        BernoulliScenario(3, 4, w_pos=1e-300, w_neg=1e300),
        BernoulliScenario(3, 4, w_pos=1e300, w_neg=1e300),
    ]
    rng = np.random.default_rng(17)
    for _ in range(40):
        n_pos = int(rng.integers(0, 60))
        scenarios.append(
            BernoulliScenario(
                n_pos,
                int(rng.integers(0 if n_pos else 1, 60)),
                w_pos=float(10.0 ** rng.uniform(-6, 6)),
                w_neg=float(10.0 ** rng.uniform(-6, 6)),
            )
        )
    for scenario in scenarios:
        closed = analytic_minimizer(scenario)
        assert abs(descend(scenario) - closed) < 1e-12, scenario
        p0, step = float(rng.uniform(1e-9, 1.0 - 1e-9)), float(rng.uniform(0.01, 1.0))
        assert abs(descend(scenario, p0=p0, step=step) - closed) < 1e-12, (scenario, p0, step)


def test_a_full_step_lands_on_the_closed_form_at_once():
    assert descend(BernoulliScenario(9, 1), step=1.0, iterations=1) == 0.9
    scenario = BernoulliScenario(3, 4, w_pos=2.5, w_neg=0.7)
    for p0 in (1e-9, 0.3, 1.0 - 1e-9):
        assert descend(scenario, p0=p0, step=1.0, iterations=1) == pytest.approx(
            analytic_minimizer(scenario), abs=1e-15
        )


def test_descend_validation():
    # descend runs the same checks the CLI runs before its echo, with the same messages.
    for arguments, message in [
        ({"p0": 0.0}, r"p0 must lie strictly inside \(0, 1\), got 0.0"),
        ({"step": 0.0}, "step must be > 0"),
        ({"step": math.inf}, "step must be finite"),
        ({"step": 1.5}, "step must be <= 1"),
        ({"iterations": 0}, "iterations must be >= 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            check_descend_args(**{"p0": 0.5, "step": 0.01, "iterations": 1, **arguments})
        with pytest.raises(ValueError, match=message):
            descend(BernoulliScenario(1, 1), **arguments)


def test_likelihood_check_agrees_with_closed_form():
    refined, closed = likelihood_check(BernoulliScenario(1, 1, w_pos=9.0, w_neg=1.0))
    assert closed == 0.9
    assert abs(refined - closed) < 1e-8


def test_likelihood_check_random_scenarios():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        scenario = BernoulliScenario(
            n_pos=int(rng.integers(1, 50)),
            n_neg=int(rng.integers(1, 50)),
            w_pos=float(rng.uniform(0.1, 10.0)),
            w_neg=float(rng.uniform(0.1, 10.0)),
        )
        refined, closed = likelihood_check(scenario)
        assert abs(refined - closed) < 1e-8


def test_likelihood_check_reaches_boundary_and_extreme_minimizers():
    scenarios = [
        BernoulliScenario(0, 5),
        BernoulliScenario(9, 0),
        BernoulliScenario(1, 100_000),
        BernoulliScenario(100_000, 1),
        BernoulliScenario(3, 4, w_pos=1e-300, w_neg=1e-300),
        BernoulliScenario(3, 4, w_pos=1e300, w_neg=1e300),
        BernoulliScenario(3, 4, w_pos=1e-300, w_neg=1e300),
        BernoulliScenario(1, 1, w_pos=5e-324, w_neg=5e-324),
    ]
    rng = np.random.default_rng(15)
    for _ in range(300):
        n_pos = int(rng.integers(0, 60))
        scenarios.append(
            BernoulliScenario(
                n_pos,
                int(rng.integers(0 if n_pos else 1, 60)),
                w_pos=float(10.0 ** rng.uniform(-6, 6)),
                w_neg=float(10.0 ** rng.uniform(-6, 6)),
            )
        )
    for scenario in scenarios:
        refined, closed = likelihood_check(scenario)
        assert closed == analytic_minimizer(scenario)
        assert abs(refined - closed) < 1e-8, scenario


def test_scenario_validation():
    with pytest.raises(ValueError):
        BernoulliScenario(-1, 2)
    with pytest.raises(ValueError):
        BernoulliScenario(0, 0)
    with pytest.raises(ValueError):
        BernoulliScenario(1, 1, w_pos=0.0)
    with pytest.raises(ValueError):
        BernoulliScenario(1, 1, w_neg=math.inf)
    with pytest.raises(ValueError, match="total weight .* overflows to inf"):
        BernoulliScenario(1, 1, w_pos=1e308, w_neg=1e308)


@pytest.mark.parametrize("counts", [(10**400, 1), (1, 10**400)])
def test_a_count_too_large_for_a_float_is_a_value_error(counts):
    with pytest.raises(ValueError, match="total weight .* overflows to inf"):
        BernoulliScenario(*counts)
