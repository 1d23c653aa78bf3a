"""Acceptance gate: the nine shipped guarantees, one test per criterion.

Each test prints one "[acceptance] criterion N (name): PASS" line on success
(visible under pytest -s); a failed assert leaves the criterion red.  The two
suite-backed criteria train on the full synthetic pool and take a couple of
minutes of CPU; everything else finishes in seconds.

Run just this gate with:  pytest tests/test_acceptance.py -v -s
The module is marked slow, so pytest -m "not slow" runs every other test.
"""

import json

import numpy as np
import pytest

from rwwce import (
    BernoulliScenario,
    BinaryCostModel,
    LossSpec,
    TrainConfig,
    analytic_minimizer,
    best_f1_threshold,
    descend,
    gradcheck_matrix,
    likelihood_check,
    loss_value,
    paired_t_test,
    real_world_cost,
    records_match,
    run_binary_suite,
    run_categorical_suite,
    sample_pairs,
    softmax,
)
from rwwce.experiments import _without_wall_time

from test_metrics import TTEST_REFERENCE, binary_tallies, brute_force_best_f1

pytestmark = pytest.mark.slow

FAST_BINARY = TrainConfig(epochs=2, batch_size=100, seed=0)
FAST_CATEGORICAL = TrainConfig(epochs=1, batch_size=100, seed=0)


def passed(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def binary_suite(full_pool):
    # Ten trials, digits 0..9 with slice 0, default costs and training recipe.
    return run_binary_suite(full_pool, digits=list(range(10)), slices=[0], base_seed=42)


@pytest.fixture(scope="module")
def categorical_suite(full_pool):
    return run_categorical_suite(full_pool, sample_pairs(10, 42), base_seed=42)


def test_criterion_1_gradient_correctness():
    worst_by_variant = gradcheck_matrix(seed=0, instances_per_variant=100, step=1e-5)
    assert len(worst_by_variant) == 6
    assert all(worst < 1e-5 for worst in worst_by_variant.values()), worst_by_variant
    passed(1, "gradient correctness")


def test_criterion_2_loss_degeneracies():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 33))
        h = rng.uniform(1e-6, 1.0 - 1e-6, size=m)
        y = rng.integers(0, 2, size=m).astype(np.float64)
        w = float(rng.uniform(0.1, 100.0))
        bce = loss_value(LossSpec.bce(), h, y)
        worst = max(worst, abs(loss_value(LossSpec.rwwce_binary(1.0, 1.0), h, y) - bce))
        worst = max(
            worst,
            abs(
                loss_value(LossSpec.rwwce_binary(w, 1.0), h, y)
                - loss_value(LossSpec.wbce(w), h, y)
            ),
        )

        k = int(rng.integers(2, 11))
        hk = softmax(rng.normal(size=(m, k)) * 3.0)
        yk = np.eye(k)[rng.integers(0, k, size=m)]
        cce = loss_value(LossSpec.cce(), hk, yk)
        unit = LossSpec.rwwce_categorical(np.ones(k), np.zeros((k, k)))
        worst = max(worst, abs(loss_value(unit, hk, yk) - cce))
        worst = max(worst, abs(loss_value(LossSpec.wcce(np.ones(k)), hk, yk) - cce))
    assert worst <= 1e-15, worst
    passed(2, "loss degeneracies")


def test_criterion_3_weighted_bernoulli_mle():
    scenario = BernoulliScenario(n_pos=1, n_neg=1, w_pos=9.0, w_neg=1.0)
    assert abs(analytic_minimizer(scenario) - 0.9) < 1e-12
    assert abs(descend(scenario) - 0.9) <= 1e-4

    rng = np.random.default_rng(5150)
    for _ in range(100):
        random_scenario = BernoulliScenario(
            n_pos=int(rng.integers(1, 51)),
            n_neg=int(rng.integers(1, 51)),
            w_pos=float(rng.uniform(0.1, 10.0)),
            w_neg=float(rng.uniform(0.1, 10.0)),
        )
        argmax, closed_form = likelihood_check(random_scenario)
        assert abs(argmax - closed_form) <= 1e-8
    passed(3, "weighted Bernoulli MLE")


def test_criterion_4_real_world_cost_anchors():
    cost = BinaryCostModel(2000.0, 100.0)
    # Mean binary tallies from the published rows: 15,908 test examples with
    # 45.4 false negatives and 12.7 false positives for the control, 16.1
    # and 127.2 for the test model.
    assert 5.76 <= real_world_cost(binary_tallies(45.4, 12.7, 15908), cost.cost_per_error) <= 5.81
    assert 2.79 <= real_world_cost(binary_tallies(16.1, 127.2, 15908), cost.cost_per_error) <= 2.84

    # Mean 10-class tallies reconstructed from the published aggregate rows:
    # 17,500 test examples; 623.0 mean errors with 6.67 on the expensive pair
    # for the control, 633.5 with 2.57 for the experimental model.
    def tallies(errors, expensive):
        counts = np.zeros((10, 10))
        counts[0, 0] = 17_500.0 - errors
        counts[2, 1] = expensive
        counts[3, 4] = errors - expensive
        return counts

    pair_cost = np.ones((10, 10))
    np.fill_diagonal(pair_cost, 0.0)
    pair_cost[2, 1] = 20.0
    control = real_world_cost(tallies(623.0, 6.67), pair_cost)
    experimental = real_world_cost(tallies(633.5, 2.57), pair_cost)
    assert abs(control - 0.0428) < 0.0005
    assert abs(experimental - 0.0390) < 0.0005
    passed(4, "real-world cost anchors")


def test_criterion_5_binary_suite_orderings(binary_suite):
    summary, _ = binary_suite
    assert summary.trials == 10
    means = summary.means
    assert means["test"]["fn"] < means["control1"]["fn"]
    assert means["test"]["fp"] > means["control1"]["fp"]
    assert means["test"]["real_world_cost"] < means["control1"]["real_world_cost"]
    assert means["test"]["real_world_cost"] < means["control2"]["real_world_cost"]
    assert means["test"]["top1_error"] > means["control1"]["top1_error"]
    passed(5, "binary suite orderings")


def test_criterion_6_categorical_suite_orderings(categorical_suite):
    summary, _ = categorical_suite
    assert summary.trials == 10
    means = summary.means
    assert means["experimental"]["high_cost_count"] < means["control"]["high_cost_count"]
    assert means["experimental"]["real_world_cost"] < means["control"]["real_world_cost"]
    assert abs(means["experimental"]["top1_error"] - means["control"]["top1_error"]) < 0.01
    assert 0.02 <= means["control"]["top1_error"] <= 0.06
    passed(6, "categorical suite orderings")


def test_criterion_7_f1_threshold_search(binary_suite):
    rng = np.random.default_rng(31337)
    for _ in range(500):
        n = int(rng.integers(1, 201))
        decimals = int(rng.integers(1, 4))  # coarse rounding forces score ties
        scores = np.round(rng.uniform(0.0, 1.0, size=n), decimals)
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        assert best_f1_threshold(scores, labels) == brute_force_best_f1(scores, labels)

    # Moving the cutoff to the searched optimum never loses validation F1.
    _, records = binary_suite
    for i in range(0, len(records), 3):
        control1, control2 = records[i], records[i + 1]
        assert control2.validation_f1 >= control1.validation_f1
    passed(7, "F1 threshold search")


def test_criterion_8_paired_t_test():
    for a, b, t_ref, p_ref in TTEST_REFERENCE:
        result = paired_t_test(np.array(a), np.array(b))
        assert abs(result.p_value - p_ref) <= 1e-6
        assert abs(result.t_statistic - t_ref) <= 1e-6 * max(1.0, abs(t_ref))

    rng = np.random.default_rng(2718)
    for _ in range(1000):
        n = int(rng.integers(2, 41))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        forward_result = paired_t_test(a, b)
        reverse_result = paired_t_test(b, a)
        assert reverse_result.t_statistic == -forward_result.t_statistic
        assert reverse_result.p_value == forward_result.p_value
    passed(8, "paired t-test")


def test_criterion_9_determinism(small_pool):
    def frozen(records):
        return json.dumps([_without_wall_time(r) for r in records], sort_keys=True)

    binary_runs = [
        run_binary_suite(
            small_pool,
            digits=[3, 7],
            slices=[0],
            base_seed=5,
            train_template=FAST_BINARY,
            jobs=jobs,
        )[1]
        for jobs in (1, 1, 2)
    ]
    assert records_match(binary_runs[0], binary_runs[1])
    assert records_match(binary_runs[0], binary_runs[2])
    assert frozen(binary_runs[0]) == frozen(binary_runs[1]) == frozen(binary_runs[2])

    categorical_runs = [
        run_categorical_suite(
            small_pool,
            [(4, 9), (2, 6)],
            base_seed=5,
            train_template=FAST_CATEGORICAL,
            jobs=jobs,
        )[1]
        for jobs in (1, 1, 2)
    ]
    assert records_match(categorical_runs[0], categorical_runs[1])
    assert records_match(categorical_runs[0], categorical_runs[2])
    assert frozen(categorical_runs[0]) == frozen(categorical_runs[1]) == frozen(categorical_runs[2])
    passed(9, "determinism")
