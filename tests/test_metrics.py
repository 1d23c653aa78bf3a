"""Metrics: confusion counting, F1 search, real-world cost, Student-t."""

import dataclasses
import math
import re

import numpy as np
import pytest

from rwwce import (
    BinaryCostModel,
    ConfusionMatrix,
    best_f1_threshold,
    confusion_binary,
    confusion_categorical,
    f1_score,
    paired_t_test,
    real_world_cost,
    regularized_incomplete_beta,
    top1_error,
)

# Twenty fixed (a, b) vector pairs with their t statistic and two-sided p
# computed independently at 60 significant digits (difference means, sample
# standard deviation, and the regularized incomplete beta all evaluated in
# extended precision, then rounded to float64).  Layout: (a, b, t, p).
TTEST_REFERENCE = [
    ([0.239, 0.346, -0.438],
     [-1.215, 2.535, 0.733],
     -0.58544536665398377, 0.61750677675674509),
    ([2.423, -0.761, 1.974, 2.154],
     [-0.93, -1.592, 0.137, -0.371],
     3.9992052477260745, 0.028023026089655885),
    ([-0.194, 0.034, 0.288, 2.154, 0.265],
     [0.515, 0.188, 0.101, 1.264, -0.984],
     0.83002613409722413, 0.45318955287130922),
    ([-1.032, -0.508, 0.041, -2.001, 0.354],
     [-0.134, 0.589, 0.558, -1.404, 1.11],
     -7.4141731486253338, 0.0017659702164673223),
    ([-0.702, -0.239, -0.237, 1.567, -0.17, 0.095],
     [-0.374, 1.293, -0.509, 0.819, -0.586, -1.125],
     0.33719312270723347, 0.74966523867114164),
    ([-0.454, -0.808, -1.951, -0.396, -0.879, 1.264],
     [-1.23, 0.144, -2.363, -0.792, -2.865, -1.302],
     1.6853266811566405, 0.15273894509779202),
    ([1.223, 1.53, 1.651, 3.418, 0.69, -1.709, -1.159],
     [-0.196, 0.334, -1.233, -1.756, -1.034, -0.94, 1.432],
     1.3728391249778411, 0.21890209000503715),
    ([0.844, 0.85, -0.392, 2.141, 0.245, 0.179, 0.557, 0.751],
     [0.635, 1.018, -0.152, -0.333, -0.908, -1.579, 0.185, -1.605],
     2.5346421916445928, 0.038967768047498996),
    ([-2.384, 0.717, -0.634, 1.104, 0.471, 0.467, -0.236, 0.544],
     [-1.661, -1.114, -1.741, 0.335, -0.843, -1.182, 0.483, -0.749],
     2.3036668237271123, 0.054694773060643748),
    ([1.788, 1.084, 2.574, -1.701, 0.318, 1.297, 1.508, -0.525, 1.38],
     [-1.617, 0.493, -1.214, 0.642, -1.323, -1.258, -0.104, 1.572, 0.232],
     1.5851783682954847, 0.15158585563229503),
    ([0.16, 1.33, 1.97, 0.211, -0.226, 0.019, -1.089, -0.637, 1.07, 2.175],
     [-0.447, -2.774, -0.165, 0.886, 0.142, -0.9, -0.367, 0.631, -0.814, -1.231],
     1.7232572232106127, 0.11893658586610709),
    ([-0.534, 0.465, -0.512, 1.997, 1.617, 1.299, 2.117, -1.029, 0.307, -0.303],
     [0.136, 0.21, -1.42, 0.421, -0.012, 0.009, -1.089, -0.158, 0.074, 0.708],
     1.5537554174919997, 0.15466219808953641),
    ([-0.678, 1.93, -0.189, 0.613, 0.157, 2.284, -0.488, 0.433, 1.135, 2.228, 0.263, 1.437],
     [-0.877, 1.274, 1.886, -0.264, -0.102, 0.195, 0.71, 0.766, -1.458, -0.569, -0.564, 0.148],
     1.5893996980099497, 0.14027747601937652),
    ([2.189, 1.1, -0.197, 1.339, 0.697, 0.969, 0.013, -0.042, 0.465, -2.484, 2.884, -0.058,
      -1.446, -0.87],
     [-0.299, -1.202, 1.459, -2.066, -0.223, 0.247, -1.643, -0.187, -0.293, -0.115, 1.835,
      0.468, -2.087, -0.774],
     1.6186388831079305, 0.12951927455469053),
    ([1.11, -0.073, -0.098, 1.358, 1.145, 0.334, -0.131, -0.892, -2.278, -0.536, 0.706,
      0.007, -0.271, -0.827, 2.41],
     [0.313, 0.976, -0.64, -1.227, 1.565, 0.051, -1.134, 0.504, -0.505, 1.167, -0.549,
      -0.211, -1.163, -1.261, -1.167],
     0.90234649272991306, 0.38213547430572778),
    ([-0.213, -0.83, -0.99, 1.038, 0.685, -0.626, 0.41, 1.368, 0.235, 0.04, 0.213, -1.124,
      1.419, 1.865, 0.921, -1.794, 0.847, 1.453],
     [0.336, 0.445, 3.246, -1.035, 0.709, -0.463, -0.465, -1.051, -1.311, 0.054, -0.644,
      0.879, 0.904, 0.825, -0.692, -1.685, -1.615, 1.265],
     0.74325355676307735, 0.46747638490883139),
    ([-0.227, 2.45, 0.369, 1.428, 1.029, 0.393, 0.048, -0.793, 0.407, 0.676, -0.843, 1.483,
      1.518, 0.091, 1.881, 1.101, -0.334, -0.341, 0.244, 1.653],
     [0.39, -1.754, 0.045, -1.216, 0.852, 1.117, 1.476, 0.875, 0.821, -1.551, 0.129, -0.26,
      -0.63, 2.122, -0.232, 0.415, -1.058, 0.172, -0.066, -1.492],
     1.5620679660872849, 0.13477452569542454),
    ([-0.283, -0.413, -2.067, 0.496, 1.479, 1.965, 0.218, 0.928, -0.279, 0.477, -0.383,
      -0.924, -0.597, -1.756, 0.387, 1.931, 0.821, 0.169, 0.051, 1.316, -1.615, -0.096,
      1.281, -0.542, 1.162],
     [-1.889, 1.065, -1.684, -0.913, 0.319, -1.789, -0.994, 0.348, 1.036, 0.29, 0.501,
      1.349, -0.272, 0.389, -1.257, -0.876, -0.677, -1.57, 0.151, 0.166, 1.544, -1.103,
      1.833, -0.44, -1.675],
     1.163008043364448, 0.25625992453705923),
    ([-1.495, -0.719, 0.902, -0.668, -0.465, -2.514, 2.89, 2.603, -0.17, 0.346, 2.228,
      2.208, -0.347, -0.482, -0.266, 0.793, 1.936, 1.694, -2.209, 0.72, 0.185, 1.378,
      1.028, 2.056, -1.013, 2.174, -0.521, -1.434, -1.538, -0.107],
     [-0.213, 0.256, 0.996, 1.157, -1.199, 1.009, -0.097, -1.39, 0.889, -0.016, 0.396,
      -0.906, 1.08, -1.009, 0.07, -0.301, -0.197, 0.948, 1.691, 1.003, 0.277, 1.973,
      -1.418, -1.219, -1.365, 0.656, 0.485, -0.3, 0.356, -0.728],
     0.60101425805946997, 0.55249960239944248),
    ([1.287, 0.188, 2.095, -0.212, 0.741, -1.49, -0.324, 1.532, -1.154, -1.044, 0.395,
      -1.473, -0.204, 1.16, -0.242, 2.202, -1.802, -1.272, 0.442, -0.214, 0.123, -0.68,
      -0.225, -1.585, 1.709, -0.805, 1.348, -1.525, 0.607, -1.144, 1.636, -2.022, 0.539,
      0.364, -0.192, 1.432, 0.852, -0.486, -0.586, 1.033],
     [-0.687, -0.637, 2.286, -0.728, 0.886, -0.413, 0.375, 1.265, 0.323, 1.915, -0.65,
      -2.041, -0.474, 1.355, 0.162, -0.272, -0.219, -0.441, -0.506, 0.768, -0.784, 0.573,
      0.082, -0.218, -0.473, 0.685, 0.721, 0.736, -0.94, -1.61, -0.107, 1.117, -0.941,
      2.602, -0.057, -0.828, 0.364, -0.364, -1.058, -1.777],
     0.10960948218402526, 0.91328116187245008),
]

# Probe points for I_x(a, b), same extended-precision derivation.
INCOMPLETE_BETA_REFERENCE = [
    (2.0, 0.5, 4.0 / (4.0 + 18.0), 0.01323559956368269),
    (4.5, 0.5, 9.0 / (9.0 + 0.25), 0.62907129982602665),
    (1.5, 0.5, 3.0 / (3.0 + 4.41), 0.12656520254968461),
    (3.5, 0.5, 7.0 / (7.0 + 144.0), 6.3583103781851007e-06),
    (1.0, 0.5, 2.0 / (2.0 + 1e-08), 0.99992928932188135),
]


# --- binary confusion and F1 ---------------------------------------------------


# A binary confusion matrix is [[tn, fp], [fn, tp]]: rows true, columns predicted.


def test_confusion_binary_hand_case():
    matrix = confusion_binary([0.9, 0.1, 0.8, 0.2, 0.3], [1, 0, 0, 1, 1], 0.5)
    assert np.array_equal(matrix.counts, [[1, 1], [2, 1]])
    assert matrix.total == 5 and type(matrix.total) is int


def test_confusion_binary_never_positive_classifier():
    matrix = confusion_binary([0.0, 0.0, 0.0], [1, 0, 1], 0.5)
    assert np.array_equal(matrix.counts, [[1, 0], [2, 0]])


def test_confusion_binary_threshold_is_strict():
    matrix = confusion_binary([0.5, 0.5], [1, 0], 0.5)
    # score == threshold predicts negative
    assert np.array_equal(matrix.counts, [[1, 0], [1, 0]])


def test_confusion_binary_validation():
    with pytest.raises(ValueError):
        confusion_binary([], [], 0.5)
    with pytest.raises(ValueError):
        confusion_binary([0.5], [2], 0.5)
    with pytest.raises(ValueError):
        confusion_binary([[0.5]], [[1]], 0.5)
    with pytest.raises(ValueError):
        confusion_binary([[0.5]], [1], 0.5)


def test_f1_values():
    assert f1_score(ConfusionMatrix(np.array([[5, 0], [0, 10]]))) == 1.0
    assert f1_score(ConfusionMatrix(np.array([[0, 1], [1, 1]]))) == 0.5
    assert f1_score(ConfusionMatrix(np.array([[9, 0], [0, 0]]))) == 0.0
    assert f1_score(ConfusionMatrix(np.array([[0, 3], [1, 2]]))) == 0.5


def brute_force_best_f1(scores, labels):
    """Independent oracle: every candidate through confusion_binary."""
    scores = np.asarray(scores, dtype=np.float64)
    distinct = sorted(set(scores.tolist()), reverse=True)
    candidates = [distinct[0] + 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    candidates += [distinct[-1] - 1.0]
    best_t, best_f1 = candidates[0], 0.0
    for t in candidates:
        f1 = f1_score(confusion_binary(scores, labels, t))
        if f1 > best_f1:
            best_t, best_f1 = t, f1
    return float(best_t), float(best_f1)


def test_best_f1_worked_example():
    threshold, f1 = best_f1_threshold([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    # Predicting {0.35, 0.4, 0.8} positive gives tp=2, fp=1, fn=0: F1 = 0.8,
    # realized by any cutoff in (0.1, 0.35]; the midpoint candidate is used.
    assert f1 == 0.8
    assert threshold == (0.35 + 0.1) / 2.0
    assert 0.1 < threshold <= 0.35


def test_best_f1_separable_scores():
    threshold, f1 = best_f1_threshold([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert f1 == 1.0
    assert 0.2 <= threshold < 0.8


def test_best_f1_no_positive_labels_returns_above_max_sentinel():
    threshold, f1 = best_f1_threshold([0.3, 0.7], [0, 0])
    assert f1 == 0.0
    assert threshold == 0.7 + 1.0
    # control2 is scored at the sentinel, so the threshold rule has no [0, 1] bound.
    assert np.array_equal(confusion_binary([0.3, 0.7], [0, 0], threshold).counts, [[2, 0], [0, 0]])


def test_best_f1_ties_go_to_larger_threshold():
    # Identical F1 at several cutoffs; the largest must win.
    scores = [0.1, 0.2, 0.9]
    labels = [0, 0, 1]
    threshold, f1 = best_f1_threshold(scores, labels)
    assert f1 == 1.0
    assert threshold == (0.9 + 0.2) / 2.0


def test_best_f1_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(314)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        scores = np.round(rng.uniform(0.0, 1.0, size=n), 2)  # force ties
        labels = rng.integers(0, 2, size=n)
        fast = best_f1_threshold(scores, labels)
        slow = brute_force_best_f1(scores, labels)
        assert fast == slow


def test_best_f1_splits_adjacent_doubles():
    # (a + 1.0) / 2 rounds up to 1.0, which would score the 1.0s negative too;
    # the lower score a is the threshold that separates them.
    a = float(np.nextafter(1.0, 0.0))
    threshold, f1 = best_f1_threshold([a, a, 1.0, 1.0], [0, 0, 1, 1])
    assert (threshold, f1) == (a, 1.0)


@pytest.mark.parametrize("score", [1e17, -1e17])
def test_best_f1_sentinels_lie_outside_huge_scores(score):
    # At this magnitude score + 1.0 and score - 1.0 round back to score, which
    # as a threshold would score every example negative.
    threshold, f1 = best_f1_threshold([score, score], [1, 1])
    assert f1 == 1.0 and threshold < score
    threshold, f1 = best_f1_threshold([score, score], [0, 0])
    assert f1 == 0.0 and threshold > score


# --- real-world cost ------------------------------------------------------------


def binary_tallies(fn, fp, n):
    """A binary run's 2x2 tallies with fn false negatives and fp false
    positives among n examples, every correct one a true negative."""
    return np.array([[n - fn - fp, fp], [fn, 0]])


def test_binary_cost_per_error_prices_each_error_type():
    cost = BinaryCostModel(2000.0, 100.0)
    assert np.array_equal(cost.cost_per_error, [[0.0, 100.0], [2000.0, 0.0]])
    assert real_world_cost(binary_tallies(0, 0, 100), cost.cost_per_error) == 0.0
    assert real_world_cost(binary_tallies(1, 0, 100), cost.cost_per_error) == 20.0
    assert real_world_cost(binary_tallies(0, 2, 100), cost.cost_per_error) == 2.0
    # confusion_binary's layout meets cost_per_error's: one missed positive costs fn_cost.
    assert real_world_cost(confusion_binary([0.1], [1], 0.5), cost.cost_per_error) == 2000.0
    assert real_world_cost(confusion_binary([0.9], [0], 0.5), cost.cost_per_error) == 100.0


def test_binary_real_world_cost_is_bit_identical_to_the_two_term_formula():
    # Only two cells are priced, and adding two products in either order
    # rounds the same, so for whole tallies the matrix sum is exact.
    rng = np.random.default_rng(2024)
    for i in range(2000):
        tn, fp, fn, tp = (int(v) for v in rng.integers(0, 20_000, size=4))
        # Whole costs on even cases, fractional ones on odd.
        costs = rng.uniform(0.0, 5000.0, size=2) if i % 2 else rng.integers(1, 5000, size=2)
        fn_cost, fp_cost = (float(v) for v in costs)
        cost = BinaryCostModel(fn_cost, fp_cost)
        matrix = ConfusionMatrix(np.array([[tn, fp], [fn, tp]]))
        n = tn + fp + fn + tp
        assert real_world_cost(matrix, cost.cost_per_error) == (fn_cost * fn + fp_cost * fp) / n


def test_rwc_binary_published_rows():
    cost = BinaryCostModel(2000.0, 100.0)
    control = real_world_cost(binary_tallies(45.4, 12.7, 15908), cost.cost_per_error)
    test_row = real_world_cost(binary_tallies(16.1, 127.2, 15908), cost.cost_per_error)
    assert 5.76 <= control <= 5.81
    assert 2.79 <= test_row <= 2.84


def test_rwc_binary_validation():
    cost = BinaryCostModel(1.0, 1.0)
    with pytest.raises(ValueError, match="^tallies are empty$"):
        real_world_cost(binary_tallies(0, 0, 0), cost.cost_per_error)
    with pytest.raises(ValueError, match="^tallies must be >= 0$"):
        real_world_cost(binary_tallies(-1, 0, 10), cost.cost_per_error)


def test_confusion_categorical_hand_case():
    probs = [[0.1, 0.7, 0.2], [0.8, 0.1, 0.1], [0.2, 0.3, 0.5]]
    labels = [0, 0, 2]
    matrix = confusion_categorical(probs, labels)
    expected = np.zeros((3, 3), dtype=np.int64)
    expected[0, 1] = 1
    expected[0, 0] = 1
    expected[2, 2] = 1
    assert np.array_equal(matrix.counts, expected)
    assert matrix.total == 3


def test_confusion_categorical_tie_goes_to_lowest_index():
    matrix = confusion_categorical([[0.5, 0.5]], [1])
    assert matrix.counts[1, 0] == 1


def test_rwc_categorical_diagonal_only_is_zero():
    counts = np.diag([5, 5, 5])
    cost = np.ones((3, 3)) - np.eye(3)
    assert real_world_cost(counts, cost) == 0.0


def pair_costs(extra, k=10, cell=(0, 1)):
    cost = np.ones((k, k))
    np.fill_diagonal(cost, 0.0)
    cost[cell] += extra
    return cost


def test_rwc_categorical_reproduces_published_values():
    # Mean tallies reconstructed from the published aggregate rows: 17,500
    # test examples, 623.0 mean errors of which 6.67 on the special pair for
    # the control, 633.5 and 2.57 for the experimental model.
    def tallies(errors, special):
        counts = np.zeros((10, 10))
        counts[0, 1] = special
        spread = (errors - special) / 88.0
        for i in range(10):
            for j in range(10):
                if i != j and (i, j) != (0, 1):
                    counts[i, j] = spread
        np.fill_diagonal(counts, (17_500.0 - errors) / 10.0)
        return counts

    control = real_world_cost(tallies(623.0, 6.67), pair_costs(19.0))
    experimental = real_world_cost(tallies(633.5, 2.57), pair_costs(19.0))
    assert abs(control - 0.0428) < 0.0005
    assert abs(experimental - 0.0390) < 0.0005


def test_rwc_categorical_accepts_confusion_matrix_and_fractions():
    cm = ConfusionMatrix(np.array([[8, 2], [1, 9]]))
    cost = np.array([[0.0, 3.0], [5.0, 0.0]])
    assert real_world_cost(cm, cost) == pytest.approx((2 * 3 + 1 * 5) / 20.0)
    fractional = np.array([[8.5, 1.5], [0.5, 9.5]])
    assert real_world_cost(fractional, cost) == pytest.approx(
        (1.5 * 3 + 0.5 * 5) / 20.0
    )


def test_rwc_categorical_rejects_nonzero_cost_diagonal():
    with pytest.raises(ValueError):
        real_world_cost(np.eye(3), np.ones((3, 3)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: confusion_categorical([[0.5, 0.5]], [0, 1]), "2 labels for 1 examples"),
        (lambda: confusion_categorical([0.5, 0.5], [1, 0]), "probabilities must be 2-D, got shape (2,)"),
        (lambda: confusion_categorical(np.empty((0, 2)), np.empty(0, np.int64)), "labels are empty"),
        (lambda: confusion_categorical([[0.5, 0.5]], [[1, 0]]),
         "labels must be a vector of class indices, got shape (1, 2)"),
        (lambda: confusion_categorical([[0.5, 0.5]], [2]), "labels must be classes 0..1"),
        (lambda: ConfusionMatrix(np.zeros((2, 3))), "confusion matrix must be square"),
        (lambda: real_world_cost(np.zeros((2, 3)), np.zeros((2, 3))), "confusion matrix must be square"),
        (lambda: real_world_cost(np.eye(2), np.zeros((3, 3))),
         "cost matrix shape (3, 3) does not match tallies (2, 2)"),
        (lambda: real_world_cost(np.zeros((2, 2)), np.zeros((2, 2))), "tallies are empty"),
        (lambda: top1_error(ConfusionMatrix(np.zeros((2, 2)))), "confusion matrix is empty"),
        (lambda: real_world_cost([[1.0, math.nan], [0.0, 1.0]], np.zeros((2, 2))),
         "tallies must be finite"),
        (lambda: real_world_cost(np.eye(2), [[0.0, math.inf], [1.0, 0.0]]),
         "cost_per_error must be finite"),
        (lambda: real_world_cost(np.eye(2), [[0.0, math.nan], [1.0, 0.0]]),
         "cost_per_error must be finite"),
        (lambda: real_world_cost([[1.0, -1.0], [0.0, 2.0]], [[0, 5], [5, 0]]),
         "tallies must be >= 0"),
        (lambda: real_world_cost([[1.0, 1.0], [0.0, 2.0]], [[0, -5], [5, 0]]),
         "cost_per_error must be >= 0"),
        (lambda: ConfusionMatrix(np.array([[1, -1], [0, 2]])), "tallies must be >= 0"),
        (lambda: ConfusionMatrix(np.array([[1.0, math.inf], [0.0, 2.0]])), "tallies must be finite"),
        (lambda: f1_score(ConfusionMatrix(np.eye(3))),
         "f1_score needs a 2x2 confusion matrix, got shape (3, 3)"),
        (lambda: confusion_categorical([[math.nan, 0.2], [0.1, 0.9]], [1, 1]),
         "probabilities must be finite"),
        (lambda: confusion_categorical([[0.1, -math.inf], [0.1, 0.9]], [0, 1]),
         "probabilities must be finite"),
    ],
)
def test_categorical_metrics_refuse_malformed_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# Every entry of the tallies and of the cost matrix keeps check_real's rule
# with least=0: the array form of the rule the scalar fn, fp and n tallies kept.
CELLS = [(matrix, (i, j)) for matrix in ("tallies", "cost_per_error") for i in range(2) for j in range(2)]
BAD_ENTRIES = [(math.nan, "must be finite"), (math.inf, "must be finite"), (-math.inf, "must be finite"),
               (-1.0, "must be >= 0"), ("1.0", "must be numbers"), (None, "must be numbers")]


@pytest.mark.parametrize("matrix, cell", CELLS, ids=[f"{m}[{i},{j}]" for m, (i, j) in CELLS])
@pytest.mark.parametrize("value, rule", BAD_ENTRIES, ids=[repr(v) for v, _ in BAD_ENTRIES])
def test_each_entry_of_the_tallies_and_the_costs_is_a_finite_number_at_least_zero(matrix, cell, value, rule):
    entries = {"tallies": [[5, 1], [2, 3]], "cost_per_error": [[0.0, 100.0], [2000.0, 0.0]]}
    entries[matrix][cell[0]][cell[1]] = value
    with pytest.raises(ValueError, match=f"^{matrix} {rule}$"):
        real_world_cost(entries["tallies"], entries["cost_per_error"])


def test_binary_metrics_refuse_malformed_labels_with_the_loss_messages():
    for metric in (lambda s, y: confusion_binary(s, y, 0.5), best_f1_threshold):
        with pytest.raises(ValueError, match="^labels are empty$"):
            metric([], np.empty(0, np.int64))
        with pytest.raises(ValueError, match="^labels must be classes 0..1$"):
            metric([0.5], [2])
        with pytest.raises(ValueError, match="^scores and labels must be matching vectors"):
            metric([0.5, 0.5], [1])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^scores must be finite$"):
                metric([bad, 0.2, 0.7], [1, 0, 1])


def test_top1_error_values():
    assert top1_error(ConfusionMatrix(np.diag([10, 10]))) == 0.0
    one_error = np.diag([50, 49]).astype(float)
    one_error[1, 0] = 1
    assert top1_error(ConfusionMatrix(one_error)) == pytest.approx(0.01)
    # Published control row: 623 errors out of 17,500 is 3.56%.
    tallies = np.diag([16877.0] + [0.0] * 9)
    tallies[0, 1] = 623.0
    assert top1_error(ConfusionMatrix(tallies)) == pytest.approx(0.0356, abs=5e-5)


def test_top1_error_of_fractional_tallies_is_exact():
    cm = ConfusionMatrix(np.array([[0.5, 1.5], [1.0, 1.2]]))
    assert cm.total == 4.2
    assert top1_error(cm) == 1.0 - 1.7 / 4.2
    integer = ConfusionMatrix(np.array([[8, 2], [1, 9]]))
    assert integer.total == 20 and type(integer.total) is int


def test_a_confusion_matrix_is_frozen():
    tallies = np.array([[5, 1], [2, 0]])
    matrix = ConfusionMatrix(tallies)
    with pytest.raises(dataclasses.FrozenInstanceError):
        matrix.counts = np.array([[1, -1], [0, 1]])
    with pytest.raises(ValueError, match="read-only"):
        matrix.counts[1, 0] = -4
    tallies[1, 0] = -4  # the caller's array, not the matrix's copy
    assert np.array_equal(matrix.counts, [[5, 1], [2, 0]])
    assert real_world_cost(matrix, BinaryCostModel(2000.0, 100.0).cost_per_error) == 512.5


def test_confusion_matrices_compare_by_value():
    # Counts are arrays, so equality must reduce them to one answer, whatever their shapes.
    assert ConfusionMatrix(np.eye(2)) == ConfusionMatrix(np.eye(2))
    assert ConfusionMatrix(np.eye(2)) == ConfusionMatrix(np.eye(2, dtype=np.int64))
    assert not ConfusionMatrix(np.eye(2)) != ConfusionMatrix(np.eye(2))
    assert ConfusionMatrix(np.eye(2)) != ConfusionMatrix(np.eye(3))
    assert ConfusionMatrix(np.eye(2)) != ConfusionMatrix(2 * np.eye(2))
    assert ConfusionMatrix(np.eye(2)) != [[1.0, 0.0], [0.0, 1.0]]  # a matrix equals only a matrix
    assert confusion_binary([0.9, 0.1], [1, 0], 0.5) == ConfusionMatrix([[1, 0], [0, 1]])


def test_a_confusion_matrix_is_unhashable_in_its_own_name():
    with pytest.raises(TypeError, match="ConfusionMatrix"):
        hash(ConfusionMatrix(np.eye(2)))


# --- Student-t ------------------------------------------------------------------


def test_incomplete_beta_against_reference_points():
    # The last probe sits at x = 1 - 5e-9, where the continued fraction's
    # double-precision pipeline bottoms out around 1e-12; interior probes
    # agree to 1e-14.
    for a, b, x, expected in INCOMPLETE_BETA_REFERENCE:
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(expected, abs=1e-11)


def test_incomplete_beta_bounds_and_validation():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)


def test_paired_t_test_worked_example():
    # d = (1,2,3,4,5): mean 3, sd sqrt(2.5), t = 3/(sqrt(2.5)/sqrt(5)) = 3 sqrt 2.
    result = paired_t_test([2.0, 4.0, 6.0, 8.0, 10.0], [1.0, 2.0, 3.0, 4.0, 5.0])
    assert result.df == 4
    assert result.t_statistic == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-14)
    assert result.p_value == pytest.approx(0.01323559956368269, abs=1e-12)


def test_paired_t_test_matches_extended_precision_references():
    for a, b, t_ref, p_ref in TTEST_REFERENCE:
        result = paired_t_test(a, b)
        assert result.t_statistic == pytest.approx(t_ref, abs=1e-9)
        assert result.p_value == pytest.approx(p_ref, abs=1e-9)
        assert result.df == len(a) - 1


def test_paired_t_test_antisymmetry_is_exact():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        if float(np.std(a - b, ddof=1)) == 0.0:
            continue
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.t_statistic == -rev.t_statistic
        assert fwd.p_value == rev.p_value


def test_paired_t_test_differences_that_really_vary_keep_their_t():
    a = np.array([10.3, 20.7, 5.1, 8.9])
    b = a - 1.9 - np.array([0.0, 1e-12, 0.0, 2e-12])
    d = a - b
    result = paired_t_test(a, b)
    assert result.t_statistic == d.mean() / (d.std(ddof=1) / 2.0)
    assert 1e11 < result.t_statistic < 1e13


def test_paired_t_test_degenerate_inputs():
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])  # constant difference
    a = np.array([10.3, 20.7, 5.1, 8.9])
    assert float(np.std(a - (a - 1.9), ddof=1)) > 0.0  # nonzero only by rounding
    with pytest.raises(ValueError):
        paired_t_test(a, a - 1.9)  # constant difference up to rounding
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^a must be finite$"):
            paired_t_test([bad, 1.0, 2.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="^b must be finite$"):
            paired_t_test([0.0, 0.0, 0.0], [1.0, bad, 2.0])
