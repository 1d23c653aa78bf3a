"""Loss family: worked values, degeneracies, fused gradients, validation.

Expected numbers are written as closed-form expressions (math.log of exact
rationals) rather than opaque literals, so each assertion shows its own
derivation.
"""

import math
import re

import numpy as np
import pytest

from rwwce import (
    EPSILON,
    BinaryCostModel,
    LossSpec,
    fused_gradient_from_probs,
    loss_value,
    sigmoid,
    softmax,
)
from rwwce.losses import checked_targets, loss_and_gradient


def random_binary_batch(rng, m=None):
    m = m or int(rng.integers(1, 65))
    h = rng.uniform(0.0, 1.0, size=m)
    y = rng.integers(0, 2, size=m).astype(np.float64)
    return h, y


def random_categorical_batch(rng, k=None, m=None):
    m = m or int(rng.integers(1, 65))
    k = k or int(rng.integers(2, 11))
    z = rng.normal(0.0, 2.0, size=(m, k))
    h = softmax(z)
    y = np.zeros((m, k))
    y[np.arange(m), rng.integers(0, k, size=m)] = 1.0
    return h, y


# --- worked values -----------------------------------------------------------


def test_bce_single_positive():
    assert loss_value(LossSpec.bce(), [0.6], [1.0]) == pytest.approx(-math.log(0.6), rel=1e-15)


def test_bce_perfect_prediction_is_zero():
    assert loss_value(LossSpec.bce(), [1.0, 0.0], [1.0, 0.0]) == 0.0


def test_bce_symmetric_half():
    assert loss_value(LossSpec.bce(), [0.5, 0.5], [0.0, 1.0]) == pytest.approx(
        math.log(2.0), rel=1e-15
    )


def test_bce_clips_log_argument_below():
    # A fully wrong saturated prediction costs -ln(eps), not infinity.
    assert loss_value(LossSpec.bce(), [0.0], [1.0]) == pytest.approx(-math.log(EPSILON), rel=1e-15)
    assert loss_value(LossSpec.bce(), [1.0], [0.0]) == pytest.approx(-math.log(EPSILON), rel=1e-15)


def test_bce_batch_mean():
    expected = (-math.log(0.9) - math.log(1.0 - 0.2)) / 2.0
    assert loss_value(LossSpec.bce(), [0.9, 0.2], [1.0, 0.0]) == pytest.approx(expected, rel=1e-15)


def test_wbce_weights_positive_term_only():
    w = LossSpec.wbce(2.0)
    assert loss_value(w, [0.6], [1.0]) == pytest.approx(-2.0 * math.log(0.6), rel=1e-15)
    # y=0: the weight must not touch the negative term.
    assert loss_value(w, [0.6], [0.0]) == pytest.approx(-math.log(0.4), rel=1e-15)


def test_cce_only_true_class_matters():
    y = [[1.0, 0.0, 0.0]]
    a = loss_value(LossSpec.cce(), [[0.6, 0.3, 0.1]], y)
    b = loss_value(LossSpec.cce(), [[0.6, 0.2, 0.2]], y)
    assert a == pytest.approx(-math.log(0.6), rel=1e-15)
    assert a == b


def test_cce_uniform_ten_classes():
    h = np.full((1, 10), 0.1)
    y = np.zeros((1, 10))
    y[0, 3] = 1.0
    assert loss_value(LossSpec.cce(), h, y) == pytest.approx(math.log(10.0), rel=1e-14)


def test_cce_perfect_one_hot_is_zero():
    y = np.eye(4)
    assert loss_value(LossSpec.cce(), y, y) == 0.0


def test_wcce_scales_true_class_term():
    h = [[0.5, 0.25, 0.25]]
    y = [[1.0, 0.0, 0.0]]
    assert loss_value(LossSpec.wcce([2.0, 1.0, 1.0]), h, y) == pytest.approx(
        2.0 * math.log(2.0), rel=1e-15
    )
    # Weights of classes the label does not select are irrelevant.
    assert loss_value(LossSpec.wcce([1.0, 3.0, 1.0]), h, y) == pytest.approx(
        math.log(2.0), rel=1e-15
    )


def test_rwwce_binary_worked_value():
    cost = LossSpec.rwwce_binary(2000.0, 100.0)
    assert loss_value(cost, [0.5], [1.0]) == pytest.approx(
        2000.0 * math.log(2.0), rel=1e-14
    )
    assert loss_value(cost, [0.5], [0.0]) == pytest.approx(
        100.0 * math.log(2.0), rel=1e-14
    )


def test_rwwce_categorical_worked_value():
    # True class 0, 19-weighted false positive on class 1:
    # J = -(ln 0.6 + 19 ln(1 - 0.3)).
    fp = np.zeros((3, 3))
    fp[0, 1] = 19.0
    cost = LossSpec.rwwce_categorical(np.ones(3), fp)
    got = loss_value(cost, [[0.6, 0.3, 0.1]], [[1.0, 0.0, 0.0]])
    assert got == pytest.approx(-(math.log(0.6) + 19.0 * math.log(0.7)), rel=1e-14)


def test_rwwce_categorical_perfect_prediction_is_zero():
    y = np.eye(3)
    cost = LossSpec.rwwce_categorical(np.ones(3), np.full((3, 3), 7.0))
    assert loss_value(cost, y, y) == 0.0


def test_rwwce_categorical_ignores_fp_diagonal():
    rng = np.random.default_rng(5)
    h, y = random_categorical_batch(rng, k=4, m=16)
    fp = rng.uniform(0.0, 3.0, size=(4, 4))
    spiked = fp.copy()
    np.fill_diagonal(spiked, 1e6)
    a = loss_value(LossSpec.rwwce_categorical(np.ones(4), fp), h, y)
    b = loss_value(LossSpec.rwwce_categorical(np.ones(4), spiked), h, y)
    assert a == b


def test_monotone_decreasing_in_h_for_positive_example():
    grid = np.linspace(0.05, 0.95, 19)
    bce_curve = [loss_value(LossSpec.bce(), [p], [1.0]) for p in grid]
    rw_curve = [loss_value(LossSpec.rwwce_binary(5.0, 1.0), [p], [1.0]) for p in grid]
    assert all(a > b for a, b in zip(bce_curve, bce_curve[1:]))
    assert all(a > b for a, b in zip(rw_curve, rw_curve[1:]))


# --- degeneracies ------------------------------------------------------------


def test_degeneracies_are_exact_on_random_batches():
    rng = np.random.default_rng(42)
    for _ in range(50):
        h, y = random_binary_batch(rng)
        assert loss_value(LossSpec.rwwce_binary(1.0, 1.0), h, y) == loss_value(LossSpec.bce(), h, y)
        w = float(rng.uniform(0.25, 8.0))
        assert loss_value(LossSpec.rwwce_binary(w, 1.0), h, y) == loss_value(
            LossSpec.wbce(w), h, y
        )
        hc, yc = random_categorical_batch(rng)
        k = hc.shape[1]
        assert loss_value(
            LossSpec.rwwce_categorical(np.ones(k), np.zeros((k, k))), hc, yc
        ) == loss_value(LossSpec.cce(), hc, yc)
        assert loss_value(LossSpec.wcce(np.ones(k)), hc, yc) == loss_value(LossSpec.cce(), hc, yc)


# --- fused gradients ---------------------------------------------------------


def central_difference(spec, z, y, step=1e-5):
    z = np.array(z, dtype=np.float64)
    grad = np.zeros_like(z)
    it = np.nditer(z, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        original = z[i]
        z[i] = original + step
        plus = loss_value(spec, sigmoid(z) if spec.is_binary else softmax(z), y)
        z[i] = original - step
        minus = loss_value(spec, sigmoid(z) if spec.is_binary else softmax(z), y)
        z[i] = original
        grad[i] = (plus - minus) / (2.0 * step)
        it.iternext()
    return grad


def relative_errors(a, n):
    # The 1e-3 floor keeps the check absolute for near-zero entries: central
    # differences carry ~1e-10 of roundoff, which would swamp a pure relative
    # comparison on gradient components of order 1e-5 and below.
    return np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)


def all_variant_specs(rng, k):
    fp = rng.uniform(0.0, 3.0, size=(k, k))
    return [
        LossSpec.bce(),
        LossSpec.wbce(float(rng.uniform(0.5, 5.0))),
        LossSpec.rwwce_binary(float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.5, 5.0))),
        LossSpec.cce(),
        LossSpec.wcce(rng.uniform(0.5, 3.0, size=k)),
        LossSpec.rwwce_categorical(rng.uniform(0.5, 3.0, size=k), fp),
    ]


def test_fused_logit_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(10):
        k = int(rng.integers(3, 6))
        m = int(rng.integers(2, 12))
        for spec in all_variant_specs(rng, k):
            if spec.is_binary:
                # Moderate logits keep h away from the clipping region, where
                # the analytic and numeric gradients legitimately disagree.
                z = rng.uniform(-4.0, 4.0, size=m)
                y = rng.integers(0, 2, size=m).astype(np.float64)
            else:
                z = rng.uniform(-4.0, 4.0, size=(m, k))
                y = np.zeros((m, k))
                y[np.arange(m), rng.integers(0, k, size=m)] = 1.0
            h = sigmoid(z) if spec.is_binary else softmax(z)
            analytic = fused_gradient_from_probs(spec, h, y)
            numeric = central_difference(spec, z, y)
            assert relative_errors(analytic, numeric).max() < 1e-6, spec


def test_fused_gradient_single_example_bce():
    # y=1, h=0.6, M=1: dJ/dz = h - y = -0.4.
    got = fused_gradient_from_probs(LossSpec.bce(), [0.6], [1.0])
    assert got == pytest.approx([-0.4], rel=1e-12)


def test_fused_gradient_keeps_input_shape():
    column = np.array([[0.3], [0.8]])
    grad = fused_gradient_from_probs(LossSpec.bce(), column, np.array([[0.0], [1.0]]))
    assert grad.shape == (2, 1)
    flat = fused_gradient_from_probs(LossSpec.bce(), column[:, 0], np.array([0.0, 1.0]))
    assert np.array_equal(grad[:, 0], flat)


def test_categorical_fused_gradient_reduces_to_softmax_residual():
    # For cce the classic result is dJ/dz = (H - Y) / M.
    rng = np.random.default_rng(11)
    h, y = random_categorical_batch(rng, k=6, m=20)
    got = fused_gradient_from_probs(LossSpec.cce(), h, y)
    assert np.allclose(got, (h - y) / 20.0, atol=1e-15)


# --- input validation --------------------------------------------------------


def test_binary_batch_validation():
    with pytest.raises(ValueError):
        loss_value(LossSpec.bce(), [], [])
    with pytest.raises(ValueError):
        loss_value(LossSpec.bce(), [0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        loss_value(LossSpec.bce(), [0.5], [0.5])  # labels must be exactly 0 or 1
    with pytest.raises(ValueError):
        loss_value(LossSpec.bce(), [1.2], [1.0])
    with pytest.raises(ValueError):
        loss_value(LossSpec.bce(), [-0.1], [0.0])


def test_binary_accepts_column_vectors():
    a = loss_value(LossSpec.bce(), np.array([[0.7], [0.2]]), np.array([[1.0], [0.0]]))
    b = loss_value(LossSpec.bce(), [0.7, 0.2], [1.0, 0.0])
    assert a == b


def test_categorical_batch_validation():
    good_h = [[0.5, 0.5]]
    good_y = [[1.0, 0.0]]
    with pytest.raises(ValueError):
        loss_value(LossSpec.cce(), [[0.7, 0.7]], good_y)  # rows must sum to 1
    with pytest.raises(ValueError):
        loss_value(LossSpec.cce(), good_h, [[0.5, 0.5]])  # labels must be exact one-hot
    with pytest.raises(ValueError):
        loss_value(LossSpec.cce(), good_h, [[1.0, 1.0]])
    with pytest.raises(ValueError):
        loss_value(LossSpec.cce(), [0.5, 0.5], [1.0, 0.0])  # 1-D rejected
    with pytest.raises(ValueError):
        loss_value(LossSpec.cce(), np.empty((0, 2)), np.empty((0, 2)))


@pytest.mark.parametrize(
    "spec, h, y, message",
    [
        (LossSpec.bce(), [[0.5, 0.5]], [[1.0, 0.0]], "expected vectors, got shapes (1, 2) and (1, 2)"),
        (LossSpec.bce(), [0.5], [[1.0, 0.0]], "expected vectors, got shapes (1,) and (1, 2)"),
        (LossSpec.cce(), [[1.0]], [[1.0]], "categorical batch needs at least two classes"),
        (LossSpec.bce(), [], [], "empty batch"),
        (LossSpec.cce(), np.empty((0, 2)), np.empty((0, 2)), "empty batch"),
        (LossSpec.bce(), [0.5], [0.5], "binary labels must be exactly 0 or 1"),
        (LossSpec.cce(), [[0.5, 0.5]], [[0.5, 0.5]], "labels must be exact one-hot rows"),
    ],
)
def test_checked_targets_pins_each_label_refusal(spec, h, y, message):
    h = np.asarray(h, dtype=np.float64)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        checked_targets(spec, y, h.shape)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        loss_value(spec, h, y)


def test_a_one_class_categorical_batch_is_refused_for_its_class_count_even_when_empty():
    with pytest.raises(ValueError, match="^categorical batch needs at least two classes$"):
        checked_targets(LossSpec.cce(), np.empty((0, 1)), (0, 1))


def test_cost_model_validation():
    with pytest.raises(ValueError):
        BinaryCostModel(-1.0, 2.0)
    with pytest.raises(ValueError):
        BinaryCostModel(0.0, 0.0)
    with pytest.raises(ValueError):
        BinaryCostModel(math.inf, 1.0)
    with pytest.raises(ValueError):
        LossSpec.rwwce_categorical(np.ones(1), np.zeros((1, 1)))  # need >= 2 classes
    with pytest.raises(ValueError):
        LossSpec.rwwce_categorical(np.ones(3), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        LossSpec.rwwce_categorical(np.ones(3), -np.ones((3, 3)))
    with pytest.raises(ValueError, match="positive weight must be > 0, got 0.0"):
        LossSpec.wbce(0.0)
    with pytest.raises(ValueError, match="per_class weights must be finite and > 0"):
        LossSpec.wcce([1.0, -2.0])
    with pytest.raises(ValueError, match="^fn_costs must be a vector of length >= 2$"):
        LossSpec.wcce([1.0])  # per_class is the categorical family's fn_costs
    with pytest.raises(ValueError, match="^at least one of fn_cost, fp_cost must be positive$"):
        LossSpec.rwwce_binary(0.0, 0.0)  # BinaryCostModel's own message
    with pytest.raises(ValueError, match="^fp_costs must be 3x3 to match fn_costs"):
        LossSpec.rwwce_categorical(np.ones(3), np.zeros((2, 2)))


def test_loss_spec_rejects_terms_of_neither_family():
    with pytest.raises(ValueError, match="^loss terms must be None, a pair of numbers .*got 'nonsense'"):
        LossSpec("nonsense")
    assert LossSpec.bce().is_binary
    assert not LossSpec.cce().is_binary


@pytest.mark.parametrize(
    "terms",
    [(2.0,), (np.ones(3),), (1.0, 2.0, 3.0), [2000.0, 100.0], np.ones(2)],
)
def test_hand_built_loss_spec_terms_must_be_of_a_family(terms):
    with pytest.raises(ValueError, match="^loss terms must be None, a pair of numbers"):
        LossSpec(terms)


@pytest.mark.parametrize(
    "terms, reason",
    [
        ((0.0, 0.0), "at least one of fn_cost, fp_cost must be positive"),
        ((-1.0, 1.0), "fn_cost must be >= 0, got -1.0"),
        ((math.nan, 1.0), "fn_cost must be finite, got nan"),
        ((2.0, True), "fp_cost must be a number, got True"),
        ((np.ones(2), 1.0), "fn_cost must be a number, got array"),
        ((np.ones(1), np.zeros((1, 1))), "fn_costs must be a vector of length >= 2"),
        ((np.ones((3, 1)), np.zeros((3, 3))), "fn_costs must be a vector of length >= 2"),
        ((np.ones(3), np.zeros((2, 2))), "fp_costs must be 3x3 to match fn_costs, got (2, 2)"),
        ((np.array([1.0, -1.0]), np.zeros((2, 2))), "fn_costs must be >= 0"),
        ((np.array([1.0, math.nan]), np.zeros((2, 2))), "fn_costs must be finite"),
        ((np.ones(2), np.array([[0.0, -1.0], [1.0, 0.0]])), "fp_costs must be >= 0"),
        ((np.ones(2), np.array([[0.0, math.inf], [1.0, 0.0]])), "fp_costs must be finite"),
        ((np.ones(2), np.ones((2, 2))), "the diagonal of fp_costs must be zero"),
    ],
)
def test_hand_built_loss_spec_must_keep_its_familys_rules(terms, reason):
    # Binary terms are BinaryCostModel's costs; categorical terms are finite,
    # nonnegative costs, K >= 2, with a zero FP diagonal.
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}"):
        LossSpec(terms)


def test_hand_built_loss_spec_with_fitting_terms_is_the_classmethod_spec():
    for spec in (
        LossSpec.bce(),
        LossSpec.wbce(3),
        LossSpec.rwwce_binary(2000, 100),
        LossSpec.cce(),
        LossSpec.wcce([2.0, 1.0, 3.0]),
        LossSpec.rwwce_categorical(np.ones(3), np.ones((3, 3))),
    ):
        rebuilt = LossSpec(spec.terms)
        if spec.is_binary:
            h, y = [0.2, 0.9], [1.0, 0.0]
        else:
            h, y = [[0.5, 0.3, 0.2]], [[0.0, 1.0, 0.0]]
        assert loss_value(rebuilt, h, y) == loss_value(spec, h, y)


def test_any_point_of_a_family_is_a_loss():
    # Weights off the classmethods' points: both binary terms weighted, and
    # class weights with wrong-class costs.
    weighted = LossSpec((2, np.float32(3.0)))
    assert weighted.is_binary and weighted.terms == (2.0, 3.0)
    assert all(type(t) is float for t in weighted.terms)
    got = loss_value(weighted, [0.2, 0.9], [1.0, 0.0])
    assert got == pytest.approx(-(2.0 * math.log(0.2) + 3.0 * math.log(0.1)) / 2, rel=1e-12)
    a, fp = np.array([2.0, 1.0]), np.array([[0.0, 4.0], [1.0, 0.0]])
    got = loss_value(LossSpec((a, fp)), [[0.25, 0.75]], [[1.0, 0.0]])
    assert got == pytest.approx(-(2.0 * math.log(0.25) + 4.0 * math.log(0.25)), rel=1e-12)


def test_loss_spec_terms_are_the_kernel_weights():
    assert LossSpec.bce().terms == (1.0, 1.0)
    assert LossSpec.wbce(3).terms == (3.0, 1.0)
    assert LossSpec.rwwce_binary(2000, 100).terms == (2000.0, 100.0)
    assert all(type(t) is float for t in LossSpec.rwwce_binary(2000, 100).terms)
    assert LossSpec.cce().terms is None
    a, fp = LossSpec.wcce([2.0, 1.0, 3.0]).terms
    assert np.array_equal(a, [2.0, 1.0, 3.0]) and np.array_equal(fp, np.zeros((3, 3)))
    fn_costs = np.array([1.0, 2.0, 3.0])
    fp_costs = np.arange(9.0).reshape(3, 3)
    a, fp = LossSpec.rwwce_categorical(fn_costs, fp_costs).terms
    assert np.array_equal(a, fn_costs)
    assert np.array_equal(fp, fp_costs - np.diag(np.diag(fp_costs)))
    assert fp_costs[1, 1] == 4.0  # the caller's matrix keeps its diagonal
    per_class = np.ones(3)
    wcce = LossSpec.wcce(per_class)
    fn_costs[0] = per_class[0] = 9.0  # later edits by the caller do not reach a built spec
    assert wcce.terms[0][0] == 1.0 and a[0] == 1.0


def test_class_count_mismatches_are_rejected():
    h = [[0.5, 0.3, 0.2]]
    y = [[1.0, 0.0, 0.0]]
    specs = [
        (LossSpec.wcce([1.0, 1.0]), "cost model has 2 classes, batch has 3"),
        (
            LossSpec.rwwce_categorical(np.ones(4), np.zeros((4, 4))),
            "cost model has 4 classes, batch has 3",
        ),
    ]
    for spec, message in specs:
        with pytest.raises(ValueError, match=message):
            loss_value(spec, h, y)
        with pytest.raises(ValueError, match=message):
            fused_gradient_from_probs(spec, h, y)


# --- activations -------------------------------------------------------------


def test_sigmoid_matches_definition_and_is_stable():
    z = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    assert np.allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), atol=1e-15)
    extreme = sigmoid(np.array([500.0, -500.0]))
    assert np.all(np.isfinite(extreme))
    assert extreme[0] == 1.0
    assert extreme[1] == pytest.approx(0.0, abs=1e-200)


def _two_branch_sigmoid(z):
    """The masked two-branch logistic sigmoid() replaced; pins its bits."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_identical_to_the_two_branch_formula():
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0])
    rng = np.random.default_rng(17)
    for z in [edges] + [rng.normal(0.0, 1.0 + 5.0 * (i % 6), size=2_000) for i in range(30)]:
        assert np.array_equal(sigmoid(z).view(np.int64), _two_branch_sigmoid(z).view(np.int64))
    column = rng.normal(size=(100, 1))
    assert sigmoid(column).shape == (100, 1)
    assert np.array_equal(sigmoid(column), _two_branch_sigmoid(column))


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(3)
    z = rng.normal(0.0, 3.0, size=(8, 5))
    h = softmax(z)
    assert np.allclose(h.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(softmax(z + 100.0), h, atol=1e-12)


def test_softmax_handles_huge_logits_without_nan():
    h = softmax(np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(h))
    assert h[0, 0] == pytest.approx(1.0, abs=1e-300)


def test_softmax_uniform_logits():
    assert np.allclose(softmax(np.zeros((2, 10))), 0.1, atol=1e-15)


def test_softmax_rejects_non_2d():
    with pytest.raises(ValueError):
        softmax(np.zeros(4))


# --- fused kernel ------------------------------------------------------------


def _saturate(h, rng):
    """Overwrite a fifth of the entries with values at or past the log clip."""
    mask = rng.random(h.shape) < 0.2
    h[mask] = rng.choice([0.0, 1.0, 1e-12, 1.0 - 1e-12], size=int(mask.sum()))
    return h


def test_unchecked_kernel_matches_the_checked_calls_bit_for_bit():
    rng = np.random.default_rng(77)
    binary = [LossSpec.bce(), LossSpec.wbce(7.0), LossSpec.rwwce_binary(2000.0, 100.0)]
    for _ in range(200):
        h, y = random_binary_batch(rng)
        h = _saturate(h, rng)[:, None]  # as the network emits it, (M, 1)
        for spec in binary:
            pos, neg = checked_targets(spec, y, h.shape)
            loss, dz = loss_and_gradient(h, pos, neg)
            assert loss == loss_value(spec, h, y)
            assert np.array_equal(dz, fused_gradient_from_probs(spec, h, y))
            assert dz.shape == h.shape

        k = int(rng.integers(2, 11))
        z = rng.normal(0.0, rng.choice([1.0, 40.0]), size=(int(rng.integers(1, 65)), k))
        h = softmax(z)  # wide logits saturate whole rows
        y = np.eye(k)[rng.integers(0, k, size=h.shape[0])]
        categorical = [
            LossSpec.cce(),
            LossSpec.wcce(rng.uniform(0.5, 3.0, k)),
            LossSpec.rwwce_categorical(rng.uniform(0.5, 3.0, k), rng.uniform(0.0, 5.0, (k, k))),
        ]
        for spec in categorical:
            pos, neg = checked_targets(spec, y, h.shape)
            loss, dz = loss_and_gradient(h, pos, neg)
            assert loss == loss_value(spec, h, y)
            assert np.array_equal(dz, fused_gradient_from_probs(spec, h, y))


def _per_kind_kernels(spec, h, y):
    """The binary and categorical kernels that loss_and_gradient replaced, as
    they were written, from a spec and labels; the reference for its bits."""
    h = np.asarray(h, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if spec.is_binary:
        a, b = spec.terms
        y = y.reshape(-1)
        hv = h.reshape(y.shape)
        pos = a * y
        neg = b * (1.0 - y)
        log_h = np.log(np.maximum(hv, EPSILON))
        log_not_h = np.log(np.maximum(1.0 - hv, EPSILON))
        loss = float(-np.mean(pos * log_h + neg * log_not_h))
        dz = (pos * (hv - 1.0) + neg * hv) / hv.shape[0]
        return loss, dz.reshape(h.shape)
    k = h.shape[1]
    a, fp = (np.ones(k), np.zeros((k, k))) if spec.terms is None else spec.terms
    pos = a * y
    wrong = y @ fp
    not_h = np.maximum(1.0 - h, EPSILON)
    log_h = np.log(np.maximum(h, EPSILON))
    loss = float(-np.mean((pos * log_h).sum(axis=1) + (wrong * np.log(not_h)).sum(axis=1)))
    u = -pos + wrong * (h / not_h)
    s = u.sum(axis=1, keepdims=True)
    return loss, (u - h * s) / h.shape[0]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_one_kernel_is_bit_identical_to_the_per_kind_kernels():
    rng = np.random.default_rng(2020)
    zero_cost = [LossSpec.rwwce_binary(0.0, 3.0), LossSpec.rwwce_binary(3.0, 0.0)]
    for trial in range(100):
        k = int(rng.integers(2, 11))
        h, y = random_binary_batch(rng)
        hc, yc = random_categorical_batch(rng, k=k)
        if trial % 2:
            h = _saturate(h, rng)
            hc = softmax(rng.normal(0.0, 40.0, size=hc.shape))  # wide logits saturate whole rows
        for spec in all_variant_specs(rng, k) + zero_cost:
            if spec.is_binary:
                cases = [(h, y), (h[:, None], y), (h[:, None], y[:, None])]
            else:
                cases = [(hc, yc)]
            for hb, yb in cases:
                want_loss, want_dz = _per_kind_kernels(spec, hb, yb)
                assert same_bits(loss_value(spec, hb, yb), want_loss), spec
                assert same_bits(fused_gradient_from_probs(spec, hb, yb), want_dz), spec
                if hb.ndim == 2:  # the network's own output shape
                    loss, dz = loss_and_gradient(hb, *checked_targets(spec, yb, hb.shape))
                    assert same_bits(loss, want_loss) and same_bits(dz, want_dz), spec
