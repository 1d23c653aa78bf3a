"""Network machinery: init, forward, backward, Adam, training, gradcheck."""

import math

import numpy as np
import pytest

from rwwce import (
    AdamState,
    Dataset,
    DenseLayer,
    LossSpec,
    Mlp,
    TrainConfig,
    adam_step,
    backward,
    forward,
    fused_gradient_from_probs,
    gradcheck,
    gradcheck_matrix,
    init_mlp,
    loss_value,
    train,
)
from rwwce.nn import flat_layers

BINARY_TOPOLOGY = [(784, 10, "relu"), (10, 1, "sigmoid")]
CATEGORICAL_TOPOLOGY = [(784, 50, "relu"), (50, 20, "relu"), (20, 10, "softmax")]


# --- init ---------------------------------------------------------------------


def test_init_is_deterministic_per_seed():
    a = init_mlp(BINARY_TOPOLOGY, seed=7)
    b = init_mlp(BINARY_TOPOLOGY, seed=7)
    c = init_mlp(BINARY_TOPOLOGY, seed=8)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
    assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)


def test_init_shapes_bounds_and_zero_bias():
    mlp = init_mlp(CATEGORICAL_TOPOLOGY, seed=0)
    assert [(l.in_dim, l.out_dim) for l in mlp.layers] == [(784, 50), (50, 20), (20, 10)]
    for layer, (n_in, n_out, _) in zip(mlp.layers, CATEGORICAL_TOPOLOGY):
        limit = math.sqrt(6.0 / (n_in + n_out))
        assert np.abs(layer.weights).max() <= limit
        assert np.array_equal(layer.bias, np.zeros(n_out))


def test_parameter_counts():
    # 784*50 + 50*20 + 20*10 weights and 50 + 20 + 10 biases, counted by hand.
    mlp = init_mlp(CATEGORICAL_TOPOLOGY, seed=0)
    assert mlp.weight_count == 40_400
    assert mlp.bias_count == 80
    small = init_mlp(BINARY_TOPOLOGY, seed=0)
    assert small.weight_count == 7_840 + 10
    assert small.bias_count == 11


def test_init_rejects_bad_topologies():
    with pytest.raises(ValueError):
        init_mlp([], seed=0)
    with pytest.raises(ValueError):
        init_mlp([(4, 3, "relu"), (2, 1, "sigmoid")], seed=0)  # 3 feeds 2
    with pytest.raises(ValueError):
        init_mlp([(4, 3, "softmax"), (3, 2, "sigmoid")], seed=0)  # softmax hidden
    with pytest.raises(ValueError):
        init_mlp([(4, 0, "relu")], seed=0)
    with pytest.raises(ValueError):
        init_mlp([(4, 3, "tanh")], seed=0)
    with pytest.raises(ValueError):
        init_mlp([(4, 3)], seed=0)


# --- forward ------------------------------------------------------------------


def test_forward_identity_layer_passes_input_through():
    layer = DenseLayer(np.eye(3), np.zeros(3), "identity")
    x = np.arange(6.0).reshape(2, 3)
    acts = forward(Mlp([layer]), x)
    assert len(acts) == 2
    assert np.array_equal(acts[-1], x)


def test_forward_softmax_symmetry():
    layer = DenseLayer(np.zeros((4, 10)), np.zeros(10), "softmax")
    out = forward(Mlp([layer]), np.ones((3, 4)))[-1]
    assert np.allclose(out, 0.1, atol=1e-15)


def test_forward_matches_hand_computation():
    # One relu layer then identity, all values chosen to be exact in floats.
    w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b1 = np.array([0.25, -0.5])
    w2 = np.array([[2.0], [1.0]])
    b2 = np.array([1.0])
    mlp = Mlp([DenseLayer(w1, b1, "relu"), DenseLayer(w2, b2, "identity")])
    x = np.array([[2.0, 1.0]])
    # z1 = (2*1 + 1*0.5 + 0.25, 2*-1 + 1*2 - 0.5) = (2.75, -0.5); relu -> (2.75, 0)
    # z2 = 2.75*2 + 0*1 + 1 = 6.5
    acts = forward(mlp, x)
    assert np.array_equal(acts[1], np.array([[2.75, 0.0]]))
    assert np.array_equal(acts[2], np.array([[6.5]]))


def test_forward_scales_pixel_bytes_bit_identically():
    pixels = np.random.default_rng(4).integers(0, 256, size=(37, 784)).astype(np.uint8)
    pixels[0] = 255
    pixels[1] = 0
    pixels[2, :256] = np.arange(256)  # every byte value
    for topology in (BINARY_TOPOLOGY, CATEGORICAL_TOPOLOGY):
        mlp = init_mlp(topology, seed=9)
        got = forward(mlp, pixels)
        expected = forward(mlp, pixels.astype(np.float64) / 255.0)
        assert got[0].dtype == np.float64
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_forward_validates_input():
    mlp = init_mlp([(4, 2, "relu")], seed=0)
    with pytest.raises(ValueError):
        forward(mlp, np.zeros(4))
    with pytest.raises(ValueError):
        forward(mlp, np.zeros((3, 5)))


# --- backward -----------------------------------------------------------------


def test_backward_zero_gradient_gives_zero_parameter_grads():
    mlp = init_mlp([(5, 4, "relu"), (4, 3, "softmax")], seed=1)
    x = np.random.default_rng(2).normal(size=(6, 5))
    acts = forward(mlp, x)
    grads = backward(mlp, acts, np.zeros_like(acts[-1]))
    for gw, gb in grads:
        assert np.array_equal(gw, np.zeros_like(gw))
        assert np.array_equal(gb, np.zeros_like(gb))


def test_backward_validates_shapes():
    mlp = init_mlp([(5, 4, "relu"), (4, 3, "softmax")], seed=1)
    x = np.zeros((2, 5))
    acts = forward(mlp, x)
    with pytest.raises(ValueError):
        backward(mlp, acts[:-1], np.zeros((2, 3)))
    with pytest.raises(ValueError):
        backward(mlp, acts, np.zeros((2, 4)))


# --- Adam ---------------------------------------------------------------------


def scalar_params(w=0.5):
    """The flat [weight, bias] vector of a 1x1 layer, as train() lays it out."""
    return np.array([w, 0.0])


def test_adam_zero_gradient_leaves_parameters_unchanged():
    theta = scalar_params()
    state = AdamState.zeros(2)
    adam_step(theta, np.zeros(2), state, TrainConfig())
    assert np.array_equal(theta, scalar_params())
    assert state.step == 1


def test_adam_first_step_matches_hand_formula():
    config = TrainConfig(learning_rate=0.001)
    g = 0.25
    theta = scalar_params(w=0.5)
    state = AdamState.zeros(2)
    adam_step(theta, np.array([g, 0.0]), state, config)
    # t=1: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps).
    expected = 0.5 - config.learning_rate * g / (abs(g) + config.adam_epsilon)
    assert theta[0] == pytest.approx(expected, rel=1e-12)
    assert state.m[0] == pytest.approx(0.1 * g, rel=1e-12)
    assert state.v[0] == pytest.approx(0.001 * g * g, rel=1e-12)


def test_adam_constant_gradient_update_approaches_signed_learning_rate():
    config = TrainConfig(learning_rate=0.001)
    theta = scalar_params(w=3.0)
    state = AdamState.zeros(2)
    grad = np.array([0.7, 0.0])
    previous = theta[0]
    for _ in range(200):
        adam_step(theta, grad, state, config)
    step_size = previous - theta[0]
    # 200 steps of roughly lr each, all in the gradient's direction.
    assert step_size == pytest.approx(200 * config.learning_rate, rel=0.01)


def test_adam_rejects_mismatched_gradients():
    theta = scalar_params()
    state = AdamState.zeros(2)
    with pytest.raises(ValueError):
        adam_step(theta, np.ones(3), state, TrainConfig())
    with pytest.raises(ValueError):
        adam_step(theta, np.ones((2, 1)), state, TrainConfig())
    with pytest.raises(ValueError):
        adam_step(theta, np.ones(2), AdamState.zeros(3), TrainConfig())
    assert np.array_equal(theta, scalar_params())
    assert state.step == 0


def test_flat_layers_are_views_in_layer_order():
    mlp = init_mlp([(3, 2, "relu"), (2, 1, "sigmoid")], seed=0)
    flat = np.arange(11.0)
    layers = flat_layers(flat, mlp.layers)
    assert np.array_equal(layers[0].weights, np.arange(6.0).reshape(3, 2))
    assert np.array_equal(layers[0].bias, [6.0, 7.0])
    assert np.array_equal(layers[1].weights, [[8.0], [9.0]])
    assert np.array_equal(layers[1].bias, [10.0])
    assert [l.activation for l in layers] == ["relu", "sigmoid"]
    flat[10] = -1.0
    assert layers[1].bias[0] == -1.0


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(adam_beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(adam_epsilon=0.0)


# --- training loop ------------------------------------------------------------


def binary_toy_set():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(-2.0, 0.3, size=(16, 2)), rng.normal(2.0, 0.3, size=(16, 2))])
    y = np.concatenate([np.zeros(16), np.ones(16)])
    return Dataset("binary", x, y)


def categorical_toy_set():
    x = np.tile(np.eye(3), (8, 1))
    y = np.tile(np.eye(3), (8, 1))
    return Dataset("categorical", x, y)


def test_train_decreases_loss_on_separable_binary_set():
    data = binary_toy_set()
    mlp = init_mlp([(2, 4, "relu"), (4, 1, "sigmoid")], seed=3)
    config = TrainConfig(epochs=200, batch_size=8, seed=3)
    trained, history = train(mlp, data, LossSpec.bce(), config)
    assert len(history) == 200
    assert history[-1] < history[0] * 0.5


def test_train_decreases_loss_on_categorical_set():
    data = categorical_toy_set()
    mlp = init_mlp([(3, 8, "relu"), (8, 3, "softmax")], seed=5)
    config = TrainConfig(epochs=200, batch_size=6, seed=5)
    _, history = train(mlp, data, LossSpec.cce(), config)
    assert history[-1] < history[0] * 0.5


def test_train_is_bit_deterministic():
    data = binary_toy_set()
    mlp = init_mlp([(2, 4, "relu"), (4, 1, "sigmoid")], seed=3)
    config = TrainConfig(epochs=5, batch_size=8, seed=11)
    a, history_a = train(mlp, data, LossSpec.bce(), config)
    b, history_b = train(mlp, data, LossSpec.bce(), config)
    assert history_a == history_b
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_train_full_batch_equals_one_manual_adam_step():
    data = binary_toy_set()
    mlp = init_mlp([(2, 4, "relu"), (4, 1, "sigmoid")], seed=9)
    config = TrainConfig(epochs=1, batch_size=64, seed=21)
    trained, _ = train(mlp, data, LossSpec.bce(), config)

    # batch_size >= M means exactly one update; the gradient is a mean over
    # the whole set, so the shuffle can only reorder the summation.
    order = np.random.default_rng(21).permutation(data.size)
    acts = forward(mlp, data.X[order])
    dz = fused_gradient_from_probs(LossSpec.bce(), acts[-1], data.Y[order])
    theta = np.concatenate([p.ravel() for l in mlp.layers for p in (l.weights, l.bias)])
    grad = np.concatenate([g.ravel() for pair in backward(mlp, acts, dz) for g in pair])
    adam_step(theta, grad, AdamState.zeros(theta.size), config)
    for got, want in zip(trained.layers, flat_layers(theta, mlp.layers)):
        assert np.allclose(got.weights, want.weights, atol=1e-14)
        assert np.allclose(got.bias, want.bias, atol=1e-14)


def reference_train(mlp, data, spec, config):
    """train() written out with the checked per-batch calls and textbook Adam.

    Every parameter array is updated out of place with the closed form of
    test_adam_first_step_matches_hand_formula, one layer at a time.
    """
    b1, b2, lr, eps = config.adam_beta1, config.adam_beta2, config.learning_rate, config.adam_epsilon
    params = [p.copy() for l in mlp.layers for p in (l.weights, l.bias)]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(config.seed)
    history, t = [], 0
    for _ in range(config.epochs):
        order = rng.permutation(data.size)
        total = 0.0
        for start in range(0, data.size, config.batch_size):
            idx = order[start : start + config.batch_size]
            model = Mlp(
                [DenseLayer(params[2 * i], params[2 * i + 1], l.activation)
                 for i, l in enumerate(mlp.layers)]
            )
            acts = forward(model, data.X[idx])
            batch_loss = loss_value(spec, acts[-1], data.Y[idx])
            dz = fused_gradient_from_probs(spec, acts[-1], data.Y[idx])
            grads = [g for pair in backward(model, acts, dz) for g in pair]
            t += 1
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                params[i] = params[i] - lr * (m[i] / (1.0 - b1**t)) / (
                    np.sqrt(v[i] / (1.0 - b2**t)) + eps
                )
            total += batch_loss * idx.shape[0]
        history.append(total / data.size)
    return params, history


@pytest.mark.parametrize("kind", ["binary", "categorical"])
def test_train_is_bit_identical_to_the_reference_loop(kind):
    rng = np.random.default_rng(41)
    x = rng.normal(size=(53, 6))  # batch_size 8 leaves a final batch of 5
    if kind == "binary":
        data = Dataset("binary", x, (rng.random(53) < 0.3).astype(np.float64))
        mlp = init_mlp([(6, 5, "relu"), (5, 1, "sigmoid")], seed=12)
        spec = LossSpec.rwwce_binary(20.0, 3.0)
    else:
        data = Dataset("categorical", x, np.eye(4)[rng.integers(0, 4, size=53)])
        mlp = init_mlp([(6, 7, "relu"), (7, 5, "sigmoid"), (5, 4, "softmax")], seed=12)
        spec = LossSpec.rwwce_categorical(rng.uniform(0.5, 2.0, 4), rng.uniform(0.0, 3.0, (4, 4)))
    config = TrainConfig(epochs=6, batch_size=8, learning_rate=0.01, seed=13)
    trained, history = train(mlp, data, spec, config)
    params, expected_history = reference_train(mlp, data, spec, config)
    assert history == expected_history
    got = [p for l in trained.layers for p in (l.weights, l.bias)]
    assert all(np.array_equal(a, b) for a, b in zip(got, params))


@pytest.mark.parametrize("kind", ["binary", "categorical"])
def test_train_on_pixel_bytes_equals_train_on_scaled_floats(kind):
    rng = np.random.default_rng(23)
    pixels = rng.integers(0, 256, size=(61, 784)).astype(np.uint8)
    if kind == "binary":
        y = (rng.random(61) < 0.2).astype(np.float64)
        mlp, spec = init_mlp(BINARY_TOPOLOGY, seed=2), LossSpec.rwwce_binary(40.0, 2.0)
    else:
        y = np.eye(10)[rng.integers(0, 10, size=61)]
        mlp, spec = init_mlp(CATEGORICAL_TOPOLOGY, seed=2), LossSpec.cce()
    config = TrainConfig(epochs=3, batch_size=8, learning_rate=0.01, seed=6)
    as_bytes = Dataset(kind, pixels, y)
    as_floats = Dataset(kind, pixels / 255.0, y)
    assert as_bytes.X.dtype == np.uint8 and as_floats.X.dtype == np.float64
    a, history_a = train(mlp, as_bytes, spec, config)
    b, history_b = train(mlp, as_floats, spec, config)
    assert history_a == history_b
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_train_leaves_the_input_model_untouched():
    data = binary_toy_set()
    mlp = init_mlp([(2, 4, "relu"), (4, 1, "sigmoid")], seed=3)
    before = mlp.copy()
    trained, _ = train(mlp, data, LossSpec.bce(), TrainConfig(epochs=2, batch_size=8))
    for la, lb, lt in zip(mlp.layers, before.layers, trained.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
        assert not np.shares_memory(la.weights, lt.weights)


def _entry_cases():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 3))
    good_y = np.eye(3)[np.arange(20) % 3]
    not_one_hot = good_y.copy()
    not_one_hot[-1] = [0.0, 1.0, 1.0]
    binary_y = (np.arange(20) % 2).astype(np.float64)
    binary_y[-1] = 0.5
    sigmoid_head = [(3, 4, "relu"), (4, 1, "sigmoid")]
    softmax_head = [(3, 4, "relu"), (4, 3, "softmax")]
    wide_cost = LossSpec.rwwce_categorical(np.ones(4), np.zeros((4, 4)))
    return [
        ("binary", sigmoid_head, x, binary_y, LossSpec.bce(), "binary labels must be exactly 0 or 1"),
        ("categorical", softmax_head, x, not_one_hot, LossSpec.cce(), "labels must be exact one-hot rows"),
        (
            "categorical", softmax_head, x, good_y, LossSpec.wcce([1.0, 1.0]),
            "per_class has 2 entries for 3 classes",
        ),
        ("categorical", softmax_head, x, good_y, wide_cost, "cost model has 4 classes, batch has 3"),
    ]


@pytest.mark.parametrize("case", range(4))
def test_train_rejects_bad_labels_before_the_first_step(case, monkeypatch):
    import rwwce.nn as nn_module

    kind, topology, x, y, spec, message = _entry_cases()[case]
    mlp = init_mlp(topology, seed=0)
    h = forward(mlp, x[-4:])[-1]
    with pytest.raises(ValueError) as expected:
        loss_value(spec, h, y[-4:])
    assert str(expected.value) == message

    steps = []
    monkeypatch.setattr(nn_module, "forward", lambda *a: steps.append(a) or forward(*a))

    with pytest.raises(ValueError) as got:
        train(mlp, Dataset(kind, x, y), spec, TrainConfig(epochs=1, batch_size=4))
    assert str(got.value) == str(expected.value)
    assert steps == []


def test_train_enforces_loss_activation_pairing():
    data = binary_toy_set()
    softmax_head = init_mlp([(2, 4, "relu"), (4, 2, "softmax")], seed=0)
    with pytest.raises(ValueError):
        train(softmax_head, data, LossSpec.bce(), TrainConfig())
    wide_sigmoid = Mlp(
        [DenseLayer(np.zeros((2, 2)), np.zeros(2), "sigmoid")]
    )
    with pytest.raises(ValueError):
        train(wide_sigmoid, data, LossSpec.bce(), TrainConfig())
    sigmoid_head = init_mlp([(3, 4, "relu"), (4, 1, "sigmoid")], seed=0)
    with pytest.raises(ValueError):
        train(sigmoid_head, categorical_toy_set(), LossSpec.cce(), TrainConfig())


def test_train_rejects_empty_and_mismatched_sets():
    mlp = init_mlp([(2, 4, "relu"), (4, 1, "sigmoid")], seed=0)

    class Raw:
        X = np.zeros((0, 2))
        Y = np.zeros(0)

    with pytest.raises(ValueError):
        train(mlp, Raw(), LossSpec.bce(), TrainConfig())

    class Mismatched:
        X = np.zeros((4, 2))
        Y = np.zeros(3)

    with pytest.raises(ValueError):
        train(mlp, Mismatched(), LossSpec.bce(), TrainConfig())


def test_train_raises_on_numeric_blowup():
    # An absurd learning rate drives the weights to overflow; the loop must
    # surface that as FloatingPointError instead of returning garbage.
    data = binary_toy_set()
    mlp = init_mlp([(2, 4, "relu"), (4, 1, "sigmoid")], seed=3)
    config = TrainConfig(epochs=10, batch_size=8, learning_rate=1e155, seed=3)
    with pytest.raises(FloatingPointError):
        with np.errstate(all="ignore"):
            train(mlp, data, LossSpec.bce(), config)


# --- gradient checking --------------------------------------------------------


def test_gradcheck_passes_on_moderate_networks():
    rng = np.random.default_rng(17)
    x = rng.uniform(-1.0, 1.0, size=(8, 5))
    yb = rng.integers(0, 2, size=8).astype(np.float64)
    binary = init_mlp([(5, 6, "relu"), (6, 1, "sigmoid")], seed=2)
    report = gradcheck(binary, (x, yb), LossSpec.rwwce_binary(3.0, 0.5))
    assert report.passed, report.max_rel_error
    assert report.parameter_count == binary.weight_count + binary.bias_count

    yc = np.zeros((8, 3))
    yc[np.arange(8), rng.integers(0, 3, size=8)] = 1.0
    fp = rng.uniform(0.5, 2.0, size=(3, 3))
    categorical = init_mlp([(5, 6, "relu"), (6, 3, "softmax")], seed=2)
    report = gradcheck(
        categorical, (x, yc), LossSpec.rwwce_categorical(np.ones(3), fp)
    )
    assert report.passed, report.max_rel_error


def test_gradcheck_detects_a_corrupted_gradient():
    # Double one analytic weight gradient and redo its comparison by hand;
    # the relative error formula must flag it.
    rng = np.random.default_rng(23)
    x = rng.uniform(-1.0, 1.0, size=(8, 4))
    y = rng.integers(0, 2, size=8).astype(np.float64)
    mlp = init_mlp([(4, 5, "relu"), (5, 1, "sigmoid")], seed=4)
    spec = LossSpec.bce()
    acts = forward(mlp, x)
    analytic = backward(mlp, acts, fused_gradient_from_probs(spec, acts[-1], y))
    corrupted = 2.0 * analytic[0][0][0, 0]

    step = 1e-5
    work = mlp.copy()
    original = work.layers[0].weights[0, 0]
    work.layers[0].weights[0, 0] = original + step
    plus = loss_value(spec, forward(work, x)[-1], y)
    work.layers[0].weights[0, 0] = original - step
    minus = loss_value(spec, forward(work, x)[-1], y)
    numeric = (plus - minus) / (2.0 * step)
    rel = abs(corrupted - numeric) / max(abs(corrupted), abs(numeric), 1e-12)
    assert rel > 1e-5


def test_gradcheck_mirrored_two_class_heads_both_pass():
    # The same problem phrased as 1-unit sigmoid and as 2-way softmax.
    rng = np.random.default_rng(31)
    x = rng.uniform(-1.0, 1.0, size=(8, 4))
    y = rng.integers(0, 2, size=8).astype(np.float64)
    sigmoid_net = init_mlp([(4, 5, "relu"), (5, 1, "sigmoid")], seed=6)
    assert gradcheck(sigmoid_net, (x, y), LossSpec.bce()).passed

    one_hot = np.zeros((8, 2))
    one_hot[np.arange(8), y.astype(int)] = 1.0
    softmax_net = init_mlp([(4, 5, "relu"), (5, 2, "softmax")], seed=6)
    assert gradcheck(softmax_net, (x, one_hot), LossSpec.cce()).passed


def test_gradcheck_matrix_covers_all_variants():
    report = gradcheck_matrix(seed=0, instances_per_variant=1)
    assert set(report.worst_by_variant) == {
        "bce", "wbce", "cce", "wcce", "rwwce_binary", "rwwce_categorical",
    }
    assert report.passed
    assert report.instances_per_variant == 1
