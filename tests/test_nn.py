"""Network machinery: init, forward, backward, Adam, training, gradcheck."""

import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

import corpus

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
from rwwce.experiments import BINARY_TOPOLOGY, CATEGORICAL_TOPOLOGY
from rwwce.nn import BINARY_VARIANTS, EVAL_BLOCK_ROWS, VARIANTS, flat_layers, network_input, outputs


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
    def counts(mlp):
        return sum(l.weights.size for l in mlp.layers), sum(l.bias.size for l in mlp.layers)

    assert counts(init_mlp(CATEGORICAL_TOPOLOGY, seed=0)) == (40_400, 80)
    assert counts(init_mlp(BINARY_TOPOLOGY, seed=0)) == (7_840 + 10, 11)


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


def test_forward_refuses_a_layer_with_an_unknown_activation():
    mlp = Mlp([DenseLayer(np.eye(3), np.zeros(3), "tanh")])
    with pytest.raises(ValueError, match="unknown activation 'tanh'"):
        forward(mlp, np.ones((2, 3)))
    with pytest.raises(ValueError, match="unknown activation 'tanh'"):
        outputs([mlp], np.ones((2, 3)))


def test_forward_refuses_a_model_with_no_layers():
    with pytest.raises(ValueError, match="model has no layers"):
        forward(Mlp([]), np.ones((2, 3)))


def test_forward_softmax_symmetry():
    layer = DenseLayer(np.zeros((4, 10)), np.zeros(10), "softmax")
    out = forward(Mlp([layer]), np.ones((3, 4)))[-1]
    assert np.allclose(out, 0.1, atol=1e-15)


def test_forward_matches_hand_computation():
    # Two relu layers, all values chosen to be exact in floats; the output is
    # positive, so the last relu passes it through.
    w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b1 = np.array([0.25, -0.5])
    w2 = np.array([[2.0], [1.0]])
    b2 = np.array([1.0])
    mlp = Mlp([DenseLayer(w1, b1, "relu"), DenseLayer(w2, b2, "relu")])
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
        scaled = network_input(pixels)
        shared = forward(mlp, scaled)
        assert shared[0] is scaled
        assert all(np.array_equal(a, b) for a, b in zip(shared, expected))


def test_forward_validates_input():
    mlp = init_mlp([(4, 2, "relu")], seed=0)
    with pytest.raises(ValueError):
        forward(mlp, np.zeros(4))
    with pytest.raises(ValueError):
        forward(mlp, np.zeros((3, 5)))


@pytest.fixture(scope="module")
def corpus_pixels():
    """17,500 rows of synthetic pixel bytes, the size of a categorical trial's test split."""
    return corpus.synthetic_images_labels(1750)[0]


@pytest.mark.parametrize(
    "topology", [BINARY_TOPOLOGY, CATEGORICAL_TOPOLOGY], ids=["binary", "categorical"]
)
def test_blocked_outputs_match_forward_bit_for_bit(corpus_pixels, topology):
    """outputs() gives forward()'s bits on splits around the block boundaries.

    Like tests/test_frozen_records.py this is host-specific: it holds where
    the BLAS computes a first-layer product of 1,000 rows or more with the
    same bits in row blocks as whole, as OpenBLAS at its default thread
    count does on the 2-core x86_64 host it was measured on.
    """
    models = [init_mlp(topology, seed=5), init_mlp(topology, seed=6)]
    for rows in (0, 1, 4095, 4096, 4097, 4772, 8193, 17500):
        x = corpus_pixels[:rows]
        for mlp, got in zip(models, outputs(models, x)):
            assert np.array_equal(got, forward(mlp, x)[-1]), rows


@pytest.mark.parametrize(
    "topology", [BINARY_TOPOLOGY, CATEGORICAL_TOPOLOGY], ids=["binary", "categorical"]
)
def test_outputs_scale_a_split_in_bounded_memory(corpus_pixels, topology):
    """Scoring a 17,500-row split never holds it as one float64 copy (110 MB):
    the traced peak stays under two scaled blocks plus every layer's output."""
    models = [init_mlp(topology, seed=5), init_mlp(topology, seed=6)]
    x = corpus_pixels[:17500]
    output_bytes = sum(x.shape[0] * layer.out_dim * 8 for m in models for layer in m.layers)
    tracemalloc.start()
    try:
        outputs(models, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * EVAL_BLOCK_ROWS * 784 * 8 + output_bytes


def test_outputs_validates_input():
    mlp = init_mlp([(4, 2, "relu")], seed=0)
    with pytest.raises(ValueError, match="2-D batch"):
        outputs([mlp], np.zeros(4))
    with pytest.raises(ValueError, match="first layer expects 4"):
        outputs([mlp, init_mlp([(5, 2, "relu")], seed=0)], np.zeros((3, 5)))


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


def test_backward_refuses_a_hidden_softmax():
    mlp = Mlp(
        [
            DenseLayer(np.ones((3, 4)), np.zeros(4), "softmax"),
            DenseLayer(np.ones((4, 1)), np.zeros(1), "sigmoid"),
        ]
    )
    acts = forward(mlp, np.ones((2, 3)))
    with pytest.raises(ValueError, match="cannot differentiate hidden activation 'softmax'"):
        backward(mlp, acts, np.zeros((2, 1)))


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


def test_adam_step_is_bit_identical_to_the_closed_form_for_400_steps():
    # 1 - b1**t first rounds to 1.0 at t = 356 for the default b1, where
    # adam_step stops dividing m by it; the run crosses that step.
    config = TrainConfig()
    b1, b2, lr, eps = config.adam_beta1, config.adam_beta2, config.learning_rate, config.adam_epsilon
    first_exact = next(t for t in range(1, 401) if 1.0 - b1**t == 1.0)
    assert 1 < first_exact < 400

    rng = np.random.default_rng(12)
    theta = rng.normal(size=64)
    expected = theta.copy()
    m, v = np.zeros(64), np.zeros(64)
    state = AdamState.zeros(64)
    for t in range(1, 401):
        g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=64)
        zeros = rng.random(64) < 0.1
        g[zeros] = np.copysign(0.0, rng.normal(size=int(zeros.sum())))
        adam_step(theta, g, state, config)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        expected = expected - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        for got, want in ((theta, expected), (state.m, m), (state.v, v)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), f"step {t}"
    assert state.step == 400


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


@pytest.mark.parametrize("name", ["epochs", "batch_size"])
@pytest.mark.parametrize("count", [2.5, 2.0, True, "2"])
def test_train_config_refuses_a_count_that_is_not_an_integer(name, count):
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {count!r}"):
        TrainConfig(**{name: count})


def test_train_config_accepts_numpy_integer_counts():
    config = TrainConfig(epochs=np.int64(2), batch_size=np.int32(8))
    assert (config.epochs, config.batch_size) == (2, 8)


def test_train_config_validation():
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(adam_beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(adam_epsilon=0.0)
    with pytest.raises(ValueError, match="learning_rate must be finite"):
        TrainConfig(learning_rate=math.inf)
    with pytest.raises(ValueError, match="adam_epsilon must be finite"):
        TrainConfig(adam_epsilon=math.inf)


# --- training loop ------------------------------------------------------------


class FloatSet(NamedTuple):
    """A training set of float features and class-index labels: train() reads
    X and Y, as a Dataset holds them, but a Dataset holds only pixel bytes."""

    X: np.ndarray
    Y: np.ndarray

    @property
    def size(self) -> int:
        return len(self.X)


def binary_toy_set():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(-2.0, 0.3, size=(16, 2)), rng.normal(2.0, 0.3, size=(16, 2))])
    return FloatSet(x, np.repeat([0, 1], 16))


def categorical_toy_set():
    return FloatSet(np.tile(np.eye(3), (8, 1)), np.tile(np.arange(3), 8))


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


# One spec per variant for four classes, built from the test's generator.
REFERENCE_LOOP_SPECS = {
    "bce": lambda rng: LossSpec.bce(),
    "wbce": lambda rng: LossSpec.wbce(7.0),
    "rwwce_binary": lambda rng: LossSpec.rwwce_binary(20.0, 3.0),
    "cce": lambda rng: LossSpec.cce(),
    "wcce": lambda rng: LossSpec.wcce(rng.uniform(0.5, 2.0, 4)),
    "rwwce_categorical": lambda rng: LossSpec.rwwce_categorical(
        rng.uniform(0.5, 2.0, 4), rng.uniform(0.0, 3.0, (4, 4))
    ),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_is_bit_identical_to_the_reference_loop(variant):
    rng = np.random.default_rng(41)
    x = rng.normal(size=(53, 6))  # batch_size 8 leaves a final batch of 5
    if variant in BINARY_VARIANTS:
        data = FloatSet(x, (rng.random(53) < 0.3).astype(np.int64))
        mlp = init_mlp([(6, 5, "relu"), (5, 1, "sigmoid")], seed=12)
    else:
        data = FloatSet(x, rng.integers(0, 4, size=53))
        mlp = init_mlp([(6, 7, "relu"), (7, 5, "sigmoid"), (5, 4, "softmax")], seed=12)
    spec = REFERENCE_LOOP_SPECS[variant](rng)
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
        y = (rng.random(61) < 0.2).astype(np.int64)
        mlp, spec = init_mlp(BINARY_TOPOLOGY, seed=2), LossSpec.rwwce_binary(40.0, 2.0)
    else:
        y = rng.integers(0, 10, size=61)
        mlp, spec = init_mlp(CATEGORICAL_TOPOLOGY, seed=2), LossSpec.cce()
    config = TrainConfig(epochs=3, batch_size=8, learning_rate=0.01, seed=6)
    as_bytes = Dataset(pixels, y)
    as_floats = FloatSet(pixels / 255.0, y)
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
    before = [(l.weights.copy(), l.bias.copy()) for l in mlp.layers]
    trained, _ = train(mlp, data, LossSpec.bce(), TrainConfig(epochs=2, batch_size=8))
    for la, (weights, bias), lt in zip(mlp.layers, before, trained.layers):
        assert np.array_equal(la.weights, weights)
        assert np.array_equal(la.bias, bias)
        assert not np.shares_memory(la.weights, lt.weights)


def _entry_cases():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 3))
    good_y = np.arange(20) % 3
    no_such_class = good_y.copy()
    no_such_class[-1] = 3
    binary_y = np.arange(20) % 2
    binary_y[-1] = 2
    sigmoid_head = [(3, 4, "relu"), (4, 1, "sigmoid")]
    softmax_head = [(3, 4, "relu"), (4, 3, "softmax")]
    wide_cost = LossSpec.rwwce_categorical(np.ones(4), np.zeros((4, 4)))
    return [
        (sigmoid_head, x, binary_y, LossSpec.bce(), "labels must be classes 0..1"),
        (softmax_head, x, no_such_class, LossSpec.cce(), "labels must be classes 0..2"),
        (softmax_head, x, good_y, LossSpec.wcce([1.0, 1.0]), "cost model has 2 classes, batch has 3"),
        (softmax_head, x, good_y, wide_cost, "cost model has 4 classes, batch has 3"),
    ]


@pytest.mark.parametrize("case", range(4))
def test_train_rejects_bad_labels_before_the_first_step(case, monkeypatch):
    import rwwce.nn as nn_module

    topology, x, y, spec, message = _entry_cases()[case]
    mlp = init_mlp(topology, seed=0)
    h = forward(mlp, x[-4:])[-1]
    with pytest.raises(ValueError) as expected:
        loss_value(spec, h, y[-4:])
    assert str(expected.value) == message

    steps = []
    monkeypatch.setattr(nn_module, "forward", lambda *a: steps.append(a) or forward(*a))

    with pytest.raises(ValueError) as got:
        train(mlp, FloatSet(x, y), spec, TrainConfig(epochs=1, batch_size=4))
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
        Y = np.zeros(3, np.int64)

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
    yb = rng.integers(0, 2, size=8)
    binary = init_mlp([(5, 6, "relu"), (6, 1, "sigmoid")], seed=2)
    worst = gradcheck(binary, (x, yb), LossSpec.rwwce_binary(3.0, 0.5))
    assert worst < 1e-5, worst

    yc = rng.integers(0, 3, size=8)
    fp = rng.uniform(0.5, 2.0, size=(3, 3))
    categorical = init_mlp([(5, 6, "relu"), (6, 3, "softmax")], seed=2)
    worst = gradcheck(categorical, (x, yc), LossSpec.rwwce_categorical(np.ones(3), fp))
    assert worst < 1e-5, worst


def test_gradcheck_scales_pixel_bytes_as_training_does():
    # gradcheck differentiates train()'s own step, which reads a uint8 batch
    # as x / 255.0; differentiating the raw bytes instead reads about 1.79.
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, size=(8, 6)).astype(np.uint8)
    y = rng.integers(0, 2, size=8)
    mlp = init_mlp([(6, 5, "relu"), (5, 1, "sigmoid")], seed=3)
    worst = gradcheck(mlp, (pixels, y), LossSpec.bce())
    assert worst == gradcheck(mlp, (pixels / 255.0, y), LossSpec.bce())
    assert worst < 1e-5, worst


def _doubling_backward(layer, which, index):
    """backward(), but with one analytic entry of one (d_weights, d_bias) pair doubled."""

    def doubled(mlp, activations, output_gradient, out=None):
        grads = backward(mlp, activations, output_gradient, out=out)
        grads[layer][which][index] *= 2.0
        return grads

    return doubled


def test_gradcheck_detects_a_corrupted_gradient(monkeypatch):
    # On a sigmoid and a softmax head, doubling the first weight, the first
    # layer's last weight or the output layer's last bias (the last flat
    # entry) must each lift gradcheck's worst error above 1e-5.
    import rwwce.nn as nn_module

    rng = np.random.default_rng(23)
    x = rng.uniform(-1.0, 1.0, size=(8, 4))
    labels = rng.integers(0, 3, size=8)
    cases = [
        ([(4, 5, "relu"), (5, 1, "sigmoid")], (labels == 0).astype(np.int64), LossSpec.bce()),
        ([(4, 5, "relu"), (5, 3, "softmax")], labels, LossSpec.cce()),
    ]
    for topology, y, spec in cases:
        mlp = init_mlp(topology, seed=4)
        monkeypatch.setattr(nn_module, "backward", backward)
        assert gradcheck(mlp, (x, y), spec) < 1e-5
        for layer, which, index in [(0, 0, (0, 0)), (0, 0, (-1, -1)), (-1, 1, -1)]:
            monkeypatch.setattr(nn_module, "backward", _doubling_backward(layer, which, index))
            assert gradcheck(mlp, (x, y), spec) > 1e-5, (topology, layer, which, index)


def test_gradcheck_does_not_pass_a_model_with_a_nan_weight():
    # Python's max() keeps its first argument when the second is NaN, so
    # folding the errors with it read 0.0 for a NaN-weight model.
    rng = np.random.default_rng(37)
    x = rng.uniform(-1.0, 1.0, size=(8, 3))
    y = rng.integers(0, 2, size=8)
    mlp = init_mlp([(3, 4, "sigmoid"), (4, 1, "sigmoid")], seed=5)
    mlp.layers[0].weights[1, 2] = math.nan
    worst = gradcheck(mlp, (x, y), LossSpec.bce())
    assert not worst < 1e-5
    assert math.isnan(worst)


@pytest.mark.parametrize(
    "topology, spec, message",
    [
        ([(3, 2, "relu"), (2, 1, "relu")], LossSpec.bce(), "a binary loss needs a 1-unit sigmoid"),
        ([(3, 2, "relu"), (2, 3, "sigmoid")], LossSpec.cce(), "a categorical loss needs a softmax output"),
    ],
)
def test_gradcheck_rejects_an_output_layer_the_loss_cannot_read(topology, spec, message):
    rng = np.random.default_rng(29)
    x = rng.uniform(-1.0, 1.0, size=(6, 3))
    y = np.arange(6) % (3 if topology[-1][1] == 3 else 2)
    with pytest.raises(ValueError, match=message):
        gradcheck(init_mlp(topology, seed=1), (x, y), spec)


def test_gradcheck_mirrored_two_class_heads_both_pass():
    # The same problem phrased as 1-unit sigmoid and as 2-way softmax.
    rng = np.random.default_rng(31)
    x = rng.uniform(-1.0, 1.0, size=(8, 4))
    y = rng.integers(0, 2, size=8)
    sigmoid_net = init_mlp([(4, 5, "relu"), (5, 1, "sigmoid")], seed=6)
    assert gradcheck(sigmoid_net, (x, y), LossSpec.bce()) < 1e-5

    softmax_net = init_mlp([(4, 5, "relu"), (5, 2, "softmax")], seed=6)
    assert gradcheck(softmax_net, (x, y), LossSpec.cce()) < 1e-5


def test_gradcheck_matrix_refuses_zero_instances():
    with pytest.raises(ValueError, match="instances_per_variant must be >= 1"):
        gradcheck_matrix(instances_per_variant=0)


def test_gradcheck_matrix_covers_all_variants():
    worst_by_variant = gradcheck_matrix(seed=0, instances_per_variant=1)
    assert set(worst_by_variant) == {
        "bce", "wbce", "cce", "wcce", "rwwce_binary", "rwwce_categorical",
    }
    assert all(worst < 1e-5 for worst in worst_by_variant.values()), worst_by_variant


def test_gradcheck_matrix_keeps_its_draws():
    # VARIANTS' order sets the rng draws; these are the figures of that order.
    assert list(gradcheck_matrix(seed=0, instances_per_variant=2).items()) == [
        ("bce", 4.263150458808822e-09),
        ("wbce", 5.665976649049875e-10),
        ("cce", 2.4167564202206897e-08),
        ("wcce", 2.3980449585242646e-09),
        ("rwwce_binary", 9.798961547681971e-09),
        ("rwwce_categorical", 1.27066320912523e-07),
    ]
