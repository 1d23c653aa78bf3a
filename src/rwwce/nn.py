"""Minimal dense feed-forward networks in numpy.

Enough machinery to train the small classifiers the experiment suites use:
Glorot-uniform init, forward pass with retained activations, backprop that
starts from a fused loss/logit gradient, an in-place Adam optimizer over one
flat parameter vector, a mini-batch training loop, and central-difference
checking of that loop's own gradient step.  Everything is float64 and
deterministic given a seed.  A uint8 input is pixel bytes; network_input()
scales it with / 255.0, the one place the pixels are divided.  forward()
calls it on every batch, in training and in gradcheck() alike, and outputs()
evaluates several models on one split while scaling it in blocks of at most
EVAL_BLOCK_ROWS rows, each block once for all of the models.  In train() the
weights, biases, gradients and Adam moments each live in one contiguous
vector, so an update is a handful of whole-vector operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import check_int, check_real
from .losses import (
    LossSpec,
    checked_targets,
    fused_gradient_from_probs,
    loss_and_gradient,
    loss_value,  # unused here; perfbench wraps nn.loss_value
    sigmoid,
    softmax,
)

ACTIVATIONS = ("relu", "sigmoid", "softmax")

# The most rows outputs() scales at once: 4,096 x 784 float64 pixels is 25.7 MB.
EVAL_BLOCK_ROWS = 4096


@dataclass
class DenseLayer:
    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class Mlp:
    layers: list[DenseLayer]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 100
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-7
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), least))
        for name, bound in (("learning_rate", {"above": 0}), ("adam_beta1", {"least": 0, "below": 1}),
                            ("adam_beta2", {"least": 0, "below": 1}), ("adam_epsilon", {"above": 0})):
            object.__setattr__(self, name, check_real(name, getattr(self, name), **bound))


@dataclass
class AdamState:
    """Step count, first/second moments and two scratch vectors (u, w) for
    one flat parameter vector, so a step allocates nothing."""

    step: int
    m: np.ndarray
    v: np.ndarray
    u: np.ndarray
    w: np.ndarray

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(0, *(np.zeros(size) for _ in range(4)))


def flat_layers(flat: np.ndarray, layers) -> list[DenseLayer]:
    """Layers shaped like layers whose weights and biases are views into flat,
    laid out as each layer's weights (row-major) then its bias, in order."""
    views, offset = [], 0
    for layer in layers:
        w_end = offset + layer.weights.size
        b_end = w_end + layer.bias.size
        weights = flat[offset:w_end].reshape(layer.weights.shape)
        views.append(DenseLayer(weights, flat[w_end:b_end], layer.activation))
        offset = b_end
    return views


def init_mlp(topology, seed: int) -> Mlp:
    """Build a network with Glorot-uniform weights and zero biases.

    topology is a sequence of (in_dim, out_dim, activation) triples whose
    dimensions must chain.  Softmax is only valid on the final layer.
    Weights for layer (n_in, n_out) are drawn uniformly from
    [-sqrt(6/(n_in+n_out)), +sqrt(6/(n_in+n_out))] using a generator seeded
    with seed, so identical (topology, seed) gives bit-identical models.
    """
    topo = list(topology)
    if not topo:
        raise ValueError("topology must name at least one layer")
    for i, entry in enumerate(topo):
        if len(entry) != 3:
            raise ValueError(f"layer spec must be (in_dim, out_dim, activation), got {entry!r}")
        n_in, n_out, act = entry
        topo[i] = (check_int(f"layer {i} in_dim", n_in, 1), check_int(f"layer {i} out_dim", n_out, 1), act)
        if act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {act!r}")
    for (_, out_prev, _), (in_next, _, _) in zip(topo, topo[1:]):
        if out_prev != in_next:
            raise ValueError(f"layer dimensions do not chain: {out_prev} feeds {in_next}")
    for _, _, act in topo[:-1]:
        if act == "softmax":
            raise ValueError("softmax is only supported on the final layer")

    rng = np.random.default_rng(check_int("seed", seed, 0))
    layers = []
    for n_in, n_out, act in topo:
        limit = math.sqrt(6.0 / (n_in + n_out))
        weights = rng.uniform(-limit, limit, size=(n_in, n_out))
        layers.append(DenseLayer(weights, np.zeros(n_out), act))
    return Mlp(layers)


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    """The activation of z; relu overwrites z."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "sigmoid":
        return sigmoid(z)
    if name == "softmax":
        return softmax(z)
    raise ValueError(f"unknown activation {name!r}")


def network_input(x) -> np.ndarray:
    """x as the float64 input activation, the one place the pixels are divided.

    A uint8 array is pixel bytes and becomes a new x / 255.0, the same
    correctly rounded division for every entry, so scaling any block of rows
    gives the same bits as scaling the whole array.  Any other array is cast
    to float64, without a copy when it already is float64.
    """
    x = np.asarray(x)
    return x / 255.0 if x.dtype == np.uint8 else x.astype(np.float64, copy=False)


def _check_input(mlp: Mlp, x: np.ndarray) -> None:
    if x.ndim != 2:
        raise ValueError(f"input must be a 2-D batch, got shape {x.shape}")
    if not mlp.layers:
        raise ValueError("model has no layers")
    if x.shape[1] != mlp.layers[0].in_dim:
        raise ValueError(
            f"input has {x.shape[1]} features, first layer expects {mlp.layers[0].in_dim}"
        )


def _dense(layer: DenseLayer, z: np.ndarray) -> np.ndarray:
    """The layer's output from z = input @ weights; the bias is added into z in place."""
    z += layer.bias
    return _apply_activation(layer.activation, z)


def forward(mlp: Mlp, x) -> list[np.ndarray]:
    """Run the network, returning [input, activation_1, ..., output].

    The input activation is network_input(x): a uint8 batch is scaled by
    / 255.0 there, and a float64 batch is used as it is.  The retained
    per-layer activations are exactly what backward() needs.  To score
    models on a whole split, use outputs(), which never holds the scaled
    split at once.
    """
    x = network_input(x)
    _check_input(mlp, x)
    activations = [x]
    for layer in mlp.layers:
        activations.append(_dense(layer, activations[-1] @ layer.weights))
    return activations


def _row_blocks(m: int) -> list[tuple[int, int]]:
    """ceil(m / EVAL_BLOCK_ROWS) nearly equal, consecutive (lo, hi) row ranges; 0 rows is one empty range."""
    count = max(1, -(-m // EVAL_BLOCK_ROWS))
    bounds = [m * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def outputs(models, x) -> list[np.ndarray]:
    """Each model's output layer on x, forward(model, x)[-1], with bounded memory.

    Only the first layer reads the wide pixels, so only its product runs by
    row block: each block of at most EVAL_BLOCK_ROWS rows is scaled once by
    network_input, multiplied by every model's first-layer weights into that
    model's preallocated (M, out_dim) array, and freed before the next block
    is scaled.  The bias, the activation and every later layer then run over
    all rows at once, as in forward().  The blocks are balanced, so a split
    of EVAL_BLOCK_ROWS rows or fewer is one block.  On a 2-core x86_64 host
    (OpenBLAS, default threads), first-layer blocks of 1,000 rows or more
    gave the same bits as the whole product; some smaller blocks did not,
    and neither did blocked later layers.
    """
    x = np.asarray(x)
    for mlp in models:
        _check_input(mlp, x)
    m = x.shape[0]
    firsts = [np.empty((m, mlp.layers[0].out_dim)) for mlp in models]
    for lo, hi in _row_blocks(m):
        block = network_input(x[lo:hi])
        for mlp, z in zip(models, firsts):
            np.matmul(block, mlp.layers[0].weights, out=z[lo:hi])
        del block  # the next block is scaled only after this one is freed
    results = []
    for mlp, z in zip(models, firsts):
        a = _dense(mlp.layers[0], z)
        for layer in mlp.layers[1:]:
            a = _dense(layer, a @ layer.weights)
        results.append(a)
    return results


def _activation_derivative(name: str, a: np.ndarray) -> np.ndarray:
    """Derivative of a hidden activation, recovered from its stored output."""
    if name == "relu":
        return a > 0.0  # multiplies as 1.0 / 0.0
    if name == "sigmoid":
        return a * (1.0 - a)
    raise ValueError(f"cannot differentiate hidden activation {name!r}")


def backward(mlp: Mlp, activations: list[np.ndarray], output_gradient: np.ndarray, out=None):
    """Backpropagate a final-layer logit gradient to per-layer parameter grads.

    output_gradient is dJ/dz for the final layer, as produced by the fused
    loss gradients (the final activation's Jacobian is already folded in, and
    the 1/M batch factor is already carried).  Returns a list of
    (d_weights, d_bias) pairs, one per layer.  When out is given (such a
    list, as train() builds from views into one flat gradient vector), the
    gradients are written into its arrays and out is returned.
    """
    n = len(mlp.layers)
    if len(activations) != n + 1:
        raise ValueError(f"expected {n + 1} stored activations, got {len(activations)}")
    delta = np.asarray(output_gradient, dtype=np.float64)
    if delta.shape != activations[-1].shape:
        raise ValueError(
            f"output gradient shape {delta.shape} does not match output {activations[-1].shape}"
        )
    if out is None:
        out = [(np.empty(l.weights.shape), np.empty(l.bias.shape)) for l in mlp.layers]
    for i in reversed(range(n)):
        gw, gb = out[i]
        np.matmul(activations[i].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        if i > 0:
            delta = delta @ mlp.layers[i].weights.T
            delta *= _activation_derivative(mlp.layers[i - 1].activation, activations[i])
    return out


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, config: TrainConfig) -> None:
    """One Adam update of the flat parameter vector theta, in place.

    Bias-corrected form (Kingma & Ba): with t = state.step + 1,
      m <- b1 m + (1-b1) g,   v <- b2 v + (1-b2) g^2,
      theta <- theta - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).
    Every entry goes through the same float operations in the same order as
    that formula evaluated left to right, using the state's scratch vectors.
    Once 1-b1^t rounds to 1.0 (step 356 at the default b1), dividing m by
    it returns m exactly, so that division is skipped with the same bits.
    """
    if grad.shape != theta.shape or state.m.shape != theta.shape:
        raise ValueError("gradient and moment shapes must mirror the parameters")
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    corr1 = 1.0 - b1**state.step
    corr2 = 1.0 - b2**state.step
    m, v, u, w = state.m, state.v, state.u, state.w
    m *= b1
    np.multiply(grad, 1.0 - b1, out=w)
    m += w
    np.multiply(grad, grad, out=w)
    w *= 1.0 - b2
    v *= b2
    v += w
    np.divide(v, corr2, out=u)
    np.sqrt(u, out=u)
    u += config.adam_epsilon
    if corr1 == 1.0:
        np.multiply(m, config.learning_rate, out=w)
    else:
        np.divide(m, corr1, out=w)
        w *= config.learning_rate
    w /= u
    theta -= w


def _check_pairing(mlp: Mlp, spec: LossSpec) -> None:
    final = mlp.layers[-1]
    if spec.is_binary:
        if final.activation != "sigmoid" or final.out_dim != 1:
            raise ValueError(
                "a binary loss needs a 1-unit sigmoid output layer, "
                f"model ends in {final.out_dim}-unit {final.activation}"
            )
    else:
        if final.activation != "softmax":
            raise ValueError(
                f"a categorical loss needs a softmax output layer, model ends in {final.activation}"
            )


def _setup(mlp: Mlp, x, y, loss_spec: LossSpec):
    """train() and gradcheck()'s set-up: (pos, neg, theta, model, grad, grads).

    Checks the pairing and weighs the labels with checked_targets; theta is a
    flat float64 copy of mlp's parameters with model's layers as its views,
    grad a zeroed vector of that layout with grads as its views for backward().
    """
    _check_pairing(mlp, loss_spec)
    pos, neg = checked_targets(loss_spec, y, (len(x), mlp.layers[-1].out_dim))
    params = [p.ravel() for l in mlp.layers for p in (l.weights, l.bias)]
    theta = np.concatenate(params, dtype=np.float64)
    grad = np.zeros_like(theta)
    grads = [(l.weights, l.bias) for l in flat_layers(grad, mlp.layers)]
    return pos, neg, theta, Mlp(flat_layers(theta, mlp.layers)), grad, grads


def _gradient(model: Mlp, x, pos: np.ndarray, neg: np.ndarray, grads) -> float:
    """forward (which scales a uint8 x), the fused loss kernel on x's rows of
    _setup's weights, then backward into grads; returns the batch loss."""
    acts = forward(model, x)
    loss, dz = loss_and_gradient(acts[-1], pos, neg)
    backward(model, acts, dz, out=grads)
    return loss


def train(mlp: Mlp, train_set, loss_spec: LossSpec, config: TrainConfig) -> tuple[Mlp, list[float]]:
    """Mini-batch gradient descent with Adam.

    train_set is any object with arrays X (M, d) and Y, M integer class
    indices (0 or 1 for a binary loss), as a data.Dataset holds them; a
    uint8 X stays uint8 and each gathered batch is scaled by forward().  The
    labels are used as given: checked and weighed once, by checked_targets,
    before the first step, and each batch gathers its rows of those weights.
    Each epoch reshuffles with a generator seeded once from config.seed,
    walks the permutation in batch_size slices (final short batch included),
    and takes one _gradient step and one in-place Adam update per batch on a
    flat copy of mlp's parameters; mlp itself is left untouched.  numpy's
    float warnings are off in the loop, so a non-finite epoch loss raising
    FloatingPointError is a diverged run's one report.  Returns the trained
    model and the per-epoch mean training loss (example-weighted, as
    observed during the epoch).  Bit-deterministic for fixed inputs.
    """
    x = np.asarray(train_set.X)
    m = x.shape[0]
    pos, neg, theta, model, grad, grads = _setup(mlp, x, train_set.Y, loss_spec)
    state = AdamState.zeros(theta.size)
    rng = np.random.default_rng(config.seed)
    history: list[float] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(m)
            weighted_total = 0.0
            for start in range(0, m, config.batch_size):
                idx = order[start : start + config.batch_size]
                batch_loss = _gradient(model, x[idx], pos[idx], neg[idx], grads)
                adam_step(theta, grad, state, config)
                weighted_total += batch_loss * idx.shape[0]
            epoch_loss = weighted_total / m
            if not math.isfinite(epoch_loss):
                raise FloatingPointError(f"training loss became non-finite: {epoch_loss!r}")
            history.append(epoch_loss)
    return model, history


def gradcheck(mlp: Mlp, batch, loss_spec: LossSpec, step: float = 1e-5) -> float:
    """The worst relative error of train()'s gradient against central finite differences.

    batch is (x, labels), as train() reads X and Y.  The analytic gradient is train()'s own _setup and _gradient step, so a
    uint8 batch is scaled as training scales it.  Each entry of the flat
    parameter copy is perturbed by +-step, the loss differenced, and the
    largest |analytic - numeric| / max(|analytic|, |numeric|, 1e-12)
    returned, or NaN if any error is NaN (from a NaN weight, say).  Entries
    whose true magnitude sits near that floor are dominated by cancellation
    noise, so keep the probe networks small and the batches moderate.
    """
    step = check_real("step", step, above=0)
    x, y = batch
    pos, neg, theta, work, analytic, grads = _setup(mlp, x, y, loss_spec)
    _gradient(work, x, pos, neg, grads)

    def probe_loss() -> float:
        return loss_and_gradient(forward(work, x)[-1], pos, neg)[0]

    errors = np.empty(theta.size)
    for j, a in enumerate(analytic):
        original = theta[j]
        theta[j] = original + step
        plus = probe_loss()
        theta[j] = original - step
        minus = probe_loss()
        theta[j] = original
        numeric = (plus - minus) / (2.0 * step)
        errors[j] = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
    return float(errors.max())  # NaN propagates, where max() would pass over it


# gradcheck_matrix's loss names, one per LossSpec classmethod.  The order sets
# its rng draws, and so every figure the gradcheck command prints.
VARIANTS = ("bce", "wbce", "cce", "wcce", "rwwce_binary", "rwwce_categorical")
BINARY_VARIANTS = ("bce", "wbce", "rwwce_binary")

# Each variant's gradcheck spec, drawn after the labels for k classes (1 if binary).
_GRADCHECK_SPECS = {
    "bce": lambda rng, k: LossSpec.bce(),
    "wbce": lambda rng, k: LossSpec.wbce(float(rng.uniform(0.5, 5.0))),
    "rwwce_binary": lambda rng, k: LossSpec.rwwce_binary(
        float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.5, 5.0))
    ),
    "cce": lambda rng, k: LossSpec.cce(),
    "wcce": lambda rng, k: LossSpec.wcce(rng.uniform(0.5, 3.0, size=k)),
    "rwwce_categorical": lambda rng, k: LossSpec.rwwce_categorical(
        rng.uniform(0.5, 3.0, size=k), rng.uniform(0.5, 3.0, size=(k, k))
    ),
}


def _sample_gradcheck_instance(variant: str, rng: np.random.Generator):
    """A small random (model, batch, loss spec) triple suitable for gradcheck.

    Batches are resampled while any relu pre-activation sits within 1e-3 of
    its kink (central differences straddle the kink there), any logit exceeds
    12 in magnitude (the loss clips saturated probabilities, so the analytic
    and numeric gradients legitimately diverge), or any analytic gradient
    entry is smaller than 1e-5 in magnitude (central differences carry around
    1e-11 of cancellation noise at the default step, so the relative-error
    metric cannot resolve such entries no matter how correct the gradient is).
    """
    binary = variant in BINARY_VARIANTS
    for _ in range(100):
        d0 = int(rng.integers(3, 7))
        hidden = int(rng.integers(4, 8))
        hidden_act = "relu" if rng.random() < 0.7 else "sigmoid"
        k = 1 if binary else int(rng.integers(3, 6))
        topology = [(d0, hidden, hidden_act), (hidden, k, "sigmoid" if binary else "softmax")]
        mlp = init_mlp(topology, seed=int(rng.integers(0, 2**31)))
        x = rng.normal(0.0, 1.0, size=(8, d0))
        y = rng.integers(0, 2 if binary else k, size=8)
        spec = _GRADCHECK_SPECS[variant](rng, k)

        acts = forward(mlp, x)
        pre_activations = [a @ l.weights + l.bias for a, l in zip(acts, mlp.layers)]
        if any(
            (l.activation == "relu" and np.abs(z).min() < 1e-3) or np.abs(z).max() > 12.0
            for l, z in zip(mlp.layers, pre_activations)
        ):
            continue
        grads = backward(mlp, acts, fused_gradient_from_probs(spec, acts[-1], y))
        smallest = min(float(np.abs(g).min()) for pair in grads for g in pair)
        if smallest < 1e-5:
            continue
        return mlp, (x, y), spec
    raise RuntimeError(f"could not sample a well-conditioned gradcheck instance for {variant}")


def gradcheck_matrix(
    seed: int = 0, instances_per_variant: int = 4, step: float = 1e-5
) -> dict[str, float]:
    """Gradient-check each LossSpec classmethod's loss on fresh random instances.

    Returns {name: worst relative error over its instances}, keyed by the
    classmethod names in VARIANTS order, the order of the rng draws, a NaN
    kept as gradcheck keeps it; the caller decides what passes.
    """
    instances_per_variant = check_int("instances_per_variant", instances_per_variant, 1)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    return {
        variant: float(np.max([
            gradcheck(*_sample_gradcheck_instance(variant, rng), step=step)
            for _ in range(instances_per_variant)
        ]))
        for variant in VARIANTS
    }
