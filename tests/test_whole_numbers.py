"""The one rule for whole numbers: every count, index and seed passes data.check_int.

One table row per parameter the library takes as a whole number.  Each row
refuses a float, a bool, a string and a value out of its range with a
ValueError naming the parameter, and stores (or uses) a numpy integer as a
plain int.
"""

import re
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest

from rwwce import (
    BernoulliScenario,
    BinaryTrialConfig,
    CategoricalTrialConfig,
    Dataset,
    RawMnist,
    RunRecord,
    TrainConfig,
    descend,
    gradcheck_matrix,
    init_mlp,
    load_records,
    records_match,
    run_binary_suite,
    sample_pairs,
    save_records,
    split,
)
from rwwce import experiments
from rwwce.data import POSITIVE_SLICE_SIZE, check_int, positive_rows
from rwwce.experiments import CATEGORICAL_MODELS, run_trials

# POSITIVE_SLICE_SIZE examples of digit 0: exactly slice 0 of digit 0.
ZEROS = RawMnist(
    np.zeros((POSITIVE_SLICE_SIZE, 784), np.uint8), np.zeros(POSITIVE_SLICE_SIZE, np.uint8)
)


def _record(model, seed=0):
    return RunRecord(model, seed, None, 0.0, 0.0, 0.0, 0.0, None, None, 0.0, 0.0, {})


def _one_categorical_trial(cfg, raw):
    return [_record(model) for model in CATEGORICAL_MODELS]


def _run_one_categorical_trial(jobs):
    """run_trials on one categorical config, its trial stubbed by _one_categorical_trial."""
    with mock.patch.object(experiments, "run_categorical_trial", _one_categorical_trial):
        return run_trials([CategoricalTrialConfig(4, 9, 0)], None, jobs)[1]


def _split_test_rows(seed):
    return split(Dataset(np.arange(40, dtype=np.uint8)[:, None], np.zeros(40, np.int64)), seed).test.X.tolist()


def _weights(topology, seed=0):
    return [layer.weights.tolist() for layer in init_mlp(topology, seed).layers]


class Whole(NamedTuple):
    """A whole-number parameter: where it is taken, its name in messages, its
    range, a call that passes it value, and whether that call returns the
    stored value (else the call's result, which a numpy integer must leave
    unchanged)."""

    where: str
    name: str
    least: int
    most: int | None
    call: Callable
    stored: bool = True


WHOLES = [
    Whole("TrainConfig.epochs", "epochs", 1, None, lambda v: TrainConfig(epochs=v).epochs),
    Whole("TrainConfig.batch_size", "batch_size", 1, None, lambda v: TrainConfig(batch_size=v).batch_size),
    Whole("TrainConfig.seed", "seed", 0, None, lambda v: TrainConfig(seed=v).seed),
    Whole("BinaryTrialConfig.digit", "digit", 0, 9, lambda v: BinaryTrialConfig(v, 0, 0).digit),
    Whole("BinaryTrialConfig.slice_index", "slice_index", 0, None,
          lambda v: BinaryTrialConfig(3, v, 0).slice_index),
    Whole("BinaryTrialConfig.seed", "seed", 0, None, lambda v: BinaryTrialConfig(3, 0, v).train.seed),
    Whole("CategoricalTrialConfig.fn_class", "fn_class", 0, 9,
          lambda v: CategoricalTrialConfig(v, 9, 0).fn_class),
    Whole("CategoricalTrialConfig.fp_class", "fp_class", 0, 9,
          lambda v: CategoricalTrialConfig(9, v, 0).fp_class),
    Whole("CategoricalTrialConfig.seed", "seed", 0, None,
          lambda v: CategoricalTrialConfig(4, 9, v).train.seed),
    Whole("positive_rows.digit", "digit", 0, 9, lambda v: positive_rows(ZEROS, v, 0).tolist(), False),
    Whole("positive_rows.slice_index", "slice_index", 0, None,
          lambda v: positive_rows(ZEROS, 0, v).tolist(), False),
    Whole("split.seed", "seed", 0, None, _split_test_rows, False),
    Whole("init_mlp.in_dim", "layer 0 in_dim", 1, None, lambda v: _weights([(v, 2, "relu")]), False),
    Whole("init_mlp.out_dim", "layer 1 out_dim", 1, None,
          lambda v: _weights([(3, 2, "relu"), (2, v, "softmax")]), False),
    Whole("init_mlp.seed", "seed", 0, None, lambda v: _weights([(3, 2, "relu")], v), False),
    Whole("gradcheck_matrix.instances_per_variant", "instances_per_variant", 1, None,
          lambda v: gradcheck_matrix(instances_per_variant=v), False),
    Whole("gradcheck_matrix.seed", "seed", 0, None, lambda v: gradcheck_matrix(v, 1), False),
    Whole("sample_pairs.count", "count", 1, 90, lambda v: sample_pairs(v, 0), False),
    Whole("sample_pairs.seed", "seed", 0, None, lambda v: sample_pairs(10, v), False),
    Whole("run_trials.jobs", "jobs", 1, None, _run_one_categorical_trial, False),
    Whole("RunRecord.seed", "seed", 0, None, lambda v: _record("control", v).seed),
    Whole("BernoulliScenario.n_pos", "n_pos", 0, None, lambda v: BernoulliScenario(v, 1).n_pos),
    Whole("BernoulliScenario.n_neg", "n_neg", 0, None, lambda v: BernoulliScenario(1, v).n_neg),
    Whole("descend.iterations", "iterations", 1, None,
          lambda v: descend(BernoulliScenario(1, 1), iterations=v), False),
]
IDS = [whole.where for whole in WHOLES]


@pytest.mark.parametrize("whole", WHOLES, ids=IDS)
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"], ids=repr)
def test_a_whole_number_parameter_refuses_what_is_not_an_integer(whole, value):
    message = f"{whole.name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        whole.call(value)


@pytest.mark.parametrize("whole", WHOLES, ids=IDS)
def test_a_whole_number_parameter_refuses_what_is_out_of_its_range(whole):
    bound = f">= {whole.least}" if whole.most is None else f"{whole.least}..{whole.most}"
    outside = [whole.least - 1] + ([] if whole.most is None else [whole.most + 1])
    for value in outside:
        message = f"{whole.name} must be {bound}, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            whole.call(value)


@pytest.mark.parametrize("whole", WHOLES, ids=IDS)
def test_a_numpy_integer_is_taken_as_a_plain_int(whole):
    taken = whole.call(np.int64(whole.least))
    if whole.stored:
        assert type(taken) is int and taken == whole.least
    else:
        assert taken == whole.call(whole.least)


def test_check_int_returns_a_plain_int():
    for value in (np.int64(3), np.uint8(3), np.int32(3), 3):
        assert type(check_int("n", value, 0, 9)) is int
    with pytest.raises(ValueError, match=r"^n must be 0\.\.9, got np\.int64\(10\)$"):
        check_int("n", np.int64(10), 0, 9)
    # Either bound may be left open; with none, only the type is checked.
    assert check_int("n", -(10**30)) == -(10**30)
    with pytest.raises(ValueError, match=r"^n must be <= 9, got 10$"):
        check_int("n", 10, most=9)
    with pytest.raises(ValueError, match=r"^n must be an integer, got 10\.0$"):
        check_int("n", 10.0)


def test_a_suite_of_numpy_integers_saves_its_records(small_pool, tmp_path):
    # Before the rule, these trained and then failed to save: int64 is not JSON serializable.
    recipe = TrainConfig(epochs=np.int64(1))
    _, records = run_binary_suite(small_pool, np.arange(3, 4), [0], np.int64(0), train_template=recipe)
    path = tmp_path / "records.jsonl"
    save_records(records, path)
    loaded = load_records(path)
    assert records_match(loaded, records)
    assert all(type(r.seed) is int and type(r.config["digit"]) is int for r in loaded)
