"""The one rule for labels: every label is an integer class index, checked by data.check_labels.

The table has one row per caller of the rule, with the class count it passes.
Each row refuses float labels (even whole ones), bools, one-hot or other
2-D rows, -1, the class count itself and an empty vector, each with the one
message check_labels gives, and accepts integer class indices of any integer
dtype.
"""

import re
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from rwwce import (
    Dataset,
    LossSpec,
    RawMnist,
    TrainConfig,
    best_f1_threshold,
    confusion_binary,
    confusion_categorical,
    init_mlp,
    train,
)
from rwwce.data import FEATURES, check_labels
from rwwce.losses import checked_targets


class Caller(NamedTuple):
    """A caller of check_labels: k classes, and call(labels), which builds the
    caller's other inputs to fit len(labels) rows."""

    where: str
    k: int
    call: Callable


CALLERS = [
    Caller("RawMnist", 10, lambda y: RawMnist(np.zeros((len(y), FEATURES), np.uint8), y)),
    Caller("Dataset", 10, lambda y: Dataset(np.zeros((len(y), 3), np.uint8), y)),
    Caller("checked_targets.binary", 2, lambda y: checked_targets(LossSpec.bce(), y, (len(y), 1))),
    Caller("checked_targets.categorical", 4, lambda y: checked_targets(
        LossSpec.rwwce_categorical(np.ones(4), np.ones((4, 4))), y, (len(y), 4))),
    Caller("confusion_binary", 2, lambda y: confusion_binary(np.full(len(y), 0.5), y, 0.5)),
    Caller("best_f1_threshold", 2, lambda y: best_f1_threshold(np.full(len(y), 0.5), y)),
    Caller("confusion_categorical", 3, lambda y: confusion_categorical(np.full((len(y), 3), 1 / 3), y)),
    # train() reads any set with X and Y, so these labels reach it past Dataset's check.
    Caller("train", 3, lambda y: train(
        init_mlp([(2, 3, "softmax")], seed=0), SimpleNamespace(X=np.zeros((len(y), 2)), Y=y),
        LossSpec.cce(), TrainConfig(epochs=1),
    )),
]
IDS = [caller.where for caller in CALLERS]

# Each malformed label vector, built for k classes, and the message it draws.
BAD = {
    "float": (lambda k: np.array([0.0, 1.0]), "labels must be integers, got float64"),
    "bool": (lambda k: np.array([True, False]), "labels must be integers, got bool"),
    "one-hot": (lambda k: np.eye(k, dtype=np.int64)[[0, 1]],
                "labels must be a vector of class indices, got shape (2, {k})"),
    "minus-one": (lambda k: np.array([0, -1]), "labels must be classes 0..{top}"),
    "k": (lambda k: np.array([0, k]), "labels must be classes 0..{top}"),
    "empty": (lambda k: np.empty(0, np.int64), "labels are empty"),
}


@pytest.mark.parametrize("caller", CALLERS, ids=IDS)
@pytest.mark.parametrize("case", BAD)
def test_every_caller_refuses_labels_that_are_not_class_indices(caller, case):
    build, message = BAD[case]
    message = message.format(k=caller.k, top=caller.k - 1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        caller.call(build(caller.k))


@pytest.mark.parametrize("caller", CALLERS, ids=IDS)
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_every_caller_takes_class_indices_of_any_integer_dtype(caller, dtype):
    caller.call(np.array([0, caller.k - 1, 1], dtype=dtype))


def test_check_labels_returns_the_labels_without_a_copy():
    labels = np.array([3, 1, 4], np.int64)
    assert check_labels(labels, 5) is labels
    assert check_labels([3, 1, 4], 5).tolist() == [3, 1, 4]
