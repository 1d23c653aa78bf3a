"""The one rule for real numbers: every scalar cost, weight, rate and step passes data.check_real.

The table has one row per real parameter the library takes.  The rows of the
config and record dataclasses are generated from their fields annotated float, so a new
real field cannot skip the rule unnoticed: it needs an entry in BOUNDS.  The
other rows are the scalar arguments of functions and classmethods, the metric
scalars among them.  Each row refuses a NaN, an infinity, a bool, a string and each value outside its
bounds with a ValueError naming the parameter, and stores (or uses) a numpy
float as a plain float.
"""

import dataclasses
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from rwwce import (
    BernoulliScenario,
    BinaryCostModel,
    CategoricalTrialConfig,
    LossSpec,
    RunRecord,
    TrainConfig,
    confusion_binary,
    descend,
    f1_score,
    gradcheck,
    gradcheck_matrix,
    init_mlp,
    load_records,
    records_match,
    run_binary_suite,
    save_records,
)
from rwwce.data import check_real

# Each real parameter's bounds, as check_real takes them.
BOUNDS = {
    "TrainConfig.learning_rate": {"above": 0},
    "TrainConfig.adam_beta1": {"least": 0, "below": 1},
    "TrainConfig.adam_beta2": {"least": 0, "below": 1},
    "TrainConfig.adam_epsilon": {"above": 0},
    "BinaryCostModel.fn_cost": {"least": 0},
    "BinaryCostModel.fp_cost": {"least": 0},
    "CategoricalTrialConfig.pair_weight": {"least": 0},
    "CategoricalTrialConfig.off_pair_cost": {"least": 0},
    "BernoulliScenario.w_pos": {"above": 0},
    "BernoulliScenario.w_neg": {"above": 0},
    "descend.p0": {"above": 0, "below": 1},
    "descend.step": {"above": 0, "most": 1},
    "gradcheck.step": {"above": 0},
    "gradcheck_matrix.step": {"above": 0},
    "LossSpec.wbce.positive_weight": {"above": 0},
    "LossSpec.rwwce_binary.fn_cost": {"least": 0},
    "LossSpec.rwwce_binary.fp_cost": {"least": 0},
    # Any finite threshold: best_f1_threshold's sentinels lie outside [0, 1].
    "confusion_binary.threshold": {},
    "RunRecord.fn": {"least": 0},
    "RunRecord.fp": {"least": 0},
    "RunRecord.top1_error": {"least": 0},
    "RunRecord.real_world_cost": {"least": 0},
    "RunRecord.wall_time": {"least": 0},
}

# The arguments each config needs besides the field under test.
REQUIRED = {
    TrainConfig: {},
    BinaryCostModel: {"fn_cost": 2000.0, "fp_cost": 100.0},
    CategoricalTrialConfig: {"fn_class": 4, "fp_class": 9, "seed": 0},
    BernoulliScenario: {"n_pos": 3, "n_neg": 4},
    RunRecord: dict(model="control", seed=0, threshold=None, fn=0.0, fp=0.0, top1_error=0.0,
                    real_world_cost=0.0, f1=None, validation_f1=None, high_cost_count=0.0,
                    wall_time=0.0, config={}),
}

# A value inside every row's bounds, exact in float32.
INSIDE = 0.5

# One value outside each kind of bound, and the rule it breaks.
OUTSIDE = {
    "least": (lambda b: b - 1.0, ">="),
    "above": (lambda b: float(b), ">"),
    "below": (lambda b: float(b), "<"),
    "most": (lambda b: b + 0.5, "<="),
}


class Real(NamedTuple):
    """A real parameter: where it is taken, its name in messages, and a call that
    passes it value and returns the stored value (or the call's result)."""

    where: str
    name: str
    call: Callable


def _field_row(cls, name: str) -> Real:
    return Real(f"{cls.__name__}.{name}", name,
                lambda v: getattr(cls(**{**REQUIRED[cls], name: v}), name))


def _gradcheck(step):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, size=(6, 3))
    y = np.arange(6) % 2
    return gradcheck(init_mlp([(3, 4, "relu"), (4, 1, "sigmoid")], seed=1), (x, y), LossSpec.bce(), step)


FIELDS = [(cls, f.name) for cls in REQUIRED for f in dataclasses.fields(cls) if f.type in ("float", float)]
REALS = [_field_row(cls, name) for cls, name in FIELDS] + [
    Real("descend.p0", "p0", lambda v: descend(BernoulliScenario(1, 1), p0=v, iterations=1)),
    Real("descend.step", "step", lambda v: descend(BernoulliScenario(1, 1), step=v, iterations=1)),
    Real("gradcheck.step", "step", _gradcheck),
    Real("gradcheck_matrix.step", "step", lambda v: gradcheck_matrix(0, 1, v)["bce"]),
    Real("LossSpec.wbce.positive_weight", "positive weight", lambda v: LossSpec.wbce(v).terms[0]),
    Real("LossSpec.rwwce_binary.fn_cost", "fn_cost", lambda v: LossSpec.rwwce_binary(v, 1.0).terms[0]),
    Real("LossSpec.rwwce_binary.fp_cost", "fp_cost", lambda v: LossSpec.rwwce_binary(1.0, v).terms[1]),
    Real("confusion_binary.threshold", "threshold",
         lambda v: f1_score(confusion_binary([0.2, 0.7, 0.9], [0, 1, 1], v))),
]
IDS = [real.where for real in REALS]


def test_every_real_parameter_has_its_bounds():
    assert sorted(BOUNDS) == sorted(IDS)


@pytest.mark.parametrize("real", REALS, ids=IDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=repr)
def test_a_real_parameter_refuses_what_is_not_finite(real, value):
    message = f"{real.name} must be finite, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        real.call(value)


@pytest.mark.parametrize("real", REALS, ids=IDS)
@pytest.mark.parametrize("value", [True, "1.0", None], ids=repr)
def test_a_real_parameter_refuses_what_is_not_a_number(real, value):
    message = f"{real.name} must be a number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        real.call(value)


@pytest.mark.parametrize("real", REALS, ids=IDS)
def test_a_real_parameter_refuses_what_is_out_of_its_bounds(real):
    for keyword, bound in BOUNDS[real.where].items():
        outside, relation = OUTSIDE[keyword]
        value = outside(bound)
        message = f"{real.name} must be {relation} {bound}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            real.call(value)


@pytest.mark.parametrize("real", REALS, ids=IDS)
def test_a_numpy_float_is_taken_as_a_plain_float(real):
    taken = real.call(np.float32(INSIDE))
    assert type(taken) is float and taken == real.call(INSIDE)


def test_check_real_returns_a_plain_float_and_names_each_bound():
    for value in (np.float32(2.5), np.float64(2.5), np.int64(2), 2, 2.5):
        assert type(check_real("x", value)) is float
    assert check_real("x", 0.0, least=0) == 0.0
    assert check_real("x", 1.0, most=1) == 1.0
    with pytest.raises(ValueError, match=r"^x must be finite, got 10{400}$"):
        check_real("x", 10**400)
    with pytest.raises(ValueError, match=r"^x must be < 1, got np\.float32\(1\.0\)$"):
        check_real("x", np.float32(1.0), above=0, below=1)
    with pytest.raises(ValueError, match=r"^x must be a number, got np\.True_$"):
        check_real("x", np.bool_(True))


def test_a_suite_of_numpy_floats_saves_its_records(small_pool, tmp_path):
    # Before the rule, this trained and then failed to save: float32 is not JSON serializable.
    cost = BinaryCostModel(np.float32(2000.0), np.float64(100.0))
    recipe = TrainConfig(epochs=1, learning_rate=np.float32(0.001))
    _, records = run_binary_suite(small_pool, [3], [0], 0, cost=cost, train_template=recipe)
    path = tmp_path / "records.jsonl"
    save_records(records, path)
    loaded = load_records(path)
    assert records_match(loaded, records)
    for record in loaded:
        assert type(record.config["cost"]["fn_cost"]) is float
        assert record.config["train"]["learning_rate"] == float(np.float32(0.001))
