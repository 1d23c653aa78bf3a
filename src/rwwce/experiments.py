"""Experiment suites comparing cost-blind and cost-weighted training.

Two suite shapes, each pitting a conventionally trained network against one
trained with real-world cost weights on identically initialized models and
identical data:

Binary (imbalanced digit detection, tiny positive class):
  control1: binary cross-entropy, scored at threshold 0.5;
  control2: the same trained model, rescored at the threshold that maximizes
            F1 on the validation split;
  test:     real-world-weight training (default costs 2000 per false
            negative, 100 per false positive), scored at 0.5.

Categorical (10 classes, one expensive confusion):
  control:      categorical cross-entropy;
  experimental: real-world-weight training with an extra false-positive
                penalty on the single expensive (true k, predicted k') cell.

Each trial config holds one seed, set into its training recipe as it is
built, that drives the dataset split, the weight init, and the shuffle order,
so paired models differ only in their loss.  Suites aggregate per-model means
and paired t-tests, as the SUITES table lists them for each suite, serialize
per-run records as JSON lines (full float precision, so reruns can be
compared byte for byte), and export summary CSVs.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import (
    FEATURES, NUM_CLASSES, RawMnist, check_int, check_real, make_binary_dataset,
    make_categorical_dataset, positive_rows, split, split_sizes,
)
from .losses import BinaryCostModel, LossSpec
from .metrics import (
    ConfusionMatrix,
    best_f1_threshold,
    confusion_binary,
    confusion_categorical,
    f1_score,
    paired_t_test,
    real_world_cost,
    top1_error,
)
from .nn import (
    TrainConfig,
    forward,  # unused here; perfbench wraps experiments.forward
    init_mlp,
    outputs,
    train,
)

DEFAULT_BINARY_COST = BinaryCostModel(fn_cost=2000.0, fp_cost=100.0)
DEFAULT_PAIR_WEIGHT = 19.0
DEFAULT_OFF_PAIR_COST = 1.0

BINARY_TOPOLOGY = ((FEATURES, 10, "relu"), (10, 1, "sigmoid"))
CATEGORICAL_TOPOLOGY = ((FEATURES, 50, "relu"), (50, 20, "relu"), (20, NUM_CLASSES, "softmax"))


class SuiteReport(NamedTuple):
    """What a suite reports: its models, in the order a trial returns them; each
    metric averaged per model, with its summary_table column; each metric
    t-tested, with its summary.csv column (every one is also averaged); and the
    model pairs t-tested, in report order."""

    models: tuple[str, ...]
    mean_columns: dict[str, str]
    test_columns: dict[str, str]
    pairs: tuple[tuple[str, str], ...]


# Keyed by SuiteSummary.kind.
SUITES = {
    "binary": SuiteReport(
        models=("control1", "control2", "test"),
        mean_columns={"fn": "mean_fn", "fp": "mean_fp", "top1_error": "mean_top1",
                      "real_world_cost": "mean_rwc", "f1": "mean_f1"},
        test_columns={"fn": "MeanFN", "fp": "MeanFP", "top1_error": "MeanTop1Error",
                      "real_world_cost": "MeanRealWorldCost"},
        pairs=(("control1", "test"), ("control2", "test"), ("control1", "control2")),
    ),
    "categorical": SuiteReport(
        models=("control", "experimental"),
        mean_columns={"high_cost_count": "mean_high_cost", "top1_error": "mean_top1",
                      "real_world_cost": "mean_rwc"},
        test_columns={"high_cost_count": "MeanHighCostCount", "top1_error": "MeanTop1Error",
                      "real_world_cost": "MeanRealWorldCost"},
        pairs=(("control", "experimental"),),
    ),
}
BINARY_MODELS = SUITES["binary"].models
CATEGORICAL_MODELS = SUITES["categorical"].models


@dataclass(frozen=True)
class BinaryTrialConfig:
    """One binary trial, built in one call; it stores train with train.seed set to seed."""

    digit: int
    slice_index: int
    seed: int
    cost: BinaryCostModel = DEFAULT_BINARY_COST
    train: TrainConfig = TrainConfig()

    def __post_init__(self) -> None:
        bounds = (("digit", 0, NUM_CLASSES - 1), ("slice_index", 0, None), ("seed", 0, None))
        for name, least, most in bounds:
            object.__setattr__(self, name, check_int(name, getattr(self, name), least, most))
        object.__setattr__(self, "train", replace(self.train, seed=self.seed))

    def check_pool(self, raw: RawMnist) -> None:
        """Raise ValueError when raw has too few of the digit for this trial's positive slice."""
        positive_rows(raw, self.digit, self.slice_index)


@dataclass(frozen=True)
class CategoricalTrialConfig:
    """One categorical trial, built in one call; it stores train with train.seed set to seed."""

    fn_class: int
    fp_class: int
    seed: int
    pair_weight: float = DEFAULT_PAIR_WEIGHT
    off_pair_cost: float = DEFAULT_OFF_PAIR_COST
    train: TrainConfig = TrainConfig()

    def __post_init__(self) -> None:
        bounds = (("fn_class", 0, NUM_CLASSES - 1), ("fp_class", 0, NUM_CLASSES - 1), ("seed", 0, None))
        for name, least, most in bounds:
            object.__setattr__(self, name, check_int(name, getattr(self, name), least, most))
        if self.fn_class == self.fp_class:
            raise ValueError("the expensive confusion must involve two distinct classes")
        for name in ("pair_weight", "off_pair_cost"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), least=0))
        object.__setattr__(self, "train", replace(self.train, seed=self.seed))

    def check_pool(self, raw: RawMnist) -> None:
        """Raise ValueError when raw is too small to split into this trial's three parts."""
        split_sizes(raw.size)


@dataclass(frozen=True)
class RunRecord:
    """One evaluated model on one trial's test split.

    For categorical runs fn and fp both hold the total misclassification
    count (every multiclass error is a false negative of its true class and
    a false positive of its predicted class) and high_cost_count holds the
    tally of the single expensive cell.  wall_time is the seconds of the
    model's own train() call in the trial's training phase (_train_models);
    control2, which does not train, gets the seconds of its threshold
    search and rescoring.  The trial's evaluation phase, shared by its
    models, is timed in no record.  wall_time is informational only and is
    excluded from determinism comparisons (records_match).

    A record holds its fields to the library's rules when it is built: model
    is a name from SUITES, seed passes check_int (>= 0), the counts, errors,
    costs and wall_time pass check_real (>= 0), the optional metrics are
    None or pass check_real, and config is a dict save_records can write as
    JSON.  The record is frozen, so it keeps them: a record that can be
    summarized can also be saved.
    """

    model: str
    seed: int
    threshold: float | None
    fn: float
    fp: float
    top1_error: float
    real_world_cost: float
    f1: float | None
    validation_f1: float | None
    high_cost_count: float | None
    wall_time: float
    config: dict

    def __post_init__(self) -> None:
        if not any(self.model in suite.models for suite in SUITES.values()):
            raise ValueError(f"model must be a name from SUITES, got {self.model!r}")
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))
        for name in ("fn", "fp", "top1_error", "real_world_cost", "wall_time"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), least=0))
        for name in ("threshold", "f1", "validation_f1", "high_cost_count"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if not isinstance(self.config, dict):
            raise ValueError(f"config must be a dict, got {self.config!r}")
        try:
            json.dumps(self.config, allow_nan=False)
        except (TypeError, ValueError) as e:
            raise ValueError(f"config must be JSON that save_records can write: {e}") from e


def _without_wall_time(record: RunRecord) -> dict:
    d = asdict(record)
    d["wall_time"] = 0.0
    return d


def records_match(a: list[RunRecord], b: list[RunRecord]) -> bool:
    """True when two record lists agree exactly everywhere except wall_time."""
    if len(a) != len(b):
        return False
    return all(_without_wall_time(x) == _without_wall_time(y) for x, y in zip(a, b))


def _binary_record(
    model: str,
    cfg: BinaryTrialConfig,
    matrix: ConfusionMatrix,
    threshold: float,
    validation_f1: float | None,
    wall_time: float,
) -> RunRecord:
    fn, fp = float(matrix.counts[1, 0]), float(matrix.counts[0, 1])
    return RunRecord(
        model=model,
        seed=cfg.seed,
        threshold=float(threshold),
        fn=fn,
        fp=fp,
        # (fn + fp) / n, not top1_error(matrix): 1 - trace/total can differ in the last bit.
        top1_error=(fn + fp) / matrix.total,
        real_world_cost=real_world_cost(matrix, cfg.cost.cost_per_error),
        f1=f1_score(matrix),
        validation_f1=validation_f1,
        high_cost_count=None,
        wall_time=wall_time,
        config=asdict(cfg),
    )


def _train_models(topology, cfg, dataset, loss_specs):
    """A trial's training phase: split, train one model per loss spec, drop the training split.

    Splits dataset with cfg.seed, builds init_mlp(topology, cfg.seed) once
    and trains a model from it with each spec in order (the cost-blind
    control first), under cfg.train.  Returns (models, seconds, test,
    validation): the trained models, the seconds of each train() call, and
    the two evaluation splits.

    This is the first of a trial's two phases.  Pass dataset inline: its
    last reference goes right after the split, so the un-split dataset is
    dead at every train() call, and the training split dies when this
    returns, so no pixels of an evaluation split are scaled while training
    data is alive.  A trial that scores only the test split takes [:3] of
    the result, so its validation split dies as well.
    """
    parts = split(dataset, cfg.seed)
    del dataset
    initial = init_mlp(topology, cfg.seed)
    models, seconds = [], []
    for loss_spec in loss_specs:
        started = time.perf_counter()
        model, _ = train(initial, parts.train, loss_spec, cfg.train)
        seconds.append(time.perf_counter() - started)
        models.append(model)
    return models, seconds, parts.test, parts.validation


def run_binary_trial(cfg: BinaryTrialConfig, raw: RawMnist) -> list[RunRecord]:
    """Train and evaluate the three binary models on one dataset slice.

    Returns one record per BINARY_MODELS name, in order.  control2 never
    retrains: it reuses control1's parameters and only moves the decision
    threshold.  After the training phase (_train_models), nn.outputs scores
    both trained models on each evaluation split.
    """
    models, seconds, test, validation = _train_models(
        BINARY_TOPOLOGY,
        cfg,
        make_binary_dataset(raw, cfg.digit, cfg.slice_index),
        (LossSpec.bce(), LossSpec.rwwce_binary(cfg.cost.fn_cost, cfg.cost.fp_cost)),
    )
    validation_scores = [o[:, 0] for o in outputs(models, validation.X)]
    test_scores = [o[:, 0] for o in outputs(models, test.X)]

    def at_half(model: str, index: int) -> RunRecord:
        """The record of trained model index, scored at threshold 0.5."""
        return _binary_record(
            model,
            cfg,
            confusion_binary(test_scores[index], test.Y, 0.5),
            0.5,
            f1_score(confusion_binary(validation_scores[index], validation.Y, 0.5)),
            seconds[index],
        )

    control1, control2, weighted = BINARY_MODELS
    control1_record = at_half(control1, 0)
    started = time.perf_counter()
    threshold, best_validation_f1 = best_f1_threshold(validation_scores[0], validation.Y)
    matrix2 = confusion_binary(test_scores[0], test.Y, threshold)
    control2_record = _binary_record(
        control2, cfg, matrix2, threshold, best_validation_f1, time.perf_counter() - started
    )
    return [control1_record, control2_record, at_half(weighted, 1)]


def pair_cost_matrix(cfg: CategoricalTrialConfig) -> np.ndarray:
    """Evaluation costs: off_pair_cost per ordinary error, plus pair_weight
    extra on the expensive cell, zero diagonal."""
    cost = np.full((NUM_CLASSES, NUM_CLASSES), cfg.off_pair_cost, dtype=np.float64)
    np.fill_diagonal(cost, 0.0)
    cost[cfg.fn_class, cfg.fp_class] += cfg.pair_weight
    return cost


def _categorical_record(
    model: str, cfg: CategoricalTrialConfig, matrix: ConfusionMatrix, wall_time: float
) -> RunRecord:
    errors = matrix.total - int(np.trace(matrix.counts))
    return RunRecord(
        model=model,
        seed=cfg.seed,
        threshold=None,
        fn=float(errors),
        fp=float(errors),
        top1_error=top1_error(matrix),
        real_world_cost=real_world_cost(matrix, pair_cost_matrix(cfg)),
        f1=None,
        validation_f1=None,
        high_cost_count=float(matrix.counts[cfg.fn_class, cfg.fp_class]),
        wall_time=wall_time,
        config=asdict(cfg),
    )


def run_categorical_trial(cfg: CategoricalTrialConfig, raw: RawMnist) -> list[RunRecord]:
    """Train and evaluate the control and experimental 10-class models.

    Returns one record per CATEGORICAL_MODELS name, in order.  The
    experimental loss keeps every false-negative weight at 1 and places
    pair_weight on the single expensive false-positive cell, so with
    pair_weight 0 it degenerates to the control loss exactly.  After the
    training phase (_train_models), nn.outputs scores both models on the
    test split.
    """
    fp_weights = np.zeros((NUM_CLASSES, NUM_CLASSES))
    fp_weights[cfg.fn_class, cfg.fp_class] = cfg.pair_weight
    weighted_spec = LossSpec.rwwce_categorical(np.ones(NUM_CLASSES), fp_weights)
    models, seconds, test = _train_models(
        CATEGORICAL_TOPOLOGY, cfg, make_categorical_dataset(raw), (LossSpec.cce(), weighted_spec)
    )[:3]
    return [
        _categorical_record(model, cfg, confusion_categorical(output, test.Y), wall_time)
        for model, output, wall_time in zip(CATEGORICAL_MODELS, outputs(models, test.X), seconds)
    ]


@dataclass
class SuiteSummary:
    """Aggregates of a suite: per-model metric means and paired t-tests.

    kind keys SUITES.  comparisons maps "modelA_vs_modelB" to per-metric
    dicts {"t", "p", "df"}, or None where the statistic is undefined: a suite
    of one trial, or paired differences with zero variance (constant, not
    necessarily zero).
    """

    kind: str
    trials: int
    means: dict
    comparisons: dict


def _metric_vector(records: list[RunRecord], metric: str) -> np.ndarray:
    return np.array([getattr(r, metric) for r in records], dtype=np.float64)


def summarize(records: list[RunRecord]) -> SuiteSummary:
    """Aggregate a suite's records into per-model means and paired t-tests."""
    if not records:
        raise ValueError("no records to summarize")
    models = {r.model for r in records}
    kind = next((k for k, suite in SUITES.items() if set(suite.models) == models), None)
    if kind is None:
        raise ValueError(f"records name an unexpected model set: {sorted(models)}")
    suite = SUITES[kind]

    grouped = {model: [r for r in records if r.model == model] for model in suite.models}
    counts = {model: len(group) for model, group in grouped.items()}
    if len(set(counts.values())) != 1:
        raise ValueError(f"unbalanced record groups: {counts}")
    trials = counts[suite.models[0]]

    means = {
        model: {m: float(_metric_vector(group, m).mean()) for m in suite.mean_columns}
        for model, group in grouped.items()
    }

    comparisons: dict = {}
    for left, right in suite.pairs:
        entry: dict = {}
        for metric in suite.test_columns:
            a = _metric_vector(grouped[left], metric)
            b = _metric_vector(grouped[right], metric)
            try:
                result = paired_t_test(a, b)
                entry[metric] = {
                    "t": result.t_statistic,
                    "p": result.p_value,
                    "df": result.df,
                }
            except ValueError:
                entry[metric] = None
        comparisons[f"{left}_vs_{right}"] = entry
    return SuiteSummary(kind=kind, trials=trials, means=means, comparisons=comparisons)


def check_trials(configs, raw) -> None:
    """Call each config's check_pool(raw): a ValueError for a trial the pool cannot
    supply, raised before a suite trains any trial."""
    for cfg in configs:
        cfg.check_pool(raw)


def run_trial(cfg, raw) -> list[RunRecord]:
    """Run one trial with the trial function its config's type names.

    run_binary_trial and run_categorical_trial are looked up in this module
    at each call, so a wrapper set on either attribute runs in their place.
    """
    if isinstance(cfg, BinaryTrialConfig):
        return run_binary_trial(cfg, raw)
    if isinstance(cfg, CategoricalTrialConfig):
        return run_categorical_trial(cfg, raw)
    raise TypeError(f"not a trial config: {cfg!r}")


def run_trials(configs, raw, jobs: int = 1) -> tuple[SuiteSummary, list[RunRecord]]:
    """Run each config's trial with run_trial, in config order, then summarize the records.

    configs is a suite's whole trial list, as binary_trial_configs or
    categorical_trial_configs build it.  jobs > 1 runs the trials on that
    many threads.
    """
    if not configs:
        raise ValueError("no trials requested")
    jobs = check_int("jobs", jobs, 1)
    if jobs == 1:
        nested = [run_trial(cfg, raw) for cfg in configs]
    else:
        # Threads, not processes, because every trial reads the one corpus
        # in place.  map() keeps results in config order, so the records and
        # their summary do not depend on scheduling.  raw goes in through
        # map, not a closure, and run_trial is a module-level function, so a
        # process pool could map the same call.
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            nested = list(pool.map(run_trial, configs, repeat(raw)))
    records = [record for trial in nested for record in trial]
    return summarize(records), records


def run_binary_suite(
    raw: RawMnist,
    digits,
    slices,
    base_seed: int,
    cost: BinaryCostModel = DEFAULT_BINARY_COST,
    train_template: TrainConfig | None = None,
    jobs: int = 1,
) -> tuple[SuiteSummary, list[RunRecord]]:
    """One binary trial per (digit, slice) pair, seeded base_seed + index; every
    trial is checked against raw before the first one runs."""
    configs = binary_trial_configs(digits, slices, base_seed, cost, train_template)
    check_trials(configs, raw)
    return run_trials(configs, raw, jobs)


def binary_trial_configs(digits, slices, base_seed, cost, train_template) -> list[BinaryTrialConfig]:
    """run_binary_suite's trials, in order: each digit's slices, seeded base_seed + index."""
    train = train_template or TrainConfig()
    return [
        BinaryTrialConfig(d, s, base_seed + i, cost, train)
        for i, (d, s) in enumerate((d, s) for d in digits for s in slices)
    ]


def all_ordered_pairs() -> list[tuple[int, int]]:
    """All 90 ordered (true class, expensive predicted class) pairs."""
    return [(a, b) for a in range(NUM_CLASSES) for b in range(NUM_CLASSES) if a != b]


def sample_pairs(count: int, seed: int) -> list[tuple[int, int]]:
    """A deterministic sample of distinct ordered pairs: the categorical suite's default selection."""
    pool = all_ordered_pairs()
    count = check_int("count", count, 1, len(pool))
    rng = np.random.default_rng(check_int("seed", seed, 0))
    chosen = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in chosen]


def run_categorical_suite(
    raw: RawMnist,
    pairs,
    base_seed: int,
    pair_weight: float = DEFAULT_PAIR_WEIGHT,
    off_pair_cost: float = DEFAULT_OFF_PAIR_COST,
    train_template: TrainConfig | None = None,
    jobs: int = 1,
) -> tuple[SuiteSummary, list[RunRecord]]:
    """One categorical trial per expensive (k, k') pair, seeded base_seed + index;
    every trial is checked against raw before the first one runs."""
    configs = categorical_trial_configs(
        pairs, base_seed, pair_weight, off_pair_cost, train_template
    )
    check_trials(configs, raw)
    return run_trials(configs, raw, jobs)


def categorical_trial_configs(
    pairs, base_seed, pair_weight, off_pair_cost, train_template
) -> list[CategoricalTrialConfig]:
    """run_categorical_suite's trials, in pair order, seeded base_seed + index."""
    train = train_template or TrainConfig()
    return [
        CategoricalTrialConfig(k, k2, base_seed + i, pair_weight, off_pair_cost, train)
        for i, (k, k2) in enumerate(pairs)
    ]


def save_records(records: list[RunRecord], path) -> None:
    """Write records as JSON lines; float fields keep full round-trip precision."""
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(asdict(record), allow_nan=False) + "\n")


def load_records(path) -> list[RunRecord]:
    """Read back a JSON-lines record file written by save_records.

    Blank lines are skipped.  A line that is not JSON (a truncated last line
    included), not an object, has unknown or missing keys, or holds a field
    RunRecord refuses is a ValueError naming the file and the line.
    """
    keys = {f.name for f in fields(RunRecord)}
    records = []
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
            if doc.keys() != keys:
                unknown, missing = sorted(doc.keys() - keys), sorted(keys - doc.keys())
                raise ValueError(f"unknown keys {unknown}, missing keys {missing}")
            records.append(RunRecord(**doc))
        except ValueError as e:  # json.JSONDecodeError is a ValueError
            raise ValueError(f"{path}, line {number}: {e}") from e
    return records


def summary_to_csv(summary: SuiteSummary) -> str:
    """Render per-model means of the t-tested metrics as CSV, one row per model."""
    suite = SUITES[summary.kind]
    lines = [",".join(["Model", *suite.test_columns.values()])]
    for model in suite.models:
        values = summary.means[model]
        lines.append(",".join([model] + [repr(values[m]) for m in suite.test_columns]))
    return "\n".join(lines) + "\n"


def summary_table(summary: SuiteSummary) -> str:
    """Render the summary as a fixed-width plain-text table with t-tests."""
    suite = SUITES[summary.kind]
    rows = [("model", *suite.mean_columns.values())]
    for model in suite.models:
        values = summary.means[model]
        rows.append((model,) + tuple(f"{values[m]:.6g}" for m in suite.mean_columns))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.append("")
    lines.append(f"trials: {summary.trials}")
    for pair, entry in summary.comparisons.items():
        parts = []
        for metric, stats in entry.items():
            if stats is None:
                parts.append(f"{metric}: undefined")
            else:
                parts.append(f"{metric}: t={stats['t']:.4g} p={stats['p']:.4g}")
        lines.append(f"{pair}: " + "; ".join(parts))
    return "\n".join(lines) + "\n"
