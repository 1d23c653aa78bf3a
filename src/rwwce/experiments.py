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

Each trial gets one seed that drives the dataset split, the weight init, and
the shuffle order, so paired models differ only in their loss.  Suites
aggregate per-model means and paired t-tests, serialize per-run records as
JSON lines (full float precision, so reruns can be compared byte for byte),
and export summary CSVs.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .data import (
    FEATURES, NUM_CLASSES, RawMnist, make_binary_dataset, make_categorical_dataset, positive_rows,
    split, split_sizes,
)
from .losses import BinaryCostModel, LossSpec
from .metrics import (
    ConfusionCounts,
    ConfusionMatrix,
    best_f1_threshold,
    confusion_binary,
    confusion_categorical,
    f1_score,
    paired_t_test,
    real_world_cost_binary,
    real_world_cost_categorical,
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

BINARY_MODELS = ("control1", "control2", "test")
CATEGORICAL_MODELS = ("control", "experimental")

BINARY_MEAN_METRICS = ("fn", "fp", "top1_error", "real_world_cost", "f1")
BINARY_TEST_METRICS = ("fn", "fp", "top1_error", "real_world_cost")
CATEGORICAL_MEAN_METRICS = ("high_cost_count", "top1_error", "real_world_cost")
CATEGORICAL_TEST_METRICS = CATEGORICAL_MEAN_METRICS


@dataclass(frozen=True)
class BinaryTrialConfig:
    digit: int
    slice_index: int
    seed: int
    cost: BinaryCostModel
    train: TrainConfig

    def __post_init__(self) -> None:
        if not 0 <= self.digit < NUM_CLASSES:
            raise ValueError(f"digit must be 0..9, got {self.digit}")
        if self.slice_index < 0:
            raise ValueError(f"slice_index must be >= 0, got {self.slice_index}")

    def check_pool(self, raw: RawMnist) -> None:
        """Raise ValueError when raw has too few of the digit for this trial's positive slice."""
        positive_rows(raw, self.digit, self.slice_index)

    @classmethod
    def make(
        cls,
        digit: int,
        slice_index: int,
        seed: int,
        cost: BinaryCostModel = DEFAULT_BINARY_COST,
        train_template: TrainConfig | None = None,
    ) -> "BinaryTrialConfig":
        config = replace(train_template or TrainConfig(), seed=seed)
        return cls(digit, slice_index, seed, cost, config)


@dataclass(frozen=True)
class CategoricalTrialConfig:
    fn_class: int
    fp_class: int
    seed: int
    pair_weight: float
    off_pair_cost: float
    train: TrainConfig

    def __post_init__(self) -> None:
        if not (0 <= self.fn_class < NUM_CLASSES and 0 <= self.fp_class < NUM_CLASSES):
            raise ValueError("classes must be 0..9")
        if self.fn_class == self.fp_class:
            raise ValueError("the expensive confusion must involve two distinct classes")
        if not (np.isfinite(self.pair_weight) and np.isfinite(self.off_pair_cost)):
            raise ValueError("costs must be finite")
        if self.pair_weight < 0 or self.off_pair_cost < 0:
            raise ValueError("costs must be nonnegative")

    def check_pool(self, raw: RawMnist) -> None:
        """Raise ValueError when raw is too small to split into this trial's three parts."""
        split_sizes(raw.size)

    @classmethod
    def make(
        cls,
        fn_class: int,
        fp_class: int,
        seed: int,
        pair_weight: float = DEFAULT_PAIR_WEIGHT,
        off_pair_cost: float = DEFAULT_OFF_PAIR_COST,
        train_template: TrainConfig | None = None,
    ) -> "CategoricalTrialConfig":
        config = replace(train_template or TrainConfig(), seed=seed)
        return cls(fn_class, fp_class, seed, pair_weight, off_pair_cost, config)


@dataclass
class RunRecord:
    """One evaluated model on one trial's test split.

    For categorical runs fn and fp both hold the total misclassification
    count (every multiclass error is a false negative of its true class and
    a false positive of its predicted class) and high_cost_count holds the
    tally of the single expensive cell.  wall_time is the seconds of the
    model's own train() call; control2, which does not train, gets the
    seconds of its threshold search and rescoring.  The trial's shared
    evaluation phase is timed in no record.  wall_time is informational only
    and is excluded from determinism comparisons (records_match).
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
    counts: ConfusionCounts,
    threshold: float,
    validation_f1: float | None,
    wall_time: float,
) -> RunRecord:
    n = counts.total
    return RunRecord(
        model=model,
        seed=cfg.seed,
        threshold=float(threshold),
        fn=float(counts.fn),
        fp=float(counts.fp),
        top1_error=(counts.fn + counts.fp) / n,
        real_world_cost=real_world_cost_binary(counts.fn, counts.fp, n, cfg.cost),
        f1=f1_score(counts),
        validation_f1=validation_f1,
        high_cost_count=None,
        wall_time=wall_time,
        config=asdict(cfg),
    )


def _train_models(topology, cfg, train_set, loss_specs):
    """A trial's training phase: one model per loss spec, all from one init.

    Builds init_mlp(topology, cfg.seed) once and trains a model from it with
    each spec in order (the cost-blind control first), under cfg.train.
    Returns the trained models and the seconds of each train() call.
    """
    initial = init_mlp(topology, cfg.seed)
    models, seconds = [], []
    for loss_spec in loss_specs:
        started = time.perf_counter()
        model, _ = train(initial, train_set, loss_spec, cfg.train)
        seconds.append(time.perf_counter() - started)
        models.append(model)
    return models, seconds


def run_binary_trial(cfg: BinaryTrialConfig, raw: RawMnist) -> list[RunRecord]:
    """Train and evaluate the three binary models on one dataset slice.

    Returns [control1, control2, test] records.  control2 never retrains: it
    reuses control1's parameters and only moves the decision threshold.
    The trial runs in two phases: it trains both models, drops the training
    split, and only then evaluates them with nn.outputs, so the un-split
    dataset and the training split are gone before any pixels of the
    validation and test splits are scaled, in row blocks shared by both
    models.
    wall_time is the seconds of the model's train() call for control1 and
    test, and of the threshold search and rescoring for control2.
    """
    parts = split(make_binary_dataset(raw, cfg.digit, cfg.slice_index), cfg.seed)
    validation, test = parts.validation, parts.test
    weighted_spec = LossSpec.rwwce_binary(cfg.cost.fn_cost, cfg.cost.fp_cost)
    models, (control_time, weighted_time) = _train_models(
        BINARY_TOPOLOGY, cfg, parts.train, (LossSpec.bce(), weighted_spec)
    )
    del parts

    control_validation, weighted_validation = (o[:, 0] for o in outputs(models, validation.X))
    control_test, weighted_test = (o[:, 0] for o in outputs(models, test.X))

    control1 = _binary_record(
        "control1",
        cfg,
        confusion_binary(control_test, test.Y, 0.5),
        0.5,
        f1_score(confusion_binary(control_validation, validation.Y, 0.5)),
        control_time,
    )

    started = time.perf_counter()
    threshold, best_validation_f1 = best_f1_threshold(control_validation, validation.Y)
    counts2 = confusion_binary(control_test, test.Y, threshold)
    control2 = _binary_record(
        "control2", cfg, counts2, threshold, best_validation_f1, time.perf_counter() - started
    )

    weighted = _binary_record(
        "test",
        cfg,
        confusion_binary(weighted_test, test.Y, 0.5),
        0.5,
        f1_score(confusion_binary(weighted_validation, validation.Y, 0.5)),
        weighted_time,
    )
    return [control1, control2, weighted]


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
        real_world_cost=real_world_cost_categorical(matrix, pair_cost_matrix(cfg)),
        f1=None,
        validation_f1=None,
        high_cost_count=float(matrix.counts[cfg.fn_class, cfg.fp_class]),
        wall_time=wall_time,
        config=asdict(cfg),
    )


def run_categorical_trial(cfg: CategoricalTrialConfig, raw: RawMnist) -> list[RunRecord]:
    """Train and evaluate the control and experimental 10-class models.

    The experimental loss keeps every false-negative weight at 1 and places
    pair_weight on the single expensive false-positive cell, so with
    pair_weight 0 it degenerates to the control loss exactly.  As in
    run_binary_trial, both models are trained before either is evaluated,
    and after the training split is dropped nn.outputs scales the test split
    in row blocks, each once for both models.  wall_time is the seconds of
    the model's train() call.
    """
    parts = split(make_categorical_dataset(raw), cfg.seed)
    test = parts.test
    fn_weights = np.ones(NUM_CLASSES)
    fp_weights = np.zeros((NUM_CLASSES, NUM_CLASSES))
    fp_weights[cfg.fn_class, cfg.fp_class] = cfg.pair_weight
    weighted_spec = LossSpec.rwwce_categorical(fn_weights, fp_weights)
    models, (control_time, weighted_time) = _train_models(
        CATEGORICAL_TOPOLOGY, cfg, parts.train, (LossSpec.cce(), weighted_spec)
    )
    del parts

    control_output, weighted_output = outputs(models, test.X)
    return [
        _categorical_record(
            "control", cfg, confusion_categorical(control_output, test.Y), control_time
        ),
        _categorical_record(
            "experimental", cfg, confusion_categorical(weighted_output, test.Y), weighted_time
        ),
    ]


@dataclass
class SuiteSummary:
    """Aggregates of a suite: per-model metric means and paired t-tests.

    comparisons maps "modelA_vs_modelB" to per-metric dicts {"t", "p", "df"},
    or None where the paired differences were identical across trials and
    the statistic is undefined.
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
    models = [r.model for r in records]
    if set(models) == set(BINARY_MODELS):
        kind, order = "binary", BINARY_MODELS
        mean_metrics, test_metrics = BINARY_MEAN_METRICS, BINARY_TEST_METRICS
        pairs = [("control1", "test"), ("control2", "test"), ("control1", "control2")]
    elif set(models) == set(CATEGORICAL_MODELS):
        kind, order = "categorical", CATEGORICAL_MODELS
        mean_metrics, test_metrics = CATEGORICAL_MEAN_METRICS, CATEGORICAL_TEST_METRICS
        pairs = [("control", "experimental")]
    else:
        raise ValueError(f"records name an unexpected model set: {sorted(set(models))}")

    grouped = {model: [r for r in records if r.model == model] for model in order}
    counts = {model: len(group) for model, group in grouped.items()}
    if len(set(counts.values())) != 1:
        raise ValueError(f"unbalanced record groups: {counts}")
    trials = counts[order[0]]

    means = {
        model: {m: float(_metric_vector(group, m).mean()) for m in mean_metrics}
        for model, group in grouped.items()
    }

    comparisons: dict = {}
    for left, right in pairs:
        entry: dict = {}
        for metric in test_metrics:
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


def run_trials(runner, configs, raw, jobs: int = 1) -> tuple[SuiteSummary, list[RunRecord]]:
    """Run runner(cfg, raw) once per config, in config order, then summarize the records.

    configs is a suite's whole trial list, as binary_trial_configs or
    categorical_trial_configs build it, and runner is the matching trial
    function.  jobs > 1 runs the trials on that many threads.
    """
    if not configs:
        raise ValueError("no trials requested")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    if jobs == 1:
        nested = [runner(cfg, raw) for cfg in configs]
    else:
        # Threads, not processes, because every trial reads the one corpus
        # in place.  map() keeps results in config order, so the records and
        # their summary do not depend on scheduling.  raw goes in through
        # map, not a closure, so a process pool could map the same runner.
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            nested = list(pool.map(runner, configs, repeat(raw)))
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
    """One binary trial per (digit, slice) pair, seeded base_seed + index."""
    configs = binary_trial_configs(digits, slices, base_seed, cost, train_template)
    return run_trials(run_binary_trial, configs, raw, jobs)


def binary_trial_configs(digits, slices, base_seed, cost, train_template) -> list[BinaryTrialConfig]:
    """run_binary_suite's trials, in order: each digit's slices, seeded base_seed + index."""
    return [
        BinaryTrialConfig.make(d, s, base_seed + i, cost=cost, train_template=train_template)
        for i, (d, s) in enumerate((d, s) for d in digits for s in slices)
    ]


def all_ordered_pairs() -> list[tuple[int, int]]:
    """All 90 ordered (true class, expensive predicted class) pairs."""
    return [(a, b) for a in range(NUM_CLASSES) for b in range(NUM_CLASSES) if a != b]


def sample_pairs(count: int, seed: int) -> list[tuple[int, int]]:
    """A deterministic sample of distinct ordered pairs, for desk-scale runs."""
    pool = all_ordered_pairs()
    if not 1 <= count <= len(pool):
        raise ValueError(f"count must be 1..{len(pool)}")
    chosen = np.random.default_rng(seed).choice(len(pool), size=count, replace=False)
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
    """One categorical trial per expensive (k, k') pair, seeded base_seed + index."""
    configs = categorical_trial_configs(
        pairs, base_seed, pair_weight, off_pair_cost, train_template
    )
    return run_trials(run_categorical_trial, configs, raw, jobs)


def categorical_trial_configs(
    pairs, base_seed, pair_weight, off_pair_cost, train_template
) -> list[CategoricalTrialConfig]:
    """run_categorical_suite's trials, in pair order, seeded base_seed + index."""
    return [
        CategoricalTrialConfig.make(
            k, k2, base_seed + i,
            pair_weight=pair_weight,
            off_pair_cost=off_pair_cost,
            train_template=train_template,
        )
        for i, (k, k2) in enumerate(pairs)
    ]


def save_records(records: list[RunRecord], path) -> None:
    """Write records as JSON lines; float fields keep full round-trip precision."""
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(asdict(record), allow_nan=False) + "\n")


def load_records(path) -> list[RunRecord]:
    """Read back a JSON-lines record file written by save_records."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(RunRecord(**json.loads(line)))
    return records


def summary_to_csv(summary: SuiteSummary) -> str:
    """Render per-model means as CSV, one row per model."""
    if summary.kind == "binary":
        header = "Model,MeanFN,MeanFP,MeanTop1Error,MeanRealWorldCost"
        metrics = BINARY_TEST_METRICS
        order = BINARY_MODELS
    else:
        header = "Model,MeanHighCostCount,MeanTop1Error,MeanRealWorldCost"
        metrics = CATEGORICAL_MEAN_METRICS
        order = CATEGORICAL_MODELS
    lines = [header]
    for model in order:
        values = summary.means[model]
        lines.append(",".join([model] + [repr(values[m]) for m in metrics]))
    return "\n".join(lines) + "\n"


def summary_table(summary: SuiteSummary) -> str:
    """Render the summary as a fixed-width plain-text table with t-tests."""
    if summary.kind == "binary":
        metrics = BINARY_MEAN_METRICS
        headers = ("model", "mean_fn", "mean_fp", "mean_top1", "mean_rwc", "mean_f1")
        order = BINARY_MODELS
    else:
        metrics = CATEGORICAL_MEAN_METRICS
        headers = ("model", "mean_high_cost", "mean_top1", "mean_rwc")
        order = CATEGORICAL_MODELS
    rows = [headers]
    for model in order:
        values = summary.means[model]
        rows.append((model,) + tuple(f"{values[m]:.6g}" for m in metrics))
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.append("")
    lines.append(f"trials: {summary.trials}")
    for pair, entry in summary.comparisons.items():
        parts = []
        for metric, stats in entry.items():
            if stats is None:
                parts.append(f"{metric}: identical")
            else:
                parts.append(f"{metric}: t={stats['t']:.4g} p={stats['p']:.4g}")
        lines.append(f"{pair}: " + "; ".join(parts))
    return "\n".join(lines) + "\n"
