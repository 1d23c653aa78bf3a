"""Experiment suites: trial mechanics, aggregation, serialization, parallelism."""

import json
import re
import weakref
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

import corpus
from rwwce import (
    BinaryCostModel,
    BinaryTrialConfig,
    CategoricalTrialConfig,
    RunRecord,
    TrainConfig,
    all_ordered_pairs,
    load_idx,
    load_records,
    records_match,
    run_binary_suite,
    run_binary_trial,
    run_categorical_suite,
    run_categorical_trial,
    sample_pairs,
    save_records,
    summarize,
    summary_table,
    summary_to_csv,
)
from rwwce.experiments import DEFAULT_BINARY_COST, pair_cost_matrix, run_trials

FAST_TRAIN = TrainConfig(epochs=2, batch_size=100, seed=0)
FAST_CATEGORICAL = TrainConfig(epochs=1, batch_size=100, seed=0)


# --- configuration objects -----------------------------------------------------


def test_binary_trial_config_propagates_seed_into_training():
    cfg = BinaryTrialConfig(3, 0, seed=17, train=FAST_TRAIN)
    assert cfg.train.seed == 17
    assert cfg.train.epochs == FAST_TRAIN.epochs
    assert cfg.cost == DEFAULT_BINARY_COST


def test_a_hand_given_recipe_takes_the_trial_seed():
    recipe = TrainConfig(epochs=1, seed=9)
    binary = BinaryTrialConfig(3, 0, 5, DEFAULT_BINARY_COST, recipe)
    categorical = CategoricalTrialConfig(0, 1, 4, 19.0, 1.0, recipe)
    assert (binary.train, categorical.train) == (replace(recipe, seed=5), replace(recipe, seed=4))


def test_binary_trial_config_validation():
    with pytest.raises(ValueError, match="digit must be 0..9, got 11"):
        BinaryTrialConfig(11, 0, seed=0)
    with pytest.raises(ValueError, match="digit must be 0..9, got -1"):
        BinaryTrialConfig(-1, 0, seed=0)
    with pytest.raises(ValueError, match="slice_index must be >= 0, got -1"):
        BinaryTrialConfig(3, -1, seed=0)


def test_binary_suite_rejects_a_bad_digit_before_any_training(small_pool, monkeypatch):
    import rwwce.experiments as experiments_module

    calls = []
    monkeypatch.setattr(experiments_module, "train", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="digit must be 0..9, got 11"):
        run_binary_suite(small_pool, [3, 11], [0], base_seed=0, train_template=FAST_TRAIN)
    assert calls == []


def test_categorical_trial_config_validation():
    with pytest.raises(ValueError):
        CategoricalTrialConfig(3, 3, seed=0)
    with pytest.raises(ValueError):
        CategoricalTrialConfig(0, 10, seed=0)
    with pytest.raises(ValueError):
        CategoricalTrialConfig(0, 1, seed=0, pair_weight=-1.0)
    for cost in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="off_pair_cost must be finite"):
            CategoricalTrialConfig(0, 1, seed=0, off_pair_cost=cost)


def test_pair_cost_matrix_values():
    cfg = CategoricalTrialConfig(4, 9, seed=0)
    cost = pair_cost_matrix(cfg)
    assert cost.shape == (10, 10)
    assert np.array_equal(np.diagonal(cost), np.zeros(10))
    assert cost[4, 9] == 20.0  # 1 base + 19 extra
    assert cost[9, 4] == 1.0
    assert cost.sum() == 90 * 1.0 + 19.0


def test_all_ordered_pairs_enumerates_off_diagonal():
    pairs = all_ordered_pairs()
    assert len(pairs) == 90
    assert len(set(pairs)) == 90
    assert all(a != b for a, b in pairs)


def test_sample_pairs_is_deterministic_and_distinct():
    a = sample_pairs(10, seed=42)
    b = sample_pairs(10, seed=42)
    c = sample_pairs(10, seed=43)
    assert a == b
    assert a != c
    assert len(set(a)) == 10
    with pytest.raises(ValueError):
        sample_pairs(0, seed=0)
    with pytest.raises(ValueError):
        sample_pairs(91, seed=0)


# --- binary trials ---------------------------------------------------------------


@pytest.fixture(scope="module")
def binary_records(small_pool):
    cfg = BinaryTrialConfig(3, 0, seed=11, train=FAST_TRAIN)
    return cfg, run_binary_trial(cfg, small_pool)


def test_binary_trial_returns_three_models_in_order(binary_records):
    _, records = binary_records
    assert [r.model for r in records] == ["control1", "control2", "test"]
    assert all(r.seed == 11 for r in records)


def test_binary_trial_record_consistency(binary_records):
    cfg, records = binary_records
    n_test = 6930 // 4  # 630 positives + 6300 negatives, quarter held out
    for record in records:
        assert record.top1_error == (record.fn + record.fp) / n_test
        cost = cfg.cost
        assert record.real_world_cost == (cost.fn_cost * record.fn + cost.fp_cost * record.fp) / n_test
        assert record.f1 is not None
        assert record.validation_f1 is not None
        assert record.high_cost_count is None
        assert record.config["digit"] == 3
        assert record.config["train"]["seed"] == 11


def test_binary_trial_thresholds(binary_records):
    _, records = binary_records
    control1, control2, test = records
    assert control1.threshold == 0.5
    assert test.threshold == 0.5
    # control2 rescores control1's model at the searched threshold.
    assert isinstance(control2.threshold, float)
    assert np.isfinite(control2.threshold)


def test_control2_validation_f1_never_below_control1(binary_records):
    _, records = binary_records
    control1, control2, _ = records
    # The search space includes 0.5-equivalent cutoffs, so the optimum
    # cannot be worse than scoring at the fixed threshold.
    assert control2.validation_f1 >= control1.validation_f1


def test_unit_costs_make_test_model_identical_to_control1(small_pool):
    cfg = BinaryTrialConfig(3, 0, seed=4, cost=BinaryCostModel(1.0, 1.0), train=FAST_TRAIN)
    control1, _, test = run_binary_trial(cfg, small_pool)
    assert (test.fn, test.fp, test.f1) == (control1.fn, control1.fp, control1.f1)
    assert test.real_world_cost == control1.real_world_cost
    assert test.validation_f1 == control1.validation_f1


# --- categorical trials -----------------------------------------------------------


@pytest.fixture(scope="module")
def categorical_records(small_pool):
    cfg = CategoricalTrialConfig(4, 9, seed=2, train=FAST_CATEGORICAL)
    return cfg, run_categorical_trial(cfg, small_pool)


def test_categorical_trial_structure(categorical_records):
    _, records = categorical_records
    assert [r.model for r in records] == ["control", "experimental"]
    n_test = 7000 // 4
    for record in records:
        assert record.threshold is None
        assert record.f1 is None
        assert record.validation_f1 is None
        assert record.high_cost_count is not None
        assert record.fn == record.fp  # both hold the total error count
        assert record.top1_error == pytest.approx(record.fn / n_test)
        assert 0.0 <= record.high_cost_count <= record.fn


def test_zero_pair_weight_makes_models_identical(small_pool):
    cfg = CategoricalTrialConfig(1, 7, seed=3, pair_weight=0.0, train=FAST_CATEGORICAL)
    control, experimental = run_categorical_trial(cfg, small_pool)
    assert experimental.fn == control.fn
    assert experimental.top1_error == control.top1_error
    assert experimental.high_cost_count == control.high_cost_count
    assert experimental.real_world_cost == control.real_world_cost


# --- memory order of a trial --------------------------------------------------------


@pytest.mark.parametrize(
    "runner, cfg",
    [
        (run_binary_trial, BinaryTrialConfig(3, 0, seed=6, train=FAST_TRAIN)),
        (run_categorical_trial, CategoricalTrialConfig(4, 9, seed=6, train=FAST_CATEGORICAL)),
    ],
    ids=["binary", "categorical"],
)
def test_trials_evaluate_after_dropping_the_training_data(small_pool, monkeypatch, runner, cfg):
    """Every scaled evaluation block is made after the training data is dead.

    So is the categorical validation split, which that trial never scores.
    Every train() call runs after the un-split dataset is dead.

    Watches network_input during nn.outputs: each block of an evaluation
    split is a view of its pixels, at most EVAL_BLOCK_ROWS (4,096) rows, the
    blocks cover the split's rows once and in order, and each is scaled once
    for both of the trial's models.  The trial runs at the shipped block size
    and again at 256 rows, which cuts every split of the small pool into
    several blocks.
    """
    import rwwce.experiments as experiments_module
    import rwwce.nn as nn_module

    assert nn_module.EVAL_BLOCK_ROWS == 4096
    real_split = experiments_module.split
    real_outputs = experiments_module.outputs
    real_network_input = nn_module.network_input
    real_train = experiments_module.train

    for block_rows in (4096, 256):
        monkeypatch.setattr(nn_module, "EVAL_BLOCK_ROWS", block_rows)
        refs = []
        sizes = {}
        evaluations = []  # (models, pixels, blocks) per nn.outputs call
        scaling = []  # the running evaluation's blocks: (block, scaled shape, dtype, dead)
        unsplit_dead_at_train = []  # one entry per train() call

        def watched_split(dataset, seed):
            parts = real_split(dataset, seed)
            refs.append(weakref.ref(parts.train.X))
            # The categorical dataset's X is the corpus array itself, which the
            # caller keeps; there the un-split Dataset (and its one-hot Y) is
            # what must go.
            unsplit = dataset if np.shares_memory(dataset.X, small_pool.images) else dataset.X
            refs.append(weakref.ref(unsplit))
            if runner is run_categorical_trial:
                refs.append(weakref.ref(parts.validation.X))
            sizes["validation"], sizes["test"] = parts.validation.size, parts.test.size
            return parts

        def recording_outputs(models, pixels):
            blocks = []
            evaluations.append((list(models), pixels, blocks))
            scaling.append(blocks)
            try:
                return real_outputs(models, pixels)
            finally:
                scaling.pop()

        def recording_train(*args, **kwargs):
            unsplit_dead_at_train.append(refs[1]() is None)  # refs[1]: the un-split dataset
            return real_train(*args, **kwargs)

        def recording_network_input(x):
            scaled = real_network_input(x)
            if scaling:
                dead = [ref() is None for ref in refs]
                scaling[-1].append((x, scaled.shape, scaled.dtype, dead))
            return scaled

        monkeypatch.setattr(experiments_module, "split", watched_split)
        monkeypatch.setattr(experiments_module, "outputs", recording_outputs)
        monkeypatch.setattr(nn_module, "network_input", recording_network_input)
        monkeypatch.setattr(experiments_module, "train", recording_train)
        runner(cfg, small_pool)

        assert unsplit_dead_at_train == [True, True]

        assert len(refs) == (2 if runner is run_binary_trial else 3)
        expected = ["validation", "test"] if runner is run_binary_trial else ["test"]
        assert [pixels.shape[0] for _, pixels, _ in evaluations] == [sizes[k] for k in expected]
        for models, pixels, blocks in evaluations:
            assert len(models) == 2 and models[0] is not models[1]
            assert all(a is b for a, b in zip(models, evaluations[0][0]))
            assert len(blocks) == -(-pixels.shape[0] // block_rows)
            row = 0
            for block, shape, dtype, dead in blocks:
                assert dead == [True] * len(refs)
                assert np.shares_memory(block, pixels)
                start = (block.ctypes.data - pixels.ctypes.data) // pixels.strides[0]
                assert start == row  # in order, no row skipped or scaled twice
                assert 0 < block.shape[0] <= block_rows
                assert shape == block.shape and dtype == np.float64
                row += block.shape[0]
            assert row == pixels.shape[0]
        if block_rows == 256:
            assert all(len(blocks) > 1 for _, _, blocks in evaluations)


# --- aggregation -----------------------------------------------------------------


def fake_binary_record(model, seed, fn, fp, f1=0.5, validation_f1=0.5):
    n = 1000
    return RunRecord(
        model=model,
        seed=seed,
        threshold=0.5,
        fn=float(fn),
        fp=float(fp),
        top1_error=(fn + fp) / n,
        real_world_cost=(2000.0 * fn + 100.0 * fp) / n,
        f1=f1,
        validation_f1=validation_f1,
        high_cost_count=None,
        wall_time=1.0,
        config={},
    )


def fake_suite():
    records = []
    for i, (fn1, fn3) in enumerate([(10, 8), (12, 10), (11, 6)]):
        records.append(fake_binary_record("control1", i, fn1, 5 + i))
        records.append(fake_binary_record("control2", i, fn1 - 1, 6 + i))
        records.append(fake_binary_record("test", i, fn3, 20 + 2 * i))
    return records


def fake_categorical_record(model, seed, errors, high_cost):
    n = 1000
    return RunRecord(
        model=model,
        seed=seed,
        threshold=None,
        fn=float(errors),
        fp=float(errors),
        top1_error=errors / n,
        real_world_cost=(errors + 10.0 * high_cost) / n,
        f1=None,
        validation_f1=None,
        high_cost_count=float(high_cost),
        wall_time=1.0,
        config={},
    )


def fake_categorical_suite():
    records = []
    for i, (control, experimental) in enumerate(
        [((40, 6), (41, 2)), ((44, 8), (46, 3)), ((42, 7), (43, 3))]
    ):
        records.append(fake_categorical_record("control", i, *control))
        records.append(fake_categorical_record("experimental", i, *experimental))
    return records


def test_summarize_binary_means_and_structure():
    summary = summarize(fake_suite())
    assert summary.kind == "binary"
    assert summary.trials == 3
    assert summary.means["control1"]["fn"] == pytest.approx((10 + 12 + 11) / 3)
    assert summary.means["test"]["fp"] == pytest.approx((20 + 22 + 24) / 3)
    assert set(summary.comparisons) == {
        "control1_vs_test",
        "control2_vs_test",
        "control1_vs_control2",
    }
    entry = summary.comparisons["control1_vs_test"]["fn"]
    assert set(entry) == {"t", "p", "df"}
    assert entry["df"] == 2


def test_summarize_marks_degenerate_comparisons_as_none():
    # control1 fn - control2 fn is the constant 1, so that t-test is undefined.
    summary = summarize(fake_suite())
    assert summary.comparisons["control1_vs_control2"]["fn"] is None
    assert summary.comparisons["control1_vs_test"]["fn"] is not None


def test_summarize_rejects_bad_record_sets():
    records = fake_suite()
    with pytest.raises(ValueError):
        summarize(records[:-1])  # unbalanced groups
    with pytest.raises(ValueError):
        summarize([])
    stray = fake_suite()
    stray[0] = replace(stray[0], model="control")  # a categorical model among binary ones
    with pytest.raises(ValueError, match="^records name an unexpected model set"):
        summarize(stray)


def test_records_match_ignores_wall_time_only():
    a = fake_binary_record("control1", 0, 10, 5)
    b = replace(fake_binary_record("control1", 0, 10, 5), wall_time=99.0)
    assert records_match([a], [b])
    assert not records_match([a], [replace(b, fn=11.0)])
    assert not records_match([a], [a, a])


def test_save_and_load_records_roundtrip(tmp_path, binary_records):
    _, records = binary_records
    path = tmp_path / "records.jsonl"
    save_records(records, path)
    loaded = load_records(path)
    assert records_match(records, loaded)
    # Full float precision survives the JSON round trip.
    assert loaded[0].real_world_cost == records[0].real_world_cost
    assert loaded[0].wall_time == records[0].wall_time


def _record_with(**changes):
    """A binary record's fields as save_records writes them, some changed."""
    return {**asdict(fake_binary_record("control1", 0, 10, 5)), **changes}


def test_a_record_checks_its_own_fields():
    with pytest.raises(ValueError, match="^real_world_cost must be finite, got nan$"):
        RunRecord(**_record_with(real_world_cost=float("nan")))
    with pytest.raises(ValueError, match="^f1 must be finite, got inf$"):
        RunRecord(**_record_with(f1=float("inf")))
    with pytest.raises(ValueError, match="^model must be a name from SUITES, got 'mystery'$"):
        RunRecord(**_record_with(model="mystery"))
    with pytest.raises(ValueError, match="^config must be a dict, got None$"):
        RunRecord(**_record_with(config=None))


def test_a_record_is_frozen_so_it_keeps_its_checked_fields():
    record = fake_binary_record("control1", 0, 10, 5)
    with pytest.raises(FrozenInstanceError):
        record.real_world_cost = float("nan")
    with pytest.raises(ValueError, match="^real_world_cost must be finite, got nan$"):
        replace(record, real_world_cost=float("nan"))


GOOD_LINE = json.dumps(_record_with())


@pytest.mark.parametrize(
    "line, message",
    [
        (GOOD_LINE[: len(GOOD_LINE) // 2], "Unterminated string"),  # a write cut off mid-line
        ("not json", "Expecting value"),
        ("[1, 2]", "expected a JSON object, got list"),
        (json.dumps(_record_with(extra=1)), "unknown keys ['extra'], missing keys []"),
        (GOOD_LINE.replace(', "config": {}', ""), "unknown keys [], missing keys ['config']"),
        (json.dumps(_record_with(fn="3")), "fn must be a number, got '3'"),
        (json.dumps(_record_with(real_world_cost=float("nan"))), "real_world_cost must be finite, got nan"),
        (json.dumps(_record_with(seed=1.0)), "seed must be an integer, got 1.0"),
        (json.dumps(_record_with(model="mystery")), "model must be a name from SUITES, got 'mystery'"),
        (json.dumps(_record_with(config=[])), "config must be a dict, got []"),
    ],
    ids=["truncated", "not-json", "not-an-object", "extra-key", "missing-key", "string-count",
         "nan-cost", "float-seed", "unknown-model", "list-config"],
)
def test_load_records_names_the_file_and_line_of_a_bad_record(tmp_path, line, message):
    path = tmp_path / "records.jsonl"
    path.write_text(f"{GOOD_LINE}\n\n{line}", encoding="utf-8")  # line 2 is blank: skipped
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}, line 3: {message}')}"):
        load_records(path)


# --- suites ----------------------------------------------------------------------


def test_binary_suite_counts_and_seeding(small_pool):
    summary, records = run_binary_suite(
        small_pool, digits=[3, 7], slices=[0], base_seed=100, train_template=FAST_TRAIN
    )
    assert len(records) == 6  # 2 trials x 3 models
    assert summary.trials == 2
    assert [r.seed for r in records] == [100, 100, 100, 101, 101, 101]
    assert {r.config["digit"] for r in records} == {3, 7}


def test_binary_suite_rerun_is_identical(small_pool):
    _, first = run_binary_suite(
        small_pool, digits=[3], slices=[0], base_seed=5, train_template=FAST_TRAIN
    )
    _, again = run_binary_suite(
        small_pool, digits=[3], slices=[0], base_seed=5, train_template=FAST_TRAIN
    )
    assert records_match(first, again)


def test_categorical_suite_parallel_matches_sequential(small_pool):
    pairs = [(0, 1), (2, 3)]
    _, sequential = run_categorical_suite(
        small_pool, pairs, base_seed=9, train_template=FAST_CATEGORICAL, jobs=1
    )
    _, threaded = run_categorical_suite(
        small_pool, pairs, base_seed=9, train_template=FAST_CATEGORICAL, jobs=2
    )
    assert records_match(sequential, threaded)
    assert [r.seed for r in sequential] == [9, 9, 10, 10]


def test_suites_reject_empty_plans(small_pool):
    with pytest.raises(ValueError):
        run_binary_suite(small_pool, digits=[], slices=[], base_seed=0)
    with pytest.raises(ValueError):
        run_categorical_suite(small_pool, [], base_seed=0)


def test_a_library_suite_refuses_an_impossible_trial_before_training_any(small_pool, monkeypatch):
    import rwwce.experiments as experiments_module

    trained, ran = [], []

    def counting(calls, function):
        def call(*args):
            calls.append(args)
            return function(*args)

        return call

    monkeypatch.setattr(experiments_module, "train", counting(trained, experiments_module.train))
    monkeypatch.setattr(experiments_module, "run_trials", counting(ran, experiments_module.run_trials))
    # Slice 0 of digit 3 could train; slice 99 needs 63,000 of the pool's 700.
    with pytest.raises(ValueError, match="slice 99 needs at least 63000"):
        run_binary_suite(small_pool, [3], [0, 99], base_seed=0, train_template=FAST_TRAIN)
    tiny = load_idx(*corpus.synthetic_idx_pair(3))
    with pytest.raises(ValueError, match="dataset of 30 examples is too small to split"):
        run_categorical_suite(tiny, [(4, 9), (1, 2)], base_seed=0, train_template=FAST_CATEGORICAL)
    assert trained == [] and ran == []


def test_suites_reject_jobs_below_one(small_pool):
    with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
        run_categorical_suite(small_pool, [(0, 1)], base_seed=0, jobs=0)
    with pytest.raises(ValueError, match="jobs must be >= 1, got -3"):
        run_binary_suite(small_pool, digits=[0], slices=[0], base_seed=0, jobs=-3)


def test_run_trials_refuses_what_is_not_a_trial_config(small_pool):
    with pytest.raises(TypeError, match=r"^not a trial config: \(3, 0, 0\)$"):
        run_trials([(3, 0, 0)], small_pool)


# --- rendering -------------------------------------------------------------------


def test_summary_to_csv_layout():
    text = summary_to_csv(summarize(fake_suite()))
    lines = text.strip().split("\n")
    assert lines[0] == "Model,MeanFN,MeanFP,MeanTop1Error,MeanRealWorldCost"
    assert len(lines) == 4
    assert lines[1].startswith("control1,")
    assert lines[3].startswith("test,")
    mean_fn = float(lines[1].split(",")[1])
    assert mean_fn == (10 + 12 + 11) / 3


def test_summary_table_mentions_models_and_degenerate_tests():
    table = summary_table(summarize(fake_suite()))
    for name in ("control1", "control2", "test"):
        assert name in table
    assert "trials: 3" in table
    assert "fn: undefined" in table  # the constant-difference comparison
    assert "identical" not in table
    assert "t=" in table


def test_a_one_trial_suite_reports_every_t_test_undefined():
    # One pair of values, however far apart, gives no t statistic.
    records = [
        fake_binary_record("control1", 0, 152, 5),
        fake_binary_record("control2", 0, 150, 9),
        fake_binary_record("test", 0, 1, 40),
    ]
    summary = summarize(records)
    assert summary.trials == 1
    assert all(
        stats is None for entry in summary.comparisons.values() for stats in entry.values()
    )
    lines = summary_table(summary).splitlines()
    assert lines[-3:] == [
        f"{pair}: fn: undefined; fp: undefined; top1_error: undefined; real_world_cost: undefined"
        for pair in ("control1_vs_test", "control2_vs_test", "control1_vs_control2")
    ]


def test_binary_summary_renderings():
    summary = summarize(fake_suite())
    # summary.csv holds the means of the t-tested metrics: no F1 column.
    assert summary_to_csv(summary) == (
        "Model,MeanFN,MeanFP,MeanTop1Error,MeanRealWorldCost\n"
        "control1,11.0,6.0,0.017,22.599999999999998\n"
        "control2,10.0,7.0,0.017,20.7\n"
        "test,8.0,22.0,0.03,18.2\n"
    )
    lines = summary_table(summary).splitlines()
    assert lines[:4] == [
        "model     mean_fn  mean_fp  mean_top1  mean_rwc  mean_f1",
        "control1  11       6        0.017      22.6      0.5",
        "control2  10       7        0.017      20.7      0.5",
        "test      8        22       0.03       18.2      0.5",
    ]
    assert lines[4:6] == ["", "trials: 3"]
    # control1 - control2 is the constant 1 in fn, -1 in fp and 0 in top-1
    # error; the real-world costs differ by 1.9 but for rounding, so every
    # t-test of that pair is undefined.
    assert lines[6:] == [
        "control1_vs_test: fn: t=3 p=0.09547; fp: t=-27.71 p=0.0013; "
        "top1_error: t=-22.52 p=0.001967; real_world_cost: t=2.256 p=0.1527",
        "control2_vs_test: fn: t=2 p=0.1835; fp: t=-25.98 p=0.001478; "
        "top1_error: t=-22.52 p=0.001967; real_world_cost: t=1.282 p=0.3284",
        "control1_vs_control2: fn: undefined; fp: undefined; "
        "top1_error: undefined; real_world_cost: undefined",
    ]


def test_categorical_summary_renderings():
    summary = summarize(fake_categorical_suite())
    assert summary.kind == "categorical"
    # Means: high-cost counts 7 and 8/3, errors 42 and 43.33 of 1000, real-world
    # costs (errors + 10 x high-cost) / 1000.
    assert summary_to_csv(summary) == (
        "Model,MeanHighCostCount,MeanTop1Error,MeanRealWorldCost\n"
        "control,7.0,0.042,0.112\n"
        "experimental,2.6666666666666665,0.043333333333333335,0.07\n"
    )
    lines = summary_table(summary).splitlines()
    assert lines[:3] == [
        "model         mean_high_cost  mean_top1  mean_rwc",
        "control       7               0.042      0.112",
        "experimental  2.66667         0.0433333  0.07",
    ]
    assert lines[3:5] == ["", "trials: 3"]
    # Paired differences 4,5,4 / -1,-2,-1 / 39,48,39 give t = 13, -4 and 14 at df 2.
    assert lines[5:] == [
        "control_vs_experimental: high_cost_count: t=13 p=0.005865; "
        "top1_error: t=-4 p=0.05719; real_world_cost: t=14 p=0.005063"
    ]
