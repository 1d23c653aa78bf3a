"""Command-line interface: argument handling, outputs, exit codes."""

import gzip
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import corpus
from rwwce import (
    BinaryTrialConfig,
    CategoricalTrialConfig,
    cli,
    experiments,
    load_records,
    records_match,
    sample_pairs,
)
from rwwce.cli import DATA_DIR_ENV, main
from rwwce.data import IDX_LAYOUTS

ECHO_PREFIX = "resolved config: "


def echoed_config(out: str) -> dict:
    line = next(l for l in out.splitlines() if l.startswith(ECHO_PREFIX))
    return json.loads(line[len(ECHO_PREFIX):])


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)


def link_layout(src_dir, dst_dir, names):
    dst_dir.mkdir()
    for name in names:
        os.link(src_dir / name, dst_dir / name)


ALL_NAMES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def test_help_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "rwwce.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()
    assert "verify-data" in proc.stdout


# --- verify-data -------------------------------------------------------------


def test_verify_data_ok(mnist_dir, capsys):
    assert main(["verify-data", "--data-dir", str(mnist_dir)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(ECHO_PREFIX)
    assert "train-images-idx3-ubyte: 47040016 bytes (expected 47040016): ok" in out
    assert "train-labels-idx1-ubyte: 60008 bytes (expected 60008): ok" in out
    assert "t10k-images-idx3-ubyte: 7840016 bytes (expected 7840016): ok" in out
    assert "t10k-labels-idx1-ubyte: 10008 bytes (expected 10008): ok" in out
    assert "pool: 70000 examples, 10 classes: ok" in out


def test_verify_data_reads_env_var(mnist_dir, capsys, monkeypatch):
    monkeypatch.setenv(DATA_DIR_ENV, str(mnist_dir))
    assert main(["verify-data"]) == 0
    assert "pool: 70000 examples, 10 classes: ok" in capsys.readouterr().out


def test_verify_data_accepts_gzipped_files(mnist_dir, tmp_path, capsys):
    gz_dir = tmp_path / "gz"
    link_layout(mnist_dir, gz_dir, ALL_NAMES[:3])
    raw = (mnist_dir / ALL_NAMES[3]).read_bytes()
    with gzip.open(gz_dir / (ALL_NAMES[3] + ".gz"), "wb") as f:
        f.write(raw)
    assert main(["verify-data", "--data-dir", str(gz_dir)]) == 0
    out = capsys.readouterr().out
    assert "t10k-labels-idx1-ubyte: 10008 bytes (expected 10008): ok" in out


def test_verify_data_flags_wrong_byte_count(mnist_dir, tmp_path, capsys):
    bad_dir = tmp_path / "bad"
    link_layout(mnist_dir, bad_dir, ALL_NAMES[:3])
    raw = (mnist_dir / ALL_NAMES[3]).read_bytes()
    (bad_dir / ALL_NAMES[3]).write_bytes(raw[:-1])
    assert main(["verify-data", "--data-dir", str(bad_dir)]) == 1
    captured = capsys.readouterr()
    assert "t10k-labels-idx1-ubyte: 10007 bytes (expected 10008): MISMATCH" in captured.out
    assert "error:" in captured.err


def test_verify_data_missing_file(mnist_dir, tmp_path, capsys):
    sparse = tmp_path / "sparse"
    link_layout(mnist_dir, sparse, ALL_NAMES[:3])
    assert main(["verify-data", "--data-dir", str(sparse)]) == 1
    assert "missing corpus file" in capsys.readouterr().err


def test_verify_data_needs_a_source(capsys):
    assert main(["verify-data"]) == 1
    assert DATA_DIR_ENV in capsys.readouterr().err


def test_verify_data_decompresses_each_gz_file_once(mnist_dir, tmp_path, capsys, monkeypatch):
    gz_dir = tmp_path / "gz"
    link_layout(mnist_dir, gz_dir, (ALL_NAMES[0], ALL_NAMES[2]))
    for name in (ALL_NAMES[1], ALL_NAMES[3]):
        with gzip.open(gz_dir / (name + ".gz"), "wb") as f:
            f.write((mnist_dir / name).read_bytes())
    opened = []
    real_open = gzip.open

    def counting_open(filename, *args, **kwargs):
        opened.append(str(filename))
        return real_open(filename, *args, **kwargs)

    monkeypatch.setattr(gzip, "open", counting_open)
    assert main(["verify-data", "--data-dir", str(gz_dir)]) == 0
    out = capsys.readouterr().out
    assert "train-labels-idx1-ubyte: 60008 bytes (expected 60008): ok" in out
    assert "pool: 70000 examples, 10 classes: ok" in out
    assert sorted(opened) == sorted(str(gz_dir / (n + ".gz")) for n in (ALL_NAMES[1], ALL_NAMES[3]))


def test_verify_data_names_the_file_that_fails_to_parse(mnist_dir, tmp_path, capsys):
    bad_dir = tmp_path / "bad"
    link_layout(mnist_dir, bad_dir, (n for n in ALL_NAMES if n != ALL_NAMES[2]))
    payload = bytearray((mnist_dir / ALL_NAMES[2]).read_bytes())
    payload[3] = 0x02  # same length, wrong magic
    (bad_dir / ALL_NAMES[2]).write_bytes(bytes(payload))
    assert main(["verify-data", "--data-dir", str(bad_dir)]) == 1
    err = capsys.readouterr().err
    assert str(bad_dir / ALL_NAMES[2]) in err
    assert "bad images magic 0x00000802" in err


def test_verify_data_truncated_gz_is_a_data_error(mnist_dir, tmp_path, capsys):
    bad_dir = tmp_path / "bad"
    link_layout(mnist_dir, bad_dir, ALL_NAMES[:3])
    gz = bad_dir / (ALL_NAMES[3] + ".gz")
    gz.write_bytes(gzip.compress((mnist_dir / ALL_NAMES[3]).read_bytes())[:-20])
    assert main(["verify-data", "--data-dir", str(bad_dir)]) == 1
    assert f"cannot read {gz}" in capsys.readouterr().err


@pytest.mark.parametrize("broken", ["missing", "padded"])
def test_run_binary_names_the_file_pair_that_fails_to_load(small_dir, tmp_path, capsys, broken):
    labels = tmp_path / "labels"
    if broken == "padded":
        labels.write_bytes((small_dir / ALL_NAMES[3]).read_bytes() + b"\x00")
    images = small_dir / ALL_NAMES[2]
    rc = main(
        [
            "run-binary",
            "--images", str(small_dir / ALL_NAMES[0]),
            "--labels", str(small_dir / ALL_NAMES[1]),
            "--images", str(images),
            "--labels", str(labels),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert f"cannot load {images} and {labels}: " in err
    assert ("No such file" if broken == "missing" else "labels payload is 1009 bytes") in err
    assert not (tmp_path / "out").exists()


def _flip(payload: bytes, i: int) -> bytes:
    """payload with every bit of byte i inverted."""
    return payload[:i] + bytes([payload[i] ^ 0xFF]) + payload[i + 1 :]


def _corrupt_gz(payload: bytes) -> bytes:
    """payload gzipped, its first deflate block given the reserved block type 3."""
    gz = gzip.compress(payload)
    return gz[:10] + b"\x07" + gz[11:]


def _idx_damages() -> dict:
    """The IDX boundary sweep, from IDX_LAYOUTS: case id -> (file index, suffix, damage),
    where damage turns that file's valid IDX bytes into the bytes written.

    Each file of a valid pair, plain and .gz, is cut at every header-field
    boundary and one byte short of its payload, padded by one byte, and has
    each magic byte flipped; each .gz stream is also truncated or corrupted.
    """
    cases = {}
    for index, (name, _, dims) in enumerate(IDX_LAYOUTS):
        header = 4 * (2 + len(dims))
        damages = {f"cut-at-{cut}": lambda b, cut=cut: b[:cut] for cut in range(0, header + 1, 4)}
        damages["one-byte-short"] = lambda b: b[:-1]
        damages["padded"] = lambda b: b + b"\x00"
        damages.update({f"magic-byte-{i}": lambda b, i=i: _flip(b, i) for i in range(4)})
        for case, damage in damages.items():
            cases[f"{name}-{case}"] = (index, "", damage)
            cases[f"{name}-{case}-gz"] = (index, ".gz", lambda b, damage=damage: gzip.compress(damage(b)))
        cases[f"{name}-gz-truncated"] = (index, ".gz", lambda b: gzip.compress(b)[:20])
        cases[f"{name}-gz-corrupt"] = (index, ".gz", _corrupt_gz)
    return cases


IDX_DAMAGES = _idx_damages()


@pytest.mark.parametrize("case", list(IDX_DAMAGES))
def test_every_damaged_idx_file_exits_1_naming_its_pair(tmp_path, capsys, case):
    index, suffix, damage = IDX_DAMAGES[case]
    paths = [tmp_path / f"{name}{suffix}" for name, _, _ in IDX_LAYOUTS]
    for i, (path, payload) in enumerate(zip(paths, corpus.synthetic_idx_pair(1))):
        path.write_bytes(damage(payload) if i == index else gzip.compress(payload) if suffix else payload)
    argv = ["run-binary", "--images", str(paths[0]), "--labels", str(paths[1])]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"cannot load {paths[0]} and {paths[1]}: " in err
    assert "runtime failure" not in err
    assert not (tmp_path / "out").exists()


# --- run-binary ---------------------------------------------------------------


def test_run_binary_end_to_end_and_echo_reproduces(small_dir, tmp_path, capsys):
    first_out = tmp_path / "first"
    rc = main(
        [
            "run-binary",
            "--data-dir", str(small_dir),
            "--digits", "3",
            "--slices", "0",
            "--epochs", "2",
            "--seed", "7",
            "--w-fn", "500",
            "--w-fp", "50",
            "--jobs", "2",
            "--batch-size", "50",
            "--learning-rate", "0.002",
            "--out-dir", str(first_out),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "loaded 7000 examples from 2 file pair(s)" in out
    config = echoed_config(out)
    assert config["command"] == "run-binary"
    assert config["digits"] == [3]
    assert config["base_seed"] == 7
    assert config["w_mcfn"] == 500.0
    assert config["w_mcfp"] == 50.0
    assert config["jobs"] == 2
    assert config["batch_size"] == 50
    assert config["learning_rate"] == 0.002
    assert "data_dir" not in config
    assert len(config["images"]) == 2

    records = load_records(first_out / "records.jsonl")
    assert [r.model for r in records] == ["control1", "control2", "test"]
    csv_text = (first_out / "summary.csv").read_text()
    assert csv_text.startswith("Model,MeanFN,MeanFP,MeanTop1Error,MeanRealWorldCost\n")

    # Feeding the echoed config back reproduces the run, wall clock aside.
    config_path = tmp_path / "echoed.json"
    config_path.write_text(json.dumps(config))
    second_out = tmp_path / "second"
    rc = main(["--config", str(config_path), "run-binary", "--out-dir", str(second_out)])
    assert rc == 0
    second_config = echoed_config(capsys.readouterr().out)
    assert second_config == {**config, "out_dir": str(second_out)}
    assert records_match(records, load_records(second_out / "records.jsonl"))
    assert (second_out / "summary.csv").read_text() == csv_text


def test_run_binary_data_dir_from_env(small_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(DATA_DIR_ENV, str(small_dir))
    rc = main(
        [
            "run-binary",
            "--digits", "3",
            "--slices", "0",
            "--epochs", "1",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    assert len(load_records(tmp_path / "out" / "records.jsonl")) == 3


def test_run_binary_explicit_file_pairs(small_dir, tmp_path, capsys):
    rc = main(
        [
            "run-binary",
            "--images", str(small_dir / ALL_NAMES[0]),
            "--labels", str(small_dir / ALL_NAMES[1]),
            "--images", str(small_dir / ALL_NAMES[2]),
            "--labels", str(small_dir / ALL_NAMES[3]),
            "--digits", "3",
            "--slices", "0",
            "--epochs", "1",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "loaded 7000 examples from 2 file pair(s)" in out
    config = echoed_config(out)
    assert (config["w_mcfn"], config["w_mcfp"]) == (2000.0, 100.0)


@pytest.mark.parametrize("command", ["run-binary", "run-categorical"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_data_dir_beside_explicit_files_exits_1_before_the_echo(small_dir, tmp_path, capsys, command, source):
    # Two data sources are ambiguous, so neither may win without a word.
    files = ["--images", str(small_dir / ALL_NAMES[0]), "--labels", str(small_dir / ALL_NAMES[1])]
    if source == "flag":
        argv = [command, "--data-dir", "/nonexistent", *files]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"data_dir": "/nonexistent"}))
        argv = ["--config", str(path), command, *files]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "two data sources: data_dir '/nonexistent' and images/labels" in captured.err
    assert ECHO_PREFIX not in captured.out
    assert not (tmp_path / "out").exists()


def test_the_data_dir_environment_default_gives_way_to_explicit_files(small_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(DATA_DIR_ENV, "/nonexistent")
    files = [f"--{kind}={small_dir / name}" for kind, name in zip(("images", "labels") * 2, ALL_NAMES)]
    rc = main(["run-binary", *files, "--digits", "3", "--epochs", "1", "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert "loaded 7000 examples from 2 file pair(s)" in capsys.readouterr().out


def test_run_binary_fails_when_positives_run_out(small_dir, tmp_path, capsys):
    # The train pair alone holds ~600 examples per digit, under one slice's 630.
    rc = main(
        [
            "run-binary",
            "--images", str(small_dir / ALL_NAMES[0]),
            "--labels", str(small_dir / ALL_NAMES[1]),
            "--digits", "3",
            "--slices", "0",
            "--epochs", "1",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_run_binary_rejects_unpaired_files(small_dir, tmp_path, capsys):
    rc = main(
        [
            "run-binary",
            "--images", str(small_dir / ALL_NAMES[0]),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "matching pairs" in capsys.readouterr().err


def test_run_binary_rejects_digit_gibberish(capsys):
    assert main(["run-binary", "--digits", "abc"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_binary_needs_a_data_source(capsys):
    assert main(["run-binary", "--digits", "3"]) == 1
    assert "no data source" in capsys.readouterr().err


# --- run-categorical ------------------------------------------------------------


def test_run_categorical_single_pair(small_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(
        [
            "run-categorical",
            "--data-dir", str(small_dir),
            "--pairs", "4:9",
            "--epochs", "1",
            "--seed", "3",
            "--pair-weight", "10",
            "--off-pair-cost", "2",
            "--out-dir", str(out_dir),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    config = echoed_config(out)
    assert config["pairs"] == [[4, 9]]
    assert config["base_seed"] == 3
    assert config["pair_weight"] == 10.0
    assert config["off_pair_cost"] == 2.0
    records = load_records(out_dir / "records.jsonl")
    assert [r.model for r in records] == ["control", "experimental"]
    csv_text = (out_dir / "summary.csv").read_text()
    assert csv_text.startswith("Model,MeanHighCostCount,MeanTop1Error,MeanRealWorldCost\n")
    assert "control" in out and "experimental" in out


def test_run_categorical_default_sampled_pairs(small_dir, tmp_path, capsys):
    rc = main(
        [
            "run-categorical",
            "--data-dir", str(small_dir),
            "--epochs", "1",
            "--seed", "3",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    config = echoed_config(capsys.readouterr().out)
    assert config["pairs"] == [[a, b] for a, b in sample_pairs(10, 3)]
    assert (config["pair_weight"], config["off_pair_cost"]) == (19.0, 1.0)
    assert len(load_records(tmp_path / "out" / "records.jsonl")) == 20


def test_run_categorical_rejects_self_pair(small_dir, tmp_path, capsys):
    rc = main(
        [
            "run-categorical",
            "--data-dir", str(small_dir),
            "--pairs", "3:3",
            "--epochs", "1",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "distinct classes" in capsys.readouterr().err


def test_run_categorical_rejects_bad_pair_text(capsys):
    assert main(["run-categorical", "--pairs", "4-9"]) == 1
    assert "bad pair" in capsys.readouterr().err


# --- selection grammar -----------------------------------------------------------


def stopped_before_training(small_dir, tmp_path, capsys, monkeypatch, argv):
    """(echoed config, configs handed to run_trials) of a suite command whose
    run_trials is stubbed to record its configs and stop before any training."""
    ran = []

    def run(configs, raw, jobs=1):
        ran.extend(configs)
        raise ValueError("stopped before training")

    monkeypatch.setattr(cli, "run_trials", run)
    assert main([*argv, "--data-dir", str(small_dir), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "runtime failure: stopped before training\n"
    return echoed_config(captured.out), ran


@pytest.mark.parametrize("text, digits", [("0-2,5", [0, 1, 2, 5]), (" 3, ,7", [3, 7])])
def test_digits_are_numbers_and_ranges_between_commas(
    small_dir, tmp_path, capsys, monkeypatch, text, digits
):
    argv = ["run-binary", "--digits", text]
    echoed, ran = stopped_before_training(small_dir, tmp_path, capsys, monkeypatch, argv)
    assert echoed["digits"] == digits
    assert [cfg.digit for cfg in ran] == digits


def test_pairs_all_as_a_flag_selects_every_ordered_pair(small_dir, tmp_path, capsys, monkeypatch):
    argv = ["run-categorical", "--pairs", "all"]
    echoed, ran = stopped_before_training(small_dir, tmp_path, capsys, monkeypatch, argv)
    pairs = [(cfg.fn_class, cfg.fp_class) for cfg in ran]
    assert len(pairs) == len(set(pairs)) == 90
    assert echoed["pairs"] == [list(pair) for pair in pairs]


@pytest.mark.parametrize("argv, slices", [([], [0]), (["--slices", "0-9"], range(10))], ids=["default", "full"])
def test_run_binary_selects_every_digit_on_its_slices(small_dir, tmp_path, capsys, monkeypatch, argv, slices):
    # The small pool has too few of each digit for slice 9, so the pool check is stubbed.
    monkeypatch.setattr(cli, "check_trials", lambda configs, raw: None)
    argv = ["run-binary", *argv]
    echoed, ran = stopped_before_training(small_dir, tmp_path, capsys, monkeypatch, argv)
    assert (echoed["digits"], echoed["slices"]) == (list(range(10)), list(slices))
    cost = experiments.DEFAULT_BINARY_COST
    assert ran == experiments.binary_trial_configs(range(10), slices, 0, cost, None)
    assert len(ran) == 10 * len(slices)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run-binary", "--digits", "5-3"], "empty range '5-3'"),
        (["run-binary", "--digits", ","], "no integers in ','"),
        (["run-categorical", "--pairs", ","], "no pairs in ','"),
    ],
)
def test_a_selection_that_selects_nothing_exits_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert ECHO_PREFIX not in captured.out


@pytest.mark.parametrize(
    "argv, text, values",
    [
        (["--digits", "0-2000000"], "0-2000000", 2_000_001),
        (["--digits", "3", "--slices", "0-20000"], "0-20000", 20_001),
    ],
)
def test_a_range_wider_than_the_limit_exits_1_before_expanding(capsys, argv, text, values):
    assert main(["run-binary", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: range {text!r} holds {values} values, more than {cli.RANGE_LIMIT}\n"
    assert ECHO_PREFIX not in captured.out


def test_the_range_limit_admits_a_range_of_exactly_that_many_values(capsys):
    # 0..999 passes the grammar and is then refused by the digit check.
    assert main(["run-binary", "--digits", f"0-{cli.RANGE_LIMIT - 1}"]) == 1
    assert capsys.readouterr().err == "error: digit must be 0..9, got 10\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nope"],
        ["run-binary", "--bogus"],
        ["run-binary", "--epochs", "abc"],
        ["run-categorical", "--scale", "full"],
    ],
    ids=["no-subcommand", "unknown-subcommand", "unknown-flag", "bad-int", "removed-scale-flag"],
)
def test_an_argument_error_exits_1_without_an_echo(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert ECHO_PREFIX not in captured.out


@pytest.mark.parametrize(
    "command, builder, selection",
    [
        ("run-binary", "binary_trial_configs", ["--digits", "3,5"]),
        ("run-categorical", "categorical_trial_configs", ["--pairs", "4:9,1:7"]),
    ],
)
def test_a_suite_runs_the_very_configs_it_checked_against_the_pool(
    small_dir, tmp_path, monkeypatch, command, builder, selection
):
    built, checked, ran = [], [], []
    real_build, real_run = getattr(experiments, builder), cli.run_trials

    def build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def run(configs, raw, jobs=1):
        ran.extend(configs)
        return real_run(configs, raw, jobs)

    def recording(check_pool):
        def check(cfg, raw):
            checked.append(cfg)
            return check_pool(cfg, raw)

        return check

    for module in (cli, experiments):  # the suite functions look the builders up in experiments
        monkeypatch.setattr(module, builder, build)
    monkeypatch.setattr(cli, "run_trials", run)
    for cls in (BinaryTrialConfig, CategoricalTrialConfig):
        monkeypatch.setattr(cls, "check_pool", recording(cls.check_pool))
    argv = [command, "--data-dir", str(small_dir), *selection, "--epochs", "1"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 0
    assert len(built) == 1 and len(built[0]) == 2
    assert len(checked) == len(ran) == 2
    assert all(a is b is c for a, b, c in zip(built[0], checked, ran))


# --- exit codes -------------------------------------------------------------------


@pytest.mark.parametrize(
    "command, selection",
    [("run-binary", ["--digits", "3"]), ("run-categorical", ["--pairs", "4:9"])],
)
def test_an_internal_value_error_exits_2(
    small_dir, tmp_path, capsys, monkeypatch, command, selection
):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "run_trials", boom)
    argv = [command, "--data-dir", str(small_dir), *selection, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "runtime failure: boom" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, selection, costs",
    [
        ("run-binary", ["--digits", "3", "--slices", "0"], "w_mcfn 2000.0, w_mcfp 100.0"),
        ("run-categorical", ["--pairs", "4:9"], "pair_weight 19.0, off_pair_cost 1.0"),
    ],
    ids=["run-binary", "run-categorical"],
)
def test_diverged_training_exits_1_naming_its_settings(
    small_dir, tmp_path, capsys, command, selection, costs
):
    argv = [command, "--data-dir", str(small_dir), *selection, "--epochs", "1"]
    assert main([*argv, "--learning-rate", "1e300", "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert err == (
        "error: training loss became non-finite: nan; lower the learning rate or the costs "
        f"(learning_rate 1e+300, {costs})\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run-binary", "--digits", "11"], "digit must be 0..9, got 11"),
        (["run-categorical", "--pairs", "3:3"], "distinct classes"),
        (["run-categorical", "--pairs", "4:9", "--pair-weight", "-1"], "pair_weight must be >= 0, got -1.0"),
        (["run-categorical", "--pairs", "4:9", "--off-pair-cost", "inf"], "off_pair_cost must be finite, got inf"),
        (["run-binary", "--epochs", "0"], "epochs must be >= 1"),
        (["run-binary", "--w-fn", "-1"], "fn_cost must be >= 0, got -1.0"),
        (["run-binary", "--seed", "-1"], "base_seed must be >= 0, got -1"),
        (["run-categorical", "--seed", "-2"], "base_seed must be >= 0, got -2"),
        (["run-binary", "--learning-rate", "inf"], "learning_rate must be finite"),
    ],
)
def test_selection_and_cost_errors_exit_1_before_loading(small_dir, tmp_path, capsys, argv, message):
    rc = main([*argv, "--data-dir", str(small_dir), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "loaded" not in captured.out
    assert ECHO_PREFIX not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key", [("run-binary", "digits"), ("run-categorical", "pairs")])
def test_an_empty_selection_exits_1(small_dir, tmp_path, capsys, command, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: [], "data_dir": str(small_dir)}))
    assert main(["--config", str(path), command]) == 1
    captured = capsys.readouterr()
    assert "no trials requested" in captured.err
    assert "loaded" not in captured.out


def test_a_slice_the_pool_cannot_fill_exits_1_before_any_trial(small_dir, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_trials", lambda *a, **k: calls.append(a))
    rc = main(["run-binary", "--data-dir", str(small_dir), "--digits", "3", "--slices", "0,1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "slice 1 needs at least 1260" in captured.err
    assert "loaded 7000 examples" in captured.out
    assert calls == []


def test_a_pool_too_small_to_split_exits_1(tmp_path, capsys):
    images, labels = tmp_path / "images", tmp_path / "labels"
    for path, payload in zip((images, labels), corpus.synthetic_idx_pair(3)):
        path.write_bytes(payload)
    argv = ["run-categorical", "--images", str(images), "--labels", str(labels), "--pairs", "4:9"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    assert "dataset of 30 examples is too small to split" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, selection",
    [("run-binary", ["--digits", "3", "--epochs", "1"]), ("run-categorical", ["--pairs", "4:9"])],
)
def test_an_out_dir_that_cannot_be_made_exits_1_before_any_trial(
    small_dir, tmp_path, capsys, monkeypatch, command, selection
):
    calls = []
    monkeypatch.setattr(cli, "run_trials", lambda *a, **k: calls.append(a))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([command, "--data-dir", str(small_dir), *selection, "--out-dir", str(taken)]) == 1
    assert f"File exists: '{taken}'" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bernoulli", "--n-pos", "-1"], "n_pos must be >= 0, got -1"),
        (["bernoulli", "--w-neg", "0"], "w_neg must be > 0, got 0.0"),
        (["bernoulli", "--p0", "1.5"], "p0 must be < 1, got 1.5"),
        (["bernoulli", "--iterations", "0"], "iterations must be >= 1"),
        (["gradcheck", "--instances", "0"], "instances must be >= 1, got 0"),
        (["gradcheck", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["gradcheck", "--step", "0"], "step must be > 0, got 0.0"),
        (["gradcheck", "--step", "inf"], "step must be finite, got inf"),
        (["gradcheck", "--tolerance", "inf"], "tolerance must be finite, got inf"),
        (["bernoulli", "--step", "inf"], "step must be finite"),
        (["bernoulli", "--w-pos", "inf"], "w_pos must be finite, got inf"),
        (["bernoulli", "--w-pos", "1e308", "--w-neg", "1e308"], "total weight w_pos*n_pos"),
        (["bernoulli", "--n-pos", "1" + "0" * 400], "total weight w_pos*n_pos"),
        (["gradcheck", "--tolerance", "0"], "tolerance must be > 0, got 0.0"),
        (["gradcheck", "--tolerance", "-1"], "tolerance must be > 0, got -1.0"),
    ],
)
def test_demo_argument_errors_exit_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert ECHO_PREFIX not in captured.out  # rejected before the echo and any work


# --- config files ----------------------------------------------------------------


@pytest.mark.parametrize("command, key", [("run-binary", "bogus"), ("run-categorical", "scale")])
def test_unknown_config_key_is_an_error(tmp_path, capsys, command, key):
    # scale was a trial-count preset; a config saved with it is refused, not ignored.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"command": command, key: "full"}))
    assert main(["--config", str(path), command]) == 1
    captured = capsys.readouterr()
    assert f"unknown config key {key!r}" in captured.err
    assert ECHO_PREFIX not in captured.out


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        ("bernoulli", "n_pos", [1], "n_pos must be an integer, got [1]"),
        ("run-binary", "epochs", [1], "epochs must be an integer, got [1]"),
        ("run-binary", "epochs", 1.5, "epochs must be an integer, got 1.5"),
        ("run-binary", "w_mcfn", "500", "w_mcfn must be a number, got '500'"),
        ("run-binary", "out_dir", 5, "config key 'out_dir' expects str, got 5"),
        ("run-binary", "digits", 3, "config key 'digits' expects list, got 3"),
        ("run-categorical", "pairs", "4:9", "config key 'pairs' expects list, got '4:9'"),
        ("gradcheck", "tolerance", None, "tolerance must be a number, got None"),
        ("gradcheck", "instances", True, "instances must be an integer, got True"),
        ("run-binary", "w_mcfn", False, "w_mcfn must be a number, got False"),
        ("run-binary", "digits", [True], "digits must be an integer, got True"),
        ("run-binary", "data_dir", 5, "config key 'data_dir' expects str, got 5"),
        ("verify-data", "data_dir", 5, "config key 'data_dir' expects str, got 5"),
        ("bernoulli", "curve", 5, "config key 'curve' expects str, got 5"),
        ("run-categorical", "images", "ab", "config key 'images' expects list, got 'ab'"),
        ("run-binary", "labels", "cd", "config key 'labels' expects list, got 'cd'"),
        ("run-binary", "images", ["a", 5], "config key 'images' expects str, got 5"),
        ("run-categorical", "pairs", [[1, 2, 3]], "config key 'pairs' expects pairs of two int, got [[1, 2, 3]]"),
        ("run-categorical", "pairs", [[1]], "config key 'pairs' expects pairs of two int, got [[1]]"),
    ],
)
def test_wrongly_typed_config_value_is_an_error(tmp_path, capsys, command, key, value, message):
    # A number is refused in data.check_int's or check_real's words, anything else in the CLI's.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"command": command, key: value}))
    assert main(["--config", str(path), command]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert ECHO_PREFIX not in captured.out  # rejected before the echo and any work


@pytest.mark.parametrize(
    "command, key, text",
    [
        ("run-binary", "epochs", "Infinity"),
        ("bernoulli", "iterations", "1e400"),
        ("run-categorical", "base_seed", "-Infinity"),
        ("run-binary", "digits", "[Infinity]"),
        ("run-categorical", "pairs", "[[1e400, 1]]"),
    ],
)
def test_a_config_number_too_large_for_an_int_is_an_error(tmp_path, capsys, command, key, text):
    path = tmp_path / "config.json"
    path.write_text(f'{{"{key}": {text}}}')
    assert main(["--config", str(path), command]) == 1
    captured = capsys.readouterr()
    assert f"error: {key} must be an integer, got " in captured.err
    assert ECHO_PREFIX not in captured.out  # rejected before the echo and any work


@pytest.mark.parametrize("command", ["run-binary", "run-categorical"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_jobs_below_one_is_an_error(tmp_path, capsys, command, source):
    if source == "flag":
        argv = [command, "--jobs", "0"]
        value = 0
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"jobs": -3}))
        argv = ["--config", str(path), command]
        value = -3
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: jobs must be >= 1, got {value}\n"
    assert ECHO_PREFIX not in captured.out  # rejected before the echo and any data source


@pytest.mark.parametrize(
    "command, key, flag, text, value",
    [
        ("run-binary", "jobs", "--jobs", "0", 0),
        ("run-categorical", "base_seed", "--seed", "-1", -1),
        ("gradcheck", "seed", "--seed", "-1", -1),
        ("gradcheck", "instances", "--instances", "0", 0),
        ("gradcheck", "step", "--step", "inf", float("inf")),
        ("gradcheck", "tolerance", "--tolerance", "0", 0.0),
        ("bernoulli", "curve_points", "--curve-points", "1", 1),
    ],
)
def test_a_checked_setting_fails_alike_from_a_flag_and_a_config(
    tmp_path, capsys, command, key, flag, text, value
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    errors = []
    for argv in ([command, flag, text], ["--config", str(path), command]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert ECHO_PREFIX not in captured.out  # rejected before the echo and any data source
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith((f"error: {key} must be ", f"error: config key {key!r} expects "))


# A value just outside each kind of bound a row may pass to check_int or check_real.
OUTSIDE = {
    "least": lambda bound: bound - 1,
    "above": lambda bound: bound,
    "below": lambda bound: bound,
    "most": lambda bound: bound + 1,
}


def refused_values(row):
    """Values the row's bounds and kind must refuse, whatever its command."""
    values = [True, {"wrong": "type"}]  # a JSON boolean and a JSON type no kind takes
    values += [OUTSIDE[keyword](bound) for keyword, bound in row.bounds.items()]
    if row.kind is cli.FLOAT:
        values += [math.nan, math.inf, 10**400]  # the last an integer literal beyond float range
    return values


SETTING_ROWS = [(command, row) for command, (_, rows, _) in cli.COMMANDS.items() for row in rows]


@pytest.mark.parametrize(
    "command, row", SETTING_ROWS, ids=[f"{command}-{row.key}" for command, row in SETTING_ROWS]
)
def test_every_setting_refuses_what_its_row_refuses(tmp_path, capsys, command, row):
    # Generated from cli.COMMANDS, so a row added later is swept with no new
    # test.  Each value goes in by --config and, where it can be typed, by
    # the row's flag; every one must exit 1 naming the key before the echo
    # (and so before any data is loaded or any training starts).
    path = tmp_path / "config.json"
    failures = []
    for value in refused_values(row):
        path.write_text(json.dumps({row.key: value}))
        attempts = [["--config", str(path), command]]
        if row.flag is not None and not isinstance(value, (bool, dict)):
            attempts.append([command, f"{row.flag}={value}"])
        for argv in attempts:
            rc = main(argv)
            captured = capsys.readouterr()
            if rc != 1 or row.key not in captured.err or ECHO_PREFIX in captured.out:
                failures.append((argv[-1], value, rc, captured.err))
    assert failures == []


WHOLE_NUMBER_ROWS = [(command, row) for command, row in SETTING_ROWS if row.kind in (cli.INT, cli.INTS, cli.PAIRS)]


@pytest.mark.parametrize(
    "command, row", WHOLE_NUMBER_ROWS, ids=[f"{command}-{row.key}" for command, row in WHOLE_NUMBER_ROWS]
)
def test_a_float_for_a_whole_number_key_exits_1(tmp_path, capsys, command, row):
    # {"iterations": 10.0} once ran; the library's rule, which the CLI now
    # shares, refuses a float for a whole number even when it is whole.
    item = 10.0  # refused as a float before any range check, so one value serves every row
    value = item if row.kind is cli.INT else [item] if row.kind is cli.INTS else [[item, 9]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({row.key: value}))
    assert main(["--config", str(path), command]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {row.key} must be an integer, got {item!r}\n"
    assert ECHO_PREFIX not in captured.out


def test_a_config_written_for_another_command_is_an_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"command": "gradcheck"}))
    assert main(["--config", str(path), "bernoulli"]) == 1
    captured = capsys.readouterr()
    assert f"config file {path} is for 'gradcheck', not 'bernoulli'" in captured.err
    assert ECHO_PREFIX not in captured.out


@pytest.mark.parametrize("command", ["bernoulli", "gradcheck", "verify-data"])
def test_an_echo_fed_back_as_config_reproduces_the_run(mnist_dir, tmp_path, capsys, command):
    flags = {
        "bernoulli": ["--iterations", "10"],
        "gradcheck": ["--instances", "1"],
        "verify-data": ["--data-dir", str(mnist_dir)],
    }
    assert main([command, *flags[command]]) == 0
    first = capsys.readouterr().out
    config = echoed_config(first)
    assert config["command"] == command
    path = tmp_path / "echoed.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), command]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "command", ["verify-data", "run-binary", "run-categorical", "bernoulli", "gradcheck"]
)
def test_each_subcommand_has_help(capsys, command):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: rwwce {command} [-h]")


@pytest.mark.parametrize("command", ["verify-data", "run-binary", "run-categorical"])
def test_data_dir_help_names_its_environment_default(capsys, command):
    assert main([command, "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    expected = f"directory with the standard corpus files (default ${DATA_DIR_ENV})"
    assert f"--data-dir DATA_DIR {expected}" in help_text


def test_malformed_config_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{oops")
    assert main(["--config", str(path), "run-binary"]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert main(["--config", str(path), "gradcheck"]) == 1
    assert f"cannot read config file {path}" in capsys.readouterr().err


def test_config_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    assert main(["--config", str(path), "bernoulli"]) == 1
    assert "JSON object" in capsys.readouterr().err


# --- gradcheck -------------------------------------------------------------------


def test_gradcheck_passes_at_default_tolerance(capsys):
    assert main(["gradcheck", "--instances", "2"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "max relative error" in l]
    assert len(lines) == 6
    assert all(l.endswith(" ok") for l in lines)
    assert "all 6 loss variants pass" in out


def test_gradcheck_fails_at_absurd_tolerance(capsys):
    rc = main(["gradcheck", "--instances", "2", "--tolerance", "1e-14"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "gradient check FAILED" in captured.err


# --- bernoulli -------------------------------------------------------------------


def test_bernoulli_default_run(capsys):
    assert main(["bernoulli"]) == 0
    out = capsys.readouterr().out
    assert "closed-form minimizer: 0.9" in out
    assert "gradient descent result:" in out
    assert "likelihood argmax:" in out


def test_bernoulli_weighted_run(capsys):
    rc = main(
        [
            "bernoulli",
            "--n-pos", "1",
            "--n-neg", "1",
            "--w-pos", "18",
            "--w-neg", "2",
            "--p0", "0.3",
            "--step", "0.02",
            "--iterations", "5000",
            "--curve-points", "9",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "closed-form minimizer: 0.9" in out
    assert echoed_config(out) == {
        "command": "bernoulli",
        "n_pos": 1,
        "n_neg": 1,
        "w_pos": 18.0,
        "w_neg": 2.0,
        "p0": 0.3,
        "step": 0.02,
        "iterations": 5000,
        "curve": None,
        "curve_points": 9,
    }


def test_bernoulli_curve_csv(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    assert main(["bernoulli", "--curve", str(path)]) == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "p,loss"
    assert len(lines) == 100  # header plus the default 99 interior points
    grid = [float(line.split(",")[0]) for line in lines[1:]]
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] == pytest.approx(0.99)
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    assert min(losses) == losses[grid.index(min(grid, key=lambda p: abs(p - 0.9)))]


def test_bernoulli_curve_memory_does_not_grow_with_its_points(tmp_path, capsys):
    # Each row is written as it is computed: holding 200,000 rows and their CSV text took 48 MB.
    path = tmp_path / "curve.csv"
    tracemalloc.start()
    try:
        assert main(["bernoulli", "--curve", str(path), "--curve-points", "200000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak
    assert len(path.read_text().splitlines()) == 200_001


def test_bernoulli_rejects_tiny_curve(tmp_path, capsys):
    rc = main(["bernoulli", "--curve", str(tmp_path / "c.csv"), "--curve-points", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "curve_points" in captured.err
    assert ECHO_PREFIX not in captured.out
    assert "minimizer" not in captured.out and "likelihood" not in captured.out
    assert not (tmp_path / "c.csv").exists()


def test_a_bernoulli_step_above_1_fails_alike_from_a_flag_and_a_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"step": 1.5}))
    for argv in (["bernoulli", "--step", "1.5"], ["--config", str(path), "bernoulli"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: step must be <= 1, got 1.5\n"
        assert ECHO_PREFIX not in captured.out


def descent_result(out: str) -> float:
    line = next(l for l in out.splitlines() if l.startswith("gradient descent result: "))
    return float(line.split()[3])


@pytest.mark.parametrize(
    "flags, closed",
    [
        ([], 0.9),
        (["--n-pos", "1", "--n-neg", "100000"], 1 / 100_001),
        (["--n-pos", "100000", "--n-neg", "1"], 100_000 / 100_001),
        (["--n-pos", "0"], 0.0),
        (["--n-neg", "0"], 1.0),
        (["--step", "1", "--iterations", "1"], 0.9),
    ],
    ids=["default", "near-0", "near-1", "at-0", "at-1", "one-full-step"],
)
def test_bernoulli_descent_lands_on_the_closed_form(capsys, flags, closed):
    assert main(["bernoulli", *flags]) == 0
    out = capsys.readouterr().out
    assert f"closed-form minimizer: {closed!r}" in out
    assert abs(descent_result(out) - closed) < 1e-12


@pytest.mark.parametrize("flag", ["--n-neg", "--n-pos"])
def test_bernoulli_with_one_outcome_unobserved_passes_its_cross_check(capsys, flag):
    assert main(["bernoulli", flag, "0", "--iterations", "10"]) == 0
    captured = capsys.readouterr()
    assert "likelihood argmax:" in captured.out
    assert captured.err == ""


# --- README examples -------------------------------------------------------------

README_LINES = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()


def readme_block(command: str) -> list[str]:
    """The output lines the README shows under "$ <command>" in a text block."""
    start = README_LINES.index(f"$ {command}") + 1
    return README_LINES[start : README_LINES.index("```", start)]


def readme_commands() -> list[str]:
    """Each rwwce command line of a README code block, without its "$ " prompt or "# comment"."""
    commands, in_block = [], False
    for line in README_LINES:
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.removeprefix("$ ").startswith("rwwce "):
            commands.append(line.removeprefix("$ ").split("#", 1)[0].strip())
    return commands


@pytest.mark.parametrize("line", readme_commands())
def test_every_readme_command_parses(line):
    # A flag the CLI has dropped fails here until the README stops naming it.
    cli._build_parser().parse_args(shlex.split(line)[1:])


@pytest.mark.parametrize(
    "argv", [["gradcheck", "--instances", "2"], ["bernoulli"]], ids=["gradcheck", "bernoulli"]
)
def test_readme_quick_look_matches_the_output(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == readme_block(" ".join(["rwwce", *argv]))


def test_readme_library_example_runs(mnist_dir, monkeypatch, capsys):
    # The example loads the standard files by name from the working directory.
    start = README_LINES.index("```python", README_LINES.index("## Library")) + 1
    code = "\n".join(README_LINES[start : README_LINES.index("```", start)])
    monkeypatch.chdir(mnist_dir)
    exec(compile(code, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) >= 0.0
