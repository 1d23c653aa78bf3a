"""Command-line interface.

Subcommands: verify-data (check an MNIST-layout corpus against the published
byte lengths and load it), run-binary and run-categorical (the experiment
suites), bernoulli (the one-parameter weighted-MLE demonstration), and
gradcheck (finite-difference validation of every loss gradient).

Each subcommand's settings are a tuple of Setting rows, from which its parser,
its resolution and its checks derive.  A setting takes its default, then its
value in a JSON config file given with --config, then its flag (whose dest is
the config key); the value is then cast and checked alike from either source.
A number is checked by the library's own rule, data.check_int or
data.check_real, under its config key and with its row's bounds, so a bad
number reads the same whether the CLI or the library refuses it
("jobs must be >= 1, got 0"); a row without bounds checks only the type and
leaves the range to the library.
Every command echoes its fully resolved configuration, command included, as
one JSON line before doing any work; feeding that echoed object back via
--config reproduces the run, and a config naming another command is refused.

Exit codes: 0 success, 1 validation or configuration error, 2 runtime
failure (including a failed gradient check or a failed numeric cross-check).
User input is checked at this boundary, so any other ValueError is a fault
in the program and exits 2.  Training whose loss becomes non-finite exits 1,
naming the learning rate and the costs, the settings that drove it there.
A suite command builds its list of trial configs once from the settings,
checks each config against the loaded pool, and runs that same list with
experiments.run_trials, which runs each config's own trial: the config's type
says which.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .bernoulli import BernoulliScenario, check_descend_args, descend, likelihood_check, loss
from .data import MNIST_FILE_BYTES, check_int, check_real, load_pool, read_idx_file
from .experiments import (
    DEFAULT_BINARY_COST,
    DEFAULT_OFF_PAIR_COST,
    DEFAULT_PAIR_WEIGHT,
    all_ordered_pairs,
    binary_trial_configs,
    categorical_trial_configs,
    check_trials,
    run_trials,
    sample_pairs,
    save_records,
    summary_table,
    summary_to_csv,
)
from .losses import BinaryCostModel
from .nn import TrainConfig, gradcheck_matrix

DATA_DIR_ENV = "RWWCE_DATA_DIR"


class CliError(Exception):
    """A user-facing validation or configuration problem."""


@contextmanager
def _user_input(note: str = "", prefix: str = ""):
    """Report a ValueError or OSError from a setting or a corpus file as a CliError (exit 1)."""
    try:
        yield
    except (ValueError, OSError) as e:
        raise CliError(f"{prefix}{e}{note}") from e


def _settings(resolved: dict, keys) -> str:
    """The settings keys as "key value, ..." for a message about their joint effect."""
    return ", ".join(f"{key} {resolved[key]!r}" for key in keys)


class _Parser(argparse.ArgumentParser):
    """Raises a parse error as a CliError, which exits 1 like any other bad input (argparse exits 2)."""

    def error(self, message):
        raise CliError(message)


RANGE_LIMIT = 1000  # values a lo-hi range may hold: 100 times the ten that "0-9" selects
SELECTION = f"numbers and lo-hi ranges of at most {RANGE_LIMIT} values, comma-separated"


def _comma_list(text: str, parse_part, what: str) -> list:
    """The items parse_part lists for each non-blank comma-separated part of text; none is an error."""
    out = [item for part in text.split(",") if part.strip() for item in parse_part(part.strip())]
    if not out:
        raise CliError(f"no {what} in {text!r}")
    return out


def _int_part(part: str):
    if "-" not in part[1:]:  # a leading "-" is a sign: "-3" is a number, "-3-5" fails int("")
        return [int(part)]
    lo, hi = (int(bound) for bound in part.split("-", 1))
    if hi < lo:
        raise CliError(f"empty range {part!r}")
    if hi - lo >= RANGE_LIMIT:
        raise CliError(f"range {part!r} holds {hi - lo + 1} values, more than {RANGE_LIMIT}")
    return range(lo, hi + 1)


def _pair_part(part: str) -> list[tuple[int, int]]:
    try:
        a_text, b_text = part.split(":")
        return [(int(a_text), int(b_text))]
    except ValueError as e:
        raise CliError(f"bad pair {part!r}, expected k:k2") from e


def _parse_int_list(text: str) -> list[int]:
    """Parse "3", "0,2,5", and range forms like "0-9" (mixable with commas)."""
    try:
        return _comma_list(text, _int_part, "integers")
    except ValueError as e:
        raise CliError(f"bad integer list {text!r}: {e}") from e


def _parse_pairs(text: str) -> list[tuple[int, int]] | str:
    return "all" if text.strip() == "all" else _comma_list(text, _pair_part, "pairs")


def _cast(key: str, value, kind: type):
    """value, once it is a kind (str or list); numbers go through check_int and check_real."""
    if not isinstance(value, kind):
        raise CliError(f"config key {key!r} expects {kind.__name__}, got {value!r}")
    return value


def _list_of(key: str, value, check) -> list:
    """value as a list, each item passed through check(key, item)."""
    if not isinstance(value, (list, tuple)):
        raise CliError(f"config key {key!r} expects list, got {value!r}")
    return [check(key, item) for item in value]


def _pairs(key: str, value) -> list[list[int]]:
    """value as a list of (true, predicted) pairs of two int; "all" is every ordered pair."""
    if value == "all":
        value = all_ordered_pairs()
    pairs = [_list_of(key, pair, check_int) for pair in _cast(key, value, list)]
    if any(len(pair) != 2 for pair in pairs):
        raise CliError(f"config key {key!r} expects pairs of two int, got {value!r}")
    return pairs


class Kind(NamedTuple):
    """A setting's type: how a flag or config value is cast, and how argparse reads the flag."""

    cast: Callable[..., object]  # cast(key, value, **bounds)
    flag: dict


INT = Kind(check_int, {"type": int})
FLOAT = Kind(check_real, {"type": float})
STR = Kind(partial(_cast, kind=str), {})
PATHS = Kind(partial(_list_of, check=STR.cast), {"action": "append"})
INTS = Kind(partial(_list_of, check=INT.cast), {"type": _parse_int_list})
PAIRS = Kind(_pairs, {"type": _parse_pairs})


@dataclass(frozen=True)
class Setting:
    """One setting of one subcommand.  key is its config key and its flag's dest;
    a None flag means config-only, and a None default lets the value stay None
    for the command to fill in.  bounds are a number's check_int or check_real
    keywords."""

    key: str
    kind: Kind
    default: object = None
    flag: str | None = None
    bounds: dict = field(default_factory=dict)
    help: str | None = None


DATA = (
    Setting(
        "data_dir", STR, None, "--data-dir",
        help=f"directory with the standard corpus files (default ${DATA_DIR_ENV})",
    ),
    Setting("images", PATHS, None, "--images", help="IDX images file (repeat per file pair)"),
    Setting("labels", PATHS, None, "--labels", help="IDX labels file (repeat per file pair)"),
)

TRAIN_FLAGS = {"epochs": "--epochs", "batch_size": "--batch-size", "learning_rate": "--learning-rate"}

# Every TrainConfig field but the seed, which each suite derives per trial.
TRAINING = tuple(
    Setting(f.name, {int: INT, float: FLOAT}[type(f.default)], f.default, TRAIN_FLAGS.get(f.name))
    for f in fields(TrainConfig)
    if f.name != "seed"
)


def _suite(out_dir: str) -> tuple[Setting, ...]:
    """The settings both suites share after training's; out_dir's default differs."""
    return (
        Setting("base_seed", INT, 0, "--seed", bounds={"least": 0}, help="trial i uses base_seed + i"),
        Setting("jobs", INT, 1, "--jobs", bounds={"least": 1}, help="parallel trial workers (threads)"),
        Setting("out_dir", STR, out_dir, "--out-dir"),
    )


VERIFY_DATA = DATA[:1]

RUN_BINARY = DATA + TRAINING + _suite("runs/binary") + (
    Setting("digits", INTS, tuple(range(10)), "--digits", help=f"digits to detect: {SELECTION}"),
    Setting("slices", INTS, (0,), "--slices", help=f'positive-slice indices: {SELECTION}; "0-9" is all ten'),
    Setting("w_mcfn", FLOAT, DEFAULT_BINARY_COST.fn_cost, "--w-fn", help="cost of a false negative"),
    Setting("w_mcfp", FLOAT, DEFAULT_BINARY_COST.fp_cost, "--w-fp", help="cost of a false positive"),
)

RUN_CATEGORICAL = DATA + TRAINING + _suite("runs/categorical") + (
    Setting("pairs", PAIRS, None, "--pairs", help='"all" or pairs like "1:7,3:5" (true:predicted); default 10 by --seed'),
    Setting("pair_weight", FLOAT, DEFAULT_PAIR_WEIGHT, "--pair-weight", help="extra cost on the expensive cell"),
    Setting("off_pair_cost", FLOAT, DEFAULT_OFF_PAIR_COST, "--off-pair-cost", help="cost of every other error"),
)

# BernoulliScenario and check_descend_args check the first seven.
BERNOULLI = (
    Setting("n_pos", INT, 9, "--n-pos"),
    Setting("n_neg", INT, 1, "--n-neg"),
    Setting("w_pos", FLOAT, 1.0, "--w-pos"),
    Setting("w_neg", FLOAT, 1.0, "--w-neg"),
    Setting("p0", FLOAT, 0.5, "--p0"),
    Setting("step", FLOAT, 0.01, "--step"),
    Setting("iterations", INT, 100_000, "--iterations"),
    Setting("curve", STR, None, "--curve", help="write a p,loss CSV to this path"),
    Setting("curve_points", INT, 99, "--curve-points", bounds={"least": 2}),
)

GRADCHECK = (
    Setting("seed", INT, 0, "--seed", bounds={"least": 0}),
    Setting("instances", INT, 4, "--instances", bounds={"least": 1}, help="instances per loss variant"),
    Setting("step", FLOAT, 1e-5, "--step", bounds={"above": 0}),
    Setting("tolerance", FLOAT, 1e-5, "--tolerance", bounds={"above": 0}),
)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise CliError(f"config file {path} is not valid JSON: {e}") from e
    except OSError as e:
        raise CliError(f"cannot read config file {path}: {e}") from e
    if not isinstance(doc, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return doc


def _resolve(args, rows: tuple[Setting, ...]) -> dict:
    """defaults <- config file <- explicit flags, each value cast and checked by its row,
    plus the command; an unknown key or a config for another command is an error."""
    resolved = {row.key: row.default for row in rows}
    config = _load_config_file(args.config)
    command = config.pop("command", args.command)
    if command != args.command:
        raise CliError(f"config file {args.config} is for {command!r}, not {args.command!r}")
    for key, value in config.items():
        if key not in resolved:
            raise CliError(f"unknown config key {key!r}")
        resolved[key] = value
    for row in rows:
        flag = getattr(args, row.key, None)  # a config-only key has no flag
        value = resolved[row.key] if flag is None else flag
        if value is not None or row.default is not None:
            with _user_input():
                value = row.kind.cast(row.key, value, **row.bounds)
        resolved[row.key] = value
    resolved["command"] = args.command
    return resolved


def _echo(resolved: dict) -> None:
    print("resolved config: " + json.dumps(resolved, sort_keys=True))


def _standard_paths(data_dir: str) -> tuple[list[str], list[str]]:
    """Locate the four standard corpus files in a directory (.gz accepted)."""
    base = Path(data_dir)
    images, labels = [], []
    # MNIST_FILE_BYTES lists each images file followed by its labels file.
    for name, bucket in zip(MNIST_FILE_BYTES, (images, labels) * 2):
        found = [path for path in (base / name, base / f"{name}.gz") if path.exists()]
        if not found:
            raise CliError(f"missing corpus file {base / name} (or {name}.gz)")
        bucket.append(str(found[0]))
    return images, labels


def _resolve_data(resolved: dict) -> None:
    """Fill resolved["images"]/["labels"] from explicit lists or a data dir; an
    explicit data_dir beside the lists is an error, RWWCE_DATA_DIR only a default."""
    images, labels = resolved.get("images"), resolved.get("labels")
    if images or labels:
        if resolved.get("data_dir") is not None:
            raise CliError(f"two data sources: data_dir {resolved['data_dir']!r} and images/labels")
        if not images or not labels or len(images) != len(labels):
            raise CliError("images and labels must be given in matching pairs")
    else:
        data_dir = resolved.get("data_dir") or os.environ.get(DATA_DIR_ENV)
        if not data_dir:
            raise CliError(
                f"no data source: pass --images/--labels, --data-dir, or set ${DATA_DIR_ENV}"
            )
        images, labels = _standard_paths(data_dir)
    resolved["images"], resolved["labels"] = images, labels
    resolved.pop("data_dir", None)


def _train_template(resolved: dict) -> TrainConfig:
    """The TrainConfig of the training settings; each trial config's constructor sets its seed."""
    return TrainConfig(**{row.key: resolved[row.key] for row in TRAINING})


def _run_suite(resolved: dict, configs, cost_keys: tuple[str, ...]) -> int:
    """Echo the settings, load the pool, run the suite's trials and write its outputs.

    configs is the suite's whole trial list, built from the settings.
    check_trials raises ValueError for a trial the loaded pool cannot supply,
    so every trial is checked before the first one runs, and the output
    directory is made before any training; run_trials then runs that list.
    Training that diverges is a CliError naming the learning rate and the
    suite's cost settings, cost_keys.
    """
    if not configs:
        raise CliError("no trials requested")
    _resolve_data(resolved)
    _echo(resolved)

    with _user_input():
        pool = load_pool(zip(resolved["images"], resolved["labels"]))
    print(f"loaded {pool.size} examples from {len(resolved['images'])} file pair(s)")
    with _user_input():
        check_trials(configs, pool)
    out_dir = Path(resolved["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        summary, records = run_trials(configs, pool, resolved["jobs"])
    except FloatingPointError as e:
        settings = _settings(resolved, ("learning_rate", *cost_keys))
        raise CliError(f"{e}; lower the learning rate or the costs ({settings})") from e
    records_path = out_dir / "records.jsonl"
    csv_path = out_dir / "summary.csv"
    save_records(records, records_path)
    csv_path.write_text(summary_to_csv(summary), encoding="utf-8")
    print(f"wrote {records_path} and {csv_path}")
    print(summary_table(summary), end="")
    return 0


def cmd_verify_data(resolved: dict) -> int:
    resolved["data_dir"] = resolved["data_dir"] or os.environ.get(DATA_DIR_ENV)
    if not resolved["data_dir"]:
        raise CliError(f"pass --data-dir or set ${DATA_DIR_ENV}")
    _echo(resolved)

    images, labels = _standard_paths(resolved["data_dir"])
    # Each file is read once: its payload is both measured here and parsed
    # into the pool below.
    payloads = {}
    failures = 0
    for path_text in [p for pair in zip(images, labels) for p in pair]:
        name = Path(path_text).name.removesuffix(".gz")
        expected = MNIST_FILE_BYTES[name]
        with _user_input(prefix=f"cannot read {path_text}: "):
            payloads[path_text] = read_idx_file(path_text)
        actual = len(payloads[path_text])
        ok = actual == expected
        print(f"{name}: {actual} bytes (expected {expected}): {'ok' if ok else 'MISMATCH'}")
        failures += 0 if ok else 1
    if failures:
        raise CliError(f"{failures} file(s) failed the byte-length check")

    with _user_input():
        pool = load_pool(zip(images, labels), read=payloads.pop)
    classes = len(set(pool.labels.tolist()))
    print(f"pool: {pool.size} examples, {classes} classes: ok")
    return 0


def cmd_run_binary(resolved: dict) -> int:
    costs = ("w_mcfn", "w_mcfp")
    # BinaryCostModel names its own fields, fn_cost and fp_cost, not these keys.
    with _user_input(f" ({_settings(resolved, costs)})"):
        cost = BinaryCostModel(resolved["w_mcfn"], resolved["w_mcfp"])
    with _user_input():
        template = _train_template(resolved)
        configs = binary_trial_configs(
            resolved["digits"], resolved["slices"], resolved["base_seed"], cost, template
        )
    return _run_suite(resolved, configs, costs)


def cmd_run_categorical(resolved: dict) -> int:
    if resolved["pairs"] is None:
        resolved["pairs"] = _pairs("pairs", sample_pairs(10, resolved["base_seed"]))
    with _user_input():
        configs = categorical_trial_configs(
            resolved["pairs"], resolved["base_seed"], resolved["pair_weight"],
            resolved["off_pair_cost"], _train_template(resolved),
        )
    return _run_suite(resolved, configs, ("pair_weight", "off_pair_cost"))


def cmd_bernoulli(resolved: dict) -> int:
    with _user_input():
        scenario = BernoulliScenario(
            resolved["n_pos"], resolved["n_neg"], resolved["w_pos"], resolved["w_neg"]
        )
        descent = check_descend_args(resolved["p0"], resolved["step"], resolved["iterations"])
    _echo(resolved)

    descended = descend(scenario, *descent)
    likelihood_argmax, closed_form = likelihood_check(scenario)
    print(f"closed-form minimizer: {closed_form!r}")
    print(f"gradient descent result: {descended!r} (|diff| = {abs(descended - closed_form):.3e})")
    print(
        f"likelihood argmax: {likelihood_argmax!r} "
        f"(|diff| = {abs(likelihood_argmax - closed_form):.3e})"
    )

    if resolved["curve"]:
        points = resolved["curve_points"]
        path = Path(resolved["curve"])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:  # row by row: memory stays flat in points
            f.write("p,loss\n")
            for i in range(points):
                p = (i + 1) / (points + 1)
                f.write(f"{p!r},{loss(scenario, p)!r}\n")
        print(f"wrote {path}")

    if abs(likelihood_argmax - closed_form) > 1e-8:
        print("likelihood cross-check FAILED (disagreement above 1e-8)", file=sys.stderr)
        return 2
    return 0


def cmd_gradcheck(resolved: dict) -> int:
    _echo(resolved)

    worst_by_variant = gradcheck_matrix(
        seed=resolved["seed"], instances_per_variant=resolved["instances"], step=resolved["step"]
    )
    tolerance = resolved["tolerance"]
    for variant, worst in worst_by_variant.items():
        status = "ok" if worst < tolerance else "FAIL"
        print(f"{variant}: max relative error {worst:.3e} {status}")
    if not all(worst < tolerance for worst in worst_by_variant.values()):
        print("gradient check FAILED", file=sys.stderr)
        return 2
    print(f"all {len(worst_by_variant)} loss variants pass at tolerance {tolerance:g}")
    return 0


# Each subcommand's --help line, its settings and the handler that runs on them.
COMMANDS = {
    "verify-data": ("check a corpus against the published MNIST byte lengths", VERIFY_DATA, cmd_verify_data),
    "run-binary": ("imbalanced binary detection suite", RUN_BINARY, cmd_run_binary),
    "run-categorical": ("10-class expensive-confusion suite", RUN_CATEGORICAL, cmd_run_categorical),
    "bernoulli": ("weighted Bernoulli MLE demonstration", BERNOULLI, cmd_bernoulli),
    "gradcheck": ("finite-difference check of every loss gradient", GRADCHECK, cmd_gradcheck),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rwwce", description="Cost-sensitive classification toolkit")
    parser.add_argument("--config", help="JSON config file; flags override its values")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, rows, _) in COMMANDS.items():
        sub = commands.add_parser(name, help=summary)
        for row in rows:
            if row.flag is not None:
                sub.add_argument(row.flag, dest=row.key, help=row.help, **row.kind.flag)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _, rows, handler = COMMANDS[args.command]
        return handler(_resolve(args, rows))
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except (CliError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # a fault in the program, not in its input
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
