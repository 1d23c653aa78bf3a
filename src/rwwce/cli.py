"""Command-line interface.

Subcommands: verify-data (check an MNIST-layout corpus against the published
byte lengths and load it), run-binary and run-categorical (the experiment
suites), bernoulli (the one-parameter weighted-MLE demonstration), and
gradcheck (finite-difference validation of every loss gradient).

Each subcommand's settings are a tuple of Setting rows, from which its parser,
its resolution and its checks derive.  A setting takes its default, then its
value in a JSON config file given with --config, then its flag (whose dest is
the config key); the value is then cast and checked alike from either source.
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
experiments.run_trials.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .bernoulli import BernoulliScenario, check_descend_args, descend, likelihood_check, loss_curve
from .data import MNIST_FILE_BYTES, concat_corpora, load_idx, read_idx_file
from .experiments import (
    DEFAULT_BINARY_COST,
    DEFAULT_OFF_PAIR_COST,
    DEFAULT_PAIR_WEIGHT,
    all_ordered_pairs,
    binary_trial_configs,
    categorical_trial_configs,
    check_trials,
    run_binary_trial,
    run_categorical_trial,
    run_trials,
    sample_pairs,
    save_records,
    summary_table,
    summary_to_csv,
)
from .losses import BinaryCostModel
from .nn import TrainConfig, gradcheck_matrix

DATA_DIR_ENV = "RWWCE_DATA_DIR"

SCALES = ("desk", "full")


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


RANGE_LIMIT = 1000  # values a lo-hi range may hold: 100 times the ten full scale selects
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


def _cast(key: str, value, kind):
    """value as kind, refusing any value the cast would change ("5", 1.5, [1] or true as an int)."""
    try:
        cast = kind(value)
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        cast = None
    # bool is an int subclass, so int(True) == True: refuse JSON booleans outright.
    if cast is None or cast != value or (isinstance(value, bool) and kind is not bool):
        raise CliError(f"config key {key!r} expects {kind.__name__}, got {value!r}")
    return cast


def _list_of(key: str, value, kind) -> list:
    """value as a list of kind; a bad item is reported with the whole list."""
    if not isinstance(value, (list, tuple)):
        raise CliError(f"config key {key!r} expects list, got {value!r}")
    try:
        return [_cast(key, item, kind) for item in value]
    except CliError:
        raise CliError(f"config key {key!r} expects {kind.__name__}, got {value!r}") from None


def _pairs(key: str, value) -> list[list[int]]:
    """value as a list of (true, predicted) pairs of two int; "all" is every ordered pair."""
    if value == "all":
        value = all_ordered_pairs()
    pairs = [_list_of(key, pair, int) for pair in _cast(key, value, list)]
    if any(len(pair) != 2 for pair in pairs):
        raise CliError(f"config key {key!r} expects pairs of two int, got {value!r}")
    return pairs


class Kind(NamedTuple):
    """A setting's type: how a flag or config value is cast, and how argparse reads the flag."""

    cast: Callable[[str, object], object]
    flag: dict


INT = Kind(partial(_cast, kind=int), {"type": int})
FLOAT = Kind(partial(_cast, kind=float), {"type": float})
STR = Kind(partial(_cast, kind=str), {})
PATHS = Kind(partial(_list_of, kind=str), {"action": "append"})
INTS = Kind(partial(_list_of, kind=int), {"type": _parse_int_list})
PAIRS = Kind(_pairs, {"type": _parse_pairs})


@dataclass(frozen=True)
class Setting:
    """One setting of one subcommand.  key is its config key and its flag's dest;
    a None flag means config-only, and a None default lets the value stay None
    for the command to fill in.  Checks: least, positive (finite and > 0), choices."""

    key: str
    kind: Kind
    default: object = None
    flag: str | None = None
    least: int | None = None
    positive: bool = False
    choices: tuple[str, ...] | None = None
    help: str | None = None

    def check(self, value) -> None:
        """Raise CliError, saying what a valid value is, unless value is one."""
        if self.least is not None and value < self.least:
            expects = f"an integer >= {self.least}"
        elif self.positive and not math.isfinite(value):
            expects = "a finite number"
        elif self.positive and not value > 0:
            expects = "a number > 0"
        elif self.choices is not None and value not in self.choices:
            expects = f"one of {self.choices}"
        else:
            return
        raise CliError(f"config key {self.key!r} expects {expects}, got {value!r}")


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
        Setting("base_seed", INT, 0, "--seed", least=0, help="trial i uses base_seed + i"),
        Setting("jobs", INT, 1, "--jobs", least=1, help="parallel trial workers (threads)"),
        Setting("out_dir", STR, out_dir, "--out-dir"),
        Setting("scale", STR, "desk", "--scale", choices=SCALES, help="trial-count preset"),
    )


VERIFY_DATA = DATA[:1]

RUN_BINARY = DATA + TRAINING + _suite("runs/binary") + (
    Setting("digits", INTS, None, "--digits", help=f'digits to detect: {SELECTION}, e.g. "3,7" or "0-4"'),
    Setting("slices", INTS, None, "--slices", help=f'positive-slice indices: {SELECTION}, e.g. "0" or "0-9"'),
    Setting("w_mcfn", FLOAT, DEFAULT_BINARY_COST.fn_cost, "--w-fn", help="cost of a false negative"),
    Setting("w_mcfp", FLOAT, DEFAULT_BINARY_COST.fp_cost, "--w-fp", help="cost of a false positive"),
)

RUN_CATEGORICAL = DATA + TRAINING + _suite("runs/categorical") + (
    Setting("pairs", PAIRS, None, "--pairs", help='"all" or pairs like "1:7,3:5" (true:predicted)'),
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
    Setting("curve_points", INT, 99, "--curve-points", least=2),
)

GRADCHECK = (
    Setting("seed", INT, 0, "--seed", least=0),
    Setting("instances", INT, 4, "--instances", least=1, help="instances per loss variant"),
    Setting("step", FLOAT, 1e-5, "--step", positive=True),
    Setting("tolerance", FLOAT, 1e-5, "--tolerance", positive=True),
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
            value = row.kind.cast(row.key, value)
            row.check(value)
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
    """Fill resolved["images"]/["labels"] from explicit lists or a data dir."""
    images, labels = resolved.get("images"), resolved.get("labels")
    if images or labels:
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


def _load_pool(images: list[str], labels: list[str], read=read_idx_file):
    """Load each file pair with read (path -> payload) and concatenate them; a pair
    that fails to load is a CliError naming both of its files."""
    corpora = []
    for images_path, labels_path in zip(images, labels):
        with _user_input(prefix=f"cannot load {images_path} and {labels_path}: "):
            corpora.append(load_idx(read(images_path), read(labels_path)))
    return concat_corpora(*corpora)


def _train_template(resolved: dict) -> TrainConfig:
    """The TrainConfig of the training settings; each trial config's constructor sets its seed."""
    return TrainConfig(**{row.key: resolved[row.key] for row in TRAINING})


def _run_suite(resolved: dict, runner, configs, cost_keys: tuple[str, ...]) -> int:
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

    pool = _load_pool(resolved["images"], resolved["labels"])
    print(f"loaded {pool.size} examples from {len(resolved['images'])} file pair(s)")
    with _user_input():
        check_trials(configs, pool)
    out_dir = Path(resolved["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        summary, records = run_trials(runner, configs, pool, resolved["jobs"])
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

    pool = _load_pool(images, labels, read=payloads.pop)
    classes = len(set(pool.labels.tolist()))
    print(f"pool: {pool.size} examples, {classes} classes: ok")
    return 0


def cmd_run_binary(resolved: dict) -> int:
    presets = {"digits": range(10), "slices": range(10 if resolved["scale"] == "full" else 1)}
    for key, preset in presets.items():
        if resolved[key] is None:
            resolved[key] = list(preset)
    costs = ("w_mcfn", "w_mcfp")
    # BinaryCostModel names its own fields, fn_cost and fp_cost, not these keys.
    with _user_input(f" ({_settings(resolved, costs)})"):
        cost = BinaryCostModel(resolved["w_mcfn"], resolved["w_mcfp"])
    with _user_input():
        template = _train_template(resolved)
        configs = binary_trial_configs(
            resolved["digits"], resolved["slices"], resolved["base_seed"], cost, template
        )
    return _run_suite(resolved, run_binary_trial, configs, costs)


def cmd_run_categorical(resolved: dict) -> int:
    if resolved["pairs"] is None:
        full = resolved["scale"] == "full"
        resolved["pairs"] = _pairs("pairs", "all" if full else sample_pairs(10, resolved["base_seed"]))
    with _user_input():
        configs = categorical_trial_configs(
            resolved["pairs"], resolved["base_seed"], resolved["pair_weight"],
            resolved["off_pair_cost"], _train_template(resolved),
        )
    return _run_suite(resolved, run_categorical_trial, configs, ("pair_weight", "off_pair_cost"))


def cmd_bernoulli(resolved: dict) -> int:
    with _user_input():
        scenario = BernoulliScenario(
            resolved["n_pos"], resolved["n_neg"], resolved["w_pos"], resolved["w_neg"]
        )
        check_descend_args(resolved["p0"], resolved["step"], resolved["iterations"])
    _echo(resolved)

    descended = descend(
        scenario, p0=resolved["p0"], step=resolved["step"], iterations=resolved["iterations"]
    )
    likelihood_argmax, closed_form = likelihood_check(scenario)
    print(f"closed-form minimizer: {closed_form!r}")
    print(f"gradient descent result: {descended!r} (|diff| = {abs(descended - closed_form):.3e})")
    print(
        f"likelihood argmax: {likelihood_argmax!r} "
        f"(|diff| = {abs(likelihood_argmax - closed_form):.3e})"
    )

    if resolved["curve"]:
        points = resolved["curve_points"]
        grid = [(i + 1) / (points + 1) for i in range(points)]
        rows = loss_curve(scenario, grid)
        path = Path(resolved["curve"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "p,loss\n" + "".join(f"{p!r},{j!r}\n" for p, j in rows), encoding="utf-8"
        )
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
                # choices are checked with the row, as from a config file; --help still lists them
                metavar = "{" + ",".join(row.choices) + "}" if row.choices else None
                sub.add_argument(row.flag, dest=row.key, metavar=metavar, help=row.help, **row.kind.flag)
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
