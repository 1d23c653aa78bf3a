"""Command-line interface.

Subcommands: verify-data (check an MNIST-layout corpus against the published
byte lengths and load it), run-binary and run-categorical (the experiment
suites), bernoulli (the one-parameter weighted-MLE demonstration), and
gradcheck (finite-difference validation of every loss gradient).

Settings resolve in three layers: built-in defaults, then a JSON config file
given with --config, then explicit flags.  Each flag is stored under its
config key (on the suites --seed is base_seed, --w-fn is w_mcfn and --w-fp
is w_mcfp), and every value takes the type of its default, or str (a list
of str for images and labels) for a path key whose default is None, so a
wrongly typed config value is a configuration error.  Every command echoes its fully
resolved configuration as one JSON line before doing any work; feeding that
echoed object back via --config reproduces the run.

Exit codes: 0 success, 1 validation or configuration error, 2 runtime
failure (including a failed gradient check or a failed numeric cross-check).
User input is checked at this boundary, so any other ValueError is a fault
in the program and exits 2.  A suite command builds its list of trial
configs once from the settings, checks each config against the loaded pool,
and runs that same list with experiments.run_trials.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import zlib
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .bernoulli import BernoulliScenario, analytic_minimizer, descend, likelihood_check, loss_curve
from .data import MNIST_FILE_BYTES, MNIST_TOTAL_EXAMPLES, concat_corpora, load_idx, read_idx_file
from .experiments import (
    DEFAULT_BINARY_COST,
    DEFAULT_OFF_PAIR_COST,
    DEFAULT_PAIR_WEIGHT,
    all_ordered_pairs,
    binary_trial_configs,
    categorical_trial_configs,
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

STANDARD_FILES = (
    ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
)

SCALES = ("desk", "full")

# Keys whose default is None that take a path (str) or a list of paths when
# given; the suites' selections are typed once their presets are filled in.
PATH_KEYS = ("data_dir", "curve")
PATH_LIST_KEYS = ("images", "labels")


class CliError(Exception):
    """A user-facing validation or configuration problem."""


@contextmanager
def _user_input():
    """Report a ValueError from checking user settings as a CliError (exit 1)."""
    try:
        yield
    except ValueError as e:
        raise CliError(str(e)) from e


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here is 1 for any
    # validation problem, so surface parse errors as CliError instead.
    def error(self, message):
        raise CliError(message)


def _parse_int_list(text: str) -> list[int]:
    """Parse "3", "0,2,5", and range forms like "0-9" (mixable with commas)."""
    out: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "-" in part[1:]:  # allow a leading minus sign to fail int() below
                lo_text, hi_text = part.split("-", 1)
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    raise CliError(f"empty range {part!r}")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(part))
    except ValueError as e:
        raise CliError(f"bad integer list {text!r}: {e}") from e
    if not out:
        raise CliError(f"no integers in {text!r}")
    return out


def _parse_pairs(text: str) -> list[tuple[int, int]] | str:
    if text.strip() == "all":
        return "all"
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            a_text, b_text = part.split(":")
            pairs.append((int(a_text), int(b_text)))
        except ValueError as e:
            raise CliError(f"bad pair {part!r}, expected k:k2") from e
    if not pairs:
        raise CliError(f"no pairs in {text!r}")
    return pairs


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


def _cast(key: str, value, kind):
    """value as kind, refusing any value the cast would change ("5", 1.5, [1] or true as an int)."""
    try:
        cast = kind(value)
    except (TypeError, ValueError):
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


def _resolve(args, defaults: dict) -> dict:
    """defaults <- config file <- explicit flags, each value cast to its default's type.

    Every flag's argparse dest is its config key, so a flag is read from args
    under that key.  Unknown config keys and wrongly typed values are errors.
    """
    resolved = dict(defaults)
    for key, value in _load_config_file(args.config).items():
        if key == "command":
            continue
        if key not in defaults:
            raise CliError(f"unknown config key {key!r}")
        resolved[key] = value
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        if default is not None:
            resolved[key] = _cast(key, resolved[key], type(default))
        elif resolved[key] is not None and key in PATH_KEYS:
            resolved[key] = _cast(key, resolved[key], str)
        elif resolved[key] is not None and key in PATH_LIST_KEYS:
            resolved[key] = _list_of(key, resolved[key], str)
    return resolved


def _echo(resolved: dict) -> None:
    print("resolved config: " + json.dumps(resolved, sort_keys=True))


def _standard_paths(data_dir: str) -> tuple[list[str], list[str]]:
    """Locate the four standard corpus files in a directory (.gz accepted)."""
    base = Path(data_dir)
    images, labels = [], []
    for image_name, label_name in STANDARD_FILES:
        for name, bucket in ((image_name, images), (label_name, labels)):
            plain = base / name
            gz = base / (name + ".gz")
            if plain.exists():
                bucket.append(str(plain))
            elif gz.exists():
                bucket.append(str(gz))
            else:
                raise CliError(f"missing corpus file {plain} (or {gz.name})")
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


# What a corpus file that cannot be read or parsed raises: gzip adds
# EOFError for a truncated stream and zlib.error for a corrupt one.
LOAD_ERRORS = (ValueError, OSError, EOFError, zlib.error)


def _load_pool(images: list[str], labels: list[str], read=read_idx_file):
    """Load each file pair with read (path -> payload) and concatenate them.

    A pair that fails to load is a CliError naming both of its files.
    """
    corpora = []
    for images_path, labels_path in zip(images, labels):
        try:
            corpora.append(load_idx(read(images_path), read(labels_path)))
        except LOAD_ERRORS as e:
            raise CliError(f"cannot load {images_path} and {labels_path}: {e}") from e
    return concat_corpora(*corpora)


def _train_defaults() -> dict:
    """Every TrainConfig field but the seed, which each suite derives per trial."""
    base = TrainConfig()
    return {f.name: getattr(base, f.name) for f in fields(TrainConfig) if f.name != "seed"}


def _check_least(resolved: dict, **least) -> None:
    for key, low in least.items():
        if resolved[key] < low:
            raise CliError(f"config key {key!r} expects an integer >= {low}, got {resolved[key]!r}")


def _resolve_suite(args, **specific) -> tuple[dict, TrainConfig]:
    """Resolve the settings both suites share, plus one suite's selection,
    costs and out_dir; range-check the shared ones and return them with the
    TrainConfig template every trial's seed is set in."""
    resolved = _resolve(
        args,
        {
            "scale": "desk",
            "base_seed": 0,
            "jobs": 1,
            "images": None,
            "labels": None,
            "data_dir": None,
            **_train_defaults(),
            **specific,
        },
    )
    if resolved["scale"] not in SCALES:
        raise CliError(f"config key 'scale' expects one of {SCALES}, got {resolved['scale']!r}")
    _check_least(resolved, jobs=1, base_seed=0)
    with _user_input():
        template = TrainConfig(
            **{key: resolved[key] for key in _train_defaults()}, seed=resolved["base_seed"]
        )
    return resolved, template


def _run_suite(resolved: dict, command: str, runner, configs) -> int:
    """Echo the settings, load the pool, run the suite's trials and write its outputs.

    configs is the suite's whole trial list, built from the settings before
    this call.  Each config's check_pool(pool) raises ValueError for a trial
    the loaded pool cannot supply, so every trial is checked before the
    first one runs; run_trials then runs runner on that same list.
    """
    if not configs:
        raise CliError("no trials requested")
    _resolve_data(resolved)
    resolved["command"] = command
    _echo(resolved)

    pool = _load_pool(resolved["images"], resolved["labels"])
    print(f"loaded {pool.size} examples from {len(resolved['images'])} file pair(s)")
    with _user_input():
        for cfg in configs:
            cfg.check_pool(pool)
    summary, records = run_trials(runner, configs, pool, resolved["jobs"])
    out_dir = Path(resolved["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.jsonl"
    csv_path = out_dir / "summary.csv"
    save_records(records, records_path)
    csv_path.write_text(summary_to_csv(summary), encoding="utf-8")
    print(f"wrote {records_path} and {csv_path}")
    print(summary_table(summary), end="")
    return 0


def cmd_verify_data(args) -> int:
    resolved = _resolve(args, {"data_dir": None})
    data_dir = resolved["data_dir"] or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise CliError(f"pass --data-dir or set ${DATA_DIR_ENV}")
    resolved["data_dir"] = data_dir
    _echo(resolved)

    images, labels = _standard_paths(data_dir)
    # Each file is read once: its payload is both measured here and parsed
    # into the pool below.
    payloads = {}
    failures = 0
    for path_text in [p for pair in zip(images, labels) for p in pair]:
        name = Path(path_text).name.removesuffix(".gz")
        expected = MNIST_FILE_BYTES[name]
        try:
            payloads[path_text] = read_idx_file(path_text)
        except LOAD_ERRORS as e:
            raise CliError(f"cannot read {path_text}: {e}") from e
        actual = len(payloads[path_text])
        ok = actual == expected
        print(f"{name}: {actual} bytes (expected {expected}): {'ok' if ok else 'MISMATCH'}")
        failures += 0 if ok else 1
    if failures:
        raise CliError(f"{failures} file(s) failed the byte-length check")

    pool = _load_pool(images, labels, read=payloads.pop)
    if pool.size != MNIST_TOTAL_EXAMPLES:
        raise CliError(f"pool has {pool.size} examples, expected {MNIST_TOTAL_EXAMPLES}")
    classes = len(set(pool.labels.tolist()))
    print(f"pool: {pool.size} examples, {classes} classes: ok")
    return 0


def cmd_run_binary(args) -> int:
    resolved, template = _resolve_suite(
        args,
        digits=None,
        slices=None,
        w_mcfn=DEFAULT_BINARY_COST.fn_cost,
        w_mcfp=DEFAULT_BINARY_COST.fp_cost,
        out_dir="runs/binary",
    )
    presets = {"digits": range(10), "slices": range(10 if resolved["scale"] == "full" else 1)}
    for key, preset in presets.items():
        resolved[key] = _list_of(key, list(preset) if resolved[key] is None else resolved[key], int)
    with _user_input():
        cost = BinaryCostModel(resolved["w_mcfn"], resolved["w_mcfp"])
        configs = binary_trial_configs(
            resolved["digits"], resolved["slices"], resolved["base_seed"], cost, template
        )
    return _run_suite(resolved, "run-binary", run_binary_trial, configs)


def cmd_run_categorical(args) -> int:
    resolved, template = _resolve_suite(
        args,
        pairs=None,
        pair_weight=DEFAULT_PAIR_WEIGHT,
        off_pair_cost=DEFAULT_OFF_PAIR_COST,
        out_dir="runs/categorical",
    )
    pairs = resolved["pairs"]
    if pairs is None or pairs == "all":
        if pairs == "all" or resolved["scale"] == "full":
            pairs = all_ordered_pairs()
        else:
            pairs = sample_pairs(10, resolved["base_seed"])
    resolved["pairs"] = [_list_of("pairs", pair, int) for pair in _cast("pairs", pairs, list)]
    with _user_input():
        configs = categorical_trial_configs(
            resolved["pairs"], resolved["base_seed"], resolved["pair_weight"],
            resolved["off_pair_cost"], template,
        )
    return _run_suite(resolved, "run-categorical", run_categorical_trial, configs)


def cmd_bernoulli(args) -> int:
    defaults = {
        "n_pos": 9,
        "n_neg": 1,
        "w_pos": 1.0,
        "w_neg": 1.0,
        "p0": 0.5,
        "step": 0.01,
        "iterations": 100_000,
        "curve": None,
        "curve_points": 99,
    }
    resolved = _resolve(args, defaults)
    resolved["command"] = "bernoulli"
    _echo(resolved)

    with _user_input():
        scenario = BernoulliScenario(
            resolved["n_pos"], resolved["n_neg"], resolved["w_pos"], resolved["w_neg"]
        )
        descended = descend(
            scenario, p0=resolved["p0"], step=resolved["step"], iterations=resolved["iterations"]
        )
    closed_form = analytic_minimizer(scenario)
    likelihood_argmax, _ = likelihood_check(scenario)
    print(f"closed-form minimizer: {closed_form!r}")
    print(f"gradient descent result: {descended!r} (|diff| = {abs(descended - closed_form):.3e})")
    print(
        f"likelihood argmax: {likelihood_argmax!r} "
        f"(|diff| = {abs(likelihood_argmax - closed_form):.3e})"
    )

    if resolved["curve"]:
        points = resolved["curve_points"]
        if points < 2:
            raise CliError("curve_points must be >= 2")
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


def cmd_gradcheck(args) -> int:
    resolved = _resolve(args, {"seed": 0, "instances": 4, "step": 1e-5, "tolerance": 1e-5})
    _check_least(resolved, seed=0, instances=1)
    for key in ("step", "tolerance"):
        if not math.isfinite(resolved[key]):
            raise CliError(f"config key {key!r} expects a finite number, got {resolved[key]!r}")
    if not resolved["step"] > 0:
        raise CliError(f"config key 'step' expects a number > 0, got {resolved['step']!r}")
    resolved["command"] = "gradcheck"
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


def _add_data_arguments(sub) -> None:
    sub.add_argument("--data-dir", help=f"directory with the standard corpus files (default ${DATA_DIR_ENV})")
    sub.add_argument("--images", action="append", help="IDX images file (repeat per file pair)")
    sub.add_argument("--labels", action="append", help="IDX labels file (repeat per file pair)")


def _add_train_arguments(sub) -> None:
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", type=int)
    sub.add_argument("--learning-rate", type=float)
    sub.add_argument("--seed", type=int, dest="base_seed", help="trial i uses base_seed + i")
    sub.add_argument("--jobs", type=int, help="parallel trial workers (threads)")
    sub.add_argument("--out-dir")
    sub.add_argument("--scale", choices=SCALES, help="trial-count preset")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rwwce", description="Cost-sensitive classification toolkit")
    parser.add_argument("--config", help="JSON config file; flags override its values")
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser("verify-data", help="check a corpus against the published MNIST byte lengths")
    verify.add_argument("--data-dir")
    verify.set_defaults(handler=cmd_verify_data)

    binary = commands.add_parser("run-binary", help="imbalanced binary detection suite")
    _add_data_arguments(binary)
    _add_train_arguments(binary)
    binary.add_argument("--digits", type=_parse_int_list, help='digits to detect, e.g. "0-9" or "3,7"')
    binary.add_argument("--slices", type=_parse_int_list, help='positive-slice indices, e.g. "0" or "0-9"')
    binary.add_argument("--w-fn", type=float, dest="w_mcfn", help="cost of a false negative")
    binary.add_argument("--w-fp", type=float, dest="w_mcfp", help="cost of a false positive")
    binary.set_defaults(handler=cmd_run_binary)

    categorical = commands.add_parser("run-categorical", help="10-class expensive-confusion suite")
    _add_data_arguments(categorical)
    _add_train_arguments(categorical)
    categorical.add_argument("--pairs", type=_parse_pairs, help='"all" or pairs like "1:7,3:5" (true:predicted)')
    categorical.add_argument("--pair-weight", type=float, help="extra cost on the expensive cell")
    categorical.add_argument("--off-pair-cost", type=float, help="cost of every other error")
    categorical.set_defaults(handler=cmd_run_categorical)

    bern = commands.add_parser("bernoulli", help="weighted Bernoulli MLE demonstration")
    bern.add_argument("--n-pos", type=int)
    bern.add_argument("--n-neg", type=int)
    bern.add_argument("--w-pos", type=float)
    bern.add_argument("--w-neg", type=float)
    bern.add_argument("--p0", type=float)
    bern.add_argument("--step", type=float)
    bern.add_argument("--iterations", type=int)
    bern.add_argument("--curve", help="write a p,loss CSV to this path")
    bern.add_argument("--curve-points", type=int)
    bern.set_defaults(handler=cmd_bernoulli)

    grad = commands.add_parser("gradcheck", help="finite-difference check of every loss gradient")
    grad.add_argument("--seed", type=int)
    grad.add_argument("--instances", type=int, help="instances per loss variant")
    grad.add_argument("--step", type=float)
    grad.add_argument("--tolerance", type=float)
    grad.set_defaults(handler=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
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
