"""The measured process of the benchmark.

run.py starts it as ``python3 perfbench/worker.py SPEC.json`` in a fresh
process, after writing the corpus files the spec names, so that peak RSS and
timings belong to this workload alone and exclude the corpus generator.  The
worker sets up the pool several times, runs units of work in a closed loop
until the spec's seconds are spent, checks every unit's records, and writes
its result (run header, report lines, metrics, attempted and failed trial
counts) to the spec's result_path.

A unit is one call of ``run_binary_suite`` or ``run_categorical_suite``, the
library call the CLI makes, followed by ``save_records``.  Every unit of a
run repeats the same trials, so their records must agree exactly.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from rwwce import data, experiments, nn  # noqa: E402

MB = 1024 * 1024
MODELS = {"binary": experiments.BINARY_MODELS, "categorical": experiments.CATEGORICAL_MODELS}
COST_WEIGHTED_MODEL = {"binary": "test", "categorical": "experimental"}
TRIAL_SPANS = ("experiments.run_binary_trial", "experiments.run_categorical_trial")


def _arrays(obj) -> list:
    """The numpy arrays a corpus, dataset or split holds."""
    if isinstance(obj, data.RawMnist):
        return [obj.images, obj.labels]
    if isinstance(obj, data.Dataset):
        return [obj.X, obj.Y]
    if isinstance(obj, data.SplitDataset):
        return [a for part in (obj.train, obj.validation, obj.test) for a in _arrays(part)]
    return []


def copied_bytes(arguments: dict, result) -> float:
    """Bytes of the returned arrays that share no memory with the inputs (computed, not sampled)."""
    inputs = [a for value in arguments.values() for a in _arrays(value)]
    return sum(
        a.nbytes for a in _arrays(result) if not any(np.may_share_memory(a, b) for b in inputs)
    )


def train_examples(arguments: dict, result) -> float:
    """Examples one train() call processes: epochs x training rows."""
    return arguments["config"].epochs * arguments["train_set"].X.shape[0]


# Timed in every unit: enough for trial_s and train_examples_per_s, a handful
# of calls per trial.
TIMED_TARGETS = [
    spans.Target(experiments, "run_binary_trial", "experiments.run_binary_trial"),
    spans.Target(experiments, "run_categorical_trial", "experiments.run_categorical_trial"),
    spans.Target(experiments, "train", "nn.train", train_examples),
]

# The traced units wrap every public function of each layer where its callers
# look it up.
TRACED_TARGETS = TIMED_TARGETS + [
    spans.Target(nn, "forward", "nn.forward"),
    spans.Target(nn, "backward", "nn.backward"),
    spans.Target(nn, "adam_step", "nn.adam_step"),
    spans.Target(nn, "loss_value", "losses.loss_value"),
    spans.Target(nn, "fused_gradient_from_probs", "losses.fused_gradient_from_probs"),
    spans.Target(experiments, "forward", "nn.forward"),
    spans.Target(experiments, "init_mlp", "nn.init_mlp"),
    spans.Target(experiments, "make_binary_dataset", "data.make_binary_dataset", copied_bytes),
    spans.Target(
        experiments, "make_categorical_dataset", "data.make_categorical_dataset", copied_bytes
    ),
    spans.Target(experiments, "split", "data.split", copied_bytes),
    spans.Target(experiments, "confusion_binary", "metrics.confusion_binary"),
    spans.Target(experiments, "confusion_categorical", "metrics.confusion_categorical"),
    spans.Target(experiments, "best_f1_threshold", "metrics.best_f1_threshold"),
    spans.Target(experiments, "paired_t_test", "metrics.paired_t_test"),
    spans.Target(experiments, "summarize", "experiments.summarize"),
    spans.Target(experiments, "run_binary_suite", "experiments.run_binary_suite"),
    spans.Target(experiments, "run_categorical_suite", "experiments.run_categorical_suite"),
    spans.Target(experiments, "save_records", "experiments.save_records"),
]

SETUP_TARGETS = [
    spans.Target(data, "load_idx_files", "data.load_idx_files"),
    spans.Target(data, "concat_corpora", "data.concat_corpora"),
]

# --- run header ----------------------------------------------------------------


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read (never set) from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    package = ROOT / "src" / "rwwce"
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_header(spec: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "traced": spec["trace"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "env": {
                name: os.environ.get(name)
                for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "machine": platform.machine(),
    }


# --- the workload ------------------------------------------------------------------


def set_up(data_dir: Path) -> data.RawMnist:
    return data.concat_corpora(
        data.load_idx_files(data_dir / "train-images-idx3-ubyte", data_dir / "train-labels-idx1-ubyte"),
        data.load_idx_files(data_dir / "t10k-images-idx3-ubyte", data_dir / "t10k-labels-idx1-ubyte"),
    )


def run_unit(plan: dict, raw, train_template, records_path: Path):
    started = time.perf_counter()
    if plan["kind"] == "binary":
        _, records = experiments.run_binary_suite(
            raw, plan["digits"], [0], plan["base_seed"],
            train_template=train_template, jobs=plan["jobs"],
        )
    else:
        _, records = experiments.run_categorical_suite(
            raw, [tuple(pair) for pair in plan["pairs"]], plan["base_seed"],
            train_template=train_template, jobs=plan["jobs"],
        )
    suite_s = time.perf_counter() - started
    experiments.save_records(records, records_path)
    return suite_s, records


# --- output checks -------------------------------------------------------------------


def split_test_sizes(plan: dict, raw) -> list[int]:
    """Test-split size of each trial, from the dataset sizes and split's M // 4 rule."""
    if plan["kind"] == "binary":
        return [
            (int(np.count_nonzero(raw.labels != digit)) + data.POSITIVE_SLICE_SIZE) // 4
            for digit in plan["digits"]
        ]
    return [raw.size // 4] * len(plan["pairs"])


def trial_problems(kind: str, records, n_test: int, seed: int) -> list[str]:
    """Why one trial's records are malformed; empty when they are well formed."""
    models = tuple(r.model for r in records)
    if models != MODELS[kind]:
        return [f"trial {seed}: models {models}, expected {MODELS[kind]}"]
    problems = []
    for r in records:
        where = f"trial {seed} {r.model}"
        values = (r.fn, r.fp, r.top1_error, r.real_world_cost)
        errors = r.fn + r.fp if kind == "binary" else r.fn
        if r.seed != seed:
            problems.append(f"{where}: seed {r.seed}")
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{where}: non-finite value in {values}")
        elif (
            min(r.fn, r.fp) < 0
            or r.fn != int(r.fn)
            or r.fp != int(r.fp)
            or (kind == "categorical" and r.fn != r.fp)
            or errors > n_test
        ):
            problems.append(f"{where}: counts fn={r.fn} fp={r.fp} do not fit a test split of {n_test}")
        elif not math.isclose(r.top1_error * n_test, errors, rel_tol=1e-9, abs_tol=1e-9):
            # Errors plus correct predictions must make up the whole test split.
            problems.append(
                f"{where}: top1_error {r.top1_error!r} x {n_test} test rows != {errors} errors"
            )
    if kind == "binary":
        control1, control2 = records[0], records[1]
        if not control2.validation_f1 >= control1.validation_f1:
            problems.append(
                f"trial {seed}: control2 validation F1 {control2.validation_f1!r} "
                f"< control1 {control1.validation_f1!r}"
            )
    return problems


def unit_problems(plan, records, saved, n_tests, reference, frozen) -> list[list[str]]:
    """Problems per trial of one unit.

    Each trial must be well formed, must match the same trial of the run's
    first unit and, where the seed has frozen records, those too, all under
    records_match (every field but wall_time).  save_records' file must read
    back as the records it was given.
    """
    kind = plan["kind"]
    size = len(MODELS[kind])
    trials = len(n_tests)
    if len(records) != trials * size:
        return [[f"{len(records)} records for {trials} trials of {size} models"]] * trials
    round_trip = [] if experiments.records_match(saved, records) else ["saved records differ"]
    result = []
    for i, n_test in enumerate(n_tests):
        chunk = records[i * size : (i + 1) * size]
        problems = trial_problems(kind, chunk, n_test, plan["base_seed"] + i) + round_trip
        for label, other in (("first unit", reference), ("frozen records", frozen)):
            if other is not None and not experiments.records_match(
                chunk, other[i * size : (i + 1) * size]
            ):
                problems.append(f"trial {plan['base_seed'] + i}: records differ from the {label}")
        result.append(problems)
    return result


# --- figures -------------------------------------------------------------------------------


@dataclass
class Unit:
    traced: bool
    suite_s: float
    spans: list

    def durations(self, *names) -> list[float]:
        return [s.duration for s in self.spans if s.name in names]

    def train_rate(self) -> float:
        trains = [s for s in self.spans if s.name == "nn.train"]
        return sum(s.amount for s in trains) / sum(s.duration for s in trains)


def median_trial_s(units) -> float:
    return statistics.median(d for u in units for d in u.durations(*TRIAL_SPANS))


def thread_labels(unit: Unit) -> dict:
    """'main' for the worker's main thread, 'pool-1', 'pool-2', ... for the others by first span."""
    labels = {threading.main_thread().ident: "main"}
    for span in sorted(unit.spans, key=lambda s: s.start):
        labels.setdefault(span.thread, f"pool-{len(labels)}")
    return labels


def end_to_end(units, setup_times) -> dict:
    """Medians over the run's set-ups, trials and units, and the process's peak RSS."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "trial_s": (median_trial_s(units), "s"),
        "suite_s": (statistics.median(u.suite_s for u in units), "s"),
        "train_examples_per_s": (statistics.median(u.train_rate() for u in units), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB"),
    }


def per_layer(traced, untraced, setup_spans, setups) -> dict:
    """Per-layer figures per traced unit (data.load_idx_files.s per set-up)."""
    n = len(traced)
    stats = spans.span_stats([s for u in traced for s in u.spans])
    empty = spans.SpanStats()

    def total(field, *names):
        return sum(getattr(stats.get(name, empty), field) for name in names) / n

    load = spans.span_stats(setup_spans).get("data.load_idx_files", empty)
    overlap = [sum(u.durations(*TRIAL_SPANS)) / u.suite_s for u in traced]
    return {
        "nn.train.s": (total("busy", "nn.train"), "s"),
        "nn.train.self_s": (total("self_time", "nn.train"), "s"),
        "nn.forward.s": (total("busy", "nn.forward"), "s"),
        "nn.backward.s": (total("busy", "nn.backward"), "s"),
        "nn.adam_step.s": (total("busy", "nn.adam_step"), "s"),
        "nn.adam_step.calls": (total("calls", "nn.adam_step"), "count"),
        "losses.loss_value.s": (total("busy", "losses.loss_value"), "s"),
        "losses.loss_value.calls": (total("calls", "losses.loss_value"), "count"),
        "losses.fused_gradient_from_probs.s": (total("busy", "losses.fused_gradient_from_probs"), "s"),
        "losses.fused_gradient_from_probs.calls": (
            total("calls", "losses.fused_gradient_from_probs"), "count"
        ),
        "data.load_idx_files.s": (load.busy / setups, "s"),
        "data.make_dataset.s": (
            total("busy", "data.make_binary_dataset", "data.make_categorical_dataset"), "s"
        ),
        "data.split.s": (total("busy", "data.split"), "s"),
        "data.copied_mb": (
            total("amount", "data.make_binary_dataset", "data.make_categorical_dataset", "data.split")
            / MB,
            "MB",
        ),
        "experiments.run_trial.s": (total("busy", *TRIAL_SPANS), "s"),
        "experiments.trial_overlap": (statistics.fmean(overlap), "ratio"),
        "experiments.summarize.s": (total("busy", "experiments.summarize"), "s"),
        "experiments.save_records.s": (total("busy", "experiments.save_records"), "s"),
        "metrics.scoring.s": (
            total(
                "busy",
                "metrics.confusion_binary",
                "metrics.confusion_categorical",
                "metrics.best_f1_threshold",
            ),
            "s",
        ),
        "metrics.paired_t_test.s": (total("busy", "metrics.paired_t_test"), "s"),
        "trace.overhead_s": (median_trial_s(traced) - median_trial_s(untraced), "s"),
    }


def trace_report(traced, untraced) -> list[str]:
    """Self times per thread and span, the nn.train breakdown, and the tracing overhead."""
    n = len(traced)
    all_spans = [s for u in traced for s in u.spans]
    thread_of = {}
    for unit in traced:
        labels = thread_labels(unit)
        thread_of.update((s.span_id, labels[s.thread]) for s in unit.spans)
    stats = spans.span_stats(all_spans, key=lambda s: (thread_of[s.span_id], s.name))
    lines = [f"trace: {n} traced unit(s), {len(untraced)} untraced; figures per traced unit"]
    lines.append(f"  {'thread':<8} {'span':<36} {'calls':>9} {'busy_s':>10} {'self_s':>10}")
    for (thread, name), entry in sorted(stats.items(), key=lambda kv: (kv[0][0], -kv[1].busy)):
        lines.append(
            f"  {thread:<8} {name:<36} {entry.calls / n:>9.0f} "
            f"{entry.busy / n:>10.4f} {entry.self_time / n:>10.4f}"
        )
    train = spans.span_stats(all_spans).get("nn.train", spans.SpanStats())
    problems = [p for u in traced for p in spans.check_nesting(u.spans, "nn.train")]
    if problems:
        raise RuntimeError("span nesting broken: " + "; ".join(problems[:5]))
    lines.append(
        f"nn.train breakdown: children {train.child_time / n:.4f} s + self "
        f"{train.self_time / n:.4f} s = {(train.child_time + train.self_time) / n:.4f} s; "
        f"nn.train.s {train.busy / n:.4f} s; children nested: ok"
    )
    traced_trial, untraced_trial = median_trial_s(traced), median_trial_s(untraced)
    lines.append(
        f"tracing overhead: traced trial_s {traced_trial:.4f} s - untraced trial_s "
        f"{untraced_trial:.4f} s = {traced_trial - untraced_trial:+.4f} s"
    )
    return lines


# --- main ----------------------------------------------------------------------------------


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    plan, trace, work = spec["plan"], bool(spec["trace"]), Path(spec["work_dir"])
    header = run_header(spec)
    train_template = nn.TrainConfig(epochs=spec["epochs"]) if spec["epochs"] else None
    frozen = experiments.load_records(spec["frozen_path"]) if spec["frozen_path"] else None

    ids = itertools.count()
    setup_tracer = spans.Tracer(SETUP_TARGETS if trace else [], ids)
    setup_times = []
    with setup_tracer.installed():
        for _ in range(spec["setup_repeats"]):
            raw = None  # drop the previous pool before loading the next
            started = time.perf_counter()
            raw = set_up(work)
            setup_times.append(time.perf_counter() - started)

    n_tests = split_test_sizes(plan, raw)
    records_path = work / "records.jsonl"
    units: list[Unit] = []
    problems: list[str] = []
    attempted = failed = 0
    reference = None
    test_rwc = None
    # Closed loop: a new unit starts only after the previous one ended, while
    # time remains; a traced run alternates untraced and traced units.
    min_units = 2 if trace else 1
    started = time.perf_counter()
    while len(units) < min_units or time.perf_counter() - started < spec["seconds"]:
        traced = trace and len(units) % 2 == 1
        tracer = spans.Tracer(TRACED_TARGETS if traced else TIMED_TARGETS, ids)
        with tracer.installed():
            suite_s, records = run_unit(plan, raw, train_template, records_path)
        saved = experiments.load_records(records_path)
        per_trial = unit_problems(plan, records, saved, n_tests, reference, frozen)
        attempted += len(per_trial)
        failed += sum(1 for p in per_trial if p)
        problems.extend(p for trial in per_trial for p in trial)
        if reference is None:
            reference = records
            weighted = [r.real_world_cost for r in records if r.model == COST_WEIGHTED_MODEL[plan["kind"]]]
            test_rwc = statistics.fmean(weighted)
        units.append(Unit(traced, suite_s, tracer.spans))

    lines = [f"header: {json.dumps(header, sort_keys=True)}"]
    untraced = [u for u in units if not u.traced]
    if trace:
        traced = [u for u in units if u.traced]
        metrics = per_layer(traced, untraced, setup_tracer.spans, len(setup_times))
        lines += trace_report(traced, untraced)
    else:
        metrics = end_to_end(untraced, setup_times)
        trials = [d for u in untraced for d in u.durations(*TRIAL_SPANS)]
        lines.append(
            f"samples: {len(setup_times)} set-ups, {len(untraced)} units, {len(trials)} trials; "
            f"trial_s in run order: {' '.join(f'{t:.4f}' for t in trials)}"
        )
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<40} {value:>14.6f} {unit}")
    lines.append(f"{'failed_share':<40} {failed / attempted:>14.6f} share ({failed} of {attempted} trials)")
    lines.append(
        f"{'test_rwc':<40} {test_rwc:>14.6f} cost/example "
        f"(mean real-world cost of the {COST_WEIGHTED_MODEL[plan['kind']]} model)"
    )
    lines += [f"check failed: {p}" for p in problems[:20]]
    result = {
        "lines": lines,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
