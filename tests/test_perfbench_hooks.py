"""The benchmark's tracing hooks and calls still fit the program.

perfbench/worker.py wraps module attributes by name (TIMED_TARGETS,
TRACED_TARGETS, SETUP_TARGETS), calls the two suite runners with keyword
arguments and checks records by model name (MODELS, COST_WEIGHTED_MODEL).
Renaming or deleting one of them breaks ``perfbench/run.py`` without failing
any other fast test, so this imports the worker's lists, unchanged, checks
every (module, attr) pair and model name, and binds the worker's calls to the
signatures they reach.  The worker times each trial by wrapping the two trial
functions in experiments, so run_trials must reach them through those module
attributes at call time.
"""

import importlib.util
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rwwce import BinaryTrialConfig, CategoricalTrialConfig, RunRecord, TrainConfig, experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # the worker imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, worker)
    spec.loader.exec_module(worker)
    return worker


def test_every_perfbench_target_resolves_to_a_callable(monkeypatch):
    worker = load_worker(monkeypatch)
    lists = (worker.TIMED_TARGETS, worker.TRACED_TARGETS, worker.SETUP_TARGETS)
    targets = [target for targets in lists for target in targets]
    assert targets
    missing = [
        f"{target.module.__name__}.{target.attr}"
        for target in targets
        if not callable(getattr(target.module, target.attr, None))
    ]
    assert missing == []


def test_the_worker_names_the_models_of_the_suite_table(monkeypatch):
    worker = load_worker(monkeypatch)
    assert worker.MODELS == {kind: suite.models for kind, suite in experiments.SUITES.items()}
    for kind, model in worker.COST_WEIGHTED_MODEL.items():
        assert model in experiments.SUITES[kind].models


def test_the_worker_calls_bind_to_the_suite_runners():
    raw, template = object(), TrainConfig()
    # As perfbench/worker.py calls them, one unit per call.
    inspect.signature(experiments.run_binary_suite).bind(
        raw, [3], [0], 1, train_template=template, jobs=2
    )
    inspect.signature(experiments.run_categorical_suite).bind(
        raw, [(4, 9)], 1, train_template=template, jobs=2
    )


def test_train_examples_reads_the_train_parameters(monkeypatch):
    worker = load_worker(monkeypatch)
    # Bound as experiments._train_models calls train, positionally; the worker
    # reads the train_set and config parameters by name.
    train_set = SimpleNamespace(X=np.zeros((7, 2)))
    arguments = inspect.signature(experiments.train).bind(
        object(), train_set, object(), TrainConfig(epochs=3)
    ).arguments
    assert worker.train_examples(arguments, None) == 21


@pytest.mark.parametrize(
    "attr, kind, cfg",
    [
        ("run_binary_trial", "binary", BinaryTrialConfig(3, 0, 1)),
        ("run_categorical_trial", "categorical", CategoricalTrialConfig(4, 9, 1)),
    ],
)
def test_run_trials_reaches_each_trial_through_its_module_attribute(monkeypatch, attr, kind, cfg):
    records = [
        RunRecord(model, cfg.seed, None, 0.0, 0.0, 0.0, 0.0, None, None, None, 0.0, {})
        for model in experiments.SUITES[kind].models
    ]
    calls = []

    def recorder(trial_cfg, raw):
        calls.append((trial_cfg, raw))
        return records

    monkeypatch.setattr(experiments, attr, recorder)
    raw = object()
    summary, ran = experiments.run_trials([cfg], raw)
    assert calls == [(cfg, raw)]
    assert ran == records and summary.kind == kind
