"""The benchmark's tracing hooks still resolve against the program.

perfbench/worker.py wraps module attributes by name (TIMED_TARGETS,
TRACED_TARGETS, SETUP_TARGETS).  Renaming or deleting one of them breaks
``perfbench/run.py --trace 1`` without failing any other fast test, so this
imports the worker's lists, unchanged, and checks every (module, attr) pair.
"""

import importlib.util
import sys
from pathlib import Path

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
