"""Span recording for the benchmark.

A Tracer replaces module attributes with timing wrappers while it is
installed, at the places where the program's callers look the functions up
(both ``rwwce.nn.forward``, which ``train`` calls, and
``rwwce.experiments.forward``, which the trial code calls).  Each call leaves
one Span: name, start, end, its own id, the id of the enclosing span on the
same thread, and the thread id.  Spans stay in memory; the worker turns them
into per-layer figures after each unit of work.  No code inside the program
is changed, so the finest grain is one public function call.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap, and the span name its calls get.

    measure, when given, is called as measure(arguments, result) after a call
    that returned, with the bound arguments by parameter name; its number is
    stored on the span as ``amount`` (bytes copied, examples trained, ...).
    """

    module: object
    attr: str
    name: str
    measure: Callable[[dict, object], float] | None = None


class Span(NamedTuple):
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    thread: int
    amount: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the targets' calls while installed.

    Tracers whose spans are analysed together must share one ids counter,
    since a child names its parent by span id.
    """

    def __init__(self, targets, ids=None):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._ids = ids if ids is not None else itertools.count()
        self._local = threading.local()

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        originals = []
        try:
            for target in self.targets:
                original = getattr(target.module, target.attr)
                originals.append((target.module, target.attr, original))
                setattr(target.module, target.attr, self._wrap(original, target))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def _wrap(self, fn, target: Target):
        signature = inspect.signature(fn) if target.measure else None
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            returned = False
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                amount = 0.0
                if returned and target.measure is not None:
                    amount = float(target.measure(signature.bind(*args, **kwargs).arguments, result))
                spans.append(
                    Span(target.name, start, end, span_id, parent, threading.get_ident(), amount)
                )

        return wrapper


@dataclass
class SpanStats:
    calls: int = 0
    busy: float = 0.0
    child_time: float = 0.0
    amount: float = 0.0

    @property
    def self_time(self) -> float:
        return self.busy - self.child_time


def span_stats(spans, key=lambda span: span.name) -> dict:
    """Calls, busy time, self time and amount per key (by default the span name).

    Self time is a span's duration minus the durations of its direct
    children.  Children run on their parent's thread and one after another,
    which check_nesting verifies, so their durations do not overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    stats: dict = {}
    for span in spans:
        entry = stats.setdefault(key(span), SpanStats())
        entry.calls += 1
        entry.busy += span.duration
        entry.child_time += child_time[span.span_id]
        entry.amount += span.amount
    return stats


def check_nesting(spans, name: str) -> list[str]:
    """Problems with the children of every span called name.

    Each child must lie inside its parent's interval and start after the
    previous child ended, so that children plus self time add up to the
    parent's duration.
    """
    parents = {span.span_id: span for span in spans if span.name == name}
    children = defaultdict(list)
    for span in spans:
        if span.parent in parents:
            children[span.parent].append(span)
    problems = []
    for parent_id, kids in children.items():
        parent = parents[parent_id]
        cursor = parent.start
        for kid in sorted(kids, key=lambda span: span.start):
            if kid.start < cursor or kid.end > parent.end or kid.thread != parent.thread:
                problems.append(f"{kid.name} span {kid.span_id} is not nested in {name} span {parent_id}")
            cursor = max(cursor, kid.end)
    return problems
