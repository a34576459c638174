"""Spans recorded from outside the program, plus the small statistics the benchmark reports.

The benchmark never edits ``src/``: a traced run swaps public callables
(module globals, class attributes, instance methods) for timing wrappers
for the duration of one pass and restores them afterwards. Every swap is
best-effort — a name a later refactor removes is skipped, and the layers
it fed read 0 — so the end-to-end path keeps running when internals move.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from typing import Callable, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

_MISSING = object()


class EngineRun(NamedTuple):
    """One engine ``run`` call seen by a traced pass."""

    start: float
    end: float
    steps: int
    push_messages: int
    active_node_steps: int
    num_nodes: int


class Recorder:
    """In-memory spans (name, start, end, parent) plus the engine runs seen inside them."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.engine_runs: List[EngineRun] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    def intervals(self, name: str, *, outside: Sequence[str] = ()) -> List[Tuple[float, float]]:
        """``(start, end)`` of every closed ``name`` span whose parent is not named in ``outside``."""
        return [
            (s[1], s[2])
            for s in self.spans
            if s[0] == name
            and s[2] is not None
            and (s[3] is None or self.spans[s[3]][0] not in outside)
        ]

    def durations(self, name: str) -> List[float]:
        return [end - start for start, end in self.intervals(name)]

    def within(self, name: str, start: float, end: float, *, outside: Sequence[str] = ()) -> List[Tuple[float, float]]:
        """``name`` spans lying inside ``[start, end]``."""
        return [(s, e) for s, e in self.intervals(name, outside=outside) if s >= start and e <= end]

    def total_within(self, name: str, start: float, end: float, *, outside: Sequence[str] = ()) -> float:
        """Seconds spent in ``name`` spans lying inside ``[start, end]``."""
        return sum(e - s for s, e in self.within(name, start, end, outside=outside))

    def dump(self, path) -> None:
        """Write one JSON line per span (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": start - origin,
                            "end_s": (end if end is not None else start) - origin,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def patched(patches: Iterable[Tuple[object, str, object]]):
    """Set ``owner.attr = value`` for each patch; restore on exit."""
    saved = []
    try:
        for owner, attr, value in patches:
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def optional_attr(module_name: str, attr: str):
    """``(module, value)`` when ``module_name.attr`` exists, else ``(None, None)``."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    value = getattr(module, attr, None)
    return (module, value) if value is not None else (None, None)


#: Engine modules whose engine class and convergence protocol a traced
#: pass substitutes with timing subclasses (the backends import both by
#: module global at call time, so the subclass is what they construct).
ENGINE_CLASSES = (
    ("repro.core.sparse_engine", "SparseGossipEngine"),
    ("repro.core.vector_engine", "VectorGossipEngine"),
)


def _timed_engine_class(recorder: Recorder, cls: type) -> type:
    class TimedEngine(cls):
        def __init__(self, *args, **kwargs):
            with recorder.span("engine.construct"):
                super().__init__(*args, **kwargs)

        def run(self, *args, **kwargs):
            start = time.perf_counter()
            with recorder.span("engine.run"):
                outcome = super().run(*args, **kwargs)
            recorder.engine_runs.append(
                EngineRun(
                    start,
                    time.perf_counter(),
                    outcome.steps,
                    outcome.push_messages,
                    outcome.active_node_steps,
                    outcome.num_nodes,
                )
            )
            return outcome

    TimedEngine.__name__ = TimedEngine.__qualname__ = cls.__name__
    return TimedEngine


def _timed_protocol_class(recorder: Recorder, cls: type) -> type:
    class TimedProtocol(cls):
        def observe(self, *args, **kwargs):
            with recorder.span("convergence.observe"):
                return super().observe(*args, **kwargs)

    TimedProtocol.__name__ = TimedProtocol.__qualname__ = cls.__name__
    return TimedProtocol


def engine_patches(recorder: Recorder) -> List[Tuple[object, str, object]]:
    """Timing substitutes for every engine class and convergence protocol found."""
    patches = []
    for module_name, class_name in ENGINE_CLASSES:
        module, cls = optional_attr(module_name, class_name)
        if module is None:
            continue
        patches.append((module, class_name, _timed_engine_class(recorder, cls)))
        protocol = getattr(module, "ConvergenceProtocol", None)
        if protocol is not None:
            patches.append((module, "ConvergenceProtocol", _timed_protocol_class(recorder, protocol)))
    return patches


def global_patch(recorder: Recorder, module_name: str, attr: str, span: str) -> list:
    """A one-element patch list wrapping ``module_name.attr``, or ``[]`` if absent."""
    module, fn = optional_attr(module_name, attr)
    return [(module, attr, recorder.wrap(span, fn))] if module is not None else []


def method_patch(recorder: Recorder, owner, attr: str, span: str) -> list:
    fn = getattr(owner, attr, None)
    return [(owner, attr, recorder.wrap(span, fn))] if fn is not None else []


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced - untraced) / untraced if untraced else 0.0


def timed_call(fn: Callable, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def untraced(name: str, fn: Callable, *args, **kwargs):
    """The untraced twin of :meth:`Recorder.call`."""
    return fn(*args, **kwargs)


def median_setup(build: Callable[[], object], repeats: int):
    """Run ``build`` ``repeats`` times; return the last world and the median seconds."""
    seconds = []
    world = None
    for _ in range(repeats):
        world = None  # let the previous world go before the next build
        world, elapsed = timed_call(build)
        seconds.append(elapsed)
    return world, median(seconds)
