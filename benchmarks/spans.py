"""Span tracing of maxcross layer functions, installed from outside the package.

Modules bind names with ``from .x import y``, so one function can be looked
up under several module attributes (``maxcross.cli.count_crossings_geometric``
and ``maxcross.analysis.count_crossings_geometric`` are the same object).  The
tracer replaces every binding of each target with one shared wrapper and puts
the originals back on ``uninstall``.  Nothing under ``src/`` is edited.

Each wrapper records a span: its duration is added to the function's total
time, minus the time covered by child spans for its self time.  Counters
record work done at the same boundary (leaves, graphs, pairs, trials).
Spans are aggregated in memory per measurement pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# (module, function, counter name, counter function of (args, kwargs, result)).
# Generator targets count one unit per yielded item instead.
TARGETS: list[tuple[str, str, Optional[str], Optional[Callable[..., int]]]] = [
    ("cli", "run", None, None),
    ("search", "convex_max", "search.leaves", lambda a, k, r: r.graphs_examined),
    ("search", "reproduce_table", None, None),
    ("search", "perturbation_probe", "search.trials", lambda a, k, r: r.graphs_examined),
    ("search", "sample_regular_graph", None, None),
    ("search", "sample_positions", None, None),
    ("graph", "shard_prefixes", "search.shards", lambda a, k, r: len(r)),
    ("graph", "enumerate_labeled_regular", "graph.graphs", None),
    ("geometry", "count_crossings_geometric", "geometry.pairs", lambda a, k, r: r.pair_count),
    ("geometry", "validate_general_position", None, None),
    ("geometry", "load_drawing", None, None),
    ("geometry", "crossing_total", None, None),
    ("analysis", "type_profile", None, None),
    ("analysis", "noncrossing_accounting", None, None),
    ("analysis", "lemma_coverage_check", None, None),
    ("constructions", "crossings_convex", None, None),
    ("constructions", "drawing_from_order", None, None),
    ("constructions", "generalized_star", None, None),
    ("constructions", "star_like_even", None, None),
    ("formulas", "best_known", None, None),
]


@dataclass
class PassStats:
    """Aggregated spans and counters of one traced measurement pass."""

    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    total_s: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def add_span(self, name: str, elapsed: float, child: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child
        self.total_s[name] = self.total_s.get(name, 0.0) + elapsed

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class Tracer:
    """Installs span wrappers on every binding of the TARGETS functions.

    Wrappers record only between start() and stop(), so verification code
    that calls the same functions between jobs is not attributed to a layer.
    """

    def __init__(self) -> None:
        self.recording = False
        self.stats = PassStats()
        self._stack: list[list[float]] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "maxcross" or name.startswith("maxcross."))
        ]
        for module_name, function_name, counter, counter_fn in TARGETS:
            home = sys.modules.get(f"maxcross.{module_name}")
            original = getattr(home, function_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{function_name}", original, counter, counter_fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def new_pass(self) -> None:
        self.stats = PassStats()

    def start(self) -> None:
        """Record spans from now on; a job cut short may have left frames."""
        self._stack.clear()
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, started: float, frame: list[float]) -> None:
        elapsed = time.perf_counter() - started
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        self.stats.add_span(name, elapsed, frame[0])

    def _wrap(self, name, original, counter, counter_fn):
        tracer = self
        if inspect.isgeneratorfunction(original):
            # A generator works only while it is resumed, so each next() is a span.
            @functools.wraps(original)
            def generator_wrapper(*args, **kwargs):
                iterator = original(*args, **kwargs)
                while True:
                    if not tracer.recording:
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        yield item
                        continue
                    frame = tracer._enter()
                    started = time.perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(name, started, frame)
                    if counter is not None:
                        tracer.stats.count(counter, 1)
                    yield item

            return generator_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            frame = tracer._enter()
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._leave(name, started, frame)
            if counter_fn is not None:
                tracer.stats.count(counter, counter_fn(args, kwargs, result))
            return result

        return wrapper
