"""The benchmark's own span tracer, wrapped around a built platform.

The tracer never reads the platform's telemetry.  It wraps public entry
points on the platform's instances (and, for the traced run only, the
module-level ``parse_document`` name the collector calls) with spans that
record wall time (``perf_counter``) and CPU time:

* A span opened on the main thread records *process* CPU, so a stage
  that runs a worker pool is charged for every thread's CPU.
* A span opened on any other thread is *pooled*: it records that thread's
  CPU and its wall time counts as busy time.  Pooled time overlaps the
  main thread's spans, so it is never added to the cycle's wall time.

Each thread keeps its own span stack; a span's self time is its duration
minus the durations of its children on the same thread.  The main-thread
self times of one cycle therefore add up to the root span, whose own self
time is what no wrapped layer claimed (``platform.unattributed_ms``).

Spans stay in memory and are written out once, by :meth:`write_jsonl`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Root span opened by the runner around each measured ``run_cycle``.
ROOT = "platform"


class SpanRecord:
    """One finished span (times in seconds)."""

    __slots__ = ("cycle", "layer", "pooled", "depth", "start", "wall",
                 "cpu", "self_wall", "self_cpu")

    def __init__(self, cycle: int, layer: str, pooled: bool, depth: int,
                 start: float, wall: float, cpu: float, self_wall: float,
                 self_cpu: float) -> None:
        self.cycle = cycle
        self.layer = layer
        self.pooled = pooled
        self.depth = depth
        self.start = start
        self.wall = wall
        self.cpu = cpu
        self.self_wall = self_wall
        self.self_cpu = self_cpu

    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}


class LayerTracer:
    """Per-thread span stacks, in-memory span log, per-layer counters."""

    def __init__(self) -> None:
        self._main = threading.get_ident()
        self._local = threading.local()
        self.active = False
        self.cycle = 0
        self.spans: List[SpanRecord] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Entry points that could not be wrapped (attribute missing).
        self.missing: List[str] = []
        self._undo: List[Callable[[], None]] = []

    # -- spans -----------------------------------------------------------------

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Time one call into ``layer`` (a no-op while inactive)."""
        if not self.active:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        pooled = threading.get_ident() != self._main
        cpu_clock = time.thread_time if pooled else time.process_time
        # frame: [child wall, child cpu]
        frame = [0.0, 0.0]
        stack.append(frame)
        cpu0 = cpu_clock()
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            cpu = cpu_clock() - cpu0
            stack.pop()
            if stack:
                stack[-1][0] += wall
                stack[-1][1] += cpu
            # list.append is atomic under the GIL; pool threads append too.
            self.spans.append(SpanRecord(
                self.cycle, layer, pooled, len(stack), start, wall, cpu,
                wall - frame[0], cpu - frame[1]))

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a per-layer counter (only while active)."""
        if self.active:
            self.counts[name] += amount

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, layer: str,
             on_result: Optional[Callable[[Any], None]] = None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper (undone by restore)."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{type(owner).__name__}.{attr}")
            return
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(layer):
                result = original(*args, **kwargs)
            if on_result is not None and tracer.active:
                on_result(result)
            return result

        had_own = isinstance(getattr(owner, "__dict__", None), dict) and \
            attr in owner.__dict__
        setattr(owner, attr, wrapper)
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- aggregation ------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: main-thread self wall and cpu, pooled busy wall."""
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self": 0.0, "cpu": 0.0, "busy": 0.0})
        for span in self.spans:
            entry = totals[span.layer]
            if span.pooled:
                entry["busy"] += span.self_wall
            else:
                entry["self"] += span.self_wall
                entry["cpu"] += span.self_cpu
        return totals

    def cycle_self_sums(self) -> Dict[int, float]:
        """Per cycle: the sum of main-thread self wall times."""
        sums: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if not span.pooled:
                sums[span.cycle] += span.self_wall
        return dict(sums)

    def write_jsonl(self, path: str) -> None:
        """Write every recorded span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")
