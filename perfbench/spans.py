"""Timing wrappers and the in-memory span recorder of the traced run.

The benchmark measures every layer from outside the program: a traced
run swaps public functions of ``repro`` for wrappers that record one
span per call and then call the original.  Nothing inside ``src/`` is
changed.  Spans stay in memory; :func:`write_chrome_trace` writes them
when the run ends.

Spans are the program's own :class:`repro.obs.trace.Span` records, and
self time and the Chrome trace come from ``repro.obs`` too.  The
recorder itself is separate from the program's tracer: a traced run
also arms ``REPRO_TRACE=1`` for the program's counters, and the
program's own nested spans (``sched.schedule``, ``bench.cell``, ...)
would otherwise become children of the wrapper spans and take their
self time away.

Worker processes are forked after the wrappers are installed, so the
wrappers reach them.  Their spans travel home attached to the result
the worker returns (a private key of the service's result dict, a
private attribute of a grid row) and are merged into the parent's
recorder, which strips them before the program sees the result.

A span's *self time* is its duration minus the durations of its direct
child spans (spans recorded by wrappers called from inside it on the
same thread).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.export import write_trace
from repro.obs.trace import Span, Tracer

#: Key / attribute under which a worker ships its spans home.
SHIP_KEY = "_perfbench_spans"

#: Name of the counter the ``Schedule.place`` wrapper increments.
INSERTIONS = "perfbench.insertions"

#: Span name -> layer, by longest matching prefix.
LAYERS = ("generators", "core", "algorithms", "bench.parallel", "api",
          "service")


class Recorder:
    """Collects spans for one process and patches the wrappers in."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.home_pid = os.getpid()
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._next = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[int, str, Dict[str, Any]]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _sid(self) -> int:
        """A span id unique across processes: the pid in the high bits."""
        with self._lock:
            self._next += 1
            return (os.getpid() << 32) | self._next

    @staticmethod
    def _track() -> str:
        return f"{os.getpid()}/{threading.current_thread().name}"

    def inside(self, name: str) -> bool:
        """Whether this thread is currently inside a span called ``name``."""
        return any(n == name for _sid, n, _args in self._stack())

    def call(self, name: str, fn: Callable, /, *args: Any, **kwargs: Any):
        """Run ``fn`` inside a span named ``name``; returns its result.

        ``fn`` may attach values to the span through :meth:`annotate`.
        """
        stack = self._stack()
        sid = self._sid()
        parent = stack[-1][0] if stack else -1
        args_out: Dict[str, Any] = {}
        stack.append((sid, name, args_out))
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter_ns() - t0
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, name, self._track(), t0,
                                       dur, args_out))

    async def call_async(self, name: str, fn: Callable, *args: Any):
        """Await ``fn(*args)`` as a root span.

        Coroutines interleave on one thread, so an async span takes no
        part in the thread's nesting stack and gets a lane of its own.
        """
        sid = self._sid()
        t0 = time.perf_counter_ns()
        try:
            return await fn(*args)
        finally:
            dur = time.perf_counter_ns() - t0
            with self._lock:
                self.spans.append(Span(sid, -1, name, f"{os.getpid()}/async",
                                       t0, dur, {}))

    def annotate(self, **values: Any) -> None:
        """Attach values to this thread's innermost open span."""
        self._stack()[-1][2].update(values)

    def absorb(self, spans: Iterable[Span]) -> None:
        """Merge spans shipped home from a worker process."""
        with self._lock:
            self.spans.extend(spans)

    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def timed(self, owner: Any, attr: str,
              name: "str | Callable[..., Optional[str]]") -> None:
        """Wrap ``owner.attr`` so each call records a span.

        ``name`` may be a function of the call's arguments returning
        the span name, or ``None`` to skip recording that call.
        """
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            label = name(*args, **kwargs) if callable(name) else name
            if label is None:
                return fn(*args, **kwargs)
            return rec.call(label, fn, *args, **kwargs)

        self.patch(owner, attr, wrapper)

    def timed_async(self, owner: Any, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        async def wrapper(*args: Any):
            return await rec.call_async(name, fn, *args)

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


#: The recorder whose wrappers are installed in this process (worker
#: functions below must be module-level to pickle, so they find it here).
ACTIVE: Optional[Recorder] = None
_ORIGINALS: Dict[str, Callable] = {}


def _counters() -> Dict[str, int]:
    from repro.obs import metrics

    return {**metrics.counters(), **metrics.local_counters()}


def _counter_delta(before: Dict[str, int]) -> Dict[str, int]:
    after = _counters()
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}


def _ship(result: Any, mark: int) -> Any:
    """In a worker: move this call's spans onto ``result``."""
    assert ACTIVE is not None
    if os.getpid() == ACTIVE.home_pid:
        return result  # ran in the recording process itself
    with ACTIVE._lock:
        shipped = ACTIVE.spans[mark:]
        del ACTIVE.spans[mark:]
    if isinstance(result, dict):
        result[SHIP_KEY] = shipped
    else:
        object.__setattr__(result, SHIP_KEY, shipped)
    return result


def _cell_body(fn: Callable, args: Any) -> Any:
    assert ACTIVE is not None
    before = _counters()
    result = fn(args)
    ACTIVE.annotate(counters=_counter_delta(before))
    return result


def observed_schedule_cell(args: Any) -> Dict:
    """Worker function of the service, timed (replaces ``schedule_cell``)."""
    assert ACTIVE is not None
    mark = len(ACTIVE.spans)
    result = ACTIVE.call("service.worker.schedule_cell", _cell_body,
                         _ORIGINALS["schedule_cell"], args)
    return _ship(result, mark)


def observed_run_cell(args: Any) -> Any:
    """Worker function of the grid, timed (replaces ``_run_cell``)."""
    assert ACTIVE is not None
    mark = len(ACTIVE.spans)
    result = ACTIVE.call("bench.parallel.cell", _ORIGINALS["run_cell"],
                         args)
    return _ship(result, mark)


def take_shipped(result: Any) -> list:
    """Remove and return the spans a worker attached to ``result``."""
    if isinstance(result, dict):
        return result.pop(SHIP_KEY, [])
    return result.__dict__.pop(SHIP_KEY, [])


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
#: Metric-safe names for scheduler specs whose canonical name is not one.
SPEC_NAMES = {"param:prio=blevel,ready=prio,proc=est,insert=off":
              "param-blevel-est"}


def algorithm_span(name: str) -> str:
    return "algorithms.schedule." + SPEC_NAMES.get(name, name)


def install_generators(rec: Recorder) -> None:
    """Time graph generation (set-up) through every import of it."""
    from repro.generators import random_graphs
    from repro.scenarios import storm

    for owner in (random_graphs, storm):
        rec.timed(owner, "rgnos_graph", "generators.graph")


def install_core(rec: Recorder) -> None:
    """Time scheduler runs and validation (every workload)."""
    from repro import api
    from repro.algorithms import base
    from repro.bench import runner
    from repro.core import schedule

    rec.timed(base.Scheduler, "schedule",
              lambda self, *a, **k: algorithm_span(self.name))
    for owner, attr in ((schedule, "validate"), (runner, "validate"),
                        (api, "validate_schedule")):
        rec.timed(owner, attr, "core.schedule.validate")
    rec.timed(api, "schedule", "api.schedule")
    rec.patch(schedule.Schedule, "place",
              _counting_place(schedule.Schedule.place))


def _counting_place(place: Callable) -> Callable:
    """``Schedule.place`` that counts placements into an idle hole.

    A placement that starts before its processor's last task finishes
    lands in a hole: ISH's back-fill, or the slot search of an
    insertion-based scheduler.  The count goes to the program's counter
    registry (armed by ``REPRO_TRACE=1``), which already carries
    counters home from worker processes.
    """
    from repro.obs import metrics

    @functools.wraps(place)
    def wrapper(sched: Any, node: int, proc: int, start: float,
                *args: Any, **kwargs: Any):
        if start < sched.proc_ready_time(proc) - 1e-9:
            metrics.incr(INSERTIONS)
        return place(sched, node, proc, start, *args, **kwargs)

    return wrapper


def install_grid(rec: Recorder) -> None:
    """Time grid cells inside the pool workers ``run_grid`` forks."""
    from repro.bench import parallel

    _ORIGINALS["run_cell"] = parallel._run_cell
    rec.patch(parallel, "_run_cell", observed_run_cell)


def install_service(rec: Recorder) -> None:
    """Time the request path of the scheduling service."""
    from repro import api
    from repro.bench import parallel
    from repro.core.graph import TaskGraph
    from repro.service import protocol, server

    def build_name(source: Any, *args: Any, **kwargs: Any):
        if isinstance(source, TaskGraph):
            return None  # already built; nothing to time
        return ("core.graph.build.worker"
                if rec.inside("service.worker.schedule_cell")
                else "core.graph.build.server")

    rec.timed(api, "as_graph", build_name)
    rec.timed(TaskGraph, "fingerprint", "core.graph.fingerprint")
    rec.timed(server, "parse_schedule_request", "service.protocol.parse")
    rec.timed(server, "_parse_and_key", "service.server.key")
    rec.timed(server, "response_bytes", "service.protocol.encode")
    rec.timed_async(server, "read_request", "service.protocol.read")
    _ORIGINALS["schedule_cell"] = protocol.schedule_cell
    rec.patch(server, "schedule_cell", observed_schedule_cell)

    run_batch = parallel.WorkerPool.run_batch

    def timed_run_batch(pool: Any, fn: Callable, batch: Any) -> List:
        results = rec.call("bench.parallel.run_batch", run_batch, pool,
                           fn, batch)
        for result in results:
            rec.absorb(take_shipped(result))
        return results

    rec.patch(parallel.WorkerPool, "run_batch", timed_run_batch)


def activate() -> Recorder:
    """Create this process's recorder (wrappers are installed on it)."""
    global ACTIVE
    ACTIVE = Recorder()
    return ACTIVE


# ----------------------------------------------------------------------
# aggregation and output
# ----------------------------------------------------------------------
def pid_of(span: Span) -> int:
    """The process that recorded ``span``."""
    return span.sid >> 32


def window(spans: Iterable[Span], start_ns: int, end_ns: int) -> List[Span]:
    """Spans that started inside ``[start_ns, end_ns)``.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so
    spans from the server process compare with the client's window.
    """
    return [s for s in spans if start_ns <= s.start_ns < end_ns]


def layer_of(span_name: str) -> str:
    return max((layer for layer in LAYERS
                if span_name.startswith(layer + ".")), key=len)


def dump(path: str, spans: Iterable[Span]) -> None:
    """Write ``spans`` as JSON rows for :func:`load`."""
    with open(path, "w") as fh:
        json.dump([dataclasses.astuple(sp) for sp in spans], fh)


def load(path: str) -> List[Span]:
    with open(path) as fh:
        return [Span(*row) for row in json.load(fh)]


def write_chrome_trace(path: str, spans: Iterable[Span]) -> None:
    """Write ``spans`` as a Chrome/Perfetto trace (one lane per thread)."""
    tracer = Tracer()
    tracer.spans = list(spans)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_trace(path, tracer)
