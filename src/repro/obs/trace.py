"""Nested wall-clock spans and simulated-time timelines.

Mirrors the :mod:`repro.check.sanitize` arming pattern: the tracer is a
process-wide no-op until ``REPRO_TRACE=1`` appears in the environment
(:func:`armed` reads it on every call, one dict probe, so tests and
long-lived processes can toggle).  :func:`span` is the one hot-path
entry point — disarmed it returns a shared null context after that
probe.

Two kinds of data are recorded:

* **spans** — nested wall-clock intervals (``perf_counter_ns``) with a
  name, a logical *track*, per-span attributes and a parent link.  The
  per-thread span stack makes nesting explicit; siblings on one track
  must not overlap, which :func:`validate_nesting` asserts (the
  sanitizer-armed export path runs it).
* **timelines** — *simulated*-time per-processor execution tracks
  (``(proc, node, start, finish)`` rows plus instant events such as
  replans).  They are keyed so the first recording wins: a Monte-Carlo
  cell records one representative execution, not one per trial.

Worker processes inherit the arming environment variable and record
into their own tracer; :func:`collect`/:func:`absorb` move one cell's
data across the process boundary deterministically (the grid executor
absorbs payloads in serial cell order, so the merged trace is canonical
regardless of ``--jobs``).

This module must stay import-light (stdlib only): the core modules
consult it from their hot paths.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ENV_VAR",
    "ENV_PATH_VAR",
    "Span",
    "Tracer",
    "armed",
    "current",
    "span",
    "root_span",
    "add_timeline",
    "wants_timeline",
    "collect",
    "absorb",
    "reset",
    "validate_nesting",
]

#: Environment variable that arms the tracer ("" / "0" = off).
ENV_VAR = "REPRO_TRACE"

#: Optional output path for the CLI's end-of-run flush.
ENV_PATH_VAR = "REPRO_TRACE_PATH"

#: Track name for spans recorded outside any cell/thread context.
MAIN_TRACK = "main"


# ``os.environ`` keeps the live environment in an encoded dict and
# writes every set and delete through to it; probing that dict with a
# pre-encoded key skips the mapping layer's encode and decode calls,
# nearly all of what an ``os.environ.get`` costs.
_ENVIRON = os.environ._data  # type: ignore[attr-defined]
_ENV_KEY = os.environ.encodekey(ENV_VAR)
#: Values that leave it disarmed: unset, "" and "0".
_OFF = (None, os.environ.encodevalue(""), os.environ.encodevalue("0"))


def armed() -> bool:
    """True when tracing is armed for this process.

    Read from the environment on every call, so a ``setenv`` or
    ``delenv`` takes effect at the next call and worker processes that
    inherit the variable agree with the parent.  The read is a single
    dict probe of the environment's encoded mapping — the entire
    disarmed cost.
    """
    return _ENVIRON.get(_ENV_KEY) not in _OFF


@dataclass
class Span:
    """One recorded wall-clock interval.

    ``sid``/``parent`` link the nesting tree (``parent == -1`` for
    roots); ``track`` is the logical lane the span renders on (the
    worker-merge step retags it with the cell label).  ``dur_ns`` is
    ``-1`` while the span is still open.
    """

    sid: int
    parent: int
    name: str
    track: str
    start_ns: int
    dur_ns: int = -1
    args: Dict[str, Any] = field(default_factory=dict)


class _NullSpanContext:
    """The disarmed ``span()`` result: reusable, re-entrant, yields None."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class _SpanContext:
    """Context manager closing one armed span (cheaper than a generator)."""

    __slots__ = ("_span",)

    def __init__(self, sp: Span):
        self._span = sp

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: Any) -> None:
        sp = self._span
        sp.dur_ns = time.perf_counter_ns() - sp.start_ns
        stack = _tracer_stack()
        if stack and stack[-1] is sp:
            stack.pop()


_TLS = threading.local()


def _tracer_stack() -> List[Span]:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


class Tracer:
    """Thread-safe collector of spans and timelines for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.timelines: List[Dict[str, Any]] = []
        self._timeline_keys: set = set()
        self._lock = threading.Lock()
        self._next_sid = 0

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanContext:
        stack = _tracer_stack()
        sp = self._open(name, stack[-1].sid if stack else -1,
                        stack[-1].track if stack else _default_track(),
                        attrs)
        stack.append(sp)
        return _SpanContext(sp)

    def _open(self, name: str, parent: int, track: str,
              attrs: Dict[str, Any]) -> Span:
        with self._lock:
            sp = Span(sid=self._next_sid, parent=parent, name=name,
                      track=track, start_ns=time.perf_counter_ns(),
                      args=attrs)
            self._next_sid += 1
            self.spans.append(sp)
        return sp

    # ------------------------------------------------------------------
    # timelines
    # ------------------------------------------------------------------
    def add_timeline(self, key: Tuple, label: str,
                     rows: Sequence[Tuple[int, int, float, float]],
                     events: Sequence[Tuple[int, float, str, Dict]] = (),
                     ) -> bool:
        """Record a simulated-time execution timeline once per ``key``.

        ``rows`` are ``(proc, node, start, finish)``; ``events`` are
        ``(proc, time, name, attrs)`` instants (``proc == -1`` renders
        on a dedicated policy lane).  Returns True when recorded, False
        when the key was already present (first recording wins — this
        is what keeps a 100-trial Monte-Carlo cell at one timeline).
        """
        with self._lock:
            if key in self._timeline_keys:
                return False
            self._timeline_keys.add(key)
            self.timelines.append({
                "key": tuple(key),
                "label": label,
                "rows": [tuple(r) for r in rows],
                "events": [(p, t, n, dict(a)) for p, t, n, a in events],
            })
        return True

    def has_timeline(self, key: Tuple) -> bool:
        """True when ``key`` was already recorded.

        Lets hot loops (a Monte-Carlo cell re-executing one schedule
        per trial) skip building the row list that
        :meth:`add_timeline` would discard anyway.
        """
        with self._lock:
            return key in self._timeline_keys

    # ------------------------------------------------------------------
    # cross-process merge
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable payload of everything recorded so far."""
        with self._lock:
            return {"spans": list(self.spans),
                    "timelines": list(self.timelines)}

    def absorb(self, payload: Dict[str, Any],
               track: Optional[str] = None) -> None:
        """Merge a :func:`collect` payload (e.g. from a worker process).

        Span ids are rebased past this tracer's counter so parent links
        stay valid; when ``track`` is given every absorbed span is
        retagged onto that lane (the cell label), which canonicalises
        the merged trace across ``--jobs`` settings.
        """
        spans: List[Span] = payload.get("spans", [])
        with self._lock:
            offset = self._next_sid
            for sp in spans:
                sp.sid += offset
                if sp.parent >= 0:
                    sp.parent += offset
                if track is not None:
                    sp.track = track
                self.spans.append(sp)
            if spans:
                self._next_sid = max(sp.sid for sp in spans) + 1
        for tl in payload.get("timelines", []):
            self.add_timeline(tuple(tl["key"]), tl["label"], tl["rows"],
                              tl["events"])


def _default_track() -> str:
    name = threading.current_thread().name
    return MAIN_TRACK if name == "MainThread" else name


# ----------------------------------------------------------------------
# module-level state and entry points
# ----------------------------------------------------------------------
_TRACER: Optional[Tracer] = None
_STATE_LOCK = threading.Lock()


def current() -> Optional[Tracer]:
    """The process tracer, lazily created when armed; None when not.

    Once created the tracer keeps collecting for the process lifetime
    (until :func:`reset`), so flipping the environment variable off
    mid-run never discards recorded data.
    """
    global _TRACER
    tracer = _TRACER
    if tracer is None and armed():
        with _STATE_LOCK:
            if _TRACER is None:
                _TRACER = Tracer()
            tracer = _TRACER
    return tracer


def span(name: str, **attrs: Any):
    """Open a span on the process tracer; a shared no-op when disarmed.

    Usage::

        with span("sched.schedule", algorithm="MCP") as sp:
            ...          # sp is None when tracing is disarmed
    """
    tracer = current()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def root_span(name: str, track: str, **attrs: Any):
    """:func:`span` for a coroutine holding it across an ``await``: a
    root on ``track``, off the thread's span stack, because coroutines
    sharing a thread close their spans in any order.  Spans open at the
    same time need distinct tracks."""
    tracer = current()
    if tracer is None:
        return _NULL_SPAN
    return _SpanContext(tracer._open(name, -1, track, attrs))


def add_timeline(key: Tuple, label: str,
                 rows: Sequence[Tuple[int, int, float, float]],
                 events: Sequence[Tuple[int, float, str, Dict]] = (),
                 ) -> bool:
    """Record a timeline on the process tracer (no-op disarmed)."""
    tracer = current()
    if tracer is None:
        return False
    return tracer.add_timeline(key, label, rows, events)


def wants_timeline(key: Tuple) -> bool:
    """True when a recording for ``key`` would be kept.

    The cheap pre-check for callers whose ``rows`` are expensive to
    build: False when disarmed or when the key already recorded.
    """
    tracer = current()
    return tracer is not None and not tracer.has_timeline(key)


def reset() -> None:
    """Drop the process tracer and metrics (tests and verb boundaries)."""
    global _TRACER
    from . import metrics as _metrics

    with _STATE_LOCK:
        _TRACER = None
        _TLS.stack = []
    _metrics.reset()


@contextlib.contextmanager
def collect() -> Iterator[Dict[str, Any]]:
    """Run a block under a *fresh* tracer/registry; yield its payload.

    The payload dict is populated when the block exits: ``spans``,
    ``timelines`` plus the metrics sections from
    :func:`repro.obs.metrics.snapshot`.  Used by the grid executor to
    isolate one cell's data (in-process and in workers alike) so the
    parent can merge cells in canonical serial order.  Disarmed, the
    block runs untouched and the payload stays empty.
    """
    from . import metrics as _metrics

    payload: Dict[str, Any] = {}
    if not armed():
        yield payload
        return
    global _TRACER
    with _STATE_LOCK:
        prev_tracer = _TRACER
        prev_stack = getattr(_TLS, "stack", [])
        _TRACER = Tracer()
        _TLS.stack = []
    prev_metrics = _metrics.swap()
    try:
        yield payload
    finally:
        with _STATE_LOCK:
            scoped = _TRACER
            _TRACER = prev_tracer
            _TLS.stack = prev_stack
        payload.update(scoped.snapshot() if scoped else {})
        payload.update(_metrics.swap(prev_metrics) or {})


def absorb(payload: Dict[str, Any], track: Optional[str] = None) -> None:
    """Merge a :func:`collect` payload into the process tracer/metrics."""
    from . import metrics as _metrics

    if not payload:
        return
    tracer = current()
    if tracer is not None:
        tracer.absorb(payload, track=track)
    _metrics.absorb(payload)


# ----------------------------------------------------------------------
# nesting validation
# ----------------------------------------------------------------------
def validate_nesting(spans: Sequence[Span]) -> None:
    """Assert spans form a forest: children inside parents, siblings
    on one track non-overlapping.

    Raises :class:`repro.check.sanitize.SanitizeError` on violation —
    overlap means the span stack was corrupted (e.g. a span closed out
    of order), which would render as garbage slices in Perfetto.  The
    export path runs this automatically when the sanitizer is armed.
    """
    from ..check.sanitize import require

    by_id = {sp.sid: sp for sp in spans}
    children: Dict[int, List[Span]] = {}
    for sp in spans:
        require(sp.dur_ns >= 0,
                f"span {sp.name!r} (sid {sp.sid}) was never closed")
        parent = by_id.get(sp.parent)
        if parent is not None:
            require(
                sp.start_ns >= parent.start_ns
                and sp.start_ns + sp.dur_ns
                <= parent.start_ns + parent.dur_ns,
                f"span {sp.name!r} [{sp.start_ns}, "
                f"{sp.start_ns + sp.dur_ns}) escapes its parent "
                f"{parent.name!r} [{parent.start_ns}, "
                f"{parent.start_ns + parent.dur_ns})")
        children.setdefault(sp.parent if parent is not None else -1,
                            []).append(sp)
    for group in children.values():
        by_track: Dict[str, List[Span]] = {}
        for sp in group:
            by_track.setdefault(sp.track, []).append(sp)
        for track, sibs in by_track.items():
            sibs.sort(key=lambda s: (s.start_ns, s.sid))
            for a, b in zip(sibs, sibs[1:]):
                require(
                    a.start_ns + a.dur_ns <= b.start_ns,
                    f"sibling spans {a.name!r} and {b.name!r} overlap "
                    f"on track {track!r}")
