"""Named counters, gauges and histograms with near-free disarmed hooks.

The registry shares the tracer's arming model (``REPRO_TRACE=1``, see
:mod:`repro.obs.trace`): disarmed, :func:`incr`/:func:`observe` return
after one module-global load and one environment probe — cheap enough
to sit inside ``LazyPriorityQueue.pop_best`` and the arrival-profile
builder without moving the bench gate.

Counter names form a small registry (see DESIGN.md "Observability"):

===================== ==================================================
``kernel.sweeps``      level sweeps run (local; MD/DCP run two a step)
``kernel.profiles``    arrival profiles built
``sched.heap_pops``    successful lazy-heap pops
``sched.insertion_holes``  hole-filled placements (ISH-style back-fill)
``sim.events``         heap events popped replaying static schedules
``online.events``      heap events popped in online runs
``online.replans``     accepted replan directives
``online.migrations``  pending tasks moved between processors by replans
``store.cache_hits``   grid cells served from a ResultStore (local)
``service.requests``   HTTP requests answered by the schedule service
``service.cache_hits`` requests served from the schedule cache (local)
``service.rejected``   requests bounced with 429 backpressure (local)
``service.timeouts``   requests answered 504 past the deadline (local)
===================== ==================================================

Counters marked *local* depend on per-process memo caches (a worker
recomputes what a serial run memoizes) or on request timing (how a
storm interleaves decides which requests find the cache warm, hit the
queue bound or outrun the deadline), so the manifest keeps them in a
separate ``local`` section that is excluded from the cross-``--jobs``
determinism contract and from the regression gate.

This module must stay import-light (stdlib only).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .trace import armed

__all__ = [
    "LOCAL_COUNTERS",
    "incr",
    "gauge",
    "observe",
    "counters",
    "local_counters",
    "gauges",
    "histograms",
    "snapshot",
    "swap",
    "absorb",
    "reset",
]

#: Counter names whose totals depend on per-process caches or request
#: timing, not on the work itself; kept out of the deterministic
#: manifest section.
LOCAL_COUNTERS = frozenset({
    "kernel.sweeps",
    "store.cache_hits",
    "service.cache_hits",
    "service.rejected",
    "service.timeouts",
})

# The registry: {"counters": {...}, "local": {...}, "gauges": {...},
# "hists": {name: {"count", "total", "min", "max"}}} — or None while
# nothing has been recorded (the disarmed fast path).
_STATE: Optional[Dict[str, Dict[str, Any]]] = None


def _fresh() -> Dict[str, Dict[str, Any]]:
    return {"counters": {}, "local": {}, "gauges": {}, "hists": {}}


def _state() -> Optional[Dict[str, Dict[str, Any]]]:
    global _STATE
    state = _STATE
    if state is None:
        if not armed():
            return None
        state = _STATE = _fresh()
    return state


def incr(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` (no-op while disarmed)."""
    state = _STATE
    if state is None:
        if not armed():
            return
        state = _state()
        assert state is not None
    section = state["local" if name in LOCAL_COUNTERS else "counters"]
    section[name] = section.get(name, 0) + n


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to its latest ``value`` (no-op disarmed)."""
    state = _state()
    if state is None:
        return
    state["gauges"][name] = value


def observe(name: str, value: float) -> None:
    """Fold ``value`` into histogram ``name`` (no-op disarmed).

    Histograms keep a constant-size summary (count/total/min/max) so
    observing per-decision quantities never grows memory.
    """
    state = _state()
    if state is None:
        return
    hist = state["hists"].get(name)
    if hist is None:
        state["hists"][name] = {"count": 1, "total": value,
                                "min": value, "max": value}
        return
    hist["count"] += 1
    hist["total"] += value
    if value < hist["min"]:
        hist["min"] = value
    if value > hist["max"]:
        hist["max"] = value


# ----------------------------------------------------------------------
# snapshots and cross-process merge
# ----------------------------------------------------------------------
def counters() -> Dict[str, int]:
    """Deterministic counters recorded so far (sorted copy)."""
    state = _STATE
    if state is None:
        return {}
    return dict(sorted(state["counters"].items()))


def local_counters() -> Dict[str, int]:
    """Cache-dependent counters (excluded from determinism contracts)."""
    state = _STATE
    if state is None:
        return {}
    return dict(sorted(state["local"].items()))


def gauges() -> Dict[str, float]:
    state = _STATE
    if state is None:
        return {}
    return dict(sorted(state["gauges"].items()))


def histograms() -> Dict[str, Dict[str, float]]:
    state = _STATE
    if state is None:
        return {}
    return {k: dict(v) for k, v in sorted(state["hists"].items())}


def snapshot() -> Dict[str, Dict[str, Any]]:
    """Picklable copy of every section (for :func:`repro.obs.collect`)."""
    return {"counters": counters(), "local": local_counters(),
            "gauges": gauges(), "hists": histograms()}


def swap(state: Optional[Dict[str, Dict[str, Any]]] = None
         ) -> Optional[Dict[str, Dict[str, Any]]]:
    """Install ``state`` (default: empty) and return the outgoing state.

    The scoped-collection primitive behind
    :func:`repro.obs.trace.collect`: swap in ``None`` to start a fresh
    scope, swap the previous handle back to restore it — the return
    value is the scope's recorded sections.
    """
    global _STATE
    old = _STATE
    _STATE = state
    return old


def absorb(payload: Dict[str, Any]) -> None:
    """Merge a collected payload's metric sections (counters add up,
    gauges take the latest value, histogram summaries fold together)."""
    if not any(payload.get(k) for k in ("counters", "local", "gauges",
                                        "hists")):
        return
    state = _state()
    if state is None:  # disarmed mid-flight; nothing to merge into
        return
    for section in ("counters", "local"):
        dest = state[section]
        for name, n in payload.get(section, {}).items():
            dest[name] = dest.get(name, 0) + n
    state["gauges"].update(payload.get("gauges", {}))
    dest_h = state["hists"]
    for name, hist in payload.get("hists", {}).items():
        mine = dest_h.get(name)
        if mine is None:
            dest_h[name] = dict(hist)
            continue
        mine["count"] += hist["count"]
        mine["total"] += hist["total"]
        mine["min"] = min(mine["min"], hist["min"])
        mine["max"] = max(mine["max"], hist["max"])


def reset() -> None:
    """Drop everything recorded (tests and verb boundaries)."""
    global _STATE
    _STATE = None
