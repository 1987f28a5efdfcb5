"""Shared result types, statistics and the per-layer metric table."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

import spans as spans_mod
from repro.obs.report import self_times

#: ``setup_s`` is the median of at least SETUP_REPS set-ups, repeated
#: until SETUP_MIN_S seconds have gone: a set-up of a fraction of a
#: second would otherwise be timed in a handful of the host's noisy
#: moments.
SETUP_REPS = 3
SETUP_MIN_S = 3.0

T = TypeVar("T")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

ALGORITHM_NAMES = ("HLFET", "ISH", "MCP", "ETF", "DLS", "LAST", "LC", "DSC",
                   "MH", "DLS-APN", "BU", "BSA", "param-blevel-est")
#: Counter metric -> the counter it reads.  ``sched.insertion_holes``
#: comes from the benchmark's ``Schedule.place`` wrapper: the program's
#: counter of that name sees only component-spec hole fills, not the
#: ISH and MCP monoliths.
COUNTERS = {"kernel.profiles": "kernel.profiles",
            "kernel.sweeps": "kernel.sweeps",
            "sched.heap_pops": "sched.heap_pops",
            "sched.insertion_holes": spans_mod.INSERTIONS}
#: Span name -> metric reporting its self time per operation.
SPAN_METRICS = {
    "core.schedule.validate": "core.schedule.validate_s",
    "core.graph.build.server": "core.graph.build_s.server",
    "core.graph.build.worker": "core.graph.build_s.worker",
    "core.graph.fingerprint": "core.graph.fingerprint_s",
    "service.protocol.read": "service.protocol.read_s",
    "service.protocol.parse": "service.protocol.parse_s",
    "service.server.key": "service.server.key_s",
    "service.protocol.encode": "service.protocol.encode_s",
    "service.worker.schedule_cell": "service.worker.schedule_cell_s",
}
#: Layers whose self time is reported (generation happens in set-up).
SELF_LAYERS = tuple(layer for layer in spans_mod.LAYERS
                    if layer != "generators")

PER_LAYER = (
    [("algorithms.schedule_s." + a, "s/call") for a in ALGORITHM_NAMES]
    + [(c, "count/op") for c in COUNTERS]
    + [(m, "s/op") for m in SPAN_METRICS.values()]
    + [("service.server.wait_s", "s/op"),
       ("service.server.batch_size", "count"),
       ("service.cache.hit_ratio", "ratio"),
       ("service.server.coalesced", "count"),
       ("bench.parallel.run_batch_s", "s/op"),
       ("bench.parallel.ipc_s", "s/op"),
       ("bench.parallel.busy_ratio", "ratio"),
       ("bench.parallel.straggler_s", "s"),
       ("generators.graph_s", "s")]
    + [(f"layer.{layer}.self_s", "s/op") for layer in SELF_LAYERS]
    + [("trace.overhead_pct", "%")]
)


def repeat_setup(make: Callable[[], T],
                 dispose: Optional[Callable[[T], None]] = None
                 ) -> Tuple[T, float]:
    """Set up repeatedly; returns the last set-up and the median seconds.

    ``dispose`` releases each set-up but the last.
    """
    times: List[float] = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        if times and dispose is not None:
            dispose(result)
        t0 = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - t0)
    return result, median(times)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class Phase:
    """One measured stretch of a workload."""

    ops: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)  # seconds
    wall_s: float = 0.0
    busy_s: float = 0.0  # time inside the measured operations
    rates: List[float] = field(default_factory=list)  # ops/s per pass

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(message)

    def merge(self, other: "Phase") -> None:
        """Fold a further stretch of the same workload into this one."""
        self.ops += other.ops
        self.failed += other.failed
        self.messages += other.messages
        self.latencies += other.latencies
        self.wall_s += other.wall_s
        self.busy_s += other.busy_s
        self.rates += other.rates


@dataclass
class Outcome:
    """What a workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    setup_s: float = 0.0
    ops_per_s: float = 0.0
    p50_ms: float = 0.0
    p90_ms: float = 0.0
    peak_rss_mb: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)

    def absorb(self, phase: Phase) -> None:
        self.attempted += phase.ops
        self.failed += phase.failed
        self.messages.extend(phase.messages)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.messages.append(message)

    def note(self, line: str) -> None:
        self.notes.append(line)

    def throughput(self, ops_per_s: float, latencies: List[float]) -> None:
        """End-to-end figures from a rate and latencies in seconds."""
        self.ops_per_s = ops_per_s
        n = len(latencies)
        if n:
            self.p50_ms = percentile(latencies, 0.50) * 1000.0
            self.p90_ms = percentile(latencies, 0.90) * 1000.0
        beyond = n - 1 - round(0.90 * (n - 1)) if n else 0
        self.note(f"latency samples: {n} ({beyond} beyond p90)")

    def end_to_end(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name, _unit in END_TO_END}


def overhead_pct(plain: Phase, traced: Phase) -> float:
    """Traced vs untraced time per operation, in percent."""
    return 100.0 * ((traced.busy_s / traced.ops)
                    / (plain.busy_s / plain.ops) - 1.0)


def layer_metrics(spans: List, ops: int, counters: Dict[str, int],
                  setup_spans: Optional[List] = None) -> Dict[str, float]:
    """Per-layer figures from the traced phase's spans.

    Function metrics are self time per operation (cell or request);
    algorithm metrics are mean self time per call of that algorithm;
    counters are per operation.  Metrics the spans do not cover stay 0
    (the layer did no work on this workload).
    """
    out = {name: 0.0 for name, _unit in PER_LAYER}
    times = self_times(spans)
    for name, (count, _total, own) in times.items():
        if name.startswith("algorithms.schedule."):
            algo = name[len("algorithms.schedule."):]
            out["algorithms.schedule_s." + algo] = own / count / 1e9
        elif name in SPAN_METRICS:
            out[SPAN_METRICS[name]] = own / ops / 1e9
        if name != "bench.parallel.run_batch":  # wall time, see storms.py
            key = f"layer.{spans_mod.layer_of(name)}.self_s"
            if key in out:
                out[key] += own / ops / 1e9
    for metric, counter in COUNTERS.items():
        out[metric] = counters.get(counter, 0) / ops
    out["generators.graph_s"] = sum(
        sp.dur_ns for sp in setup_spans or ()
        if sp.name == "generators.graph") / 1e9
    return out
