"""The discrete-event engine: *execute* a static schedule.

The paper ranks schedulers by the makespan their schedules *predict*;
this engine measures the makespan a schedule *achieves* when durations
and message latencies deviate from the prediction.  The replay contract
is the standard one for static schedules (estee's fixed-assignment
mode): the task-to-processor mapping and each processor's execution
order are kept exactly as scheduled, while every start time is
recomputed eagerly — a task starts the moment its processor is free,
it is next in the processor's sequence, and all its input data has
arrived.

The loop is a single binary heap of timestamped events:

* **task-finish** — the running task on a processor completes: record
  its executed interval, hand each outgoing edge to the network backend
  (same-processor data is available immediately), and try to start the
  processor's next task;
* **message-arrival** — an inter-processor transfer completes at the
  destination: mark the input satisfied and try to start the waiting
  task.

Task *starts* need no event of their own: a task becomes startable only
while handling one of the two events above, at exactly the current
simulation time.  Ties are broken by event insertion order, which is
itself deterministic, so a trial is a pure function of ``(schedule,
perturbation draw, network backend)``.

Because the combined order (precedence edges + per-processor sequence
edges) is topologically sorted by the original start times, replay can
never deadlock, whatever the noise does to durations.

Under :data:`~repro.sim.perturb.DETERMINISTIC` noise and the
:func:`~repro.sim.netmodel.replay_network` backend, the executed
timeline equals the static schedule placement-for-placement — the
differential anchor the sim test-suite pins on the golden corpus.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

from ..check import sanitize as _sanitize
from ..core.exceptions import ScheduleError
from ..core.rng import SeedLike, as_generator
from ..core.schedule import Schedule, Violation, render_violations
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .netmodel import NetworkModel, replay_network
from .perturb import DETERMINISTIC, PerturbationModel

__all__ = ["SimResult", "percent_degradation", "simulate"]

_FINISH = 0
_ARRIVAL = 1


def _resolve_edge(missing: List[int], ready_time: List[float],
                  child: int, when: float) -> bool:
    """One input of ``child`` became available at time ``when``.

    Decrements the outstanding-input count and advances the child's
    data-ready time; returns ``True`` when the last input just landed
    (the caller may then try to start the child's processor).  Shared
    by the static replay loop below and the online engine
    (:mod:`repro.sim.online`), so the two agree on edge bookkeeping.
    """
    missing[child] -= 1
    if when > ready_time[child]:
        ready_time[child] = when
    return missing[child] == 0


def _stall_violations(graph, executed: Schedule, sequences: List[List[int]],
                      next_idx: List[int]) -> List[Violation]:
    """Diagnose a stalled replay: who is blocked, on which inputs.

    At stall time the event heap is empty, so every finished task has
    delivered all its edges — a head task's outstanding inputs are
    exactly its predecessors that never executed.
    """
    done = {v for v in range(graph.num_nodes) if executed.is_scheduled(v)}
    violations = []
    for p, seq in enumerate(sequences):
        if next_idx[p] >= len(seq):
            continue
        head = seq[next_idx[p]]
        waiting = [u for u in graph.pred_pairs(head)[0] if u not in done]
        violations.append(Violation(
            code="stalled",
            message=f"head task waits on unexecuted predecessor(s) "
                    f"{waiting}",
            node=head, proc=p))
    return violations


def percent_degradation(executed: float, predicted: float,
                        num_nodes: int) -> float:
    """``executed`` over ``predicted`` makespan, as a percentage change.

    A non-positive prediction is only legitimate for an empty graph; on
    any real schedule it is corrupt, not "no degradation".
    """
    if predicted <= 0:
        if num_nodes == 0:
            return 0.0
        raise ScheduleError(
            f"predicted makespan {predicted!r} is not positive for a "
            f"{num_nodes}-node graph — corrupt prediction, degradation "
            "undefined")
    return 100.0 * (executed - predicted) / predicted


@dataclass
class SimResult:
    """One executed trial of a static schedule.

    ``schedule`` is the executed timeline — a real
    :class:`~repro.core.schedule.Schedule` (with per-task duration
    overrides), so every downstream tool (gantt rendering, metrics,
    validation with ``check_durations=False``) applies unchanged.
    """

    schedule: Schedule
    predicted: float
    makespan: float
    num_events: int

    @property
    def degradation_pct(self) -> float:
        """Executed makespan over predicted, as a percentage change
        (see :func:`percent_degradation`)."""
        return percent_degradation(self.makespan, self.predicted,
                                   self.schedule.graph.num_nodes)


def simulate(schedule: Schedule,
             perturb: PerturbationModel = DETERMINISTIC,
             network: Optional[NetworkModel] = None,
             rng: SeedLike = None,
             label: Optional[str] = None) -> SimResult:
    """Execute ``schedule`` once under a perturbation model.

    Parameters
    ----------
    schedule:
        A complete static schedule (any algorithm, any machine model).
    perturb:
        Noise configuration; :data:`~repro.sim.perturb.DETERMINISTIC`
        replays the prediction exactly.
    network:
        Transport backend; ``None`` picks
        :func:`~repro.sim.netmodel.replay_network` (the backend that
        makes zero-noise replay exact for this schedule).
    rng:
        Seed or generator for the noise draws.
    label:
        Observability tag (usually the algorithm name).  With tracing
        armed, the first trial per ``(label, graph)`` records its
        executed timeline as a per-processor Perfetto track.
    """
    if not schedule.is_complete():
        raise ScheduleError("can only simulate a complete schedule")
    with _trace.span("sim.run", graph=schedule.graph.name,
                     label=label or "") as sp:
        result = _replay(schedule, perturb, network, rng)
    if sp is not None:
        sp.args["events"] = result.num_events
    _metrics.incr("sim.events", result.num_events)
    key = ("sim", label or "", schedule.graph.name)
    if _trace.wants_timeline(key):  # first trial per key records
        from ..io.gantt import timeline_rows

        _trace.add_timeline(
            key,
            label=f"sim: {label or 'schedule'} on {schedule.graph.name}",
            rows=timeline_rows(result.schedule))
    return result


def _replay(schedule: Schedule, perturb: PerturbationModel,
            network: Optional[NetworkModel], rng: SeedLike) -> SimResult:
    """The replay loop behind :func:`simulate` (input already valid)."""
    graph = schedule.graph
    n = graph.num_nodes
    num_procs = schedule.num_procs
    noise = perturb.begin_trial(as_generator(rng), n, num_procs)
    net = network if network is not None else replay_network(schedule)
    net.reset()

    # Static replay state, all derived from the input schedule.
    proc_of = [schedule.proc_of(v) for v in range(n)]
    sequences: List[List[int]] = [
        [pl.node for pl in schedule.tasks_on(p)] for p in range(num_procs)
    ]
    missing = [graph.in_degree(v) for v in range(n)]
    ready_time = [0.0] * n          # latest input arrival so far
    next_idx = [0] * len(sequences)  # head of each processor's sequence
    proc_free = [0.0] * num_procs
    running = [False] * num_procs

    executed = Schedule(graph, num_procs, speeds=schedule.speeds)
    heap: List[tuple] = []  # (time, insertion seq, kind, payload)
    seq_counter = 0
    num_events = 0

    def push(time: float, kind: int, payload: int) -> None:
        nonlocal seq_counter
        heapq.heappush(heap, (time, seq_counter, kind, payload))
        seq_counter += 1

    def try_start(p: int) -> None:
        if running[p] or next_idx[p] >= len(sequences[p]):
            return
        node = sequences[p][next_idx[p]]
        if missing[node]:
            return
        start = max(proc_free[p], ready_time[node])
        duration = noise.duration(node, p, schedule.duration_of(node, p))
        executed.place(node, p, start, duration=duration)
        running[p] = True
        next_idx[p] += 1
        push(start + duration, _FINISH, node)

    for p in range(num_procs):
        try_start(p)

    sanitizing = _sanitize.enabled()
    last_now = 0.0
    while heap:
        now, _, kind, payload = heapq.heappop(heap)
        num_events += 1
        if sanitizing:
            # Event-heap monotonicity: a pop that travels back in time
            # means heap entries (or their timestamps) were corrupted.
            _sanitize.require(
                now >= last_now - 1e-9,
                f"event heap popped time {now!r} after {last_now!r}")
            last_now = now
        if kind == _FINISH:  # repro: noqa-RPR005 integer event-kind tag, not a time
            node, p = payload, proc_of[payload]
            running[p] = False
            proc_free[p] = now
            children, costs = graph.succ_pairs(node)
            for child, cost in zip(children, costs):
                dst = proc_of[child]
                if dst == p:
                    # Local data is available immediately; no event
                    # needed — resolve in place.  Starting the child is
                    # left to the single trailing try_start(p): dst == p
                    # here, so the head is re-tried exactly once per
                    # finish event.
                    _resolve_edge(missing, ready_time, child, now)
                else:
                    # Every cross-processor edge goes through the
                    # backend, zero-cost ones included: a backend with
                    # per-message latency charges them too (the clique
                    # default adds nothing, keeping zero-noise replay
                    # exact).
                    factor = noise.comm_factor()
                    arrival, msg = net.arrival(node, child, p, dst, now,
                                               cost, factor)
                    if msg is not None:
                        executed.record_message(msg)
                    push(arrival, _ARRIVAL, child)
            try_start(p)
        else:  # _ARRIVAL
            child = payload
            if _resolve_edge(missing, ready_time, child, now):
                try_start(proc_of[child])

    if not executed.is_complete():
        table = render_violations(
            _stall_violations(graph, executed, sequences, next_idx))
        raise ScheduleError(
            "replay stalled before completing the schedule "
            "(inconsistent processor sequences):\n" + table)
    return SimResult(
        schedule=executed,
        predicted=schedule.length,
        makespan=executed.length,
        num_events=num_events,
    )
