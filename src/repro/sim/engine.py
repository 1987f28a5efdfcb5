"""The discrete-event engine: one event loop, driven by a policy.

The paper ranks schedulers by the makespan their schedules *predict*;
this engine measures the makespan a placement *achieves* when
durations and message latencies deviate from the prediction.  One loop
serves two policies:

* :func:`simulate` executes a static schedule — estee's
  fixed-assignment mode: the task-to-processor mapping and each
  processor's execution order stay exactly as scheduled, because the
  replay policy hands the loop the schedule's per-processor sequences
  and never replans;
* :func:`repro.sim.online.simulate_online` drives an
  :class:`OnlinePolicy` that may replace the queues of not-yet-started
  tasks on every event.

Either way start times are never dictated: a task starts the moment
its processor is free, it heads the processor's queue, and all its
input data has arrived.  The policy decides *where* and *in what
order*, the clock decides *when*.

The loop is a single binary heap of timestamped events:

* **task-finish** — the running task on a processor completes: record
  its executed interval, hand each outgoing edge to the network backend
  (data for a consumer queued on the same processor is available
  immediately), and try to start the processor's next task;
* **message-arrival** — an inter-processor transfer completes at the
  destination: mark the input satisfied and try to start the waiting
  task.

Task *starts* need no event of their own: a task becomes startable
only while handling one of the two events above (or a replan), at
exactly the current simulation time.  Ties are broken by event
insertion order, which is itself deterministic, so a trial is a pure
function of ``(policy, perturbation draw, network backend)``.

Because a static schedule's combined order (precedence edges +
per-processor sequence edges) is topologically sorted by the original
start times, replay can never deadlock, whatever the noise does to
durations.  Under :data:`~repro.sim.perturb.DETERMINISTIC` noise and
the :func:`~repro.sim.netmodel.replay_network` backend, the executed
timeline equals the static schedule placement-for-placement — the
differential anchor the sim test-suite pins on the golden corpus.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..check import sanitize as _sanitize
from ..core.exceptions import ScheduleError
from ..core.graph import TaskGraph
from ..core.machine import Machine
from ..core.rng import SeedLike, as_generator
from ..core.schedule import Schedule, Violation, render_violations
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .netmodel import NetworkModel, replay_network
from .perturb import DETERMINISTIC, PerturbationModel

__all__ = ["OnlinePolicy", "SimResult", "percent_degradation", "simulate"]

#: The producer slot of a task-finish heap event (arrivals carry the
#: producer's node id there).
_FINISH = -1

#: A directive: for every processor, its queue of not-yet-started tasks.
Directives = List[List[int]]


class OnlinePolicy:
    """What the event loop talks to.

    Event methods may return new placement :data:`Directives` (every
    unstarted task, exactly once, in its processor's intended order) or
    ``None`` to keep the current queues.  The engine invokes them with
    *observed* facts only — task identities, processors, and actual
    event times; policies wanting cost estimates must bring their own
    observed view (see :mod:`repro.sim.online.imodes`).  A callback a
    subclass does not override is never called.
    """

    #: Makespan this policy expected before execution started; the
    #: engine copies it into the result's ``predicted``.
    predicted: float = 0.0

    def begin(self, machine: Machine) -> Directives:
        """Initial queues before the clock starts; must be complete."""
        raise NotImplementedError

    def task_started(self, node: int, proc: int,
                     now: float) -> Optional[Directives]:
        """``node`` began executing on ``proc`` at ``now``."""
        return None

    def task_finished(self, node: int, proc: int,
                      now: float) -> Optional[Directives]:
        """``node`` completed on ``proc`` at ``now``."""
        return None

    def message_arrived(self, src: int, dst: int, proc: int,
                        now: float) -> Optional[Directives]:
        """The edge ``src -> dst``'s data reached ``proc`` at ``now``."""
        return None

    def worker_idle(self, proc: int, now: float) -> Optional[Directives]:
        """``proc`` has nothing startable at ``now``."""
        return None


def _resolve_edge(missing: List[int], ready_time: List[float],
                  child: int, when: float) -> bool:
    """One input of ``child`` became available at time ``when``.

    Decrements the outstanding-input count and advances the child's
    data-ready time; returns ``True`` when the last input just landed
    (the caller may then try to start the child's processor).
    """
    missing[child] -= 1
    if when > ready_time[child]:
        ready_time[child] = when
    return missing[child] == 0


def _stall_violations(graph: TaskGraph, executed: Schedule,
                      queues: List[List[int]]) -> List[Violation]:
    """Diagnose a stalled run: who is blocked, on which inputs.

    At stall time the event heap is empty, so every finished task has
    delivered all its edges — a head task's outstanding inputs are
    exactly its predecessors that never executed.
    """
    violations = []
    for p, queue in enumerate(queues):
        if not queue:
            continue
        head = queue[0]
        waiting = [u for u in graph.pred_pairs(head)[0]
                   if not executed.is_scheduled(u)]
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
    """One executed trial.

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


class _Replay(OnlinePolicy):
    """A static schedule as a policy: its sequences, never a replan."""

    def __init__(self, schedule: Schedule):
        self.schedule = schedule

    def begin(self, machine: Machine) -> Directives:
        return [self.schedule.nodes_on(p)
                for p in range(self.schedule.num_procs)]


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
        executed, num_events, _ = _execute(
            schedule.graph, Machine(schedule.num_procs, schedule.speeds),
            _Replay(schedule), perturb,
            network if network is not None else replay_network(schedule),
            rng, "replay stalled before completing the schedule "
                 "(inconsistent processor sequences)")
    result = SimResult(schedule=executed, predicted=schedule.length,
                       makespan=executed.length, num_events=num_events)
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


def _execute(graph: TaskGraph, machine: Machine, policy: OnlinePolicy,
            perturb: PerturbationModel, net: NetworkModel, rng: SeedLike,
            stalled: str
            ) -> Tuple[Schedule, int, List[Tuple[float, str, int]]]:
    """The event loop behind :func:`simulate` and ``simulate_online``.

    Returns the executed timeline, the number of heap events popped and
    the replan log (see ``OnlineResult.replan_log``).  A run that ends
    with tasks still queued raises :class:`ScheduleError` with the
    message ``stalled`` and a table of the blocked queue heads.

    The engine enforces the complete-plan contract: after every
    directive, each unstarted task sits in exactly one queue.  This is
    what lets communication be charged eagerly — data is pushed at the
    producer's finish to wherever the consumer is assigned *at that
    moment*.  A later replan may still move the consumer: remote sends
    stay exact under the distance-invariant transports online runs
    accept (instant / fixed-delay clique); zero-cost *local* handoffs
    are re-charged at the consumer's actual start when it ended up
    elsewhere (the data is sent for real, from the producer's finish);
    and a consumer moving *back* onto a producer's processor keeps the
    already-charged remote latency — a conservative, never-invalid
    overcharge.
    """
    n = graph.num_nodes
    num_procs = machine.num_procs
    noise = perturb.begin_trial(as_generator(rng), n, num_procs)
    net.reset()

    # Bound once per run; a callback the policy's class leaves as the
    # base no-op is None and never called.
    on_started, on_finished, on_arrived, on_idle = [
        None if getattr(type(policy), name) is getattr(OnlinePolicy, name)
        else getattr(policy, name)
        for name in ("task_started", "task_finished", "message_arrived",
                     "worker_idle")]

    missing = [graph.in_degree(v) for v in range(n)]
    ready_time = [0.0] * n          # latest input arrival so far
    proc_free = [0.0] * num_procs
    running = [False] * num_procs
    # Each node's processor: its queue's while pending, its own once
    # started (a started task is never re-queued).
    assigned = [-1] * n
    # Each processor's queue; its unstarted tasks begin at head[p].
    pending: List[List[int]] = []
    head: List[int] = []
    # Edges delivered as zero-cost local handoffs (consumer co-located
    # with the producer at its finish).  A later replan may still move
    # the consumer, and then the transfer is real after all — try_start
    # re-charges it against the consumer's final processor.
    local_srcs: List[List[int]] = [[] for _ in range(n)]

    executed = Schedule(graph, num_procs, speeds=machine.speeds)
    replan_log: List[Tuple[float, str, int]] = []
    # (time, insertion seq, producer or _FINISH, node): the finish of
    # node, or the arrival of its input from producer.
    heap: List[Tuple[float, int, int, int]] = []
    push = heapq.heappush
    seq = itertools.count()
    num_events = 0

    def apply(directives: Optional[Directives]) -> Optional[int]:
        """Swap in a policy's new queues; enforce the complete plan.

        Returns the number of pending tasks the directive *migrated*
        (moved to a different processor than their previous
        assignment), or ``None`` when the policy stood pat.
        """
        if directives is None:
            return None
        if len(directives) != num_procs:
            raise ScheduleError(
                f"online policy returned {len(directives)} queue(s) for "
                f"{num_procs} processor(s)")
        seen = set()
        moved = 0
        queues: List[List[int]] = []
        for p, nodes in enumerate(directives):
            queue = []
            for node in nodes:
                if executed.is_scheduled(node):
                    raise ScheduleError(
                        f"online policy re-queued task {node}, which "
                        "already started")
                if node in seen:
                    raise ScheduleError(
                        f"online policy queued task {node} twice")
                seen.add(node)
                if 0 <= assigned[node] != p:
                    moved += 1
                assigned[node] = p
                queue.append(node)
            queues.append(queue)
        unstarted = n - executed.num_scheduled
        if len(seen) != unstarted:
            left_out = sorted(v for v in range(n)
                              if not executed.is_scheduled(v)
                              and v not in seen)
            raise ScheduleError(
                f"online policy left task(s) {left_out} unqueued — the "
                "engine requires a complete plan after every directive")
        pending[:] = queues
        head[:] = [0] * num_procs
        return moved

    def notify(directives: Optional[Directives], now: float,
               cause: str) -> None:
        """Apply an event reply; every accepted directive is a replan.

        A replan can hand startable work to *any* processor — e.g.
        move a blocked head off one queue onto an idle machine — so an
        accepted directive re-tries every processor, not just the one
        the triggering event touched.  ``cause`` names the policy
        callback that produced the directive; it is recorded with the
        migration count in the replan log.
        """
        moved = apply(directives)
        if moved is not None:
            replan_log.append((now, cause, moved))
            for q in range(num_procs):
                try_start(q, now)

    def try_start(p: int, now: float) -> None:
        queue, i = pending[p], head[p]
        if running[p] or i == len(queue):
            return
        node = queue[i]
        if missing[node]:
            return
        # Event-triggered starts always have now == the last blocker
        # clearing, so the clamp only bites on post-replan sweeps: a
        # task whose inputs landed while it was queued elsewhere cannot
        # start before the decision that moved it was made.
        start = max(proc_free[p], ready_time[node], now)
        for src in local_srcs[node]:
            if assigned[src] != p:
                # The handoff was local when the producer finished, but
                # a replan moved the consumer since — send the data for
                # real, from the producer's finish.
                arrival, msg = net.arrival(
                    src, node, assigned[src], p, executed.finish_of(src),
                    graph.comm_cost(src, node), noise.comm_factor())
                if msg is not None:
                    executed.record_message(msg)
                if arrival > start:
                    start = arrival
        duration = noise.duration(node, p, executed.duration_of(node, p))
        executed.place(node, p, start, duration=duration)
        head[p] = i + 1
        running[p] = True
        push(heap, (start + duration, next(seq), _FINISH, node))
        if on_started is not None:
            notify(on_started(node, p, start), start, "task_started")

    apply(policy.begin(machine))
    for p in range(num_procs):
        try_start(p, 0.0)
        if on_idle is not None and not running[p]:
            notify(on_idle(p, 0.0), 0.0, "worker_idle")

    sanitizing = _sanitize.enabled()
    last_now = 0.0
    while heap:
        now, _, src, node = heapq.heappop(heap)
        num_events += 1
        if sanitizing:
            # Event-heap monotonicity: a pop that travels back in time
            # means heap entries (or their timestamps) were corrupted.
            _sanitize.require(
                now >= last_now - 1e-9,
                f"event heap popped time {now!r} after {last_now!r}")
            last_now = now
        if src == _FINISH:  # repro: noqa-RPR005 integer event tag, not a time
            p = assigned[node]
            running[p] = False
            proc_free[p] = now
            if on_finished is not None:
                notify(on_finished(node, p, now), now, "task_finished")
            children, costs = graph.succ_pairs(node)
            for child, cost in zip(children, costs):
                dst = assigned[child]
                if dst == p:
                    # Local handoff under the current assignment; no
                    # event needed.  Starting the child is left to the
                    # single trailing try_start(p), so the head is
                    # re-tried exactly once per finish event.
                    _resolve_edge(missing, ready_time, child, now)
                    local_srcs[child].append(node)
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
                    push(heap, (arrival, next(seq), node, child))
            try_start(p, now)
            if on_idle is not None and not running[p]:
                notify(on_idle(p, now), now, "worker_idle")
        else:  # node's input from src arrived
            if on_arrived is not None:
                notify(on_arrived(src, node, assigned[node], now),
                       now, "message_arrived")
            if _resolve_edge(missing, ready_time, node, now):
                try_start(assigned[node], now)

    # notify and try_start call each other; unbinding them frees the
    # run's state now instead of at the next cycle collection.
    del notify, try_start
    if not executed.is_complete():
        table = render_violations(_stall_violations(
            graph, executed, [q[h:] for q, h in zip(pending, head)]))
        raise ScheduleError(f"{stalled}:\n{table}")
    return executed, num_events, replan_log
