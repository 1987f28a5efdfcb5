"""The event-driven online loop: the simulator asks, the policy places.

Where :func:`repro.sim.engine.simulate` replays a *fixed* mapping, this
loop keeps the per-processor work queues mutable and drives an
:class:`OnlinePolicy` with the same two heap events (task-finish,
message-arrival) plus worker-idle notifications.  The policy replies
with *placement directives*: complete per-processor queues of every
not-yet-started task, which the engine swaps in atomically.  Start
times are never dictated — as in static replay, a task starts the
moment its processor is free, it heads the processor's queue, and all
its inputs have arrived; the policy decides *where* and *in what
order*, the clock decides *when*.

The engine enforces the complete-plan contract: after every directive,
each unstarted task sits in exactly one queue.  This is what lets
communication be charged eagerly — data is pushed at the producer's
finish to wherever the consumer is assigned *at that moment*.  A later
replan may still move the consumer: remote sends stay exact under the
distance-invariant transport models this engine targets (instant /
fixed-delay clique); zero-cost *local* handoffs are re-charged at the
consumer's actual start when it ended up elsewhere (the data is sent
for real, from the producer's finish); and a consumer moving *back*
onto a producer's processor keeps the already-charged remote latency —
a conservative, never-invalid overcharge.

Information asymmetry lives one level up: the policy plans from an
*observed* graph (:mod:`repro.sim.online.imodes`) while this loop
charges the *true* graph's weights under the perturbation model — the
policy only ever learns true times through the events it receives.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from ...check import sanitize as _sanitize
from ...core.exceptions import ScheduleError
from ...obs import metrics as _metrics
from ...obs import trace as _trace
from ...core.graph import TaskGraph
from ...core.machine import Machine
from ...core.rng import SeedLike, as_generator
from ...core.schedule import Schedule, render_violations
from ..engine import (_ARRIVAL, _FINISH, _resolve_edge, _stall_violations,
                      percent_degradation)
from ..netmodel import FixedDelayNetwork, NetworkModel
from ..perturb import DETERMINISTIC, PerturbationModel

__all__ = ["OnlinePolicy", "OnlineResult", "simulate_online"]

#: A directive: for every processor, its queue of not-yet-started tasks.
Directives = List[List[int]]


class OnlinePolicy:
    """What the online engine talks to.

    Event methods may return new placement :data:`Directives` (every
    unstarted task, exactly once, in its processor's intended order) or
    ``None`` to keep the current queues.  The engine invokes them with
    *observed* facts only — task identities, processors, and actual
    event times; policies wanting cost estimates must bring their own
    observed view (see :mod:`repro.sim.online.imodes`).
    """

    #: Makespan this policy expected before execution started; the
    #: engine copies it into :attr:`OnlineResult.predicted`.
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


@dataclass
class OnlineResult:
    """One online execution.

    ``schedule`` is the executed timeline — a real
    :class:`~repro.core.schedule.Schedule` with per-task duration
    overrides, so gantt rendering, metrics and validation
    (``check_durations=False``) apply unchanged.  ``trace`` records
    placements in start order: the determinism contract is that the
    same ``(spec, imode, seed)`` yields the same trace anywhere.
    """

    schedule: Schedule
    predicted: float
    makespan: float
    num_events: int
    num_replans: int
    trace: List[Tuple[int, int, float]] = field(default_factory=list)
    #: Every accepted replan as ``(time, cause, migrations)``: *cause*
    #: is the triggering event callback (``task_finished`` /
    #: ``message_arrived`` / ``worker_idle`` / ``task_started``) and
    #: *migrations* counts pending tasks the directive moved to a
    #: different processor.
    replan_log: List[Tuple[float, str, int]] = field(default_factory=list)

    @property
    def degradation_pct(self) -> float:
        """Executed makespan over the policy's prediction, as a pct
        (see :func:`repro.sim.engine.percent_degradation`)."""
        return percent_degradation(self.makespan, self.predicted,
                                   self.schedule.graph.num_nodes)


def simulate_online(graph: TaskGraph,
                    machine: Machine,
                    policy,
                    perturb: PerturbationModel = DETERMINISTIC,
                    network: Optional[NetworkModel] = None,
                    rng: SeedLike = None,
                    label: Optional[str] = None) -> OnlineResult:
    """Execute ``graph`` on ``machine`` under an online policy.

    ``policy`` may be an :class:`OnlinePolicy` instance, an
    :class:`~repro.sim.online.spec.OnlineSchedulerSpec`, or an
    ``online:`` spec string (the latter two build the predictive-
    reactive :class:`~repro.sim.online.scheduler.PlanRescheduler`).
    ``perturb``/``rng`` drive the *charged* durations and latencies
    exactly as in :func:`repro.sim.engine.simulate`; ``network``
    defaults to the fixed-delay clique model (there is no static
    schedule to replay a message plan from).  ``label`` tags the
    observability layer: with tracing armed, the first execution per
    ``(label, graph)`` records its per-processor timeline plus the
    attributed replan events.
    """
    from .scheduler import PlanRescheduler
    from .spec import OnlineSchedulerSpec, parse_online_spec

    if isinstance(policy, str):
        policy = parse_online_spec(policy)
    if isinstance(policy, OnlineSchedulerSpec):
        policy = PlanRescheduler(policy, graph, machine)

    with _trace.span("online.run", graph=graph.name,
                     label=label or "") as sp:
        result = _execute_online(graph, machine, policy, perturb,
                                 network, rng)
    _metrics.incr("online.events", result.num_events)
    _metrics.incr("online.replans", result.num_replans)
    migrations = sum(moved for _, _, moved in result.replan_log)
    _metrics.incr("online.migrations", migrations)
    if sp is not None:
        sp.args.update(events=result.num_events,
                       replans=result.num_replans,
                       migrations=migrations)
    key = ("online", label or "", graph.name)
    if _trace.wants_timeline(key):  # first execution per key records
        from ...io.gantt import timeline_rows

        _trace.add_timeline(
            key,
            label=f"online: {label or 'policy'} on {graph.name}",
            rows=timeline_rows(result.schedule),
            events=[(-1, when, "replan", {"cause": cause, "moved": moved})
                    for when, cause, moved in result.replan_log])
    return result


def _execute_online(graph: TaskGraph, machine: Machine,
                    policy: OnlinePolicy, perturb: PerturbationModel,
                    network: Optional[NetworkModel],
                    rng: SeedLike) -> OnlineResult:
    """The event loop behind :func:`simulate_online` (policy resolved)."""
    n = graph.num_nodes
    num_procs = machine.num_procs
    noise = perturb.begin_trial(as_generator(rng), n, num_procs)
    net = network if network is not None else FixedDelayNetwork()
    net.reset()

    missing = [graph.in_degree(v) for v in range(n)]
    ready_time = [0.0] * n
    proc_free = [0.0] * num_procs
    running = [False] * num_procs
    assigned = [-1] * n              # pending node -> its queue's proc
    pending: List[Deque[int]] = [deque() for _ in range(num_procs)]
    # Edges delivered as zero-cost local handoffs (consumer co-located
    # with the producer at its finish).  A later replan may still move
    # the consumer, and then the transfer is real after all — try_start
    # re-charges it against the consumer's final processor.
    local_srcs: List[List[int]] = [[] for _ in range(n)]

    executed = Schedule(graph, num_procs, speeds=machine.speeds)
    trace: List[Tuple[int, int, float]] = []
    replan_log: List[Tuple[float, str, int]] = []
    heap: List[tuple] = []  # (time, insertion seq, kind, payload)
    seq_counter = 0
    num_events = 0
    num_replans = 0

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
        new_pending: List[Deque[int]] = []
        for p, nodes in enumerate(directives):
            q: Deque[int] = deque()
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
                q.append(node)
            new_pending.append(q)
        unstarted = n - executed.num_scheduled
        if len(seen) != unstarted:
            left_out = sorted(v for v in range(n)
                              if not executed.is_scheduled(v)
                              and v not in seen)
            raise ScheduleError(
                f"online policy left task(s) {left_out} unqueued — the "
                "engine requires a complete plan after every directive")
        pending[:] = new_pending
        return moved

    def notify(directives: Optional[Directives], now: float,
               cause: str) -> None:
        """Apply an event reply; every accepted directive is a replan.

        A replan can hand startable work to *any* processor — e.g.
        move a blocked head off one queue onto an idle machine — so an
        accepted directive re-tries every processor, not just the one
        the triggering event touched.  ``cause`` names the policy
        callback that produced the directive; it is recorded with the
        migration count in :attr:`OnlineResult.replan_log`.
        """
        nonlocal num_replans
        moved = apply(directives)
        if moved is not None:
            num_replans += 1
            replan_log.append((now, cause, moved))
            for q in range(num_procs):
                try_start(q, now)

    def push(time: float, kind: int, payload) -> None:
        nonlocal seq_counter
        heapq.heappush(heap, (time, seq_counter, kind, payload))
        seq_counter += 1

    def try_start(p: int, now: float) -> None:
        if running[p] or not pending[p]:
            return
        node = pending[p][0]
        if missing[node]:
            return
        # Event-triggered starts always have now == the last blocker
        # clearing, so the clamp only bites on post-replan sweeps: a
        # task whose inputs landed while it was queued elsewhere cannot
        # start before the decision that moved it was made.
        start = max(proc_free[p], ready_time[node], now)
        for src in local_srcs[node]:
            if executed.proc_of(src) != p:
                # The handoff was local when the producer finished, but
                # a replan moved the consumer since — send the data for
                # real, from the producer's finish.
                arrival, msg = net.arrival(
                    src, node, executed.proc_of(src), p,
                    executed.finish_of(src), graph.comm_cost(src, node),
                    noise.comm_factor())
                if msg is not None:
                    executed.record_message(msg)
                if arrival > start:
                    start = arrival
        duration = noise.duration(node, p, executed.duration_of(node, p))
        executed.place(node, p, start, duration=duration)
        trace.append((node, p, start))
        pending[p].popleft()
        running[p] = True
        push(start + duration, _FINISH, node)
        notify(policy.task_started(node, p, start), start, "task_started")

    apply(policy.begin(machine))
    for p in range(num_procs):
        try_start(p, 0.0)
        if not running[p]:
            notify(policy.worker_idle(p, 0.0), 0.0, "worker_idle")

    sanitizing = _sanitize.enabled()
    last_now = 0.0
    while heap:
        now, _, kind, payload = heapq.heappop(heap)
        num_events += 1
        if sanitizing:
            _sanitize.require(
                now >= last_now - 1e-9,
                f"event heap popped time {now!r} after {last_now!r}")
            last_now = now
        if kind == _FINISH:  # repro: noqa-RPR005 integer event-kind tag, not a time
            node = payload
            p = executed.proc_of(node)
            running[p] = False
            proc_free[p] = now
            notify(policy.task_finished(node, p, now), now, "task_finished")
            children, costs = graph.succ_pairs(node)
            for child, cost in zip(children, costs):
                dst = assigned[child]
                if dst == p:
                    # Local handoff under the current assignment; the
                    # trailing try_start(p) is the one re-entry point,
                    # as in static replay.
                    _resolve_edge(missing, ready_time, child, now)
                    local_srcs[child].append(node)
                else:
                    factor = noise.comm_factor()
                    arrival, msg = net.arrival(node, child, p, dst, now,
                                               cost, factor)
                    if msg is not None:
                        executed.record_message(msg)
                    push(arrival, _ARRIVAL, (node, child))
            try_start(p, now)
            if not running[p]:
                notify(policy.worker_idle(p, now), now, "worker_idle")
        else:  # _ARRIVAL
            src, child = payload
            notify(policy.message_arrived(src, child, assigned[child], now),
                   now, "message_arrived")
            if _resolve_edge(missing, ready_time, child, now):
                try_start(assigned[child], now)

    if not executed.is_complete():
        sequences = [[pl.node for pl in executed.tasks_on(p)]
                     + list(pending[p]) for p in range(num_procs)]
        next_idx = [len(executed.tasks_on(p)) for p in range(num_procs)]
        table = render_violations(
            _stall_violations(graph, executed, sequences, next_idx))
        raise ScheduleError(
            "online execution stalled before completing the graph:\n"
            + table)
    return OnlineResult(
        schedule=executed,
        predicted=float(policy.predicted),
        makespan=executed.length,
        num_events=num_events,
        num_replans=num_replans,
        trace=trace,
        replan_log=replan_log,
    )
