"""Online execution: the event loop under a policy that replans.

:func:`simulate_online` runs the one event loop of
:mod:`repro.sim.engine` — the loop static replay runs too — with an
:class:`OnlinePolicy` that keeps the per-processor work queues mutable.
The loop drives the policy with the same two heap events (task-finish,
message-arrival) plus task-start and worker-idle notifications; the
policy replies with *placement directives*: complete per-processor
queues of every not-yet-started task, which the loop swaps in
atomically.  Start times are never dictated — the policy decides
*where* and *in what order*, the clock decides *when*.

Communication is charged eagerly, at the producer's finish, toward
wherever the consumer is queued at that moment; the loop's docstring
lists how each later migration is charged.  A routed backend
(:class:`~repro.sim.netmodel.ContentionNetwork`) is refused up front: a
replan that moves a consumer would leave its message routed to the old
processor.

Information asymmetry lives one level up: the policy plans from an
*observed* graph (:mod:`repro.sim.online.imodes`) while the loop
charges the *true* graph's weights under the perturbation model — the
policy only ever learns true times through the events it receives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ...core.graph import TaskGraph
from ...core.machine import Machine
from ...core.rng import SeedLike
from ...obs import metrics as _metrics
from ...obs import trace as _trace
from ..engine import OnlinePolicy, SimResult, _execute
from ..netmodel import ContentionNetwork, FixedDelayNetwork, NetworkModel
from ..perturb import DETERMINISTIC, PerturbationModel

__all__ = ["OnlinePolicy", "OnlineResult", "simulate_online"]


@dataclass
class OnlineResult(SimResult):
    """One online execution.

    ``predicted`` is the policy's own expectation.  ``trace`` records
    placements in the order the engine started them: the determinism
    contract is that the same ``(spec, imode, seed)`` yields the same
    trace anywhere.
    """

    num_replans: int
    trace: List[Tuple[int, int, float]] = field(default_factory=list)
    #: Every accepted replan as ``(time, cause, migrations)``: *cause*
    #: is the triggering event callback (``task_finished`` /
    #: ``message_arrived`` / ``worker_idle`` / ``task_started``) and
    #: *migrations* counts pending tasks the directive moved to a
    #: different processor.
    replan_log: List[Tuple[float, str, int]] = field(default_factory=list)


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
    schedule to replay a message plan from) and may not be a routed
    :class:`~repro.sim.netmodel.ContentionNetwork`.  ``label`` tags the
    observability layer: with tracing armed, the first execution per
    ``(label, graph)`` records its per-processor timeline plus the
    attributed replan events.
    """
    from .scheduler import PlanRescheduler
    from .spec import OnlineSchedulerSpec, parse_online_spec

    if isinstance(network, ContentionNetwork):
        # Messages are routed at the producer's finish; a replan that
        # then moves the consumer would leave the route ending on the
        # wrong processor.
        raise ValueError(
            "online execution replans on unrouted transports only, not "
            f"on a contention network over {network.topology.name!r}")
    if isinstance(policy, str):
        policy = parse_online_spec(policy)
    if isinstance(policy, OnlineSchedulerSpec):
        policy = PlanRescheduler(policy, graph, machine)

    with _trace.span("online.run", graph=graph.name,
                     label=label or "") as sp:
        executed, num_events, replan_log = _execute(
            graph, machine, policy, perturb,
            network if network is not None else FixedDelayNetwork(), rng,
            "online execution stalled before completing the graph")
    # The executed schedule lists its placements in the order they
    # were made, which is the order the tasks started.
    result = OnlineResult(
        schedule=executed,
        predicted=float(policy.predicted),
        makespan=executed.length,
        num_events=num_events,
        num_replans=len(replan_log),
        trace=[(v, p, start)
               for v, (p, start, _) in executed.to_dict().items()],
        replan_log=replan_log,
    )
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
