"""The predictive-reactive policy: plan, watch, replan on deviation.

This is how the paper's six BNP designs (and the whole ``param:``
component space behind them) go online.  At ``t = 0`` the policy runs
the ordinary four-axis component loop
(:func:`~repro.algorithms.components.scheduler.run_component_loop`)
over the *observed* graph and commits the resulting sequences as its
plan.  Every finish and arrival event is then compared against the
plan: while actual times track planned times (within ``_TOL``) the
plan stands; the first deviation triggers a *replan* — the component
loop reruns with every started task pinned at its actual processor and
start (finished tasks at their actual durations, the running ones at
their observed estimates), re-deciding only the unstarted remainder.

Two properties follow directly:

* **static equivalence** — under zero noise and the ``exact`` mode,
  replayed starts and fixed-delay arrivals reproduce the plan's times
  bit-for-bit (the same float operations on the same operands), so no
  replan ever fires and the executed timeline equals the static
  schedule placement for placement;
* **determinism** — every replan input (actual starts, finishes,
  arrivals, pin order) is a pure function of ``(spec, imode, seed,
  noise draw)``, so the placement trace is reproducible across
  processes.

:class:`OnlineScheduler` adapts a spec to the ordinary
:class:`~repro.algorithms.base.Scheduler` interface — its "schedule"
is the zero-noise online execution — so ``online:`` names flow through
benchmarks, scenarios and stores like any other algorithm.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...algorithms.base import Scheduler
from ...algorithms.components.scheduler import run_component_loop
from ...core.graph import TaskGraph
from ...core.machine import Machine, NetworkMachine
from ...core.rng import derive_rng
from ...core.schedule import Schedule
from ...obs import trace as _trace
from ..engine import Directives, OnlinePolicy
from .engine import simulate_online
from .imodes import observe
from .spec import OnlineSchedulerSpec

__all__ = ["OnlineScheduler", "PlanRescheduler"]

#: Deviation tolerance: actual event times within this of the plan are
#: "as planned".  Matches the engine-family epsilon so float round-trip
#: noise can never masquerade as a deviation.
_TOL = 1e-9


class PlanRescheduler(OnlinePolicy):
    """Full plan over the observed graph; replan when reality diverges."""

    def __init__(self, spec: OnlineSchedulerSpec, graph: TaskGraph,
                 machine: Machine):
        if isinstance(machine, NetworkMachine):
            # A replan pins the executed history, and on a network that
            # history includes messages the loop cannot pin.
            raise ValueError(
                f"{spec.canonical()} replans on a processor clique only, "
                f"not on the network {machine!r}")
        self.spec = spec
        self.machine = machine
        # The estimate stream is keyed by graph name so one seed gives
        # independent user-mode estimates per graph, mirroring how
        # monte_carlo keys its noise streams.
        self.obs = observe(graph, spec.imode,
                           rng=derive_rng(spec.seed, "imode", graph.name))
        self._parts = spec.components()
        with _trace.span("online.plan", spec=spec.canonical(),
                         graph=graph.name, cause="initial"):
            self.plan: Schedule = run_component_loop(self._parts, self.obs,
                                                     machine)
        self.predicted = self.plan.length
        self.num_replans = 0
        self._started: Dict[int, Tuple[int, float]] = {}
        self._finished: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def begin(self, machine: Machine) -> Directives:
        return self._pending_sequences()

    def task_started(self, node: int, proc: int,
                     now: float) -> Optional[Directives]:
        # Starts deviate only downstream of a deviated finish or
        # arrival, both of which already trigger the replan before any
        # dependent start — record the actual and stand pat.
        self._started[node] = (proc, now)
        return None

    def task_finished(self, node: int, proc: int,
                      now: float) -> Optional[Directives]:
        self._finished[node] = now
        if abs(now - self.plan.finish_of(node)) <= _TOL:
            return None
        return self._replan("task_finished")

    def message_arrived(self, src: int, dst: int, proc: int,
                        now: float) -> Optional[Directives]:
        # The plan's expectation for this edge: the producer's planned
        # finish plus the *observed* cost under the fixed-delay model.
        # Pinned history keeps plan.finish_of(src) at the actual finish,
        # so only the transport itself is being checked here.
        expected = self.plan.finish_of(src) + self.obs.comm_cost(src, dst)
        if abs(now - expected) <= _TOL:
            return None
        return self._replan("message_arrived")

    # ------------------------------------------------------------------
    # replanning
    # ------------------------------------------------------------------
    def _replan(self, cause: str) -> Directives:
        self.num_replans += 1
        pinned = []
        for node, (proc, start) in sorted(self._started.items(),
                                          key=lambda kv: (kv[1][1], kv[0])):
            fin = self._finished.get(node)
            if fin is not None:
                duration = fin - start
            else:
                # Still running: all the policy may know is its own
                # estimate of the duration (the observed weight under
                # the machine's speed model).
                w = self.obs.weight(node)
                duration = (w if self.machine.speeds is None
                            else w / self.machine.speeds[proc])
            pinned.append((node, proc, start, duration))
        with _trace.span("online.plan", spec=self.spec.canonical(),
                         graph=self.obs.name, cause=cause,
                         pinned=len(pinned)):
            self.plan = run_component_loop(self._parts, self.obs,
                                           self.machine, pinned=pinned)
        return self._pending_sequences()

    def _pending_sequences(self) -> Directives:
        started = self._started
        return [[pl.node for pl in self.plan.tasks_on(p)
                 if pl.node not in started]
                for p in range(self.machine.num_procs)]


class OnlineScheduler(Scheduler):
    """Registry adapter: an ``online:`` spec as an ordinary scheduler.

    ``schedule()`` runs the online loop under zero noise and returns
    the executed timeline, which is a complete, valid
    :class:`~repro.core.schedule.Schedule` — so benchmarks, metrics,
    stores and validation treat online schedulers exactly like static
    ones.  Under the ``exact`` mode this equals the static
    ``param:`` run; the other modes measure what partial information
    costs.  Instances are stateless between runs and memoized by
    :func:`repro.get_scheduler` under the spec's canonical name.
    """

    klass = "BNP"

    def __init__(self, spec: OnlineSchedulerSpec):
        self.spec = spec
        parts = spec.components()
        self.name = spec.canonical()
        self.cp_based = parts["prio"].cp_based
        # Replanning re-ranks the remainder after every deviation, so
        # every online scheduler is dynamic regardless of its rule.
        self.dynamic_priority = True
        self.uses_insertion = (parts["insert"].slot
                               or parts["insert"].hole_fill)
        base = "O(p v^2)" if parts["proc"].coupled else "O(v^2)"
        self.complexity = f"{base} per (re)plan"

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        return simulate_online(graph, machine, self.spec,
                               label=self.name).schedule
