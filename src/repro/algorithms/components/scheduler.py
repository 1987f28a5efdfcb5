"""The parameterized list scheduler that executes a component spec.

One loop, four plug points.  Every step: the processor selector's
per-run state picks the next ``(node, proc, start)`` placement — either
by popping the ready pool (decoupled) or from its incrementally kept
scan of all (node, processor) pairs (coupled) — the node is committed,
newly-ready children are released into the pool *after* the priority
rule's dynamic update (the order the LAST invariant requires), and the
insertion policy may back-fill the idle window the placement opened.
The machine picks the run's start-time oracle, which probes and
commits every start: :class:`~repro.core.listsched.StartOracle` on a
clique, :class:`~repro.network.contention.LinkOracle` (booking each
message on the links) on a network.

This loop is also the only implementation of the paper's list
schedulers: each acronym in
:data:`~repro.algorithms.components.spec.BNP_DESIGNS` and
:data:`~repro.algorithms.components.spec.APN_DESIGNS` is registered as
a :class:`ParamScheduler` at the design's coordinates, and the golden
differential corpus pins every one of them placement-for-placement.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ...core.graph import TaskGraph
from ...core.listsched import ReadyTracker, StartOracle, best_proc_min_est
from ...core.machine import Machine, NetworkMachine
from ...core.schedule import Schedule
from ...network.contention import LinkOracle
from ...obs import metrics as _metrics
from ...obs import trace as _trace
from ..base import Scheduler, register
from .pools import ReadyPool
from .priorities import PriorityState
from .spec import APN_DESIGNS, BNP_DESIGNS, SchedulerSpec

__all__ = ["ParamScheduler", "run_component_loop"]


class ParamScheduler(Scheduler):
    """A list scheduler assembled from a :class:`SchedulerSpec`.

    Instances are stateless between runs (all per-run state lives in
    the component *states*, created fresh inside :meth:`_run`), so
    :func:`repro.get_scheduler` can safely memoize them.  Taxonomy
    flags are derived from the components: the scheduler is CP-based
    iff its priority rule is, dynamic iff the priority updates or the
    selector couples node and processor choice, and inserting iff the
    insertion policy is not ``off``.  :meth:`paper_design` builds one
    of the paper's BNP or APN list schedulers under its acronym.
    """

    klass = "BNP"
    #: One-line name and publication of a paper design; empty otherwise.
    origin = ""

    def __init__(self, spec: SchedulerSpec):
        self.spec = spec
        parts = spec.components()
        self._prio_rule = parts["prio"]
        self._ready_policy = parts["ready"]
        self._selector = parts["proc"]
        self._insertion = parts["insert"]
        self.name = spec.canonical()
        self.cp_based = self._prio_rule.cp_based
        self.dynamic_priority = (self._prio_rule.dynamic
                                 or self._selector.coupled)
        self.uses_insertion = (self._insertion.slot
                               or self._insertion.hole_fill)
        self.complexity = "O(p v^2)" if self._selector.coupled else "O(v^2)"

    @classmethod
    def paper_design(cls, acro: str) -> "ParamScheduler":
        """The paper's ``acro`` design, named and described as published."""
        design = BNP_DESIGNS.get(acro) or APN_DESIGNS[acro]
        inst = cls(design.spec)
        inst.name = acro
        inst.klass = design.klass
        inst.origin = design.origin
        inst.complexity = design.complexity
        if design.cp_based is not None:
            inst.cp_based = design.cp_based
        return inst

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        return run_component_loop(self.spec.components(), graph, machine)


def run_component_loop(
    parts: Dict[str, object],
    graph: TaskGraph,
    machine: Machine,
    pinned: Sequence[Tuple[int, int, float, Optional[float]]] = (),
) -> Schedule:
    """Drive the four-axis component loop to a complete schedule.

    ``parts`` is a :meth:`SchedulerSpec.components` mapping.  ``pinned``
    pre-places execution history before the loop runs — ``(node, proc,
    start, duration)`` tuples in a precedence-consistent order
    (ascending start time) — which is how the online replanner
    (:mod:`repro.sim.online`) re-decides only the unstarted remainder of
    a plan: pinned tasks go through the same :func:`_settle`
    bookkeeping as loop placements, so dynamic priorities and ready
    pools see them exactly as if the loop had chosen them.  With no
    pins this is byte-for-byte the static :class:`ParamScheduler` run.
    A network books only the messages of append-only placements the
    loop makes, so it raises :class:`ValueError` on anything else.
    """
    with _trace.span("sched.component_loop", graph=graph.name,
                     nodes=graph.num_nodes, pinned=len(pinned)):
        insertion = parts["insert"]
        prio = parts["prio"].start(graph)
        schedule = Schedule(graph, machine.num_procs, speeds=machine.speeds)
        oracle = _start_oracle(schedule, machine)
        if oracle.books_messages and (insertion.key != "off" or pinned):
            raise ValueError(
                "a processor network needs insert=off and no pinned "
                f"history (got insert={insertion.key}, {len(pinned)} "
                "pinned tasks): its messages are booked only for "
                "append-only placements the loop makes")
        ready = ReadyTracker(graph)
        pool = parts["ready"].start(ready, prio)
        for node, proc, start, duration in pinned:
            schedule.place(node, proc, start, duration=duration)
            _settle(ready, prio, pool, node)
        selector = parts["proc"].start(oracle, ready, prio, insertion.slot)
        hole = insertion.hole_fill
        gap_begin = 0.0
        while not ready.all_scheduled():
            node, proc, start = selector.pick(pool)
            if hole:
                gap_begin = schedule.proc_ready_time(proc)
            start = oracle.commit(node, proc, start)
            _settle(ready, prio, pool, node)
            if hole:
                _fill_hole(oracle, ready, pool, prio, proc,
                           gap_begin, start)
    return schedule


def _start_oracle(schedule: Schedule, machine: Machine) -> StartOracle:
    """The machine's start-time oracle for one run over ``schedule``."""
    if isinstance(machine, NetworkMachine):
        return LinkOracle(schedule, machine.topology)
    return StartOracle(schedule)


def _settle(ready: ReadyTracker, prio: PriorityState, pool: ReadyPool,
            node: int) -> None:
    """Post-placement bookkeeping, in the order dynamic rules need.

    The priority update runs *between* computing the released children
    and pushing them: a dynamic rule (D_NODE) must see the placement
    reflected before any child's pool key is evaluated, and a child's
    own priority is frozen from that moment on — the invariant that
    keeps lazily-heaped keys current.
    """
    released = ready.mark_scheduled(node)
    prio.on_scheduled(node)
    for child in released:
        pool.push(child)


def _fill_hole(oracle: StartOracle, ready: ReadyTracker, pool: ReadyPool,
               prio: PriorityState, proc: int, gap_begin: float,
               gap_end: float) -> None:
    """ISH's hole filler, generalised to any priority rule.

    The idle window ``[gap_begin, gap_end)`` on ``proc`` may host other
    ready nodes, best priority first.  Following Kruatrachue & Lewis, a
    node is inserted only when it (a) fits entirely inside the hole and
    (b) could not start earlier on any other processor — otherwise
    stealing it into the hole trades global placement quality for local
    utilisation.
    """
    schedule = oracle.schedule
    while gap_end - gap_begin > 1e-12:
        placed_any = False
        for cand in sorted(ready.iter_ready(), key=prio.key):
            cand_dur = schedule.duration_of(cand, proc)
            # The start is at least gap_begin, so a node too long for
            # the whole window is skipped before its data-ready time.
            if gap_begin + cand_dur > gap_end + 1e-9:
                continue
            drt = oracle.drt(cand, proc)
            cand_start = max(gap_begin, drt)
            if cand_start + cand_dur > gap_end + 1e-9:
                continue
            _, elsewhere = best_proc_min_est(oracle, cand,
                                             insertion=False)
            if cand_start > elsewhere + 1e-9:
                continue
            oracle.commit(cand, proc, cand_start)
            _metrics.incr("sched.insertion_holes")
            _settle(ready, prio, pool, cand)
            gap_begin = cand_start + cand_dur
            placed_any = True
            break
        if not placed_any:
            break


# The paper's list schedulers, served by acronym from the registry.
for _acro in (*BNP_DESIGNS, *APN_DESIGNS):
    register(ParamScheduler.paper_design(_acro))
