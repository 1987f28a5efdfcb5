"""Turning mappings and clusterings into concrete schedules.

Several algorithms decide *where* tasks go separately from *when* they
run:

* EZ and LC produce a clustering and rely on a list simulation to order
  and time the tasks (Sarkar's execution model);
* MD and DCP pin tentative start times while deciding the mapping, then
  need a consistency pass to turn (mapping, per-processor order) into a
  feasible schedule;
* BU and BSA (APN) fix a mapping/order and need the same pass with
  every message scheduled on the network links.

:func:`mapping_makespan` and :func:`schedule_from_mapping` time a
clustering, both through one flat Sarkar list simulation (the latter
then places its timing once); :func:`execute_fixed_order` is the one
fixed-order executor, for both the clique and the link-contention
model, and :func:`simulate_fixed_sequences` is MD/DCP's policy around
it.  The executor is its flat timing core, :func:`time_fixed_order`,
plus one materialisation of the timing into a :class:`Schedule`; BSA
compares its migration trials on the core alone.
"""

from __future__ import annotations

import heapq
from typing import (Dict, List, NamedTuple, Optional, Sequence, Tuple,
                    Union, overload)

from ..core.attributes import blevel
from ..core.exceptions import ScheduleError
from ..core.graph import TaskGraph
from ..core.schedule import Message, Schedule
from ..network.contention import LinkSchedule
from ..network.topology import Topology

__all__ = [
    "schedule_from_mapping",
    "mapping_makespan",
    "execute_fixed_order",
    "time_fixed_order",
    "FixedOrderTiming",
    "EXCEEDED",
    "simulate_fixed_sequences",
]


def mapping_makespan(graph: TaskGraph, proc_of: Sequence[int],
                     priority: Optional[Sequence[float]] = None) -> float:
    """Makespan of list-simulating ``graph`` under a fixed mapping.

    Sarkar's execution model: every processor runs its tasks serially;
    among ready tasks the one with the highest ``priority`` (default:
    static b-level) starts next on its assigned processor, at
    ``max(processor available, data ready)``.  Communication inside a
    processor is free.  This is the estimator EZ minimises while zeroing
    edges.
    """
    if priority is None:
        priority = blevel(graph)
    return _time_mapping(graph, proc_of, priority).length


def schedule_from_mapping(graph: TaskGraph, proc_of: Sequence[int],
                          num_procs: int,
                          priority: Optional[Sequence[float]] = None
                          ) -> Schedule:
    """Full :class:`Schedule` version of :func:`mapping_makespan`.

    ``proc_of`` may use arbitrary processor labels; they are compacted
    onto ``0..k-1`` in first-use order (so cluster counts equal
    processors used).  Renaming labels one to one changes no float of
    the timing, which is placed once.
    """
    if priority is None:
        priority = blevel(graph)
    compact: Dict[int, int] = {}
    for node in sorted(graph.nodes(), key=lambda i: (priority[i], -i), reverse=True):
        compact.setdefault(proc_of[node], len(compact))
    if len(compact) > num_procs:
        raise ScheduleError(
            f"mapping uses {len(compact)} processors but machine has {num_procs}"
        )
    timing = _time_mapping(graph, [compact[label] for label in proc_of],
                           priority)
    return _materialise(graph, num_procs, timing)


def _time_mapping(graph: TaskGraph, proc_of: Sequence[int],
                  priority: Sequence[float]) -> FixedOrderTiming:
    """Sarkar's list simulation on plain lists: the one heap loop."""
    n = graph.num_nodes
    weights, preds, succs = _flat_graph(graph)
    remaining = [len(parents) for parents, _ in preds]
    start = [0.0] * n
    finish = [0.0] * n
    order: List[int] = []
    proc_free: Dict[int, float] = {}
    heap = [(-priority[i], i) for i in range(n) if remaining[i] == 0]
    heapq.heapify(heap)
    while heap:
        _, node = heapq.heappop(heap)
        p = proc_of[node]
        drt = 0.0
        parents, costs = preds[node]
        for parent, c in zip(parents, costs):
            arr = finish[parent]
            if proc_of[parent] != p:
                arr += c
            if arr > drt:
                drt = arr
        t = proc_free.get(p, 0.0)
        if drt > t:
            t = drt
        start[node] = t
        finish[node] = proc_free[p] = t + weights[node]
        order.append(node)
        for child in succs[node]:
            remaining[child] -= 1
            if remaining[child] == 0:
                heapq.heappush(heap, (-priority[child], child))
    return FixedOrderTiming(list(proc_of), start, finish, order, None)


def simulate_fixed_sequences(graph: TaskGraph,
                             sequences: List[List[int]],
                             num_procs: int) -> Schedule:
    """Clique-model :func:`execute_fixed_order`, recovering from inversions.

    If the sequences are inconsistent with the precedence order (a
    descendant queued before an ancestor on the same processor), every
    sequence is re-sorted by topological index and executed again —
    schedulers that pin tentative orders (MD, DCP) may rarely produce
    such inversions.
    """
    timing = time_fixed_order(graph, sequences, num_procs)
    if timing is None:
        topo_index = {n: i for i, n in enumerate(graph.topological_order)}
        return execute_fixed_order(
            graph, [sorted(s, key=topo_index.__getitem__) for s in sequences],
            num_procs)
    return _materialise(graph, num_procs, timing)


def execute_fixed_order(graph: TaskGraph, sequences: List[List[int]],
                        procs: Union[int, Topology]) -> Schedule:
    """Time fixed per-processor task ``sequences`` into a schedule.

    ``sequences[p]`` lists processor ``p``'s tasks in execution order; a
    task starts once its inputs have arrived and its sequence
    predecessor has finished.  With a processor count as ``procs`` the
    inputs cross the clique (edge cost, no contention); with a
    :class:`~repro.network.topology.Topology` every message is committed
    to its links and recorded on the schedule.

    The timing is :func:`time_fixed_order`'s; the schedule is then
    built once from it, every placement through the overlap-checked
    :meth:`Schedule.place` and every message through
    :meth:`Schedule.record_message`, in the order the timing made them.

    Raises :class:`ScheduleError` unless the sequences list every node
    exactly once without deadlocking against the precedence order.
    """
    timing = time_fixed_order(graph, sequences, procs, messages=True)
    if timing is None:
        raise ScheduleError(
            "per-processor sequences deadlock against the precedence order")
    return _materialise(graph, procs, timing)


class FixedOrderTiming(NamedTuple):
    """What :func:`time_fixed_order` computes, as flat per-node lists.

    ``order`` lists the nodes in placement order; ``messages`` holds the
    committed :class:`~repro.core.schedule.Message` records in commit
    order when they were asked for (always empty in the clique model),
    else ``None``.
    """

    proc_of: List[int]
    start: List[float]
    finish: List[float]
    order: List[int]
    messages: Optional[List[Message]]

    @property
    def length(self) -> float:
        """The makespan, as :attr:`Schedule.length` reads it."""
        return max(self.finish)


class _Exceeded:
    """The type of :data:`EXCEEDED`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "EXCEEDED"


#: What :func:`time_fixed_order` returns when it stops at its bound.
EXCEEDED = _Exceeded()


@overload
def time_fixed_order(graph: TaskGraph, sequences: Sequence[List[int]],
                     procs: Union[int, Topology], messages: bool = False,
                     bound: None = None) -> Optional[FixedOrderTiming]: ...


@overload
def time_fixed_order(graph: TaskGraph, sequences: Sequence[List[int]],
                     procs: Union[int, Topology], messages: bool = False,
                     bound: Optional[float] = None
                     ) -> Union[FixedOrderTiming, _Exceeded, None]: ...


def time_fixed_order(graph: TaskGraph, sequences: Sequence[List[int]],
                     procs: Union[int, Topology], messages: bool = False,
                     bound: Optional[float] = None
                     ) -> Union[FixedOrderTiming, _Exceeded, None]:
    """The timing core of :func:`execute_fixed_order`, on plain lists.

    Returns the start and finish of every node, or ``None`` when the
    sequences deadlock against the precedence order; with
    ``messages=True`` also the message records of a topology run.  No
    :class:`Schedule` is built, so callers that only compare timings
    (BSA's migration trials) skip the per-task bookkeeping.

    Given a makespan ``bound``, the run stops and returns
    :data:`EXCEEDED` as soon as a lower bound on its length is above
    ``bound``, so a stopped run is always longer than ``bound``.  After
    each placement the lower bound is the larger of the node's finish
    plus its computation-only tail (the heaviest chain of weights below
    it: each child starts after the node's data is out) and its
    processor's new ready time plus the weights still queued there.
    The float sums behind those two are taken in another order than
    the run adds, so they are compared against ``bound`` raised by
    ``(n + 2) * 2**-51`` relatively, more than their rounding can move
    them in a graph of ``n`` nodes.

    Messages are committed receiver-side in a fixed order, BU's and
    BSA's timing contract.  Tasks go in rounds: each round places the
    tasks ready at its start in ascending id, each when it is next in
    its sequence; a task whose turn comes mid-round joins only if its
    id is larger than the task just placed, else it waits a round.  A
    task's messages go in ascending (parent finish, parent id); a parent
    on the task's own processor sends none.

    Raises :class:`ScheduleError` unless the sequences list every node
    of the graph exactly once, on processors the machine has.
    """
    n = graph.num_nodes
    links: Optional[LinkSchedule] = None
    if isinstance(procs, Topology):
        links = LinkSchedule(procs)
        send = links.send
        num_procs = procs.num_procs
    else:
        num_procs = procs
    proc_of = [-1] * n
    pos = [0] * n
    for p, seq in enumerate(sequences):
        if seq and not 0 <= p < num_procs:
            raise ScheduleError(f"processor {p} out of range")
        for i, node in enumerate(seq):
            if not 0 <= node < n:
                raise ScheduleError(f"node {node} is not in the graph")
            if proc_of[node] >= 0:
                raise ScheduleError(f"node {node} appears twice in sequences")
            proc_of[node] = p
            pos[node] = i
    if -1 in proc_of:
        raise ScheduleError("sequences must cover every node exactly once")

    weights, preds, succs = _flat_graph(graph)
    limit: Optional[float] = None
    if bound is not None:
        limit = bound * (1.0 + (n + 2) * 2.0 ** -51)
        tails = _computation_tails(graph)
        queued = [_suffix_sums([weights[v] for v in seq])
                  for seq in sequences]
    start = [0.0] * n
    finish = [0.0] * n
    proc_ready = [0.0] * len(sequences)
    order: List[int] = []
    records: Optional[List[Message]] = [] if messages else None
    remaining = [len(parents) for parents, _ in preds]
    # ready[v]: v's parents were all placed before the current round.
    ready = [r == 0 for r in remaining]
    next_slot = [0] * len(sequences)
    # This round's tasks: ready, and next in their sequence.
    current = [seq[0] for seq in sequences if seq and ready[seq[0]]]
    heapq.heapify(current)
    while current:
        later: List[int] = []  # the next round's tasks
        released: List[int] = []
        while current:
            node = heapq.heappop(current)
            p = proc_of[node]
            parents, costs = preds[node]
            arrival = 0.0
            if links is None:
                for parent, cost in zip(parents, costs):
                    arr = finish[parent]
                    if proc_of[parent] != p:
                        arr += cost
                    if arr > arrival:
                        arrival = arr
            else:
                sends = [(finish[parent], parent, cost)
                         for parent, cost in zip(parents, costs)
                         if proc_of[parent] != p]
                sends.sort()
                for sent, parent, cost in sends:
                    if records is None:
                        arr = send(proc_of[parent], p, sent, cost)
                    else:
                        msg = links.commit(parent, node, proc_of[parent], p,
                                           sent, cost)
                        records.append(msg)
                        arr = msg.arrival
                    if arr > arrival:
                        arrival = arr
            t = proc_ready[p]
            if arrival > t:
                t = arrival
            start[node] = t
            finish[node] = proc_ready[p] = end = t + weights[node]
            if limit is not None:
                lower = end + queued[p][next_slot[p] + 1]
                tail = end + tails[node]
                if tail > lower:
                    lower = tail
                if lower > limit:
                    return EXCEEDED
            order.append(node)
            for child in succs[node]:
                remaining[child] -= 1
                if remaining[child] == 0:
                    released.append(child)
                    if pos[child] == next_slot[proc_of[child]]:
                        later.append(child)
            # Advanced only now: a released child that is next on ``p``
            # is queued here, once, rather than also above.
            next_slot[p] += 1
            seq = sequences[p]
            if next_slot[p] < len(seq):
                head = seq[next_slot[p]]
                if ready[head] and head > node:
                    heapq.heappush(current, head)
                elif remaining[head] == 0:
                    later.append(head)
        for child in released:
            ready[child] = True
        heapq.heapify(later)
        current = later
    if len(order) < n:
        return None
    return FixedOrderTiming(proc_of, start, finish, order, records)


def _flat_graph(graph: TaskGraph
                ) -> Tuple[List[float], List[Tuple[List[int], List[float]]],
                           List[List[int]]]:
    """Per-graph memo of the plain lists the timing core walks."""
    return graph.cached("_fixed_order_lists", lambda g: (
        g.weights.tolist(),
        [g.pred_pairs(v) for v in g.nodes()],
        [g.succ_pairs(v)[0] for v in g.nodes()],
    ))


def _computation_tails(graph: TaskGraph) -> List[float]:
    """Per-graph memo: each node's heaviest chain of descendant weights.

    ``tail[v]`` is the largest ``w(c1) + ... + w(ck)`` over the paths
    ``v -> c1 -> ... -> ck`` (0 for a sink): no communication, the
    computation that must follow ``v``'s finish.
    """
    def tails(g: TaskGraph) -> List[float]:
        weights, _preds, succs = _flat_graph(g)
        out = [0.0] * g.num_nodes
        for v in reversed(g.topological_order):
            best = 0.0
            for c in succs[v]:
                chain = weights[c] + out[c]
                if chain > best:
                    best = chain
            out[v] = best
        return out
    return graph.cached("_fixed_order_tails", tails)


def _suffix_sums(values: List[float]) -> List[float]:
    """``out[k] = sum(values[k:])``, with ``out[len(values)] = 0``."""
    out = [0.0] * (len(values) + 1)
    total = 0.0
    for k in range(len(values) - 1, -1, -1):
        total = values[k] + total
        out[k] = total
    return out


def _materialise(graph: TaskGraph, procs: Union[int, Topology],
                 timing: FixedOrderTiming) -> Schedule:
    """Build the one :class:`Schedule` of a finished timing."""
    num_procs = procs.num_procs if isinstance(procs, Topology) else procs
    schedule = Schedule(graph, num_procs)
    proc_of, start = timing.proc_of, timing.start
    for node in timing.order:
        schedule.place(node, proc_of[node], start[node])
    for msg in timing.messages or ():
        schedule.record_message(msg)
    return schedule
