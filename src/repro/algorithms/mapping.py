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
clustering; :func:`execute_fixed_order` is the one fixed-order executor,
for both the clique and the link-contention model, and
:func:`simulate_fixed_sequences` is MD/DCP's policy around it.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Union

from ..core.attributes import blevel
from ..core.exceptions import ScheduleError
from ..core.graph import TaskGraph
from ..core.schedule import Schedule
from ..network.contention import LinkSchedule
from ..network.topology import Topology

__all__ = [
    "schedule_from_mapping",
    "mapping_makespan",
    "execute_fixed_order",
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
    n = graph.num_nodes
    remaining = [graph.in_degree(i) for i in range(n)]
    finish = [0.0] * n
    proc_free: Dict[int, float] = {}
    heap = [(-priority[i], i) for i in range(n) if remaining[i] == 0]
    heapq.heapify(heap)
    makespan = 0.0
    weights = graph.weights
    while heap:
        _, node = heapq.heappop(heap)
        p = proc_of[node]
        drt = 0.0
        parents, costs = graph.pred_pairs(node)
        for parent, c in zip(parents, costs):
            arr = finish[parent]
            if proc_of[parent] != p:
                arr += c
            if arr > drt:
                drt = arr
        start = max(proc_free.get(p, 0.0), drt)
        end = start + float(weights[node])
        finish[node] = end
        proc_free[p] = end
        if end > makespan:
            makespan = end
        for child in graph.successors(node):
            remaining[child] -= 1
            if remaining[child] == 0:
                heapq.heappush(heap, (-priority[child], child))
    return makespan


def schedule_from_mapping(graph: TaskGraph, proc_of: Sequence[int],
                          num_procs: int,
                          priority: Optional[Sequence[float]] = None
                          ) -> Schedule:
    """Full :class:`Schedule` version of :func:`mapping_makespan`.

    ``proc_of`` may use arbitrary processor labels; they are compacted
    onto ``0..k-1`` in first-use order (so cluster counts equal
    processors used).
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
    n = graph.num_nodes
    remaining = [graph.in_degree(i) for i in range(n)]
    schedule = Schedule(graph, num_procs)
    heap = [(-priority[i], i) for i in range(n) if remaining[i] == 0]
    heapq.heapify(heap)
    while heap:
        _, node = heapq.heappop(heap)
        p = compact[proc_of[node]]
        drt = schedule.data_ready_time(node, p)
        start = max(schedule.proc_ready_time(p), drt)
        schedule.place(node, p, start)
        for child in graph.successors(node):
            remaining[child] -= 1
            if remaining[child] == 0:
                heapq.heappush(heap, (-priority[child], child))
    return schedule


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
    schedule = _run_fixed_order(graph, sequences, num_procs)
    if schedule is None:
        topo_index = {n: i for i, n in enumerate(graph.topological_order)}
        schedule = execute_fixed_order(
            graph, [sorted(s, key=topo_index.__getitem__) for s in sequences],
            num_procs)
    return schedule


def execute_fixed_order(graph: TaskGraph, sequences: List[List[int]],
                        procs: Union[int, Topology]) -> Schedule:
    """Time fixed per-processor task ``sequences`` into a schedule.

    ``sequences[p]`` lists processor ``p``'s tasks in execution order; a
    task starts once its inputs have arrived and its sequence
    predecessor has finished.  With a processor count as ``procs`` the
    inputs cross the clique (edge cost, no contention); with a
    :class:`~repro.network.topology.Topology` every message is committed
    to its links and recorded on the schedule.

    Messages are committed receiver-side in a fixed order, BU's and
    BSA's timing contract.  Tasks go in rounds: each round places the
    tasks ready at its start in ascending id, each when it is next in
    its sequence; a task whose turn comes mid-round joins only if its
    id is larger than the task just placed, else it waits a round.  A
    task's messages go in ascending (parent finish, parent id).

    Raises :class:`ScheduleError` unless the sequences list every node
    exactly once without deadlocking against the precedence order.
    """
    schedule = _run_fixed_order(graph, sequences, procs)
    if schedule is None:
        raise ScheduleError(
            "per-processor sequences deadlock against the precedence order")
    return schedule


def _run_fixed_order(graph: TaskGraph, sequences: List[List[int]],
                     procs: Union[int, Topology]) -> Optional[Schedule]:
    """:func:`execute_fixed_order`, returning ``None`` on deadlock."""
    n = graph.num_nodes
    proc_of = [-1] * n
    pos = [0] * n
    for p, seq in enumerate(sequences):
        for i, node in enumerate(seq):
            if not 0 <= node < n:
                raise ScheduleError(f"node {node} is not in the graph")
            if proc_of[node] >= 0:
                raise ScheduleError(f"node {node} appears twice in sequences")
            proc_of[node] = p
            pos[node] = i
    if -1 in proc_of:
        raise ScheduleError("sequences must cover every node exactly once")

    links: Optional[LinkSchedule] = None
    if isinstance(procs, Topology):
        links = LinkSchedule(procs)
        procs = procs.num_procs
    schedule = Schedule(graph, procs)
    remaining = [graph.in_degree(i) for i in range(n)]
    # ready[v]: v's parents were all placed before the current round.
    ready = [r == 0 for r in remaining]
    next_slot = [0] * len(sequences)
    # This round's tasks: ready, and next in their sequence.
    current = [seq[0] for seq in sequences if seq and ready[seq[0]]]
    heapq.heapify(current)
    placed = 0
    while current:
        later: List[int] = []  # the next round's tasks
        released: List[int] = []
        while current:
            node = heapq.heappop(current)
            p = proc_of[node]
            if links is None:
                arrival = schedule.data_ready_time(node, p)
            else:
                # A parent on ``p`` finished by p's ready time: no message.
                arrival = 0.0
                parents, costs = graph.pred_pairs(node)
                for parent, cost in sorted(
                        zip(parents, costs),
                        key=lambda pc: (schedule.finish_of(pc[0]), pc[0])):
                    if proc_of[parent] != p:
                        msg = links.commit(parent, node, proc_of[parent], p,
                                           schedule.finish_of(parent), cost)
                        schedule.record_message(msg)
                        arrival = max(arrival, msg.arrival)
            schedule.place(node, p, max(schedule.proc_ready_time(p), arrival))
            placed += 1
            for child in graph.successors(node):
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
    return schedule if placed == n else None
