"""BSA — Bubble Scheduling and Allocation (Kwok & Ahmad, 1995).

BSA attacks the APN problem incrementally:

1. **Serial injection** — all tasks are placed on a single *pivot*
   processor (the most connected one) in *CPN-dominant* order: critical
   path nodes in path order, each preceded by its not-yet-listed
   ancestors, with the remaining nodes appended in descending b-level
   order.  The CPN-dominant list is a topological order, so the serial
   schedule is trivially feasible.
2. **Bubbling migration** — processors are visited in breadth-first
   order from the pivot; each task on the current pivot may migrate to
   an adjacent processor if that improves its start time without
   worsening the overall schedule (messages are rescheduled on the links
   for every tentative move).  Vacated time "bubbles" the remaining
   tasks earlier.

The paper credits BSA's strong large-graph results to "an efficient
scheduling of communication messages" — the migration step sees actual
link availability, not estimates.  Complexity O(v^2 p).

Deviation from the original: tentative moves are evaluated by re-timing
the deterministic fixed-mapping network simulation instead of the
original's in-place incremental updates.  Each trial runs only the flat
timing core (:func:`~repro.algorithms.mapping.time_fixed_order`: start
and finish lists, bookings on the one link core, no :class:`Schedule`
and no message records) and reads two numbers from it, the schedule
length and the moved node's start; the schedule is built once, from
the final sequences.  A trial is timed against the bound
``min(best_len + 1e-9, length of the node's best trial so far)`` and
stops once its length provably exceeds it: such a trial fails the
migration test or has a key above the node's best move, so it is never
the accepted move and every decision is kept.  Decisions
(migrate/stay) are made on the same criterion — start-time improvement
without schedule degradation — so the search trajectory matches the
published algorithm on its published examples; only the bookkeeping
differs.  With ``REPRO_SANITIZE`` armed every trial is re-timed
through the materialising
:func:`~repro.algorithms.mapping.execute_fixed_order` and must agree,
or, when stopped, be longer than its bound.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ...check import sanitize as _sanitize
from ...core.attributes import blevel, critical_path, tlevel
from ...core.exceptions import ScheduleError
from ...core.graph import TaskGraph
from ...core.machine import Machine, NetworkMachine
from ...core.schedule import Schedule
from ...network.topology import Topology
from ..base import Scheduler, register
from ..mapping import (EXCEEDED, FixedOrderTiming, execute_fixed_order,
                       time_fixed_order)

__all__ = ["BSA", "cpn_dominant_list"]


def cpn_dominant_list(graph: TaskGraph) -> List[int]:
    """CPN-dominant sequence: CP nodes in order, ancestors first.

    Every critical-path node is preceded by its (recursively) unlisted
    predecessors — ordered by ascending t-level, so earlier ancestors come
    first — and the out-branch nodes that remain are appended in
    descending b-level order.  The result is a topological order of the
    whole graph.
    """
    t = tlevel(graph)
    b = blevel(graph)
    listed = [False] * graph.num_nodes
    out: List[int] = []

    def add_with_ancestors(node: int) -> None:
        stack = [node]
        # Iterative DFS that emits ancestors before descendants.
        emit_order: List[int] = []
        seen = set()
        while stack:
            cur = stack.pop()
            if listed[cur] or cur in seen:
                continue
            seen.add(cur)
            emit_order.append(cur)
            for parent in sorted(graph.predecessors(cur),
                                 key=lambda p: (-t[p], -p)):
                if not listed[parent] and parent not in seen:
                    stack.append(parent)
        for cur in sorted(emit_order, key=lambda x: (t[x], x)):
            if not listed[cur]:
                listed[cur] = True
                out.append(cur)

    for cpn in critical_path(graph):
        add_with_ancestors(cpn)
    for node in sorted(graph.nodes(), key=lambda x: (-b[x], x)):
        if not listed[node]:
            listed[node] = True
            out.append(node)
    return out


@register
class BSA(Scheduler):
    name = "BSA"
    klass = "APN"
    cp_based = True
    dynamic_priority = True
    uses_insertion = True
    complexity = "O(v^2 p)"

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        assert isinstance(machine, NetworkMachine)
        topo = machine.topology
        p_count = topo.num_procs
        order = cpn_dominant_list(graph)
        topo_pos = {n: i for i, n in enumerate(order)}

        pivot = max(range(p_count), key=lambda p: (topo.degree(p), -p))
        sequences: List[List[int]] = [[] for _ in range(p_count)]
        sequences[pivot] = list(order)

        # The base: its sequences plus its start list and length.
        base = _time_trial(graph, sequences, topo, order[0], None)
        assert base is not None
        best_len, best_start = base

        # Breadth-first processor order from the pivot.
        visited = {pivot}
        bfs = [pivot]
        queue = deque([pivot])
        while queue:
            cur = queue.popleft()
            for nb in topo.neighbors(cur):
                if nb not in visited:
                    visited.add(nb)
                    bfs.append(nb)
                    queue.append(nb)

        for current in bfs:
            # Snapshot: migrating a node replaces the sequence we iterate.
            for node in list(sequences[current]):
                cur_start = best_start[node]
                if cur_start <= 1e-12:
                    continue  # already starts at time zero; nothing to gain
                best_move: Tuple[float, float, int] | None = None
                stay = [m for m in sequences[current] if m != node]
                for nb in topo.neighbors(current):
                    # Only the two changed sequences are copied.
                    trial = list(sequences)
                    trial[current] = stay
                    trial[nb] = _inserted_by_order(sequences[nb], node,
                                                   topo_pos)
                    # A trial longer than this bound is never taken: it
                    # fails the migration test, or an earlier trial of
                    # this node has the smaller key.
                    bound = best_len + 1e-9
                    if best_move is not None and best_move[0] < bound:
                        bound = best_move[0]
                    timed = _time_trial(graph, trial, topo, node, bound)
                    if timed is None:
                        continue
                    length, start = timed
                    key = (length, start[node], nb)
                    if best_move is None or key < best_move:
                        best_move = key
                        best_trial, best_trial_start = trial, start
                if best_move is None:
                    continue
                new_len, new_start, _ = best_move
                # Migrate when the schedule shortens, or stays equal while
                # the node itself starts earlier (bubbling the pivot load
                # outward exactly as the original's start-time criterion).
                if new_len < best_len - 1e-9 or (
                    new_len <= best_len + 1e-9 and new_start < cur_start - 1e-9
                ):
                    sequences = best_trial
                    best_start = best_trial_start
                    best_len = new_len
        return execute_fixed_order(graph, sequences, topo)


def _time_trial(graph: TaskGraph, sequences: List[List[int]],
                topo: Topology, node: int, bound: Optional[float]
                ) -> Optional[Tuple[float, List[float]]]:
    """Length and start list of timing ``sequences``, no schedule built.

    ``None`` when the timing stopped at ``bound``: the trial is longer.
    With the sanitizer armed, the materialising executor re-derives the
    trial and must agree on the length and on ``node``'s start, or, for
    a stopped trial, be longer than ``bound``.
    """
    timing = time_fixed_order(graph, sequences, topo, bound=bound)
    if timing is None:  # pragma: no cover - CPN-dominant order is topological
        raise ScheduleError("BSA sequences deadlock against the precedence "
                            "order")
    if timing is EXCEEDED:
        if _sanitize.enabled():
            oracle = execute_fixed_order(graph, sequences, topo)
            _sanitize.require(
                bound is not None and oracle.length > bound,
                f"BSA trial of node {node} stopped at bound {bound!r} but "
                f"its schedule is only {oracle.length!r} long")
        return None
    assert isinstance(timing, FixedOrderTiming)
    length = timing.length
    if _sanitize.enabled():
        oracle = execute_fixed_order(graph, sequences, topo)
        _sanitize.require(
            oracle.length == length  # repro: noqa-RPR005 oracle identity: the same computation, not a time comparison
            and oracle.start_of(node) == timing.start[node],  # repro: noqa-RPR005 oracle identity: the same computation, not a time comparison
            f"BSA trial timing of node {node} disagrees with the "
            "materialised schedule")
    return length, timing.start


def _inserted_by_order(seq: List[int], node: int,
                       topo_pos: Dict[int, int]) -> List[int]:
    """A copy of ``seq`` with ``node`` at its CPN-dominant rank."""
    rank = topo_pos[node]
    lo = 0
    while lo < len(seq) and topo_pos[seq[lo]] < rank:
        lo += 1
    return seq[:lo] + [node] + seq[lo:]
