"""DCP — Dynamic Critical Path scheduling (Kwok & Ahmad, 1996).

The best UNC performer in the paper.  Three ideas distinguish DCP:

1. **Dynamic critical path** — after every placement the absolute
   earliest and latest start times (AEST / ALST) of all nodes are
   recomputed on the partially scheduled graph; the next node is the
   unscheduled one with minimum mobility ``ALST - AEST`` (a node on the
   current dynamic critical path), breaking ties toward smaller ALST.
   Both are the kernel's level sweeps, masked by a per-node processor
   label (-1 while unplaced) and pinned at placed nodes: AEST is the
   forward sweep floored at the pinned start, ALST the negated backward
   sweep with the pinned start as override.
2. **Restricted candidate processors** — only processors already holding
   one of the node's parents or children (plus one fresh processor) are
   examined, which both speeds the search and economises processors: "as
   long as the schedule length is not affected, it tries to schedule a
   child to a processor holding its parent even though its start time
   may not reduce" (Section 6.4.2).
3. **Look-ahead** — a candidate processor is scored by the start time it
   gives the node *plus* the start time it would give the node's
   *critical child* (the unscheduled child with the smallest ALST) on
   that same processor; minimising the sum avoids greedy placements that
   strangle the rest of the critical path.

Complexity O(v^3).  Final start times are produced by a fixed-sequence
timing pass over the (mapping, per-processor order) DCP decides.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

import numpy as np

from ...core.graph import TaskGraph
from ...core.kernel import backward_sweep, forward_sweep
from ...core.machine import Machine
from ...core.schedule import Schedule, insertion_slot
from ..base import Scheduler, register
from ..mapping import simulate_fixed_sequences

__all__ = ["DCP"]


@register
class DCP(Scheduler):
    name = "DCP"
    klass = "UNC"
    cp_based = True
    dynamic_priority = True
    uses_insertion = True
    complexity = "O(v^3)"

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        n = graph.num_nodes
        # Processor of each node (-1 while unplaced) and its pinned start
        # (0.0 while unplaced, so it doubles as the AEST floor).
        proc_of = np.full(n, -1, dtype=np.int64)
        pin = np.zeros(n)
        proc_starts: List[List[float]] = []
        proc_finishes: List[List[float]] = []
        proc_nodes: List[List[int]] = []

        for _step in range(n):
            aest, alst = self._start_bounds(graph, proc_of, pin)
            placed = proc_of.tolist()
            node = min(
                (i for i in range(n) if placed[i] < 0),
                key=lambda i: (alst[i] - aest[i], alst[i], i),
            )
            candidates = sorted(
                {placed[x] for x in graph.predecessors(node) if placed[x] >= 0}
                | {placed[x] for x in graph.successors(node) if placed[x] >= 0}
            )
            if len(proc_starts) < n:
                candidates.append(len(proc_starts))  # one fresh processor
            if not candidates:
                candidates = [len(proc_starts)]
            cc = self._critical_child(graph, node, placed, alst)
            best: Optional[Tuple[float, float, int, float]] = None
            for p in candidates:
                fresh = p == len(proc_starts)
                starts = [] if fresh else proc_starts[p]
                fins = [] if fresh else proc_finishes[p]
                est = self._est_on(graph, node, p, aest, placed)
                slot = insertion_slot(starts, fins, est, graph.weight(node))
                if cc is not None:
                    slot_cc = self._lookahead(graph, cc, node, slot, p, aest,
                                              placed, starts, fins)
                    score = slot + slot_cc
                else:
                    score = slot
                key = (score, slot, p, slot)
                if best is None or key[:3] < (best[0], best[1], best[2]):
                    best = (score, slot, p, slot)
            _, _, p, start = best
            if p == len(proc_starts):
                proc_starts.append([])
                proc_finishes.append([])
                proc_nodes.append([])
            i = bisect.bisect_left(proc_starts[p], start)
            proc_starts[p].insert(i, start)
            proc_finishes[p].insert(i, start + graph.weight(node))
            proc_nodes[p].insert(i, node)
            pin[node] = start
            proc_of[node] = p

        sequences = [list(nodes) for nodes in proc_nodes]
        return simulate_fixed_sequences(graph, sequences, machine.num_procs)

    # ------------------------------------------------------------------
    @staticmethod
    def _start_bounds(graph: TaskGraph, proc_of: np.ndarray, pin: np.ndarray
                      ) -> Tuple[List[float], List[float]]:
        """AEST and ALST of every node on the partially scheduled graph.

        Edges between co-located nodes cost nothing.  A placed node's
        AEST is floored at its pinned start (the final timing pass
        resolves the tentative inconsistencies a floor leaves) and its
        ALST is the pinned start.  ALST is taken w.r.t. the dynamic CP
        length: ``min(dcpl - w[u], alst[v] - c(u, v) - w[u])`` is the
        backward max sweep of the negated values, exactly, because
        rounding to nearest is symmetric in sign.
        """
        w = graph.weights
        aest = forward_sweep(graph, zero=proc_of, floor=pin)
        dcpl = (aest + w).max()
        placed = proc_of >= 0
        negated = backward_sweep(graph, zero=proc_of, fixed=placed,
                                 init=np.where(placed, -pin, w - dcpl))
        return aest.tolist(), (0.0 - negated).tolist()

    @staticmethod
    def _critical_child(graph: TaskGraph, node: int, placed: List[int],
                        alst: List[float]) -> Optional[int]:
        """Unscheduled child with the smallest ALST (ties: smaller id)."""
        cands = [s for s in graph.successors(node) if placed[s] < 0]
        if not cands:
            return None
        return min(cands, key=lambda s: (alst[s], s))

    @staticmethod
    def _est_on(graph: TaskGraph, node: int, proc: int, aest: List[float],
                placed: List[int]) -> float:
        est = 0.0
        parents, costs = graph.pred_pairs(node)
        for p, c in zip(parents, costs):
            arr = aest[p] + graph.weight(p)
            if placed[p] != proc:
                arr += c
            if arr > est:
                est = arr
        return est

    @staticmethod
    def _lookahead(graph: TaskGraph, cc: int, node: int, node_slot: float,
                   proc: int, aest: List[float], placed: List[int],
                   starts: List[float], fins: List[float]) -> float:
        """Start the critical child would get on ``proc`` next to ``node``."""
        est = 0.0
        parents, costs = graph.pred_pairs(cc)
        for q, c in zip(parents, costs):
            if q == node:
                arr = node_slot + graph.weight(node)  # co-located, comm-free
            else:
                arr = aest[q] + graph.weight(q)
                if placed[q] != proc:
                    arr += c
            if arr > est:
                est = arr
        # Search the processor's gaps with the node tentatively inserted.
        i = bisect.bisect_left(starts, node_slot)
        t_starts = starts[:i] + [node_slot] + starts[i:]
        t_fins = fins[:i] + [node_slot + graph.weight(node)] + fins[i:]
        return insertion_slot(t_starts, t_fins, est, graph.weight(cc))
