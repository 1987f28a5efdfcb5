"""MD — Mobility Directed scheduling (Wu & Gajski, 1990).

MD schedules nodes in order of *relative mobility*

    M(n) = (L' - (tlevel'(n) + blevel'(n))) / w(n)

where the primed quantities are recomputed on the *partially zeroed*
graph after every placement (edges between co-located nodes cost
nothing) and ``L'`` is the current critical-path length.  Both are the
kernel's level sweeps (:func:`~repro.core.kernel.forward_sweep`,
:func:`~repro.core.kernel.backward_sweep`) masked by a per-node
processor label (-1 while unplaced); the t-level is floored at each
placed node's pinned start.  Nodes with zero mobility lie on the
current critical path, so MD is CP-based with a fully dynamic priority.
A node is placed on the first already-used processor that can hold it
without stretching the critical path (start within its ALAP window,
insertion allowed); only if none can is a new processor opened — which
is why the paper finds MD using relatively few processors (Section
6.4.2) at the cost of the largest UNC running times (Table 6).

Deviation from the original: Wu & Gajski allow limited re-timing of
already-placed nodes when squeezing a new node in; we pin placed nodes
and resolve any resulting tentative inconsistency with a final
fixed-sequence timing pass (:func:`simulate_fixed_sequences`).
"""

from __future__ import annotations

import bisect
from typing import List

import numpy as np

from ...core.graph import TaskGraph
from ...core.kernel import backward_sweep, forward_sweep
from ...core.machine import Machine
from ...core.schedule import Schedule, insertion_slot
from ..base import Scheduler, register
from ..mapping import simulate_fixed_sequences

__all__ = ["MD"]

_EPS = 1e-9


@register
class MD(Scheduler):
    name = "MD"
    klass = "UNC"
    cp_based = True
    dynamic_priority = True
    uses_insertion = True
    complexity = "O(v^3)"

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        n = graph.num_nodes
        # Processor of each node (-1 while unplaced) and its pinned start
        # (0.0 while unplaced, so it doubles as the t-level floor).
        proc_of = np.full(n, -1, dtype=np.int64)
        pin = np.zeros(n)
        # Per processor: parallel sorted lists of (start, finish, node).
        proc_starts: List[List[float]] = []
        proc_finishes: List[List[float]] = []
        proc_nodes: List[List[int]] = []

        for _step in range(n):
            # Edges between co-located nodes cost nothing.
            t = forward_sweep(graph, zero=proc_of, floor=pin).tolist()
            b = backward_sweep(graph, zero=proc_of).tolist()
            cp = max(t[i] + b[i] for i in range(n))
            placed, pins = proc_of.tolist(), pin.tolist()
            # Min relative mobility; ties toward smaller t-level then id.
            node = min(
                (i for i in range(n) if placed[i] < 0),
                key=lambda i: ((cp - (t[i] + b[i])) / graph.weight(i), t[i], i),
            )
            alst = cp - b[node]  # latest start not stretching the CP
            choice = None
            for p in range(len(proc_starts)):
                est = self._est_on(graph, node, p, t, placed, pins)
                slot = insertion_slot(proc_starts[p], proc_finishes[p], est,
                                      graph.weight(node))
                if slot <= alst + _EPS:
                    choice = (p, slot)
                    break
            if choice is None:
                # Fresh processor: the node starts at its dynamic t-level,
                # which by definition of cp satisfies the mobility window.
                proc_starts.append([])
                proc_finishes.append([])
                proc_nodes.append([])
                choice = (len(proc_starts) - 1, t[node])
            p, start = choice
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
    def _est_on(graph: TaskGraph, node: int, proc: int, t: List[float],
                placed: List[int], pins: List[float]) -> float:
        """Earliest data-constrained start of ``node`` on ``proc``.

        Edges from parents already resident on ``proc`` are treated as
        zeroed; unscheduled parents contribute their dynamic t-level.
        """
        est = 0.0
        parents, costs = graph.pred_pairs(node)
        for p, c in zip(parents, costs):
            if placed[p] >= 0:
                arr = pins[p] + graph.weight(p)
                if placed[p] != proc:
                    arr += c
            else:
                arr = t[p] + graph.weight(p) + c
            if arr > est:
                est = arr
        return est
