"""BU — Bottom-Up scheduling (Mehdiratta & Ghose, 1994).

Two phases, working *against* the usual top-down flow:

1. **Assignment (bottom-up)** — nodes are visited in reverse topological
   order, so every node sees its children already assigned.  A node goes
   to the processor minimising the sum of its children's communication
   pull (edge cost × network distance to each child's processor) plus a
   load-balance term (total computation already assigned there).
2. **Scheduling (top-down)** — with the mapping fixed, tasks run in
   topological order per processor and every cross-processor message is
   scheduled on the links.

The paper finds BU the fastest APN algorithm (the assignment pass is a
single sweep) but with erratic schedule quality — visible in the large
NSL differences between BSA and BU in Figure 2(c).
"""

from __future__ import annotations

from typing import Dict, List

from ...core.graph import TaskGraph
from ...core.machine import Machine, NetworkMachine
from ...core.schedule import Schedule
from ..base import Scheduler, register
from ..mapping import execute_fixed_order

__all__ = ["BU"]


@register
class BU(Scheduler):
    name = "BU"
    klass = "APN"
    cp_based = False
    dynamic_priority = False
    uses_insertion = False
    complexity = "O(v(p + log v) + e p)"

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        assert isinstance(machine, NetworkMachine)
        topo = machine.topology
        p_count = topo.num_procs
        load = [0.0] * p_count
        proc_of: Dict[int, int] = {}
        # Reverse topological sweep: children are assigned before parents.
        for node in reversed(graph.topological_order):
            best_p, best_score = 0, float("inf")
            for p in range(p_count):
                pull = 0.0
                for child in graph.successors(node):
                    dist = topo.hop_count(p, proc_of[child])
                    pull += graph.comm_cost(node, child) * dist
                # Load term keeps the assignment from collapsing onto one
                # processor when communication dominates.
                score = pull + load[p]
                if score < best_score - 1e-12:
                    best_p, best_score = p, score
            proc_of[node] = best_p
            load[best_p] += graph.weight(node)

        sequences: List[List[int]] = [[] for _ in range(p_count)]
        for node in graph.topological_order:
            sequences[proc_of[node]].append(node)
        return execute_fixed_order(graph, sequences, topo)
