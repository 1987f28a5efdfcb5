"""DLS — Dynamic Level Scheduling on processor networks (Sih & Lee, 1993).

The original DLS targets "interconnection-constrained" architectures:
the dynamic level ``DL(n, p) = SL(n) - EST(n, p)`` is evaluated with
message delays taken from the actual state of the interconnect, and the
(ready node, processor) pair with the highest level wins.  This is the
APN member of the DLS family (the clique variant, ``DLS``, is the
component loop's ``proc=dls`` selector); the paper registers its
running time as the largest of the APN class (it probes every
ready-node/processor pair every step) with performance "relatively
stable with respect to the graph size".
"""

from __future__ import annotations

from ...core.attributes import static_blevel
from ...core.graph import TaskGraph
from ...core.listsched import ReadyTracker
from ...core.machine import Machine, NetworkMachine
from ...core.schedule import Schedule
from ...network.contention import LinkSchedule
from ..base import Scheduler, register
from .mh import MH

__all__ = ["DLSAPN"]


@register
class DLSAPN(Scheduler):
    name = "DLS-APN"
    klass = "APN"
    cp_based = False
    dynamic_priority = True
    uses_insertion = False
    complexity = "O(v^3 p)"

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        assert isinstance(machine, NetworkMachine)
        topo = machine.topology
        sl = static_blevel(graph)
        links = LinkSchedule(topo)
        schedule = Schedule(graph, topo.num_procs)
        ready = ReadyTracker(graph)
        while not ready.all_scheduled():
            best = None  # (-DL, node, proc)
            for node in ready.iter_ready():
                for proc in range(topo.num_procs):
                    est = MH._probe_est(graph, schedule, links, node, proc)
                    dl = sl[node] - est
                    key = (-dl, node, proc)
                    if best is None or key < best:
                        best = key
            _, node, proc = best
            start = MH._commit(graph, schedule, links, node, proc)
            schedule.place(node, proc, start)
            ready.mark_scheduled(node)
        return schedule
