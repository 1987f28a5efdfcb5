"""Differential proof: MH and DLS-APN keep every decision in the one loop.

MH and DLS-APN used to be hand-written list schedulers.  They are now
the component loop at their :data:`APN_DESIGNS` coordinates, run on a
:class:`NetworkMachine` through the link start-time oracle
(:class:`repro.network.contention.LinkOracle`).  Verbatim copies of the
two old ``_run`` bodies and MH's ``_probe_est``/``_commit`` live here
as the reference, and the production acronyms must reproduce them
exactly — placements, the booked messages and the order they were
recorded in:

1. on the nine 50-node ``grid`` graphs of seeds 53 and 97 (the
   benchmark's APN slice) on an 8-processor hypercube;
2. on six of them on ring-8, star-6 and hypercube-3 at link bandwidths
   0.5 and 2.0;
3. on random graphs and topologies (Hypothesis).

The sanitizer oracle is checked too: with ``REPRO_SANITIZE`` armed, a
pair scan that stops noticing link bookings is caught at the step it
goes wrong.
"""

from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NetworkMachine, Topology, get_scheduler, validate
from repro.check import SanitizeError, sanitize
from repro.core.attributes import blevel, static_blevel
from repro.core.graph import TaskGraph
from repro.core.listsched import ReadyTracker
from repro.core.machine import Machine
from repro.core.rng import derive_rng
from repro.core.schedule import Schedule
from repro.generators.random_graphs import rgnos_graph
from repro.network.contention import LinkOracle, LinkSchedule
from strategies import task_graphs


# ----------------------------------------------------------------------
# the reference: the hand-written MH and DLS-APN, verbatim
# ----------------------------------------------------------------------
class MH:
    """The pre-component ``MH`` scheduler body, preserved verbatim."""

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        assert isinstance(machine, NetworkMachine)
        topo = machine.topology
        prio = blevel(graph)
        links = LinkSchedule(topo)
        schedule = Schedule(graph, topo.num_procs)
        ready = ReadyTracker(graph)
        while not ready.all_scheduled():
            node = max(ready.iter_ready(), key=lambda n: (prio[n], -n))
            best: Tuple[float, int] | None = None
            for p in range(topo.num_procs):
                est = self._probe_est(graph, schedule, links, node, p)
                finish = est + graph.weight(node)
                if best is None or (finish, p) < best:
                    best = (finish, p)
            _, proc = best
            start = self._commit(graph, schedule, links, node, proc)
            schedule.place(node, proc, start)
            ready.mark_scheduled(node)
        return schedule

    @staticmethod
    def _probe_est(graph: TaskGraph, schedule: Schedule, links: LinkSchedule,
                   node: int, proc: int) -> float:
        """Estimated start of ``node`` on ``proc`` (no commitment)."""
        est = schedule.proc_ready_time(proc)
        for parent in graph.predecessors(node):
            src = schedule.proc_of(parent)
            arr = links.probe_arrival(src, proc, schedule.finish_of(parent),
                                      graph.comm_cost(parent, node))
            if arr > est:
                est = arr
        return est

    @staticmethod
    def _commit(graph: TaskGraph, schedule: Schedule, links: LinkSchedule,
                node: int, proc: int) -> float:
        """Reserve the parent messages toward ``proc``; return the start."""
        arrival = 0.0
        parents = sorted(
            graph.predecessors(node),
            key=lambda q: (schedule.finish_of(q), q),
        )
        for parent in parents:
            src = schedule.proc_of(parent)
            cost = graph.comm_cost(parent, node)
            if src == proc:
                arr = schedule.finish_of(parent)
            else:
                msg = links.commit(parent, node, src, proc,
                                   schedule.finish_of(parent), cost)
                schedule.record_message(msg)
                arr = msg.arrival
            if arr > arrival:
                arrival = arr
        return max(schedule.proc_ready_time(proc), arrival)


class DLSAPN:
    """The pre-component ``DLSAPN`` scheduler body, preserved verbatim."""

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


REFERENCE = {"MH": MH(), "DLS-APN": DLSAPN()}


def _snapshot(schedule):
    """Placements plus every message, in the order it was recorded."""
    messages = [(key, msg.route, msg.hops, msg.arrival)
                for key, msg in schedule.messages.items()]
    return schedule.to_dict(), messages


def _assert_same(acro, graph, topo):
    machine = NetworkMachine(topo)
    want = REFERENCE[acro]._run(graph, machine)
    got = get_scheduler(acro).schedule(graph, machine)
    assert _snapshot(got) == _snapshot(want), (acro, graph.name, topo)
    validate(got, network=topo)


def _grid_graphs(seed):
    """The benchmark grid's 50-node APN slice for ``seed``."""
    return [rgnos_graph(50, ccr, par,
                        seed=derive_rng(seed, "grid", 50, ccr, par),
                        name=f"grid-v50-ccr{ccr:g}-p{par}")
            for ccr in (0.1, 1.0, 10.0) for par in (1, 3, 5)]


_GRID = {seed: _grid_graphs(seed) for seed in (53, 97)}


# ----------------------------------------------------------------------
# 1. the benchmark's APN slice on its 8-processor hypercube
# ----------------------------------------------------------------------
@pytest.mark.parametrize("acro", ["MH", "DLS-APN"])
@pytest.mark.parametrize("index", range(9))
@pytest.mark.parametrize("seed", [53, 97])
def test_grid_graphs_match_reference(acro, index, seed):
    _assert_same(acro, _GRID[seed][index], Topology.hypercube(3))


# ----------------------------------------------------------------------
# 2. other topologies and link bandwidths
# ----------------------------------------------------------------------
_TOPOLOGIES = {
    "ring8": lambda: Topology.ring(8),
    "star6": lambda: Topology.star(6),
    "cube3": lambda: Topology.hypercube(3),
}


@pytest.mark.parametrize("acro", ["MH", "DLS-APN"])
@pytest.mark.parametrize("bandwidth", [0.5, 2.0])
@pytest.mark.parametrize("topo", sorted(_TOPOLOGIES))
@pytest.mark.parametrize("index", [0, 4, 8])
@pytest.mark.parametrize("seed", [53, 97])
def test_topologies_and_bandwidths_match_reference(acro, bandwidth, topo,
                                                   index, seed):
    topology = _TOPOLOGIES[topo]().with_bandwidth(bandwidth)
    _assert_same(acro, _GRID[seed][index], topology)


# ----------------------------------------------------------------------
# 3. random graphs and topologies
# ----------------------------------------------------------------------
_RANDOM_TOPOLOGIES = st.one_of(
    st.builds(Topology.ring, st.integers(2, 6)),
    st.builds(Topology.chain, st.integers(1, 5)),
    st.builds(Topology.star, st.integers(2, 6)),
    st.builds(Topology.hypercube, st.integers(0, 3)),
    st.builds(Topology.mesh2d, st.integers(1, 3), st.integers(1, 3)),
    st.builds(Topology.clique, st.integers(1, 5)),
)


@settings(max_examples=80, deadline=None)
@given(graph=task_graphs(min_nodes=1, max_nodes=18),
       topo=_RANDOM_TOPOLOGIES,
       bandwidth=st.sampled_from([0.5, 1.0, 2.0]),
       acro=st.sampled_from(["MH", "DLS-APN"]))
def test_random_graphs_match_reference(graph, topo, bandwidth, acro):
    _assert_same(acro, graph, topo.with_bandwidth(bandwidth))


# ----------------------------------------------------------------------
# the sanitizer oracle
# ----------------------------------------------------------------------
def test_sanitizer_catches_a_scan_blind_to_link_bookings(monkeypatch):
    """A pair scan that misses link bookings is caught.

    On a star every message crosses the hub, so booking one message
    delays the probe of another toward a different leaf: a column whose
    processor did not change still holds a stale start time.
    """
    graph = _GRID[53][4]
    machine = NetworkMachine(Topology.star(6))
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    get_scheduler("DLS-APN").schedule(graph, machine)  # the oracle agrees
    # Freeze the link revision: only processor edits mark columns.
    monkeypatch.setattr(LinkOracle, "revision",
                        lambda self, proc: self.schedule.revision(proc))
    with pytest.raises(SanitizeError, match="incremental pair scan"):
        get_scheduler("DLS-APN").schedule(graph, machine)
