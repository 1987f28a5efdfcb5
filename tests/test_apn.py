"""Behavioural tests for the four APN algorithms and the network
simulation engine."""

import pytest

from repro import (
    NetworkMachine,
    ScheduleError,
    TaskGraph,
    Topology,
    get_scheduler,
    validate,
)
from repro.algorithms.apn import cpn_dominant_list
from repro.algorithms.mapping import execute_fixed_order
from repro.bench.runner import APN_ALGORITHMS

ALL_APN = list(APN_ALGORITHMS)


@pytest.mark.parametrize("name", ALL_APN)
@pytest.mark.parametrize("topo_factory", [
    lambda: Topology.ring(4),
    lambda: Topology.chain(3),
    lambda: Topology.hypercube(3),
    lambda: Topology.clique(4),
], ids=["ring4", "chain3", "cube8", "clique4"])
class TestCommonAPN:
    def test_valid_with_messages(self, name, topo_factory, kwok9):
        topo = topo_factory()
        sched = get_scheduler(name).schedule(kwok9, NetworkMachine(topo))
        validate(sched, network=topo)

    def test_deterministic(self, name, topo_factory, kwok9):
        topo = topo_factory()
        s1 = get_scheduler(name).schedule(kwok9, NetworkMachine(topo))
        s2 = get_scheduler(name).schedule(kwok9, NetworkMachine(topo))
        assert s1.to_dict() == s2.to_dict()


@pytest.mark.parametrize("name", ALL_APN)
class TestAPNBasics:
    def test_single_node(self, name):
        g = TaskGraph([2.0], {})
        topo = Topology.ring(3)
        sched = get_scheduler(name).schedule(g, NetworkMachine(topo))
        assert sched.length == 2.0

    def test_heavy_chain_on_one_proc(self, name):
        g = TaskGraph([2.0, 2.0], {(0, 1): 100.0})
        topo = Topology.ring(4)
        sched = get_scheduler(name).schedule(g, NetworkMachine(topo))
        validate(sched, network=topo)
        assert sched.proc_of(0) == sched.proc_of(1)

    def test_random_graph_valid(self, name):
        from repro.generators.random_graphs import rgnos_graph

        g = rgnos_graph(30, 1.0, 2, seed=7)
        topo = Topology.hypercube(2)
        sched = get_scheduler(name).schedule(g, NetworkMachine(topo))
        validate(sched, network=topo)

    def test_metadata(self, name):
        assert get_scheduler(name).klass == "APN"


class TestNetsim:
    """The fixed-order executor under link contention (BU/BSA's timing)."""

    def test_chain_across_network(self):
        g = TaskGraph([1.0, 1.0], {(0, 1): 3.0})
        topo = Topology.chain(3)
        sched = execute_fixed_order(g, [[0], [], [1]], topo)
        validate(sched, network=topo)
        # 1 (compute) + 3 + 3 (two store-and-forward hops) = 7 start.
        assert sched.start_of(1) == pytest.approx(7.0)

    def test_contention_delays_second_message(self):
        g = TaskGraph(
            [1.0, 1.0, 1.0, 1.0],
            {(0, 2): 4.0, (1, 3): 4.0},
            name="2msgs",
        )
        topo = Topology.chain(2)
        sched = execute_fixed_order(g, [[0, 1], [2, 3]], topo)
        validate(sched, network=topo)
        starts = sorted([sched.start_of(2), sched.start_of(3)])
        # First message arrives at 1+4=5 at best; the second must queue
        # behind it on the single channel.
        assert starts[1] >= starts[0] + 4.0 - 1e-9

    def test_missing_node_rejected(self):
        g = TaskGraph([1.0, 1.0], {(0, 1): 1.0})
        topo = Topology.chain(2)
        with pytest.raises(ScheduleError):
            execute_fixed_order(g, [[0], []], topo)

    def test_duplicate_node_rejected(self):
        g = TaskGraph([1.0, 1.0], {(0, 1): 1.0})
        topo = Topology.chain(2)
        with pytest.raises(ScheduleError):
            execute_fixed_order(g, [[0, 1], [1]], topo)

    def test_bad_order_deadlocks(self):
        g = TaskGraph([1.0, 1.0], {(0, 1): 1.0})
        topo = Topology.chain(2)
        with pytest.raises(ScheduleError, match="deadlock"):
            execute_fixed_order(g, [[1, 0], []], topo)


class TestCPNDominantList:
    def test_is_topological(self, kwok9):
        order = cpn_dominant_list(kwok9)
        pos = {n: i for i, n in enumerate(order)}
        assert sorted(order) == list(kwok9.nodes())
        for u, v, _c in kwok9.edges():
            assert pos[u] < pos[v]

    def test_cp_entry_first(self, kwok9):
        order = cpn_dominant_list(kwok9)
        assert order[0] == 0  # single entry node heads the list

    def test_covers_disconnected_parts(self):
        g = TaskGraph([1.0, 2.0, 3.0], {})
        order = cpn_dominant_list(g)
        assert sorted(order) == [0, 1, 2]


class TestBSA:
    def test_improves_on_serial_injection(self, kwok9):
        """Bubbling must never yield something worse than the serial
        pivot schedule it starts from."""
        topo = Topology.ring(4)
        serial = kwok9.total_computation
        sched = get_scheduler("BSA").schedule(kwok9, NetworkMachine(topo))
        assert sched.length <= serial + 1e-9

    def test_pivot_is_max_degree(self):
        g = TaskGraph([1.0], {})
        topo = Topology.star(4)  # processor 0 has degree 3
        sched = get_scheduler("BSA").schedule(g, NetworkMachine(topo))
        assert sched.proc_of(0) == 0


class TestBU:
    def test_children_pull_parents(self):
        """With one heavy child chain per branch, the bottom-up pass
        keeps each parent with its child to kill the communication."""
        g = TaskGraph(
            [1.0, 1.0, 5.0, 5.0],
            {(0, 2): 40.0, (1, 3): 40.0},
            name="bu-pull",
        )
        topo = Topology.chain(2)
        sched = get_scheduler("BU").schedule(g, NetworkMachine(topo))
        validate(sched, network=topo)
        assert sched.proc_of(0) == sched.proc_of(2)
        assert sched.proc_of(1) == sched.proc_of(3)


class TestMHvsDLS:
    def test_both_respect_contention(self):
        """On a chain topology a hub-to-leaf broadcast must serialise;
        both schedulers' schedules must reflect queueing delays."""
        fan = TaskGraph(
            [1.0] + [1.0] * 4,
            {(0, i): 5.0 for i in range(1, 5)},
            name="fan",
        )
        topo = Topology.chain(2)
        for name in ("MH", "DLS-APN"):
            sched = get_scheduler(name).schedule(fan, NetworkMachine(topo))
            validate(sched, network=topo)
