"""Differential proof: BSA's flat trial timing keeps every migration.

BSA (:mod:`repro.algorithms.apn.bsa`) used to time each tentative move
by building a full :class:`~repro.core.schedule.Schedule` through the
fixed-order executor.  It now times trials with the executor's flat
core, :func:`repro.algorithms.mapping.time_fixed_order`, and builds one
schedule at the end.  A verbatim copy of the old ``BSA._run`` loop lives
here as the reference, timing every trial with the pre-refactor
Schedule-driven network loop kept in
``tests/test_sim_netsim_differential.py``, and production BSA must
reproduce its placements and messages exactly:

1. on the nine 50-node graphs of the benchmark's ``grid`` workload for
   seeds 53 and 97 on the 8-processor hypercube;
2. on ring, star and bandwidth-scaled topologies.

Also checked: the core's start and finish lists equal the materialised
schedule's on random sequences (Hypothesis, clique and topology mode),
BSA places each task exactly once per run, and with ``REPRO_SANITIZE``
armed a trial whose timing disagrees with the materialising executor is
caught.
"""

from collections import deque
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NetworkMachine, TaskGraph, Topology, get_scheduler
from repro.algorithms.apn import bsa
from repro.algorithms.apn.bsa import cpn_dominant_list
from repro.algorithms.mapping import execute_fixed_order, time_fixed_order
from repro.check import SanitizeError, sanitize
from repro.core.rng import derive_rng
from repro.core.schedule import Schedule
from repro.generators.random_graphs import rgnos_graph
from strategies import task_graphs
from test_sim_netsim_differential import (
    _reference_fixed_order,
    _reference_try_sequences,
)


# ----------------------------------------------------------------------
# the reference: the pre-refactor BSA._run loop, verbatim
# ----------------------------------------------------------------------
def _reference_execute(graph, sequences, topo):
    return _reference_fixed_order(graph, topo, sequences)


def _reference_bsa(graph, topo, execute_fixed_order=_reference_execute):
    """The BSA ``_run`` body before flat trial timing, preserved verbatim
    (``machine.topology`` became the ``topo`` argument)."""
    p_count = topo.num_procs
    order = cpn_dominant_list(graph)
    topo_pos = {n: i for i, n in enumerate(order)}

    pivot = max(range(p_count), key=lambda p: (topo.degree(p), -p))
    sequences: List[List[int]] = [[] for _ in range(p_count)]
    sequences[pivot] = list(order)

    best_sched = execute_fixed_order(graph, sequences, topo)
    best_len = best_sched.length

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
        # Snapshot: migrating a node mutates the sequence we iterate.
        for node in list(sequences[current]):
            cur_start = best_sched.start_of(node)
            if cur_start <= 1e-12:
                continue  # already starts at time zero; nothing to gain
            best_move: Tuple[float, float, int] | None = None
            for nb in topo.neighbors(current):
                trial = [list(s) for s in sequences]
                trial[current].remove(node)
                _insert_by_order(trial[nb], node, topo_pos)
                sched = execute_fixed_order(graph, trial, topo)
                key = (sched.length, sched.start_of(node), nb)
                if best_move is None or key < best_move:
                    best_move = key
                    best_trial, best_trial_sched = trial, sched
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
                best_sched = best_trial_sched
                best_len = new_len
    return best_sched


def _insert_by_order(seq: List[int], node: int, topo_pos: Dict[int, int]) -> None:
    """Insert ``node`` keeping the sequence sorted by CPN-dominant rank."""
    rank = topo_pos[node]
    lo = 0
    while lo < len(seq) and topo_pos[seq[lo]] < rank:
        lo += 1
    seq.insert(lo, node)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _grid_graphs(seed):
    """The 50-node graphs of the benchmark's ``grid`` workload."""
    return [rgnos_graph(50, ccr, par,
                        seed=derive_rng(seed, "grid", 50, ccr, par),
                        name=f"grid-v50-ccr{ccr:g}-p{par}")
            for ccr in (0.1, 1.0, 10.0) for par in (1, 3, 5)]


def _messages(schedule):
    return {key: (m.route, m.hops, m.arrival)
            for key, m in schedule.messages.items()}


def _assert_same_bsa(graph, topo):
    ours = get_scheduler("BSA").schedule(graph, NetworkMachine(topo))
    ref = _reference_bsa(graph, topo)
    assert ours.to_dict() == ref.to_dict(), graph.name
    assert _messages(ours) == _messages(ref), graph.name
    # Placements and messages were recorded in the same order too.
    assert list(ours.to_dict()) == list(ref.to_dict()), graph.name
    assert list(ours.messages) == list(ref.messages), graph.name


@pytest.mark.parametrize("seed", [53, 97])
def test_bsa_matches_reference_on_grid_graphs(seed):
    topo = Topology.hypercube(3)
    for graph in _grid_graphs(seed):
        _assert_same_bsa(graph, topo)


@pytest.mark.parametrize("topo", [
    Topology.ring(8),
    Topology.star(6),
    Topology.hypercube(3).with_bandwidth(0.5),
    Topology.hypercube(3).with_bandwidth(2.0),
], ids=["ring8", "star6", "cube8-bw0.5", "cube8-bw2"])
def test_bsa_matches_reference_on_other_topologies(topo):
    # One low-, mid- and high-CCR graph of each seed.
    graphs = _grid_graphs(53)[1::4] + _grid_graphs(97)[2::4]
    for graph in graphs:
        _assert_same_bsa(graph, topo)


# ----------------------------------------------------------------------
# the timing core against the materialised schedule
# ----------------------------------------------------------------------
@st.composite
def _graph_and_sequences(draw):
    """A task graph and a random topological order dealt onto 1-6
    processors, so the sequences never deadlock."""
    graph = draw(task_graphs(max_nodes=16))
    num_procs = draw(st.integers(1, 6))
    remaining = [graph.in_degree(v) for v in graph.nodes()]
    ready = [v for v in graph.nodes() if remaining[v] == 0]
    sequences: List[List[int]] = [[] for _ in range(num_procs)]
    while ready:
        node = ready.pop(draw(st.integers(0, len(ready) - 1)))
        sequences[draw(st.integers(0, num_procs - 1))].append(node)
        for child in graph.successors(node):
            remaining[child] -= 1
            if remaining[child] == 0:
                ready.append(child)
    return graph, sequences


_TOPOLOGIES = {1: Topology.chain(1), 2: Topology.chain(2),
               3: Topology.ring(3), 4: Topology.hypercube(2),
               5: Topology.star(5), 6: Topology.ring(6)}


@settings(max_examples=60, deadline=None)
@given(case=_graph_and_sequences(), topology_mode=st.booleans())
def test_core_timing_equals_materialised_schedule(case, topology_mode):
    graph, sequences = case
    procs = (_TOPOLOGIES[len(sequences)] if topology_mode
             else len(sequences))
    timing = time_fixed_order(graph, sequences, procs)
    schedule = execute_fixed_order(graph, sequences, procs)
    assert timing is not None and timing.messages is None
    for node in graph.nodes():
        assert timing.start[node] == schedule.start_of(node)
        assert timing.finish[node] == schedule.finish_of(node)
    assert timing.length == schedule.length
    # ... and the materialised schedule is the pre-refactor timing.
    if topology_mode:
        ref = _reference_fixed_order(graph, procs, sequences)
        assert _messages(schedule) == _messages(ref)
    else:
        ref = _reference_try_sequences(graph, sequences, procs)
        assert not schedule.messages
    assert schedule.to_dict() == ref.to_dict()


def test_core_reports_deadlock_as_none():
    graph = _grid_graphs(53)[0]
    order = list(reversed(graph.topological_order))
    assert time_fixed_order(graph, [order], Topology.chain(1)) is None
    assert time_fixed_order(graph, [order], 1) is None


# ----------------------------------------------------------------------
# one Schedule per run
# ----------------------------------------------------------------------
def test_bsa_places_each_task_exactly_once(monkeypatch):
    # The armed sanitizer materialises every trial on purpose.
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
    calls = []
    place = Schedule.place

    def counting(self, node, proc, start, duration=None):
        calls.append(node)
        return place(self, node, proc, start, duration)

    monkeypatch.setattr(Schedule, "place", counting)
    topo = Topology.hypercube(3)
    for graph in _grid_graphs(97)[:3]:
        del calls[:]
        get_scheduler("BSA").schedule(graph, NetworkMachine(topo))
        assert sorted(calls) == list(graph.nodes())


# ----------------------------------------------------------------------
# the sanitizer oracle
# ----------------------------------------------------------------------
def test_sanitizer_rederives_every_trial(monkeypatch):
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    oracle_calls = []
    execute = bsa.execute_fixed_order

    def recording(graph, sequences, procs):
        oracle_calls.append(len(sequences))
        return execute(graph, sequences, procs)

    monkeypatch.setattr(bsa, "execute_fixed_order", recording)
    graph = _grid_graphs(53)[4]
    topo = Topology.hypercube(3)
    armed = get_scheduler("BSA").schedule(graph, NetworkMachine(topo))
    # Every trial plus the base and the final materialisation.
    assert len(oracle_calls) > 2
    monkeypatch.delenv(sanitize.ENV_VAR)
    assert armed.to_dict() == get_scheduler("BSA").schedule(
        graph, NetworkMachine(topo)).to_dict()


def test_sanitizer_checks_graphs_smaller_than_the_pivot_id(monkeypatch):
    # chain(3) pivots on processor 1, which is not a node of a one-task
    # graph: the base timing is checked on a node of the graph.
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    graph = TaskGraph([3.0], {}, name="single")
    sched = get_scheduler("BSA").schedule(graph,
                                          NetworkMachine(Topology.chain(3)))
    assert sched.to_dict() == {0: (1, 0.0, 3.0)}


def test_sanitizer_catches_a_stale_trial(monkeypatch):
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    calls = []
    core = bsa.time_fixed_order

    def corrupt_third(graph, sequences, procs, **bound):
        timing = core(graph, sequences, procs, **bound)
        calls.append(1)
        if len(calls) == 3:
            return timing._replace(start=[s + 1.0 for s in timing.start])
        return timing

    monkeypatch.setattr(bsa, "time_fixed_order", corrupt_third)
    graph = _grid_graphs(53)[4]
    with pytest.raises(SanitizeError, match="BSA trial timing"):
        get_scheduler("BSA").schedule(graph,
                                      NetworkMachine(Topology.hypercube(3)))
    assert len(calls) == 3
