"""Differential proof: the one fixed-order executor keeps both old timings.

:func:`repro.algorithms.mapping.execute_fixed_order` replaced two
loops: the link-contention executor BU and BSA timed their mappings
with, and the clique-model pass (plus its re-sort-and-retry policy) MD
and DCP use through :func:`simulate_fixed_sequences`.  Verbatim
reference copies of both historical loops live here, independent of
the production code, and the executor must match them:

1. under link contention — placements *and* message schedules — on
   every small golden-corpus graph, for per-processor sequences drawn
   from real APN runs, and on random topologically consistent
   sequences;
2. under the clique model, for the sequences MD and DCP hand to
   :func:`simulate_fixed_sequences` on the golden corpus, including the
   same sequences with inversions that force the retry.

(The golden corpus JSON files additionally pin MD, DCP, BU and BSA
end-to-end, since all four time through this executor.)
"""

import random

import pytest

import differential_corpus as dc
from repro import Machine, NetworkMachine, Topology, get_scheduler
from repro.algorithms.mapping import (
    execute_fixed_order,
    simulate_fixed_sequences,
)
from repro.algorithms.unc import dcp, md
from repro.core.exceptions import ScheduleError
from repro.core.schedule import Schedule
from repro.network.contention import LinkSchedule


def _reference_fixed_order(graph, topology, sequences):
    """The pre-refactor netsim loop, preserved as the reference."""
    n = graph.num_nodes
    proc_of, pos = {}, {}
    for p, seq in enumerate(sequences):
        for i, node in enumerate(seq):
            proc_of[node] = p
            pos[node] = i
    links = LinkSchedule(topology)
    schedule = Schedule(graph, topology.num_procs)
    remaining = [graph.in_degree(i) for i in range(n)]
    next_slot = [0] * len(sequences)
    ready = [i for i in range(n) if remaining[i] == 0]
    placed = 0
    while placed < n:
        new_ready = []
        for node in sorted(ready):
            p = proc_of[node]
            if pos[node] != next_slot[p]:
                continue
            arrival = 0.0
            parents = sorted(
                graph.predecessors(node),
                key=lambda q: (schedule.finish_of(q), q),
            )
            for parent in parents:
                cost = graph.comm_cost(parent, node)
                src = proc_of[parent]
                if src == p:
                    arr = schedule.finish_of(parent)
                else:
                    msg = links.commit(parent, node, src, p,
                                       schedule.finish_of(parent), cost)
                    schedule.record_message(msg)
                    arr = msg.arrival
                arrival = max(arrival, arr)
            schedule.place(node, p, max(schedule.proc_ready_time(p),
                                        arrival))
            ready.remove(node)
            next_slot[p] += 1
            placed += 1
            for child in graph.successors(node):
                remaining[child] -= 1
                if remaining[child] == 0:
                    new_ready.append(child)
        ready.extend(new_ready)
    return schedule


def _reference_simulate_fixed_sequences(graph, sequences, num_procs):
    """The pre-refactor clique pass and its retry, preserved as the
    reference."""
    topo_index = {n: i for i, n in enumerate(graph.topological_order)}
    seqs = [list(s) for s in sequences]
    for _attempt in range(2):
        schedule = _reference_try_sequences(graph, seqs, num_procs)
        if schedule is not None:
            return schedule
        seqs = [sorted(s, key=topo_index.__getitem__) for s in seqs]
    raise ScheduleError("fixed-sequence simulation failed")


def _reference_try_sequences(graph, sequences, num_procs):
    n = graph.num_nodes
    proc_of = {}
    pos = {}
    for p, seq in enumerate(sequences):
        for i, node in enumerate(seq):
            proc_of[node] = p
            pos[node] = i
    if len(proc_of) != n:
        raise ScheduleError("sequences must cover every node exactly once")
    remaining = [graph.in_degree(i) for i in range(n)]
    next_slot = [0] * len(sequences)
    schedule = Schedule(graph, num_procs)
    ready = [i for i in range(n) if remaining[i] == 0]
    placed = 0
    while placed < n:
        progress = False
        new_ready = []
        for node in list(ready):
            p = proc_of[node]
            if pos[node] != next_slot[p]:
                continue  # not yet this node's turn on its processor
            drt = schedule.data_ready_time(node, p)
            start = max(schedule.proc_ready_time(p), drt)
            schedule.place(node, p, start)
            ready.remove(node)
            next_slot[p] += 1
            placed += 1
            progress = True
            for child in graph.successors(node):
                remaining[child] -= 1
                if remaining[child] == 0:
                    new_ready.append(child)
        ready.extend(new_ready)
        if not progress:
            return None  # sequence/precedence deadlock
    return schedule


def _small_corpus():
    return [g for g in dc.corpus_graphs()
            if g.num_nodes <= dc.APN_MAX_NODES]


def _sequences_from(schedule, num_procs):
    return [[pl.node for pl in schedule.tasks_on(p)]
            for p in range(num_procs)]


def _assert_same_contention_timing(ours, ref, label):
    assert ours.to_dict() == ref.to_dict(), label
    assert set(ours.messages) == set(ref.messages), label
    for key, msg in ours.messages.items():
        other = ref.messages[key]
        assert msg.arrival == pytest.approx(other.arrival)
        assert msg.hops == other.hops
        assert msg.route == other.route


@pytest.mark.parametrize("alg", ["MH", "BSA", "BU"])
def test_identical_timings_on_golden_corpus(alg):
    topo = Topology.hypercube(2)
    for graph in _small_corpus():
        planned = get_scheduler(alg).schedule(graph, NetworkMachine(topo))
        sequences = _sequences_from(planned, topo.num_procs)
        ours = execute_fixed_order(graph, sequences, topo)
        ref = _reference_fixed_order(graph, topo, sequences)
        _assert_same_contention_timing(ours, ref, graph.name)


def _random_sequences(graph, num_procs, rng):
    """A random topological order dealt onto random processors.

    Every processor's sequence follows one topological order, so the
    sequences never deadlock, while the mapping is arbitrary: many
    tasks wait on their processor with their parents long done, which
    exercises the round order the contention timing depends on.
    """
    remaining = [graph.in_degree(v) for v in graph.nodes()]
    ready = [v for v in graph.nodes() if remaining[v] == 0]
    sequences = [[] for _ in range(num_procs)]
    while ready:
        node = ready.pop(rng.randrange(len(ready)))
        sequences[rng.randrange(num_procs)].append(node)
        for child in graph.successors(node):
            remaining[child] -= 1
            if remaining[child] == 0:
                ready.append(child)
    return sequences


@pytest.mark.parametrize("topo", [Topology.hypercube(2), Topology.ring(3),
                                  Topology.chain(5)],
                         ids=["cube4", "ring3", "chain5"])
def test_identical_timings_on_random_sequences(topo):
    rng = random.Random(20240613)
    for graph in dc.corpus_graphs()[::3]:
        for _ in range(3):
            sequences = _random_sequences(graph, topo.num_procs, rng)
            ours = execute_fixed_order(graph, sequences, topo)
            ref = _reference_fixed_order(graph, topo, sequences)
            _assert_same_contention_timing(ours, ref, graph.name)
            clique = simulate_fixed_sequences(graph, sequences,
                                              topo.num_procs)
            assert clique.to_dict() == _reference_simulate_fixed_sequences(
                graph, sequences, topo.num_procs).to_dict(), graph.name


def _captured_clique_calls(monkeypatch):
    """Run MD and DCP over the corpus, recording each executor call."""
    calls = []

    def recording(graph, sequences, num_procs):
        calls.append((graph, [list(s) for s in sequences], num_procs))
        return simulate_fixed_sequences(graph, sequences, num_procs)

    for module in (md, dcp):
        monkeypatch.setattr(module, "simulate_fixed_sequences", recording)
    for graph in dc.corpus_graphs():
        for alg in ("MD", "DCP"):
            get_scheduler(alg).schedule(graph, Machine.unbounded(graph))
    return calls


def test_clique_mode_matches_md_and_dcp_on_golden_corpus(monkeypatch):
    calls = _captured_clique_calls(monkeypatch)
    assert len(calls) == 2 * len(dc.corpus_graphs())
    for graph, sequences, num_procs in calls:
        ours = simulate_fixed_sequences(graph, sequences, num_procs)
        ref = _reference_simulate_fixed_sequences(graph, sequences,
                                                  num_procs)
        assert ours.to_dict() == ref.to_dict(), graph.name
        assert not ours.messages


def test_clique_retry_matches_on_inverted_sequences(monkeypatch):
    calls = _captured_clique_calls(monkeypatch)
    inverted = 0
    for graph, sequences, num_procs in calls:
        # Reverse the busiest processor: a descendant now precedes its
        # ancestor, so the first pass deadlocks and the retry runs.
        busiest = max(range(len(sequences)),
                      key=lambda p: len(sequences[p]))
        trial = [list(s) for s in sequences]
        trial[busiest].reverse()
        try:
            execute_fixed_order(graph, trial, num_procs)
            continue  # the reversed tasks were independent
        except ScheduleError as exc:
            assert "deadlock" in str(exc)
        inverted += 1
        ours = simulate_fixed_sequences(graph, trial, num_procs)
        ref = _reference_simulate_fixed_sequences(graph, trial, num_procs)
        assert ours.to_dict() == ref.to_dict(), graph.name
    assert inverted > 0
