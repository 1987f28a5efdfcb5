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

The discrete-event simulator's static replay went the same way: it is
now the online event loop under a policy that never replans.  A
verbatim copy of the dedicated replay loop it replaced lives here too,
and :func:`repro.sim.simulate` must match it bit for bit — placements,
executed durations, message records and event counts — on the golden
corpus under every noise model, network backend and machine model.
"""

import heapq
import random

import pytest

import differential_corpus as dc
from repro import Machine, NetworkMachine, Topology, get_scheduler
from repro.algorithms.mapping import (
    execute_fixed_order,
    simulate_fixed_sequences,
)
from repro.algorithms.unc import dcp, md
from repro.check import sanitize as _sanitize
from repro.core.exceptions import ScheduleError
from repro.core.rng import as_generator
from repro.core.schedule import Schedule, Violation, render_violations
from repro.network.contention import LinkSchedule
from repro.sim import (
    DETERMINISTIC,
    ContentionNetwork,
    Dist,
    FixedDelayNetwork,
    InstantNetwork,
    PerturbationModel,
    replay_network,
    simulate,
)
from repro.sim.engine import SimResult


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


# ----------------------------------------------------------------------
# static replay: the dedicated loop simulate() ran before it became the
# online loop under a never-replanning policy, with its helpers
# ----------------------------------------------------------------------
_FINISH = 0
_ARRIVAL = 1


def _resolve_edge(missing, ready_time, child, when):
    missing[child] -= 1
    if when > ready_time[child]:
        ready_time[child] = when
    return missing[child] == 0


def _stall_violations(graph, executed, sequences, next_idx):
    done = {v for v in range(graph.num_nodes) if executed.is_scheduled(v)}
    violations = []
    for p, seq in enumerate(sequences):
        if next_idx[p] >= len(seq):
            continue
        head = seq[next_idx[p]]
        waiting = [u for u in graph.pred_pairs(head)[0] if u not in done]
        violations.append(Violation(
            code="stalled",
            message=f"head task waits on unexecuted predecessor(s) "
                    f"{waiting}",
            node=head, proc=p))
    return violations


def _reference_replay(schedule, perturb, network, rng):
    """The pre-merge replay loop, preserved as the reference."""
    graph = schedule.graph
    n = graph.num_nodes
    num_procs = schedule.num_procs
    noise = perturb.begin_trial(as_generator(rng), n, num_procs)
    net = network if network is not None else replay_network(schedule)
    net.reset()

    # Static replay state, all derived from the input schedule.
    proc_of = [schedule.proc_of(v) for v in range(n)]
    sequences = [
        [pl.node for pl in schedule.tasks_on(p)] for p in range(num_procs)
    ]
    missing = [graph.in_degree(v) for v in range(n)]
    ready_time = [0.0] * n          # latest input arrival so far
    next_idx = [0] * len(sequences)  # head of each processor's sequence
    proc_free = [0.0] * num_procs
    running = [False] * num_procs

    executed = Schedule(graph, num_procs, speeds=schedule.speeds)
    heap = []  # (time, insertion seq, kind, payload)
    seq_counter = 0
    num_events = 0

    def push(time, kind, payload):
        nonlocal seq_counter
        heapq.heappush(heap, (time, seq_counter, kind, payload))
        seq_counter += 1

    def try_start(p):
        if running[p] or next_idx[p] >= len(sequences[p]):
            return
        node = sequences[p][next_idx[p]]
        if missing[node]:
            return
        start = max(proc_free[p], ready_time[node])
        duration = noise.duration(node, p, schedule.duration_of(node, p))
        executed.place(node, p, start, duration=duration)
        running[p] = True
        next_idx[p] += 1
        push(start + duration, _FINISH, node)

    for p in range(num_procs):
        try_start(p)

    sanitizing = _sanitize.enabled()
    last_now = 0.0
    while heap:
        now, _, kind, payload = heapq.heappop(heap)
        num_events += 1
        if sanitizing:
            # Event-heap monotonicity: a pop that travels back in time
            # means heap entries (or their timestamps) were corrupted.
            _sanitize.require(
                now >= last_now - 1e-9,
                f"event heap popped time {now!r} after {last_now!r}")
            last_now = now
        if kind == _FINISH:  # repro: noqa-RPR005 integer event-kind tag, not a time
            node, p = payload, proc_of[payload]
            running[p] = False
            proc_free[p] = now
            children, costs = graph.succ_pairs(node)
            for child, cost in zip(children, costs):
                dst = proc_of[child]
                if dst == p:
                    # Local data is available immediately; no event
                    # needed — resolve in place.  Starting the child is
                    # left to the single trailing try_start(p): dst == p
                    # here, so the head is re-tried exactly once per
                    # finish event.
                    _resolve_edge(missing, ready_time, child, now)
                else:
                    # Every cross-processor edge goes through the
                    # backend, zero-cost ones included: a backend with
                    # per-message latency charges them too (the clique
                    # default adds nothing, keeping zero-noise replay
                    # exact).
                    factor = noise.comm_factor()
                    arrival, msg = net.arrival(node, child, p, dst, now,
                                               cost, factor)
                    if msg is not None:
                        executed.record_message(msg)
                    push(arrival, _ARRIVAL, child)
            try_start(p)
        else:  # _ARRIVAL
            child = payload
            if _resolve_edge(missing, ready_time, child, now):
                try_start(proc_of[child])

    if not executed.is_complete():
        table = render_violations(
            _stall_violations(graph, executed, sequences, next_idx))
        raise ScheduleError(
            "replay stalled before completing the schedule "
            "(inconsistent processor sequences):\n" + table)
    return SimResult(
        schedule=executed,
        predicted=schedule.length,
        makespan=executed.length,
        num_events=num_events,
    )


_NOISE = {
    "deterministic": (DETERMINISTIC, (None,)),
    "lognormal": (PerturbationModel.lognormal(0.3), (0, 1, 2)),
    "uniform+comm": (PerturbationModel(duration=Dist("uniform", 0.5),
                                       speed=Dist("lognormal", 0.2),
                                       comm=Dist("lognormal", 0.4)),
                     (3, 4, 5)),
}

# Each network builder takes the topology matching the schedule's
# processor count (only the contention backend routes over it).
_NETWORKS = {
    "replay": lambda topo: None,
    "instant": lambda topo: InstantNetwork(),
    "fixed-latency": lambda topo: FixedDelayNetwork(scale=1.5, latency=0.7),
    "contention": ContentionNetwork,
}


def _replay_cases():
    """(schedule, topology) pairs over the golden corpus: MCP on four
    identical and on three heterogeneous processors, and MH's message
    plans on a 4-processor hypercube for the small graphs."""
    cases = []
    for graph in dc.corpus_graphs():
        for tag, topo in (("p4", Topology.ring(4)),
                          ("het3", Topology.ring(3))):
            cases.append((get_scheduler("MCP").schedule(
                graph, dc.build_machine(tag, graph)), topo))
        if graph.num_nodes <= dc.APN_MAX_NODES:
            cube = Topology.hypercube(2)
            cases.append((get_scheduler("MH").schedule(
                graph, NetworkMachine(cube)), cube))
    return cases


@pytest.fixture(scope="module")
def replay_cases():
    return _replay_cases()


def _assert_same_trial(ours, ref, label):
    # Key order too: both loops place tasks in the same event order.
    assert list(ours.schedule.to_dict().items()) == \
        list(ref.schedule.to_dict().items()), label
    assert list(ours.schedule.messages.items()) == \
        list(ref.schedule.messages.items()), label
    assert ours.num_events == ref.num_events, label
    assert (ours.predicted, ours.makespan) == \
        (ref.predicted, ref.makespan), label


@pytest.mark.parametrize("network", sorted(_NETWORKS))
@pytest.mark.parametrize("noise", sorted(_NOISE))
def test_replay_matches_reference_loop(replay_cases, noise, network):
    perturb, seeds = _NOISE[noise]
    has_messages = 0
    for schedule, topo in replay_cases:
        for seed in seeds:
            ours = simulate(schedule, perturb, _NETWORKS[network](topo),
                            rng=seed)
            ref = _reference_replay(schedule, perturb,
                                    _NETWORKS[network](topo), seed)
            _assert_same_trial(ours, ref,
                               (schedule.graph.name, schedule.num_procs,
                                seed))
            has_messages += bool(ours.schedule.messages)
    # Only the contention backend records messages (the replay default
    # turns MH's message plans into fixed delays).
    assert (has_messages > 0) == (network == "contention")


def test_replay_stall_matches_reference_loop():
    graph = dc.corpus_graphs()[0]
    planned = get_scheduler("MCP").schedule(graph, Machine(2))
    sequences = _sequences_from(planned, 2)
    # Reversing the busier sequence puts a task ahead of its ancestor.
    busiest = max(range(2), key=lambda p: len(sequences[p]))
    broken = Schedule(graph, 2)
    for p, seq in enumerate(sequences):
        order = seq[::-1] if p == busiest else seq
        clock = 0.0
        for node in order:
            broken.place(node, p, clock)
            clock = broken.finish_of(node)
    with pytest.raises(ScheduleError) as ours:
        simulate(broken)
    with pytest.raises(ScheduleError) as ref:
        _reference_replay(broken, DETERMINISTIC, None, None)
    assert str(ours.value) == str(ref.value)
    assert "stalled" in str(ours.value)
