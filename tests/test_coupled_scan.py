"""Differential proof: the incremental ETF/DLS pair scan keeps every pick.

The coupled selectors (``proc=etf``/``proc=dls``) used to rebuild every
ready node's arrival profile and probe every (ready node, candidate
processor) pair at every step.  They now keep that scan current
incrementally (:mod:`repro.algorithms.components.selectors`).  Verbatim
copies of the two full-rescan ``pick`` bodies live here as the
reference, plugged into the same component loop, and the production
selectors must reproduce their placements exactly:

1. on RGNOS graphs of 50-250 nodes (seeds 53 and 97) on a bounded, a
   heterogeneous and a virtually unlimited machine;
2. under ``insert=on|hole`` and the dynamic ``prio=dnode`` rule;
3. through ``online:dls,imode=mean`` replans, which pin history first;
4. on random graphs and machines, and on tie-heavy integer ones
   (Hypothesis);
5. with two threads scheduling at once (the selectors are shared).

The sanitizer oracle is checked too: with ``REPRO_SANITIZE`` armed, a
scan that stops re-probing edited processors is caught at the step it
goes wrong.  The scan's rows are the ready nodes, never the graph.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, TaskGraph, get_scheduler
from repro.algorithms.components import PROC_SELECTORS, parse_spec
from repro.algorithms.components.scheduler import run_component_loop
from repro.algorithms.components.selectors import SelectorState, _PairScan
from repro.check import SanitizeError, sanitize
from repro.core.listsched import candidate_procs
from repro.generators.random_graphs import rgnos_graph
from repro.sim import PerturbationModel
from repro.sim.online import parse_online_spec, simulate_online
from strategies import task_graphs


# ----------------------------------------------------------------------
# the reference: the full-rescan pick bodies, verbatim
# ----------------------------------------------------------------------
def _reference_etf_pick(schedule, ready, pool, prio, slot):
    """The pre-incremental ``_EtfSelector.pick``, preserved verbatim."""
    # The schedule does not change within one step, so the
    # candidate shortlist is loop-invariant; each ready node
    # contributes one O(deg) arrival profile, then every
    # (node, proc) EST is an O(1) query.
    procs = candidate_procs(schedule)
    homogeneous = schedule.speeds is None
    best = None  # (est, -value, node, proc)
    for node in ready.iter_ready():
        profile = schedule.arrival_profile(node)
        neg = -prio.value(node)
        dur = schedule.duration_of(node, 0) if homogeneous else None
        for proc in procs:
            if not homogeneous:
                dur = schedule.duration_of(node, proc)
            est = schedule.earliest_slot(proc, profile.drt(proc),
                                         dur, insertion=slot)
            key = (est, neg, node, proc)
            if best is None or key < best:
                best = key
    est, _, node, proc = best
    return node, proc, est


def _reference_dls_pick(schedule, ready, pool, prio, slot):
    """The pre-incremental ``_DlsSelector.pick``, preserved verbatim."""
    procs = candidate_procs(schedule)
    homogeneous = schedule.speeds is None
    best = None  # (-DL, node, proc, est)
    for node in ready.iter_ready():
        profile = schedule.arrival_profile(node)
        level = prio.value(node)
        dur = schedule.duration_of(node, 0) if homogeneous else None
        for proc in procs:
            if not homogeneous:
                dur = schedule.duration_of(node, proc)
            est = schedule.earliest_slot(proc, profile.drt(proc),
                                         dur, insertion=slot)
            dl = level - est
            key = (-dl, node, proc)
            if best is None or key < best[:3]:
                best = (key[0], node, proc, est)
    _, node, proc, est = best
    return node, proc, est


class _ReferenceState(SelectorState):
    def __init__(self, pick, schedule, ready, prio, slot):
        self._pick = pick
        self._args = (schedule, ready, prio, slot)

    def pick(self, pool):
        schedule, ready, prio, slot = self._args
        return self._pick(schedule, ready, pool, prio, slot)


class _ReferenceSelector:
    """Drop-in ``proc=`` component that rescans every step."""

    coupled = True

    def __init__(self, key, pick):
        self.key = key
        self.summary = f"full-rescan reference for {key}"
        self._pick = pick

    def start(self, oracle, ready, prio, slot):
        return _ReferenceState(self._pick, oracle.schedule, ready, prio,
                               slot)


REFERENCE = {
    "etf": _ReferenceSelector("etf", _reference_etf_pick),
    "dls": _ReferenceSelector("dls", _reference_dls_pick),
}


def _run(spec_text, graph, machine, reference, pinned=()):
    spec = parse_spec(spec_text)
    parts = spec.components()
    if reference:
        parts["proc"] = REFERENCE[spec.proc]
    return run_component_loop(parts, graph, machine, pinned=pinned)


def _assert_same(spec_text, graph, machine):
    want = _run(spec_text, graph, machine, reference=True).to_dict()
    got = _run(spec_text, graph, machine, reference=False).to_dict()
    assert got == want, (spec_text, graph.name, machine.num_procs)


def _hetero(p):
    return Machine(p, speeds=[1.0, 0.5, 2.0, 0.75, 1.5, 1.0, 0.5, 1.25][:p])


# ----------------------------------------------------------------------
# 1-2. fixed cases: sizes, seeds, machines, insertion and priority axes
# ----------------------------------------------------------------------
BASE = ("param:prio=slevel,proc=etf", "param:prio=slevel,proc=dls")


@pytest.mark.parametrize("seed", [53, 97])
@pytest.mark.parametrize("size", [50, 150, 250])
@pytest.mark.parametrize("spec", BASE)
def test_bounded_machine_matches_reference(spec, size, seed):
    _assert_same(spec, rgnos_graph(size, 1.0, 3, seed=seed), Machine(8))


@pytest.mark.parametrize("seed", [53, 97])
@pytest.mark.parametrize("spec", BASE)
def test_heterogeneous_machine_matches_reference(spec, seed):
    _assert_same(spec, rgnos_graph(120, 2.0, 4, seed=seed), _hetero(6))


@pytest.mark.parametrize("seed", [53, 97])
@pytest.mark.parametrize("spec", BASE)
def test_unlimited_machine_matches_reference(spec, seed):
    graph = rgnos_graph(150, 0.5, 5, seed=seed)
    _assert_same(spec, graph, Machine(graph.num_nodes))


@pytest.mark.parametrize("spec", [
    "param:prio=slevel,proc=etf,insert=on",
    "param:prio=slevel,proc=dls,insert=on",
    "param:prio=slevel,proc=etf,insert=hole",
    "param:prio=slevel,proc=dls,insert=hole",
    "param:prio=dnode,proc=etf,insert=off",
    "param:prio=dnode,proc=dls,insert=off",
    "param:prio=dnode,proc=dls,insert=hole",
    "param:prio=tlevel,ready=fifo,proc=dls,insert=on",
    "param:prio=alaplist,proc=etf,insert=hole",
    "param:prio=btlevel,proc=dls,insert=off",
    "param:prio=blevel,proc=etf,insert=on",
])
@pytest.mark.parametrize("seed", [53, 97])
def test_axes_match_reference(spec, seed):
    graph = rgnos_graph(100, 5.0, 3, seed=seed)
    _assert_same(spec, graph, Machine(8))
    _assert_same(spec, graph, _hetero(5))
    _assert_same(spec, graph, Machine(graph.num_nodes))


def test_pinned_history_matches_reference():
    # Pins go through the same bookkeeping as loop placements, before
    # the scan's first step: the scan must see every pinned timeline.
    graph = rgnos_graph(80, 1.0, 3, seed=53)
    full = _run("param:proc=dls,insert=on", graph, Machine(6),
                reference=True)
    history = sorted((pl for pl in (full.placement(n)
                                    for n in graph.nodes())
                      if pl.start < full.length / 3),
                     key=lambda pl: (pl.start, pl.node))
    pinned = [(pl.node, (pl.proc + 1) % 6, pl.start,
               pl.finish - pl.start) for pl in history]
    for spec in ("param:proc=dls,insert=on", "param:proc=etf,insert=hole"):
        want = _run(spec, graph, Machine(6), True, pinned).to_dict()
        got = _run(spec, graph, Machine(6), False, pinned).to_dict()
        assert got == want, spec


# ----------------------------------------------------------------------
# 3. online replans (pinned history, replanned remainder)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [53, 97])
def test_online_dls_replans_match_reference(seed, monkeypatch):
    graph = rgnos_graph(60, 1.0, 3, seed=seed)
    spec = parse_online_spec("online:dls,imode=mean")

    def run():
        return simulate_online(graph, Machine(4), spec,
                               perturb=PerturbationModel.lognormal(0.3),
                               rng=seed)

    got = run()
    with monkeypatch.context() as patch:
        patch.setitem(PROC_SELECTORS, "dls", REFERENCE["dls"])
        want = run()
    assert got.num_replans > 0  # the case really exercises pins
    assert got.num_replans == want.num_replans
    assert got.trace == want.trace
    assert got.schedule.to_dict() == want.schedule.to_dict()


# ----------------------------------------------------------------------
# 4. random graphs and machines
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(graph=task_graphs(min_nodes=2, max_nodes=24),
       proc=st.sampled_from(["etf", "dls"]),
       prio=st.sampled_from(["slevel", "dnode", "tlevel", "alap"]),
       insert=st.sampled_from(["off", "on", "hole"]),
       procs=st.integers(1, 6),
       hetero=st.booleans())
def test_random_graphs_match_reference(graph, proc, prio, insert, procs,
                                       hetero):
    machine = _hetero(procs) if hetero else Machine(procs)
    _assert_same(f"param:prio={prio},proc={proc},insert={insert}",
                 graph, machine)


def _giant_sink(graph):
    """``graph`` plus a sink of weight 2**54 fed by every node.

    Every static level then lies where doubles are 4 apart, so DLS
    levels ``value - est`` of one node on different processors round
    together and the processor id decides: a row's best pair is not
    its earliest start.
    """
    n = graph.num_nodes
    edges = {(u, v): c for u, v, c in graph.edges()}
    edges.update({(u, n): 0.0 for u in range(n)})
    weights = [graph.weight(u) for u in range(n)] + [2.0 ** 54]
    return TaskGraph(weights, edges, name=f"{graph.name}+sink")


@settings(max_examples=40, deadline=None)
@given(graph=task_graphs(min_nodes=2, max_nodes=16, max_weight=3,
                         max_comm=3),
       insert=st.sampled_from(["off", "on"]),
       procs=st.integers(2, 5))
def test_rounded_dls_levels_match_reference(graph, insert, procs):
    _assert_same(f"param:proc=dls,insert={insert}", _giant_sink(graph),
                 Machine(procs))


def _tie_heavy_graphs():
    """Graphs whose start times, levels and priorities tie a lot."""
    return st.one_of(
        task_graphs(min_nodes=2, max_nodes=20, max_weight=2, max_comm=2,
                    edge_prob=0.5),
        task_graphs(min_nodes=2, max_nodes=20, max_weight=2, max_comm=1,
                    edge_prob=0.1))


@settings(max_examples=80, deadline=None)
@given(graph=_tie_heavy_graphs(),
       proc=st.sampled_from(["etf", "dls"]),
       prio=st.sampled_from(["slevel", "blevel", "dnode"]),
       insert=st.sampled_from(["off", "on", "hole"]),
       procs=st.sampled_from([1, 2, 3, "v", "pairs"]))
def test_tie_heavy_graphs_match_reference(graph, proc, prio, insert,
                                          procs):
    # Integer weights and costs make whole rows and columns of equal
    # keys, so every pick leans on the (lead, tie, node, proc) order.
    # Repeated speeds let an idle processor join the shortlist below
    # used ones, so columns do not arrive in processor order.
    if procs == "v":
        machine = Machine(graph.num_nodes)
    elif procs == "pairs":
        machine = Machine(4, speeds=[1.0, 1.0, 2.0, 2.0])
    else:
        machine = Machine(procs)
    _assert_same(f"param:prio={prio},proc={proc},insert={insert}",
                 graph, machine)


@pytest.mark.parametrize("spec", ["param:prio=slevel,proc=dls",
                                  "param:prio=slevel,proc=etf,insert=on"])
def test_scan_rows_are_the_ready_nodes(spec, monkeypatch):
    # One row per ready node, never one per graph node: Machine(v)
    # runs on graphs of a thousand nodes and more.
    graph = rgnos_graph(150, 1.0, 5, seed=53)
    steps = []
    real = _PairScan.pick

    def pick(self, pool):
        picked = real(self, pool)
        ready = sorted(self._ready.iter_ready())
        steps.append(sorted(self._nodes.tolist()) == ready
                     and self._cells.shape == (len(ready), len(self._procs)))
        return picked

    monkeypatch.setattr(_PairScan, "pick", pick)
    _run(spec, graph, Machine(graph.num_nodes), reference=False)
    assert len(steps) == graph.num_nodes and all(steps)


# ----------------------------------------------------------------------
# 5. shared selectors, concurrent runs
# ----------------------------------------------------------------------
def test_concurrent_dls_runs_equal_serial_runs():
    graphs = [rgnos_graph(120, 1.0, 3, seed=s) for s in (53, 97, 11, 29)]
    dls = get_scheduler("DLS")
    serial = [dls.schedule(g, Machine(8)).to_dict() for g in graphs]
    results = [None] * len(graphs)
    barrier = threading.Barrier(2)

    def worker(offset):
        barrier.wait()
        for i in range(offset, len(graphs), 2):
            results[i] = dls.schedule(graphs[i], Machine(8)).to_dict()

    threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two scans finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial


# ----------------------------------------------------------------------
# the sanitizer oracle
# ----------------------------------------------------------------------
def _assert_a_stale_scan_is_caught(spec, monkeypatch):
    graph = rgnos_graph(40, 1.0, 3, seed=53)
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    get_scheduler(spec).schedule(graph, Machine(4))  # the oracle agrees
    real = _PairScan._changed_columns
    # Probe the first step's columns, then never notice an edit again.
    monkeypatch.setattr(_PairScan, "_changed_columns",
                        lambda self: real(self) if not self._procs else [])
    with pytest.raises(SanitizeError, match="incremental pair scan"):
        get_scheduler(spec).schedule(graph, Machine(4))


def test_sanitizer_catches_a_stale_scan(monkeypatch):
    """A scan that stops seeing processors' edits is caught.

    ``_changed_columns`` is the scan's invalidation hook: it names the
    columns whose processor moved.  Blinded, the append-only clique
    scan (DLS) keeps stale processor ready times.
    """
    _assert_a_stale_scan_is_caught("DLS", monkeypatch)


def test_sanitizer_catches_a_stale_slot_search_scan(monkeypatch):
    """The same blindness under slot search keeps stale probed starts."""
    _assert_a_stale_scan_is_caught("param:prio=slevel,proc=etf,insert=on",
                                   monkeypatch)
