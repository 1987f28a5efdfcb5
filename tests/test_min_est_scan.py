"""Differential proof: the pruned min-EST scan keeps every pick.

The decoupled selectors (``proc=est``, and ``proc=eft``) used to probe
every candidate processor: one data-ready query and one slot search
each, over a shortlist rebuilt from the used processors on every call.
They are now one pruned scan (:func:`repro.core.listsched._min_scan`)
over a shortlist the schedule keeps current.  Verbatim copies of the
old scan and the old shortlist live here as the reference, plugged into
the same component loop, and the production scan must reproduce their
placements exactly:

1. HLFET, ISH, MCP and LAST, and ``eft`` specs, on RGNOS graphs on a
   virtually unlimited, a bounded and a heterogeneous machine, MH on a
   processor network, and ``online:`` replans, which pin history;
2. on tie-heavy integer graphs and machines (Hypothesis);
3. on hand-built near-ties inside and at the edge of the 1e-12 window;
4. with the shortlist checked against the old one after every edit,
   removals included.

The sanitizer oracle is checked too: with ``REPRO_SANITIZE`` armed a
scan whose bound is blinded is caught at the step it goes wrong.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, NetworkMachine, TaskGraph, get_scheduler
from repro.algorithms.components import PROC_SELECTORS, parse_spec
from repro.algorithms.components import scheduler as loop_module
from repro.algorithms.components.scheduler import run_component_loop
from repro.algorithms.components.selectors import ProcSelector
from repro.check import SanitizeError, sanitize
from repro.core.listsched import (
    StartOracle,
    best_proc_min_eft,
    best_proc_min_est,
    candidate_procs,
)
from repro.core.schedule import Schedule
from repro.generators.random_graphs import rgnos_graph
from repro.network.topology import Topology
from repro.sim import PerturbationModel
from repro.sim.online import parse_online_spec, simulate_online
from strategies import task_graphs


# ----------------------------------------------------------------------
# the reference: the old shortlist and scan bodies, verbatim
# ----------------------------------------------------------------------
def _reference_candidate_procs(schedule):
    """The pre-pruning ``candidate_procs``, preserved verbatim."""
    procs = schedule.used_proc_ids()
    if len(procs) < schedule.num_procs:
        if schedule.speeds is None:
            # ``procs`` is ascending, so the first empty processor is
            # the first index where the used ids pull ahead.
            first_empty = len(procs)
            for i, p in enumerate(procs):
                if p != i:
                    first_empty = i
                    break
            procs.append(first_empty)
        else:
            used = set(procs)
            seen_speeds = set()
            for p in range(schedule.num_procs):
                if p in used:
                    continue
                speed = schedule.speeds[p]
                if speed not in seen_speeds:
                    seen_speeds.add(speed)
                    procs.append(p)
        procs.sort()  # preserve exact lowest-id tie-breaking
    return procs


def _reference_min_est(oracle, node, insertion):
    """The pre-pruning ``best_proc_min_est``, preserved verbatim."""
    schedule = oracle.schedule
    if schedule.speeds is not None:
        return _reference_min_eft(oracle, node, insertion)
    drt = oracle.drt_of(node)
    duration = schedule.duration_of(node, 0)  # homogeneous: proc-independent
    best_p, best_t = 0, float("inf")
    for p in oracle.procs():
        t = schedule.earliest_slot(p, drt(p), duration,
                                   insertion=insertion)
        if t < best_t - 1e-12:
            best_p, best_t = p, t
    return best_p, best_t


def _reference_min_eft(oracle, node, insertion):
    """The pre-pruning ``best_proc_min_eft``, preserved verbatim."""
    schedule = oracle.schedule
    drt = oracle.drt_of(node)
    best_p, best_t, best_f = 0, 0.0, float("inf")
    for p in oracle.procs():
        duration = schedule.duration_of(node, p)
        t = schedule.earliest_slot(p, drt(p), duration,
                                   insertion=insertion)
        f = t + duration
        if f < best_f - 1e-12:
            best_p, best_t, best_f = p, t, f
    return best_p, best_t


def _reference_procs(self):
    return _reference_candidate_procs(self.schedule)


def _as_reference(patch):
    """Route every min-EST/EFT choice of the loop through the reference.

    The selectors, ISH's hole filler (which asks where a candidate
    would start elsewhere) and the clique oracle's shortlist.  The
    network oracle keeps its own shortlist (every processor), as the
    old code did.
    """
    patch.setitem(PROC_SELECTORS, "est", ProcSelector(
        "est", "reference", choose=_reference_min_est))
    patch.setitem(PROC_SELECTORS, "eft", ProcSelector(
        "eft", "reference", choose=_reference_min_eft))
    patch.setattr(loop_module, "best_proc_min_est", _reference_min_est)
    patch.setattr(StartOracle, "procs", _reference_procs)


def _run(spec_text, graph, machine, pinned=()):
    parts = parse_spec(spec_text).components()
    return run_component_loop(parts, graph, machine,
                              pinned=pinned).to_dict()


def _assert_same(spec_text, graph, machine, pinned=()):
    got = _run(spec_text, graph, machine, pinned)
    with pytest.MonkeyPatch.context() as patch:
        _as_reference(patch)
        want = _run(spec_text, graph, machine, pinned)
    assert got == want, (spec_text, graph.name, machine.num_procs)


def _hetero(p):
    return Machine(p, speeds=[1.0, 0.5, 2.0, 0.75, 1.5, 1.0, 0.5, 1.25][:p])


# ----------------------------------------------------------------------
# 1. fixed cases: the four est designs, eft, networks, replans
# ----------------------------------------------------------------------
EST_DESIGNS = ("HLFET", "ISH", "MCP", "LAST")


@pytest.mark.parametrize("seed", [53, 97])
@pytest.mark.parametrize("size", [50, 150])
@pytest.mark.parametrize("design", EST_DESIGNS)
def test_unlimited_machine_matches_reference(design, size, seed):
    graph = rgnos_graph(size, 1.0, 3, seed=seed)
    _assert_same(design, graph, Machine(graph.num_nodes))


@pytest.mark.parametrize("seed", [53, 97])
@pytest.mark.parametrize("ccr", [0.1, 10.0])
@pytest.mark.parametrize("design", EST_DESIGNS)
def test_bounded_machines_match_reference(design, ccr, seed):
    graph = rgnos_graph(120, ccr, 5, seed=seed)
    _assert_same(design, graph, Machine(8))
    _assert_same(design, graph, Machine(2))
    _assert_same(design, graph, _hetero(6))


@pytest.mark.parametrize("spec", [
    "param:prio=blevel,proc=eft,insert=off",
    "param:prio=blevel,proc=eft,insert=on",
    "param:prio=tlevel,ready=fifo,proc=eft,insert=hole",
    "param:prio=dnode,proc=est,insert=on",
    "param:prio=btlevel,proc=est,insert=hole",
])
@pytest.mark.parametrize("seed", [53, 97])
def test_eft_and_other_axes_match_reference(spec, seed):
    graph = rgnos_graph(100, 5.0, 3, seed=seed)
    _assert_same(spec, graph, Machine(graph.num_nodes))
    _assert_same(spec, graph, Machine(4))
    _assert_same(spec, graph, _hetero(5))


@pytest.mark.parametrize("seed", [53, 97])
def test_network_mh_matches_reference(seed):
    graph = rgnos_graph(50, 1.0, 3, seed=seed)
    for topology in (Topology.hypercube(3), Topology.ring(4)):
        _assert_same("param:prio=blevel,proc=eft,insert=off", graph,
                     NetworkMachine(topology))
        _assert_same("param:prio=slevel,proc=est,insert=off", graph,
                     NetworkMachine(topology))


def test_pinned_history_matches_reference():
    # Pins moved one processor over leave empty processors below used
    # ones, so the shortlist is not a prefix of the ids.
    graph = rgnos_graph(80, 1.0, 3, seed=53)
    full = get_scheduler("MCP").schedule(graph, Machine(6))
    history = sorted((pl for pl in (full.placement(n)
                                    for n in graph.nodes())
                      if pl.start < full.length / 3),
                     key=lambda pl: (pl.start, pl.node))
    pinned = [(pl.node, 2 * pl.proc + 1, pl.start, pl.finish - pl.start)
              for pl in history]
    for design in EST_DESIGNS:
        _assert_same(design, graph, Machine(16), pinned)


@pytest.mark.parametrize("spec", ["online:mcp,imode=mean",
                                  "online:ish,imode=blind"])
def test_online_replans_match_reference(spec):
    graph = rgnos_graph(60, 1.0, 3, seed=53)

    def run():
        return simulate_online(graph, Machine(4), parse_online_spec(spec),
                               perturb=PerturbationModel.lognormal(0.3),
                               rng=53)

    got = run()
    with pytest.MonkeyPatch.context() as patch:
        _as_reference(patch)
        want = run()
    assert got.num_replans > 0  # the case really exercises pins
    assert got.trace == want.trace
    assert got.schedule.to_dict() == want.schedule.to_dict()


# ----------------------------------------------------------------------
# 2. tie-heavy random graphs and machines
# ----------------------------------------------------------------------
def _tie_heavy_graphs():
    """Integer graphs whose starts and data-ready times tie a lot."""
    return st.one_of(
        task_graphs(min_nodes=2, max_nodes=22, max_weight=2, max_comm=2,
                    edge_prob=0.5),
        task_graphs(min_nodes=2, max_nodes=22, max_weight=3, max_comm=1,
                    edge_prob=0.1),
        task_graphs(min_nodes=2, max_nodes=16, max_weight=1, max_comm=0,
                    edge_prob=0.5))


@settings(max_examples=120, deadline=None)
@given(graph=_tie_heavy_graphs(),
       design=st.sampled_from(EST_DESIGNS),
       insert=st.sampled_from(["off", "on", "hole"]),
       procs=st.sampled_from(["v", 2, 3, 4, 5, 6, 7, 8]))
def test_tie_heavy_graphs_match_reference(graph, design, insert, procs):
    spec = parse_spec(design)
    text = (f"param:prio={spec.prio},ready={spec.ready},"
            f"proc={spec.proc},insert={insert}")
    machine = Machine(graph.num_nodes if procs == "v" else procs)
    _assert_same(text, graph, machine)


@settings(max_examples=40, deadline=None)
@given(graph=_tie_heavy_graphs(),
       proc=st.sampled_from(["est", "eft"]),
       insert=st.sampled_from(["off", "on", "hole"]))
def test_tie_heavy_repeated_speeds_match_reference(graph, proc, insert):
    # Repeated speeds put idle processors of each speed on the
    # shortlist, below used ones.
    machine = Machine(4, speeds=[1.0, 1.0, 2.0, 2.0])
    _assert_same(f"param:prio=blevel,proc={proc},insert={insert}", graph,
                 machine)


# ----------------------------------------------------------------------
# 3. hand-built near-ties around the 1e-12 window
# ----------------------------------------------------------------------
def _below(x):
    return math.nextafter(x, -math.inf)



def _state(timelines, parent=None, comm=0.0, num_procs=None):
    """A schedule whose processor ``p`` runs ``timelines[p]``.

    ``timelines[p]`` lists finish times; each filler node starts where
    the one before it finished (the first at 0).  Node ``x`` (the last
    id) is the node to place; with ``parent=(proc, k)`` the ``k``-th
    filler on ``proc`` is its parent, sending over ``comm``.
    """
    weights, placements, edges = [], [], {}
    for proc, finishes in enumerate(timelines):
        start = 0.0
        for k, finish in enumerate(finishes):
            if parent == (proc, k):
                edges[len(weights)] = comm
            placements.append((len(weights), proc, start))
            weights.append(finish - start)
            start = finish
    node = len(weights)
    graph = TaskGraph(weights + [1.0],
                      {(u, node): c for u, c in edges.items()},
                      name="near-ties")
    schedule = Schedule(graph, num_procs or len(timelines))
    for filler, proc, start in placements:
        schedule.place(filler, proc, start)
    return schedule, node


def _both(schedule, node, insertion):
    oracle = StartOracle(schedule)
    got = (best_proc_min_est(oracle, node, insertion),
           best_proc_min_eft(oracle, node, insertion))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StartOracle, "procs", _reference_procs)
        want = (_reference_min_est(oracle, node, insertion),
                _reference_min_eft(oracle, node, insertion))
    return got, want


B = 10.0
CUT = B - 1e-12  # the exact cut a best start of B sets


@pytest.mark.parametrize("ready_times, want_proc", [
    # Inside the window: a later processor is not better enough.
    ([B, B - 0.5e-12], 0),
    ([B, B - 0.999e-12], 0),
    # At the edge: exactly the cut is not below it; one ulp under is.
    ([B, CUT], 0),
    ([B, _below(CUT)], 1),
    # Chains: each step inside the window of the one before, but the
    # third is past the first's window, so it wins.
    ([B, B - 0.6e-12, B - 1.2e-12], 2),
    ([B, B - 0.6e-12, B - 0.9e-12, B - 1.5e-12], 3),
    # A winner then a near-tie after it.
    ([B + 1.0, B, B - 0.5e-12, _below(CUT)], 3),
])
@pytest.mark.parametrize("insertion", [False, True])
def test_near_ties_without_parents(ready_times, want_proc, insertion):
    schedule, node = _state([[t] for t in ready_times])
    got, want = _both(schedule, node, insertion)
    assert got == want
    assert got[0][0] == want_proc


@pytest.mark.parametrize("offsets", [
    (0.0, 0.5e-12, -0.5e-12),
    (0.0, -1e-12, 1e-12),
    (-0.6e-12, 0.0, -1.2e-12),
    (1e-12, 0.0, -0.999e-12),
    (-2e-12, -1e-12, 0.0),
    (3e-12, 2e-12, 1e-12),
])
@pytest.mark.parametrize("insertion", [False, True])
def test_near_ties_with_the_remote_arrival(offsets, insertion):
    # x's parent finishes on P0 at 4 and sends over 6, so every other
    # processor's data-ready time is the same remote 10, the scan's
    # ``rest``; P0 itself is busy until just past 10.  P1-P3 are busy
    # until around 10, P4 until just before it and P5 is empty: each
    # starts x at ``rest`` or a near-tie of it.
    timelines = [[4.0, B + 2e-12]] + [[B + o] for o in offsets] \
        + [[B - 3e-12], []]
    schedule, node = _state(timelines, parent=(0, 0), comm=6.0)
    got, want = _both(schedule, node, insertion)
    assert got == want


@pytest.mark.parametrize("parent_finish, want_proc", [
    (CUT, 0), (_below(CUT), 1)])
@pytest.mark.parametrize("insertion", [False, True])
def test_near_ties_at_the_bound(parent_finish, want_proc, insertion):
    # P0 starts x at 10 (busy until then), which sets the cut; x's
    # parent runs on P1 and finishes exactly on the cut, or one ulp
    # under it, so P1's data-ready time, its bound, sits on the edge.
    timelines = [[B], [parent_finish], [B + 1.0]]
    schedule, node = _state(timelines, parent=(1, 0), comm=0.0)
    got, want = _both(schedule, node, insertion)
    assert got == want
    assert got[0][0] == want_proc


@pytest.mark.parametrize("p3, want_proc", [
    ([CUT], 0), ([_below(CUT)], 3),
    ([4.0, CUT], 0), ([4.0, _below(CUT)], 3)])
@pytest.mark.parametrize("insertion", [False, True])
def test_near_ties_after_the_rest_is_cut_off(p3, want_proc, insertion):
    # x's parent is P3's first task and its message arrives elsewhere
    # at 10.  P0 starts x at that ``rest``, so no processor outside the
    # parent's can win any more: the bound skips P1 and P2, and on P3
    # x starts on the cut or one ulp under it, because its data is
    # ready then or because P3 is busy until then.
    timelines = [[B - 5.0], [1.0], [2.0], p3]
    schedule, node = _state(timelines, parent=(3, 0), comm=B - p3[0])
    got, want = _both(schedule, node, insertion)
    assert got == want
    assert got[0][0] == want_proc


# ----------------------------------------------------------------------
# 4. the kept shortlist
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(procs=st.integers(1, 7),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 6)),
                    max_size=40),
       hetero=st.booleans())
def test_shortlist_matches_reference_under_edits(procs, ops, hetero):
    graph = TaskGraph([1.0] * 40, {}, name="edits")
    machine = _hetero(procs) if hetero else Machine(procs)
    schedule = Schedule(graph, procs, speeds=machine.speeds)
    placed = []
    free = list(range(40))
    for add, where in ops:
        if add and free:
            node = free.pop()
            proc = where % procs
            schedule.place(node, proc, schedule.proc_ready_time(proc))
            placed.append(node)
        elif placed:
            node = placed.pop(where % len(placed))
            schedule.unplace(node)
            free.append(node)
        assert candidate_procs(schedule) == \
            _reference_candidate_procs(schedule)
        assert list(StartOracle(schedule).procs()) == \
            _reference_candidate_procs(schedule)


# ----------------------------------------------------------------------
# the sanitizer oracle
# ----------------------------------------------------------------------
def _blind_parents(self, node):
    """A bound blind to the parents' processors: all read ``rest``."""
    profile = self.schedule.arrival_profile(node)
    return profile.drt, {}, profile.r1


def _late_rest(self, node):
    """A bound that puts every non-parent processor one unit late."""
    profile = self.schedule.arrival_profile(node)
    return profile.drt, profile.local, profile.r1 + 1.0


@pytest.mark.parametrize("design", EST_DESIGNS)
def test_sanitizer_agrees_with_the_scan(design, monkeypatch):
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    graph = rgnos_graph(60, 1.0, 3, seed=53)
    get_scheduler(design).schedule(graph, Machine(graph.num_nodes))
    get_scheduler(design).schedule(graph, Machine(4))


@pytest.mark.parametrize("blind", [_blind_parents, _late_rest])
@pytest.mark.parametrize("design", ["HLFET", "MCP"])
def test_sanitizer_catches_a_blinded_bound(design, blind, monkeypatch):
    graph = rgnos_graph(40, 1.0, 3, seed=53)
    monkeypatch.setattr(StartOracle, "drt_split", blind)
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    with pytest.raises(SanitizeError, match="pruned min-EST scan"):
        get_scheduler(design).schedule(graph, Machine(4))
