"""Differential proof: the lazy pair-scan refresh keeps every pick.

Under slot search (``insert=on``) and on processor networks, the
coupled ETF/DLS scan (:mod:`repro.algorithms.components.selectors`)
used to re-probe every cell of every column whose processor's revision
moved before each pick.  It now marks those cells stale and keeps their
values: no start time decreases while a scan is live, so a kept start
is a lower bound, and a pick re-probes only the stale cells whose kept
lead is at or below the least one, until the least cell is fresh.
The reference here is the full refresh, the old re-probe of every moved
column, plugged into the same scan; the lazy scan must reproduce its
placements and messages exactly:

1. for every ``insert=off`` component spec on the 8-processor
   hypercube, where every booked message moves every column;
2. for clique slot search, ``etf``/``dls`` × ``insert=on`` under every
   priority rule, ``dnode`` included;
3. on random tie-heavy graphs (Hypothesis).

All graphs have small integer weights and costs, so starts and leads
tie often.  Also checked: the lazy scan probes fewer cells, a taken-back
placement or booking while a scan is live raises :class:`ScheduleError`,
and with ``REPRO_SANITIZE`` armed a kept cell above its probe is caught.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, NetworkMachine, TaskGraph, Topology, validate
from repro.algorithms.components import (PRIORITY_RULES, PROC_SELECTORS,
                                         READY_POLICIES, parse_spec)
from repro.algorithms.components.scheduler import run_component_loop
from repro.algorithms.components.selectors import _PairScan
from repro.check import SanitizeError, sanitize
from repro.core.exceptions import ScheduleError
from strategies import task_graphs


# ----------------------------------------------------------------------
# the reference: re-probe every moved column before each pick
# ----------------------------------------------------------------------
_lazy_invalidate = _PairScan._invalidate


def _full_refresh(self, cols):
    """The pre-lazy column refresh: moved columns are re-probed now."""
    if self._append:
        return _lazy_invalidate(self, cols)
    nodes = self._nodes.tolist()
    if cols and nodes:
        probes, starts = self._probes, self._starts
        moved = [self._procs[c] for c in cols]
        self._cells[:, cols] = [starts(node, *probes[node], moved)
                                for node in nodes]
    self._stale[:, cols] = False
    return None


def _tie_heavy_graph(n, seed):
    """A layered DAG with weights 1-2 and costs 0-2: many equal keys."""
    rng = np.random.default_rng(seed)
    layer = [int(x) for x in rng.integers(0, max(2, n // 5), n)]
    layer.sort()
    edges = {}
    for v in range(n):
        for u in range(v):
            if layer[u] < layer[v] and rng.random() < 0.25:
                edges[(u, v)] = float(rng.integers(0, 3))
    weights = [float(w) for w in rng.integers(1, 3, n)]
    return TaskGraph(weights, edges, name=f"ties-{n}-s{seed}")


def _snapshot(schedule):
    messages = [(key, msg.route, msg.hops, msg.arrival)
                for key, msg in schedule.messages.items()]
    return schedule.to_dict(), messages


def _run(spec, graph, machine, lazy, probes=None):
    """One component-loop run; ``probes`` collects the cells probed."""
    parts = parse_spec(spec).components()
    real = _PairScan._refresh, _PairScan._starts
    patches = {}
    if not lazy:
        patches["_invalidate"] = _full_refresh
    if probes is not None:
        def refresh(self, flat):
            probes.append(len(flat))
            return real[0](self, flat)

        def starts(self, node, drt, dur, procs):
            probes.append(len(procs))
            return real[1](self, node, drt, dur, procs)
        patches.update(_refresh=refresh, _starts=starts)
    saved = {name: getattr(_PairScan, name) for name in patches}
    try:
        for name, fn in patches.items():
            setattr(_PairScan, name, fn)
        return run_component_loop(parts, graph, machine)
    finally:
        for name, fn in saved.items():
            setattr(_PairScan, name, fn)


def _assert_same(spec, graph, machine):
    want = _run(spec, graph, machine, lazy=False)
    got = _run(spec, graph, machine, lazy=True)
    assert _snapshot(got) == _snapshot(want), (spec, graph.name)
    validate(got, network=getattr(machine, "topology", None))


GRAPHS = [_tie_heavy_graph(40, 53), _tie_heavy_graph(60, 97)]

# ----------------------------------------------------------------------
# 1. every insert=off spec on the hypercube
# ----------------------------------------------------------------------
OFF_SPECS = [f"param:prio={prio},ready={ready},proc={proc},insert=off"
             for prio in PRIORITY_RULES for ready in READY_POLICIES
             for proc in PROC_SELECTORS]


@pytest.mark.parametrize("spec", OFF_SPECS)
def test_insert_off_specs_on_the_hypercube(spec):
    for graph in GRAPHS:
        _assert_same(spec, graph, NetworkMachine(Topology.hypercube(3)))


# ----------------------------------------------------------------------
# 2. clique slot search
# ----------------------------------------------------------------------
SLOT_SPECS = [f"param:prio={prio},proc={proc},insert=on"
              for prio in PRIORITY_RULES for proc in ("etf", "dls")]


@pytest.mark.parametrize("spec", SLOT_SPECS)
def test_clique_slot_search(spec):
    for graph in GRAPHS:
        _assert_same(spec, graph, Machine(4))
        _assert_same(spec, graph, Machine(graph.num_nodes))


# ----------------------------------------------------------------------
# 3. random tie-heavy graphs
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(graph=task_graphs(max_nodes=18, max_weight=2, max_comm=2,
                         edge_prob=0.5),
       spec=st.sampled_from(SLOT_SPECS + [
           s for s in OFF_SPECS if "etf" in s or "dls" in s]),
       machine=st.sampled_from([
           Machine(3), NetworkMachine(Topology.hypercube(2)),
           NetworkMachine(Topology.star(4)),
           NetworkMachine(Topology.ring(5).with_bandwidth(2.0))]))
def test_random_tie_heavy_graphs(graph, spec, machine):
    if isinstance(machine, NetworkMachine) and "insert=on" in spec:
        machine = Machine(machine.num_procs)
    _assert_same(spec, graph, machine)


# ----------------------------------------------------------------------
# the lazy scan does less work
# ----------------------------------------------------------------------
def test_lazy_scan_probes_fewer_cells():
    graph = GRAPHS[1]
    machine = NetworkMachine(Topology.hypercube(3))
    lazy, full = [], []
    _run("param:prio=slevel,proc=dls,insert=off", graph, machine, True, lazy)
    _run("param:prio=slevel,proc=dls,insert=off", graph, machine, False,
         full)
    assert sum(lazy) < sum(full)


# ----------------------------------------------------------------------
# the monotonicity guard and the sanitizer oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("machine", [
    Machine(4), NetworkMachine(Topology.hypercube(2))])
def test_taking_a_placement_back_mid_scan_raises(machine, monkeypatch):
    spec = ("param:prio=slevel,proc=dls,insert=on"
            if not isinstance(machine, NetworkMachine)
            else "param:prio=slevel,proc=dls,insert=off")
    real = _PairScan.pick
    picks = []

    def pick(self, pool):
        picks.append(1)
        if len(picks) == 5:
            schedule = self._schedule
            placed = next(n for n in range(schedule.graph.num_nodes)
                          if schedule.is_scheduled(n))
            if isinstance(machine, NetworkMachine):
                msg = next(iter(schedule.messages.values()), None)
                if msg is not None and msg.hops:
                    self._oracle.links.release(msg)
                else:
                    schedule.unplace(placed)
            else:
                schedule.unplace(placed)
        return real(self, pool)

    monkeypatch.setattr(_PairScan, "pick", pick)
    with pytest.raises(ScheduleError, match="taken back"):
        run_component_loop(parse_spec(spec).components(), GRAPHS[0], machine)


@pytest.mark.parametrize("spec,machine", [
    ("param:prio=slevel,proc=dls,insert=off",
     NetworkMachine(Topology.hypercube(3))),
    ("param:prio=slevel,proc=etf,insert=on", Machine(4)),
])
def test_sanitizer_catches_a_kept_cell_above_its_probe(spec, machine,
                                                        monkeypatch):
    """A stale cell must bound its probe from below.

    Blinded, the scan raises the cells it marks stale above their
    probes, as a start time that moved earlier under a live scan would
    leave them.
    """
    graph = GRAPHS[0]
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    run_component_loop(parse_spec(spec).components(), graph, machine)

    def raised(self, cols):
        _lazy_invalidate(self, cols)
        self._cells[:, cols] += 1000.0

    monkeypatch.setattr(_PairScan, "_invalidate", raised)
    with pytest.raises(SanitizeError, match="must bound it"):
        run_component_loop(parse_spec(spec).components(), graph, machine)
