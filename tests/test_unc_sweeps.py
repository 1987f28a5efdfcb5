"""Differential proof: MD, DCP and the Sarkar users on the one kernel.

MD and DCP used to recompute their dynamic levels with their own
per-edge Python loops (``MD._tlevels`` with the kernel's scalar
``blevel_zeroed``; ``DCP._aest``/``DCP._alst`` through a per-edge
``comm`` closure), ``attributes.tlevel``/``blevel(zeroed=)`` ran the
kernel's scalar ``tlevel_zeroed``/``blevel_zeroed``, and
``schedule_from_mapping`` repeated ``mapping_makespan``'s heap loop with
a :class:`Schedule`.  All of them now run on the kernel's one forward
and one backward level sweep (:mod:`repro.core.kernel`) or on one flat
Sarkar timing loop (:mod:`repro.algorithms.mapping`).  The pre-change
code is kept below verbatim as the reference, and production must
reproduce it exactly:

1. the sweeps on random DAGs (Hypothesis) under random partial states:
   processor labels, float pins below and above the unpinned level,
   and random edge sets for ``zeroed=``;
2. MD and DCP schedules against the pre-change schedulers, and EZ, LC
   and ``cluster_schedule`` (Sarkar and RCP) with the pre-change
   ``mapping_makespan``/``schedule_from_mapping`` patched in, on RGNOS
   graphs of 100 and 200 nodes (EZ on 100 only: one 200-node EZ run
   takes seconds, and the Sarkar assignment already drives the trial
   loop at 200).

ALST is computed as the negated backward max sweep; the Hypothesis case
is what shows that negation keeps it bit-exact.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import get_scheduler
from repro.algorithms.base import Scheduler
from repro.algorithms.cs import assignment
from repro.algorithms.cs.assignment import cluster_schedule
from repro.algorithms.mapping import simulate_fixed_sequences
from repro.algorithms.unc import ez, lc
from repro.algorithms.unc.dcp import DCP
from repro.core.attributes import blevel, static_blevel, static_tlevel, tlevel
from repro.core.exceptions import ScheduleError
from repro.core.graph import TaskGraph
from repro.core.kernel import backward_sweep, forward_sweep
from repro.core.machine import Machine
from repro.core.schedule import Schedule
from repro.generators.random_graphs import rgnos_graph
from strategies import task_graphs

_EPS = 1e-9


# ----------------------------------------------------------------------
# the references, verbatim from before the change
# ----------------------------------------------------------------------
def tlevel_zeroed(graph: TaskGraph, zeroed: Set[Tuple[int, int]]) -> List[float]:
    """Scalar t-level sweep honouring a set of zero-cost edges."""
    t = [0.0] * graph.num_nodes
    w = graph.weights
    for u in graph.topological_order:
        best = 0.0
        preds, costs = graph.pred_pairs(u)
        for p, c in zip(preds, costs):
            if (p, u) in zeroed:
                c = 0.0
            cand = t[p] + w[p] + c
            if cand > best:
                best = cand
        t[u] = best
    return t


def blevel_zeroed(graph: TaskGraph, zeroed: Set[Tuple[int, int]]) -> List[float]:
    """Scalar b-level sweep honouring a set of zero-cost edges."""
    b = [0.0] * graph.num_nodes
    w = graph.weights
    for u in reversed(graph.topological_order):
        best = 0.0
        succs, costs = graph.succ_pairs(u)
        for s, c in zip(succs, costs):
            if (u, s) in zeroed:
                c = 0.0
            cand = b[s] + c
            if cand > best:
                best = cand
        b[u] = best + w[u]
    return b


def mapping_makespan(graph: TaskGraph, proc_of: Sequence[int],
                     priority: Optional[Sequence[float]] = None) -> float:
    """Makespan of list-simulating ``graph`` under a fixed mapping.

    Sarkar's execution model: every processor runs its tasks serially;
    among ready tasks the one with the highest ``priority`` (default:
    static b-level) starts next on its assigned processor, at
    ``max(processor available, data ready)``.  Communication inside a
    processor is free.  This is the estimator EZ minimises while zeroing
    edges.
    """
    if priority is None:
        priority = blevel(graph)
    n = graph.num_nodes
    remaining = [graph.in_degree(i) for i in range(n)]
    finish = [0.0] * n
    proc_free: Dict[int, float] = {}
    heap = [(-priority[i], i) for i in range(n) if remaining[i] == 0]
    heapq.heapify(heap)
    makespan = 0.0
    weights = graph.weights
    while heap:
        _, node = heapq.heappop(heap)
        p = proc_of[node]
        drt = 0.0
        parents, costs = graph.pred_pairs(node)
        for parent, c in zip(parents, costs):
            arr = finish[parent]
            if proc_of[parent] != p:
                arr += c
            if arr > drt:
                drt = arr
        start = max(proc_free.get(p, 0.0), drt)
        end = start + float(weights[node])
        finish[node] = end
        proc_free[p] = end
        if end > makespan:
            makespan = end
        for child in graph.successors(node):
            remaining[child] -= 1
            if remaining[child] == 0:
                heapq.heappush(heap, (-priority[child], child))
    return makespan


def schedule_from_mapping(graph: TaskGraph, proc_of: Sequence[int],
                          num_procs: int,
                          priority: Optional[Sequence[float]] = None
                          ) -> Schedule:
    """Full :class:`Schedule` version of :func:`mapping_makespan`.

    ``proc_of`` may use arbitrary processor labels; they are compacted
    onto ``0..k-1`` in first-use order (so cluster counts equal
    processors used).
    """
    if priority is None:
        priority = blevel(graph)
    compact: Dict[int, int] = {}
    for node in sorted(graph.nodes(), key=lambda i: (priority[i], -i), reverse=True):
        compact.setdefault(proc_of[node], len(compact))
    if len(compact) > num_procs:
        raise ScheduleError(
            f"mapping uses {len(compact)} processors but machine has {num_procs}"
        )
    n = graph.num_nodes
    remaining = [graph.in_degree(i) for i in range(n)]
    schedule = Schedule(graph, num_procs)
    heap = [(-priority[i], i) for i in range(n) if remaining[i] == 0]
    heapq.heapify(heap)
    while heap:
        _, node = heapq.heappop(heap)
        p = compact[proc_of[node]]
        drt = schedule.data_ready_time(node, p)
        start = max(schedule.proc_ready_time(p), drt)
        schedule.place(node, p, start)
        for child in graph.successors(node):
            remaining[child] -= 1
            if remaining[child] == 0:
                heapq.heappush(heap, (-priority[child], child))
    return schedule


class RefMD(Scheduler):
    name = "MD"
    klass = "UNC"
    cp_based = True
    dynamic_priority = True
    uses_insertion = True
    complexity = "O(v^3)"

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        n = graph.num_nodes
        zeroed: Set[Tuple[int, int]] = set()
        pinned: Dict[int, float] = {}
        proc_of: Dict[int, int] = {}
        # Per processor: parallel sorted lists of (start, finish, node).
        proc_starts: List[List[float]] = []
        proc_finishes: List[List[float]] = []
        proc_nodes: List[List[int]] = []

        for _step in range(n):
            t = self._tlevels(graph, zeroed, pinned)
            b = self._blevels(graph, zeroed)
            cp = max(t[i] + b[i] for i in range(n))
            # Min relative mobility; ties toward smaller t-level then id.
            node = min(
                (i for i in range(n) if i not in pinned),
                key=lambda i: ((cp - (t[i] + b[i])) / graph.weight(i), t[i], i),
            )
            alst = cp - b[node]  # latest start not stretching the CP
            choice = None
            for p in range(len(proc_starts)):
                est = self._est_on(graph, node, p, t, pinned, proc_of)
                slot = self._find_slot(proc_starts[p], proc_finishes[p], est,
                                       graph.weight(node))
                if slot <= alst + _EPS:
                    choice = (p, slot)
                    break
            if choice is None:
                # Fresh processor: the node starts at its dynamic t-level,
                # which by definition of cp satisfies the mobility window.
                proc_starts.append([])
                proc_finishes.append([])
                proc_nodes.append([])
                choice = (len(proc_starts) - 1, t[node])
            p, start = choice
            for resident in proc_nodes[p]:
                if graph.has_edge(node, resident):
                    zeroed.add((node, resident))
                if graph.has_edge(resident, node):
                    zeroed.add((resident, node))
            i = bisect.bisect_left(proc_starts[p], start)
            proc_starts[p].insert(i, start)
            proc_finishes[p].insert(i, start + graph.weight(node))
            proc_nodes[p].insert(i, node)
            pinned[node] = start
            proc_of[node] = p

        sequences = [list(nodes) for nodes in proc_nodes]
        return simulate_fixed_sequences(graph, sequences, machine.num_procs)

    # ------------------------------------------------------------------
    @staticmethod
    def _tlevels(graph: TaskGraph, zeroed, pinned) -> List[float]:
        t = [0.0] * graph.num_nodes
        w = graph.weights
        for u in graph.topological_order:
            best = 0.0
            preds, costs = graph.pred_pairs(u)
            for p, c in zip(preds, costs):
                if (p, u) in zeroed:
                    c = 0.0
                cand = t[p] + w[p] + c
                if cand > best:
                    best = cand
            pin = pinned.get(u)
            if pin is not None and pin > best:
                best = pin
            t[u] = best
        return t

    @staticmethod
    def _blevels(graph: TaskGraph, zeroed) -> List[float]:
        # Unlike _tlevels (which folds in the pinned start times), the
        # b-level needs nothing MD-specific: it is exactly the kernel's
        # zeroed-edge sweep.
        return blevel_zeroed(graph, zeroed)

    @staticmethod
    def _est_on(graph: TaskGraph, node: int, proc: int, t, pinned,
                proc_of) -> float:
        """Earliest data-constrained start of ``node`` on ``proc``.

        Edges from parents already resident on ``proc`` are treated as
        zeroed; unscheduled parents contribute their dynamic t-level.
        """
        est = 0.0
        for p in graph.predecessors(node):
            if p in pinned:
                arr = pinned[p] + graph.weight(p)
                if proc_of[p] != proc:
                    arr += graph.comm_cost(p, node)
            else:
                arr = t[p] + graph.weight(p) + graph.comm_cost(p, node)
            if arr > est:
                est = arr
        return est

    @staticmethod
    def _find_slot(starts: List[float], finishes: List[float], est: float,
                   duration: float) -> float:
        """Earliest insertion slot >= est among pinned intervals."""
        if not starts:
            return est
        if est + duration <= starts[0] + _EPS:
            return est
        i = bisect.bisect_right(finishes, est)
        if i > 0:
            i -= 1
        for k in range(i, len(starts) - 1):
            gap = max(est, finishes[k])
            if gap + duration <= starts[k + 1] + _EPS:
                return gap
        return max(est, finishes[-1])


class RefDCP(Scheduler):
    name = "DCP"
    klass = "UNC"
    cp_based = True
    dynamic_priority = True
    uses_insertion = True
    complexity = "O(v^3)"

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        n = graph.num_nodes
        pinned: Dict[int, float] = {}
        proc_of: Dict[int, int] = {}
        proc_starts: List[List[float]] = []
        proc_finishes: List[List[float]] = []
        proc_nodes: List[List[int]] = []

        def comm(u: int, v: int) -> float:
            """Edge cost under the current partial assignment."""
            if u in proc_of and v in proc_of and proc_of[u] == proc_of[v]:
                return 0.0
            return graph.comm_cost(u, v)

        for _step in range(n):
            aest = self._aest(graph, pinned, comm)
            alst = self._alst(graph, pinned, comm, aest)
            node = min(
                (i for i in range(n) if i not in pinned),
                key=lambda i: (alst[i] - aest[i], alst[i], i),
            )
            candidates = sorted(
                {proc_of[x] for x in graph.predecessors(node) if x in proc_of}
                | {proc_of[x] for x in graph.successors(node) if x in proc_of}
            )
            if len(proc_starts) < n:
                candidates.append(len(proc_starts))  # one fresh processor
            if not candidates:
                candidates = [len(proc_starts)]
            cc = self._critical_child(graph, node, pinned, alst)
            best: Optional[Tuple[float, float, int, float]] = None
            for p in candidates:
                fresh = p == len(proc_starts)
                starts = [] if fresh else proc_starts[p]
                fins = [] if fresh else proc_finishes[p]
                est = self._est_on(graph, node, p, aest, pinned, proc_of)
                slot = _find_slot(starts, fins, est, graph.weight(node))
                if cc is not None:
                    slot_cc = self._lookahead(graph, cc, node, slot, p, aest,
                                              pinned, proc_of, starts, fins)
                    score = slot + slot_cc
                else:
                    score = slot
                key = (score, slot, p, slot)
                if best is None or key[:3] < (best[0], best[1], best[2]):
                    best = (score, slot, p, slot)
            _, _, p, start = best
            if p == len(proc_starts):
                proc_starts.append([])
                proc_finishes.append([])
                proc_nodes.append([])
            i = bisect.bisect_left(proc_starts[p], start)
            proc_starts[p].insert(i, start)
            proc_finishes[p].insert(i, start + graph.weight(node))
            proc_nodes[p].insert(i, node)
            pinned[node] = start
            proc_of[node] = p

        sequences = [list(nodes) for nodes in proc_nodes]
        return simulate_fixed_sequences(graph, sequences, machine.num_procs)

    # ------------------------------------------------------------------
    @staticmethod
    def _aest(graph: TaskGraph, pinned, comm) -> List[float]:
        """Absolute earliest start times on the partially scheduled graph.

        Scheduled nodes sit at their pinned start (floored up if a parent
        placement has since pushed their inputs later — the final timing
        pass resolves such tentative inconsistencies).
        """
        a = [0.0] * graph.num_nodes
        for u in graph.topological_order:
            best = 0.0
            for p in graph.predecessors(u):
                cand = a[p] + graph.weight(p) + comm(p, u)
                if cand > best:
                    best = cand
            pin = pinned.get(u)
            if pin is not None and pin > best:
                best = pin
            a[u] = best
        return a

    @staticmethod
    def _alst(graph: TaskGraph, pinned, comm, aest) -> List[float]:
        """Absolute latest start times w.r.t. the dynamic CP length."""
        dcpl = max(aest[i] + graph.weight(i) for i in graph.nodes())
        al = [0.0] * graph.num_nodes
        for u in reversed(graph.topological_order):
            pin = pinned.get(u)
            if pin is not None:
                al[u] = pin
                continue
            best = dcpl - graph.weight(u)
            for s in graph.successors(u):
                cand = al[s] - comm(u, s) - graph.weight(u)
                if cand < best:
                    best = cand
            al[u] = best
        return al

    @staticmethod
    def _critical_child(graph: TaskGraph, node: int, pinned,
                        alst) -> Optional[int]:
        """Unscheduled child with the smallest ALST (ties: smaller id)."""
        cands = [s for s in graph.successors(node) if s not in pinned]
        if not cands:
            return None
        return min(cands, key=lambda s: (alst[s], s))

    @staticmethod
    def _est_on(graph: TaskGraph, node: int, proc: int, aest, pinned,
                proc_of) -> float:
        est = 0.0
        for p in graph.predecessors(node):
            arr = aest[p] + graph.weight(p)
            if not (p in proc_of and proc_of[p] == proc):
                arr += graph.comm_cost(p, node)
            if arr > est:
                est = arr
        return est

    @staticmethod
    def _lookahead(graph: TaskGraph, cc: int, node: int, node_slot: float,
                   proc: int, aest, pinned, proc_of, starts, fins) -> float:
        """Start the critical child would get on ``proc`` next to ``node``."""
        est = 0.0
        for q in graph.predecessors(cc):
            if q == node:
                arr = node_slot + graph.weight(node)  # co-located, comm-free
            else:
                arr = aest[q] + graph.weight(q)
                if not (q in proc_of and proc_of[q] == proc):
                    arr += graph.comm_cost(q, cc)
            if arr > est:
                est = arr
        # Search the processor's gaps with the node tentatively inserted.
        i = bisect.bisect_left(starts, node_slot)
        t_starts = starts[:i] + [node_slot] + starts[i:]
        t_fins = fins[:i] + [node_slot + graph.weight(node)] + fins[i:]
        return _find_slot(t_starts, t_fins, est, graph.weight(cc))


def _find_slot(starts: List[float], finishes: List[float], est: float,
               duration: float) -> float:
    """Earliest insertion slot >= est among sorted busy intervals."""
    if not starts:
        return est
    if est + duration <= starts[0] + _EPS:
        return est
    i = bisect.bisect_right(finishes, est)
    if i > 0:
        i -= 1
    for k in range(i, len(starts) - 1):
        gap = max(est, finishes[k])
        if gap + duration <= starts[k + 1] + _EPS:
            return gap
    return max(est, finishes[-1])


# ----------------------------------------------------------------------
# 1. the sweeps, on random partial states
# ----------------------------------------------------------------------
@st.composite
def partial_states(draw):
    """A graph, a processor label per node (-1: unplaced) and float pins.

    Each placed node gets a pin drawn around its unpinned level, so some
    pins sit below it (the level wins) and some above (the pin wins).
    """
    graph = draw(task_graphs(max_nodes=16))
    n = graph.num_nodes
    label = [draw(st.integers(-1, 3)) for _ in range(n)]
    zeroed = {(u, v) for u, v, _c in graph.edges()
              if label[u] >= 0 and label[u] == label[v]}
    level = tlevel_zeroed(graph, zeroed)
    pinned = {i: draw(st.floats(0.0, 2.0)) * (level[i] + 1.0)
              for i in range(n) if label[i] >= 0}
    return graph, label, zeroed, pinned


def _arrays(graph: TaskGraph, label: List[int], pinned: Dict[int, float]):
    """MD's and DCP's state: an int64 label array and a pin array."""
    pin = np.zeros(graph.num_nodes)
    for i, start in pinned.items():
        pin[i] = start
    return np.array(label, dtype=np.int64), pin


@settings(max_examples=150, deadline=None)
@given(partial_states())
def test_md_levels_match_reference(state):
    graph, label, zeroed, pinned = state
    proc_of, pin = _arrays(graph, label, pinned)
    assert (forward_sweep(graph, zero=proc_of, floor=pin).tolist()
            == RefMD._tlevels(graph, zeroed, pinned))
    assert (backward_sweep(graph, zero=proc_of).tolist()
            == RefMD._blevels(graph, zeroed))


@settings(max_examples=150, deadline=None)
@given(partial_states())
def test_dcp_start_bounds_match_reference(state):
    graph, label, _zeroed, pinned = state
    proc_of, pin = _arrays(graph, label, pinned)

    def comm(u: int, v: int) -> float:
        if label[u] >= 0 and label[u] == label[v]:
            return 0.0
        return graph.comm_cost(u, v)

    aest = RefDCP._aest(graph, pinned, comm)
    alst = RefDCP._alst(graph, pinned, comm, aest)
    assert DCP._start_bounds(graph, proc_of, pin) == (aest, alst)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_zeroed_attributes_match_reference(data):
    graph = data.draw(task_graphs(max_nodes=16))
    edges = [(u, v) for u, v, _c in graph.edges()]
    zeroed = {e for e in edges if data.draw(st.booleans())}
    assert tlevel(graph, zeroed=zeroed) == tlevel_zeroed(graph, zeroed)
    assert blevel(graph, zeroed=zeroed) == blevel_zeroed(graph, zeroed)
    # Every edge zeroed is the computation-only pair.
    assert static_tlevel(graph) == tlevel_zeroed(graph, set(edges))
    assert static_blevel(graph) == blevel_zeroed(graph, set(edges))


# ----------------------------------------------------------------------
# 2. whole schedules on RGNOS graphs
# ----------------------------------------------------------------------
GRAPHS = [(v, ccr, seed) for v in (100, 200) for ccr in (0.1, 1.0, 10.0)
          for seed in (53, 97)]


def _graph(v: int, ccr: float, seed: int) -> TaskGraph:
    return rgnos_graph(v, ccr, 3, seed=seed)


@pytest.mark.parametrize("v,ccr,seed", GRAPHS)
@pytest.mark.parametrize("algo,reference", [("MD", RefMD), ("DCP", RefDCP)])
def test_md_dcp_match_reference(algo, reference, v, ccr, seed):
    graph = _graph(v, ccr, seed)
    machine = Machine.unbounded(graph)
    want = reference().schedule(graph, machine).to_dict()
    assert get_scheduler(algo).schedule(graph, machine).to_dict() == want


def _sarkar_runs(graph: TaskGraph) -> Dict[str, dict]:
    machine = Machine.unbounded(graph)
    runs = {"LC": get_scheduler("LC").schedule(graph, machine).to_dict()}
    if graph.num_nodes <= 100:
        runs["EZ"] = get_scheduler("EZ").schedule(graph, machine).to_dict()
    for method in ("sarkar", "rcp"):
        runs[method] = cluster_schedule(graph, 4, "DSC", method).to_dict()
    return runs


@pytest.mark.parametrize("v,ccr,seed", GRAPHS)
def test_sarkar_users_match_reference(v, ccr, seed, monkeypatch):
    graph = _graph(v, ccr, seed)
    got = _sarkar_runs(graph)
    with monkeypatch.context() as patch:
        for module in (ez, assignment):
            patch.setattr(module, "mapping_makespan", mapping_makespan)
        for module in (ez, lc, assignment):
            patch.setattr(module, "schedule_from_mapping",
                          schedule_from_mapping)
        want = _sarkar_runs(graph)
    assert got == want

