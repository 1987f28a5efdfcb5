"""Node attributes used to assign scheduling priorities.

Section 3 of the paper defines the attributes most DAG scheduling
heuristics are built from:

* **t-level** (top level) of ``n``: length of the longest path from an
  entry node to ``n``, *excluding* ``w(n)``; path length sums node and
  edge weights.  Correlates with the earliest possible start time.
* **b-level** (bottom level) of ``n``: length of the longest path from
  ``n`` to an exit node, *including* ``w(n)``.
* **static level** (SL): b-level computed without edge weights
  (computation costs only).  Used by HLFET, DLS and MH.
* **ALAP** (as-late-as-possible start time): ``CP - blevel(n)`` where
  ``CP`` is the critical-path length.  Used by MCP and MD.
* **critical path** (CP): a path from an entry to an exit node whose
  length (nodes + edges) is maximal.

All functions return plain lists indexed by node.  Every one of them
is computed by the two level-batched sweeps of :mod:`repro.core.kernel`
(one forward, one backward).  The graph is immutable, so the static
variants (no ``zeroed`` set) are computed once per graph and cached on
it; repeated calls return a fresh list copy of the cached values in
O(v).  The ``zeroed`` variants — dynamic attributes during clustering,
where the named edges cost nothing — run the same sweeps with those
edges masked and bypass the cache.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from . import kernel
from .graph import TaskGraph

__all__ = [
    "tlevel",
    "blevel",
    "static_blevel",
    "static_tlevel",
    "alap",
    "critical_path",
    "cp_length",
    "cp_computation_cost",
    "priority_blevel_plus_tlevel",
]


def tlevel(graph: TaskGraph, zeroed: Optional[Set[Tuple[int, int]]] = None
           ) -> List[float]:
    """Top levels of all nodes.

    ``zeroed`` optionally names edges whose communication cost should be
    treated as zero (the two endpoints are clustered on one processor);
    this is what makes the t-level a *dynamic* attribute during
    clustering.
    """
    if zeroed:
        return kernel.forward_sweep(graph, zero=zeroed).tolist()
    return graph.cached("tlevel", kernel.tlevel_sweep).tolist()


def blevel(graph: TaskGraph, zeroed: Optional[Set[Tuple[int, int]]] = None
           ) -> List[float]:
    """Bottom levels of all nodes (edge weights included)."""
    if zeroed:
        return kernel.backward_sweep(graph, zero=zeroed).tolist()
    return graph.cached("blevel", kernel.blevel_sweep).tolist()


def static_blevel(graph: TaskGraph) -> List[float]:
    """Static levels: longest computation-only path from node to an exit.

    This is the classic *SL* attribute of HLFET and DLS — edge weights are
    ignored entirely, so the value never changes during scheduling.
    """
    return graph.cached("static_blevel", kernel.static_blevel_sweep).tolist()


def static_tlevel(graph: TaskGraph) -> List[float]:
    """Computation-only top levels (no edge weights)."""
    return graph.cached("static_tlevel", kernel.static_tlevel_sweep).tolist()


def cp_length(graph: TaskGraph) -> float:
    """Critical-path length including node and edge weights."""
    return float(graph.cached("blevel", kernel.blevel_sweep).max())


def alap(graph: TaskGraph) -> List[float]:
    """As-late-as-possible start times: ``CP - blevel``.

    Smaller ALAP means less scheduling slack; MCP schedules in ascending
    ALAP order.
    """
    b = graph.cached("blevel", kernel.blevel_sweep)
    cp = b.max()
    return [float(cp - bi) for bi in b]


def critical_path(graph: TaskGraph) -> List[int]:
    """One critical path as an entry→exit node list.

    Ties are broken toward the smallest node id so the result is
    deterministic.
    """
    return list(graph.cached("critical_path", _critical_path))


def _critical_path(graph: TaskGraph) -> Tuple[int, ...]:
    b = blevel(graph)
    t = tlevel(graph)
    cp = max(b)
    # Entry node on the CP: tlevel == 0 and blevel == CP.  t-levels are
    # non-negative and exactly 0.0 only for entry nodes, but compare via
    # epsilon so the intent survives any future kernel reordering.
    start = min(
        (n for n in graph.nodes() if t[n] < 1e-9 and abs(b[n] - cp) < 1e-9),
        default=None,
    )
    if start is None:  # numerical fallback: take the max-blevel entry node
        start = max(graph.entry_nodes, key=lambda n: (b[n], -n))
    path = [start]
    cur = start
    while graph.successors(cur):
        nxt = None
        for s in graph.successors(cur):
            need = b[cur] - graph.weight(cur) - graph.comm_cost(cur, s)
            if abs(b[s] - need) < 1e-9:
                nxt = s
                break
        if nxt is None:
            # Round-off: fall back to the successor maximising b + c.
            nxt = max(
                graph.successors(cur),
                key=lambda s: (b[s] + graph.comm_cost(cur, s), -s),
            )
        path.append(nxt)
        cur = nxt
    return tuple(path)


def cp_computation_cost(graph: TaskGraph) -> float:
    """Sum of computation costs along a maximum-computation path.

    This is the denominator of the paper's *normalized schedule length*
    (Section 6): the NSL of a schedule of length ``L`` is
    ``L / sum(w(n) for n on CP)``.  Following the lower-bound reading of
    the definition, we take the path that maximises the *computation*
    sum — on a clean system the schedule can never finish faster than
    executing those nodes back to back.  Equals the maximum static
    b-level (same recurrence), so it shares that cache entry.
    """
    return float(
        graph.cached("static_blevel", kernel.static_blevel_sweep).max())


def priority_blevel_plus_tlevel(graph: TaskGraph) -> List[float]:
    """DSC's dominant-sequence priority: ``blevel + tlevel`` per node."""
    b = graph.cached("blevel", kernel.blevel_sweep)
    t = graph.cached("tlevel", kernel.tlevel_sweep)
    return [float(bi + ti) for bi, ti in zip(b, t)]
