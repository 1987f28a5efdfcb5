"""Flat-array scheduling kernel: the shared inner loops, de-objectified.

Profiling the 1200-node scalability ladder shows every scheduler's cost
concentrated in three places:

1. **graph attribute sweeps** (t-level/b-level family) — longest-path
   recurrences over the DAG, previously dict-lookup-per-edge;
2. **data-ready times** — recomputed from scratch for *every* candidate
   processor, turning an O(deg) quantity into O(deg * procs) per
   decision (15M+ edge visits for one 1200-node HLFET run);
3. **best-ready selection** — a linear ``max`` over the ready set per
   step.

This module provides the flat-array replacements: one forward and one
backward level-batched numpy sweep over the graph's CSR adjacency, an
O(deg)-build/O(1)-query :class:`ArrivalProfile` for per-processor
data-ready times, and a lazy-deletion binary heap for ready-node
selection.  The two sweeps carry every t-level/b-level variant: the
static attributes, their computation-only forms, and the dynamic levels
MD and DCP recompute after each placement, where edges inside a cluster
cost nothing and placed nodes are pinned (a floor going forward, an
override going backward).  Everything here is *exactly*
semantics-preserving — the same floats out for the same floats in —
which ``tests/test_differential.py`` enforces schedule-for-schedule
against the golden corpus.
"""

from __future__ import annotations

import heapq
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..check import sanitize as _sanitize
from ..obs import metrics as _metrics
from .exceptions import ScheduleError
from .graph import TaskGraph

if TYPE_CHECKING:  # pragma: no cover
    from .schedule import Schedule

_Plan = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: Which edges a sweep treats as free: see :func:`_edge_costs`.
_Zero = Union[None, bool, np.ndarray, Set[Tuple[int, int]]]

__all__ = [
    "forward_sweep",
    "backward_sweep",
    "tlevel_sweep",
    "blevel_sweep",
    "static_blevel_sweep",
    "static_tlevel_sweep",
    "ArrivalProfile",
    "arrival_profile",
    "grouped_arrival_profile",
    "LazyPriorityQueue",
]


# ----------------------------------------------------------------------
# level-batched attribute sweeps
# ----------------------------------------------------------------------
# The t-level/b-level family are longest-path recurrences: inherently
# sequential along the precedence order, but *within* one precedence
# level every node is independent.  Grouping edges by the level of their
# sequential endpoint lets each level be one vectorised
# ``np.maximum.at`` scatter instead of a Python loop over edges.
#
# Exactness: every candidate value is ``t[src] + w[src] + cost``
# evaluated left-to-right in float64, identical to the scalar loop, and
# ``max`` over the same set of floats is order-independent — so these
# sweeps are bit-for-bit equal to the reference implementation.  A
# zeroed edge adds 0.0, which leaves a non-negative sum unchanged, so
# the computation-only and clustered variants need no loop of their own.


def _forward_plan(graph: TaskGraph) -> _Plan:
    """Succ-side edges sorted by the source's precedence level."""
    lv = graph.node_levels
    indptr, indices, costs = graph.succ_csr()
    n = graph.num_nodes
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    order = np.argsort(lv[src], kind="stable")
    src, dst, cost = src[order], indices[order], costs[order]
    bounds = np.searchsorted(lv[src], np.arange(int(lv.max()) + 2 if n else 1))
    _sanitize.freeze_arrays(src, dst, cost, bounds)
    return src, dst, cost, bounds


def _backward_plan(graph: TaskGraph) -> _Plan:
    """Pred-side edges sorted by the destination's precedence level."""
    lv = graph.node_levels
    indptr, indices, costs = graph.pred_csr()
    n = graph.num_nodes
    dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    order = np.argsort(lv[dst], kind="stable")
    dst, src, cost = dst[order], indices[order], costs[order]
    bounds = np.searchsorted(lv[dst], np.arange(int(lv.max()) + 2 if n else 1))
    _sanitize.freeze_arrays(src, dst, cost, bounds)
    return src, dst, cost, bounds


def _edge_costs(graph: TaskGraph, plan: _Plan, zero: _Zero) -> np.ndarray:
    """The plan's edge costs with the edges ``zero`` names set to 0.0.

    ``zero`` is ``None`` (no edge), ``True`` (every edge: the
    computation-only sweeps), a per-node int64 label array (an edge
    whose two ends carry one label ``>= 0``: the same cluster or
    processor; ``-1`` means unplaced) or a set of ``(u, v)`` edges.
    """
    src, dst, cost, _bounds = plan
    if zero is None:
        return cost
    if zero is True:
        return np.zeros_like(cost)
    if isinstance(zero, np.ndarray):
        label = zero[src]
        mask = (label >= 0) & (label == zero[dst])
    else:
        n = graph.num_nodes
        keys = np.fromiter((u * n + v for u, v in zero), np.int64, len(zero))
        mask = np.isin(src * n + dst, keys)
    return np.where(mask, 0.0, cost)


def forward_sweep(graph: TaskGraph, zero: _Zero = None,
                  floor: Optional[np.ndarray] = None) -> np.ndarray:
    """Top levels: ``t[v] = max(floor[v], t[u] + w[u] + c(u, v) over u->v)``.

    Edges named by ``zero`` (see :func:`_edge_costs`) cost nothing;
    ``floor`` (default 0) pins a node's level from below, as a placed
    node's start time does during clustering.
    """
    _metrics.incr("kernel.sweeps")
    plan = graph.cached("_fwd_plan", _forward_plan)
    src, dst, _cost, bounds = plan
    cost = _edge_costs(graph, plan, zero)
    w = graph.weights
    t = np.zeros(graph.num_nodes) if floor is None else floor.copy()
    for level in range(len(bounds) - 1):
        lo, hi = bounds[level], bounds[level + 1]
        if lo == hi:
            continue
        s, d = src[lo:hi], dst[lo:hi]
        np.maximum.at(t, d, t[s] + w[s] + cost[lo:hi])
    return t


def backward_sweep(graph: TaskGraph, zero: _Zero = None,
                   init: Optional[np.ndarray] = None,
                   fixed: Optional[np.ndarray] = None) -> np.ndarray:
    """Bottom levels: ``b[u] = max(init[u], b[v] + c(u, v) + w[u] over u->v)``.

    ``init`` defaults to the weights, which gives the b-level; nodes
    where the boolean ``fixed`` is set keep ``init`` as their value (an
    override, where the forward sweep's ``floor`` is a floor).  Edges
    named by ``zero`` cost nothing.
    """
    _metrics.incr("kernel.sweeps")
    plan = graph.cached("_bwd_plan", _backward_plan)
    src, dst, _cost, bounds = plan
    cost = _edge_costs(graph, plan, zero)
    if fixed is not None:
        # b[d] is finite, so an edge out of a fixed node offers it
        # -inf, which no maximum takes.
        cost = np.where(fixed[src], -np.inf, cost)
    w = graph.weights
    b = w.copy() if init is None else init.copy()
    for level in range(len(bounds) - 2, -1, -1):
        lo, hi = bounds[level], bounds[level + 1]
        if lo == hi:
            continue
        s, d = src[lo:hi], dst[lo:hi]
        # b[d] is final: every successor sits at a strictly higher level.
        np.maximum.at(b, s, b[d] + cost[lo:hi] + w[s])
    return b


def tlevel_sweep(graph: TaskGraph) -> np.ndarray:
    """Top levels (paths sum node + edge weights, excluding ``w(n)``)."""
    return forward_sweep(graph)


def blevel_sweep(graph: TaskGraph) -> np.ndarray:
    """Bottom levels (edge weights included)."""
    return backward_sweep(graph)


def static_blevel_sweep(graph: TaskGraph) -> np.ndarray:
    """Computation-only bottom levels (the classic *SL* attribute)."""
    return backward_sweep(graph, zero=True)


def static_tlevel_sweep(graph: TaskGraph) -> np.ndarray:
    """Computation-only top levels."""
    return forward_sweep(graph, zero=True)


# ----------------------------------------------------------------------
# per-processor data-ready times in O(1)
# ----------------------------------------------------------------------
class ArrivalProfile:
    """Answers ``max over parents of (local if grouped-with else remote)``.

    For a node with parents ``p`` each carrying a *group* (its processor
    or cluster), a local availability ``f(p)`` and a remote availability
    ``f(p) + c(p, n)``, the data-ready time on group ``g`` is::

        max( max_{group(p) == g} f(p),  max_{group(p) != g} f(p)+c )

    Tracking the best and second-best remote values *from distinct
    groups* plus a per-group local maximum makes the query O(1): the
    second-best steps in exactly when the best remote parent shares the
    queried group.  This is the classic trick that turns the
    O(deg * procs) EST scans of list scheduling into O(deg + procs).
    """

    __slots__ = ("r1", "g1", "r2", "local")

    def __init__(self, r1: float, g1: int, r2: float,
                 local: Dict[int, float]):
        self.r1 = r1
        self.g1 = g1
        self.r2 = r2
        self.local = local

    def drt(self, group: int) -> float:
        """Data-ready time of the node on ``group``."""
        remote = self.r1 if group != self.g1 else self.r2
        loc = self.local.get(group)
        if loc is not None and loc > remote:
            return loc
        return remote


def _build_profile(parents: Sequence[int], costs: Sequence[float],
                   group_of: Sequence[int],
                   finish_of: Sequence[float]) -> ArrivalProfile:
    r1 = r2 = 0.0
    g1 = -1
    local: Dict[int, float] = {}
    for p, c in zip(parents, costs):
        g = group_of[p]
        if g < 0:
            # Only Schedule mirrors use -1 (unscheduled); clustering
            # groups are always non-negative, so this is precisely the
            # data_ready_time contract violation.
            raise ScheduleError(f"node {p} is not scheduled")
        f = finish_of[p]
        prev = local.get(g)
        if prev is None or f > prev:
            local[g] = f
        rv = f + c
        if rv > r1:
            if g == g1:
                r1 = rv
            else:
                r2 = r1
                r1 = rv
                g1 = g
        elif rv > r2 and g != g1:
            r2 = rv
    return ArrivalProfile(r1, g1, r2, local)


def arrival_profile(schedule: "Schedule", node: int) -> ArrivalProfile:
    """Profile of ``node``'s data-ready times over processors.

    Requires every parent to be scheduled (same contract as
    ``Schedule.data_ready_time``).  The kernel is the one sanctioned
    consumer of the schedule's private flat mirrors.
    """
    parents, costs = schedule.graph.pred_pairs(node)
    _metrics.incr("kernel.profiles")
    profile = _build_profile(parents, costs, schedule._node_proc,
                             schedule._node_finish)
    if _sanitize.enabled():
        # Cross-check the O(1) profile against the scalar oracle on
        # every processor a parent occupies (plus one empty one): any
        # disagreement means the profile trick or the flat mirrors
        # drifted from the data-ready definition.
        groups = {schedule._node_proc[p] for p in parents}
        groups.add(-1 if not groups else max(groups) + 1)
        for g in groups:
            got = profile.drt(g)
            want = schedule.data_ready_time(node, g)
            _sanitize.require(
                abs(got - want) <= 1e-9,
                f"arrival profile for node {node} answers {got!r} on "
                f"group {g} but the data-ready oracle says {want!r}")
    return profile


def grouped_arrival_profile(graph: TaskGraph, node: int, group_of: Sequence[int],
                            finish_of: Sequence[float]) -> ArrivalProfile:
    """Profile under an arbitrary grouping (clustering algorithms)."""
    parents, costs = graph.pred_pairs(node)
    _metrics.incr("kernel.profiles")
    return _build_profile(parents, costs, group_of, finish_of)


# ----------------------------------------------------------------------
# heap-based best-ready selection
# ----------------------------------------------------------------------
class LazyPriorityQueue:
    """Binary min-heap with lazy invalidation for ready-node selection.

    ``key`` maps a node to its current sort key (smallest pops first —
    negate for "highest priority first").  Entries are never removed in
    place; :meth:`pop_best` discards entries that are no longer valid: a
    node that stopped satisfying ``alive`` (it was scheduled) or whose
    stored key no longer matches its current key (its priority moved —
    push it again whenever that happens, as LAST does when its D_NODE
    fractions grow).

    Provided every key change is accompanied by a fresh :meth:`push`,
    :meth:`pop_best` returns exactly ``min(ready, key=key)`` — the heap
    top is either current or strictly staler than some other entry for
    the same node.
    """

    __slots__ = ("_key", "_alive", "_heap")

    def __init__(self, key: Callable[[int], Tuple],
                 alive: Callable[[int], bool],
                 initial: Optional[Sequence[int]] = None):
        self._key = key
        self._alive = alive
        self._heap: List[Tuple[Tuple, int]] = (
            [(key(n), n) for n in initial] if initial else []
        )
        heapq.heapify(self._heap)

    def push(self, node: int) -> None:
        heapq.heappush(self._heap, (self._key(node), node))

    def pop_best(self) -> int:
        heap = self._heap
        while heap:
            key, node = heapq.heappop(heap)
            if self._alive(node) and key == self._key(node):
                _metrics.incr("sched.heap_pops")
                return node
        raise IndexError("pop from an empty ready queue")
