"""Priority rules: the node-ordering axis of the component space.

A :class:`PriorityRule` is a stateless description of *how to rank
nodes*; calling :meth:`PriorityRule.start` on a graph returns a
:class:`PriorityState` holding the per-run data.  The state exposes two
views of the same ranking:

``key(node)``
    An ascending heap tuple — the best node has the *smallest* key.
    This is what ready pools and the ISH-style hole filler sort by,
    and every key ends with the node id so ordering is total and
    deterministic.
``value(node)``
    The larger-is-better scalar behind the key.  Coupled processor
    selectors consume this directly: ETF breaks EST ties toward the
    largest value, DLS maximises ``value - EST``.

Static rules precompute one array per run.  Dynamic rules (``dnode``)
additionally receive :meth:`PriorityState.on_scheduled` after every
placement; the LAST invariant — a node's D_NODE is frozen the moment it
becomes ready, because its parents are all placed and its children
cannot be placed before it — is what keeps lazily-heaped keys current,
so new dynamic rules must preserve an equivalent property.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ...core.attributes import (
    alap,
    blevel,
    priority_blevel_plus_tlevel,
    static_blevel,
    tlevel,
)
from ...core.graph import TaskGraph

__all__ = ["PriorityRule", "PriorityState", "PRIORITY_RULES"]


class PriorityState:
    """Per-run ranking state produced by :meth:`PriorityRule.start`."""

    def key(self, node: int) -> Tuple:
        """Ascending heap key; the best node compares smallest."""
        raise NotImplementedError

    def value(self, node: int) -> float:
        """Larger-is-better priority scalar (feeds ETF/DLS selectors)."""
        raise NotImplementedError

    def values(self, nodes: np.ndarray) -> np.ndarray:
        """:meth:`value` of each of ``nodes``, as a float64 array."""
        value = self.value
        return np.array([value(node) for node in nodes.tolist()],
                        dtype=np.float64)

    def on_scheduled(self, node: int) -> None:
        """Hook called once per placement; static rules ignore it."""


class _StaticState(PriorityState):
    """Ranking frozen at start-up: one float per node, larger first."""

    __slots__ = ("_value", "_array")

    def __init__(self, values: List[float]):
        self._value = values
        self._array = np.asarray(values, dtype=np.float64)

    def key(self, node: int) -> Tuple[float, int]:
        return (-self._value[node], node)

    def value(self, node: int) -> float:
        return self._value[node]

    def values(self, nodes: np.ndarray) -> np.ndarray:
        return self._array[nodes]


class _DnodeState(PriorityState):
    """LAST's D_NODE: settled fraction of a node's incident edge weight.

    Baxter & Patel allocate next the ready node most strongly coupled
    to the scheduled region, to localise communication.  A node without
    incident edges counts as fully localised (``1.0``); the static
    level breaks ties inside :meth:`key`.
    """

    __slots__ = ("_graph", "_sl", "_incident", "_settled")

    def __init__(self, graph: TaskGraph):
        self._graph = graph
        self._sl = static_blevel(graph)
        incident = [0.0] * graph.num_nodes
        for u, v, c in graph.edges():
            incident[u] += c
            incident[v] += c
        self._incident = incident
        self._settled = [0.0] * graph.num_nodes

    def _d(self, node: int) -> float:
        if self._incident[node] <= 0:
            return 1.0  # isolated w.r.t. communication: fully localised
        return self._settled[node] / self._incident[node]

    def key(self, node: int) -> Tuple[float, float, int]:
        return (-self._d(node), -self._sl[node], node)

    def value(self, node: int) -> float:
        return self._d(node)

    def on_scheduled(self, node: int) -> None:
        succs, succ_costs = self._graph.succ_pairs(node)
        for s, c in zip(succs, succ_costs):
            self._settled[s] += c
        preds, pred_costs = self._graph.pred_pairs(node)
        for p, c in zip(preds, pred_costs):
            self._settled[p] += c


class PriorityRule:
    """One value of the ``prio=`` axis.

    ``cp_based``/``dynamic`` feed the taxonomy flags a composed
    :class:`~repro.algorithms.components.scheduler.ParamScheduler`
    reports, so synthesized schedulers land in the right rows of the
    paper's analysis tables.
    """

    __slots__ = ("key", "summary", "cp_based", "dynamic", "_factory")

    def __init__(self, key: str, summary: str, cp_based: bool,
                 dynamic: bool,
                 factory: Callable[[TaskGraph], PriorityState]):
        self.key = key
        self.summary = summary
        self.cp_based = cp_based
        self.dynamic = dynamic
        self._factory = factory

    def start(self, graph: TaskGraph) -> PriorityState:
        """Per-run ranking state for ``graph``."""
        return self._factory(graph)


def _descendant_alap_lists(graph: TaskGraph,
                           al: List[float]) -> List[List[float]]:
    """For each node: ascending ALAPs of the node and all its descendants.

    Descendant sets are kept as packed bitsets (one row of bits per
    node) so the transitive closure is v*e/8 bytes of vectorised ORs
    instead of Python set unions — the dominant cost of MCP on large
    graphs.
    """
    n = graph.num_nodes
    al_arr = np.asarray(al, dtype=np.float64)
    words = (n + 7) // 8
    desc = np.zeros((n, words), dtype=np.uint8)
    for u in reversed(graph.topological_order):
        row = desc[u]
        for s in graph.successors(u):
            row |= desc[s]
            row[s >> 3] |= 128 >> (s & 7)
    lists: List[List[float]] = []
    for u in graph.nodes():
        ids = np.flatnonzero(np.unpackbits(desc[u], count=n))
        vals = np.empty(ids.size + 1)
        vals[0] = al_arr[u]
        vals[1:] = al_arr[ids]
        vals.sort()
        lists.append(vals.tolist())
    return lists


def _alaplist_state(graph: TaskGraph) -> PriorityState:
    # MCP's full ordering (Wu & Gajski): ascending lexicographic
    # descendant-ALAP lists.  An ancestor's ALAP is strictly smaller
    # than any descendant's (weights are positive), so the order is
    # topologically consistent, and popping the smallest-rank *ready*
    # node walks exactly this static sequence.
    lists = _descendant_alap_lists(graph, alap(graph))
    order = sorted(graph.nodes(), key=lambda n: (lists[n], n))
    rank = [0.0] * graph.num_nodes
    for r, n in enumerate(order):
        rank[n] = float(r)
    return _StaticState([-r for r in rank])


PRIORITY_RULES: Dict[str, PriorityRule] = {
    "slevel": PriorityRule(
        "slevel",
        "static level: longest computation-only path to an exit "
        "(HLFET/ISH ordering; ETF/DLS tie-break level)",
        cp_based=False, dynamic=False,
        factory=lambda g: _StaticState(static_blevel(g)),
    ),
    "blevel": PriorityRule(
        "blevel",
        "bottom level including edge weights: longest path to an exit",
        cp_based=True, dynamic=False,
        factory=lambda g: _StaticState(blevel(g)),
    ),
    "tlevel": PriorityRule(
        "tlevel",
        "smallest top level first: nodes closest to the entry go early",
        cp_based=False, dynamic=False,
        factory=lambda g: _StaticState([-t for t in tlevel(g)]),
    ),
    "btlevel": PriorityRule(
        "btlevel",
        "blevel + tlevel: DSC's dominant-sequence priority",
        cp_based=True, dynamic=False,
        factory=lambda g: _StaticState(priority_blevel_plus_tlevel(g)),
    ),
    "alap": PriorityRule(
        "alap",
        "least slack first: ascending as-late-as-possible start time",
        cp_based=True, dynamic=False,
        factory=lambda g: _StaticState([-a for a in alap(g)]),
    ),
    "alaplist": PriorityRule(
        "alaplist",
        "MCP's lexicographic descendant-ALAP lists (full static order)",
        cp_based=True, dynamic=False,
        factory=_alaplist_state,
    ),
    "dnode": PriorityRule(
        "dnode",
        "LAST's D_NODE: fraction of incident edge weight already "
        "settled next to scheduled neighbours",
        cp_based=False, dynamic=True,
        factory=_DnodeState,
    ),
}
