"""Weighted directed acyclic task graphs (macro-dataflow graphs).

The model follows Section 2 of Kwok & Ahmad (IPPS 1998): a node represents
a task with a *computation cost* ``w(n)``; a directed edge ``(u, v)``
represents a precedence constraint with a *communication cost* ``c(u, v)``
that is incurred only when ``u`` and ``v`` execute on different processors.

Nodes are integers ``0 .. num_nodes-1``.  The graph is immutable after
construction; derived quantities (topological order, predecessor lists,
critical path) are computed lazily and cached.
"""

from __future__ import annotations

import hashlib
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
)

import numpy as np

from ..check import sanitize as _sanitize
from .exceptions import CycleError, GraphError

__all__ = ["TaskGraph"]

Edge = Tuple[int, int]
#: succ indptr, indices and costs, then the same for pred.
_CSR = Tuple[np.ndarray, np.ndarray, np.ndarray,
             np.ndarray, np.ndarray, np.ndarray]


class TaskGraph:
    """An immutable weighted DAG of tasks.

    Parameters
    ----------
    weights:
        Sequence of computation costs; ``weights[i]`` is the cost of node
        ``i``.  Must be positive.
    edges:
        Mapping ``(u, v) -> communication cost`` or iterable of
        ``(u, v, cost)`` triples.  Costs must be non-negative (a zero cost
        edge still carries a precedence constraint).
    name:
        Optional human-readable identifier used in benchmark reports.

    Examples
    --------
    >>> g = TaskGraph([2.0, 3.0, 1.0], {(0, 1): 4.0, (0, 2): 1.0})
    >>> g.num_nodes, g.num_edges
    (3, 2)
    >>> list(g.successors(0))
    [1, 2]
    """

    __slots__ = (
        "_weights",
        "_csr",
        "_succ",
        "_pred",
        "_succ_costs",
        "_pred_costs",
        "_edge_dict",
        "_total_comm",
        "name",
        "_topo",
        "_entries",
        "_exits",
        "_cache",
    )

    def __init__(
        self,
        weights: Sequence[float],
        edges: Mapping[Edge, float] | Iterable[Tuple[int, int, float]],
        name: str = "taskgraph",
    ):
        w = _checked_weights(np.asarray(list(weights), dtype=np.float64))
        if isinstance(edges, Mapping):
            items: Sequence[Any] = [(u, v, c) for (u, v), c in edges.items()]
        else:
            items = edges if isinstance(edges, list) else list(edges)
        src, dst, cost, failure = _edge_columns(items, int(w.size))
        self._build(w, src, dst, cost, items, name, failure)

    @classmethod
    def _from_columns(cls, weights: np.ndarray, src: np.ndarray,
                      dst: np.ndarray, cost: np.ndarray,
                      name: str) -> "TaskGraph":
        """A graph from int64 source, int64 target and float64 cost columns.

        The generators' input form: the columns take the same checks as
        the constructor's, without building a tuple per edge.
        """
        graph = cls.__new__(cls)
        graph._build(_checked_weights(weights.astype(np.float64)),
                     src, dst, cost, None, name)
        return graph

    def _build(self, w: np.ndarray, src: np.ndarray, dst: np.ndarray,
               cost: np.ndarray, items: Sequence[Any] | None, name: str,
               failure: Exception | None = None) -> None:
        """Check the edge columns, adopt them and order the nodes."""
        csr = _validated_csr(int(w.size), src, dst, cost, items)
        if failure is not None:
            raise failure
        # Summed in input order, exactly as the edge dict it replaces.
        self._adopt(w, csr, float(sum(cost.tolist())), name)
        # Validate acyclicity eagerly: a cyclic "task graph" is never usable.
        self._topo = _kahn_order(self._succ, self._pred)

    def _adopt(self, weights: np.ndarray, csr: _CSR, total_comm: float,
               name: str) -> None:
        """Install validated arrays; the adjacency lists are their rows."""
        for arr in (weights, *csr):
            arr.setflags(write=False)
        self._weights = weights
        self._csr = csr
        s_ptr, s_idx, s_cost, p_ptr, p_idx, p_cost = csr
        self._succ = _rows(s_ptr, s_idx)
        self._pred = _rows(p_ptr, p_idx)
        # Communication costs aligned index-for-index with the adjacency
        # lists: the kernel inner loops walk (neighbour, cost) pairs
        # without touching the edge dict.
        self._succ_costs = _rows(s_ptr, s_cost)
        self._pred_costs = _rows(p_ptr, p_cost)
        self._edge_dict: Dict[Edge, float] | None = None
        self._total_comm = total_comm
        self._cache: Dict[str, Any] = {}
        self.name = name
        self._entries: Tuple[int, ...] | None = None
        self._exits: Tuple[int, ...] | None = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of tasks ``v``."""
        return int(self._weights.size)

    @property
    def num_edges(self) -> int:
        """Number of precedence edges ``e``."""
        return int(self._csr[1].size)

    @property
    def weights(self) -> np.ndarray:
        """Read-only array of computation costs indexed by node."""
        return self._weights

    def weight(self, node: int) -> float:
        """Computation cost ``w(node)``."""
        return float(self._weights[node])

    @property
    def _edge_cost(self) -> Dict[Edge, float]:
        """``(u, v) -> cost`` for every edge, built on first use."""
        cost = self._edge_dict
        if cost is None:
            cost = self._edge_dict = dict(zip(
                ((u, v) for u, v, _c in self.edges()),
                self._csr[2].tolist()))
        return cost

    def comm_cost(self, u: int, v: int) -> float:
        """Communication cost ``c(u, v)``; raises ``KeyError`` if no edge."""
        return self._edge_cost[(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        """True when the precedence edge ``(u, v)`` exists."""
        return (u, v) in self._edge_cost

    def successors(self, node: int) -> List[int]:
        """Children of ``node`` in ascending node order."""
        return list(self._succ[node])

    def predecessors(self, node: int) -> List[int]:
        """Parents of ``node`` in ascending node order."""
        return list(self._pred[node])

    def out_degree(self, node: int) -> int:
        return len(self._succ[node])

    def in_degree(self, node: int) -> int:
        return len(self._pred[node])

    def edges(self) -> List[Tuple[int, int, float]]:
        """All edges as ``(u, v, cost)`` triples, ascending by ``(u, v)``."""
        indptr, indices, costs = self._csr[:3]
        src = np.repeat(np.arange(self.num_nodes), np.diff(indptr))
        return list(zip(src.tolist(), indices.tolist(), costs.tolist()))

    def nodes(self) -> range:
        """Node ids ``0 .. num_nodes-1``."""
        return range(self.num_nodes)

    def fingerprint(self) -> str:
        """Stable content identity of the graph structure.

        A short SHA-256 digest over the node count, every computation
        cost and every ``(u, v, cost)`` edge — the *name* is
        deliberately excluded, so two differently-named copies of the
        same DAG share one identity.  Schedulers are pure functions of
        ``(graph, machine, spec)``, which makes this digest the graph
        part of every schedule-cache key (see :mod:`repro.service`):
        equal fingerprints guarantee bit-identical schedules from any
        deterministic scheduler.  Computed once per graph (the graph is
        immutable) and memoised.  The edges are hashed as one string,
        ``|u,v,cost`` per edge in ``(u, v)`` order with costs in
        ``.17g``, so persisted keys stay valid.
        """

        def compute(g: "TaskGraph") -> str:
            h = hashlib.sha256()
            h.update(str(g.num_nodes).encode())
            h.update(g._weights.tobytes())
            h.update(_edge_text(g).encode())
            return h.hexdigest()[:16]

        return str(self.cached("_fingerprint", compute))

    # ------------------------------------------------------------------
    # flat-array kernel views
    # ------------------------------------------------------------------
    def cached(self, key: str, compute: "Callable[[TaskGraph], Any]") -> Any:
        """Memoise ``compute(self)`` under ``key``.

        The graph is immutable, so any pure derived quantity (attribute
        sweeps, CSR plans, the critical path) is computed at most once
        per graph.  Callers must treat the returned object as read-only.
        """
        try:
            return self._cache[key]
        except KeyError:
            value = compute(self)
            self._cache[key] = value
            return value

    def succ_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Successor adjacency in CSR form.

        Returns read-only ``(indptr, indices, costs)``: the successors
        of ``u`` are ``indices[indptr[u]:indptr[u+1]]`` (ascending) and
        ``costs`` is aligned index-for-index with ``indices``.
        """
        csr = self._csr[:3]
        if _sanitize.enabled():
            self._sanitize_csr("_succ_csr", csr, self._succ, self._succ_costs)
        return csr

    def pred_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Predecessor adjacency in CSR form (mirror of :meth:`succ_csr`)."""
        csr = self._csr[3:]
        if _sanitize.enabled():
            self._sanitize_csr("_pred_csr", csr, self._pred, self._pred_costs)
        return csr

    def _sanitize_csr(self, key: str,
                      csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
                      adj: List[List[int]],
                      costs: List[List[float]]) -> None:
        """Sanitizer hook: CSR must round-trip against the list adjacency.

        Runs on every armed call — the lists are the CSR's rows at
        construction, so a later mismatch means a kernel or scheduler
        corrupted shared adjacency memory.
        """
        indptr, indices, cost = csr
        _sanitize.require(
            int(indptr[0]) == 0 and int(indptr[-1]) == len(indices)
            and len(indices) == len(cost),
            f"{self.name}: CSR shape broken for {key}")
        for u in range(self.num_nodes):
            lo, hi = int(indptr[u]), int(indptr[u + 1])
            _sanitize.require(
                list(indices[lo:hi]) == adj[u]
                and list(cost[lo:hi]) == costs[u],
                f"{self.name}: CSR row {u} does not round-trip the "
                f"adjacency lists ({key})")

    def succ_pairs(self, node: int) -> Tuple[List[int], List[float]]:
        """Internal ``(successors, costs)`` lists for ``node``.

        Shared, **read-only** views — the kernel hot loops use these to
        walk (child, cost) pairs without per-edge dict lookups.
        """
        return self._succ[node], self._succ_costs[node]

    def pred_pairs(self, node: int) -> Tuple[List[int], List[float]]:
        """Internal ``(predecessors, costs)`` lists for ``node``."""
        return self._pred[node], self._pred_costs[node]

    @property
    def node_levels(self) -> np.ndarray:
        """Precedence level per node (longest hop-count from an entry).

        Level-batching is what lets the attribute sweeps in
        :mod:`repro.core.kernel` vectorise: nodes within one level are
        mutually independent.
        """
        return self.cached("_levels", _compute_levels)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def topological_order(self) -> Tuple[int, ...]:
        """A deterministic topological ordering of the nodes."""
        return self._topo

    @property
    def entry_nodes(self) -> Tuple[int, ...]:
        """Nodes without parents."""
        if self._entries is None:
            self._entries = tuple(
                i for i in range(self.num_nodes) if not self._pred[i]
            )
        return self._entries

    @property
    def exit_nodes(self) -> Tuple[int, ...]:
        """Nodes without children."""
        if self._exits is None:
            self._exits = tuple(
                i for i in range(self.num_nodes) if not self._succ[i]
            )
        return self._exits

    # ------------------------------------------------------------------
    # aggregate properties
    # ------------------------------------------------------------------
    @property
    def total_computation(self) -> float:
        """Sum of all computation costs (serial execution time)."""
        return float(self._weights.sum())

    @property
    def total_communication(self) -> float:
        """Sum of all communication costs."""
        return self._total_comm

    @property
    def ccr(self) -> float:
        """Communication-to-computation ratio.

        Defined (Section 2 of the paper) as average communication cost
        divided by average computation cost; 0 for edge-less graphs.
        """
        if not self.num_edges:
            return 0.0
        avg_c = self.total_communication / self.num_edges
        avg_w = self.total_computation / self.num_nodes
        return avg_c / avg_w

    def width(self) -> int:
        """Largest antichain size approximated by maximum level population.

        The paper defines *width* as the largest number of mutually
        non-precedence-related nodes.  Computing the true maximum antichain
        is a matching problem; the standard proxy used when *generating*
        the RGNOS suite is the largest number of nodes sharing the same
        precedence level, which we report here.
        """
        return int(np.bincount(self.node_levels).max())

    def depth(self) -> int:
        """Number of precedence levels (longest chain, in hops + 1)."""
        return int(self.node_levels.max()) + 1 if self.num_nodes else 0

    # ------------------------------------------------------------------
    # interop / dunder
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(cls, g: Any, weight_attr: str = "weight",
                      comm_attr: str = "weight", name: str | None = None
                      ) -> "TaskGraph":
        """Build a :class:`TaskGraph` from a ``networkx.DiGraph``.

        Node labels may be arbitrary hashables; they are relabelled to
        ``0..n-1`` in sorted-by-string order (deterministic).
        """
        nodes = sorted(g.nodes, key=str)
        index = {u: i for i, u in enumerate(nodes)}
        weights = [float(g.nodes[u].get(weight_attr, 1.0)) for u in nodes]
        edges = {
            (index[u], index[v]): float(data.get(comm_attr, 0.0))
            for u, v, data in g.edges(data=True)
        }
        return cls(weights, edges, name=name or getattr(g, "name", "") or "from_networkx")

    def to_networkx(self) -> Any:
        """Export to a ``networkx.DiGraph`` with weight attributes."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for i in self.nodes():
            g.add_node(i, weight=self.weight(i))
        for u, v, c in self.edges():
            g.add_edge(u, v, weight=c)
        return g

    def relabeled(self, name: str) -> "TaskGraph":
        """Copy with a different ``name`` (shares the read-only arrays)."""
        copy = TaskGraph.__new__(TaskGraph)
        copy.__setstate__({**self.__getstate__(), "name": name})
        return copy

    def __len__(self) -> int:
        return self.num_nodes

    def __getstate__(self) -> Dict[str, Any]:
        # Ship the validated arrays and the order, not the edge list:
        # the receiving side adopts them without revalidating.  The
        # cache holds derived plans that are cheap to rebuild and may
        # not pickle stably.
        return {
            "weights": self._weights,
            "csr": self._csr,
            "topo": self._topo,
            "total_comm": self._total_comm,
            "name": self.name,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._adopt(state["weights"], state["csr"], state["total_comm"],
                    state["name"])
        self._topo = state["topo"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph(name={self.name!r}, v={self.num_nodes}, "
            f"e={self.num_edges}, ccr={self.ccr:.3g})"
        )


def _checked_weights(w: np.ndarray) -> np.ndarray:
    if w.ndim != 1 or w.size == 0:
        raise GraphError("a task graph needs at least one node")
    if np.any(w <= 0):
        raise GraphError("computation costs must be positive")
    return w


def _rows(indptr: np.ndarray, values: np.ndarray) -> List[List[Any]]:
    """The rows of one CSR array as Python lists."""
    ptr = indptr.tolist()
    flat = values.tolist()
    return [flat[lo:hi] for lo, hi in zip(ptr, ptr[1:])]


def _edge_columns(items: Sequence[Any], n: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                             Exception | None]:
    """``items`` as int64 source, int64 target and float64 cost arrays.

    Every value converts as ``int(u), int(v), float(c)`` would; node
    ids are clipped to ``[-1, n]``, which keeps them out of range when
    they were.  When some edge does not convert, the arrays hold the
    edges before it and the fourth value is that edge's exception.
    Columns of plain numbers convert in a few array calls; anything
    else (strings, nested or ragged triples, ids past 2**53) takes the
    per-edge loop.
    """
    try:
        # zip stops at the shortest triple; the length sum rules out
        # longer ones.
        cols = [np.array(col) for col in zip(*items)] if items else [
            np.zeros(0, np.int64)] * 3
        if (len(cols) == 3 and sum(map(len, items)) == 3 * len(items)
                and all(col.ndim == 1 and col.dtype.kind in "bif"
                        for col in cols)
                and all(col.dtype.kind != "f"
                        or bool(np.all(np.abs(col) < 2.0 ** 53))
                        for col in cols[:2])):
            src, dst = (np.clip(col.astype(np.int64), -1, n)
                        for col in cols[:2])
            return src, dst, cols[2].astype(np.float64), None
    except (TypeError, ValueError, OverflowError):
        pass
    failure: Exception | None = None
    src_l: List[int] = []
    dst_l: List[int] = []
    cost_l: List[float] = []
    for u, v, c in [(u, v, c) for (u, v, c) in items]:
        try:
            u, v, c = int(u), int(v), float(c)
        except Exception as exc:
            failure = exc
            break
        src_l.append(min(max(u, -1), n))
        dst_l.append(min(max(v, -1), n))
        cost_l.append(c)
    return (np.array(src_l, dtype=np.int64), np.array(dst_l, dtype=np.int64),
            np.array(cost_l, dtype=np.float64), failure)


def _validated_csr(n: int, src: np.ndarray, dst: np.ndarray,
                   cost: np.ndarray, items: Sequence[Any] | None) -> _CSR:
    """Check the edges and compress them into succ and pred CSR arrays.

    The checks run as array operations but raise exactly what a
    per-edge loop would: the first bad edge in input order gets the
    first of its faults among unknown node, self loop, negative cost
    and duplicate (a repeat of an earlier ``(u, v)``, found by a
    stable sort on ``u * n + v``).  Returns ``(succ indptr, succ
    indices, succ costs, pred indptr, pred indices, pred costs)``;
    rows ascend by neighbour.  Without ``items`` (unclipped columns)
    the messages name the columns' own ids.
    """
    e = src.size
    known = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
    key = np.where(known, src * n + dst, -1 - np.arange(e))
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    dup = np.zeros(e, dtype=bool)
    dup[order[1:][ranked[1:] == ranked[:-1]]] = True
    loop = src == dst
    negative = cost < 0
    bad = ~known | loop | negative | dup
    if bad.any():
        i = int(np.argmax(bad))
        u, v = ((int(items[i][0]), int(items[i][1])) if items is not None
                else (int(src[i]), int(dst[i])))
        if not known[i]:
            raise GraphError(f"edge ({u}, {v}) references unknown node")
        if loop[i]:
            raise GraphError(f"self loop on node {u}")
        if negative[i]:
            raise GraphError(f"negative communication cost on ({u}, {v})")
        raise GraphError(f"duplicate edge ({u}, {v})")
    by_dst = np.argsort(dst * n + src, kind="stable")
    return (_indptr(src, n), dst[order], cost[order],
            _indptr(dst, n), src[by_dst], cost[by_dst])


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _kahn_order(succ: List[List[int]], pred: List[List[int]]
                ) -> Tuple[int, ...]:
    """Kahn's algorithm with a FIFO over ascending ids: deterministic."""
    indeg = [len(p) for p in pred]
    order = [u for u, d in enumerate(indeg) if d == 0]
    for u in order:  # the FIFO: appended nodes are visited in turn
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) != len(succ):
        raise CycleError("task graph contains a directed cycle")
    return tuple(order)


def _edge_text(graph: "TaskGraph") -> str:
    """``|u,v,cost`` for every edge in ``(u, v)`` order, one string.

    Each distinct cost (by bit pattern, so ``-0.0`` stays apart from
    ``0.0``) is formatted once; object arrays concatenate the
    ``v,cost`` pieces without a Python loop over the edges.
    """
    indptr, indices, costs = graph._csr[:3]
    bits, inverse = np.unique(costs.view(np.int64), return_inverse=True)
    text = np.array([format(c, ".17g")
                     for c in bits.view(np.float64).tolist()], dtype=object)
    targets = np.array([f"{v}," for v in range(graph.num_nodes)],
                       dtype=object)
    pairs = (targets[indices] + text[inverse]).tolist()
    ptr = indptr.tolist()
    rows = []
    for u, (lo, hi) in enumerate(zip(ptr, ptr[1:])):
        if lo < hi:
            head = f"|{u},"
            rows.append(head + head.join(pairs[lo:hi]))
    return "".join(rows)


def _compute_levels(graph: "TaskGraph") -> np.ndarray:
    level = np.zeros(graph.num_nodes, dtype=np.int64)
    for u in graph.topological_order:
        lu = level[u] + 1
        for v in graph._succ[u]:
            if lu > level[v]:
                level[v] = lu
    level.setflags(write=False)
    return level
