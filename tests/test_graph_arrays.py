"""The array-built TaskGraph against the per-edge constructor it replaced.

``ReferenceGraph`` is the old ``TaskGraph.__init__`` verbatim (the
per-edge validation loop, the list adjacency, Kahn's FIFO order and the
per-edge fingerprint).  The property feeds both the same random DAGs
and the same malformed inputs (unknown nodes, self loops, negative
costs, duplicates, cycles, string and float node ids) and requires the
same adjacency, edges, order and fingerprint, or the same exception
with the same message for the first bad edge in input order.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import deque
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TaskGraph, api
from repro.core import graph as graph_module
from repro.core.exceptions import CycleError, GraphError
from repro.generators.random_graphs import rgnos_graph


class ReferenceGraph:
    """The per-edge constructor, kept verbatim as the test oracle."""

    def __init__(self, weights, edges, name: str = "taskgraph"):
        w = np.asarray(list(weights), dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise GraphError("a task graph needs at least one node")
        if np.any(w <= 0):
            raise GraphError("computation costs must be positive")
        n = int(w.size)

        if isinstance(edges, Mapping):
            items = [(u, v, c) for (u, v), c in edges.items()]
        else:
            items = [(u, v, c) for (u, v, c) in edges]

        succ: List[List[int]] = [[] for _ in range(n)]
        pred: List[List[int]] = [[] for _ in range(n)]
        cost: Dict[Tuple[int, int], float] = {}
        for u, v, c in items:
            u, v, c = int(u), int(v), float(c)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) references unknown node")
            if u == v:
                raise GraphError(f"self loop on node {u}")
            if c < 0:
                raise GraphError(f"negative communication cost on ({u}, {v})")
            if (u, v) in cost:
                raise GraphError(f"duplicate edge ({u}, {v})")
            cost[(u, v)] = c
            succ[u].append(v)
            pred[v].append(u)
        for lst in succ:
            lst.sort()
        for lst in pred:
            lst.sort()

        self._weights = w
        self._succ = succ
        self._pred = pred
        self._succ_costs = [[cost[(u, v)] for v in succ[u]] for u in range(n)]
        self._pred_costs = [[cost[(p, v)] for p in pred[v]] for v in range(n)]
        self._edge_cost = cost
        self.name = name
        self._topo = self._compute_topo()

    def _compute_topo(self) -> Tuple[int, ...]:
        n = int(self._weights.size)
        indeg = [len(self._pred[i]) for i in range(n)]
        queue = deque(i for i in range(n) if indeg[i] == 0)
        order: List[int] = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != n:
            raise CycleError("task graph contains a directed cycle")
        return tuple(order)

    @property
    def total_communication(self) -> float:
        return float(sum(self._edge_cost.values()))

    def edges(self) -> List[Tuple[int, int, float]]:
        return sorted((u, v, c) for (u, v), c in self._edge_cost.items())

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(str(int(self._weights.size)).encode())
        h.update(self._weights.tobytes())
        for u, v, c in self.edges():
            h.update(f"|{u},{v},{c:.17g}".encode())
        return h.hexdigest()[:16]


def _views(g) -> Dict[str, Any]:
    """Every structural view, as reprs: exact for floats (NaN, -0.0)
    and types (a numpy scalar is not a Python int)."""
    return {
        "succ": repr(g._succ), "pred": repr(g._pred),
        "succ_costs": repr(g._succ_costs),
        "pred_costs": repr(g._pred_costs),
        "edges": repr(g.edges()), "topo": repr(g._topo),
        "fingerprint": g.fingerprint(),
        "total_communication": repr(g.total_communication),
        "edge_cost": repr(sorted(g._edge_cost.items())),
    }


def _outcome(build):
    try:
        return "ok", _views(build())
    except Exception as exc:  # the type and message are the outcome
        return type(exc).__name__, str(exc)


# ----------------------------------------------------------------------
# inputs: random DAGs, then malformed edits of them
# ----------------------------------------------------------------------
_ODD_IDS = st.one_of(st.sampled_from(["0", "1", "2", "a", "2.5", " 3"]),
                     st.floats(-2.0, 12.0), st.booleans(),
                     st.integers(-3, 2 ** 70))
_ODD_COSTS = st.one_of(st.sampled_from([-1.0, -0.0, float("nan"),
                                        float("inf"), "4", "x"]),
                       st.integers(-5, 2 ** 60))


@st.composite
def edge_inputs(draw):
    n = draw(st.integers(1, 9))
    rank = draw(st.permutations(range(n)))  # a random topological order
    triples: List[Tuple[Any, Any, Any]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 2)) == 0:
                cost = draw(st.one_of(st.integers(0, 30),
                                      st.floats(0.0, 50.0)))
                triples.append((rank[i], rank[j], cost))
    triples = draw(st.permutations(triples))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(
            ["unknown", "loop", "negative", "duplicate", "cycle",
             "odd_id", "odd_cost", "ragged"]))
        at = draw(st.integers(0, len(triples)))
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        # Faults combine (an unknown self loop, a negative duplicate):
        # the check order decides which one is reported.
        sign = draw(st.sampled_from([1.0, -1.0]))
        whole = [t for t in triples if len(t) == 3]
        if kind == "unknown":
            bad = draw(st.sampled_from([n, n + 5, -1]))
            edge: Tuple[Any, Any, Any] = draw(st.sampled_from(
                [(u, bad, sign), (bad, u, sign), (bad, bad, sign)]))
        elif kind == "loop":
            edge = (u, u, 2.0 * sign)
        elif kind == "negative":
            edge = (u, v, -draw(st.floats(0.5, 10.0)))
        elif kind in ("duplicate", "cycle") and whole:
            a, b, _c = draw(st.sampled_from(whole))
            edge = (a, b, 3.0 * sign) if kind == "duplicate" else (b, a, 1.0)
        elif kind == "ragged":
            edge = draw(st.sampled_from([(u, v), (u, v, 1.0, 0.0), ()]))
        elif kind == "odd_id":
            edge = (draw(_ODD_IDS), v, 1.0) if draw(st.booleans()) else (
                u, draw(_ODD_IDS), 1.0)
        else:
            edge = (u, v, draw(_ODD_COSTS))
        triples.insert(at, edge)
    weights = [float(draw(st.integers(1, 20))) for _ in range(n)]
    return weights, triples


@given(edge_inputs(), st.sampled_from(["list", "tuple", "dict", "iter"]))
@settings(max_examples=400, deadline=None)
def test_array_constructor_matches_the_per_edge_loop(case, form):
    weights, triples = case
    if form == "dict" and all(len(t) == 3 for t in triples):
        # A mapping cannot repeat an edge; later spellings win, as in
        # any dict literal.
        edges: Any = {(u, v): c for u, v, c in triples}
    elif form == "tuple":
        edges = tuple(triples)
    elif form == "iter":
        edges = iter(list(triples))
    else:
        edges = triples
    again = iter(list(triples)) if form == "iter" else edges
    assert _outcome(lambda: TaskGraph(weights, edges)) == \
        _outcome(lambda: ReferenceGraph(weights, again))


@pytest.mark.parametrize("edges, error", [
    ([(0, 1, 1.0), (0, 0, 1.0), ("a", 1, 1.0)], "self loop on node 0"),
    ([(0, 1, 1.0), ("a", 1, 1.0), (0, 0, 1.0)],
     "invalid literal for int() with base 10: 'a'"),
    ([(0, 1, 1.0), (0, 1, -1.0)], "negative communication cost on (0, 1)"),
    ([(0, 1, 1.0), (0, 1, 2.0)], "duplicate edge (0, 1)"),
    ([(2 ** 70, 1, 1.0)], f"edge ({2 ** 70}, 1) references unknown node"),
    ([(2.7, 1, 1.0), (1, 2, 1.0), (2, 2, 1.0)], "self loop on node 2"),
    ([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
     "task graph contains a directed cycle"),
    ([(0, 0, 1.0), (0, 1), (0, 1, 2.0, 3.0)],
     "not enough values to unpack (expected 3, got 2)"),
])
def test_first_bad_edge_in_input_order_decides(edges, error):
    for cls in (TaskGraph, ReferenceGraph):
        with pytest.raises(Exception) as caught:
            cls([1.0, 1.0, 1.0], edges)
        assert str(caught.value) == error


def test_storm_sized_graph_matches_the_per_edge_loop():
    g = rgnos_graph(300, 1.0, 3, seed=20)
    edges = [list(e) for e in g.edges()][::-1]  # any input order
    assert _views(TaskGraph(g.weights, edges)) == \
        _views(ReferenceGraph(g.weights, edges))
    assert g.fingerprint() == ReferenceGraph(g.weights, edges).fingerprint()


def test_json_edges_build_through_the_array_constructor():
    g = rgnos_graph(60, 10.0, 5, seed=3)
    source = {"weights": g.weights.tolist(),
              "edges": [[u, v, c] for u, v, c in g.edges()]}
    built = api.as_graph(source)
    assert _views(built) == _views(g)
    with pytest.raises(GraphError, match="must be \\[u, v, cost\\]"):
        api.as_graph({"weights": [1.0, 1.0], "edges": [[0, "x", 1.0]]})
    with pytest.raises(GraphError, match="duplicate edge"):
        api.as_graph({"weights": [1.0, 1.0],
                      "edges": [[0, 1, 1.0], [0, 1, 1.0]]})


# ----------------------------------------------------------------------
# the wire format: arrays in, arrays out, no revalidation
# ----------------------------------------------------------------------
def test_pickle_round_trip_keeps_every_view_without_revalidating(
        monkeypatch):
    g = rgnos_graph(80, 1.0, 3, seed=11, name="wire")
    payload = pickle.dumps(g)

    def refuse(*_args, **_kwargs):
        raise AssertionError("unpickling revalidated the graph")

    monkeypatch.setattr(graph_module, "_validated_csr", refuse)
    monkeypatch.setattr(graph_module, "_edge_columns", refuse)
    monkeypatch.setattr(graph_module, "_kahn_order", refuse)
    monkeypatch.setattr(TaskGraph, "__init__", refuse)
    copy = pickle.loads(payload)
    assert copy.name == "wire"
    assert _views(copy) == _views(g)
    assert copy.total_communication == g.total_communication
    for mine, theirs in zip(copy.succ_csr() + copy.pred_csr(),
                            g.succ_csr() + g.pred_csr()):
        assert np.array_equal(mine, theirs)
        assert not mine.flags.writeable
    assert not copy.weights.flags.writeable
    relabeled = g.relabeled("other")
    assert relabeled.name == "other" and _views(relabeled) == _views(g)


def test_total_communication_sums_in_input_order():
    # Float addition is not associative: the sum follows the order the
    # edges were given in, as the edge dict it replaces did, not the
    # (u, v) order of the CSR.
    edges = [(2, 3, 1.0), (1, 2, 1.0), (0, 1, 1e16)]
    g = TaskGraph([1.0] * 4, edges)
    assert g.total_communication == 1.0 + 1.0 + 1e16
    assert g.total_communication != 1e16 + 1.0 + 1.0


# ----------------------------------------------------------------------
# the edge-column converter: the array path against its per-edge loop
# ----------------------------------------------------------------------
def _loop_columns(items, n):
    """The per-edge loop of ``_edge_columns`` on its own, verbatim: the
    meaning of every conversion the array path takes a short cut for."""
    failure = None
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


def _columns_outcome(convert, items, n):
    try:
        src, dst, cost, failure = convert(items, n)
    except Exception as exc:
        return "raised", type(exc).__name__, str(exc)
    return ([(col.dtype.str, repr(col.tolist())) for col in (src, dst, cost)],
            None if failure is None else (type(failure).__name__,
                                          str(failure)))


_NUMERIC_CELLS = st.one_of(
    st.integers(-3, 8), st.integers(-2 ** 80, 2 ** 80),
    st.sampled_from([2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, -2 ** 53, 2 ** 63,
                     2 ** 64, 10 ** 400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-3.0, 8.0), st.booleans())

_CELLS = st.one_of(
    _NUMERIC_CELLS, st.none(),
    st.integers(-3, 8).map(str), st.floats(-3.0, 8.0).map(str),
    st.sampled_from(["nan", "inf", "1e3", "x", ""]))

_ROWS = st.one_of(
    st.lists(st.integers(0, 6), min_size=3, max_size=3),
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.floats(0.0, 9.0)),
    st.lists(_NUMERIC_CELLS, min_size=3, max_size=3),
    st.lists(_CELLS, min_size=3, max_size=3),
    st.lists(_CELLS, min_size=2, max_size=2),
    st.lists(_CELLS, min_size=4, max_size=4))


@given(st.lists(_ROWS, max_size=8)
       | st.lists(st.lists(_NUMERIC_CELLS, min_size=3, max_size=3),
                  max_size=6),
       st.integers(1, 6))
@settings(max_examples=600, deadline=None)
def test_edge_columns_match_the_per_edge_loop(items, n):
    assert _columns_outcome(graph_module._edge_columns, items, n) == \
        _columns_outcome(_loop_columns, items, n)
    weights = [1.0] * n
    assert _outcome(lambda: TaskGraph(weights, items)) == \
        _outcome(lambda: ReferenceGraph(weights, items))


@pytest.mark.parametrize("items", [
    [[0, 1, 2.5], [1, 2, 3]],                  # ints and floats mixed
    [[True, 2, False]],                        # bools
    [[0.0, 1.0, 1.0], [2 ** 53, 1, 1.0]],      # an id past 2**53
    [[0, 1, 1.0], [2 ** 63, 1, 1.0]],          # past int64 in a float table
    [[-5, 1, 1.0], [1, 9, float("nan")]],      # clipped ids, a NaN cost
])
def test_edge_columns_fast_and_loop_cases(items):
    assert _columns_outcome(graph_module._edge_columns, items, 3) == \
        _columns_outcome(_loop_columns, items, 3)
