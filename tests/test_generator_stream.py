"""The array-drawn RGNOS/RGBOS generators against the per-edge recipe.

``reference_rgnos_graph``, ``reference_rgbos_graph`` and
``_comm_cost`` are the generators as they were before the cost draws
moved onto arrays, kept verbatim as the test oracle: one scalar
``rng.integers`` per edge, an edge dict in insertion order and a
per-node ``any()`` scan for the rescue edges.  The generators now draw
each node's costs as one vector and build the graph from columns; the
property requires the same graph, the same edges in the same input
order, the same ``total_communication`` and a shared generator left in
the same state.  The storm digests pin the service's request bodies,
built from the CSR, to the bytes the per-edge list produced.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import TaskGraph as _TaskGraph
from repro.core.rng import SeedLike, as_generator, seed_label
from repro.core.exceptions import GeneratorError
from repro.generators.random_graphs import (
    _layer_sizes,
    rgbos_graph,
    rgnos_graph,
    uniform_weights,
)
from repro.scenarios.storm import StormConfig, storm_bodies

_MEAN_WEIGHT = 40


class TaskGraph(_TaskGraph):
    """The graph the references build, keeping its edge input in order."""

    def __init__(self, weights, edges, name):
        super().__init__(weights, edges, name=name)
        self.input_edges = [(u, v, float(c)) for (u, v), c in edges.items()]


# ----------------------------------------------------------------------
# The per-edge generators, verbatim
# ----------------------------------------------------------------------
def _comm_cost(rng: np.random.Generator, ccr: float) -> int:
    """Communication cost: integer uniform with mean ``40 * ccr``, >= 1."""
    mean = _MEAN_WEIGHT * ccr
    high = max(1, int(round(2 * mean)) - 1)
    return int(rng.integers(1, high + 1))


def reference_rgbos_graph(v: int, ccr: float, seed: SeedLike = 0,
                          name: str | None = None) -> TaskGraph:
    if v < 2:
        raise GeneratorError("need at least two nodes")
    if ccr <= 0:
        raise GeneratorError("ccr must be positive")
    rng = as_generator(seed)
    weights = uniform_weights(rng, v)
    mean_children = max(1.0, v / 10.0)
    edges: Dict[Tuple[int, int], float] = {}
    for u in range(v - 1):
        n_children = int(rng.integers(0, int(round(2 * mean_children)) + 1))
        n_children = min(n_children, v - 1 - u)
        if n_children == 0:
            continue
        children = rng.choice(
            np.arange(u + 1, v), size=n_children, replace=False
        )
        for child in sorted(int(c) for c in children):
            edges[(u, child)] = _comm_cost(rng, ccr)
    # Keep the graph weakly useful for scheduling studies: ensure no node
    # besides node 0 is fully isolated (isolated nodes are trivially
    # schedulable and dilute the benchmark).
    for node in range(1, v):
        has_any = any((p, node) in edges for p in range(node)) or any(
            (node, s) in edges for s in range(node + 1, v)
        )
        if not has_any:
            parent = int(rng.integers(0, node))
            edges[(parent, node)] = _comm_cost(rng, ccr)
    return TaskGraph(
        weights, edges,
        name=name or f"rgbos-v{v}-ccr{ccr:g}-s{seed_label(seed)}",
    )


def reference_rgnos_graph(v: int, ccr: float, parallelism: int,
                          seed: SeedLike = 0,
                          name: str | None = None) -> TaskGraph:
    if v < 2:
        raise GeneratorError("need at least two nodes")
    if ccr <= 0 or parallelism < 1:
        raise GeneratorError("ccr must be positive, parallelism >= 1")
    rng = as_generator(seed)
    width = min(float(v), parallelism * math.sqrt(v))
    sizes = _layer_sizes(rng, v, width)
    layer_of: List[int] = []
    for layer, size in enumerate(sizes):
        layer_of.extend([layer] * size)
    starts = np.cumsum([0] + sizes)  # first node id of each layer

    weights = uniform_weights(rng, v)
    edges: Dict[Tuple[int, int], float] = {}
    mean_children = max(1.0, v / 10.0)
    num_layers = len(sizes)
    for u in range(v):
        lu = layer_of[u]
        if lu == num_layers - 1:
            continue
        pool = np.arange(starts[lu + 1], v)
        n_children = int(rng.integers(0, int(round(2 * mean_children)) + 1))
        n_children = min(n_children, pool.size)
        if n_children:
            for child in rng.choice(pool, size=n_children, replace=False):
                edges[(u, int(child))] = _comm_cost(rng, ccr)
    # Guarantee the layer structure is real: every node below the top has
    # at least one parent in the previous layer, so the width of the
    # level decomposition matches the requested parallelism.
    for node in range(v):
        ln = layer_of[node]
        if ln == 0:
            continue
        if not any((p, node) in edges
                   for p in range(starts[ln - 1], starts[ln])):
            parent = int(rng.integers(starts[ln - 1], starts[ln]))
            edges[(parent, node)] = _comm_cost(rng, ccr)
    return TaskGraph(
        weights, edges,
        name=name or (f"rgnos-v{v}-ccr{ccr:g}-par{parallelism}"
                      f"-s{seed_label(seed)}"),
    )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
@contextmanager
def recorded_columns() -> Iterator[List[List[Tuple[int, int, float]]]]:
    """Record the edge columns every array-built graph is given."""
    seen: List[List[Tuple[int, int, float]]] = []
    original = _TaskGraph.__dict__["_from_columns"]

    def spy(cls, weights, src, dst, cost, name):
        seen.append(list(zip(src.tolist(), dst.tolist(), cost.tolist())))
        return original.__func__(cls, weights, src, dst, cost, name)

    _TaskGraph._from_columns = classmethod(spy)
    try:
        yield seen
    finally:
        _TaskGraph._from_columns = original


def assert_same(new, ref, new_input) -> None:
    assert new.name == ref.name
    assert new.weights.tolist() == ref.weights.tolist()
    assert new.edges() == ref.edges()
    assert new_input == ref.input_edges
    assert new.total_communication == ref.total_communication
    assert new.fingerprint() == ref.fingerprint()
    assert new.topological_order == ref.topological_order


CCRS = st.sampled_from([0.05, 0.1, 0.3, 1.0, 2.5, 10.0]) | st.floats(
    0.01, 20.0, allow_nan=False)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(v=st.integers(2, 400), ccr=CCRS, parallelism=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rgnos_matches_the_per_edge_recipe(v, ccr, parallelism, seed):
    ref = reference_rgnos_graph(v, ccr, parallelism, seed=seed)
    with recorded_columns() as seen:
        new = rgnos_graph(v, ccr, parallelism, seed=seed)
    assert_same(new, ref, seen[0])


@settings(max_examples=40, deadline=None)
@given(v=st.integers(2, 400), ccr=CCRS, seed=st.integers(0, 2 ** 32 - 1))
def test_rgbos_matches_the_per_edge_recipe(v, ccr, seed):
    ref = reference_rgbos_graph(v, ccr, seed=seed)
    with recorded_columns() as seen:
        new = rgbos_graph(v, ccr, seed=seed)
    assert_same(new, ref, seen[0])


@settings(max_examples=40, deadline=None)
@given(v=st.integers(2, 400), ccr=CCRS, parallelism=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_shared_generator_is_left_in_the_same_state(v, ccr, parallelism,
                                                    seed):
    """Vector cost draws consume exactly what the scalar draws did."""
    ref_rng, new_rng = (np.random.default_rng(seed) for _ in range(2))
    ref = reference_rgnos_graph(v, ccr, parallelism, seed=ref_rng)
    ref_bos = reference_rgbos_graph(v, ccr, seed=ref_rng)
    with recorded_columns() as seen:
        new = rgnos_graph(v, ccr, parallelism, seed=new_rng)
        new_bos = rgbos_graph(v, ccr, seed=new_rng)
    assert_same(new, ref, seen[0])
    assert_same(new_bos, ref_bos, seen[1])
    assert (new_rng.integers(0, 2 ** 62, size=4).tolist()
            == ref_rng.integers(0, 2 ** 62, size=4).tolist())
    assert new_rng.random() == ref_rng.random()


def test_one_layer_graph_has_no_edges():
    """v <= parallelism**2 can give one layer: no children, no rescues."""
    for seed in range(20):
        ref = reference_rgnos_graph(4, 1.0, 5, seed=seed)
        with recorded_columns() as seen:
            new = rgnos_graph(4, 1.0, 5, seed=seed)
        assert_same(new, ref, seen[0])


# sha256 of ``json.dumps(storm_bodies(...), sort_keys=True)``, recorded
# from the per-edge generator and body builder.
STORM_DIGESTS = {
    53: "8e0814989b47bc6eb464a958ed7dac55c604d9cf7bcc2ea1536e5bb3cf8b13a6",
    97: "93ea1a7f3550485d38950f597c7ac0c7c6f4f5d2e0414f9827bd65ff424c093f",
}


@pytest.mark.parametrize("seed", sorted(STORM_DIGESTS))
def test_storm_bodies_keep_their_bytes(seed):
    bodies = storm_bodies(StormConfig(templates=120, seed=seed))
    digest = hashlib.sha256(
        json.dumps(bodies, sort_keys=True).encode()).hexdigest()
    assert digest == STORM_DIGESTS[seed]
    edges = bodies[0]["graph"]["edges"]
    assert all(type(u) is int and type(v) is int and type(c) is float
               for u, v, c in edges)
