"""Random task-graph generators: the RGBOS and RGNOS construction.

Section 5.2 of the paper describes the random-graph recipe shared by the
RGBOS ("random graphs with branch-and-bound optimal solutions") and
RGNOS ("random graphs with no known optimal solutions") suites:

* computation costs drawn uniformly with mean 40 (range 2..78);
* each node, in index order, receives a number of children drawn
  uniformly with mean ``v/10``, connected to higher-indexed nodes;
* communication costs drawn uniformly with mean ``40 * CCR``.

RGNOS additionally controls *parallelism*: a parameter ``1..5`` setting
the average graph width to ``parallelism * sqrt(v)``; we realise it by
layering the nodes (layer sizes jittered around the target width) and
drawing children only from strictly later layers, with the immediately
following layer guaranteed reachable so the width target is tight.

All draws come from an explicitly seeded ``numpy.random.Generator`` and
no module holds global RNG state — every graph in every suite is
reproducible bit for bit.  ``seed`` parameters accept either an ``int``
(an independent stream per call, the historical behaviour) or a live
``numpy.random.Generator`` (one shared stream threaded through several
calls — how the simulator keeps graph generation and Monte-Carlo trials
jointly reproducible, see :mod:`repro.core.rng`).

Draw order, which fixes every graph: the weights (one vector draw),
then for each node in index order its child count (one scalar draw),
its children (one ``rng.choice`` without replacement) and their
communication costs (one vector draw, in the order the children were
drawn); then, in node order, one scalar endpoint draw and one scalar
cost draw per rescue edge (an isolated RGBOS node, an RGNOS node
without a parent in the layer before it).  A bounded ``integers``
draw of ``size=k`` yields the same values, and leaves the generator
in the same state, as ``k`` scalar draws of the same range, so the
vector cost draws reproduce the per-edge draws of the original
recipe bit for bit.  The edges keep that draw order, so
``total_communication`` (summed in input order) is unchanged too.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Iterable, List, Tuple

import numpy as np

from ..core.exceptions import GeneratorError
from ..core.graph import TaskGraph
from ..core.rng import SeedLike, as_generator, seed_label

__all__ = ["rgbos_graph", "rgnos_graph", "uniform_weights"]

_MEAN_WEIGHT = 40
_WEIGHT_LOW, _WEIGHT_HIGH = 2, 78  # inclusive; mean 40 as in the paper


def uniform_weights(rng: np.random.Generator, count: int) -> np.ndarray:
    """Computation costs: integer uniform on [2, 78], mean 40."""
    return rng.integers(_WEIGHT_LOW, _WEIGHT_HIGH + 1, size=count)


def _comm_costs(rng: np.random.Generator, ccr: float,
                size: int | None = None) -> Any:
    """Communication costs: integer uniform with mean ``40 * ccr``, >= 1.

    ``size=None`` draws one cost as a Python int; otherwise an int64
    array of ``size`` costs, stream-identical to ``size`` scalar draws.
    """
    high = max(1, int(round(2 * _MEAN_WEIGHT * ccr)) - 1)
    if size is None:
        return int(rng.integers(1, high + 1))
    return rng.integers(1, high + 1, size=size)


def _child_edges(rng: np.random.Generator, v: int, ccr: float,
                 pool_starts: Iterable[int], sort: bool
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node's children, as source, target and cost columns.

    Node ``u`` draws a child count with mean ``v/10``, that many
    distinct children from ``pool_starts[u] .. v-1`` (ascending when
    ``sort``) and their costs, in that order.
    """
    max_children = int(round(2 * max(1.0, v / 10.0)))
    owners: List[int] = []
    counts: List[int] = []
    children: List[np.ndarray] = []
    costs: List[np.ndarray] = []
    for u, lo in enumerate(pool_starts):
        n_children = min(int(rng.integers(0, max_children + 1)), v - lo)
        if n_children:
            picked = lo + rng.choice(v - lo, size=n_children, replace=False)
            owners.append(u)
            counts.append(n_children)
            children.append(np.sort(picked) if sort else picked)
            costs.append(_comm_costs(rng, ccr, n_children))
    if not owners:
        return (np.zeros(0, np.int64),) * 3
    return (np.repeat(np.array(owners, dtype=np.int64), counts),
            np.concatenate(children), np.concatenate(costs))


def _graph(weights: np.ndarray,
           edges: Tuple[np.ndarray, np.ndarray, np.ndarray],
           rescues: List[Tuple[int, int, int]], name: str) -> TaskGraph:
    """The child edges, then the rescue edges, as a :class:`TaskGraph`."""
    extra = np.array(rescues, dtype=np.int64).reshape(-1, 3).T
    src, dst, cost = (np.concatenate((col, more))
                      for col, more in zip(edges, extra))
    return TaskGraph._from_columns(weights, src, dst,
                                   cost.astype(np.float64), name)


def rgbos_graph(v: int, ccr: float, seed: SeedLike = 0,
                name: str | None = None) -> TaskGraph:
    """One RGBOS-style random graph (paper Section 5.2).

    Parameters
    ----------
    v:
        Number of nodes (the paper uses 10..32 in steps of 2).
    ccr:
        Target communication-to-computation ratio (0.1, 1.0 or 10.0 in
        the paper).
    seed:
        RNG seed — graphs are deterministic in (v, ccr, seed) — or a
        live ``numpy.random.Generator`` to draw from a shared stream.
    """
    if v < 2:
        raise GeneratorError("need at least two nodes")
    if ccr <= 0:
        raise GeneratorError("ccr must be positive")
    rng = as_generator(seed)
    weights = uniform_weights(rng, v)
    edges = _child_edges(rng, v, ccr, range(1, v), sort=True)
    # Keep the graph weakly useful for scheduling studies: ensure no node
    # besides node 0 is fully isolated (isolated nodes are trivially
    # schedulable and dilute the benchmark).  A rescue edge ends at the
    # rescued node and starts below it, so it cannot rescue a later one.
    degree = (np.bincount(edges[0], minlength=v)
              + np.bincount(edges[1], minlength=v))
    rescues = [(int(rng.integers(0, node)), node, _comm_costs(rng, ccr))
               for node in np.flatnonzero(degree == 0).tolist() if node]
    return _graph(weights, edges, rescues,
                  name or f"rgbos-v{v}-ccr{ccr:g}-s{seed_label(seed)}")


def _layer_sizes(rng: np.random.Generator, v: int, width: float) -> List[int]:
    """Layer sizes jittered around ``width`` summing exactly to ``v``."""
    sizes: List[int] = []
    remaining = v
    while remaining > 0:
        size = int(round(rng.normal(width, max(0.5, width / 4))))
        size = max(1, min(size, remaining))
        sizes.append(size)
        remaining -= size
    return sizes


def rgnos_graph(v: int, ccr: float, parallelism: int, seed: SeedLike = 0,
                name: str | None = None) -> TaskGraph:
    """One RGNOS-style random graph (paper Section 5.4).

    ``parallelism`` of ``k`` targets an average width of ``k * sqrt(v)``
    (the paper uses 1..5).  ``seed`` accepts an int or a live
    ``numpy.random.Generator``.
    """
    if v < 2:
        raise GeneratorError("need at least two nodes")
    if ccr <= 0 or parallelism < 1:
        raise GeneratorError("ccr must be positive, parallelism >= 1")
    rng = as_generator(seed)
    width = min(float(v), parallelism * math.sqrt(v))
    sizes = _layer_sizes(rng, v, width)
    layer_of = np.repeat(np.arange(len(sizes)), sizes)
    starts = [0, *itertools.accumulate(sizes)]  # first node of each layer

    weights = uniform_weights(rng, v)
    # Children come from strictly later layers; the last layer has none.
    pools = [starts[lu + 1] for lu in layer_of[:starts[-2]].tolist()]
    edges = _child_edges(rng, v, ccr, pools, sort=False)
    # Guarantee the layer structure is real: every node below the top has
    # at least one parent in the previous layer, so the width of the
    # level decomposition matches the requested parallelism.
    src, dst, _cost = edges
    has_parent = np.zeros(v, dtype=bool)
    has_parent[dst[layer_of[dst] == layer_of[src] + 1]] = True
    rescues = [(int(rng.integers(starts[ln - 1], starts[ln])), node,
                _comm_costs(rng, ccr))
               for node, ln in enumerate(layer_of.tolist())
               if ln and not has_parent[node]]
    return _graph(weights, edges, rescues,
                  name or (f"rgnos-v{v}-ccr{ccr:g}-par{parallelism}"
                           f"-s{seed_label(seed)}"))
