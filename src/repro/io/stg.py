"""STG-style task graph text format.

A plain-text interchange format modelled on the Standard Task Graph Set
conventions, extended with edge communication costs (classic STG assumes
zero communication; DAG-scheduling research needs edge weights)::

    # comment
    <num_nodes>
    <node_id> <computation_cost> <num_parents> [<parent_id> <comm_cost>]...

Node ids are consecutive integers from 0 in topological order of
appearance.  Writers always emit nodes in id order; readers accept any
order as long as ids are consecutive.
"""

from __future__ import annotations

import io
from typing import Dict, List, TextIO, Tuple

from ..core.exceptions import GraphError
from ..core.graph import TaskGraph

__all__ = ["dump_stg", "dumps_stg", "load_stg", "loads_stg"]


def dumps_stg(graph: TaskGraph) -> str:
    """Serialise ``graph`` to the STG-style text format."""
    out = io.StringIO()
    dump_stg(graph, out)
    return out.getvalue()


def dump_stg(graph: TaskGraph, fh: TextIO) -> None:
    """Write ``graph`` to an open text file."""
    fh.write(f"# task graph {graph.name}\n")
    fh.write(f"# v={graph.num_nodes} e={graph.num_edges} "
             f"ccr={graph.ccr:.6g}\n")
    fh.write(f"{graph.num_nodes}\n")
    for node in graph.nodes():
        parents = graph.predecessors(node)
        parts = [str(node), f"{graph.weight(node):.10g}", str(len(parents))]
        for p in parents:
            parts.append(str(p))
            parts.append(f"{graph.comm_cost(p, node):.10g}")
        fh.write(" ".join(parts) + "\n")


def loads_stg(text: str, name: str = "stg") -> TaskGraph:
    """Parse a graph from STG-style text."""
    return load_stg(io.StringIO(text), name=name)


def load_stg(fh: TextIO, name: str = "stg") -> TaskGraph:
    """Read a graph from an open text file."""
    tokens: List[str] = []
    for line in fh:
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.extend(body.split())
    if not tokens:
        raise GraphError("empty STG input")
    it = iter(tokens)

    def next_int() -> int:
        try:
            return int(next(it))
        except StopIteration:
            raise GraphError("truncated STG input") from None
        except ValueError as exc:
            raise GraphError(f"bad STG token: {exc}") from None

    def next_float() -> float:
        try:
            return float(next(it))
        except StopIteration:
            raise GraphError("truncated STG input") from None
        except ValueError as exc:
            raise GraphError(f"bad STG token: {exc}") from None

    n = next_int()
    # By node id, filled as records arrive: a huge declared count costs
    # nothing until that many records have actually been read.
    by_node: Dict[int, float] = {}
    edges: Dict[Tuple[int, int], float] = {}
    for _ in range(n):
        node = next_int()
        if not (0 <= node < n):
            raise GraphError(f"node id {node} out of range")
        if node in by_node:
            raise GraphError(f"duplicate node record {node}")
        by_node[node] = next_float()
        n_parents = next_int()
        for _ in range(n_parents):
            parent = next_int()
            cost = next_float()
            edges[(parent, node)] = cost
    remainder = list(it)
    if remainder:
        raise GraphError(f"trailing STG tokens: {remainder[:4]}")
    weights = [by_node[node] for node in range(n)]
    return TaskGraph(weights, edges, name=name)
