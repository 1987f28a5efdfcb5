"""The stable one-call facade: ``repro.api``.

Internal modules refactor freely between PRs; this module is the
surface that does not move.  Everything a caller typically wants is a
single call away::

    from repro import api

    schedule = api.schedule(graph, machine=3, spec="mcp")
    report   = api.simulate(graph, machine=3, spec="mcp", noise="lognormal:0.3")
    table    = api.rank([graph], machine=3, specs=["mcp", "dls", "param:hlfet"])

Inputs are deliberately forgiving:

* *graphs* — a :class:`~repro.core.graph.TaskGraph`, STG-format text
  (see :mod:`repro.io.stg`), or a JSON-style mapping
  ``{"weights": [...], "edges": [[u, v, cost], ...], "name": "..."}``;
* *machines* — a :class:`~repro.core.machine.Machine`, a processor
  count, a mapping ``{"procs": n, "speeds": [...]}`` or ``None`` (one
  processor per task, the UNC convention);
* *specs* — anything :func:`repro.get_scheduler` accepts: paper
  acronyms (``"MCP"``), ``param:`` component specs, ``online:`` specs.

The scheduling service (:mod:`repro.service`), the quickstart example
and the README snippets all go through this facade, and the
fingerprint helpers below define the service's schedule-cache identity:
:func:`request_key` is the exact ``(graph, machine, spec)`` triple
identity — equal keys guarantee bit-identical schedules.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from .core.exceptions import GraphError, MachineError
from .core.graph import TaskGraph
from .core.machine import Machine, NetworkMachine
from .core.schedule import Schedule, validate as validate_schedule

__all__ = [
    "GraphLike",
    "MachineLike",
    "as_graph",
    "as_machine",
    "graph_fingerprint",
    "machine_fingerprint",
    "spec_fingerprint",
    "request_key",
    "schedule",
    "simulate",
    "rank",
]

GraphLike = Union[TaskGraph, str, Mapping[str, Any]]
MachineLike = Union[Machine, int, Mapping[str, Any], None]


# ----------------------------------------------------------------------
# input adapters
# ----------------------------------------------------------------------
def as_graph(source: GraphLike, name: Optional[str] = None) -> TaskGraph:
    """Coerce ``source`` to a :class:`TaskGraph`.

    Accepts a ready ``TaskGraph`` (returned as-is), STG-format text, or
    a mapping with ``weights`` (list of computation costs) and
    ``edges`` (list of ``[u, v, cost]`` triples, or a mapping).
    Raises :class:`~repro.core.exceptions.GraphError` on anything
    malformed — never a bare ``KeyError``/``TypeError``.
    """
    if isinstance(source, TaskGraph):
        return source
    if isinstance(source, str):
        from .io.stg import loads_stg

        return loads_stg(source, name=name or "stg")
    if isinstance(source, Mapping):
        if "weights" not in source:
            raise GraphError("graph mapping needs a 'weights' list")
        try:
            weights = [float(w) for w in source["weights"]]
        except (TypeError, ValueError) as exc:
            raise GraphError(
                f"graph 'weights' must be numbers ({exc})") from None
        # TaskGraph converts the [u, v, cost] list to arrays itself;
        # a triple that does not convert surfaces as a GraphError.
        try:
            return TaskGraph(weights, source.get("edges", []),
                             name=name or str(source.get("name", "request")))
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphError(
                f"graph 'edges' must be [u, v, cost] triples ({exc})"
            ) from None
    raise GraphError(
        f"cannot build a task graph from {type(source).__name__}")


def as_machine(source: MachineLike, graph: TaskGraph) -> Machine:
    """Coerce ``source`` to a :class:`Machine` for ``graph``.

    ``None`` means one processor per task (always sufficient); an int
    is a bounded homogeneous clique; a mapping carries ``procs`` plus
    optional per-processor ``speeds``.
    """
    if source is None:
        return Machine.unbounded(graph)
    if isinstance(source, Machine):
        return source
    if isinstance(source, int):
        return Machine(source)
    if isinstance(source, Mapping):
        try:
            procs = source.get("procs")
            speeds = source.get("speeds")
            if procs is None and speeds is None:
                return Machine.unbounded(graph)
            if procs is None:
                procs = len(speeds)  # type: ignore[arg-type]
            return Machine(int(procs), speeds=speeds)
        except (TypeError, ValueError) as exc:
            raise MachineError(f"bad machine mapping ({exc})") from None
    raise MachineError(
        f"cannot build a machine from {type(source).__name__}")


# ----------------------------------------------------------------------
# fingerprints — the schedule-cache identity
# ----------------------------------------------------------------------
def graph_fingerprint(graph: GraphLike) -> str:
    """Content digest of the graph (name excluded); see
    :meth:`TaskGraph.fingerprint`."""
    return as_graph(graph).fingerprint()


def machine_fingerprint(machine: Machine) -> str:
    """Stable identity of a machine model.

    Cliques are identified by processor count and speed profile;
    network machines additionally hash their exact link set (mirroring
    :meth:`repro.bench.runner.BenchConfig.fingerprint`).
    """
    fp = f"clique:{machine.num_procs}"
    if machine.speeds is not None:
        fp += ";speeds=" + ",".join(f"{s:g}" for s in machine.speeds)
    if isinstance(machine, NetworkMachine):
        import hashlib

        topo = machine.topology
        links = hashlib.sha256(repr(topo.links).encode()).hexdigest()[:12]
        fp = (f"net:{topo.name}:{topo.num_procs}p:{links}"
              f";bw={topo.bandwidth:g}")
    return fp


def spec_fingerprint(spec: str) -> str:
    """Canonical identity of a scheduler spec.

    Two spellings of the same spec (axis order, case, defaults spelled
    out or not) share one fingerprint; an unknown spec raises the
    resolver's ``KeyError``/``ValueError``.
    """
    from .algorithms import get_scheduler

    return get_scheduler(spec).name


def request_key(graph: GraphLike, machine: MachineLike = None,
                spec: str = "mcp") -> str:
    """The full ``(graph, machine, spec)`` cache key.

    Equal keys guarantee bit-identical schedules from the deterministic
    schedulers — the invariant the service's schedule cache rests on
    (property-tested in ``tests/test_api.py``).
    """
    g = as_graph(graph)
    m = as_machine(machine, g)
    return (f"{graph_fingerprint(g)}|{machine_fingerprint(m)}"
            f"|{spec_fingerprint(spec)}")


# ----------------------------------------------------------------------
# one-call entry points
# ----------------------------------------------------------------------
def schedule(graph: GraphLike, machine: MachineLike = None,
             spec: str = "mcp", *, validate: bool = True) -> Schedule:
    """Schedule ``graph`` on ``machine`` with ``spec``; validated.

    The one-call form of parse → resolve → schedule → validate.  With
    ``validate=True`` (default) the returned schedule has passed every
    model invariant (precedence, communication, no-overlap).
    """
    from .algorithms import get_scheduler

    g = as_graph(graph)
    m = as_machine(machine, g)
    sched = get_scheduler(spec).schedule(g, m)
    if validate:
        network = m.topology if isinstance(m, NetworkMachine) else None
        validate_schedule(sched, network=network)
    return sched


def simulate(graph: GraphLike, machine: MachineLike = None,
             spec: str = "mcp", *, noise: str = "lognormal:0.3",
             trials: int = 100, seed: int = 0):
    """Monte-Carlo execute ``spec``'s schedule under duration noise.

    ``noise`` is the CLI's ``DIST:PARAM`` grammar (``"lognormal:0.3"``,
    ``"uniform:0.2"``, ``"none:0"`` for exact replay).  Returns the
    aggregated :class:`~repro.sim.robustness.RobustnessRow`.
    """
    from .sim import PerturbationModel, monte_carlo, perturbation_from_dict

    kind, _, param = noise.partition(":")
    if kind in ("none", "exact", ""):
        perturb = PerturbationModel()
    else:
        try:
            perturb = perturbation_from_dict(
                {"duration": {"dist": kind, "param": float(param or 0)}})
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad noise spec {noise!r}: {exc}") from None
    sched = schedule(graph, machine, spec)
    from .algorithms import get_scheduler

    resolved = get_scheduler(spec)
    row, _samples = monte_carlo(sched, perturb=perturb, trials=trials,
                                seed=seed, algorithm=resolved.name,
                                klass=resolved.klass)
    return row


def rank(graphs: Union[GraphLike, Iterable[GraphLike]],
         machine: MachineLike = None,
         specs: Sequence[str] = ("HLFET", "ISH", "MCP", "ETF", "DLS",
                                 "LAST")) -> List[Dict[str, Any]]:
    """Rank ``specs`` over ``graphs`` by average NSL rank.

    Returns one dict per spec — ``{"spec", "avg_rank", "mean_nsl",
    "wins"}`` — sorted best-first, mirroring the paper's ranking
    methodology (:func:`repro.metrics.ranking.average_ranks`).
    A single graph may be passed bare.
    """
    from .metrics.measures import RunResult, nsl
    from .metrics.ranking import average_ranks

    if isinstance(graphs, (TaskGraph, str, Mapping)):
        graphs = [graphs]
    rows: List[RunResult] = []
    mean_nsl: Dict[str, List[float]] = {}
    for i, source in enumerate(graphs):
        g = as_graph(source)
        for spec in specs:
            sched = schedule(g, machine, spec)
            canonical = spec_fingerprint(spec)
            rows.append(RunResult(
                algorithm=canonical, klass="", graph=g.name or f"g{i}",
                num_nodes=g.num_nodes, length=sched.length,
                nsl=nsl(sched), procs_used=sched.processors_used(),
                runtime_s=0.0))
            mean_nsl.setdefault(canonical, []).append(nsl(sched))
    ranks = dict(average_ranks(rows))
    wins: Dict[str, int] = {name: 0 for name in ranks}
    by_graph: Dict[str, List] = {}
    for r in rows:
        by_graph.setdefault(r.graph, []).append(r)
    for cell_rows in by_graph.values():
        best = min(r.length for r in cell_rows)
        for r in cell_rows:
            if r.length <= best:
                wins[r.algorithm] += 1
    out = [{"spec": name, "avg_rank": ranks[name],
            "mean_nsl": sum(mean_nsl[name]) / len(mean_nsl[name]),
            "wins": wins[name]}
           for name in sorted(ranks, key=lambda n: (ranks[n], n))]
    return out
