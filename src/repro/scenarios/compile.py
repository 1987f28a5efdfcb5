"""Compiling scenario specs down to the parallel grid engine.

A validated :class:`~repro.scenarios.spec.ScenarioSpec` lowers to a
list of :class:`Variant` objects — one per sweep point — each carrying
the concrete graphs, the :class:`~repro.bench.runner.BenchConfig` and
the algorithm names for one engine call.  :func:`run_scenario` is the
one loop over the variants; its ``engine`` names the measurement (the
static grid, Monte-Carlo execution or the adversarial search), and
every engine runs on the parallel grid executor: ``jobs`` fans cells
over worker processes, a :class:`~repro.bench.store.ResultStore`
persists rows keyed by the config fingerprint, and ``resume`` replays
cached cells verbatim.  Every run comes back as one
:class:`ScenarioResult`.

Everything here is deterministic: graphs come from seeded generators,
variants enumerate the sweep's cartesian product in axis order, and
rows keep the engine's serial order — compiling the same spec twice
yields cell-for-cell identical grids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..bench.runner import BenchConfig
from ..bench.tables import Table
from ..core.graph import TaskGraph
from ..metrics.measures import RunResult
from ..network.topology import Topology
from .spec import (
    ScenarioSpec,
    SpecError,
    expand_algorithms,
    sweep_points,
    validate_spec,
    variant_document,
)

__all__ = [
    "Variant",
    "CompiledScenario",
    "ScenarioResult",
    "compile_scenario",
    "online_counterpart",
    "run_scenario",
    "scenario_tables",
    "sim_tables",
    "adv_tables",
    "online_tables",
]


# ----------------------------------------------------------------------
# graph building
# ----------------------------------------------------------------------
def _build_graphs(graphs: Mapping, full: Optional[bool]
                  ) -> Tuple[List[TaskGraph], Optional[Dict[str, float]]]:
    """Materialise the graph axis; returns (graphs, constructed optima)."""
    from ..bench import suites
    from ..generators.random_graphs import rgbos_graph, rgnos_graph
    from ..generators.rgpos import rgpos_instance
    from ..generators.traced import cholesky_graph

    optima: Optional[Dict[str, float]] = None
    if "suite" in graphs:
        out = suites.get_suite(graphs["suite"],
                               full=graphs.get("full", full))
    else:
        gen = graphs["generator"]
        seed = int(graphs.get("seed", 0))
        out = []
        if gen == "rgnos":
            for v in graphs["sizes"]:
                for ccr in graphs["ccrs"]:
                    for par in graphs["parallelisms"]:
                        out.append(rgnos_graph(
                            v, ccr, par,
                            seed=seed + 10_000 * int(10 * ccr)
                            + 100 * par + v))
        elif gen == "rgbos":
            for v in graphs["sizes"]:
                for ccr in graphs["ccrs"]:
                    out.append(rgbos_graph(
                        v, ccr, seed=seed + 1000 * int(10 * ccr) + v))
        elif gen == "rgpos":
            num_procs = int(graphs.get("procs", 8))
            optima = {}
            for v in graphs["sizes"]:
                for ccr in graphs["ccrs"]:
                    inst = rgpos_instance(
                        v, ccr, num_procs=num_procs,
                        seed=seed + 2000 * int(10 * ccr) + v,
                        chain_processors=1,
                        extra_edge_factor=0.6 * v)
                    out.append(inst.graph)
                    optima[inst.graph.name] = inst.optimal_length
        elif gen == "cholesky":
            ccr = float(graphs.get("ccr", 1.0))
            out = [cholesky_graph(n, ccr=ccr) for n in graphs["dims"]]
        else:  # pragma: no cover - schema rejects unknown generators
            raise SpecError("graphs.generator", f"unhandled {gen!r}")
    limit = graphs.get("limit")
    if limit is not None:
        out = out[:limit]
        if optima is not None:
            keep = {g.name for g in out}
            optima = {k: v for k, v in optima.items() if k in keep}
    return out, optima


# ----------------------------------------------------------------------
# machine building
# ----------------------------------------------------------------------
def _build_topology(apn: Mapping) -> Topology:
    kind = apn["kind"]
    if kind == "hypercube":
        topo = Topology.hypercube(apn["dim"])
    elif kind == "ring":
        topo = Topology.ring(apn["procs"])
    elif kind == "chain":
        topo = Topology.chain(apn["procs"])
    elif kind == "star":
        topo = Topology.star(apn["procs"])
    elif kind == "clique":
        topo = Topology.clique(apn["procs"])
    elif kind == "mesh2d":
        topo = Topology.mesh2d(apn["rows"], apn["cols"])
    else:  # random
        topo = Topology.random_connected(
            apn["procs"], extra_links=apn.get("extra_links", 0),
            seed=apn.get("seed", 0))
    bandwidth = apn.get("bandwidth", 1.0)
    if bandwidth != 1.0:
        topo = topo.with_bandwidth(bandwidth)
    return topo


def _build_sim(simulate: Mapping):
    """Lower a validated ``simulate:`` block to a ``SimConfig``."""
    if not simulate:
        return None
    from ..sim.bench import SimConfig
    from ..sim.perturb import perturbation_from_dict

    return SimConfig(
        perturb=perturbation_from_dict(simulate.get("perturb", {})),
        network=simulate.get("network", "auto"),
        trials=int(simulate.get("trials", 100)),
        seed=int(simulate.get("seed", 0)),
        net_scale=float(simulate.get("scale", 1.0)),
        net_latency=float(simulate.get("latency", 0.0)),
    )


def _build_adv(adversarial: Mapping):
    """Lower a validated ``adversarial:`` block to a ``SearchConfig``."""
    if not adversarial:
        return None
    from ..adversarial.search import SearchConfig

    return SearchConfig(
        pair=tuple(adversarial["pair"]),
        objective=adversarial.get("objective", "ratio"),
        steps=int(adversarial.get("steps", 200)),
        chains=int(adversarial.get("chains", 4)),
        temperature=float(adversarial.get("temperature", 0.02)),
        cooling=float(adversarial.get("cooling", 0.97)),
        seed=int(adversarial.get("seed", 0)),
        ops=tuple(adversarial.get("ops", ())),
        trials=int(adversarial.get("trials", 25)),
        noise=float(adversarial.get("noise", 0.3)),
    )


def online_counterpart(algorithm: str, imode: str, seed: int = 0) -> str:
    """The canonical ``online:`` name of a static algorithm under ``imode``.

    ``algorithm`` must be component-expressible — one of the named BNP
    designs or a ``param:`` spec (the schema's ``online`` check
    guarantees this for compiled scenarios).
    """
    from ..algorithms.components import BNP_SPECS, parse_spec
    from ..sim.online import OnlineSchedulerSpec

    base = (parse_spec(algorithm)
            if algorithm.lower().startswith("param:")
            else BNP_SPECS[algorithm.upper()])
    return OnlineSchedulerSpec(
        prio=base.prio, ready=base.ready, proc=base.proc,
        insert=base.insert, imode=imode, seed=seed,
    ).canonical()


def _expand_online(algorithms: Tuple[str, ...],
                   online: Mapping) -> Tuple[str, ...]:
    """Append each algorithm's online counterparts, one per imode."""
    if not online:
        return algorithms
    from ..sim.online import IMODES

    seed = int(online.get("seed", 0))
    out = list(algorithms)
    for imode in online.get("imodes", IMODES):
        for alg in algorithms:
            name = online_counterpart(alg, imode, seed)
            if name not in out:
                out.append(name)
    return tuple(out)


def _build_config(machine: Mapping) -> BenchConfig:
    procs = machine.get("bnp_procs")
    speeds = machine.get("bnp_speeds")
    return BenchConfig(
        bnp_procs=None if procs in (None, "unbounded") else int(procs),
        bnp_speeds=tuple(speeds) if speeds else None,
        apn_topology=(_build_topology(machine["apn"])
                      if "apn" in machine else None),
        validate_schedules=machine.get("validate", True),
    )


# ----------------------------------------------------------------------
# compiled form
# ----------------------------------------------------------------------
@dataclass
class Variant:
    """One sweep point, ready for a ``run_grid`` call.

    ``sim`` is present when the spec carries a ``simulate:`` block —
    the same variant then also compiles to one
    :func:`repro.sim.bench.run_sim_grid` call.
    """

    label: str
    overrides: Dict[str, object]
    graphs: List[TaskGraph]
    config: BenchConfig
    algorithms: Tuple[str, ...]
    optima: Optional[Dict[str, float]] = None
    sim: Optional[object] = None  # repro.sim.bench.SimConfig
    adv: Optional[object] = None  # repro.adversarial.search.SearchConfig
    #: The validated ``online:`` block; when non-empty, ``algorithms``
    #: already includes the per-imode online counterparts.
    online: Dict[str, object] = field(default_factory=dict)

    @property
    def num_cells(self) -> int:
        return len(self.graphs) * len(self.algorithms)


@dataclass
class CompiledScenario:
    """A spec lowered to grid-engine variants."""

    spec: ScenarioSpec
    variants: List[Variant]

    @property
    def num_cells(self) -> int:
        return sum(v.num_cells for v in self.variants)


def _variant_label(overrides: Mapping[str, object]) -> str:
    if not overrides:
        return "base"
    parts = []
    for path, value in overrides.items():
        leaf = path.split(".")[-1]
        parts.append(f"{leaf}={json.dumps(value, separators=(',', ':'))}"
                     if isinstance(value, (dict, list))
                     else f"{leaf}={value}")
    return ",".join(parts)


def compile_scenario(spec: ScenarioSpec,
                     full: Optional[bool] = None) -> CompiledScenario:
    """Lower a validated spec to concrete grid-engine variants.

    ``full`` is the CLI's scale flag; it only affects ``graphs.suite``
    axes that do not pin their own ``full`` value.  Compilation is
    deterministic — same spec, same variants, same graphs.
    """
    variants: List[Variant] = []
    for overrides in sweep_points(spec):
        doc = variant_document(spec, overrides)
        sub = validate_spec(doc)
        graphs, optima = _build_graphs(sub.graphs, full)
        if not graphs:
            raise SpecError("graphs", "selection produced no graphs")
        variants.append(Variant(
            label=_variant_label(overrides),
            overrides=dict(overrides),
            graphs=graphs,
            config=_build_config(sub.machine),
            algorithms=_expand_online(expand_algorithms(sub.algorithms),
                                      sub.online),
            optima=optima,
            sim=_build_sim(sub.simulate),
            adv=_build_adv(sub.adversarial),
            online=dict(sub.online),
        ))
    return CompiledScenario(spec=spec, variants=variants)


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
@dataclass
class ScenarioResult:
    """Rows of one scenario run, grouped per variant label.

    Every engine fills the same shape: ``rows`` pairs each variant's
    label with its rows — :class:`~repro.metrics.measures.RunResult`
    from the grid, :class:`~repro.sim.bench.RobustnessRow` from the
    sim grid, :class:`~repro.adversarial.search.SearchRow` from the
    search.  ``variants`` holds the compiled variants behind the rows,
    in the same order; rows read back from a store have none.
    """

    spec: ScenarioSpec
    rows: List[Tuple[str, List]] = field(default_factory=list)
    variants: List[Variant] = field(default_factory=list)

    def all_rows(self) -> List:
        return [row for _, rows in self.rows for row in rows]


def _grid_rows(variant: Variant, **engine) -> List[RunResult]:
    from ..bench.runner import run_grid

    return run_grid(list(variant.algorithms), variant.graphs,
                    config=variant.config, optima=variant.optima, **engine)


def _sim_rows(variant: Variant, **engine) -> List:
    # A variant without a simulate block still runs, deterministically
    # (zero noise) — useful as a sanity anchor.
    from ..sim.bench import SimConfig, run_sim_grid

    return run_sim_grid(list(variant.algorithms), variant.graphs,
                        config=variant.config,
                        sim=variant.sim or SimConfig(), **engine)


def _search_rows(variant: Variant, **engine) -> List:
    if variant.adv is None:
        raise SpecError(
            "adversarial",
            f"variant {variant.label!r} has no adversarial block — "
            "add one to the spec (or to every sweep point)")
    from ..adversarial.search import run_search

    return run_search(variant.adv, variant.graphs, bench=variant.config,
                      **engine)


#: The engine each measurement runs a variant through.
_ENGINES = {"grid": _grid_rows, "sim": _sim_rows, "search": _search_rows}


def run_scenario(compiled: CompiledScenario,
                 jobs: Optional[int] = None,
                 store=None,
                 resume: bool = False,
                 engine: str = "grid") -> ScenarioResult:
    """Run every variant through one engine, in variant order.

    ``engine`` picks the measurement: ``"grid"`` schedules each cell
    (:func:`~repro.bench.runner.run_grid`), ``"sim"`` also executes the
    schedules Monte-Carlo under the variant's ``simulate:`` block
    (:func:`~repro.sim.bench.run_sim_grid`), and ``"search"`` anneals
    the variant's ``adversarial:`` pair from its graphs
    (:func:`~repro.adversarial.search.run_search`).  All variants share
    one store: fingerprints (and graph names) keep the cache keys
    apart, and variants that agree on a cell reuse each other's rows
    under ``resume``.
    """
    try:
        run = _ENGINES[engine]
    except KeyError:
        raise ValueError(f"unknown engine {engine!r} (expected one of "
                         f"{', '.join(_ENGINES)})") from None
    result = ScenarioResult(compiled.spec, variants=compiled.variants)
    for variant in compiled.variants:
        result.rows.append(
            (variant.label, run(variant, jobs=jobs, store=store,
                                resume=resume)))
    return result


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _metric_cell(row: RunResult, metric: str) -> str:
    value = getattr(row, "degradation" if metric == "degradation"
                    else metric)
    if value is None:
        return "-"
    if metric == "procs_used":
        return str(value)
    if metric == "runtime_s":
        return f"{value:.4f}"
    return f"{value:.3f}" if metric != "length" else f"{value:g}"


def scenario_tables(result: ScenarioResult) -> Tuple[Table, Table]:
    """Render a run as (per-cell detail, per-variant summary) tables."""
    spec = result.spec
    metrics = list(spec.metrics)

    detail_rows: List[List[str]] = []
    for label, rows in result.rows:
        for row in rows:
            detail_rows.append(
                [label, row.graph, str(row.num_nodes),
                 row.algorithm]
                + [_metric_cell(row, m) for m in metrics]
            )
    detail = Table(
        f"scenario:{spec.name}",
        spec.description or f"Scenario {spec.name}",
        ["variant", "graph", "v", "algorithm"] + metrics,
        detail_rows,
    )

    summary_rows: List[List[str]] = []
    for variant, (_, rows) in zip(result.variants, result.rows):
        per_alg: Dict[str, List[RunResult]] = {}
        for row in rows:
            per_alg.setdefault(row.algorithm, []).append(row)
        for alg in variant.algorithms:
            cells = per_alg.get(alg, [])
            line = [variant.label, alg, str(len(cells))]
            for metric in metrics:
                values = []
                for row in cells:
                    v = (row.degradation if metric == "degradation"
                         else getattr(row, metric))
                    if v is not None:
                        values.append(float(v))
                line.append(f"{sum(values) / len(values):.3f}"
                            if values else "-")
            summary_rows.append(line)
    summary = Table(
        f"scenario:{spec.name}:summary",
        f"Per-variant means over {len(result.rows)} variant(s)",
        ["variant", "algorithm", "cells"] + [f"mean {m}" for m in metrics],
        summary_rows,
        notes=[f"variant axes: {', '.join(spec.sweep) or '(none)'}"],
    )
    return detail, summary


def adv_tables(result: ScenarioResult,
               frontier=None) -> Tuple[Table, Table]:
    """Render a search run as (per-chain detail, Pareto front) tables.

    The detail table lists every chain's best instance; the front
    table the non-dominated (size, score) points per pair — pass the
    run's updated :class:`~repro.adversarial.frontier.ParetoFrontier`,
    or omit it to build one from this run's rows alone.
    """
    from ..adversarial.frontier import ParetoFrontier

    spec = result.spec
    detail_rows: List[List[str]] = []
    for label, rows in result.rows:
        for r in rows:
            detail_rows.append([
                label, r.algorithm, r.graph, r.objective,
                f"{r.start_score:.3f}", f"{r.score:.3f}",
                f"{r.length_a:g}", f"{r.length_b:g}",
                str(r.num_nodes), str(r.num_edges),
                f"{r.accepted}/{r.steps}",
                ">".join(r.lineage[-4:]) or "-",
            ])
    detail = Table(
        f"adv:{spec.name}",
        spec.description or f"Adversarial search {spec.name}",
        ["variant", "pair", "chain", "objective", "seed score",
         "best score", "len(A)", "len(B)", "v", "e", "accepted",
         "lineage tail"],
        detail_rows,
        notes=["score: ratio = makespan(A)/makespan(B); slack = "
               "slack(B)-slack(A); sim = executed/predicted makespan "
               "of A — larger is always worse for A"],
    )

    if frontier is None:
        frontier = ParetoFrontier()
        frontier.update(result.all_rows())
    front_rows: List[List[str]] = []
    for pair in frontier.pairs():
        for p in frontier.front(pair):
            front_rows.append([pair, str(p.num_nodes), f"{p.score:.3f}",
                               p.objective, p.instance, p.chain])
    front = Table(
        f"adv:{spec.name}:frontier",
        f"Pareto front over instance size vs score "
        f"({len(frontier.pairs())} pair(s))",
        ["pair", "v", "score", "objective", "instance", "chain"],
        front_rows,
        notes=["non-dominated points only: no kept instance is both "
               "smaller and worse than another"],
    )
    return detail, front


@dataclass
class _OnlineRankRow:
    """Adapter relabelling an online row under its static algorithm."""

    algorithm: str
    graph: str
    length: float


def online_tables(result: ScenarioResult) -> Table:
    """Render the static-vs-online rank shift of a scenario run.

    For every variant carrying an ``online:`` block, each algorithm's
    mean makespan and paper-style average rank are compared between its
    static schedule and its event-driven execution under each
    information mode.  Ranks are computed *within* each group (static
    algorithms against each other, online counterparts of one mode
    against each other), so the shift isolates re-ranking: a positive
    shift means partial information hurts this algorithm more than its
    competitors.
    """
    from ..metrics.ranking import average_ranks
    from ..sim.online import IMODES

    spec = result.spec
    out_rows: List[List[str]] = []
    for variant, (_, rows) in zip(result.variants, result.rows):
        if not variant.online:
            continue
        statics = [a for a in variant.algorithms
                   if not a.lower().startswith("online:")]
        seed = int(variant.online.get("seed", 0))
        static_rank = dict(average_ranks(
            [r for r in rows if r.algorithm in statics], key="length"))
        by_alg: Dict[str, List[RunResult]] = {}
        for r in rows:
            by_alg.setdefault(r.algorithm, []).append(r)
        for imode in variant.online.get("imodes", IMODES):
            names = {alg: online_counterpart(alg, imode, seed)
                     for alg in statics}
            online_rank = dict(average_ranks(
                [_OnlineRankRow(alg, r.graph, r.length)
                 for alg, oname in names.items()
                 for r in by_alg.get(oname, [])], key="length"))
            for alg in statics:
                s_rows = by_alg.get(alg, [])
                o_rows = by_alg.get(names[alg], [])
                if not s_rows or not o_rows:
                    continue
                s_mean = sum(r.length for r in s_rows) / len(s_rows)
                o_mean = sum(r.length for r in o_rows) / len(o_rows)
                shift = online_rank[alg] - static_rank[alg]
                out_rows.append([
                    variant.label, alg, imode,
                    f"{s_mean:.1f}", f"{o_mean:.1f}",
                    f"{100.0 * (o_mean - s_mean) / s_mean:+.2f}",
                    f"{static_rank[alg]:.2f}", f"{online_rank[alg]:.2f}",
                    f"{shift:+.2f}",
                ])
    return Table(
        f"online:{spec.name}",
        f"Static vs online makespans per information mode "
        f"({spec.description or spec.name})",
        ["variant", "algorithm", "imode", "static", "online", "gap%",
         "rank(static)", "rank(online)", "shift"],
        out_rows,
        notes=["gap% is the mean makespan inflation of executing "
               "event-driven under the mode's estimates; ranks are "
               "within-group per-graph averages (1 = best), so under "
               "'exact' with zero noise online reproduces the static "
               "schedule and every gap and shift is 0"],
    )


def sim_tables(result: ScenarioResult) -> Tuple[Table, Table]:
    """Render a sim run as (per-cell detail, robustness ranking) tables.

    The detail table lists every Monte-Carlo cell's distribution
    statistics; the ranking table shows, per variant, each algorithm's
    paper-style average rank by *predicted* vs *simulated mean*
    makespan and the shift between them — positive shift means the
    algorithm looks worse once its schedules actually execute.
    """
    from ..sim.robustness import robustness_ranking

    spec = result.spec
    detail_rows: List[List[str]] = []
    for label, rows in result.rows:
        for r in rows:
            detail_rows.append([
                label, r.graph, str(r.num_nodes), r.algorithm,
                f"{r.predicted:g}", f"{r.mean:.1f}", f"{r.std:.1f}",
                f"{r.p95:.1f}", f"{r.worst:.1f}",
                f"{r.mean_degradation_pct:+.2f}",
                f"{r.p95_degradation_pct:+.2f}", f"{r.slack:.3f}",
            ])
    trials = {r.trials for _, rows in result.rows for r in rows}
    detail = Table(
        f"sim:{spec.name}",
        spec.description or f"Simulated scenario {spec.name}",
        ["variant", "graph", "v", "algorithm", "predicted", "mean",
         "std", "p95", "worst", "degr%", "p95degr%", "slack"],
        detail_rows,
        notes=[f"{'/'.join(str(t) for t in sorted(trials)) or '?'} "
               "Monte-Carlo trial(s) per cell; degr% is change of the "
               "mean (p95) executed makespan vs the predicted one"],
    )

    ranking_rows: List[List[str]] = []
    for label, rows in result.rows:
        for alg, pred, sim, shift in robustness_ranking(rows):
            ranking_rows.append([
                label, alg, f"{pred:.2f}", f"{sim:.2f}",
                f"{shift:+.2f}",
            ])
    ranking = Table(
        f"sim:{spec.name}:ranking",
        f"Robustness ranking over {len(result.rows)} variant(s)",
        ["variant", "algorithm", "rank(predicted)", "rank(simulated)",
         "shift"],
        ranking_rows,
        notes=["average per-graph ranks (1 = best); positive shift = "
               "ranked worse under execution noise than the static "
               "comparison suggests"],
    )
    return detail, ranking
