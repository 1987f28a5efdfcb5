"""Monte-Carlo robustness: makespan distributions and schedule slack.

A single simulated trial says little; robustness is a property of the
*distribution* of executed makespans.  :func:`monte_carlo` runs N
seeded trials of one schedule and folds them into a
:class:`RobustnessRow` — mean/std/median/p95/worst makespan, mean and
tail degradation against the predicted makespan, and the schedule's
static *slack* (how much a task can slip before the makespan moves,
averaged over tasks — schedules with more slack absorb more noise).

Trials are reproducible per cell: the noise stream is derived from
``(seed, algorithm, graph name)`` via :func:`repro.core.rng.derive_rng`,
so a cell draws identical noise whether it runs first, last, or in a
worker process — which is what lets the sim bench layer cache rows in a
result store like any other grid cell.

:func:`robustness_ranking` reuses the paper's average-rank machinery
(:mod:`repro.metrics.ranking`) to rank algorithms by *simulated* mean
makespan next to their predicted-makespan ranks: the rank shift is the
headline number of the whole subsystem — how much of the paper's
ranking survives execution noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.rng import derive_rng
from ..core.schedule import Schedule
from ..metrics.ranking import average_ranks
from .engine import percent_degradation, simulate
from .netmodel import NetworkModel, replay_network
from .perturb import DETERMINISTIC, PerturbationModel

__all__ = [
    "RobustnessRow",
    "schedule_slack",
    "monte_carlo",
    "robustness_ranking",
]


@dataclass(frozen=True)
class RobustnessRow:
    """One (algorithm, graph) Monte-Carlo cell — the sim grid's row type.

    Makespan statistics are over the executed trials;
    ``mean_degradation_pct``/``p95_degradation_pct`` compare them to the
    static schedule's prediction (0 == execution matches prediction).
    ``slack`` is the predicted schedule's mean per-task slack as a
    fraction of its makespan.
    """

    algorithm: str
    klass: str
    graph: str
    num_nodes: int
    predicted: float
    trials: int
    mean: float
    std: float
    p50: float
    p95: float
    worst: float
    mean_degradation_pct: float
    p95_degradation_pct: float
    slack: float
    runtime_s: float = 0.0


def _sequence_edges(schedule: Schedule) -> List[Tuple[int, int]]:
    """Consecutive-task pairs on every processor timeline."""
    pairs: List[Tuple[int, int]] = []
    for p in schedule.used_proc_ids():
        tasks = schedule.tasks_on(p)
        pairs.extend((a.node, b.node) for a, b in zip(tasks, tasks[1:]))
    return pairs


def schedule_slack(schedule: Schedule) -> float:
    """Mean per-task slack of a schedule, as a fraction of its makespan.

    Slack of a task is how far its start can slip — with the mapping,
    the processor orders, and every communication delay held fixed —
    before the makespan grows.  Computed by one backward pass over the
    combined DAG (precedence edges plus per-processor sequence edges);
    communication delays are the ones the schedule actually realised
    (recorded message arrivals for APN schedules, edge costs for the
    clique model).  An all-critical schedule scores 0.
    """
    g = schedule.graph
    n = g.num_nodes
    if n == 0 or schedule.length <= 0:
        return 0.0
    makespan = schedule.length
    latest_finish = [makespan] * n

    # Realised cross-processor delay of each communication edge.
    def comm_delay(u: int, v: int, cost: float) -> float:
        if schedule.proc_of(u) == schedule.proc_of(v):
            return 0.0
        msg = schedule.messages.get((u, v))
        if msg is not None:
            return msg.arrival - schedule.finish_of(u)
        return cost

    # Descending start order is a reverse topological order of the
    # combined DAG (children and processor successors all start later),
    # so every constraint on a node lands before the node is processed.
    order = sorted(range(n), key=schedule.start_of, reverse=True)
    latest_start = [0.0] * n
    prev_on_proc: Dict[int, int] = {
        v: u for u, v in _sequence_edges(schedule)}
    for v in order:
        duration = schedule.finish_of(v) - schedule.start_of(v)
        latest_start[v] = latest_finish[v] - duration
        for u, cost in zip(*g.pred_pairs(v)):
            bound = latest_start[v] - comm_delay(u, v, cost)
            if bound < latest_finish[u]:
                latest_finish[u] = bound
        u = prev_on_proc.get(v)
        if u is not None and latest_start[v] < latest_finish[u]:
            latest_finish[u] = latest_start[v]
    slacks = [latest_start[v] - schedule.start_of(v) for v in range(n)]
    return max(0.0, float(np.mean(slacks))) / makespan


def monte_carlo(schedule: Schedule,
                perturb: PerturbationModel = DETERMINISTIC,
                network: Optional[NetworkModel] = None,
                trials: int = 100,
                seed: int = 0,
                algorithm: str = "",
                klass: str = "") -> Tuple[RobustnessRow, np.ndarray]:
    """Run ``trials`` seeded executions of ``schedule``.

    Returns the aggregated :class:`RobustnessRow` plus the raw makespan
    samples (callers wanting histograms keep the array; the row is what
    stores persist).  ``algorithm``/``klass`` label the row and key the
    noise stream.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = derive_rng(seed, "mc", algorithm, schedule.graph.name)
    net = network if network is not None else replay_network(schedule)
    # A deterministic model draws nothing, so every trial replays the
    # same timeline: execute once and broadcast the point mass.
    executions = 1 if perturb.is_deterministic else trials
    makespans = np.empty(trials)
    for t in range(executions):
        makespans[t] = simulate(schedule, perturb=perturb, network=net,
                                rng=rng, label=algorithm or None).makespan
    makespans[executions:] = makespans[0]
    predicted = schedule.length
    mean = float(makespans.mean())
    p95 = float(np.percentile(makespans, 95))

    n = schedule.graph.num_nodes
    row = RobustnessRow(
        algorithm=algorithm,
        klass=klass,
        graph=schedule.graph.name,
        num_nodes=n,
        predicted=predicted,
        trials=trials,
        mean=mean,
        std=float(makespans.std()),
        p50=float(np.percentile(makespans, 50)),
        p95=p95,
        worst=float(makespans.max()),
        mean_degradation_pct=float(percent_degradation(mean, predicted, n)),
        p95_degradation_pct=float(percent_degradation(p95, predicted, n)),
        slack=schedule_slack(schedule),
    )
    return row, makespans


@dataclass(frozen=True)
class _RankRow:
    """Adapter row for :func:`repro.metrics.ranking.average_ranks`."""

    algorithm: str
    graph: str
    predicted: float
    simulated: float


def robustness_ranking(rows: Sequence[RobustnessRow]
                       ) -> List[Tuple[str, float, float, float]]:
    """Rank algorithms by simulated mean makespan vs predicted.

    Returns ``(algorithm, predicted rank, simulated rank, shift)``
    sorted by simulated rank; ``shift`` > 0 means the algorithm ranks
    *worse* under execution noise than the paper's static comparison
    suggests.  Ranks are the paper-style per-graph average ranks from
    :mod:`repro.metrics.ranking`.
    """
    adapted = [
        _RankRow(r.algorithm, r.graph, r.predicted, r.mean) for r in rows
    ]
    predicted = dict(average_ranks(adapted, key="predicted"))
    simulated = average_ranks(adapted, key="simulated")
    return [
        (alg, predicted[alg], sim_rank, sim_rank - predicted[alg])
        for alg, sim_rank in simulated
    ]
