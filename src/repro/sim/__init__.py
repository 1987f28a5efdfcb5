"""Discrete-event execution simulator for static schedules.

The paper compares schedulers by the makespan their schedules
*predict*; this package executes those schedules — same mapping, same
per-processor orders, recomputed start times — under stochastic
runtime models, and measures how the predictions (and the paper's
rankings) hold up:

* :mod:`repro.sim.engine` — the one heap-based event loop
  (task-finish / message-arrival events) and its policy protocol;
  :func:`simulate` runs it with a policy that replays one schedule and
  never replans;
* :mod:`repro.sim.perturb` — pluggable noise: duration noise
  (uniform/normal/lognormal), per-processor speed jitter,
  message-latency noise, all from a seeded ``numpy.Generator``;
* :mod:`repro.sim.netmodel` — pluggable transport: instant,
  fixed-delay (the clique model), link contention over a topology, or
  the schedule's own recorded message plan;
* :mod:`repro.sim.robustness` — Monte-Carlo makespan distributions,
  degradation vs prediction, schedule slack, robustness rankings;
* :mod:`repro.sim.bench` — ``SimConfig`` + the parallel, persisted,
  resumable sim grid (cells cached by combined bench|sim fingerprint);
* :mod:`repro.sim.online` — *online* execution: the same loop under
  policies that replan through placement directives, information modes
  (``exact`` / ``mean`` / ``blind`` / ``user``) and the
  predictive-reactive ``online:<spec>`` schedulers that replan when
  reality deviates.

>>> from repro import Machine, get_scheduler
>>> from repro.generators.random_graphs import rgnos_graph
>>> from repro.sim import PerturbationModel, monte_carlo
>>> g = rgnos_graph(30, 1.0, 2, seed=7)
>>> s = get_scheduler("MCP").schedule(g, Machine.unbounded(g))
>>> row, samples = monte_carlo(s, PerturbationModel.lognormal(0.3),
...                            trials=20, algorithm="MCP")
>>> row.mean >= 0 and len(samples) == 20
True

CLI: ``python -m repro.bench sim run/compare`` (see README).
"""

from .bench import SimConfig, run_sim_grid, sim_store
from .engine import SimResult, simulate
from .online import (
    IMODES,
    OnlinePolicy,
    OnlineResult,
    OnlineScheduler,
    OnlineSchedulerSpec,
    PlanRescheduler,
    observe,
    parse_online_spec,
    simulate_online,
)
from .netmodel import (
    NETWORK_KINDS,
    ContentionNetwork,
    FixedDelayNetwork,
    InstantNetwork,
    NetworkModel,
    RecordedDelays,
    network_from_spec,
    replay_network,
)
from .perturb import (
    DETERMINISTIC,
    Dist,
    PerturbationModel,
    perturbation_from_dict,
)
from .robustness import (
    RobustnessRow,
    monte_carlo,
    robustness_ranking,
    schedule_slack,
)

__all__ = [
    "simulate",
    "SimResult",
    "IMODES",
    "OnlinePolicy",
    "OnlineResult",
    "OnlineScheduler",
    "OnlineSchedulerSpec",
    "PlanRescheduler",
    "observe",
    "parse_online_spec",
    "simulate_online",
    "NETWORK_KINDS",
    "NetworkModel",
    "InstantNetwork",
    "FixedDelayNetwork",
    "ContentionNetwork",
    "RecordedDelays",
    "replay_network",
    "network_from_spec",
    "Dist",
    "PerturbationModel",
    "DETERMINISTIC",
    "perturbation_from_dict",
    "RobustnessRow",
    "monte_carlo",
    "schedule_slack",
    "robustness_ranking",
    "SimConfig",
    "run_sim_grid",
    "sim_store",
]
