"""The sim grid: Monte-Carlo robustness as a cacheable benchmark.

Mirrors :mod:`repro.bench.parallel` one layer up: a *sim cell* is
``(algorithm, graph)`` under a :class:`~repro.bench.runner.BenchConfig`
(which machine schedules the graph) plus a :class:`SimConfig` (how the
schedule is then executed).  Cells are pure functions of that triple —
noise streams are derived per cell from the config's seed, never from
execution order — so rows fan out over a worker pool, persist to a
:class:`~repro.bench.store.ResultStore` keyed by the *combined*
fingerprint ``bench|sim``, and resume exactly like the static grid.

The store lives beside the static rows under a ``sim`` basename
(``sim.json`` / ``sim.csv``), so one ``--results`` directory carries
both views of an experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..bench.runner import BenchConfig
from ..bench.store import ResultStore, open_store
from ..core.graph import TaskGraph
from .netmodel import NETWORK_KINDS, NetworkModel, network_from_spec
from .perturb import DETERMINISTIC, PerturbationModel
from .robustness import RobustnessRow, monte_carlo

__all__ = ["SimConfig", "sim_store", "run_sim_grid"]


@dataclass
class SimConfig:
    """How schedules are executed: noise, transport, trial count, seed.

    ``network="auto"`` replays each schedule against the backend its
    planner assumed (clique fixed-delay, or the recorded APN message
    plan) — the setting under which zero noise reproduces predictions
    exactly.  ``"contention"`` re-executes messages on the bench
    config's APN topology instead.
    """

    perturb: PerturbationModel = field(default_factory=PerturbationModel)
    network: str = "auto"
    trials: int = 100
    seed: int = 0
    net_scale: float = 1.0
    net_latency: float = 0.0

    def __post_init__(self):
        if self.network not in NETWORK_KINDS:
            raise ValueError(
                f"unknown network {self.network!r}; expected one of "
                f"{', '.join(NETWORK_KINDS)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def fingerprint(self) -> str:
        """Stable identity of the execution model (cache-key part)."""
        fp = (f"sim:trials={self.trials};seed={self.seed}"
              f";perturb={self.perturb.fingerprint()};net={self.network}")
        if self.network == "fixed" and (
                self.net_scale != 1.0  # repro: noqa-RPR005 fingerprint identity check on configured value
                or self.net_latency != 0.0):  # repro: noqa-RPR005 fingerprint identity check on configured value
            fp += f":scale={self.net_scale:g}:lat={self.net_latency:g}"
        return fp

    def network_for(self, schedule,
                    bench: BenchConfig) -> Optional[NetworkModel]:
        """The backend for one schedule (``None`` = engine's auto pick).

        The contention backend runs over the bench config's APN
        topology — already part of the bench fingerprint, so the
        combined cache key identifies it.
        """
        if self.network != "contention":
            return network_from_spec(self.network, scale=self.net_scale,
                                     latency=self.net_latency)
        from ..bench.suites import default_apn_topology

        topo = bench.apn_topology or default_apn_topology()
        if schedule.num_procs > topo.num_procs:
            raise ValueError(
                f"schedule uses {schedule.num_procs} processors but the "
                f"contention topology has {topo.num_procs}; bound the "
                "machine (bnp_procs) to the topology size")
        return network_from_spec("contention", topology=topo)


def sim_store(directory: str) -> ResultStore:
    """The sim-row store under ``directory`` (``sim.json``/``sim.csv``)."""
    return open_store(directory, basename="sim", row_type=RobustnessRow)


def combined_fingerprint(bench: BenchConfig, sim: SimConfig) -> str:
    """The sim grid's cache key: bench model + execution model."""
    return f"{bench.fingerprint()}|{sim.fingerprint()}"


def _run_sim_cell(args) -> RobustnessRow:
    """Pool worker: schedule one graph, Monte-Carlo it (module-level so
    it pickles under the spawn start method too)."""
    name, graph, bench, sim = args
    from ..algorithms import get_scheduler

    scheduler = get_scheduler(name)
    machine = bench.machine_for(name, graph)
    t0 = time.perf_counter()
    schedule = scheduler.schedule(graph, machine)
    row, _ = monte_carlo(
        schedule,
        perturb=sim.perturb,
        network=sim.network_for(schedule, bench),
        trials=sim.trials,
        seed=sim.seed,
        algorithm=scheduler.name,
        klass=scheduler.klass,
    )
    elapsed = time.perf_counter() - t0
    return RobustnessRow(**{**row.__dict__, "runtime_s": elapsed})


def run_sim_grid(names: Sequence[str], graphs: Iterable[TaskGraph],
                 config: Optional[BenchConfig] = None,
                 sim: Optional[SimConfig] = None,
                 jobs: Optional[int] = None,
                 store: Optional[ResultStore] = None,
                 resume: bool = False) -> List[RobustnessRow]:
    """Monte-Carlo every algorithm on every graph; rows in serial order.

    Exactly the static grid's contract — it runs on the same executor
    (:func:`repro.bench.parallel.execute_cells`): graphs outer,
    algorithms inner, ``jobs`` fans cells over worker processes (``0``
    = one per CPU), ``store`` + ``resume`` replay cached rows and
    checkpoint new ones.
    """
    from ..bench.parallel import execute_cells

    config = config or BenchConfig()
    sim = sim or SimConfig(perturb=DETERMINISTIC)
    cells: List[Tuple[str, TaskGraph]] = [
        (name, graph) for graph in graphs for name in names
    ]
    keys = [(name, graph.name) for name, graph in cells]
    work = [(name, graph, config, sim) for name, graph in cells]
    return execute_cells(keys, work, _run_sim_cell,
                         combined_fingerprint(config, sim),
                         jobs=jobs, store=store, resume=resume)
