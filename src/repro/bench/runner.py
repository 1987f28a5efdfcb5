"""Running algorithm x graph grids and collecting measurements.

The runner owns the machine-model conventions of the paper's evaluation:

* UNC algorithms always get an unbounded (one-processor-per-task) clique;
* BNP algorithms get a "virtually unlimited" clique by default — the
  paper runs them that way and then counts processors actually used
  (Section 6.4.2) — or a bounded machine when a table calls for one;
* APN algorithms get a :class:`NetworkMachine` over the configured
  topology (default: the 8-processor hypercube).

Every schedule produced is validated against the full model invariants
before it is measured — a benchmark row can never come from an invalid
schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..algorithms import get_scheduler
from ..core.graph import TaskGraph
from ..core.machine import Machine, NetworkMachine
from ..core.exceptions import ScheduleError
from ..core.schedule import render_violations, validate
from ..metrics.measures import RunResult, nsl
from ..network.topology import Topology
from .suites import default_apn_topology

__all__ = ["BenchConfig", "run_one", "run_grid", "BNP_ALGORITHMS",
           "UNC_ALGORITHMS", "APN_ALGORITHMS"]

BNP_ALGORITHMS = ("HLFET", "ISH", "MCP", "ETF", "DLS", "LAST")
UNC_ALGORITHMS = ("EZ", "LC", "DSC", "MD", "DCP")
APN_ALGORITHMS = ("MH", "DLS-APN", "BU", "BSA")


@dataclass
class BenchConfig:
    """Machine-model conventions for a grid run.

    ``bnp_speeds`` opts BNP runs into the heterogeneous (uniform-speed)
    machine model: a tuple of per-processor speed factors, implying a
    bounded machine of ``len(bnp_speeds)`` processors.  The paper grid
    never sets it; the scenario engine does.
    """

    bnp_procs: Optional[int] = None  # None -> virtually unlimited (v procs)
    bnp_speeds: Optional[Tuple[float, ...]] = None
    apn_topology: Optional[Topology] = None
    validate_schedules: bool = True

    def __post_init__(self):
        if self.bnp_speeds is not None:
            self.bnp_speeds = tuple(float(s) for s in self.bnp_speeds)
            if any(s <= 0 for s in self.bnp_speeds):
                raise ValueError("bnp_speeds must all be positive")
            if (self.bnp_procs is not None
                    and self.bnp_procs != len(self.bnp_speeds)):
                raise ValueError(
                    f"bnp_procs={self.bnp_procs} disagrees with "
                    f"{len(self.bnp_speeds)} speed factors"
                )
            if all(s == 1.0 for s in self.bnp_speeds):
                # Uniform speeds are the bounded homogeneous machine;
                # normalise so the cache key (and cells) are shared.
                self.bnp_procs = len(self.bnp_speeds)
                self.bnp_speeds = None

    def machine_for(self, name: str, graph: TaskGraph) -> Machine:
        klass = get_scheduler(name).klass
        if klass == "APN":
            topo = self.apn_topology or default_apn_topology()
            return NetworkMachine(topo)
        if klass == "BNP" and self.bnp_speeds is not None:
            return Machine(len(self.bnp_speeds), speeds=self.bnp_speeds)
        if klass == "UNC" or self.bnp_procs is None:
            return Machine.unbounded(graph)
        return Machine(self.bnp_procs)

    def fingerprint(self) -> str:
        """Stable identity of the machine-model conventions.

        Part of the :class:`~repro.bench.store.ResultStore` cache key:
        two configs with equal fingerprints schedule every cell
        identically, so their rows are interchangeable.  The APN
        topology is identified by its exact link set (hashed), not just
        its name — two structurally different custom topologies never
        share a fingerprint.  Heterogeneous speeds and non-unit link
        bandwidth extend the fingerprint only when set, so the paper
        grid's fingerprints are unchanged from earlier releases.
        """
        topo = self.apn_topology or default_apn_topology()
        fp = (
            f"bnp={'v' if self.bnp_procs is None else self.bnp_procs}"
            f";apn={topo.name}:{topo.num_procs}p:{topo.links_digest()}"
            f";validate={int(self.validate_schedules)}"
        )
        if self.bnp_speeds is not None:
            speeds = ",".join(f"{s:g}" for s in self.bnp_speeds)
            fp += f";speeds={speeds}"
        if topo.bandwidth != 1.0:
            fp += f";bw={topo.bandwidth:g}"
        return fp


def run_one(name: str, graph: TaskGraph,
            machine: Optional[Machine] = None,
            config: Optional[BenchConfig] = None,
            optimal: Optional[float] = None) -> RunResult:
    """Schedule ``graph`` with algorithm ``name`` and measure the result."""
    config = config or BenchConfig()
    scheduler = get_scheduler(name)
    machine = machine or config.machine_for(name, graph)
    t0 = time.perf_counter()
    schedule = scheduler.schedule(graph, machine)
    elapsed = time.perf_counter() - t0
    if config.validate_schedules:
        network = machine.topology if isinstance(machine, NetworkMachine) else None
        violations = validate(schedule, network=network, collect=True)
        if violations:
            # Collect mode gathers *every* violation so a broken
            # scheduler fails with the full table, not just the first
            # symptom; the CLI prints this message verbatim.
            raise ScheduleError(
                f"{scheduler.name} produced an invalid schedule for "
                f"{graph.name}:\n{render_violations(violations)}")
    return RunResult(
        algorithm=scheduler.name,
        klass=scheduler.klass,
        graph=graph.name,
        num_nodes=graph.num_nodes,
        length=schedule.length,
        nsl=nsl(schedule),
        procs_used=schedule.processors_used(),
        runtime_s=elapsed,
        optimal=optimal,
    )


def run_grid(names: Sequence[str], graphs: Iterable[TaskGraph],
             config: Optional[BenchConfig] = None,
             optima: Optional[Dict[str, float]] = None,
             jobs: Optional[int] = None,
             store=None,
             resume: bool = False) -> List[RunResult]:
    """Run every algorithm on every graph; returns flat result rows.

    ``optima`` optionally maps graph names to known optimal lengths,
    which populates the degradation measure on each row.

    The grid executes through the engine in :mod:`repro.bench.parallel`:
    ``jobs`` fans cells out over a worker pool (``0`` = one per CPU),
    and a :class:`~repro.bench.store.ResultStore` plus ``resume=True``
    reuses rows cached from previous runs.  Row order is always the
    serial order — graphs outer, algorithms inner.
    """
    from .parallel import run_grid as _engine  # lazy: avoid import cycle

    return _engine(names, graphs, config=config, optima=optima,
                   jobs=jobs, store=store, resume=resume)
