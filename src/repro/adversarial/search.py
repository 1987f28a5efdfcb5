"""The adversarial instance search: seeded annealing over graph space.

One *chain* starts from a generated seed graph and walks graph space
with single mutations (:mod:`repro.adversarial.mutate`), maximising an
:class:`~repro.adversarial.objective.Objective` under a simulated-
annealing acceptance rule: improvements always move, regressions move
with probability ``exp(delta / T)`` while the temperature ``T`` cools
geometrically each step.  At ``temperature=0`` the walk degenerates to
a greedy hill climb — no acceptance randomness is drawn at all, so a
zero-temperature chain is a pure function of its seed.

Chains are the unit of parallelism and persistence: a search run is a
grid of ``(pair, chain)`` cells executed through the same
:func:`repro.bench.parallel.execute_cells` engine as every other
benchmark, so ``jobs`` fans chains over worker processes and a
:class:`~repro.bench.store.ResultStore` (basename ``adv``) caches each
finished chain as a :class:`SearchRow` keyed by the search
fingerprint.  ``resume=True`` therefore replays a completed search
from the store without recomputing anything.

A :class:`SearchRow` records the best instance's *lineage* — the
sequence of accepted mutation operators that produced it — plus the
instance itself in STG text form (``stg``), so found graphs can be
exported as files and reloaded by
:func:`repro.generators.load_graph`.
"""

from __future__ import annotations

import hashlib
import math
import re
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..bench.runner import BenchConfig
from ..bench.store import ResultStore, open_store
from ..core.graph import TaskGraph
from ..core.rng import derive_rng
from ..io.stg import dumps_stg
from .mutate import mutate, mutation_names
from .objective import Objective

__all__ = ["SearchConfig", "SearchRow", "adv_store", "run_search"]


@dataclass(frozen=True)
class SearchRow:
    """One finished chain — the adversarial store's row type.

    ``algorithm`` is the ordered pair label (``"LAST/MCP"``) and
    ``graph`` the chain label, matching the store's generic
    ``(algorithm, graph, fingerprint)`` key.  ``lineage`` lists the
    accepted mutation operators from the seed graph to the best
    instance, and ``stg`` is that instance serialised (reload with
    :func:`repro.generators.load_graph` after ``adv export``).
    """

    algorithm: str   # pair label, e.g. "LAST/MCP"
    graph: str       # chain label, e.g. "chain-00"
    objective: str
    score: float
    start_score: float
    length_a: float
    length_b: float
    num_nodes: int
    num_edges: int
    steps: int
    accepted: int
    best_step: int
    seed: int
    instance: str    # the best instance's graph name
    lineage: List[str] = field(default_factory=list)
    stg: str = ""
    runtime_s: float = 0.0


@dataclass
class SearchConfig:
    """Knobs of one adversarial search run.

    ``chains`` independent annealing walks per pair, each ``steps``
    mutations long; ``temperature`` is the initial acceptance
    temperature (0 = greedy) decaying by ``cooling`` per step.
    ``ops`` restricts the mutation operators; ``trials``/``noise``
    configure the ``sim`` objective only.
    """

    pair: Tuple[str, str]
    objective: str = "ratio"
    steps: int = 200
    chains: int = 4  # repro: noqa-RPR003 rows are keyed per chain label, not via the shared fingerprint
    temperature: float = 0.02
    cooling: float = 0.97
    seed: int = 0
    ops: Tuple[str, ...] = ()
    trials: int = 25
    noise: float = 0.3

    def __post_init__(self):
        self.pair = (str(self.pair[0]).upper(), str(self.pair[1]).upper())
        self.ops = tuple(self.ops) if self.ops else mutation_names()
        if self.steps < 1 or self.chains < 1:
            raise ValueError("steps and chains must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.cooling <= 1:
            raise ValueError("cooling must be in (0, 1]")

    @property
    def pair_label(self) -> str:
        return f"{self.pair[0]}/{self.pair[1]}"

    def objective_for(self, bench: BenchConfig) -> Objective:
        return Objective(
            alg_a=self.pair[0], alg_b=self.pair[1], kind=self.objective,
            config=bench, trials=self.trials, noise=self.noise,
            seed=self.seed,
        )

    def fingerprint(self, bench: BenchConfig,
                    seeds: Sequence[TaskGraph] = ()) -> str:
        """The store cache key: search knobs + seeds + machine model.

        The seed graphs' names are part of the key — two searches with
        identical knobs but different starting populations (e.g. two
        sweep points of a ``graphs`` axis) must never replay each
        other's chains from the store.
        """
        seed_id = hashlib.sha256(
            "\x1f".join(g.name for g in seeds).encode()).hexdigest()[:12]
        return (
            f"adv:{self.objective_for(bench).fingerprint()}"
            f";steps={self.steps};temp={self.temperature:g}"
            f";cool={self.cooling:g};seed={self.seed}"
            f";ops={','.join(self.ops)};seeds={seed_id}"
            f"|{bench.fingerprint()}"
        )


def adv_store(directory: str) -> ResultStore:
    """The chain-row store under ``directory`` (``adv.json``/``adv.csv``)."""
    return open_store(directory, basename="adv", row_type=SearchRow)


def _slug(text: str) -> str:
    """Filesystem-safe form of a pair/instance label."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-").lower()


def _run_chain(args) -> SearchRow:
    """Pool worker: anneal one chain (module-level so it pickles under
    the spawn start method too)."""
    chain, seed_graph, config, bench = args
    label = f"chain-{chain:02d}"
    objective = config.objective_for(bench)
    rng = derive_rng(config.seed, "adv", config.pair_label,
                     config.objective, chain)
    t0 = time.perf_counter()

    current = seed_graph
    cur_val = objective.evaluate(current)
    start_score = cur_val.score
    best, best_val, best_step = current, cur_val, 0
    lineage: List[str] = []
    best_lineage: List[str] = []
    accepted = 0
    temp = config.temperature
    for step in range(1, config.steps + 1):
        out = mutate(current, rng, ops=config.ops,
                     name=f"{seed_graph.name}~{step}")
        if out is None:
            continue
        candidate, op = out
        val = objective.evaluate(candidate)
        delta = val.score - cur_val.score
        # Greedy when T == 0: no acceptance randomness is drawn, so a
        # zero-temperature chain replays identically from its seed.
        accept = delta > 0 or (
            temp > 0 and rng.random() < math.exp(delta / temp))
        if accept:
            current, cur_val = candidate, val
            lineage.append(op)
            accepted += 1
            if cur_val.score > best_val.score:
                best, best_val, best_step = current, cur_val, step
                best_lineage = list(lineage)
        temp *= config.cooling
    elapsed = time.perf_counter() - t0

    instance_name = _slug(
        f"adv-{config.pair_label}-{config.objective}-{label}")
    best = TaskGraph(best.weights, best.edges(), name=instance_name)
    # Score the winner once more under its *final* name: the sim
    # objective keys its noise stream on the graph name, so this is
    # the value a re-score of the exported instance reproduces (for
    # ratio/slack it is identical to the in-loop score).
    final_val = objective.evaluate(best)
    return SearchRow(
        algorithm=config.pair_label,
        graph=label,
        objective=config.objective,
        score=final_val.score,
        start_score=start_score,
        length_a=final_val.length_a,
        length_b=final_val.length_b,
        num_nodes=best.num_nodes,
        num_edges=best.num_edges,
        steps=config.steps,
        accepted=accepted,
        best_step=best_step,
        seed=config.seed,
        instance=instance_name,
        lineage=best_lineage,
        stg=dumps_stg(best),
        runtime_s=elapsed,
    )


def run_search(config: SearchConfig,
               seeds: Sequence[TaskGraph],
               bench: Optional[BenchConfig] = None,
               jobs: Optional[int] = None,
               store: Optional[ResultStore] = None,
               resume: bool = False) -> List[SearchRow]:
    """Run every chain of one search; rows in chain order.

    Chain ``i`` starts from ``seeds[i % len(seeds)]``, so a scenario's
    graph axis doubles as the search's starting population.  The call
    contract is the grid engine's: ``jobs`` fans chains over worker
    processes, ``store`` + ``resume`` replay cached chains verbatim.
    """
    from ..bench.parallel import execute_cells

    if not seeds:
        raise ValueError("adversarial search needs at least one seed graph")
    bench = bench or BenchConfig()
    cells = [(i, seeds[i % len(seeds)]) for i in range(config.chains)]
    keys = [(config.pair_label, f"chain-{i:02d}") for i, _ in cells]
    work = [(i, graph, config, bench) for i, graph in cells]
    return execute_cells(keys, work, _run_chain,
                         config.fingerprint(bench, seeds),
                         jobs=jobs, store=store, resume=resume)
