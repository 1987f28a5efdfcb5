"""Regenerate the EXPERIMENTS.md component-hybrid ranking table.

Expands the full decoupled + coupled component grid of the
``component-grid`` scenario (``repro-bench scenario run
component-grid``), runs every synthesized scheduler and the paper's six
BNP designs over a small RGNOS panel on a bounded 8-processor
machine, and ranks them by mean NSL — the estee-style question: do any
component hybrids beat the named designs they generalise?

Usage::

    PYTHONPATH=src python examples/component_hybrids_table.py

Deterministic: the graph panel is fixed by the seeds below, every
scheduler is deterministic, so reruns reproduce the table exactly.
"""

from __future__ import annotations

from repro.algorithms import BNP_SPECS, get_scheduler
from repro.bench.runner import BenchConfig, run_grid
from repro.generators.random_graphs import rgnos_graph
from repro.scenarios import get_scenario

PANEL = [rgnos_graph(size, ccr=ccr, parallelism=3, seed=seed)
         for size, ccr, seed in
         ((40, 0.5, 3), (40, 2.0, 5), (60, 1.0, 7), (60, 5.0, 11))]


def mean_nsl_ranking():
    names = get_scenario("component-grid").algorithm_names
    rows = run_grid(names, PANEL, config=BenchConfig(bnp_procs=8))
    by_alg = {}
    for row in rows:
        by_alg.setdefault(row.algorithm, []).append(row.nsl)
    return sorted(
        ((sum(v) / len(v), name) for name, v in by_alg.items()),
        key=lambda pair: (pair[0], pair[1]))


def main():
    ranking = []
    for score, name in mean_nsl_ranking():
        sched = get_scheduler(name)
        if name.startswith("param:") and any(
                getattr(sched, "spec", None) == spec
                for spec in BNP_SPECS.values()):
            # The spec spelling of a named design produces the exact
            # same schedules (pinned by the differential tests); the
            # acronym row already represents it.
            continue
        ranking.append((score, name))
    print(f"{'rank':>4}  {'mean NSL':>8}  scheduler")
    for i, (score, name) in enumerate(ranking, start=1):
        paper = "" if name.startswith("param:") else "  <- paper design"
        # The table keeps the head and tail of the field plus every
        # named design; the midfield is elided to stay readable.
        if i <= 8 or i > len(ranking) - 4 or paper:
            print(f"{i:>4}  {score:8.3f}  {name}{paper}")
        elif i == 9:
            print("   ...")


if __name__ == "__main__":
    main()
