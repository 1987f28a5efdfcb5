"""CI smoke benchmarks: small, fast, representative hot paths.

Run by the ``bench-smoke`` CI job (together with the kernel
micro-benchmarks in ``bench_kernel.py``; one shared baseline) via::

    pytest benchmarks/bench_smoke.py benchmarks/bench_kernel.py \
        --benchmark-json=current.json
    python benchmarks/check_regression.py current.json

and compared against the committed ``benchmarks/baseline_smoke.json``
(regenerate with ``--update`` after a deliberate performance change).
Each case covers one layer: the clique grid engine, a single large-ish
list scheduling run, the APN contention machinery, scenario
compilation, input generation and schedule validation.
"""

from __future__ import annotations

from repro import api
from repro.bench.runner import run_grid
from repro.bench.suites import psg_suite
from repro.core.machine import Machine, NetworkMachine
from repro.core.schedule import validate
from repro.generators.random_graphs import rgnos_graph
from repro.network.topology import Topology
from repro.algorithms import get_scheduler


def test_smoke_grid_psg(benchmark):
    """Clique grid engine: 3 algorithms x 4 peer set graphs."""
    graphs = psg_suite()[:4]
    rows = benchmark(run_grid, ["MCP", "DCP", "HLFET"], graphs)
    assert len(rows) == 12


def test_smoke_mcp_rgnos(benchmark):
    """One insertion-based BNP run on a 100-node random graph."""
    graph = rgnos_graph(100, 1.0, 3, seed=1)
    rows = benchmark(run_grid, ["MCP"], [graph])
    assert rows[0].length > 0


def test_smoke_apn_contention(benchmark):
    """Link-contention scheduling: MH on a 40-node graph, hypercube."""
    graph = rgnos_graph(40, 1.0, 3, seed=2)
    machine = NetworkMachine(Topology.hypercube(3))
    scheduler = get_scheduler("MH")
    schedule = benchmark(scheduler.schedule, graph, machine)
    assert schedule.is_complete()


def test_smoke_scenario_compile(benchmark):
    """Scenario engine: validate + compile a swept registry scenario."""
    from repro.scenarios import compile_scenario, get_scenario

    compiled = benchmark(
        lambda: compile_scenario(get_scenario("hetero-speeds")))
    assert compiled.num_cells > 0


def test_smoke_component_grid(benchmark):
    """Component sweep: 70 schedulers (64 synthesized) on one graph."""
    from repro.scenarios import compile_scenario, get_scenario, run_scenario

    compiled = compile_scenario(get_scenario("component-grid"))
    result = benchmark(run_scenario, compiled)
    total = sum(len(rows) for _, rows in result.rows)
    assert total == compiled.num_cells >= 70


def test_smoke_sim_monte_carlo(benchmark):
    """Discrete-event sim: 100-trial Monte-Carlo over the BNP suite.

    Every BNP algorithm's schedule for every peer-set-suite graph is
    executed 100 times under lognormal duration noise — the acceptance
    bar for the sim engine's hot path (heap event loop + noise draws).
    """
    from repro.bench.runner import BNP_ALGORITHMS
    from repro.bench.suites import psg_suite
    from repro.sim import PerturbationModel, SimConfig, run_sim_grid

    graphs = psg_suite()
    sim = SimConfig(perturb=PerturbationModel.lognormal(0.3),
                    trials=100, seed=7)
    rows = benchmark.pedantic(
        run_sim_grid, args=(list(BNP_ALGORITHMS), graphs),
        kwargs={"sim": sim}, rounds=1, iterations=1)
    assert len(rows) == len(graphs) * len(BNP_ALGORITHMS)
    assert all(r.trials == 100 and r.mean >= 0 for r in rows)


def test_smoke_online_gap(benchmark):
    """Online engine: the ``online-gap`` scenario, one round.

    Runs ``repro-bench scenario run online-gap`` end to end — six BNP
    algorithms plus their online counterparts under all four
    information modes on two 40-node graphs.  Exercises the full
    event-driven loop (plan, deviate, replan) and the per-imode rank
    table; one round only, like the ladder rung, since the case exists
    to catch online-engine slowdowns rather than to average noise.
    """
    from repro.scenarios import (compile_scenario, get_scenario,
                                 online_tables, run_scenario)

    compiled = compile_scenario(get_scenario("online-gap"))
    result = benchmark.pedantic(run_scenario, args=(compiled,),
                                rounds=1, iterations=1)
    total = sum(len(rows) for _, rows in result.rows)
    assert total == compiled.num_cells == 60
    table = online_tables(result)
    assert len(table.rows) == 24  # 6 BNP specs x 4 information modes


def test_smoke_ladder_1200(benchmark):
    """Top rung of the scalability ladder: the flat-array kernel gate.

    The ladder scenario's tractable algorithms on its 1200-node RGNOS
    graph (EZ is excluded: its O(e(v+e)) edge-zeroing loop is quadratic
    in edges and was never feasible at this size).  One round only —
    the case exists to catch kernel regressions, not to average noise.
    Before the kernel rewrite this rung took ~31.6s; see EXPERIMENTS.md
    for the per-algorithm before/after table.
    """
    graph = rgnos_graph(1200, 1.0, 3, seed=53)
    algos = ["HLFET", "ISH", "MCP", "DSC", "LC"]

    def run():
        lengths = {}
        for name in algos:
            machine = Machine.unbounded(graph)
            lengths[name] = get_scheduler(name).schedule(graph,
                                                         machine).length
        return lengths

    lengths = benchmark.pedantic(run, rounds=1, iterations=1)
    # Locks the exact ladder lengths too: a kernel change that shifts
    # any schedule must show up here as well as in the golden corpus.
    assert lengths == {"HLFET": 1461.0, "ISH": 1461.0, "MCP": 1449.0,
                       "DSC": 1466.0, "LC": 1456.0}


def test_smoke_service_storm(benchmark):
    """Schedule-as-a-service: a small seeded storm over real HTTP.

    Self-hosts the asyncio batching server and replays a Zipf-skewed
    60-request storm against it — digest memo, schedule cache, batch
    loop and worker pool all on the hot path.  One round (the case
    gates service-layer slowdowns, not noise).  Beyond timing, it
    asserts the service contract the loadtest tables rest on: every
    request answered, a warm majority, and a real cold/warm cache
    speedup (the CI floor of 5x is far under the ~20x a full-size
    storm shows; see EXPERIMENTS.md).
    """
    from repro.scenarios.storm import StormConfig
    from repro.service import run_loadtest

    config = StormConfig(requests=60, templates=4, sizes=(60, 90),
                         specs=("mcp", "dls"), rate=1000.0, seed=3)
    report = benchmark.pedantic(
        run_loadtest, args=(config,),
        kwargs={"jobs": 1, "concurrency": 8}, rounds=1, iterations=1)
    assert report.ok == report.requests == 60
    assert report.rejected == report.timeouts == report.errors == 0
    assert report.warm > report.cold
    assert report.speedup >= 5.0


def test_smoke_generate_suites(benchmark):
    """Input generation: the 27 graphs of perfbench's Table-6 slice
    (v 50/100/150 x ccr 0.1/1/10 x parallelism 1/3/5) plus three storm
    templates (150, 250 and 400 nodes) built into request bodies.

    Gates the generators' per-node vector draws and the CSR-built
    bodies: with one scalar draw and one tuple per edge the case took
    2.6x as long (min 386 ms against 146 ms, same host).
    """
    from repro.core.rng import derive_rng
    from repro.scenarios.storm import StormConfig, storm_bodies

    def run():
        graphs = [rgnos_graph(v, ccr, par,
                              seed=derive_rng(53, "grid", v, ccr, par))
                  for v in (50, 100, 150) for ccr in (0.1, 1.0, 10.0)
                  for par in (1, 3, 5)]
        return graphs, storm_bodies(StormConfig(templates=3, seed=53))

    graphs, bodies = benchmark(run)
    assert len(graphs) == 27 and len(bodies) == 3


def test_smoke_validate_400(benchmark):
    """``validate`` on a 400-node, 13.6k-edge clique schedule.

    The array proof's case: a valid schedule returns without the
    per-task iterator, which took 33x as long (min 7.6 ms against
    0.23 ms, same host).
    """
    graph = rgnos_graph(400, 1.0, 3, seed=1)
    schedule = api.schedule(graph, Machine(8),
                            "param:prio=blevel,proc=est", validate=False)
    benchmark(validate, schedule)
    assert validate(schedule, collect=True) == []
