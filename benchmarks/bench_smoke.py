"""CI smoke benchmarks: small, fast, representative hot paths.

Run by the ``bench-smoke`` CI job (together with the kernel
micro-benchmarks in ``bench_kernel.py``; one shared baseline) via::

    pytest benchmarks/bench_smoke.py benchmarks/bench_kernel.py \
        --benchmark-json=current.json
    python benchmarks/check_regression.py current.json

and compared against the committed ``benchmarks/baseline_smoke.json``
(regenerate with ``--update`` after a deliberate performance change).
Each case covers one layer: the clique grid engine, a single large-ish
list scheduling run, the coupled ETF/DLS pair scan, the decoupled
min-EST scan, the APN contention machinery, MD's and DCP's dynamic
levels, scenario compilation, input generation, schedule validation and
the disarmed hooks.
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


def test_smoke_apn_grid(benchmark):
    """The grid workload's APN half that moves: BSA and DLS-APN on its
    nine 50-node graphs (seed 53), 8-processor hypercube.

    Gates the one link core, BSA's bounded trials and the lazy pair
    scan: with a channel-timeline object per channel, unbounded trials
    and a re-probe of every moved column the case took about 1.3x as
    long (0.78-0.86 s against 0.59-0.68 s, in-process, same host).
    """
    from repro.core.rng import derive_rng

    graphs = [rgnos_graph(50, ccr, par,
                          seed=derive_rng(53, "grid", 50, ccr, par))
              for ccr in (0.1, 1.0, 10.0) for par in (1, 3, 5)]
    machine = NetworkMachine(Topology.hypercube(3))
    bsa, dls_apn = get_scheduler("BSA"), get_scheduler("DLS-APN")

    def run():
        return ([bsa.schedule(g, machine) for g in graphs]
                + [dls_apn.schedule(g, machine) for g in graphs])

    schedules = benchmark.pedantic(run, rounds=3, iterations=1)
    assert all(validate(s, collect=True, network=machine.topology) == []
               for s in schedules)


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


def test_smoke_unc_levels(benchmark):
    """MD and DCP on a 200-node RGNOS graph: the dynamic-level gate.

    Both recompute their t-/b-levels (MD) or AEST/ALST (DCP) after every
    placement on the kernel's one forward and one backward sweep, with
    co-located edges masked and placed nodes pinned.  With per-edge
    Python sweeps instead the pair took about 1.0 s here against about
    0.12 s (in-process, same host).
    """
    graph = rgnos_graph(200, 1.0, 3, seed=53)

    def run():
        return {name: get_scheduler(name).schedule(
                    graph, Machine.unbounded(graph)).length
                for name in ("MD", "DCP")}

    lengths = benchmark.pedantic(run, rounds=3, iterations=1)
    assert lengths == {"MD": 839.0, "DCP": 697.0}


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


def test_smoke_pair_scan(benchmark):
    """Coupled ETF/DLS pair scans: DLS on a 250-node graph on 8
    processors, ETF on a 150-node Table-6 slice graph on a processor
    per node.

    Gates the (ready node × processor) array scan: with a Python row
    refresh and best-pair re-derivation per ready node the case took
    2.6x as long (min 38 ms against 14.4 ms, same host).
    """
    from repro.core.rng import derive_rng

    dls_graph = rgnos_graph(250, 1.0, 3, seed=1)
    etf_graph = rgnos_graph(150, 1.0, 3,
                            seed=derive_rng(53, "grid", 150, 1.0, 3))
    dls, etf = get_scheduler("DLS"), get_scheduler("ETF")

    def run():
        return (dls.schedule(dls_graph, Machine(8)),
                etf.schedule(etf_graph, Machine(etf_graph.num_nodes)))

    schedules = benchmark(run)
    assert all(validate(s, collect=True) == [] for s in schedules)


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


def test_smoke_min_est(benchmark):
    """Decoupled min-EST scans: HLFET and LAST on a 150-node Table-6
    slice graph on a processor per node, MCP on 8 processors.

    Gates the pruned scan of ``proc=est``: probing every shortlisted
    processor with a data-ready query and a slot search, over a
    shortlist rebuilt per call, the case took 1.5x as long (min
    14.5 ms against 9.5 ms, same host).
    """
    from repro.core.rng import derive_rng

    graph = rgnos_graph(150, 1.0, 3,
                        seed=derive_rng(53, "grid", 150, 1.0, 3))
    hlfet, last, mcp = (get_scheduler(name)
                        for name in ("HLFET", "LAST", "MCP"))

    def run():
        unlimited = Machine(graph.num_nodes)
        return (hlfet.schedule(graph, unlimited),
                last.schedule(graph, unlimited),
                mcp.schedule(graph, Machine(8)))

    schedules = benchmark(run)
    assert all(validate(s, collect=True) == [] for s in schedules)


def test_smoke_disarmed_hooks(benchmark, monkeypatch):
    """The disarmed cost of the hooks: 1e5 calls each of
    ``trace.armed()``, ``sanitize.enabled()`` and ``metrics.incr``.

    Measured, not asserted to be small: with an ``os.environ.get`` per
    call the case took 15x as long (min 277 ms against 19.0 ms, same
    host).
    """
    from repro.check import sanitize
    from repro.obs import metrics, trace

    monkeypatch.delenv(trace.ENV_VAR, raising=False)
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
    metrics.reset()
    armed, enabled, incr = trace.armed, sanitize.enabled, metrics.incr

    def run():
        hits = 0
        for _ in range(100_000):
            hits += armed() + enabled()
            incr("kernel.profiles")
        return hits

    assert benchmark(run) == 0
    assert metrics.counters() == {}
