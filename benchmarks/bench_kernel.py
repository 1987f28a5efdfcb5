"""Micro-benchmarks for the flat-array scheduling kernel.

Each case isolates one kernel primitive so a regression points at the
responsible layer instead of "scheduling got slower":

* attribute sweeps (level-batched numpy over CSR),
* arrival-profile construction + queries (the O(deg + procs) data-ready
  path),
* ready tracker + lazy heap drain,
* insertion slot search on a crowded timeline.

Run together with the smoke suite (one shared baseline)::

    pytest benchmarks/bench_smoke.py benchmarks/bench_kernel.py \
        --benchmark-json=current.json
    python benchmarks/check_regression.py current.json
"""

from __future__ import annotations

from repro.core.attributes import blevel, static_blevel, tlevel
from repro.core.listsched import ReadyTracker, StartOracle, best_proc_min_est
from repro.core.schedule import Schedule
from repro.generators.random_graphs import rgnos_graph

NODES = 1200


def _fresh_graph():
    return rgnos_graph(NODES, 1.0, 3, seed=53)


def test_kernel_attribute_sweeps(benchmark):
    """t-level + b-level + static level sweeps, cache cleared per round."""
    g = _fresh_graph()

    def run():
        g._cache.clear()  # cold sweeps without re-paying graph construction
        return tlevel(g), blevel(g), static_blevel(g)

    t, b, sl = benchmark(run)
    assert len(t) == len(b) == len(sl) == NODES


def test_kernel_attribute_cache_hit(benchmark):
    """Warm-cache attribute reads are O(v) copies.

    100 reads per round: a single read is ~10us, which would sit inside
    timer noise and flap the 2x CI gate across runner generations.
    """
    g = _fresh_graph()
    blevel(g)

    def run():
        for _ in range(100):
            result = blevel(g)
        return result

    assert len(benchmark(run)) == NODES


def test_kernel_arrival_profiles(benchmark):
    """Profile build + per-processor queries across a scheduled prefix."""
    g = _fresh_graph()
    schedule = Schedule(g, NODES)
    tracker = ReadyTracker(g)
    order = []
    while not tracker.all_scheduled():
        node = next(tracker.iter_ready())
        order.append(node)
        schedule.place(node, node % 16, schedule.earliest_slot(
            node % 16, schedule.data_ready_time(node, node % 16),
            g.weight(node), insertion=False))
        tracker.mark_scheduled(node)

    def run():
        acc = 0.0
        for node in order:
            profile = schedule.arrival_profile(node)
            for p in range(16):
                acc += profile.drt(p)
        return acc

    assert benchmark(run) > 0


def test_kernel_ready_heap_drain(benchmark):
    """ReadyTracker + lazy heap over the whole graph, no scheduling."""
    g = _fresh_graph()
    sl = static_blevel(g)

    def run():
        tracker = ReadyTracker(g)
        queue = tracker.priority_queue(lambda n: (-sl[n], n))
        order = []
        while not tracker.all_scheduled():
            node = queue.pop_best()
            order.append(node)
            for child in tracker.mark_scheduled(node):
                queue.push(child)
        return order

    assert len(benchmark(run)) == NODES


def test_kernel_insertion_slot_search(benchmark):
    """best_proc_min_est with insertion against busy interval lists."""
    g = _fresh_graph()
    schedule = Schedule(g, 8)
    oracle = StartOracle(schedule)
    tracker = ReadyTracker(g)
    while not tracker.all_scheduled():
        node = next(tracker.iter_ready())
        proc, start = best_proc_min_est(oracle, node, insertion=True)
        schedule.place(node, proc, start)
        tracker.mark_scheduled(node)
    # Re-query placed nodes (parents all placed): measures the gap
    # search against full 150-task-per-processor interval lists.
    sample = list(g.topological_order[-64:])

    def run():
        return [best_proc_min_est(oracle, n, insertion=True)
                for n in sample]

    assert len(benchmark(run)) == len(sample)
