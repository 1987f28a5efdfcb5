"""The ``grid`` workload: a slice of Table 6 through ``run_grid(jobs=2)``.

Many small graphs, where the coupled ETF/DLS scans, BSA and the
``bench.parallel`` grid executor dominate.  The run measures in passes:
a pass runs the whole slice, and every pass must reproduce the first
pass's schedule lengths.  A traced run alternates untraced and traced
passes, so a slow stretch of the shared host falls on both sides of the
tracing-overhead comparison.
"""

from __future__ import annotations

import os
import resource
import time
from statistics import median
from typing import Dict, List

import common
import spans

SIZES = (50, 100, 150)
CCRS = (0.1, 1.0, 10.0)
PARALLELISMS = (1, 3, 5)
ALGORITHMS = ("HLFET", "ISH", "MCP", "ETF", "DLS", "LAST", "LC", "DSC")
APN_ALGORITHMS = ("MH", "DLS-APN", "BU", "BSA")
APN_SIZE = 50
JOBS = 2
ROWS = (len(SIZES) * len(CCRS) * len(PARALLELISMS) * len(ALGORITHMS)
        + len(CCRS) * len(PARALLELISMS) * len(APN_ALGORITHMS))


def _install(rec: spans.Recorder) -> None:
    spans.install_core(rec)
    spans.install_grid(rec)


def _measure_traced(one_pass, budget: float):
    """Alternate untraced and traced passes for ``budget`` seconds.

    Traced passes arm the program's counters (``REPRO_TRACE=1``, which
    ``run_grid``'s forked workers inherit) and the timing wrappers.
    Returns ``(untraced phase, traced phase, counters of traced passes)``.
    """
    from repro.obs import metrics, trace

    rec = spans.ACTIVE
    plain, traced = common.Phase(), common.Phase()
    counters: Dict[str, int] = {}
    start = time.perf_counter()
    while (not plain.ops or not traced.ops
           or time.perf_counter() - start < budget):
        if plain.ops <= traced.ops:
            one_pass(plain)
            continue
        os.environ["REPRO_TRACE"] = "1"
        trace.reset()
        _install(rec)
        try:
            one_pass(traced)
        finally:
            rec.restore()
            os.environ.pop("REPRO_TRACE", None)
        for name, n in {**metrics.counters(),
                        **metrics.local_counters()}.items():
            counters[name] = counters.get(name, 0) + n
        trace.reset()
    return plain, traced, counters


def grid(seed: int, seconds: float, traced: bool) -> common.Outcome:
    from repro.bench.runner import run_grid
    from repro.core.rng import derive_rng
    from repro.generators import random_graphs

    def make() -> List:
        return [random_graphs.rgnos_graph(
                    v, ccr, par, seed=derive_rng(seed, "grid", v, ccr, par),
                    name=f"grid-v{v}-ccr{ccr:g}-p{par}")
                for v in SIZES for ccr in CCRS for par in PARALLELISMS]

    out = common.Outcome()
    setup_spans: List = []
    if traced:
        # One set-up, with graph generation timed.
        rec = spans.activate()
        spans.install_generators(rec)
        graphs = make()
        rec.restore()
        setup_spans, rec.spans = rec.spans, []
    else:
        graphs, out.setup_s = common.repeat_setup(make)
    apn_graphs = [g for g in graphs if g.num_nodes == APN_SIZE]
    first_lengths: List[float] = []

    def one_pass(phase: common.Phase) -> None:
        phase.ops += ROWS
        t_pass = time.perf_counter()
        try:
            rows = (run_grid(ALGORITHMS, graphs, jobs=JOBS)
                    + run_grid(APN_ALGORITHMS, apn_graphs, jobs=JOBS))
        except Exception as exc:  # an invalid schedule aborts the pass
            phase.fail(f"grid pass: {exc}", count=ROWS)
            return
        pass_s = time.perf_counter() - t_pass
        phase.busy_s += pass_s
        phase.rates.append(ROWS / pass_s)
        if len(rows) != ROWS:
            phase.fail(f"grid pass returned {len(rows)} rows, expected "
                       f"{ROWS}", count=abs(ROWS - len(rows)))
        lengths = [r.length for r in rows]
        if not first_lengths:
            first_lengths.extend(lengths)
        elif lengths != first_lengths:
            bad = sum(a != b for a, b in zip(lengths, first_lengths))
            phase.fail(f"{bad} rows changed length between passes",
                       count=bad)
        for r in rows:
            phase.latencies.append(r.runtime_s)
            if spans.ACTIVE is not None:
                spans.ACTIVE.absorb(spans.take_shipped(r))

    if traced:
        plain, traced_phase, counters = _measure_traced(one_pass, seconds)
        out.absorb(plain)
        out.absorb(traced_phase)
        out.layers = common.layer_metrics(spans.ACTIVE.spans,
                                          traced_phase.ops, counters,
                                          setup_spans)
        out.layers["trace.overhead_pct"] = common.overhead_pct(plain,
                                                               traced_phase)
        cells = traced_phase.latencies
        out.layers["bench.parallel.busy_ratio"] = (
            sum(cells) / (traced_phase.busy_s * JOBS))
        out.layers["bench.parallel.straggler_s"] = max(cells)
        out.note(f"traced: {traced_phase.ops} cells; untraced: {plain.ops}")
        return out

    phase = common.Phase()
    start = time.perf_counter()
    while not phase.ops or time.perf_counter() - start < seconds:
        one_pass(phase)
    out.absorb(phase)
    # A pass's rate is taken at the median pass: the shared host's speed
    # swings by up to 1.5x from one second to the next.  Latency
    # percentiles pool every row of every pass.
    out.throughput(median(phase.rates), phase.latencies)
    # Every cell runs in a pool worker; report the largest of them.
    out.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out.note(f"{len(graphs)} graphs x {len(ALGORITHMS)} + "
             f"{len(apn_graphs)} x {len(APN_ALGORITHMS)} APN = "
             f"{ROWS} rows per pass; {len(phase.rates)} passes")
    return out
