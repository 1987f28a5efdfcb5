"""Parallel, cached execution of algorithm x graph benchmark grids.

This is the engine behind every artifact builder: it expands a grid
into ``(algorithm, graph)`` cells in the canonical serial order, skips
cells already present in a :class:`~repro.bench.store.ResultStore`
(``resume=True``), fans the remaining cells out over a
``multiprocessing`` worker pool (``jobs > 1``), and returns rows in an
order *identical* to the serial double loop — graphs outer, algorithms
inner — so tables and figures are byte-stable regardless of ``jobs``.

Scheduling a cell is a pure function of ``(algorithm, graph, config)``
— the suites are seeded and the heuristics deterministic — so the only
field that varies between runs is the measured ``runtime_s``.  That is
what makes both the cache and the fan-out safe.

The requested per-graph optimum is intentionally *not* part of the
cache key: it feeds the degradation measure only, never the schedule,
so cached rows are rebased onto the currently requested optimum via
``dataclasses.replace`` instead of being recomputed.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.graph import TaskGraph
from ..metrics.measures import RunResult
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .store import ResultStore

__all__ = ["grid_cells", "execute_cells", "run_grid", "default_jobs",
           "WorkerPool"]

# One cell of work: (algorithm name, graph, requested optimum or None).
Cell = Tuple[str, TaskGraph, Optional[float]]

#: Checkpoint cadence: the store is saved after this many new rows, so
#: an interrupted grid loses at most this much work.
SAVE_EVERY = 25


def default_jobs() -> int:
    """Worker count used for ``jobs=0`` ("auto"): one per usable CPU."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


class WorkerPool:
    """A worker pool: the grid engine's fan-out, optionally long-lived.

    ``execute_cells`` runs each call on a fresh ``WorkerPool`` and
    tears it down afterwards — right for a batch CLI run.  The service,
    handling requests for hours, keeps one ``WorkerPool`` whose workers
    stay alive across any number of :meth:`run_batch` / :meth:`imap`
    calls (forked lazily on first use, so constructing one is free, or
    up front by :meth:`ensure`).

    ``jobs`` follows the CLI convention: ``None``/``1`` — run
    in-process with no subprocesses at all; ``N > 1`` — ``N`` workers,
    which run every batch, a batch of one included; ``0`` — one per
    usable CPU.  :meth:`drain` finishes all submitted
    work and releases the workers (the SIGTERM path of the service);
    :meth:`shutdown` with ``wait=False`` kills them immediately.  The
    object is reusable after either — the next submission simply forks
    a fresh pool — and works as a context manager.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = default_jobs() if jobs == 0 else max(1, int(jobs or 1))
        self._pool: Optional[multiprocessing.pool.Pool] = None

    # ------------------------------------------------------------------
    def ensure(self) -> multiprocessing.pool.Pool:
        """Fork the workers now unless they are alive; returns the pool."""
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.jobs)
        return self._pool

    @property
    def alive(self) -> bool:
        """Whether worker processes currently exist."""
        return self._pool is not None

    def imap(self, fn, batch: Sequence, chunksize: int = 1):
        """Order-preserving lazy map over the persistent workers.

        The one dispatch rule: ``jobs <= 1`` runs in-process, anything
        else on the workers, a batch of one included (callers that
        should not fork for one item size the pool to it, as
        ``execute_cells`` does).
        """
        if self.jobs <= 1:
            return (fn(args) for args in batch)
        return self.ensure().imap(fn, batch, chunksize=chunksize)

    def run_batch(self, fn, batch: Sequence) -> List:
        """Run ``fn`` over ``batch`` on the persistent workers; returns
        results in submission order (the service's per-batch call)."""
        return list(self.imap(fn, batch))

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Finish everything submitted, then release the workers."""
        self.shutdown(wait=True)

    def shutdown(self, wait: bool = True) -> None:
        """Release the workers; ``wait=False`` terminates them."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if wait:
            pool.close()
        else:
            pool.terminate()
        pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)


def grid_cells(names: Sequence[str], graphs: Iterable[TaskGraph],
               optima: Optional[Dict[str, float]] = None) -> List[Cell]:
    """Expand a grid into cells in the canonical serial order."""
    cells: List[Cell] = []
    for graph in graphs:
        opt = optima.get(graph.name) if optima else None
        for name in names:
            cells.append((name, graph, opt))
    return cells


def _run_cell(args) -> RunResult:
    """Pool worker: schedule and measure one cell (must be module-level
    so it pickles under the spawn start method too)."""
    name, graph, config, optimal = args
    from . import runner

    return runner.run_one(name, graph, config=config, optimal=optimal)


def _observed_cell(args):
    """Run one cell inside a trace-collection scope.

    Wraps the real ``worker`` when tracing is armed (workers inherit
    ``REPRO_TRACE`` through the environment): the cell's spans, counters
    and timelines are isolated into a picklable payload and shipped home
    with the row, where the parent absorbs them in serial cell order —
    the same canonical merge whether the cell ran in-process or in any
    worker of any pool.  Must be module-level so it pickles.
    """
    cell_worker, cell_args, label = args
    with _trace.collect() as payload:
        with _trace.span("bench.cell", cell=label):
            row = cell_worker(cell_args)
    return row, payload


def execute_cells(keys: Sequence[Tuple[str, str]], work: Sequence,
                  worker, fingerprint: str,
                  jobs: Optional[int] = None,
                  store: Optional[ResultStore] = None,
                  resume: bool = False,
                  rebase=None) -> List:
    """The grid executor every cell-shaped benchmark shares.

    ``keys[i] = (algorithm, graph name)`` is cell *i*'s store cache key
    (with ``fingerprint``); ``work[i]`` is the picklable argument tuple
    handed to the module-level ``worker`` function.  Rows land at their
    serial indices regardless of ``jobs``; cached rows are reused under
    ``resume`` (optionally adapted by ``rebase(row, i)``, e.g. to point
    degradation at the currently requested optimum); computed rows are
    written back and checkpointed every :data:`SAVE_EVERY` cells plus
    once at the end.  Both the static grid (:func:`run_grid`) and the
    Monte-Carlo sim grid (:func:`repro.sim.bench.run_sim_grid`) run on
    this one implementation.  The cells run through one
    :meth:`WorkerPool.imap` of ``min(jobs, cells)`` workers, so one
    worker or one cell runs in-process.
    """
    rows: List = [None] * len(keys)
    todo: List[int] = []
    for i, (alg, gname) in enumerate(keys):
        cached = (store.get(alg, gname, fingerprint)
                  if store is not None and resume else None)
        if cached is not None:
            _metrics.incr("store.cache_hits")
            rows[i] = rebase(cached, i) if rebase is not None else cached
        else:
            todo.append(i)

    unsaved = 0

    def record(row) -> None:
        nonlocal unsaved
        if store is None:
            return
        store.put(row, fingerprint)
        unsaved += 1
        if unsaved >= SAVE_EVERY:
            store.save()
            unsaved = 0

    # Under armed tracing every cell runs through _observed_cell: its
    # spans/counters come back as a payload absorbed here in serial cell
    # order, so the merged trace and counter manifest are canonical
    # across every --jobs setting.
    observing = _trace.armed()

    def cell_label(i: int) -> str:
        alg, gname = keys[i]
        return f"{alg} on {gname}"

    jobs = default_jobs() if jobs == 0 else max(1, int(jobs or 1))
    if observing:
        fn = _observed_cell
        batch = [(worker, work[i], cell_label(i)) for i in todo]
    else:
        fn = worker
        batch = [work[i] for i in todo]
    processes = max(1, min(jobs, len(batch)))
    pool = WorkerPool(processes)
    try:
        # imap preserves submission order: rows land at their serial
        # indices no matter which worker finishes first.
        results = pool.imap(fn, batch,
                            chunksize=max(1, len(batch) // (processes * 4)))
        for i, res in zip(todo, results):
            if observing:
                res, payload = res
                _trace.absorb(payload, track=cell_label(i))
            rows[i] = res
            record(res)
    finally:
        # The results are consumed (or the grid failed): terminate the
        # workers rather than wait for them to wind down.
        pool.shutdown(wait=False)
        if store is not None and unsaved:
            store.save()
    return rows


def run_grid(names: Sequence[str], graphs: Iterable[TaskGraph],
             config=None,
             optima: Optional[Dict[str, float]] = None,
             jobs: Optional[int] = None,
             store: Optional[ResultStore] = None,
             resume: bool = False) -> List[RunResult]:
    """Run every algorithm on every graph; returns flat result rows.

    Parameters
    ----------
    jobs:
        ``None``/``1`` — run in-process; ``N > 1`` — fan cells out over
        ``N`` worker processes; ``0`` — one worker per CPU.  Row order
        and values (modulo measured runtimes) are identical across all
        settings.
    store:
        When given, every computed row is written back and the store is
        saved after the grid, so later runs can resume.
    resume:
        With ``store``, reuse cached rows for matching ``(algorithm,
        graph, config fingerprint)`` keys instead of re-scheduling;
        only missing cells are executed.
    optima:
        Optional map of graph name to known optimal length; populates
        the degradation measure on each row (cached rows included).
    """
    from . import runner  # late import; runner imports this module lazily

    config = config or runner.BenchConfig()
    cells = grid_cells(names, graphs, optima)
    keys = [(name, graph.name) for name, graph, _opt in cells]
    work = [(name, graph, config, opt) for name, graph, opt in cells]
    return execute_cells(
        keys, work, _run_cell, config.fingerprint(),
        jobs=jobs, store=store, resume=resume,
        # Cached rows rebase onto the currently requested optimum: the
        # optimum feeds only the degradation measure, never the schedule.
        rebase=lambda row, i: dataclasses.replace(row,
                                                  optimal=cells[i][2]),
    )
