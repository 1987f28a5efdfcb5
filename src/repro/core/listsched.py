"""Shared list-scheduling machinery.

All six BNP algorithms and the APN list schedulers MH and DLS-APN are
one loop (:mod:`repro.algorithms.components`): keep a ready list, pick
the highest-priority ready node, pick a processor, place, release
children.  This module holds the pieces the loop shares: ready
tracking and the clique :class:`StartOracle`, which probes and commits
start times (:class:`repro.network.contention.LinkOracle` is the
network's).

The hot paths are built on the flat-array kernel
(:mod:`repro.core.kernel`): ready membership is an array of flags plus
an append-only order list, best-ready selection is a lazy-deletion heap,
and processor choice queries one :class:`~repro.core.kernel.ArrivalProfile`
per node instead of rescanning the parents for every candidate
processor.
"""

from __future__ import annotations

from typing import Callable, Container, Iterator, List, Sequence, Tuple

import numpy as np

from ..check import sanitize as _sanitize
from .graph import TaskGraph
from .kernel import LazyPriorityQueue
from .schedule import Schedule

__all__ = [
    "ReadyTracker",
    "StartOracle",
    "candidate_procs",
    "est_on_proc",
    "best_proc_min_est",
    "best_proc_min_eft",
]


class ReadyTracker:
    """Tracks which unscheduled nodes have all parents scheduled.

    The ready set starts with the entry nodes; :meth:`mark_scheduled`
    releases children whose last parent was just placed.  Iteration order
    is unspecified — ordering is the calling algorithm's job.

    Membership is an array of flags (``bytearray``) plus an append-only
    order list: a node becomes ready exactly once, so the list never
    holds more than ``v`` entries and :meth:`iter_ready` just skips the
    flags that have been cleared since.
    """

    __slots__ = ("graph", "_unscheduled_parents", "_in_ready",
                 "_ready_order", "_scheduled", "_num_left")

    def __init__(self, graph: TaskGraph):
        self.graph = graph
        n = graph.num_nodes
        self._unscheduled_parents = [graph.in_degree(v) for v in
                                     graph.nodes()]
        self._in_ready = bytearray(n)
        self._ready_order: List[int] = list(graph.entry_nodes)
        for node in self._ready_order:
            self._in_ready[node] = 1
        self._scheduled = bytearray(n)
        self._num_left = n

    @property
    def ready(self) -> frozenset:
        """Frozen view of the current ready set.

        A *view*: callers may iterate and compare but cannot mutate the
        tracker through it — historical bugs where an algorithm
        "helpfully" discarded nodes from the live set are now type
        errors.
        """
        return frozenset(self.iter_ready())

    def iter_ready(self) -> Iterator[int]:
        """Iterate the ready nodes (in becoming-ready order)."""
        flags = self._in_ready
        return (node for node in self._ready_order if flags[node])

    def is_ready(self, node: int) -> bool:
        return bool(self._in_ready[node])

    def ready_mask(self) -> np.ndarray:
        """Read-only live view of the ready flags: one uint8 per node."""
        mask = np.frombuffer(self._in_ready, dtype=np.uint8)
        mask.flags.writeable = False
        return mask

    def released_since(self, mark: int) -> Tuple[List[int], int]:
        """Ready nodes released since ``mark``, and the mark for next time.

        Marks count releases, so ``released_since(0)`` lists the whole
        ready set in becoming-ready order.
        """
        order, flags = self._ready_order, self._in_ready
        return [node for node in order[mark:] if flags[node]], len(order)

    def mark_scheduled(self, node: int) -> List[int]:
        """Remove ``node`` from the ready set; return newly-ready children."""
        if self._in_ready[node]:
            self._in_ready[node] = 0
        if not self._scheduled[node]:
            self._scheduled[node] = 1
            self._num_left -= 1
        released: List[int] = []
        remaining = self._unscheduled_parents
        for child in self.graph.successors(node):
            remaining[child] -= 1
            if remaining[child] == 0:
                self._in_ready[child] = 1
                self._ready_order.append(child)
                released.append(child)
        return released

    def all_scheduled(self) -> bool:
        return self._num_left == 0

    def priority_queue(self, key: Callable[[int], Tuple]
                       ) -> LazyPriorityQueue:
        """A lazy heap over this tracker's ready set.

        ``key`` orders ascending (smallest pops first).  The queue seeds
        itself from the current ready set; push newly-released children
        (and any node whose key changed) as scheduling progresses.
        """
        return LazyPriorityQueue(key, self.is_ready,
                                 initial=list(self.iter_ready()))


def candidate_procs(schedule: Schedule) -> List[int]:
    """Processors worth examining in the clique model (a fresh list).

    Identical empty processors are interchangeable — a node's EST is the
    same on every one of them — so it suffices to examine the used
    processors plus the first empty one.  This keeps the paper's
    "virtually unlimited number of processors" BNP runs (Section 6.4.2)
    at ``O(used)`` instead of ``O(p)`` per decision without changing any
    scheduling outcome.  The ids come in ascending order, which the
    lowest-id tie-breaking of every scan relies on.

    Under the heterogeneous speed model empty processors are *not*
    interchangeable, so the shortlist instead adds the first idle
    processor of each distinct speed.
    """
    return list(_shortlist(schedule))


def _shortlist(schedule: Schedule) -> Sequence[int]:
    """:func:`candidate_procs`, without a copy where it can be a range.

    The schedule keeps its first empty processor current, and every id
    below it is used; in the usual case (no used id above it) the
    shortlist is ``range(first empty + 1)``.
    """
    num_procs = schedule.num_procs
    empty = schedule.first_empty_proc()
    if schedule.speeds is None:
        if schedule.processors_used() == empty:
            return range(min(empty + 1, num_procs))
        procs = schedule.used_proc_ids()
        if empty < num_procs:
            procs.insert(empty, empty)
        return procs
    procs = schedule.used_proc_ids()
    if len(procs) < num_procs:
        used = set(procs)
        seen_speeds = set()
        for p in range(empty, num_procs):
            if p in used:
                continue
            speed = schedule.speeds[p]
            if speed not in seen_speeds:
                seen_speeds.add(speed)
                procs.append(p)
        procs.sort()  # preserve exact lowest-id tie-breaking
    return procs


class StartOracle:
    """Start times in the clique model, for one component-loop run.

    :meth:`procs` names the processors worth probing, :meth:`drt_of` a
    ready node's data-ready time per processor and :meth:`drt_split`
    the same, split for a pruned scan, :meth:`drt` one from scratch; a
    probed start holds while :meth:`revision` of its processor does
    (:meth:`revisions` reads several at once), and no start moves
    earlier while :meth:`removals` holds; :meth:`commit` places a
    node and returns its start.  ``books_messages`` marks an oracle
    whose commits book messages.
    """

    books_messages = False

    __slots__ = ("schedule",)

    def __init__(self, schedule: Schedule):
        self.schedule = schedule

    def procs(self) -> Sequence[int]:
        """:func:`candidate_procs`, ascending (read-only)."""
        return _shortlist(self.schedule)

    def drt_of(self, node: int) -> Callable[[int], float]:
        return self.schedule.arrival_profile(node).drt

    def drt_split(self, node: int) -> Tuple[Callable[[int], float],
                                            Container[int], float]:
        """``(drt, probed, rest)``: ``node``'s data-ready times, split.

        ``drt`` answers any processor; on a processor not in ``probed``
        the answer is always ``rest``.  On a clique ``probed`` holds
        the processors of the node's parents and ``rest`` is the
        latest remote arrival, the data-ready time everywhere else.
        One arrival profile per call, like :meth:`drt_of`.
        """
        profile = self.schedule.arrival_profile(node)
        return profile.drt, profile.local, profile.r1

    def revision(self, proc: int) -> object:
        return self.schedule.revision(proc)

    def revisions(self, procs: Sequence[int]) -> Sequence[object]:
        """:meth:`revision` of each of ``procs``."""
        return self.schedule.revisions(procs)

    def removals(self) -> int:
        """How many placements (and bookings) were ever taken back.

        While it holds, no probed start time has moved earlier: a start
        only grows as placements and bookings are added.
        """
        return self.schedule.removals

    def drt(self, node: int, proc: int) -> float:
        return self.schedule.data_ready_time(node, proc)

    def commit(self, node: int, proc: int, start: float) -> float:
        self.schedule.place(node, proc, start)
        return start


def est_on_proc(oracle: StartOracle, node: int, proc: int,
                insertion: bool) -> float:
    """Earliest start of ``node`` on ``proc``, probed from scratch."""
    schedule = oracle.schedule
    return schedule.earliest_slot(proc, oracle.drt(node, proc),
                                  schedule.duration_of(node, proc),
                                  insertion=insertion)


def best_proc_min_est(oracle: StartOracle, node: int,
                      insertion: bool) -> Tuple[int, float]:
    """Greedy processor choice: minimise the start time of ``node``.

    Ties break toward the lowest processor id (deterministic, and keeps
    the processors-used count honest for Figure 3): the processors are
    visited in ascending id, and one replaces the best so far only when
    its start is more than ``1e-12`` earlier.

    On a heterogeneous schedule the start alone is a bad criterion — a
    slow processor can offer the earliest start but the latest finish —
    so the choice generalises to minimum *finish* time (the standard
    related-machines generalisation of list scheduling, cf. HEFT).  On
    the paper's homogeneous machines the duration is the same on every
    processor, so both disciplines pick the same processor and this is
    exactly min-EST.  Both are one pruned scan, :func:`_min_scan`.
    """
    return _min_scan(oracle, node, insertion,
                     by_finish=oracle.schedule.speeds is not None)


def best_proc_min_eft(oracle: StartOracle, node: int,
                      insertion: bool) -> Tuple[int, float]:
    """Processor minimising the *finish* time, and the start there.

    Equivalent to :func:`best_proc_min_est` on uniform processors; under
    heterogeneous speeds a slower processor may offer the earlier start
    but the later finish, so the finish is minimised explicitly.
    """
    return _min_scan(oracle, node, insertion, by_finish=True)


def _min_scan(oracle: StartOracle, node: int, insertion: bool,
              by_finish: bool) -> Tuple[int, float]:
    """The processor with the least start (or finish), and the start.

    Exactly the sequential scan over :meth:`StartOracle.procs` in
    ascending id, where a processor replaces the best so far when its
    key is below ``best - 1e-12``, but a processor is probed only when
    it could pass that test.  A start is never below the data-ready
    time ``d``, nor a finish below ``d + duration`` (float addition is
    monotone), so a processor whose bound is ``>= best - 1e-12`` is
    skipped without a slot search: the same float expression as the
    test, so the skip is exact.  On every processor outside
    :meth:`StartOracle.drt_split`'s ``probed`` set (on a clique: the
    ones hosting no parent) ``d`` is the same ``rest`` and is not
    probed at all.  An append-only start is ``max(d, last finish)``;
    slot search runs only on processors the bound keeps.  A processor
    network probes every processor, so there the bound saves slot
    searches only.
    """
    schedule = oracle.schedule
    drt, probed, rest = oracle.drt_split(node)
    uniform = schedule.speeds is None
    duration = schedule.duration_of(node, 0) if uniform else 0.0
    # The key is start + extra: extra is 0.0 (start + 0.0 == start) for
    # a start key, the duration for a finish key.
    extra = duration if by_finish else 0.0
    rest_key = rest + extra
    finishes = schedule._finishes  # the append-only start reads these
    best_p, best_t, cut = 0, float("inf"), float("inf")
    for p in oracle.procs():
        d = drt(p) if p in probed else rest
        if not uniform:
            duration = schedule.duration_of(node, p)
            if by_finish:
                extra = duration
        if d + extra >= cut:
            continue
        if insertion:
            t = schedule.earliest_slot(p, d, duration, insertion=True)
        else:
            fins = finishes[p]
            t = fins[-1] if fins and fins[-1] > d else d
        if t + extra < cut:
            best_p, best_t, cut = p, t, t + extra - 1e-12
    if _sanitize.enabled():
        _check_min_scan(oracle, node, insertion, by_finish, best_p, best_t)
    return best_p, best_t


def _check_min_scan(oracle: StartOracle, node: int, insertion: bool,
                    by_finish: bool, proc: int, start: float) -> None:
    """Sanitizer oracle: the unpruned scan, probed from scratch, agrees."""
    schedule = oracle.schedule
    want_p, want_t, cut = 0, float("inf"), float("inf")
    for p in oracle.procs():
        t = est_on_proc(oracle, node, p, insertion)
        key = t + schedule.duration_of(node, p) if by_finish else t
        if key < cut:
            want_p, want_t, cut = p, t, key - 1e-12
    _sanitize.require(
        proc == want_p and abs(start - want_t) <= 1e-9,
        f"pruned min-{'EFT' if by_finish else 'EST'} scan places node "
        f"{node} on P{proc} at {start!r} but the full scan picks P{want_p} "
        f"at {want_t!r}")
