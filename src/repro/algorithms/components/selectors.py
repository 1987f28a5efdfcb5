"""Processor-selection rules: the ``proc=`` axis of the component space.

Two shapes exist, mirroring the split the paper draws between the
"greedy" BNP schedulers and the exhaustive pair-searchers:

*Decoupled* selectors (``est``, ``eft``) let the ready pool decide
*which* node is next, then choose the processor for that node alone.
*Coupled* selectors (``etf``, ``dls``) scan every (ready node,
candidate processor) pair each step and decide node and processor
together — the ready-pool ordering is irrelevant to them, and the
priority rule participates through its scalar ``value`` (ETF's
tie-break, DLS's dynamic-level term).

Each coupled scan builds its candidate shortlist once per step, takes
one arrival profile per ready node so every pair's start time is an
O(1) query, and breaks remaining ties on node, then processor id.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ...core.listsched import (
    best_proc_min_eft,
    best_proc_min_est,
    candidate_procs,
    est_on_proc,
    ReadyTracker,
)
from ...core.schedule import Schedule
from .pools import ReadyPool
from .priorities import PriorityState

__all__ = ["ProcSelector", "PROC_SELECTORS"]


class ProcSelector:
    """One value of the ``proc=`` axis.

    ``pick`` returns the next ``(node, proc, start)`` placement;
    ``slot`` forwards the insertion policy's earliest-slot flag.
    """

    key: str = "?"
    summary: str = "?"
    coupled: bool = False

    def pick(self, schedule: Schedule, ready: ReadyTracker,
             pool: ReadyPool, prio: PriorityState,
             slot: bool) -> Tuple[int, int, float]:
        raise NotImplementedError


class _MinEstSelector(ProcSelector):
    key = "est"
    summary = ("pop the pool's best node; place on the processor "
               "minimising its start time")
    coupled = False

    def pick(self, schedule: Schedule, ready: ReadyTracker,
             pool: ReadyPool, prio: PriorityState,
             slot: bool) -> Tuple[int, int, float]:
        node = pool.pop()
        proc, start = best_proc_min_est(schedule, node, insertion=slot)
        return node, proc, start


class _MinEftSelector(ProcSelector):
    key = "eft"
    summary = ("pop the pool's best node; place on the processor "
               "minimising its finish time (HEFT-style; differs from "
               "est only under heterogeneous speeds)")
    coupled = False

    def pick(self, schedule: Schedule, ready: ReadyTracker,
             pool: ReadyPool, prio: PriorityState,
             slot: bool) -> Tuple[int, int, float]:
        node = pool.pop()
        proc, _finish = best_proc_min_eft(schedule, node, insertion=slot)
        return node, proc, est_on_proc(schedule, node, proc, slot)


class _EtfSelector(ProcSelector):
    key = "etf"
    summary = ("ETF's global scan: the (ready node, processor) pair "
               "with the overall earliest start wins; priority value "
               "breaks ties")
    coupled = True

    def pick(self, schedule: Schedule, ready: ReadyTracker,
             pool: ReadyPool, prio: PriorityState,
             slot: bool) -> Tuple[int, int, float]:
        # The schedule does not change within one step, so the
        # candidate shortlist is loop-invariant; each ready node
        # contributes one O(deg) arrival profile, then every
        # (node, proc) EST is an O(1) query.
        procs = candidate_procs(schedule)
        homogeneous = schedule.speeds is None
        best = None  # (est, -value, node, proc)
        for node in ready.iter_ready():
            profile = schedule.arrival_profile(node)
            neg = -prio.value(node)
            dur = schedule.duration_of(node, 0) if homogeneous else None
            for proc in procs:
                if not homogeneous:
                    dur = schedule.duration_of(node, proc)
                est = schedule.earliest_slot(proc, profile.drt(proc),
                                             dur, insertion=slot)
                key = (est, neg, node, proc)
                if best is None or key < best:
                    best = key
        est, _, node, proc = best
        return node, proc, est


class _DlsSelector(ProcSelector):
    key = "dls"
    summary = ("DLS's dynamic level: maximise priority value minus "
               "start time over all (ready node, processor) pairs")
    coupled = True

    def pick(self, schedule: Schedule, ready: ReadyTracker,
             pool: ReadyPool, prio: PriorityState,
             slot: bool) -> Tuple[int, int, float]:
        procs = candidate_procs(schedule)
        homogeneous = schedule.speeds is None
        best = None  # (-DL, node, proc, est)
        for node in ready.iter_ready():
            profile = schedule.arrival_profile(node)
            level = prio.value(node)
            dur = schedule.duration_of(node, 0) if homogeneous else None
            for proc in procs:
                if not homogeneous:
                    dur = schedule.duration_of(node, proc)
                est = schedule.earliest_slot(proc, profile.drt(proc),
                                             dur, insertion=slot)
                dl = level - est
                key = (-dl, node, proc)
                if best is None or key < best[:3]:
                    best = (key[0], node, proc, est)
        _, node, proc, est = best
        return node, proc, est


PROC_SELECTORS: Dict[str, ProcSelector] = {
    "est": _MinEstSelector(),
    "eft": _MinEftSelector(),
    "etf": _EtfSelector(),
    "dls": _DlsSelector(),
}
