"""Processor-selection rules: the ``proc=`` axis of the component space.

Two shapes exist, mirroring the split the paper draws between the
"greedy" BNP schedulers and the exhaustive pair-searchers:

*Decoupled* selectors (``est``, ``eft``) let the ready pool decide
*which* node is next, then choose the processor for that node alone.
*Coupled* selectors (``etf``, ``dls``) choose node and processor
together over every (ready node, candidate processor) pair each step —
the ready-pool ordering is irrelevant to them, and the priority rule
participates through its scalar ``value`` (ETF's tie-break, DLS's
dynamic-level term).

A :class:`ProcSelector` is a stateless, shared description;
:meth:`ProcSelector.start` returns the per-run :class:`SelectorState`,
which probes start times through the run's
:class:`~repro.core.listsched.StartOracle`.
The coupled state is one array of (ready node × candidate processor)
start times, kept current.  A ready node's parents are final, so its
arrival profile is built once, when the node is released, and gives it
one row.  A cell holds while the oracle's revision of its processor
does (on a clique: no placement there since — by the loop, the
``hole`` filler or an online replan's pins; on a network: no message
booked either), so a step looks only at the columns whose revision
moved, plus a new column when the shortlist gains a processor.
Append-only on a clique, a node's data-ready row is fixed at release
and its starts are ``max(data-ready row, processor ready times)``, one
vector operation.  Under slot search and on networks a moved column's
cells turn stale but keep their values: within a run placements only
append or fill gaps and bookings are never released (the oracle's
``removals`` must hold, or the pick raises), so no start decreases and
a kept start is a lower bound on the current one.  The priority
values are read as an array every step, and one argmin over the array
picks the least ``(est - shift, tie, node, proc)`` key; while that
cell is stale, every stale cell whose kept lead is at or below it is
re-probed and the argmin taken again.  A fresh argmin is the full
refresh's: every other cell's true key is at least its kept one.  A
step costs at most O(ready × moved columns) probes and O(ready ×
columns) vector work, in O(ready × columns) memory.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ...check import sanitize as _sanitize
from ...core.exceptions import ScheduleError
from ...core.listsched import (
    best_proc_min_eft,
    best_proc_min_est,
    est_on_proc,
    ReadyTracker,
    StartOracle,
)
from .pools import ReadyPool
from .priorities import PriorityState

__all__ = ["ProcSelector", "SelectorState", "PROC_SELECTORS"]

#: Decoupled choice for one node: ``(oracle, node, slot) -> (proc, start)``.
Choose = Callable[[StartOracle, int, bool], Tuple[int, float]]
#: A priority value, or an array of them.
Values = Union[float, np.ndarray]
#: Coupled pair rank: ``value -> (shift, tie)``, elementwise on arrays.
#: A pair's key is ``(est - shift, tie, node, proc)``, smallest first.
Rank = Callable[[Values], Tuple[Values, Values]]


class SelectorState:
    """Per-run selection state produced by :meth:`ProcSelector.start`."""

    def pick(self, pool: ReadyPool) -> Tuple[int, int, float]:
        """The next ``(node, proc, start)`` placement."""
        raise NotImplementedError


class ProcSelector:
    """One value of the ``proc=`` axis.

    Exactly one of ``choose`` (decoupled: pop the pool, then pick the
    node's processor) and ``rank`` (coupled: order every pair) is set.
    Instances hold no run data — the registry memoises schedulers and
    the service runs them on several threads at once — so all of it
    lives in the state :meth:`start` returns.
    """

    __slots__ = ("key", "summary", "coupled", "_choose", "_rank")

    def __init__(self, key: str, summary: str, *,
                 choose: Optional[Choose] = None,
                 rank: Optional[Rank] = None):
        self.key = key
        self.summary = summary
        self.coupled = rank is not None
        self._choose = choose
        self._rank = rank

    def start(self, oracle: StartOracle, ready: ReadyTracker,
              prio: PriorityState, slot: bool) -> SelectorState:
        """Per-run state; ``slot`` is the insertion policy's flag."""
        if self._rank is not None:
            return _PairScan(oracle, ready, prio, slot, self._rank)
        assert self._choose is not None
        return _PopState(oracle, slot, self._choose)


class _PopState(SelectorState):
    """Decoupled selection: the pool names the node, ``choose`` its proc."""

    __slots__ = ("_oracle", "_slot", "_choose")

    def __init__(self, oracle: StartOracle, slot: bool, choose: Choose):
        self._oracle = oracle
        self._slot = slot
        self._choose = choose

    def pick(self, pool: ReadyPool) -> Tuple[int, int, float]:
        node = pool.pop()
        proc, start = self._choose(self._oracle, node, self._slot)
        return node, proc, start


def _etf_rank(value: Values) -> Tuple[Values, Values]:
    """ETF: key ``(est, -value, node, proc)`` — earliest start first,
    the larger priority value on ties."""
    return 0.0, -value


def _dls_rank(value: Values) -> Tuple[Values, Values]:
    """DLS: key ``(est - value, 0, node, proc)`` — the largest dynamic
    level first.

    Round-to-nearest is symmetric under negation, so ``est - value`` is
    exactly ``-(value - est)``, the negated level DLS maximises.  Two
    different start times can round to one level; the processor id then
    decides, which is why a row's best is not simply its earliest start.
    """
    return value, 0.0


class _PairScan(SelectorState):
    """The coupled (ready node × candidate processor) scan, as one array.

    Row ``r`` is ready node ``_nodes[r]``; column ``c`` is candidate
    processor ``_procs[c]``, in ascending id.  The shortlist only grows
    while the loop places nodes, so it is re-read only when the number
    of used processors changes.  The node's start on the processor is
    ``max(_cells[r, c], _floor[c])``: append-only on a clique, the
    cells are the node's data-ready times, final at its release, and
    the floor is the processor's ready time; otherwise (slot search, or
    a network booking messages) the cells are the probed start times,
    or lower bounds on them where ``_stale`` is set, and the floor is
    ``-inf``.
    """

    __slots__ = ("_oracle", "_schedule", "_ready", "_prio", "_slot",
                 "_rank", "_append", "_procs", "_seen", "_used",
                 "_released", "_live", "_nodes", "_probes", "_cells",
                 "_stale", "_floor", "_removals")

    def __init__(self, oracle: StartOracle, ready: ReadyTracker,
                 prio: PriorityState, slot: bool, rank: Rank):
        self._oracle = oracle
        self._schedule = oracle.schedule
        self._ready = ready
        self._prio = prio
        self._slot = slot
        self._rank = rank
        # Append-only (insert=off|hole) on a clique: starts are
        # max(data-ready time, processor ready time), vectorised.
        self._append = not slot and not oracle.books_messages
        self._procs: List[int] = []  # column -> processor id
        self._seen: List[object] = []  # column -> revision last read
        self._used = -1              # processors_used() at the last sync
        self._released = 0           # ready.released_since mark
        self._live = ready.ready_mask()
        self._nodes = np.empty(0, dtype=np.int64)  # row -> node
        # node -> (data-ready times by processor, duration or None
        # when it depends on the processor)
        self._probes: Dict[int, Tuple[Callable[[int], float],
                                      Optional[float]]] = {}
        self._cells = np.empty((0, 0))
        self._stale = np.empty((0, 0), dtype=bool)
        self._floor = np.empty(0)
        # Kept cells are lower bounds only while nothing is taken back.
        self._removals = oracle.removals()

    def pick(self, pool: ReadyPool) -> Tuple[int, int, float]:
        if self._oracle.removals() != self._removals:
            raise ScheduleError(
                "a placement or message booking was taken back while a "
                "pair scan was live: its kept start times no longer "
                "bound the probed ones")
        self._drop_placed()
        self._invalidate(self._changed_columns())
        self._add_released()
        # Re-read every step: a dynamic rule (dnode) may move them.
        nodes = self._nodes
        shift, tie = self._rank(self._prio.values(nodes))
        if isinstance(shift, np.ndarray):
            shift = shift[:, None]
        # Rows in (tie, node) order and columns in processor order make
        # the first minimum the least (lead, tie, node, proc) key.
        order = np.lexsort((nodes, tie)) if isinstance(tie, np.ndarray) \
            else nodes.argsort()
        starts = np.maximum(self._cells, self._floor) if self._append \
            else self._cells
        while True:
            lead = starts - shift
            row, col = divmod(int(lead[order].argmin()), len(self._procs))
            row = int(order[row])
            if self._append or not self._stale[row, col]:
                break
            # A stale cell's true lead is at least its kept one, so only
            # the stale cells at or below the least kept lead can beat
            # it; once the least cell is fresh, it is the true least.
            self._refresh(np.flatnonzero(
                self._stale & (lead <= lead[row, col])))
        node, proc = int(nodes[row]), self._procs[col]
        est = float(starts[row, col])
        if _sanitize.enabled():
            self._check(node, proc, est)
        return node, proc, est

    def _drop_placed(self) -> None:
        """Drop the rows of nodes placed since the last step."""
        nodes = self._nodes
        keep = self._live[nodes].view(bool)
        if np.count_nonzero(keep) == len(nodes):
            return
        for node in nodes[~keep].tolist():
            del self._probes[node]
        self._nodes = nodes[keep]
        self._cells = self._cells[keep]
        if not self._append:
            self._stale = self._stale[keep]

    def _changed_columns(self) -> List[int]:
        """Columns whose revision moved since they were last read.

        A column joining the shortlist counts as changed (never probed).
        """
        oracle, procs = self._oracle, self._procs
        used = self._schedule.processors_used()
        if used != self._used:
            self._used = used
            for proc in oracle.procs():
                c = bisect.bisect_left(procs, proc)
                if c == len(procs) or procs[c] != proc:
                    self._add_column(c, proc)
        seen, self._seen = self._seen, list(oracle.revisions(procs))
        return [c for c, (old, rev) in enumerate(zip(seen, self._seen))
                if old != rev]

    def _add_column(self, c: int, proc: int) -> None:
        self._procs.insert(c, proc)
        self._seen.insert(c, None)
        cells, floor, probes = self._cells, self._floor, self._probes
        # A cell never probed holds -inf, the weakest lower bound.
        grown = np.full((len(cells), len(floor) + 1), -np.inf)
        grown[:, :c], grown[:, c + 1:] = cells[:, :c], cells[:, c:]
        if self._append:
            grown[:, c] = [probes[node][0](proc)
                           for node in self._nodes.tolist()]
        else:
            self._stale = np.insert(self._stale, c, True, axis=1)
        self._cells = grown
        self._floor = np.concatenate((floor[:c], [-np.inf], floor[c:]))

    def _invalidate(self, cols: List[int]) -> None:
        """Account for the columns ``cols`` having moved.

        Append-only, a moved column re-reads its processor's ready
        time.  Otherwise its cells turn stale and keep their values:
        placements only append or fill gaps and bookings are never
        released while the scan is live, so no start ever decreases,
        and a kept start is a lower bound on the current one.
        """
        if self._append:
            schedule, procs, floor = self._schedule, self._procs, \
                self._floor
            for c in cols:
                floor[c] = schedule.proc_ready_time(procs[c])
        elif cols:
            self._stale[:, cols] = True

    def _refresh(self, flat: np.ndarray) -> None:
        """Re-probe the cells at flat indices ``flat``; they turn fresh."""
        schedule, slot = self._schedule, self._slot
        slot_of, duration_of = schedule.earliest_slot, schedule.duration_of
        nodes, procs, probes = self._nodes, self._procs, self._probes
        rows, cols = np.divmod(flat, len(procs))
        values = []
        for r, c in zip(rows.tolist(), cols.tolist()):
            node, proc = int(nodes[r]), procs[c]
            drt, dur = probes[node]
            values.append(slot_of(proc, drt(proc), duration_of(node, proc)
                                  if dur is None else dur,
                                  insertion=slot))
        self._cells.flat[flat] = values
        self._stale.flat[flat] = False

    def _starts(self, node: int, drt: Callable[[int], float],
                dur: Optional[float], procs: List[int]) -> List[float]:
        """``node``'s start times on ``procs``, probed one by one."""
        schedule, slot = self._schedule, self._slot
        slot_of, duration_of = schedule.earliest_slot, schedule.duration_of
        return [slot_of(proc, drt(proc), duration_of(node, proc)
                        if dur is None else dur, insertion=slot)
                for proc in procs]

    def _add_released(self) -> None:
        """Add one fresh row per node released since the last step."""
        fresh, self._released = self._ready.released_since(self._released)
        if not fresh:
            return
        schedule, procs, probes = self._schedule, self._procs, \
            self._probes
        rows: List[List[float]] = []
        for node in fresh:
            drt = self._oracle.drt_of(node)
            dur = schedule.duration_of(node, 0) \
                if schedule.speeds is None else None
            probes[node] = (drt, dur)
            rows.append([drt(proc) for proc in procs] if self._append
                        else self._starts(node, drt, dur, procs))
        self._nodes = np.concatenate((self._nodes, fresh))
        self._cells = np.concatenate((self._cells, rows))
        if not self._append:
            self._stale = np.concatenate(
                (self._stale, np.zeros((len(fresh), len(procs)), bool)))

    def _check(self, node: int, proc: int, est: float) -> None:
        """Sanitizer oracles: every kept start bounds its probe, and a
        full rescan picks the same pair."""
        oracle, slot = self._oracle, self._slot
        for r, c in zip(*np.nonzero(self._stale)):
            cand, p = int(self._nodes[r]), self._procs[c]
            kept, fresh = float(self._cells[r, c]), est_on_proc(
                oracle, cand, p, slot)
            _sanitize.require(
                fresh >= kept,
                f"pair scan keeps {kept!r} for node {cand} on P{p}, above "
                f"its probed start {fresh!r}: a kept start must bound it")
        want: Optional[Tuple[float, float, int, int]] = None
        for cand in self._ready.iter_ready():
            shift, tie = map(float, self._rank(self._prio.value(cand)))
            for p in oracle.procs():
                key = (est_on_proc(oracle, cand, p, slot) - shift, tie,
                       cand, p)
                if want is None or key < want:
                    want = key
        assert want is not None
        _sanitize.require(
            want[2:] == (node, proc),
            f"incremental pair scan picked node {node} on P{proc} but a "
            f"full rescan picks node {want[2]} on P{want[3]}")
        fresh = est_on_proc(oracle, node, proc, slot)
        _sanitize.require(
            abs(est - fresh) <= 1e-9,
            f"incremental pair scan starts node {node} on P{proc} at "
            f"{est!r} but the earliest start there is {fresh!r}")


PROC_SELECTORS: Dict[str, ProcSelector] = {
    "est": ProcSelector(
        "est",
        "pop the pool's best node; place on the processor minimising "
        "its start time",
        choose=best_proc_min_est),
    "eft": ProcSelector(
        "eft",
        "pop the pool's best node; place on the processor minimising "
        "its finish time (HEFT-style; differs from est only under "
        "heterogeneous speeds)",
        choose=best_proc_min_eft),
    "etf": ProcSelector(
        "etf",
        "ETF's global scan: the (ready node, processor) pair with the "
        "overall earliest start wins; priority value breaks ties",
        rank=_etf_rank),
    "dls": ProcSelector(
        "dls",
        "DLS's dynamic level: maximise priority value minus start time "
        "over all (ready node, processor) pairs",
        rank=_dls_rank),
}
