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
The coupled state is incremental.  A ready node's parents are final, so
its arrival profile is built once, when the node is released, and the
state caches one start time per (ready node, candidate processor).  It
holds while the oracle's revision of its processor does (on a clique:
no placement there since — by the loop, the ``hole`` filler or an
online replan's pins; on a network: no message booked either), so a
step re-probes only the columns whose revision moved since the last
step — plus a new column when the shortlist gains a
processor and a new row per released node.  Each row keeps its best
pair, re-derived from its cached row only when that pair got worse or
the node's priority value moved, so a step costs O(ready × edited
processors) slot probes plus an O(ready) choice across nodes, in
O(ready × p) memory.  Remaining ties break on node, then processor id.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ...check import sanitize as _sanitize
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
#: Coupled pair rank: ``value -> (shift, tie)``.  A pair's key is
#: ``(est - shift, tie, node, proc)``, smallest first.
Rank = Callable[[float], Tuple[float, float]]


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


def _etf_rank(value: float) -> Tuple[float, float]:
    """ETF: key ``(est, -value, node, proc)`` — earliest start first,
    the larger priority value on ties."""
    return 0.0, -value


def _dls_rank(value: float) -> Tuple[float, float]:
    """DLS: key ``(est - value, 0, node, proc)`` — the largest dynamic
    level first.

    Round-to-nearest is symmetric under negation, so ``est - value`` is
    exactly ``-(value - est)``, the negated level DLS maximises.  Two
    different start times can round to one level; the processor id then
    decides, which is why a row's best is not simply its earliest start.
    """
    return value, 0.0


class _Row:
    """One ready node's slice of the pair scan.

    ``ests[c]`` is the node's start time on column ``c``'s processor;
    ``key`` is the node's best pair key, found in column ``col``, under
    the ``shift``/``tie`` its priority ``value`` ranks with.
    """

    __slots__ = ("node", "drt", "dur", "ests", "value", "shift",
                 "tie", "key", "col")

    def __init__(self, node: int, drt: Callable[[int], float],
                 dur: Optional[float]):
        self.node = node
        self.drt = drt
        self.dur = dur  # None: the duration depends on the processor
        self.ests: List[float] = []
        self.value = 0.0
        self.shift = 0.0
        self.tie = 0.0
        self.key: Tuple[float, float, int, int] = (0.0, 0.0, node, -1)
        self.col = -1


class _PairScan(SelectorState):
    """The coupled (ready node × candidate processor) scan, kept current.

    Columns are the oracle's candidate processors in the order they
    joined the shortlist; the shortlist only grows while the loop
    places nodes, so it is re-read only when the number of used
    processors changes.
    """

    __slots__ = ("_oracle", "_schedule", "_ready", "_prio", "_slot",
                 "_rank", "_procs", "_seen", "_used", "_rows")

    def __init__(self, oracle: StartOracle, ready: ReadyTracker,
                 prio: PriorityState, slot: bool, rank: Rank):
        self._oracle = oracle
        self._schedule = oracle.schedule
        self._ready = ready
        self._prio = prio
        self._slot = slot
        self._rank = rank
        self._procs: List[int] = []  # column -> processor id
        self._seen: List[object] = []  # column -> revision last probed
        self._used = -1              # processors_used() at the last sync
        self._rows: Dict[int, _Row] = {}

    def pick(self, pool: ReadyPool) -> Tuple[int, int, float]:
        changed = self._changed_columns()
        value_of = self._prio.value
        old = self._rows
        rows: Dict[int, _Row] = {}
        best: Optional[_Row] = None
        for node in self._ready.iter_ready():
            # Re-read every step: a dynamic rule (dnode) may move it.
            value = value_of(node)
            row = old.get(node)
            if row is None:
                row = self._new_row(node, value)
            elif value != row.value:
                self._probe_columns(row, changed)
                self._rank_row(row, value)
            elif changed:
                self._refresh(row, changed)
            rows[node] = row
            if best is None or row.key < best.key:
                best = row
        # Rows of nodes placed since the last step are dropped here.
        self._rows = rows
        assert best is not None, "pick() called with no ready node"
        node, proc, est = best.node, best.key[3], best.ests[best.col]
        if _sanitize.enabled():
            self._check(node, proc, est)
        return node, proc, est

    def _changed_columns(self) -> List[int]:
        """Columns whose revision moved since they were last probed.

        A column joining the shortlist counts as changed (never probed).
        """
        oracle = self._oracle
        used = self._schedule.processors_used()
        if used != self._used:
            self._used = used
            known = set(self._procs)
            for proc in oracle.procs():
                if proc not in known:
                    self._procs.append(proc)
                    self._seen.append(None)
        seen = self._seen
        revision = oracle.revision
        changed = []
        for c, proc in enumerate(self._procs):
            rev = revision(proc)
            if rev != seen[c]:
                seen[c] = rev
                changed.append(c)
        return changed

    def _probe_columns(self, row: _Row, cols: List[int]) -> None:
        """Re-probe ``row``'s start time on each column in ``cols``."""
        schedule, procs = self._schedule, self._procs
        ests = row.ests
        if len(ests) < len(procs):
            ests.extend([0.0] * (len(procs) - len(ests)))  # new: in cols
        drt, slot_of, slot = row.drt, schedule.earliest_slot, \
            self._slot
        for c in cols:
            proc = procs[c]
            dur = row.dur if row.dur is not None \
                else schedule.duration_of(row.node, proc)
            ests[c] = slot_of(proc, drt(proc), dur, insertion=slot)

    def _new_row(self, node: int, value: float) -> _Row:
        schedule = self._schedule
        dur = schedule.duration_of(node, 0) if schedule.speeds is None \
            else None
        row = _Row(node, self._oracle.drt_of(node), dur)
        self._probe_columns(row, list(range(len(self._procs))))
        self._rank_row(row, value)
        return row

    def _rank_row(self, row: _Row, value: float) -> None:
        """Rank ``row`` at ``value`` and find its best pair from scratch."""
        row.value = value
        row.shift, row.tie = self._rank(value)
        self._argmin(row)

    def _argmin(self, row: _Row) -> None:
        shift = row.shift
        lead, proc, col = min(zip([est - shift for est in row.ests],
                                  self._procs, range(len(row.ests))))
        row.key = (lead, row.tie, row.node, proc)
        row.col = col

    def _refresh(self, row: _Row, changed: List[int]) -> None:
        """Re-probe ``changed`` columns and restore ``row``'s best pair."""
        self._probe_columns(row, changed)
        ests, procs, shift = row.ests, self._procs, row.shift
        col = row.col
        lead, proc = row.key[0], row.key[3]
        if col in changed:
            moved = ests[col] - shift
            if moved > lead:
                # The best pair got worse: any column may now win.
                self._argmin(row)
                return
            lead = moved
        for c in changed:
            if c != col and (ests[c] - shift, procs[c]) < (lead, proc):
                lead, proc, col = ests[c] - shift, procs[c], c
        row.key = (lead, row.tie, row.node, proc)
        row.col = col

    def _check(self, node: int, proc: int, est: float) -> None:
        """Sanitizer oracle: a full rescan must pick the same pair."""
        oracle, slot = self._oracle, self._slot
        want: Optional[Tuple[float, float, int, int]] = None
        for cand in self._ready.iter_ready():
            shift, tie = self._rank(self._prio.value(cand))
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
