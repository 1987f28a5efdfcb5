"""Schedules: task placements on processor timelines, plus validation.

A :class:`Schedule` maps every scheduled task to a processor and a start
time and maintains, per processor, a time-sorted list of busy intervals.
It supports the two processor-selection disciplines the paper contrasts:

* **non-insertion** — a task may only be appended after the last task
  already on the processor (HLFET, ETF);
* **insertion** — a task may also be placed into an idle slot between two
  already-scheduled tasks if it fits (ISH, MCP, DLS, DCP, ...).

For APN schedules, inter-processor messages are recorded as
:class:`Message` objects carrying their route and per-hop link
reservations; :func:`validate` then checks the full contention model.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    overload,
)

import numpy as np

from ..check import sanitize as _sanitize
from .exceptions import ScheduleError
from .graph import TaskGraph
from .kernel import ArrivalProfile, arrival_profile as _arrival_profile

__all__ = ["Placement", "Message", "Schedule", "Violation", "validate",
           "render_violations", "insertion_slot"]

_EPS = 1e-9
#: Nodes plus edges below which ``validate`` skips the array proof: its
#: numpy calls cost a fixed ~25 us, more than the whole iterator takes
#: on graphs this small (measured crossover: 20 nodes, 36 edges).
_PROOF_MIN_SIZE = 64


def insertion_slot(starts: Sequence[float], finishes: Sequence[float],
                   est: float, duration: float) -> float:
    """Earliest start ``>= est`` for ``duration`` among sorted busy intervals.

    ``starts``/``finishes`` list one processor's tasks in time order.
    A gap hosts the task when it ends no more than ``1e-9`` before the
    task would; failing every gap, the task goes after the last one.
    """
    if not starts:
        return est
    # Gap before the first task.
    if est + duration <= starts[0] + _EPS:
        return est
    # Gaps between consecutive tasks.  Only gaps ending after est can
    # host the task, so start scanning at the first task whose finish
    # exceeds est.
    i = bisect.bisect_right(finishes, est)
    if i > 0:
        i -= 1
    for k in range(i, len(starts) - 1):
        gap_start = max(est, finishes[k])
        if gap_start + duration <= starts[k + 1] + _EPS:
            return gap_start
    return max(est, finishes[-1])


@dataclass(frozen=True)
class Placement:
    """A task's assignment: processor, start and finish times."""

    node: int
    proc: int
    start: float
    finish: float


@dataclass
class Message:
    """A scheduled inter-processor message for edge ``(src, dst)``.

    ``hops`` lists ``(link, start, finish)`` reservations along the route,
    in order; ``arrival`` is when the data is available at the receiving
    processor.  For clique machines messages are implicit and never
    recorded.
    """

    src: int
    dst: int
    route: Tuple[int, ...]
    hops: List[Tuple[Tuple[int, int], float, float]] = field(default_factory=list)
    arrival: float = 0.0


class Schedule:
    """A (possibly partial) schedule of a task graph.

    Parameters
    ----------
    graph:
        The task graph being scheduled.
    num_procs:
        Number of processor timelines to maintain.
    speeds:
        Optional per-processor speed factors (the heterogeneous machine
        model): a task of weight ``w`` runs for ``w / speeds[p]`` on
        processor ``p``.  ``None`` (or all ones) is the paper's
        homogeneous model, where durations equal weights.
    """

    def __init__(self, graph: TaskGraph, num_procs: int,
                 speeds: Optional[Sequence[float]] = None):
        if num_procs < 1:
            raise ScheduleError("schedule needs at least one processor")
        from .machine import normalized_speeds

        self.graph = graph
        self.num_procs = int(num_procs)
        self.speeds = normalized_speeds(speeds, self.num_procs,
                                        error=ScheduleError)
        self._placements: Dict[int, Placement] = {}
        # Per processor: parallel sorted lists of start times, finish
        # times, and node ids.  bisect keeps slot search O(log k).
        self._starts: List[List[float]] = [[] for _ in range(num_procs)]
        self._finishes: List[List[float]] = [[] for _ in range(num_procs)]
        self._nodes: List[List[int]] = [[] for _ in range(num_procs)]
        # Flat per-node mirrors of the placements (processor -1 when the
        # node is unscheduled) — the kernel's data-ready loops index
        # these instead of chasing Placement objects.
        n = graph.num_nodes
        self._node_proc: List[int] = [-1] * n
        self._node_start: List[float] = [0.0] * n
        self._node_finish: List[float] = [0.0] * n
        # Sorted ids of non-empty processors and the lowest empty id
        # (``num_procs`` when none is empty), maintained incrementally
        # so the used-processor shortlist never rescans all timelines.
        self._used: List[int] = []
        self._first_empty = 0
        # Per processor: how many times its timeline has been edited
        # (place or unplace), so incremental scans can tell which
        # timelines changed since they last probed them.
        self._revision: List[int] = [0] * num_procs
        #: How many placements :meth:`unplace` has removed.  Between two
        #: equal readings no probed start time can have moved earlier.
        self.removals = 0
        self.messages: Dict[Tuple[int, int], Message] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_scheduled(self, node: int) -> bool:
        return node in self._placements

    def placement(self, node: int) -> Placement:
        try:
            return self._placements[node]
        except KeyError:
            raise ScheduleError(f"node {node} is not scheduled") from None

    def proc_of(self, node: int) -> int:
        return self.placement(node).proc

    def start_of(self, node: int) -> float:
        return self.placement(node).start

    def finish_of(self, node: int) -> float:
        return self.placement(node).finish

    def tasks_on(self, proc: int) -> List[Placement]:
        """Placements on ``proc`` in start-time order."""
        return [self._placements[n] for n in self._nodes[proc]]

    def nodes_on(self, proc: int) -> List[int]:
        """Node ids on ``proc`` in start-time order (a fresh list)."""
        return list(self._nodes[proc])

    def proc_ready_time(self, proc: int) -> float:
        """Finish time of the last task on ``proc`` (0 when idle)."""
        fins = self._finishes[proc]
        return fins[-1] if fins else 0.0

    def duration_of(self, node: int, proc: int) -> float:
        """Execution time of ``node`` on ``proc`` under the speed model."""
        w = self.graph.weight(node)
        if self.speeds is None:
            return w
        return w / self.speeds[proc]

    @property
    def num_scheduled(self) -> int:
        return len(self._placements)

    def is_complete(self) -> bool:
        return len(self._placements) == self.graph.num_nodes

    @property
    def length(self) -> float:
        """Schedule length (makespan) over all processors."""
        return max(
            (f[-1] for f in self._finishes if f),
            default=0.0,
        )

    def processors_used(self) -> int:
        """Number of processors with at least one task."""
        return len(self._used)

    def used_proc_ids(self) -> List[int]:
        """Ascending ids of non-empty processors (a fresh list)."""
        return list(self._used)

    def first_empty_proc(self) -> int:
        """Lowest id of an empty processor (``num_procs`` when none is).

        Every id below it is used, so the used ids above it are
        ``used_proc_ids()[first_empty_proc():]``.
        """
        return self._first_empty

    def revision(self, proc: int) -> int:
        """Edit count of ``proc``'s timeline; it grows on every change.

        Two equal readings mean no placement was added to or removed
        from ``proc`` in between, so any start time probed on it then
        still holds.
        """
        return self._revision[proc]

    def revisions(self, procs: Sequence[int]) -> List[int]:
        """:meth:`revision` of each of ``procs``."""
        return list(map(self._revision.__getitem__, procs))

    # ------------------------------------------------------------------
    # slot search
    # ------------------------------------------------------------------
    def earliest_slot(self, proc: int, est: float, duration: float,
                      insertion: bool = True) -> float:
        """Earliest start ``>= est`` for a task of ``duration`` on ``proc``.

        With ``insertion=False`` the answer is simply
        ``max(est, proc_ready_time)``.  With insertion the idle gaps
        between consecutive tasks are also searched, matching the
        insertion-based algorithms in the paper.
        """
        if duration < 0:
            raise ScheduleError("negative task duration")
        starts, fins = self._starts[proc], self._finishes[proc]
        if not insertion or not starts:
            return max(est, fins[-1] if fins else 0.0)
        return insertion_slot(starts, fins, est, duration)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def place(self, node: int, proc: int, start: float,
              duration: Optional[float] = None) -> Placement:
        """Place ``node`` on ``proc`` at ``start``; rejects overlaps.

        ``duration`` overrides the model duration (weight / speed) — the
        replay contract used by the discrete-event simulator
        (:mod:`repro.sim`), whose *executed* durations carry stochastic
        noise.  Schedulers never pass it; :func:`validate` flags any
        mismatch between placed durations and the machine model unless
        told the schedule is a simulated timeline.
        """
        if not (0 <= node < self.graph.num_nodes):
            raise ScheduleError(f"node {node} out of range")
        if node in self._placements:
            raise ScheduleError(f"node {node} already scheduled")
        if not (0 <= proc < self.num_procs):
            raise ScheduleError(f"processor {proc} out of range")
        if start < -_EPS:
            raise ScheduleError(f"negative start time {start} for node {node}")
        if duration is not None and duration < 0:
            raise ScheduleError(f"negative duration for node {node}")
        dur = self.duration_of(node, proc) if duration is None else duration
        finish = start + dur
        starts, fins, nodes = (
            self._starts[proc],
            self._finishes[proc],
            self._nodes[proc],
        )
        i = bisect.bisect_left(starts, start)
        if i > 0 and fins[i - 1] > start + _EPS:
            raise ScheduleError(
                f"node {node} overlaps node {nodes[i - 1]} on P{proc}"
            )
        if i < len(starts) and starts[i] < finish - _EPS:
            raise ScheduleError(
                f"node {node} overlaps node {nodes[i]} on P{proc}"
            )
        if not starts:
            bisect.insort(self._used, proc)
            if proc == self._first_empty:
                empty = proc + 1
                while empty < self.num_procs and self._starts[empty]:
                    empty += 1
                self._first_empty = empty
        starts.insert(i, start)
        fins.insert(i, finish)
        nodes.insert(i, node)
        self._revision[proc] += 1
        pl = Placement(node, proc, start, finish)
        self._placements[node] = pl
        self._node_proc[node] = proc
        self._node_start[node] = start
        self._node_finish[node] = finish
        if _sanitize.enabled():
            self._sanitize_placement(node, proc, i)
        return pl

    def _sanitize_placement(self, node: int, proc: int, i: int) -> None:
        """Sanitizer hook: the timeline stays sorted, mirrors stay true.

        A violation here means placement memory was corrupted *between*
        calls (the insertion itself is overlap-checked above) — e.g. a
        scheduler mutated ``_starts``/``_node_finish`` directly.
        """
        starts, fins = self._starts[proc], self._finishes[proc]
        for k in (i - 1, i):
            if 0 <= k < len(starts) - 1:
                _sanitize.require(
                    starts[k] <= starts[k + 1] + _EPS
                    and fins[k] <= starts[k + 1] + _EPS,
                    f"P{proc} timeline out of order near node {node}")
        pl = self._placements[node]
        _sanitize.require(
            self._node_proc[node] == pl.proc
            and self._node_start[node] == pl.start  # repro: noqa-RPR005 mirror identity: the same stored float, not a computed time
            and self._node_finish[node] == pl.finish,  # repro: noqa-RPR005 mirror identity: the same stored float, not a computed time
            f"flat mirrors disagree with placement of node {node}")
        _sanitize.require(proc in self._used,
                          f"P{proc} missing from the used-processor list")
        used, empty = self._used, self._first_empty
        _sanitize.require(
            (empty == len(used) or used[empty] != empty)
            and (empty == 0 or used[empty - 1] == empty - 1),
            f"first empty processor P{empty} disagrees with the used "
            "processors")

    def unplace(self, node: int) -> Placement:
        """Remove ``node`` from the schedule (used by migrating schedulers)."""
        pl = self.placement(node)
        idx = self._nodes[pl.proc].index(node)
        del self._starts[pl.proc][idx]
        del self._finishes[pl.proc][idx]
        del self._nodes[pl.proc][idx]
        del self._placements[node]
        self._revision[pl.proc] += 1
        self.removals += 1
        if not self._starts[pl.proc]:
            self._used.remove(pl.proc)
            if pl.proc < self._first_empty:
                self._first_empty = pl.proc
        self._node_proc[node] = -1
        self._node_start[node] = 0.0
        self._node_finish[node] = 0.0
        return pl

    def record_message(self, msg: Message) -> None:
        self.messages[(msg.src, msg.dst)] = msg

    # ------------------------------------------------------------------
    # data-ready helpers (clique model)
    # ------------------------------------------------------------------
    def data_ready_time(self, node: int, proc: int) -> float:
        """Earliest time all of ``node``'s inputs are available on ``proc``.

        Uses the clique communication model: a parent on another
        processor contributes ``finish(parent) + c(parent, node)``, a
        co-located parent just ``finish(parent)``.  All parents must be
        scheduled.
        """
        t = 0.0
        parents, costs = self.graph.pred_pairs(node)
        procs, fins = self._node_proc, self._node_finish
        for p, c in zip(parents, costs):
            if procs[p] < 0:
                raise ScheduleError(f"node {p} is not scheduled")
            arr = fins[p]
            if procs[p] != proc:
                arr += c
            if arr > t:
                t = arr
        return t

    def arrival_profile(self, node: int) -> "ArrivalProfile":
        """O(1)-per-processor view of ``node``'s data-ready times.

        See :class:`repro.core.kernel.ArrivalProfile`; building it costs
        one pass over the parents, after which ``profile.drt(p)`` equals
        :meth:`data_ready_time` for every ``p``.
        """
        return _arrival_profile(self, node)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[int, Tuple[int, float, float]]:
        """``{node: (proc, start, finish)}`` snapshot in placement order
        (for tests/reports)."""
        return {
            n: (pl.proc, pl.start, pl.finish)
            for n, pl in self._placements.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(graph={self.graph.name!r}, scheduled="
            f"{self.num_scheduled}/{self.graph.num_nodes}, "
            f"length={self.length:.4g}, procs={self.processors_used()})"
        )


@dataclass(frozen=True)
class Violation:
    """One schedule-invariant violation, with its node/proc context.

    ``code`` is a stable short identifier (``overlap``, ``precedence``,
    ``duration``, ...); ``node``/``proc`` are filled when the violation
    is attributable to a specific task or timeline.
    """

    code: str
    message: str
    node: Optional[int] = None
    proc: Optional[int] = None


def render_violations(violations: Sequence[Violation]) -> str:
    """Render violations as an aligned text table (CODE/NODE/PROC/DETAIL)."""
    if not violations:
        return "schedule valid: 0 violations"
    rows = [("CODE", "NODE", "PROC", "DETAIL")]
    for v in violations:
        rows.append((
            v.code,
            "-" if v.node is None else str(v.node),
            "-" if v.proc is None else f"P{v.proc}",
            v.message,
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = [
        f"{row[0]:<{widths[0]}}  {row[1]:>{widths[1]}}  "
        f"{row[2]:>{widths[2]}}  {row[3]}"
        for row in rows
    ]
    lines.append(f"{len(violations)} violation"
                 f"{'s' if len(violations) != 1 else ''}")
    return "\n".join(lines)


@overload
def validate(schedule: Schedule, *, network: Any = ...,
             check_durations: bool = ...) -> None: ...


@overload
def validate(schedule: Schedule, *, network: Any = ...,
             check_durations: bool = ...,
             collect: bool) -> Optional[List[Violation]]: ...


def validate(schedule: Schedule, *, network: Any = None,
             check_durations: bool = True,
             collect: bool = False) -> Optional[List[Violation]]:
    """Check a complete schedule against the model's invariants.

    By default raises :class:`ScheduleError` on the first violation;
    with ``collect=True`` it instead returns *all* violations as
    :class:`Violation` objects (empty list when valid), each carrying
    the offending node/processor — :func:`render_violations` formats
    them as a table.  Checks:

    1. every task is scheduled exactly once, within processor range;
    2. no two tasks overlap on a processor;
    3. every precedence edge is honoured: a child starts no earlier than
       the parent's finish plus the communication delay —
       * clique model: ``c(u, v)`` when processors differ;
       * network model (``network`` given): the recorded message's
         arrival, which itself must traverse a valid route with
         contention-free-per-channel, duration-correct hop reservations.

    ``check_durations=False`` relaxes check 2's duration half for
    simulated timelines (:mod:`repro.sim`), whose executed durations are
    perturbed away from the weights; overlap-freedom and precedence are
    still enforced.

    A clique schedule (``network=None``) of at least
    :data:`_PROOF_MIN_SIZE` nodes plus edges is first checked by array
    operations over the flat node mirrors, the timelines and the
    graph's CSR.  When they prove it valid the call returns at once;
    otherwise, and for every network schedule, the per-task iterator
    decides, so what is raised or collected never depends on the
    array pass.
    """
    g = schedule.graph
    if (network is None
            and g.num_nodes + g.num_edges >= _PROOF_MIN_SIZE
            and _proves_valid(schedule, check_durations)):
        if _sanitize.enabled():
            _sanitize.require(
                next(_iter_violations(schedule, network=None,
                                      check_durations=check_durations),
                     None) is None,
                f"array pass proved {g.name} valid, but the iterator "
                "finds a violation")
        return [] if collect else None
    violations = _iter_violations(schedule, network=network,
                                  check_durations=check_durations)
    if collect:
        return list(violations)
    for violation in violations:
        raise ScheduleError(violation.message)
    return None


def _proves_valid(schedule: Schedule, check_durations: bool) -> bool:
    """True when :func:`_iter_violations` finds nothing on a clique.

    The iterator's clique checks with its comparisons and tolerances,
    as array operations: completeness, negative starts, durations (when
    checked), each task against the one before it on its timeline, and
    every edge's ``finish(u) + c`` (``finish(u)`` on one processor).
    False only means the iterator has to look.
    """
    g = schedule.graph
    n = g.num_nodes
    if len(schedule._placements) != n:
        return False
    proc = np.array(schedule._node_proc, dtype=np.int64)
    start = np.array(schedule._node_start, dtype=np.float64)
    finish = np.array(schedule._node_finish, dtype=np.float64)
    if (start < -_EPS).any():
        return False
    if check_durations:
        duration = g.weights
        if schedule.speeds is not None:
            duration = duration / np.array(schedule.speeds)[proc]
        if (np.abs((finish - start) - duration) > 1e-6).any():
            return False
    order = np.fromiter(itertools.chain.from_iterable(schedule._nodes),
                        dtype=np.int64, count=n)
    before, after = order[:-1], order[1:]
    if ((proc[after] == proc[before])
            & (start[after] < finish[before] - _EPS)).any():
        return False
    indptr, dst, cost = g.succ_csr()
    src = np.repeat(np.arange(n), np.diff(indptr))
    ready = np.where(proc[src] == proc[dst], finish[src], finish[src] + cost)
    return not (start[dst] < ready - 1e-6).any()


def _iter_violations(schedule: Schedule, *, network: Any,
                     check_durations: bool) -> Iterator[Violation]:
    """Yield every invariant violation, in deterministic check order.

    The first yielded violation is exactly the one the raising mode of
    :func:`validate` has always reported.  An incomplete schedule
    short-circuits: the remaining checks assume full placements.
    """
    g = schedule.graph
    if not schedule.is_complete():
        missing = [n for n in g.nodes() if not schedule.is_scheduled(n)]
        yield Violation(
            "incomplete",
            f"schedule incomplete; missing nodes {missing[:8]}")
        return

    # Overlap and duration checks per processor.
    for proc in range(schedule.num_procs):
        prev_finish = 0.0
        prev_node: Optional[int] = None
        for pl in schedule.tasks_on(proc):
            if pl.start < -_EPS:
                yield Violation(
                    "negative-start",
                    f"node {pl.node} starts before time 0",
                    node=pl.node, proc=proc)
            if check_durations and abs(
                    (pl.finish - pl.start)
                    - schedule.duration_of(pl.node, proc)) > 1e-6:
                yield Violation(
                    "duration",
                    f"node {pl.node} duration does not match its weight "
                    "under the processor's speed",
                    node=pl.node, proc=proc)
            if pl.start < prev_finish - _EPS:
                yield Violation(
                    "overlap",
                    f"nodes {prev_node} and {pl.node} overlap on P{proc}",
                    node=pl.node, proc=proc)
            prev_finish, prev_node = pl.finish, pl.node

    # Precedence + communication checks.
    for u, v, c in g.edges():
        pu, pv = schedule.placement(u), schedule.placement(v)
        if pu.proc == pv.proc:
            ready = pu.finish
        elif network is None or c <= 0:
            # Zero-cost messages are instantaneous and occupy no channel
            # even under the contention model.
            ready = pu.finish + c
        else:
            msg = schedule.messages.get((u, v))
            if msg is None:
                yield Violation(
                    "missing-message",
                    f"edge ({u}, {v}) crosses processors but has no message",
                    node=v, proc=pv.proc)
                continue
            yield from _iter_message_violations(msg, pu, pv, c, network)
            ready = msg.arrival
        if pv.start < ready - 1e-6:
            yield Violation(
                "precedence",
                f"node {v} starts at {pv.start} before its input from {u} "
                f"is ready at {ready}",
                node=v, proc=pv.proc)

    if network is not None:
        yield from _iter_channel_violations(schedule)


def _iter_message_violations(msg: Message, pu: Placement, pv: Placement,
                             cost: float, network: Any
                             ) -> Iterator[Violation]:
    """Yield violations of one message's route and hop reservations."""
    hop_time = network.transfer_time(cost)
    route = msg.route
    if route[0] != pu.proc or route[-1] != pv.proc:
        yield Violation(
            "route-endpoints",
            f"message ({msg.src}, {msg.dst}) route endpoints do not match "
            "the task placements",
            node=msg.dst, proc=pv.proc)
    for a, b in zip(route, route[1:]):
        if not network.has_link(a, b):
            yield Violation(
                "missing-link",
                f"message ({msg.src}, {msg.dst}) uses missing link "
                f"({a}, {b})",
                node=msg.dst)
    if len(msg.hops) != len(route) - 1:
        yield Violation(
            "hop-count",
            f"message ({msg.src}, {msg.dst}) has {len(msg.hops)} hop "
            f"reservations for a {len(route) - 1}-hop route",
            node=msg.dst)
        return  # hop-by-hop checks assume one reservation per hop
    prev_free = pu.finish
    for (link, start, finish) in msg.hops:
        if start < prev_free - 1e-6:
            yield Violation(
                "hop-start",
                f"message ({msg.src}, {msg.dst}) hop on {link} starts "
                "before the data reaches the sending node",
                node=msg.dst)
        if abs((finish - start) - hop_time) > 1e-6:
            yield Violation(
                "hop-duration",
                f"message ({msg.src}, {msg.dst}) hop on {link} does not "
                "occupy the link for the edge cost over the link bandwidth",
                node=msg.dst)
        prev_free = finish
    if abs(msg.arrival - prev_free) > 1e-6:
        yield Violation(
            "arrival",
            f"message ({msg.src}, {msg.dst}) arrival differs from its "
            "last hop finish",
            node=msg.dst)


def _iter_channel_violations(schedule: Schedule) -> Iterator[Violation]:
    """Yield overlaps of messages sharing a directed channel."""
    by_channel: Dict[Tuple[int, int],
                     List[Tuple[float, float, Tuple[int, int]]]] = {}
    for key, msg in schedule.messages.items():
        for (link, start, finish) in msg.hops:
            by_channel.setdefault(link, []).append((start, finish, key))
    for link, ivs in sorted(by_channel.items()):
        ivs.sort()
        for (s1, f1, k1), (s2, f2, k2) in zip(ivs, ivs[1:]):
            if s2 < f1 - 1e-6:
                yield Violation(
                    "channel-overlap",
                    f"messages {k1} and {k2} overlap on channel {link}")
