"""Link contention: scheduling messages on network channels.

The APN model (Section 4 of the paper) requires algorithms to "also
schedule messages on the network communication links".  We implement the
store-and-forward model used by MH and BSA:

* a message for edge ``(u, v)`` with communication cost ``c`` occupies
  each directed channel along its route for ``c / bandwidth`` time
  units (the topology's shared link bandwidth, 1.0 in the paper's
  model), one hop after another;
* a directed channel carries one message at a time;
* hop reservations may be inserted into idle windows of a channel
  (insertion discipline, mirroring task insertion on processors).

:class:`LinkSchedule` is the one link core: every booking in the
package (the fixed-order executor behind BU and BSA, MH's and
DLS-APN's :class:`LinkOracle`, the simulator's contention network)
goes through its :meth:`~LinkSchedule.send`, and every tentative query
through :meth:`~LinkSchedule.probe_arrival`.  Both are one loop over
the route's channel ids with the earliest-window search inline.
:class:`LinkOracle` builds the component loop's start-time oracle on a
network from it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import (Callable, Container, List, Optional, Sequence,
                    Tuple)

from ..core.exceptions import ScheduleError
from ..core.listsched import StartOracle
from ..core.schedule import Message, Schedule
from .topology import Topology

__all__ = ["LinkSchedule", "LinkOracle"]

_EPS = 1e-9

Channel = Tuple[int, int]
Hop = Tuple[Channel, float, float]


class LinkSchedule:
    """Message reservations over every directed channel of a topology.

    Channel ``c`` (an id of :meth:`Topology.channel_route`) keeps its
    busy intervals as two sorted lists, ``starts[c]`` and
    ``finishes[c]``.  A message takes, hop by hop, the earliest window
    of its channel that opens once the previous hop is done: the gap
    before the first reservation when it fits, else the first gap
    between two reservations that fits (a window may end up to ``1e-9``
    past the next start), else the end of the channel.  A booked
    window is inserted at its ``bisect_left`` index after the same
    overlap check a hand-placed reservation would get.

    ``revision`` counts bookings and releases: probes hold while it
    does.  ``releases`` counts releases alone; between two equal
    readings no reservation was removed, so no probed arrival can have
    moved earlier.
    """

    __slots__ = ("topology", "revision", "releases", "_starts",
                 "_finishes", "_routes", "_bandwidth")

    def __init__(self, topology: Topology):
        self.topology = topology
        self.revision = 0
        self.releases = 0
        count = topology.num_channels
        self._starts: List[List[float]] = [[] for _ in range(count)]
        self._finishes: List[List[float]] = [[] for _ in range(count)]
        # The topology's memo of channel-id routes, read without a call.
        self._routes = topology.channel_routes
        self._bandwidth = topology.bandwidth

    # ------------------------------------------------------------------
    def probe_arrival(self, src: int, dst: int, ready: float,
                      cost: float) -> float:
        """Arrival time if a message left ``src`` at ``ready`` — no commit.

        Zero-cost or same-processor messages arrive instantly.
        """
        if src == dst or cost <= 0:
            return ready
        duration = cost / self._bandwidth
        avail = ready
        all_starts, all_fins = self._starts, self._finishes
        for ch in (self._routes.get((src, dst))
                   or self.topology.channel_route(src, dst)):
            starts = all_starts[ch]
            if starts and avail + duration > starts[0] + _EPS:
                fins = all_fins[ch]
                i = bisect_right(fins, avail)
                if i > 0:
                    i -= 1
                for k in range(i, len(starts) - 1):
                    gap = fins[k]
                    if avail > gap:
                        gap = avail
                    if gap + duration <= starts[k + 1] + _EPS:
                        avail = gap
                        break
                else:
                    last = fins[-1]
                    avail = avail if avail >= last else last
            avail = avail + duration
        return avail

    def send(self, src: int, dst: int, ready: float, cost: float,
             hops: Optional[List[Hop]] = None) -> float:
        """Book a message's channels hop by hop; return its arrival.

        The record-free core of :meth:`commit`: each hop takes the
        earliest window of its channel once the previous hop is done,
        the window :meth:`probe_arrival` finds.  When ``hops`` is
        given, the ``(channel, start, finish)`` reservations are
        appended to it.  Zero-cost or same-processor messages book
        nothing and arrive at ``ready``.
        """
        if src == dst or cost <= 0:
            return ready
        self.revision += 1
        duration = cost / self._bandwidth
        avail = ready
        all_starts, all_fins = self._starts, self._finishes
        for ch in (self._routes.get((src, dst))
                   or self.topology.channel_route(src, dst)):
            starts, fins = all_starts[ch], all_fins[ch]
            if not starts:
                starts.append(avail)
                fins.append(avail + duration)
                start = avail
            else:
                start = avail
                if avail + duration > starts[0] + _EPS:
                    i = bisect_right(fins, avail)
                    if i > 0:
                        i -= 1
                    for k in range(i, len(starts) - 1):
                        gap = fins[k]
                        if avail > gap:
                            gap = avail
                        if gap + duration <= starts[k + 1] + _EPS:
                            start = gap
                            break
                    else:
                        last = fins[-1]
                        start = avail if avail >= last else last
                finish = start + duration
                i = bisect_left(starts, start)
                if i > 0 and fins[i - 1] > start + _EPS:
                    raise ScheduleError(
                        "channel reservation overlaps existing message")
                if i < len(starts) and starts[i] < finish - _EPS:
                    raise ScheduleError(
                        "channel reservation overlaps existing message")
                starts.insert(i, start)
                fins.insert(i, finish)
            avail = start + duration
            if hops is not None:
                hops.append((self.topology.channel(ch), start, avail))
        return avail

    def commit(self, edge_src_node: int, edge_dst_node: int, src: int,
               dst: int, ready: float, cost: float) -> Message:
        """Reserve channels for the message of edge ``(u, v)``.

        Returns the :class:`~repro.core.schedule.Message` record to attach
        to the task schedule.  Same-processor or zero-cost messages yield
        a hop-less record arriving at ``ready``.
        """
        route = (src,) if src == dst else self.topology.route(src, dst)
        hops: List[Hop] = []
        arrival = self.send(src, dst, ready, cost, hops)
        return Message(edge_src_node, edge_dst_node, route, hops, arrival)

    def release(self, msg: Message) -> None:
        """Undo a committed message (used by migrating schedulers).

        Atomic: every hop's reservation is found before any is removed,
        so a message this schedule does not hold raises
        :class:`ScheduleError` and leaves every channel as it was.
        """
        found: List[Tuple[int, int]] = []
        for ch, start, _finish in msg.hops:
            cid = self.topology.channel_id(ch)
            starts = self._starts[cid] if cid is not None else []
            i = bisect_left(starts, start)
            if i == len(starts) or abs(starts[i] - start) > _EPS \
                    or (cid, i) in found:
                raise ScheduleError("no reservation at the given start time")
            found.append((cid, i))
        self.revision += 1
        self.releases += 1
        # Descending, so an index is still valid when its turn comes.
        for cid, i in sorted(found, reverse=True):
            del self._starts[cid][i]
            del self._finishes[cid][i]

    def busy_time(self) -> float:
        """Total reserved channel time (a network-load metric)."""
        total = 0.0
        for starts, fins in zip(self._starts, self._finishes):
            total += sum(f - s for s, f in zip(starts, fins))
        return total


class LinkOracle(StartOracle):
    """Start times on a processor network: MH's probe and commit.

    Every processor is a candidate.  A node's data-ready time on a
    processor is the latest arrival of its parents' messages if sent
    now (no booking), stale once the processor or the link bookings
    move, and never earlier than before while :meth:`removals` (task
    removals plus message releases) holds.  :meth:`commit` books those
    messages in ``(parent finish, parent id)`` order, records them and
    starts the node when its processor is free and they are in — later
    than probed, if they contend.  Only append-only runs without pins
    can book so.
    """

    books_messages = True

    __slots__ = ("links",)

    def __init__(self, schedule: Schedule, topology: Topology):
        super().__init__(schedule)
        self.links = LinkSchedule(topology)

    def procs(self) -> Sequence[int]:
        return range(self.schedule.num_procs)

    def drt_of(self, node: int) -> Callable[[int], float]:
        schedule, probe = self.schedule, self.links.probe_arrival
        parents, costs = schedule.graph.pred_pairs(node)
        inputs = [(schedule.proc_of(q), schedule.finish_of(q), c)
                  for q, c in zip(parents, costs)]

        def drt(proc: int) -> float:
            t = 0.0
            for src, ready, cost in inputs:
                arr = probe(src, proc, ready, cost)
                if arr > t:
                    t = arr
            return t
        return drt

    def drt_split(self, node: int) -> Tuple[Callable[[int], float],
                                            Container[int], float]:
        """Every processor is probed: arrivals depend on the route."""
        return self.drt_of(node), self.procs(), 0.0

    def revision(self, proc: int) -> object:
        return (self.schedule.revision(proc), self.links.revision)

    def revisions(self, procs: Sequence[int]) -> Sequence[object]:
        revision = self.revision
        return [revision(proc) for proc in procs]

    def removals(self) -> int:
        return self.schedule.removals + self.links.releases

    def drt(self, node: int, proc: int) -> float:
        return self.drt_of(node)(proc)

    def commit(self, node: int, proc: int, start: float) -> float:
        schedule, links = self.schedule, self.links
        graph = schedule.graph
        arrival = 0.0
        parents = sorted(graph.predecessors(node),
                         key=lambda q: (schedule.finish_of(q), q))
        for parent in parents:
            src = schedule.proc_of(parent)
            if src == proc:
                arr = schedule.finish_of(parent)
            else:
                msg = links.commit(parent, node, src, proc,
                                   schedule.finish_of(parent),
                                   graph.comm_cost(parent, node))
                schedule.record_message(msg)
                arr = msg.arrival
            if arr > arrival:
                arrival = arr
        start = max(schedule.proc_ready_time(proc), arrival)
        schedule.place(node, proc, start)
        return start
