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

:class:`LinkSchedule` owns the channel timelines and supports tentative
queries (``probe_arrival``) so schedulers can compare candidate
processors before committing; :class:`LinkOracle` builds the component
loop's start-time oracle on a network from them.
"""

from __future__ import annotations

import bisect
from typing import (Callable, Container, Dict, List, Optional, Sequence,
                    Tuple)

from ..core.exceptions import ScheduleError
from ..core.listsched import StartOracle
from ..core.schedule import Message, Schedule
from .topology import Topology

__all__ = ["LinkSchedule", "LinkOracle"]

_EPS = 1e-9

Channel = Tuple[int, int]
Hop = Tuple[Channel, float, float]


class _ChannelTimeline:
    """Busy intervals of one directed channel, kept sorted."""

    __slots__ = ("starts", "finishes")

    def __init__(self):
        self.starts: List[float] = []
        self.finishes: List[float] = []

    def earliest(self, est: float, duration: float) -> float:
        """Earliest start >= est of a busy window of ``duration``."""
        starts, fins = self.starts, self.finishes
        if not starts:
            return est
        if est + duration <= starts[0] + _EPS:
            return est
        i = bisect.bisect_right(fins, est)
        if i > 0:
            i -= 1
        for k in range(i, len(starts) - 1):
            gap = fins[k]
            if est > gap:
                gap = est
            if gap + duration <= starts[k + 1] + _EPS:
                return gap
        last = fins[-1]
        return est if est >= last else last

    def book(self, est: float, duration: float) -> float:
        """Reserve the :meth:`earliest` window for ``duration``; return
        its start.

        The window is inserted at its ``bisect_left`` index after the
        same overlap check a hand-placed reservation would get.
        """
        starts, fins = self.starts, self.finishes
        if not starts:
            starts.append(est)
            fins.append(est + duration)
            return est
        start = self.earliest(est, duration)
        finish = start + duration
        i = bisect.bisect_left(starts, start)
        if i > 0 and fins[i - 1] > start + _EPS:
            raise ScheduleError("channel reservation overlaps existing message")
        if i < len(starts) and starts[i] < finish - _EPS:
            raise ScheduleError("channel reservation overlaps existing message")
        starts.insert(i, start)
        fins.insert(i, finish)
        return start

    def release(self, start: float) -> None:
        i = bisect.bisect_left(self.starts, start)
        if i == len(self.starts) or abs(self.starts[i] - start) > _EPS:
            raise ScheduleError("no reservation at the given start time")
        del self.starts[i]
        del self.finishes[i]


class LinkSchedule:
    """Message reservations over every directed channel of a topology.

    A channel's timeline is created when the first message between two
    processors whose route crosses it is sent or probed, so a
    short-lived schedule pays only for the channels it uses.
    ``revision`` counts bookings and releases: probes hold while it does.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.revision = 0
        self._timelines: Dict[Channel, _ChannelTimeline] = {}
        # (src, dst) -> the route's (channel, timeline) pairs, in order.
        self._paths: Dict[Channel, List[Tuple[Channel, _ChannelTimeline]]] = {}

    # ------------------------------------------------------------------
    def _path(self, src: int, dst: int
              ) -> List[Tuple[Channel, _ChannelTimeline]]:
        """The memoised channels and timelines of the route src -> dst."""
        path = self._paths.get((src, dst))
        if path is None:
            route = self.topology.route(src, dst)
            timelines = self._timelines
            path = []
            for ch in zip(route, route[1:]):
                tl = timelines.get(ch)
                if tl is None:
                    tl = timelines[ch] = _ChannelTimeline()
                path.append((ch, tl))
            self._paths[(src, dst)] = path
        return path

    def probe_arrival(self, src: int, dst: int, ready: float,
                      cost: float) -> float:
        """Arrival time if a message left ``src`` at ``ready`` — no commit.

        Zero-cost or same-processor messages arrive instantly.
        """
        if src == dst or cost <= 0:
            return ready
        duration = self.topology.transfer_time(cost)
        avail = ready
        for _ch, tl in self._paths.get((src, dst)) or self._path(src, dst):
            avail = tl.earliest(avail, duration) + duration
        return avail

    def send(self, src: int, dst: int, ready: float, cost: float,
             hops: Optional[List[Hop]] = None) -> float:
        """Book a message's channels hop by hop; return its arrival.

        The record-free core of :meth:`commit`: each hop takes the
        earliest window of its channel once the previous hop is done.
        When ``hops`` is given, the ``(channel, start, finish)``
        reservations are appended to it.  Zero-cost or same-processor
        messages book nothing and arrive at ``ready``.
        """
        if src == dst or cost <= 0:
            return ready
        self.revision += 1
        duration = self.topology.transfer_time(cost)
        avail = ready
        for ch, tl in self._paths.get((src, dst)) or self._path(src, dst):
            start = tl.book(avail, duration)
            avail = start + duration
            if hops is not None:
                hops.append((ch, start, avail))
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
        """Undo a committed message (used by migrating schedulers)."""
        self.revision += 1
        for (ch, start, finish) in msg.hops:
            self._timelines[ch].release(start)

    def busy_time(self) -> float:
        """Total reserved channel time (a network-load metric)."""
        total = 0.0
        for tl in self._timelines.values():
            total += sum(f - s for s, f in zip(tl.starts, tl.finishes))
        return total


class LinkOracle(StartOracle):
    """Start times on a processor network: MH's probe and commit.

    Every processor is a candidate.  A node's data-ready time on a
    processor is the latest arrival of its parents' messages if sent
    now (no booking), stale once the processor or the link bookings
    move.  :meth:`commit` books those messages in ``(parent finish,
    parent id)`` order, records them and starts the node when its
    processor is free and they are in — later than probed, if they
    contend.  Only append-only runs without pins can book so.
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
