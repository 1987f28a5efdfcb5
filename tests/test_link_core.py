"""Differential proof: the flat link core books exactly as before, and
bounded fixed-order trials stop only when they must.

:class:`repro.network.contention.LinkSchedule` used to keep one
``_ChannelTimeline`` object per directed channel, created on first use,
and a per-instance dict of each route's (channel, timeline) pairs.  It
now keeps per-channel start and finish lists indexed by the topology's
channel ids, with the earliest-window search inline in one loop over a
route's hops.  The old classes live here verbatim as the reference
(``LinkSchedule`` renamed ``ReferenceLinkSchedule``), and random
sequences of probes, sends, commits and releases on hypercube, ring,
star, chain and bandwidth-scaled topologies must give the same
arrivals, hops, ``busy_time`` and errors (Hypothesis).

Also checked: :meth:`LinkSchedule.release` is atomic.  A message the
schedule does not hold raises :class:`ScheduleError` (it used to raise
``KeyError`` for a channel never used), and a message whose second hop
is missing leaves its first hop booked (it used to free it first).

BSA times its migration trials on this core through
:func:`~repro.algorithms.mapping.time_fixed_order` with a makespan
bound.  A timing it stops is longer than the bound, one it does not
stop equals the unbounded timing, and BSA's schedules equal those of
unbounded trials; with ``REPRO_SANITIZE`` armed a trial stopped below
its length (a too-low bound) is caught.
"""

import bisect
import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (LinkSchedule, NetworkMachine, ScheduleError, Topology,
                   get_scheduler)
from repro.algorithms.apn import bsa
from repro.algorithms.mapping import EXCEEDED, time_fixed_order
from repro.check import SanitizeError, sanitize
from repro.core.graph import TaskGraph
from repro.core.schedule import Message
from strategies import task_graphs
from test_sim_netsim_differential import _random_sequences

_EPS = 1e-9

# ----------------------------------------------------------------------
# the reference: _ChannelTimeline and LinkSchedule, verbatim
# ----------------------------------------------------------------------
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


class ReferenceLinkSchedule:
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


# ----------------------------------------------------------------------
# random operation sequences
# ----------------------------------------------------------------------
TOPOLOGIES = [Topology.hypercube(2), Topology.hypercube(3), Topology.ring(5),
              Topology.star(5), Topology.chain(4)]
#: Dyadic bandwidths keep every time exact, so channel sums agree to the
#: bit whatever order they are added in; 3.0 is checked to rounding.
BANDWIDTHS = [1.0, 0.5, 2.0, 4.0, 3.0]


@st.composite
def operations(draw, num_procs: int):
    procs = st.integers(0, num_procs - 1)
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(
            ["probe", "send", "commit", "commit", "release"]))
        if kind == "release":
            ops.append(("release", draw(st.integers(0, 30))))
        else:
            # Few distinct integer times and costs: windows tie and abut.
            ops.append((kind, draw(procs), draw(procs),
                        float(draw(st.integers(0, 30))),
                        float(draw(st.integers(0, 8)))))
    return ops


def _apply(links, op, committed: List[Message]):
    """Run ``op``; return what it yields, or the error's type."""
    try:
        kind = op[0]
        if kind == "probe":
            return links.probe_arrival(*op[1:])
        if kind == "send":
            hops: List = []
            return links.send(*op[1:], hops), hops
        if kind == "commit":
            msg = links.commit(len(committed), len(committed) + 1, *op[1:])
            committed.append(msg)
            return msg.route, msg.hops, msg.arrival
        if not committed:
            return None
        # Also re-releases: a message released once is held no more.
        return links.release(committed[op[1] % len(committed)])
    except (ScheduleError, KeyError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), topo=st.sampled_from(TOPOLOGIES),
       bandwidth=st.sampled_from(BANDWIDTHS))
def test_random_operations_match_reference(data, topo, bandwidth):
    topo = topo.with_bandwidth(bandwidth)
    ours, ref = LinkSchedule(topo), ReferenceLinkSchedule(topo)
    mine: List[Message] = []
    theirs: List[Message] = []
    for op in data.draw(operations(topo.num_procs)):
        got, want = _apply(ours, op, mine), _apply(ref, op, theirs)
        assert got == want, op
        if isinstance(want, type):
            # The reference may have freed part of a message before it
            # raised; its channels are no longer comparable.
            break
        if bandwidth == 3.0:
            assert ours.busy_time() == pytest.approx(ref.busy_time(),
                                                     rel=1e-12)
        else:
            assert ours.busy_time() == ref.busy_time()


def test_probe_and_book_agree_after_gap_insertion():
    """A probe names the window a send then books, gaps included."""
    topo = Topology.ring(4)
    ours, ref = LinkSchedule(topo), ReferenceLinkSchedule(topo)
    for links in (ours, ref):
        links.send(0, 2, 10.0, 3.0)
        links.send(0, 2, 0.0, 2.0)
        links.send(1, 2, 4.0, 1.0)
    for ready in (0.0, 1.0, 2.5, 6.0, 13.0):
        assert ours.probe_arrival(0, 2, ready, 2.0) == \
            ref.probe_arrival(0, 2, ready, 2.0)
        before = ours.probe_arrival(0, 2, ready, 2.0)
        assert ours.send(0, 2, ready, 2.0) == before
        ref.send(0, 2, ready, 2.0)
    assert ours.busy_time() == ref.busy_time()


# ----------------------------------------------------------------------
# atomic release
# ----------------------------------------------------------------------
def test_release_of_a_foreign_message_raises_schedule_error():
    topo = Topology.chain(3)
    other, links = LinkSchedule(topo), LinkSchedule(topo)
    msg = other.commit(1, 2, 0, 1, 0.0, 4.0)
    revision = links.revision
    with pytest.raises(ScheduleError):
        links.release(msg)
    assert links.revision == revision and links.releases == 0
    assert links.busy_time() == 0.0


def test_release_of_a_message_missing_a_hop_frees_nothing():
    links = LinkSchedule(Topology.chain(3))
    msg = links.commit(1, 2, 0, 2, 0.0, 4.0)  # hops (0, 1) then (1, 2)
    (first, second) = msg.hops
    broken = Message(1, 2, msg.route, [first, (second[0], 99.0, 103.0)],
                     msg.arrival)
    with pytest.raises(ScheduleError):
        links.release(broken)
    # Both hops are still booked: a second message waits behind them.
    assert links.busy_time() == 8.0
    assert links.probe_arrival(0, 1, 0.0, 4.0) == 8.0
    links.release(msg)
    assert links.busy_time() == 0.0 and links.releases == 1


def test_release_of_a_channel_outside_the_topology_raises():
    links = LinkSchedule(Topology.chain(3))
    bogus = Message(1, 2, (0, 2), [((0, 2), 0.0, 1.0)], 1.0)
    with pytest.raises(ScheduleError):
        links.release(bogus)


def test_channel_routes_are_memoised_channel_ids():
    topo = Topology.ring(6)
    ids = topo.channel_route(0, 3)
    assert [topo.channel(c) for c in ids] == list(
        zip(topo.route(0, 3), topo.route(0, 3)[1:]))
    assert topo.channel_route(0, 3) is ids
    assert topo.channel_route(2, 2) == ()
    assert {topo.channel_id(ch) for ch in topo.channels()} == set(
        range(topo.num_channels))


# ----------------------------------------------------------------------
# bounded fixed-order trials
# ----------------------------------------------------------------------
def _scaled(graph: TaskGraph, factor: float) -> TaskGraph:
    """``graph`` with weights times ``factor``: non-dyadic sums round."""
    edges = {(u, v): c for u, v, c in graph.edges()}
    return TaskGraph([w * factor for w in graph.weights.tolist()], edges,
                     name=graph.name)


@settings(max_examples=200, deadline=None)
@given(graph=task_graphs(max_nodes=16), topo=st.sampled_from(TOPOLOGIES),
       factor=st.sampled_from([1.0, 0.1, 1.3]),
       fraction=st.sampled_from([0.5, 0.9, 0.999, 1.0, 1.001, 1.5]),
       seed=st.integers(0, 10 ** 6))
def test_a_stopped_timing_is_longer_than_its_bound(graph, topo, factor,
                                                   fraction, seed):
    graph = _scaled(graph, factor)
    sequences = _random_sequences(graph, topo.num_procs,
                                  random.Random(seed))
    full = time_fixed_order(graph, sequences, topo)
    bound = full.length * fraction
    timed = time_fixed_order(graph, sequences, topo, bound=bound)
    if timed is EXCEEDED:
        assert full.length > bound
    else:
        assert timed == full
    if fraction >= 1.0:
        assert timed is not EXCEEDED


def _unbounded(core):
    def timing(graph, sequences, procs, bound=None):
        return core(graph, sequences, procs)
    return timing


@settings(max_examples=40, deadline=None)
@given(graph=task_graphs(min_nodes=4, max_nodes=14, max_weight=3,
                         max_comm=4, edge_prob=0.5),
       topo=st.sampled_from([Topology.ring(4), Topology.star(5),
                             Topology.hypercube(2).with_bandwidth(2.0)]))
def test_bounded_bsa_keeps_every_decision(graph, topo):
    machine = NetworkMachine(topo)
    bounded = get_scheduler("BSA").schedule(graph, machine)
    core = bsa.time_fixed_order
    bsa.time_fixed_order = _unbounded(core)
    try:
        unbounded = get_scheduler("BSA").schedule(graph, machine)
    finally:
        bsa.time_fixed_order = core
    assert bounded.to_dict() == unbounded.to_dict()
    assert [(k, m.hops) for k, m in bounded.messages.items()] == \
        [(k, m.hops) for k, m in unbounded.messages.items()]


def test_sanitizer_catches_a_too_low_trial_bound(monkeypatch):
    """Each stopped trial is re-timed in full and must exceed its bound.

    Blinded, BSA's trials stop at half the bound it computed, so some
    trial that could still be taken is stopped.
    """
    from test_bsa_trials import _grid_graphs

    graph = _grid_graphs(53)[4]
    machine = NetworkMachine(Topology.hypercube(3))
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    get_scheduler("BSA").schedule(graph, machine)  # the oracle agrees
    core = bsa.time_fixed_order

    def too_low(graph, sequences, procs, bound=None):
        return core(graph, sequences, procs,
                    bound=None if bound is None else bound / 2)

    monkeypatch.setattr(bsa, "time_fixed_order", too_low)
    with pytest.raises(SanitizeError, match="stopped at bound"):
        get_scheduler("BSA").schedule(graph, machine)
