"""Pluggable network backends for the discrete-event simulator.

A :class:`NetworkModel` answers one question for the engine: *when does
the data of edge ``(u, v)`` arrive at the destination processor, given
that it leaves the source at ``ready``?*  Three backends cover the
model space of the paper:

* :class:`InstantNetwork` — data teleports (zero communication time):
  the lower envelope any schedule degrades towards as links get free;
* :class:`FixedDelayNetwork` — the clique model: every message takes
  ``latency + scale * cost``, no sharing, no contention (the default
  reproduces BNP/UNC predicted times exactly);
* :class:`ContentionNetwork` — store-and-forward over an explicit
  :class:`~repro.network.topology.Topology`, one message per directed
  channel at a time, built on the same
  :class:`~repro.network.contention.LinkSchedule` the APN schedulers
  plan with.

:class:`RecordedDelays` replays the message schedule embedded in an APN
:class:`~repro.core.schedule.Schedule` as fixed per-edge delays — the
zero-noise replay backend under which APN timelines reproduce exactly.

The schedulers' own fixed-order executor,
:func:`repro.algorithms.mapping.execute_fixed_order`, commits messages
receiver-side in a fixed round order; event-driven replay through
:class:`ContentionNetwork` commits them sender-side instead, so the two
may legitimately differ under contention.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.schedule import Message, Schedule
from ..network.contention import LinkSchedule
from ..network.topology import Topology

__all__ = [
    "NETWORK_KINDS",
    "NetworkModel",
    "InstantNetwork",
    "FixedDelayNetwork",
    "ContentionNetwork",
    "RecordedDelays",
    "replay_network",
    "network_from_spec",
]

#: The backend names every layer (SimConfig, scenario schema, CLI)
#: accepts; ``"auto"`` defers to :func:`replay_network` per schedule.
NETWORK_KINDS = ("auto", "instant", "fixed", "contention")


class NetworkModel:
    """How inter-processor data transport behaves during a trial.

    Backends may carry per-trial state (channel reservations); the
    engine calls :meth:`reset` before every trial.  ``factor`` is the
    perturbation model's latency-noise multiplier for this message.
    """

    def reset(self) -> None:
        """Drop per-trial state (default: stateless)."""

    def arrival(self, u: int, v: int, src: int, dst: int, ready: float,
                cost: float, factor: float = 1.0
                ) -> Tuple[float, Optional[Message]]:
        """Arrival time at ``dst`` of edge ``(u, v)``'s data, plus an
        optional :class:`Message` record for the simulated timeline."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Stable identity for result-store cache keys."""
        raise NotImplementedError


class InstantNetwork(NetworkModel):
    """Zero-time communication: data is available the moment it exists."""

    def arrival(self, u, v, src, dst, ready, cost, factor=1.0):
        return ready, None

    def fingerprint(self) -> str:
        return "instant"


class FixedDelayNetwork(NetworkModel):
    """Contention-free transport: ``latency + scale * cost`` per message.

    The default (``scale=1, latency=0``) is exactly the clique model the
    BNP/UNC schedulers plan against; a positive ``latency`` models a
    fixed per-message overhead, ``scale`` a uniformly slower fabric.
    """

    def __init__(self, scale: float = 1.0, latency: float = 0.0):
        if scale < 0 or latency < 0:
            raise ValueError("scale and latency must be >= 0")
        self.scale = float(scale)
        self.latency = float(latency)

    def arrival(self, u, v, src, dst, ready, cost, factor=1.0):
        return ready + factor * (self.latency + self.scale * cost), None

    def fingerprint(self) -> str:
        return f"fixed:scale={self.scale:g}:lat={self.latency:g}"


class ContentionNetwork(NetworkModel):
    """Store-and-forward transport over an explicit topology.

    Messages are committed to the link schedule in the order the engine
    sends them (ascending send time, deterministic tie-break), each hop
    occupying its directed channel for ``factor * cost / bandwidth``.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self._links = LinkSchedule(topology)

    def reset(self) -> None:
        self._links = LinkSchedule(self.topology)

    def arrival(self, u, v, src, dst, ready, cost, factor=1.0):
        msg = self._links.commit(u, v, src, dst, ready, cost * factor)
        return msg.arrival, msg

    def fingerprint(self) -> str:
        fp = (f"contention:{self.topology.name}:"
              f"{self.topology.num_procs}p:{self.topology.links_digest()}")
        if self.topology.bandwidth != 1.0:  # repro: noqa-RPR005 fingerprint identity check on configured value
            fp += f":bw={self.topology.bandwidth:g}"
        return fp


class RecordedDelays(NetworkModel):
    """Replay a schedule's own message plan as fixed per-edge delays.

    For every recorded message the *transport delay* is pinned to
    ``arrival - predicted finish(u)``; during the trial the data arrives
    that long (noise-scaled) after the sender actually finishes.  Edges
    without a recorded message fall back to the plain edge cost.  This
    is the "no re-contention" approximation: link waits shift rigidly
    with the sender instead of being re-fought — and makes zero-noise
    APN replay bit-exact.
    """

    def __init__(self, schedule: Schedule):
        self._delay: Dict[Tuple[int, int], float] = {}
        for (u, v), msg in schedule.messages.items():
            self._delay[(u, v)] = msg.arrival - schedule.finish_of(u)

    def arrival(self, u, v, src, dst, ready, cost, factor=1.0):
        delay = self._delay.get((u, v), cost)
        return ready + factor * delay, None

    def fingerprint(self) -> str:
        return "recorded"


def replay_network(schedule: Schedule) -> NetworkModel:
    """The backend under which a zero-noise replay is exact.

    Clique-model schedules (no recorded messages) replay against the
    fixed-delay clique; APN schedules replay their recorded message
    plan.
    """
    if schedule.messages:
        return RecordedDelays(schedule)
    return FixedDelayNetwork()


def network_from_spec(kind: str, topology: Optional[Topology] = None,
                      scale: float = 1.0,
                      latency: float = 0.0) -> Optional[NetworkModel]:
    """Build a backend from its scenario-spec name.

    ``"auto"`` returns ``None`` — the engine then picks
    :func:`replay_network` per schedule.  ``"contention"`` requires a
    topology.
    """
    if kind == "auto":
        return None
    if kind == "instant":
        return InstantNetwork()
    if kind == "fixed":
        return FixedDelayNetwork(scale=scale, latency=latency)
    if kind == "contention":
        if topology is None:
            raise ValueError("contention network needs a topology")
        return ContentionNetwork(topology)
    raise ValueError(f"unknown network kind {kind!r}; expected one of "
                     + ", ".join(NETWORK_KINDS))
