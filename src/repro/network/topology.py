"""Processor network topologies for the APN algorithm class.

The paper's APN algorithms assume "an arbitrary network topology, of
which the links are not contention-free".  A :class:`Topology` is an
undirected connected graph over processors; each undirected link carries
two independent directed *channels* (full-duplex), the standard
assumption in the MH and BSA papers.

Constructors cover the families the original studies used (ring, chain,
2-D mesh, hypercube, star, clique) plus seeded random connected graphs
for robustness sweeps.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.exceptions import MachineError, RoutingError
from ..core.rng import as_generator

__all__ = ["Topology"]


class Topology:
    """An undirected, connected processor interconnect.

    Parameters
    ----------
    num_procs:
        Number of processors (nodes of the interconnect).
    links:
        Iterable of undirected links ``(a, b)``.
    name:
        Identifier used in reports.
    bandwidth:
        Relative link bandwidth shared by every link: one hop of a
        message of cost ``c`` occupies its channel for ``c / bandwidth``
        time units.  ``1.0`` (default) is the paper's model; the
        scenario engine sweeps it for bandwidth studies.
    """

    def __init__(self, num_procs: int, links: Iterable[Tuple[int, int]],
                 name: str = "topology", bandwidth: float = 1.0):
        if num_procs < 1:
            raise MachineError("topology needs at least one processor")
        if not bandwidth > 0:
            raise MachineError("link bandwidth must be positive")
        self.num_procs = int(num_procs)
        self.name = name
        self.bandwidth = float(bandwidth)
        adj: List[set] = [set() for _ in range(self.num_procs)]
        link_set = set()
        for a, b in links:
            a, b = int(a), int(b)
            if not (0 <= a < num_procs and 0 <= b < num_procs):
                raise MachineError(f"link ({a}, {b}) references unknown processor")
            if a == b:
                raise MachineError(f"self link on processor {a}")
            lo, hi = min(a, b), max(a, b)
            link_set.add((lo, hi))
            adj[a].add(b)
            adj[b].add(a)
        self._adj = [sorted(s) for s in adj]
        self.links: Tuple[Tuple[int, int], ...] = tuple(sorted(link_set))
        if self.num_procs > 1:
            self._check_connected()
        self._routes: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        # Channel ``2k`` is link ``k`` forward, ``2k + 1`` backward.
        self._channels: Tuple[Tuple[int, int], ...] = tuple(
            ch for a, b in self.links for ch in ((a, b), (b, a)))
        self._channel_ids = {ch: i for i, ch in enumerate(self._channels)}
        #: The memo behind :meth:`channel_route` (read-only to callers).
        self.channel_routes: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def _check_connected(self) -> None:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != self.num_procs:
            raise MachineError(f"topology {self.name!r} is not connected")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def neighbors(self, proc: int) -> List[int]:
        return list(self._adj[proc])

    def degree(self, proc: int) -> int:
        return len(self._adj[proc])

    def has_link(self, a: int, b: int) -> bool:
        """True when an undirected link joins ``a`` and ``b``."""
        return b in self._adj[a]

    @property
    def num_links(self) -> int:
        return len(self.links)

    def channels(self) -> List[Tuple[int, int]]:
        """All directed channels (two per undirected link), by id."""
        return list(self._channels)

    @property
    def num_channels(self) -> int:
        return len(self._channels)

    def channel(self, channel_id: int) -> Tuple[int, int]:
        """The directed channel ``(a, b)`` with id ``channel_id``."""
        return self._channels[channel_id]

    def channel_id(self, channel: Tuple[int, int]) -> Optional[int]:
        """The id of the directed channel ``(a, b)``; ``None`` if no
        link joins ``a`` and ``b``."""
        return self._channel_ids.get(tuple(channel))

    def transfer_time(self, cost: float) -> float:
        """Time one hop of a message of ``cost`` occupies its channel."""
        return cost / self.bandwidth

    def with_bandwidth(self, bandwidth: float) -> "Topology":
        """A copy of this topology whose links run at ``bandwidth``."""
        return Topology(self.num_procs, self.links, name=self.name,
                        bandwidth=bandwidth)

    # ------------------------------------------------------------------
    # routing (deterministic shortest paths)
    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Shortest processor path ``src -> dst`` (inclusive).

        BFS with lowest-index tie-breaking, memoised.  Static routing:
        every message between the same pair follows the same path, as in
        the MH routing-table model.
        """
        key = (src, dst)
        cached = self._routes.get(key)
        if cached is not None:
            return cached
        if src == dst:
            path: Tuple[int, ...] = (src,)
        else:
            parent = {src: src}
            frontier = [src]
            while frontier and dst not in parent:
                nxt: List[int] = []
                for u in frontier:
                    for v in self._adj[u]:
                        if v not in parent:
                            parent[v] = u
                            nxt.append(v)
                frontier = nxt
            if dst not in parent:
                raise RoutingError(f"no route {src} -> {dst} in {self.name!r}")
            rev = [dst]
            while rev[-1] != src:
                rev.append(parent[rev[-1]])
            path = tuple(reversed(rev))
        self._routes[key] = path
        return path

    def channel_route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Channel ids along :meth:`route` ``src -> dst``, memoised.

        Empty when ``src == dst``.
        """
        key = (src, dst)
        cached = self.channel_routes.get(key)
        if cached is None:
            route, ids = self.route(src, dst), self._channel_ids
            cached = self.channel_routes[key] = tuple(
                ids[ch] for ch in zip(route, route[1:]))
        return cached

    def hop_count(self, src: int, dst: int) -> int:
        return len(self.route(src, dst)) - 1

    @property
    def diameter(self) -> int:
        return max(
            self.hop_count(a, b)
            for a in range(self.num_procs)
            for b in range(self.num_procs)
        )

    # ------------------------------------------------------------------
    # standard families
    # ------------------------------------------------------------------
    @classmethod
    def clique(cls, num_procs: int) -> "Topology":
        links = [
            (a, b)
            for a in range(num_procs)
            for b in range(a + 1, num_procs)
        ]
        return cls(num_procs, links, name=f"clique-{num_procs}")

    @classmethod
    def ring(cls, num_procs: int) -> "Topology":
        if num_procs == 1:
            return cls(1, [], name="ring-1")
        if num_procs == 2:
            return cls(2, [(0, 1)], name="ring-2")
        links = [(i, (i + 1) % num_procs) for i in range(num_procs)]
        return cls(num_procs, links, name=f"ring-{num_procs}")

    @classmethod
    def chain(cls, num_procs: int) -> "Topology":
        links = [(i, i + 1) for i in range(num_procs - 1)]
        return cls(num_procs, links, name=f"chain-{num_procs}")

    @classmethod
    def star(cls, num_procs: int) -> "Topology":
        links = [(0, i) for i in range(1, num_procs)]
        return cls(num_procs, links, name=f"star-{num_procs}")

    @classmethod
    def mesh2d(cls, rows: int, cols: int) -> "Topology":
        """Rectangular 2-D mesh, row-major processor numbering."""
        if rows < 1 or cols < 1:
            raise MachineError("mesh needs positive dimensions")
        links = []
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                if c + 1 < cols:
                    links.append((i, i + 1))
                if r + 1 < rows:
                    links.append((i, i + cols))
        return cls(rows * cols, links, name=f"mesh-{rows}x{cols}")

    @classmethod
    def hypercube(cls, dim: int) -> "Topology":
        """Binary hypercube of ``2**dim`` processors."""
        if dim < 0:
            raise MachineError("hypercube dimension must be >= 0")
        n = 1 << dim
        links = [
            (i, i ^ (1 << d))
            for i in range(n)
            for d in range(dim)
            if i < (i ^ (1 << d))
        ]
        return cls(n, links, name=f"hypercube-{dim}")

    @classmethod
    def random_connected(cls, num_procs: int, extra_links: int = 0,
                         seed: int = 0) -> "Topology":
        """Random spanning tree plus ``extra_links`` distinct chords."""
        rng = as_generator(seed)
        order = rng.permutation(num_procs)
        links = set()
        for i in range(1, num_procs):
            j = int(rng.integers(0, i))
            a, b = int(order[i]), int(order[j])
            links.add((min(a, b), max(a, b)))
        candidates = [
            (a, b)
            for a in range(num_procs)
            for b in range(a + 1, num_procs)
            if (a, b) not in links
        ]
        rng.shuffle(candidates)
        for a, b in candidates[:extra_links]:
            links.add((a, b))
        return cls(num_procs, links, name=f"random-{num_procs}-s{seed}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bw = "" if self.bandwidth == 1.0 else f", bw={self.bandwidth:g}"
        return (f"Topology({self.name!r}, p={self.num_procs}, "
                f"links={self.num_links}{bw})")
