"""The fingerprint-keyed LRU schedule cache.

Correctness rests on one invariant, property-tested in
``tests/test_api.py``: schedulers are deterministic, so equal
:func:`repro.api.request_key` fingerprints imply bit-identical
schedules — a cached result *is* the result.  The cache therefore
never stores graphs, only ``(graph fp | machine fp | spec)`` keys and
result payloads.

Two layers:

* an in-memory LRU (``capacity`` entries) over result payloads, with a
  bounded sideline memo from raw request-body digests to keys so a
  repeated byte-identical request skips graph parsing entirely — the
  warm path costs two dict lookups;
* optionally, a persistent backend: a
  :class:`~repro.bench.store.ResultStore` of :class:`ServiceRow` rows
  opened through :func:`repro.bench.store.open_store` (the same
  validated path every ``--results`` flag uses), so a restarted server
  begins warm.  A store file that cannot be read is set aside with a
  warning and the server starts cold; an unusable directory is still
  an error.

``hits`` / ``misses`` count :meth:`lookup` outcomes (process-local,
like every cache-effect counter in this repo — see
:data:`repro.obs.metrics.LOCAL_COUNTERS`).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..bench.store import open_store

__all__ = ["ServiceRow", "ScheduleCache"]


@dataclass
class ServiceRow:
    """One persisted schedule: the store row behind the cache.

    Store-keyed as ``(algorithm=spec, graph=graph fp, fingerprint=
    machine fp)`` — the same triple as the in-memory key, spelled in
    :class:`~repro.bench.store.ResultStore` terms.
    """

    algorithm: str
    graph: str
    machine: str
    length: float
    placements: str  # JSON: {node: [proc, start, finish]}


class ScheduleCache:
    """LRU over schedule results, keyed by :func:`repro.api.request_key`."""

    def __init__(self, capacity: int = 1024,
                 directory: Optional[str] = None):
        self.capacity = max(1, int(capacity))
        self.hits = 0
        self.misses = 0
        self._lru: "OrderedDict[str, Dict]" = OrderedDict()
        self._digests: "OrderedDict[str, str]" = OrderedDict()
        self._store = (open_store(directory, basename="schedules",
                                  row_type=ServiceRow,
                                  set_aside_corrupt=True)
                       if directory else None)

    def __len__(self) -> int:
        return len(self._lru)

    # ------------------------------------------------------------------
    # the digest memo: raw request bytes -> key, no parsing
    # ------------------------------------------------------------------
    def key_for(self, digest: str) -> Optional[str]:
        """The request key a body digest resolved to before, if any."""
        return self._digests.get(digest)

    def link_digest(self, digest: str, key: str) -> None:
        """Remember that a body digest resolves to ``key``."""
        self._digests[digest] = key
        self._digests.move_to_end(digest)
        while len(self._digests) > 4 * self.capacity:
            self._digests.popitem(last=False)

    # ------------------------------------------------------------------
    # the result cache
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[Dict]:
        """The cached result payload for ``key``, or ``None``."""
        result = self._lru.get(key)
        if result is not None:
            self._lru.move_to_end(key)
            self.hits += 1
            return result
        if self._store is not None:
            gfp, mfp, spec = key.split("|", 2)
            row = self._store.get(spec, gfp, mfp)
            if row is not None:
                result = {"key": key, "spec": spec, "length": row.length,
                          "schedule": json.loads(row.placements)}
                self._insert(key, result)
                self.hits += 1
                return result
        self.misses += 1
        return None

    def put(self, key: str, result: Dict) -> None:
        """Insert a freshly computed result payload under ``key``."""
        self._insert(key, result)
        if self._store is not None:
            gfp, mfp, spec = key.split("|", 2)
            self._store.put(ServiceRow(
                algorithm=spec, graph=gfp, machine=mfp,
                length=float(result["length"]),
                placements=json.dumps(result["schedule"],
                                      sort_keys=True)), mfp)

    def _insert(self, key: str, result: Dict) -> None:
        self._lru[key] = result
        self._lru.move_to_end(key)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)

    # ------------------------------------------------------------------
    def save(self) -> None:
        """Flush the persistent backend, if any (drain/shutdown path)."""
        if self._store is not None:
            self._store.save()

    def stats(self) -> Dict:
        """Counters for ``GET /stats`` and the loadtest report."""
        return {"size": len(self._lru), "capacity": self.capacity,
                "hits": self.hits, "misses": self.misses,
                "persistent": self._store is not None}
