"""The asyncio batching server.

Request lifecycle::

    connection -> read HTTP (late -> 408) -> digest memo -> cache
        hit  -> respond (no parsing, no scheduling, no queueing)
        miss -> one pool trip runs parse_job: parse, build and key
                (_parse_and_key) and pickle the built job  (bad -> 400)
                key -> cache (another spelling may be cached), else
                coalesce with any identical in-flight request, else
                enqueue the pickled job on the bounded queue (full -> 429)
        batch loop drains the queue (up to ``max_batch`` jobs) into
        one of ``jobs`` batch slots, runs the batch on the persistent
        WorkerPool (schedule_cell unpickles and schedules), fulfils
        futures, populates the cache
    handler awaits its future under ``timeout_s``  (late -> 504)

The server process itself never decodes a body, builds, fingerprints
or unpickles a graph: its one thread (and GIL) is left to HTTP, the
digest memo, the cache, coalescing, the queue and response encoding.
A cold request makes two trips to the same
:class:`~repro.bench.parallel.WorkerPool` the grid engine uses: one
to parse and key it, one (batched with any other queued misses) to
schedule it.  The built job crosses between them as bytes pickled
once in the worker that built it; the graph pickles as its validated
CSR arrays and topological order, which the scheduling worker adopts
without rebuilding.  With ``jobs > 1`` every trip, a batch of one
included, runs in the workers, and up to ``jobs`` batches are in
flight at once.  With ``jobs=1`` both trips run in-process through
the same two functions, with no multiprocessing at all.

Shutdown: :meth:`ScheduleService.drain` (wired to SIGTERM/SIGINT by
``repro-bench serve``) stops accepting, lets queued and in-flight
jobs finish, flushes the cache's persistent backend, and releases the
workers.  Everything observable goes through :mod:`repro.obs`:
``service.request`` spans, ``service.requests`` /
``service.cache_hits`` / ``service.rejected`` / ``service.timeouts``
counters and a ``service.latency_ms`` histogram land in the run
manifest of a traced run.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import itertools
import pickle
import signal
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from .. import api
from ..bench.parallel import WorkerPool
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .cache import ScheduleCache
from .protocol import (
    MAX_BODY,
    READ_TIMEOUT_S,
    Request,
    parse_schedule_request,
    read_request,
    response_bytes,
    schedule_cell,
    violations_payload,
)

__all__ = ["ServiceConfig", "ScheduleService"]


def _parse_and_key(body: bytes, content_type: str):
    """Parse, build and key a request body: ``(key, built job)`` —
    the service's only place for all three."""
    graph_src, machine_src, spec = parse_schedule_request(body,
                                                          content_type)
    graph = api.as_graph(graph_src)
    machine = api.as_machine(machine_src, graph)
    spec = api.spec_fingerprint(spec)
    return api.request_key(graph, machine, spec), (graph, machine, spec)


def parse_job(request: Tuple[bytes, str]) -> Dict:
    """Worker side of a cold request's first trip (module-level: it
    pickles).

    ``request = (body, content type)``.  Returns ``{"key", "job"}``,
    the job being the built ``(graph, machine, spec)`` pickled here,
    once, for :func:`~repro.service.protocol.schedule_cell`; or, for a
    malformed body, the ``{"error", "error_payload"}`` shape
    ``schedule_cell`` uses, the payload a violations table.  Never
    raises.
    """
    try:
        key, job = _parse_and_key(*request)
    except Exception as exc:  # ships home; the handler answers 400
        return {"error": str(exc) or type(exc).__name__,
                "error_payload": violations_payload(exc)}
    return {"key": key,
            "job": pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)}


@dataclass
class ServiceConfig:
    """Tuning knobs of one :class:`ScheduleService`.

    ``port=0`` binds an ephemeral port (tests, self-hosted loadtests);
    the bound port is on :attr:`ScheduleService.port` after
    :meth:`~ScheduleService.start`.  ``queue_limit`` bounds admission
    (beyond it requests get 429), ``max_batch`` how many queued jobs
    one pool round-trip may carry, ``timeout_s`` the per-request
    deadline (504), ``jobs`` the worker count
    (:class:`~repro.bench.parallel.WorkerPool` convention: 1 =
    in-process, 0 = one per CPU).  ``cache_dir`` switches the schedule
    cache to a persistent store so restarts begin warm.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    jobs: int = 1
    queue_limit: int = 64
    max_batch: int = 8
    timeout_s: float = 30.0
    cache_capacity: int = 1024
    cache_dir: Optional[str] = None


class ScheduleService:
    """The scheduling server; start/drain from any asyncio loop."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 pool: Optional[WorkerPool] = None):
        self.config = config or ServiceConfig()
        self.cache = ScheduleCache(self.config.cache_capacity,
                                   directory=self.config.cache_dir)
        self.pool = pool or WorkerPool(self.config.jobs)
        self.port: Optional[int] = None
        self.stats: Dict[str, int] = {
            "requests": 0, "scheduled": 0, "cache_hits": 0,
            "coalesced": 0, "rejected": 0, "timeouts": 0,
            "bad_requests": 0, "errors": 0, "batches": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._batch_task: Optional[asyncio.Task] = None
        self._batches: Set[asyncio.Task] = set()  # in flight on the pool
        self._drain_task: Optional[asyncio.Task] = None
        self._pending: Dict[str, asyncio.Future] = {}
        self._lanes: Set[int] = set()  # trace lanes of open requests
        self._draining = False
        # Encoded warm responses by key: a hot hit writes pre-built
        # bytes instead of re-serializing the schedule every time.
        self._warm_bytes: "OrderedDict[str, bytes]" = OrderedDict()
        # The service's own threads for pool trips —
        # never the loop's default executor, which other code in the
        # process (e.g. an in-process loadtest client) may saturate.
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Fork the workers, bind, start serving, start the batch loop."""
        if self.pool.jobs > 1:
            # Before any socket exists: a worker forked later would hold
            # open client sockets, and their clients never see EOF.
            self.pool.ensure()
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        # Each batch in flight holds a thread while it waits on the
        # pool; four more stay free for parse trips.
        self._executor = ThreadPoolExecutor(
            max_workers=4 + self.pool.jobs,
            thread_name_prefix="repro-service")
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._batch_task = asyncio.get_running_loop().create_task(
            self._batch_loop())

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (the ``serve`` verb's wiring)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: loop.create_task(self.drain()))

    async def drain(self) -> None:
        """Stop accepting, finish queued and in-flight work, release
        the workers, flush the cache.

        Idempotent and join-able: every caller (the SIGTERM handler,
        the serve verb's epilogue, a test's teardown) awaits the same
        underlying drain, so none returns before the work is done.
        """
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._do_drain())
        await asyncio.shield(self._drain_task)

    async def _do_drain(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._queue is not None:
            await self._queue.join()
        if self._batch_task is not None:
            self._batch_task.cancel()
            try:
                await self._batch_task
            except asyncio.CancelledError:
                pass
        if self._executor is not None:
            await asyncio.get_running_loop().run_in_executor(
                self._executor, self.pool.drain)
            self._executor.shutdown(wait=True)
        else:
            self.pool.drain()
        self.cache.save()

    async def serve_forever(self) -> None:
        """Block until :meth:`drain` closes the server."""
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        t0 = time.perf_counter()
        encoded = response_bytes(400, {"error": "unreadable request"})
        try:
            request = await asyncio.wait_for(read_request(reader),
                                             READ_TIMEOUT_S)
        except asyncio.TimeoutError:
            request = None
            encoded = response_bytes(408, {
                "error": "request not received within "
                         f"{READ_TIMEOUT_S:g} s"})
        if request is not None:
            # Concurrent handlers' spans overlap: each takes a free lane.
            lane = next(i for i in itertools.count() if i not in self._lanes)
            self._lanes.add(lane)
            with _trace.root_span("service.request",
                                  f"service.request#{lane}",
                                  method=request.method, path=request.path):
                response = await self._route(request)
            self._lanes.discard(lane)
            encoded = (response if isinstance(response, bytes)
                       else response_bytes(*response))
        self.stats["requests"] += 1
        _metrics.incr("service.requests")
        _metrics.observe("service.latency_ms",
                         (time.perf_counter() - t0) * 1000.0)
        try:
            writer.write(encoded)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except ConnectionError:
            pass

    async def _route(self, request: Request
                     ) -> Union[Tuple[int, Dict], bytes]:
        if request.oversized:
            self.stats["bad_requests"] += 1
            return 413, {"error": "request body exceeds "
                                  f"{MAX_BODY} bytes"}
        if request.method == "GET" and request.path == "/healthz":
            return 200, {"status": "draining" if self._draining else "ok"}
        if request.method == "GET" and request.path == "/stats":
            return 200, {"service": dict(self.stats),
                         "cache": self.cache.stats(),
                         "queue": (self._queue.qsize()
                                   if self._queue else 0),
                         "jobs": self.pool.jobs}
        if request.method == "POST" and request.path == "/schedule":
            return await self._schedule(request)
        if request.path in ("/schedule", "/healthz", "/stats"):
            self.stats["bad_requests"] += 1
            return 405, {"error": f"{request.method} not allowed on "
                                  f"{request.path}"}
        self.stats["bad_requests"] += 1
        return 404, {"error": f"no such endpoint: {request.path}"}

    async def _schedule(self, request: Request
                        ) -> Union[Tuple[int, Dict], bytes]:
        if self._draining:
            return 503, {"error": "server is draining"}

        # Warm fast path: a byte-identical body resolves straight to a
        # cache key through the digest memo — no JSON, no graph build.
        digest = hashlib.sha256(request.body).hexdigest()
        key = self.cache.key_for(digest)
        result = None if key is None else self.cache.lookup(key)
        job = None
        if result is None and key not in self._pending:
            # An unseen body, or an evicted one with nothing in flight:
            # a worker parses, builds and keys it; off-loop, so
            # concurrent warm hits are not delayed.
            try:
                [parsed] = await asyncio.get_running_loop(
                    ).run_in_executor(self._executor, functools.partial(
                        self.pool.run_batch, parse_job,
                        [(request.body,
                          request.headers.get("content-type", ""))]))
            except Exception as exc:  # pool died mid-trip
                self.stats["errors"] += 1
                return 500, {"error": f"worker pool failure: {exc}"}
            if "error" in parsed:
                self.stats["bad_requests"] += 1
                return 400, parsed["error_payload"]
            parsed_key, job = parsed["key"], parsed["job"]
            self.cache.link_digest(digest, parsed_key)
            if key is None:
                # Another spelling of this request may be cached.
                key = parsed_key
                result = self.cache.lookup(key)
        if result is not None:
            self.stats["cache_hits"] += 1
            _metrics.incr("service.cache_hits")
            return self._warm_response(key, result)

        # Coalesce identical in-flight requests onto one future; only
        # the first of them occupies a queue slot.
        future = self._pending.get(key)
        if future is None:
            assert self._queue is not None, "call start() first"
            assert job is not None
            future = asyncio.get_running_loop().create_future()
            try:
                self._queue.put_nowait((key, job, future))
            except asyncio.QueueFull:
                self.stats["rejected"] += 1
                _metrics.incr("service.rejected")
                return 429, {"error": "job queue is full, retry later",
                             "queue_limit": self.config.queue_limit}
            self._pending[key] = future
        else:
            self.stats["coalesced"] += 1

        try:
            # shield(): several requests may await one coalesced
            # future; one waiter timing out must not cancel the rest.
            result = await asyncio.wait_for(asyncio.shield(future),
                                            self.config.timeout_s)
        except asyncio.TimeoutError:
            self.stats["timeouts"] += 1
            _metrics.incr("service.timeouts")
            return 504, {"error": "scheduling timed out",
                         "timeout_s": self.config.timeout_s}
        if "error" in result:
            self.stats["errors"] += 1
            return 500, result.get("error_payload",
                                   {"error": result["error"]})
        return 200, {"cached": False, **result}

    def _warm_response(self, key: str, result: Dict) -> bytes:
        """Encoded 200 for a cache hit, serialized at most once per key."""
        encoded = self._warm_bytes.get(key)
        if encoded is None:
            encoded = response_bytes(200, {"cached": True, **result})
            self._warm_bytes[key] = encoded
            while len(self._warm_bytes) > self.config.cache_capacity:
                self._warm_bytes.popitem(last=False)
        else:
            self._warm_bytes.move_to_end(key)
        return encoded

    # ------------------------------------------------------------------
    # the batch loop
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        # One batch in flight per worker, so no worker idles while
        # another parses the next request.  A slot id is also the trace
        # track of its batch: spans open at once need distinct tracks.
        slots: asyncio.Queue = asyncio.Queue()
        for slot in range(self.pool.jobs):
            slots.put_nowait(slot)
        while True:
            slot = await slots.get()
            jobs = [await self._queue.get()]
            while len(jobs) < self.config.max_batch:
                try:
                    jobs.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            batch = loop.create_task(self._run_batch(slot, jobs))
            self._batches.add(batch)
            batch.add_done_callback(
                functools.partial(self._batch_done, slots, slot))

    def _batch_done(self, slots: asyncio.Queue, slot: int,
                    batch: asyncio.Task) -> None:
        """Free the batch's slot; an unexpected failure is raised here,
        where the loop's exception handler reports it."""
        self._batches.discard(batch)
        slots.put_nowait(slot)
        if not batch.cancelled():
            batch.result()

    async def _run_batch(self, slot: int, jobs: List) -> None:
        """Schedule one batch on the pool and fulfil its futures."""
        assert self._queue is not None
        with _trace.root_span("service.batch", f"service.batch#{slot}",
                              size=len(jobs)):
            try:
                results = await asyncio.get_running_loop().run_in_executor(
                    self._executor, functools.partial(
                        self.pool.run_batch, schedule_cell,
                        [job for _key, job, _fut in jobs]))
            except Exception as exc:  # pool died mid-batch
                results = [{"error": f"worker pool failure: {exc}"}
                           ] * len(jobs)
        self.stats["batches"] += 1
        self.stats["scheduled"] += len(jobs)
        _metrics.observe("service.batch_size", float(len(jobs)))
        for (key, _job, future), result in zip(jobs, results):
            if "error" not in result:
                result["key"] = key
                self.cache.put(key, result)
            self._pending.pop(key, None)
            if not future.done():
                future.set_result(result)
            self._queue.task_done()
