"""Service tests: the robustness contract of ``repro.service``.

Each test boots a real :class:`~repro.service.ScheduleService` on an
ephemeral port inside ``asyncio.run`` and talks to it over actual HTTP
with the blocking :class:`~repro.service.ServiceClient` pushed onto a
side thread (the server owns its own executor, so in-process clients
cannot starve it).  Covered contract:

* malformed graphs answer 400 with a ``Violation`` table, never a
  traceback, and an oversized body answers 413;
* a stalled client answers 408 and a header flood 400;
* concurrent requests trace as a valid span forest;
* a cold request builds and fingerprints its graph once, in a worker
  when there are workers: at ``jobs=2`` the server process builds,
  fingerprints, unpickles and parses nothing, and the worker pool
  (forked at start, so clients still see EOF) returns the in-process
  results, with one batch in flight per worker;
* malformed bodies, equivalent spellings and the cold/warm pair
  answer alike at ``jobs=1`` and ``jobs=2``;
* the parse job returns a dict and never raises, on any bytes;
* ``read_request`` answers ``None`` or a ``Request`` and never raises,
  on any bytes, and flags ``oversized`` exactly past ``MAX_BODY``;
* the per-request deadline answers 504;
* the bounded queue answers 429 backpressure;
* a warm hit is byte-for-byte the same schedule the cold request
  computed (the cache-correctness half of the cold/warm speedup);
* drain is clean, idempotent and join-able;
* a persistent cache file that cannot be read is set aside with one
  warning and the server starts cold.

Plus the storm generator's determinism (equal configs ⇒ identical
request streams), which the loadtest's rankable tables rest on.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.storm import StormConfig, make_storm, storm_bodies
from repro.service import ScheduleCache, ScheduleService, ServiceClient, ServiceConfig

GRAPH = {
    "weights": [2.0, 3.0, 4.0, 1.0],
    "edges": [[0, 1, 4.0], [0, 2, 1.0], [1, 3, 1.0], [2, 3, 5.0]],
    "name": "svc-test",
}
OTHER = dict(GRAPH, weights=[5.0, 6.0, 7.0, 8.0])


def _run(coro):
    return asyncio.run(coro)


async def _with_service(config, body):
    """Start a service, run ``body(service, client)`` off-loop, drain."""
    service = ScheduleService(config)
    await service.start()
    loop = asyncio.get_running_loop()
    client = ServiceClient(port=service.port, timeout=10.0)
    try:
        return await loop.run_in_executor(
            None, lambda: body(service, client))
    finally:
        await service.drain()


def _serve(body, **config_kwargs):
    config = ServiceConfig(port=0, **config_kwargs)
    return _run(_with_service(config, body))


# ----------------------------------------------------------------------
# happy path + cold/warm equivalence
# ----------------------------------------------------------------------
class TestScheduleEndpoint:
    def test_cold_then_warm_same_schedule(self):
        def body(service, client):
            raw = json.dumps({"graph": GRAPH, "machine": 2,
                              "spec": "mcp"}, sort_keys=True).encode()
            s1, cold = client.post_body(raw)
            s2, warm = client.post_body(raw)
            return s1, cold, s2, warm, dict(service.stats)

        # In-process and on the worker pool: the same answers.
        answers = [_serve(body, jobs=jobs) for jobs in (1, 2)]
        assert answers[1] == answers[0]
        s1, cold, s2, warm, stats = answers[0]
        assert (s1, s2) == (200, 200)
        assert cold["cached"] is False and warm["cached"] is True
        assert warm["schedule"] == cold["schedule"]
        assert warm["length"] == cold["length"]
        assert warm["key"] == cold["key"]
        assert stats["cache_hits"] == 1 and stats["scheduled"] == 1

    def test_equivalent_spelling_hits_same_cache_entry(self):
        # Different JSON bytes (spec case, axis order), same request
        # identity: the second must be a cache hit, not a recompute,
        # also when a worker keyed it.
        def body(service, client):
            r1 = client.schedule(GRAPH, 2, "MCP")
            r2 = client.schedule(GRAPH, 2, "mcp")
            return r1, r2, dict(service.stats)

        answers = [_serve(body, jobs=jobs) for jobs in (1, 2)]
        assert answers[1] == answers[0]
        (s1, cold), (s2, warm), stats = answers[0]
        assert (s1, s2) == (200, 200)
        assert warm["cached"] is True
        assert warm["schedule"] == cold["schedule"]
        assert stats["scheduled"] == 1

    def test_stg_text_request(self):
        def body(service, client):
            from repro.io.stg import dumps_stg
            from repro import api

            return client.schedule_stg(dumps_stg(api.as_graph(GRAPH)))

        status, payload = _serve(body)
        assert status == 200
        assert payload["length"] > 0

    def test_healthz_stats_and_unknown_routes(self):
        def body(service, client):
            return (client.healthz(), client.stats(),
                    client._request("GET", "/nope"),
                    client._request("GET", "/schedule"))

        health, stats, missing, wrong_method = _serve(body)
        assert health == (200, {"status": "ok"})
        assert stats[0] == 200 and "cache" in stats[1]
        assert missing[0] == 404
        assert wrong_method[0] == 405


# ----------------------------------------------------------------------
# error shapes: violations, not tracebacks
# ----------------------------------------------------------------------
class TestErrorContract:
    @pytest.mark.parametrize("raw, code", [
        (b'{"graph": {"edges": [[0, 1, 1.0]]}}', "graph"),
        (b'{"graph": {"weights": [1.0, "x"]}}', "graph"),
        (b'{"spec": "mcp"}', "graph"),          # no graph at all
        (b'not json and not stg', "graph"),
        (b'{"graph": ' + json.dumps(GRAPH).encode()
         + b', "spec": "NOPE"}', "spec"),
        (b'{"graph": ' + json.dumps(GRAPH).encode()
         + b', "machine": {"procs": "many"}}', "machine"),
    ])
    def test_malformed_requests_answer_violation_tables(self, raw, code):
        def body(service, client):
            return client.post_body(raw), dict(service.stats)

        # At jobs=2 the parse error comes home from a worker: the same
        # table, the same counters.
        answers = [_serve(body, jobs=jobs) for jobs in (1, 2)]
        assert answers[1] == answers[0]
        (status, payload), stats = answers[0]
        assert status == 400
        assert "traceback" not in json.dumps(payload).lower()
        assert payload["violations"], payload
        assert payload["violations"][0]["code"] == code
        assert code in payload["table"] and "CODE" in payload["table"]
        assert stats["bad_requests"] == 1 and stats["scheduled"] == 0

    def test_oversized_body_answers_413(self):
        from repro.service.protocol import MAX_BODY

        def body(service, client):
            # Only the headers: the server must answer without reading
            # (or waiting for) the announced body.
            with socket.create_connection(("127.0.0.1", service.port),
                                          timeout=10.0) as sock:
                sock.sendall(b"POST /schedule HTTP/1.1\r\n"
                             b"Content-Type: application/json\r\n"
                             b"Content-Length: "
                             + str(MAX_BODY + 1).encode() + b"\r\n\r\n")
                raw = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
            return raw, dict(service.stats)

        raw, stats = _serve(body)
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 Payload Too Large")
        assert str(MAX_BODY).encode() in payload
        assert stats["bad_requests"] == 1

    def test_pool_failure_answers_500_not_400(self, monkeypatch):
        # A request the pool could not even parse is the server's
        # fault, not the client's.
        from repro.bench.parallel import WorkerPool

        def broken(self, fn, batch):
            raise RuntimeError("worker died")

        monkeypatch.setattr(WorkerPool, "run_batch", broken)

        def body(service, client):
            return client.schedule(GRAPH, 2, "mcp"), dict(service.stats)

        (status, payload), stats = _serve(body)
        assert status == 500 and "worker died" in payload["error"]
        assert stats["errors"] == 1 and stats["bad_requests"] == 0

    def test_bad_request_counts_but_never_kills_the_server(self):
        def body(service, client):
            client.post_body(b"\xff\xfe broken bytes")
            client.post_body(b"{}")
            status, payload = client.schedule(GRAPH, 2, "mcp")
            return status, payload, dict(service.stats)

        status, payload, stats = _serve(body)
        assert status == 200 and payload["length"] > 0
        assert stats["bad_requests"] == 2


# ----------------------------------------------------------------------
# the parse job on hostile input: a dict every time, never an exception
# ----------------------------------------------------------------------
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=12)

_NUMBERS = st.integers(-3, 6) | st.floats(-2.0, 8.0) | st.booleans()

#: Mostly well-formed graphs, so that machine and spec errors are
#: reached too; the wrong types come from the other branches.
_GRAPHS = st.builds(
    lambda weights, edges: {"weights": weights,
                            "edges": [[u % len(weights), v % len(weights), c]
                                      for u, v, c in edges]},
    st.lists(st.integers(1, 9), min_size=1, max_size=5),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                       st.integers(0, 5)), max_size=4))


@st.composite
def _request_docs(draw):
    """JSON objects near the payload schema, with wrong types mixed in."""
    doc = {}
    if draw(st.integers(0, 3)):
        doc["graph"] = draw(_GRAPHS | _JSON | st.fixed_dictionaries(
            {"weights": st.lists(_NUMBERS | _JSON, max_size=5) | _JSON},
            optional={"edges": st.lists(st.lists(_NUMBERS | _JSON,
                                                 max_size=4),
                                        max_size=5) | _JSON,
                      "name": _JSON}))
    if draw(st.booleans()):
        doc["machine"] = draw(_JSON | st.fixed_dictionaries(
            {}, optional={"procs": _NUMBERS | _JSON,
                          "speeds": st.lists(_NUMBERS, max_size=4)
                          | _JSON}))
    if draw(st.booleans()):
        doc["spec"] = draw(_JSON | st.sampled_from(
            ["mcp", "MCP", "dls", "nope", "",
             "param:prio=blevel,proc=est", "param:prio=??"]))
    return doc


class TestParseJob:
    def _check(self, request):
        import pickle

        from repro import api
        from repro.service.server import parse_job

        result = parse_job(request)
        assert isinstance(result, dict)
        if "error" in result:
            assert set(result) == {"error", "error_payload"}
            payload = result["error_payload"]
            assert payload["violations"], payload
            assert "CODE" in payload["table"]
            json.dumps(payload)  # the 400 body encodes
        else:
            assert set(result) == {"key", "job"}
            graph, machine, spec = pickle.loads(result["job"])
            assert api.request_key(graph, machine, spec) == result["key"]

    @given(st.binary(max_size=200),
           st.sampled_from(["", "application/json", "text/plain"]))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, body, content_type):
        self._check((body, content_type))

    @given(_request_docs() | _JSON)
    @settings(max_examples=300, deadline=None)
    def test_json_shaped_bodies_with_wrong_types(self, doc):
        self._check((json.dumps(doc).encode(), "application/json"))


def _read(data: bytes):
    """``read_request`` over a stream holding ``data`` then EOF."""
    from repro.service.protocol import read_request

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(scenario())


_HEADER_NAMES = st.sampled_from(
    ["Content-Length", "content-length", " CONTENT-LENGTH ", "Host",
     "Content-Type", "X-Pad"])
_HEADER_VALUES = (
    st.integers(-3, 3).map(str)
    | st.integers(-(2 ** 70), 2 ** 70).map(str)
    | st.sampled_from([str(64 * 2 ** 20 + d) for d in (-1, 0, 1)])
    | st.sampled_from(["", " 5 ", "+2", "1_0", "abc", "1e3", "0x10", "½"])
    | st.text(st.characters(codec="latin-1", exclude_characters="\r\n"),
              max_size=12))


@st.composite
def _header_shaped(draw):
    """A request line, header lines and a body, plus the header list."""
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    line = draw(st.sampled_from(
        ["POST /schedule HTTP/1.1", "get / HTTP/1.0", "POST /x", "BREW",
         ""]))
    headers = draw(st.lists(st.tuples(_HEADER_NAMES, _HEADER_VALUES),
                            max_size=6))
    head = line + eol + "".join(f"{k}:{v}{eol}" for k, v in headers)
    # Without the blank line the headers end at EOF, with no body.
    body = b""
    if draw(st.booleans()):
        head += eol
        body = draw(st.binary(max_size=40))
    return head.encode("latin-1") + body, line, headers, body


class TestReadRequest:
    """``read_request`` answers ``None`` or a ``Request``, never raises,
    and flags ``oversized`` exactly when Content-Length > MAX_BODY."""

    @given(st.binary(max_size=300))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_bytes(self, data):
        from repro.service.protocol import MAX_BODY, Request

        req = _read(data)
        assert req is None or isinstance(req, Request)
        if req is not None:
            length = int(req.headers.get("content-length", "0") or "0")
            assert req.oversized == (length > MAX_BODY)

    @given(_header_shaped())
    @settings(max_examples=500, deadline=None)
    def test_header_shaped_lines(self, case):
        from repro.service.protocol import MAX_BODY

        data, line, headers, body = case
        req = _read(data)
        if len(line.split()) < 2:
            assert req is None
            return
        value = "0"
        for name, raw in headers:
            if name.strip().lower() == "content-length":
                value = raw.strip()
        try:
            length = int(value or "0")
        except ValueError:
            assert req is None  # unparseable Content-Length
            return
        if length > MAX_BODY:
            assert req is not None and req.oversized and req.body == b""
        elif length < 0:
            assert req is not None and not req.oversized
            assert req.body == b""
        elif length > len(body):
            assert req is None  # the stream ended inside the body
        else:
            assert req is not None and not req.oversized
            assert req.body == body[:length]


# ----------------------------------------------------------------------
# deadlines and backpressure
# ----------------------------------------------------------------------
class TestTimeoutsAndBackpressure:
    def test_deadline_answers_504(self):
        async def scenario():
            config = ServiceConfig(port=0, timeout_s=0.0)
            service = ScheduleService(config)
            await service.start()
            # Park the batch loop so the future can never resolve
            # inside the (zero) deadline.
            service._batch_task.cancel()
            loop = asyncio.get_running_loop()
            client = ServiceClient(port=service.port, timeout=10.0)
            try:
                status, payload = await loop.run_in_executor(
                    None, client.schedule, GRAPH, 2, "mcp")
                return status, payload, dict(service.stats), service
            finally:
                # Nothing consumes the queue: hand-settle it so drain's
                # queue.join() completes.
                while True:
                    try:
                        _k, _s, fut = service._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    fut.cancel()
                    service._queue.task_done()
                service._pending.clear()
                await service.drain()

        status, payload, stats, _ = _run(scenario())
        assert status == 504
        assert payload["timeout_s"] == 0.0
        assert stats["timeouts"] == 1

    def test_full_queue_answers_429(self):
        async def scenario():
            config = ServiceConfig(port=0, queue_limit=1, timeout_s=0.0)
            service = ScheduleService(config)
            await service.start()
            service._batch_task.cancel()
            loop = asyncio.get_running_loop()
            client = ServiceClient(port=service.port, timeout=10.0)
            other = dict(GRAPH, weights=[5.0, 6.0, 7.0, 8.0])
            try:
                # First distinct request occupies the single queue slot
                # (and 504s on the zero deadline); the second distinct
                # request must bounce with 429.
                first = await loop.run_in_executor(
                    None, client.schedule, GRAPH, 2, "mcp")
                second = await loop.run_in_executor(
                    None, client.schedule, other, 2, "mcp")
                return first[0], second, dict(service.stats)
            finally:
                while True:
                    try:
                        _k, _s, fut = service._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    fut.cancel()
                    service._queue.task_done()
                service._pending.clear()
                await service.drain()

        first_status, (second_status, payload), stats = _run(scenario())
        assert first_status == 504
        assert second_status == 429
        assert payload["queue_limit"] == 1
        assert stats["rejected"] == 1


# ----------------------------------------------------------------------
# the one cold path: a worker parses, builds, keys and pickles the job
# once (parse_job), a worker unpickles and schedules it (schedule_cell);
# the server process only routes bytes, keys and results
# ----------------------------------------------------------------------
class TestColdPath:
    def test_cold_request_builds_and_keys_the_graph_once(self,
                                                          monkeypatch):
        from repro.core.graph import TaskGraph

        counts: Counter = Counter()
        init, fingerprint = TaskGraph.__init__, TaskGraph.fingerprint

        def counting_init(self, *args, **kwargs):
            counts["builds"] += 1
            init(self, *args, **kwargs)

        def counting_fingerprint(self):
            counts["fingerprints"] += 1
            return fingerprint(self)

        monkeypatch.setattr(TaskGraph, "__init__", counting_init)
        monkeypatch.setattr(TaskGraph, "fingerprint", counting_fingerprint)

        def body(service, client):
            return client.schedule(GRAPH, 2, "mcp")

        status, payload = _serve(body, jobs=1)
        assert status == 200 and payload["cached"] is False
        assert counts == {"builds": 1, "fingerprints": 1}

    def test_server_process_builds_nothing_with_workers(self,
                                                        monkeypatch):
        # The counters are patched in after start(), when the workers
        # are already forked: they count the server process alone.
        from repro.core.graph import TaskGraph
        from repro.service import server

        counts: Counter = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        raw = json.dumps({"graph": GRAPH, "machine": 2, "spec": "mcp"},
                         sort_keys=True).encode()

        def body(service, client):
            for owner, name in ((TaskGraph, "__init__"),
                                (TaskGraph, "__setstate__"),
                                (TaskGraph, "fingerprint"),
                                (server, "parse_schedule_request")):
                monkeypatch.setattr(owner, name,
                                    counting(name, getattr(owner, name)))
            try:
                return client.post_body(raw), client.post_body(raw)
            finally:
                monkeypatch.undo()

        cold, warm = _serve(body, jobs=2)
        assert counts == {}
        in_process = _serve(lambda service, client: client.post_body(raw),
                            jobs=1)
        assert cold == in_process
        assert warm == (200, dict(in_process[1], cached=True))

    def test_pool_batch_equals_in_process_results(self):
        from repro import api
        from repro.bench.parallel import WorkerPool
        from repro.service.protocol import schedule_cell
        from repro.service.server import parse_job

        requests = [(GRAPH, 2, "mcp"),
                    (OTHER, 3, "param:prio=blevel,proc=est")]
        bodies = [(json.dumps({"graph": g, "machine": m,
                               "spec": spec}).encode(), "application/json")
                  for g, m, spec in requests]
        parsed = [parse_job(request) for request in bodies]
        with WorkerPool(2) as pool:
            remote = pool.run_batch(parse_job, bodies)
            pooled = pool.run_batch(schedule_cell,
                                    [p["job"] for p in remote])
            assert pool.alive  # the batches crossed into worker processes
        assert [p["key"] for p in remote] == [p["key"] for p in parsed]
        assert pooled == [schedule_cell(p["job"]) for p in parsed]
        for (g, m, spec), p, result in zip(requests, parsed, pooled):
            assert p["key"] == api.request_key(g, m, spec)
            assert result["spec"] == api.spec_fingerprint(spec)
            assert result["length"] == api.schedule(g, m, spec).length

    def test_evicted_entry_takes_the_cold_path_again(self):
        def body(service, client):
            first = client.schedule(GRAPH, 2, "mcp")
            client.schedule(OTHER, 2, "mcp")  # evicts the first entry
            again = client.schedule(GRAPH, 2, "mcp")
            return first, again, dict(service.stats), service.cache.stats()

        (s1, first), (s3, again), stats, cache = _serve(body,
                                                        cache_capacity=1)
        assert (s1, s3) == (200, 200)
        assert again["cached"] is False
        assert again["key"] == first["key"]
        assert again["schedule"] == first["schedule"]
        assert stats["scheduled"] == 3 and stats["cache_hits"] == 0
        assert cache["misses"] == 3


def _read_to_eof(sock: socket.socket) -> bytes:
    raw = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return raw
        raw += chunk


class TestWorkerPoolLifecycle:
    def test_workers_are_forked_at_start(self):
        async def scenario():
            service = ScheduleService(ServiceConfig(port=0, jobs=2))
            await service.start()
            try:
                return service.pool.alive
            finally:
                await service.drain()

        assert _run(scenario())

    def test_clients_see_eof_when_a_batch_runs_on_the_pool(self):
        # A worker forked while a connection is open would hold that
        # connection's socket, so its client would never see EOF.
        def exchange(port, raw):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=5.0) as sock:
                sock.sendall(raw)
                try:
                    return _read_to_eof(sock).startswith(b"HTTP/1.1 200")
                except socket.timeout:
                    return False

        def body(service, client):
            outcomes = []
            for attempt in range(100):
                raws = [_post(json.dumps({
                    "graph": dict(GRAPH, weights=[1.0, 2.0 + attempt,
                                                  3.0, 1.0 + k]),
                    "machine": 2}).encode()) for k in range(2)]
                with ThreadPoolExecutor(2) as threads:
                    outcomes += threads.map(
                        lambda raw: exchange(service.port, raw), raws)
                if service.stats["scheduled"] > service.stats["batches"]:
                    break  # a batch of two ran on the worker pool
            return outcomes, dict(service.stats)

        outcomes, stats = _serve(body, jobs=2)
        assert stats["scheduled"] > stats["batches"]
        assert all(outcomes)


def _slow_cell(job):
    """Pool worker stand-in for ``schedule_cell``: holds its worker for
    a while and reports where and when it ran (module-level: pickles)."""
    import os
    import pickle
    import time

    start = time.monotonic()
    time.sleep(0.6)
    return {"spec": pickle.loads(job)[2], "length": 0.0, "schedule": {},
            "pid": os.getpid(), "ran": [start, time.monotonic()]}


class TestBatchDispatch:
    def test_one_batch_in_flight_per_worker(self, monkeypatch):
        # A second request arriving while the first batch runs is
        # dispatched at once to the idle worker, not after the first.
        from repro.service import server

        monkeypatch.setattr(server, "schedule_cell", _slow_cell)

        def body(service, _client):
            def send(k):
                time.sleep(0.25 * k)
                return ServiceClient(port=service.port, timeout=10.0
                                     ).schedule(OTHER if k else GRAPH, 2)

            with ThreadPoolExecutor(2) as threads:
                answers = list(threads.map(send, range(2)))
            return answers, dict(service.stats)

        answers, stats = _serve(body, jobs=2)
        assert [status for status, _ in answers] == [200, 200]
        assert stats["batches"] == 2
        (a0, a1), (b0, b1) = (payload["ran"] for _, payload in answers)
        assert max(a0, b0) < min(a1, b1)  # the two batches overlapped
        assert answers[0][1]["pid"] != answers[1][1]["pid"]


def _post(body: bytes) -> bytes:
    return (b"POST /schedule HTTP/1.1\r\nContent-Type: application/json"
            b"\r\nContent-Length: %d\r\n\r\n" % len(body)) + body


class TestRequestReadBounds:
    def test_stalled_client_answers_408(self, monkeypatch):
        from repro.service import server

        monkeypatch.setattr(server, "READ_TIMEOUT_S", 0.2)

        def body(service, client):
            with socket.create_connection(("127.0.0.1", service.port),
                                          timeout=10.0) as sock:
                sock.sendall(b"POST /schedule HTTP/1.1\r\n")  # then stall
                return _read_to_eof(sock), client.healthz()

        raw, health = _serve(body)
        assert raw.startswith(b"HTTP/1.1 408 Request Timeout")
        assert health == (200, {"status": "ok"})

    @pytest.mark.parametrize("extra, status", [(0, b"200"), (1, b"400")])
    def test_header_count_is_capped(self, extra, status):
        from repro.service.protocol import MAX_HEADERS

        def body(service, client):
            headers = b"".join(b"X-Pad-%d: 1\r\n" % i
                               for i in range(MAX_HEADERS + extra))
            with socket.create_connection(("127.0.0.1", service.port),
                                          timeout=10.0) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n" + headers
                             + b"\r\n")
                return _read_to_eof(sock), client.healthz()

        raw, health = _serve(body)
        assert raw.startswith(b"HTTP/1.1 " + status)
        assert health == (200, {"status": "ok"})


class TestTracing:
    def test_concurrent_request_spans_nest(self, monkeypatch):
        # Handlers interleave on the event loop; their spans must still
        # form a valid forest (the sanitizer-armed export checks it).
        from repro.obs import trace

        monkeypatch.setenv(trace.ENV_VAR, "1")
        trace.reset()

        def body(service, client):
            def one(k):
                graph = dict(GRAPH, weights=[1.0, 2.0 + k, 3.0, 1.0])
                return client.schedule(graph, 2, "mcp")[0]

            with ThreadPoolExecutor(4) as threads:
                return list(threads.map(one, range(8)))

        try:
            statuses = _serve(body)
            spans = trace.current().spans
        finally:
            trace.reset()
        assert statuses == [200] * 8
        assert sum(sp.name == "service.request" for sp in spans) == 8
        trace.validate_nesting(spans)


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_is_idempotent_and_final(self):
        async def scenario():
            service = ScheduleService(ServiceConfig(port=0))
            await service.start()
            loop = asyncio.get_running_loop()
            client = ServiceClient(port=service.port, timeout=10.0)
            status, _ = await loop.run_in_executor(
                None, client.schedule, GRAPH, 2, "mcp")
            # Concurrent and repeated drains all join the same work.
            await asyncio.gather(service.drain(), service.drain())
            await service.drain()
            refused = False
            try:
                await loop.run_in_executor(None, client.healthz)
            except OSError:
                refused = True
            return status, refused

        status, refused = _run(scenario())
        assert status == 200
        assert refused

    def test_persistent_cache_survives_restart(self, tmp_path):
        cache_dir = str(tmp_path / "cache")

        def body(service, client):
            return client.schedule(GRAPH, 2, "mcp")

        status, cold = _serve(body, cache_dir=cache_dir)
        assert status == 200 and cold["cached"] is False

        status, warm = _serve(body, cache_dir=cache_dir)
        assert status == 200 and warm["cached"] is True
        assert warm["schedule"] == cold["schedule"]

    @pytest.mark.parametrize("garbage", [
        b"\x00\xff{not json" * 8,
        b'{"schema": 1, "rows": [7]}',
        b"[1, 2]",
    ], ids=["bytes", "row", "list"])
    def test_corrupt_cache_file_starts_cold(self, tmp_path, caplog, garbage):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        store_file = cache_dir / "schedules.json"
        store_file.write_bytes(garbage)

        def body(service, client):
            return client.schedule(GRAPH, 2, "mcp")

        with caplog.at_level("WARNING", logger="repro.bench.store"):
            status, cold = _serve(body, cache_dir=str(cache_dir))
        assert status == 200 and cold["cached"] is False
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "schedules.json" in warnings[0].getMessage()
        assert (cache_dir / "schedules.json.corrupt").read_bytes() == garbage
        # The cold answer was persisted over the bad file.
        rows = json.loads(store_file.read_text())["rows"]
        assert len(rows) == 1

        status, warm = _serve(body, cache_dir=str(cache_dir))
        assert status == 200 and warm["cached"] is True
        assert warm["schedule"] == cold["schedule"]

    def test_unusable_cache_dir_raises_value_error(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("occupied")
        with pytest.raises(ValueError):
            ScheduleCache(directory=str(not_a_dir))


# ----------------------------------------------------------------------
# the storm generator
# ----------------------------------------------------------------------
class TestStorm:
    CONFIG = StormConfig(requests=60, templates=4, sizes=(20, 30),
                         specs=("mcp", "dls"), rate=100.0, seed=7)

    def test_equal_configs_are_request_identical(self):
        a = make_storm(self.CONFIG)
        b = make_storm(StormConfig(requests=60, templates=4,
                                   sizes=(20, 30), specs=("mcp", "dls"),
                                   rate=100.0, seed=7))
        assert [(r.arrival, r.template) for r in a] == \
               [(r.arrival, r.template) for r in b]
        assert a[0].body == b[0].body

    def test_seed_changes_the_storm(self):
        a = make_storm(self.CONFIG)
        b = make_storm(StormConfig(requests=60, templates=4,
                                   sizes=(20, 30), specs=("mcp", "dls"),
                                   rate=100.0, seed=8))
        assert [(r.arrival, r.template) for r in a] != \
               [(r.arrival, r.template) for r in b]

    def test_popularity_is_zipf_skewed(self):
        counts = Counter(r.template for r in make_storm(self.CONFIG))
        assert counts[0] == max(counts.values())
        assert counts[0] > self.CONFIG.requests / self.CONFIG.templates

    def test_arrivals_sorted_and_bodies_distinct(self):
        storm = make_storm(self.CONFIG)
        arrivals = [r.arrival for r in storm]
        assert arrivals == sorted(arrivals)
        bodies = storm_bodies(self.CONFIG)
        assert len(bodies) == self.CONFIG.templates
        fps = {json.dumps(b, sort_keys=True) for b in bodies}
        assert len(fps) == self.CONFIG.templates
