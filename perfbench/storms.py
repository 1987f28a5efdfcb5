"""The storm workloads: a real server process under closed-loop load.

The server is ``repro-bench serve --jobs 2 --port 0`` started through
``serve.py`` in its own process.  Two client threads each send their
next request only when the previous one has been answered (a closed
loop), over plain sockets with pre-built request bytes, so the client
adds little beyond the HTTP exchange it measures.

``storm_cold`` POSTs distinct templates, so every request takes the
cold path (parse, build, key, queue, schedule, encode); the cache is
written, never hit.

Correctness: every 200 response's schedule ``length`` must equal the
length ``repro.api.schedule`` computes in-process for its template,
after the timed phase.  A non-200 status, a transport error or a
length mismatch counts as a failed request; only the requests that
pass count as completed operations.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import common
import spans as spans_mod
from repro.obs.report import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SERVE = os.path.join(HERE, "serve.py")

CLIENTS = 2
JOBS = 2
COLD_TEMPLATES = 120
#: Untraced/traced rounds of a traced storm run.
TRACE_ROUNDS = 2
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


def request_bytes(method: str, path: str, body: bytes = b"") -> bytes:
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


def exchange(port: int, raw: bytes) -> Tuple[int, bytes]:
    """Send one request and read its response; ``(status, body)``.

    Reads ``Content-Length`` bytes rather than waiting for the server
    to close: pool workers forked while a connection is open inherit
    its socket, so that connection's end-of-file never arrives.
    """
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(raw)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("connection closed mid-header")
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        length = next(int(line.split(":", 1)[1]) for line in lines
                      if line.lower().startswith("content-length:"))
        chunks = [body]
        received = len(body)
        while received < length:
            chunk = sock.recv(1 << 18)
            if not chunk:
                raise ConnectionError("connection closed mid-body")
            chunks.append(chunk)
            received += len(chunk)
    return int(lines[0].split(" ", 2)[1]), b"".join(chunks)


class Server:
    """One server process; ``spans_path`` turns on the timing wrappers."""

    def __init__(self, spans_path: Optional[str] = None):
        cmd = [sys.executable, "-u", SERVE]
        if spans_path is not None:
            cmd += ["--spans", spans_path]
        cmd += ["--", "--jobs", str(JOBS), "--port", "0"]
        env = {k: v for k, v in os.environ.items() if k != "REPRO_TRACE"}
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     cwd=ROOT, env=env)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            match = re.search(r"http://[\d.]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(match.group(1))
            status, _ = self.get("/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.kill()
            raise

    def get(self, path: str) -> Tuple[int, Dict]:
        status, body = exchange(self.port, request_bytes("GET", path))
        return status, json.loads(body)

    def stats(self) -> Dict:
        status, payload = self.get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return payload

    def warm_pool(self) -> None:
        """Fork the worker pool with throwaway requests.

        A batch of one job runs inside the server, so the pool forks
        only when two jobs share a batch; send tiny distinct pairs until
        ``/stats`` shows one did.
        """
        def body(weight: float) -> bytes:
            return request_bytes("POST", "/schedule", json.dumps({
                "graph": {"weights": [1.0, weight], "edges": [[0, 1, 1.0]]},
                "machine": {"procs": 2}, "spec": "mcp"}).encode())

        for attempt in range(50):
            threads = [threading.Thread(
                target=exchange, args=(self.port, body(2.0 + attempt + k / 2)))
                for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            service = self.stats()["service"]
            if service["scheduled"] > service["batches"]:
                return
        raise RuntimeError("worker pool never received a batch of two")

    def peak_rss_mb(self) -> float:
        """Peak RSS of the largest process: the server or a worker."""
        pids = [self.proc.pid]
        task_dir = f"/proc/{self.proc.pid}/task"
        for tid in os.listdir(task_dir):
            with open(f"{task_dir}/{tid}/children") as fh:
                pids += [int(p) for p in fh.read().split()]
        peak_kb = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            peak_kb = max(peak_kb, int(line.split()[1]))
            except FileNotFoundError:  # a worker that has just exited
                pass
        return peak_kb / 1024.0

    def stop(self) -> bool:
        """SIGTERM, wait for the drain; True when it said goodbye."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=START_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        return self.proc.returncode == 0 and "drained, bye" in out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def closed_loop(port: int, order: List[int], encoded: Dict[int, bytes],
                seconds: float):
    """Send the templates in ``order`` from :data:`CLIENTS` closed-loop
    clients, until ``order`` is exhausted or ``seconds`` have passed.

    Returns ``(samples, start_ns, end_ns)``; a sample is ``(template,
    status, latency_s, body)``, status ``-1`` with the error text as the
    body when the exchange itself failed.
    """
    samples: List[Tuple[int, int, float, bytes]] = []
    lock = threading.Lock()
    cursor = [0]
    start_ns = time.perf_counter_ns()
    deadline = time.perf_counter() + seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(order):
                return
            template = order[i]
            t0 = time.perf_counter_ns()
            try:
                status, body = exchange(port, encoded[template])
            except Exception as exc:  # a failed request; keep the loop up
                status, body = -1, repr(exc).encode()
            latency = (time.perf_counter_ns() - t0) / 1e9
            with lock:
                samples.append((template, status, latency, body))

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples, start_ns, time.perf_counter_ns()


def _references(bodies: Dict[int, Dict], templates) -> Dict[int, float]:
    """In-process schedule lengths of the given templates."""
    from repro import api

    return {t: api.schedule(bodies[t]["graph"], bodies[t]["machine"],
                            bodies[t]["spec"]).length
            for t in sorted(set(templates))}


def _check(phase: common.Phase, samples, refs: Dict[int, float]) -> int:
    """Count failed requests: non-200, transport error, wrong length.

    Returns the number of requests that passed (completed requests).
    """
    passed = 0
    for template, status, _latency, body in samples:
        if status != 200:
            text = body.decode("utf-8", "replace")[:200]
            phase.fail(f"template {template}: status {status} {text}")
            continue
        length = json.loads(body).get("length")
        if length != refs[template]:
            phase.fail(f"template {template}: length {length}, "
                       f"in-process {refs[template]}")
            continue
        passed += 1
    return passed


def _measure(server: Server, order: List[int], encoded: Dict[int, bytes],
             seconds: float):
    """The timed phase plus the ``/stats`` snapshots around it."""
    before = server.stats()
    samples, start_ns, end_ns = closed_loop(server.port, order, encoded,
                                            seconds)
    after = server.stats()
    wall_s = (end_ns - start_ns) / 1e9
    phase = common.Phase(ops=len(samples), wall_s=wall_s, busy_s=wall_s)
    phase.latencies = [lat for _t, status, lat, _b in samples
                       if status == 200]
    delta = {k: after["service"][k] - before["service"][k]
             for k in after["service"]}
    delta.update({"cache_" + k: after["cache"][k] - before["cache"][k]
                  for k in ("hits", "misses")})
    return phase, samples, delta, (start_ns, end_ns)


def _layers(spans_path: str, windows, samples, delta: Dict[str, int],
            setup_spans) -> Dict[str, float]:
    """Per-layer figures of the traced server's timed windows."""
    loaded = spans_mod.load(spans_path)
    recorded = [span for window in windows
                for span in spans_mod.window(loaded, *window)]
    spans_mod.ACTIVE.absorb(recorded)
    ops = len(samples)
    counters: Dict[str, int] = {}
    cells = [s for s in recorded if s.name == "service.worker.schedule_cell"]
    for cell in cells:
        for name, n in cell.args.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + n
    out = common.layer_metrics(recorded, ops, counters, setup_spans)

    # Each batch's cells, by time: batches run one at a time.
    batches = [s for s in recorded if s.name == "bench.parallel.run_batch"]
    batch_wall = ipc = weighted_wall = 0
    for batch in batches:
        end = batch.start_ns + batch.dur_ns
        mine = [c for c in cells if batch.start_ns <= c.start_ns < end]
        per_pid: Dict[int, int] = {}
        for c in mine:
            pid = spans_mod.pid_of(c)
            per_pid[pid] = per_pid.get(pid, 0) + c.dur_ns
        batch_wall += batch.dur_ns
        ipc += batch.dur_ns - max(per_pid.values(), default=0)
        weighted_wall += batch.dur_ns * max(1, len(mine))
    out["bench.parallel.run_batch_s"] = batch_wall / ops / 1e9
    out["bench.parallel.ipc_s"] = ipc / ops / 1e9
    out["layer.bench.parallel.self_s"] += ipc / ops / 1e9
    if cells:
        out["bench.parallel.busy_ratio"] = (
            sum(c.dur_ns for c in cells)
            / (sum(end - start for start, end in windows) * JOBS))
        out["bench.parallel.straggler_s"] = max(c.dur_ns for c in cells) / 1e9

    totals = {n: t for n, (_c, t, _s) in self_times(recorded).items()}
    latency_ns = sum(lat for _t, _s, lat, _b in samples) * 1e9
    out["service.server.wait_s"] = (
        latency_ns - totals.get("service.protocol.read", 0)
        - totals.get("service.server.key", 0) - weighted_wall
        - totals.get("service.protocol.encode", 0)) / ops / 1e9
    out["service.server.batch_size"] = (
        delta["scheduled"] / delta["batches"] if delta["batches"] else 0.0)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    out["service.cache.hit_ratio"] = (delta["cache_hits"] / lookups
                                      if lookups else 0.0)
    out["service.server.coalesced"] = float(delta["coalesced"])
    return out


def _stop(out: common.Outcome, server: Server) -> None:
    if not server.stop():
        out.fail("server did not print 'drained, bye' on SIGTERM")


def storm_cold(seed: int, seconds: float, traced: bool) -> common.Outcome:
    """Run the cold storm.

    Set-up time is the template generation and request serialisation
    plus the median of repeated server launches (start, ``/healthz``
    and pool warm-up; see :func:`common.repeat_setup`).  A traced run
    keeps an untraced and a traced server up side by side and
    alternates :data:`TRACE_ROUNDS` rounds of load between them, so a
    slow stretch of the shared host falls on both sides of the overhead
    comparison; each server has its own cache, so both are sent the
    same templates in the same order.
    """
    from repro.scenarios.storm import StormConfig, storm_bodies

    out = common.Outcome()
    rec = spans_mod.activate() if traced else None
    if rec is not None:
        spans_mod.install_generators(rec)
    t0 = time.perf_counter()
    bodies = dict(enumerate(storm_bodies(StormConfig(
        templates=COLD_TEMPLATES, seed=seed))))
    order = list(bodies)
    encoded = {t: request_bytes("POST", "/schedule",
                                json.dumps(b, sort_keys=True).encode())
               for t, b in bodies.items()}
    inputs_s = time.perf_counter() - t0
    setup_spans = list(rec.spans) if rec is not None else []
    if rec is not None:
        rec.restore()

    def launch(spans_path: Optional[str] = None) -> Server:
        server = Server(spans_path)
        try:
            server.warm_pool()
        except BaseException:
            server.kill()
            raise
        return server

    runs = []
    if not traced:
        server, launch_s = common.repeat_setup(
            launch, lambda server: _stop(out, server))
        out.setup_s = inputs_s + launch_s
        out.note(f"set-up: inputs {inputs_s:.2f} s, median launch "
                 f"{launch_s:.2f} s")
        try:
            phase, samples, _delta, _window = _measure(
                server, order, encoded, seconds)
            out.peak_rss_mb = server.peak_rss_mb()
        finally:
            _stop(out, server)
        runs.append((phase, samples))
    else:
        spans_path = os.path.join(ROOT, ".perfbench",
                                  f"storm_cold-{seed}.server-spans.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        servers = [launch()]
        try:
            servers.append(launch(spans_path))
            sides = [common.Phase(), common.Phase()]
            position = [0, 0]
            traced_samples: List = []
            delta: Dict[str, int] = {}
            windows = []
            for k in range(2 * TRACE_ROUNDS):
                side = k % 2
                phase, samples, round_delta, window = _measure(
                    servers[side], order[position[side]:], encoded,
                    seconds / (2 * TRACE_ROUNDS))
                position[side] += len(samples)
                sides[side].merge(phase)
                runs.append((phase, samples))
                if side:
                    traced_samples += samples
                    windows.append(window)
                    for key, n in round_delta.items():
                        delta[key] = delta.get(key, 0) + n
        finally:
            for server in servers:
                _stop(out, server)
        out.layers = _layers(spans_path, windows, traced_samples, delta,
                             setup_spans)
        out.layers["trace.overhead_pct"] = common.overhead_pct(*sides)
        lookups = delta["cache_hits"] + delta["cache_misses"]
        out.note(f"traced: {sides[1].ops} requests, {lookups} cache "
                 f"lookups; untraced: {sides[0].ops} requests")

    refs = _references(bodies, {t for _p, samples in runs
                                for t, *_rest in samples})
    for phase, samples in runs:
        passed = _check(phase, samples, refs)
        out.absorb(phase)
        if not traced:
            out.throughput(passed / phase.wall_s, phase.latencies)
    return out
