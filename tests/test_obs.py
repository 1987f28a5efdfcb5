"""The observability subsystem (:mod:`repro.obs`).

Covers the arming contract (disarmed hooks are no-ops, armed spans nest
correctly), the metric registry's deterministic/local split, the
cross-process collect/absorb merge, engine integration (sim + online
timelines and counters), Perfetto export structure, the sanitizer-armed
nesting validation, the counter-determinism contract across ``--jobs``,
the gantt timeline adapter, the CLI trace verbs, and the counter gate
in ``benchmarks/check_regression.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro import Machine, get_scheduler
from repro.check.sanitize import SanitizeError
from repro.obs import export, metrics, report, trace
from repro.sim import PerturbationModel, simulate
from repro.sim.online.engine import simulate_online


# ----------------------------------------------------------------------
# arming fixtures
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def obs_reset(monkeypatch):
    """Every test starts and ends with a disarmed, empty tracer."""
    monkeypatch.delenv(trace.ENV_VAR, raising=False)
    monkeypatch.delenv(trace.ENV_PATH_VAR, raising=False)
    trace.reset()
    yield
    trace.reset()


@pytest.fixture
def armed(obs_reset, monkeypatch):
    monkeypatch.setenv(trace.ENV_VAR, "1")


def _schedule(graph, procs=2, alg="MCP"):
    return get_scheduler(alg).schedule(graph, Machine(procs))


# ----------------------------------------------------------------------
# disarmed: everything is a no-op
# ----------------------------------------------------------------------
class TestDisarmed:
    def test_span_yields_none_and_records_nothing(self):
        with trace.span("sched.schedule", algorithm="MCP") as sp:
            assert sp is None
        assert trace.current() is None

    def test_metrics_record_nothing(self):
        metrics.incr("sim.events", 5)
        metrics.gauge("g", 1.0)
        metrics.observe("h", 2.0)
        assert metrics.counters() == {}
        assert metrics.gauges() == {}
        assert metrics.histograms() == {}

    def test_add_timeline_declines(self):
        assert not trace.add_timeline(("sim", "x", "g"), "x", [])

    def test_flush_writes_nothing(self, tmp_path):
        assert report.flush(str(tmp_path / "trace.json")) is None
        assert list(tmp_path.iterdir()) == []

    def test_simulation_leaves_tracer_empty(self, kwok9):
        simulate(_schedule(kwok9), label="MCP")
        assert trace.current() is None
        assert metrics.counters() == {}


# ----------------------------------------------------------------------
# armed spans: nesting, tracks, validation
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_links_parents(self, armed):
        with trace.span("outer", k="v") as outer:
            with trace.span("inner") as inner:
                pass
        assert outer.parent == -1
        assert inner.parent == outer.sid
        assert inner.track == outer.track == "main"
        assert outer.args == {"k": "v"}
        assert outer.dur_ns >= inner.dur_ns >= 0
        trace.validate_nesting(trace.current().spans)

    def test_validate_rejects_unclosed(self):
        sp = trace.Span(sid=0, parent=-1, name="open", track="main",
                        start_ns=0)
        with pytest.raises(SanitizeError, match="never closed"):
            trace.validate_nesting([sp])

    def test_validate_rejects_child_escaping_parent(self):
        parent = trace.Span(sid=0, parent=-1, name="p", track="main",
                            start_ns=0, dur_ns=100)
        child = trace.Span(sid=1, parent=0, name="c", track="main",
                           start_ns=50, dur_ns=100)
        with pytest.raises(SanitizeError, match="escapes its parent"):
            trace.validate_nesting([parent, child])

    def test_validate_rejects_overlapping_siblings(self):
        a = trace.Span(sid=0, parent=-1, name="a", track="main",
                       start_ns=0, dur_ns=100)
        b = trace.Span(sid=1, parent=-1, name="b", track="main",
                       start_ns=50, dur_ns=100)
        with pytest.raises(SanitizeError, match="overlap"):
            trace.validate_nesting([a, b])

    def test_siblings_on_distinct_tracks_may_overlap(self):
        a = trace.Span(sid=0, parent=-1, name="a", track="cell A",
                       start_ns=0, dur_ns=100)
        b = trace.Span(sid=1, parent=-1, name="b", track="cell B",
                       start_ns=50, dur_ns=100)
        trace.validate_nesting([a, b])  # must not raise

    def test_export_validates_only_under_sanitizer(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        tracer = trace.Tracer()
        tracer.spans = [
            trace.Span(sid=0, parent=-1, name="a", track="main",
                       start_ns=0, dur_ns=100),
            trace.Span(sid=1, parent=-1, name="b", track="main",
                       start_ns=50, dur_ns=100),
        ]
        doc = export.trace_document(tracer)  # sanitizer off: renders
        assert sum(ev["ph"] == "X" for ev in doc["traceEvents"]) == 2
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(SanitizeError, match="overlap"):
            export.trace_document(tracer)


# ----------------------------------------------------------------------
# metric registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counters_split_local_from_deterministic(self, armed):
        metrics.incr("sim.events", 3)
        metrics.incr("sim.events")
        metrics.incr("kernel.sweeps", 7)   # LOCAL_COUNTERS member
        assert metrics.counters() == {"sim.events": 4}
        assert metrics.local_counters() == {"kernel.sweeps": 7}

    def test_gauge_keeps_latest_histogram_folds(self, armed):
        metrics.gauge("g", 1.0)
        metrics.gauge("g", 2.5)
        for v in (1.0, 3.0, 2.0):
            metrics.observe("h", v)
        assert metrics.gauges() == {"g": 2.5}
        assert metrics.histograms() == {
            "h": {"count": 3, "total": 6.0, "min": 1.0, "max": 3.0}}

    def test_absorb_merges_every_section(self, armed):
        metrics.incr("sim.events", 2)
        metrics.observe("h", 5.0)
        metrics.absorb({"counters": {"sim.events": 3, "new": 1},
                        "local": {"kernel.sweeps": 2},
                        "gauges": {"g": 9.0},
                        "hists": {"h": {"count": 1, "total": 1.0,
                                        "min": 1.0, "max": 1.0}}})
        assert metrics.counters() == {"new": 1, "sim.events": 5}
        assert metrics.local_counters() == {"kernel.sweeps": 2}
        assert metrics.gauges() == {"g": 9.0}
        assert metrics.histograms()["h"] == {
            "count": 2, "total": 6.0, "min": 1.0, "max": 5.0}


# ----------------------------------------------------------------------
# collect/absorb: the cross-process merge primitive
# ----------------------------------------------------------------------
class TestCollectAbsorb:
    def test_collect_isolates_and_absorb_retags(self, armed):
        with trace.span("parent"):
            pass
        metrics.incr("sim.events")
        with trace.collect() as payload:
            with trace.span("bench.cell"):
                with trace.span("sched.schedule"):
                    pass
            metrics.incr("sim.events", 10)
        # The scope's data went to the payload, not the process tracer.
        assert [sp.name for sp in trace.current().spans] == ["parent"]
        assert metrics.counters() == {"sim.events": 1}
        assert [sp.name for sp in payload["spans"]] == [
            "bench.cell", "sched.schedule"]

        trace.absorb(payload, track="MCP on g1")
        spans = trace.current().spans
        assert [sp.name for sp in spans] == [
            "parent", "bench.cell", "sched.schedule"]
        cell, sched = spans[1], spans[2]
        assert cell.track == sched.track == "MCP on g1"
        assert sched.parent == cell.sid          # links survived rebasing
        assert len({sp.sid for sp in spans}) == 3
        assert metrics.counters() == {"sim.events": 11}

    def test_disarmed_collect_runs_block_untouched(self):
        with trace.collect() as payload:
            with trace.span("x") as sp:
                assert sp is None
        assert payload == {}


# ----------------------------------------------------------------------
# engine integration: counters and simulated-time timelines
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_sim_counter_matches_result(self, armed, kwok9):
        schedule = _schedule(kwok9, alg="HLFET")
        res = simulate(schedule, label="HLFET")
        counters = metrics.counters()
        assert counters["sim.events"] == res.num_events
        assert counters["sched.heap_pops"] == kwok9.num_nodes
        assert counters["kernel.profiles"] > 0

    def test_timeline_recorded_once_per_key(self, armed, kwok9):
        schedule = _schedule(kwok9)
        for _ in range(3):   # a Monte-Carlo cell re-executes one schedule
            simulate(schedule, label="MCP")
        tracer = trace.current()
        assert len(tracer.timelines) == 1
        tl = tracer.timelines[0]
        assert tl["key"] == ("sim", "MCP", kwok9.name)
        assert len(tl["rows"]) == kwok9.num_nodes
        # Distinct label => distinct timeline.
        simulate(schedule, label="HLFET")
        assert len(tracer.timelines) == 2

    def test_online_replans_are_attributed(self, armed, kwok9):
        res = simulate_online(kwok9, Machine(2), "online:mcp,imode=blind",
                              perturb=PerturbationModel.uniform(0.5),
                              rng=7, label="online:mcp")
        counters = metrics.counters()
        assert counters["online.events"] == res.num_events
        assert counters["online.replans"] == res.num_replans
        assert len(res.replan_log) == res.num_replans
        causes = {cause for _, cause, _ in res.replan_log}
        assert causes <= {"task_started", "task_finished",
                          "message_arrived", "worker_idle"}
        moved = sum(m for _, _, m in res.replan_log)
        assert counters["online.migrations"] == moved
        (tl,) = [t for t in trace.current().timelines
                 if t["key"][0] == "online"]
        assert tl["key"] == ("online", "online:mcp", kwok9.name)
        # Every replan renders as an instant on the policy lane.
        assert len(tl["events"]) == res.num_replans
        assert all(ev[0] == -1 and ev[2] == "replan" for ev in tl["events"])


# ----------------------------------------------------------------------
# Perfetto export + manifest
# ----------------------------------------------------------------------
class TestExportAndManifest:
    def test_document_structure(self, armed, kwok9, diamond4):
        simulate(_schedule(kwok9), label="MCP")
        simulate(_schedule(diamond4), label="MCP")
        manifest = report.build_manifest()
        doc = export.trace_document(trace.current(), manifest=manifest)
        events = doc["traceEvents"]
        assert doc["reproManifest"] is manifest
        # One wall-clock process plus one per timeline.
        assert sorted({ev["pid"] for ev in events}) == [1, 2, 3]
        slices = [ev for ev in events if ev["ph"] == "X"]
        tasks = [ev for ev in slices if ev["cat"] == "task"]
        assert len(tasks) == kwok9.num_nodes + diamond4.num_nodes
        names = {ev["name"] for ev in events if ev["ph"] == "M"}
        assert "process_name" in names and "thread_name" in names

    def test_manifest_sections_and_self_time(self, armed, kwok9):
        simulate(_schedule(kwok9), label="MCP")
        manifest = report.build_manifest()
        assert manifest["schema"] == report.MANIFEST_SCHEMA
        assert set(manifest["counters"]) >= {"sim.events",
                                             "kernel.profiles"}
        assert all(name in metrics.LOCAL_COUNTERS
                   for name in manifest["local"])
        run = manifest["spans"]["sim.run"]
        assert run["count"] == 1
        assert 0 <= run["self_ms"] <= run["total_ms"]
        assert ["sim", "MCP", kwok9.name] in manifest["timelines"]

    def test_flush_round_trips_through_files(self, armed, kwok9,
                                             monkeypatch, tmp_path):
        monkeypatch.setenv(trace.ENV_PATH_VAR,
                           str(tmp_path / "out" / "trace.json"))
        simulate(_schedule(kwok9), label="MCP")
        trace_path, manifest_path = report.flush()
        assert manifest_path == str(tmp_path / "out" / "trace.manifest.json")
        doc = json.loads(Path(trace_path).read_text())
        manifest = json.loads(Path(manifest_path).read_text())
        assert doc["reproManifest"]["counters"] == manifest["counters"]
        assert manifest["counters"]["sim.events"] > 0


# ----------------------------------------------------------------------
# determinism across --jobs (the tentpole contract)
# ----------------------------------------------------------------------
class TestJobsDeterminism:
    def _manifest_for(self, jobs, graphs):
        from repro.bench.runner import run_grid

        run_grid(["MCP", "HLFET"], graphs, jobs=jobs)
        manifest = report.build_manifest()
        span_counts = {name: agg["count"]
                       for name, agg in manifest["spans"].items()}
        return manifest, span_counts

    def test_counters_and_spans_match_serial(self, armed, chain4,
                                             diamond4, fork3):
        graphs = [chain4, diamond4, fork3]
        serial, serial_spans = self._manifest_for(1, graphs)
        trace.reset()
        merged, merged_spans = self._manifest_for(4, graphs)
        assert merged["counters"] == serial["counters"]
        assert merged["timelines"] == serial["timelines"]
        assert merged_spans == serial_spans
        # Worker spans were retagged onto per-cell lanes canonically.
        tracks = {sp.track for sp in trace.current().spans
                  if sp.name == "bench.cell"}
        assert tracks == {f"{alg} on {g.name}"
                          for alg in ("MCP", "HLFET") for g in graphs}

    def test_store_cache_hits_is_local_only(self, armed, chain4,
                                            diamond4, tmp_path):
        from repro.bench.runner import run_grid
        from repro.bench.store import ResultStore

        graphs = [chain4, diamond4]
        store = ResultStore(str(tmp_path / "store"))
        run_grid(["MCP"], graphs, store=store, resume=True)
        first = dict(metrics.counters())
        assert metrics.local_counters().get("store.cache_hits", 0) == 0
        run_grid(["MCP"], graphs, store=store, resume=True)
        # Cached rows recompute nothing: deterministic counters frozen.
        assert metrics.counters() == first
        assert metrics.local_counters()["store.cache_hits"] == len(graphs)


# ----------------------------------------------------------------------
# gantt adapter (results render like schedules)
# ----------------------------------------------------------------------
class TestGanttAdapter:
    def test_rows_from_schedule_and_results(self, kwok9):
        from repro.io.gantt import gantt, timeline_rows

        schedule = _schedule(kwok9)
        rows = timeline_rows(schedule)
        assert len(rows) == kwok9.num_nodes
        assert {r[0] for r in rows} <= set(range(schedule.num_procs))
        sim_res = simulate(schedule)
        assert timeline_rows(sim_res) == rows  # zero-noise exact replay
        online_res = simulate_online(kwok9, Machine(2), "online:mcp")
        assert len(timeline_rows(online_res)) == kwok9.num_nodes
        for obj in (schedule, sim_res, online_res):
            assert "P0" in gantt(obj)

    def test_rejects_rowless_objects(self):
        from repro.io.gantt import timeline_rows

        with pytest.raises(TypeError, match="expected a Schedule"):
            timeline_rows({"not": "a schedule"})


# ----------------------------------------------------------------------
# CLI: --trace flag and the trace/profile verbs
# ----------------------------------------------------------------------
class TestCliVerbs:
    def _traced_run(self, tmp_path, capsys):
        from repro.bench.cli import main

        spec = {"name": "obs-cli",
                "graphs": {"generator": "rgnos", "sizes": [12],
                           "ccrs": [1.0], "parallelisms": [2], "seed": 5},
                "algorithms": ["MCP"],
                "machine": {"bnp_procs": 2},
                "metrics": ["length"],
                "simulate": {"trials": 2}}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        trace_path = tmp_path / "trace.json"
        assert main([f"--trace={trace_path}", "sim", "run",
                     str(spec_path), "--no-store"]) == 0
        out = capsys.readouterr().out
        assert f"[trace written to {trace_path}" in out
        return trace_path

    def test_trace_flag_writes_and_verbs_read_back(self, tmp_path,
                                                   capsys):
        from repro.bench.cli import main

        trace_path = self._traced_run(tmp_path, capsys)
        manifest_path = tmp_path / "trace.manifest.json"
        assert trace_path.exists() and manifest_path.exists()
        # The flush reset the in-process tracer for the next main(),
        # and main() disarmed the environment again on return.
        fresh = trace.current()
        assert fresh is None or not fresh.spans

        assert main(["trace", "show", str(trace_path)]) == 0
        shown = capsys.readouterr().out
        assert "sim.events" in shown and "counters:" in shown

        assert main(["profile", str(manifest_path), "--top", "3"]) == 0
        table = capsys.readouterr().out
        assert "self ms" in table and "bench.cell" in table

        out_path = tmp_path / "export.json"
        assert main(["trace", "export", str(trace_path),
                     "--out", str(out_path)]) == 0
        exported = json.loads(out_path.read_text())
        assert "reproManifest" not in exported
        assert any(ev["ph"] == "X" for ev in exported["traceEvents"])

    def test_trace_show_rejects_non_trace_json(self, tmp_path, capsys):
        from repro.bench.cli import main

        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"benchmarks": {}}')
        assert main(["trace", "show", str(bogus)]) == 2
        assert "trace" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the counter gate in benchmarks/check_regression.py
# ----------------------------------------------------------------------
def _load_gate():
    path = (Path(__file__).resolve().parent.parent
            / "benchmarks" / "check_regression.py")
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRegressionCounterGate:
    @pytest.fixture(scope="class")
    def gate(self):
        return _load_gate()

    def test_new_counter_reported_not_failing(self, gate, capsys):
        failures = gate.check_counters({"a": 1, "b": 2}, {"a": 1})
        assert failures == []
        assert "NEW  counter b" in capsys.readouterr().out

    def test_drift_and_loss_fail_by_name(self, gate, capsys):
        failures = gate.check_counters({"a": 2}, {"a": 1, "b": 5})
        assert [name for name, _ in failures] == ["a", "b"]
        out = capsys.readouterr().out
        assert "FAIL counter a: 2 vs baseline 1" in out
        assert "GONE counter b" in out

    def test_load_counters_unwraps_embedded_manifest(self, gate,
                                                     tmp_path):
        doc = tmp_path / "trace.json"
        doc.write_text(json.dumps({
            "traceEvents": [],
            "reproManifest": {"counters": {"sim.events": 3}}}))
        assert gate.load_counters(str(doc)) == {"sim.events": 3}

    def test_main_gates_on_manifest(self, gate, tmp_path, capsys):
        current = tmp_path / "current.json"
        current.write_text(json.dumps({"benchmarks": {"case": 1.0}}))
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "benchmarks": {"case": 1.0},
            "counters": {"sim.events": 10}}))
        manifest = tmp_path / "trace.manifest.json"
        manifest.write_text(json.dumps({"schema": 1,
                                        "counters": {"sim.events": 10},
                                        "local": {"kernel.sweeps": 99}}))
        assert gate.main([str(current), "--baseline", str(baseline),
                          "--manifest", str(manifest)]) == 0
        assert "all 1 counters exact" in capsys.readouterr().out

        manifest.write_text(json.dumps({"schema": 1,
                                        "counters": {"sim.events": 11}}))
        assert gate.main([str(current), "--baseline", str(baseline),
                          "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert "drifted from the baseline: sim.events" in err

    def test_update_records_counter_block(self, gate, tmp_path, capsys):
        current = tmp_path / "current.json"
        current.write_text(json.dumps({"benchmarks": {"case": 1.0}}))
        manifest = tmp_path / "trace.manifest.json"
        manifest.write_text(json.dumps({"schema": 1,
                                        "counters": {"sim.events": 4}}))
        baseline = tmp_path / "baseline.json"
        assert gate.main([str(current), "--baseline", str(baseline),
                          "--update", "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        written = json.loads(baseline.read_text())
        assert written["counters"] == {"sim.events": 4}
