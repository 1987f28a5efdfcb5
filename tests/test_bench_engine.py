"""Tests for the parallel, persisted benchmark engine.

Covers the engine's three contracts: parallel execution returns rows
identical to the serial path (same order, same values, runtimes aside),
the ResultStore round-trips and merges its JSON/CSV persistence, and
``resume`` reuses cached rows instead of re-scheduling.
"""

import json

import pytest

from repro.bench import parallel as parallel_mod
from repro.bench import runner as runner_mod
from repro.bench.parallel import default_jobs, grid_cells
from repro.bench.runner import BenchConfig, run_grid, run_one
from repro.bench.store import (
    RESULT_FIELDS,
    SCHEMA_VERSION,
    OptimaStore,
    ResultStore,
    result_from_dict,
    result_to_dict,
)
from repro.bench.suites import psg_suite
from repro.generators.psg import kwok_ahmad_9
from repro.metrics.measures import RunResult
from repro.network.topology import Topology

NAMES = ["MCP", "DCP", "HLFET", "MH"]  # one per class + one extra BNP


def _graphs():
    return psg_suite()[:3]


def _comparable(rows):
    """Everything except the measured runtime, which varies per run."""
    return [
        (r.algorithm, r.klass, r.graph, r.num_nodes, r.length, r.nsl,
         r.procs_used, r.optimal)
        for r in rows
    ]


# ----------------------------------------------------------------------
# serial vs parallel
# ----------------------------------------------------------------------
class TestParallelEquality:
    def test_rows_identical_to_serial(self):
        graphs = _graphs()
        serial = run_grid(NAMES, graphs)
        parallel = run_grid(NAMES, graphs, jobs=4)
        assert _comparable(serial) == _comparable(parallel)

    def test_serial_order_is_graphs_outer(self):
        graphs = _graphs()
        rows = run_grid(NAMES, graphs, jobs=2)
        expected = [(g.name, a) for g in graphs for a in NAMES]
        assert [(r.graph, r.algorithm) for r in rows] == expected

    def test_optima_populate_rows_in_parallel(self):
        g = kwok_ahmad_9()
        rows = run_grid(["MCP", "DCP"], [g], jobs=2, optima={g.name: 15.0})
        assert all(r.optimal == 15.0 for r in rows)
        assert all(r.degradation is not None for r in rows)

    def test_jobs_zero_means_auto(self):
        assert default_jobs() >= 1
        rows = run_grid(["MCP"], [kwok_ahmad_9()], jobs=0)
        assert len(rows) == 1

    def test_grid_cells_order(self):
        graphs = _graphs()
        cells = grid_cells(NAMES, graphs, optima={graphs[0].name: 9.0})
        assert [(g.name, n) for n, g, _ in cells] == [
            (g.name, a) for g in graphs for a in NAMES
        ]
        assert cells[0][2] == 9.0 and cells[len(NAMES)][2] is None


# ----------------------------------------------------------------------
# ResultStore persistence
# ----------------------------------------------------------------------
def _pid_of(x):
    """Pool worker: which process ran this item (module-level: pickles)."""
    import os

    return os.getpid(), x


class TestPoolDispatch:
    """One dispatch rule: ``jobs <= 1`` runs in-process, any other pool
    runs every batch on its workers, a batch of one included."""

    def test_batch_of_one_runs_in_a_worker(self):
        import os

        with parallel_mod.WorkerPool(2) as pool:
            [(pid, item)] = pool.run_batch(_pid_of, ["x"])
        assert item == "x" and pid != os.getpid()

    def test_one_job_pool_stays_in_process(self):
        import os

        pool = parallel_mod.WorkerPool(1)
        assert pool.run_batch(_pid_of, [1, 2]) == [(os.getpid(), 1),
                                                  (os.getpid(), 2)]
        assert not pool.alive  # nothing was forked

    def test_one_cell_grid_stays_in_process(self):
        import os

        rows = parallel_mod.execute_cells([("a", "g")], [7], _pid_of,
                                          "fp", jobs=2)
        assert rows == [(os.getpid(), 7)]


class TestResultStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        rows = run_grid(NAMES, _graphs(), store=store)
        assert len(store) == len(rows)

        reloaded = ResultStore(str(tmp_path))
        assert len(reloaded) == len(rows)
        fp = BenchConfig().fingerprint()
        for r in rows:
            cached = reloaded.get(r.algorithm, r.graph, fp)
            assert cached == r  # runtime_s included: persisted verbatim

    def test_json_schema(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(run_one("MCP", kwok_ahmad_9()), "fp")
        store.save()
        doc = json.loads((tmp_path / "results.json").read_text())
        assert doc["schema"] == SCHEMA_VERSION
        assert len(doc["rows"]) == 1
        assert set(RESULT_FIELDS) <= set(doc["rows"][0])

    def test_csv_export(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(run_one("MCP", kwok_ahmad_9()), "fp")
        store.save()
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == "fingerprint," + ",".join(RESULT_FIELDS)
        assert lines[1].startswith("fp,MCP,")

    def test_merge_incoming_wins(self, tmp_path):
        a = ResultStore(str(tmp_path / "a"))
        b = ResultStore(str(tmp_path / "b"))
        row = run_one("MCP", kwok_ahmad_9())
        a.put(row, "fp")
        b.put(row, "fp")
        b.put(run_one("DCP", kwok_ahmad_9()), "fp")
        assert a.merge(b) == 2
        assert len(a) == 2
        assert a.get("DCP", row.graph, "fp") is not None

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"schema": 999, "rows": []}))
        with pytest.raises(ValueError, match="schema"):
            ResultStore(str(tmp_path))

    def test_row_dict_round_trip(self):
        row = run_one("MCP", kwok_ahmad_9(), optimal=15.0)
        data = result_to_dict(row)
        data["future_field"] = "ignored"
        assert result_from_dict(data) == row

    def test_miss_on_other_fingerprint(self, tmp_path):
        store = ResultStore(str(tmp_path))
        row = run_one("MCP", kwok_ahmad_9())
        store.put(row, "fp-a")
        assert store.get("MCP", row.graph, "fp-b") is None


# ----------------------------------------------------------------------
# resume
# ----------------------------------------------------------------------
class TestResume:
    def test_resume_skips_cached_cells(self, tmp_path, monkeypatch):
        graphs = _graphs()
        store = ResultStore(str(tmp_path))
        first = run_grid(NAMES, graphs, store=store)

        def boom(*args, **kwargs):
            raise AssertionError("cell was re-scheduled despite resume")

        monkeypatch.setattr(runner_mod, "run_one", boom)
        second = run_grid(NAMES, graphs, store=store, resume=True)
        # Cached rows come back verbatim, measured runtimes included.
        assert second == first

    def test_no_resume_recomputes(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        run_grid(["MCP"], [kwok_ahmad_9()], store=store)

        def boom(*args, **kwargs):
            raise AssertionError("recompute expected")

        monkeypatch.setattr(runner_mod, "run_one", boom)
        with pytest.raises(AssertionError, match="recompute expected"):
            run_grid(["MCP"], [kwok_ahmad_9()], store=store)

    def test_resume_runs_only_missing_cells(self, tmp_path):
        g = kwok_ahmad_9()
        store = ResultStore(str(tmp_path))
        run_grid(["MCP"], [g], store=store)
        calls = []
        real = runner_mod.run_one

        def counting(name, graph, **kwargs):
            calls.append(name)
            return real(name, graph, **kwargs)

        try:
            runner_mod.run_one = counting
            rows = run_grid(["MCP", "DCP"], [g], store=store, resume=True)
        finally:
            runner_mod.run_one = real
        assert calls == ["DCP"]
        assert [r.algorithm for r in rows] == ["MCP", "DCP"]
        assert len(store) == 2  # the new cell was persisted too

    def test_interrupted_grid_checkpoints_completed_cells(self, tmp_path,
                                                          monkeypatch):
        """An exception mid-grid must not lose the finished cells: the
        next resume run picks up from the checkpoint, not from cell 0."""
        graphs = _graphs()
        store = ResultStore(str(tmp_path))
        monkeypatch.setattr(parallel_mod, "SAVE_EVERY", 1)
        real = runner_mod.run_one
        calls = []

        def flaky(name, graph, **kwargs):
            if len(calls) == 5:
                raise KeyboardInterrupt
            calls.append(name)
            return real(name, graph, **kwargs)

        monkeypatch.setattr(runner_mod, "run_one", flaky)
        with pytest.raises(KeyboardInterrupt):
            run_grid(NAMES, graphs, store=store)
        assert len(ResultStore(str(tmp_path))) == 5  # persisted on disk

        monkeypatch.setattr(runner_mod, "run_one", real)
        rows = run_grid(NAMES, graphs, store=store, resume=True)
        assert len(rows) == len(NAMES) * len(graphs)

    def test_cached_rows_rebased_onto_new_optima(self, tmp_path):
        g = kwok_ahmad_9()
        store = ResultStore(str(tmp_path))
        run_grid(["MCP"], [g], store=store)
        rows = run_grid(["MCP"], [g], store=store, resume=True,
                        optima={g.name: 15.0})
        assert rows[0].optimal == 15.0
        assert rows[0].degradation is not None

    def test_different_config_is_a_miss(self, tmp_path):
        g = kwok_ahmad_9()
        store = ResultStore(str(tmp_path))
        run_grid(["MCP"], [g], store=store)
        bounded = BenchConfig(bnp_procs=2)
        rows = run_grid(["MCP"], [g], config=bounded, store=store,
                        resume=True)
        assert rows[0].procs_used <= 2
        assert len(store) == 2


# ----------------------------------------------------------------------
# optima sidecar
# ----------------------------------------------------------------------
class TestOptimaStore:
    def test_round_trip(self, tmp_path):
        cache = OptimaStore(str(tmp_path))
        cache.put("g1", 1000, 15.0, True)
        cache.save()
        reloaded = OptimaStore(str(tmp_path))
        assert reloaded.get("g1", 1000) == (15.0, True)
        assert reloaded.get("g1", 2000) is None  # budget is part of the key

    def test_rgbos_optima_resume_skips_search(self, tmp_path, monkeypatch):
        from repro.bench import tables as tables_mod

        g = kwok_ahmad_9()
        cache = OptimaStore(str(tmp_path))
        monkeypatch.setattr(tables_mod, "_OPTIMA_CACHE", {})
        first = tables_mod.rgbos_optima([g], budget=50_000, cache=cache)
        assert len(cache) == 1

        def boom(*args, **kwargs):
            raise AssertionError("B&B re-ran despite cached optimum")

        monkeypatch.setattr(tables_mod, "_OPTIMA_CACHE", {})
        monkeypatch.setattr(tables_mod, "solve_optimal", boom)
        resumed = tables_mod.rgbos_optima(
            [g], budget=50_000, cache=OptimaStore(str(tmp_path)), resume=True
        )
        assert resumed == first

    def test_in_process_hits_still_persisted(self, tmp_path, monkeypatch):
        """A store attached *after* the optima were computed in-process
        must still get the sidecar written."""
        from repro.bench import tables as tables_mod

        g = kwok_ahmad_9()
        monkeypatch.setattr(tables_mod, "_OPTIMA_CACHE", {})
        tables_mod.rgbos_optima([g], budget=50_000)  # no cache: memory only

        cache = OptimaStore(str(tmp_path))
        tables_mod.rgbos_optima([g], budget=50_000, cache=cache)
        assert OptimaStore(str(tmp_path)).get(g.name, 50_000) is not None


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_default_stable(self):
        assert BenchConfig().fingerprint() == BenchConfig().fingerprint()

    def test_distinguishes_machine_models(self):
        fps = {
            BenchConfig().fingerprint(),
            BenchConfig(bnp_procs=4).fingerprint(),
            BenchConfig(apn_topology=Topology.ring(4)).fingerprint(),
            BenchConfig(validate_schedules=False).fingerprint(),
        }
        assert len(fps) == 4

    def test_distinguishes_same_shape_custom_topologies(self):
        """Same default name, same processor and link counts, different
        structure — the link-set hash must keep the fingerprints apart."""
        a = Topology(4, [(0, 1), (1, 2), (2, 3)])        # chain
        b = Topology(4, [(0, 1), (0, 2), (0, 3)])        # star
        fp_a = BenchConfig(apn_topology=a).fingerprint()
        fp_b = BenchConfig(apn_topology=b).fingerprint()
        assert fp_a != fp_b

    def test_default_fingerprint_bytes_are_pinned(self):
        # Persisted stores key their rows on this exact string.
        assert BenchConfig().fingerprint() == (
            "bnp=v;apn=hypercube-3:8p:0c16dfee5aaa;validate=1")


class TestGetSuite:
    def test_names_dispatch(self):
        from repro.bench.suites import get_suite, suite_names

        for name in suite_names():
            graphs = get_suite(name, full=False)
            assert graphs and all(hasattr(g, "num_nodes") for g in graphs)

    def test_runs_through_engine(self):
        from repro.bench.suites import get_suite

        rows = run_grid(["MCP"], get_suite("psg")[:2], jobs=2)
        assert len(rows) == 2

    def test_unknown_suite(self):
        from repro.bench.suites import get_suite

        with pytest.raises(ValueError, match="unknown suite"):
            get_suite("nope")
