"""Tests for the adversarial instance-search subsystem.

Covers the objective scores, the Pareto frontier algebra, the search
driver's store/resume contract (the PISA acceptance bar: a 50-node BNP
pair must reach a makespan ratio >= 1.15, reproducibly, and replay
from the store without recomputation), and the scenario-layer wiring.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.adversarial import (
    FrontierPoint,
    Objective,
    ParetoFrontier,
    SearchConfig,
    SearchRow,
    adv_store,
    run_search,
)
from repro.generators.random_graphs import rgnos_graph


@pytest.fixture(scope="module")
def seed50():
    return rgnos_graph(50, 1.0, 3, seed=131)


@pytest.fixture(scope="module")
def seed20():
    return rgnos_graph(20, 1.0, 3, seed=19)


# ----------------------------------------------------------------------
# objectives
# ----------------------------------------------------------------------
class TestObjective:
    def test_ratio_matches_direct_schedules(self, seed20):
        from repro import Machine, get_scheduler

        obj = Objective(alg_a="LAST", alg_b="MCP")
        val = obj.evaluate(seed20)
        a = get_scheduler("LAST").schedule(
            seed20, Machine.unbounded(seed20)).length
        b = get_scheduler("MCP").schedule(
            seed20, Machine.unbounded(seed20)).length
        assert val.length_a == a and val.length_b == b
        assert val.score == pytest.approx(a / b)

    def test_slack_gap_is_difference_of_normalized_slacks(self, seed20):
        from repro import Machine, get_scheduler
        from repro.sim import schedule_slack

        obj = Objective(alg_a="LAST", alg_b="MCP", kind="slack")
        val = obj.evaluate(seed20)
        sa = schedule_slack(get_scheduler("LAST").schedule(
            seed20, Machine.unbounded(seed20)))
        sb = schedule_slack(get_scheduler("MCP").schedule(
            seed20, Machine.unbounded(seed20)))
        assert val.score == pytest.approx(sb - sa)

    def test_sim_degradation_reproducible_and_above_one(self, seed20):
        obj = Objective(alg_a="MCP", alg_b="HLFET", kind="sim",
                        trials=10, noise=0.3, seed=3)
        first = obj.evaluate(seed20)
        again = obj.evaluate(seed20)
        assert first == again  # noise stream derived, not ambient
        assert first.score > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            Objective(alg_a="MCP", alg_b="HLFET", kind="nope")

    def test_fingerprint_separates_kinds_and_pairs(self):
        fps = {
            Objective(alg_a="MCP", alg_b="HLFET").fingerprint(),
            Objective(alg_a="HLFET", alg_b="MCP").fingerprint(),
            Objective(alg_a="MCP", alg_b="HLFET",
                      kind="slack").fingerprint(),
            Objective(alg_a="MCP", alg_b="HLFET", kind="sim").fingerprint(),
        }
        assert len(fps) == 4


# ----------------------------------------------------------------------
# frontier
# ----------------------------------------------------------------------
def _point(pair="A/B", v=10, score=1.0, instance="g"):
    return FrontierPoint(pair=pair, num_nodes=v, score=score,
                         instance=instance, chain="chain-00",
                         objective="ratio", stg="")


class TestParetoFrontier:
    def test_dominated_points_are_rejected_and_evicted(self):
        f = ParetoFrontier()
        assert f.add(_point(v=20, score=1.2, instance="big"))
        # Smaller and worse: joins the front (trade-off point).
        assert f.add(_point(v=10, score=1.1, instance="small"))
        # Dominated by "big": larger and no better.
        assert not f.add(_point(v=30, score=1.2, instance="dom"))
        # Dominates both: evicts them.
        assert f.add(_point(v=10, score=1.5, instance="best"))
        assert [p.instance for p in f.front("A/B")] == ["best"]

    def test_domination_never_crosses_objectives(self):
        f = ParetoFrontier()
        assert f.add(_point(v=20, score=1.4, instance="ratio-pt"))
        # A slack-gap score of 0.05 is incomparable with a ratio of
        # 1.4 — it must join the front, not be evicted by it.
        slack = FrontierPoint(pair="A/B", num_nodes=30, score=0.05,
                              instance="slack-pt", chain="chain-01",
                              objective="slack", stg="")
        assert f.add(slack)
        assert {p.instance for p in f.front("A/B")} == \
               {"ratio-pt", "slack-pt"}

    def test_update_is_idempotent(self):
        f = ParetoFrontier()
        row = SearchRow(algorithm="A/B", graph="chain-00",
                        objective="ratio", score=1.3, start_score=1.0,
                        length_a=13.0, length_b=10.0, num_nodes=9,
                        num_edges=12, steps=5, accepted=3, best_step=4,
                        seed=0, instance="inst", lineage=["add-edge"],
                        stg="")
        assert f.update([row]) == 1
        assert f.update([row]) == 0
        assert len(f) == 1

    def test_round_trips_through_json(self, tmp_path):
        path = str(tmp_path / "frontier.json")
        f = ParetoFrontier(path)
        f.add(_point(v=10, score=1.4, instance="x"))
        f.add(_point(pair="C/D", v=8, score=1.1, instance="y"))
        f.save()
        g = ParetoFrontier(path)
        assert g.pairs() == ["A/B", "C/D"]
        assert g.front("A/B")[0].score == 1.4

    def test_corrupt_file_raises_value_error(self, tmp_path):
        path = tmp_path / "frontier.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            ParetoFrontier(str(path))


# ----------------------------------------------------------------------
# the search driver
# ----------------------------------------------------------------------
class TestSearch:
    def test_acceptance_bar_50_node_bnp_pair(self, seed50, tmp_path):
        """The PR's acceptance criterion, end to end.

        A 50-node BNP pair reaches makespan ratio >= 1.15, the run is
        reproducible under its fixed seed, and ``resume`` replays the
        store without recomputing any chain.
        """
        cfg = SearchConfig(pair=("LAST", "MCP"), steps=150, chains=4,
                           temperature=0.02, cooling=0.97, seed=5)
        store = adv_store(str(tmp_path))
        rows = run_search(cfg, [seed50], jobs=4, store=store)
        assert max(r.score for r in rows) >= 1.15
        # Reproducible: a fresh run (no store) replays bit-identically.
        again = run_search(cfg, [seed50])
        assert [(r.score, r.lineage, r.stg) for r in rows] == \
               [(r.score, r.lineage, r.stg) for r in again]
        # Resume: cached chains only — recomputation would blow up.
        import repro.adversarial.search as search_mod

        def boom(args):  # pragma: no cover - would mean a cache miss
            raise AssertionError("resume recomputed a cached chain")

        original = search_mod._run_chain
        search_mod._run_chain = boom
        try:
            replayed = run_search(cfg, [seed50],
                                  store=adv_store(str(tmp_path)),
                                  resume=True)
        finally:
            search_mod._run_chain = original
        assert [(r.score, r.lineage) for r in replayed] == \
               [(r.score, r.lineage) for r in rows]

    def test_rows_persist_and_reload_with_lineage(self, seed20, tmp_path):
        cfg = SearchConfig(pair=("LAST", "MCP"), steps=20, chains=2,
                           temperature=0.0, seed=9)
        store = adv_store(str(tmp_path))
        rows = run_search(cfg, [seed20], store=store)
        reloaded = adv_store(str(tmp_path)).rows()
        assert [(r.graph, r.score, r.lineage) for r in reloaded] == \
               [(r.graph, r.score, r.lineage) for r in rows]
        assert all(isinstance(r.lineage, list) for r in reloaded)
        doc = json.load(open(os.path.join(str(tmp_path), "adv.json")))
        assert doc["rows"][0]["algorithm"] == "LAST/MCP"

    def test_best_instance_reloads_and_reproduces_score(self, seed20):
        from repro.io.stg import loads_stg
        from repro import Machine, get_scheduler

        cfg = SearchConfig(pair=("LAST", "MCP"), steps=25, chains=1,
                           temperature=0.0, seed=9)
        row = run_search(cfg, [seed20])[0]
        graph = loads_stg(row.stg, name=row.instance)
        assert graph.num_nodes == row.num_nodes
        a = get_scheduler("LAST").schedule(
            graph, Machine.unbounded(graph)).length
        b = get_scheduler("MCP").schedule(
            graph, Machine.unbounded(graph)).length
        assert a / b == pytest.approx(row.score)

    def test_sim_objective_score_reproduces_from_exported_instance(
            self, seed20):
        """The sim noise stream is keyed by graph name, so the
        persisted score must be the one evaluated under the instance's
        final name — re-scoring the exported graph reproduces it."""
        from repro.bench.runner import BenchConfig
        from repro.io.stg import loads_stg

        cfg = SearchConfig(pair=("MCP", "HLFET"), objective="sim",
                           steps=10, chains=1, temperature=0.0,
                           seed=4, trials=10, noise=0.3)
        row = run_search(cfg, [seed20])[0]
        graph = loads_stg(row.stg, name=row.instance)
        rescored = cfg.objective_for(BenchConfig()).evaluate(graph)
        assert rescored.score == pytest.approx(row.score)

    def test_resume_never_crosses_seed_populations(self, seed20, tmp_path):
        """Different starting graphs must not replay each other's chains.

        The chain keys (pair, chain-NN) are identical across seed
        populations, so the seeds' identity has to live in the search
        fingerprint — e.g. two sweep points of a ``graphs`` axis
        sharing one store.
        """
        other = rgnos_graph(30, 1.0, 3, seed=77)
        cfg = SearchConfig(pair=("LAST", "MCP"), steps=10, chains=1,
                           temperature=0.0, seed=2)
        store = adv_store(str(tmp_path))
        first = run_search(cfg, [seed20], store=store, resume=True)
        second = run_search(cfg, [other], store=store, resume=True)
        assert first[0].stg != second[0].stg  # computed, not replayed
        # Both populations stay resumable side by side in one store.
        assert len(adv_store(str(tmp_path))) == 2

    def test_chains_cycle_over_multiple_seed_graphs(self, seed20):
        other = rgnos_graph(16, 1.0, 2, seed=23)
        cfg = SearchConfig(pair=("LAST", "MCP"), steps=5, chains=3,
                           temperature=0.0, seed=1)
        rows = run_search(cfg, [seed20, other])
        # chain-02 wraps back to the first seed graph.
        assert rows[0].graph == "chain-00" and rows[2].graph == "chain-02"

    def test_needs_at_least_one_seed(self):
        cfg = SearchConfig(pair=("LAST", "MCP"))
        with pytest.raises(ValueError, match="seed graph"):
            run_search(cfg, [])

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            SearchConfig(pair=("LAST", "MCP"), steps=0)
        with pytest.raises(ValueError, match="temperature"):
            SearchConfig(pair=("LAST", "MCP"), temperature=-1.0)
        with pytest.raises(ValueError, match="cooling"):
            SearchConfig(pair=("LAST", "MCP"), cooling=0.0)


# ----------------------------------------------------------------------
# scenario integration
# ----------------------------------------------------------------------
class TestScenarioIntegration:
    def test_spec_block_validates_and_round_trips(self):
        from repro.scenarios import validate_spec

        spec = validate_spec({
            "name": "adv-test",
            "graphs": {"generator": "rgnos", "sizes": [16], "ccrs": [1.0],
                       "parallelisms": [2], "seed": 3},
            "algorithms": ["LAST", "MCP"],
            "adversarial": {"pair": ["last", "mcp"], "steps": 5,
                            "chains": 1, "temperature": 0},
        })
        assert spec.adversarial["pair"] == ["LAST", "MCP"]
        assert validate_spec(spec.to_dict()) == spec

    @pytest.mark.parametrize("block,message", [
        ({"pair": ["LAST"]}, "exactly two"),
        ({"pair": ["LAST", "NOPE"]}, "unknown algorithm"),
        ({"pair": ["LAST", "DSC"]}, "one class"),
        ({"pair": ["LAST", "MCP"], "objective": "x"}, "unknown objective"),
        ({"pair": ["LAST", "MCP"], "temperature": -1}, "temperature"),
        ({"pair": ["LAST", "MCP"], "ops": ["zap"]}, "unknown mutation"),
        ({"pair": ["LAST", "MCP"], "bogus": 1}, "unknown keys"),
    ])
    def test_bad_blocks_rejected(self, block, message):
        from repro.scenarios import SpecError, validate_spec

        with pytest.raises(SpecError, match=message):
            validate_spec({
                "name": "bad",
                "graphs": {"generator": "rgnos", "sizes": [16],
                           "ccrs": [1.0], "parallelisms": [2]},
                "algorithms": ["LAST", "MCP"],
                "adversarial": block,
            })

    def test_registry_scenarios_compile_to_search_configs(self):
        from repro.scenarios import compile_scenario, get_scenario

        for name in ("adversarial-bnp", "adversarial-apn"):
            compiled = compile_scenario(get_scenario(name))
            assert compiled.variants[0].adv is not None
            assert compiled.variants[0].adv.chains >= 1

    def test_run_adv_scenario_produces_tables(self, tmp_path):
        from repro.scenarios import (
            adv_tables,
            compile_scenario,
            run_scenario,
            validate_spec,
        )

        spec = validate_spec({
            "name": "adv-mini",
            "graphs": {"generator": "rgnos", "sizes": [16], "ccrs": [1.0],
                       "parallelisms": [2], "seed": 3},
            "algorithms": ["LAST", "MCP"],
            "adversarial": {"pair": ["LAST", "MCP"], "steps": 8,
                            "chains": 2, "temperature": 0, "seed": 1},
        })
        result = run_scenario(compile_scenario(spec), engine="search",
                              store=adv_store(str(tmp_path)))
        detail, front = adv_tables(result)
        assert len(detail.rows) == 2
        assert len(front.rows) >= 1
        assert detail.rows[0][1] == "LAST/MCP"

    def test_scenario_without_block_fails_cleanly(self):
        from repro.scenarios import (
            SpecError,
            compile_scenario,
            get_scenario,
            run_scenario,
        )

        compiled = compile_scenario(get_scenario("graph-shapes"))
        with pytest.raises(SpecError, match="no adversarial block"):
            run_scenario(compiled, engine="search")
