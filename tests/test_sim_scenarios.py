"""The ``simulate:`` scenario axis and the ``sim run/compare`` CLI."""

import json

import pytest

from repro.bench.cli import main
from repro.scenarios import (
    SpecError,
    compile_scenario,
    get_scenario,
    run_scenario,
    sim_tables,
    validate_spec,
)
from repro.sim import sim_store


def _spec_doc(**simulate):
    doc = {
        "name": "sim-test",
        "graphs": {"generator": "rgnos", "sizes": [20], "ccrs": [1.0],
                   "parallelisms": [2], "seed": 5},
        "algorithms": ["MCP", "HLFET"],
    }
    if simulate:
        doc["simulate"] = simulate
    return doc


class TestSimulateBlock:
    def test_valid_block_round_trips(self):
        spec = validate_spec(_spec_doc(
            trials=20, seed=3, network="fixed", scale=2.0, latency=1.5,
            perturb={"duration": {"dist": "lognormal", "param": 0.3}}))
        assert spec.simulate["trials"] == 20
        assert validate_spec(spec.to_dict()) == spec

    def test_bad_network_rejected_with_path(self):
        with pytest.raises(SpecError, match="simulate.network"):
            validate_spec(_spec_doc(network="teleport"))

    def test_bad_distribution_rejected_with_path(self):
        with pytest.raises(SpecError, match="simulate.perturb"):
            validate_spec(_spec_doc(
                perturb={"duration": {"dist": "pareto", "param": 1.0}}))

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="simulate"):
            validate_spec(_spec_doc(walltime=3))

    def test_trials_must_be_positive(self):
        with pytest.raises(SpecError, match="simulate.trials"):
            validate_spec(_spec_doc(trials=0))

    def test_seed_must_be_non_negative(self):
        with pytest.raises(SpecError, match="simulate.seed"):
            validate_spec(_spec_doc(seed=-1))

    def test_scale_latency_require_fixed_network(self):
        # Only the fixed-delay backend consumes them; anything else
        # would silently simulate a different model than configured.
        with pytest.raises(SpecError, match="simulate.latency"):
            validate_spec(_spec_doc(network="auto", latency=5.0))
        with pytest.raises(SpecError, match="simulate.scale"):
            validate_spec(_spec_doc(scale=2.0))

    def test_simulate_is_sweepable(self):
        doc = _spec_doc(trials=5)
        doc["sweep"] = {"simulate.perturb": [
            {}, {"duration": {"dist": "uniform", "param": 0.2}}]}
        spec = validate_spec(doc)
        assert spec.num_variants() == 2

    def test_bad_sweep_point_reported(self):
        doc = _spec_doc(trials=5)
        doc["sweep"] = {"simulate.network": ["auto", "warp"]}
        with pytest.raises(SpecError, match="variant"):
            validate_spec(doc)


class TestCompileAndRun:
    def test_compiles_sim_config(self):
        spec = validate_spec(_spec_doc(
            trials=7, seed=2,
            perturb={"duration": {"dist": "normal", "param": 0.1}}))
        compiled = compile_scenario(spec)
        sim = compiled.variants[0].sim
        assert sim.trials == 7 and sim.seed == 2
        assert sim.perturb.duration.kind == "normal"

    def test_no_block_means_no_sim_config(self):
        compiled = compile_scenario(validate_spec(_spec_doc()))
        assert compiled.variants[0].sim is None

    def test_run_and_tables(self):
        spec = validate_spec(_spec_doc(
            trials=5, perturb={"duration": {"dist": "uniform",
                                            "param": 0.2}}))
        result = run_scenario(compile_scenario(spec), engine="sim")
        assert len(result.all_rows()) == 2  # 1 graph x 2 algorithms
        detail, ranking = sim_tables(result)
        assert len(detail.rows) == 2
        assert {r[1] for r in ranking.rows} == {"MCP", "HLFET"}
        assert any("Monte-Carlo" in n for n in detail.notes)

    def test_registry_robustness_scenarios_compile(self):
        for name in ("robustness-bnp", "noise-ladder"):
            compiled = compile_scenario(get_scenario(name))
            assert all(v.sim is not None for v in compiled.variants)


class TestSimCLI:
    def test_run_prints_tables_and_persists(self, tmp_path, capsys):
        results = tmp_path / "store"
        assert main(["sim", "run", "noise-ladder", "--trials", "3",
                     "--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert "sim:noise-ladder" in out
        assert "rank(simulated)" in out
        assert (results / "sim.json").exists()
        assert len(sim_store(str(results))) == 24  # 4 variants x 6 algos

    def test_compare_prints_only_ranking(self, capsys):
        assert main(["sim", "compare", "robustness-bnp", "--trials", "2",
                     "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "rank(predicted)" in out
        assert "sim:robustness-bnp:ranking" in out
        assert "| predicted |" not in out  # detail table suppressed

    def test_resume_replays_identically(self, tmp_path, capsys):
        results = tmp_path / "store"
        args = ["sim", "run", "noise-ladder", "--trials", "2",
                "--results", str(results), "--resume"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_flag_overrides_reach_the_grid(self, tmp_path, capsys):
        spec = _spec_doc()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["sim", "run", str(path), "--trials", "4",
                     "--noise", "lognormal:0.3", "--seed", "9",
                     "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "4 Monte-Carlo trial(s)" in out

    def test_noise_flag_conflicting_with_sweep_exits_2(self, capsys):
        # noise-ladder sweeps simulate.perturb: a --noise override can
        # never win (each variant replaces the block), so it must be an
        # explicit error rather than a silent no-op.
        assert main(["sim", "compare", "noise-ladder", "--noise",
                     "lognormal:0.9", "--no-store"]) == 2
        err = capsys.readouterr().err
        assert "--noise" in err and "sweep axis" in err
        # Non-conflicting overrides on the same spec still work.
        assert main(["sim", "compare", "noise-ladder", "--trials", "2",
                     "--no-store"]) == 0

    def test_bad_noise_flag_exits_2(self, capsys):
        assert main(["sim", "run", "noise-ladder", "--noise",
                     "lognormal", "--no-store"]) == 2
        assert "DIST:PARAM" in capsys.readouterr().err

    def test_unknown_noise_kind_exits_2(self, capsys):
        assert main(["sim", "run", "noise-ladder", "--noise",
                     "pareto:0.3", "--no-store"]) == 2
        assert "simulate.perturb" in capsys.readouterr().err

    def test_unknown_spec_exits_2(self, capsys):
        assert main(["sim", "run", "no-such-scenario",
                     "--no-store"]) == 2
        assert "neither" in capsys.readouterr().err

    def test_contention_topology_mismatch_exits_2(self, capsys):
        # noise-ladder schedules on an unbounded machine (60 procs);
        # forcing the 8-processor contention backend is a config error
        # and must surface as the one-line exit-2 diagnostic.
        assert main(["sim", "run", "noise-ladder", "--trials", "2",
                     "--network", "contention", "--no-store"]) == 2
        assert "contention topology" in capsys.readouterr().err

    def test_out_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "arts"
        assert main(["sim", "compare", "noise-ladder", "--trials", "2",
                     "--no-store", "--format", "csv",
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "sim_noise-ladder_ranking.csv").exists()
