"""Tests for the repro-bench CLI."""

import csv
import json
import os

import pytest

from repro.bench.cli import main
from repro.bench.store import ResultStore


class TestCLI:
    def test_table1_to_stdout(self, capsys):
        assert main(["--artifact", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "MCP" in out

    def test_output_files(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["--artifact", "table1", "--out", str(out_dir)]) == 0
        assert (out_dir / "table1.txt").exists()

    def test_figure_csv_written(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["--artifact", "fig4", "--out", str(out_dir)]) == 0
        assert (out_dir / "fig4_unc.csv").exists()
        assert (out_dir / "fig4_bnp.txt").exists()
        csv = (out_dir / "fig4_apn.csv").read_text()
        assert csv.splitlines()[0].startswith("N,")

    def test_bad_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["--artifact", "nope"])


class TestEngineFlags:
    def test_jobs_matches_serial_output(self, capsys):
        assert main(["--artifact", "table1"]) == 0
        serial = capsys.readouterr().out
        assert main(["--artifact", "table1", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_format_json(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["--artifact", "table1", "--format", "json",
                     "--out", str(out_dir)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["id"] == "Table 1"
        assert doc["columns"][0] == "graph"
        assert json.loads((out_dir / "table1.json").read_text()) == doc

    def test_format_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["--artifact", "table1", "--format", "csv",
                     "--out", str(out_dir)]) == 0
        text = (out_dir / "table1.csv").read_text()
        rows = list(csv.reader(
            [ln for ln in text.splitlines() if not ln.startswith("#")]
        ))
        assert rows[0][0] == "graph"
        assert len(rows) > 1

    def test_figure_format_csv_writes_csv_artifact(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["--artifact", "fig4", "--format", "csv",
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "fig4_unc.csv").exists()
        assert not (out_dir / "fig4_unc.txt").exists()

    def test_results_store_written_and_resumed(self, tmp_path, capsys,
                                               monkeypatch):
        res_dir = tmp_path / "store"
        assert main(["--artifact", "table1", "--results", str(res_dir)]) == 0
        first = capsys.readouterr().out
        assert (res_dir / "results.json").exists()
        assert (res_dir / "results.csv").exists()
        assert len(ResultStore(str(res_dir))) > 0

        # A resumed run must not schedule anything: every cell is cached.
        from repro.bench import runner as runner_mod

        def boom(*args, **kwargs):
            raise AssertionError("cell re-scheduled despite --resume")

        monkeypatch.setattr(runner_mod, "run_one", boom)
        assert main(["--artifact", "table1", "--results", str(res_dir),
                     "--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_resume_requires_results(self):
        with pytest.raises(SystemExit):
            main(["--artifact", "table1", "--resume"])

    def test_unwritable_results_path_exits_2_with_diagnostic(self, capsys):
        """No traceback: a clean one-line error and exit code 2."""
        assert main(["--artifact", "table1",
                     "--results", "/dev/null/nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-bench: error:")
        assert "/dev/null/nope" in err
        assert len(err.strip().splitlines()) == 1

    def test_results_path_over_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "plain-file"
        target.write_text("not a directory")
        assert main(["--artifact", "table1",
                     "--results", str(target)]) == 2
        assert "repro-bench: error:" in capsys.readouterr().err

    def test_corrupt_store_exits_2(self, tmp_path, capsys):
        (tmp_path / "results.json").write_text("{broken")
        assert main(["--artifact", "table1",
                     "--results", str(tmp_path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


SCENARIO_SPEC = os.path.join(
    os.path.dirname(__file__), "..", "examples", "scenario_hetero.json")


class TestScenarioCLI:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "hetero-speeds" in out
        assert "nightly-grid" in out

    def test_validate_registry_name(self, capsys):
        assert main(["scenario", "validate", "hetero-speeds"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")
        assert "4 variant(s)" in out

    def test_validate_example_files(self, capsys):
        assert main(["scenario", "validate", SCENARIO_SPEC]) == 0
        toml_spec = SCENARIO_SPEC.replace("scenario_hetero.json",
                                          "scenario_bandwidth.toml")
        assert main(["scenario", "validate", toml_spec]) == 0

    def test_validate_bad_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "algorithms": ["MCP"],
                                    "graphs": {"suite": "nope"}}))
        assert main(["scenario", "validate", str(path)]) == 2
        assert "graphs.suite" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenario", "run", "no-such-scenario"]) == 2
        assert "registered" in capsys.readouterr().err

    def test_run_persists_and_resume_replays_identically(
            self, tmp_path, capsys, monkeypatch):
        res_dir = tmp_path / "store"
        argv = ["scenario", "run", SCENARIO_SPEC, "--jobs", "2",
                "--results", str(res_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "scenario:example-hetero" in first
        assert len(ResultStore(str(res_dir))) == 24

        from repro.bench import runner as runner_mod

        def boom(*args, **kwargs):
            raise AssertionError("cell re-scheduled despite --resume")

        monkeypatch.setattr(runner_mod, "run_one", boom)
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_run_default_store_location(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["scenario", "run", SCENARIO_SPEC]) == 0
        store_dir = tmp_path / "results" / "scenarios" / "example-hetero"
        assert (store_dir / "results.json").exists()

    def test_run_out_and_format(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["scenario", "run", SCENARIO_SPEC, "--no-store",
                     "--format", "json", "--out", str(out_dir)]) == 0
        doc = json.loads(
            (out_dir / "scenario_example-hetero.json").read_text())
        assert doc["id"] == "scenario:example-hetero"
        assert (out_dir / "scenario_example-hetero_summary.json").exists()

    def test_run_unwritable_results_exits_2(self, capsys):
        assert main(["scenario", "run", SCENARIO_SPEC,
                     "--results", "/dev/null/x"]) == 2
        assert "repro-bench: error:" in capsys.readouterr().err


class TestAdvCLI:
    ARGS = ["adv", "search", "adversarial-bnp", "--steps", "8",
            "--chains", "2", "--temperature", "0"]

    def test_search_persists_frontier_and_resume_replays(
            self, tmp_path, capsys, monkeypatch):
        res_dir = tmp_path / "store"
        argv = self.ARGS + ["--results", str(res_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "adv:adversarial-bnp" in first
        assert "LAST/MCP" in first
        assert (res_dir / "adv.json").exists()
        assert (res_dir / "frontier.json").exists()

        import repro.adversarial.search as search_mod

        def boom(args):
            raise AssertionError("chain re-run despite --resume")

        monkeypatch.setattr(search_mod, "_run_chain", boom)
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_search_ad_hoc_pair_override(self, tmp_path, capsys):
        assert main(["adv", "search", "graph-shapes", "--pair", "LAST",
                     "MCP", "--steps", "5", "--chains", "1",
                     "--temperature", "0", "--no-store"]) == 0
        assert "LAST/MCP" in capsys.readouterr().out

    def test_show_and_export_work_after_ad_hoc_search(self, tmp_path,
                                                      capsys):
        """A spec without an adversarial block still shows/exports the
        store an ad-hoc --pair search persisted into it."""
        res_dir = tmp_path / "store"
        assert main(["adv", "search", "graph-shapes", "--pair", "LAST",
                     "MCP", "--steps", "5", "--chains", "1",
                     "--temperature", "0",
                     "--results", str(res_dir)]) == 0
        capsys.readouterr()
        assert main(["adv", "show", "graph-shapes",
                     "--results", str(res_dir)]) == 0
        assert "LAST/MCP" in capsys.readouterr().out
        out_dir = tmp_path / "inst"
        assert main(["adv", "export", "graph-shapes",
                     "--results", str(res_dir),
                     "--out", str(out_dir)]) == 0
        assert list(out_dir.glob("*.stg"))

    def test_search_without_block_exits_2(self, capsys):
        assert main(["adv", "search", "graph-shapes",
                     "--no-store"]) == 2
        assert "no adversarial block" in capsys.readouterr().err

    def test_show_and_export_round_trip(self, tmp_path, capsys):
        res_dir = tmp_path / "store"
        assert main(self.ARGS + ["--results", str(res_dir)]) == 0
        capsys.readouterr()
        assert main(["adv", "show", "adversarial-bnp",
                     "--results", str(res_dir)]) == 0
        assert "LAST/MCP" in capsys.readouterr().out

        out_dir = tmp_path / "instances"
        assert main(["adv", "export", "adversarial-bnp",
                     "--results", str(res_dir),
                     "--out", str(out_dir)]) == 0
        files = sorted(out_dir.glob("*.stg"))
        assert files
        from repro.generators import load_graph

        graph = load_graph(str(files[0]))
        assert graph.num_nodes > 1

    def test_export_disambiguates_same_name_different_graphs(
            self, tmp_path, capsys):
        """Reruns with other knobs share instance names but not graphs;
        export must write both, never silently drop one."""
        res_dir = tmp_path / "store"
        base = ["adv", "search", "adversarial-bnp", "--chains", "1",
                "--temperature", "0", "--results", str(res_dir)]
        assert main(base + ["--steps", "5"]) == 0
        assert main(base + ["--steps", "9"]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "inst"
        assert main(["adv", "export", "adversarial-bnp", "--all",
                     "--results", str(res_dir),
                     "--out", str(out_dir)]) == 0
        files = list(out_dir.glob("*.stg"))
        assert len(files) == 2
        assert len({f.read_text() for f in files}) == 2

    def test_show_empty_store_exits_2(self, tmp_path, capsys):
        assert main(["adv", "show", "adversarial-bnp",
                     "--results", str(tmp_path)]) == 2
        assert "no chains stored" in capsys.readouterr().err

    def test_unknown_spec_exits_2(self, capsys):
        assert main(["adv", "search", "no-such-scenario"]) == 2
        assert "registered" in capsys.readouterr().err

    def test_search_flag_conflicting_with_sweep_exits_2(self, tmp_path,
                                                        capsys):
        from repro.scenarios import get_scenario

        doc = get_scenario("adversarial-bnp").to_dict()
        doc["sweep"] = {"adversarial.steps": [5, 9]}
        path = tmp_path / "swept.json"
        path.write_text(json.dumps(doc))
        assert main(["adv", "search", str(path), "--steps", "5",
                     "--no-store"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-bench: error: --steps conflicts")
        assert "'adversarial.steps'" in err


class TestResultsValidationUnified:
    """Every verb family funnels --results through one validated path.

    Regression tests for the PR-2 exit-2 diagnostics, which were wired
    (but never exercised) for the sim verbs and now also guard adv:
    an unwritable path or a corrupt store is a one-line `repro-bench:
    error:` on stderr and exit code 2 — never a traceback — on
    scenario, sim and adv alike.
    """

    def _assert_one_line_error(self, capsys, needle):
        err = capsys.readouterr().err
        assert err.startswith("repro-bench: error:")
        assert needle in err
        assert len(err.strip().splitlines()) == 1

    def test_sim_unwritable_results_exits_2(self, capsys):
        assert main(["sim", "run", "noise-ladder", "--trials", "2",
                     "--results", "/dev/null/nope"]) == 2
        self._assert_one_line_error(capsys, "/dev/null/nope")

    def test_sim_corrupt_store_exits_2(self, tmp_path, capsys):
        (tmp_path / "sim.json").write_text("{broken")
        assert main(["sim", "run", "noise-ladder", "--trials", "2",
                     "--results", str(tmp_path)]) == 2
        self._assert_one_line_error(capsys, "not valid JSON")

    def test_adv_unwritable_results_exits_2(self, capsys):
        assert main(["adv", "search", "adversarial-bnp",
                     "--results", "/dev/null/nope"]) == 2
        self._assert_one_line_error(capsys, "/dev/null/nope")

    def test_adv_corrupt_store_exits_2(self, tmp_path, capsys):
        (tmp_path / "adv.json").write_text("{broken")
        assert main(["adv", "search", "adversarial-bnp",
                     "--results", str(tmp_path)]) == 2
        self._assert_one_line_error(capsys, "not valid JSON")

    def test_scenario_results_over_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "plain-file"
        target.write_text("not a directory")
        assert main(["scenario", "run", SCENARIO_SPEC,
                     "--results", str(target)]) == 2
        self._assert_one_line_error(capsys, "not a writable directory")


#: One small run per scenario-driven verb, with its default store files.
_VERB_RUNS = {
    "scenario": (["scenario", "run", SCENARIO_SPEC],
                 ("scenarios", "example-hetero", ["results.json"])),
    "sim": (["sim", "run", "noise-ladder", "--trials", "2"],
            ("sim", "noise-ladder", ["sim.json"])),
    "adv": (["adv", "search", "adversarial-bnp", "--steps", "5",
             "--chains", "1", "--temperature", "0"],
            ("adv", "adversarial-bnp", ["adv.json", "frontier.json"])),
}


class TestScenarioVerbsShareOneFrontHalf:
    @pytest.mark.parametrize("verb", sorted(_VERB_RUNS))
    def test_default_store_directory(self, verb, tmp_path, capsys,
                                     monkeypatch):
        argv, (family, name, files) = _VERB_RUNS[verb]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        store_dir = tmp_path / "results" / family / name
        for filename in files:
            assert (store_dir / filename).exists(), filename

    @pytest.mark.parametrize("verb", sorted(_VERB_RUNS))
    def test_resume_without_a_store_exits_2(self, verb, tmp_path, capsys,
                                            monkeypatch):
        argv, _ = _VERB_RUNS[verb]
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--no-store", "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-bench: error: --resume")
        assert "--no-store" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "results").exists()


class TestAlgoVerbs:
    """``repro-bench algo list/describe`` — the unified name listing."""

    def test_algo_list_renders_registry_and_grammar(self, capsys):
        assert main(["algo", "list"]) == 0
        out = capsys.readouterr().out
        # All three classes present, plus the component-spec grammar.
        for name in ("MCP", "DSC", "BSA"):
            assert name in out
        assert "param:prio=<prio>" in out
        assert "alaplist" in out and "dnode" in out
        assert "param:hlfet" in out

    def test_algo_list_class_filter(self, capsys):
        assert main(["algo", "list", "--class", "UNC"]) == 0
        out = capsys.readouterr().out
        assert "DSC" in out and "DCP" in out
        assert "MCP" not in out and "BSA" not in out

    def test_algo_describe_monolith_shows_component_spec(self, capsys):
        assert main(["algo", "describe", "mcp"]) == 0
        out = capsys.readouterr().out
        assert "MCP" in out and "[BNP]" in out
        assert "param:prio=alaplist,ready=prio,proc=est,insert=on" in out

    def test_algo_describe_apn_design_shows_origin_and_spec(self, capsys):
        assert main(["algo", "describe", "MH"]) == 0
        out = capsys.readouterr().out
        assert "MH  [APN]" in out
        assert "Mapping Heuristic, El-Rewini & Lewis (1990)" in out
        assert ("component spec:   "
                "param:prio=blevel,ready=prio,proc=eft,insert=off") in out

    def test_algo_describe_param_resolves_components(self, capsys):
        assert main(["algo", "describe", "param:prio=alap,insert=on"]) == 0
        out = capsys.readouterr().out
        assert "components:" in out
        for line in ("prio=alap", "ready=prio", "proc=est", "insert=on"):
            assert line in out
        assert "paper design" not in out  # not a named design

    def test_algo_describe_named_shorthand_cites_monolith(self, capsys):
        assert main(["algo", "describe", "param:last"]) == 0
        out = capsys.readouterr().out
        assert "paper design: LAST" in out

    @pytest.mark.parametrize("name, design", [("DLS-APN", "DLS-APN"),
                                              ("MH", "MH"),
                                              ("DLS", "DLS")])
    def test_algo_describe_names_the_schedulers_own_design(self, capsys,
                                                           name, design):
        # DLS-APN sits at DLS's coordinates; each names itself.
        assert main(["algo", "describe", name]) == 0
        out = capsys.readouterr().out
        assert f"paper design: {design}\n" in out

    def test_algo_describe_unknown_exits_2_one_line(self, capsys):
        assert main(["algo", "describe", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-bench: error:")
        assert len(err.strip().splitlines()) == 1

    def test_algo_describe_bad_spec_exits_2_one_line(self, capsys):
        assert main(["algo", "describe", "param:prio=bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert len(err.strip().splitlines()) == 1


class TestArmingScope:
    """``--trace``/``--sanitize`` arm one ``main`` call, not the process.

    ``main`` writes the arming variables into ``os.environ`` so worker
    processes inherit them; it must put the environment back on return,
    or every later in-process caller would run traced and sanitized.
    """

    ARMING = ("REPRO_TRACE", "REPRO_TRACE_PATH", "REPRO_SANITIZE")

    @pytest.fixture(autouse=True)
    def _disarmed(self, monkeypatch, tmp_path):
        for name in self.ARMING:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.chdir(tmp_path)  # the default trace.json lands here

    @pytest.mark.parametrize("flags", [
        ["--trace"], ["--sanitize"], ["--trace", "--sanitize"],
        ["--trace=run.json"],
    ])
    def test_environment_unchanged_after_main(self, flags, capsys):
        before = dict(os.environ)
        assert main(flags + ["algo", "describe", "dls"]) == 0
        assert dict(os.environ) == before

    def test_no_tracer_outlives_a_traced_call(self, capsys):
        from repro.obs import trace

        # ``algo describe`` records nothing, so nothing is flushed; the
        # tracer the flag armed must not keep recording later work.
        assert main(["--trace", "algo", "describe", "dls"]) == 0
        assert trace.current() is None

    def test_previous_values_are_restored(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE", "0")
        monkeypatch.setenv("REPRO_TRACE_PATH", "keep.json")
        before = dict(os.environ)
        assert main(["--trace=other.json", "--sanitize",
                     "algo", "describe", "etf"]) == 0
        assert dict(os.environ) == before

    def test_environment_restored_when_the_verb_raises(self, capsys):
        before = dict(os.environ)
        with pytest.raises(SystemExit):
            main(["--trace", "--sanitize", "--artifact", "nope"])
        assert dict(os.environ) == before


class TestOnlineCLI:
    """The online information-mode axis through the CLI surfaces."""

    def _spec(self, tmp_path, **extra):
        doc = {"name": "cli-online",
               "graphs": {"generator": "rgnos", "sizes": [12],
                          "ccrs": [1.0], "parallelisms": [3], "seed": 5},
               "algorithms": ["MCP"],
               "machine": {"bnp_procs": 2},
               "metrics": ["length"]}
        doc.update(extra)
        path = tmp_path / "online.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_scenario_run_emits_online_table(self, tmp_path, capsys):
        path = self._spec(tmp_path, online={"imodes": ["exact"]})
        assert main(["scenario", "run", path, "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "online:cli-online" in out
        assert "rank(online)" in out

    def test_sim_imode_flag_adds_online_counterparts(self, tmp_path,
                                                     capsys):
        path = self._spec(tmp_path)
        assert main(["sim", "run", path, "--imode", "blind",
                     "--trials", "2", "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "imode=blind" in out

    def test_sim_imode_conflicts_with_online_sweep(self, tmp_path,
                                                   capsys):
        path = self._spec(
            tmp_path, online={"imodes": ["exact"]},
            sweep={"online.imodes": [["exact"], ["blind"]]})
        assert main(["sim", "run", path, "--imode", "blind",
                     "--no-store"]) == 2
        assert "online.imodes" in capsys.readouterr().err

    def test_sim_bad_imode_named(self, tmp_path, capsys):
        path = self._spec(tmp_path)
        assert main(["sim", "run", path, "--imode", "psychic",
                     "--no-store"]) == 2
        assert "information mode" in capsys.readouterr().err

    def test_algo_list_mentions_online_grammar(self, capsys):
        assert main(["algo", "list"]) == 0
        out = capsys.readouterr().out
        assert "online:" in out
        assert "imode" in out

    def test_algo_describe_online_spec(self, capsys):
        assert main(["algo", "describe", "online:mcp,imode=mean"]) == 0
        out = capsys.readouterr().out
        assert "information mode: mean" in out
        assert "paper design: MCP" in out
