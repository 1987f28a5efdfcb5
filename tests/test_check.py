"""Tests for the `repro check` static analyzer and runtime sanitizer.

The fixture tree under ``tests/fixtures/check_tree`` holds one known
violation set per RPR rule; the tests assert the checker reports
exactly those (reintroducing any fixture violation into the real tree
would therefore fail the meta-test below and exit 1 in CI).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import Machine, Schedule, ScheduleError, TaskGraph
from repro.bench import cli as bench_cli
from repro.check import SanitizeError, run_check, sanitize_enabled
from repro.check import cli as check_cli
from repro.check import sanitize
from repro.check.engine import Finding, select_rules
from repro.check.report import render
from repro.check.suppress import SUPPRESS_ALL, is_suppressed, suppressions
from repro.core.kernel import arrival_profile
from repro.core.schedule import Violation, render_violations, validate
from repro.network.topology import Topology
from repro.sim.engine import simulate

FIXTURES = str(Path(__file__).parent / "fixtures" / "check_tree")


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv(sanitize.ENV_VAR, "1")


@pytest.fixture(scope="module")
def fixture_findings():
    return run_check(src_root=FIXTURES, repo_root=FIXTURES)


# ----------------------------------------------------------------------
# per-rule fixture behaviour
# ----------------------------------------------------------------------
class TestRulesOnFixtures:
    def test_rpr001_flags_every_mutation_shape(self, fixture_findings):
        hits = [f for f in fixture_findings
                if f.code == "RPR001" and "bad_purity" in f.path]
        # index write, attribute write, mutator call, delete, augmented.
        assert len(hits) == 5
        assert {f.line for f in hits} == {5, 6, 7, 8, 9}

    def test_rpr001_ignores_locals_and_rebindings(self, fixture_findings):
        hits = [f for f in fixture_findings if f.code == "RPR001"]
        assert all(f.line <= 9 for f in hits)  # lines 11-14 stay clean

    def test_rpr002_flags_every_rng_escape(self, fixture_findings):
        hits = [f for f in fixture_findings
                if f.code == "RPR002" and "bad_rng" in f.path]
        # import random, numpy.random import, bare default_rng,
        # np.random.*, hard-coded as_generator seed.
        assert len(hits) == 5
        assert {f.line for f in hits} == {3, 4, 11, 12, 18}

    def test_rpr002_allows_generator_type_uses(self, fixture_findings):
        hits = [f for f in fixture_findings
                if f.code == "RPR002" and "bad_rng" in f.path]
        assert all(f.line not in (5, 21, 22) for f in hits)

    def test_rpr003_flags_only_the_leaky_field(self, fixture_findings):
        hits = [f for f in fixture_findings if f.code == "RPR003"]
        assert len(hits) == 1
        assert "forgotten_axis" in hits[0].message
        assert hits[0].line == 11  # the field's definition line

    def test_rpr004_reports_all_three_directions(self, fixture_findings):
        hits = [f for f in fixture_findings if f.code == "RPR004"]
        messages = " | ".join(f.message for f in hits)
        assert "fixture-stale" in messages          # stale reference
        assert "something-else" in messages         # key/name mismatch
        assert "fixture-orphan" in messages         # unreferenced entry
        # the healthy entry is never *named* by a finding (it may appear
        # in a stale-reference message's list of registered names)
        assert "'fixture-used'" not in messages

    def test_rpr004_stale_reference_points_into_readme(self, fixture_findings):
        stale = [f for f in fixture_findings
                 if f.code == "RPR004" and "fixture-stale" in f.message]
        assert len(stale) == 1
        assert stale[0].path.endswith("README.md")

    def test_rpr004_skips_component_spec_tokens(self, fixture_findings):
        # The fixture README invokes ``adv search param:prio=...``; the
        # ``param:`` token is a scheduler spec, not a scenario name, and
        # must not be reported as a stale reference.
        hits = [f for f in fixture_findings if f.code == "RPR004"]
        assert all("'param'" not in f.message for f in hits)

    def test_rpr005_flags_time_and_literal_compares(self, fixture_findings):
        hits = [f for f in fixture_findings
                if f.code == "RPR005" and "bad_float" in f.path]
        assert {f.line for f in hits} == {5, 7}

    def test_rpr005_ignores_int_and_ordering_compares(self, fixture_findings):
        hits = [f for f in fixture_findings if f.code == "RPR005"]
        assert all(f.line not in (9, 11) for f in hits)

    def test_rpr006_flags_prints_and_logging(self, fixture_findings):
        hits = [f for f in fixture_findings
                if f.code == "RPR006" and "bad_print" in f.path]
        assert {f.line for f in hits} == {3, 4, 10}

    def test_rpr006_allows_the_cli_layer(self, fixture_findings):
        # repro/bench/ is the CLI layer; its prints are the contract.
        hits = [f for f in fixture_findings if f.code == "RPR006"]
        assert all("ok_print" not in f.path for f in hits)

    def test_rule_subset_selection(self):
        findings = run_check(src_root=FIXTURES, repo_root=FIXTURES,
                             rules=["RPR005"])
        assert findings and all(f.code == "RPR005" for f in findings)
        by_name = run_check(src_root=FIXTURES, repo_root=FIXTURES,
                            rules=["float-equality"])
        assert by_name == findings

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            select_rules(["RPR999"])

    def test_findings_sorted_and_deduped(self, fixture_findings):
        assert fixture_findings == sorted(set(fixture_findings))


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------
class TestSuppression:
    def test_each_fixture_suppression_holds(self, fixture_findings):
        # Every fixture file carries one suppressed violation; none of
        # the suppressed lines may appear in the findings.
        suppressed_lines = {
            "bad_purity.py": 18,
            "bad_rng.py": 26,
            "bad_fingerprint.py": 12,
            "bad_float.py": 17,
            "bad_print.py": 16,
        }
        for fname, line in suppressed_lines.items():
            assert not any(fname in f.path and f.line == line
                           for f in fixture_findings), fname

    def test_parse_single_and_multiple_codes(self):
        table = suppressions(
            "x = 1  # repro: noqa-RPR001\n"
            "y = 2  # repro: noqa-RPR002,RPR005 reason text\n"
            "z = 3  # repro: noqa\n"
            "plain = 4\n")
        assert is_suppressed(table, 1, "RPR001")
        assert not is_suppressed(table, 1, "RPR002")
        assert is_suppressed(table, 2, "RPR002")
        assert is_suppressed(table, 2, "RPR005")
        assert not is_suppressed(table, 2, "RPR001")
        assert table[3] == frozenset((SUPPRESS_ALL,))
        assert is_suppressed(table, 3, "RPR004")
        assert not is_suppressed(table, 4, "RPR001")

    def test_ruff_style_noqa_does_not_suppress(self):
        table = suppressions("x = 1  # noqa: E501\n")
        assert not is_suppressed(table, 1, "RPR001")


# ----------------------------------------------------------------------
# the shipped tree is clean (meta-test)
# ----------------------------------------------------------------------
class TestShippedTree:
    def test_repro_check_clean_on_shipped_tree(self):
        repo_root = Path(__file__).parent.parent
        findings = run_check(src_root=str(repo_root / "src"),
                             repo_root=str(repo_root))
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.code} {f.message}" for f in findings)

    def test_every_shipped_suppression_has_a_reason(self):
        src = Path(__file__).parent.parent / "src"
        for path in sorted(src.rglob("*.py")):
            for line in path.read_text().splitlines():
                if "repro: noqa" not in line:
                    continue
                tail = line.split("repro: noqa", 1)[1]
                # after "-RPR00x[,RPR00y]" there must be free text
                reason = tail.lstrip("-RPR0123456789, ")
                assert reason.strip(), f"bare suppression in {path}: {line!r}"


# ----------------------------------------------------------------------
# CLI: formats and exit codes
# ----------------------------------------------------------------------
class TestCheckCli:
    def test_exit_1_and_text_format_on_fixture_tree(self, capsys):
        rc = check_cli.main(["--src-root", FIXTURES,
                             "--repo-root", FIXTURES])
        out = capsys.readouterr().out
        assert rc == 1
        assert "RPR001" in out and "RPR005" in out
        assert "findings (" in out

    def test_json_format(self, capsys):
        rc = check_cli.main(["--src-root", FIXTURES, "--repo-root",
                             FIXTURES, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["clean"] is False
        assert payload["count"] == len(payload["findings"])
        assert set(payload["by_rule"]) == {
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006"}
        paths = {f["path"] for f in payload["findings"]}
        assert all(not p.startswith("/") for p in paths)  # relativized

    def test_github_format(self, capsys):
        rc = check_cli.main(["--src-root", FIXTURES, "--repo-root",
                             FIXTURES, "--format", "github"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "::error file=" in out and "title=RPR002" in out

    def test_list_rules(self, capsys):
        rc = check_cli.main(["--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for code in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
                     "RPR006"):
            assert code in out

    def test_exit_2_on_unknown_rule(self, capsys):
        rc = check_cli.main(["--rules", "RPR999"])
        assert rc == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_exit_2_on_bad_src_root(self, capsys):
        rc = check_cli.main(["--src-root", FIXTURES + "/repro/core"])
        assert rc == 2

    def test_bench_cli_dispatches_check_verb(self, capsys):
        rc = bench_cli.main(["check", "--src-root", FIXTURES,
                             "--repo-root", FIXTURES])
        assert rc == 1
        assert "RPR001" in capsys.readouterr().out

    def test_bench_cli_sanitize_flag_arms_env(self, capsys, monkeypatch):
        import repro.check

        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        armed = []
        monkeypatch.setattr(repro.check, "check_main",
                            lambda argv: armed.append(
                                (os.environ.get(sanitize.ENV_VAR),
                                 sanitize_enabled())) or 0)
        rc = bench_cli.main(["--sanitize", "check", "--list-rules"])
        assert rc == 0
        # Armed while the verb runs, disarmed again once main returns.
        assert armed == [("1", True)]
        assert not sanitize_enabled()

    def test_render_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            render([], "yaml")

    def test_clean_render_for_empty_findings(self):
        assert "clean" in render([], "text")
        assert json.loads(render([], "json"))["clean"] is True
        assert "clean" in render([], "github")

    def test_finding_render_shapes(self):
        f = Finding(path="a/b.py", line=3, col=7, code="RPR001",
                    message="bad: stuff, here")
        text = render([f], "text")
        assert "a/b.py:3:7: RPR001" in text
        gh = render([f], "github")
        assert "::error file=a/b.py,line=3,col=7,title=RPR001::" in gh


# ----------------------------------------------------------------------
# runtime sanitizer
# ----------------------------------------------------------------------
def tiny_graph():
    return TaskGraph([2.0, 3.0, 4.0], {(0, 1): 5.0, (0, 2): 1.0},
                     name="san")


class TestSanitizer:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        assert not sanitize_enabled()
        monkeypatch.setenv(sanitize.ENV_VAR, "0")
        assert not sanitize_enabled()

    def test_enabled_by_env(self, sanitized):
        assert sanitize_enabled()

    def test_require_raises_sanitize_error(self):
        sanitize.require(True, "fine")
        with pytest.raises(SanitizeError, match="sanitizer: broken"):
            sanitize.require(False, "broken")
        assert issubclass(SanitizeError, RuntimeError)

    def test_freeze_arrays_marks_readonly(self):
        arr = np.zeros(4)
        sanitize.freeze_arrays(arr, "not-an-array", None)
        with pytest.raises(ValueError):
            arr[0] = 1.0

    def test_csr_round_trip_clean(self, sanitized):
        g = tiny_graph()
        indptr, indices, costs = g.succ_csr()
        assert list(indices[indptr[0]:indptr[1]]) == [1, 2]
        g.pred_csr()

    def test_csr_round_trip_detects_corruption(self, sanitized):
        g = tiny_graph()
        g.succ_csr()       # build (and pass) the clean CSR first
        g._succ[0][0] = 99  # a scheduler corrupts shared adjacency memory
        with pytest.raises(SanitizeError, match="round-trip"):
            g.succ_csr()

    def test_plan_arrays_frozen(self):
        from repro.core.kernel import tlevel_sweep

        g = tiny_graph()
        tlevel_sweep(g)
        src, dst, cost, bounds = g._cache["_fwd_plan"]
        for arr in (src, dst, cost, bounds):
            assert not arr.flags.writeable

    def test_placement_mirror_check_clean(self, sanitized):
        g = tiny_graph()
        s = Schedule(g, 2)
        s.place(0, 0, 0.0)
        s.place(1, 1, 7.0)
        s.place(2, 0, 3.0)
        assert s.length == 7.0 + 3.0

    def test_placement_detects_corrupted_mirror(self, sanitized):
        g = tiny_graph()
        s = Schedule(g, 2)
        s.place(0, 0, 0.0)
        original = Schedule._sanitize_placement

        def corrupt_then_check(self, node, proc, i):
            self._node_finish[node] += 1.0
            return original(self, node, proc, i)

        s._sanitize_placement = corrupt_then_check.__get__(s)
        with pytest.raises(SanitizeError, match="mirrors"):
            s.place(1, 0, 2.0)

    def test_arrival_profile_oracle_clean(self, sanitized):
        g = tiny_graph()
        s = Schedule(g, 2)
        s.place(0, 0, 0.0)
        profile = arrival_profile(s, 1)
        assert profile.drt(0) == s.data_ready_time(1, 0)
        assert profile.drt(1) == s.data_ready_time(1, 1)

    def test_arrival_profile_detects_broken_trick(self, sanitized,
                                                  monkeypatch):
        # The profile and the oracle read the same mirrors, so the hook
        # specifically guards the best/second-best bookkeeping: break
        # the builder and the oracle cross-check must catch it.
        from repro.core import kernel

        real_build = kernel._build_profile

        def corrupt_build(parents, costs, group_of, finish_of):
            profile = real_build(parents, costs, group_of, finish_of)
            profile.r1 += 1.0
            return profile

        monkeypatch.setattr(kernel, "_build_profile", corrupt_build)
        g = tiny_graph()
        s = Schedule(g, 2)
        s.place(0, 0, 0.0)
        with pytest.raises(SanitizeError, match="arrival profile"):
            arrival_profile(s, 1)

    def test_simulator_runs_under_sanitizer(self, sanitized):
        from repro.algorithms import get_scheduler

        g = tiny_graph()
        schedule = get_scheduler("HLFET").schedule(g, Machine(2))
        result = simulate(schedule, rng=0)
        assert result.makespan == pytest.approx(schedule.length)

    def test_hooks_cost_nothing_when_disarmed(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        g = tiny_graph()
        g.succ_csr()
        g._succ[0][0] = 99  # corruption goes unnoticed when disarmed
        g.succ_csr()


# ----------------------------------------------------------------------
# regression tests for the violations the rules surfaced
# ----------------------------------------------------------------------
class TestSurfacedFixes:
    def test_random_connected_stream_unchanged(self):
        # RPR002 fix: as_generator(seed) must reproduce the exact
        # topology np.random.default_rng(seed) used to produce.
        t = Topology.random_connected(10, extra_links=5, seed=3)
        rng = np.random.default_rng(3)
        order = rng.permutation(10)
        expected_tree = set()
        for i in range(1, 10):
            j = int(rng.integers(0, i))
            a, b = int(order[i]), int(order[j])
            expected_tree.add((min(a, b), max(a, b)))
        assert expected_tree <= {tuple(l) for l in t.links}

    def test_random_connected_accepts_generator_seed(self):
        a = Topology.random_connected(8, 3, seed=np.random.default_rng(7))
        b = Topology.random_connected(8, 3, seed=np.random.default_rng(7))
        assert a.links == b.links

    def test_critical_path_entry_selection_unchanged(self):
        # RPR005 fix in attributes: epsilon compare must still pick the
        # same CP entry node as the exact t==0.0 compare did.
        from repro.core.attributes import blevel, critical_path

        g = TaskGraph([1.0, 5.0, 1.0, 1.0],
                      {(0, 2): 1.0, (1, 2): 1.0, (2, 3): 2.0}, name="cp")
        path = critical_path(g)
        assert path[0] == 1  # the max-blevel entry
        assert max(blevel(g)) == pytest.approx(5.0 + 1.0 + 1.0 + 2.0 + 1.0)


# ----------------------------------------------------------------------
# validate(collect=True) and the violation table
# ----------------------------------------------------------------------
class TestValidateCollect:
    def test_collect_returns_all_violations(self):
        g = tiny_graph()
        s = Schedule(g, 2)
        s.place(0, 0, 0.0)
        s.place(1, 1, 0.0, duration=1.0)
        s.place(2, 1, 10.0)
        violations = validate(s, collect=True)
        codes = [v.code for v in violations]
        assert "duration" in codes and "precedence" in codes
        assert len(violations) >= 2
        prec = next(v for v in violations if v.code == "precedence")
        assert prec.node == 1 and prec.proc == 1

    def test_collect_empty_on_valid_schedule(self):
        g = tiny_graph()
        s = Schedule(g, 1)
        s.place(0, 0, 0.0)
        s.place(1, 0, 2.0)
        s.place(2, 0, 5.0)
        assert validate(s, collect=True) == []
        assert validate(s) is None

    def test_raising_mode_reports_first_collected(self):
        g = tiny_graph()
        s = Schedule(g, 2)
        s.place(0, 0, 0.0)
        s.place(1, 1, 0.0, duration=1.0)
        s.place(2, 1, 10.0)
        collected = validate(s, collect=True)
        with pytest.raises(ScheduleError) as err:
            validate(s)
        assert str(err.value) == collected[0].message

    def test_incomplete_short_circuits(self):
        g = tiny_graph()
        s = Schedule(g, 2)
        s.place(0, 0, 0.0)
        violations = validate(s, collect=True)
        assert [v.code for v in violations] == ["incomplete"]

    def test_render_violations_table(self):
        violations = [
            Violation("overlap", "nodes 1 and 2 overlap on P0",
                      node=2, proc=0),
            Violation("incomplete", "schedule incomplete"),
        ]
        table = render_violations(violations)
        lines = table.splitlines()
        assert lines[0].split() == ["CODE", "NODE", "PROC", "DETAIL"]
        assert any("overlap" in ln and "P0" in ln for ln in lines)
        assert "2 violations" in lines[-1]
        assert render_violations([]) == "schedule valid: 0 violations"

    def test_runner_embeds_violation_table(self, monkeypatch):
        from repro.bench import runner as bench_runner

        class BrokenScheduler:
            name = "BROKEN"
            klass = "BNP"

            def schedule(self, graph, machine):
                s = Schedule(graph, 2)
                s.place(0, 0, 0.0)
                s.place(1, 1, 0.0, duration=1.0)
                s.place(2, 1, 10.0)
                return s

        monkeypatch.setattr(bench_runner, "get_scheduler",
                            lambda name: BrokenScheduler())
        with pytest.raises(ScheduleError) as err:
            bench_runner.run_one("BROKEN", tiny_graph(),
                                 machine=Machine(2))
        message = str(err.value)
        assert "invalid schedule" in message
        assert "CODE" in message and "precedence" in message
