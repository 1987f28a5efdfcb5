"""Component-model tests: spec grammar, golden pinning, properties.

The paper's six BNP schedulers are the :class:`ParamScheduler` at
their :data:`BNP_DESIGNS` coordinates, served by acronym from the
registry.  The golden-pinning test holds the ``param:`` spelling of
each design — resolved through the spec parser to a separately
memoized scheduler — to the same committed differential corpus that
:mod:`test_differential` holds the acronyms to, so both spellings are
pinned placement-for-placement by goldens that predate the component
model.  Literal tables pin what the acronyms report (taxonomy flags,
complexity, names and cache keys), and Hypothesis properties hold
every random component combination to the model invariants (complete,
validated schedules on bounded machines).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential_corpus import corpus_cases, corpus_graphs, golden_path, run_case
from strategies import task_graphs

from repro.algorithms import (
    BNP_SPECS,
    ParamScheduler,
    SchedulerSpec,
    get_scheduler,
    list_schedulers,
    parse_spec,
)
from repro import api
from repro.algorithms.components import AXES, expand_param_grid
from repro.algorithms.components.scheduler import run_component_loop
from repro.core.machine import Machine, NetworkMachine
from repro.core.schedule import validate
from repro.generators.random_graphs import rgnos_graph
from repro.network.topology import Topology

_GRAPHS = corpus_graphs()


# ----------------------------------------------------------------------
# golden pinning: the param: spelling of the six designs, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph", _GRAPHS, ids=[g.name for g in _GRAPHS])
def test_named_specs_match_golden_corpus(graph):
    with open(golden_path(graph)) as fh:
        doc = json.load(fh)
    mismatches = []
    for alg, tag in corpus_cases(graph):
        if alg not in BNP_SPECS:
            continue
        got = run_case(graph, BNP_SPECS[alg].canonical(), tag)
        want = doc["cases"][f"{alg}@{tag}"]
        if got["length"] != pytest.approx(want["length"], abs=1e-9):
            mismatches.append(
                f"{alg}@{tag}: length {got['length']} != {want['length']}")
            continue
        if set(got["placements"]) != set(want["placements"]):
            mismatches.append(f"{alg}@{tag}: scheduled node set differs")
            continue
        for node, (proc, start, finish) in got["placements"].items():
            wproc, wstart, wfinish = want["placements"][node]
            if (proc != wproc or abs(start - wstart) > 1e-9
                    or abs(finish - wfinish) > 1e-9):
                mismatches.append(
                    f"{alg}@{tag}: node {node} placed "
                    f"(P{proc}, {start}, {finish}) vs golden "
                    f"(P{wproc}, {wstart}, {wfinish})")
                break
    assert not mismatches, (
        "component specs diverged from the golden corpus:\n  "
        + "\n  ".join(mismatches))


#: The paper's taxonomy of the six designs (cp_based, dynamic_priority,
#: uses_insertion) and the complexity it states for each.
PAPER_TABLE = {
    "HLFET": ((False, False, False), "O(v^2)"),
    "ISH": ((False, False, True), "O(v^2)"),
    "MCP": ((True, False, True), "O(v^2 log v)"),
    "ETF": ((False, True, False), "O(p v^2)"),
    "DLS": ((False, True, False), "O(p v^3)"),
    "LAST": ((False, True, False), "O(v(e+v))"),
}


#: The same for the APN list schedulers, which the component loop serves
#: on a processor network.  MH ranks by the b-level yet the paper files
#: it as not CP-based; its design states that flag.
APN_PAPER_TABLE = {
    "MH": ((False, False, False), "O(v^2 p^3)"),
    "DLS-APN": ((False, True, False), "O(v^3 p)"),
}


def test_bnp_designs_report_the_papers_flags_and_complexity():
    assert list_schedulers("BNP") == sorted(PAPER_TABLE)
    for acro, (flags, complexity) in APN_PAPER_TABLE.items():
        sched = get_scheduler(acro)
        assert isinstance(sched, ParamScheduler)
        assert sched.klass == "APN"
        assert (sched.cp_based, sched.dynamic_priority,
                sched.uses_insertion) == flags, acro
        assert sched.complexity == complexity, acro
        assert sched.origin, acro
    assert get_scheduler("MH").spec == SchedulerSpec(
        "blevel", "prio", "eft", "off")
    assert get_scheduler("DLS-APN").spec == SchedulerSpec(
        "slevel", "prio", "dls", "off")
    assert sorted(BNP_SPECS) == sorted(PAPER_TABLE)
    # Distinct designs must map to distinct coordinates.
    assert len(set(BNP_SPECS.values())) == 6
    for acro, (flags, complexity) in PAPER_TABLE.items():
        sched = get_scheduler(acro)
        assert isinstance(sched, ParamScheduler)
        assert sched.spec == BNP_SPECS[acro]
        assert sched.klass == "BNP"
        assert (sched.cp_based, sched.dynamic_priority,
                sched.uses_insertion) == flags, acro
        assert sched.complexity == complexity, acro
        assert sched.origin, acro
        # The param: spelling derives the same flags from its parts.
        param = get_scheduler(BNP_SPECS[acro].canonical())
        assert (param.cp_based, param.dynamic_priority,
                param.uses_insertion) == flags, acro


def test_acronyms_keep_their_names_and_cache_keys():
    from repro import api
    from repro.core.graph import TaskGraph

    assert get_scheduler("mcp").name == "MCP"
    assert get_scheduler("mcp") is get_scheduler("MCP")
    assert api.spec_fingerprint("mcp") == "MCP"
    graph = TaskGraph([2.0, 3.0, 4.0, 1.0],
                      {(0, 1): 4.0, (0, 2): 1.0, (1, 3): 1.0, (2, 3): 5.0},
                      name="key-pin")
    # Result stores and the service cache key on these strings.
    assert api.request_key(graph, 2, "mcp") == \
        "b4db37decdf6d0c3|clique:2|MCP"
    assert api.request_key(graph, 2, "param:mcp") == (
        "b4db37decdf6d0c3|clique:2|"
        "param:prio=alaplist,ready=prio,proc=est,insert=on")
    # The APN list schedulers keep their acronyms as cache keys too.
    net = NetworkMachine(Topology.hypercube(2))
    assert get_scheduler("dls-apn").name == "DLS-APN"
    assert api.request_key(graph, net, "mh") == (
        "b4db37decdf6d0c3|net:hypercube-2:4p:5e6c7d16391c;bw=1|MH")
    assert api.request_key(graph, net, "DLS-APN") == (
        "b4db37decdf6d0c3|net:hypercube-2:4p:5e6c7d16391c;bw=1|DLS-APN")


# ----------------------------------------------------------------------
# spec grammar
# ----------------------------------------------------------------------
class TestSpecGrammar:
    def test_canonical_round_trip(self):
        spec = parse_spec("PARAM:insert=ON,prio=Alap")
        assert spec == SchedulerSpec(prio="alap", insert="on")
        assert spec.canonical() == (
            "param:prio=alap,ready=prio,proc=est,insert=on")
        assert parse_spec(spec.canonical()) == spec
        assert spec.fingerprint() == spec.canonical()

    def test_defaults_reproduce_hlfet(self):
        assert SchedulerSpec() == BNP_SPECS["HLFET"]

    def test_named_shorthands(self):
        for acro, spec in BNP_SPECS.items():
            assert parse_spec(f"param:{acro.lower()}") == spec

    def test_unknown_value_lists_the_options(self):
        with pytest.raises(ValueError, match="slevel"):
            parse_spec("param:prio=bogus")

    def test_unknown_axis_lists_the_axes(self):
        with pytest.raises(ValueError, match="prio, ready, proc, insert"):
            parse_spec("param:priority=slevel")

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_spec("param:prio=slevel,prio=alap")

    def test_malformed_assignment_rejected(self):
        with pytest.raises(ValueError, match="axis=value"):
            parse_spec("param:prio")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_spec("param:")

    def test_spec_validates_fields_at_construction(self):
        with pytest.raises(ValueError, match="unknown 'proc' component"):
            SchedulerSpec(proc="bogus")

    def test_components_resolve_in_axis_order(self):
        spec = BNP_SPECS["MCP"]
        parts = spec.components()
        assert list(parts) == ["prio", "ready", "proc", "insert"]
        assert parts["prio"] is AXES["prio"]["alaplist"]


class TestExpandParamGrid:
    def test_cartesian_order_later_axes_fastest(self):
        specs = expand_param_grid({"prio": ["alap", "slevel"],
                                   "insert": ["off", "on"]})
        assert specs == [
            SchedulerSpec(prio="alap", insert="off"),
            SchedulerSpec(prio="alap", insert="on"),
            SchedulerSpec(prio="slevel", insert="off"),
            SchedulerSpec(prio="slevel", insert="on"),
        ]

    def test_values_deduplicate_case_insensitively(self):
        specs = expand_param_grid({"prio": ["alap", "ALAP", "alap"]})
        assert len(specs) == 1

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown component axis"):
            expand_param_grid({"pool": ["fifo"]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            expand_param_grid({"prio": []})


# ----------------------------------------------------------------------
# unified lookup API
# ----------------------------------------------------------------------
class TestLookup:
    def test_spec_spellings_share_one_memoized_instance(self):
        a = get_scheduler("param:prio=alap")
        b = get_scheduler("PARAM:proc=est,prio=ALAP,insert=off,ready=prio")
        assert a is b
        assert isinstance(a, ParamScheduler)
        assert a.name == "param:prio=alap,ready=prio,proc=est,insert=off"

    def test_registered_names_memoized(self):
        assert get_scheduler("mcp") is get_scheduler("MCP")

    def test_unknown_acronym_mentions_spec_grammar(self):
        with pytest.raises(KeyError, match="param"):
            get_scheduler("NOPE")

    def test_bad_spec_string_raises_value_error(self):
        with pytest.raises(ValueError, match="bogus"):
            get_scheduler("param:prio=bogus")

    def test_class_shim_is_retired(self):
        # The deprecated class-returning lookup is gone for good:
        # get_scheduler(name) is the one resolver (it returns
        # ready-to-call instances and also resolves specs).
        import repro.algorithms as algorithms
        from repro.algorithms import base

        assert not hasattr(base, "get_scheduler_class")
        assert not hasattr(algorithms, "get_scheduler_class")
        assert "get_scheduler_class" not in algorithms.__all__

    def test_taxonomy_flags_derive_from_components(self):
        s = get_scheduler("param:prio=alap,proc=etf,insert=on")
        assert s.cp_based and s.dynamic_priority and s.uses_insertion
        h = get_scheduler("param:hlfet")
        assert not (h.cp_based or h.dynamic_priority or h.uses_insertion)


# ----------------------------------------------------------------------
# Hypothesis: every combination yields complete, valid schedules
# ----------------------------------------------------------------------
@given(graph=task_graphs(max_nodes=12),
       prio=st.sampled_from(sorted(AXES["prio"])),
       ready=st.sampled_from(sorted(AXES["ready"])),
       proc=st.sampled_from(sorted(AXES["proc"])),
       insert=st.sampled_from(sorted(AXES["insert"])),
       procs=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_random_component_combinations_schedule_validly(
        graph, prio, ready, proc, insert, procs):
    spec = SchedulerSpec(prio, ready, proc, insert)
    schedule = get_scheduler(spec.canonical()).schedule(graph,
                                                        Machine(procs))
    assert schedule.is_complete()  # every node placed exactly once
    # Full model invariants: precedence + communication delays +
    # per-processor no-overlap.
    assert validate(schedule, collect=True) == []


@given(graph=task_graphs(max_nodes=10),
       prio=st.sampled_from(sorted(AXES["prio"])),
       insert=st.sampled_from(sorted(AXES["insert"])))
@settings(max_examples=30, deadline=None)
def test_random_combinations_valid_under_heterogeneous_speeds(
        graph, prio, insert):
    spec = SchedulerSpec(prio=prio, insert=insert, proc="eft")
    machine = Machine(3, speeds=[1.0, 2.0, 4.0])
    schedule = get_scheduler(spec.canonical()).schedule(graph, machine)
    assert schedule.is_complete()
    assert validate(schedule, collect=True) == []


# ----------------------------------------------------------------------
# component specs on a processor network
# ----------------------------------------------------------------------
class TestNetworkMachine:
    """On a network the loop books messages, or refuses what it cannot."""

    GRAPH = rgnos_graph(30, 1.0, 3, seed=1)

    @pytest.mark.parametrize("spec", [
        "HLFET", "ETF", "DLS", "LAST",
        "param:prio=blevel,ready=prio,proc=eft,insert=off",
        "param:prio=alap,ready=fifo,proc=etf,insert=off",
    ])
    def test_append_only_specs_book_their_messages(self, spec):
        topo = Topology.hypercube(2)
        schedule = api.schedule(self.GRAPH, NetworkMachine(topo), spec,
                                validate=False)
        assert schedule.messages
        assert validate(schedule, network=topo, collect=True) == []

    @pytest.mark.parametrize("spec", [
        "MCP", "ISH", "param:prio=blevel,ready=prio,proc=eft,insert=on",
        "param:prio=slevel,ready=prio,proc=dls,insert=hole",
    ])
    def test_insertion_is_refused_naming_the_axis(self, spec):
        machine = NetworkMachine(Topology.hypercube(2))
        with pytest.raises(ValueError, match=r"insert=(on|hole)"):
            api.schedule(self.GRAPH, machine, spec)

    def test_pinned_history_is_refused(self):
        machine = NetworkMachine(Topology.hypercube(2))
        parts = parse_spec("param:prio=blevel,proc=eft").components()
        first = self.GRAPH.entry_nodes[0]
        with pytest.raises(ValueError, match="pinned history"):
            run_component_loop(parts, self.GRAPH, machine,
                               pinned=[(first, 0, 0.0, None)])

    def test_dls_on_a_network_is_dls_apn(self):
        machine = NetworkMachine(Topology.ring(4))
        dls = get_scheduler("DLS").schedule(self.GRAPH, machine)
        apn = get_scheduler("DLS-APN").schedule(self.GRAPH, machine)
        assert dls.to_dict() == apn.to_dict()
        assert list(dls.messages) == list(apn.messages)


# ----------------------------------------------------------------------
# scenario engine integration
# ----------------------------------------------------------------------
class TestScenarioIntegration:
    MINIMAL = {
        "name": "t",
        "graphs": {"generator": "rgbos", "sizes": [10], "ccrs": [1.0]},
        "algorithms": ["MCP"],
    }

    def _doc(self, **overrides):
        doc = {k: (dict(v) if isinstance(v, dict) else v)
               for k, v in self.MINIMAL.items()}
        doc.update(overrides)
        return doc

    def test_spec_strings_canonicalise_and_param_grids_expand(self):
        from repro.scenarios import validate_spec

        spec = validate_spec(self._doc(algorithms=[
            "mcp",
            "PARAM:prio=alap",
            {"param": {"prio": ["slevel", "alap"],
                       "insert": ["off", "on"]}},
        ]))
        names = spec.algorithm_names
        assert names[0] == "MCP"
        assert names[1] == "param:prio=alap,ready=prio,proc=est,insert=off"
        # The grid contributes 4 combos, one of which duplicates the
        # explicit alap spec above — expansion deduplicates it.
        assert len(names) == 2 + 3
        assert len(set(names)) == len(names)
        # The canonical document round-trips, param selector included.
        from repro.scenarios import validate_spec as revalidate
        assert revalidate(spec.to_dict()).algorithm_names == names

    def test_param_selector_errors_are_spec_errors(self):
        from repro.scenarios import SpecError, validate_spec

        with pytest.raises(SpecError, match="unknown component axis"):
            validate_spec(self._doc(algorithms=[{"param": {"pool": ["x"]}}]))
        with pytest.raises(SpecError, match="slevel"):
            validate_spec(self._doc(
                algorithms=[{"param": {"prio": ["bogus"]}}]))
        with pytest.raises(SpecError, match="exactly the key"):
            validate_spec(self._doc(
                algorithms=[{"param": {"prio": ["alap"]}, "x": 1}]))
        with pytest.raises(SpecError, match="axis=value"):
            validate_spec(self._doc(algorithms=["param:prio"]))

    def test_component_grid_scenario_sweeps_at_least_48_combos(self):
        from repro.scenarios import get_scenario

        spec = get_scenario("component-grid")
        names = spec.algorithm_names
        params = [n for n in names if n.startswith("param:")]
        assert len(params) >= 48
        assert len(names) == len(set(names))
        # The six paper designs ride along for the head-to-head ranking.
        for acro in BNP_SPECS:
            assert acro in names

    def test_adversarial_pair_accepts_spec_names(self):
        from repro.scenarios import validate_spec

        spec = validate_spec(self._doc(adversarial={
            "pair": ["mcp", "param:prio=btlevel,proc=etf"]}))
        assert spec.adversarial["pair"] == [
            "MCP", "param:prio=btlevel,ready=prio,proc=etf,insert=off"]

    def test_component_sweep_resume_replays_with_zero_recompute(
            self, tmp_path, monkeypatch):
        import repro.bench.parallel as parallel
        from repro.bench.store import ResultStore
        from repro.scenarios import (
            compile_scenario,
            run_scenario,
            validate_spec,
        )

        doc = self._doc(
            name="mini-components",
            graphs={"generator": "rgnos", "sizes": [12], "ccrs": [1.0],
                    "parallelisms": [3], "seed": 9},
            algorithms=[{"param": {"prio": ["slevel", "alap"],
                                   "insert": ["off", "on"]}}],
            machine={"bnp_procs": 4})
        compiled = compile_scenario(validate_spec(doc))
        first = run_scenario(compiled, store=ResultStore(str(tmp_path)),
                             resume=True)

        def boom(args):
            raise AssertionError(
                "cell recomputed despite a warm cache — spec "
                "fingerprints are unstable")

        monkeypatch.setattr(parallel, "_run_cell", boom)
        second = run_scenario(compiled, store=ResultStore(str(tmp_path)),
                              resume=True)
        rows1 = [r for _, rows in first.rows for r in rows]
        rows2 = [r for _, rows in second.rows for r in rows]
        assert rows1 == rows2
        assert len(rows1) == compiled.num_cells == 4
