"""Online scheduling under partial information (repro.sim.online).

Covers the four layers of the subsystem: the ``online:`` spec grammar,
the information-mode observation filter, the event-driven engine (its
complete-plan contract and stall diagnostics), and the headline
guarantees — exact static equivalence under zero noise + ``exact``
mode, and cross-process placement-trace determinism.
"""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential_corpus import BNP_ALGOS, build_machine, corpus_graphs
from repro import Machine, get_scheduler
from repro.algorithms.components import BNP_SPECS
from repro.core.exceptions import ScheduleError
from repro.core.schedule import validate
from repro.generators.random_graphs import rgnos_graph
from repro.sim import PerturbationModel
from repro.sim.online import (
    IMODES,
    OnlinePolicy,
    OnlineResult,
    OnlineScheduler,
    OnlineSchedulerSpec,
    observe,
    parse_online_spec,
    simulate_online,
)
from strategies import task_graphs


# ----------------------------------------------------------------------
# spec grammar
# ----------------------------------------------------------------------
class TestOnlineSpec:
    def test_named_shorthand_resolves_bnp_axes(self):
        spec = parse_online_spec("online:mcp")
        base = BNP_SPECS["MCP"]
        assert (spec.prio, spec.ready, spec.proc, spec.insert) == (
            base.prio, base.ready, base.proc, base.insert)
        assert spec.imode == "exact"

    def test_canonical_round_trips(self):
        spec = parse_online_spec("online:etf,imode=mean")
        assert parse_online_spec(spec.canonical()) == spec

    def test_seed_spelled_only_for_user_mode(self):
        assert ",seed=" not in parse_online_spec(
            "online:mcp,imode=mean,seed=5").canonical()
        assert ",seed=5" in parse_online_spec(
            "online:mcp,imode=user,seed=5").canonical()

    def test_explicit_axes_accepted(self):
        spec = parse_online_spec(
            "online:prio=slevel,ready=prio,proc=est,insert=off,imode=blind")
        assert spec.imode == "blind"
        assert spec.base() == BNP_SPECS["HLFET"]

    @pytest.mark.parametrize("text, needle", [
        ("online:mcp,imode=psychic", "information mode"),
        ("online:nosuchalgo", "nosuchalgo"),
        ("online:mcp,imode=mean,imode=blind", "duplicate"),
        ("online:mcp,seed=-3", "seed"),
        ("online:mcp,flavor=spicy", "flavor"),
    ])
    def test_malformed_specs_rejected(self, text, needle):
        with pytest.raises(ValueError, match=needle):
            parse_online_spec(text)

    def test_registry_resolves_and_memoizes(self):
        a = get_scheduler("online:mcp,imode=blind")
        b = get_scheduler(
            "online:prio=alaplist,ready=prio,proc=est,insert=on,"
            "imode=blind")
        assert a is b
        assert isinstance(a, OnlineScheduler)
        assert a.dynamic_priority  # replanning makes every spec dynamic

    def test_scheduler_produces_valid_complete_schedule(self):
        g = rgnos_graph(24, 1.0, 3, seed=3)
        sched = get_scheduler("online:hlfet,imode=mean").schedule(
            g, Machine(3))
        assert sched.is_complete()
        validate(sched)


# ----------------------------------------------------------------------
# information modes
# ----------------------------------------------------------------------
class TestIModes:
    def test_exact_is_the_graph_itself(self):
        g = rgnos_graph(20, 1.0, 3, seed=1)
        assert observe(g, "exact") is g

    def test_blind_unit_weights_and_costs(self):
        g = rgnos_graph(20, 1.0, 3, seed=1)
        obs = observe(g, "blind")
        assert all(obs.weight(v) == 1.0 for v in range(obs.num_nodes))
        assert all(c == 1.0 for _, _, c in obs.edges())
        assert [e[:2] for e in obs.edges()] == [e[:2] for e in g.edges()]

    def test_mean_preserves_totals(self):
        g = rgnos_graph(20, 1.0, 3, seed=1)
        obs = observe(g, "mean")
        assert obs.total_computation == pytest.approx(g.total_computation)
        assert obs.total_communication == pytest.approx(
            g.total_communication)
        weights = {obs.weight(v) for v in range(obs.num_nodes)}
        assert len(weights) == 1  # one scalar mean everywhere

    def test_user_mode_is_keyed_by_rng(self):
        from repro.core.rng import derive_rng

        g = rgnos_graph(20, 1.0, 3, seed=1)
        a = observe(g, "user", rng=derive_rng(7, "imode", g.name))
        b = observe(g, "user", rng=derive_rng(7, "imode", g.name))
        c = observe(g, "user", rng=derive_rng(8, "imode", g.name))
        assert [a.weight(v) for v in range(a.num_nodes)] == \
               [b.weight(v) for v in range(b.num_nodes)]
        assert [a.weight(v) for v in range(a.num_nodes)] != \
               [c.weight(v) for v in range(c.num_nodes)]
        assert all(a.weight(v) > 0 for v in range(a.num_nodes))

    def test_unknown_mode_rejected(self):
        g = rgnos_graph(10, 1.0, 2, seed=1)
        with pytest.raises(ValueError, match="information mode"):
            observe(g, "oracle")


# ----------------------------------------------------------------------
# the headline guarantee: zero noise + exact mode == static replay
# ----------------------------------------------------------------------
class TestStaticEquivalence:
    @pytest.mark.parametrize("alg", BNP_ALGOS)
    def test_golden_corpus_placement_identical(self, alg):
        checked = 0
        for graph in corpus_graphs():
            machine = build_machine("p4", graph)
            static = get_scheduler(
                BNP_SPECS[alg].canonical()).schedule(graph, machine)
            res = simulate_online(
                graph, machine, parse_online_spec(f"online:{alg.lower()}"))
            assert res.num_replans == 0, (graph.name, res.num_replans)
            for v in range(graph.num_nodes):
                assert res.schedule.proc_of(v) == static.proc_of(v), \
                    (graph.name, v)
                assert res.schedule.start_of(v) == static.start_of(v), \
                    (graph.name, v)
            checked += 1
        assert checked >= 30  # the golden corpus

    def test_heterogeneous_machine_equivalence(self):
        for graph in list(corpus_graphs())[:6]:
            machine = build_machine("het3", graph)
            static = get_scheduler(
                BNP_SPECS["MCP"].canonical()).schedule(graph, machine)
            res = simulate_online(graph, machine,
                                  parse_online_spec("online:mcp"))
            assert res.num_replans == 0
            assert res.makespan == static.length


    @pytest.mark.parametrize("spec", ["online:hlfet,imode=exact",
                                      "online:mcp,imode=mean"])
    def test_network_machine_refused_up_front(self, spec):
        # A replan pins executed history, whose messages a network
        # cannot pin: every online spec refuses one before running.
        from repro import api
        from repro.core.machine import NetworkMachine
        from repro.network.topology import Topology

        machine = NetworkMachine(Topology.hypercube(2))
        with pytest.raises(ValueError, match="hypercube") as err:
            api.schedule(rgnos_graph(30, 1.0, 3, seed=1), machine, spec)
        assert "pinned" not in str(err.value)  # not from inside the loop


# ----------------------------------------------------------------------
# the engine under noise and partial information
# ----------------------------------------------------------------------
class TestOnlineEngine:
    @pytest.mark.parametrize("imode", IMODES)
    def test_noisy_runs_complete_and_validate(self, imode):
        g = rgnos_graph(40, 1.0, 3, seed=7057)
        res = simulate_online(
            g, Machine(4),
            parse_online_spec(f"online:mcp,imode={imode},seed=5"),
            perturb=PerturbationModel.lognormal(0.3), rng=11)
        assert res.schedule.is_complete()
        assert not validate(res.schedule, check_durations=False,
                            collect=True)
        if imode != "exact":
            # Wrong estimates must actually deviate from reality.
            assert res.num_replans > 0

    def test_partial_information_costs_makespan(self):
        g = rgnos_graph(40, 10.0, 3, seed=9)
        exact = simulate_online(g, Machine(4),
                                parse_online_spec("online:mcp"))
        blind = simulate_online(
            g, Machine(4), parse_online_spec("online:mcp,imode=blind"))
        assert blind.makespan >= exact.makespan

    def test_moved_local_handoff_recharges_communication(self):
        # Regression: under partial information a replan can move a
        # consumer away from the processor its input was locally handed
        # off on; the transfer must then be charged for real or the
        # executed timeline violates precedence.
        for seed in (5, 9, 13):
            g = rgnos_graph(16, 1.0, 3, seed=seed)
            res = simulate_online(
                g, Machine(4), parse_online_spec("online:mcp,imode=blind"))
            validate(res.schedule)  # strict: durations and precedence

    def test_same_inputs_same_trace(self):
        g = rgnos_graph(30, 1.0, 3, seed=4)
        spec = parse_online_spec("online:dls,imode=user,seed=6")
        kwargs = dict(perturb=PerturbationModel.lognormal(0.3), rng=3)
        a = simulate_online(g, Machine(4), spec, **kwargs)
        b = simulate_online(g, Machine(4), spec, **kwargs)
        assert a.trace == b.trace
        assert a.num_events == b.num_events

    def test_routed_network_refused_up_front(self):
        # Messages are routed at the producer's finish; a replan that
        # moves the consumer afterwards would leave the route ending on
        # its old processor (route-endpoints violations).
        from repro.network.topology import Topology
        from repro.sim import ContentionNetwork

        with pytest.raises(ValueError, match="contention network"):
            simulate_online(
                rgnos_graph(30, 1.0, 3, seed=0), Machine(4), "online:mcp",
                perturb=PerturbationModel.lognormal(0.3),
                network=ContentionNetwork(Topology.ring(4)), rng=0)

    def test_degradation_contract(self):
        g = rgnos_graph(10, 1.0, 2, seed=2)
        res = simulate_online(g, Machine(2), parse_online_spec("online:mcp"))
        assert res.degradation_pct == pytest.approx(0.0)
        corrupt = OnlineResult(
            schedule=res.schedule, predicted=0.0, makespan=res.makespan,
            num_events=res.num_events, num_replans=0)
        with pytest.raises(ScheduleError, match="not positive"):
            corrupt.degradation_pct


class _ListPolicy(OnlinePolicy):
    """Fixed initial queues, never replans — for contract tests."""

    def __init__(self, queues):
        self.queues = queues
        self.predicted = 1.0

    def begin(self, machine):
        return [list(q) for q in self.queues]


class TestPolicyContract:
    G = staticmethod(lambda: rgnos_graph(6, 1.0, 2, seed=1))

    def test_wrong_queue_count_rejected(self):
        g = self.G()
        with pytest.raises(ScheduleError, match="queue"):
            simulate_online(g, Machine(2), _ListPolicy([[0, 1, 2, 3, 4, 5]]))

    def test_incomplete_plan_rejected(self):
        g = self.G()
        with pytest.raises(ScheduleError, match="left task"):
            simulate_online(g, Machine(2),
                            _ListPolicy([[0, 1, 2], [3, 4]]))

    def test_duplicate_task_rejected(self):
        g = self.G()
        with pytest.raises(ScheduleError, match="twice"):
            simulate_online(g, Machine(2),
                            _ListPolicy([[0, 1, 2, 3], [3, 4, 5]]))

    def test_stall_names_task_processor_and_missing_preds(self):
        # A chain scheduled in reverse order on one queue can never
        # start its head; the error must say who waits on whom, where.
        from repro import TaskGraph

        g = TaskGraph([2.0, 3.0], {(0, 1): 1.0})
        with pytest.raises(ScheduleError) as err:
            simulate_online(g, Machine(1), _ListPolicy([[1, 0]]))
        text = str(err.value)
        assert "stalled" in text
        assert "P0" in text
        assert "[0]" in text  # the unexecuted predecessor


# ----------------------------------------------------------------------
# cross-process determinism
# ----------------------------------------------------------------------
_TRACE_SCRIPT = """
import json, sys
from repro.core.machine import Machine
from repro.generators.random_graphs import rgnos_graph
from repro.sim import PerturbationModel
from repro.sim.online import parse_online_spec, simulate_online

g = rgnos_graph(25, 1.0, 3, seed=42)
res = simulate_online(
    g, Machine(4), parse_online_spec("online:mcp,imode=user,seed=9"),
    perturb=PerturbationModel.lognormal(0.3), rng=17)
print(json.dumps({"trace": res.trace, "events": res.num_events,
                  "replans": res.num_replans, "makespan": res.makespan}))
"""


class TestCrossProcessDeterminism:
    def test_identical_trace_across_process_boundaries(self):
        runs = []
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, "-c", _TRACE_SCRIPT],
                capture_output=True, text=True, check=True)
            runs.append(json.loads(out.stdout))
        assert runs[0] == runs[1]
        assert runs[0]["replans"] > 0  # the run actually replans


# ----------------------------------------------------------------------
# property: every online run yields a clean executed schedule
# ----------------------------------------------------------------------
class TestOnlineProperties:
    @settings(max_examples=25, deadline=None)
    @given(graph=task_graphs(), imode=st.sampled_from(IMODES),
           seed=st.integers(0, 3))
    def test_any_imode_yields_validate_clean_schedule(self, graph, imode,
                                                      seed):
        spec = OnlineSchedulerSpec(imode=imode, seed=seed)
        res = simulate_online(
            graph, Machine(2), spec,
            perturb=PerturbationModel.lognormal(0.25), rng=seed)
        assert res.schedule.is_complete()
        assert not validate(res.schedule, check_durations=False,
                            collect=True)
        assert res.makespan == res.schedule.length
