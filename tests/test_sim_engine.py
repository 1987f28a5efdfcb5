"""Discrete-event engine: exact replay, noise semantics, backends."""

import numpy as np
import pytest

from repro import Machine, NetworkMachine, Schedule, Topology, get_scheduler
from repro.core.exceptions import ScheduleError
from repro.core.rng import as_generator, derive_rng, seed_label
from repro.core.schedule import validate
from repro.generators.psg import kwok_ahmad_9
from repro.generators.random_graphs import rgnos_graph
from repro.sim import (
    DETERMINISTIC,
    ContentionNetwork,
    Dist,
    FixedDelayNetwork,
    InstantNetwork,
    PerturbationModel,
    RecordedDelays,
    perturbation_from_dict,
    replay_network,
    simulate,
)


def _schedule(alg="MCP", graph=None, machine=None):
    graph = graph if graph is not None else kwok_ahmad_9()
    machine = machine or Machine.unbounded(graph)
    return get_scheduler(alg).schedule(graph, machine)


# ----------------------------------------------------------------------
# exact replay (the zero-noise anchor)
# ----------------------------------------------------------------------
class TestExactReplay:
    ALGS = ["HLFET", "ISH", "MCP", "ETF", "DLS", "LAST",
            "EZ", "LC", "DSC", "MD", "DCP"]

    @pytest.mark.parametrize("alg", ALGS)
    def test_clique_schedules_reproduce_exactly(self, alg):
        graph = rgnos_graph(40, 1.0, 3, seed=17)
        sched = _schedule(alg, graph)
        res = simulate(sched)
        assert res.makespan == pytest.approx(sched.length)
        assert res.degradation_pct == pytest.approx(0.0)
        for v in range(graph.num_nodes):
            assert res.schedule.proc_of(v) == sched.proc_of(v)
            assert res.schedule.start_of(v) == pytest.approx(
                sched.start_of(v))
            assert res.schedule.finish_of(v) == pytest.approx(
                sched.finish_of(v))

    @pytest.mark.parametrize("alg", ["MH", "DLS-APN", "BU", "BSA"])
    def test_apn_schedules_reproduce_exactly(self, alg):
        graph = kwok_ahmad_9()
        sched = _schedule(alg, graph, NetworkMachine(Topology.hypercube(2)))
        res = simulate(sched)  # auto-picks the recorded-message backend
        assert isinstance(replay_network(sched),
                          (RecordedDelays, FixedDelayNetwork))
        for v in range(graph.num_nodes):
            assert res.schedule.start_of(v) == pytest.approx(
                sched.start_of(v))

    def test_bounded_and_heterogeneous_machines(self):
        graph = rgnos_graph(30, 1.0, 2, seed=5)
        for machine in (Machine(3), Machine(3, speeds=[1.0, 2.0, 4.0])):
            sched = _schedule("MCP", graph, machine)
            res = simulate(sched)
            assert res.makespan == pytest.approx(sched.length)

    def test_replay_is_a_valid_schedule(self):
        sched = _schedule("MCP")
        res = simulate(sched)
        validate(res.schedule)  # zero noise: even durations match

    def test_incomplete_schedule_rejected(self):
        graph = kwok_ahmad_9()
        partial = Schedule(graph, 2)
        partial.place(0, 0, 0.0)
        with pytest.raises(ScheduleError):
            simulate(partial)


# ----------------------------------------------------------------------
# noise semantics
# ----------------------------------------------------------------------
class TestNoise:
    def test_same_seed_same_trial(self):
        sched = _schedule("HLFET", rgnos_graph(30, 1.0, 3, seed=3))
        noise = PerturbationModel.lognormal(0.3)
        a = simulate(sched, perturb=noise, rng=42)
        b = simulate(sched, perturb=noise, rng=42)
        assert a.makespan == b.makespan
        assert a.schedule.to_dict() == b.schedule.to_dict()

    def test_different_seeds_differ(self):
        sched = _schedule("HLFET", rgnos_graph(30, 1.0, 3, seed=3))
        noise = PerturbationModel.lognormal(0.3)
        lengths = {simulate(sched, perturb=noise, rng=s).makespan
                   for s in range(8)}
        assert len(lengths) > 1

    def test_noisy_replay_keeps_mapping_and_order(self):
        sched = _schedule("MCP", rgnos_graph(30, 1.0, 3, seed=3))
        res = simulate(sched, perturb=PerturbationModel.uniform(0.4), rng=1)
        for v in range(sched.graph.num_nodes):
            assert res.schedule.proc_of(v) == sched.proc_of(v)
        for p in range(sched.num_procs):
            assert ([pl.node for pl in res.schedule.tasks_on(p)]
                    == [pl.node for pl in sched.tasks_on(p)])
        # Executed timeline is precedence- and overlap-consistent under
        # duration-only noise (clique delays are preserved).
        validate(res.schedule, check_durations=False)

    def test_speed_jitter_scales_whole_processors(self):
        graph = rgnos_graph(30, 1.0, 3, seed=3)
        sched = _schedule("MCP", graph, Machine(2))
        noise = PerturbationModel(speed=Dist("uniform", 0.5))
        res = simulate(sched, perturb=noise, rng=9)
        # Within one processor every task shares the trial's speed
        # factor: executed/base duration is constant per processor.
        for p in range(2):
            ratios = set()
            for pl in res.schedule.tasks_on(p):
                base = sched.duration_of(pl.node, p)
                ratios.add(round((pl.finish - pl.start) / base, 9))
            assert len(ratios) == 1

    def test_comm_noise_requires_cross_proc_messages(self):
        graph = kwok_ahmad_9()
        sched = _schedule("MCP", graph, Machine(4))
        noise = PerturbationModel(comm=Dist("uniform", 0.9))
        lengths = {simulate(sched, perturb=noise, rng=s).makespan
                   for s in range(6)}
        assert len(lengths) > 1  # kwok9 schedules do communicate


# ----------------------------------------------------------------------
# network backends
# ----------------------------------------------------------------------
class TestBackends:
    def test_instant_never_slower_than_fixed(self):
        sched = _schedule("MCP", rgnos_graph(40, 10.0, 3, seed=7))
        inst = simulate(sched, network=InstantNetwork()).makespan
        fixed = simulate(sched, network=FixedDelayNetwork()).makespan
        assert inst <= fixed
        assert fixed == pytest.approx(sched.length)

    def test_fixed_latency_slows_execution(self):
        sched = _schedule("MCP", rgnos_graph(40, 1.0, 3, seed=7))
        base = simulate(sched, network=FixedDelayNetwork()).makespan
        slow = simulate(
            sched, network=FixedDelayNetwork(latency=25.0)).makespan
        assert slow >= base

    def test_zero_cost_cross_proc_edges_still_pay_latency(self):
        # A free edge is a real message: backends with per-message
        # latency must charge it (only same-processor data is free).
        from repro.core.graph import TaskGraph

        g = TaskGraph([5.0, 5.0], {(0, 1): 0.0}, name="free-edge")
        sched = Schedule(g, 2)
        sched.place(0, 0, 0.0)
        sched.place(1, 1, 5.0)
        res = simulate(sched, network=FixedDelayNetwork(latency=25.0))
        assert res.schedule.start_of(1) == pytest.approx(30.0)
        # ...while the default clique backend keeps zero-noise replay
        # exact: a zero-cost message arrives instantly.
        assert simulate(sched).makespan == pytest.approx(sched.length)

    def test_contention_backend_serialises_channels(self):
        graph = kwok_ahmad_9()
        topo = Topology.hypercube(2)
        sched = _schedule("MCP", graph, Machine(4))
        res = simulate(sched, network=ContentionNetwork(topo))
        # With fixed orders, contention can only delay data relative to
        # zero-time transport, and delays propagate monotonically.
        instant = simulate(sched, network=InstantNetwork()).makespan
        assert res.makespan >= instant
        # Committed messages carry hop reservations on real channels.
        hops = [h for m in res.schedule.messages.values() for h in m.hops]
        assert hops
        for (a, b), s, f in hops:
            assert topo.has_link(a, b) and f > s
        validate(res.schedule, network=topo, check_durations=False)

    def test_network_fingerprints_distinct(self):
        fps = {InstantNetwork().fingerprint(),
               FixedDelayNetwork().fingerprint(),
               FixedDelayNetwork(scale=2.0).fingerprint(),
               ContentionNetwork(Topology.hypercube(2)).fingerprint()}
        assert len(fps) == 4

    def test_contention_fingerprint_bytes_are_pinned(self):
        # Sim stores key their rows on these exact strings.
        assert ContentionNetwork(Topology.hypercube(2)).fingerprint() == (
            "contention:hypercube-2:4p:5e6c7d16391c")
        assert ContentionNetwork(
            Topology.ring(4).with_bandwidth(2.0)).fingerprint() == (
            "contention:ring-4:4p:385b33eb401b:bw=2")

    def test_network_from_spec(self):
        from repro.sim import network_from_spec

        assert network_from_spec("auto") is None
        assert isinstance(network_from_spec("instant"), InstantNetwork)
        fixed = network_from_spec("fixed", scale=2.0, latency=3.0)
        assert (fixed.scale, fixed.latency) == (2.0, 3.0)
        topo = Topology.ring(4)
        assert network_from_spec("contention",
                                 topology=topo).topology is topo
        with pytest.raises(ValueError, match="needs a topology"):
            network_from_spec("contention")
        with pytest.raises(ValueError, match="unknown network"):
            network_from_spec("wormhole")

    def test_fixed_delay_rejects_negative_params(self):
        with pytest.raises(ValueError):
            FixedDelayNetwork(scale=-1.0)

    def test_recorded_delays_fall_back_to_edge_cost(self):
        sched = _schedule("MCP", machine=Machine(3))
        backend = RecordedDelays(sched)  # clique run: nothing recorded
        arrival, msg = backend.arrival(0, 1, 0, 1, 10.0, 4.0)
        assert arrival == pytest.approx(14.0) and msg is None


# ----------------------------------------------------------------------
# perturbation models and distributions
# ----------------------------------------------------------------------
class TestPerturb:
    def test_dist_validation(self):
        with pytest.raises(ValueError):
            Dist("exponential", 0.5)
        with pytest.raises(ValueError):
            Dist("uniform", 1.5)
        with pytest.raises(ValueError):
            Dist("normal", -0.1)

    @pytest.mark.parametrize("kind", ["uniform", "normal", "lognormal"])
    def test_dist_mean_one(self, kind):
        rng = np.random.default_rng(0)
        samples = Dist(kind, 0.3).sample(rng, 20_000)
        assert samples.mean() == pytest.approx(1.0, abs=0.02)
        assert (samples > 0).all()

    def test_zero_param_is_identity(self):
        rng = np.random.default_rng(0)
        assert (Dist("uniform", 0.0).sample(rng, 5) == 1.0).all()

    def test_deterministic_model(self):
        assert DETERMINISTIC.is_deterministic
        assert DETERMINISTIC.fingerprint() == "deterministic"
        noise = DETERMINISTIC.begin_trial(np.random.default_rng(0), 4, 2)
        assert noise.duration(0, 0, 7.5) == 7.5
        assert noise.comm_factor() == 1.0

    def test_from_dict_round_trip(self):
        model = PerturbationModel(
            duration=Dist("lognormal", 0.3), comm=Dist("uniform", 0.2))
        assert perturbation_from_dict(model.to_dict()) == model

    def test_from_dict_rejects_bad_input(self):
        with pytest.raises(ValueError):
            perturbation_from_dict({"wall_clock": {}})
        with pytest.raises(ValueError):
            perturbation_from_dict({"duration": {"dist": "nope",
                                                 "param": 1}})
        with pytest.raises(ValueError):
            perturbation_from_dict({"duration": {"dist": "uniform",
                                                 "param": 0.2,
                                                 "extra": 1}})

    def test_fingerprints_distinguish_models(self):
        fps = {PerturbationModel.uniform(0.2).fingerprint(),
               PerturbationModel.normal(0.2).fingerprint(),
               PerturbationModel.lognormal(0.2).fingerprint(),
               PerturbationModel.lognormal(0.3).fingerprint(),
               DETERMINISTIC.fingerprint()}
        assert len(fps) == 5


# ----------------------------------------------------------------------
# rng helpers
# ----------------------------------------------------------------------
class TestRngHelpers:
    def test_as_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert as_generator(rng) is rng

    def test_as_generator_int_matches_default_rng(self):
        a = as_generator(5).integers(0, 100, 10)
        b = np.random.default_rng(5).integers(0, 100, 10)
        assert (a == b).all()

    def test_seed_label(self):
        assert seed_label(7) == "7"
        assert seed_label(None) == "0"
        rng = np.random.default_rng(0)
        label = seed_label(rng)
        assert label.startswith("rng-")
        assert seed_label(rng) == label  # no draw => state unchanged
        rng.integers(0, 10)
        assert seed_label(rng) != label  # draws advance the label

    def test_derive_rng_stable_and_keyed(self):
        a = derive_rng(1, "mc", "MCP", "g").integers(0, 1000, 5)
        b = derive_rng(1, "mc", "MCP", "g").integers(0, 1000, 5)
        c = derive_rng(1, "mc", "ISH", "g").integers(0, 1000, 5)
        d = derive_rng(2, "mc", "MCP", "g").integers(0, 1000, 5)
        assert (a == b).all()
        assert not (a == c).all() or not (a == d).all()


# ----------------------------------------------------------------------
# degradation contract and stall diagnostics
# ----------------------------------------------------------------------
class TestDegradationContract:
    def test_zero_for_exact_replay(self):
        res = simulate(_schedule())
        assert res.degradation_pct == pytest.approx(0.0)

    def test_corrupt_prediction_raises_instead_of_zero(self):
        # A non-positive prediction for a real graph is corrupt input;
        # returning 0.0 would silently report "no degradation".
        from repro.sim.engine import SimResult

        base = simulate(_schedule())
        corrupt = SimResult(schedule=base.schedule, predicted=0.0,
                            makespan=base.makespan,
                            num_events=base.num_events)
        with pytest.raises(ScheduleError, match="not positive"):
            corrupt.degradation_pct
        negative = SimResult(schedule=base.schedule, predicted=-1.0,
                             makespan=base.makespan,
                             num_events=base.num_events)
        with pytest.raises(ScheduleError, match="not positive"):
            negative.degradation_pct


class TestStallDiagnostics:
    def test_stall_error_names_task_processor_and_inputs(self):
        # A chain placed in reverse order on one processor can never
        # replay: the head waits forever on its unexecuted predecessor.
        from repro import TaskGraph

        g = TaskGraph([2.0, 3.0], {(0, 1): 1.0}, name="reversed-chain")
        sched = Schedule(g, 1)
        sched.place(1, 0, 0.0)
        sched.place(0, 0, 3.0)
        with pytest.raises(ScheduleError) as err:
            simulate(sched)
        text = str(err.value)
        assert "replay stalled" in text
        assert "stalled" in text and "P0" in text
        assert "[0]" in text  # the blocking predecessor, by name


class TestEventCountPins:
    """The event loop emits exactly one FINISH per task and one ARRIVAL
    per cross-processor edge — pinned so refactors of the re-entry
    points cannot silently double-process events."""

    @pytest.mark.parametrize("alg", ["HLFET", "MCP", "ETF"])
    def test_event_counts_on_golden_corpus(self, alg):
        from differential_corpus import build_machine, corpus_graphs

        for graph in list(corpus_graphs())[:10]:
            machine = build_machine("p4", graph)
            sched = get_scheduler(alg).schedule(graph, machine)
            res = simulate(sched)
            cross = sum(1 for u, v, _ in graph.edges()
                        if sched.proc_of(u) != sched.proc_of(v))
            assert res.num_events == graph.num_nodes + cross, graph.name
