"""Tests for mapping simulation (cluster timing, fixed sequences)."""

import pytest

from repro import ScheduleError, TaskGraph, validate
from repro.algorithms.mapping import (
    mapping_makespan,
    schedule_from_mapping,
    simulate_fixed_sequences,
)


@pytest.fixture
def diamond():
    return TaskGraph(
        [1.0, 2.0, 4.0, 1.0],
        {(0, 1): 3.0, (0, 2): 1.0, (1, 3): 2.0, (2, 3): 5.0},
        name="diamond",
    )


class TestMappingMakespan:
    def test_all_one_proc_is_serial(self, diamond):
        assert mapping_makespan(diamond, [0, 0, 0, 0]) == pytest.approx(8.0)

    def test_fully_distributed(self, diamond):
        # 0 at 0-1; 1 from 4-6 (comm 3); 2 from 2-6 (comm 1);
        # 3 from max(6+2, 6+5)=11 to 12.
        assert mapping_makespan(diamond, [0, 1, 2, 3]) == pytest.approx(12.0)

    def test_partial_clustering(self, diamond):
        # {0, 2, 3} together, 1 alone: 0:0-1, 2:1-5, 1:4-6 (comm 3),
        # 3: max(5, 6+2)=8-9.
        assert mapping_makespan(diamond, [0, 1, 0, 0]) == pytest.approx(9.0)

    def test_matches_schedule_from_mapping(self, diamond):
        for mapping in ([0, 0, 0, 0], [0, 1, 2, 3], [0, 1, 0, 0],
                        [0, 0, 1, 1]):
            mk = mapping_makespan(diamond, mapping)
            sched = schedule_from_mapping(diamond, mapping, 4)
            validate(sched)
            assert sched.length == pytest.approx(mk)

    def test_arbitrary_labels_compacted(self, diamond):
        sched = schedule_from_mapping(diamond, [7, 42, 7, 7], 4)
        validate(sched)
        assert sched.processors_used() == 2

    def test_too_many_clusters_rejected(self, diamond):
        with pytest.raises(ScheduleError):
            schedule_from_mapping(diamond, [0, 1, 2, 3], 2)


class TestFixedSequences:
    def test_respects_sequence_order(self, diamond):
        sched = simulate_fixed_sequences(diamond, [[0, 2, 1, 3], []], 2)
        validate(sched)
        # Sequence forces 1 after 2 on the same processor.
        assert sched.start_of(1) >= sched.finish_of(2) - 1e-9

    def test_two_procs(self, diamond):
        sched = simulate_fixed_sequences(diamond, [[0, 1], [2, 3]], 2)
        validate(sched)
        assert sched.proc_of(2) == 1

    def test_inconsistent_order_recovers(self, diamond):
        # Descendant queued before ancestor on one processor: the
        # fallback re-sorts by topological index instead of failing.
        sched = simulate_fixed_sequences(diamond, [[3, 0, 1, 2], []], 2)
        validate(sched)

    def test_missing_node_rejected(self, diamond):
        with pytest.raises(ScheduleError):
            simulate_fixed_sequences(diamond, [[0, 1], [2]], 2)

    @pytest.mark.parametrize("sequences", [
        [[0, 1], [2, 3, 1]],   # every node placed, node 1 listed again
        [[0, 1, 2, 3], [1]],   # a second sequence repeats node 1 alone
    ])
    def test_node_listed_twice_rejected(self, diamond, sequences):
        with pytest.raises(ScheduleError, match="node 1 appears twice"):
            simulate_fixed_sequences(diamond, sequences, 2)

    def test_idle_gap_when_waiting(self):
        g = TaskGraph([1.0, 1.0, 5.0], {(0, 1): 10.0}, name="gap")
        sched = simulate_fixed_sequences(g, [[0], [1, 2]], 2)
        validate(sched)
        # 1 waits for comm until 11; 2 queued behind it in sequence.
        assert sched.start_of(1) == pytest.approx(11.0)
        assert sched.start_of(2) == pytest.approx(12.0)
