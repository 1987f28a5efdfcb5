"""Unit tests for shared list-scheduling machinery."""

import pytest

from repro import Machine, Schedule, TaskGraph
from repro.core.listsched import (
    ReadyTracker,
    StartOracle,
    best_proc_min_est,
    candidate_procs,
    est_on_proc,
)


@pytest.fixture
def diamond():
    return TaskGraph(
        [1.0, 2.0, 4.0, 1.0],
        {(0, 1): 3.0, (0, 2): 1.0, (1, 3): 2.0, (2, 3): 5.0},
        name="diamond",
    )


class TestReadyTracker:
    def test_initial_ready_is_entries(self, diamond):
        rt = ReadyTracker(diamond)
        assert rt.ready == {0}

    def test_release_children(self, diamond):
        rt = ReadyTracker(diamond)
        released = rt.mark_scheduled(0)
        assert set(released) == {1, 2}
        assert rt.ready == {1, 2}

    def test_join_waits_for_all_parents(self, diamond):
        rt = ReadyTracker(diamond)
        rt.mark_scheduled(0)
        assert rt.mark_scheduled(1) == []
        assert rt.mark_scheduled(2) == [3]

    def test_all_scheduled(self, diamond):
        rt = ReadyTracker(diamond)
        for n in (0, 1, 2, 3):
            assert not rt.all_scheduled()
            rt.mark_scheduled(n)
        assert rt.all_scheduled()

    def test_is_ready(self, diamond):
        rt = ReadyTracker(diamond)
        assert rt.is_ready(0)
        assert not rt.is_ready(3)

    def test_ready_view_is_frozen(self, diamond):
        # Regression: ``ready`` used to leak the internal mutable set —
        # a caller could .add()/.discard() and corrupt the tracker.
        rt = ReadyTracker(diamond)
        view = rt.ready
        assert isinstance(view, frozenset)
        with pytest.raises(AttributeError):
            view.add(3)
        with pytest.raises(AttributeError):
            view.discard(0)

    def test_ready_view_does_not_alias_tracker_state(self, diamond):
        rt = ReadyTracker(diamond)
        before = rt.ready
        rt.mark_scheduled(0)
        # The snapshot taken earlier must not mutate under the caller...
        assert before == {0}
        # ...and a fresh view reflects the new state.
        assert rt.ready == {1, 2}

    def test_iter_ready_matches_view(self, diamond):
        rt = ReadyTracker(diamond)
        rt.mark_scheduled(0)
        assert set(rt.iter_ready()) == rt.ready == {1, 2}

    def test_released_since_skips_placed_nodes(self, diamond):
        rt = ReadyTracker(diamond)
        assert rt.released_since(0) == ([0], 1)
        rt.mark_scheduled(0)
        assert rt.released_since(1) == ([1, 2], 3)
        rt.mark_scheduled(2)
        assert rt.released_since(1) == ([1], 3)
        assert rt.released_since(3) == ([], 3)

    def test_ready_mask_is_a_live_read_only_view(self, diamond):
        rt = ReadyTracker(diamond)
        mask = rt.ready_mask()
        assert mask.tolist() == [1, 0, 0, 0]
        rt.mark_scheduled(0)
        assert mask.tolist() == [0, 1, 1, 0]
        with pytest.raises(ValueError):
            mask[0] = 1


class TestCandidateProcs:
    def test_empty_schedule_single_candidate(self, diamond):
        s = Schedule(diamond, 5)
        assert candidate_procs(s) == [0]

    def test_used_plus_one(self, diamond):
        s = Schedule(diamond, 5)
        s.place(0, 1, 0.0)
        assert candidate_procs(s) == [0, 1]

    def test_all_used(self, diamond):
        s = Schedule(diamond, 2)
        s.place(0, 0, 0.0)
        s.place(1, 1, 4.0)
        assert candidate_procs(s) == [0, 1]


class TestEst:
    def test_est_includes_comm(self, diamond):
        s = Schedule(diamond, 2)
        s.place(0, 0, 0.0)
        assert est_on_proc(StartOracle(s), 1, 0, insertion=False) == 1.0
        assert est_on_proc(StartOracle(s), 1, 1, insertion=False) == 4.0

    def test_est_includes_proc_ready(self, diamond):
        s = Schedule(diamond, 2)
        s.place(0, 0, 0.0)
        s.place(2, 0, 1.0)  # occupies [1, 5)
        assert est_on_proc(StartOracle(s), 1, 0, insertion=False) == 5.0
        assert est_on_proc(StartOracle(s), 1, 0, insertion=True) == 5.0

    def test_best_proc_prefers_lower_id_on_tie(self, diamond):
        s = Schedule(diamond, 3)
        p, t = best_proc_min_est(StartOracle(s), 0, insertion=False)
        assert (p, t) == (0, 0.0)

    def test_best_proc_minimises(self, diamond):
        s = Schedule(diamond, 2)
        s.place(0, 0, 0.0)
        p, t = best_proc_min_est(StartOracle(s), 1, insertion=False)
        assert (p, t) == (0, 1.0)

    def test_best_proc_spills_when_busy(self, diamond):
        s = Schedule(diamond, 2)
        s.place(0, 0, 0.0)
        s.place(2, 0, 1.0)  # P0 busy until 5
        p, t = best_proc_min_est(StartOracle(s), 1, insertion=False)
        assert (p, t) == (1, 4.0)  # comm 3 beats waiting to 5
