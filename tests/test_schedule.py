"""Unit tests for Schedule: placement, slot search, validation."""

import pytest

from repro import Machine, Schedule, ScheduleError, TaskGraph, validate
from repro.core.schedule import Message


@pytest.fixture
def g3():
    return TaskGraph([2.0, 3.0, 4.0], {(0, 1): 5.0, (0, 2): 1.0}, name="g3")


class TestPlacement:
    def test_place_and_query(self, g3):
        s = Schedule(g3, 2)
        pl = s.place(0, 0, 0.0)
        assert pl.finish == 2.0
        assert s.is_scheduled(0)
        assert s.proc_of(0) == 0
        assert s.start_of(0) == 0.0
        assert s.finish_of(0) == 2.0

    def test_double_placement_rejected(self, g3):
        s = Schedule(g3, 2)
        s.place(0, 0, 0.0)
        with pytest.raises(ScheduleError):
            s.place(0, 1, 5.0)

    def test_bad_proc_rejected(self, g3):
        s = Schedule(g3, 2)
        with pytest.raises(ScheduleError):
            s.place(0, 2, 0.0)

    @pytest.mark.parametrize("node", [-1, 3])
    @pytest.mark.parametrize("duration", [None, 1.0])
    def test_bad_node_rejected_before_any_change(self, g3, node, duration):
        s = Schedule(g3, 2)
        with pytest.raises(ScheduleError, match="out of range"):
            s.place(node, 0, 0.0, duration=duration)
        assert s.num_scheduled == 0 and s.processors_used() == 0
        assert s.revision(0) == 0 and s.tasks_on(0) == []
        s.place(0, 0, 0.0)
        s.place(1, 0, 2.0)
        assert not s.is_complete()
        assert validate(s, collect=True)[0].code == "incomplete"

    def test_negative_start_rejected(self, g3):
        s = Schedule(g3, 2)
        with pytest.raises(ScheduleError):
            s.place(0, 0, -1.0)

    def test_overlap_rejected(self, g3):
        s = Schedule(g3, 1)
        s.place(0, 0, 0.0)
        with pytest.raises(ScheduleError):
            s.place(1, 0, 1.0)  # overlaps [0, 2)

    def test_overlap_before_rejected(self, g3):
        s = Schedule(g3, 1)
        s.place(1, 0, 2.0)  # [2, 5)
        with pytest.raises(ScheduleError):
            s.place(2, 0, 1.0)  # [1, 5) overlaps

    def test_abutting_tasks_allowed(self, g3):
        s = Schedule(g3, 1)
        s.place(0, 0, 0.0)
        s.place(1, 0, 2.0)
        assert s.length == 5.0

    def test_unplace(self, g3):
        s = Schedule(g3, 1)
        s.place(0, 0, 0.0)
        s.place(1, 0, 2.0)
        s.unplace(1)
        assert not s.is_scheduled(1)
        assert s.length == 2.0
        s.place(1, 0, 2.0)  # can re-place

    def test_unplace_missing(self, g3):
        s = Schedule(g3, 1)
        with pytest.raises(ScheduleError):
            s.unplace(0)

    def test_length_and_procs_used(self, g3):
        s = Schedule(g3, 3)
        assert s.length == 0.0
        s.place(0, 1, 0.0)
        s.place(1, 2, 7.0)
        assert s.length == 10.0
        assert s.processors_used() == 2
        assert s.used_proc_ids() == [1, 2]

    def test_tasks_on_sorted(self, g3):
        s = Schedule(g3, 1)
        s.place(1, 0, 6.0)
        s.place(0, 0, 0.0)
        assert [p.node for p in s.tasks_on(0)] == [0, 1]


class TestSlotSearch:
    def test_empty_proc(self, g3):
        s = Schedule(g3, 1)
        assert s.earliest_slot(0, 3.0, 2.0) == 3.0

    def test_non_insertion_appends(self, g3):
        s = Schedule(g3, 1)
        s.place(1, 0, 0.0)  # [0, 3)
        assert s.earliest_slot(0, 0.0, 2.0, insertion=False) == 3.0

    def test_insertion_before_first(self, g3):
        s = Schedule(g3, 1)
        s.place(1, 0, 5.0)  # [5, 8)
        assert s.earliest_slot(0, 0.0, 2.0, insertion=True) == 0.0

    def test_insertion_between(self, g3):
        s = Schedule(g3, 1)
        s.place(0, 0, 0.0)   # [0, 2)
        s.place(1, 0, 6.0)   # [6, 9)
        assert s.earliest_slot(0, 0.0, 4.0, insertion=True) == 2.0

    def test_insertion_gap_too_small(self, g3):
        s = Schedule(g3, 1)
        s.place(0, 0, 0.0)   # [0, 2)
        s.place(1, 0, 5.0)   # [5, 8)
        # Gap [2,5) is 3 wide; need 4 -> append at 8.
        assert s.earliest_slot(0, 0.0, 4.0, insertion=True) == 8.0

    def test_insertion_respects_est(self, g3):
        s = Schedule(g3, 1)
        s.place(0, 0, 0.0)   # [0, 2)
        s.place(1, 0, 10.0)  # [10, 13)
        assert s.earliest_slot(0, 4.0, 4.0, insertion=True) == 4.0

    def test_negative_duration_rejected(self, g3):
        s = Schedule(g3, 1)
        with pytest.raises(ScheduleError):
            s.earliest_slot(0, 0.0, -1.0)


class TestDataReadyTime:
    def test_same_proc_no_comm(self, g3):
        s = Schedule(g3, 2)
        s.place(0, 0, 0.0)
        assert s.data_ready_time(1, 0) == 2.0
        assert s.data_ready_time(1, 1) == 7.0  # + comm 5

    def test_unscheduled_parent_raises(self, g3):
        s = Schedule(g3, 2)
        with pytest.raises(ScheduleError):
            s.data_ready_time(1, 0)


class TestValidation:
    def _full(self, g3, same_proc=True):
        s = Schedule(g3, 2)
        s.place(0, 0, 0.0)
        if same_proc:
            s.place(1, 0, 2.0)
        else:
            s.place(1, 1, 7.0)
        s.place(2, 0, 5.0 if same_proc else 3.0)
        return s

    def test_valid_passes(self, g3):
        validate(self._full(g3))
        validate(self._full(g3, same_proc=False))

    def test_incomplete_fails(self, g3):
        s = Schedule(g3, 2)
        s.place(0, 0, 0.0)
        with pytest.raises(ScheduleError, match="incomplete"):
            validate(s)

    def test_comm_violation_fails(self, g3):
        s = Schedule(g3, 2)
        s.place(0, 0, 0.0)
        s.place(1, 1, 3.0)  # needs 2 + 5 = 7 on another proc
        s.place(2, 0, 2.0)
        with pytest.raises(ScheduleError, match="before its input"):
            validate(s)

    def test_precedence_violation_same_proc_fails(self, g3):
        s = Schedule(g3, 2)
        s.place(1, 0, 0.0)   # child first
        s.place(0, 0, 3.0)
        s.place(2, 1, 6.0)
        with pytest.raises(ScheduleError, match="before its input"):
            validate(s)

    def test_network_requires_messages(self, g3):
        from repro import Topology

        topo = Topology.ring(2)
        s = Schedule(g3, 2)
        s.place(0, 0, 0.0)
        s.place(1, 1, 7.0)
        s.place(2, 0, 2.0)
        with pytest.raises(ScheduleError, match="no message"):
            validate(s, network=topo)

    def test_network_message_accepted(self, g3):
        from repro import Topology

        topo = Topology.ring(2)
        s = Schedule(g3, 2)
        s.place(0, 0, 0.0)
        s.record_message(
            Message(0, 1, (0, 1), [((0, 1), 2.0, 7.0)], 7.0)
        )
        s.place(1, 1, 7.0)
        s.place(2, 0, 2.0)
        validate(s, network=topo)

    def test_network_overlapping_channel_fails(self, g3):
        from repro import Topology

        g = TaskGraph([1.0, 1.0, 1.0, 1.0],
                      {(0, 2): 5.0, (1, 3): 5.0}, name="x")
        topo = Topology.ring(2)
        s = Schedule(g, 2)
        s.place(0, 0, 0.0)
        s.place(1, 0, 1.0)
        s.record_message(Message(0, 2, (0, 1), [((0, 1), 1.0, 6.0)], 6.0))
        s.record_message(Message(1, 3, (0, 1), [((0, 1), 2.0, 7.0)], 7.0))
        s.place(2, 1, 6.0)
        s.place(3, 1, 7.0)
        with pytest.raises(ScheduleError, match="overlap on channel"):
            validate(s, network=topo)

    def test_message_wrong_route_fails(self, g3):
        from repro import Topology

        topo = Topology.ring(2)
        s = Schedule(g3, 2)
        s.place(0, 0, 0.0)
        s.record_message(Message(0, 1, (1, 0), [((1, 0), 2.0, 7.0)], 7.0))
        s.place(1, 1, 7.0)
        s.place(2, 0, 2.0)
        with pytest.raises(ScheduleError, match="route endpoints"):
            validate(s, network=topo)

    def test_message_hop_duration_fails(self, g3):
        from repro import Topology

        topo = Topology.ring(2)
        s = Schedule(g3, 2)
        s.place(0, 0, 0.0)
        s.record_message(Message(0, 1, (0, 1), [((0, 1), 2.0, 4.0)], 4.0))
        s.place(1, 1, 7.0)
        s.place(2, 0, 2.0)
        with pytest.raises(ScheduleError, match="edge cost"):
            validate(s, network=topo)

    def test_to_dict(self, g3):
        s = self._full(g3)
        d = s.to_dict()
        assert d[0] == (0, 0.0, 2.0)
        assert len(d) == 3
