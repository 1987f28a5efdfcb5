"""Tests for the io package: STG format, DOT export, Gantt charts."""

import io as _io

import pytest

from repro import GraphError, Machine, TaskGraph, get_scheduler
from repro.io import dump_stg, dumps_stg, gantt, load_stg, loads_stg, to_dot


class TestSTGRoundTrip:
    def test_simple(self, kwok9):
        text = dumps_stg(kwok9)
        back = loads_stg(text, name=kwok9.name)
        assert back.num_nodes == kwok9.num_nodes
        assert back.edges() == kwok9.edges()
        assert back.weights.tolist() == kwok9.weights.tolist()

    def test_file_objects(self, kwok9):
        buf = _io.StringIO()
        dump_stg(kwok9, buf)
        buf.seek(0)
        back = load_stg(buf)
        assert back.num_edges == kwok9.num_edges

    def test_float_weights_preserved(self):
        g = TaskGraph([1.5, 2.25], {(0, 1): 0.125})
        back = loads_stg(dumps_stg(g))
        assert back.weight(0) == 1.5
        assert back.comm_cost(0, 1) == 0.125

    def test_comments_ignored(self):
        text = "# hello\n2\n0 1.0 0\n1 2.0 1 0 3.0  # trailing\n"
        g = loads_stg(text)
        assert g.num_nodes == 2
        assert g.comm_cost(0, 1) == 3.0

    def test_any_record_order(self):
        text = "2\n1 2.0 1 0 3.0\n0 1.0 0\n"
        g = loads_stg(text)
        assert g.weight(0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            loads_stg("")

    def test_truncated_rejected(self):
        with pytest.raises(GraphError):
            loads_stg("3\n0 1.0 0\n")

    def test_huge_declared_count_allocates_nothing(self):
        # Three bytes from a client must not buy a per-node array.
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="truncated"):
                loads_stg("1000000\n0 1.0 0\n")
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_bad_token_rejected(self):
        with pytest.raises(GraphError):
            loads_stg("1\n0 abc 0\n")

    def test_duplicate_node_rejected(self):
        with pytest.raises(GraphError):
            loads_stg("2\n0 1.0 0\n0 1.0 0\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            loads_stg("1\n5 1.0 0\n")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(GraphError):
            loads_stg("1\n0 1.0 0\n99\n")


class TestDot:
    def test_plain_graph(self, kwok9):
        text = to_dot(kwok9)
        assert text.startswith('digraph "psg-kwok-ahmad-9"')
        assert "0 -> 1" in text
        assert text.rstrip().endswith("}")

    def test_with_schedule_colours(self, kwok9):
        sched = get_scheduler("MCP").schedule(kwok9, Machine(3))
        text = to_dot(kwok9, sched)
        assert "fillcolor=" in text
        assert "P0@" in text or "P1@" in text


class TestGantt:
    def test_rows_per_used_proc(self, kwok9):
        sched = get_scheduler("MCP").schedule(kwok9, Machine(3))
        text = gantt(sched)
        rows = [l for l in text.splitlines() if l.startswith("P")]
        assert len(rows) == sched.processors_used()

    def test_empty_schedule(self, kwok9):
        from repro import Schedule

        assert "empty" in gantt(Schedule(kwok9, 2))

    def test_messages_listed(self, kwok9):
        from repro import NetworkMachine, Topology

        m = NetworkMachine(Topology.ring(4))
        sched = get_scheduler("MH").schedule(kwok9, m)
        text = gantt(sched, show_messages=True)
        if sched.messages:
            assert "messages:" in text

    def test_header_mentions_length(self, kwok9):
        sched = get_scheduler("MCP").schedule(kwok9, Machine(3))
        assert f"length={sched.length:g}" in gantt(sched)
