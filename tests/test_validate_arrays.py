"""``validate``'s array proof against the per-task violation iterator.

On a clique, ``validate`` first runs ``_proves_valid``, array
operations over the flat node mirrors, the timelines and the CSR, and
returns when they prove the schedule valid; anything else goes to
``_iter_violations``, which decides and reports.  The property feeds
both valid schedules and corrupted ones (shifted starts, a processor
swap, a wrong duration, a dropped placement, an overlap, a negative
start; heterogeneous speeds; ``check_durations`` on and off) and
requires that the array pass proves a schedule valid exactly when the
iterator yields nothing, and that ``validate``'s collected list and
raised message are the iterator's.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Machine, NetworkMachine, Topology, get_scheduler
from repro.core import schedule as schedule_module
from repro.core.exceptions import ScheduleError
from repro.core.schedule import (
    Placement,
    Schedule,
    _iter_violations,
    _proves_valid,
    validate,
)

from strategies import task_graphs

SCHEDULERS = ("HLFET", "ISH", "MCP", "ETF", "DLS", "LAST")
#: Shifts around both tolerances (1e-9 for starts and overlap, 1e-6
#: for durations and precedence) and well past them.
DELTAS = (0.5e-9, 2e-9, 0.5e-6, 2e-6, 0.25, 1.0, 7.0)


def _replace(schedule: Schedule, node: int, proc: int, start: float,
             duration: float | None = None) -> None:
    """Move ``node``; put it back where it was when ``place`` refuses."""
    old = schedule.unplace(node)
    try:
        schedule.place(node, proc, start, duration)
    except ScheduleError:
        schedule.place(node, old.proc, old.start,
                       old.finish - old.start)


def _shift(schedule: Schedule, node: int, delta: float) -> None:
    pl = schedule.placement(node)
    _replace(schedule, node, pl.proc, pl.start + delta,
             pl.finish - pl.start)


def _swap(schedule: Schedule, node: int, delta: float) -> None:
    """Same start on the next processor, or after its last task."""
    pl = schedule.placement(node)
    proc = (pl.proc + 1) % schedule.num_procs
    start = pl.start if delta < 1 else max(pl.start,
                                           schedule.proc_ready_time(proc))
    _replace(schedule, node, proc, start)


def _duration(schedule: Schedule, node: int, delta: float) -> None:
    pl = schedule.placement(node)
    _replace(schedule, node, pl.proc, pl.start,
             max(0.0, pl.finish - pl.start + delta))


def _edit(schedule: Schedule, node: int, start: float,
          finish: float) -> None:
    """Set ``node``'s start and finish in place, refusals aside.

    ``place`` refuses overlaps and starts before ``-1e-9``, so these
    edits write every store that holds the times (timeline, flat
    mirrors and ``Placement``), keeping them in agreement as the
    sanitizer's mirror check requires.  The timeline must stay sorted.
    """
    proc = schedule.placement(node).proc
    k = schedule._nodes[proc].index(node)
    schedule._starts[proc][k] = schedule._node_start[node] = start
    schedule._finishes[proc][k] = schedule._node_finish[node] = finish
    schedule._placements[node] = Placement(node, proc, start, finish)


def _overlap(schedule: Schedule, node: int, delta: float) -> None:
    """Stretch ``node`` into the task after it on its processor."""
    pl = schedule.placement(node)
    _edit(schedule, node, pl.start, pl.finish + delta)


def _negative(schedule: Schedule, node: int, delta: float) -> None:
    """Start the first task on ``node``'s processor at ``-delta``."""
    first = schedule.placement(schedule._nodes[schedule.proc_of(node)][0])
    _edit(schedule, first.node, -delta, first.finish)


def _drop(schedule: Schedule, node: int, _delta: float) -> None:
    schedule.unplace(node)


CORRUPTIONS = {"shift": _shift, "swap": _swap, "duration": _duration,
               "drop": _drop}
#: Corruptions ``place`` would refuse; applied last, see ``_edit``.
EDITS = {"overlap": _overlap, "negative": _negative}


@st.composite
def schedules(draw):
    graph = draw(task_graphs(min_nodes=2, max_nodes=14))
    procs = draw(st.integers(1, 4))
    speeds = draw(st.none() | st.lists(
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), min_size=procs,
        max_size=procs))
    machine = Machine(procs, speeds=speeds)
    schedule = get_scheduler(draw(st.sampled_from(SCHEDULERS))).schedule(
        graph, machine)
    applied: List[str] = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(sorted(CORRUPTIONS)))
        scheduled = [n for n in graph.nodes() if schedule.is_scheduled(n)]
        if not scheduled:
            break
        node = draw(st.sampled_from(scheduled))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        CORRUPTIONS[kind](schedule, node, sign * draw(st.sampled_from(DELTAS)))
        applied.append(kind)
    edit = draw(st.sampled_from([None, *sorted(EDITS)]))
    busy = [n for n in graph.nodes() if schedule.is_scheduled(n)]
    if edit is not None and busy:
        EDITS[edit](schedule, draw(st.sampled_from(busy)),
                    draw(st.sampled_from(DELTAS)))
        applied.append(edit)
    return schedule, applied


def _messages(schedule: Schedule, check_durations: bool) -> List[str]:
    return [v.message for v in _iter_violations(
        schedule, network=None, check_durations=check_durations)]


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=schedules(), check_durations=st.booleans())
def test_array_proof_agrees_with_the_iterator(case, check_durations):
    schedule, _applied = case
    expected = list(_iter_violations(schedule, network=None,
                                     check_durations=check_durations))
    assert _proves_valid(schedule, check_durations) == (not expected)
    assert validate(schedule, collect=True,
                    check_durations=check_durations) == expected
    if expected:
        with pytest.raises(ScheduleError) as err:
            validate(schedule, check_durations=check_durations)
        assert str(err.value) == expected[0].message
    else:
        assert validate(schedule, check_durations=check_durations) is None


@pytest.mark.parametrize("kind", [*CORRUPTIONS, *EDITS])
def test_every_corruption_breaks_some_schedule(kind):
    """Each corruption, on some node of a 30-node schedule, is seen.

    Every attempt must also keep the proof and the iterator in step,
    the small shifts included: they land on either side of a tolerance.
    """
    from repro.generators.random_graphs import rgnos_graph

    corrupt = {**CORRUPTIONS, **EDITS}[kind]
    graph = rgnos_graph(30, 10.0, 3, seed=4)  # idle gaps to shift into
    broken = 0
    for node in graph.nodes():
        for delta in (-2e-6, -0.5e-6, -2e-9, -1.0, 0.5, 7.0):
            schedule = get_scheduler("MCP").schedule(graph, Machine(3))
            corrupt(schedule, node, delta)
            found = _messages(schedule, True)
            assert _proves_valid(schedule, True) == (not found)
            broken += bool(found)
    assert broken, kind


def test_the_proof_runs_from_the_size_gate_up(monkeypatch):
    """Small schedules go straight to the iterator; larger ones try the
    proof first, with the same result either way."""
    from repro.generators.random_graphs import rgnos_graph

    seen: List[int] = []

    def spy(schedule, check_durations):
        seen.append(schedule.graph.num_nodes)
        return _proves_valid(schedule, check_durations)

    monkeypatch.setattr(schedule_module, "_proves_valid", spy)
    for v in (4, 12, 40):
        graph = rgnos_graph(v, 1.0, 2, seed=v)
        schedule = get_scheduler("MCP").schedule(graph, Machine(3))
        assert validate(schedule, collect=True) == []
        size = graph.num_nodes + graph.num_edges
        assert (v in seen) == (size >= schedule_module._PROOF_MIN_SIZE)
    assert seen == [40]


def test_network_schedules_skip_the_array_pass(monkeypatch):
    """Message and channel checks stay with the iterator alone."""
    from repro.generators.random_graphs import rgnos_graph

    graph = rgnos_graph(20, 1.0, 3, seed=2)
    machine = NetworkMachine(Topology.hypercube(2))
    schedule = get_scheduler("MH").schedule(graph, machine)

    def refuse(*_args, **_kwargs):
        raise AssertionError("array pass ran on a network schedule")

    monkeypatch.setattr(schedule_module, "_proves_valid", refuse)
    assert validate(schedule, network=machine.topology, collect=True) == []
