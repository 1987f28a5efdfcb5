"""Metamorphic property: every scheduler is scale-invariant.

Multiplying every computation and communication cost by an integer
``k`` must multiply the makespan by exactly ``k``.  On integer weights
all times stay integers, which float64 holds exactly, so every
comparison a scheduler makes (epsilon idioms included) decides the
same way on the scaled graph and the schedule is the same one,
stretched.  A scheduler that mixes in an absolute constant, or breaks
ties on something other than its priorities, fails here.

UNC designs run on ``Machine(v)``, BNP designs on ``Machine(8)`` and
APN designs on the 4-processor hypercube.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Machine,
    NetworkMachine,
    TaskGraph,
    Topology,
    get_scheduler,
    list_schedulers,
)
from strategies import task_graphs


def _scaled(graph: TaskGraph, k: int) -> TaskGraph:
    return TaskGraph([k * float(w) for w in graph.weights],
                     [(u, v, k * c) for u, v, c in graph.edges()],
                     name=f"{graph.name}x{k}")


def _machine(klass: str, graph: TaskGraph):
    if klass == "UNC":
        return Machine(graph.num_nodes)
    if klass == "BNP":
        return Machine(8)
    return NetworkMachine(Topology.hypercube(2))


@pytest.mark.parametrize("name", list_schedulers())
@settings(max_examples=40, deadline=None)
@given(graph=task_graphs(max_nodes=12), k=st.integers(2, 7))
def test_scaling_costs_scales_the_makespan(name, graph, k):
    scheduler = get_scheduler(name)
    base = scheduler.schedule(graph, _machine(scheduler.klass, graph))
    scaled = scheduler.schedule(_scaled(graph, k),
                                _machine(scheduler.klass, graph))
    assert scaled.length == k * base.length


def test_every_paper_class_is_covered():
    classes = {get_scheduler(name).klass for name in list_schedulers()}
    assert classes == {"UNC", "BNP", "APN"}
    assert len(list_schedulers()) >= 15
