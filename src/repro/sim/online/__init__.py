"""Online scheduling under partial information.

The paper's schedulers are *static*: they see the whole graph with
exact weights up front and emit a complete schedule before anything
runs.  This package re-drives the same component machinery from the
discrete-event simulator's clock instead — the simulator feeds the
scheduler events (task finished, message arrived, worker idle) and the
scheduler replies with placements — and filters what the scheduler
*observes* through estee-style information modes, separately from what
the simulator *charges*:

* :mod:`repro.sim.online.imodes` — ``exact`` / ``blind`` / ``mean`` /
  ``user`` observed views of task durations and comm costs;
* :mod:`repro.sim.online.spec` — the ``online:`` spec grammar
  (component axes + ``imode`` + ``seed``) accepted by
  :func:`repro.get_scheduler` and the scenario engine;
* :mod:`repro.sim.online.engine` — :func:`simulate_online`, which runs
  the simulator's one event loop (:mod:`repro.sim.engine`) under a
  replanning :class:`OnlinePolicy`;
* :mod:`repro.sim.online.scheduler` — the predictive-reactive policy
  porting the six BNP designs online (plan from the observed graph,
  replan when an observed event deviates from the plan), plus the
  registry adapter that makes ``online:`` specs ordinary schedulers.

Under zero noise and the ``exact`` mode no event ever deviates from
the plan, so the online run reproduces the static schedule placement
for placement — the equivalence the sim test-suite pins on the golden
corpus.

>>> from repro import Machine
>>> from repro.generators.random_graphs import rgnos_graph
>>> from repro.sim.online import parse_online_spec, simulate_online
>>> g = rgnos_graph(30, 1.0, 2, seed=7)
>>> res = simulate_online(g, Machine(4), parse_online_spec("online:mcp"))
>>> res.schedule.is_complete() and res.num_replans == 0
True
"""

from .engine import OnlinePolicy, OnlineResult, simulate_online
from .imodes import IMODES, observe
from .scheduler import OnlineScheduler, PlanRescheduler
from .spec import ONLINE_PREFIX, OnlineSchedulerSpec, parse_online_spec

__all__ = [
    "IMODES",
    "ONLINE_PREFIX",
    "OnlinePolicy",
    "OnlineResult",
    "OnlineScheduler",
    "OnlineSchedulerSpec",
    "PlanRescheduler",
    "observe",
    "parse_online_spec",
    "simulate_online",
]
