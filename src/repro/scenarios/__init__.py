"""Declarative scenario engine: describe an experiment, sweep it.

The paper evaluates a fixed grid of five suites; this package turns the
reproduction into a general task-graph scheduling laboratory.  A
*scenario* is a JSON/TOML document naming graphs, machine model,
algorithms, metrics and an optional sweep; it compiles down to the
parallel, persisted grid engine of :mod:`repro.bench`, so every sweep
is parallel (``jobs``), cached (``store``) and resumable (``resume``).

>>> from repro.scenarios import get_scenario, compile_scenario, run_scenario
>>> compiled = compile_scenario(get_scenario("hetero-speeds"))
>>> result = run_scenario(compiled, jobs=4)

:func:`run_scenario` is the one runner for every measurement: the
static grid by default, ``engine="sim"`` to execute the schedules
Monte-Carlo under the spec's ``simulate:`` block, ``engine="search"``
to run the ``adversarial:`` instance search.  Each returns one
:class:`ScenarioResult`, rendered by :func:`scenario_tables` (plus
:func:`online_tables`), :func:`sim_tables` or :func:`adv_tables`.

See :mod:`repro.scenarios.spec` for the document schema,
:mod:`repro.scenarios.registry` for the ready-made scenarios, and the
CLI verbs ``python -m repro.bench scenario {list,validate,run}``,
``sim {run,compare}`` and ``adv {search,show,export}``.
"""

from .compile import (
    CompiledScenario,
    ScenarioResult,
    Variant,
    adv_tables,
    compile_scenario,
    online_counterpart,
    online_tables,
    run_scenario,
    scenario_tables,
    sim_tables,
)
from .registry import SCENARIOS, get_scenario, scenario_names
from .spec import (
    GENERATORS,
    METRICS,
    TOPOLOGY_KINDS,
    ScenarioSpec,
    SpecError,
    load_spec,
    validate_spec,
)

__all__ = [
    "METRICS",
    "GENERATORS",
    "TOPOLOGY_KINDS",
    "ScenarioSpec",
    "SpecError",
    "load_spec",
    "validate_spec",
    "SCENARIOS",
    "scenario_names",
    "get_scenario",
    "Variant",
    "CompiledScenario",
    "ScenarioResult",
    "compile_scenario",
    "run_scenario",
    "scenario_tables",
    "sim_tables",
    "adv_tables",
    "online_counterpart",
    "online_tables",
]
