"""Scheduler interface and registry.

Every algorithm is a :class:`Scheduler` subclass exposing
``schedule(graph, machine) -> Schedule`` and three bits of metadata that
mirror the paper's taxonomy (Section 3/4): the class (BNP/UNC/APN) and
the design-decision flags the paper's analysis keys on (critical-path
based?, dynamic priority?, insertion?).

Algorithms self-register via :func:`register` (a class decorator that
also takes a ready instance); lookups go through :func:`get_scheduler`
/ :func:`list_schedulers`.  Besides the registered acronyms,
:func:`get_scheduler` resolves *component spec* strings
(``param:prio=blevel,ready=fifo,proc=est,insert=on``) into
parameterized schedulers assembled by
:mod:`repro.algorithms.components` — every layer that takes an
algorithm name (benchmarks, scenarios, adversarial search, the
simulator) therefore accepts synthesized schedulers for free.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Type, TypeVar, Union

from ..core.graph import TaskGraph
from ..core.machine import Machine, NetworkMachine
from ..core.schedule import Schedule
from ..obs import trace as _trace

__all__ = [
    "Scheduler",
    "register",
    "get_scheduler",
    "list_schedulers",
    "SCHEDULER_CLASSES",
]

SCHEDULER_CLASSES = ("BNP", "UNC", "APN")

#: Upper-cased name -> the one shared instance (schedulers are stateless).
_REGISTRY: Dict[str, "Scheduler"] = {}


class Scheduler(abc.ABC):
    """Abstract static DAG scheduler.

    Class attributes
    ----------------
    name:
        Paper acronym (``"MCP"``, ``"DSC"``, ...).
    klass:
        ``"BNP"``, ``"UNC"`` or ``"APN"``.
    cp_based / dynamic_priority / uses_insertion:
        Taxonomy flags used by the analysis tables.
    """

    name: str = "?"
    klass: str = "?"
    cp_based: bool = False
    dynamic_priority: bool = False
    uses_insertion: bool = False
    complexity: str = "?"

    def schedule(self, graph: TaskGraph, machine: Machine) -> Schedule:
        """Produce a complete schedule of ``graph`` on ``machine``."""
        self._check_machine(machine)
        with _trace.span("sched.schedule", algorithm=self.name,
                         graph=graph.name, nodes=graph.num_nodes):
            sched = self._run(graph, machine)
        if not sched.is_complete():
            raise RuntimeError(
                f"{self.name} returned an incomplete schedule"
            )  # pragma: no cover - defensive
        return sched

    @abc.abstractmethod
    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        """Algorithm body; subclasses may assume a validated machine."""

    def _check_machine(self, machine: Machine) -> None:
        if self.klass == "APN" and not isinstance(machine, NetworkMachine):
            raise TypeError(
                f"{self.name} is an APN algorithm and needs a NetworkMachine"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.klass} scheduler {self.name}>"


_Registrable = TypeVar("_Registrable",
                        bound=Union[Type[Scheduler], Scheduler])


def register(obj: _Registrable) -> _Registrable:
    """Add a scheduler to the global registry under its ``name``.

    ``obj`` is either a :class:`Scheduler` subclass — instantiated
    once, so this doubles as a class decorator — or a ready instance,
    which is how the parameterized scheduler registers the paper's six
    BNP designs under their acronyms.
    """
    inst = obj() if isinstance(obj, type) else obj
    key = inst.name.upper()
    old = _REGISTRY.get(key)
    if old is not None and type(old) is not obj and old is not obj:
        raise ValueError(f"duplicate scheduler name {inst.name!r}")
    if inst.klass not in SCHEDULER_CLASSES:
        raise ValueError(f"{inst.name}: unknown class {inst.klass!r}")
    _REGISTRY[key] = inst
    return obj


_INSTANCES: Dict[str, Scheduler] = {}


def get_scheduler(name: str) -> Scheduler:
    """Resolve ``name`` to a ready-to-call scheduler instance.

    Accepts registered acronyms case-insensitively (``"mcp"``),
    component spec strings (``"param:prio=alap,ready=prio,proc=est,
    insert=on"``; see :mod:`repro.algorithms.components` for the
    grammar), and online spec strings (``"online:mcp,imode=mean"``;
    see :mod:`repro.sim.online` — the schedule is the zero-noise
    event-driven execution under the spec's information mode).
    Schedulers are stateless, so instances are memoized — repeated
    lookups of the same name (or of two spellings of the same spec)
    return the same object.
    """
    if name.strip().lower().startswith("param:"):
        from .components import ParamScheduler, parse_spec

        spec = parse_spec(name)
        key = spec.canonical()
        inst = _INSTANCES.get(key)
        if inst is None:
            inst = ParamScheduler(spec)
            _INSTANCES[key] = inst
        return inst
    if name.strip().lower().startswith("online:"):
        from ..sim.online import OnlineScheduler, parse_online_spec

        ospec = parse_online_spec(name)
        key = ospec.canonical()
        inst = _INSTANCES.get(key)
        if inst is None:
            inst = OnlineScheduler(ospec)
            _INSTANCES[key] = inst
        return inst
    try:
        return _REGISTRY[name.upper()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown scheduler {name!r}; known: {known} "
            f"(or a 'param:' component spec / 'online:' spec)") from None


def list_schedulers(klass: Optional[str] = None) -> List[str]:
    """Registered scheduler names, optionally filtered by class."""
    names = [
        name
        for name, inst in _REGISTRY.items()
        if klass is None or inst.klass == klass.upper()
    ]
    return sorted(names)
