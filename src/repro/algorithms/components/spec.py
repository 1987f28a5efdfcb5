"""Scheduler specs: naming, parsing and enumerating component combos.

A :class:`SchedulerSpec` picks one value per axis; its canonical string

    ``param:prio=<rule>,ready=<policy>,proc=<selector>,insert=<policy>``

is simultaneously the scheduler's registry-facing *name*, its cache
*fingerprint* and the grammar :func:`repro.get_scheduler` accepts — one
identity for lookup, result stores and scenario documents alike.  Axes
always render in the fixed order above with every axis spelled out, so
two spellings of the same combination can never produce two cache keys.

:data:`BNP_DESIGNS` pins the paper's six BNP schedulers to their
component coordinates (:data:`BNP_SPECS` is the coordinates alone)
and :data:`APN_DESIGNS` MH and DLS-APN; the registry serves each
acronym as the parameterized scheduler at its coordinates, and the
golden differential corpus pins every placement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

from .insertion import INSERTION_POLICIES
from .pools import READY_POLICIES
from .priorities import PRIORITY_RULES
from .selectors import PROC_SELECTORS

__all__ = [
    "APN_DESIGNS",
    "AXES",
    "BNP_DESIGNS",
    "BNP_SPECS",
    "PaperDesign",
    "SPEC_PREFIX",
    "SchedulerSpec",
    "expand_param_grid",
    "parse_spec",
]

SPEC_PREFIX = "param:"

#: Axis name -> component registry, in canonical rendering order.
AXES: Dict[str, Mapping[str, object]] = {
    "prio": PRIORITY_RULES,
    "ready": READY_POLICIES,
    "proc": PROC_SELECTORS,
    "insert": INSERTION_POLICIES,
}


def _check_axis(axis: str, value: str) -> str:
    value = value.lower()
    options = AXES[axis]
    if value not in options:
        known = ", ".join(sorted(options))
        raise ValueError(
            f"unknown {axis!r} component {value!r}; known: {known}")
    return value


@dataclass(frozen=True)
class SchedulerSpec:
    """One point of the component space (defaults reproduce HLFET)."""

    prio: str = "slevel"
    ready: str = "prio"
    proc: str = "est"
    insert: str = "off"

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name,
                               _check_axis(f.name, getattr(self, f.name)))

    def canonical(self) -> str:
        """The spec's one true spelling — also its name and fingerprint."""
        return (f"{SPEC_PREFIX}prio={self.prio},ready={self.ready},"
                f"proc={self.proc},insert={self.insert}")

    def fingerprint(self) -> str:
        """Cache identity: equal fingerprints schedule identically."""
        return self.canonical()

    def components(self) -> Dict[str, object]:
        """Axis name -> resolved component object, in canonical order."""
        return {axis: registry[getattr(self, axis)]
                for axis, registry in AXES.items()}


class PaperDesign(NamedTuple):
    """One of the paper's list schedulers as a point of the space."""

    spec: SchedulerSpec
    #: Name and publication: the headline ``algo describe`` prints.
    origin: str
    #: As the paper states it; tighter than the loop's generic bound.
    complexity: str
    klass: str = "BNP"
    #: Set where the paper's flag differs from the derived one.
    cp_based: Optional[bool] = None


#: The paper's six BNP schedulers: coordinates, origin and complexity.
BNP_DESIGNS: Dict[str, PaperDesign] = {
    "HLFET": PaperDesign(
        SchedulerSpec("slevel", "prio", "est", "off"),
        "Highest Level First with Estimated Times, "
        "Adam, Chandy & Dickson (1974)", "O(v^2)"),
    "ISH": PaperDesign(
        SchedulerSpec("slevel", "prio", "est", "hole"),
        "Insertion Scheduling Heuristic, Kruatrachue & Lewis (1987)",
        "O(v^2)"),
    "MCP": PaperDesign(
        SchedulerSpec("alaplist", "prio", "est", "on"),
        "Modified Critical Path, Wu & Gajski (1990)", "O(v^2 log v)"),
    "ETF": PaperDesign(
        SchedulerSpec("slevel", "prio", "etf", "off"),
        "Earliest Time First, Hwang, Chow, Anger & Lee (1989)",
        "O(p v^2)"),
    "DLS": PaperDesign(
        SchedulerSpec("slevel", "prio", "dls", "off"),
        "Dynamic Level Scheduling, Sih & Lee (1993)", "O(p v^3)"),
    "LAST": PaperDesign(
        SchedulerSpec("dnode", "prio", "est", "off"),
        "Localized Allocation of Static Tasks, Baxter & Patel (1989)",
        "O(v(e+v))"),
}

#: The paper's APN list schedulers, run on a network.  MH ranks by the
#: b-level, which derives ``cp_based``, yet the paper files it as not
#: CP-based.
APN_DESIGNS: Dict[str, PaperDesign] = {
    "MH": PaperDesign(
        SchedulerSpec("blevel", "prio", "eft", "off"),
        "Mapping Heuristic, El-Rewini & Lewis (1990)", "O(v^2 p^3)",
        klass="APN", cp_based=False),
    "DLS-APN": PaperDesign(
        SchedulerSpec("slevel", "prio", "dls", "off"),
        "Dynamic Level Scheduling on processor networks, "
        "Sih & Lee (1993)", "O(v^3 p)", klass="APN"),
}

#: The six BNP designs' component coordinates alone.
BNP_SPECS: Dict[str, SchedulerSpec] = {
    acro: design.spec for acro, design in BNP_DESIGNS.items()}


def parse_spec(text: str) -> SchedulerSpec:
    """Parse a ``param:`` spec string (or bare axis list) to a spec.

    Accepts the canonical grammar in any case and axis order, with
    unmentioned axes falling back to their defaults, plus the named
    shorthands ``param:hlfet`` ... ``param:last`` for the paper's six.
    """
    body = text.strip()
    if body.lower().startswith(SPEC_PREFIX):
        body = body[len(SPEC_PREFIX):]
    body = body.strip()
    if body.upper() in BNP_SPECS:
        return BNP_SPECS[body.upper()]
    if not body:
        raise ValueError(
            f"empty component spec {text!r}; expected "
            f"{SPEC_PREFIX}prio=...,ready=...,proc=...,insert=...")
    values: Dict[str, str] = {}
    for part in body.split(","):
        axis, sep, value = part.partition("=")
        axis = axis.strip().lower()
        if not sep or not value.strip():
            raise ValueError(
                f"malformed component assignment {part!r} in {text!r}; "
                f"expected axis=value")
        if axis not in AXES:
            known = ", ".join(AXES)
            raise ValueError(
                f"unknown component axis {axis!r} in {text!r}; "
                f"known: {known}")
        if axis in values:
            raise ValueError(f"duplicate axis {axis!r} in {text!r}")
        values[axis] = value.strip()
    return SchedulerSpec(**values)


def expand_param_grid(grid: Mapping[str, Sequence[str]]
                      ) -> List[SchedulerSpec]:
    """Cartesian product of a per-axis value grid, in canonical order.

    Axes iterate in canonical order with later axes fastest, matching
    ``itertools.product``; axes missing from ``grid`` stay at their
    defaults.  Values are validated (and de-duplicated, first
    occurrence wins) before expansion so an error names the offending
    axis instead of surfacing mid-sweep.
    """
    canon: Dict[str, List[str]] = {}
    for axis, options in grid.items():
        axis_l = str(axis).lower()
        if axis_l not in AXES:
            known = ", ".join(AXES)
            raise ValueError(
                f"unknown component axis {axis!r}; known: {known}")
        seen: List[str] = []
        for value in options:
            checked = _check_axis(axis_l, str(value))
            if checked not in seen:
                seen.append(checked)
        if not seen:
            raise ValueError(f"component axis {axis!r} has no values")
        canon[axis_l] = seen
    pools = [canon.get(axis, [getattr(SchedulerSpec(), axis)])
             for axis in AXES]
    return [SchedulerSpec(*combo) for combo in itertools.product(*pools)]
