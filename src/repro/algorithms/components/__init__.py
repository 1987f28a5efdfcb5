"""Composable scheduler components (Coleman et al.'s design space).

Each of the paper's six BNP schedulers (and APN's MH and DLS-APN) is
one point in a four-axis space: **priority rule** × **ready-pool
policy** × **processor selector** × **insertion policy**.  This
package makes the axes explicit —

=========  =============================  ==========================
Axis       Registry                       Values
=========  =============================  ==========================
``prio``   :data:`PRIORITY_RULES`         slevel, blevel, tlevel,
                                          btlevel, alap, alaplist,
                                          dnode
``ready``  :data:`READY_POLICIES`         prio, fifo
``proc``   :data:`PROC_SELECTORS`         est, eft, etf, dls
``insert`` :data:`INSERTION_POLICIES`     off, on, hole
=========  =============================  ==========================

— and :class:`ParamScheduler` executes any :class:`SchedulerSpec`
combination on the flat-array kernel.  ``repro.get_scheduler`` resolves
spec strings (``param:prio=blevel,ready=fifo,proc=est,insert=on``)
directly, so synthesized schedulers flow through benchmarks, scenarios
and the adversarial engine as ordinary names.  :data:`BNP_DESIGNS`
names the six paper designs, :data:`APN_DESIGNS` MH and DLS-APN; the
registry serves each acronym (``"MCP"``) as the :class:`ParamScheduler`
at its coordinates, so the one component loop is the only list
scheduler in the package (on a network it books every message).
"""

from .insertion import INSERTION_POLICIES, InsertionPolicy
from .pools import READY_POLICIES, ReadyPolicy, ReadyPool
from .priorities import PRIORITY_RULES, PriorityRule, PriorityState
from .scheduler import ParamScheduler
from .selectors import PROC_SELECTORS, ProcSelector, SelectorState
from .spec import (
    APN_DESIGNS,
    AXES,
    BNP_DESIGNS,
    BNP_SPECS,
    SPEC_PREFIX,
    PaperDesign,
    SchedulerSpec,
    expand_param_grid,
    parse_spec,
)

__all__ = [
    "APN_DESIGNS",
    "AXES",
    "BNP_DESIGNS",
    "BNP_SPECS",
    "SPEC_PREFIX",
    "INSERTION_POLICIES",
    "PRIORITY_RULES",
    "PROC_SELECTORS",
    "READY_POLICIES",
    "InsertionPolicy",
    "PaperDesign",
    "ParamScheduler",
    "PriorityRule",
    "PriorityState",
    "ProcSelector",
    "ReadyPolicy",
    "ReadyPool",
    "SchedulerSpec",
    "SelectorState",
    "expand_param_grid",
    "parse_spec",
]
