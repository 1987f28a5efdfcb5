"""The 15 scheduling algorithms benchmarked in the paper.

Importing this package registers every algorithm; look them up with
:func:`get_scheduler` or enumerate with :func:`list_schedulers`.

==========  =====  =========================================
Acronym     Class  Origin
==========  =====  =========================================
HLFET       BNP    Adam, Chandy & Dickson (1974)
ISH         BNP    Kruatrachue & Lewis (1987)
MCP         BNP    Wu & Gajski (1990)
ETF         BNP    Hwang, Chow, Anger & Lee (1989)
DLS         BNP    Sih & Lee (1993)
LAST        BNP    Baxter & Patel (1989)
EZ          UNC    Sarkar (1989)
LC          UNC    Kim & Browne (1988)
DSC         UNC    Yang & Gerasoulis (1994)
MD          UNC    Wu & Gajski (1990)
DCP         UNC    Kwok & Ahmad (1996)
MH          APN    El-Rewini & Lewis (1990)
DLS-APN     APN    Sih & Lee (1993)
BU          APN    Mehdiratta & Ghose (1994)
BSA         APN    Kwok & Ahmad (1995)
==========  =====  =========================================

The six BNP rows, MH and DLS-APN are one list scheduler: each acronym
names a point of the component space in
:mod:`repro.algorithms.components`, and :func:`get_scheduler` also
accepts any other point as a ``param:`` spec string
(``"param:prio=blevel,ready=prio,proc=etf,insert=off"``).  The UNC
rows, BU and BSA are classes of their own.  MD, DCP, BU and BSA
time their mappings through the one fixed-order executor,
:func:`execute_fixed_order`.
"""

from .base import (
    SCHEDULER_CLASSES,
    Scheduler,
    get_scheduler,
    list_schedulers,
    register,
)
from . import unc, apn  # noqa: F401  (imports register the algorithms)
from .components import BNP_SPECS, ParamScheduler, SchedulerSpec, parse_spec
from .apn import BSA, BU, cpn_dominant_list
from .mapping import (
    execute_fixed_order,
    mapping_makespan,
    schedule_from_mapping,
    simulate_fixed_sequences,
)
from .unc import DCP, DSC, EZ, LC, MD

__all__ = [
    "Scheduler",
    "register",
    "get_scheduler",
    "list_schedulers",
    "SCHEDULER_CLASSES",
    "BNP_SPECS",
    "ParamScheduler",
    "SchedulerSpec",
    "parse_spec",
    "EZ",
    "LC",
    "DSC",
    "MD",
    "DCP",
    "BU",
    "BSA",
    "cpn_dominant_list",
    "execute_fixed_order",
    "mapping_makespan",
    "schedule_from_mapping",
    "simulate_fixed_sequences",
]
