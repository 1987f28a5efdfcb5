"""APN (arbitrary processor network) scheduling algorithms.

Link-contention-aware schedulers that place tasks on the processors of
an explicit topology and schedule every inter-processor message on the
network links.  Of the paper's four, MH and DLS-APN are points of the
component space (:data:`~repro.algorithms.components.APN_DESIGNS`);
BU and BSA live here.
"""

from .bsa import BSA, cpn_dominant_list
from .bu import BU

__all__ = ["BU", "BSA", "cpn_dominant_list"]
