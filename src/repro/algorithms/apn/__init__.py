"""APN (arbitrary processor network) scheduling algorithms.

Link-contention-aware schedulers that place tasks on the processors of
an explicit topology and schedule every inter-processor message on the
network links.  The four algorithms benchmarked in the paper: MH,
DLS (network variant), BU and BSA.
"""

from .bsa import BSA, cpn_dominant_list
from .bu import BU
from .dls_apn import DLSAPN
from .mh import MH

__all__ = ["MH", "DLSAPN", "BU", "BSA", "cpn_dominant_list"]
