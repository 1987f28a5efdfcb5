"""The opt-in runtime sanitizer: assertion hooks for harness invariants.

Armed by ``REPRO_SANITIZE=1`` in the environment (the ``--sanitize``
CLI flag sets it for the process), this module backs the hooks wired
into :mod:`repro.core.graph`, :mod:`repro.core.kernel`,
:mod:`repro.core.schedule`, :mod:`repro.algorithms.components.selectors`,
:mod:`repro.algorithms.apn.bsa` and :mod:`repro.sim.engine`:

* CSR adjacency round-trips against the list adjacency it was built
  from;
* :class:`~repro.core.kernel.ArrivalProfile` answers are cross-checked
  against the scalar ``data_ready_time`` oracle;
* every placement keeps a processor timeline sorted and its flat
  mirrors consistent;
* every incremental ETF/DLS pick, on a clique or a processor network,
  equals a full rescan of the (ready node, processor) pairs, and its
  start time the ``est_on_proc`` oracle;
* every BSA migration trial timed by the flat fixed-order core agrees
  with the materialising executor on the length and the moved node's
  start;
* the simulator's event heap pops timestamps monotonically.

The hooks are deliberately cheap enough that the full golden
differential corpus runs under the sanitizer in CI; when disarmed they
cost one dict probe of the environment per entry point.  A failed check
raises :class:`SanitizeError` — it means *harness memory was
corrupted*, not that an input was invalid, so it is never caught by the
layers above.

This module must stay import-light (stdlib only): the core modules
consult it from their hot paths.
"""

from __future__ import annotations

import os
from typing import Any

__all__ = ["SanitizeError", "enabled", "require", "freeze_arrays"]

#: Environment variable that arms the sanitizer ("" / "0" = off).
ENV_VAR = "REPRO_SANITIZE"


class SanitizeError(RuntimeError):
    """A harness invariant was violated at runtime (memory corruption)."""


# The live environment's encoded dict, probed with a pre-encoded key:
# ``os.environ`` writes every set and delete through to it, and the
# probe skips the mapping layer's encode and decode calls.
_ENVIRON = os.environ._data  # type: ignore[attr-defined]
_ENV_KEY = os.environ.encodekey(ENV_VAR)
#: Values that leave it disarmed: unset, "" and "0".
_OFF = (None, os.environ.encodevalue(""), os.environ.encodevalue("0"))


def enabled() -> bool:
    """True when the sanitizer is armed for this process.

    Read from the environment on every call, so tests (and long-lived
    processes) can toggle it with ``setenv``/``delenv`` and forked
    workers inherit it; the read is a single dict probe of the
    environment's encoded mapping.
    """
    return _ENVIRON.get(_ENV_KEY) not in _OFF


def require(condition: bool, message: str) -> None:
    """Raise :class:`SanitizeError` unless ``condition`` holds."""
    if not condition:
        raise SanitizeError(f"sanitizer: {message}")


def freeze_arrays(*arrays: Any) -> None:
    """Mark numpy arrays read-only (no-op for anything else)."""
    for arr in arrays:
        setflags = getattr(arr, "setflags", None)
        if setflags is not None:
            setflags(write=False)
