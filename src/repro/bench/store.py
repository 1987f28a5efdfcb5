"""Persisted benchmark results: the :class:`ResultStore`.

A store is a directory holding every :class:`~repro.metrics.measures.RunResult`
row ever produced for it, keyed by ``(algorithm, graph name, config
fingerprint)``.  The grid engine (:mod:`repro.bench.parallel`) consults
the store before scheduling a cell, so ``--resume`` runs only the cells
that are missing — a ``--full`` paper-grid regeneration interrupted
halfway resumes instead of starting over.

Formats
-------
* ``results.json`` — the durable format: a schema-versioned document
  ``{"schema": 1, "rows": [...]}`` that :meth:`ResultStore.load` reads
  back and :meth:`ResultStore.merge` can combine across stores (e.g.
  shards produced by independent machines).
* ``results.csv`` — a flat export written alongside the JSON on every
  save, one row per cell, for spreadsheets / pandas; it is write-only.

Keys are exact: a row is reused only when the algorithm, the graph's
name and the :meth:`BenchConfig.fingerprint` all match.  The requested
optimum is *not* part of the key — it feeds only the degradation
measure, never the schedule, so cached rows are rebased onto the
currently requested optimum at load time (see the engine).
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import tempfile
from dataclasses import asdict, fields
from typing import Dict, Iterable, List, Optional, Tuple

from ..metrics.measures import RunResult

__all__ = [
    "SCHEMA_VERSION",
    "RESULT_FIELDS",
    "row_fields",
    "row_to_dict",
    "row_from_dict",
    "result_to_dict",
    "result_from_dict",
    "open_store",
    "ResultStore",
    "OptimaStore",
]


def open_store(directory: str, basename: str = "results",
               row_type: Optional[type] = None,
               set_aside_corrupt: bool = False) -> "ResultStore":
    """Validate ``directory`` and open a store in it — the one path
    every ``--results`` flag, the sim and adversarial stores and the
    service cache go through.

    Creates the directory and probes it with a scratch file, then loads
    — and thereby validates — the ``basename`` store files of
    ``row_type`` rows (default :class:`RunResult`).  Every failure is a
    ``ValueError`` whose one-line message the CLIs print as their exit-2
    diagnostic, instead of a traceback from deep inside a grid run.

    With ``set_aside_corrupt`` a store file that cannot be read (not
    JSON, or not a store document) is renamed to ``<file>.corrupt``,
    replacing an older one, with one warning logged, and the store
    starts empty; an unusable directory still raises.
    """
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".probe-",
                                   suffix=".tmp")
        os.close(fd)
        os.unlink(tmp)
    except OSError as exc:
        raise ValueError(
            f"results path {directory!r} is not a writable directory "
            f"({exc.strerror or exc})"
        ) from exc
    row_type = row_type or RunResult
    try:
        return ResultStore(directory, basename=basename, row_type=row_type)
    except ValueError as exc:
        if not set_aside_corrupt:
            raise
        path = os.path.join(directory, f"{basename}.json")
        try:
            os.replace(path, path + ".corrupt")
        except OSError as err:
            raise exc from err
        logging.getLogger(__name__).warning(
            "%s; moved it to %s.corrupt and started empty", exc, path)
    return ResultStore(directory, basename=basename, row_type=row_type)


SCHEMA_VERSION = 1

#: Stable column order of the serialized schema (matches ``RunResult``).
RESULT_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(RunResult))

Key = Tuple[str, str, str]  # (algorithm, graph name, config fingerprint)


def row_fields(row_type: type) -> Tuple[str, ...]:
    """Stable column order of any dataclass row type."""
    return tuple(f.name for f in fields(row_type))


def row_to_dict(row) -> Dict:
    """Serialize one dataclass row to a plain JSON-compatible dict."""
    return asdict(row)


def row_from_dict(data: Dict, row_type: type):
    """Rebuild a dataclass row from :func:`row_to_dict` output.

    Unknown keys (e.g. the store's ``fingerprint`` column, or fields
    added by a future schema) are ignored, so old code can read newer
    stores as long as the known columns keep their meaning.
    """
    names = row_fields(row_type)
    kwargs = {name: data[name] for name in names if name in data}
    return row_type(**kwargs)


def result_to_dict(row: RunResult) -> Dict:
    """Serialize one row to a plain JSON-compatible dict."""
    return row_to_dict(row)


def result_from_dict(data: Dict) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_dict` output."""
    return row_from_dict(data, RunResult)


class ResultStore:
    """Cache of benchmark rows persisted under ``directory``.

    Parameters
    ----------
    directory:
        Where ``results.json`` / ``results.csv`` live.  Created on the
        first :meth:`save`.  An existing ``results.json`` is loaded
        eagerly so a fresh store object sees previous runs.
    basename:
        Stem of the two files (default ``results``), letting several
        stores share one directory.
    row_type:
        Dataclass the rows deserialize into.  The default is the grid
        engine's :class:`~repro.metrics.measures.RunResult`; the sim
        bench layer stores :class:`~repro.sim.robustness.RobustnessRow`
        cells under a different basename with exactly the same caching,
        checkpointing and merge semantics.  Rows must expose
        ``algorithm`` and ``graph`` attributes (the first two key
        parts).
    """

    def __init__(self, directory: str, basename: str = "results",
                 row_type: type = RunResult):
        self.directory = directory
        self.basename = basename
        self.row_type = row_type
        self._fields = row_fields(row_type)
        self._rows: Dict[Key, Dict] = {}
        #: Lifetime lookup counters (process-local, never persisted):
        #: every :meth:`get` bumps exactly one of the two.  The service
        #: surfaces them per cache; the grid engine's aggregate
        #: ``store.cache_hits`` obs counter is separate and unchanged.
        self.hits = 0
        self.misses = 0
        if os.path.exists(self.json_path):
            self.load()

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def json_path(self) -> str:
        return os.path.join(self.directory, f"{self.basename}.json")

    @property
    def csv_path(self) -> str:
        return os.path.join(self.directory, f"{self.basename}.csv")

    # ------------------------------------------------------------------
    # cache interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    @staticmethod
    def key(algorithm: str, graph: str, fingerprint: str) -> Key:
        return (str(algorithm), str(graph), str(fingerprint))

    def __contains__(self, key: Key) -> bool:
        return tuple(key) in self._rows

    def get(self, algorithm: str, graph: str,
            fingerprint: str) -> Optional[RunResult]:
        """The cached row for a cell, or ``None`` on a miss."""
        data = self._rows.get(self.key(algorithm, graph, fingerprint))
        if data is None:
            self.misses += 1
            return None
        self.hits += 1
        return row_from_dict(data, self.row_type)

    def put(self, row, fingerprint: str) -> None:
        """Insert or overwrite one cell."""
        data = row_to_dict(row)
        data["fingerprint"] = str(fingerprint)
        self._rows[self.key(row.algorithm, row.graph, fingerprint)] = data

    def update(self, rows: Iterable, fingerprint: str) -> None:
        """Insert or overwrite many cells sharing one fingerprint."""
        for row in rows:
            self.put(row, fingerprint)

    def rows(self, fingerprint: Optional[str] = None) -> List:
        """All rows (optionally only one fingerprint), in stable key order."""
        out = []
        for key in sorted(self._rows):
            if fingerprint is not None and key[2] != fingerprint:
                continue
            out.append(row_from_dict(self._rows[key], self.row_type))
        return out

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def load(self, path: Optional[str] = None) -> int:
        """Merge rows from a JSON document into the store.

        Returns the number of rows read.  Raises ``ValueError``, merging
        nothing, on a document the store does not understand.
        """
        path = path or self.json_path
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: not a results document")
        schema = doc.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"{path}: unsupported results schema {schema!r} "
                f"(this build reads schema {SCHEMA_VERSION})"
            )
        rows = doc.get("rows", [])
        try:
            keyed = [(self.key(data["algorithm"], data["graph"],
                               data.get("fingerprint", "")), dict(data))
                     for data in rows]
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{path}: malformed results row ({exc!r})") \
                from exc
        self._rows.update(keyed)
        return len(keyed)

    def merge(self, other: "ResultStore") -> int:
        """Fold another store's rows into this one (incoming rows win).

        Returns the number of rows merged; used to combine shards run on
        separate machines or in separate sessions.
        """
        for key, data in other._rows.items():
            self._rows[key] = dict(data)
        return len(other._rows)

    def as_csv(self) -> str:
        """The whole store as CSV text (stable header and row order)."""
        buf = io.StringIO()
        header = ("fingerprint",) + self._fields
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for key in sorted(self._rows):
            data = self._rows[key]
            writer.writerow([data.get(col, "") for col in header])
        return buf.getvalue()

    def save(self) -> None:
        """Atomically write ``results.json`` and the ``results.csv`` export."""
        os.makedirs(self.directory, exist_ok=True)
        doc = {
            "schema": SCHEMA_VERSION,
            "rows": [self._rows[key] for key in sorted(self._rows)],
        }
        self._atomic_write(self.json_path, json.dumps(doc, indent=1) + "\n")
        self._atomic_write(self.csv_path, self.as_csv())

    def _atomic_write(self, path: str, text: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.directory,
                                   prefix=f".{self.basename}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


class OptimaStore:
    """Persisted ``(best length, proved)`` reference optima.

    The RGBOS tables measure degradation against a branch-and-bound
    reference that costs far more than the heuristics themselves; this
    sidecar (``optima.json`` next to ``results.json``) caches it keyed
    by ``(graph name, search budget)``, so a resumed run skips the
    search as well as the grid.
    """

    def __init__(self, directory: str, basename: str = "optima"):
        self.directory = directory
        self.path = os.path.join(directory, f"{basename}.json")
        self._data: Dict[str, List] = {}
        if os.path.exists(self.path):
            with open(self.path) as fh:
                try:
                    doc = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{self.path}: not valid JSON ({exc})"
                    ) from exc
            if doc.get("schema") != SCHEMA_VERSION:
                raise ValueError(
                    f"{self.path}: unsupported optima schema "
                    f"{doc.get('schema')!r}"
                )
            self._data = dict(doc.get("optima", {}))

    @staticmethod
    def key(graph: str, budget: int) -> str:
        return f"{graph}@{int(budget)}"

    def __len__(self) -> int:
        return len(self._data)

    def get(self, graph: str, budget: int) -> Optional[Tuple[float, bool]]:
        entry = self._data.get(self.key(graph, budget))
        return (float(entry[0]), bool(entry[1])) if entry else None

    def put(self, graph: str, budget: int, length: float,
            proved: bool) -> None:
        self._data[self.key(graph, budget)] = [float(length), bool(proved)]

    def save(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        doc = {
            "schema": SCHEMA_VERSION,
            "optima": {k: self._data[k] for k in sorted(self._data)},
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".optima-",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(doc, indent=1) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
