"""Run-granular result store: the campaign engine's one persistence layer.

Results are keyed by :meth:`~repro.orchestrate.spec.RunSpec.param_key`
— a content hash of the simulation-determining parameters, independent
of the enclosing campaign — so the engine can compute the *frontier* of
any sweep: fetch the intersection from the store, simulate only what is
genuinely new.  The same lookup is crash-resume: every result is
committed the moment it streams in, so re-running a killed campaign
against the same store simulates only the runs that never finished.

Two tiers, consulted in order:

* **Hot** — a bounded in-memory LRU of decoded result objects.  Free
  repeats within one process (aggregation queries, streamed exports).
* **Warm** — an append-only SQLite table in WAL mode.  WAL plus
  ``INSERT OR IGNORE`` makes the file safe for concurrent writers
  sharing a directory (say, two campaigns): the first result for a key
  wins and later duplicates are dropped.
  Defects are demoted to logged misses *per row* — a truncated payload,
  a foreign or future format marker, or a result that fails to
  deserialize costs one re-simulated run, never the store.

Everything returned is a full-fidelity result object (the serializer's
round-trip codec), so a store hit is byte-identical to a fresh
simulation all the way into campaign JSON exports — scheduler statistics
included.
"""

from __future__ import annotations

import collections
import json
import logging
import sqlite3
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, Sequence, Union

from .serialize import result_from_dict, result_to_dict
from .spec import RunSpec

log = logging.getLogger(__name__)

#: Row format: versions both the payload layout and the outcome model
#: that produced the row.  Every change to a run's outcome or to its
#: serialization bumps it, so older rows become logged misses that
#: re-simulate and repair themselves.  Format 2 added the per-run
#: scheduler statistics; format 3 retires rows written before recovery
#: waited for outstanding writes to drain
#: (:func:`~repro.faults.campaign.drain_timeout`): they can serve
#: ``recovered: false`` for deep-outstanding points that now recover.
#: Format 4 retires IP rows written while ``detect_timeout`` counted
#: from cycle 0 instead of the issue: they can serve "not detected" for
#: late seeds that now detect.
STORE_FORMAT = 4

#: SQLite schema version (``PRAGMA user_version``).
SCHEMA_VERSION = 1

#: Default hot-tier capacity (decoded result objects).
DEFAULT_HOT_CAPACITY = 4096

#: Warm-tier database filename inside the store root.
DB_NAME = "store.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    param_key TEXT PRIMARY KEY,
    run_id    TEXT NOT NULL,
    format    INTEGER NOT NULL,
    payload   TEXT NOT NULL
) WITHOUT ROWID
"""


class ResultStore:
    """Tiered, append-only store of injection results keyed per run.

    Open one with :meth:`open`; ``get``/``put`` take the campaign's own
    :class:`~repro.orchestrate.spec.RunSpec` objects, so callers never
    handle keys or payload dicts.  *metrics* (a
    :class:`collections.Counter`) receives per-tier ``store.hot_hit`` /
    ``store.warm_hit`` / ``store.miss`` / ``store.corrupt`` /
    ``store.put`` / ``store.duplicate`` counts — purely observational.
    """

    def __init__(
        self,
        root: Union[str, Path],
        hot_capacity: int = DEFAULT_HOT_CAPACITY,
        metrics=None,
    ) -> None:
        if hot_capacity < 0:
            raise ValueError("hot_capacity must be >= 0")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics
        self.hot_capacity = hot_capacity
        self._hot: "collections.OrderedDict[str, Any]" = collections.OrderedDict()
        # Guards the hot LRU and the one SQLite connection, which any
        # thread holding this store may use (check_same_thread=False).
        self._lock = threading.Lock()
        self._db = self._connect()

    @classmethod
    def open(
        cls,
        root: Union[str, Path],
        hot_capacity: int = DEFAULT_HOT_CAPACITY,
        metrics=None,
    ) -> "ResultStore":
        """Open (creating if needed) the store rooted at *root*."""
        return cls(root, hot_capacity=hot_capacity, metrics=metrics)

    # ------------------------------------------------------------------
    # Warm tier (SQLite, WAL)
    # ------------------------------------------------------------------
    @property
    def db_path(self) -> Path:
        return self.root / DB_NAME

    def _connect(self) -> sqlite3.Connection:
        try:
            return self._open_db()
        except sqlite3.DatabaseError as exc:
            # The whole file is unreadable (not SQLite, hopeless
            # corruption).  Losing stored results costs re-simulation
            # only, so move the wreck aside and start fresh rather than
            # wedging every campaign that names this store.
            wreck = self.db_path.with_suffix(".sqlite.corrupt")
            log.warning(
                "store database %s is unusable (%s); moving it to %s and "
                "starting empty", self.db_path, exc, wreck.name,
            )
            self.db_path.replace(wreck)
            return self._open_db()

    def _open_db(self) -> sqlite3.Connection:
        db = sqlite3.connect(
            self.db_path, timeout=30.0, check_same_thread=False
        )
        db.execute("PRAGMA journal_mode=WAL")
        db.execute("PRAGMA synchronous=NORMAL")
        db.execute("PRAGMA busy_timeout=30000")
        version = db.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, SCHEMA_VERSION):
            raise sqlite3.DatabaseError(
                f"store schema version {version}, this code speaks "
                f"{SCHEMA_VERSION}"
            )
        if version == 0:
            # A new store: an initialised one opens without a write.
            with db:
                db.execute(_SCHEMA)
                db.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
        return db

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(self, run: RunSpec):
        """The stored result for *run*, or ``None`` on miss.

        Hot, then warm; a warm hit is promoted into the hot LRU so the
        next fetch of the same run is cheaper.  Any defective row is a
        logged miss for that run alone.
        """
        key = run.param_key()
        with self._lock:
            if key in self._hot:
                self._hot.move_to_end(key)
                self._count("store.hot_hit")
                return self._hot[key]
            row = self._db.execute(
                "SELECT format, payload FROM results WHERE param_key=?",
                (key,),
            ).fetchone()
        if row is not None:
            result = self._decode_row(run, key, *row)
            if result is not None:
                self._count("store.warm_hit")
                self._remember(key, result)
                return result
            # Defective row: evict it so the re-simulated result can
            # repair the store.
            self._evict_row(key)
        self._count("store.miss")
        return None

    def put(self, run: RunSpec, result) -> bool:
        """Record *result* for *run*; ``False`` if the key already had one.

        First-result-wins: ``INSERT OR IGNORE`` under WAL means two
        processes (two overlapping campaigns on one store, say) can
        race a put and the store keeps exactly one row — whichever
        committed first — without either writer failing.
        """
        return self.put_many([run], [result]) == 1

    def put_many(self, runs: Sequence[RunSpec], results: Sequence) -> int:
        """Record each of *results* for its run of *runs* in one
        transaction; returns how many keys were new.

        The first result for a key wins, and a later one — in this call
        or before it — counts as ``store.duplicate``.
        """
        keys = [run.param_key() for run in runs]
        rows = [
            (key, run.run_id, STORE_FORMAT,
             json.dumps(result_to_dict(result), sort_keys=True))
            for key, run, result in zip(keys, runs, results)
        ]
        with self._lock:
            with self._db:
                cursor = self._db.executemany(
                    "INSERT OR IGNORE INTO results "
                    "(param_key, run_id, format, payload) VALUES (?, ?, ?, ?)",
                    rows,
                )
            inserted = cursor.rowcount
        for key, result in zip(keys, results):
            self._remember(key, result)
        self._count("store.put", inserted)
        self._count("store.duplicate", len(rows) - inserted)
        return inserted

    def iter_results(self, runs: Sequence[RunSpec]) -> Iterator[Any]:
        """Yield every run's stored result, in the order given.

        The streamed, index-ordered aggregation query: nothing beyond
        the hot LRU is held in memory, so a million-run campaign export
        walks the store instead of materializing a result list.  Raises
        ``KeyError`` on the first run the store cannot satisfy — callers
        stream this only after the frontier has executed.
        """
        for run in runs:
            result = self.get(run)
            if result is None:
                raise KeyError(
                    f"store {self.root} has no result for {run.run_id}"
                )
            yield result

    def _evict_row(self, key: str) -> None:
        """Drop one defective warm row (put can then repair the key)."""
        with self._lock:
            with self._db:
                self._db.execute(
                    "DELETE FROM results WHERE param_key=?", (key,)
                )

    def _remember(self, key: str, result) -> None:
        if self.hot_capacity <= 0:
            return
        with self._lock:
            self._hot[key] = result
            self._hot.move_to_end(key)
            while len(self._hot) > self.hot_capacity:
                self._hot.popitem(last=False)

    def _decode_row(self, run: RunSpec, key: str, fmt, payload):
        """Row -> result object, or ``None`` (logged) on any defect."""
        if fmt != STORE_FORMAT:
            log.warning(
                "store row %s (run %s) has format %r, want %d; ignoring",
                key, run.run_id, fmt, STORE_FORMAT,
            )
            self._count("store.corrupt")
            return None
        try:
            return result_from_dict(json.loads(payload))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            log.warning(
                "store row %s (run %s) is malformed (%s); re-simulating",
                key, run.run_id, exc,
            )
            self._count("store.corrupt")
            return None

    def _count(self, name: str, events: int = 1) -> None:
        if self.metrics is not None and events:
            self.metrics[name] += events

    def stats(self) -> Dict[str, Any]:
        """Point-in-time store accounting (``repro store stats``)."""
        with self._lock:
            rows = self._db.execute("SELECT COUNT(*) FROM results").fetchone()[0]
            hot = len(self._hot)
        try:
            db_bytes = self.db_path.stat().st_size
        except OSError:
            db_bytes = 0
        return {
            "root": str(self.root),
            "format": STORE_FORMAT,
            "schema_version": SCHEMA_VERSION,
            "warm_rows": rows,
            "warm_bytes": db_bytes,
            "hot_entries": hot,
            "hot_capacity": self.hot_capacity,
        }
