"""Single-file (or ``:memory:``) SQLite storage backend.

This is the seed store's persistence engine extracted behind
:class:`~repro.misp.storage.base.StorageBackend`, with three upgrades:

- a composite ``attributes(value, type)`` index so value search, correlation
  probes and delta-sync digest probes never full-table scan;
- a ``counters`` table maintained transactionally so ``event_count`` /
  ``attribute_count`` / ``correlation_count`` are O(1) reads (the obs layer
  polls them every cycle);
- a ``store_meta`` table recording the shard layout (always 1 here) so
  ``MispStore`` can auto-detect how to open an existing file.

Chunked queries derive their chunk size from the shared
:data:`~repro.misp.storage.base.MAX_BOUND_VARS` budget, so no query can
exceed SQLite's bound-variable limit however many uuids a cycle carries.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ...errors import StorageError
from .base import (
    BackendInfo,
    PersistBatch,
    StorageBackend,
    chunk_size,
    chunks,
)

#: Tables every *shard* carries (relational event data).  The single-file
#: backend is simply "one shard plus the catalog tables in the same file".
SHARD_SCHEMA = """
CREATE TABLE IF NOT EXISTS events (
    uuid TEXT PRIMARY KEY,
    info TEXT NOT NULL,
    date TEXT NOT NULL,
    org TEXT NOT NULL,
    threat_level_id INTEGER NOT NULL,
    analysis INTEGER NOT NULL,
    distribution INTEGER NOT NULL,
    published INTEGER NOT NULL,
    timestamp INTEGER NOT NULL,
    blob TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS attributes (
    uuid TEXT PRIMARY KEY,
    event_uuid TEXT NOT NULL REFERENCES events(uuid) ON DELETE CASCADE,
    type TEXT NOT NULL,
    category TEXT NOT NULL,
    value TEXT NOT NULL,
    to_ids INTEGER NOT NULL,
    correlatable INTEGER NOT NULL,
    timestamp INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_attributes_value_type
    ON attributes(value, type);
CREATE INDEX IF NOT EXISTS idx_attributes_event ON attributes(event_uuid);
CREATE TABLE IF NOT EXISTS event_tags (
    event_uuid TEXT NOT NULL REFERENCES events(uuid) ON DELETE CASCADE,
    name TEXT NOT NULL,
    UNIQUE(event_uuid, name)
);
CREATE TABLE IF NOT EXISTS correlations (
    source_attribute TEXT NOT NULL,
    target_attribute TEXT NOT NULL,
    source_event TEXT NOT NULL,
    target_event TEXT NOT NULL,
    value TEXT NOT NULL,
    UNIQUE(source_attribute, target_attribute)
);
"""

#: Tables only the *catalog* carries (global ordered logs + ledgers).
CATALOG_SCHEMA = """
CREATE TABLE IF NOT EXISTS audit_log (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    event_uuid TEXT NOT NULL,
    action TEXT NOT NULL,
    detail TEXT NOT NULL DEFAULT '',
    logged_at INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_audit_event ON audit_log(event_uuid);
CREATE TABLE IF NOT EXISTS sync_state (
    entity TEXT PRIMARY KEY,
    watermark INTEGER NOT NULL,
    updated_at INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS sync_digests (
    entity TEXT NOT NULL,
    event_uuid TEXT NOT NULL,
    digest TEXT NOT NULL,
    PRIMARY KEY (entity, event_uuid)
);
CREATE TABLE IF NOT EXISTS provenance (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    trace_id TEXT NOT NULL,
    event_uuid TEXT NOT NULL,
    kind TEXT NOT NULL,
    actor TEXT NOT NULL DEFAULT '',
    org TEXT NOT NULL DEFAULT '',
    detail TEXT NOT NULL DEFAULT '',
    cycle INTEGER NOT NULL DEFAULT 0,
    logged_at INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_provenance_trace ON provenance(trace_id);
CREATE INDEX IF NOT EXISTS idx_provenance_event ON provenance(event_uuid);
CREATE TABLE IF NOT EXISTS counters (
    name TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS rollup_state (
    name TEXT PRIMARY KEY,
    position INTEGER NOT NULL,
    state TEXT NOT NULL DEFAULT '',
    updated_at INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS store_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

_PROVENANCE_COLS = ("seq, trace_id, event_uuid, kind, actor, org,"
                    " detail, cycle, logged_at")


def provenance_row(raw: Sequence[Any]) -> Dict[str, Any]:
    """Dict-shape one provenance row (shared by both SQLite backends)."""
    return {"seq": raw[0], "trace_id": raw[1], "event_uuid": raw[2],
            "kind": raw[3], "actor": raw[4], "org": raw[5],
            "detail": raw[6], "cycle": raw[7], "logged_at": raw[8]}


class CountingConnection:
    """A SQLite connection that counts Python→SQLite round trips.

    The counter feeds ``MispStore.sql_statements`` so the SQL-budget benches
    keep working across backends.  ``check_same_thread=False`` because the
    sharded backend commits worker transactions from its coordinating
    thread.
    """

    def __init__(self, path: str, cache_pages: Optional[int] = None) -> None:
        self.path = path
        self.raw = sqlite3.connect(path, check_same_thread=False)
        self.statements = 0
        self.raw.execute("PRAGMA foreign_keys = ON")
        if path != ":memory:":
            # WAL lets readers proceed while a batch commit is in flight;
            # NORMAL fsyncs at checkpoints instead of every commit.
            self.raw.execute("PRAGMA journal_mode = WAL")
            self.raw.execute("PRAGMA synchronous = NORMAL")
        if cache_pages is not None:
            # Fixed page-cache budget *per connection*: a sharded store's
            # aggregate cache scales with shard count (docs/PERFORMANCE.md).
            self.raw.execute(f"PRAGMA cache_size = {int(cache_pages)}")

    def execute(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        self.statements += 1
        return self.raw.execute(sql, params)

    def executemany(self, sql: str, rows: Sequence[Sequence]
                    ) -> sqlite3.Cursor:
        self.statements += 1
        return self.raw.executemany(sql, rows)

    def executescript(self, script: str) -> None:
        self.raw.executescript(script)

    def commit(self) -> None:
        self.raw.commit()

    def rollback(self) -> None:
        self.raw.rollback()

    def close(self) -> None:
        self.raw.close()

    @property
    def total_changes(self) -> int:
        return self.raw.total_changes

    def query_plan(self, sql: str, params: Sequence = ()) -> str:
        """``EXPLAIN QUERY PLAN`` rendered as one string (for tests)."""
        rows = self.raw.execute(f"EXPLAIN QUERY PLAN {sql}", params).fetchall()
        return "\n".join(str(row[-1]) for row in rows)


def init_meta(conn: CountingConnection, shards: int) -> None:
    """Record (or validate) the store's shard layout in ``store_meta``."""
    row = conn.execute(
        "SELECT value FROM store_meta WHERE key = 'shards'").fetchone()
    if row is None:
        conn.execute(
            "INSERT INTO store_meta (key, value) VALUES ('shards', ?)",
            (str(int(shards)),))
        conn.commit()
    elif int(row[0]) != shards:
        raise StorageError(
            f"store at {conn.path!r} was created with {row[0]} shard(s); "
            f"refusing to open it with {shards}")


def init_counters(conn: CountingConnection,
                  counts: Mapping[str, int]) -> None:
    """Seed missing counter rows (migration path for pre-counter stores)."""
    for name, value in counts.items():
        row = conn.execute(
            "SELECT value FROM counters WHERE name = ?", (name,)).fetchone()
        if row is None:
            conn.execute(
                "INSERT INTO counters (name, value) VALUES (?,?)",
                (name, int(value)))
    conn.commit()


def bump_counter(conn: CountingConnection, name: str, delta: int) -> None:
    """Adjust one maintained counter inside the caller's transaction."""
    if delta:
        conn.execute(
            "UPDATE counters SET value = value + ? WHERE name = ?",
            (int(delta), name))


def read_counter(conn: CountingConnection, name: str) -> int:
    row = conn.execute(
        "SELECT value FROM counters WHERE name = ?", (name,)).fetchone()
    return int(row[0]) if row is not None else 0


def detect_shard_count(path: str) -> Optional[int]:
    """The shard count recorded in an existing store file (None if absent).

    Lets ``MispStore(path)`` open a sharded store the way it was created
    without the caller re-supplying ``--store-shards``.
    """
    import os

    if path == ":memory:" or not os.path.exists(path):
        return None
    try:
        conn = sqlite3.connect(path)
        try:
            row = conn.execute(
                "SELECT value FROM store_meta WHERE key = 'shards'"
            ).fetchone()
        finally:
            conn.close()
    except sqlite3.Error:
        return None
    return int(row[0]) if row is not None else None


class CatalogOps:
    """Audit / provenance / delta-sync methods over a catalog connection.

    Both SQLite backends keep these global, strictly-ordered tables in one
    database — the single-file backend in its only file, the sharded
    backend in its catalog — so the method bodies are identical given
    ``self._cat``.  ``events_changed_since`` filters deleted events through
    the concrete backend's :meth:`existing_events`.
    """

    _cat: CountingConnection

    # -- audit --------------------------------------------------------------

    def event_history(self, uuid: str) -> List[Dict[str, Any]]:
        rows = self._cat.execute(
            "SELECT seq, action, detail, logged_at FROM audit_log"
            " WHERE event_uuid = ? ORDER BY seq", (uuid,)).fetchall()
        return [{"seq": r[0], "action": r[1], "detail": r[2],
                 "logged_at": r[3]} for r in rows]

    def audit_count(self) -> int:
        return self._cat.execute(
            "SELECT COUNT(*) FROM audit_log").fetchone()[0]

    def max_audit_seq(self) -> int:
        row = self._cat.execute(
            "SELECT MAX(seq) FROM audit_log").fetchone()
        return int(row[0]) if row and row[0] is not None else 0

    def events_changed_since(self, after_seq: int,
                             until_seq: Optional[int] = None
                             ) -> List[Tuple[str, int]]:
        query = ("SELECT event_uuid, MAX(seq) AS last_seq FROM audit_log"
                 " WHERE seq > ?")
        params: List[Any] = [int(after_seq)]
        if until_seq is not None:
            query += " AND seq <= ?"
            params.append(int(until_seq))
        query += " GROUP BY event_uuid"
        rows = self._cat.execute(query, params).fetchall()
        # Deleted events drop out: keep only uuids that still exist.
        alive = self.existing_events([row[0] for row in rows])
        changed = [(row[0], int(row[1])) for row in rows if row[0] in alive]
        changed.sort(key=lambda pair: (pair[1], pair[0]))
        return changed

    def changes_since(self, after_seq: int,
                      until_seq: Optional[int] = None,
                      limit: Optional[int] = None
                      ) -> List[Tuple[int, str, str, int]]:
        query = ("SELECT seq, event_uuid, action, logged_at FROM audit_log"
                 " WHERE seq > ?")
        params: List[Any] = [int(after_seq)]
        if until_seq is not None:
            query += " AND seq <= ?"
            params.append(int(until_seq))
        query += " ORDER BY seq"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        rows = self._cat.execute(query, params).fetchall()
        return [(int(r[0]), r[1], r[2], int(r[3])) for r in rows]

    def existing_events(self, uuids: Sequence[str]) -> Set[str]:
        raise NotImplementedError

    # -- rollup cursors -------------------------------------------------------

    def get_rollup(self, name: str) -> Optional[Tuple[int, str]]:
        row = self._cat.execute(
            "SELECT position, state FROM rollup_state WHERE name = ?",
            (name,)).fetchone()
        return (int(row[0]), row[1]) if row is not None else None

    def set_rollup(self, name: str, position: int, state: str = "",
                   logged_at: int = 0) -> None:
        try:
            self._cat.execute(
                "INSERT OR REPLACE INTO rollup_state (name, position,"
                " state, updated_at) VALUES (?,?,?,?)",
                (name, int(position), state, int(logged_at)))
        except BaseException:
            self._cat.rollback()
            raise
        self._cat.commit()

    def rollup_names(self) -> List[str]:
        rows = self._cat.execute(
            "SELECT name FROM rollup_state ORDER BY name").fetchall()
        return [row[0] for row in rows]

    # -- provenance ---------------------------------------------------------

    def add_provenance(self, rows: Sequence[Tuple]) -> int:
        rows = list(rows)
        if not rows:
            return 0
        try:
            self._cat.executemany(
                "INSERT INTO provenance (trace_id, event_uuid, kind, actor,"
                " org, detail, cycle, logged_at) VALUES (?,?,?,?,?,?,?,?)",
                rows)
        except BaseException:
            self._cat.rollback()
            raise
        self._cat.commit()
        return len(rows)

    def provenance_for_event(self, event_uuid: str) -> List[Dict[str, Any]]:
        rows = self._cat.execute(
            f"SELECT {_PROVENANCE_COLS} FROM provenance"
            " WHERE event_uuid = ? ORDER BY seq", (event_uuid,)).fetchall()
        return [provenance_row(row) for row in rows]

    def provenance_for_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        rows = self._cat.execute(
            f"SELECT {_PROVENANCE_COLS} FROM provenance"
            " WHERE trace_id = ? ORDER BY seq", (trace_id,)).fetchall()
        return [provenance_row(row) for row in rows]

    def provenance_count(self) -> int:
        return self._cat.execute(
            "SELECT COUNT(*) FROM provenance").fetchone()[0]

    def latest_traced_event(self) -> Optional[str]:
        row = self._cat.execute(
            "SELECT event_uuid FROM provenance"
            " ORDER BY seq DESC LIMIT 1").fetchone()
        return row[0] if row is not None else None

    # -- delta-sync ledger ---------------------------------------------------

    def get_sync_watermark(self, entity: str) -> int:
        row = self._cat.execute(
            "SELECT watermark FROM sync_state WHERE entity = ?",
            (entity,)).fetchone()
        return int(row[0]) if row is not None else 0

    def set_sync_watermark(self, entity: str, watermark: int,
                           logged_at: int = 0) -> None:
        try:
            self._cat.execute(
                "INSERT OR REPLACE INTO sync_state (entity, watermark,"
                " updated_at) VALUES (?,?,?)",
                (entity, int(watermark), int(logged_at)))
        except BaseException:
            self._cat.rollback()
            raise
        self._cat.commit()

    def sync_watermarks(self) -> Dict[str, int]:
        rows = self._cat.execute(
            "SELECT entity, watermark FROM sync_state ORDER BY entity"
        ).fetchall()
        return {row[0]: int(row[1]) for row in rows}

    def get_sync_digests(self, entity: str,
                         uuids: Sequence[str]) -> Dict[str, str]:
        unique = list(dict.fromkeys(uuids))
        found: Dict[str, str] = {}
        for chunk in chunks(unique, chunk_size(reserved=1)):
            placeholders = ",".join("?" * len(chunk))
            rows = self._cat.execute(
                "SELECT event_uuid, digest FROM sync_digests"
                f" WHERE entity = ? AND event_uuid IN ({placeholders})",
                [entity, *chunk]).fetchall()
            found.update({row[0]: row[1] for row in rows})
        return found

    def set_sync_digests(self, entity: str,
                         digests: Mapping[str, str]) -> None:
        if not digests:
            return
        try:
            self._cat.executemany(
                "INSERT OR REPLACE INTO sync_digests"
                " (entity, event_uuid, digest) VALUES (?,?,?)",
                [(entity, uuid, digest)
                 for uuid, digest in digests.items()])
        except BaseException:
            self._cat.rollback()
            raise
        self._cat.commit()

    def sync_digest_count(self, entity: Optional[str] = None) -> int:
        if entity is None:
            return self._cat.execute(
                "SELECT COUNT(*) FROM sync_digests").fetchone()[0]
        return self._cat.execute(
            "SELECT COUNT(*) FROM sync_digests WHERE entity = ?",
            (entity,)).fetchone()[0]

    def sync_digest_rows(self) -> List[Tuple[str, str, str]]:
        rows = self._cat.execute(
            "SELECT entity, event_uuid, digest FROM sync_digests"
            " ORDER BY entity, event_uuid").fetchall()
        return [(row[0], row[1], row[2]) for row in rows]

    # -- counters -----------------------------------------------------------

    def event_count(self) -> int:
        return read_counter(self._cat, "events")

    def attribute_count(self) -> int:
        return read_counter(self._cat, "attributes")

    def correlation_count(self) -> int:
        return read_counter(self._cat, "correlations")


class SQLiteBackend(CatalogOps, StorageBackend):
    """The classic one-file store: shard tables + catalog tables together."""

    def __init__(self, path: str = ":memory:",
                 cache_pages: Optional[int] = None) -> None:
        self._conn = CountingConnection(path, cache_pages=cache_pages)
        self._cat = self._conn
        self._path = path
        self._conn.executescript(SHARD_SCHEMA)
        self._conn.executescript(CATALOG_SCHEMA)
        init_meta(self._conn, shards=1)
        init_counters(self._conn, {
            "events": self._count_table("events"),
            "attributes": self._count_table("attributes"),
            "correlations": self._count_table("correlations"),
        })

    def _count_table(self, table: str) -> int:
        return self._conn.execute(
            f"SELECT COUNT(*) FROM {table}").fetchone()[0]

    # -- lifecycle ----------------------------------------------------------

    def info(self) -> BackendInfo:
        paths = [] if self._path == ":memory:" else [self._path]
        return BackendInfo(kind="sqlite", shard_count=1, paths=paths)

    def close(self) -> None:
        self._conn.close()

    @property
    def sql_statements(self) -> int:  # type: ignore[override]
        return self._conn.statements

    def query_plan(self, sql: str, params: Sequence = ()) -> str:
        """Expose the planner's choice for index-usage assertions."""
        return self._conn.query_plan(sql, params)

    # -- events -------------------------------------------------------------

    def existing_events(self, uuids: Sequence[str]) -> Set[str]:
        existing: Set[str] = set()
        for chunk in chunks(list(uuids), chunk_size()):
            placeholders = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                f"SELECT uuid FROM events WHERE uuid IN ({placeholders})",
                chunk).fetchall()
            existing.update(row[0] for row in rows)
        return existing

    def persist_batch(self, batch: PersistBatch) -> Dict[int, int]:
        conn = self._conn
        try:
            # Count the rows this batch replaces *before* the events upsert:
            # REPLACE cascades old attribute rows away, and cascade deletes
            # are invisible to total_changes.
            deleted_attributes = 0
            for chunk in chunks(batch.uuids, chunk_size()):
                placeholders = ",".join("?" * len(chunk))
                deleted_attributes += conn.execute(
                    "SELECT COUNT(*) FROM attributes WHERE event_uuid IN"
                    f" ({placeholders})", chunk).fetchone()[0]
            conn.executemany(
                "INSERT INTO audit_log (event_uuid, action, detail,"
                " logged_at) VALUES (?,?,?,?)", batch.audit_rows)
            conn.executemany(
                "INSERT OR REPLACE INTO events "
                "(uuid, info, date, org, threat_level_id, analysis,"
                " distribution, published, timestamp, blob)"
                " VALUES (?,?,?,?,?,?,?,?,?,?)", batch.event_rows)
            conn.executemany(
                "DELETE FROM attributes WHERE event_uuid = ?",
                [(uuid,) for uuid in batch.uuids])
            conn.executemany(
                "DELETE FROM event_tags WHERE event_uuid = ?",
                [(uuid,) for uuid in batch.uuids])
            conn.executemany(
                "INSERT OR REPLACE INTO attributes "
                "(uuid, event_uuid, type, category, value, to_ids,"
                " correlatable, timestamp) VALUES (?,?,?,?,?,?,?,?)",
                batch.attribute_rows)
            if batch.tag_rows:
                conn.executemany(
                    "INSERT OR IGNORE INTO event_tags (event_uuid, name)"
                    " VALUES (?,?)", batch.tag_rows)
            bump_counter(conn, "events", batch.new_events)
            bump_counter(conn, "attributes",
                         len(batch.attribute_rows) - deleted_attributes)
        except BaseException:
            conn.rollback()
            raise
        conn.commit()
        return {0: len(batch.uuids)}

    def has_event(self, uuid: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM events WHERE uuid = ?", (uuid,)).fetchone()
        return row is not None

    def get_event_blob(self, uuid: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT blob FROM events WHERE uuid = ?", (uuid,)).fetchone()
        return row[0] if row is not None else None

    def get_event_blobs(self, uuids: Sequence[str]
                        ) -> Dict[str, Optional[str]]:
        result: Dict[str, Optional[str]] = {uuid: None for uuid in uuids}
        unique = list(result)
        for chunk in chunks(unique, chunk_size()):
            placeholders = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                f"SELECT uuid, blob FROM events WHERE uuid IN"
                f" ({placeholders})", chunk).fetchall()
            for uuid, blob in rows:
                result[uuid] = blob
        return result

    def events_with_tag(self, tag: str, uuids: Sequence[str]) -> Set[str]:
        unique = list(dict.fromkeys(uuids))
        found: Set[str] = set()
        for chunk in chunks(unique, chunk_size(reserved=1)):
            placeholders = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                "SELECT DISTINCT event_uuid FROM event_tags"
                f" WHERE name = ? AND event_uuid IN ({placeholders})",
                [tag, *chunk]).fetchall()
            found.update(row[0] for row in rows)
        return found

    def delete_event(self, uuid: str,
                     logged_at: Optional[int] = None) -> bool:
        conn = self._conn
        try:
            row = conn.execute(
                "SELECT timestamp FROM events WHERE uuid = ?",
                (uuid,)).fetchone()
            attributes = conn.execute(
                "SELECT COUNT(*) FROM attributes WHERE event_uuid = ?",
                (uuid,)).fetchone()[0]
            cursor = conn.execute(
                "DELETE FROM events WHERE uuid = ?", (uuid,))
            deleted = cursor.rowcount > 0
            if deleted:
                if logged_at is None:
                    logged_at = int(row[0]) if row is not None else 0
                conn.execute(
                    "INSERT INTO audit_log (event_uuid, action, detail,"
                    " logged_at) VALUES (?,?,?,?)",
                    (uuid, "deleted", "", logged_at))
                bump_counter(conn, "events", -1)
                bump_counter(conn, "attributes", -attributes)
        except BaseException:
            conn.rollback()
            raise
        conn.commit()
        return deleted

    def list_event_blobs(self, limit: Optional[int] = None,
                         published_only: bool = False,
                         since_ts: Optional[int] = None) -> List[str]:
        query = "SELECT blob FROM events"
        params: List[Any] = []
        clauses: List[str] = []
        if published_only:
            clauses.append("published = 1")
        if since_ts is not None:
            clauses.append("timestamp >= ?")
            params.append(int(since_ts))
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY timestamp DESC, uuid"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        rows = self._conn.execute(query, params).fetchall()
        return [row[0] for row in rows]

    # -- search -------------------------------------------------------------

    def search_value(self, value: str) -> List[Tuple[str, str]]:
        rows = self._conn.execute(
            "SELECT event_uuid, uuid FROM attributes WHERE value = ?"
            " ORDER BY rowid", (value,)).fetchall()
        return [(r[0], r[1]) for r in rows]

    def search_event_blobs(self, info_substring: Optional[str] = None,
                           tag: Optional[str] = None,
                           attribute_type: Optional[str] = None,
                           value: Optional[str] = None) -> List[str]:
        query = "SELECT DISTINCT e.blob, e.timestamp, e.uuid FROM events e"
        clauses: List[str] = []
        params: List[Any] = []
        if tag is not None:
            query += " JOIN event_tags t ON t.event_uuid = e.uuid"
            clauses.append("t.name = ?")
            params.append(tag)
        if attribute_type is not None or value is not None:
            query += " JOIN attributes a ON a.event_uuid = e.uuid"
            if attribute_type is not None:
                clauses.append("a.type = ?")
                params.append(attribute_type)
            if value is not None:
                clauses.append("a.value = ?")
                params.append(value)
        if info_substring is not None:
            clauses.append("e.info LIKE ?")
            params.append(f"%{info_substring}%")
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY e.timestamp DESC, e.uuid"
        rows = self._conn.execute(query, params).fetchall()
        return [row[0] for row in rows]

    def correlatable_attributes(self, value: str,
                                exclude_event: Optional[str] = None
                                ) -> List[Tuple[str, str]]:
        query = ("SELECT event_uuid, uuid FROM attributes "
                 "WHERE value = ? AND correlatable = 1")
        params: List[Any] = [value]
        if exclude_event is not None:
            query += " AND event_uuid != ?"
            params.append(exclude_event)
        query += " ORDER BY rowid"
        return [(r[0], r[1])
                for r in self._conn.execute(query, params).fetchall()]

    def correlatable_attributes_many(
            self, values: Sequence[str]
    ) -> Dict[str, List[Tuple[str, str]]]:
        result: Dict[str, List[Tuple[str, str]]] = {
            value: [] for value in values}
        unique = list(result)
        for chunk in chunks(unique, chunk_size()):
            placeholders = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                "SELECT value, event_uuid, uuid FROM attributes"
                f" WHERE correlatable = 1 AND value IN ({placeholders})"
                " ORDER BY rowid", chunk).fetchall()
            for value, event_uuid, attribute_uuid in rows:
                result[value].append((event_uuid, attribute_uuid))
        return result

    # -- correlations --------------------------------------------------------

    def save_correlations(
            self, edges: Sequence[Tuple[str, str, str, str, str]]) -> int:
        edges = list(edges)
        if not edges:
            return 0
        conn = self._conn
        try:
            before = conn.total_changes
            conn.executemany(
                "INSERT OR IGNORE INTO correlations VALUES (?,?,?,?,?)",
                edges)
            inserted = conn.total_changes - before
            bump_counter(conn, "correlations", inserted)
        except BaseException:
            conn.rollback()
            raise
        conn.commit()
        return inserted

    def correlations_for_event(self, event_uuid: str) -> List[Dict[str, str]]:
        rows = self._conn.execute(
            "SELECT source_attribute, target_attribute, source_event,"
            " target_event, value FROM correlations"
            " WHERE source_event = ? OR target_event = ?"
            " ORDER BY rowid",
            (event_uuid, event_uuid),
        ).fetchall()
        return [
            {
                "source_attribute": r[0], "target_attribute": r[1],
                "source_event": r[2], "target_event": r[3], "value": r[4],
            }
            for r in rows
        ]

    def correlations_for_events(
            self, uuids: Sequence[str]) -> Dict[str, List[Dict[str, str]]]:
        result: Dict[str, List[Dict[str, str]]] = {uuid: [] for uuid in uuids}
        unique = list(result)
        # Each uuid binds twice (source IN + target IN), so the chunk size
        # halves to stay inside the bound-variable budget.
        for chunk in chunks(unique, chunk_size(per_item=2)):
            chunk_set = set(chunk)
            placeholders = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                "SELECT source_attribute, target_attribute, source_event,"
                " target_event, value FROM correlations"
                f" WHERE source_event IN ({placeholders})"
                f" OR target_event IN ({placeholders})"
                " ORDER BY rowid", [*chunk, *chunk]).fetchall()
            for r in rows:
                row = {
                    "source_attribute": r[0], "target_attribute": r[1],
                    "source_event": r[2], "target_event": r[3], "value": r[4],
                }
                # Attach only to uuids of *this* chunk: a row whose two
                # sides land in different chunks is returned by both chunk
                # queries and must not be double-counted.
                for side in {r[2], r[3]}:
                    if side in chunk_set:
                        result[side].append(row)
        return result
