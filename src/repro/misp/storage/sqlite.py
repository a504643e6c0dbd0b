"""SQLite storage backend: one file, or a catalog plus N hash shards.

``SQLiteBackend(path, shards=N)`` keeps everything that must stay globally
ordered or globally searchable in one *catalog* database:

- ``audit_log`` — the monotonic change cursor, inserted in batch order so
  AUTOINCREMENT ``seq`` assignment is identical at every shard count;
- ``attributes`` — every attribute row.  Its ``rowid`` order is batch order
  at any shard count, so value search and correlation probes read it
  without touching a shard, behind a composite ``(value, type)`` index;
- ``provenance``, ``sync_state``, ``sync_digests``, ``rollup_state``;
- ``counters`` — maintained transactionally so ``event_count`` /
  ``attribute_count`` / ``correlation_count`` are O(1) reads (the obs layer
  polls them every cycle);
- ``store_meta`` — the shard count, so ``MispStore`` can auto-detect how to
  open an existing file.

Events, their tags and their correlation rows live on the shard picked by
:func:`~repro.misp.storage.base.shard_of` (a sha256 prefix of the event
uuid), so per-event work — above all correlation-row scans, which SQLite
resolves by walking the whole ``correlations`` table — touches ``1/N`` of
the corpus.  At ``shards=1`` the catalog connection *is* shard 0: one file
holding every table, the classic single-file layout.

Write protocol (the determinism contract of docs/PERFORMANCE.md): commits
are serial — shards in ascending shard order, catalog last — so any shard
count produces the same durable state and the same audit sequences.
Correlation edges are written to *both* endpoint shards (one copy when both
ends hash to the same shard); the catalog counter tracks logical edges, so
counts match at every shard count byte for byte.

Chunked queries derive their chunk size from the shared
:data:`~repro.misp.storage.base.MAX_BOUND_VARS` budget, so no query can
exceed SQLite's bound-variable limit however many uuids a cycle carries.
"""

from __future__ import annotations

import os
import sqlite3
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ...errors import StorageError
from .base import (
    BackendInfo,
    PersistBatch,
    StorageBackend,
    chunk_size,
    chunks,
    shard_of,
)

#: Tables every *shard* carries (relational event data).
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
#: ``attributes`` has no foreign key: with 2+ shards the catalog holds no
#: ``events`` table for it to reference.  Single files created before the
#: attributes moved here still declare ``REFERENCES events ON DELETE
#: CASCADE``; every write path below is ordered so that clause is inert.
CATALOG_SCHEMA = """
CREATE TABLE IF NOT EXISTS attributes (
    uuid TEXT PRIMARY KEY,
    event_uuid TEXT NOT NULL,
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

_CORRELATION_COLS = ("source_attribute, target_attribute, source_event,"
                     " target_event, value")


def provenance_row(raw: Sequence[Any]) -> Dict[str, Any]:
    """Dict-shape one provenance row."""
    return {"seq": raw[0], "trace_id": raw[1], "event_uuid": raw[2],
            "kind": raw[3], "actor": raw[4], "org": raw[5],
            "detail": raw[6], "cycle": raw[7], "logged_at": raw[8]}


def correlation_row(raw: Sequence[str]) -> Dict[str, str]:
    """Dict-shape one correlation row."""
    return {"source_attribute": raw[0], "target_attribute": raw[1],
            "source_event": raw[2], "target_event": raw[3], "value": raw[4]}


class CountingConnection:
    """A SQLite connection that counts Python→SQLite round trips.

    The counter feeds ``MispStore.sql_statements`` so the SQL-budget benches
    keep working across backends.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.raw = sqlite3.connect(path)
        self.statements = 0
        self.raw.execute("PRAGMA foreign_keys = ON")
        if path != ":memory:":
            # WAL lets readers proceed while a batch commit is in flight;
            # NORMAL fsyncs at checkpoints instead of every commit.
            self.raw.execute("PRAGMA journal_mode = WAL")
            self.raw.execute("PRAGMA synchronous = NORMAL")

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


def shard_path(path: str, shard: int) -> str:
    """Filesystem path of one shard database (stores with 2+ shards)."""
    return f"{path}.shard-{shard:02d}"


def detect_shard_count(path: str) -> Optional[int]:
    """The shard count recorded in an existing store file (None if absent).

    Lets ``MispStore(path)`` open a sharded store the way it was created
    without the caller re-supplying ``--store-shards``.
    """
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


class SQLiteBackend(StorageBackend):
    """SQLite store: a catalog database plus ``shards`` event shards.

    ``path`` names the catalog.  With one shard the catalog file holds the
    shard tables too; with more, shards live beside it as
    ``<path>.shard-NN``, and ``path=":memory:"`` gives every shard its own
    private in-memory database.
    """

    def __init__(self, path: str = ":memory:", shards: int = 1) -> None:
        if shards < 1:
            raise StorageError(f"a store needs >= 1 shard, got {shards}")
        self._path = path
        self._shards = int(shards)
        self._cat = CountingConnection(path)
        if path != ":memory:" and self._cat.execute(
                "SELECT 1 FROM sqlite_master WHERE name = 'value_index'"
        ).fetchone() is not None:
            self._cat.close()
            raise StorageError(
                f"store at {path!r} uses the retired sharded layout (a"
                " catalog value_index, attributes on the shards); it cannot"
                " be opened by this version")
        self._cat.executescript(CATALOG_SCHEMA)
        self._init_meta()
        if self._shards == 1:
            self._conns = [self._cat]
        else:
            self._conns = [
                CountingConnection(":memory:" if path == ":memory:"
                                   else shard_path(path, shard))
                for shard in range(self._shards)]
        for conn in self._conns:
            conn.executescript(SHARD_SCHEMA)
        self._init_counters()

    def _init_meta(self) -> None:
        """Record (or validate) the shard layout in ``store_meta``."""
        row = self._cat.execute(
            "SELECT value FROM store_meta WHERE key = 'shards'").fetchone()
        if row is None:
            self._cat.execute(
                "INSERT INTO store_meta (key, value) VALUES ('shards', ?)",
                (str(self._shards),))
            self._cat.commit()
        elif int(row[0]) != self._shards:
            self._cat.close()
            raise StorageError(
                f"store at {self._path!r} was created with {row[0]} shard(s);"
                f" refusing to open it with {self._shards}")

    def _init_counters(self) -> None:
        """Seed missing counter rows; a count is computed only when its row
        is missing (a fresh store, or one that predates the counters)."""
        present = {row[0] for row in self._cat.execute(
            "SELECT name FROM counters").fetchall()}
        for name, count in (("events", self._count_events),
                            ("attributes", self._count_attributes),
                            ("correlations", self._count_correlations)):
            if name not in present:
                self._cat.execute(
                    "INSERT INTO counters (name, value) VALUES (?,?)",
                    (name, count()))
        self._cat.commit()

    def _count_events(self) -> int:
        return sum(conn.execute("SELECT COUNT(*) FROM events").fetchone()[0]
                   for conn in self._conns)

    def _count_attributes(self) -> int:
        return self._cat.execute(
            "SELECT COUNT(*) FROM attributes").fetchone()[0]

    def _count_correlations(self) -> int:
        # Mirrored rows mean a raw sum double-counts cross-shard edges; an
        # edge's primary copy is the one on its *source* event's shard.
        return sum(
            1 for shard, conn in enumerate(self._conns)
            for (source_event,) in conn.execute(
                "SELECT source_event FROM correlations").fetchall()
            if self._shard_for(source_event) == shard)

    def _shard_for(self, event_uuid: str) -> int:
        return shard_of(event_uuid, self._shards)

    def _group_by_shard(self, rows: Sequence, key=lambda row: row
                        ) -> Dict[int, List]:
        """Split ``rows`` by their event's shard, keeping order per shard."""
        if self._shards == 1:
            return {0: list(rows)} if rows else {}
        grouped: Dict[int, List] = {}
        for row in rows:
            grouped.setdefault(self._shard_for(key(row)), []).append(row)
        return grouped

    @contextmanager
    def _transaction(self, shards: Sequence[int] = ()) -> Iterator[None]:
        """One atomic write over ``shards`` plus the catalog.

        Commits are serial and deterministic: shards ascending, catalog
        last, so readers never observe catalog state ahead of shard state.
        """
        conns = [self._conns[shard] for shard in sorted(shards)
                 if self._conns[shard] is not self._cat] + [self._cat]
        try:
            yield
        except BaseException:
            for conn in conns:
                conn.rollback()
            raise
        for conn in conns:
            conn.commit()

    def _merged_blobs(self, queries: Sequence[Tuple[CountingConnection, str,
                                                    Sequence]]) -> List[str]:
        """Run ``blob, timestamp, uuid`` queries ordered by ``timestamp DESC,
        uuid`` and merge their rows on that same fully-specified key."""
        if len(queries) == 1:
            conn, sql, params = queries[0]
            return [row[0] for row in conn.execute(sql, params).fetchall()]
        merged: List[Tuple[int, str, str]] = []
        for conn, sql, params in queries:
            for blob, timestamp, uuid in conn.execute(sql, params).fetchall():
                merged.append((-int(timestamp), uuid, blob))
        merged.sort(key=lambda row: (row[0], row[1]))
        return [row[2] for row in merged]

    # -- lifecycle ----------------------------------------------------------

    def info(self) -> BackendInfo:
        paths: List[str] = []
        if self._path != ":memory:":
            paths = [self._path]
            if self._shards > 1:
                paths += [shard_path(self._path, shard)
                          for shard in range(self._shards)]
        return BackendInfo(kind="sqlite", shard_count=self._shards,
                           paths=paths)

    def close(self) -> None:
        for conn in self._conns:
            if conn is not self._cat:
                conn.close()
        self._cat.close()

    @property
    def sql_statements(self) -> int:  # type: ignore[override]
        return self._cat.statements + sum(
            conn.statements for conn in self._conns
            if conn is not self._cat)

    def query_plan(self, sql: str, params: Sequence = ()) -> str:
        """The *catalog* planner's choice (value probes run there)."""
        return self._cat.query_plan(sql, params)

    # -- events -------------------------------------------------------------

    def existing_events(self, uuids: Sequence[str]) -> Set[str]:
        existing: Set[str] = set()
        for shard, members in sorted(self._group_by_shard(uuids).items()):
            conn = self._conns[shard]
            for chunk in chunks(members, chunk_size()):
                placeholders = ",".join("?" * len(chunk))
                rows = conn.execute(
                    f"SELECT uuid FROM events WHERE uuid IN ({placeholders})",
                    chunk).fetchall()
                existing.update(row[0] for row in rows)
        return existing

    def persist_batch(self, batch: PersistBatch) -> Dict[int, int]:
        shard_uuids = self._group_by_shard(batch.uuids)
        shard_events = self._group_by_shard(batch.event_rows,
                                            lambda row: row[0])
        shard_tags = self._group_by_shard(batch.tag_rows, lambda row: row[0])
        touched = sorted(shard_uuids)
        cat = self._cat
        with self._transaction(touched):
            # Delete (and count) the attribute rows this batch replaces
            # *before* the events upsert.  Single files from earlier
            # releases declare attributes ON DELETE CASCADE: an earlier
            # REPLACE would remove the old rows uncounted, and one after
            # the attribute insert would remove the fresh rows.
            before = cat.total_changes
            cat.executemany(
                "DELETE FROM attributes WHERE event_uuid = ?",
                [(uuid,) for uuid in batch.uuids])
            deleted_attributes = cat.total_changes - before
            cat.executemany(
                "INSERT INTO audit_log (event_uuid, action, detail,"
                " logged_at) VALUES (?,?,?,?)", batch.audit_rows)
            for shard in touched:
                conn = self._conns[shard]
                conn.executemany(
                    "INSERT OR REPLACE INTO events "
                    "(uuid, info, date, org, threat_level_id, analysis,"
                    " distribution, published, timestamp, blob)"
                    " VALUES (?,?,?,?,?,?,?,?,?,?)",
                    shard_events.get(shard, []))
                conn.executemany(
                    "DELETE FROM event_tags WHERE event_uuid = ?",
                    [(uuid,) for uuid in shard_uuids[shard]])
                if shard in shard_tags:
                    conn.executemany(
                        "INSERT OR IGNORE INTO event_tags (event_uuid, name)"
                        " VALUES (?,?)", shard_tags[shard])
            # Batch order: attribute rowids follow it at every shard count.
            cat.executemany(
                "INSERT OR REPLACE INTO attributes "
                "(uuid, event_uuid, type, category, value, to_ids,"
                " correlatable, timestamp) VALUES (?,?,?,?,?,?,?,?)",
                batch.attribute_rows)
            bump_counter(cat, "events", batch.new_events)
            bump_counter(cat, "attributes",
                         len(batch.attribute_rows) - deleted_attributes)
        return {shard: len(shard_uuids[shard]) for shard in touched}

    def has_event(self, uuid: str) -> bool:
        row = self._conns[self._shard_for(uuid)].execute(
            "SELECT 1 FROM events WHERE uuid = ?", (uuid,)).fetchone()
        return row is not None

    def get_event_blob(self, uuid: str) -> Optional[str]:
        row = self._conns[self._shard_for(uuid)].execute(
            "SELECT blob FROM events WHERE uuid = ?", (uuid,)).fetchone()
        return row[0] if row is not None else None

    def get_event_blobs(self, uuids: Sequence[str]
                        ) -> Dict[str, Optional[str]]:
        result: Dict[str, Optional[str]] = {uuid: None for uuid in uuids}
        for shard, members in sorted(self._group_by_shard(
                list(result)).items()):
            conn = self._conns[shard]
            for chunk in chunks(members, chunk_size()):
                placeholders = ",".join("?" * len(chunk))
                rows = conn.execute(
                    f"SELECT uuid, blob FROM events WHERE uuid IN"
                    f" ({placeholders})", chunk).fetchall()
                for uuid, blob in rows:
                    result[uuid] = blob
        return result

    def events_with_tag(self, tag: str, uuids: Sequence[str]) -> Set[str]:
        unique = list(dict.fromkeys(uuids))
        found: Set[str] = set()
        for shard, members in sorted(self._group_by_shard(unique).items()):
            conn = self._conns[shard]
            for chunk in chunks(members, chunk_size(reserved=1)):
                placeholders = ",".join("?" * len(chunk))
                rows = conn.execute(
                    "SELECT DISTINCT event_uuid FROM event_tags"
                    f" WHERE name = ? AND event_uuid IN ({placeholders})",
                    [tag, *chunk]).fetchall()
                found.update(row[0] for row in rows)
        return found

    def delete_event(self, uuid: str,
                     logged_at: Optional[int] = None) -> bool:
        shard = self._shard_for(uuid)
        conn = self._conns[shard]
        cat = self._cat
        with self._transaction([shard]):
            row = conn.execute(
                "SELECT timestamp FROM events WHERE uuid = ?",
                (uuid,)).fetchone()
            # Attributes first, so a cascading legacy schema has nothing
            # left to remove uncounted.
            attributes = cat.execute(
                "DELETE FROM attributes WHERE event_uuid = ?",
                (uuid,)).rowcount
            deleted = conn.execute(
                "DELETE FROM events WHERE uuid = ?", (uuid,)).rowcount > 0
            if deleted:
                if logged_at is None:
                    logged_at = int(row[0]) if row is not None else 0
                cat.execute(
                    "INSERT INTO audit_log (event_uuid, action, detail,"
                    " logged_at) VALUES (?,?,?,?)",
                    (uuid, "deleted", "", logged_at))
                bump_counter(cat, "events", -1)
                bump_counter(cat, "attributes", -attributes)
        return deleted

    def list_event_blobs(self, limit: Optional[int] = None,
                         published_only: bool = False,
                         since_ts: Optional[int] = None) -> List[str]:
        # Each shard pre-sorts (and pre-limits) its slice; the merge re-sorts
        # the union on the same fully-specified key.
        query = "SELECT blob, timestamp, uuid FROM events"
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
        blobs = self._merged_blobs(
            [(conn, query, params) for conn in self._conns])
        return blobs[:int(limit)] if limit is not None else blobs

    # -- search -------------------------------------------------------------

    def search_value(self, value: str) -> List[Tuple[str, str]]:
        rows = self._cat.execute(
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
        if info_substring is not None:
            clauses.append("e.info LIKE ?")
            params.append(f"%{info_substring}%")
        order = " ORDER BY e.timestamp DESC, e.uuid"
        if attribute_type is None and value is None:
            where = " WHERE " + " AND ".join(clauses) if clauses else ""
            return self._merged_blobs(
                [(conn, query + where + order, params)
                 for conn in self._conns])
        # Attribute filters resolve on the catalog, then narrow each shard.
        filters: List[str] = []
        filter_params: List[Any] = []
        if attribute_type is not None:
            filters.append("type = ?")
            filter_params.append(attribute_type)
        if value is not None:
            filters.append("value = ?")
            filter_params.append(value)
        matched = [row[0] for row in self._cat.execute(
            "SELECT DISTINCT event_uuid FROM attributes WHERE "
            + " AND ".join(filters), filter_params).fetchall()]
        queries = []
        for shard, members in sorted(self._group_by_shard(matched).items()):
            for chunk in chunks(members, chunk_size(reserved=len(params))):
                placeholders = ",".join("?" * len(chunk))
                where = " WHERE " + " AND ".join(
                    [*clauses, f"e.uuid IN ({placeholders})"])
                queries.append((self._conns[shard], query + where + order,
                                [*params, *chunk]))
        return self._merged_blobs(queries) if queries else []

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
                for r in self._cat.execute(query, params).fetchall()]

    def correlatable_attributes_many(
            self, values: Sequence[str]
    ) -> Dict[str, List[Tuple[str, str]]]:
        result: Dict[str, List[Tuple[str, str]]] = {
            value: [] for value in values}
        unique = list(result)
        for chunk in chunks(unique, chunk_size()):
            placeholders = ",".join("?" * len(chunk))
            rows = self._cat.execute(
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
        # Per-shard row lists in original edge order; a cross-shard edge
        # contributes its primary copy (source shard) and its mirror (target
        # shard) at the same position, so per-shard rowid order matches the
        # one-shard store's per-event row order.
        shard_rows: Dict[int, List[Tuple]] = {}
        for edge in edges:
            source, target = self._shard_for(edge[2]), self._shard_for(edge[3])
            shard_rows.setdefault(source, []).append(edge)
            if target != source:
                shard_rows.setdefault(target, []).append(edge)
        touched = sorted(shard_rows)
        probed = self._count_new_edges(edges) if self._shards > 1 else 0
        with self._transaction(touched):
            before = self._cat.total_changes
            for shard in touched:
                self._conns[shard].executemany(
                    "INSERT OR IGNORE INTO correlations VALUES (?,?,?,?,?)",
                    shard_rows[shard])
            # One shard holds no mirrors: its change count is the logical one.
            inserted = probed if self._shards > 1 \
                else self._cat.total_changes - before
            bump_counter(self._cat, "correlations", inserted)
        return inserted

    def _count_new_edges(self, edges: Sequence[Tuple]) -> int:
        """Logical edges of ``edges`` not stored yet, probed on each edge's
        source shard (an attribute's event, hence its shard, is fixed, so
        a key's primary copy always lives there)."""
        inserted = 0
        seen: Set[Tuple[str, str]] = set()
        for shard, group in sorted(self._group_by_shard(
                edges, lambda edge: edge[2]).items()):
            existing: Set[Tuple[str, str]] = set()
            sources = list(dict.fromkeys(edge[0] for edge in group))
            for chunk in chunks(sources, chunk_size()):
                placeholders = ",".join("?" * len(chunk))
                rows = self._conns[shard].execute(
                    "SELECT source_attribute, target_attribute"
                    " FROM correlations WHERE source_attribute IN"
                    f" ({placeholders})", chunk).fetchall()
                existing.update((r[0], r[1]) for r in rows)
            for edge in group:
                key = (edge[0], edge[1])
                if key not in existing and key not in seen:
                    inserted += 1
                    seen.add(key)
        return inserted

    def correlations_for_event(self, event_uuid: str) -> List[Dict[str, str]]:
        # Every edge touching an event is mirrored onto that event's shard,
        # so this scan walks ~1/N of the corpus.
        rows = self._conns[self._shard_for(event_uuid)].execute(
            f"SELECT {_CORRELATION_COLS} FROM correlations"
            " WHERE source_event = ? OR target_event = ?"
            " ORDER BY rowid", (event_uuid, event_uuid)).fetchall()
        return [correlation_row(r) for r in rows]

    def correlations_for_events(
            self, uuids: Sequence[str]) -> Dict[str, List[Dict[str, str]]]:
        result: Dict[str, List[Dict[str, str]]] = {uuid: [] for uuid in uuids}
        for shard, members in sorted(self._group_by_shard(
                list(result)).items()):
            conn = self._conns[shard]
            # Each uuid binds twice (source IN + target IN), so the chunk
            # size halves to stay inside the bound-variable budget.
            for chunk in chunks(members, chunk_size(per_item=2)):
                chunk_set = set(chunk)
                placeholders = ",".join("?" * len(chunk))
                rows = conn.execute(
                    f"SELECT {_CORRELATION_COLS} FROM correlations"
                    f" WHERE source_event IN ({placeholders})"
                    f" OR target_event IN ({placeholders})"
                    " ORDER BY rowid", [*chunk, *chunk]).fetchall()
                for r in rows:
                    row = correlation_row(r)
                    # Attach only to this chunk's members on this shard: a
                    # row whose sides land in different chunks (or, mirrored,
                    # on different shards) is returned by both scans.
                    for side in {r[2], r[3]}:
                        if side in chunk_set and \
                                self._shard_for(side) == shard:
                            result[side].append(row)
        return result

    def correlation_count(self) -> int:
        return read_counter(self._cat, "correlations")

    # -- counters -----------------------------------------------------------

    def event_count(self) -> int:
        return read_counter(self._cat, "events")

    def attribute_count(self) -> int:
        return read_counter(self._cat, "attributes")

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

    # -- rollup cursors -------------------------------------------------------

    def get_rollup(self, name: str) -> Optional[Tuple[int, str]]:
        row = self._cat.execute(
            "SELECT position, state FROM rollup_state WHERE name = ?",
            (name,)).fetchone()
        return (int(row[0]), row[1]) if row is not None else None

    def set_rollup(self, name: str, position: int, state: str = "",
                   logged_at: int = 0) -> None:
        with self._transaction():
            self._cat.execute(
                "INSERT OR REPLACE INTO rollup_state (name, position,"
                " state, updated_at) VALUES (?,?,?,?)",
                (name, int(position), state, int(logged_at)))

    def rollup_names(self) -> List[str]:
        rows = self._cat.execute(
            "SELECT name FROM rollup_state ORDER BY name").fetchall()
        return [row[0] for row in rows]

    # -- provenance ---------------------------------------------------------

    def add_provenance(self, rows: Sequence[Tuple]) -> int:
        rows = list(rows)
        if not rows:
            return 0
        with self._transaction():
            self._cat.executemany(
                "INSERT INTO provenance (trace_id, event_uuid, kind, actor,"
                " org, detail, cycle, logged_at) VALUES (?,?,?,?,?,?,?,?)",
                rows)
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
        with self._transaction():
            self._cat.execute(
                "INSERT OR REPLACE INTO sync_state (entity, watermark,"
                " updated_at) VALUES (?,?,?)",
                (entity, int(watermark), int(logged_at)))

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
        with self._transaction():
            self._cat.executemany(
                "INSERT OR REPLACE INTO sync_digests"
                " (entity, event_uuid, digest) VALUES (?,?,?)",
                [(entity, uuid, digest)
                 for uuid, digest in digests.items()])

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
