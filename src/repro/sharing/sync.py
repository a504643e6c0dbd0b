"""Delta-sync machinery for the sharing fan-out.

MISP's server-to-server protocol and TAXII 2.0's collection pulls are both
*incremental*: a consumer only receives what changed since its last
successful sync.  This module gives the :class:`~repro.sharing.SharingGateway`
the same shape over the local store:

- :func:`event_digest` — canonical content digest of one event (sha256 over
  the sorted-key MISP JSON), the identity the ledger and render cache key on;
- :class:`SyncLedger` — per-entity **watermark + digest ledger** persisted in
  :class:`~repro.misp.MispStore` (``sync_state``/``sync_digests`` tables).
  The watermark is an audit-log sequence number: everything the store wrote
  after it is a sync candidate, and the digest ledger then drops candidates
  whose content the entity already holds — so a steady-state cycle shares
  (and renders) nothing;
- :class:`RenderCache` — per-cycle payload cache keyed on ``(digest,
  format)``: a STIX bundle or MISP JSON document is serialized once per
  cycle no matter how many entities receive it;
- :class:`ShareCycleReport` — what one ``sync_cycle`` accomplished.

Determinism contract (docs/SHARING.md): candidates are ordered by their last
audit change, payloads are pre-rendered up front, and ledger writes happen
after every entity's shares have run — so the same seed produces
byte-identical records, remote stores, digests and watermarks.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..misp import MispEvent, to_stix2_bundle
from ..misp.export import to_misp_json
from ..misp.store import MispStore
from ..obs import MetricsRegistry, NULL_REGISTRY

#: Share outcome labels (the ``caop_share_outcomes_total`` counter values).
OUTCOME_OK = "ok"
OUTCOME_FAILED = "failed"
OUTCOME_REFUSED = "refused"
OUTCOME_SKIPPED = "skipped"
OUTCOME_UNCHANGED = "unchanged"

#: Render formats the cache understands.
FORMAT_MISP_JSON = "misp-json"
FORMAT_STIX = "stix"


def event_digest(event: MispEvent) -> str:
    """Canonical content digest of one event.

    Computed over the sorted-key MISP JSON dict, so any two events whose
    ``to_dict`` forms are equal share a digest regardless of attribute
    object identity or construction order.
    """
    return hashlib.sha256(
        json.dumps(event.to_dict(), sort_keys=True).encode()).hexdigest()


@dataclass
class RenderedPayload:
    """One cached serialization: the wire bytes plus transport-ready form."""

    format: str
    text: str
    #: For :data:`FORMAT_STIX`: the bundle's object dicts (what a TAXII
    #: push posts); empty for MISP JSON.
    objects: Tuple[Dict[str, Any], ...] = ()

    @property
    def size(self) -> int:
        """Payload size in bytes (what ``SharingRecord.payload_bytes`` carries)."""
        return len(self.text)


class RenderCache:
    """Payload render cache keyed on ``(content identity, format)``.

    ``get_or_render`` is called serially (pre-fan-out) by the gateway, so a
    payload needed by N entities is serialized exactly once per cycle; the
    hit/miss counters land on ``caop_share_renders_total``.  Other fan-out
    paths (the dashboard's snapshot+delta hub) reuse the same cache shape
    through :meth:`get_or_build` under their own metric name.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 metric_name: str = "caop_share_renders_total",
                 metric_help: str = "Render-cache lookups by the sharing "
                                    "fan-out, labelled hit/miss") -> None:
        self._cache: Dict[Tuple[str, str], RenderedPayload] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        metrics = metrics or NULL_REGISTRY
        self._m_renders = metrics.counter(metric_name, metric_help)

    def get_or_build(self, key: Tuple[str, str],
                     builder: Callable[[], RenderedPayload]
                     ) -> RenderedPayload:
        """The cached payload for ``key``, calling ``builder`` on first use."""
        with self._lock:
            payload = self._cache.get(key)
            if payload is not None:
                self.hits += 1
                self._m_renders.inc(result="hit")
                return payload
        payload = builder()
        with self._lock:
            self._cache[key] = payload
            self.misses += 1
        self._m_renders.inc(result="miss")
        return payload

    def get_or_render(self, event: MispEvent, digest: str,
                      render_format: str) -> RenderedPayload:
        """The cached payload for (digest, format), rendering on first use."""
        return self.get_or_build(
            (digest, render_format),
            lambda: self._render(event, render_format))

    def reset(self) -> None:
        """Drop every cached payload (the hit/miss counters are kept)."""
        with self._lock:
            self._cache.clear()

    @staticmethod
    def _render(event: MispEvent, render_format: str) -> RenderedPayload:
        if render_format == FORMAT_MISP_JSON:
            return RenderedPayload(format=render_format,
                                   text=to_misp_json(event))
        bundle = to_stix2_bundle(event)
        return RenderedPayload(
            format=FORMAT_STIX,
            text=bundle.to_json(),
            objects=tuple(obj.to_dict() for obj in bundle))

    @property
    def renders(self) -> int:
        """Actual serializations performed this cycle (cache misses)."""
        return self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 with no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SyncLedger:
    """Per-entity watermark + digest ledger over a :class:`MispStore`.

    All reads and writes go through the local store; the gateway reads the
    ledger before the fan-out and commits updates after every entity has
    run, in entity registration order.
    """

    def __init__(self, store: MispStore) -> None:
        self._store = store

    @property
    def store(self) -> MispStore:
        """The backing store (the local MISP instance's)."""
        return self._store

    def cursor(self) -> int:
        """The store's current change cursor (max audit seq)."""
        return self._store.max_audit_seq()

    def watermark(self, entity: str) -> int:
        """The entity's persisted watermark (0 when never synced)."""
        return self._store.get_sync_watermark(entity)

    def candidates(self, entity: str,
                   until_seq: Optional[int] = None) -> List[Tuple[str, int]]:
        """Events changed since the entity's watermark, change-ordered."""
        return self._store.events_changed_since(
            self.watermark(entity), until_seq)

    def digests(self, entity: str, uuids: Sequence[str]) -> Dict[str, str]:
        """The digests last successfully shared with ``entity``."""
        return self._store.get_sync_digests(entity, uuids)

    def commit(self, entity: str, digests: Dict[str, str],
               watermark: Optional[int] = None) -> None:
        """Persist one cycle's outcome for an entity (digests, watermark)."""
        self._store.set_sync_digests(entity, digests)
        if watermark is not None and watermark > self.watermark(entity):
            self._store.set_sync_watermark(entity, watermark)

    def record_success(self, entity: str, event: MispEvent,
                       digest: Optional[str] = None) -> None:
        """Mark one event as synced out-of-band (replay, legacy share)."""
        self._store.set_sync_digests(
            entity, {event.uuid: digest or event_digest(event)})


#: Digest-ledger marker prefixes for terminal non-ok outcomes.  A refused
#: or distribution-skipped share is *handled* for that content version (it
#: will not be re-attempted until the event changes), but the marker keeps
#: the ledger honest about what actually crossed the gateway.
def terminal_digest(outcome: str, digest: str) -> str:
    """The ledger entry recording a terminal non-ok outcome for a digest."""
    return f"{outcome}:{digest}"


def digest_matches(ledger_entry: Optional[str], digest: str) -> bool:
    """Whether a ledger entry covers this content digest (ok or terminal)."""
    if ledger_entry is None:
        return False
    return ledger_entry.rsplit(":", 1)[-1] == digest


@dataclass
class PlannedShare:
    """One entity×event unit of a sync cycle, in candidate order."""

    kind: str  # "share" (needs transport) | "refused" (policy, no transport)
    event: Any
    seq: int
    digest: str
    payload: Optional[RenderedPayload] = None
    detail: str = ""
    #: Provenance trace context (``{"trace_id", "path"}``) computed at plan
    #: time; rides *alongside* the payload so the
    #: shared content (and its digest) never changes.
    trace: Optional[Dict[str, Any]] = None


@dataclass
class EntityCycle:
    """One entity's slice of a sync cycle (the gateway's internal plan)."""

    entity: Any
    watermark: int
    target_seq: int
    #: Planned units in deterministic candidate (last-change seq) order.
    items: List[PlannedShare] = field(default_factory=list)
    #: Candidates dropped because the entity already holds their digest.
    unchanged: int = 0


@dataclass
class ShareCycleReport:
    """Aggregate outcome of one ``SharingGateway.sync_cycle``."""

    entities: int = 0
    events_considered: int = 0
    shared: int = 0
    failed: int = 0
    refused: int = 0
    skipped: int = 0
    unchanged: int = 0
    breaker_skipped: int = 0
    renders: int = 0
    render_hits: int = 0
    payload_bytes: int = 0
    #: The SharingRecords appended to the gateway audit log this cycle.
    records: List[Any] = field(default_factory=list)

    @property
    def render_hit_rate(self) -> float:
        """Render-cache hit rate across this cycle's payload lookups."""
        total = self.renders + self.render_hits
        return self.render_hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (CLI/report surface)."""
        return {
            "entities": self.entities,
            "events_considered": self.events_considered,
            "shared": self.shared,
            "failed": self.failed,
            "refused": self.refused,
            "skipped": self.skipped,
            "unchanged": self.unchanged,
            "breaker_skipped": self.breaker_skipped,
            "renders": self.renders,
            "render_hits": self.render_hits,
            "payload_bytes": self.payload_bytes,
        }
