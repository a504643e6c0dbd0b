"""The Heuristic Component (§III-B2): cIoC -> eIoC.

Consumes cIoCs from the MISP zeroMQ feed "in STIX 2.0 format", runs the
heuristic analysis against the infrastructure context, and writes the threat
score back onto the stored event "as a new MISP attribute" (§IV-A), plus a
JSON breakdown attribute so the per-criterion detail the paper's future work
calls for is already available to the dashboard.

The enrich hot path is batched (docs/PERFORMANCE.md):

1. **Drain** the feed into an ordered work list and batch-fetch the events
   plus their correlation context in a handful of chunked queries
   (:class:`EnrichmentContextCache`), instead of per-event round trips.
2. **Score** each event in drain order — scoring is pure (STIX export +
   heuristic evaluation over prefetched context) and does not write the
   store.
3. **Write back** through a planner that builds each eIoC fully in memory
   (score/breakdown attributes, galaxy tags, the enriched tag) in drain
   order, then commits the whole cycle via
   :meth:`~repro.misp.MispInstance.apply_enrichments`: one transaction, one
   correlation pass, O(1) SQL statements per cycle.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..bus import ZmqSubscriber
from ..clock import Clock, FixedClock, SimulatedClock
from ..cvss import CveDatabase
from ..ids import content_uuid
from ..infra import INFRASTRUCTURE_TAG, AlarmManager, Inventory
from ..misp import MispAttribute, MispEvent, MispInstance, MispStore, to_stix2_bundle
from ..misp.instance import TOPIC_EVENT
from ..obs import (
    MetricsRegistry,
    NULL_LOG,
    NULL_RECORDER,
    NULL_REGISTRY,
    ProvenanceRecorder,
    StructuredLog,
    Tracer,
    trace_id_for,
)
from ..stix import StixObject
from .compose import tags_to_feeds
from .heuristics import EvaluationContext, HeuristicRegistry, default_registry
from .ioc import (
    TAG_CIOC,
    TAG_EIOC,
    THREAT_SCORE_COMMENT,
    ThreatScoreResult,
)

BREAKDOWN_COMMENT = "caop threat score breakdown"

#: When an event yields several scorable STIX objects, the event-level score
#: is the maximum (the analyst prioritizes by the worst credible threat).
_TYPE_PRIORITY = ("vulnerability", "indicator", "malware", "attack-pattern",
                  "tool", "identity")


@dataclass
class EnrichmentResult:
    """Outcome of enriching one cIoC."""

    event_uuid: str
    score: ThreatScoreResult
    object_results: Tuple[Tuple[str, ThreatScoreResult], ...]
    eioc: MispEvent


class _CachedCveView:
    """CveDatabase facade whose lookups memoize through the context cache."""

    def __init__(self, cache: "EnrichmentContextCache") -> None:
        self._cache = cache

    def get(self, cve_id: str):
        """Memoized :meth:`CveDatabase.get`."""
        return self._cache.cve_record(cve_id)

    def __contains__(self, cve_id: str) -> bool:
        return self._cache.cve_record(cve_id) is not None


class EnrichmentContextCache:
    """Per-cycle memo of the store/CVE lookups enrichment context needs.

    One drain cycle enriches N events; without the cache each event costs a
    ``correlations_for_event`` probe, a ``get_event`` per correlation
    partner (to test the infrastructure tag) and a CVE lookup per
    vulnerability feature.  :meth:`prefetch` resolves all of that with a
    constant number of chunked queries; the per-item accessors fall back to
    single lookups on miss, so the cache is also correct for ad-hoc
    single-event enrichment.

    The cache is a *snapshot*: after mutating the store (e.g. committing an
    enrichment cycle, or storing sighting evidence), call
    :meth:`invalidate` for the touched events — or simply build a fresh
    cache — so a later enrichment of the same event does not reuse stale
    correlations.
    """

    def __init__(self, store: MispStore,
                 cve_db: Optional[CveDatabase] = None) -> None:
        self._store = store
        self._cve_db = cve_db
        self._lock = threading.Lock()
        self._events: Dict[str, Optional[MispEvent]] = {}
        self._correlations: Dict[str, List[Dict[str, str]]] = {}
        self._infra_flags: Dict[str, bool] = {}
        self._cves: Dict[str, Any] = {}
        #: Lookups answered from memory vs sent to the store (observability).
        self.hits = 0
        self.misses = 0

    def cve_view(self) -> _CachedCveView:
        """A CveDatabase-shaped facade backed by this cache."""
        return _CachedCveView(self)

    def prefetch(self, uuids: Sequence[str]) -> None:
        """Batch-resolve events, correlations and partner infra flags.

        N events cost one chunked event fetch, one chunked correlation
        probe and one chunked tag lookup for the correlation partners —
        instead of O(N + partners) single queries.
        """
        uuids = [uuid for uuid in dict.fromkeys(uuids)
                 if uuid not in self._events]
        if not uuids:
            return
        fetched = self._store.get_events(uuids)
        self._events.update(fetched)
        for uuid, event in fetched.items():
            self._infra_flags[uuid] = (
                event is not None and event.has_tag(INFRASTRUCTURE_TAG))
        self._correlations.update(self._store.correlations_for_events(uuids))
        partners: List[str] = []
        for uuid in uuids:
            for row in self._correlations[uuid]:
                other = (row["target_event"]
                         if row["source_event"] == uuid
                         else row["source_event"])
                if other not in self._infra_flags:
                    partners.append(other)
        partners = list(dict.fromkeys(partners))
        if partners:
            tagged = self._store.events_with_tag(INFRASTRUCTURE_TAG, partners)
            for other in partners:
                self._infra_flags[other] = other in tagged

    # -- store-backed accessors -----------------------------------------------

    def get_event(self, uuid: str) -> Optional[MispEvent]:
        """Memoized :meth:`MispStore.get_event`."""
        if uuid in self._events:
            self.hits += 1
            return self._events[uuid]
        self.misses += 1
        event = self._store.get_event(uuid)
        self._events[uuid] = event
        self._infra_flags[uuid] = (
            event is not None and event.has_tag(INFRASTRUCTURE_TAG))
        return event

    def correlations_for(self, uuid: str) -> List[Dict[str, str]]:
        """Memoized :meth:`MispStore.correlations_for_event`."""
        if uuid in self._correlations:
            self.hits += 1
            return self._correlations[uuid]
        self.misses += 1
        rows = self._store.correlations_for_event(uuid)
        self._correlations[uuid] = rows
        return rows

    def is_infrastructure(self, uuid: str) -> bool:
        """Whether an event carries the infrastructure tag (memoized)."""
        if uuid in self._infra_flags:
            self.hits += 1
            return self._infra_flags[uuid]
        event = self.get_event(uuid)
        return event is not None and event.has_tag(INFRASTRUCTURE_TAG)

    def source_types_for(self, event: MispEvent) -> FrozenSet[str]:
        """osint always (cIoCs come from feeds); infrastructure when the
        MISP correlation engine linked the event to an infrastructure event.
        """
        kinds = {"osint"}
        for row in self.correlations_for(event.uuid):
            other = (row["target_event"]
                     if row["source_event"] == event.uuid
                     else row["source_event"])
            if self.is_infrastructure(other):
                kinds.add("infrastructure")
                break
        return frozenset(kinds)

    # -- CVE lookups ----------------------------------------------------------

    def cve_record(self, cve_id: str):
        """Memoized :meth:`CveDatabase.get` (None-db and miss both cached)."""
        key = cve_id.upper()
        with self._lock:
            if key in self._cves:
                self.hits += 1
                return self._cves[key]
        record = self._cve_db.get(key) if self._cve_db is not None else None
        with self._lock:
            self.misses += 1
            self._cves[key] = record
        return record

    # -- lifecycle ------------------------------------------------------------

    def invalidate(self, uuid: str) -> None:
        """Drop every cached fact about one event.

        Also drops correlation snapshots of events linked *to* it, since a
        new correlation edge appears on both sides.
        """
        self._events.pop(uuid, None)
        self._infra_flags.pop(uuid, None)
        self._correlations.pop(uuid, None)
        stale = [
            other for other, rows in self._correlations.items()
            if any(uuid in (row["source_event"], row["target_event"])
                   for row in rows)
        ]
        for other in stale:
            self._correlations.pop(other, None)

    def clear(self) -> None:
        """Forget everything (next access re-reads the store)."""
        self._events.clear()
        self._correlations.clear()
        self._infra_flags.clear()
        self._cves.clear()


class HeuristicComponent:
    """Subscribes to the MISP feed and enriches incoming cIoCs.

    Scoring reads the store only through the prefetched
    :class:`EnrichmentContextCache`, and each event is scored against a
    frozen clock snapshot taken in drain order; results are committed in
    drain order.
    """

    def __init__(self, misp: MispInstance,
                 inventory: Optional[Inventory] = None,
                 alarm_manager: Optional[AlarmManager] = None,
                 cve_db: Optional[CveDatabase] = None,
                 registry: Optional[HeuristicRegistry] = None,
                 clock: Optional[Clock] = None,
                 galaxy_matcher: Optional["GalaxyMatcher"] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 provenance: Optional[ProvenanceRecorder] = None,
                 log: Optional[StructuredLog] = None) -> None:
        from ..misp.galaxy import GalaxyMatcher

        self._misp = misp
        self._inventory = inventory
        self._alarm_manager = alarm_manager
        self._cve_db = cve_db or CveDatabase()
        self._registry = registry or default_registry()
        self._clock = clock or SimulatedClock()
        self._galaxies = galaxy_matcher or GalaxyMatcher()
        self._subscriber = ZmqSubscriber(misp.broker)
        self._subscriber.subscribe(TOPIC_EVENT)
        self._tracer = tracer or Tracer(enabled=False)
        self._provenance = provenance or NULL_RECORDER
        self._log = log or NULL_LOG
        self.processed = 0
        self.skipped = 0
        self.galaxy_hits = 0
        self._metrics = metrics
        registry = metrics or NULL_REGISTRY
        self._m_enriched = registry.counter(
            "caop_eiocs_total", "cIoCs enriched into eIoCs")
        self._m_skipped = registry.counter(
            "caop_enrich_skipped_total", "Events ineligible for enrichment")

    def process_pending(self) -> List[EnrichmentResult]:
        """Drain the zmq feed and enrich every eligible cIoC as one batch."""
        uuids: List[str] = []
        for topic, document in self._subscriber.drain():
            if topic != TOPIC_EVENT:
                continue  # prefix subscription also matches attribute topic
            uuid = (document.get("Event") or {}).get("uuid")
            if not uuid:
                uuid = MispEvent.from_dict(document).uuid
            uuids.append(uuid)
        return self.enrich_many(uuids)

    def enrich(self, event_uuid: str,
               cache: Optional[EnrichmentContextCache] = None
               ) -> Optional[EnrichmentResult]:
        """Enrich one stored event; returns None when not eligible.

        Without an explicit ``cache`` a fresh snapshot is taken, so
        re-enriching an event always sees its current correlations.
        """
        results = self.enrich_many([event_uuid], cache=cache)
        return results[0] if results else None

    def enrich_many(self, event_uuids: Sequence[str],
                    cache: Optional[EnrichmentContextCache] = None
                    ) -> List[EnrichmentResult]:
        """Enrich a batch of stored events: prefetch, score, write back.

        Results come back in drain (input) order; later duplicates of a
        uuid are counted as skipped, matching the serial path where the
        first enrichment stamps the enriched tag and the second attempt
        sees it.
        """
        order = list(dict.fromkeys(event_uuids))
        duplicates = len(event_uuids) - len(order)
        if not order:
            return []
        if cache is None:
            cache = EnrichmentContextCache(
                self._misp.store, cve_db=self._cve_db)
        cache.prefetch(order)

        # Phase 1: eligibility over the batched context.
        eligible: List[MispEvent] = []
        for uuid in order:
            event = cache.get_event(uuid)
            if event is None:
                self.skipped += 1
                self._m_skipped.inc(reason="missing")
            elif event.has_tag(INFRASTRUCTURE_TAG) or event.has_tag(TAG_EIOC):
                self.skipped += 1
                self._m_skipped.inc(reason="ineligible")
            else:
                eligible.append(event)
        for _ in range(duplicates):
            self.skipped += 1
            self._m_skipped.inc(reason="ineligible")

        # Phase 2: pure scoring.  Every event's source types and clock
        # snapshot are resolved in drain order before the first one is
        # scored, so a ticking clock stamps the same instants whatever the
        # heuristics read from it.
        tasks = [
            (event, cache.source_types_for(event),
             FixedClock(self._clock.now()))
            for event in eligible
        ]
        scored = []
        for event, source_types, clock in tasks:
            with self._tracer.span("score_event"):
                scored.append(self.score_event(
                    event, source_types=source_types, clock=clock,
                    cache=cache))

        # Phase 3: write-back planner — build each eIoC fully in memory, in
        # drain order, then commit the cycle as one batch.
        results: List[EnrichmentResult] = []
        plans: List[MispEvent] = []
        for event, object_results in zip(eligible, scored):
            if not object_results:
                self.skipped += 1
                self._m_skipped.inc(reason="unscorable")
                continue
            results.append(self._plan_write_back(event, object_results))
            plans.append(event)
        if plans:
            self._misp.apply_enrichments(plans)
            for event in plans:
                cache.invalidate(event.uuid)
            self._record_enrichment_lineage(results)
        return results

    def _record_enrichment_lineage(
            self, results: Sequence[EnrichmentResult]) -> None:
        """``enriched-by``/``scored`` lineage + per-event log, in drain order.

        Runs after the batch commit.
        """
        if not (self._provenance.enabled or self._log.enabled):
            return
        for result in results:
            if self._provenance.enabled:
                heuristics = sorted({object_id.split("--", 1)[0]
                                     for object_id, _ in result.object_results})
                self._provenance.record(
                    "enriched-by", result.event_uuid, actor="heuristics",
                    detail="objects=" + ",".join(heuristics))
                self._provenance.record(
                    "scored", result.event_uuid, actor="heuristics",
                    detail=f"score={result.score.score:.4f}")
            if self._log.enabled:
                self._log.emit(
                    "enrich", "event_scored",
                    event_uuid=result.event_uuid,
                    trace_id=trace_id_for(result.event_uuid),
                    score=f"{result.score.score:.4f}")

    def _plan_write_back(
            self, event: MispEvent,
            object_results: List[Tuple[str, ThreatScoreResult]],
    ) -> EnrichmentResult:
        """Apply one event's enrichment mutations in memory (no store I/O).

        The attribute uuids are content-derived (keyed on the event and its
        pre-enrichment attribute count) so a replayed event enriches to
        byte-identical state; the count keeps a re-scored event from
        colliding.  Galaxy tags are stamped after the score attributes so
        the scan sees exactly the text the serial path scanned.
        """
        best = max(object_results, key=lambda pair: pair[1].score)
        score = best[1]
        count = str(len(event.all_attributes()))
        event.add_attribute(MispAttribute(
            type="float", value=f"{score.score:.4f}",
            comment=THREAT_SCORE_COMMENT, to_ids=False,
            timestamp=self._clock.now(),
            uuid=content_uuid("eioc-score", event.uuid, count),
        ))
        event.add_attribute(MispAttribute(
            type="text", value=json.dumps(score.breakdown(), sort_keys=True),
            comment=BREAKDOWN_COMMENT, to_ids=False,
            timestamp=self._clock.now(),
            uuid=content_uuid("eioc-breakdown", event.uuid, count),
        ))
        # Contextual enrichment: galaxy clusters (threat actors, tooling)
        # mentioned by the intelligence get their misp-galaxy tags.
        clusters = self._galaxies.tag_event(event)
        self.galaxy_hits += len(clusters)
        event.add_tag(TAG_EIOC)
        self.processed += 1
        self._m_enriched.inc()
        return EnrichmentResult(
            event_uuid=event.uuid,
            score=score,
            object_results=tuple(object_results),
            eioc=event,
        )

    def score_event(self, event: MispEvent,
                    source_types: Optional[FrozenSet[str]] = None,
                    clock: Optional[Clock] = None,
                    cache: Optional[EnrichmentContextCache] = None,
                    ) -> List[Tuple[str, ThreatScoreResult]]:
        """Export the event to STIX 2.0 and score every supported object.

        ``source_types``/``clock``/``cache`` are normally injected by
        :meth:`enrich_many`; calling with defaults resolves them inline
        (single-event, store-reading behaviour).
        """
        bundle = to_stix2_bundle(event)
        if cache is None:
            cache = EnrichmentContextCache(
                self._misp.store, cve_db=self._cve_db)
        if source_types is None:
            source_types = cache.source_types_for(event)
        osint_feeds = frozenset(tags_to_feeds(event))
        results: List[Tuple[str, ThreatScoreResult]] = []
        # Keyed by STIX object id — two distinct objects of the same type
        # are both scored; only an identical object re-emitted is skipped.
        scored_object_ids: Set[str] = set()
        for stix_type in _TYPE_PRIORITY:
            heuristic = self._registry.for_type(stix_type)
            if heuristic is None:
                continue
            for obj in bundle.by_type(stix_type):
                if obj["id"] in scored_object_ids:
                    continue
                scored_object_ids.add(obj["id"])
                context = EvaluationContext(
                    stix_object=obj,
                    event=event,
                    inventory=self._inventory,
                    alarm_manager=self._alarm_manager,
                    cve_db=cache.cve_view(),
                    store=self._misp.store,
                    clock=clock or self._clock,
                    source_types=source_types,
                    osint_feeds=osint_feeds,
                )
                results.append(
                    (obj["id"], heuristic.evaluate(context, metrics=self._metrics)))
        return results
