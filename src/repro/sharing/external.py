"""External-entity sharing orchestration (§III-C2).

"The exchange of eIoCs is performed through MISP ... However, when sharing
with external entities that do not use MISP ... the usage of other standards
is preferable ... STIX 2.0 represents a good choice."

An :class:`ExternalEntity` declares which transport it understands; the
:class:`SharingGateway` routes each eIoC accordingly:

- ``misp``  -> MISP-to-MISP sync (MISP JSON);
- ``taxii`` -> STIX 2.0 bundle pushed to a TAXII collection;
- ``stix-download`` -> rendered STIX 2.0 JSON handed over as a document.

Two share paths exist:

- :meth:`SharingGateway.share_event` — the historical one-event broadcast
  (serial, immediate);
- :meth:`SharingGateway.sync_cycle` — the scalable path: a **delta sync**
  over the store's audit cursor (per-entity watermark + content-digest
  ledger in :class:`~repro.misp.MispStore`), payloads rendered once per
  cycle through a :class:`~repro.sharing.sync.RenderCache`, and the
  per-entity fan-out run in registration order with circuit breakers,
  deterministic retry backoff and dead-letter quarantine (docs/SHARING.md).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..clock import Clock, SimulatedClock
from ..errors import SharingError
from ..misp import MispEvent, MispInstance
from ..misp.store import BATCH_SIZE_BUCKETS
from ..obs import (
    BYTES_BUCKETS,
    LogBuffer,
    MetricsRegistry,
    NULL_LOG,
    NULL_RECORDER,
    NULL_REGISTRY,
    ProvenanceRecorder,
    StructuredLog,
    Tracer,
    share_context,
)
from ..resilience.breaker import BreakerState, CircuitBreakerBoard
from ..resilience.retry import RetryPolicy, sleeper_for
from .taxii import TaxiiServer
from .sync import (
    FORMAT_MISP_JSON,
    FORMAT_STIX,
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_REFUSED,
    OUTCOME_SKIPPED,
    EntityCycle,
    PlannedShare,
    RenderCache,
    RenderedPayload,
    ShareCycleReport,
    SyncLedger,
    digest_matches,
    event_digest,
    terminal_digest,
)


@dataclass
class ExternalEntity:
    """A trusted partner and how to reach it."""

    name: str
    transport: str  # "misp" | "taxii" | "stix-download" | "backbone"
    misp_instance: Optional[MispInstance] = None
    taxii_server: Optional[TaxiiServer] = None
    taxii_collection: str = "indicators"
    #: For the ``backbone`` transport: the federation fabric to transmit
    #: over; the entity name is the destination org.
    backbone: Optional[Any] = None
    #: Simulated per-share transport latency; really slept only when the
    #: gateway runs with ``realtime=True`` (wall-clock benches).
    latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.transport not in ("misp", "taxii", "stix-download",
                                  "backbone"):
            raise SharingError(f"unknown transport {self.transport!r}")
        if self.transport == "misp" and self.misp_instance is None:
            raise SharingError(f"entity {self.name!r} needs a MISP instance")
        if self.transport == "taxii" and self.taxii_server is None:
            raise SharingError(f"entity {self.name!r} needs a TAXII server")
        if self.transport == "backbone" and self.backbone is None:
            raise SharingError(f"entity {self.name!r} needs a backbone")

    @property
    def render_format(self) -> str:
        """Which render-cache format this entity's transport consumes."""
        if self.transport in ("misp", "backbone"):
            return FORMAT_MISP_JSON
        return FORMAT_STIX


@dataclass
class SharingRecord:
    """Audit trail entry for one share operation.

    ``payload_bytes`` counts bytes actually handed to the transport: a share
    that fails (or is refused/skipped) *before* transport carries 0, not the
    would-be payload size.
    """

    entity: str
    transport: str
    event_uuid: str
    payload_bytes: int
    ok: bool
    detail: str = ""


@dataclass
class _EntityOutcome:
    """What one entity's share sequence produced (committed after all run)."""

    records: List[SharingRecord] = field(default_factory=list)
    #: uuid -> ledger entry (raw digest for ok, marker for terminal non-ok).
    digests: Dict[str, str] = field(default_factory=dict)
    #: Audit seqs of candidates that must block the watermark (transport
    #: failures and breaker-skipped, i.e. anything that must be retried).
    blocked_seqs: List[int] = field(default_factory=list)
    #: (event, reason) pairs to quarantine, in candidate order.
    quarantine: List[Tuple[Any, str]] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    backoff: float = 0.0
    payload_bytes: int = 0
    breaker_skipped: int = 0

    def count(self, outcome: str) -> None:
        self.counts[outcome] = self.counts.get(outcome, 0) + 1


class SharingGateway:
    """Shares eIoCs from the local MISP instance with external entities.

    When a :class:`~repro.sharing.policy.SharingPolicy` is attached, every
    share is checked against the event's TLP marking and the entity's
    clearance before any transport is invoked.

    ``retry_policy`` governs transient transport retries (none by default),
    ``breakers`` trips a per-entity circuit after consecutive transport
    failures, and ``deadletters`` quarantines shares that exhaust their
    retries for a later ``replay``.
    """

    def __init__(self, local_misp: MispInstance, policy=None, *,
                 retry_policy: Optional[RetryPolicy] = None,
                 breakers: Optional[CircuitBreakerBoard] = None,
                 deadletters=None,
                 metrics: Optional[MetricsRegistry] = None,
                 clock: Optional[Clock] = None,
                 sleeper=None,
                 fault_injector=None,
                 realtime: bool = False,
                 tracer: Optional[Tracer] = None,
                 provenance: Optional[ProvenanceRecorder] = None,
                 log: Optional[StructuredLog] = None) -> None:
        self._misp = local_misp
        self._tracer = tracer or Tracer(enabled=False)
        self._provenance = provenance or NULL_RECORDER
        self._log = log or NULL_LOG
        self._entities: List[ExternalEntity] = []
        self._policy = policy
        self._retry = retry_policy
        self._clock = clock or SimulatedClock()
        self.breakers = breakers if breakers is not None else \
            CircuitBreakerBoard(clock=self._clock)
        self._deadletters = deadletters
        self._sleeper = sleeper if sleeper is not None else \
            sleeper_for("virtual", self._clock)
        self.fault_injector = fault_injector
        self._realtime = realtime
        self.ledger = SyncLedger(local_misp.store)
        self.audit_log: List[SharingRecord] = []
        #: Serializes every transport touch of the local instance and of
        #: shared remote endpoints (MISP peer stores are SQLite connections;
        #: safe across threads only when accesses never overlap).
        self._transport_lock = threading.Lock()
        self._metrics = metrics or NULL_REGISTRY
        self._m_batch = self._metrics.histogram(
            "caop_share_batch_size",
            "Events actually shared per entity per sync cycle",
            buckets=BATCH_SIZE_BUCKETS)
        self._m_payload = self._metrics.histogram(
            "caop_share_payload_bytes",
            "Bytes handed to a transport per successful share",
            buckets=BYTES_BUCKETS)
        self._m_outcomes = self._metrics.counter(
            "caop_share_outcomes_total",
            "Share outcomes per entity (ok/failed/refused/skipped/"
            "unchanged/breaker_open)")
        self._m_backoff = self._metrics.histogram(
            "caop_retry_backoff_seconds",
            "Backoff computed before each retry attempt")
        self._m_cycles = self._metrics.counter(
            "caop_share_cycles_total", "Completed sharing sync cycles")

    # -- registration ---------------------------------------------------------

    def register(self, entity: ExternalEntity) -> None:
        """Register a new entry; rejects duplicates.

        Registering a ``backbone`` entity on a policy-less gateway attaches
        a default :class:`~repro.sharing.policy.SharingPolicy`: federation
        boundaries always enforce TLP, so events with no marking fall back
        to the configured default level instead of being silently shared.
        """
        if any(e.name == entity.name for e in self._entities):
            raise SharingError(f"entity {entity.name!r} already registered")
        if entity.transport == "backbone" and self._policy is None:
            from .policy import SharingPolicy
            self._policy = SharingPolicy()
        self._entities.append(entity)

    @property
    def entities(self) -> List[ExternalEntity]:
        """The registered external entities."""
        return list(self._entities)

    def entity(self, name: str) -> ExternalEntity:
        """Look one registered entity up by name."""
        for candidate in self._entities:
            if candidate.name == name:
                return candidate
        raise SharingError(f"no such entity {name!r}")

    # -- legacy one-event broadcast -------------------------------------------

    def share_event(self, event_uuid: str) -> List[SharingRecord]:
        """Share one stored eIoC with every registered entity (serial).

        Successful shares land in the delta-sync digest ledger too, so a
        following :meth:`sync_cycle` will not re-send the same content.
        """
        event = self._misp.store.get_event(event_uuid)
        if event is None:
            raise SharingError(f"no such event {event_uuid}")
        digest = event_digest(event)
        cache = RenderCache(self._metrics)
        trace_cache: Dict[str, Optional[Dict[str, Any]]] = {}
        records = []
        for entity in self._entities:
            record = self._share_one(event, digest, entity, cache,
                                     trace=self._share_trace(
                                         entity, event.uuid, trace_cache))
            if record.ok:
                self.ledger.record_success(entity.name, event, digest)
            records.append(record)
        self.audit_log.extend(records)
        return records

    def _share_trace(self, entity: ExternalEntity, event_uuid: str,
                     cache: Optional[Dict[str, Optional[Dict[str, Any]]]] = None
                     ) -> Optional[Dict[str, Any]]:
        """Trace context to ride alongside a MISP push (None otherwise).

        Reads the local provenance table, so :meth:`sync_cycle` resolves it
        at plan time, before any transport runs.
        """
        if entity.transport not in ("misp", "backbone") or \
                not self._provenance.enabled:
            return None
        if cache is not None and event_uuid in cache:
            return cache[event_uuid]
        context = share_context(self._misp.store, event_uuid, self._misp.org)
        if cache is not None:
            cache[event_uuid] = context
        return context

    def _share_one(self, event: MispEvent, digest: str,
                   entity: ExternalEntity,
                   cache: RenderCache,
                   trace: Optional[Dict[str, Any]] = None) -> SharingRecord:
        if self._policy is not None and not self._policy.allows(event, entity.name):
            return SharingRecord(
                entity=entity.name, transport=entity.transport,
                event_uuid=event.uuid, payload_bytes=0, ok=False,
                detail=f"refused by TLP policy "
                       f"(marking: {self._policy.marking_of(event)})",
            )
        payload = cache.get_or_render(event, digest, entity.render_format)
        try:
            ok, detail, sent_bytes = self._transport_push(
                event, entity, payload, trace=trace)
        except SharingError as exc:
            return SharingRecord(
                entity=entity.name, transport=entity.transport,
                event_uuid=event.uuid, payload_bytes=0, ok=False,
                detail=str(exc),
            )
        return SharingRecord(
            entity=entity.name, transport=entity.transport,
            event_uuid=event.uuid, payload_bytes=sent_bytes, ok=ok,
            detail=detail,
        )

    # -- transports -----------------------------------------------------------

    def _transport_push(self, event: MispEvent, entity: ExternalEntity,
                        payload: RenderedPayload,
                        trace: Optional[Dict[str, Any]] = None
                        ) -> Tuple[bool, str, int]:
        """One transport attempt: (ok, detail, bytes actually handed over).

        Raises :class:`SharingError` on transport faults (retryable); a
        ``False`` return is a *terminal* non-ok outcome (distribution skip,
        rejected objects) that retrying cannot change.
        """
        if self.fault_injector is not None:
            self.fault_injector.check("share", entity.name)
        if self._realtime and entity.latency_seconds > 0:
            time.sleep(entity.latency_seconds)
        if entity.transport == "misp":
            with self._transport_lock:
                pushed = self._misp.push_event(event, entity.misp_instance,
                                               trace_context=trace)
            if pushed:
                return True, "", payload.size
            return False, "skipped (distribution/duplicate)", 0
        if entity.transport == "backbone":
            # The entity name is the destination org on the federation
            # fabric.  The same MISP release gate and hop downgrade as a
            # point-to-point push apply before anything is transmitted;
            # the wire document is the downgraded copy, so the receiver
            # stores exactly what a direct peer push would have stored.
            with self._transport_lock:
                ok, group, reason = self._misp.release_gate(
                    event, entity.name)
                if not ok:
                    return False, f"skipped ({reason})", 0
                copy = self._misp.release_copy(event)
                from ..misp.export import to_misp_json
                message: Dict[str, Any] = {"document": to_misp_json(copy)}
                if group is not None:
                    message["sharing_group"] = group.to_dict()
                if trace is not None:
                    message["trace"] = trace
                response = entity.backbone.transmit(
                    self._misp.org, entity.name, "event", message)
            if response.get("accepted"):
                return True, "", len(message["document"])
            detail = response.get("reason", "rejected")
            return False, f"skipped ({detail})", 0
        if entity.transport == "taxii":
            with self._transport_lock:
                status = entity.taxii_server.add_objects(
                    entity.taxii_collection, list(payload.objects))
            ok = status["failure_count"] == 0 and status["success_count"] > 0
            detail = f"accepted {status['success_count']} objects"
            return ok, detail, payload.size if ok else 0
        # stix-download: the rendered document is the handover.
        return True, "", payload.size

    # -- delta-sync fan-out ----------------------------------------------------

    def plan_cycle(self) -> Tuple[List[EntityCycle], RenderCache, int]:
        """Build every entity's delta plan and pre-render the payloads.

        All local-store reads of a sync cycle happen here: scans each
        entity's candidates from its watermark up to the store's current
        audit cursor, drops digest-unchanged candidates, applies the sharing
        policy, and renders each needed payload once through the returned
        :class:`RenderCache`.
        """
        target_seq = self.ledger.cursor()
        cache = RenderCache(self._metrics)
        raw_candidates = [
            self.ledger.candidates(entity.name, target_seq)
            for entity in self._entities
        ]
        wanted: "OrderedDict[str, None]" = OrderedDict()
        for candidates in raw_candidates:
            for uuid, _seq in candidates:
                wanted.setdefault(uuid)
        events = self._misp.store.get_events(list(wanted))
        digests = {uuid: event_digest(event)
                   for uuid, event in events.items() if event is not None}
        plans: List[EntityCycle] = []
        trace_cache: Dict[str, Optional[Dict[str, Any]]] = {}
        for entity, candidates in zip(self._entities, raw_candidates):
            plan = EntityCycle(
                entity=entity,
                watermark=self.ledger.watermark(entity.name),
                target_seq=target_seq)
            known = self.ledger.digests(
                entity.name, [uuid for uuid, _seq in candidates])
            for uuid, seq in candidates:
                event = events.get(uuid)
                if event is None:
                    continue
                digest = digests[uuid]
                if digest_matches(known.get(uuid), digest):
                    plan.unchanged += 1
                    continue
                if self._policy is not None and \
                        not self._policy.allows(event, entity.name):
                    plan.items.append(PlannedShare(
                        kind="refused", event=event, seq=seq, digest=digest,
                        detail=f"refused by TLP policy (marking: "
                               f"{self._policy.marking_of(event)})"))
                    continue
                payload = cache.get_or_render(event, digest,
                                              entity.render_format)
                plan.items.append(PlannedShare(
                    kind="share", event=event, seq=seq, digest=digest,
                    payload=payload,
                    trace=self._share_trace(entity, uuid, trace_cache)))
            plans.append(plan)
        return plans, cache, target_seq

    def sync_cycle(self) -> ShareCycleReport:
        """One incremental share fan-out across every registered entity.

        Plans and payloads are built up front, each entity's shares run in
        registration order, and all ledger/audit/quarantine writes are
        committed after every entity has run, again in registration order.
        """
        report = ShareCycleReport(entities=len(self._entities))
        if not self._entities:
            return report
        plans, cache, _target = self.plan_cycle()
        # Each entity's log records are staged and emitted at commit time,
        # after that entity's retry backoff has been applied to the clock.
        buffers = [self._log.buffer() for _ in plans]
        outcomes = []
        for plan, buffer in zip(plans, buffers):
            with self._tracer.span("share_entity", entity=plan.entity.name):
                outcomes.append(self._run_entity_cycle(plan, buffer))
        # Commit in registration order: backoff, audit records, log
        # records, lineage, ledger updates, quarantine, telemetry.
        for plan, outcome, buffer in zip(plans, outcomes, buffers):
            entity = plan.entity
            self._sleeper.sleep(outcome.backoff)
            self.audit_log.extend(outcome.records)
            self._log.flush_buffer(buffer)
            if self._provenance.enabled:
                for record in outcome.records:
                    if record.ok:
                        self._provenance.record(
                            "shared-to", record.event_uuid, actor="gateway",
                            detail=f"entity={record.entity} "
                                   f"transport={record.transport}")
            report.records.extend(outcome.records)
            new_watermark: Optional[int] = plan.target_seq
            if outcome.blocked_seqs:
                new_watermark = min(outcome.blocked_seqs) - 1
            self.ledger.commit(entity.name, outcome.digests, new_watermark)
            if self._deadletters is not None:
                for event, reason in outcome.quarantine:
                    self._deadletters.quarantine_share(
                        entity.name, event, reason=reason)
            for outcome_name, count in sorted(outcome.counts.items()):
                self._m_outcomes.inc(count, entity=entity.name,
                                     outcome=outcome_name)
            if plan.unchanged:
                self._m_outcomes.inc(plan.unchanged, entity=entity.name,
                                     outcome="unchanged")
            shared = outcome.counts.get(OUTCOME_OK, 0)
            self._m_batch.observe(shared, entity=entity.name)
            report.events_considered += len(plan.items) + plan.unchanged
            report.shared += shared
            report.failed += outcome.counts.get(OUTCOME_FAILED, 0)
            report.refused += outcome.counts.get(OUTCOME_REFUSED, 0)
            report.skipped += outcome.counts.get(OUTCOME_SKIPPED, 0)
            report.unchanged += plan.unchanged
            report.breaker_skipped += outcome.breaker_skipped
            report.payload_bytes += outcome.payload_bytes
        report.renders = cache.misses
        report.render_hits = cache.hits
        self._provenance.flush()
        self._m_cycles.inc()
        return report

    def _run_entity_cycle(self, plan: EntityCycle,
                          buffer: Optional[LogBuffer] = None
                          ) -> _EntityOutcome:
        """One entity's share sequence.

        Touches only the entity's transport (and the breaker and metrics
        counters); every local-store write is deferred to the commit in
        :meth:`sync_cycle`.  Log records are staged into ``buffer``.
        """
        outcome = _EntityOutcome()
        entity = plan.entity
        breaker = self.breakers.breaker(entity.name)
        for item in plan.items:
            if item.kind == "refused":
                outcome.records.append(SharingRecord(
                    entity=entity.name, transport=entity.transport,
                    event_uuid=item.event.uuid, payload_bytes=0, ok=False,
                    detail=item.detail))
                outcome.digests[item.event.uuid] = terminal_digest(
                    OUTCOME_REFUSED, item.digest)
                outcome.count(OUTCOME_REFUSED)
                if buffer is not None:
                    buffer.emit("share", "share_result", level="warn",
                                entity=entity.name,
                                event_uuid=item.event.uuid,
                                outcome=OUTCOME_REFUSED)
                continue
            if not breaker.allow():
                # Open breaker: leave the event pending (no record, no
                # ledger write) so the watermark holds it for a later cycle.
                outcome.blocked_seqs.append(item.seq)
                outcome.breaker_skipped += 1
                outcome.count("breaker_open")
                if buffer is not None:
                    buffer.emit("share", "share_result", level="warn",
                                entity=entity.name,
                                event_uuid=item.event.uuid,
                                outcome="breaker_open")
                continue
            probing = breaker.state == BreakerState.HALF_OPEN
            record, entry, failed = self._attempt_share(
                entity, item, breaker, probing, outcome)
            outcome.records.append(record)
            if entry is not None:
                outcome.digests[item.event.uuid] = entry
            if failed:
                outcome.blocked_seqs.append(item.seq)
                outcome.quarantine.append((item.event, record.detail))
            if buffer is not None:
                buffer.emit(
                    "share", "share_result",
                    level="warn" if failed else "info",
                    entity=entity.name, event_uuid=item.event.uuid,
                    outcome=OUTCOME_OK if record.ok else
                    (OUTCOME_FAILED if failed else OUTCOME_SKIPPED))
        return outcome

    def _attempt_share(self, entity: ExternalEntity, item: PlannedShare,
                       breaker, probing: bool, outcome: _EntityOutcome
                       ) -> Tuple[SharingRecord, Optional[str], bool]:
        """Share one event with retries: (record, ledger entry, failed?)."""
        max_retries = self._retry.max_retries if self._retry is not None else 0
        attempts = 1 if probing else max_retries + 1
        last_error: Optional[SharingError] = None
        for attempt in range(attempts):
            try:
                ok, detail, sent_bytes = self._transport_push(
                    item.event, entity, item.payload, trace=item.trace)
            except SharingError as exc:
                last_error = exc
                if attempt < attempts - 1:
                    delay = self._retry.delay(
                        f"share:{entity.name}:{item.event.uuid}", attempt)
                    self._m_backoff.observe(delay, component="share")
                    outcome.backoff += delay
                continue
            if ok:
                breaker.record_success()
                outcome.count(OUTCOME_OK)
                outcome.payload_bytes += sent_bytes
                self._m_payload.observe(sent_bytes, entity=entity.name)
                return (SharingRecord(
                    entity=entity.name, transport=entity.transport,
                    event_uuid=item.event.uuid, payload_bytes=sent_bytes,
                    ok=True, detail=detail), item.digest, False)
            # Terminal non-ok (distribution skip, rejected objects): the
            # transport answered, so the breaker counts it as a success and
            # the ledger marks the content version handled.
            breaker.record_success()
            outcome.count(OUTCOME_SKIPPED)
            return (SharingRecord(
                entity=entity.name, transport=entity.transport,
                event_uuid=item.event.uuid, payload_bytes=0, ok=False,
                detail=detail),
                terminal_digest(OUTCOME_SKIPPED, item.digest), False)
        breaker.record_failure()
        outcome.count(OUTCOME_FAILED)
        detail = f"transport failed after {attempts} attempt(s): {last_error}"
        return (SharingRecord(
            entity=entity.name, transport=entity.transport,
            event_uuid=item.event.uuid, payload_bytes=0, ok=False,
            detail=detail), None, True)

    # -- dead-letter replay ----------------------------------------------------

    def replay_share(self, entity_name: str, event: MispEvent) -> bool:
        """Re-drive one quarantined share (called by ``DeadLetterQueue.replay``).

        Renders fresh (the event may have changed since quarantine), pushes
        through the normal transport attempt (single try — the caller
        decides about re-quarantine), and records the ledger digest on
        success so the next :meth:`sync_cycle` treats it as handled.
        """
        entity = self.entity(entity_name)
        digest = event_digest(event)
        cache = RenderCache(self._metrics)
        payload = cache.get_or_render(event, digest, entity.render_format)
        breaker = self.breakers.breaker(entity.name)
        if not breaker.allow():
            return False
        trace = self._share_trace(entity, event.uuid)
        try:
            ok, detail, sent_bytes = self._transport_push(
                event, entity, payload, trace=trace)
        except SharingError:
            breaker.record_failure()
            return False
        breaker.record_success()
        record = SharingRecord(
            entity=entity.name, transport=entity.transport,
            event_uuid=event.uuid, payload_bytes=sent_bytes if ok else 0,
            ok=ok, detail=detail or "dead-letter replay")
        self.audit_log.append(record)
        entry = digest if ok else terminal_digest(OUTCOME_SKIPPED, digest)
        self._misp.store.set_sync_digests(entity.name, {event.uuid: entry})
        if ok and self._provenance.enabled:
            # Mirror sync_cycle's lineage row: a replayed share that landed
            # is the same "shared-to" fact, just recorded later.
            self._provenance.record(
                "shared-to", event.uuid, actor="gateway",
                detail=f"entity={entity.name} "
                       f"transport={entity.transport}")
            self._provenance.flush()
        self._m_outcomes.inc(entity=entity.name,
                             outcome=OUTCOME_OK if ok else OUTCOME_SKIPPED)
        return True

    # -- stats ----------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Aggregate counters over the audit log."""
        out: Dict[str, int] = {"shared": 0, "failed": 0, "bytes": 0}
        for record in self.audit_log:
            out["shared" if record.ok else "failed"] += 1
            out["bytes"] += record.payload_bytes
        return out

    def watermarks(self) -> Dict[str, int]:
        """Per-entity persisted watermarks (entity -> audit seq)."""
        return {entity.name: self.ledger.watermark(entity.name)
                for entity in self._entities}
