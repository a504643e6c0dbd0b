"""Workload definitions: seeded inputs, platform episodes and output checks.

An *episode* builds one platform from freshly generated inputs, sets it up
(construction, partner registration and, for ``steady``, warm-up cycles)
and then runs a fixed number of measured ``run_cycle`` calls.  Every
episode of a run uses the same seed, so every episode does identical work;
the runner checks that their exact counts agree.

Nothing sleeps: the transport is built with ``realtime=False``, partners
have ``latency_seconds=0`` and the platform keeps ``backoff_mode="virtual"``.
Every other platform setting is the shipped default (telemetry on, four
fetch/enrich/share workers).
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.clock import SimulatedClock
from repro.core import collector as collector_module
from repro.core.ioc import TAG_EIOC, THREAT_SCORE_COMMENT
from repro.core.platform import ContextAwareOSINTPlatform, PlatformConfig
from repro.dashboard.fanout import canonical_json
from repro.federation.fingerprint import store_fingerprint
from repro.feeds import IndicatorPool, SimulatedTransport, standard_feed_set
from repro.misp import MispInstance
from repro.sharing import ExternalEntity, TaxiiServer

from tracer import ROOT, LayerTracer

#: run_cycle stages that always run; ``share`` runs only with partners.
BASE_STAGES = 8
#: Give up warming up ``steady`` after this many cycles.
MAX_WARMUP_CYCLES = 400


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape."""

    name: str
    why: str
    pool_size: int
    entries: int
    overlap: float
    #: "memory" (in-memory SQLite), "file" (one SQLite file), "sharded".
    store: str
    #: Measured cycles per episode.
    cycles: int
    #: Nominal seconds per episode on the reference host; the run sizes its
    #: episode count from ``--seconds`` with it.
    episode_seconds: float
    shards: int = 1
    partners: bool = False
    subscribers: int = 0
    #: Warm up until this many consecutive cycles create no cIoC (0 = cold).
    dry_cycles: int = 0

    def episodes_for(self, seconds: float) -> int:
        """Episodes that fill ``seconds`` on the reference host."""
        return max(1, int(round(seconds / self.episode_seconds)))


WORKLOADS: Dict[str, Workload] = {
    "ingest": Workload(
        name="ingest",
        why="cold collect->enrich hot path: in-memory store, 12 feeds x 100 "
            "entries over a 20k pool, one cold cycle per episode",
        pool_size=20000, entries=100, overlap=0.5, store="memory",
        cycles=1, episode_seconds=1.5),
    "steady": Workload(
        name="steady",
        why="warm dedup/read side: one SQLite file, every record already "
            "seen, sensors + rollups + compaction cadence, enrich bypassed",
        pool_size=1000, entries=60, overlap=1.0, store="file",
        cycles=150, episode_seconds=15.0, dry_cycles=5),
    "distribute": Workload(
        name="distribute",
        why="sharing + visualization path: 4-shard store, 2 MISP peers + 2 "
            "TAXII collections, 2000 fan-out subscribers",
        pool_size=2000, entries=60, overlap=0.5, store="sharded", shards=4,
        cycles=3, episode_seconds=5.0, partners=True, subscribers=2000),
}

#: Toy sizes for the benchmark's own tests (same code paths, seconds-long).
TOY: Dict[str, Dict[str, Any]] = {
    "ingest": dict(pool_size=300, entries=20, cycles=2),
    "steady": dict(pool_size=120, entries=10, cycles=30, dry_cycles=2),
    "distribute": dict(pool_size=200, entries=10, cycles=3, subscribers=20),
}


def toy(workload: Workload) -> Workload:
    """The same workload at test size."""
    return replace(workload, episode_seconds=1.0, **TOY[workload.name])


# -- episode ------------------------------------------------------------------


@dataclass
class CycleSample:
    """What the runner measured around one ``run_cycle``."""

    wall: float
    cpu: float
    records: int
    ciocs: int
    shares: int
    sql: int
    decodes: int


@dataclass
class EpisodeResult:
    """One episode's measurements, exact counts and check outcome."""

    counts: Dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    disk_bytes: int = 0
    stored_events: int = 0
    fingerprint: Optional[str] = None


class Episode:
    """One platform built from seeded inputs, set up, measured, checked."""

    def __init__(self, workload: Workload, seed: int, pool: IndicatorPool,
                 workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        # Input generation (not set-up): feed generators over the shared
        # pool, registered on a transport that never sleeps.
        self.clock = SimulatedClock()
        self.transport = SimulatedTransport(clock=self.clock, seed=seed,
                                            realtime=False)
        self.descriptors = []
        for generator, name in standard_feed_set(
                pool, entries=workload.entries, seed=seed,
                overlap=workload.overlap):
            descriptor = generator.descriptor(name)
            self.transport.register_generator(descriptor, generator)
            self.descriptors.append(descriptor)
        self.platform: Optional[ContextAwareOSINTPlatform] = None
        self.peers: List[MispInstance] = []
        self.taxii: Optional[TaxiiServer] = None
        self.entities: List[ExternalEntity] = []
        self._totals = {"ciocs": 0, "infra": 0, "purged": 0, "eiocs": 0,
                        "riocs": 0, "shares": 0, "records": 0, "cycles": 0}
        self.attempted = 0
        self.failed = 0

    # -- set-up -----------------------------------------------------------------

    def setup(self) -> float:
        """Build, register partners, warm up; returns set-up seconds."""
        workload = self.workload
        start = time.perf_counter()
        config = PlatformConfig(seed=self.seed, feed_entries=workload.entries,
                                feed_overlap=workload.overlap,
                                fanout_subscribers=workload.subscribers)
        if workload.store == "file":
            config.store_path = os.path.join(self.workdir, "store.db")
        elif workload.store == "sharded":
            config.store_path = os.path.join(self.workdir, "store")
            config.store_shards = workload.shards
        self.platform = ContextAwareOSINTPlatform.build_with_feeds(
            self.descriptors, self.transport, config=config, clock=self.clock)
        if workload.partners:
            self._register_partners()
        if workload.dry_cycles:
            dry = 0
            for _ in range(MAX_WARMUP_CYCLES):
                report = self.platform.run_cycle()
                self._account(report)
                dry = dry + 1 if report.collection.ciocs_created == 0 else 0
                if dry >= workload.dry_cycles:
                    break
        return time.perf_counter() - start

    def _register_partners(self) -> None:
        gateway = self.platform.gateway
        self.peers = [MispInstance(org=f"PARTNER-{index}", clock=self.clock)
                      for index in range(2)]
        for peer in self.peers:
            entity = ExternalEntity(name=peer.org, transport="misp",
                                    misp_instance=peer, latency_seconds=0.0)
            gateway.register(entity)
            self.entities.append(entity)
        self.taxii = TaxiiServer(clock=self.clock)
        for index in range(2):
            collection = f"partner-taxii-{index}"
            self.taxii.create_collection(collection, collection)
            entity = ExternalEntity(name=collection, transport="taxii",
                                    taxii_server=self.taxii,
                                    taxii_collection=collection,
                                    latency_seconds=0.0)
            gateway.register(entity)
            self.entities.append(entity)

    # -- cycles -----------------------------------------------------------------

    def _account(self, report) -> None:
        collection = report.collection
        totals = self._totals
        totals["cycles"] += 1
        totals["records"] += collection.records_parsed
        totals["ciocs"] += collection.ciocs_created
        totals["infra"] += report.infrastructure_events
        totals["purged"] += report.events_purged
        totals["eiocs"] += report.eiocs_created
        totals["riocs"] += report.riocs_created
        totals["shares"] += report.shares_sent
        stages = BASE_STAGES + (1 if self.entities else 0)
        share_attempts = report.shares_sent + report.share_failures
        self.attempted += (collection.feeds_fetched + collection.feeds_failed
                           + share_attempts + stages)
        self.failed += (collection.feeds_failed + report.share_failures
                        + len(report.stage_errors))

    def measure(self, tracer: Optional[LayerTracer] = None,
                first_cycle: int = 0,
                between: Optional[Callable[[int], None]] = None,
                ) -> List[CycleSample]:
        """Run the measured cycles; traced when ``tracer`` is given.

        ``between(index)`` runs after cycle ``index``, outside its timing.
        """
        store = self.platform.misp.store
        samples: List[CycleSample] = []
        for index in range(self.workload.cycles):
            sql0 = store.sql_statements
            decodes0 = store.payloads_deserialized
            span = nullcontext()
            if tracer is not None:
                tracer.cycle = first_cycle + index
                tracer.active = True
                span = tracer.span(ROOT)
            cpu0 = time.process_time()
            start = time.perf_counter()
            with span:
                report = self.platform.run_cycle()
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu0
            if tracer is not None:
                tracer.active = False
            self._account(report)
            samples.append(CycleSample(
                wall=wall, cpu=cpu,
                records=report.collection.records_parsed,
                ciocs=report.collection.ciocs_created,
                shares=report.shares_sent,
                sql=store.sql_statements - sql0,
                decodes=store.payloads_deserialized - decodes0))
            if between is not None:
                between(index)
        return samples

    # -- checks -----------------------------------------------------------------

    def check(self, fingerprint: bool) -> EpisodeResult:
        """Check the episode's outputs; collect exact counts."""
        store = self.platform.misp.store
        result = EpisodeResult()
        # The store's work counters, before the checks' own reads.
        sql = store.sql_statements
        decodes = store.payloads_deserialized
        violations = result.violations
        totals = self._totals
        stored = store.event_count()
        expected = totals["ciocs"] + totals["infra"] - totals["purged"]
        if stored != expected:
            violations.append(
                f"stored events {stored} != cIoCs {totals['ciocs']} + infra "
                f"{totals['infra']} - purged {totals['purged']}")
        events = store.list_events()
        eiocs = [event for event in events if event.has_tag(TAG_EIOC)]
        unscored = [event.uuid for event in eiocs
                    if not any(attr.comment == THREAT_SCORE_COMMENT
                               for attr in event.all_attributes())]
        if unscored:
            violations.append(f"{len(unscored)} eIoCs carry no threat score")
        # Delivery check: each MISP peer holds exactly the local events the
        # MISP release gate lets out toward it, so every shareable eIoC
        # arrived and nothing else did.  Unscored cIoCs (irrelevant news
        # text) pass that gate too; they are counted, not failed on.
        eioc_uuids = {event.uuid for event in eiocs}
        non_eioc_held = 0
        for peer in self.peers:
            shareable = [event.uuid for event in events
                         if self.platform.misp.release_gate(event, peer.org)[0]]
            held = peer.store.existing_events(shareable)
            if len(held) != len(shareable) or \
                    peer.store.event_count() != len(shareable):
                violations.append(
                    f"peer {peer.org} holds {peer.store.event_count()} "
                    f"events, the release gate lets out {len(shareable)}")
            non_eioc_held += len(held - eioc_uuids)
        hub = self.platform.dashboard.fanout
        mismatched = 0
        for client in self.platform.fanout_clients:
            room = hub.room(client.room)
            if client.state_text() != canonical_json(room.state()) or \
                    client.version != room.version:
                mismatched += 1
        if mismatched:
            violations.append(
                f"{mismatched} fan-out clients differ from their room")
        result.attempted = self.attempted
        result.failed = self.failed
        result.stored_events = stored
        result.counts = dict(totals)
        result.counts.update({
            "stored_events": stored,
            "eiocs_stored": len(eiocs),
            "sql_statements": sql,
            "payloads_deserialized": decodes,
            "peer_events": [peer.store.event_count() for peer in self.peers],
            "peer_non_eioc_events": non_eioc_held,
            "taxii_objects": sum(
                len(self.taxii.get_objects(entity.taxii_collection))
                for entity in self.entities if entity.transport == "taxii"),
        })
        result.disk_bytes = self.disk_bytes()
        if fingerprint:
            result.fingerprint = store_fingerprint(store)
        return result

    def disk_bytes(self) -> int:
        """On-disk store bytes (shards, catalog, WAL); 0 when in-memory."""
        total = 0
        for root, _dirs, files in os.walk(self.workdir):
            for name in files:
                if not name.endswith("-shm"):
                    total += os.path.getsize(os.path.join(root, name))
        return total

    def close(self) -> None:
        """Close every store and delete the episode's files."""
        if self.platform is not None:
            self.platform.misp.store.close()
        for peer in self.peers:
            peer.store.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- tracing ------------------------------------------------------------------


def instrument(episode: Episode, tracer: LayerTracer) -> None:
    """Wrap the episode platform's layer entry points with spans.

    The platform's instances are wrapped directly; the collector reaches
    the feed parser through a module-level import, so that name is patched
    and put back by ``tracer.restore()``.
    """
    platform = episode.platform
    wrap = tracer.wrap
    count = tracer.count

    def on_collect(result: Tuple[Any, Any]) -> None:
        report = result[1]
        count("collector.records", report.records_parsed)
        count("collector.normalized", report.events_normalized)
        count("collector.duplicates", report.duplicates_removed)
        count("collector.ciocs", report.ciocs_created)

    wrap(platform.osint_collector, "collect", "collector", on_collect)
    wrap(collector_module, "parse_document", "feeds.parse",
         lambda records: count("feeds.records", len(records)))
    wrap(episode.transport, "get", "feeds.get",
         lambda _result: count("feeds.requests"))
    store = platform.misp.store
    for name in ("save_events", "apply_enrichments", "save_correlations"):
        wrap(store, name, "misp.write")
    for name in ("get_events", "correlations_for_events", "changes_since",
                 "correlatable_attributes_many", "list_events"):
        wrap(store, name, "misp.read")
    wrap(platform.heuristics, "process_pending", "enrich",
         lambda results: count("enrich.eiocs", len(results)))
    wrap(platform.rioc_generator, "generate", "reduce",
         lambda rioc: count("reduce.riocs", 0 if rioc is None else 1))
    dashboard = platform.dashboard
    wrap(dashboard, "push_rioc", "dashboard.push")
    wrap(dashboard, "push_alarm", "dashboard.push")
    wrap(dashboard, "sync_view_rooms", "dashboard.sync_rooms")

    def on_flush(flush: Any) -> None:
        count("fanout.renders", flush.renders)
        count("fanout.delivered", flush.delivered)
        count("fanout.shed", flush.shed_messages)
        count("fanout.resyncs", flush.resyncs)

    wrap(dashboard, "flush_fanout", "fanout.flush", on_flush)
    for client in platform.fanout_clients:
        wrap(client, "pump", "fanout.pump")
    wrap(platform.rollups, "refresh", "deltas.refresh",
         lambda consumed: count("deltas.consumed", consumed))

    def on_compact(report: Any) -> None:
        count("compaction.runs", 1 if report.ran else 0)
        count("compaction.scanned", report.scanned)

    wrap(platform.compaction, "maybe_run", "compaction", on_compact)

    def on_share(report: Any) -> None:
        count("sharing.shared", report.shared)
        count("sharing.failed", report.failed + report.breaker_skipped)
        count("sharing.renders", report.renders)
        count("sharing.render_hits", report.render_hits)
        count("sharing.payload_bytes", report.payload_bytes)

    if platform.gateway is not None:
        wrap(platform.gateway, "sync_cycle", "sharing.sync", on_share)
    for peer in episode.peers:
        wrap(peer, "receive_events", "sharing.peer_receive")
    wrap(platform.sensors, "tick", "infra.sense",
         lambda alarms: count("infra.alarms", len(alarms)))
    wrap(platform.infra_collector, "ship_to_misp", "infra.sense")
    wrap(platform, "health", "obs.health")
    if platform.slo is not None:
        wrap(platform.slo, "evaluate", "obs.slo")
    wrap(platform.provenance, "flush", "obs.provenance_flush")
