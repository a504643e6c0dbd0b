"""The Context-Aware OSINT Platform: the full Fig. 1 architecture.

Wires the three modules together:

- **Input**: the OSINT Data Collector (feeds -> cIoCs) and the
  Infrastructure Data Collector (sensors -> internal events);
- **Operational**: the MISP instance (store/correlate/share) and the
  Heuristic Component (threat score -> eIoC);
- **Output**: the rIoC generator + dashboard (socket.io push) and external
  sharing (MISP peers).

``run_cycle()`` advances the whole platform one collection round and
returns a :class:`CycleReport`.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..clock import Clock, SimulatedClock
from ..cvss import CveDatabase
from ..dashboard.server import DashboardServer
from ..errors import ReproError
from ..feeds import (
    FeedDescriptor,
    FeedFetcher,
    FeedGenerator,
    IndicatorPool,
    SimulatedTransport,
    standard_feed_set,
)
from ..infra import (
    InfrastructureDataCollector,
    Inventory,
    SensorNetwork,
    paper_inventory,
)
from ..misp import MispInstance
from ..obs import (
    MetricsRegistry,
    NULL_LOG,
    NULL_RECORDER,
    ProvenanceRecorder,
    SloEngine,
    StructuredLog,
    Tracer,
)
from ..resilience import (
    HEALTH_DEGRADED,
    HEALTH_FAILING,
    HEALTH_OK,
    BreakerState,
    CircuitBreakerBoard,
    ComponentHealth,
    DeadLetterQueue,
    FaultInjector,
    PlatformHealth,
    ReplayReport,
    RetryPolicy,
    sleeper_for,
)
from .collector import CollectionReport, OsintDataCollector
from .enrich import EnrichmentResult, HeuristicComponent
from .ioc import ReducedIoc
from .reduce import RIocGenerator

#: Circuit-breaker state -> component health status (closed reads ok).
_BREAKER_HEALTH = {
    BreakerState.OPEN: HEALTH_FAILING,
    BreakerState.HALF_OPEN: HEALTH_DEGRADED,
}


@dataclass
class CycleReport:
    """Everything one ``run_cycle`` produced."""

    collection: CollectionReport
    new_alarms: int = 0
    infrastructure_events: int = 0
    eiocs_created: int = 0
    riocs_created: int = 0
    riocs_suppressed: int = 0
    dashboard_pushes: int = 0
    #: eIoC shares delivered / failed by the sharing fan-out this cycle
    #: (both 0 when no external entities are registered).
    shares_sent: int = 0
    share_failures: int = 0
    scores: List[float] = field(default_factory=list)
    #: Change-feed rows the rollup stage consumed this cycle (0 when the
    #: store didn't change — the steady-state signature).
    deltas_consumed: int = 0
    #: Whether the rate-limited decay compaction ran this cycle, and how
    #: many expired events it purged.
    compacted: bool = False
    events_purged: int = 0
    #: Snapshot+delta fan-out activity this cycle: room versions flushed,
    #: messages shed off lagging subscribers, snapshot resyncs delivered
    #: (docs/FANOUT.md).
    fanout_deltas: int = 0
    fanout_shed: int = 0
    fanout_resyncs: int = 0
    #: Quiet cycle: nothing collected, enriched, reduced, alarmed, shared
    #: or changed, and no compaction ran.  Idle cycles are the steady state
    #: the incremental pipeline keeps near-free (docs/PERFORMANCE.md).
    idle: bool = False
    #: Stage name -> wall seconds, flattened from the cycle's span trace
    #: (empty when the platform runs with telemetry disabled).
    timings: Dict[str, float] = field(default_factory=dict)
    #: Stage name -> error message, for every stage that failed this cycle
    #: (stage isolation: the remaining stages still ran).
    stage_errors: Dict[str, str] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Whether any stage failed this cycle."""
        return bool(self.stage_errors)

    @property
    def mean_score(self) -> float:
        """Mean threat score across this cycle's eIoCs."""
        return sum(self.scores) / len(self.scores) if self.scores else 0.0


@dataclass
class PlatformConfig:
    """Build-time knobs for the default wiring."""

    seed: int = 7
    feed_entries: int = 60
    feed_overlap: float = 0.5
    sensor_alarm_rate: float = 0.25
    sensor_steps_per_cycle: int = 6
    drop_irrelevant_text: bool = False
    #: Filter known-benign values (public resolvers, RFC1918, top sites).
    use_warninglists: bool = True
    #: Transient-failure retries per share transport attempt.
    share_retries: int = 2
    org: str = "CAOP"
    #: Record metrics and per-stage spans (disable only to measure the
    #: telemetry overhead itself; see bench_x13_obs_overhead).
    metrics_enabled: bool = True
    #: Record per-IoC lineage rows into the store's provenance table
    #: (``None`` follows ``metrics_enabled``; see docs/OBSERVABILITY.md).
    provenance_enabled: Optional[bool] = None
    #: Emit structured JSON log records (``None`` follows ``metrics_enabled``).
    structured_log_enabled: Optional[bool] = None
    #: Evaluate SLO burn rates each cycle (``None`` follows ``metrics_enabled``).
    slo_enabled: Optional[bool] = None
    #: Ring-buffer capacity of the structured log.
    log_capacity: int = 4096
    #: Optional JSONL sink the structured log also appends to.
    log_file: Optional[str] = None
    #: Optional SQLite path for the MISP store (``None`` keeps it in-memory).
    #: Built here — not rewired post-build — so the sharing ledger and the
    #: provenance recorder point at the same persistent store.
    store_path: Optional[str] = None
    #: Hash-shard count for the MISP store (``1`` = classic single file;
    #: ``>= 2`` selects the sharded backend — see docs/PERFORMANCE.md).
    store_shards: int = 1
    #: Transient-failure retries per feed fetch (and per store batch).
    fetch_retries: int = 2
    store_retries: int = 2
    #: Backoff shape for those retries; jitter is deterministic per
    #: (feed, attempt) — see docs/RESILIENCE.md.
    retry_base_delay_seconds: float = 0.5
    retry_max_delay_seconds: float = 60.0
    retry_jitter: float = 0.5
    #: How backoff is applied: "virtual" advances the SimulatedClock,
    #: "real" sleeps wall-clock, "none" records without moving any clock.
    backoff_mode: str = "virtual"
    #: Consecutive fetch failures before a feed's breaker opens, and how
    #: long (on the platform clock) it stays open before a half-open probe.
    breaker_failure_threshold: int = 3
    breaker_cooldown_seconds: float = 900.0
    #: Optional scripted fault injector threaded through transport, store,
    #: parse and broker seams (chaos testing; see docs/RESILIENCE.md).
    fault_injector: Optional[FaultInjector] = None
    #: Run the decay-compaction full pass every N cycles (<= 0 disables the
    #: compact stage entirely; see docs/PERFORMANCE.md).
    compaction_every_cycles: int = 25
    #: Additional rate limit: minimum platform-clock seconds between
    #: compaction runs (virtual seconds under the simulated clock).
    compaction_min_interval_seconds: float = 0.0
    #: Whether compaction deletes expired events (False = re-score only).
    compaction_purge: bool = True
    #: Maintain the incremental dashboard/report rollups each cycle.
    rollups_enabled: bool = True
    #: Snapshot+delta fan-out knobs: replayable delta history per room and
    #: the per-subscriber queue bound (the load-shedding high-water mark).
    fanout_history: int = 64
    fanout_max_pending: int = 64
    #: Simulated fan-out subscribers attached to the rIoC room at build
    #: time (``caop run --subscribers``); pumped once per cycle.
    fanout_subscribers: int = 0


class ContextAwareOSINTPlatform:
    """Facade over the whole platform; see :func:`build_default`."""

    def __init__(self, osint_collector: OsintDataCollector,
                 infra_collector: InfrastructureDataCollector,
                 sensors: SensorNetwork,
                 misp: MispInstance,
                 heuristics: HeuristicComponent,
                 rioc_generator: RIocGenerator,
                 dashboard: DashboardServer,
                 clock: Clock,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 deadletters: Optional[DeadLetterQueue] = None,
                 breakers: Optional[CircuitBreakerBoard] = None,
                 gateway=None,
                 sensor_steps_per_cycle: int = 6,
                 provenance: Optional[ProvenanceRecorder] = None,
                 log: Optional[StructuredLog] = None,
                 slo: Optional[SloEngine] = None,
                 compaction_every_cycles: int = 25,
                 compaction_min_interval_seconds: float = 0.0,
                 compaction_purge: bool = True,
                 rollups_enabled: bool = True,
                 fanout_subscribers: int = 0) -> None:
        from .compaction import CompactionStage
        from .decay import ScoreDecayEngine
        from .deltas import RollupGroup
        from .sightings import SightingProcessor

        self.osint_collector = osint_collector
        self.infra_collector = infra_collector
        self.sensors = sensors
        self.misp = misp
        self.heuristics = heuristics
        self.rioc_generator = rioc_generator
        self.dashboard = dashboard
        self.clock = clock
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or Tracer(metrics=self.metrics)
        self.sightings = SightingProcessor(misp, heuristics, clock=clock)
        self.decay = ScoreDecayEngine(clock=clock)
        #: Rate-limited decay full pass (the ``compact`` cycle stage).
        self.compaction = CompactionStage(
            misp.store, decay=self.decay, clock=clock,
            every_cycles=compaction_every_cycles,
            min_interval_seconds=compaction_min_interval_seconds,
            purge=compaction_purge, metrics=self.metrics)
        #: Incrementally-maintained materialized views over the store's
        #: change feed, brought current once per cycle (``rollup`` stage)
        #: and checkpointed at :meth:`checkpoint`.
        self.rollups = RollupGroup(misp.store)
        self.graph_view = None
        self.keyword_view = None
        self.geo_view = None
        self.report_builder = None
        if rollups_enabled:
            from ..dashboard.geo import GeoSummaryView
            from ..dashboard.views import (
                CorrelationGraphView,
                KeywordSummaryView,
            )
            from .report import IntelReportBuilder
            self.graph_view = self.rollups.add(
                CorrelationGraphView(misp.store, persistent=True))
            self.keyword_view = self.rollups.add(
                KeywordSummaryView(misp.store, persistent=True))
            self.geo_view = GeoSummaryView()
            self.rollups.add(
                self.geo_view.store_rollup(misp.store, persistent=True))
            self.report_builder = IntelReportBuilder(
                misp.store, clock=clock, decay=self.decay,
                incremental=True, persistent=True)
            self.rollups.add(self.report_builder.rollup)
        #: Simulated protocol-driving subscribers on the rIoC fan-out room
        #: (``caop run --subscribers``), pumped once per fanout stage.
        self.fanout_clients: List = []
        if fanout_subscribers:
            self.fanout_clients = dashboard.attach_subscribers(
                fanout_subscribers)
        self.deadletters = deadletters
        self.breakers = breakers
        #: The sharing gateway (delta-sync fan-out to external entities);
        #: the share stage is a no-op until entities are registered on it.
        self.gateway = gateway
        self.sensor_steps_per_cycle = sensor_steps_per_cycle
        #: End-to-end IoC lineage recorder (no-op unless wired to a store).
        self.provenance = provenance or NULL_RECORDER
        #: Structured JSON log (disabled unless built with one).
        self.log = log or NULL_LOG
        #: Optional SLO burn-rate engine, evaluated once per cycle.
        self.slo = slo
        #: Consecutive cycles in which the share stage delivered nothing
        #: while failing/skipping at least one share (SLO staleness signal).
        self._share_stale_cycles = 0
        self.history: List[CycleReport] = []
        self._m_cycles = self.metrics.counter(
            "caop_cycles_total", "Completed platform cycles")
        self._m_cycle_seconds = self.metrics.histogram(
            "caop_cycle_seconds", "Wall time of one full platform cycle")
        self._m_degraded = self.metrics.counter(
            "caop_degraded_cycles_total",
            "Cycles that completed with at least one failed stage")
        self._m_idle = self.metrics.counter(
            "caop_cycle_idle_total",
            "Quiet cycles: nothing collected, changed, shared or compacted")

    @classmethod
    def build_default(cls, config: Optional[PlatformConfig] = None,
                      inventory: Optional[Inventory] = None,
                      clock: Optional[Clock] = None) -> "ContextAwareOSINTPlatform":
        """The standard wiring over synthetic feeds and the paper inventory."""
        config = config or PlatformConfig()
        clock = clock or SimulatedClock()
        pool = IndicatorPool(seed=config.seed)
        transport = SimulatedTransport(clock=clock, seed=config.seed)
        descriptors: List[FeedDescriptor] = []
        for generator, name in standard_feed_set(
                pool, entries=config.feed_entries,
                seed=config.seed, overlap=config.feed_overlap):
            descriptor = generator.descriptor(name)
            transport.register_generator(descriptor, generator)
            descriptors.append(descriptor)
        return cls.build_with_feeds(descriptors, transport, config=config,
                                    inventory=inventory, clock=clock)

    @classmethod
    def build_from_feed_config(cls, path: str,
                               config: Optional[PlatformConfig] = None,
                               inventory: Optional[Inventory] = None,
                               clock: Optional[Clock] = None
                               ) -> "ContextAwareOSINTPlatform":
        """Wire the platform from a JSON feed-configuration file."""
        from ..feeds import load_feed_config, register_configured_feeds

        config = config or PlatformConfig()
        clock = clock or SimulatedClock()
        entries = load_feed_config(path)
        transport = SimulatedTransport(clock=clock, seed=config.seed)
        descriptors = register_configured_feeds(
            entries, transport, pool=IndicatorPool(seed=config.seed))
        return cls.build_with_feeds(descriptors, transport, config=config,
                                    inventory=inventory, clock=clock)

    @classmethod
    def build_with_feeds(cls, descriptors: Sequence[FeedDescriptor],
                         transport: SimulatedTransport,
                         config: Optional[PlatformConfig] = None,
                         inventory: Optional[Inventory] = None,
                         clock: Optional[Clock] = None
                         ) -> "ContextAwareOSINTPlatform":
        """Common wiring once feeds and their transport exist."""
        config = config or PlatformConfig()
        clock = clock or SimulatedClock()
        inventory = inventory or paper_inventory()
        descriptors = list(descriptors)
        metrics = MetricsRegistry(enabled=config.metrics_enabled)
        tracer = Tracer(metrics=metrics, enabled=config.metrics_enabled)
        provenance_on = config.metrics_enabled \
            if config.provenance_enabled is None else config.provenance_enabled
        log_on = config.metrics_enabled \
            if config.structured_log_enabled is None \
            else config.structured_log_enabled
        slo_on = config.metrics_enabled \
            if config.slo_enabled is None else config.slo_enabled
        log = StructuredLog(clock=clock, capacity=config.log_capacity,
                            sink_path=config.log_file, enabled=log_on)
        if config.fault_injector is not None and transport.fault_injector is None:
            transport.fault_injector = config.fault_injector
        sleeper = sleeper_for(config.backoff_mode, clock)
        deadletters = DeadLetterQueue(clock=clock, metrics=metrics)
        breakers = CircuitBreakerBoard(
            clock=clock,
            failure_threshold=config.breaker_failure_threshold,
            cooldown_seconds=config.breaker_cooldown_seconds,
            metrics=metrics)
        fetcher = FeedFetcher(
            transport, clock=clock, metrics=metrics,
            retry_policy=RetryPolicy(
                max_retries=config.fetch_retries,
                base_delay_seconds=config.retry_base_delay_seconds,
                max_delay_seconds=config.retry_max_delay_seconds,
                jitter=config.retry_jitter,
                seed=config.seed),
            breakers=breakers,
            sleeper=sleeper,
            tracer=tracer)

        store = None
        if config.store_path is not None or config.store_shards > 1:
            from ..misp.store import MispStore
            # shards=None lets an existing file keep the layout it was
            # created with; an explicit count >= 2 requests sharding.
            store = MispStore(config.store_path or ":memory:",
                              metrics=metrics, clock=clock,
                              fault_injector=config.fault_injector,
                              shards=config.store_shards
                              if config.store_shards > 1 else None)
        misp = MispInstance(
            org=config.org, store=store, metrics=metrics, clock=clock,
            store_retry_policy=RetryPolicy(
                max_retries=config.store_retries,
                base_delay_seconds=config.retry_base_delay_seconds,
                max_delay_seconds=config.retry_max_delay_seconds,
                jitter=config.retry_jitter,
                seed=config.seed),
            sleeper=sleeper,
            deadletters=deadletters,
            fault_injector=config.fault_injector)
        provenance = ProvenanceRecorder(
            store=misp.store, clock=clock, org=config.org,
            enabled=provenance_on)
        slo = SloEngine(metrics=metrics) if slo_on else None
        sensors = SensorNetwork(inventory, clock=clock, seed=config.seed,
                                alarm_rate=config.sensor_alarm_rate)
        infra_collector = InfrastructureDataCollector(
            inventory, sensors, misp=misp, clock=clock)
        from ..misp.warninglists import WarninglistIndex
        osint_collector = OsintDataCollector(
            fetcher, descriptors, misp=misp, clock=clock,
            drop_irrelevant_text=config.drop_irrelevant_text,
            warninglists=WarninglistIndex() if config.use_warninglists else None,
            metrics=metrics, tracer=tracer,
            deadletters=deadletters,
            fault_injector=config.fault_injector,
            provenance=provenance, log=log)
        heuristics = HeuristicComponent(
            misp, inventory=inventory,
            alarm_manager=sensors.alarm_manager,
            cve_db=CveDatabase(), clock=clock, metrics=metrics,
            tracer=tracer, provenance=provenance, log=log)
        rioc_generator = RIocGenerator(inventory, clock=clock, metrics=metrics)
        dashboard = DashboardServer(
            inventory, metrics=metrics,
            fanout_history=config.fanout_history,
            fanout_max_pending=config.fanout_max_pending)
        if config.fault_injector is not None:
            dashboard.sio.broker.fault_injector = config.fault_injector
        from ..sharing import SharingGateway
        gateway = SharingGateway(
            misp,
            retry_policy=RetryPolicy(
                max_retries=config.share_retries,
                base_delay_seconds=config.retry_base_delay_seconds,
                max_delay_seconds=config.retry_max_delay_seconds,
                jitter=config.retry_jitter,
                seed=config.seed),
            breakers=CircuitBreakerBoard(
                clock=clock,
                failure_threshold=config.breaker_failure_threshold,
                cooldown_seconds=config.breaker_cooldown_seconds,
                metrics=metrics),
            deadletters=deadletters,
            metrics=metrics,
            clock=clock,
            sleeper=sleeper,
            fault_injector=config.fault_injector,
            tracer=tracer, provenance=provenance, log=log)
        return cls(
            osint_collector=osint_collector,
            infra_collector=infra_collector,
            sensors=sensors,
            misp=misp,
            heuristics=heuristics,
            rioc_generator=rioc_generator,
            dashboard=dashboard,
            clock=clock,
            metrics=metrics,
            tracer=tracer,
            deadletters=deadletters,
            breakers=breakers,
            gateway=gateway,
            sensor_steps_per_cycle=config.sensor_steps_per_cycle,
            provenance=provenance,
            log=log,
            slo=slo,
            compaction_every_cycles=config.compaction_every_cycles,
            compaction_min_interval_seconds=(
                config.compaction_min_interval_seconds),
            compaction_purge=config.compaction_purge,
            rollups_enabled=config.rollups_enabled,
            fanout_subscribers=config.fanout_subscribers,
        )

    def run_cycle(self) -> CycleReport:
        """One full platform round: sense -> collect -> enrich -> reduce -> push.

        Each stage runs inside a named span; the resulting per-stage timing
        breakdown lands on :attr:`CycleReport.timings` and in the
        ``caop_span_seconds`` histogram of :attr:`metrics`.

        Stages are *isolated*: a stage that raises
        :class:`~repro.errors.ReproError` is recorded under
        :attr:`CycleReport.stage_errors` and the remaining stages still run,
        so one failing component degrades the cycle instead of aborting it.
        Unexpected (non-``ReproError``) exceptions still propagate — those
        are bugs, not faults.
        """
        report = CycleReport(collection=CollectionReport())
        cycle_no = len(self.history) + 1
        self.log.begin_cycle(cycle_no)
        self.provenance.begin_cycle(cycle_no)
        self.log.emit("cycle", "cycle_start")
        with self.tracer.span("cycle") as cycle_span:
            # 1. Infrastructure side: sensors tick, alarms reach the dashboard,
            #    internal IoCs reach MISP (stored only; no zmq feed).
            new_alarms: List = []
            infra_event = None
            try:
                with self.tracer.span("sense"):
                    new_alarms = self.sensors.tick(
                        steps=self.sensor_steps_per_cycle)
                    for alarm in new_alarms:
                        self.dashboard.push_alarm(alarm)
                    infra_event = self.infra_collector.ship_to_misp()
            except ReproError as exc:
                report.stage_errors["sense"] = str(exc)

            # 2. OSINT side: collect feeds into cIoCs (MISP publishes each on
            #    zmq).  The collector opens its own child spans (fetch ->
            #    normalize -> dedup -> filter -> correlate -> compose -> store).
            #    A store-stage failure is absorbed inside collect() (the
            #    events are quarantined) and surfaces as ``store_error``.
            try:
                with self.tracer.span("collect"):
                    _ciocs, collection = self.osint_collector.collect()
                report.collection = collection
                if collection.store_error is not None:
                    report.stage_errors["store"] = collection.store_error
            except ReproError as exc:
                report.stage_errors["collect"] = str(exc)

            # 3. Heuristic analysis: drain the feed, score, enrich.
            enrichments: List[EnrichmentResult] = []
            try:
                with self.tracer.span("enrich"):
                    enrichments = self.heuristics.process_pending()
            except ReproError as exc:
                report.stage_errors["enrich"] = str(exc)

            # 4. Reduction + visualization: rIoCs to the dashboard sockets.
            report.new_alarms = len(new_alarms)
            report.infrastructure_events = 1 if infra_event is not None else 0
            report.eiocs_created = len(enrichments)
            riocs: List[ReducedIoc] = []
            try:
                with self.tracer.span("reduce"):
                    for enrichment in enrichments:
                        report.scores.append(enrichment.score.score)
                        rioc = self.rioc_generator.generate(enrichment.eioc)
                        if rioc is None:
                            report.riocs_suppressed += 1
                        else:
                            riocs.append(rioc)
                            if self.provenance.enabled:
                                self.provenance.record(
                                    "reduced-into", enrichment.eioc.uuid,
                                    actor="rioc-generator",
                                    detail=f"nodes={','.join(rioc.nodes)} "
                                           f"term={rioc.matched_term}")
            except ReproError as exc:
                report.stage_errors["reduce"] = str(exc)
            try:
                with self.tracer.span("push"):
                    for rioc in riocs:
                        report.riocs_created += 1
                        report.dashboard_pushes += self.dashboard.push_rioc(rioc)
            except ReproError as exc:
                report.stage_errors["push"] = str(exc)

            # 5. Sharing: delta-sync fan-out of new/changed eIoCs to the
            #    registered external entities (no-op until any register).
            if self.gateway is not None and self.gateway.entities:
                try:
                    with self.tracer.span("share"):
                        share_report = self.gateway.sync_cycle()
                    report.shares_sent = share_report.shared
                    report.share_failures = (share_report.failed
                                             + share_report.breaker_skipped)
                except ReproError as exc:
                    report.stage_errors["share"] = str(exc)

            # 6. Compaction: the rate-limited decay full pass (usually a
            #    skip).  Runs *before* the rollup stage so any purge lands
            #    in the change feed the rollups consume this same cycle.
            try:
                with self.tracer.span("compact"):
                    compaction = self.compaction.maybe_run(cycle_no)
                report.compacted = compaction.ran
                report.events_purged = compaction.purged
            except ReproError as exc:
                report.stage_errors["compact"] = str(exc)

            # 7. Rollup maintenance: bring the materialized dashboard and
            #    report views current off the change feed.  On a quiet cycle
            #    this is a single empty changes_since query.
            try:
                with self.tracer.span("rollup"):
                    report.deltas_consumed = self.rollups.refresh()
                    if report.compacted:
                        # Compaction cadence doubles as the checkpoint
                        # cadence: persist rollup state while the store is
                        # already paying a write burst.
                        self.rollups.save_all()
            except ReproError as exc:
                report.stage_errors["rollup"] = str(exc)

            # 8. Fan-out: flush the snapshot+delta rooms the dashboard
            #    materializes for massive subscriber counts (one delta
            #    render per dirty room, however many subscribers).  View-
            #    room syncing is gated on actual activity so a quiet cycle
            #    adds no SQL, and flushing clean rooms renders nothing.
            try:
                with self.tracer.span("fanout"):
                    if (report.deltas_consumed > 0 or report.new_alarms
                            or report.riocs_created):
                        self.dashboard.sync_view_rooms(
                            self.graph_view, self.keyword_view)
                    flush = self.dashboard.flush_fanout()
                    report.fanout_deltas = flush.deltas
                    report.fanout_shed = flush.shed_messages
                    report.fanout_resyncs = flush.resyncs
                    for client in self.fanout_clients:
                        client.pump()
            except ReproError as exc:
                report.stage_errors["fanout"] = str(exc)
        report.idle = (not report.degraded
                       and report.collection.ciocs_created == 0
                       and report.eiocs_created == 0
                       and report.riocs_created == 0
                       and report.new_alarms == 0
                       and report.shares_sent == 0
                       and report.deltas_consumed == 0
                       and report.fanout_deltas == 0
                       and not report.compacted)
        if report.idle:
            self._m_idle.inc()
        if cycle_span is not None:
            report.timings = cycle_span.flatten()
            self._m_cycle_seconds.observe(cycle_span.duration_seconds)
        self._m_cycles.inc()
        if report.degraded:
            self._m_degraded.inc()
        self.history.append(report)
        for stage, error in sorted(report.stage_errors.items()):
            self.log.emit(stage, "stage_error", level="error", error=error)
        self.log.emit(
            "cycle", "cycle_end",
            ciocs=report.collection.ciocs_created,
            eiocs=report.eiocs_created,
            riocs=report.riocs_created,
            shares=report.shares_sent,
            degraded=report.degraded,
            deltas=report.deltas_consumed,
            fanout=report.fanout_deltas,
            idle=report.idle)
        # Share staleness streak: cycles in which the fan-out only failed.
        if self.gateway is not None and self.gateway.entities:
            if report.shares_sent > 0:
                self._share_stale_cycles = 0
            elif report.share_failures > 0:
                self._share_stale_cycles += 1
        self.provenance.flush()
        if self.slo is not None:
            fetched = report.collection.feeds_fetched
            failed = report.collection.feeds_failed
            attempted = fetched + failed
            self.slo.observe_cycle(cycle_no, self.clock.now(), {
                "cycle_seconds": cycle_span.duration_seconds
                if cycle_span is not None else 0.0,
                "degraded": 1.0 if report.degraded else 0.0,
                "drop_ratio": (failed / attempted) if attempted else 0.0,
                "share_stale_cycles": float(self._share_stale_cycles),
                "ciocs_created": float(report.collection.ciocs_created),
                "eiocs_created": float(report.eiocs_created),
                "shares_sent": float(report.shares_sent),
                "deltas_consumed": float(report.deltas_consumed),
                "idle": 1.0 if report.idle else 0.0,
            })
            self.slo.evaluate()
        health = self.health()
        health.export(self.metrics)
        self.dashboard.update_health(health)
        return report

    def health(self) -> PlatformHealth:
        """Snapshot component health: feed breakers, pipeline stages, DLQ.

        Breaker states map directly (closed -> ok, half-open -> degraded,
        open -> failing).  A stage that failed in the last cycle is degraded;
        failing if it failed in the last *two*.  The dead-letter queue is
        degraded while anything sits quarantined.
        """
        components: List[ComponentHealth] = []
        boards = (("feed", self.breakers),
                  ("entity", self.gateway.breakers
                   if self.gateway is not None else None))
        for prefix, board in boards:
            if board is None:
                continue
            for name, state in sorted(board.states().items()):
                components.append(ComponentHealth(
                    component=f"{prefix}:{name}",
                    status=_BREAKER_HEALTH.get(state, HEALTH_OK),
                    detail=f"breaker {state}"))
        last = self.history[-1] if self.history else None
        prev = self.history[-2] if len(self.history) > 1 else None
        for stage in ("sense", "collect", "store", "enrich", "reduce",
                      "push", "share", "compact", "rollup", "fanout"):
            if last is not None and stage in last.stage_errors:
                repeated = prev is not None and stage in prev.stage_errors
                components.append(ComponentHealth(
                    component=f"stage:{stage}",
                    status=HEALTH_FAILING if repeated else HEALTH_DEGRADED,
                    detail=last.stage_errors[stage]))
            else:
                components.append(ComponentHealth(
                    component=f"stage:{stage}", status=HEALTH_OK))
        if self.deadletters is not None:
            depth = len(self.deadletters)
            components.append(ComponentHealth(
                component="deadletter",
                status=HEALTH_DEGRADED if depth else HEALTH_OK,
                detail=f"{depth} quarantined" if depth else ""))
        if self.slo is not None:
            # SloStatus severities are spelled exactly like the HEALTH_*
            # constants, so they map without obs importing resilience.
            for status in self.slo.last_statuses():
                components.append(ComponentHealth(
                    component=f"slo:{status.rule.name}",
                    status=status.severity,
                    detail=status.detail))
        return PlatformHealth(components=components)

    def checkpoint(self) -> int:
        """Persist every rollup's position + state to ``rollup_state``.

        Call before shutting down a platform built over a file-backed
        store: a reopened platform then resumes its rollups from the
        checkpoint, and its first quiet cycle consumes zero deltas.
        Returns how many rollups actually wrote.
        """
        return self.rollups.save_all()

    def replay_deadletters(self) -> ReplayReport:
        """Re-drive quarantined documents and events through the pipeline.

        Call after the underlying fault clears (e.g. the store recovers):
        documents go back through the collector's parse->compose->store
        chain, events go straight to MISP, quarantined shares re-drive
        their transport through the gateway, and anything the heuristic
        component now sees is scored into eIoCs.
        """
        if self.deadletters is None:
            return ReplayReport()
        report = self.deadletters.replay(
            collector=self.osint_collector, misp=self.misp,
            gateway=self.gateway)
        enrichments = self.heuristics.process_pending()
        report.eiocs_created = len(enrichments)
        return report

    def run(self, cycles: int) -> List[CycleReport]:
        """Run several cycles and return their reports."""
        return [self.run_cycle() for _ in range(cycles)]
