"""Platform-level fault-tolerance tests: stage isolation, degraded cycles,
scheduler interplay with failures, health snapshots, and determinism of
whole chaos runs for the same seed."""

import datetime as dt

import pytest

from repro.clock import SimulatedClock
from repro.core import ContextAwareOSINTPlatform, PlatformConfig
from repro.core.collector import OsintDataCollector
from repro.core.ioc import TAG_CIOC
from repro.dashboard import render_health
from repro.errors import SharingError
from repro.feeds import FeedDescriptor, FeedFetcher, SimulatedTransport
from repro.feeds.model import FeedFormat
from repro.feeds.scheduler import FeedScheduler
from repro.resilience import (
    BreakerState,
    CircuitBreakerBoard,
    DeadLetterQueue,
    FaultInjector,
    FaultPlan,
    FaultRule,
)


def _platform(injector=None, **overrides):
    config = PlatformConfig(seed=3, feed_entries=10, fault_injector=injector,
                            **overrides)
    return ContextAwareOSINTPlatform.build_default(config)


class TestSensorSteps:
    def test_config_steps_reach_the_sensor_tick(self, monkeypatch):
        platform = _platform(sensor_steps_per_cycle=2)
        seen = []
        original = platform.sensors.tick

        def spy(steps):
            seen.append(steps)
            return original(steps=steps)

        monkeypatch.setattr(platform.sensors, "tick", spy)
        platform.run_cycle()
        assert seen == [2]

    def test_zero_steps_pin_the_simulated_clock(self):
        platform = _platform(sensor_steps_per_cycle=0, backoff_mode="none")
        start = platform.clock.now()
        platform.run_cycle()
        assert platform.clock.now() == start

    def test_default_config_keeps_six_steps(self):
        assert PlatformConfig().sensor_steps_per_cycle == 6


class TestStageIsolation:
    def test_enrich_failure_degrades_cycle_but_others_run(self, monkeypatch):
        platform = _platform()

        def boom():
            raise SharingError("enrich boom")

        monkeypatch.setattr(platform.heuristics, "process_pending", boom)
        report = platform.run_cycle()
        assert report.degraded
        assert report.stage_errors == {"enrich": "enrich boom"}
        # Collect still ran (cIoCs composed and stored) and the cycle is
        # accounted for, it just produced no enrichments downstream.
        assert report.collection.ciocs_created > 0
        assert report.eiocs_created == 0
        assert platform.metrics.counter(
            "caop_degraded_cycles_total").total() == 1

    def test_repeated_stage_failure_escalates_health(self, monkeypatch):
        platform = _platform()
        monkeypatch.setattr(
            platform.heuristics, "process_pending",
            lambda: (_ for _ in ()).throw(SharingError("down")))
        platform.run_cycle()
        assert platform.health().status_of("stage:enrich") == "degraded"
        platform.run_cycle()
        assert platform.health().status_of("stage:enrich") == "failing"
        assert platform.health().overall() == "failing"

    def test_unexpected_exception_still_propagates(self, monkeypatch):
        platform = _platform()
        monkeypatch.setattr(
            platform.heuristics, "process_pending",
            lambda: (_ for _ in ()).throw(RuntimeError("a bug, not a fault")))
        with pytest.raises(RuntimeError):
            platform.run_cycle()

    def test_healthy_cycle_exports_ok_gauges_and_renders(self):
        platform = _platform()
        report = platform.run_cycle()
        assert not report.degraded
        gauge = platform.metrics.gauge("caop_component_health")
        assert gauge.value(component="stage:collect") == 0
        assert gauge.value(component="deadletter") == 0
        assert platform.dashboard.health is not None
        text = render_health(platform.dashboard.health)
        assert "Platform health: OK" in text
        assert "stage:collect" in text


class TestStoreOutage:
    def test_outage_degrades_quarantines_and_replay_recovers(self):
        injector = FaultInjector(FaultPlan(rules=[
            FaultRule(component="store", key="add_events", rate=1.0,
                      reason="store down"),
        ], seed=1))
        platform = _platform(injector)
        report = platform.run_cycle()
        assert report.degraded
        assert "store" in report.stage_errors
        assert report.collection.events_quarantined > 0
        quarantined = len(platform.deadletters)
        assert quarantined > 0
        assert platform.metrics.counter("caop_deadletter_total").total() > 0
        assert platform.health().status_of("deadletter") == "degraded"

        injector.clear()
        outcome = platform.replay_deadletters()
        assert outcome.events_replayed > 0
        assert outcome.eiocs_created > 0
        assert len(platform.deadletters) == 0
        assert platform.metrics.gauge("caop_deadletter_depth").value() == 0


class TestSchedulerWithFailures:
    def _collector(self, fetcher=None, transport=None, clock=None,
                   deadletters=None, fault_injector=None):
        clock = clock or SimulatedClock()
        transport = transport or SimulatedTransport(clock=clock, seed=0)
        good = FeedDescriptor(name="good", url="https://feeds.example/good",
                              format=FeedFormat.PLAINTEXT,
                              category="ip-blocklist")
        dead = FeedDescriptor(name="dead", url="https://feeds.example/dead",
                              format=FeedFormat.PLAINTEXT,
                              category="ip-blocklist")
        transport.register(good.url, lambda now: "1.2.3.4\n")
        transport.register(dead.url, lambda now: "5.6.7.8\n")
        scheduler = FeedScheduler([good, dead], clock=clock)
        fetcher = fetcher or FeedFetcher(transport, clock=clock, max_retries=1)
        collector = OsintDataCollector(
            fetcher, [good, dead], clock=clock, scheduler=scheduler,
            deadletters=deadletters, fault_injector=fault_injector)
        return collector, scheduler, transport, clock

    def test_failed_fetch_leaves_feed_due_next_cycle(self):
        clock = SimulatedClock()
        transport = SimulatedTransport(clock=clock, seed=0)
        transport.fault_injector = FaultInjector(FaultPlan(rules=[
            FaultRule(component="transport", key="*dead*", rate=1.0)]))
        collector, scheduler, transport, clock = self._collector(
            transport=transport, clock=clock)
        _ciocs, report = collector.collect()
        assert report.feeds_fetched == 1
        assert report.feeds_failed == 1
        # The failed feed is still due; the fetched one is not.
        assert [d.name for d in scheduler.due_feeds()] == ["dead"]

    def test_breaker_tripped_feed_is_skipped_but_stays_due(self):
        clock = SimulatedClock()
        transport = SimulatedTransport(clock=clock, seed=0)
        transport.fault_injector = FaultInjector(FaultPlan(rules=[
            FaultRule(component="transport", key="*dead*", rate=1.0)]))
        breakers = CircuitBreakerBoard(clock=clock, failure_threshold=1,
                                       cooldown_seconds=3600.0)
        fetcher = FeedFetcher(transport, clock=clock, max_retries=0,
                              breakers=breakers)
        collector, scheduler, transport, clock = self._collector(
            fetcher=fetcher, transport=transport, clock=clock)
        collector.collect()  # trips the dead feed's breaker
        assert breakers.states()["dead"] == BreakerState.OPEN
        requests_before = transport.stats.requests
        _ciocs, report = collector.collect()
        # The open breaker skipped the transport entirely, yet the feed
        # still counts as failed and remains due.
        assert report.feeds_failed == 1
        assert transport.stats.requests == requests_before
        assert "dead" in [d.name for d in scheduler.due_feeds()]

    def test_parse_failure_after_successful_fetch_lands_in_dlq(self):
        clock = SimulatedClock()
        transport = SimulatedTransport(clock=clock, seed=0)
        bad = FeedDescriptor(name="bad-json", url="https://feeds.example/bad",
                             format=FeedFormat.JSON, category="phishing")
        transport.register(bad.url, lambda now: "{this is not json")
        scheduler = FeedScheduler([bad], clock=clock)
        queue = DeadLetterQueue(clock=clock)
        collector = OsintDataCollector(
            FeedFetcher(transport, clock=clock), [bad], clock=clock,
            scheduler=scheduler, deadletters=queue)
        _ciocs, report = collector.collect()
        assert report.feeds_failed == 1
        assert report.feeds_fetched == 0
        assert report.documents_quarantined == 1
        assert len(queue) == 1
        entry = queue.entries()[0]
        assert entry.source == "bad-json"
        assert entry.reason.startswith("parse:")


def _chaos_run():
    """One full chaos run; returns everything that must be identical
    across runs of the same seed."""
    plan = FaultPlan(rules=[
        FaultRule(component="transport", rate=0.3, reason="flaky network"),
        FaultRule(component="store", key="add_events",
                  from_call=3, until_call=9, reason="store outage"),
        FaultRule(component="parse", key="phishing-a",
                  from_call=2, until_call=4, reason="garbage body"),
    ], seed=13)
    injector = FaultInjector(plan)
    platform = ContextAwareOSINTPlatform.build_default(PlatformConfig(
        seed=13, feed_entries=12,
        fault_injector=injector,
        breaker_failure_threshold=2, breaker_cooldown_seconds=0.0))
    reports = platform.run(6)
    ciocs = sorted(
        (event.to_dict() for event in platform.misp.store.list_events()
         if event.has_tag(TAG_CIOC)),
        key=lambda payload: payload["Event"]["uuid"])
    return {
        "cycles": [(r.collection.feeds_fetched, r.collection.feeds_failed,
                    r.collection.ciocs_created, r.eiocs_created,
                    sorted(r.stage_errors), r.degraded) for r in reports],
        "breakers": platform.breakers.transition_logs(),
        "deadletters": platform.deadletters.to_json(),
        "injected": sorted(injector.injected.items()),
        "retries": platform.metrics.counter(
            "caop_feed_fetch_retries_total").total(),
        "ciocs": ciocs,
        "clock": platform.clock.now().isoformat(),
    }


class TestChaosRuns:
    def test_ten_cycles_under_faults_raise_nothing(self):
        injector = FaultInjector(FaultPlan(rules=[
            FaultRule(component="transport", rate=0.3, reason="net"),
            FaultRule(component="store", key="add_events",
                      from_call=3, until_call=9, reason="db"),
            FaultRule(component="parse", key="phishing-a",
                      from_call=2, until_call=5, reason="garbage"),
        ], seed=7))
        platform = _platform(injector, breaker_failure_threshold=2,
                             breaker_cooldown_seconds=0.0)
        reports = platform.run(10)  # must not raise
        assert len(reports) == 10
        degraded = [r for r in reports if r.degraded]
        assert degraded, "the scripted store outage must degrade a cycle"
        assert all(r.stage_errors for r in degraded)
        assert platform.metrics.counter(
            "caop_degraded_cycles_total").total() == len(degraded)
        assert len(platform.deadletters) > 0

    def test_chaos_run_is_identical_for_the_same_seed(self):
        assert _chaos_run() == _chaos_run()
