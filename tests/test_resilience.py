"""Tests for the resilience package: retry policy, breakers, dead letters,
fault injection, and their wiring into the fetcher and MISP instance."""

import datetime as dt

import pytest

from repro.clock import SimulatedClock
from repro.errors import (
    BreakerOpenError,
    ConfigurationError,
    FeedError,
    ParseError,
    PermanentFeedError,
    SharingError,
    StorageError,
    TransientFeedError,
    TransientStorageError,
)
from repro.feeds import FeedDescriptor, FeedFetcher, SimulatedTransport
from repro.feeds.model import FeedDocument, FeedFormat
from repro.misp import MispAttribute, MispEvent, MispInstance
from repro.obs import MetricsRegistry
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerBoard,
    ClockAdvancingSleeper,
    DeadLetterQueue,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RecordingSleeper,
    RetryPolicy,
    sleeper_for,
)


def _descriptor(name="feed-a", url="https://feeds.example/a"):
    return FeedDescriptor(name=name, url=url,
                          format=FeedFormat.PLAINTEXT, category="ip-blocklist")


def _document(name="feed-a", body="1.2.3.4\n"):
    return FeedDocument(
        descriptor=_descriptor(name=name),
        body=body,
        fetched_at=dt.datetime(2019, 6, 1, tzinfo=dt.timezone.utc))


class TestRetryPolicy:
    def test_delay_is_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy(max_retries=3, seed=42)
        assert policy.delay("feed-a", 0) == policy.delay("feed-a", 0)
        assert policy.delay("feed-a", 0) != policy.delay("feed-b", 0)
        assert policy.delay("feed-a", 0) != policy.delay("feed-a", 1)

    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(max_retries=8, base_delay_seconds=1.0,
                             multiplier=2.0, max_delay_seconds=10.0,
                             jitter=0.0)
        assert policy.delay("k", 0) == 1.0
        assert policy.delay("k", 1) == 2.0
        assert policy.delay("k", 2) == 4.0
        assert policy.delay("k", 5) == 10.0  # capped

    def test_jitter_only_shrinks_within_bounds(self):
        policy = RetryPolicy(base_delay_seconds=4.0, jitter=0.5, seed=1)
        for attempt in range(5):
            delay = policy.delay("k", attempt)
            bounded = min(4.0 * 2.0 ** attempt, 60.0)
            assert bounded * 0.5 <= delay <= bounded

    def test_schedule_lists_every_retry(self):
        policy = RetryPolicy(max_retries=3, jitter=0.0, base_delay_seconds=1.0)
        assert policy.schedule("k") == [1.0, 2.0, 4.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_seconds=-1.0)


class TestSleepers:
    def test_clock_advancing_sleeper_moves_simulated_clock(self):
        clock = SimulatedClock()
        start = clock.now()
        sleeper = ClockAdvancingSleeper(clock)
        sleeper.sleep(90.0)
        assert (clock.now() - start).total_seconds() == pytest.approx(90.0)
        assert sleeper.total_slept == pytest.approx(90.0)

    def test_recording_sleeper_records_without_clock(self):
        sleeper = RecordingSleeper()
        sleeper.sleep(1.5)
        sleeper.sleep(0.0)  # ignored
        sleeper.sleep(2.5)
        assert sleeper.sleeps == [1.5, 2.5]
        assert sleeper.total_slept == pytest.approx(4.0)

    def test_sleeper_for_modes(self):
        clock = SimulatedClock()
        assert isinstance(sleeper_for("virtual", clock), ClockAdvancingSleeper)
        assert isinstance(sleeper_for("none", clock), RecordingSleeper)
        with pytest.raises(ConfigurationError):
            sleeper_for("bogus", clock)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("f", failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker("f", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED

    def test_half_open_probe_after_cooldown(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker("f", clock=clock, failure_threshold=1,
                                 cooldown_seconds=300.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(dt.timedelta(seconds=299))
        assert not breaker.allow()
        clock.advance(dt.timedelta(seconds=1))
        assert breaker.allow()  # the probe
        assert breaker.state == BreakerState.HALF_OPEN
        # While the probe is in flight no second request goes through.
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker("f", clock=clock, failure_threshold=1,
                                 cooldown_seconds=60.0)
        breaker.record_failure()
        clock.advance(dt.timedelta(seconds=60))
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow()
        clock.advance(dt.timedelta(seconds=60))
        assert breaker.allow()

    def test_transition_log_uses_clock_timestamps(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker("f", clock=clock, failure_threshold=1,
                                 cooldown_seconds=10.0)
        breaker.record_failure()
        clock.advance(dt.timedelta(seconds=10))
        breaker.allow()
        breaker.record_success()
        states = [state for state, _when in breaker.transition_log()]
        assert states == [BreakerState.OPEN, BreakerState.HALF_OPEN,
                          BreakerState.CLOSED]

    def test_metrics_track_state_and_opens(self):
        registry = MetricsRegistry()
        breaker = CircuitBreaker("f", failure_threshold=1, metrics=registry)
        assert registry.gauge("caop_breaker_state").value(feed="f") == 0
        breaker.record_failure()
        assert registry.gauge("caop_breaker_state").value(feed="f") == 2
        assert registry.counter("caop_breaker_opens_total").value(feed="f") == 1

    def test_board_shares_config_and_lists_states(self):
        board = CircuitBreakerBoard(failure_threshold=1)
        board.breaker("a").record_failure()
        assert board.states() == {"a": BreakerState.OPEN}
        assert board.breaker("a") is board.breaker("a")
        assert "a" in board.transition_logs()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker("f", failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker("f", cooldown_seconds=-1.0)


class TestFaultInjector:
    def test_explicit_call_indices(self):
        injector = FaultInjector(FaultPlan(
            rules=[FaultRule(component="transport", calls=(0, 2))]))
        with pytest.raises(TransientFeedError):
            injector.check("transport", "u")
        injector.check("transport", "u")  # index 1: clean
        with pytest.raises(TransientFeedError):
            injector.check("transport", "u")

    def test_half_open_window(self):
        injector = FaultInjector(FaultPlan(
            rules=[FaultRule(component="parse", key="feed-*",
                             from_call=1, until_call=3)]))
        injector.check("parse", "feed-a")  # 0
        for _ in range(2):                 # 1, 2
            with pytest.raises(ParseError):
                injector.check("parse", "feed-a")
        injector.check("parse", "feed-a")  # 3: past the window

    def test_rate_is_deterministic_per_seed(self):
        def run(seed):
            injector = FaultInjector(FaultPlan(
                rules=[FaultRule(component="store", rate=0.5)], seed=seed))
            outcomes = []
            for _ in range(20):
                try:
                    injector.check("store", "save")
                    outcomes.append(False)
                except TransientStorageError:
                    outcomes.append(True)
            return outcomes

        assert run(7) == run(7)
        assert any(run(7))
        assert not all(run(7))

    def test_component_error_types(self):
        rules = [FaultRule(component=c, rate=1.0)
                 for c in ("transport", "store", "parse", "broker")]
        injector = FaultInjector(FaultPlan(rules=rules))
        with pytest.raises(TransientFeedError):
            injector.check("transport", "u")
        with pytest.raises(TransientStorageError):
            injector.check("store", "s")
        with pytest.raises(ParseError):
            injector.check("parse", "p")
        with pytest.raises(SharingError):
            injector.check("broker", "t")

    def test_clear_stops_firing_but_counters_advance(self):
        injector = FaultInjector(FaultPlan(
            rules=[FaultRule(component="transport", calls=(0, 1, 2))]))
        with pytest.raises(TransientFeedError):
            injector.check("transport", "u")   # 0
        injector.clear()
        injector.check("transport", "u")       # 1: suppressed but counted
        injector.resume()
        with pytest.raises(TransientFeedError):
            injector.check("transport", "u")   # 2
        injector.check("transport", "u")       # 3: past the scripted calls
        assert injector.injected[("transport", "u")] == 2
        assert injector.injected_total() == 2

    def test_plan_round_trips_through_dict(self):
        plan = FaultPlan(rules=[
            FaultRule(component="transport", key="*a", rate=0.25,
                      calls=(1, 2), from_call=0, until_call=9, reason="x"),
        ], seed=3)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_component_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(component="network")
        with pytest.raises(ConfigurationError):
            FaultRule(component="store", rate=2.0)


class TestDeadLetterQueue:
    def test_quarantine_document_and_dedup_bumps_attempts(self):
        registry = MetricsRegistry()
        queue = DeadLetterQueue(metrics=registry)
        document = _document()
        queue.quarantine_document(document, reason="parse: boom")
        queue.quarantine_document(document, reason="parse: boom again")
        assert len(queue) == 1
        entry = queue.entries()[0]
        assert entry.attempts == 2
        assert entry.reason == "parse: boom again"
        assert registry.counter("caop_deadletter_total").value(
            kind="document") == 2
        assert registry.gauge("caop_deadletter_depth").value() == 1

    def test_quarantine_events_dedups_on_uuid(self):
        queue = DeadLetterQueue()
        event = MispEvent(info="e", uuid="u-1")
        queue.quarantine_events([event], reason="store: down")
        queue.quarantine_events([event], reason="store: still down")
        assert len(queue) == 1
        assert queue.entries()[0].attempts == 2

    def test_save_load_round_trip(self, tmp_path):
        queue = DeadLetterQueue()
        queue.quarantine_document(_document(body="not,really,csv"),
                                  reason="parse: bad")
        event = MispEvent(info="quarantined", uuid="u-9")
        event.add_attribute(MispAttribute(type="ip-src", value="9.9.9.9"))
        queue.quarantine_events([event], reason="store: out")
        path = tmp_path / "dlq.json"
        queue.save(str(path))

        restored = DeadLetterQueue()
        assert restored.load(str(path)) == 2
        kinds = sorted(letter.kind for letter in restored.entries())
        assert kinds == ["document", "event"]
        revived = [letter.event for letter in restored.entries()
                   if letter.kind == "event"][0]
        assert revived.uuid == "u-9"
        assert revived.all_attributes()[0].value == "9.9.9.9"
        # Loading again is a no-op thanks to content keys.
        assert restored.load(str(path)) == 0

    def test_replay_without_targets_requeues(self):
        queue = DeadLetterQueue()
        queue.quarantine_document(_document(), reason="parse: x")
        report = queue.replay()
        assert report.attempted == 1
        assert report.requeued == 1
        assert len(queue) == 1

    def test_replay_events_into_misp(self):
        queue = DeadLetterQueue()
        misp = MispInstance()
        event = MispEvent(info="late arrival", uuid="u-2")
        queue.quarantine_events([event], reason="store: out")
        report = queue.replay(misp=misp)
        assert report.events_replayed == 1
        assert len(queue) == 0
        assert misp.store.get_event("u-2") is not None

    def test_clear_empties_queue(self):
        queue = DeadLetterQueue()
        queue.quarantine_document(_document(), reason="r")
        assert queue.clear() == 1
        assert len(queue) == 0


class TestTransportErrorSplit:
    def test_unknown_url_is_permanent(self):
        transport = SimulatedTransport()
        with pytest.raises(PermanentFeedError):
            transport.get("https://feeds.example/missing")

    def test_injected_failure_is_transient(self):
        transport = SimulatedTransport(failure_rate=0.999, seed=1)
        transport.register("https://feeds.example/a", lambda now: "body")
        with pytest.raises(TransientFeedError):
            transport.get("https://feeds.example/a")

    def test_permanent_failure_skips_retries(self):
        registry = MetricsRegistry()
        transport = SimulatedTransport()
        fetcher = FeedFetcher(transport, max_retries=5, metrics=registry)
        descriptor = _descriptor(url="https://feeds.example/nowhere")
        with pytest.raises(PermanentFeedError):
            fetcher.fetch(descriptor)
        # One request, zero retries: permanent errors do not burn attempts.
        assert transport.stats.requests == 1
        assert transport.stats.retries == 0
        assert registry.counter(
            "caop_feed_fetch_permanent_failures_total").value(
                feed="feed-a") == 1


class TestFetcherBreakerIntegration:
    def _failing_setup(self, cooldown=600.0, threshold=3):
        clock = SimulatedClock()
        transport = SimulatedTransport(clock=clock, seed=0)
        transport.fault_injector = FaultInjector(FaultPlan(
            rules=[FaultRule(component="transport", rate=1.0)]))
        breakers = CircuitBreakerBoard(
            clock=clock, failure_threshold=threshold,
            cooldown_seconds=cooldown)
        descriptor = _descriptor(name="dead", url="https://feeds.example/dead")
        transport.register(descriptor.url, lambda now: "body")
        fetcher = FeedFetcher(transport, clock=clock, max_retries=0,
                              breakers=breakers)
        return clock, transport, fetcher, descriptor

    def test_breaker_trips_then_skips_transport(self):
        clock, transport, fetcher, descriptor = self._failing_setup()
        for _ in range(3):
            with pytest.raises(FeedError):
                fetcher.fetch(descriptor)
        assert fetcher.breakers.states()["dead"] == BreakerState.OPEN
        before = transport.stats.requests
        with pytest.raises(BreakerOpenError):
            fetcher.fetch(descriptor)
        assert transport.stats.requests == before  # transport untouched

    def test_half_open_probe_is_single_attempt(self):
        clock, transport, fetcher, descriptor = self._failing_setup()
        for _ in range(3):
            with pytest.raises(FeedError):
                fetcher.fetch(descriptor)
        clock.advance(dt.timedelta(seconds=600))
        before = transport.stats.requests
        with pytest.raises(FeedError):
            fetcher.fetch(descriptor)
        assert transport.stats.requests == before + 1  # probe, no retry burst
        assert fetcher.breakers.states()["dead"] == BreakerState.OPEN

    def test_successful_probe_closes_breaker(self):
        clock, transport, fetcher, descriptor = self._failing_setup()
        for _ in range(3):
            with pytest.raises(FeedError):
                fetcher.fetch(descriptor)
        transport.fault_injector.clear()
        clock.advance(dt.timedelta(seconds=600))
        document = fetcher.fetch(descriptor)
        assert document.body == "body"
        assert fetcher.breakers.states()["dead"] == BreakerState.CLOSED


class TestFetcherBackoff:
    def test_backoff_advances_simulated_clock_once(self):
        clock = SimulatedClock()
        transport = SimulatedTransport(clock=clock, failure_rate=0.999, seed=5)
        descriptor = _descriptor(url="https://feeds.example/flaky")
        transport.register(descriptor.url, lambda now: "x")
        policy = RetryPolicy(max_retries=2, base_delay_seconds=1.0,
                             jitter=0.0, seed=0)
        sleeper = ClockAdvancingSleeper(clock)
        fetcher = FeedFetcher(transport, clock=clock, retry_policy=policy,
                              sleeper=sleeper)
        start = clock.now()
        with pytest.raises(FeedError):
            fetcher.fetch(descriptor)
        # Two retries: 1s + 2s of backoff, applied after the fetch.
        assert (clock.now() - start).total_seconds() == pytest.approx(3.0)

    def test_backoff_total_is_identical_for_the_same_seed(self):
        def run():
            clock = SimulatedClock()
            transport = SimulatedTransport(clock=clock, failure_rate=0.4,
                                           seed=3)
            descriptors = []
            for i in range(8):
                descriptor = _descriptor(
                    name=f"f{i}", url=f"https://feeds.example/f{i}")
                transport.register(descriptor.url, lambda now: "x")
                descriptors.append(descriptor)
            sleeper = RecordingSleeper()
            fetcher = FeedFetcher(transport, clock=clock,
                                  retry_policy=RetryPolicy(max_retries=2,
                                                           seed=11),
                                  sleeper=sleeper)
            results = fetcher.fetch_many(descriptors)
            outcome = [(d.name, doc is not None) for d, doc, _e in results]
            return outcome, sleeper.sleeps

        outcome, sleeps = run()
        # The cycle's backoff is summed and applied once, after the loop.
        assert len(sleeps) == 1
        assert (outcome, sleeps) == run()


class TestStoreRetry:
    def _instance(self, rules, max_retries=2):
        injector = FaultInjector(FaultPlan(rules=rules, seed=0))
        queue = DeadLetterQueue()
        sleeper = RecordingSleeper()
        misp = MispInstance(
            store_retry_policy=RetryPolicy(max_retries=max_retries,
                                           jitter=0.0,
                                           base_delay_seconds=1.0),
            sleeper=sleeper, deadletters=queue, fault_injector=injector)
        return misp, queue, sleeper, injector

    def test_transient_store_fault_is_retried(self):
        # Key on the instance-level seam; a bare "*" would also fire on the
        # store's own save_events seam and cost a second retry.
        misp, queue, sleeper, _inj = self._instance(
            [FaultRule(component="store", key="add_events", calls=(0,))])
        event = MispEvent(info="e", uuid="u-1")
        misp.add_events([event])
        assert misp.store.get_event("u-1") is not None
        assert sleeper.sleeps == [1.0]
        assert len(queue) == 0

    def test_exhausted_retries_quarantine_the_batch(self):
        misp, queue, sleeper, _inj = self._instance(
            [FaultRule(component="store", rate=1.0)], max_retries=2)
        events = [MispEvent(info="e1", uuid="u-1"),
                  MispEvent(info="e2", uuid="u-2")]
        with pytest.raises(StorageError):
            misp.add_events(events)
        assert len(queue) == 2
        assert misp.store.get_event("u-1") is None
        assert sleeper.sleeps == [1.0, 2.0]

    def test_quarantined_events_replay_after_fault_clears(self):
        misp, queue, _sleeper, injector = self._instance(
            [FaultRule(component="store", rate=1.0)])
        with pytest.raises(StorageError):
            misp.add_events([MispEvent(info="e", uuid="u-1")])
        injector.clear()
        report = queue.replay(misp=misp)
        assert report.events_replayed == 1
        assert misp.store.get_event("u-1") is not None
        assert len(queue) == 0
