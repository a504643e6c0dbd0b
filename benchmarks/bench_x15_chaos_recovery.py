"""X15: chaos-recovery guard — faults must degrade, never corrupt.

The resilience layer (docs/RESILIENCE.md) promises that scripted faults —
flaky transport, a store outage window, a garbage-emitting feed — produce
*degraded* cycles (flagged on ``CycleReport.stage_errors``) instead of
unhandled exceptions, and that once the faults clear, dead-letter replay
plus the next fetch rounds converge the platform onto **byte-identical**
cIoC state versus a fault-free run of the very same seed and feed plan.

The scenario: six plaintext feeds whose bodies grow by one unique indicator
per cycle (growth capped before the fault window ends, so late fetches can
catch up on everything they missed).  The chaos run takes ``CYCLES`` rounds
under 30% transport faults + a store outage + a parse-fault window, then the
faults clear, two recovery rounds run, and the dead-letter queue is
replayed.  The baseline run is identical minus the fault plan.  The guard
asserts: zero unhandled exceptions, degraded cycles flagged, quarantine
drained, and ``sorted(cIoC exports)`` equal byte-for-byte.

CI runs it as a regression gate (``make chaos``).
"""

import json

import pytest

from repro.clock import SimulatedClock
from repro.core import ContextAwareOSINTPlatform, PlatformConfig
from repro.core.ioc import TAG_CIOC
from repro.feeds import FeedDescriptor, SimulatedTransport
from repro.feeds.model import FeedFormat
from repro.resilience import FaultInjector, FaultPlan, FaultRule

from conftest import print_table

SEED = 15
FEEDS = 6
CYCLES = 10           # rounds run under the fault plan
RECOVERY_CYCLES = 2   # fault-free rounds after the plan clears
GROWTH_CYCLES = CYCLES - 1  # bodies stop growing here so stragglers catch up
TRANSPORT_FAULT_RATE = 0.3
ATTEMPTS = 3


def feed_body(feed_index: int, cycle: int) -> str:
    """Cumulative plaintext body: one fresh public IP per feed per cycle.

    Values are unique per (feed, cycle) and never correlate with each other,
    so every indicator composes into exactly one singleton cIoC — which is
    what makes the chaos/baseline export comparison exact.
    """
    upto = min(cycle, GROWTH_CYCLES)
    return "".join(f"41.{feed_index}.{line}.7\n" for line in range(upto + 1))


def fault_plan() -> FaultPlan:
    return FaultPlan(rules=[
        FaultRule(component="transport", rate=TRANSPORT_FAULT_RATE,
                  reason="flaky network"),
        # One feed goes fully dark for its first six requests: with two
        # retries per fetch that is two whole cycles of failures, enough to
        # trip the breaker (threshold 2) and exercise the half-open probe.
        FaultRule(component="transport", key="*chaos-4*",
                  from_call=0, until_call=6, reason="feed outage"),
        FaultRule(component="store", key="add_events",
                  from_call=3, until_call=9, reason="store outage"),
        FaultRule(component="parse", key="chaos-2",
                  from_call=2, until_call=4, reason="upstream garbage"),
    ], seed=SEED)


def build_platform(injector, cycle_box):
    """Platform over the growing feed set; ``cycle_box['n']`` drives growth.

    ``sensor_steps_per_cycle=0`` plus ``backoff_mode='none'`` pin the
    simulated clock, so an indicator composed late (after a recovery fetch
    or a dead-letter replay) carries the same timestamps as one composed on
    schedule — a precondition for the byte-identical comparison.
    """
    clock = SimulatedClock()
    transport = SimulatedTransport(clock=clock, seed=SEED)
    descriptors = []
    for index in range(FEEDS):
        descriptor = FeedDescriptor(
            name=f"chaos-{index}",
            url=f"https://feeds.example/chaos-{index}",
            format=FeedFormat.PLAINTEXT,
            category="ip-blocklist",
        )
        transport.register(
            descriptor.url,
            lambda now, i=index: feed_body(i, cycle_box["n"]))
        descriptors.append(descriptor)
    config = PlatformConfig(
        seed=SEED, sensor_steps_per_cycle=0, backoff_mode="none",
        breaker_failure_threshold=2, breaker_cooldown_seconds=0.0,
        fault_injector=injector)
    return ContextAwareOSINTPlatform.build_with_feeds(
        descriptors, transport, config=config, clock=clock)


def cioc_exports(platform) -> list:
    """Sorted, serialized cIoC state — the platform's durable output."""
    return sorted(
        json.dumps(event.to_dict(), sort_keys=True)
        for event in platform.misp.store.list_events()
        if event.has_tag(TAG_CIOC))


def run_scenario(injector):
    """CYCLES rounds (faulted or not), faults cleared, recovery + replay."""
    cycle_box = {"n": 0}
    platform = build_platform(injector, cycle_box)
    reports = []
    for cycle in range(CYCLES):
        cycle_box["n"] = cycle
        reports.append(platform.run_cycle())
    if injector is not None:
        injector.clear()
    for cycle in range(CYCLES, CYCLES + RECOVERY_CYCLES):
        cycle_box["n"] = cycle
        reports.append(platform.run_cycle())
    replay = platform.replay_deadletters()
    return platform, reports, replay


def run_chaos():
    injector = FaultInjector(fault_plan())
    platform, reports, replay = run_scenario(injector)
    return platform, reports, replay, injector


def run_baseline():
    return run_scenario(None)


# -- the guard ------------------------------------------------------------------

def test_x15_chaos_recovery_converges_to_baseline():
    chaos_platform, chaos_reports, replay, injector = run_chaos()
    base_platform, base_reports, _ = run_baseline()

    faulted = chaos_reports[:CYCLES]
    degraded = [r for r in faulted if r.degraded]
    metrics = chaos_platform.metrics
    chaos_exports = cioc_exports(chaos_platform)
    base_exports = cioc_exports(base_platform)

    print_table(
        "X15 chaos recovery",
        ["metric", "chaos", "baseline"],
        [
            ["cycles run", len(chaos_reports), len(base_reports)],
            ["degraded cycles", len(degraded),
             sum(1 for r in base_reports if r.degraded)],
            ["faults injected", injector.injected_total(), 0],
            ["breaker opens",
             int(metrics.counter("caop_breaker_opens_total").total()), 0],
            ["dead-letters seen",
             int(metrics.counter("caop_deadletter_total").total()), 0],
            ["replayed docs/events",
             f"{replay.documents_replayed}/{replay.events_replayed}", "-"],
            ["cIoCs exported", len(chaos_exports), len(base_exports)],
        ])

    # 1. Zero unhandled exceptions: run_scenario returned all cycles.
    assert len(chaos_reports) == CYCLES + RECOVERY_CYCLES

    # 2. The scripted faults really fired and were flagged, not swallowed.
    assert degraded, "the fault plan must degrade at least one cycle"
    assert all(r.stage_errors for r in degraded)
    assert metrics.counter("caop_degraded_cycles_total").total() == \
        sum(1 for r in chaos_reports if r.degraded)
    assert metrics.counter("caop_deadletter_total").total() > 0
    assert injector.injected_total() > 0
    assert metrics.counter("caop_breaker_opens_total").total() >= 1, \
        "the scripted feed outage must trip that feed's breaker"

    # 3. The baseline never degrades and quarantines nothing.
    assert not any(r.degraded for r in base_reports)
    assert len(base_platform.deadletters) == 0

    # 4. Recovery drained the quarantine.
    assert len(chaos_platform.deadletters) == 0, \
        "replay after faults clear must drain the dead-letter queue"

    # 5. Byte-identical convergence: same seed + same feed plan means the
    #    faulted platform ends on exactly the baseline's cIoC state.
    expected = FEEDS * (GROWTH_CYCLES + 1)
    assert len(base_exports) == expected
    assert chaos_exports == base_exports, \
        "chaos run must converge byte-for-byte onto the fault-free exports"


def test_x15_chaos_run_is_deterministic():
    """Two identical chaos runs agree on everything observable."""
    first_platform, first_reports, first_replay, _ = run_chaos()
    second_platform, second_reports, second_replay, _ = run_chaos()
    assert cioc_exports(first_platform) == cioc_exports(second_platform)
    assert first_platform.deadletters.to_json() == \
        second_platform.deadletters.to_json()
    assert first_platform.breakers.transition_logs() == \
        second_platform.breakers.transition_logs()
    assert [r.stage_errors for r in first_reports] == \
        [r.stage_errors for r in second_reports]
    assert (first_replay.documents_replayed, first_replay.events_replayed) \
        == (second_replay.documents_replayed, second_replay.events_replayed)


# -- benchmarks -----------------------------------------------------------------

@pytest.mark.parametrize("faulted", [False, True], ids=["baseline", "chaos"])
def test_bench_x15_cycles(benchmark, faulted):
    def run():
        injector = FaultInjector(fault_plan()) if faulted else None
        platform, reports, _replay = run_scenario(injector)
        return platform, reports

    platform, reports = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(reports) == CYCLES + RECOVERY_CYCLES
    assert len(cioc_exports(platform)) == FEEDS * (GROWTH_CYCLES + 1)


def test_bench_x15_replay(benchmark):
    def setup():
        injector = FaultInjector(fault_plan())
        cycle_box = {"n": 0}
        platform = build_platform(injector, cycle_box)
        for cycle in range(CYCLES):
            cycle_box["n"] = cycle
            platform.run_cycle()
        injector.clear()
        return (platform,), {}

    def run(platform):
        return platform.replay_deadletters()

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
