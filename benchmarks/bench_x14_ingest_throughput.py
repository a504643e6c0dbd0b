"""X14: ingest-throughput guard — batched persistence.

The collect→store hot path has two batching wings (docs/PERFORMANCE.md):

1. **Batched persistence** — ``MispStore.save_events`` writes a whole
   cycle in one transaction via ``executemany``.
2. **Batched correlation** — ``MispInstance._correlate_batch`` resolves all
   correlatable values with one chunked ``IN (...)`` query.

This bench measures both against the per-event path and guards the win: the
batched store+correlate path must issue ≥30% fewer SQL round trips than the
per-event path — while producing byte-identical stored events and identical
correlation edges.  CI runs it as a regression gate (``make bench-ingest``).
"""

import pytest

from repro.clock import SimulatedClock
from repro.feeds import (
    FeedFetcher,
    IndicatorPool,
    SimulatedTransport,
    standard_feed_set,
)
from repro.ids import IdGenerator
from repro.misp import MispAttribute, MispEvent, MispInstance

from conftest import print_table

SEED = 14
FEED_ENTRIES = 30
SQL_REDUCTION_TARGET = 0.70  # batched must use <= 70% of per-event statements
EVENTS = 60
ATTRS_PER_EVENT = 5
VALUE_POOL = 80


def build_fetch_rig():
    """A fetcher over the standard 12-feed set on a simulated transport."""
    clock = SimulatedClock()
    pool = IndicatorPool(seed=SEED, size=500)
    transport = SimulatedTransport(clock=clock, seed=SEED)
    descriptors = []
    for generator, name in standard_feed_set(pool, entries=FEED_ENTRIES,
                                             seed=SEED, overlap=0.5):
        descriptor = generator.descriptor(name)
        transport.register_generator(descriptor, generator)
        descriptors.append(descriptor)
    return FeedFetcher(transport, clock=clock), descriptors


# -- batched store + correlate --------------------------------------------------

def synthetic_cycle(events: int = EVENTS) -> list:
    """One cycle's worth of cIoC-shaped events with heavy value overlap."""
    ids = IdGenerator(seed=SEED)
    values = [f"indicator-{index % VALUE_POOL}.example"
              for index in range(events * ATTRS_PER_EVENT)]
    batch = []
    for index in range(events):
        event = MispEvent(info=f"cycle event {index}", uuid=ids.uuid())
        event.add_tag("caop:cioc")
        for offset in range(ATTRS_PER_EVENT):
            event.add_attribute(MispAttribute(
                type="domain",
                value=values[index * ATTRS_PER_EVENT + offset],
                uuid=ids.uuid()))
        batch.append(event)
    return batch


def exported_state(misp: MispInstance):
    """(sorted event export blobs, sorted correlation edge tuples)."""
    exports = sorted(
        misp.export_event(event.uuid)
        for event in misp.store.list_events())
    edges = set()
    for event in misp.store.list_events():
        for row in misp.store.correlations_for_event(event.uuid):
            edges.add(tuple(sorted(row.items())))
    return exports, edges


def test_x14_batched_store_correlate_fewer_statements():
    batch = synthetic_cycle()

    per_event = MispInstance(org="serial")
    baseline = per_event.store.sql_statements
    for event in batch:
        per_event.add_event(event, publish_feed=False)
    serial_statements = per_event.store.sql_statements - baseline

    batched = MispInstance(org="batched")
    baseline = batched.store.sql_statements
    batched.add_events(batch, publish_feed=False)
    batched_statements = batched.store.sql_statements - baseline

    ratio = batched_statements / serial_statements
    print_table(
        f"X14: store+correlate SQL round trips, {len(batch)} events x "
        f"{ATTRS_PER_EVENT} attributes",
        "variant / SQL statements / ratio",
        [
            f"per-event add_event   {serial_statements:6d}  1.000",
            f"batched add_events    {batched_statements:6d}  {ratio:.3f}",
        ])

    serial_exports, serial_edges = exported_state(per_event)
    batched_exports, batched_edges = exported_state(batched)
    assert batched_exports == serial_exports, (
        "batched persistence changed the stored events")
    assert batched_edges == serial_edges, (
        "batched correlation changed the correlation graph")
    assert per_event.store.audit_count() == batched.store.audit_count()
    assert ratio <= SQL_REDUCTION_TARGET, (
        f"batched path issued {batched_statements} statements vs "
        f"{serial_statements} serial ({ratio:.2f}, "
        f"target <= {SQL_REDUCTION_TARGET})")


def test_x14_batched_correlations_match_serial_instance():
    """The full graph matches when events arrive in one batch vs one by one."""
    batch = synthetic_cycle(events=20)
    serial = MispInstance(org="serial")
    for event in batch:
        serial.add_event(event, publish_feed=False)
    batched = MispInstance(org="batched")
    batched.add_events(batch, publish_feed=False)
    assert batched.store.correlation_count() == serial.store.correlation_count()


def test_bench_x14_fetch(benchmark):
    def run():
        fetcher, descriptors = build_fetch_rig()
        return fetcher.fetch_all(descriptors)

    documents = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(documents) == 12


@pytest.mark.parametrize("batched", [False, True])
def test_bench_x14_store(benchmark, batched):
    def run():
        misp = MispInstance(org="bench")
        batch = synthetic_cycle()
        if batched:
            misp.add_events(batch, publish_feed=False)
        else:
            for event in batch:
                misp.add_event(event, publish_feed=False)
        return misp

    misp = benchmark.pedantic(run, rounds=3, iterations=1)
    assert misp.store.event_count() == EVENTS
