"""Tests for the batched ingest path (collect→store scaling).

Covers: same-seed collection stability, ordered ``fetch_many`` results,
batched event persistence parity with the one-by-one path, and batched
correlation parity — including the peer-sync routes.
"""

import pytest

from repro.clock import SimulatedClock
from repro.core import OsintDataCollector
from repro.errors import FeedError, StorageError
from repro.feeds import (
    FeedDescriptor,
    FeedFetcher,
    FeedFormat,
    IndicatorPool,
    SimulatedTransport,
    standard_feed_set,
)
from repro.ids import IdGenerator
from repro.misp import Distribution, MispAttribute, MispEvent, MispInstance
from repro.obs import MetricsRegistry


def build_collector():
    """A deterministic multi-feed collector."""
    clock = SimulatedClock()
    pool = IndicatorPool(seed=21, size=300)
    transport = SimulatedTransport(clock=clock, seed=21)
    descriptors = []
    for generator, name in standard_feed_set(pool, entries=20, seed=21,
                                             overlap=0.6):
        descriptor = generator.descriptor(name)
        transport.register_generator(descriptor, generator)
        descriptors.append(descriptor)
    fetcher = FeedFetcher(transport, clock=clock)
    return OsintDataCollector(fetcher, descriptors, clock=clock)


def make_events(count: int, values_per_event: int = 3, value_pool: int = 10,
                seed: int = 5):
    ids = IdGenerator(seed=seed)
    events = []
    for index in range(count):
        event = MispEvent(info=f"event {index}", uuid=ids.uuid())
        for offset in range(values_per_event):
            value = f"v{(index * values_per_event + offset) % value_pool}.example"
            event.add_attribute(MispAttribute(
                type="domain", value=value, uuid=ids.uuid()))
        events.append(event)
    return events


class TestFetchDeterminism:
    def test_repeated_cycles_are_stable(self):
        assert build_collector().collect()[1] == \
            build_collector().collect()[1]


class TestFetchMany:
    def setup_rig(self):
        clock = SimulatedClock()
        transport = SimulatedTransport(clock=clock)
        good = FeedDescriptor(name="good", url="https://feeds.example/good",
                              format=FeedFormat.PLAINTEXT,
                              category="malware-domains")
        bad = FeedDescriptor(name="bad", url="https://feeds.example/missing",
                             format=FeedFormat.PLAINTEXT,
                             category="malware-domains")
        transport.register(good.url, lambda _now: "x.example\n")
        fetcher = FeedFetcher(transport, clock=clock, max_retries=0)
        return fetcher, good, bad

    def test_results_in_descriptor_order(self):
        fetcher, good, bad = self.setup_rig()
        results = fetcher.fetch_many([bad, good, bad, good])
        assert [d.name for d, _doc, _err in results] == \
            ["bad", "good", "bad", "good"]
        assert [doc is not None for _d, doc, _err in results] == \
            [False, True, False, True]
        assert all(isinstance(err, FeedError)
                   for _d, doc, err in results if doc is None)

    def test_empty_descriptor_list(self):
        fetcher, _good, _bad = self.setup_rig()
        assert fetcher.fetch_many([]) == []

    def test_fetch_all_raises_when_asked_parallel(self):
        fetcher, good, bad = self.setup_rig()
        with pytest.raises(FeedError):
            fetcher.fetch_all([good, bad], skip_failed=False)


class TestBatchedPersistence:
    def test_save_events_matches_serial_saves(self):
        events = make_events(8)
        serial = MispInstance(org="serial")
        for event in events:
            serial.store.save_event(event)
        batched = MispInstance(org="batched")
        batched.store.save_events(events)
        serial_blobs = sorted(e.to_dict()["Event"]["uuid"]
                              for e in serial.store.list_events())
        batched_blobs = sorted(e.to_dict()["Event"]["uuid"]
                               for e in batched.store.list_events())
        assert batched_blobs == serial_blobs
        assert batched.store.attribute_count() == \
            serial.store.attribute_count()
        assert batched.store.audit_count() == serial.store.audit_count()

    def test_batch_audit_actions_created_then_updated(self):
        events = make_events(3)
        misp = MispInstance()
        misp.store.save_events(events)
        misp.store.save_events(events)
        for event in events:
            actions = [h["action"] for h in misp.store.event_history(event.uuid)]
            assert actions == ["created", "updated"]

    def test_batch_replace_false_raises_on_existing(self):
        events = make_events(2)
        misp = MispInstance()
        misp.store.save_events(events)
        with pytest.raises(StorageError):
            misp.store.save_events(events, replace=False)

    def test_intra_batch_duplicate_uuid_keeps_last_version(self):
        first, second = make_events(2)
        second.uuid = first.uuid
        misp = MispInstance()
        misp.store.save_events([first, second])
        stored = misp.store.get_event(first.uuid)
        assert stored.info == second.info
        # Replacement dropped the first version's attribute rows.
        assert misp.store.attribute_count() == len(second.all_attributes())
        actions = [h["action"] for h in misp.store.event_history(first.uuid)]
        assert actions == ["created", "updated"]

    def test_empty_batch_is_a_noop(self):
        misp = MispInstance()
        misp.store.save_events([])
        misp.add_events([])
        assert misp.store.event_count() == 0

    def test_batch_size_histogram_observed(self):
        metrics = MetricsRegistry()
        misp = MispInstance(metrics=metrics)
        misp.add_events(make_events(4), publish_feed=False)
        histogram = metrics.histogram("caop_store_batch_size")
        assert histogram.count() == 1
        assert histogram.sum() == 4

    def test_add_events_publishes_each_on_zmq(self):
        misp = MispInstance()
        events = make_events(3)
        misp.add_events(events)
        assert misp.zmq.sent == 3


class TestBatchedCorrelation:
    def test_batch_graph_matches_serial_graph(self):
        events = make_events(10, values_per_event=4, value_pool=6)
        serial = MispInstance(org="serial")
        for event in events:
            serial.add_event(event, publish_feed=False)
        batched = MispInstance(org="batched")
        batched.add_events(events, publish_feed=False)
        assert batched.store.correlation_count() == \
            serial.store.correlation_count()

        def edge_set(instance):
            edges = set()
            for event in events:
                for row in instance.store.correlations_for_event(event.uuid):
                    edges.add(tuple(sorted(row.items())))
            return edges

        assert edge_set(batched) == edge_set(serial)
        assert serial.store.correlation_count() > 0

    def test_batch_correlates_against_pre_existing_events(self):
        misp = MispInstance()
        existing = MispEvent(info="old")
        existing.add_attribute(MispAttribute(type="domain", value="shared.example"))
        misp.add_event(existing, publish_feed=False)
        incoming = MispEvent(info="new")
        incoming.add_attribute(MispAttribute(type="domain", value="shared.example"))
        misp.add_events([incoming], publish_feed=False)
        targets = {row["target_event"]
                   for row in misp.correlations(incoming.uuid)}
        assert existing.uuid in targets

    def test_batch_does_not_self_correlate(self):
        misp = MispInstance()
        event = MispEvent(info="solo")
        event.add_attribute(MispAttribute(type="domain", value="a.example"))
        event.add_attribute(MispAttribute(type="domain", value="a.example"))
        misp.add_events([event], publish_feed=False)
        assert misp.store.correlation_count() == 0

    def test_pull_from_batches_and_correlates(self):
        remote = MispInstance(org="remote")
        events = make_events(4, values_per_event=2, value_pool=3)
        for event in events:
            event.distribution = Distribution.ALL_COMMUNITIES
            remote.add_event(event, publish_feed=False)
            remote.publish_event(event.uuid)
        local = MispInstance(org="local")
        pulled = local.pull_from(remote)
        assert pulled == 4
        assert local.store.event_count() == 4
        assert local.store.correlation_count() == \
            remote.store.correlation_count()

    def test_receive_events_batched(self):
        misp = MispInstance()
        events = make_events(3, values_per_event=2, value_pool=2)
        misp.receive_events(events)
        assert misp.store.event_count() == 3
        assert misp.sync_stats.pulled_events == 3
        # No zmq publish on the peer-facing path.
        assert misp.zmq.sent == 0
