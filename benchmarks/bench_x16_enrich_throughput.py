"""X16: enrich-throughput guard — batched write-back.

The score→enrich→publish hot path plans every mutation of the cycle
(score/breakdown attributes, galaxy tags, the eIoC tag) in memory and lands
it through ``MispStore.apply_enrichments``: one transaction, one
correlation pass, O(1) SQL statements per cycle instead of ~6 per event
(docs/PERFORMANCE.md).

Guards: on a 500-cIoC drain the write-back must average ≤2 SQL statements
per enriched event, and two runs of the same drain must store
byte-identical events.  CI runs it as a regression gate
(``make bench-enrich``).
"""

import json
import time

from repro.clock import PAPER_NOW, SimulatedClock
from repro.core import HeuristicComponent
from repro.ids import IdGenerator
from repro.infra import paper_inventory
from repro.misp import MispAttribute, MispEvent, MispInstance

from conftest import print_table

SEED = 16
EVENTS = 500
SQL_PER_EVENT_TARGET = 2.0


def synthetic_ciocs(events: int = EVENTS) -> list:
    """A drain cycle of domain cIoCs (same uuids per seed)."""
    ids = IdGenerator(seed=SEED)
    batch = []
    for index in range(events):
        event = MispEvent(info=f"osint report {index}", uuid=ids.uuid())
        event.add_tag("caop:cioc")
        event.add_attribute(MispAttribute(
            type="domain", value=f"evil-{index}.example", uuid=ids.uuid()))
        batch.append(event)
    return batch


def build_rig(events: int = EVENTS):
    misp = MispInstance(org="bench")
    component = HeuristicComponent(
        misp, inventory=paper_inventory(),
        clock=SimulatedClock(PAPER_NOW))
    misp.add_events(synthetic_ciocs(events), publish_feed=True)
    return misp, component


def timed_enrich(events: int = EVENTS):
    misp, component = build_rig(events)
    baseline = misp.store.sql_statements
    start = time.perf_counter()
    results = component.process_pending()
    elapsed = time.perf_counter() - start
    statements = misp.store.sql_statements - baseline
    return elapsed, results, statements, misp


def stored_state(misp: MispInstance):
    """Sorted export blobs of every stored event."""
    return sorted(
        json.dumps(event.to_dict(), sort_keys=True)
        for event in misp.store.list_events())


def test_x16_enrich_is_deterministic():
    first_time, first_results, first_stmts, first_misp = timed_enrich()
    second_time, second_results, second_stmts, second_misp = timed_enrich()
    print_table(
        f"X16: enrich wall-clock, {EVENTS} cIoCs",
        "run / wall time",
        [f"first    {first_time * 1000:8.1f} ms",
         f"second   {second_time * 1000:8.1f} ms"])
    # Determinism: the same drain stores the same events, every run.
    assert len(second_results) == len(first_results) == EVENTS
    assert [r.event_uuid for r in second_results] == \
        [r.event_uuid for r in first_results]
    assert [r.score.score for r in second_results] == \
        [r.score.score for r in first_results]
    assert stored_state(second_misp) == stored_state(first_misp)
    assert second_stmts == first_stmts


def test_x16_sql_statements_per_event():
    _elapsed, results, statements, _misp = timed_enrich()
    per_event = statements / len(results)
    print_table(
        f"X16: write-back SQL round trips, {len(results)} events enriched",
        "SQL statements / per event",
        [f"batched write-back   {statements:6d}  {per_event:.3f}"])
    assert len(results) == EVENTS
    assert per_event <= SQL_PER_EVENT_TARGET, (
        f"enrich path issued {per_event:.2f} SQL statements per event "
        f"(target <= {SQL_PER_EVENT_TARGET})")


def test_bench_x16_enrich(benchmark):
    def run():
        _misp, component = build_rig(events=100)
        return component.process_pending()

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(results) == 100
