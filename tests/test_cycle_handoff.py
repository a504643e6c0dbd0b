"""The cycle's written-event handoff: enrich and the rollups take the
events this cycle wrote from memory, and fall back to the store after a
stage error.  Either way every output is what reading the store gives."""

import dataclasses
import json

import pytest

from repro.core import ContextAwareOSINTPlatform, PlatformConfig
from repro.errors import ReproError
from repro.federation.fingerprint import store_fingerprint
from repro.resilience import FaultInjector, FaultPlan, FaultRule

CYCLES = 10


def _build(faults: bool) -> ContextAwareOSINTPlatform:
    injector = None
    if faults:
        injector = FaultInjector(FaultPlan(seed=5, rules=[
            FaultRule(component="store", key="*", rate=0.25)]))
    return ContextAwareOSINTPlatform.build_default(
        PlatformConfig(seed=7, fault_injector=injector))


def _force_store_reads(platform: ContextAwareOSINTPlatform) -> None:
    """Drop the handoff: enrich and the rollups read every event back."""
    process_pending = platform.heuristics.process_pending
    refresh = platform.rollups.refresh
    platform.heuristics.process_pending = lambda *_args: process_pending()
    platform.rollups.refresh = lambda *_args: refresh()


def _observe(platform: ContextAwareOSINTPlatform):
    """Per cycle: the report (timing values aside), every rollup's state,
    every fan-out room's state and the payload decodes; then the store
    fingerprint."""
    store = platform.misp.store
    fanout = platform.dashboard.fanout
    observed, decodes = [], []
    for _ in range(CYCLES):
        before = store.payloads_deserialized
        report = dataclasses.asdict(platform.run_cycle())
        decodes.append(store.payloads_deserialized - before)
        report["timings"] = sorted(report["timings"])
        observed.append({
            "report": report,
            "rollups": [json.dumps(rollup.state_dict(), sort_keys=True)
                        for rollup in platform.rollups.members],
            "rooms": {name: json.dumps(fanout.room(name).state(),
                                       sort_keys=True)
                      for name in fanout.room_names()},
        })
    return observed, decodes, store_fingerprint(store)


@pytest.mark.parametrize("faults", [False, True], ids=["plain", "store-faults"])
def test_handoff_matches_forced_store_reads(faults):
    handoff, handoff_decodes, handoff_fingerprint = _observe(_build(faults))
    forced_platform = _build(faults)
    _force_store_reads(forced_platform)
    forced, forced_decodes, forced_fingerprint = _observe(forced_platform)
    for cycle, (got, want) in enumerate(zip(handoff, forced), start=1):
        assert got == want, f"cycle {cycle} differs"
    assert handoff_fingerprint == forced_fingerprint
    assert sum(handoff_decodes) < sum(forced_decodes)
    errors = [cycle["report"]["stage_errors"] for cycle in handoff]
    if faults:
        # The fault plan fails some writes, so the fallback path ran.
        assert any(errors)
        assert any(decodes for decodes, error
                   in zip(handoff_decodes, errors) if error)
    else:
        # Every cycle, the cold first one included, decodes no payload
        # although it stores, enriches and rolls up events.
        cold = handoff[0]["report"]
        assert cold["collection"]["ciocs_created"] > 0
        assert cold["eiocs_created"] > 0
        assert cold["deltas_consumed"] > 0
        assert not any(errors)
        assert handoff_decodes == [0] * CYCLES


def test_stage_error_hands_nothing_down(monkeypatch):
    platform = ContextAwareOSINTPlatform.build_default(
        PlatformConfig(seed=7, feed_entries=20))
    handed = []
    refresh = platform.rollups.refresh

    def spy(written=None):
        handed.append(dict(written or {}))
        return refresh(written)

    def fail(*_args):
        raise ReproError("enrich down")

    monkeypatch.setattr(platform.rollups, "refresh", spy)
    monkeypatch.setattr(platform.heuristics, "process_pending", fail)
    report = platform.run_cycle()
    assert report.stage_errors == {"enrich": "enrich down"}
    assert handed == [{}]
    assert report.deltas_consumed > 0
    assert platform.misp.store.payloads_deserialized > 0
