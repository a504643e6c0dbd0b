"""The benchmark's own tests, at toy size.

Run from the root of a checkout::

    python3 -m pytest caopbench -q
"""

import json
import math
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT_DIR, "src"))

from repro.feeds import IndicatorPool  # noqa: E402

from workloads import WORKLOADS, Episode, toy  # noqa: E402

with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

_RUNS = {}


def toy_run(workload, seed=1, trace=0):
    """(detail, result) of one toy-sized run, cached per arguments."""
    key = (workload, seed, trace)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed), "--seconds", "2",
             "--trace", str(trace), "--toy"],
            cwd=ROOT_DIR, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        lines = proc.stdout.strip().splitlines()
        _RUNS[key] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return _RUNS[key]


def test_spec_declares_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["caopbench"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_with_its_unit(workload, trace):
    detail, result = toy_run(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["violations"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(reported["value"]), metric["name"]
        if not trace:
            assert reported["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_self_times_reconcile_with_cycle_wall(workload):
    _detail, result = toy_run(workload, trace=1)
    metrics = result["metrics"]
    assert metrics["bench.reconcile_error"]["value"] <= 0.05
    assert metrics["bench.trace_overhead_ratio"]["value"] > 0
    assert metrics["platform.unattributed_ms"]["value"] >= 0


def test_counts_repeat_for_a_seed_and_change_with_another():
    first, _ = toy_run("ingest", seed=1)
    again, _ = toy_run("ingest", seed=1, trace=1)
    other, _ = toy_run("ingest", seed=2)
    assert first["counts"] == again["counts"]
    assert first["store_fingerprint"] == again["store_fingerprint"]
    assert other["counts"] != first["counts"]
    assert other["store_fingerprint"] != first["store_fingerprint"]


def test_no_wall_clock_sleep(monkeypatch, tmp_path):
    slept = []
    monkeypatch.setattr(time, "sleep", lambda seconds: slept.append(seconds))
    workload = toy(WORKLOADS["distribute"])
    episode = Episode(workload, 1, IndicatorPool(seed=1, size=200),
                      workdir=str(tmp_path / "ep"))
    try:
        episode.setup()
        assert all(entity.latency_seconds == 0 for entity in episode.entities)
        assert len(episode.entities) == 4
        samples = episode.measure()
        result = episode.check(fingerprint=False)
    finally:
        episode.close()
    assert slept == []
    assert result.violations == []
    assert sum(sample.shares for sample in samples) > 0
