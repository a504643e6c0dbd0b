"""CAOP benchmark runner: one workload, one seed, one process.

Usage (from the root of a checkout)::

    python3 caopbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with the benchmark's tracer off and reports the
end-to-end metrics, at reference-host speed (see calibrate.py); ``--trace 1`` alternates untraced and traced episodes
and reports the per-layer metrics (plus the tracer's own overhead).  The
last line of standard output is the result object; the line before it is a
detail object with the exact counts, the store fingerprint and the
percentile behind ``cycle_ms_tail``.  See caopbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import replace
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT_DIR, ".caopbench-work")

#: Main-thread layers whose spans run a worker pool: their ``.cpu_ms``
#: is process CPU (every thread) over the span.
POOLED_STAGES = ("collector", "enrich", "sharing.sync")
#: Layers reported as ``<layer>.self_ms``.
SELF_LAYERS = (
    "feeds.parse", "collector", "enrich", "reduce", "misp.write",
    "misp.read", "deltas.refresh", "compaction", "sharing.sync",
    "dashboard.push", "dashboard.sync_rooms", "fanout.flush", "fanout.pump",
    "infra.sense", "obs.health", "obs.slo", "obs.provenance_flush",
)
#: Layers whose spans run on pool threads: ``<layer>.busy_ms``.
BUSY_LAYERS = ("feeds.get", "sharing.peer_receive")
#: Per-cycle counters reported under their own name.
COUNTERS = ("feeds.records", "feeds.requests", "enrich.eiocs",
            "deltas.consumed", "compaction.runs", "compaction.scanned",
            "sharing.renders", "sharing.failed", "fanout.renders",
            "fanout.delivered", "fanout.shed", "fanout.resyncs",
            "infra.alarms")
#: Largest allowed gap between the traced self-time sum and cycle wall.
RECONCILE_LIMIT = 0.05
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Measured seconds, nominally, between two reference samples.
REFERENCE_INTERVAL_S = 0.5


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def best_of_repeats(episodes: List[List[Any]]) -> List[Any]:
    """Per cycle position, the fastest of its repeats across episodes.

    Every episode of a run does identical work, so the episodes are
    repeats of one another; as with ``timeit``, the fastest repeat of each
    position is the one a shared host slowed down least.  CPU time is
    filtered the same way, independently of wall time.
    """
    best = []
    for repeats in zip(*episodes):
        fastest = min(repeats, key=lambda sample: sample.wall)
        best.append(replace(fastest,
                            cpu=min(sample.cpu for sample in repeats)))
    return best


def tail(walls: List[float], repeats: int = 1) -> Dict[str, float]:
    """The highest percentile with ``TAIL_BEYOND`` measured cycles beyond it.

    ``walls`` holds one best-of-``repeats`` time per cycle position, so a
    position beyond the percentile stands for ``repeats`` measured cycles.
    When no percentile above the median has that support, the tail is
    reported as the median.
    """
    ordered = sorted(walls)
    count = len(ordered)
    beyond = -(-TAIL_BEYOND // repeats)
    if count - beyond - 1 <= (count - 1) // 2:
        return {"value": statistics.median(ordered), "percentile": 50.0,
                "positions": count, "repeats": repeats}
    return {"value": ordered[count - beyond - 1],
            "percentile": 100.0 * (count - beyond) / count,
            "positions": count, "repeats": repeats}


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


class Run:
    """All episodes of one benchmark invocation."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 workroot: str) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.workroot = workroot
        self.episodes = workload.episodes_for(seconds)
        if trace:
            self.episodes = max(2, self.episodes)
        self.setups: List[float] = []
        #: Reference workload times (calibrate.py), spread over the run.
        self.reference: List[float] = []
        self.reference_every = max(1, round(
            REFERENCE_INTERVAL_S * workload.cycles
            / workload.episode_seconds))
        #: Untraced samples, one list per episode.
        self.untraced: List[List[Any]] = []
        self.traced = []
        self.results = []
        self.violations: List[str] = []
        self.tracer = None

    def _episode(self, workload, pool, index: int):
        from workloads import Episode
        return Episode(workload, self.seed, pool,
                       workdir=os.path.join(self.workroot, f"ep{index}"))

    def _sample_reference(self, cycle: int = 0) -> None:
        from calibrate import reference_seconds
        if cycle % self.reference_every == 0:
            self.reference.append(reference_seconds())

    def execute(self) -> None:
        from repro.feeds import IndicatorPool
        from tracer import LayerTracer
        from workloads import instrument, toy

        workload = self.workload
        # Finish lazy imports and one-off process set-up on a toy-sized
        # episode, so the first measured episode is not an outlier.
        warm_workload = replace(toy(workload), cycles=1)
        warm = self._episode(
            warm_workload,
            IndicatorPool(seed=self.seed, size=warm_workload.pool_size), -1)
        try:
            warm.setup()
            warm.measure()
        finally:
            warm.close()
        pool = IndicatorPool(seed=self.seed, size=workload.pool_size)
        if self.trace:
            self.tracer = LayerTracer()
        for index in range(self.episodes):
            traced = self.trace and index % 2 == 1
            # Leave no garbage of earlier episodes to be collected inside
            # this one's timings.
            gc.collect()
            self._sample_reference()
            episode = self._episode(workload, pool, index)
            try:
                self.setups.append(episode.setup())
                if traced:
                    instrument(episode, self.tracer)
                    try:
                        samples = episode.measure(
                            self.tracer, first_cycle=len(self.traced))
                    finally:
                        self.tracer.restore()
                    self.traced.extend(samples)
                else:
                    self.untraced.append(
                        episode.measure(between=self._sample_reference))
                result = episode.check(
                    fingerprint=index == self.episodes - 1)
            finally:
                episode.close()
            self.results.append(result)
            self.violations.extend(result.violations)
        self._check_determinism()
        if self.tracer is not None and \
                self.reconcile_error() > RECONCILE_LIMIT:
            self.violations.append(
                f"traced self times miss cycle wall by "
                f"{self.reconcile_error():.1%}")

    def _check_determinism(self) -> None:
        first = self.results[0].counts
        for index, result in enumerate(self.results[1:], start=1):
            if result.counts != first:
                self.violations.append(
                    f"episode {index} counts differ from episode 0: "
                    f"{result.counts} vs {first}")

    # -- reporting ----------------------------------------------------------------

    def attempted(self) -> int:
        return sum(result.attempted for result in self.results)

    def failed(self) -> int:
        """Failed operations plus violated invariants (each counts once)."""
        return (sum(result.failed for result in self.results)
                + len(self.violations))

    def best(self) -> List[Any]:
        """Best-of-repeats untraced samples, one per cycle position."""
        return best_of_repeats(self.untraced)

    def untraced_samples(self) -> List[Any]:
        return [sample for samples in self.untraced for sample in samples]

    def host_scale(self) -> float:
        """Factor that turns this run's seconds into reference-host seconds."""
        from calibrate import REFERENCE_NOMINAL_S
        return REFERENCE_NOMINAL_S / min(self.reference)

    def end_to_end(self, scale: Optional[float] = None,
                   ) -> Dict[str, Dict[str, Any]]:
        """End-to-end metrics, times scaled by ``scale`` (default: to the
        reference host; 1.0 gives the raw times of this host)."""
        if scale is None:
            scale = self.host_scale()
        best = self.best()
        walls = [sample.wall * scale for sample in best]
        records = sum(sample.records for sample in best)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": _metric(statistics.median(self.setups) * scale, "s"),
            "records_per_s": _metric(records / sum(walls), "1/s"),
            "cycle_ms_p50": _metric(statistics.median(walls) * 1000, "ms"),
            "cycle_ms_tail": _metric(
                tail(walls, len(self.untraced))["value"] * 1000, "ms"),
            "cpu_ms_per_record": _metric(
                sum(sample.cpu for sample in best) * scale * 1000 / records,
                "ms"),
            "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
        }

    def per_layer(self) -> Dict[str, Dict[str, Any]]:
        from tracer import ROOT

        tracer = self.tracer
        cycles = len(self.traced)
        totals = tracer.layer_totals()
        counts = tracer.counts
        metrics: Dict[str, Dict[str, Any]] = {}

        def per_cycle_ms(layer: str, key: str) -> float:
            return totals[layer][key] * 1000 / cycles if layer in totals \
                else 0.0

        for layer in SELF_LAYERS:
            metrics[f"{layer}.self_ms"] = _metric(
                per_cycle_ms(layer, "self"), "ms")
        for layer in POOLED_STAGES:
            metrics[f"{layer}.cpu_ms"] = _metric(
                per_cycle_ms(layer, "cpu"), "ms")
        for layer in BUSY_LAYERS:
            metrics[f"{layer}.busy_ms"] = _metric(
                per_cycle_ms(layer, "busy"), "ms")
        for name in COUNTERS:
            metrics[name] = _metric(counts.get(name, 0.0) / cycles, "count")
        metrics["platform.unattributed_ms"] = _metric(
            per_cycle_ms(ROOT, "self"), "ms")
        metrics["collector.dedup_ratio"] = _metric(_ratio(
            counts.get("collector.duplicates", 0.0),
            counts.get("collector.normalized", 0.0)), "1")
        metrics["collector.ciocs_per_record"] = _metric(_ratio(
            counts.get("collector.ciocs", 0.0),
            counts.get("collector.records", 0.0)), "1")
        metrics["enrich.cpu_per_wall"] = _metric(_ratio(
            totals["enrich"]["cpu"], totals["enrich"]["self"])
            if "enrich" in totals else 0.0, "1")
        metrics["reduce.riocs_per_eioc"] = _metric(_ratio(
            counts.get("reduce.riocs", 0.0),
            counts.get("enrich.eiocs", 0.0)), "1")
        ciocs = sum(sample.ciocs for sample in self.traced)
        sql = sum(sample.sql for sample in self.traced)
        decodes = sum(sample.decodes for sample in self.traced)
        metrics["misp.sql_per_cioc"] = _metric(_ratio(sql, ciocs), "1")
        metrics["misp.decodes_per_cioc"] = _metric(_ratio(decodes, ciocs), "1")
        metrics["misp.sql_per_cycle"] = _metric(sql / cycles, "count")
        metrics["misp.decodes_per_cycle"] = _metric(decodes / cycles, "count")
        last = self.results[-1]
        metrics["misp.disk_bytes_per_event"] = _metric(_ratio(
            last.disk_bytes, last.stored_events), "B")
        metrics["sharing.render_hit_ratio"] = _metric(_ratio(
            counts.get("sharing.render_hits", 0.0),
            counts.get("sharing.renders", 0.0)
            + counts.get("sharing.render_hits", 0.0)), "1")
        metrics["sharing.bytes_per_share"] = _metric(_ratio(
            counts.get("sharing.payload_bytes", 0.0),
            counts.get("sharing.shared", 0.0)), "B")
        untraced = self.untraced_samples()
        untraced_p50 = statistics.median(s.wall for s in untraced)
        traced_p50 = statistics.median(s.wall for s in self.traced)
        metrics["bench.trace_overhead_ratio"] = _metric(
            traced_p50 / untraced_p50, "1")
        metrics["bench.reconcile_error"] = _metric(self.reconcile_error(), "1")
        untraced_wall = sum(s.wall for s in untraced)
        metrics["run.ciocs_per_s"] = _metric(
            sum(s.ciocs for s in untraced) / untraced_wall, "1/s")
        metrics["run.shares_per_s"] = _metric(
            sum(s.shares for s in untraced) / untraced_wall, "1/s")
        metrics["run.error_ratio"] = _metric(
            _ratio(self.failed(), self.attempted()), "1")
        return metrics

    def reconcile_error(self) -> float:
        """Worst per-cycle gap between traced self-time sum and cycle wall."""
        worst = 0.0
        for cycle, self_sum in self.tracer.cycle_self_sums().items():
            wall = self.traced[cycle].wall
            worst = max(worst, abs(self_sum - wall) / wall)
        return worst

    def detail(self) -> Dict[str, Any]:
        samples = self.best()
        wall = sum(sample.wall for sample in samples)
        last = self.results[-1]
        detail: Dict[str, Any] = {
            "workload": self.workload.name,
            "seed": self.seed,
            "episodes": self.episodes,
            "cycles_measured": len(self.untraced_samples()),
            "cycles_traced": len(self.traced),
            "cycle_ms_tail": {
                key: value * 1000 if key == "value" else value
                for key, value in tail([s.wall for s in samples],
                                       len(self.untraced)).items()},
            "setup_s_samples": self.setups,
            "reference_s": {"best": min(self.reference),
                            "median": statistics.median(self.reference),
                            "samples": len(self.reference)},
            "host_scale": self.host_scale(),
            "raw_end_to_end": {name: metric["value"] for name, metric
                               in self.end_to_end(scale=1.0).items()},
            "ciocs_per_s": _ratio(sum(s.ciocs for s in samples), wall),
            "shares_per_s": _ratio(sum(s.shares for s in samples), wall),
            "disk_bytes_per_event": _ratio(last.disk_bytes,
                                           last.stored_events),
            "error_ratio": _ratio(self.failed(), self.attempted()),
            "counts": last.counts,
            "store_fingerprint": last.fingerprint,
            "violations": self.violations,
        }
        if self.tracer is not None and self.tracer.missing:
            detail["unwrapped"] = sorted(set(self.tracer.missing))
        return detail


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="test-sized inputs (the benchmark's own tests)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT_DIR, "src")
    # Measure the checkout's own source, never an installed copy.
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"caopbench: no platform source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        from workloads import WORKLOADS, toy
    except ImportError as exc:
        print(f"caopbench: cannot import the platform from {src}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"caopbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.toy:
        workload = toy(workload)
    workroot = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(workroot, exist_ok=True)
    run = Run(workload, args.seed, args.seconds, bool(args.trace), workroot)
    try:
        run.execute()
        metrics = run.per_layer() if args.trace else run.end_to_end()
        if run.tracer is not None:
            run.tracer.write_jsonl(os.path.join(
                WORK_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl"))
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    failed = run.failed()
    print(json.dumps(run.detail(), sort_keys=True))
    print(json.dumps({
        "correct": not run.violations and failed == 0,
        "attempted": run.attempted(),
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if not run.violations and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
