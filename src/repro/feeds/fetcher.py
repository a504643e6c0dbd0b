"""Feed fetching over a simulated transport.

The real platform polls HTTP endpoints; here a :class:`SimulatedTransport`
maps URLs to generator-backed documents with configurable latency and
failure injection, so collector retry behaviour is testable offline.

The transport derives every request's latency/failure draw from a
*per-request* seeded RNG (keyed on ``(seed, url, request-index)``), so the
outcome of each fetch depends only on the seed and on how often that URL was
requested before — not on which other feeds were fetched in between.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..clock import Clock, SimulatedClock
from ..errors import (
    BreakerOpenError,
    FeedError,
    PermanentFeedError,
    TransientFeedError,
)
from ..obs import MetricsRegistry, NULL_REGISTRY, Tracer
from ..resilience.breaker import BreakerState, CircuitBreakerBoard
from ..resilience.retry import RetryPolicy, sleeper_for
from .generators import FeedGenerator
from .model import FeedDescriptor, FeedDocument


@dataclass
class TransportStats:
    """Counters describing a transport's request history."""
    requests: int = 0
    failures: int = 0
    retries: int = 0
    total_latency_seconds: float = 0.0


class SimulatedTransport:
    """URL -> document source with latency + fault injection.

    ``realtime=True`` makes ``get`` actually sleep the drawn latency, so a
    benchmark can charge the cycle its simulated network time.  Tests leave
    it off so simulated latency stays free.
    """

    def __init__(self, clock: Optional[Clock] = None, seed: int = 0,
                 failure_rate: float = 0.0,
                 latency_range: Tuple[float, float] = (0.05, 0.4),
                 realtime: bool = False,
                 fault_injector=None) -> None:
        if not 0.0 <= failure_rate < 1.0:
            raise FeedError("failure_rate must be within [0, 1)")
        self._sources: Dict[str, Callable[[_dt.datetime], str]] = {}
        self._clock = clock or SimulatedClock()
        self._seed = seed
        self._failure_rate = failure_rate
        self._latency_range = latency_range
        self._realtime = realtime
        self._lock = threading.Lock()
        self._request_counts: Dict[str, int] = {}
        self.stats = TransportStats()
        #: Optional :class:`~repro.resilience.FaultInjector` consulted on
        #: every request with the transport's own per-URL request index, so
        #: scripted transport faults align with a URL's Nth request.
        self.fault_injector = fault_injector

    def register(self, url: str, body_fn: Callable[[_dt.datetime], str]) -> None:
        """Map a URL to a body-producing callable."""
        self._sources[url] = body_fn

    def register_generator(self, descriptor: FeedDescriptor,
                           generator: FeedGenerator) -> None:
        """Map a descriptor's URL to a feed generator."""
        self.register(descriptor.url, generator.body)

    def record_retry(self) -> None:
        """Count one retried request (called by the fetcher)."""
        with self._lock:
            self.stats.retries += 1

    def get(self, url: str) -> Tuple[str, float]:
        """Fetch a body; returns (body, simulated_latency_seconds).

        The latency and failure draws come from an RNG seeded on
        ``(seed, url, per-url request index)``: the Nth request for a URL
        behaves the same whatever was requested before it.
        """
        with self._lock:
            index = self._request_counts.get(url, 0)
            self._request_counts[url] = index + 1
            digest = hashlib.sha256(
                f"{self._seed}:{url}:{index}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            latency = rng.uniform(*self._latency_range)
            failed = rng.random() < self._failure_rate
            self.stats.requests += 1
            self.stats.total_latency_seconds += latency
        if self._realtime:
            time.sleep(latency)
        if failed:
            with self._lock:
                self.stats.failures += 1
            raise TransientFeedError(
                f"transient transport failure fetching {url}")
        injector = self.fault_injector
        if injector is not None:
            try:
                injector.check("transport", url, index=index)
            except FeedError:
                with self._lock:
                    self.stats.failures += 1
                raise
        source = self._sources.get(url)
        if source is None:
            with self._lock:
                self.stats.failures += 1
            raise PermanentFeedError(f"unknown feed URL {url}")
        with self._lock:
            now = self._clock.now()
        return source(now), latency


class FeedFetcher:
    """Fetches configured feeds through a transport, with disciplined retries.

    Transient failures are retried under a :class:`RetryPolicy` (exponential
    backoff with deterministic per-``(feed, attempt)`` jitter); permanent
    failures (unknown URL, malformed descriptor) abort immediately instead of
    burning attempts.  An optional :class:`CircuitBreakerBoard` trips a
    per-feed breaker after consecutive fetch failures: open feeds are skipped
    (a :class:`BreakerOpenError` result) and half-open feeds get a single
    probe attempt, so a dead feed stops consuming retries.

    Backoff never sleeps between feeds: each fetch *accumulates* its delay
    and :meth:`fetch_many` applies the total once through the sleeper after
    the last feed (summed in descriptor order), so a
    :class:`~repro.clock.SimulatedClock` advances once per cycle, by the
    cycle total, and no feed's ``fetched_at`` includes another feed's
    backoff.
    """

    def __init__(self, transport: SimulatedTransport, clock: Optional[Clock] = None,
                 max_retries: int = 2,
                 metrics: Optional[MetricsRegistry] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 breakers: Optional[CircuitBreakerBoard] = None,
                 sleeper=None,
                 tracer=None) -> None:
        if max_retries < 0:
            raise FeedError("max_retries must be non-negative")
        self._transport = transport
        self._clock = clock or SimulatedClock()
        self._tracer = tracer or Tracer(enabled=False)
        self._retry = retry_policy or RetryPolicy(max_retries=max_retries)
        self._max_retries = self._retry.max_retries
        self._breakers = breakers
        self._sleeper = sleeper if sleeper is not None else \
            sleeper_for("virtual", self._clock)
        metrics = metrics or NULL_REGISTRY
        self._m_latency = metrics.histogram(
            "caop_feed_fetch_seconds", "Transport latency per successful fetch")
        self._m_retries = metrics.counter(
            "caop_feed_fetch_retries_total", "Transient failures retried per feed")
        self._m_failures = metrics.counter(
            "caop_feed_fetch_failures_total",
            "Fetches abandoned after exhausting retries")
        self._m_permanent = metrics.counter(
            "caop_feed_fetch_permanent_failures_total",
            "Fetches aborted on permanent errors (no retries attempted)")
        self._m_backoff = metrics.histogram(
            "caop_retry_backoff_seconds",
            "Backoff computed before each retry attempt")

    @property
    def breakers(self) -> Optional[CircuitBreakerBoard]:
        """The per-feed breaker board, when one is wired."""
        return self._breakers

    def _fetch_once(self, descriptor: FeedDescriptor
                    ) -> Tuple[Optional[FeedDocument], Optional[FeedError], float]:
        """One guarded fetch: (document, error, accumulated backoff seconds).

        Never sleeps — the caller applies the returned backoff through the
        sleeper, once per call or cycle.
        """
        breaker = self._breakers.breaker(descriptor.name) \
            if self._breakers is not None else None
        if breaker is not None and not breaker.allow():
            return None, BreakerOpenError(
                f"breaker open for feed {descriptor.name}"), 0.0
        # A half-open breaker admits a single probe, not a retry burst.
        probing = breaker is not None and breaker.state == BreakerState.HALF_OPEN
        attempts = 1 if probing else self._max_retries + 1
        backoff = 0.0
        last_error: Optional[FeedError] = None
        for attempt in range(attempts):
            try:
                body, latency = self._transport.get(descriptor.url)
            except PermanentFeedError as exc:
                self._m_permanent.inc(feed=descriptor.name)
                if breaker is not None:
                    breaker.record_failure()
                return None, exc, backoff
            except FeedError as exc:
                last_error = exc
                if attempt < attempts - 1:
                    self._transport.record_retry()
                    self._m_retries.inc(feed=descriptor.name)
                    delay = self._retry.delay(descriptor.name, attempt)
                    self._m_backoff.observe(delay, component="fetch")
                    backoff += delay
            else:
                self._m_latency.observe(latency, feed=descriptor.name)
                if breaker is not None:
                    breaker.record_success()
                return FeedDocument(
                    descriptor=descriptor,
                    body=body,
                    fetched_at=self._clock.now(),
                ), None, backoff
        if breaker is not None:
            breaker.record_failure()
        self._m_failures.inc(feed=descriptor.name)
        error = FeedError(
            f"feed {descriptor.name} failed after {attempts} attempts")
        error.__cause__ = last_error
        return None, error, backoff

    def fetch(self, descriptor: FeedDescriptor) -> FeedDocument:
        """Fetch one feed snapshot, retrying transient failures with backoff."""
        document, error, backoff = self._fetch_once(descriptor)
        self._sleeper.sleep(backoff)
        if error is not None:
            raise error
        assert document is not None
        return document

    def fetch_many(self, descriptors: Sequence[FeedDescriptor]
                   ) -> List[Tuple[FeedDescriptor, Optional[FeedDocument],
                                   Optional[FeedError]]]:
        """Fetch every feed, in order.

        Returns ``(descriptor, document, error)`` triples in *descriptor
        order* — exactly one of document/error is set per feed.  The cycle's
        total retry backoff is applied once, after the last feed, summed in
        descriptor order.
        """
        results = []
        backoff = 0.0
        for descriptor in descriptors:
            with self._tracer.span("fetch_feed", feed=descriptor.name):
                document, error, delay = self._fetch_once(descriptor)
            results.append((descriptor, document, error))
            backoff += delay
        self._sleeper.sleep(backoff)
        return results

    def fetch_all(self, descriptors: List[FeedDescriptor],
                  skip_failed: bool = True) -> List[FeedDocument]:
        """Fetch every feed; failed feeds are skipped (and counted) or raised."""
        documents: List[FeedDocument] = []
        for _descriptor, document, error in self.fetch_many(descriptors):
            if error is not None:
                if not skip_failed:
                    raise error
                continue
            assert document is not None
            documents.append(document)
        return documents
