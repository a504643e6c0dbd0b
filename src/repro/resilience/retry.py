"""Retry discipline: exponential backoff with deterministic jitter.

The platform never sleeps between retries on the simulated clock — the
policy *computes* each delay (a pure function of ``(key, attempt)``) and a
pluggable sleeper applies the accumulated total, either by advancing a
:class:`~repro.clock.SimulatedClock`, by really sleeping (wall-clock
benches), or by merely recording it.  Because the delay draw is keyed on
the feed and attempt number, the backoff schedule is identical for the
same seed.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import time
from typing import List, Optional

from ..clock import Clock, SimulatedClock
from ..errors import ConfigurationError


class RetryPolicy:
    """Exponential backoff with deterministic, seeded jitter.

    ``delay(key, attempt)`` returns the wait before retry ``attempt``
    (0-based): ``base * multiplier**attempt`` capped at ``max_delay``, then
    shrunk by up to ``jitter`` (a fraction in [0, 1]) using a draw from
    ``sha256(seed:key:attempt)``.  Same seed + key + attempt → same delay,
    on any thread, in any order.
    """

    def __init__(self, max_retries: int = 2,
                 base_delay_seconds: float = 0.5,
                 multiplier: float = 2.0,
                 max_delay_seconds: float = 60.0,
                 jitter: float = 0.5,
                 seed: int = 0) -> None:
        if max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if base_delay_seconds < 0:
            raise ConfigurationError("base_delay_seconds must be non-negative")
        if multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ConfigurationError("jitter must be within [0, 1]")
        self.max_retries = max_retries
        self._base = base_delay_seconds
        self._multiplier = multiplier
        self._max_delay = max_delay_seconds
        self._jitter = jitter
        self._seed = seed

    def delay(self, key: str, attempt: int) -> float:
        """Backoff (seconds) before retry ``attempt`` of operation ``key``."""
        bounded = min(self._base * self._multiplier ** attempt, self._max_delay)
        if self._jitter == 0.0 or bounded == 0.0:
            return bounded
        digest = hashlib.sha256(
            f"{self._seed}:{key}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2 ** 64
        return bounded * (1.0 - self._jitter * fraction)

    def schedule(self, key: str) -> List[float]:
        """The full deterministic backoff schedule for ``key``."""
        return [self.delay(key, attempt) for attempt in range(self.max_retries)]


class ClockAdvancingSleeper:
    """Applies backoff by advancing a :class:`SimulatedClock` — no wall time."""

    def __init__(self, clock: SimulatedClock) -> None:
        self._clock = clock
        self.total_slept = 0.0

    def sleep(self, seconds: float) -> None:
        """Advance the simulated clock by ``seconds``."""
        if seconds <= 0:
            return
        self.total_slept += seconds
        self._clock.advance(_dt.timedelta(seconds=seconds))


class RealSleeper:
    """Applies backoff with :func:`time.sleep` (realtime transports only)."""

    def __init__(self) -> None:
        self.total_slept = 0.0

    def sleep(self, seconds: float) -> None:
        """Really sleep ``seconds``."""
        if seconds <= 0:
            return
        self.total_slept += seconds
        time.sleep(seconds)


class RecordingSleeper:
    """Records backoff without moving any clock (parity benches, tests)."""

    def __init__(self) -> None:
        self.total_slept = 0.0
        self.sleeps: List[float] = []

    def sleep(self, seconds: float) -> None:
        """Record ``seconds`` of requested backoff."""
        if seconds <= 0:
            return
        self.total_slept += seconds
        self.sleeps.append(seconds)


def sleeper_for(mode: str, clock: Optional[Clock] = None):
    """Build the sleeper for a ``backoff_mode`` config value.

    ``virtual`` advances the simulated clock (falls back to recording when
    the clock is not simulated), ``real`` really sleeps, ``none`` records
    only — the mode the chaos-recovery bench uses to keep every timestamp
    pinned while still measuring the schedule.
    """
    if mode == "virtual":
        if isinstance(clock, SimulatedClock):
            return ClockAdvancingSleeper(clock)
        return RecordingSleeper()
    if mode == "real":
        return RealSleeper()
    if mode == "none":
        return RecordingSleeper()
    raise ConfigurationError(
        f"unknown backoff mode {mode!r} (expected virtual/real/none)")
