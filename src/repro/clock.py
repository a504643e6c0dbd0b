"""Clock abstraction used everywhere a timestamp or an age matters.

Threat-score criteria such as *timeliness* (`modified_created`, `valid_from`,
`valid_until` features) score an IoC by how old its timestamps are *relative
to now*.  Tests and benchmarks need those results to be reproducible, so all
components take a :class:`Clock` and the default wiring injects a
:class:`SimulatedClock` pinned to a fixed instant.
"""

from __future__ import annotations

import datetime as _dt
from typing import Optional

UTC = _dt.timezone.utc

#: The reference instant used by the paper's use case.  The CVE-2017-9805
#: IoC was "created and last modified on 2017-09-13" and "valid for one
#: year"; Table V scores both ``modified_created`` and ``valid_from`` in the
#: *last_year* band, so the analysis instant must fall within a year of
#: 2017-09-13 (the paper was written during 2018).  Pinning the default
#: simulated clock here makes the Table V reproduction exact.
PAPER_NOW = _dt.datetime(2018, 6, 15, 12, 0, 0, tzinfo=UTC)


def ensure_utc(value: _dt.datetime) -> _dt.datetime:
    """Return ``value`` as a timezone-aware UTC datetime.

    Naive datetimes are interpreted as UTC; aware ones are converted.
    """
    if value.tzinfo is None:
        return value.replace(tzinfo=UTC)
    return value.astimezone(UTC)


def parse_timestamp(text: str) -> _dt.datetime:
    """Parse an ISO-8601 / STIX timestamp string into an aware UTC datetime."""
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1] + "+00:00"
    return ensure_utc(_dt.datetime.fromisoformat(cleaned))


def format_timestamp(value: _dt.datetime) -> str:
    """Render a datetime in the STIX 2.0 wire format (``...Z``, millisecond)."""
    value = ensure_utc(value)
    return value.strftime("%Y-%m-%dT%H:%M:%S.") + f"{value.microsecond // 1000:03d}Z"


class Clock:
    """Interface: anything with a ``now()`` returning an aware UTC datetime."""

    def now(self) -> _dt.datetime:
        """Return the current instant (aware UTC datetime)."""
        raise NotImplementedError


class SystemClock(Clock):
    """Wall-clock time; used by live deployments, never by tests."""

    def now(self) -> _dt.datetime:
        """Return the current instant (aware UTC datetime)."""
        return _dt.datetime.now(tz=UTC)


class SimulatedClock(Clock):
    """A controllable clock.

    ``advance()`` moves time forward explicitly; ``tick`` (optional) moves it
    forward automatically by a fixed step on every ``now()`` call, which is
    convenient for sensors that stamp a stream of events.
    """

    def __init__(self, start: Optional[_dt.datetime] = None,
                 tick: Optional[_dt.timedelta] = None) -> None:
        self._now = ensure_utc(start) if start is not None else PAPER_NOW
        self._tick = tick

    def now(self) -> _dt.datetime:
        """Return the current instant (aware UTC datetime)."""
        current = self._now
        if self._tick is not None:
            self._now = self._now + self._tick
        return current

    def advance(self, delta: _dt.timedelta) -> _dt.datetime:
        """Move the clock forward and return the new instant."""
        if delta < _dt.timedelta(0):
            raise ValueError("cannot move a SimulatedClock backwards")
        self._now = self._now + delta
        return self._now

    def set(self, instant: _dt.datetime) -> None:
        """Pin the clock to an absolute instant."""
        self._now = ensure_utc(instant)


class FixedClock(Clock):
    """An immutable clock frozen at one instant.

    Enrichment scores each event against a :class:`FixedClock` snapshot
    taken in drain order before scoring starts, so time-dependent
    computation (feature ages) sees one instant per event — even when the
    platform clock is a ticking :class:`SimulatedClock`.
    """

    def __init__(self, instant: _dt.datetime) -> None:
        self._instant = ensure_utc(instant)

    def now(self) -> _dt.datetime:
        """Return the frozen instant (aware UTC datetime)."""
        return self._instant
