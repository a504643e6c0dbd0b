"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s scripted over the
pipeline's seams (``transport``, ``store``, ``parse``, ``broker``).  The
:class:`FaultInjector` evaluates the plan at each instrumented call: a rule
can fire on explicit invocation indices (``calls``), on a half-open index
window (``from_call``/``until_call``), or at a ``rate`` decided by hashing
``(seed, component, key, index)`` — never by wall clock or :mod:`random`
state, so the same plan over the same workload injects the identical fault
sequence at any thread count, every run.

``clear()`` simulates the fault condition going away (rules stop firing;
call counters keep advancing so indices stay aligned); ``resume()`` turns
the plan back on.
"""

from __future__ import annotations

import fnmatch
import hashlib
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import (
    ConfigurationError,
    ParseError,
    ReproError,
    SharingError,
    TransientFeedError,
    TransientStorageError,
)

#: Seams an injector can fault, with the error type each one raises.
COMPONENT_ERRORS = {
    "transport": TransientFeedError,
    "store": TransientStorageError,
    "parse": ParseError,
    "broker": SharingError,
    "share": SharingError,
    "link": SharingError,
}

#: Key format for the ``link`` seam: a directed federation edge.
def link_key(src: str, dst: str) -> str:
    """Seam key for the directed backbone link ``src`` → ``dst``."""
    return f"{src}->{dst}"


@dataclass(frozen=True)
class FaultRule:
    """One scripted fault over a (component, key) seam.

    ``key`` is an :mod:`fnmatch` pattern over the seam's key (feed URL for
    ``transport``, feed name for ``parse``, batch entry point for
    ``store``, topic for ``broker``).  A rule fires when the invocation
    index is in ``calls``, falls inside ``[from_call, until_call)``, or —
    for ``rate`` — when the deterministic hash draw lands below the rate.
    """

    component: str
    key: str = "*"
    rate: float = 0.0
    calls: Tuple[int, ...] = ()
    from_call: Optional[int] = None
    until_call: Optional[int] = None
    reason: str = "injected fault"

    def __post_init__(self) -> None:
        if self.component not in COMPONENT_ERRORS:
            raise ConfigurationError(
                f"unknown fault component {self.component!r} "
                f"(expected one of {sorted(COMPONENT_ERRORS)})")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError("rate must be within [0, 1]")

    def applies(self, component: str, key: str) -> bool:
        """Whether this rule covers the given seam."""
        return component == self.component and fnmatch.fnmatch(key, self.key)

    def fires(self, index: int, fraction: float) -> bool:
        """Whether this rule injects a fault at invocation ``index``."""
        if index in self.calls:
            return True
        if self.from_call is not None or self.until_call is not None:
            low = self.from_call or 0
            if index >= low and (self.until_call is None
                                 or index < self.until_call):
                return True
        return self.rate > 0.0 and fraction < self.rate

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the fault-plan file format)."""
        payload: Dict[str, Any] = {"component": self.component, "key": self.key}
        if self.rate:
            payload["rate"] = self.rate
        if self.calls:
            payload["calls"] = list(self.calls)
        if self.from_call is not None:
            payload["from_call"] = self.from_call
        if self.until_call is not None:
            payload["until_call"] = self.until_call
        if self.reason != "injected fault":
            payload["reason"] = self.reason
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRule":
        """Revive a rule from its dict form."""
        return cls(
            component=data["component"],
            key=data.get("key", "*"),
            rate=data.get("rate", 0.0),
            calls=tuple(data.get("calls", ())),
            from_call=data.get("from_call"),
            until_call=data.get("until_call"),
            reason=data.get("reason", "injected fault"))


@dataclass
class FaultPlan:
    """A seeded script of fault rules."""

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {"seed": self.seed,
                "rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Revive a plan from its dict form."""
        return cls(seed=data.get("seed", 0),
                   rules=[FaultRule.from_dict(raw)
                          for raw in data.get("rules", ())])


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at the pipeline's instrumented seams."""

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self._lock = threading.Lock()
        self._counts: Dict[Tuple[str, str], int] = {}
        #: (component, key) → faults injected so far.
        self.injected: Dict[Tuple[str, str], int] = {}
        self.active = True
        #: Disjoint org groups; orgs in different groups cannot reach
        #: each other.  Orgs absent from every group reach everyone.
        self._partitions: Tuple[frozenset, ...] = ()
        #: Imperative link rules (``lossy``) layered over the plan.
        self._link_rules: List[FaultRule] = []

    def clear(self) -> None:
        """Stop injecting (the fault condition has cleared).

        Call counters keep advancing so index-based rules stay aligned if
        the plan is later :meth:`resume`\\ d.  Partitions and imperative
        link rules are also dropped, mirroring :meth:`heal`.
        """
        self.active = False
        with self._lock:
            self._partitions = ()
            self._link_rules = []

    def resume(self) -> None:
        """Start injecting again."""
        self.active = True

    def partition(self, *groups) -> None:
        """Split the federation into disjoint ``groups`` of org names.

        Two orgs in *different* groups are disconnected: every
        :meth:`check_link` between them raises :class:`SharingError`.
        Orgs not named in any group stay connected to everyone.
        """
        sets = tuple(frozenset(group) for group in groups if group)
        seen: set = set()
        for group in sets:
            overlap = seen & group
            if overlap:
                raise ConfigurationError(
                    f"partition groups must be disjoint (shared: {sorted(overlap)})")
            seen |= group
        with self._lock:
            self._partitions = sets

    def heal(self) -> None:
        """Reconnect every link: drop partitions and imperative link rules."""
        with self._lock:
            self._partitions = ()
            self._link_rules = []

    def lossy(self, src: str, dst: str, rate: float,
              reason: str = "lossy link") -> None:
        """Make the directed link ``src`` → ``dst`` drop messages at ``rate``.

        Layered on top of any scripted plan rules; removed by
        :meth:`heal`.  The drop schedule is deterministic — the same
        hash-draw machinery as plan rules.
        """
        rule = FaultRule(component="link", key=link_key(src, dst),
                         rate=rate, reason=reason)
        with self._lock:
            self._link_rules.append(rule)

    def _partitioned(self, src: str, dst: str) -> bool:
        for group in self._partitions:
            in_src = src in group
            in_dst = dst in group
            if in_src != in_dst:
                # One side is in this group, the other is outside it; the
                # outside org is disconnected iff it belongs to another group.
                other = dst if in_src else src
                if any(other in g for g in self._partitions):
                    return True
        return False

    def check_link(self, src: str, dst: str) -> None:
        """Raise :class:`SharingError` if the ``src`` → ``dst`` link is down.

        Partitions fire first (hard disconnect), then scripted plan rules
        and imperative ``lossy`` rules over the ``link`` seam, all sharing
        one deterministic per-link invocation counter.
        """
        key = link_key(src, dst)
        with self._lock:
            counter_key = ("link", key)
            index = self._counts.get(counter_key, 0)
            self._counts[counter_key] = index + 1
            if self._partitioned(src, dst):
                self.injected[counter_key] = \
                    self.injected.get(counter_key, 0) + 1
                raise SharingError(f"link partitioned [{key}#{index}]")
            if not self.active:
                return
            fraction = self._fraction("link", key, index)
            for rule in list(self.plan.rules) + self._link_rules:
                if rule.applies("link", key) and rule.fires(index, fraction):
                    self.injected[counter_key] = \
                        self.injected.get(counter_key, 0) + 1
                    raise SharingError(
                        f"{rule.reason} [link:{key}#{index}]")

    def injected_total(self) -> int:
        """Total faults injected across every seam."""
        with self._lock:
            return sum(self.injected.values())

    def _fraction(self, component: str, key: str, index: int) -> float:
        digest = hashlib.sha256(
            f"{self.plan.seed}:{component}:{key}:{index}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64

    def check(self, component: str, key: str,
              index: Optional[int] = None) -> None:
        """Raise the component's error type if the plan injects a fault here.

        ``index`` defaults to an internal per-(component, key) counter;
        seams that already track a deterministic invocation index (the
        transport's per-URL request counter) pass their own so the plan
        aligns with the seam's native numbering.
        """
        with self._lock:
            if index is None:
                counter_key = (component, key)
                index = self._counts.get(counter_key, 0)
                self._counts[counter_key] = index + 1
            if not self.active:
                return
            fraction = self._fraction(component, key, index)
            for rule in self.plan.rules:
                if rule.applies(component, key) and rule.fires(index, fraction):
                    self.injected[(component, key)] = \
                        self.injected.get((component, key), 0) + 1
                    error_type = COMPONENT_ERRORS.get(rule.component, ReproError)
                    raise error_type(
                        f"{rule.reason} [{component}:{key}#{index}]")
