"""Infrastructure Data Collector (§III-A2).

Gathers "information related to the monitored infrastructure that could lead
to internal indicators of compromise (e.g., hashes, signatures, IPs, domains,
URLs)" plus static context (installed applications, operating systems), and
feeds the operational module's MISP instance with *infrastructure events*
that the heuristic analysis later contrasts against OSINT data.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..clock import Clock, SimulatedClock, ensure_utc
from ..ids import content_uuid
from ..misp import Distribution, MispAttribute, MispEvent, MispInstance
from .alarms import Alarm, AlarmManager
from .inventory import Inventory
from .sensors import SensorNetwork, TelemetryObservation

#: Tag that marks events originating from the monitored infrastructure.
INFRASTRUCTURE_TAG = "caop:source=\"infrastructure\""


@dataclass(frozen=True)
class InfrastructureSnapshot:
    """The collector's view of the infrastructure at one instant."""

    taken_at: _dt.datetime
    installed_software: Dict[str, Tuple[str, ...]]
    seen_ips: Tuple[str, ...]
    alarms: Tuple[Alarm, ...]

    def software_terms(self) -> Set[str]:
        """All matchable software terms in the snapshot."""
        out: Set[str] = set()
        for terms in self.installed_software.values():
            out |= set(terms)
        return out


class InfrastructureDataCollector:
    """Collects internal IoCs + context and ships them to the MISP instance."""

    def __init__(self, inventory: Inventory, sensors: SensorNetwork,
                 misp: Optional[MispInstance] = None,
                 clock: Optional[Clock] = None) -> None:
        self._inventory = inventory
        self._sensors = sensors
        self._misp = misp
        self._clock = clock or SimulatedClock()
        self._shipped_values: Set[Tuple[str, str]] = set()

    @property
    def inventory(self) -> Inventory:
        """The monitored infrastructure inventory."""
        return self._inventory

    @property
    def alarm_manager(self) -> AlarmManager:
        """The live alarm manager."""
        return self._sensors.alarm_manager

    def snapshot(self) -> InfrastructureSnapshot:
        """Static + dynamic view: software inventory, seen IPs, live alarms."""
        installed = {
            node.name: tuple(sorted(node.software_terms()))
            for node in self._inventory.nodes
        }
        seen_ips = tuple(sorted({
            observation.observable["value"]
            for observation in self._sensors.telemetry
            if observation.observable.get("type") == "ipv4-addr"
        }))
        return InfrastructureSnapshot(
            taken_at=self._clock.now(),
            installed_software=installed,
            seen_ips=seen_ips,
            alarms=tuple(self._sensors.alarm_manager.all()),
        )

    def collect_internal_iocs(self) -> List[MispAttribute]:
        """Internal IoCs derived from telemetry: attacking IPs seen by NIDS."""
        attributes: List[MispAttribute] = []
        for alarm in self._sensors.alarm_manager.all():
            if not alarm.ip_src:
                continue
            key = ("ip-src", alarm.ip_src)
            if key in self._shipped_values:
                continue
            self._shipped_values.add(key)
            attributes.append(MispAttribute(
                type="ip-src",
                value=alarm.ip_src,
                comment=f"observed by {alarm.node}: {alarm.signature}",
                timestamp=alarm.timestamp,
            ))
        return attributes

    def ship_to_misp(self) -> Optional[MispEvent]:
        """Package fresh internal IoCs as one infrastructure MISP event.

        Infrastructure events are "simply stored internally and used later
        during the heuristic analysis" (§IV-A): distribution is
        organisation-only and the zmq feed is *not* triggered.
        """
        if self._misp is None:
            return None
        attributes = self.collect_internal_iocs()
        if not attributes:
            return None
        now = ensure_utc(self._clock.now())
        event = MispEvent(
            info="Infrastructure telemetry: internal indicators",
            org=self._misp.org,
            distribution=Distribution.ORGANISATION_ONLY,
            timestamp=now,
        )
        for attribute in attributes:
            event.add_attribute(attribute)
        # Content-derived ids keep infrastructure events identical across
        # runs, which the chaos-recovery parity checks rely on.  They key
        # on the full clock reading (the event keeps whole seconds).
        event.uuid = content_uuid(
            "infra-event", now.isoformat(),
            *sorted(f"{a.type}:{a.value}:{a.comment}" for a in attributes))
        for index, attribute in enumerate(attributes):
            attribute.uuid = content_uuid(
                "infra-attribute", event.uuid, str(index))
        event.add_tag(INFRASTRUCTURE_TAG)
        # Internal telemetry is recipients-only: it must never cross the
        # sharing gateway even if an operator mis-sets its distribution.
        event.add_tag("tlp:red")
        self._misp.add_event(event, publish_feed=False)
        return event
