"""MISP sharing groups (distribution level 4).

A sharing group names the exact set of organisations an event may reach —
the finest-grained distribution control MISP offers, used for sensitive
intelligence that community-level levels would overshare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Set

from ..errors import SharingError, ValidationError
from ..ids import random_uuid


@dataclass
class SharingGroup:
    """A named, closed set of organisations."""

    name: str
    organisations: Set[str]
    uuid: Optional[str] = None
    releasable_to_self: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("sharing group needs a name")
        if not self.organisations:
            raise ValidationError("sharing group needs at least one organisation")
        self.organisations = set(self.organisations)
        if self.uuid is None:
            self.uuid = random_uuid()

    def add_organisation(self, org: str) -> None:
        """Add an organisation to the group."""
        self.organisations.add(org)

    def remove_organisation(self, org: str) -> None:
        """Remove a member (never the last one)."""
        if org not in self.organisations:
            raise SharingError(f"{org!r} is not in sharing group {self.name!r}")
        if len(self.organisations) == 1:
            raise SharingError("cannot remove the last organisation")
        self.organisations.discard(org)

    def releasable_to(self, org: str) -> bool:
        """Whether an organisation may receive group events."""
        return org in self.organisations

    def to_dict(self) -> dict:
        """Serialize to a JSON-ready dict."""
        return {
            "uuid": self.uuid,
            "name": self.name,
            "organisations": sorted(self.organisations),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SharingGroup":
        """Revive an instance from its dict form."""
        return cls(
            name=data.get("name", ""),
            organisations=set(data.get("organisations", [])),
            uuid=data.get("uuid"),
        )
