"""MISP data model: events, attributes, objects, tags.

A faithful subset of the MISP format (https://www.misp-project.org/datamodels/):
an *event* is the envelope for one incident/report; *attributes* are its
typed indicators; *objects* group related attributes; *tags* annotate both.
The platform stores every cIoC as a MISP event, adds the threat score as a
new attribute during enrichment (§IV-A), and exports in MISP JSON or STIX.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..clock import PAPER_NOW, ensure_utc, format_timestamp, parse_timestamp
from ..errors import ValidationError
from ..ids import random_uuid


class Distribution:
    """MISP distribution levels controlling how far an event may travel."""

    ORGANISATION_ONLY = 0
    COMMUNITY_ONLY = 1
    CONNECTED_COMMUNITIES = 2
    ALL_COMMUNITIES = 3
    SHARING_GROUP = 4

    ALL = (0, 1, 2, 3, 4)


class ThreatLevel:
    """MISP event threat levels."""

    HIGH = 1
    MEDIUM = 2
    LOW = 3
    UNDEFINED = 4

    ALL = (1, 2, 3, 4)


class Analysis:
    """MISP analysis maturity levels."""

    INITIAL = 0
    ONGOING = 1
    COMPLETE = 2

    ALL = (0, 1, 2)


#: MISP attribute types used by the platform, with their default category.
ATTRIBUTE_TYPES: Mapping[str, str] = {
    "ip-src": "Network activity",
    "ip-dst": "Network activity",
    "domain": "Network activity",
    "hostname": "Network activity",
    "url": "Network activity",
    "md5": "Payload delivery",
    "sha1": "Payload delivery",
    "sha256": "Payload delivery",
    "filename": "Payload delivery",
    "email-src": "Payload delivery",
    "vulnerability": "External analysis",
    "link": "External analysis",
    "text": "Other",
    "comment": "Other",
    "float": "Other",
    "datetime": "Other",
}

#: Attribute types that participate in value correlation (MISP disables
#: correlation for free-text/comment types).
CORRELATABLE_TYPES = frozenset(
    t for t in ATTRIBUTE_TYPES
    if t not in ("comment", "text", "float", "datetime")
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _whole_seconds(value: Optional[_dt.datetime]) -> _dt.datetime:
    """An aware UTC instant cut to the whole second ``to_dict`` keeps.

    Events and attributes hold exactly what the store will hold, so an
    event handed down the pipeline in memory equals its stored form even
    when the clock that stamped it is fractional (virtual retry backoff).
    """
    if value is None:
        return PAPER_NOW
    return ensure_utc(value).replace(microsecond=0)


@dataclass
class MispTag:
    """A tag in MISP's ``namespace:predicate="value"`` style (or plain)."""

    name: str
    colour: str = "#0088cc"

    def __post_init__(self) -> None:
        _require(bool(self.name), "tag name must not be empty")

    def to_dict(self) -> Dict[str, str]:
        """Serialize to a JSON-ready dict."""
        return {"name": self.name, "colour": self.colour}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MispTag":
        """Revive an instance from its dict form."""
        return cls(name=data.get("name", ""), colour=data.get("colour", "#0088cc"))


@dataclass
class MispAttribute:
    """One typed indicator inside an event."""

    type: str
    value: str
    category: Optional[str] = None
    uuid: Optional[str] = None
    to_ids: bool = True
    comment: str = ""
    timestamp: Optional[_dt.datetime] = None
    distribution: int = Distribution.CONNECTED_COMMUNITIES
    tags: List[MispTag] = field(default_factory=list)
    object_relation: Optional[str] = None

    def __post_init__(self) -> None:
        _require(self.type in ATTRIBUTE_TYPES, f"unknown attribute type {self.type!r}")
        _require(bool(self.value), "attribute value must not be empty")
        _require(self.distribution in Distribution.ALL,
                 f"invalid distribution {self.distribution}")
        if self.category is None:
            self.category = ATTRIBUTE_TYPES[self.type]
        if self.uuid is None:
            self.uuid = random_uuid()
        self.timestamp = _whole_seconds(self.timestamp)

    @property
    def correlatable(self) -> bool:
        """Whether this attribute participates in value correlation."""
        return self.type in CORRELATABLE_TYPES and self.to_ids

    def add_tag(self, name: str) -> None:
        """Attach a tag once (idempotent)."""
        if all(tag.name != name for tag in self.tags):
            self.tags.append(MispTag(name=name))

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-ready dict."""
        data: Dict[str, Any] = {
            "uuid": self.uuid,
            "type": self.type,
            "category": self.category,
            "value": self.value,
            "to_ids": self.to_ids,
            "comment": self.comment,
            "timestamp": str(int(ensure_utc(self.timestamp).timestamp())),
            "distribution": str(self.distribution),
        }
        if self.object_relation:
            data["object_relation"] = self.object_relation
        if self.tags:
            data["Tag"] = [tag.to_dict() for tag in self.tags]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MispAttribute":
        """Revive an instance from its dict form."""
        timestamp = None
        raw_ts = data.get("timestamp")
        if raw_ts is not None:
            timestamp = _dt.datetime.fromtimestamp(int(raw_ts), tz=_dt.timezone.utc)
        return cls(
            type=data.get("type", ""),
            value=data.get("value", ""),
            category=data.get("category"),
            uuid=data.get("uuid"),
            to_ids=bool(data.get("to_ids", True)),
            comment=data.get("comment", ""),
            timestamp=timestamp,
            distribution=int(data.get("distribution", Distribution.CONNECTED_COMMUNITIES)),
            tags=[MispTag.from_dict(t) for t in data.get("Tag", [])],
            object_relation=data.get("object_relation"),
        )


@dataclass
class MispObject:
    """A named group of attributes (MISP object template instance)."""

    name: str
    uuid: Optional[str] = None
    description: str = ""
    attributes: List[MispAttribute] = field(default_factory=list)

    def __post_init__(self) -> None:
        _require(bool(self.name), "object name must not be empty")
        if self.uuid is None:
            self.uuid = random_uuid()

    def add_attribute(self, attribute: MispAttribute, relation: str) -> None:
        """Append an attribute."""
        attribute.object_relation = relation
        self.attributes.append(attribute)

    def get(self, relation: str) -> Optional[MispAttribute]:
        """Look up an entry by key; None when absent."""
        for attribute in self.attributes:
            if attribute.object_relation == relation:
                return attribute
        return None

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-ready dict."""
        return {
            "uuid": self.uuid,
            "name": self.name,
            "description": self.description,
            "Attribute": [a.to_dict() for a in self.attributes],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MispObject":
        """Revive an instance from its dict form."""
        return cls(
            name=data.get("name", ""),
            uuid=data.get("uuid"),
            description=data.get("description", ""),
            attributes=[MispAttribute.from_dict(a) for a in data.get("Attribute", [])],
        )


@dataclass
class MispEvent:
    """The MISP event envelope: one incident/report with its indicators."""

    info: str
    uuid: Optional[str] = None
    date: Optional[_dt.date] = None
    org: str = "CAOP"
    orgc: Optional[str] = None
    threat_level_id: int = ThreatLevel.UNDEFINED
    analysis: int = Analysis.INITIAL
    distribution: int = Distribution.CONNECTED_COMMUNITIES
    published: bool = False
    timestamp: Optional[_dt.datetime] = None
    attributes: List[MispAttribute] = field(default_factory=list)
    objects: List[MispObject] = field(default_factory=list)
    tags: List[MispTag] = field(default_factory=list)
    #: Required when distribution == Distribution.SHARING_GROUP.
    sharing_group_id: Optional[str] = None

    def __post_init__(self) -> None:
        _require(bool(self.info), "event info must not be empty")
        _require(self.threat_level_id in ThreatLevel.ALL,
                 f"invalid threat level {self.threat_level_id}")
        _require(self.analysis in Analysis.ALL, f"invalid analysis {self.analysis}")
        _require(self.distribution in Distribution.ALL,
                 f"invalid distribution {self.distribution}")
        if self.distribution == Distribution.SHARING_GROUP:
            _require(self.sharing_group_id is not None,
                     "sharing-group distribution requires a sharing_group_id")
        if self.uuid is None:
            self.uuid = random_uuid()
        self.timestamp = _whole_seconds(self.timestamp)
        if self.date is None:
            self.date = self.timestamp.date()
        if self.orgc is None:
            self.orgc = self.org

    # -- content helpers -----------------------------------------------------

    def add_attribute(self, attribute: MispAttribute) -> MispAttribute:
        """Append an attribute."""
        self.attributes.append(attribute)
        return attribute

    def add_tag(self, name: str) -> None:
        """Attach a tag once (idempotent)."""
        if all(tag.name != name for tag in self.tags):
            self.tags.append(MispTag(name=name))

    def has_tag(self, name: str) -> bool:
        """Whether a tag with this name is present."""
        return any(tag.name == name for tag in self.tags)

    def all_attributes(self) -> List[MispAttribute]:
        """Top-level attributes plus every object attribute."""
        out = list(self.attributes)
        for obj in self.objects:
            out.extend(obj.attributes)
        return out

    def attributes_of_type(self, attribute_type: str) -> List[MispAttribute]:
        """All attributes (incl. object ones) of a type."""
        return [a for a in self.all_attributes() if a.type == attribute_type]

    def get_attribute(self, attribute_type: str) -> Optional[MispAttribute]:
        """First attribute of a type, or None."""
        found = self.attributes_of_type(attribute_type)
        return found[0] if found else None

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Serialize in the (nested) MISP JSON event format."""
        return {
            "Event": {
                "uuid": self.uuid,
                "info": self.info,
                "date": self.date.isoformat(),
                "Org": {"name": self.org},
                "Orgc": {"name": self.orgc},
                "threat_level_id": str(self.threat_level_id),
                "analysis": str(self.analysis),
                "distribution": str(self.distribution),
                "published": self.published,
                "timestamp": str(int(ensure_utc(self.timestamp).timestamp())),
                **({"sharing_group_id": self.sharing_group_id}
                   if self.sharing_group_id is not None else {}),
                "Attribute": [a.to_dict() for a in self.attributes],
                "Object": [o.to_dict() for o in self.objects],
                "Tag": [t.to_dict() for t in self.tags],
            }
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MispEvent":
        """Revive an instance from its dict form."""
        body = data.get("Event", data)
        raw_ts = body.get("timestamp")
        timestamp = None
        if raw_ts is not None:
            timestamp = _dt.datetime.fromtimestamp(int(raw_ts), tz=_dt.timezone.utc)
        date = None
        if body.get("date"):
            date = _dt.date.fromisoformat(body["date"])
        return cls(
            info=body.get("info", ""),
            uuid=body.get("uuid"),
            date=date,
            org=(body.get("Org") or {}).get("name", "CAOP"),
            orgc=(body.get("Orgc") or {}).get("name"),
            threat_level_id=int(body.get("threat_level_id", ThreatLevel.UNDEFINED)),
            analysis=int(body.get("analysis", Analysis.INITIAL)),
            distribution=int(body.get("distribution", Distribution.CONNECTED_COMMUNITIES)),
            published=bool(body.get("published", False)),
            timestamp=timestamp,
            attributes=[MispAttribute.from_dict(a) for a in body.get("Attribute", [])],
            objects=[MispObject.from_dict(o) for o in body.get("Object", [])],
            tags=[MispTag.from_dict(t) for t in body.get("Tag", [])],
            sharing_group_id=body.get("sharing_group_id"),
        )
