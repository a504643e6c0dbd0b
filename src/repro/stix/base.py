"""Base machinery for STIX 2.0 objects.

A STIX object class declares::

    class Indicator(StixDomainObject):
        object_type = "indicator"
        properties = {**COMMON_PROPERTIES, "pattern": StringProperty(required=True), ...}

Instances are immutable mappings: fields are accessible by attribute and by
``obj["name"]``; ``new_version`` returns a modified copy with a bumped
``modified`` timestamp, mirroring STIX versioning semantics.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Mapping, Optional

from ..clock import PAPER_NOW, format_timestamp
from ..errors import ValidationError
from .properties import (
    EmbeddedObjectProperty,
    IdProperty,
    ListProperty,
    Property,
    StringProperty,
    TimestampProperty,
    TypeProperty,
)


class ExternalReference:
    """A pointer to non-STIX information (CVE, CAPEC, vendor advisory...).

    The vulnerability heuristic's ``external_references`` and ``cve``
    features read these (Table IV).
    """

    def __init__(self, source_name: str, external_id: Optional[str] = None,
                 url: Optional[str] = None, description: Optional[str] = None) -> None:
        if not source_name:
            raise ValidationError("external reference requires a source_name")
        if external_id is None and url is None and description is None:
            raise ValidationError(
                "external reference requires at least one of external_id/url/description")
        self.source_name = source_name
        self.external_id = external_id
        self.url = url
        self.description = description

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-ready dict."""
        data: Dict[str, Any] = {"source_name": self.source_name}
        if self.external_id is not None:
            data["external_id"] = self.external_id
        if self.url is not None:
            data["url"] = self.url
        if self.description is not None:
            data["description"] = self.description
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExternalReference":
        """Revive an instance from its dict form."""
        return cls(
            source_name=data.get("source_name", ""),
            external_id=data.get("external_id"),
            url=data.get("url"),
            description=data.get("description"),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExternalReference) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return f"ExternalReference({self.source_name!r}, {self.external_id!r})"


class KillChainPhase:
    """A (kill_chain_name, phase_name) pair."""

    def __init__(self, kill_chain_name: str, phase_name: str) -> None:
        if not kill_chain_name or not phase_name:
            raise ValidationError("kill chain phase requires both names")
        self.kill_chain_name = kill_chain_name
        self.phase_name = phase_name

    def to_dict(self) -> Dict[str, str]:
        """Serialize to a JSON-ready dict."""
        return {"kill_chain_name": self.kill_chain_name, "phase_name": self.phase_name}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "KillChainPhase":
        """Revive an instance from its dict form."""
        return cls(data.get("kill_chain_name", ""), data.get("phase_name", ""))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KillChainPhase) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return f"KillChainPhase({self.kill_chain_name!r}, {self.phase_name!r})"


def common_properties(object_type: str) -> Dict[str, Property]:
    """The properties every SDO/SRO shares (STIX 2.0 Part 2, section 3.1)."""
    return {
        "type": TypeProperty(object_type),
        "id": IdProperty(required=True, object_type=object_type),
        "created_by_ref": IdProperty(object_type="identity"),
        "created": TimestampProperty(required=True, ),
        "modified": TimestampProperty(required=True),
        "revoked": Property(),
        "labels": ListProperty(StringProperty(allow_empty=False)),
        "external_references": ListProperty(EmbeddedObjectProperty(ExternalReference)),
        "object_marking_refs": ListProperty(IdProperty()),
    }


class StixObject(Mapping[str, Any]):
    """Immutable, validated STIX object.

    Subclasses set ``object_type`` and ``properties``.  Unknown constructor
    keys beginning with ``x_`` are kept as custom properties (this is how the
    platform attaches ``x_caop_threat_score`` to enriched indicators);
    any other unknown key is a validation error.
    """

    object_type: str = ""
    properties: Dict[str, Property] = {}

    def __init__(self, allow_custom: bool = True, **kwargs: Any) -> None:
        cls = type(self)
        values: Dict[str, Any] = {}
        supplied = dict(kwargs)
        if "type" not in supplied:
            supplied["type"] = cls.object_type
        if "id" not in supplied:
            # Content-free default id; callers that care pass one explicitly.
            from ..ids import random_uuid
            supplied["id"] = f"{cls.object_type}--{random_uuid()}"
        now = supplied.pop("_now", None) or PAPER_NOW
        supplied.setdefault("created", now)
        supplied.setdefault("modified", supplied["created"])
        for name, prop in cls.properties.items():
            if name in supplied:
                raw = supplied.pop(name)
                if raw is None:
                    continue
                values[name] = prop.clean(name, raw)
            elif prop.default is not None:
                values[name] = prop.clean(name, prop.default())
            elif prop.required:
                raise ValidationError(f"{cls.object_type}: missing required property {name!r}")
        for name, raw in supplied.items():
            if name.startswith("x_") and allow_custom:
                values[name] = raw
            else:
                raise ValidationError(
                    f"{cls.object_type}: unknown property {name!r}")
        if values["modified"] < values["created"]:
            raise ValidationError(f"{cls.object_type}: modified precedes created")
        object.__setattr__(self, "_values", values)

    # -- Mapping interface -------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __getattr__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("STIX objects are immutable; use new_version()")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StixObject) and self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash((self._values["type"], self._values["id"], self._values["modified"]))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self._values['id']!r})"

    # -- Serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-ready dict in declaration order."""
        cls = type(self)
        out: Dict[str, Any] = {}
        for name, prop in cls.properties.items():
            if name in self._values:
                out[name] = prop.serialize(self._values[name])
        for name, value in self._values.items():
            if name not in cls.properties:
                out[name] = value
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StixObject":
        """Revive an instance from its dict form."""
        return cls(**dict(data))

    # -- Versioning ----------------------------------------------------------

    def new_version(self, _now: Optional[Any] = None, **changes: Any) -> "StixObject":
        """Return a copy with ``changes`` applied and ``modified`` bumped."""
        data = dict(self.to_dict())
        for key, value in changes.items():
            if value is None:
                data.pop(key, None)
            else:
                data[key] = value
        if "modified" not in changes:
            import datetime as _dt
            bumped = self._values["modified"] + _dt.timedelta(milliseconds=1)
            data["modified"] = format_timestamp(_now or bumped)
        return type(self)(**data)

    def custom_properties(self) -> Dict[str, Any]:
        """Return only the ``x_`` custom properties."""
        return {k: v for k, v in self._values.items() if k.startswith("x_")}
