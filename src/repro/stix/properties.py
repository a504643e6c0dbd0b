"""Typed property descriptors for STIX 2.0 objects.

Each STIX object class declares a mapping ``name -> Property``; the base
class walks that mapping to validate constructor input and to serialize in a
stable field order.  Property validators *clean* values (e.g. parse a
timestamp string into a ``datetime``) and raise
:class:`~repro.errors.ValidationError` on bad input.
"""

from __future__ import annotations

import datetime as _dt
import re
from typing import Any, Callable, List, Optional, Sequence

from ..clock import ensure_utc, parse_timestamp
from ..errors import ValidationError

_ID_RE = re.compile(
    r"^[a-z][a-z0-9-]*--[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}$"
)
_TYPE_RE = re.compile(r"^[a-z][a-z0-9-]*[a-z0-9]$")


class Property:
    """Base property: optional, no cleaning beyond a presence check."""

    def __init__(self, required: bool = False, default: Optional[Callable[[], Any]] = None) -> None:
        self.required = required
        self.default = default

    def clean(self, name: str, value: Any) -> Any:
        """Validate and canonicalize a raw value."""
        return value

    def serialize(self, value: Any) -> Any:
        """Render a cleaned value into its wire form."""
        return value


class StringProperty(Property):
    """A (possibly length-constrained) text property."""

    def __init__(self, required: bool = False, default: Optional[Callable[[], Any]] = None,
                 allow_empty: bool = True) -> None:
        super().__init__(required=required, default=default)
        self.allow_empty = allow_empty

    def clean(self, name: str, value: Any) -> str:
        """Validate and canonicalize a raw value."""
        if not isinstance(value, str):
            raise ValidationError(f"{name} must be a string, got {type(value).__name__}")
        if not self.allow_empty and not value:
            raise ValidationError(f"{name} must not be empty")
        return value


class BooleanProperty(Property):
    """A strict boolean property."""
    def clean(self, name: str, value: Any) -> bool:
        """Validate and canonicalize a raw value."""
        if not isinstance(value, bool):
            raise ValidationError(f"{name} must be a boolean, got {type(value).__name__}")
        return value


class IntegerProperty(Property):
    """An integer property with optional bounds."""
    def __init__(self, required: bool = False, minimum: Optional[int] = None,
                 maximum: Optional[int] = None) -> None:
        super().__init__(required=required)
        self.minimum = minimum
        self.maximum = maximum

    def clean(self, name: str, value: Any) -> int:
        """Validate and canonicalize a raw value."""
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
        if self.minimum is not None and value < self.minimum:
            raise ValidationError(f"{name} must be >= {self.minimum}, got {value}")
        if self.maximum is not None and value > self.maximum:
            raise ValidationError(f"{name} must be <= {self.maximum}, got {value}")
        return value


class TimestampProperty(Property):
    """Accepts a datetime or an ISO/STIX timestamp string; stores UTC datetime."""

    def clean(self, name: str, value: Any) -> _dt.datetime:
        """Validate and canonicalize a raw value."""
        if isinstance(value, _dt.datetime):
            return ensure_utc(value)
        if isinstance(value, str):
            try:
                return parse_timestamp(value)
            except ValueError as exc:
                raise ValidationError(f"{name} is not a valid timestamp: {value!r}") from exc
        raise ValidationError(f"{name} must be a datetime or timestamp string")

    def serialize(self, value: _dt.datetime) -> str:
        """Render a cleaned value into its wire form."""
        from ..clock import format_timestamp
        return format_timestamp(value)


class IdProperty(Property):
    """A STIX identifier, optionally constrained to one object type."""

    def __init__(self, required: bool = False, object_type: Optional[str] = None) -> None:
        super().__init__(required=required)
        self.object_type = object_type

    def clean(self, name: str, value: Any) -> str:
        """Validate and canonicalize a raw value."""
        if not isinstance(value, str) or not _ID_RE.match(value):
            raise ValidationError(f"{name} is not a valid STIX id: {value!r}")
        if self.object_type is not None and not value.startswith(self.object_type + "--"):
            raise ValidationError(
                f"{name} must reference a {self.object_type}, got {value!r}")
        return value


class TypeProperty(Property):
    """The fixed ``type`` field of an object."""

    def __init__(self, fixed: str) -> None:
        super().__init__(required=True, default=lambda: fixed)
        if not _TYPE_RE.match(fixed):
            raise ValidationError(f"invalid STIX type name: {fixed!r}")
        self.fixed = fixed

    def clean(self, name: str, value: Any) -> str:
        """Validate and canonicalize a raw value."""
        if value != self.fixed:
            raise ValidationError(f"type must be {self.fixed!r}, got {value!r}")
        return value


class ListProperty(Property):
    """A homogeneous list whose elements are cleaned by ``contained``."""

    def __init__(self, contained: Property, required: bool = False,
                 allow_empty: bool = False) -> None:
        super().__init__(required=required)
        self.contained = contained
        self.allow_empty = allow_empty

    def clean(self, name: str, value: Any) -> List[Any]:
        """Validate and canonicalize a raw value."""
        if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
            raise ValidationError(f"{name} must be a list")
        if not value and not self.allow_empty:
            raise ValidationError(f"{name} must not be an empty list")
        return [self.contained.clean(f"{name}[{i}]", item) for i, item in enumerate(value)]

    def serialize(self, value: List[Any]) -> List[Any]:
        """Render a cleaned value into its wire form."""
        return [self.contained.serialize(item) for item in value]


class OpenVocabProperty(StringProperty):
    """A string that *should* come from an open vocabulary.

    STIX open vocabularies are suggestions, not constraints, so unknown
    values are accepted; the recommended terms are kept for tooling
    (``is_recommended``).
    """

    def __init__(self, vocabulary: Sequence[str], required: bool = False) -> None:
        super().__init__(required=required, allow_empty=False)
        self.vocabulary = tuple(vocabulary)

    def is_recommended(self, value: str) -> bool:
        """Whether the value is in the suggested vocabulary."""
        return value in self.vocabulary


class EmbeddedObjectProperty(Property):
    """A property holding an embedded non-top-level STIX type.

    ``cls`` must expose ``from_dict``/``to_dict``; instances pass through.
    """

    def __init__(self, cls: type, required: bool = False) -> None:
        super().__init__(required=required)
        self.cls = cls

    def clean(self, name: str, value: Any) -> Any:
        """Validate and canonicalize a raw value."""
        if isinstance(value, self.cls):
            return value
        if isinstance(value, dict):
            return self.cls.from_dict(value)
        raise ValidationError(f"{name} must be a {self.cls.__name__} or dict")

    def serialize(self, value: Any) -> Any:
        """Render a cleaned value into its wire form."""
        return value.to_dict()
