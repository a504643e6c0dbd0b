"""Identifier helpers.

Two id styles coexist in the platform:

- *random-looking* ids for freshly created objects (STIX ids, MISP event
  uuids).  Reproducible callers draw them from a seeded
  :class:`IdGenerator`; everything else takes :func:`random_uuid`.
- *content-derived* ids (uuid5) for normalized events, so the deduplicator
  can recognize the same security event arriving from two different feeds.
"""

from __future__ import annotations

import hashlib
import random
import uuid
from typing import Optional

#: Namespace for content-derived uuids (uuid5).  Fixed so that the same
#: canonical content always maps to the same id across processes.
CONTENT_NAMESPACE = uuid.UUID("6ba7b810-9dad-11d1-80b4-00c04fd430c8")
_NAMESPACE_BYTES = CONTENT_NAMESPACE.bytes


class IdGenerator:
    """Deterministic uuid4-shaped id factory backed by a seeded RNG."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = random.Random(seed)

    def uuid(self) -> str:
        """Return a new RFC-4122 version-4 uuid string."""
        return str(uuid.UUID(int=self._rng.getrandbits(128), version=4))

    def stix_id(self, object_type: str) -> str:
        """Return a STIX 2.0 identifier, e.g. ``indicator--<uuid4>``."""
        return f"{object_type}--{self.uuid()}"


def random_uuid() -> str:
    """A fresh, unseeded version-4 uuid string."""
    return str(uuid.uuid4())


def content_uuid(*parts: str) -> str:
    """Derive a stable uuid from canonical content parts.

    The parts are joined with an unambiguous separator so that
    ``("ab", "c")`` and ``("a", "bc")`` never collide.  The result is the
    string form of ``uuid.uuid5(CONTENT_NAMESPACE, blob)``, computed
    straight from the SHA-1 digest.
    """
    digest = bytearray(hashlib.sha1(
        _NAMESPACE_BYTES + "\x1f".join(parts).encode("utf-8")).digest()[:16])
    digest[6] = (digest[6] & 0x0F) | 0x50  # version 5
    digest[8] = (digest[8] & 0x3F) | 0x80  # RFC 4122 variant
    text = digest.hex()
    return (f"{text[:8]}-{text[8:12]}-{text[12:16]}-"
            f"{text[16:20]}-{text[20:]}")


def content_stix_id(object_type: str, *parts: str) -> str:
    """Derive a stable STIX identifier from canonical content parts."""
    return f"{object_type}--{content_uuid(object_type, *parts)}"
