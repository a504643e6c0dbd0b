"""Tests for identifier generation."""

import uuid

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids import (
    CONTENT_NAMESPACE,
    IdGenerator,
    content_stix_id,
    content_uuid,
    random_uuid,
)


def test_seeded_generator_is_deterministic():
    a = IdGenerator(seed=42)
    b = IdGenerator(seed=42)
    assert [a.uuid() for _ in range(5)] == [b.uuid() for _ in range(5)]


def test_different_seeds_differ():
    assert IdGenerator(seed=1).uuid() != IdGenerator(seed=2).uuid()


def test_uuid_is_valid_v4():
    value = uuid.UUID(IdGenerator(seed=0).uuid())
    assert value.version == 4


def test_stix_id_format():
    stix_id = IdGenerator(seed=0).stix_id("indicator")
    prefix, _, suffix = stix_id.partition("--")
    assert prefix == "indicator"
    assert uuid.UUID(suffix)


def test_content_uuid_is_stable():
    assert content_uuid("a", "b") == content_uuid("a", "b")


def test_content_uuid_separator_prevents_collisions():
    assert content_uuid("ab", "c") != content_uuid("a", "bc")


def test_content_stix_id_incorporates_type():
    assert content_stix_id("indicator", "x") != content_stix_id("malware", "x")
    assert content_stix_id("indicator", "x").startswith("indicator--")


@settings(max_examples=300)
@given(st.lists(st.text(), max_size=5))
def test_content_uuid_equals_uuid5(parts):
    assert content_uuid(*parts) == str(
        uuid.uuid5(CONTENT_NAMESPACE, "\x1f".join(parts)))


def test_random_uuid_is_fresh_v4():
    ids = {random_uuid() for _ in range(100)}
    assert len(ids) == 100
    assert all(uuid.UUID(value).version == 4 for value in ids)
