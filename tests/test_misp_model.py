"""Tests for the MISP data model."""

import datetime as dt
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.misp import (
    ATTRIBUTE_TYPES,
    Analysis,
    CORRELATABLE_TYPES,
    Distribution,
    MispAttribute,
    MispEvent,
    MispObject,
    MispTag,
    ThreatLevel,
)


class TestAttribute:
    def test_default_category_from_type(self):
        assert MispAttribute(type="domain", value="x.example").category == \
            "Network activity"
        assert MispAttribute(type="md5", value="a" * 32).category == \
            "Payload delivery"

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            MispAttribute(type="quantum", value="x")

    def test_empty_value_rejected(self):
        with pytest.raises(ValidationError):
            MispAttribute(type="domain", value="")

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValidationError):
            MispAttribute(type="domain", value="x", distribution=9)

    def test_correlatable_follows_misp_rules(self):
        assert MispAttribute(type="domain", value="x").correlatable
        assert not MispAttribute(type="text", value="x").correlatable
        assert not MispAttribute(type="comment", value="x").correlatable
        assert not MispAttribute(type="domain", value="x", to_ids=False).correlatable
        assert "text" not in CORRELATABLE_TYPES

    def test_tags_deduplicate(self):
        attribute = MispAttribute(type="domain", value="x")
        attribute.add_tag("tlp:green")
        attribute.add_tag("tlp:green")
        assert len(attribute.tags) == 1

    def test_roundtrip(self):
        attribute = MispAttribute(
            type="url", value="http://x/y", comment="c", to_ids=False,
            timestamp=dt.datetime(2018, 1, 1, tzinfo=dt.timezone.utc))
        attribute.add_tag("osint")
        revived = MispAttribute.from_dict(attribute.to_dict())
        assert revived.value == attribute.value
        assert revived.to_ids is False
        assert revived.timestamp == attribute.timestamp
        assert revived.tags[0].name == "osint"


class TestObject:
    def test_object_relation(self):
        obj = MispObject(name="file")
        obj.add_attribute(MispAttribute(type="md5", value="a" * 32), relation="md5")
        obj.add_attribute(MispAttribute(type="sha256", value="b" * 64), relation="sha256")
        assert obj.get("md5").value == "a" * 32
        assert obj.get("missing") is None

    def test_roundtrip(self):
        obj = MispObject(name="file", description="sample")
        obj.add_attribute(MispAttribute(type="md5", value="a" * 32), relation="md5")
        revived = MispObject.from_dict(obj.to_dict())
        assert revived.name == "file"
        assert revived.attributes[0].object_relation == "md5"


class TestEvent:
    def test_requires_info(self):
        with pytest.raises(ValidationError):
            MispEvent(info="")

    def test_defaults(self):
        event = MispEvent(info="x")
        assert event.threat_level_id == ThreatLevel.UNDEFINED
        assert event.analysis == Analysis.INITIAL
        assert event.distribution == Distribution.CONNECTED_COMMUNITIES
        assert event.orgc == event.org
        assert event.date == event.timestamp.date()

    def test_tag_helpers(self):
        event = MispEvent(info="x")
        event.add_tag("caop:ioc=\"composed\"")
        event.add_tag("caop:ioc=\"composed\"")
        assert len(event.tags) == 1
        assert event.has_tag("caop:ioc=\"composed\"")
        assert not event.has_tag("other")

    def test_all_attributes_includes_objects(self):
        event = MispEvent(info="x")
        event.add_attribute(MispAttribute(type="domain", value="a.example"))
        obj = MispObject(name="file")
        obj.add_attribute(MispAttribute(type="md5", value="a" * 32), relation="md5")
        event.objects.append(obj)
        assert len(event.all_attributes()) == 2

    def test_attributes_of_type(self):
        event = MispEvent(info="x")
        event.add_attribute(MispAttribute(type="vulnerability", value="CVE-2017-9805"))
        event.add_attribute(MispAttribute(type="domain", value="a.example"))
        assert [a.value for a in event.attributes_of_type("vulnerability")] == \
            ["CVE-2017-9805"]
        assert event.get_attribute("vulnerability").value == "CVE-2017-9805"
        assert event.get_attribute("url") is None

    def test_roundtrip_preserves_everything(self):
        event = MispEvent(info="incident", threat_level_id=ThreatLevel.HIGH,
                          analysis=Analysis.COMPLETE,
                          distribution=Distribution.ALL_COMMUNITIES,
                          published=True)
        event.add_attribute(MispAttribute(type="ip-src", value="198.51.100.1"))
        event.add_tag("tlp:amber")
        revived = MispEvent.from_dict(event.to_dict())
        assert revived.uuid == event.uuid
        assert revived.threat_level_id == ThreatLevel.HIGH
        assert revived.analysis == Analysis.COMPLETE
        assert revived.published is True
        assert revived.tags[0].name == "tlp:amber"
        assert revived.attributes[0].value == "198.51.100.1"

    def test_wire_format_is_nested_misp_json(self):
        data = MispEvent(info="x").to_dict()
        assert "Event" in data
        assert data["Event"]["Org"]["name"] == "CAOP"

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValidationError):
            MispEvent(info="x", threat_level_id=0)
        with pytest.raises(ValidationError):
            MispEvent(info="x", analysis=5)
        with pytest.raises(ValidationError):
            MispEvent(info="x", distribution=7)

    def test_tag_model_requires_name(self):
        with pytest.raises(ValidationError):
            MispTag(name="")


# -- whole-second timestamps ----------------------------------------------------

_ZONES = [None, dt.timezone.utc, dt.timezone(dt.timedelta(hours=5, minutes=30)),
          dt.timezone(-dt.timedelta(hours=3))]
_TIMESTAMPS = st.builds(
    lambda moment, zone: moment.replace(tzinfo=zone),
    st.datetimes(min_value=dt.datetime(1950, 1, 1),
                 max_value=dt.datetime(2200, 1, 1)),
    st.sampled_from(_ZONES))
_TEXT = st.text(max_size=12)
_NAME = st.text(min_size=1, max_size=12)
_TAGS = st.lists(st.builds(MispTag, name=_NAME, colour=_TEXT), max_size=3)


@st.composite
def _attributes(draw):
    return MispAttribute(
        type=draw(st.sampled_from(sorted(ATTRIBUTE_TYPES))),
        value=draw(_NAME),
        category=draw(st.one_of(st.none(), _TEXT)),
        uuid=draw(st.one_of(st.none(), _NAME)),
        to_ids=draw(st.booleans()),
        comment=draw(_TEXT),
        timestamp=draw(st.one_of(st.none(), _TIMESTAMPS)),
        distribution=draw(st.sampled_from(Distribution.ALL)),
        tags=draw(_TAGS),
        # "" serializes as absent, which revives as None.
        object_relation=draw(st.one_of(st.none(), _NAME)),
    )


@st.composite
def _events(draw):
    distribution = draw(st.sampled_from(Distribution.ALL))
    return MispEvent(
        info=draw(_NAME),
        uuid=draw(st.one_of(st.none(), _NAME)),
        date=draw(st.one_of(st.none(), st.dates())),
        org=draw(_TEXT),
        orgc=draw(st.one_of(st.none(), _TEXT)),
        threat_level_id=draw(st.sampled_from(ThreatLevel.ALL)),
        analysis=draw(st.sampled_from(Analysis.ALL)),
        distribution=distribution,
        published=draw(st.booleans()),
        timestamp=draw(st.one_of(st.none(), _TIMESTAMPS)),
        attributes=draw(st.lists(_attributes(), max_size=4)),
        objects=draw(st.lists(st.builds(
            MispObject, name=_NAME, uuid=st.one_of(st.none(), _NAME),
            description=_TEXT, attributes=st.lists(_attributes(), max_size=3)),
            max_size=2)),
        tags=draw(_TAGS),
        sharing_group_id=draw(_NAME) if distribution == Distribution.SHARING_GROUP
        else draw(st.one_of(st.none(), _NAME)),
    )


class TestWholeSeconds:
    def test_fractional_instants_cut_to_the_stored_second(self):
        moment = dt.datetime(2020, 5, 1, 12, 0, 7, 900_000,
                             tzinfo=dt.timezone.utc)
        event = MispEvent(info="x", timestamp=moment)
        attribute = MispAttribute(type="domain", value="a.example",
                                  timestamp=moment)
        assert event.timestamp == moment.replace(microsecond=0)
        assert attribute.timestamp == moment.replace(microsecond=0)
        assert event.to_dict()["Event"]["timestamp"] == \
            str(int(moment.timestamp()))

    def test_fractional_instants_before_1970_cut_down(self):
        moment = dt.datetime(1969, 12, 31, 23, 59, 59, 500_000,
                             tzinfo=dt.timezone.utc)
        event = MispEvent(info="x", timestamp=moment)
        assert event.timestamp == moment.replace(microsecond=0)
        assert event.date == dt.date(1969, 12, 31)

    @settings(max_examples=200, deadline=None)
    @given(_events())
    def test_json_round_trip_is_identity(self, event):
        revived = MispEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert revived == event
