"""MISP galaxies: curated clusters of contextual threat knowledge.

A *galaxy* groups clusters (threat actors, tools, ransomware families...)
with synonyms and metadata; events are annotated with galaxy tags like
``misp-galaxy:threat-actor="Sofacy"``.  This module carries a condensed
transcription of well-known threat-actor and tool clusters, a matcher that
finds cluster mentions (by value or synonym) in event text, and the tagger
that stamps matching events — the contextual enrichment MISP deployments
get from the misp-galaxy project.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..errors import ValidationError
from .model import MispEvent


@dataclass(frozen=True)
class GalaxyCluster:
    """One cluster: canonical value, synonyms and metadata."""

    value: str
    galaxy_type: str
    description: str = ""
    synonyms: Tuple[str, ...] = ()
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.value:
            raise ValidationError("galaxy cluster needs a value")

    def names(self) -> Set[str]:
        """All lowercase names this cluster answers to."""
        return {self.value.lower(), *(s.lower() for s in self.synonyms)}

    def tag(self) -> str:
        """Add a tag to a stored event."""
        return f'misp-galaxy:{self.galaxy_type}="{self.value}"'


@dataclass(frozen=True)
class Galaxy:
    """A named collection of clusters of one type."""

    name: str
    galaxy_type: str
    clusters: Tuple[GalaxyCluster, ...]

    def find(self, name: str) -> Optional[GalaxyCluster]:
        """Find the set representative (with path compression)."""
        needle = name.lower()
        for cluster in self.clusters:
            if needle in cluster.names():
                return cluster
        return None


#: Condensed transcription of real misp-galaxy threat-actor clusters.
THREAT_ACTOR_GALAXY = Galaxy(
    name="Threat Actor",
    galaxy_type="threat-actor",
    clusters=(
        GalaxyCluster(
            value="Sofacy", galaxy_type="threat-actor",
            description="Russian-attributed espionage group",
            synonyms=("APT28", "Fancy Bear", "Pawn Storm", "Sednit",
                      "STRONTIUM"),
            meta={"country": "RU", "motive": "espionage"}),
        GalaxyCluster(
            value="APT29", galaxy_type="threat-actor",
            description="Russian-attributed espionage group",
            synonyms=("Cozy Bear", "The Dukes", "NOBELIUM"),
            meta={"country": "RU", "motive": "espionage"}),
        GalaxyCluster(
            value="Lazarus Group", galaxy_type="threat-actor",
            description="North-Korean-attributed group",
            synonyms=("Lazarus", "Hidden Cobra", "ZINC"),
            meta={"country": "KP", "motive": "financial-espionage"}),
        GalaxyCluster(
            value="FIN7", galaxy_type="threat-actor",
            description="Financially motivated intrusion set",
            synonyms=("Carbanak", "Carbon Spider"),
            meta={"motive": "financial"}),
        GalaxyCluster(
            value="Turla", galaxy_type="threat-actor",
            description="Espionage group with satellite C2 tradecraft",
            synonyms=("Snake", "Uroburos", "Venomous Bear"),
            meta={"country": "RU", "motive": "espionage"}),
    ),
)

#: Dual-use tooling clusters.
TOOL_GALAXY = Galaxy(
    name="Tool",
    galaxy_type="tool",
    clusters=(
        GalaxyCluster(value="Mimikatz", galaxy_type="tool",
                      synonyms=("mimikatz",),
                      description="credential dumping tool"),
        GalaxyCluster(value="Cobalt Strike", galaxy_type="tool",
                      synonyms=("cobaltstrike", "beacon"),
                      description="commercial adversary emulation framework"),
        GalaxyCluster(value="Emotet", galaxy_type="tool",
                      synonyms=("geodo", "heodo"),
                      description="loader / banking trojan"),
    ),
)

BUILTIN_GALAXIES: Tuple[Galaxy, ...] = (THREAT_ACTOR_GALAXY, TOOL_GALAXY)


class GalaxyMatcher:
    """Finds cluster mentions in free text (word-bounded, synonyms too)."""

    def __init__(self, galaxies: Iterable[Galaxy] = BUILTIN_GALAXIES) -> None:
        self._galaxies = list(galaxies)
        self._names: List[Tuple[str, GalaxyCluster]] = []
        for galaxy in self._galaxies:
            for cluster in galaxy.clusters:
                for name in cluster.names():
                    self._names.append((name, cluster))
        # Longest names first so 'Lazarus Group' beats 'Lazarus'.
        self._names.sort(key=lambda pair: -len(pair[0]))

    @property
    def galaxies(self) -> List[Galaxy]:
        """The galaxies this matcher searches."""
        return list(self._galaxies)

    def find_clusters(self, text: str) -> List[GalaxyCluster]:
        """All distinct clusters mentioned in the text."""
        lowered = text.lower()
        found: List[GalaxyCluster] = []
        seen: Set[str] = set()
        for name, cluster in self._names:
            if cluster.value in seen:
                continue
            index = lowered.find(name)
            while index != -1:
                end = index + len(name)
                before_ok = index == 0 or not lowered[index - 1].isalnum()
                after_ok = end >= len(lowered) or not lowered[end].isalnum()
                if before_ok and after_ok:
                    found.append(cluster)
                    seen.add(cluster.value)
                    break
                index = lowered.find(name, index + 1)
        return found

    def scan_event(self, event: MispEvent) -> List[GalaxyCluster]:
        """All clusters an event's text mentions (pure: no mutation).

        Reads the info line plus every attribute value and comment; tagging
        is the separate, mutating step.
        """
        text = event.info + " " + " ".join(
            attribute.value + " " + attribute.comment
            for attribute in event.all_attributes())
        return self.find_clusters(text)

    def tag_event(self, event: MispEvent) -> List[GalaxyCluster]:
        """Scan an event's text and stamp galaxy tags; returns the matches."""
        clusters = self.scan_event(event)
        for cluster in clusters:
            event.add_tag(cluster.tag())
        return clusters


def clusters_of(event: MispEvent) -> List[str]:
    """Galaxy tag values already on an event."""
    out: List[str] = []
    for tag in event.tags:
        if tag.name.startswith("misp-galaxy:") and tag.name.endswith('"'):
            out.append(tag.name.split('="', 1)[1][:-1])
    return out
