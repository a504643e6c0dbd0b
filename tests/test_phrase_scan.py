"""The word-prefiltered phrase scans against a naive reference.

``ThreatTagger.tag`` and ``GalaxyMatcher.find_clusters`` split the text
into words once and scan only the phrases whose first word occurs in it.
The references below are the plain longest-first scans over every phrase;
both must give identical output, hit order included.
"""

from typing import Dict, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.misp import GalaxyMatcher
from repro.misp.galaxy import GalaxyCluster
from repro.nlp import ThreatTagger, all_keywords
from repro.nlp.lexicon import first_word, words_of


def reference_tag(text: str) -> Dict[str, List[str]]:
    """Every keyword, longest first; first word-bounded, unclaimed span wins."""
    keyword_to_category = all_keywords()
    lowered = text.lower()
    consumed: Set[Tuple[int, int]] = set()
    hits: Dict[str, List[str]] = {}
    for keyword in sorted(keyword_to_category, key=len, reverse=True):
        start = 0
        while True:
            index = lowered.find(keyword, start)
            if index == -1:
                break
            span = (index, index + len(keyword))
            start = index + 1
            if any(s < span[1] and span[0] < e for s, e in consumed):
                continue
            if not _bounded(lowered, *span):
                continue
            consumed.add(span)
            hits.setdefault(keyword_to_category[keyword], []).append(keyword)
    return hits


def reference_clusters(text: str) -> List[GalaxyCluster]:
    """Every cluster name, longest first; one hit per cluster."""
    names = [(name, cluster)
             for galaxy in GalaxyMatcher().galaxies
             for cluster in galaxy.clusters
             for name in cluster.names()]
    names.sort(key=lambda pair: -len(pair[0]))
    lowered = text.lower()
    found: List[GalaxyCluster] = []
    seen: Set[str] = set()
    for name, cluster in names:
        if cluster.value in seen:
            continue
        index = lowered.find(name)
        while index != -1:
            if _bounded(lowered, index, index + len(name)):
                found.append(cluster)
                seen.add(cluster.value)
                break
            index = lowered.find(name, index + 1)
    return found


def _bounded(text: str, start: int, end: int) -> bool:
    return ((start == 0 or not text[start - 1].isalnum())
            and (end >= len(text) or not text[end].isalnum()))


_PHRASES = sorted(set(all_keywords()) | {
    name for galaxy in GalaxyMatcher().galaxies
    for cluster in galaxy.clusters for name in cluster.names()})
#: Pieces that make phrases collide, overlap, glue or split: fragments of
#: phrases, separators of every kind, and characters whose lowercase form
#: is longer than they are.
_PIECES = st.one_of(
    st.sampled_from(_PHRASES),
    st.sampled_from(_PHRASES).map(str.upper),
    st.sampled_from(_PHRASES).map(lambda phrase: phrase[: len(phrase) // 2]),
    st.sampled_from([" ", "  ", "-", "_", ".", "/", "é", "İ", "ß", "0",
                     "x", "of", "service", "de", " ", "\n"]),
    st.text(max_size=6),
)
TEXTS = st.lists(_PIECES, max_size=12).map("".join)


class TestWords:
    def test_first_word(self):
        assert first_word("denial of service") == "denial"
        assert first_word("zero-day") == "zero"
        assert first_word("c2 server") == "c2"
        assert first_word("-leading dash") is None
        assert first_word("déni de service") == "déni"

    def test_words_split_on_non_alphanumerics(self):
        assert words_of("evil.example/ab_cd x9") == {
            "evil", "example", "ab", "cd", "x9"}
        assert words_of("déni de service_x") == {"déni", "de", "service", "x"}
        assert words_of("«ataque» — x٣") == {"ataque", "x٣"}

    @settings(max_examples=300)
    @given(st.text())
    def test_first_word_is_the_leading_run(self, phrase):
        run = ""
        for char in phrase:
            if not char.isalnum():
                break
            run += char
        assert first_word(phrase) == (run or None)

    @settings(max_examples=300)
    @given(st.one_of(st.text(), TEXTS))
    def test_words_are_alphanumeric_runs(self, text):
        words, run = set(), ""
        for char in text + " ":
            if char.isalnum():
                run += char
            elif run:
                words.add(run)
                run = ""
        assert words_of(text) == words


class TestTaggerMatchesReference:
    tagger = ThreatTagger()

    def test_examples(self):
        for text in ("massive denial of service attack",
                     "Data-Breach: leaked, LEAKED; exfiltration!",
                     "attaque par déni de service en cours",
                     "the outlook is bleak", ""):
            assert self.tagger.tag(text) == reference_tag(text)

    @settings(max_examples=400)
    @given(TEXTS)
    def test_property(self, text):
        assert self.tagger.tag(text) == reference_tag(text)


class TestGalaxyMatchesReference:
    matcher = GalaxyMatcher()

    def test_examples(self):
        for text in ("Lazarus Group campaign continues",
                     "APT28 using Mimikatz and cobaltstrike beacon",
                     "the snakeskin pattern", "Snake implant found"):
            assert self.matcher.find_clusters(text) == \
                reference_clusters(text)

    @settings(max_examples=400)
    @given(TEXTS)
    def test_property(self, text):
        assert self.matcher.find_clusters(text) == reference_clusters(text)
