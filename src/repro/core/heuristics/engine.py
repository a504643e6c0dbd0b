"""The threat-score engine: Equation 1 of the paper.

``TS = Cp * sum_i(Xi * Pi)`` where

- ``Xi`` is the value assigned to feature *i* by its score table (0..5;
  the paper treats a value of 0 / no-info as *empty*),
- ``Pi`` is the weighting factor of feature *i*,
- ``Cp = non_empty_features / total_features`` is the completeness
  criterion.

Two weighting schemes appear in the paper and both are implemented:

- :class:`FixedWeights` — Table I style: Pi given directly and summing to 1
  over *all* features; empty features contribute 0 but their weight is not
  redistributed.
- :class:`CriteriaWeights` — Table V style: each feature carries expert
  points for Relevance/Accuracy/Timeliness/Variety, and
  ``Pi = points_i / sum(points_j over NON-EMPTY features j)`` (the paper's
  Table V weights sum to 1 over the eight evaluated features after the
  empty ``valid_until`` is "discarded from our analysis").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ...errors import ValidationError
from ...obs import MetricsRegistry, SCORE_BUCKETS
from ..ioc import FeatureScore, ThreatScoreResult
from .context import EvaluationContext

#: A feature extractor returns (value, attribute_label); value None == empty.
Extractor = Callable[[EvaluationContext], Tuple[Optional[int], str]]

MAX_FEATURE_VALUE = 5

#: Metric names published by :meth:`Heuristic.evaluate`.
EVAL_SECONDS_METRIC = "caop_heuristic_eval_seconds"
THREAT_SCORE_METRIC = "caop_threat_score"


@dataclass(frozen=True)
class CriteriaPoints:
    """Expert points of one feature on the four weighting criteria."""

    relevance: int
    accuracy: int
    timeliness: int
    variety: int

    def __post_init__(self) -> None:
        for name, value in (("relevance", self.relevance), ("accuracy", self.accuracy),
                            ("timeliness", self.timeliness), ("variety", self.variety)):
            if value < 0:
                raise ValidationError(f"{name} points must be non-negative")

    @property
    def total(self) -> int:
        """Sum of the four criteria point values."""
        return self.relevance + self.accuracy + self.timeliness + self.variety


@dataclass(frozen=True)
class FeatureDefinition:
    """One feature of a heuristic: extractor + criteria points + doc."""

    name: str
    description: str
    extractor: Extractor
    criteria: CriteriaPoints
    #: attribute label -> score, transcribed for documentation/benches.
    score_table: Mapping[str, int] = None  # type: ignore[assignment]


class WeightingScheme:
    """Strategy mapping raw feature scores to their Pi weights."""

    def weights(self, scores: Sequence[FeatureScore]) -> List[float]:
        """Pi weight per feature score, aligned by position."""
        raise NotImplementedError


class FixedWeights(WeightingScheme):
    """Explicit Pi per feature (Table I style)."""

    def __init__(self, weights: Sequence[float]) -> None:
        if not weights:
            raise ValidationError("weights must not be empty")
        if any(w < 0 for w in weights):
            raise ValidationError("weights must be non-negative")
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"fixed weights must sum to 1, got {total}")
        self._weights = list(weights)

    def weights(self, scores: Sequence[FeatureScore]) -> List[float]:
        """Pi weight per feature score, aligned by position."""
        if len(scores) != len(self._weights):
            raise ValidationError(
                f"expected {len(self._weights)} features, got {len(scores)}")
        return list(self._weights)


class CriteriaWeights(WeightingScheme):
    """Pi derived from R/A/T/V expert points, renormalized over non-empty."""

    def weights(self, scores: Sequence[FeatureScore]) -> List[float]:
        """Pi weight per feature score, aligned by position."""
        live_total = sum(s.criteria_points for s in scores if not s.empty)
        if live_total == 0:
            return [0.0] * len(scores)
        return [
            (0.0 if s.empty else s.criteria_points / live_total)
            for s in scores
        ]


class Heuristic:
    """A heuristic: a STIX type plus its ordered feature definitions."""

    def __init__(self, name: str, stix_type: str,
                 features: Sequence[FeatureDefinition],
                 weighting: Optional[WeightingScheme] = None) -> None:
        if not features:
            raise ValidationError(f"heuristic {name!r} needs at least one feature")
        names = [f.name for f in features]
        if len(set(names)) != len(names):
            raise ValidationError(f"heuristic {name!r} has duplicate feature names")
        self.name = name
        self.stix_type = stix_type
        self.features = list(features)
        self.weighting = weighting or CriteriaWeights()

    @property
    def feature_names(self) -> List[str]:
        """The ordered feature names of this heuristic."""
        return [f.name for f in self.features]

    def evaluate(self, context: EvaluationContext,
                 metrics: Optional[MetricsRegistry] = None) -> ThreatScoreResult:
        """Run every extractor, weight, and apply Equation 1.

        Evaluation is pure with respect to this heuristic and the context:
        nothing on the instance mutates, so one heuristic may evaluate many
        contexts in any order.  With a registry attached, the evaluation
        wall time feeds ``caop_heuristic_eval_seconds{heuristic=...}`` and
        the resulting threat score feeds the ``caop_threat_score``
        distribution.
        """
        started = time.perf_counter() if metrics is not None else 0.0
        raw: List[FeatureScore] = []
        for definition in self.features:
            value, label = definition.extractor(context)
            if value is not None:
                if not 0 <= value <= MAX_FEATURE_VALUE:
                    raise ValidationError(
                        f"{self.name}.{definition.name}: value {value} outside "
                        f"[0, {MAX_FEATURE_VALUE}]")
                if value == 0:
                    # The paper treats 0 / no-info as an empty feature
                    # (Table I, H2: X5=0 drops completeness to 4/5).
                    value = None
                    label = label or "no_info"
            raw.append(FeatureScore(
                feature=definition.name,
                value=value,
                attribute_label=label,
                relevance=definition.criteria.relevance,
                accuracy=definition.criteria.accuracy,
                timeliness=definition.criteria.timeliness,
                variety=definition.criteria.variety,
            ))
        result = score_features(self.name, raw, self.weighting)
        if metrics is not None:
            metrics.histogram(
                EVAL_SECONDS_METRIC,
                "Wall time of one heuristic evaluation",
            ).observe(time.perf_counter() - started, heuristic=self.name)
            metrics.histogram(
                THREAT_SCORE_METRIC,
                "Distribution of Equation 1 threat scores",
                buckets=SCORE_BUCKETS,
            ).observe(result.score, heuristic=self.name)
        return result


def score_features(heuristic_name: str, scores: Sequence[FeatureScore],
                   weighting: WeightingScheme) -> ThreatScoreResult:
    """Equation 1 over pre-extracted feature scores."""
    weights = weighting.weights(scores)
    weighted = [
        FeatureScore(
            feature=s.feature, value=s.value, attribute_label=s.attribute_label,
            relevance=s.relevance, accuracy=s.accuracy,
            timeliness=s.timeliness, variety=s.variety, weight=w,
        )
        for s, w in zip(scores, weights)
    ]
    total = len(weighted)
    non_empty = sum(1 for s in weighted if not s.empty)
    completeness = non_empty / total if total else 0.0
    weighted_sum = sum(s.contribution for s in weighted)
    return ThreatScoreResult(
        heuristic=heuristic_name,
        score=completeness * weighted_sum,
        completeness=completeness,
        weighted_sum=weighted_sum,
        features=tuple(weighted),
    )


def score_vector(values: Sequence[Optional[int]], weights: Sequence[float],
                 heuristic_name: str = "adhoc") -> ThreatScoreResult:
    """Table I-style scoring of a bare value vector with fixed weights.

    ``None`` or ``0`` marks an empty feature (reducing completeness).
    """
    if len(values) != len(weights):
        raise ValidationError("values and weights must have the same length")
    scores = []
    for index, value in enumerate(values):
        if value is not None and not 0 <= value <= MAX_FEATURE_VALUE:
            raise ValidationError(f"X{index + 1}={value} outside [0, {MAX_FEATURE_VALUE}]")
        empty = value is None or value == 0
        scores.append(FeatureScore(
            feature=f"X{index + 1}",
            value=None if empty else value,
            attribute_label="" if empty else "given",
            relevance=0, accuracy=0, timeliness=0, variety=0,
        ))
    return score_features(heuristic_name, scores, FixedWeights(weights))
