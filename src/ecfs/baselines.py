"""Single-score reference rankings for comparison against the graph method.

No command calls these: each is one call of score_features(d).ranking(...).
The module stays because the benchmark's tracer (perfbench/tracer.py) imports
every module in its LAYERS, this one included, so `perfbench/run.py --trace 1`
fails without it. The tracer also reads power_iteration's first argument by
its name, A.
"""

from __future__ import annotations

from .centrality import score_features
from .data import Dataset, FeatureRanking


def rank_by_fisher(d: Dataset) -> FeatureRanking:
    """Rank features by Fisher separation alone, on the normalized data."""
    return score_features(d).ranking("fisher")


def rank_by_mi(d: Dataset, bins: int | None = None) -> FeatureRanking:
    """Rank features by histogram mutual information alone, on the normalized data."""
    return score_features(d, bins).ranking("mi")
