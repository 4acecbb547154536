"""Feature selection by eigenvector centrality on a feature graph, with an
evaluation harness (repeated-split AUC, selection stability, significance).

When ecfs is the first to import numpy, and none of OpenBLAS's thread
variables is set, numpy loads OpenBLAS with one thread: ecfs's BLAS calls are
dot products and Grams of a few hundred rows, where a thread pool only costs
start-up time and idle spin. The variable is set for that import only, so the
environment and any subprocess see the caller's settings. No report depends
on the thread count either way.
"""

import os as _os
import sys as _sys

# OpenBLAS takes its thread count from the first of these that is set
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .baselines import rank_by_fisher, rank_by_mi
from .centrality import (
    EigenResult,
    FeatureScores,
    PowerIterationError,
    power_iteration,
    score_features,
)
from .data import (
    ClassCountError,
    Dataset,
    DatasetError,
    FeatureRanking,
    NonFiniteValueError,
    NonNumericValueError,
    NormalizationStats,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
)
from .evaluation import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_C_GRID,
    DEFAULT_CARDINALITIES,
    METHODS,
    LinearModel,
    SplitError,
    SplitPlan,
    cross_validate,
    derive_seed,
    roc_auc,
    run_evaluation,
    run_stability,
    split_indices,
    stability_curve,
    stratified_fold_indices,
    train_linear_classifiers,
    two_sample_ttest,
)
from .graph import (
    AdjacencyMatrix,
    default_bin_count,
    feature_spreads,
    fisher_scores,
    mutual_information_scores,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix",
    "ClassCountError",
    "Dataset",
    "DatasetError",
    "DEFAULT_ALPHA_GRID",
    "DEFAULT_C_GRID",
    "DEFAULT_CARDINALITIES",
    "EigenResult",
    "FeatureRanking",
    "FeatureScores",
    "LinearModel",
    "METHODS",
    "NonFiniteValueError",
    "NonNumericValueError",
    "NormalizationStats",
    "PowerIterationError",
    "SplitError",
    "SplitPlan",
    "SyntheticSpec",
    "cross_validate",
    "default_bin_count",
    "derive_seed",
    "feature_spreads",
    "fisher_scores",
    "generate_synthetic",
    "load_dataset",
    "mutual_information_scores",
    "power_iteration",
    "rank_by_fisher",
    "rank_by_mi",
    "roc_auc",
    "run_evaluation",
    "run_stability",
    "score_features",
    "split_indices",
    "stability_curve",
    "stratified_fold_indices",
    "train_linear_classifiers",
    "two_sample_ttest",
]
