"""Feature selection by eigenvector centrality on a feature graph, with an
evaluation harness (repeated-split AUC, selection stability, significance).

The public names load on first use: `import ecfs` imports numpy and no ecfs
module, and reading `ecfs.load_dataset` imports ecfs.data alone, so a program
compiles and runs only the modules whose names it reads.

When ecfs is the first to import numpy, and none of OpenBLAS's thread
variables is set, numpy loads OpenBLAS with one thread: ecfs's BLAS calls are
dot products and Grams of a few hundred rows, where a thread pool only costs
start-up time and idle spin. The variable is set for that import only, so the
environment and any subprocess see the caller's settings. No report depends
on the thread count either way.
"""

import importlib as _importlib
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

# each public name and the module that defines it, imported when the name is
# first read (PEP 562)
_EXPORTS = {
    "AdjacencyMatrix": "graph",
    "ClassCountError": "data",
    "Dataset": "data",
    "DatasetError": "data",
    "DEFAULT_ALPHA_GRID": "protocol",
    "DEFAULT_C_GRID": "protocol",
    "DEFAULT_CARDINALITIES": "protocol",
    "EigenResult": "centrality",
    "FeatureRanking": "data",
    "FeatureScores": "centrality",
    "LinearModel": "evaluation",
    "METHODS": "centrality",
    "NonFiniteValueError": "data",
    "NonNumericValueError": "data",
    "NormalizationStats": "data",
    "PowerIterationError": "centrality",
    "Protocol": "protocol",
    "SplitError": "evaluation",
    "SyntheticSpec": "data",
    "WorkerError": "forkjoin",
    "cross_validate": "evaluation",
    "default_bin_count": "graph",
    "derive_seed": "evaluation",
    "generate_synthetic": "data",
    "load_dataset": "data",
    "power_iteration": "centrality",
    "roc_auc": "evaluation",
    "run_evaluation": "evaluation",
    "run_stability": "evaluation",
    "score_features": "centrality",
    "split_indices": "evaluation",
    "stratified_fold_indices": "evaluation",
    "train_linear_classifiers": "evaluation",
    "two_sample_ttest": "evaluation",
}

__version__ = "0.1.0"

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
