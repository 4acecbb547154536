"""Principal-eigenvector computation and the end-to-end feature ranking."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset, FeatureRanking, NormalizationStats, fit_normalization
from .graph import (
    AdjacencyMatrix,
    default_bin_count,
    feature_spreads,
    fisher_scores,
    mutual_information_scores,
)

METHODS = ("ec_fs", "fisher", "mi")


class PowerIterationError(RuntimeError):
    """Iteration budget exhausted before the residual dropped below tolerance.

    Usually means the two largest eigenvalue magnitudes are nearly tied.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations

    def __reduce__(self):
        # the default rebuilds from self.args alone, which lacks the diagnostics;
        # a worker process's error must reach the parent whole
        return type(self), (self.args[0], self.residual, self.iterations)


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Dominant eigenpair with convergence diagnostics.

    degenerate marks inputs with no usable dominant direction (zero matrix, or
    an iterate annihilated by the matrix); lambda0 is 0 there.
    """

    lambda0: float
    v0: np.ndarray
    iterations: int
    residual: float
    degenerate: bool = False


def _as_matrix(A) -> np.ndarray:
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    if M.min() < 0:
        raise ValueError("matrix entries must be non-negative")
    return M


def power_iteration(A, tol: float = 1e-10, max_iter: int = 10000) -> EigenResult:
    """Dominant right eigenpair by normalized power iteration.

    Starts from the all-ones direction and repeats v <- A v / ||A v|| until
    ||A v - lambda v|| <= tol with lambda the Rayleigh quotient v.(A v).

    A is validated non-negative and a sweep only multiplies, adds and divides
    non-negative numbers, so v0 has no negative entry and is returned unclamped.

    Raises:
        PowerIterationError: residual still above tol after max_iter sweeps;
            the exception carries the last residual.
        ValueError: a sweep overflowed float64, as entries near 1e200 do.
    """
    # an AdjacencyMatrix's constructor proved its vectors finite and non-negative
    M = A if isinstance(A, AdjacencyMatrix) else _as_matrix(A)
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n = M.shape[0]
    v = np.ones(n) / np.sqrt(n)
    try:
        # an overflow would turn v into zeros, whose residual of 0 would pass
        with np.errstate(over="raise"):
            w = M @ v
            if not w.any():
                # M is non-negative and v positive, so M v = 0 only when M = 0
                return EigenResult(0.0, v, 0, 0.0, degenerate=True)
            residual = np.inf
            for it in range(1, max_iter + 1):
                nrm = float(np.linalg.norm(w))
                if nrm == 0.0:
                    # the current direction is annihilated; every eigenvalue on this
                    # path is 0, so report the last direction with lambda0 = 0
                    return EigenResult(0.0, v, it, 0.0, degenerate=True)
                v = w / nrm
                w = M @ v
                lam = float(v @ w)
                residual = float(np.linalg.norm(w - lam * v))
                if residual <= tol:
                    return EigenResult(lam, v, it, residual)
    except FloatingPointError as e:
        raise ValueError(f"power iteration overflowed float64: {e}") from e
    raise PowerIterationError(
        f"no convergence after {max_iter} iterations (residual {residual:.3e})",
        residual=residual,
        iterations=max_iter,
    )


@dataclass(frozen=True, eq=False)
class FeatureScores:
    """Fisher scores, mutual-information scores and spreads of one dataset's rows.

    `data` holds the rows normalized and `stats` the statistics fitted on them,
    which map held-out rows into the same representation. Each vector is a
    read-only array, computed on first use and then reused, so every ranking
    taken from one instance (`ranking` or `centrality`, for any method and any
    alpha) shares one scoring pass, and Fisher-only callers never pay for MI.
    """

    data: Dataset
    stats: NormalizationStats
    bins: int

    @cached_property
    def fisher(self) -> np.ndarray:
        return fisher_scores(self.data)

    @cached_property
    def mutual_information(self) -> np.ndarray:
        return mutual_information_scores(self.data, self.bins)

    @cached_property
    def spreads(self) -> np.ndarray:
        return feature_spreads(self.data)

    def centrality(
        self, alpha: float, tol: float = 1e-10, max_iter: int = 10000
    ) -> tuple[FeatureRanking, EigenResult, AdjacencyMatrix]:
        """The ec_fs ranking at alpha, with the eigenpair and the feature graph
        behind it: AdjacencyMatrix(fisher, mutual_information, spreads, alpha),
        its dominant eigenvector by power_iteration(tol, max_iter), and the
        ranking of that eigenvector.

        Raises what power_iteration raises.
        """
        adjacency = AdjacencyMatrix(self.fisher, self.mutual_information, self.spreads, alpha)
        eigen = power_iteration(adjacency, tol=tol, max_iter=max_iter)
        return FeatureRanking(eigen.v0), eigen, adjacency

    def ranking(self, method: str, alpha: float | None = None) -> FeatureRanking:
        """The ranking a method in METHODS gives; only ec_fs reads alpha."""
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        if method == "ec_fs":
            if alpha is None:
                raise ValueError("ec_fs needs an alpha in [0, 1]")
            return self.centrality(alpha)[0]
        return FeatureRanking(self.fisher if method == "fisher" else self.mutual_information)


def score_features(d: Dataset, bins: int | None = None, rows=None) -> FeatureScores:
    """Normalize rows of d (indices in the order given; all rows when None) on
    their own statistics and score them once, for every ranking taken from the
    result. The rows are gathered once and that copy is normalized in place;
    a class left with no row raises ClassCountError, as a Dataset of them would.

    bins defaults to max(2, floor(sqrt(T))) of the row count T.
    """
    rows = np.arange(d.n_samples) if rows is None else np.asarray(rows, dtype=int)
    X = d.X[rows]
    stats = fit_normalization(X)
    data = Dataset._own(stats.transform(X, out=X), d.y[rows], d.feature_names, d.label_names)
    if bins is None:
        bins = default_bin_count(data.n_samples)
    return FeatureScores(data, stats, bins)
