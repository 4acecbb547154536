"""Principal-eigenvector computation and the end-to-end feature ranking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureRanking, NormalizationStats, _class_count, _row_indices
from .graph import (
    AdjacencyMatrix,
    _dot,
    _fisher_ratio,
    _fisher_terms,
    _mutual_information,
    default_bin_count,
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


def power_iteration(A, tol: float = 1e-10, max_iter: int = 10000) -> EigenResult:
    """Dominant right eigenpair of the feature graph A, an AdjacencyMatrix, by
    normalized power iteration.

    Starts from the all-ones direction and repeats v <- A v / ||A v|| until
    ||A v - lambda v|| <= tol with lambda the Rayleigh quotient v.(A v).

    A's constructor proved its vectors finite and non-negative, and a sweep
    only multiplies, adds and divides non-negative numbers, so v0 has no
    negative entry and is returned unclamped.

    The product, the norms and the Rayleigh quotient are numpy sums in an
    order fixed by this code rather than by the BLAS thread count, so the
    result's bits do not depend on that count.

    Raises:
        PowerIterationError: residual still above tol after max_iter sweeps;
            the exception carries the last residual.
        TypeError: A is not an AdjacencyMatrix.
        ValueError: a sweep overflowed float64, as entries near 1e200 do.
    """
    if not isinstance(A, AdjacencyMatrix):
        raise TypeError(f"A must be an AdjacencyMatrix, got {type(A).__name__}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n = A.shape[0]
    # v, A v, the residual and one scratch vector are the solve's only n-vectors
    v = np.ones(n)
    v /= np.sqrt(n)
    w, r, work = np.empty(n), np.empty(n), np.empty(n)
    try:
        # an overflow would turn v into zeros, whose residual of 0 would pass
        with np.errstate(over="raise"):
            A._product(v, w, work, r)
            if not w.any():
                # A is non-negative and v positive, so A v = 0 only when A = 0
                return EigenResult(0.0, v, 0, 0.0, degenerate=True)
            residual = np.inf
            for it in range(1, max_iter + 1):
                nrm = float(np.sqrt(_dot(w, w, out=r)))
                if nrm == 0.0:
                    # the current direction is annihilated; every eigenvalue on this
                    # path is 0, so report the last direction with lambda0 = 0
                    return EigenResult(0.0, v, it, 0.0, degenerate=True)
                np.divide(w, nrm, out=v)
                A._product(v, w, work, r)
                lam = _dot(v, w, out=r)
                # r = w - lam v
                np.subtract(w, np.multiply(v, lam, out=r), out=r)
                residual = float(np.sqrt(_dot(r, r, out=r)))
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
    """Fisher scores, mutual-information scores and spreads of rows of a dataset.

    `source` is the dataset, `rows` a read-only copy of the scored rows'
    indices into it and `y` their labels; `stats` are the normalization
    statistics fitted on those rows, which map any of source's rows into the
    representation the scores were taken in. No normalized matrix is held:
    all three vectors come from score_features' one pass over the columns, and
    every ranking taken from one instance (`ranking` or `centrality`, for any
    method and any alpha) shares that pass.
    """

    source: Dataset
    rows: np.ndarray
    y: np.ndarray
    stats: NormalizationStats
    bins: int
    fisher: np.ndarray
    mutual_information: np.ndarray
    spreads: np.ndarray

    def centrality(
        self, alpha: float, tol: float = 1e-10, max_iter: int = 10000
    ) -> tuple[FeatureRanking, EigenResult, AdjacencyMatrix]:
        """The ec_fs ranking at alpha, with the eigenpair and the feature graph
        behind it: AdjacencyMatrix(fisher, mutual_information, spreads, alpha),
        its dominant eigenvector by power_iteration(tol, max_iter), and the
        ranking of that eigenvector.

        Raises what power_iteration raises.
        """
        return _centrality(self.fisher, self.mutual_information, self.spreads, alpha, tol,
                           max_iter)

    def ranking(self, method: str, alpha: float | None = None) -> FeatureRanking:
        """The ranking a method in METHODS gives; only ec_fs reads alpha."""
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        if method == "ec_fs":
            if alpha is None:
                raise ValueError("ec_fs needs an alpha in [0, 1]")
            return self.centrality(alpha)[0]
        return FeatureRanking(self.fisher if method == "fisher" else self.mutual_information)


def _centrality(fisher, mi, spreads, alpha: float, tol: float, max_iter: int) -> tuple:
    """FeatureScores.centrality of the score vectors alone, for a caller that
    lets the rest of the FeatureScores, and the dataset it holds, go first."""
    adjacency = AdjacencyMatrix(fisher, mi, spreads, alpha)
    eigen = power_iteration(adjacency, tol=tol, max_iter=max_iter)
    return FeatureRanking(eigen.v0), eigen, adjacency


def score_features(d: Dataset, bins: int | None = None, rows=None) -> FeatureScores:
    """Score rows of d (indices in the order given; all rows when None),
    normalized on their own statistics, once for every ranking taken from the
    result.

    One pass over the columns, in MI's blocks (column_blocks), gathers each
    block of those rows from d.X, fits the block's statistics, normalizes it
    in place, takes its Fisher terms and spreads, then bins it in place for
    its MI scores; no copy of all the rows is made. ValueError unless rows is
    a non-empty 1-D integer array of indices into d; a class left with no row
    raises ClassCountError, as a Dataset of those rows would.

    bins defaults to max(2, floor(sqrt(T))) of the row count T. ValueError,
    before any column is read, unless bins is an integer of at least 2 that
    converts to a finite float.
    """
    rows = _row_indices(rows, d.n_samples)
    y = d.y[rows]
    n_classes = _class_count(y, d.label_names)
    members = [y == c for c in range(n_classes)]
    n = d.n_features
    stats = NormalizationStats(np.empty(n), np.empty(n), np.empty(n, dtype=bool))
    num, den, spreads = np.empty(n), np.empty(n), np.empty(n)

    def read(cols: slice) -> np.ndarray:
        # Fisher and the spreads are taken before MI bins the block in place
        block = d.X[rows, cols]
        stats._fit_transform(block, cols)
        num[cols], den[cols] = _fisher_terms(block, members)
        spreads[cols] = block.std(axis=0)
        return block

    if bins is None:
        bins = default_bin_count(len(rows))
    mi = _mutual_information(read, n, y, n_classes, bins)
    y.setflags(write=False)
    spreads.setflags(write=False)
    return FeatureScores(d, rows, y, stats, bins, _fisher_ratio(num, den), mi, spreads)
