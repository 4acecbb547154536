"""Slow, literal reference implementations that the tests check ecfs against.

None runs in the ecfs pipeline, and each checks the one implementation that
every command runs:
- matrix_power_oracle, the literal limit A^l e, checks power_iteration on a
  feature graph (it reads the graph's dense rows);
- adjacency_product_oracle and power_iteration_oracle take the operator's
  product and the solver's sweeps step by step, each into a new array, the
  bit-for-bit reference for the in-place product and the solver's reused
  buffers;
- kuncheva_index checks the stability curve pair by pair;
- normalization_oracle, fisher_oracle, spreads_oracle and mi_oracle take each
  statistic and score from one pass over a whole matrix (MI one column at a
  time), the reference for score_features, which takes them one block of
  columns at a time;
- subset, fit_normalization and normalize_features copy rows, fit their
  statistics and normalize them as separate steps over whole matrices, the
  reference for score_features(d, rows=...), which gathers, fits and
  normalizes one block of columns at a time.
ranking_of_order builds the FeatureRanking a given order comes from, for
stability tests.
"""

from collections import Counter

import numpy as np

from ecfs import (
    AdjacencyMatrix,
    Dataset,
    EigenResult,
    FeatureRanking,
    NormalizationStats,
    PowerIterationError,
    default_bin_count,
)


def subset(d: Dataset, rows) -> Dataset:
    """The given rows of d, in the given order, as a Dataset of their own with
    d's names; the constructor's checks reject a subset missing a class."""
    rows = np.asarray(rows, dtype=int)
    return Dataset(d.X[rows], d.y[rows], d.feature_names, d.label_names)


def fit_normalization(X: np.ndarray) -> NormalizationStats:
    """The shift-by-min / divide-by-sum statistics of each column of X, each from
    one reduction over the whole matrix (normalization_oracle)."""
    return NormalizationStats(*normalization_oracle(np.asarray(X, dtype=float)))


def normalize_features(d: Dataset) -> tuple[Dataset, NormalizationStats]:
    """d normalized on its own statistics, as a new Dataset, and the statistics."""
    stats = fit_normalization(d.X)
    Xn = stats._transform(d.X, slice(None))
    return Dataset(Xn, d.y, d.feature_names, d.label_names), stats


def ranking_of_order(order) -> FeatureRanking:
    """The FeatureRanking whose order is the given permutation: the feature at
    position i scores n - i."""
    order = np.asarray(order)
    values = np.empty(len(order))
    values[order] = np.arange(len(order), 0, -1)
    return FeatureRanking(values)


def _clamp_tiny_negatives(v: np.ndarray) -> np.ndarray:
    out = v.copy()
    out[(out < 0) & (out > -1e-12)] = 0.0
    return out


def matrix_power_oracle(A, l_max: int = 2**20, agree_tol: float = 1e-10) -> EigenResult:
    """Dominant eigenpair via the literal accessibility limit A^l e.

    Squares the matrix repeatedly (renormalizing each time to avoid overflow),
    doubling l until successive normalized A^l e directions agree within
    agree_tol in the max norm. lambda0 is the Rayleigh quotient of the limit
    direction under the original matrix. Independent of power_iteration by
    construction.
    """
    M = np.array(list(A.rows())) if isinstance(A, AdjacencyMatrix) else np.asarray(A, dtype=float)
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    n = M.shape[0]
    e = np.ones(n)
    if not M.any():
        return EigenResult(0.0, e / np.sqrt(n), 0, 0.0, degenerate=True)
    B = M.copy()
    l = 1
    w = B @ e
    w /= np.linalg.norm(w)  # row sums of a non-zero non-negative matrix cannot all vanish
    while l < l_max:
        B = B @ B
        peak = B.max()
        if peak == 0.0:
            # the matrix is nilpotent; A^l e is exactly zero from here on
            return EigenResult(0.0, _clamp_tiny_negatives(w), l, 0.0, degenerate=True)
        B /= peak
        l *= 2
        u = B @ e
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return EigenResult(0.0, _clamp_tiny_negatives(w), l, 0.0, degenerate=True)
        u /= nu
        if float(np.abs(u - w).max()) <= agree_tol:
            lam = float(u @ (M @ u))
            residual = float(np.linalg.norm(M @ u - lam * u))
            return EigenResult(lam, _clamp_tiny_negatives(u), l, residual)
        w = u
    raise PowerIterationError(
        f"successive directions still disagree at l = {l}",
        residual=float(np.abs(u - w).max()) if l > 1 else np.inf,
        iterations=l,
    )


def adjacency_product_oracle(A: AdjacencyMatrix, v: np.ndarray) -> np.ndarray:
    """A v in the operator's order of operations, each step into a new array,
    with each feature's last position among equal spreads from np.searchsorted."""
    order = np.argsort(A.s, kind="stable")
    s_sorted = A.s[order]
    at_most = np.searchsorted(s_sorted, A.s, side="right") - 1
    rank1 = A.alpha * float(np.add.reduce(A.ms * v)) * A.fs
    vs = v[order]
    sigma = s_sorted * np.cumsum(vs)
    sigma[:-1] += np.cumsum((s_sorted * vs)[:0:-1])[::-1]
    return rank1 + (1.0 - A.alpha) * sigma[at_most]


def power_iteration_oracle(A: AdjacencyMatrix, tol: float = 1e-10,
                           max_iter: int = 10000) -> EigenResult:
    """power_iteration's sweeps, each step into a new array, over
    adjacency_product_oracle."""
    n = A.shape[0]
    v = np.ones(n) / np.sqrt(n)
    w = adjacency_product_oracle(A, v)
    if not w.any():
        return EigenResult(0.0, v, 0, 0.0, degenerate=True)
    residual = np.inf
    for it in range(1, max_iter + 1):
        nrm = float(np.sqrt(np.add.reduce(w * w)))
        if nrm == 0.0:
            return EigenResult(0.0, v, it, 0.0, degenerate=True)
        v = w / nrm
        w = adjacency_product_oracle(A, v)
        lam = float(np.add.reduce(v * w))
        r = w - lam * v
        residual = float(np.sqrt(np.add.reduce(r * r)))
        if residual <= tol:
            return EigenResult(lam, v, it, residual)
    raise PowerIterationError("no convergence", residual=residual, iterations=max_iter)


def kuncheva_index(set_a, set_b, n_total: int) -> float:
    """Chance-corrected overlap of two equal-size feature subsets.

    1 for identical sets, 0 at the chance overlap k^2/N, and negative below
    it (-1 exactly for disjoint halves of the feature set).
    """
    a = set(int(i) for i in set_a)
    b = set(int(i) for i in set_b)
    if len(a) != len(set_a) or len(b) != len(set_b):
        raise ValueError("feature subsets must not contain duplicates")
    if len(a) != len(b):
        raise ValueError(f"subsets must have equal size, got {len(a)} and {len(b)}")
    k = len(a)
    if not 0 < k < n_total:
        raise ValueError(f"subset size must be in 1..{n_total - 1}, got {k}")
    if a | b:
        lo, hi = min(a | b), max(a | b)
        if lo < 0 or hi >= n_total:
            raise ValueError("subset contains an index outside 0..n_total-1")
    r = len(a & b)
    return (r * n_total - k * k) / (k * (n_total - k))


def normalization_oracle(X: np.ndarray):
    """(shift, scale, degenerate) of fit_normalization, each from one reduction
    over the whole matrix."""
    mins = X.min(axis=0)
    maxs = X.max(axis=0)
    degenerate = mins == maxs
    shift = np.where(mins < 0, -mins, 0.0)
    sums = (X + shift).sum(axis=0)
    scale = np.where(degenerate | (sums == 0), 1.0, sums)
    return shift, scale, degenerate


def fisher_oracle(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Fisher score of each column of X against labels y (as
    graph._fisher_terms and _fisher_ratio define it), each class mean and
    variance from one reduction over the whole matrix."""
    classes = range(int(y.max()) + 1)
    means = np.stack([X[y == c].mean(axis=0) for c in classes])
    variances = np.stack([X[y == c].var(axis=0) for c in classes])
    if len(classes) == 2:
        num = (means[0] - means[1]) ** 2
        den = variances[0] + variances[1]
    else:
        num = ((means - X.mean(axis=0)) ** 2).sum(axis=0)
        den = variances.sum(axis=0)
    out = np.zeros(X.shape[1])
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    floored = ~ok & (num > 0)
    out[floored] = num[floored] / 1e-12
    return out


def spreads_oracle(X: np.ndarray) -> np.ndarray:
    """The population standard deviation of each column of X, from one
    reduction over the whole matrix."""
    return X.std(axis=0)


def mi_oracle(X: np.ndarray, y: np.ndarray, bins: int | None = None) -> np.ndarray:
    """The histogram mutual information of each column of X with labels y, as
    graph._mutual_information defines it (bins defaults to default_bin_count),
    from each column's joint bin/label table counted on its own.

    Each sum of L[count] runs left to right over the table's counts in
    ascending order, as ecfs sums them, so a score has the bits that
    score_features gives the same normalized column.
    """
    X = np.asarray(X, dtype=float)
    T = len(y)
    if bins is None:
        bins = default_bin_count(T)
    k = np.arange(1, T + 1)
    L = np.concatenate(([0.0], k * np.log(k)))

    def ascending_sum(counts) -> float:
        total = 0.0
        for c in sorted(counts):
            total += L[c]
        return total

    labels = [int(c) for c in y]
    t_hy = L[T] - ascending_sum(Counter(labels).values())
    out = np.zeros(X.shape[1])
    for i, col in enumerate(X.T):
        lo, hi = col.min(), col.max()
        if lo == hi:
            continue
        # the top edge joins the last bin; NaN, from a span that overflows, bin 0
        z = np.fmin(np.fmax(np.floor((col - lo) / (hi - lo) * bins), 0.0), bins - 1).tolist()
        joint, margin = Counter(zip(z, labels)), Counter(z)
        score = (ascending_sum(joint.values()) - ascending_sum(margin.values()) + t_hy) / T
        out[i] = np.maximum(score, 0.0)
    return out
