"""Per-feature relevance scores and the weighted feature-graph adjacency.

Each feature becomes a graph node. Node relevance comes from two supervised
scores (Fisher separation and a histogram mutual information estimate); edges
blend a rank-1 relevance product with a pairwise dispersion matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, column_blocks

# denominator floor for zero-variance Fisher scores
VARIANCE_FLOOR = 1e-12

# relevance scores only; an eigenvector reaches FeatureRanking as a plain array
SCORE_KINDS = ("fisher", "mutual_information")


@dataclass(frozen=True)
class ScoreVector:
    """One finite, non-negative score per feature, of a kind in SCORE_KINDS."""

    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ValueError("scores must form a non-empty vector")
        if not np.isfinite(values).all():
            raise ValueError("scores must be finite")
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        if values.min() < 0:
            raise ValueError(f"{self.kind} scores must be non-negative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


def default_bin_count(n_samples: int) -> int:
    """Histogram width rule when no bin count is given: max(2, floor(sqrt(T)))."""
    return max(2, int(math.floor(math.sqrt(n_samples))))


def fisher_scores(d: Dataset) -> ScoreVector:
    """Fisher separation score per feature.

    Two classes: squared mean gap over the summed class variances. More
    classes: sum of squared class-mean offsets from the overall mean, over the
    summed class variances. Variances are population (divide by class size).
    A zero denominator yields 0 when the numerator is 0, otherwise the
    numerator over a 1e-12 floor. Columns are scored in blocks (column_blocks),
    to the same bits as one pass over the whole matrix.
    """
    X, y = d.X, d.y
    members = [y == c for c in range(d.n_classes)]
    num = np.empty(d.n_features)
    den = np.empty(d.n_features)
    for cols in column_blocks(d.n_features, d.n_samples):
        block = X[:, cols]
        means = np.stack([block[rows].mean(axis=0) for rows in members])
        variances = np.stack([block[rows].var(axis=0) for rows in members])
        if d.n_classes == 2:
            num[cols] = (means[0] - means[1]) ** 2
            den[cols] = variances[0] + variances[1]
        else:
            num[cols] = ((means - block.mean(axis=0)) ** 2).sum(axis=0)
            den[cols] = variances.sum(axis=0)
    out = np.zeros(d.n_features)
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    floored = ~ok & (num > 0)
    out[floored] = num[floored] / VARIANCE_FLOOR
    return ScoreVector(out, "fisher")


def _ascending_sums(counts: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Row sums of L[counts], each taken strictly left to right over the row's
    counts sorted ascending. L[0] = 0, so zero cells add exact zeros ahead of
    every other term, and a sum depends only on the row's non-zero counts."""
    return np.cumsum(L[np.sort(counts, axis=1)], axis=1)[:, -1]


def _occupied_bins(z: np.ndarray) -> np.ndarray:
    """Renumber each column's distinct bin values 0, 1, ... in ascending order."""
    order = np.argsort(z, axis=0)
    zs = np.take_along_axis(z, order, axis=0)
    rank = np.zeros(z.shape, dtype=np.intp)
    np.cumsum(zs[1:] != zs[:-1], axis=0, out=rank[1:])
    codes = np.empty_like(rank)
    np.put_along_axis(codes, order, rank, axis=0)
    return codes


def _chunk_scores(block, y, C, bins, slots, L, t_hy) -> np.ndarray:
    """MI scores of a block of columns from one bincount of its joint tables."""
    T, m = block.shape
    lo, hi = block.min(axis=0), block.max(axis=0)
    live = lo < hi
    z = block - lo
    z /= np.where(live, hi - lo, 1.0)
    z *= bins
    np.floor(z, out=z)
    # the top edge joins the last bin; NaN, from a span that overflows, bin 0
    np.fmax(z, 0.0, out=z)
    np.fmin(z, bins - 1, out=z)
    codes = z.astype(np.intp) if bins <= T else _occupied_bins(z)
    codes *= C
    codes += y[:, None]
    codes += np.arange(m) * (slots * C)
    joint = np.bincount(codes.ravel(), minlength=m * slots * C).reshape(m, slots * C)
    s_b = _ascending_sums(joint.reshape(m, slots, C).sum(axis=2), L)
    score = (_ascending_sums(joint, L) - s_b + t_hy) / T
    return np.where(live, np.maximum(score, 0.0), 0.0)


def mutual_information_scores(d: Dataset, bins: int | None = None) -> ScoreVector:
    """Mutual information between each discretized feature and the labels.

    Each feature is cut into equal-width bins over its own [min, max], bin
    floor((x - lo) / (hi - lo) * bins) with the top edge in the last bin. With
    n_bc the joint bin/label counts, n_b and n_c their margins and
    L[k] = k log k (L[0] = 0), the natural-log MI is

        (sum L[n_bc] - sum L[n_b] + (L[T] - sum L[n_c])) / T.

    Each sum runs left to right over the sorted counts, so tables that are
    equal up to a permutation of bins or of classes give bit-equal scores,
    and features tie exactly when their tables do. Columns are scored in
    blocks of about CHUNK_CELLS table or sample cells (column_blocks), and a
    column's table has min(bins, T) bin slots (its occupied bins are
    renumbered when bins > T), so memory does not grow with n or bins.
    Constant features score 0; round-off can push a score a hair below zero,
    so scores are clamped at 0.
    ValueError if bins is below 2 or does not convert to a finite float.
    """
    if bins is None:
        bins = default_bin_count(d.n_samples)
    if bins < 2:
        raise ValueError(f"bins must be at least 2, got {bins}")
    try:
        finite = math.isfinite(bins)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"bins must convert to a finite float, got {bins}")
    X, y = d.X, d.y
    T, n = X.shape
    C = d.n_classes
    k = np.arange(1, T + 1)
    L = np.concatenate(([0.0], k * np.log(k)))
    t_hy = L[T] - _ascending_sums(np.bincount(y)[None], L)[0]
    slots = min(bins, T)
    out = np.zeros(n)
    for cols in column_blocks(n, max(T, slots * C)):
        out[cols] = _chunk_scores(X[:, cols], y, C, bins, slots, L, t_hy)
    return ScoreVector(out, "mutual_information")


def feature_spreads(d: Dataset) -> np.ndarray:
    """Population standard deviation s_i of each feature. The feature graph's
    dispersion edge (i, j) weighs max(s_i, s_j), in [0, 1] on normalized input.
    Taken in blocks of columns (column_blocks), to the bits of one pass."""
    out = np.empty(d.n_features)
    for cols in column_blocks(d.n_features, d.n_samples):
        out[cols] = d.X[:, cols].std(axis=0)
    return out


def _minmax_rescale(values: np.ndarray) -> tuple[np.ndarray, bool]:
    lo, hi = values.min(), values.max()
    if lo == hi:
        return np.zeros_like(values), True
    return (values - lo) / (hi - lo), False


@dataclass(frozen=True)
class AdjacencyMatrix:
    """The feature graph A = alpha * outer(fs, ms) + (1 - alpha) * Sigma with
    Sigma[i, j] = max(s_i, s_j), held as its vectors and never formed as n x n.

    fs, ms are the rescaled relevance scores, s the feature spreads. `A @ v`
    costs O(n) after one O(n log n) sort of s. degenerate_fisher / degenerate_mi
    flag score vectors that were constant and therefore rescaled to all zeros.
    """

    fs: np.ndarray
    ms: np.ndarray
    s: np.ndarray
    alpha: float
    degenerate_fisher: bool = False
    degenerate_mi: bool = False

    def __post_init__(self) -> None:
        for name in ("fs", "ms", "s"):
            v = np.array(getattr(self, name), dtype=float)
            if v.ndim != 1 or v.shape != np.shape(self.fs) or v.shape[0] < 1:
                raise ValueError("fs, ms and s must be non-empty vectors of one feature count")
            if not (np.isfinite(v).all() and v.min() >= 0):
                raise ValueError(f"{name} entries must be finite and non-negative")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        order = np.argsort(self.s, kind="stable")
        n_at_most = np.searchsorted(self.s[order], self.s, side="right")
        # equal spreads share one position, hence bit-equal Sigma products
        sorted_s = (order, self.s[order], n_at_most - 1, len(order) - n_at_most)
        object.__setattr__(self, "_sorted", sorted_s)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.s), len(self.s))

    def __matmul__(self, v) -> np.ndarray:
        """A v; (Sigma v)_i = s_i * sum(v_j : s_j <= s_i) + sum(s_j v_j : s_j > s_i)."""
        rank1 = self.alpha * float(self.ms @ v) * self.fs
        order, s_sorted, at_most, n_above = self._sorted
        vs = np.asarray(v, dtype=float)[order]
        # entry k of above sums s_j v_j over the k largest spreads
        above = np.append(0.0, np.cumsum((s_sorted * vs)[::-1]))
        return rank1 + (1.0 - self.alpha) * (self.s * np.cumsum(vs)[at_most] + above[n_above])

    def rows(self):
        """Yield the dense rows of A in order, each entry rounded exactly as
        alpha * (fs_i * ms_j) + (1 - alpha) * max(s_i, s_j)."""
        for fi, si in zip(self.fs, self.s):
            yield self.alpha * (fi * self.ms) + (1.0 - self.alpha) * np.maximum(si, self.s)

    def dump_text(self, path) -> None:
        """Row-major plain-text dump for debugging, written one row at a time."""
        with open(path, "w") as fh:
            for row in self.rows():
                np.savetxt(fh, row[None])


def build_adjacency(
    f: ScoreVector, m: ScoreVector, s: np.ndarray, alpha: float
) -> AdjacencyMatrix:
    """Blend the rank-1 relevance product with the dispersion graph of spreads s.

    Both score vectors are min-max rescaled to [0, 1] (a constant vector becomes
    all zeros and is flagged); the result is the operator of
    A = alpha * outer(f, m) + (1 - alpha) * Sigma, Sigma[i, j] = max(s_i, s_j).
    """
    fs, degenerate_f = _minmax_rescale(f.values)
    ms, degenerate_m = _minmax_rescale(m.values)
    return AdjacencyMatrix(fs, ms, s, alpha, degenerate_f, degenerate_m)
