"""Per-feature relevance scores and the weighted feature-graph adjacency.

Each feature becomes a graph node. Node relevance comes from two supervised
scores (Fisher separation and a histogram mutual information estimate); edges
blend a rank-1 relevance product with a pairwise dispersion matrix. The
scores are taken by centrality.score_features, one block of columns at a
time, from the helpers here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import column_blocks

# denominator floor for zero-variance Fisher scores
VARIANCE_FLOOR = 1e-12

def default_bin_count(n_samples: int) -> int:
    """Histogram width rule when no bin count is given: max(2, floor(sqrt(T)))."""
    return max(2, int(math.floor(math.sqrt(n_samples))))


def _finite(x) -> bool:
    """Whether x converts to a finite float; an integer past float64 does not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _fisher_terms(block: np.ndarray, members: list[np.ndarray]) -> tuple:
    """The Fisher numerator and denominator of each column of a block of rows,
    with members[c] the mask of class c's rows.

    Two classes: the squared gap between the class means, over the summed
    class variances. More classes: the summed squared offsets of the class
    means from the overall mean, over the summed class variances. Variances
    are population variances (divided by the class size). Each is an axis-0
    reduction, so a block of two or more columns has the bits of one pass
    over the whole matrix.
    """
    means = np.stack([block[rows].mean(axis=0) for rows in members])
    variances = np.stack([block[rows].var(axis=0) for rows in members])
    if len(members) == 2:
        return (means[0] - means[1]) ** 2, variances[0] + variances[1]
    return ((means - block.mean(axis=0)) ** 2).sum(axis=0), variances.sum(axis=0)


def _fisher_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The Fisher scores num / den, divided into num, which is returned
    read-only. A zero denominator gives the numerator over VARIANCE_FLOOR
    (1e-12): 0 when the numerator, a sum of squares, is 0 too."""
    ok = den > 0
    # divided in place where chosen, with no gathered copies of num and den
    np.divide(num, den, out=num, where=ok)
    np.divide(num, VARIANCE_FLOOR, out=num, where=~ok)
    num.setflags(write=False)
    return num


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
    """MI scores of a block of columns from one bincount of its joint tables.
    The block is binned in place, so it must be an array of the caller's own."""
    T, m = block.shape
    lo, hi = block.min(axis=0), block.max(axis=0)
    live = lo < hi
    z = np.subtract(block, lo, out=block)
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


def _mutual_information(read, n: int, y: np.ndarray, n_classes: int, bins) -> np.ndarray:
    """Mutual information between each of n columns and the labels y, each
    block of columns cols read as read(cols): a new len(y) x (columns in cols)
    array, which the scoring overwrites. The result is read-only.

    Each column is cut into equal-width bins over its own [min, max], bin
    floor((x - lo) / (hi - lo) * bins) with the top edge in the last bin. With
    n_bc the joint bin/label counts, n_b and n_c their margins and
    L[k] = k log k (L[0] = 0), the natural-log MI is

        (sum L[n_bc] - sum L[n_b] + (L[T] - sum L[n_c])) / T.

    Each sum runs left to right over the sorted counts, so tables that are
    equal up to a permutation of bins or of classes give bit-equal scores,
    and columns tie exactly when their tables do. Columns are scored in
    blocks of about CHUNK_CELLS table or sample cells (column_blocks), and a
    column's table has min(bins, T) bin slots (its occupied bins are
    renumbered when bins > T), so memory does not grow with n or bins.
    Constant columns score 0; round-off can push a score a hair below zero,
    so scores are clamped at 0.
    ValueError, before any column is read, unless bins is an integer of at
    least 2 that converts to a finite float.
    """
    if not _finite(bins):
        raise ValueError(f"bins must convert to a finite float, got {bins}")
    if not isinstance(bins, numbers.Integral) or bins < 2:
        raise ValueError(f"bins must be an integer of at least 2, got {bins!r}")
    T, C = len(y), n_classes
    k = np.arange(1, T + 1)
    L = np.concatenate(([0.0], k * np.log(k)))
    t_hy = L[T] - _ascending_sums(np.bincount(y)[None], L)[0]
    slots = min(bins, T)
    out = np.zeros(n)
    for cols in column_blocks(n, max(T, slots * C)):
        out[cols] = _chunk_scores(read(cols), y, C, bins, slots, L, t_hy)
    out.setflags(write=False)
    return out


def _dot(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> float:
    """x . y of two float vectors as numpy's pairwise sum of x * y, whose order
    is fixed in code; BLAS's dot sums in an order set by its thread count.
    x * y goes into out when given (it may be x or y), else a new array."""
    return float(np.add.reduce(np.multiply(x, y, out=out)))


def _minmax_rescale(values: np.ndarray) -> tuple[np.ndarray, bool]:
    lo, hi = values.min(), values.max()
    if lo == hi:
        return np.zeros_like(values), True
    out = np.subtract(values, lo)
    out /= hi - lo
    return out, False


def _run_ends(s_sorted: np.ndarray) -> np.ndarray:
    """For each position of an ascending vector, the last position holding an
    equal value: np.searchsorted(s_sorted, s_sorted, side="right") - 1, from a
    running minimum, right to left, over the positions where a run ends."""
    n = s_sorted.shape[0]
    last = np.arange(n)
    # a position equal to its right neighbour takes the next run end to its right
    last[:-1][s_sorted[1:] == s_sorted[:-1]] = n
    np.minimum.accumulate(last[::-1], out=last[::-1])
    return last


@dataclass(frozen=True, init=False, eq=False)
class AdjacencyMatrix:
    """The feature graph A = alpha * outer(fs, ms) + (1 - alpha) * Sigma with
    Sigma[i, j] = max(s_i, s_j), built from its scores and held as its vectors,
    never formed as n x n.

    AdjacencyMatrix(f, m, s, alpha) takes three non-empty vectors of one length,
    each finite and non-negative: the Fisher scores f, the MI scores m and the
    feature spreads s. It min-max rescales f and m to fs, ms in [0, 1]; a
    constant score vector becomes all zeros and sets degenerate_fisher /
    degenerate_mi. s is copied once, unless it is already a read-only vector
    that owns its data, as FeatureScores.spreads is: that vector is kept as
    it is, and its owner must not make it writable again, since the graph's
    sorted copy of it would then go stale unseen. fs, ms and s are read-only.
    `A @ v` costs O(n) after one O(n log n) sort of s.
    ValueError if a vector breaks those rules, or alpha is outside [0, 1].
    """

    fs: np.ndarray
    ms: np.ndarray
    s: np.ndarray
    alpha: float
    degenerate_fisher: bool
    degenerate_mi: bool

    def __init__(self, f, m, s, alpha: float) -> None:
        # f and m are kept only as their rescaled copies, so only s is copied,
        # and not when it is read-only and owns its data
        f, m, s = np.asarray(f, dtype=float), np.asarray(m, dtype=float), np.asarray(s, dtype=float)
        if s.flags.writeable or s.base is not None:
            s = s.copy()
        if s.ndim != 1 or s.shape[0] < 1 or not f.shape == m.shape == s.shape:
            raise ValueError("f, m and s must be non-empty vectors of one feature count")
        for name, v in (("f", f), ("m", m), ("s", s)):
            if not (np.isfinite(v).all() and v.min() >= 0):
                raise ValueError(f"{name} entries must be finite and non-negative")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        fs, degenerate_fisher = _minmax_rescale(f)
        ms, degenerate_mi = _minmax_rescale(m)
        for v in (fs, ms, s):
            v.setflags(write=False)
        order = np.argsort(s, kind="stable")
        s_sorted = s[order]
        # equal spreads share one position, the last, hence bit-equal Sigma products
        at_most = np.empty_like(order)
        at_most[order] = _run_ends(s_sorted)
        sorted_s = (order, s_sorted, at_most)
        for name, value in (("fs", fs), ("ms", ms), ("s", s), ("alpha", alpha),
                            ("degenerate_fisher", degenerate_fisher),
                            ("degenerate_mi", degenerate_mi), ("_sorted", sorted_s)):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.s), len(self.s))

    def __matmul__(self, v) -> np.ndarray:
        """A v; (Sigma v)_i = s_i * sum(v_j : s_j <= s_i) + sum(s_j v_j : s_j > s_i).
        Every sum runs in an order this code fixes, never in BLAS, so the bits
        do not depend on the BLAS thread count. ValueError unless v is a vector
        of one entry per feature."""
        v = np.asarray(v, dtype=float)
        if v.shape != self.s.shape:
            raise ValueError(f"A is {self.shape}, v has shape {v.shape}")
        out = np.empty(self.s.shape)
        self._product(v, out, np.empty(self.s.shape), np.empty(self.s.shape))
        return out

    def _product(self, v: np.ndarray, out: np.ndarray, work: np.ndarray,
                 sigma: np.ndarray) -> None:
        """A v into out, a vector distinct from v, with work and sigma as
        scratch: three n-vectors and no other allocation of n values."""
        order, s_sorted, at_most = self._sorted
        c = self.alpha * _dot(self.ms, v, out=work)
        np.take(v, order, out=work, mode="clip")
        # in sorted position k: s_k times the sum of v up to k, plus s_j v_j summed
        # from the largest spread down to position k + 1; then read at each
        # feature's last position among equal spreads
        np.cumsum(work, out=sigma)
        sigma *= s_sorted
        work *= s_sorted
        np.cumsum(work[:0:-1], out=work[:0:-1])
        sigma[:-1] += work[1:]
        np.take(sigma, at_most, out=out, mode="clip")
        out *= 1.0 - self.alpha
        out += np.multiply(self.fs, c, out=work)

    def rows(self):
        """Yield the dense rows of A in order, each entry rounded exactly as
        alpha * (fs_i * ms_j) + (1 - alpha) * max(s_i, s_j)."""
        for fi, si in zip(self.fs, self.s):
            yield self.alpha * (fi * self.ms) + (1.0 - self.alpha) * np.maximum(si, self.s)
