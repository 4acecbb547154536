"""Slow, literal reference implementations that the tests check ecfs against.

Neither runs in the ecfs pipeline: matrix_power_oracle cross-checks
power_iteration, and kuncheva_index cross-checks stability_curve pair by pair.
"""

import numpy as np

from ecfs import AdjacencyMatrix, EigenResult, PowerIterationError


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
