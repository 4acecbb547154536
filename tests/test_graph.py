import math
import tracemalloc

import numpy as np
import pytest

from ecfs import (
    AdjacencyMatrix,
    Dataset,
    FeatureRanking,
    default_bin_count,
    power_iteration,
    score_features,
)
from ecfs.graph import _run_ends
from oracles import adjacency_product_oracle, mi_oracle, normalize_features


def _ds(X, y):
    return Dataset(np.asarray(X, dtype=float), np.asarray(y, dtype=int))


def _fisher_reference(X, y):
    """Straight-line reimplementation used as an independent check."""
    T, n = X.shape
    classes = sorted(set(int(c) for c in y))
    out = []
    for i in range(n):
        col = X[:, i]
        mus, sig2s, sizes = [], [], []
        for c in classes:
            vals = [col[t] for t in range(T) if y[t] == c]
            mu = sum(vals) / len(vals)
            mus.append(mu)
            sig2s.append(sum((v - mu) ** 2 for v in vals) / len(vals))
            sizes.append(len(vals))
        if len(classes) == 2:
            num = (mus[0] - mus[1]) ** 2
            den = sig2s[0] + sig2s[1]
        else:
            overall = sum(col) / T
            num = sum((mu - overall) ** 2 for mu in mus)
            den = sum(sig2s)
        if den > 0:
            out.append(num / den)
        else:
            out.append(0.0 if num == 0 else num / 1e-12)
    return np.array(out)


def _mi_reference(col, y, bins):
    """Dict-and-loop histogram MI, natural log."""
    T = len(col)
    lo, hi = min(col), max(col)
    if lo == hi:
        return 0.0
    joint: dict = {}
    for v, label in zip(col, y):
        z = min(int(math.floor((v - lo) / (hi - lo) * bins)), bins - 1)
        joint[(z, int(label))] = joint.get((z, int(label)), 0) + 1
    pz: dict = {}
    py: dict = {}
    for (z, label), c in joint.items():
        pz[z] = pz.get(z, 0) + c
        py[label] = py.get(label, 0) + c
    total = 0.0
    for (z, label), c in joint.items():
        pzy = c / T
        total += pzy * math.log(pzy / ((pz[z] / T) * (py[label] / T)))
    return max(total, 0.0)


def _fisher(d):
    return score_features(d).fisher


def _mi(d, bins=None):
    return score_features(d, bins).mutual_information


class TestFisherScores:
    """Fisher scores as score_features takes them, on the normalized columns.
    A score does not change under a column's shift and scale, so up to
    round-off the hand values are those of the raw columns, except where the
    1e-12 floor applies."""

    def test_two_class_hand_value(self):
        # class means 1 and 0, both population variances 0.5 -> score 1.0
        b = math.sqrt(0.5)
        d = _ds([[1 - b], [1 + b], [-b], [b]], [0, 0, 1, 1])
        assert _fisher(d)[0] == pytest.approx(1.0, abs=1e-12)

    def test_three_class_hand_value(self):
        # class means 0,1,2 each with population variance 0.5, overall mean 1
        # numerator (1 + 0 + 1), denominator 1.5 -> 4/3
        a = math.sqrt(0.5)
        rows = [[0 - a], [0 + a], [1 - a], [1 + a], [2 - a], [2 + a]]
        d = _ds(rows, [0, 0, 1, 1, 2, 2])
        assert _fisher(d)[0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("seed,classes", [(0, 2), (1, 3), (2, 4), (3, 3), (4, 5)])
    def test_matches_reference_implementation(self, seed, classes):
        rng = np.random.default_rng(seed)
        T = 8 * classes
        X = rng.normal(size=(T, 6))
        y = np.arange(T) % classes
        d = _ds(X, y)
        np.testing.assert_allclose(_fisher(d), _fisher_reference(X, y),
                                   rtol=1e-10, atol=1e-12)

    def test_zero_numerator_gives_zero(self):
        # equal class means with real spread: score must be exactly 0
        d = _ds([[0.0], [2.0], [0.0], [2.0]], [0, 0, 1, 1])
        assert _fisher(d)[0] == 0.0

    def test_zero_denominator_uses_floor(self):
        # feature equal to the label, normalized to 0, 0, 1/2, 1/2: zero
        # within-class variance, mean gap 1/2
        d = _ds([[0.0], [0.0], [1.0], [1.0]], [0, 0, 1, 1])
        assert _fisher(d)[0] == 0.25 / 1e-12

    def test_constant_feature_scores_zero(self):
        d = _ds([[3.0, 0.0], [3.0, 1.0], [3.0, 0.5], [3.0, 2.0]], [0, 0, 1, 1])
        assert _fisher(d)[0] == 0.0

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 5))
        y = np.arange(30) % 3
        perm = rng.permutation(30)
        a = _fisher(_ds(X, y))
        b = _fisher(_ds(X[perm], y[perm]))
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 4))
        y = np.arange(20) % 2
        a = _fisher(_ds(X, y))
        b = _fisher(_ds(X + 7.25, y))
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(20, 4))
        y = np.arange(20) % 2
        a = _fisher(_ds(X, y))
        exact = _fisher(_ds(X * 4.0, y))  # power of two: no rounding
        np.testing.assert_array_equal(a, exact)
        close = _fisher(_ds(X * 3.0, y))
        np.testing.assert_allclose(a, close, rtol=1e-12)


def _mi_per_feature_loop(d, bins):
    """The per-feature histogram loop that the vectorized pass replaced."""
    X, y = d.X, d.y
    T = d.n_samples
    C = d.n_classes
    p_label = np.bincount(y, minlength=C) / T
    out = np.zeros(d.n_features)
    for i in range(d.n_features):
        col = X[:, i]
        lo, hi = col.min(), col.max()
        if lo == hi:
            continue
        z = np.floor((col - lo) / (hi - lo) * bins).astype(int)
        np.clip(z, 0, bins - 1, out=z)
        joint = np.bincount(z * C + y, minlength=bins * C).reshape(bins, C) / T
        p_bin = joint.sum(axis=1)
        nz = joint > 0
        ratio = joint[nz] / (np.outer(p_bin, p_label)[nz])
        out[i] = max(float((joint[nz] * np.log(ratio)).sum()), 0.0)
    return out


class TestMutualInformation:
    """MI scores as score_features takes them, on the normalized columns; the
    references bin the same normalized columns."""

    def test_constant_feature_scores_zero(self):
        d = _ds([[1.0], [1.0], [1.0], [1.0]], [0, 0, 1, 1])
        assert _mi(d, bins=4)[0] == 0.0

    def test_perfect_predictor_reaches_log2(self):
        d = _ds([[0.0], [1.0], [0.0], [1.0]], [0, 1, 0, 1])
        got = _mi(d, bins=2)[0]
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_independent_feature_stays_small(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(1000, 1))
        y = np.arange(1000) % 2
        got = _mi(_ds(X, y), bins=10)[0]
        assert 0.0 <= got < 0.05

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_implementation(self, seed):
        rng = np.random.default_rng(seed)
        T = 60
        X = rng.normal(size=(T, 5))
        y = np.asarray(np.arange(T) % 3)
        got = _mi(_ds(X, y), bins=6)
        Xn = normalize_features(_ds(X, y))[0].X
        want = [_mi_reference(Xn[:, i].tolist(), y.tolist(), 6) for i in range(5)]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_default_bin_rule(self):
        assert default_bin_count(200) == 14
        assert default_bin_count(3) == 2
        assert default_bin_count(100) == 10

    def test_bins_below_two_or_not_an_integer_rejected(self):
        # a float count, even a whole one, must not reach np.bincount's integer codes
        d = _ds([[0.0], [1.0], [3.0], [2.0]], [0, 1, 0, 1])
        for bins in (1, 3.0, np.float64(3), 2.5):
            with pytest.raises(ValueError, match="bins must be an integer of at least 2"):
                score_features(d, bins=bins)
        assert _mi(d, bins=np.int64(3)).tobytes() == _mi(d, bins=3).tobytes()

    def test_bins_that_overflow_a_float_rejected(self):
        d = _ds([[0.0], [1.0], [3.0], [2.0]], [0, 1, 0, 1])
        for bins in (10**400, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite float"):
                score_features(d, bins=bins)
        # the largest power of ten that is still a finite float scores as usual
        assert _mi(d, bins=10**308)[0] == np.log(2)

    def test_nonnegative_on_random_data(self):
        rng = np.random.default_rng(5)
        d = _ds(rng.normal(size=(40, 8)), np.arange(40) % 2)
        assert _mi(d, bins=5).min() >= 0.0

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 4))
        y = np.arange(50) % 2
        perm = rng.permutation(50)
        a = _mi(_ds(X, y), bins=7)
        b = _mi(_ds(X[perm], y[perm]), bins=7)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("T, n, classes, bins", [
        (41, 300, 2, None), (62, 200, 2, 2), (60, 150, 3, 6), (12, 40, 3, 50), (7, 9, 2, 7),
    ])
    def test_matches_per_feature_loop(self, T, n, classes, bins):
        rng = np.random.default_rng(T + n)
        X = rng.normal(size=(T, n))
        X[:, 3::11] = 0.25  # constant columns
        X[:, 5::7] = np.round(X[:, 5::7])  # few distinct values, many shared bins
        d = _ds(X, np.arange(T) % classes)
        got = _mi(d, bins)
        dn = normalize_features(d)[0]
        want = _mi_per_feature_loop(dn, bins or default_bin_count(T))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert (got[3::11] == 0.0).all()
        # and bit for bit, with the sums of the sorted counts taken in order
        assert got.tobytes() == mi_oracle(dn.X, dn.y, bins).tobytes()

    def test_class_relabeling_gives_bit_equal_scores(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(45, 60))
        y = rng.permutation(np.arange(45) % 3)
        a = _mi(_ds(X, y), bins=5)
        for relabel in ([1, 2, 0], [2, 1, 0], [0, 2, 1]):
            b = _mi(_ds(X, np.asarray(relabel)[y]), bins=5)
            np.testing.assert_array_equal(a, b)

    def test_column_permutation_permutes_scores_bit_for_bit(self):
        # 20000 columns span several chunks, so a column's score must not
        # depend on which chunk, or which place in it, the column falls in
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 20_000))
        y = np.arange(30) % 2
        perm = rng.permutation(20_000)
        a = _mi(_ds(X, y), bins=4)
        b = _mi(_ds(X[:, perm], y), bins=4)
        np.testing.assert_array_equal(a[perm], b)

    def test_bin_permuted_tables_tie_toward_smaller_index(self):
        # integer levels 0..5, each present, are the bins at bins=6; column
        # 2j + 1 holds column 2j's levels under a permutation, so the two
        # joint tables are equal up to the order of their bins
        rng = np.random.default_rng(12)
        T, pairs, levels = 60, 40, 6
        base = rng.integers(0, levels, size=(T, pairs)).astype(float)
        base[:levels] = np.arange(levels)[:, None]
        X = np.empty((T, 2 * pairs))
        for j in range(pairs):
            X[:, 2 * j] = base[:, j]
            X[:, 2 * j + 1] = rng.permutation(levels)[base[:, j].astype(int)]
        y = rng.permutation(np.arange(T) % 3)
        mi = _mi(_ds(X, y), bins=levels)
        np.testing.assert_array_equal(mi[0::2], mi[1::2])
        position = np.argsort(FeatureRanking(mi).order)
        assert (position[0::2] < position[1::2]).all()

    def test_memory_does_not_grow_with_feature_count(self):
        # X alone is 48 MB; the chunked pass keeps its temporaries near CHUNK_CELLS
        # (2^14) cells, a few 128 KiB blocks
        rng = np.random.default_rng(13)
        d = _ds(rng.random((30, 200_000)), np.arange(30) % 2)
        tracemalloc.start()
        try:
            _mi(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _rescaled(values):
    values = np.asarray(values, dtype=float)
    return (values - values.min()) / (values.max() - values.min())


def _dense(adj):
    return np.array(list(adj.rows()))


class TestSigmaMatrix:
    """Sigma_ij = max(s_i, s_j), held as the spread vector s."""

    def test_pairwise_max_rule(self):
        # columns that sum to 1, so normalize to themselves, built to have
        # population std devs 0.1 and 0.3
        d = _ds([[0.5 - 0.1, 0.5 - 0.3], [0.5 + 0.1, 0.5 + 0.3]], [0, 1])
        s = score_features(d).spreads
        np.testing.assert_allclose(s, [0.1, 0.3], rtol=1e-12)
        f, m = np.zeros(2), np.zeros(2)
        np.testing.assert_allclose(_dense(AdjacencyMatrix(f, m, s, 0.0)),
                                   [[0.1, 0.3], [0.3, 0.3]], rtol=1e-12)

    def test_symmetric_nonnegative_bounded_on_normalized_input(self):
        rng = np.random.default_rng(8)
        s = score_features(_ds(rng.normal(size=(25, 9)), np.arange(25) % 2)).spreads
        assert s.shape == (9,)
        assert s.min() >= 0.0
        assert s.max() <= 1.0
        f = rng.random(9)
        S = _dense(AdjacencyMatrix(f, f, s, 0.0))
        np.testing.assert_array_equal(S, S.T)

    def test_constant_features_produce_zero_rows(self):
        d = _ds([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]], [0, 1, 0, 1])
        assert not score_features(d).spreads.any()


class TestBuildAdjacency:
    def _fm(self):
        f = np.array([0.0, 1.0])
        m = np.array([1.0, 0.0])
        return f, m

    def test_hand_example(self):
        # Sigma = [[0.2, 0.5], [0.5, 0.5]], outer(f, m) = [[0, 0], [1, 0]]
        f, m = self._fm()
        A = _dense(AdjacencyMatrix(f, m, np.array([0.2, 0.5]), 0.5))
        np.testing.assert_allclose(A, [[0.1, 0.25], [0.75, 0.25]], rtol=1e-15)

    def test_alpha_boundaries(self):
        f, m = self._fm()
        s = np.array([0.2, 0.5])
        np.testing.assert_array_equal(_dense(AdjacencyMatrix(f, m, s, 0.0)),
                                      np.maximum.outer(s, s))
        np.testing.assert_array_equal(_dense(AdjacencyMatrix(f, m, s, 1.0)),
                                      np.outer([0.0, 1.0], [1.0, 0.0]))

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.77, 0.9])
    def test_blend_identity(self, alpha):
        rng = np.random.default_rng(30)
        n = 6
        f = rng.random(n)
        m = rng.random(n)
        s = rng.random(n)
        A = _dense(AdjacencyMatrix(f, m, s, alpha))
        want = alpha * np.outer(_rescaled(f), _rescaled(m)) + (
            1 - alpha
        ) * np.maximum.outer(s, s)
        np.testing.assert_array_equal(A, want)

    def test_alpha_out_of_range(self):
        f, m = self._fm()
        for bad in (-0.1, 1.5, np.nan):
            with pytest.raises(ValueError, match="alpha"):
                AdjacencyMatrix(f, m, np.zeros(2), bad)

    def test_constant_scores_flagged_and_zeroed(self):
        f = np.array([0.5, 0.5])
        m = np.array([0.0, 1.0])
        adj = AdjacencyMatrix(f, m, np.zeros(2), 1.0)
        assert adj.degenerate_fisher and not adj.degenerate_mi
        assert not _dense(adj).any()
        assert not (adj @ np.ones(2)).any()

    def test_entries_bounded_for_normalized_scores(self):
        rng = np.random.default_rng(31)
        n = 10
        f = rng.random(n) * 100
        m = rng.random(n)
        A = _dense(AdjacencyMatrix(f, m, rng.random(n), 0.4))
        assert A.min() >= 0.0 and A.max() <= 1.0

    def test_shape_mismatch_rejected(self):
        f, m = self._fm()
        with pytest.raises(ValueError, match="feature count"):
            AdjacencyMatrix(f, m, np.zeros(3), 0.5)
        with pytest.raises(ValueError, match="feature count"):
            AdjacencyMatrix(f, m, np.zeros((2, 2)), 0.5)
        m3 = np.array([1.0, 0.0, 0.5])
        for s in (np.zeros(2), np.zeros(3)):
            with pytest.raises(ValueError, match="feature count"):
                AdjacencyMatrix(f, m3, s, 0.5)
        with pytest.raises(ValueError, match="feature count"):
            AdjacencyMatrix(f[:, None], m, np.zeros(2), 0.5)
        with pytest.raises(ValueError, match="non-empty"):
            AdjacencyMatrix(np.zeros(0), np.zeros(0), np.zeros(0), 0.5)

    def test_holds_frozen_vectors_of_its_own(self):
        # s is copied once, so the caller's array stays its own and writable
        f, m = self._fm()
        s = np.array([0.2, 0.5])
        adj = AdjacencyMatrix(f, m, s, 0.5)
        v = np.array([0.3, 0.7])
        before = adj @ v
        s[:] = [9.0, 0.0]
        np.testing.assert_array_equal(adj @ v, before)
        for vec in (adj.fs, adj.ms, adj.s):
            assert not vec.flags.writeable
        assert s.flags.writeable

    def test_equality_is_identity(self):
        f, m = self._fm()
        adj = AdjacencyMatrix(f, m, np.zeros(2), 0.5)
        assert adj == adj and adj != AdjacencyMatrix(f, m, np.zeros(2), 0.5)

    def test_shares_a_read_only_spread_vector_of_its_own(self):
        # a read-only vector that owns its data, as score_features' spreads
        # are, is kept without a copy (its owner must not make it writable
        # again); a read-only view of a writable array is still copied
        f, m = self._fm()
        s = np.array([0.2, 0.5])
        s.setflags(write=False)
        assert AdjacencyMatrix(f, m, s, 0.5).s is s
        view = np.array([0.2, 0.5, 0.1])[:2]
        view.setflags(write=False)
        assert AdjacencyMatrix(f, m, view, 0.5).s is not view

    @pytest.mark.parametrize("kind", ["one feature", "all equal", "all distinct", "tie-heavy"])
    def test_equal_spread_index_is_the_searchsorted_one(self, kind):
        # each feature's sorted position is the last of its run of equal spreads,
        # the integers np.searchsorted(..., side="right") - 1 gives; the
        # tie-heavy spreads have runs at both ends, zeros of both signs at the
        # bottom, and runs of one between
        rng = np.random.default_rng(11)
        n = 600
        s = {
            "one feature": np.array([0.5]),
            "all equal": np.full(n, 0.25),
            "all distinct": rng.random(n),
            "tie-heavy": np.concatenate((
                [0.0, -0.0] * 4, rng.integers(1, 60, n - 16) / 8.0, rng.random(4) + 8.0,
                [9.0] * 4)),
        }[kind]
        rng.shuffle(s)
        s_sorted = np.sort(s, kind="stable")
        want = np.searchsorted(s_sorted, s_sorted, side="right") - 1
        assert _run_ends(s_sorted).tolist() == want.tolist()
        f, m = rng.random((2, s.shape[0]))
        order, sorted_s, at_most = AdjacencyMatrix(f, m, s, 0.5)._sorted
        assert sorted_s.tobytes() == s_sorted.tobytes()
        assert at_most.tolist() == (np.searchsorted(s_sorted, s, side="right") - 1).tolist()

    def test_build_peaks_below_nine_vectors(self):
        # the rescaled fs and ms, the copy of s, and the sort: order, sorted s,
        # and each feature's last position among equal spreads, scattered from
        # one run-end temporary: 7.1 vectors (6.0 with searchsorted, whose - 1
        # numpy did in place)
        n = 200_000
        rng = np.random.default_rng(2)
        f = rng.random(n)
        m = rng.random(n)
        s = rng.random(n)
        tracemalloc.start()
        try:
            AdjacencyMatrix(f, m, s, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * s.nbytes


class TestAdjacencyOperator:
    """`A @ v` of the structured operator against the dense rows it stands for."""

    @staticmethod
    def _tied_operator(alpha, n=300, seed=40):
        # few distinct values, so s has zeros and many exact ties, and whole
        # groups of features share (fs, ms, s)
        rng = np.random.default_rng(seed)
        f = rng.integers(0, 4, n) / 3.0
        m = rng.integers(0, 3, n) / 2.0
        s = rng.integers(0, 5, n) / 8.0
        return AdjacencyMatrix(f, m, s, alpha)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_matvec_matches_dense_rows(self, alpha):
        rng = np.random.default_rng(41)
        for adj in (self._tied_operator(alpha),
                    AdjacencyMatrix(*rng.random((3, 257)), alpha)):
            dense = _dense(adj)
            assert adj.shape == dense.shape
            for v in (np.ones(adj.shape[0]), rng.random(adj.shape[0])):
                want = dense @ v
                got = adj @ v
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_equal_features_give_bit_equal_products(self, alpha):
        adj = self._tied_operator(alpha)
        w = adj @ np.random.default_rng(42).random(adj.shape[0])
        keys = list(zip(adj.fs, adj.ms, adj.s))
        groups: dict = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        assert max(len(g) for g in groups.values()) > 1
        for members in groups.values():
            assert len(set(w[members].tolist())) == 1

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_in_place_product_has_the_bits_of_new_arrays(self, alpha):
        # the product writes into three vectors in the order of operations of
        # a new array per step, so every bit is the same
        rng = np.random.default_rng(43)
        for adj in (self._tied_operator(alpha), AdjacencyMatrix(*rng.random((3, 257)), alpha),
                    AdjacencyMatrix(*rng.random((3, 1)), alpha)):
            for v in (np.ones(adj.shape[0]), rng.random(adj.shape[0]),
                      rng.random(2 * adj.shape[0])[::2]):
                assert (adj @ v).tobytes() == adjacency_product_oracle(adj, v).tobytes()

    def test_zero_operator_is_degenerate_after_zero_iterations(self):
        zero_scores = np.zeros(5)
        adj = AdjacencyMatrix(zero_scores, zero_scores, np.zeros(5), 0.3)
        assert not (adj @ np.ones(5)).any()
        res = power_iteration(adj)
        assert res.degenerate and res.iterations == 0 and res.lambda0 == 0.0

    def test_wrong_vector_length_rejected(self):
        adj = self._tied_operator(0.5, n=4)
        # a length-1 v would broadcast against the 4 scores
        for n in (1, 3, 5):
            with pytest.raises(ValueError):
                adj @ np.ones(n)


class TestAdjacencyInputs:
    """f, m and s are checked by one rule, each under its own name."""

    @pytest.mark.parametrize("name", ["f", "m", "s"])
    @pytest.mark.parametrize("bad", [-0.2, np.nan, np.inf])
    def test_rejects_negative_and_nonfinite_entries(self, name, bad):
        vectors = {"f": np.array([0.0, 1.0]), "m": np.array([1.0, 0.0]),
                   "s": np.array([0.1, 0.3])}
        vectors[name][1] = bad
        with pytest.raises(ValueError, match=f"^{name} entries must be finite and non-negative$"):
            AdjacencyMatrix(vectors["f"], vectors["m"], vectors["s"], 0.5)
