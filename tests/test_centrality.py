import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from ecfs import (
    AdjacencyMatrix,
    Dataset,
    FeatureRanking,
    PowerIterationError,
    SyntheticSpec,
    generate_synthetic,
    power_iteration,
    score_features,
)
from ecfs.data import NormalizationStats, column_blocks
from ecfs.evaluation import _held_group
from oracles import (
    fisher_oracle,
    matrix_power_oracle,
    mi_oracle,
    normalize_features,
    power_iteration_oracle,
    spreads_oracle,
    subset,
)


def _graph(rng, n: int) -> AdjacencyMatrix:
    """A feature graph of n random scores and spreads at a random alpha."""
    f, m, s = rng.random((3, n))
    return AdjacencyMatrix(f, m, s, rng.random())


def _dense(adj: AdjacencyMatrix) -> np.ndarray:
    return np.array(list(adj.rows()))


class TestPowerIteration:
    def test_all_ones_matrix(self):
        # at alpha 0, spreads of 1 make every entry 1
        n = 6
        res = power_iteration(AdjacencyMatrix(np.zeros(n), np.zeros(n), np.ones(n), 0.0))
        assert res.lambda0 == pytest.approx(n, rel=1e-12)
        np.testing.assert_allclose(res.v0, np.ones(n) / np.sqrt(n), atol=1e-12)

    def test_symmetric_two_by_two(self):
        # f = m = [0, 1] and equal spreads: A = [[0.5, 0.5], [0.5, 1.0]],
        # trace 1.5, determinant 0.25
        res = power_iteration(AdjacencyMatrix([0.0, 1.0], [0.0, 1.0], [1.0, 1.0], 0.5))
        lam = (1.5 + np.sqrt(1.5**2 - 4 * 0.25)) / 2
        assert res.lambda0 == pytest.approx(lam, rel=1e-9)
        v = np.array([0.5, lam - 0.5])
        np.testing.assert_allclose(res.v0, v / np.linalg.norm(v), atol=1e-9)
        assert res.residual <= 1e-10

    def test_zero_matrix_degenerate(self):
        # constant scores rescale to zeros, and zero spreads leave nothing
        res = power_iteration(AdjacencyMatrix(np.ones(4), np.ones(4), np.zeros(4), 0.5))
        assert res.degenerate
        assert res.lambda0 == 0.0
        np.testing.assert_allclose(res.v0, np.full(4, 0.5))

    def test_nilpotent_matrix(self):
        # at alpha 1 with zero spreads, A = outer([1, 0], [0, 1]) = [[0, 1], [0, 0]]
        res = power_iteration(AdjacencyMatrix([1.0, 0.0], [0.0, 1.0], [0.0, 0.0], 1.0))
        assert res.lambda0 == 0.0
        assert res.residual <= 1e-10

    def test_unit_norm_and_nonnegative_entries(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            res = power_iteration(_graph(rng, 17))
            assert abs(np.linalg.norm(res.v0) - 1.0) <= 1e-12
            assert res.v0.min() >= 0.0
            assert res.residual <= 1e-10

    def test_lambda_matches_full_spectrum(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            A = _graph(rng, 20)
            res = power_iteration(A)
            top = np.abs(np.linalg.eigvals(_dense(A))).max()
            assert res.lambda0 == pytest.approx(top, rel=1e-9)

    def test_scaling_multiplies_lambda_and_keeps_v0(self):
        # at alpha 0 the graph is Sigma alone, so scaling the spreads scales A;
        # scaling A scales the stopping residual too, so the iterate counts
        # differ, and v0 agrees to solver accuracy rather than bitwise
        rng = np.random.default_rng(5)
        f, m, s = rng.random((3, 12))
        base = power_iteration(AdjacencyMatrix(f, m, s, 0.0))
        scaled = power_iteration(AdjacencyMatrix(f, m, 4.0 * s, 0.0))
        np.testing.assert_allclose(scaled.v0, base.v0, atol=1e-9)
        assert scaled.lambda0 == pytest.approx(4.0 * base.lambda0, rel=1e-10)
        np.testing.assert_array_equal(np.argsort(-scaled.v0), np.argsort(-base.v0))

    def test_scale_invariance_of_ranking(self):
        rng = np.random.default_rng(6)
        f, m, s = rng.random((3, 15))
        base = FeatureRanking(power_iteration(AdjacencyMatrix(f, m, s, 0.0)).v0)
        scaled = FeatureRanking(power_iteration(AdjacencyMatrix(f, m, 3.7 * s, 0.0)).v0)
        np.testing.assert_array_equal(base.order, scaled.order)

    def test_non_convergence_raises_with_residual(self):
        # A = [[0, 1], [1e-8, 1e-8]]: eigenvalues +-1.0e-4, two dominant directions
        A = AdjacencyMatrix([1.0, 0.0], [0.0, 1.0], [0.0, 1.0], 1 - 1e-8)
        with pytest.raises(PowerIterationError) as exc:
            power_iteration(A, max_iter=50)
        assert exc.value.residual > 0
        assert exc.value.iterations == 50

    def test_overflow_raises_instead_of_converging_on_zeros(self):
        # an overflowed norm once made v all zeros, whose residual of 0 passed
        f = np.array([0.0, 1.0, 2.0])
        m = np.array([1.0, 0.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                power_iteration(AdjacencyMatrix(f, m, np.full(3, 1e200), 0.5))

    def test_error_survives_a_pickle_round_trip(self):
        # a worker process hands its errors to the parent pickled
        err = pickle.loads(pickle.dumps(PowerIterationError("stalled", residual=0.25,
                                                            iterations=7)))
        assert type(err) is PowerIterationError
        assert (str(err), err.residual, err.iterations) == ("stalled", 0.25, 7)

    def test_input_validation(self):
        # a dense matrix is not a feature graph, so no call depends on BLAS's sums
        with pytest.raises(TypeError, match="AdjacencyMatrix"):
            power_iteration(np.ones((2, 2)))
        A = AdjacencyMatrix(np.ones(2), np.ones(2), np.ones(2), 0.5)
        for tol in (0.0, np.inf, np.nan):
            # an infinite tol once passed every residual after one sweep
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                power_iteration(A, tol=tol)
        with pytest.raises(ValueError, match="max_iter"):
            power_iteration(A, max_iter=0)

    @pytest.mark.parametrize("M", [
        AdjacencyMatrix([2.0, 1.0, 0.0], [-0.0, 1.0, 0.5], [-0.0, 0.5, -0.0], 0.5),
        AdjacencyMatrix([1.0, -0.0], [-0.0, 1.0], [-0.0, -0.0], 1.0),  # nilpotent
        AdjacencyMatrix([1.0, -0.0], [-0.0, 1.0], [-0.0, -0.0], 0.0),  # zero
        AdjacencyMatrix([-0.0, -0.0], [-0.0, -0.0], [-0.0, -0.0], 0.5),  # zero
    ])
    def test_signed_zero_entries_leave_no_negative_entry(self, M):
        # the property that lets v0 go unclamped: a sweep of a non-negative
        # graph from a positive vector only makes non-negative numbers (or -0.0)
        assert not (power_iteration(M).v0 < 0).any()

    @pytest.mark.parametrize("seed", range(6))
    def test_iterates_of_non_negative_operators_have_no_negative_entry(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        fs, ms, s = rng.random((3, n))
        for v in (fs, ms, s):
            v[rng.random(n) < 0.2] = 0.0
            v[rng.random(n) < 0.2] = -0.0
        for alpha in (0.0, 0.5, 1.0):
            assert not (power_iteration(AdjacencyMatrix(fs, ms, s, alpha)).v0 < 0).any()

    def test_accepts_adjacency_wrapper(self):
        # the graph itself, never its dense rows, goes in; the eigenpair is the
        # dense rows' dominant one, as numpy's general eigensolver finds it
        adj = AdjacencyMatrix([0.0, 1.0], [1.0, 0.0], [0.2, 0.5], 0.5)
        res = power_iteration(adj)
        assert res.residual <= 1e-10
        values, vectors = np.linalg.eig(_dense(adj))
        top = int(np.argmax(np.abs(values)))
        v = np.abs(vectors[:, top])
        np.testing.assert_allclose(res.v0, v / np.linalg.norm(v), atol=1e-10)
        assert res.lambda0 == pytest.approx(values[top].real, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reused_buffers_give_the_bits_of_new_arrays(self, seed):
        # every sweep writes into the same four vectors; the eigenpair, the sweep
        # count and the residual are those of a new array per step
        rng = np.random.default_rng(seed)
        tied = rng.integers(0, 4, (3, 400)) / 3.0
        d, _ = generate_synthetic(SyntheticSpec(20, 300, 5, 2.0, 1.0, seed=seed))
        scores = score_features(d)
        for A in (_graph(rng, 1), _graph(rng, 257), AdjacencyMatrix(*tied, rng.random()),
                  AdjacencyMatrix(scores.fisher, scores.mutual_information, scores.spreads,
                                  0.5)):
            got, want = power_iteration(A), power_iteration_oracle(A)
            assert got.v0.tobytes() == want.v0.tobytes()
            assert (got.lambda0, got.iterations, got.residual, got.degenerate) == (
                want.lambda0, want.iterations, want.residual, want.degenerate)


class TestMatrixPowerOracle:
    def test_diagonal_matrix(self):
        res = matrix_power_oracle(np.diag([3.0, 1.0]))
        assert res.lambda0 == pytest.approx(3.0, rel=1e-12)
        np.testing.assert_allclose(res.v0, [1.0, 0.0], atol=1e-10)

    def test_all_ones_converges_immediately(self):
        res = matrix_power_oracle(np.ones((4, 4)))
        np.testing.assert_allclose(res.v0, np.full(4, 0.5), atol=1e-12)
        assert res.lambda0 == pytest.approx(4.0, rel=1e-12)

    def test_zero_matrix_degenerate(self):
        res = matrix_power_oracle(np.zeros((3, 3)))
        assert res.degenerate and res.lambda0 == 0.0

    def test_nilpotent_degenerate(self):
        res = matrix_power_oracle(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert res.degenerate
        assert res.lambda0 == 0.0
        np.testing.assert_allclose(res.v0, [1.0, 0.0])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_agrees_with_power_iteration(self, seed):
        A = _graph(np.random.default_rng(seed), 50)
        a = power_iteration(A)
        b = matrix_power_oracle(A)
        assert np.abs(a.v0 - b.v0).max() <= 1e-8
        assert abs(a.lambda0 - b.lambda0) <= 1e-8 * abs(b.lambda0)

    def test_accepts_adjacency_wrapper(self):
        rng = np.random.default_rng(9)
        adj = AdjacencyMatrix(*rng.random((3, 30)), 0.4)
        a = power_iteration(adj)
        b = matrix_power_oracle(adj)
        assert np.abs(a.v0 - b.v0).max() <= 1e-8
        assert abs(a.lambda0 - b.lambda0) <= 1e-8 * abs(b.lambda0)

    def test_l_max_validation(self):
        with pytest.raises(ValueError, match="l_max"):
            matrix_power_oracle(np.ones((2, 2)), l_max=0)


class TestAccessibilityLimit:
    def test_normalized_powers_align_with_dominant_eigenvector(self):
        # for matrices with a real spectral gap, A^l e turns toward v0
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(12):
            n = int(rng.integers(3, 40))
            graph = _graph(rng, n)
            A = _dense(graph)
            lams = np.sort(np.abs(np.linalg.eigvals(A)))[::-1]
            if lams[0] == 0 or 1.0 - lams[1] / lams[0] < 1e-3:
                continue
            v0 = power_iteration(graph).v0
            B = A.copy()
            l = 1
            ok = False
            while l <= 2**16:
                w = B @ np.ones(n)
                w /= np.linalg.norm(w)
                if float(w @ v0) >= 1.0 - 1e-6:
                    ok = True
                    break
                B = B @ B
                B /= B.max()
                l *= 2
            assert ok, f"no alignment by l={l}"
            checked += 1
        assert checked >= 8


class TestRankFeatures:
    def test_orders_by_score_descending(self):
        r = FeatureRanking(np.array([0.1, 0.9, 0.3]))
        assert r.order.tolist() == [1, 2, 0]
        assert r.scores.tolist() == [0.9, 0.3, 0.1]

    def test_ties_break_to_smaller_index(self):
        r = FeatureRanking(np.array([5.0, 3.0, 5.0, 1.0]))
        assert r.order.tolist() == [0, 2, 1, 3]

    def test_uniform_scores_yield_identity(self):
        r = FeatureRanking(np.full(5, 0.25))
        assert r.order.tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("seed", range(5))
    def test_order_is_the_stable_descending_sort_of_the_clamped_scores(self, seed):
        rng = np.random.default_rng(seed)
        n = 500
        values = rng.integers(0, 20, n) / 4.0  # many ties, zeros among them
        values[rng.choice(n, 30, replace=False)] = -1e-13  # round-off below 0
        r = FeatureRanking(values)
        clamped = np.maximum(values, 0.0)
        want = np.lexsort((np.arange(n), -clamped))
        np.testing.assert_array_equal(r.order, want)
        np.testing.assert_array_equal(r.scores, clamped[want])
        assert not (r.order.flags.writeable or r.scores.flags.writeable)
        # a read-only input, as the cached Fisher and MI scores are, ranks the same
        clamped.setflags(write=False)
        np.testing.assert_array_equal(FeatureRanking(clamped).order, want)

    def test_ranking_peaks_below_four_vectors(self):
        # the clamped copy, its negation and the order, then the gathered scores;
        # 7.1 vectors when the order was sorted, then copied and re-checked
        values = np.random.default_rng(0).random(200_000)
        tracemalloc.start()
        try:
            FeatureRanking(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * values.nbytes

    def test_pickle_round_trip_keeps_order_and_read_only_arrays(self):
        values = np.random.default_rng(1).integers(0, 5, 50) / 4.0
        values[3] = -1e-13
        r = FeatureRanking(values)
        copy = pickle.loads(pickle.dumps(r))
        np.testing.assert_array_equal(copy.order, r.order)
        np.testing.assert_array_equal(copy.scores, r.scores)
        assert not (copy.order.flags.writeable or copy.scores.flags.writeable)

    def test_equality_is_identity(self):
        # field-wise == on arrays once raised "truth value ... is ambiguous"
        values = np.array([0.1, 0.9, 0.3])
        r = FeatureRanking(values)
        assert r == r and r != FeatureRanking(values)

    def test_rejects_negative_scores(self):
        with pytest.raises(ValueError, match="non-negative"):
            FeatureRanking(np.array([0.5, -0.1]))

    def test_clamps_round_off_negatives(self):
        r = FeatureRanking(np.array([0.5, -1e-13]))
        assert r.scores[1] == 0.0

    def test_top_slice(self):
        r = FeatureRanking(np.array([0.1, 0.9, 0.3]))
        assert r.top(2).tolist() == [1, 2]
        with pytest.raises(ValueError):
            r.top(0)
        with pytest.raises(ValueError):
            r.top(4)


class TestEcfsRank:
    def _informative_dataset(self):
        return generate_synthetic(SyntheticSpec(80, 40, 4, 3.0, 1.0, seed=17))

    def test_informative_features_lead(self):
        d, inf = self._informative_dataset()
        ranking = score_features(d).ranking("ec_fs", 0.5)
        assert set(int(i) for i in ranking.top(8)) >= inf

    # the blends at alpha 0 and 1, formed densely from the reference scores
    # and solved by the oracle

    def test_alpha_zero_matches_sigma_eigenranking(self):
        d, _ = self._informative_dataset()
        dn, _ = normalize_features(d)
        s = spreads_oracle(dn.X)
        direct = FeatureRanking(matrix_power_oracle(np.maximum.outer(s, s)).v0)
        np.testing.assert_array_equal(score_features(d).ranking("ec_fs", 0.0).order, direct.order)

    def test_alpha_one_matches_relevance_product_eigenranking(self):
        d, _ = self._informative_dataset()
        dn, _ = normalize_features(d)
        f = fisher_oracle(dn.X, dn.y)
        m = mi_oracle(dn.X, dn.y)
        fs = (f - f.min()) / (f.max() - f.min())
        ms = (m - m.min()) / (m.max() - m.min())
        k_only = np.outer(fs, ms)
        direct = FeatureRanking(matrix_power_oracle(k_only).v0)
        np.testing.assert_array_equal(score_features(d).ranking("ec_fs", 1.0).order, direct.order)

    def test_scores_are_read_only_float_vectors(self):
        # FeatureScores hands the same cached arrays to every ranking taken from it
        d, _ = self._informative_dataset()
        scores = score_features(d)
        for v in (scores.fisher, scores.mutual_information):
            assert v.dtype == np.float64 and v.shape == (d.n_features,)
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 1.0

    def test_ec_fs_ranking_needs_an_alpha(self):
        # alpha once defaulted into a None-versus-float comparison (TypeError)
        d, _ = self._informative_dataset()
        with pytest.raises(ValueError, match=r"ec_fs needs an alpha in \[0, 1\]"):
            score_features(d).ranking("ec_fs")

    def test_run_carries_diagnostics(self):
        d, _ = self._informative_dataset()
        scores = score_features(d)
        ranking, eigen, adjacency = scores.centrality(0.4)
        assert eigen.residual <= 1e-10
        assert adjacency.alpha == 0.4
        assert scores.bins == 8  # floor(sqrt(80))
        assert len(ranking.order) == d.n_features

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_centrality_ranking_is_the_ec_fs_ranking(self, alpha):
        d, _ = self._informative_dataset()
        scores = score_features(d)
        ranking, eigen, adjacency = scores.centrality(alpha)
        np.testing.assert_array_equal(ranking.order, scores.ranking("ec_fs", alpha).order)
        np.testing.assert_array_equal(ranking.order, FeatureRanking(eigen.v0).order)
        assert adjacency.alpha == alpha

    def test_deterministic(self):
        d, _ = self._informative_dataset()
        a = score_features(d).ranking("ec_fs", 0.3)
        b = score_features(d).ranking("ec_fs", 0.3)
        np.testing.assert_array_equal(a.order, b.order)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_memory_stays_below_one_dense_array(self):
        # one n x n float array is 8 n^2 bytes; the whole run must stay under
        # an eighth of that
        n = 4000
        d, _ = generate_synthetic(SyntheticSpec(30, n, 10, 2.0, 1.0, seed=3))
        tracemalloc.start()
        try:
            score_features(d).centrality(0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n

    def test_centrality_peaks_at_ten_vectors_above_the_scores(self):
        # the graph's five vectors (rescaled fs and ms, the spread order, the
        # sorted spreads and each feature's last position among equal spreads),
        # the solve's four (v, A v, the residual and one scratch vector), then
        # the ranking's sort; 14.0 vectors when every sweep made new arrays and
        # the graph copied the read-only spreads
        n = 200_000
        d, _ = generate_synthetic(SyntheticSpec(10, n, 10, 2.0, 1.0, seed=3))
        scores = score_features(d)
        tracemalloc.start()
        try:
            scores.centrality(0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * n

    @pytest.mark.parametrize("share", [1.0, 2 / 3])
    def test_scoring_holds_no_normalized_matrix(self, share):
        # one block of gathered rows at a time, and the scores' vectors; the
        # normalized copy of the scored rows took 1.18x on all rows and 0.86x
        # on two thirds of them
        rng = np.random.default_rng(13)
        d = Dataset(rng.normal(size=(40, 200_000)), np.arange(40) % 2)
        rows = np.sort(rng.choice(40, size=round(40 * share), replace=False))
        tracemalloc.start()
        try:
            scores = score_features(d, rows=rows)
            scores.fisher, scores.mutual_information, scores.spreads
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * d.X.nbytes

    def test_scoring_working_set_stays_under_half_a_megabyte(self):
        # above the vectors it keeps, the pass holds one gathered block and about
        # two block-sized temporaries at a time: 0.42 MB in 2^14-cell blocks,
        # 1.44 MB in 2^16-cell blocks
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(100, 10_000)), np.arange(100) % 2)
        score_features(d)
        tracemalloc.start()
        try:
            scores = score_features(d)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scores.fisher.shape == (10_000,)
        assert peak - kept <= 0.5 * 2**20

    def test_fisher_ratio_is_divided_into_its_numerator(self):
        # at 4 x 200000 an n-vector (1.6 MB) outweighs the block temporaries:
        # above the kept vectors the pass peaks at 12 n bytes, the denominator
        # among them, and at 20 n when the ratio went to a new vector
        n = 200_000
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(4, n)), np.arange(4) % 2)
        score_features(d)
        tracemalloc.start()
        try:
            scores = score_features(d)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not scores.fisher.flags.writeable
        assert peak - kept <= 13 * n

    def test_single_seed_recovery(self):
        d, inf = generate_synthetic(SyntheticSpec(200, 500, 20, 2.0, 1.0, seed=0))
        hits = len(set(int(i) for i in score_features(d).ranking("ec_fs", 0.5).top(50)) & inf)
        assert hits >= 18


def _rows_case(T: int, n: int, C: int, seed: int) -> Dataset:
    """A T x n dataset of C classes with spread-out scales, shifted all-negative
    columns and, when n > 1, a constant column 1."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(T, n)) * rng.uniform(0.01, 1e3, size=n)
    X[:, 2::5] -= 1e4
    X[:, 1:2] = -2.5
    return Dataset(X, np.arange(T) % C)


def _oracle_scores(d: Dataset, rows, bins=None) -> tuple:
    """(statistics, Fisher, MI, spreads) of d's rows by the reference steps: copy
    the rows, normalize the copy as a dataset, then score it in one pass."""
    dn, stats = normalize_features(subset(d, rows))
    return stats, fisher_oracle(dn.X, dn.y), mi_oracle(dn.X, dn.y, bins), spreads_oracle(dn.X)


class TestScoreRows:
    """score_features(d, rows=r) reads d's rows r one block of columns at a time,
    to the bits of copying the rows first and normalizing them as a dataset."""

    # (T, n, classes, seed, rows, bins); "repeated" rows are drawn with
    # replacement, unsorted; bins above the row count makes MI's blocks
    # narrower than the normalization's
    CASES = [(62, 2000, 2, 0, "sorted", None), (62, 2000, 2, 1, "unsorted", None),
             (200, 3000, 2, 2, "unsorted", None), (40, 20001, 2, 3, "sorted", None),
             (3000, 7, 2, 4, "unsorted", None), (45, 300, 3, 5, "unsorted", None),
             (40, 5000, 2, 6, "unsorted", 100), (30, 1, 2, 7, "unsorted", None),
             (45, 3000, 3, 8, "repeated", None), (62, 2000, 2, 9, "repeated", 50)]

    @pytest.mark.parametrize("T, n, C, seed, kind, bins", CASES)
    def test_matches_scoring_a_copy_of_the_rows_bit_for_bit(self, T, n, C, seed, kind, bins):
        d = _rows_case(T, n, C, seed)
        rows = np.random.default_rng(seed).choice(T, size=2 * T // 3, replace=kind == "repeated")
        if kind == "sorted":
            rows = np.sort(rows)
        got = score_features(d, bins, rows)
        stats, fisher, mi, spreads = _oracle_scores(d, rows, bins)
        assert got.rows.tolist() == rows.tolist() and got.y.tolist() == d.y[rows].tolist()
        for name in ("shift", "scale", "degenerate"):
            assert getattr(got.stats, name).tobytes() == getattr(stats, name).tobytes()
        assert got.stats.degenerate[1] if n > 1 else not got.stats.degenerate[0]
        assert got.bins == (bins or max(2, int(np.sqrt(len(rows)))))
        assert got.fisher.tobytes() == fisher.tobytes()
        assert got.mutual_information.tobytes() == mi.tobytes()
        assert got.spreads.tobytes() == spreads.tobytes()

    def test_all_rows_by_default(self):
        d = _rows_case(30, 40, 2, 6)
        every, default = score_features(d, rows=np.arange(30)), score_features(d)
        assert default.rows.tolist() == list(range(30))
        for a, b in ((every.fisher, default.fisher), (every.spreads, default.spreads),
                     (every.stats.scale, default.stats.scale),
                     (every.mutual_information, default.mutual_information)):
            assert a.tobytes() == b.tobytes()
        assert not d.X.flags.writeable

    def test_holds_no_array_of_the_rows_by_the_columns(self):
        d = _rows_case(30, 400, 2, 10)
        scores = score_features(d, rows=np.arange(3, 30))
        held = list(vars(scores).values()) + list(vars(scores.stats).values())
        assert not any(isinstance(v, Dataset) for v in held)
        sizes = {v.size for v in held if isinstance(v, np.ndarray)}
        assert sizes == {27, 400}
        assert all(not v.flags.writeable for v in (scores.rows, scores.y, scores.fisher,
                                                   scores.spreads, scores.mutual_information))

    def test_keeps_its_own_copy_of_the_rows(self):
        # the held-out step reads the training rows again through scores.rows
        d = _rows_case(30, 50, 2, 11)
        rows = np.arange(2, 26)
        scores = score_features(d, rows=rows)
        rows[:] = 0
        assert scores.rows.tolist() == list(range(2, 26))
        sel = np.array([0, 3, 7, 40])
        trn = _held_group(d, scores, [(sel, 1.0, 0)], np.arange(26, 30))[0]
        want = scores.stats._transform(d.X[2:26], slice(None))[:, sel]
        assert trn.X.tobytes() == want.tobytes()
        assert trn.y.tolist() == d.y[2:26].tolist()

    @pytest.mark.parametrize("T, n, C, seed, kind, bins", CASES)
    def test_normalizes_each_column_block_once(self, monkeypatch, T, n, C, seed, kind, bins):
        # one gather and one normalization per block of MI's width yields all three vectors
        calls = []
        real = NormalizationStats._transform

        def counted(self, X, cols, out=None):
            calls.append(cols)
            return real(self, X, cols, out)

        monkeypatch.setattr(NormalizationStats, "_transform", counted)
        d = _rows_case(T, n, C, seed)
        rows = np.random.default_rng(seed).choice(T, size=2 * T // 3, replace=kind == "repeated")
        scores = score_features(d, bins, rows)
        for vector in (scores.fisher, scores.mutual_information, scores.spreads):
            assert vector.shape == (n,)
        slots = min(scores.bins, len(rows))
        assert calls == column_blocks(n, max(len(rows), slots * C))

    @pytest.mark.parametrize("rows, message", [
        (np.ones(12, dtype=bool), "integer row indices"),
        (np.array([0.9, 1.2, 2.7, 3.1]), "integer row indices"),
        (np.array([], dtype=int), "non-empty"),
        (np.array([[0, 1], [2, 3]]), "1-D"),
        (np.array([0, 1, -1]), r"in 0\.\.11"),
        (np.array([0, 1, 12]), r"in 0\.\.11"),
    ])
    def test_rejects_rows_that_are_not_row_indices(self, rows, message):
        d = _rows_case(12, 6, 2, 12)
        with pytest.raises(ValueError, match=message):
            score_features(d, rows=rows)
