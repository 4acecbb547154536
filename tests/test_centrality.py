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
    feature_spreads,
    fisher_scores,
    generate_synthetic,
    mutual_information_scores,
    power_iteration,
    score_features,
)
from oracles import matrix_power_oracle, normalize_features, subset


class TestPowerIteration:
    def test_all_ones_matrix(self):
        n = 6
        res = power_iteration(np.ones((n, n)))
        assert res.lambda0 == pytest.approx(n, rel=1e-12)
        np.testing.assert_allclose(res.v0, np.ones(n) / np.sqrt(n), atol=1e-12)

    def test_symmetric_two_by_two(self):
        res = power_iteration(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert res.lambda0 == pytest.approx(3.0, rel=1e-12)
        np.testing.assert_allclose(res.v0, [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert res.residual <= 1e-10

    def test_zero_matrix_degenerate(self):
        res = power_iteration(np.zeros((4, 4)))
        assert res.degenerate
        assert res.lambda0 == 0.0
        np.testing.assert_allclose(res.v0, np.full(4, 0.5))

    def test_nilpotent_matrix(self):
        res = power_iteration(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert res.lambda0 == 0.0
        assert res.residual <= 1e-10

    def test_unit_norm_and_nonnegative_entries(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.random((17, 17))
            res = power_iteration(A)
            assert abs(np.linalg.norm(res.v0) - 1.0) <= 1e-12
            assert res.v0.min() >= 0.0
            assert res.residual <= 1e-10

    def test_lambda_matches_full_spectrum(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            A = rng.random((20, 20))
            res = power_iteration(A)
            top = np.abs(np.linalg.eigvals(A)).max()
            assert res.lambda0 == pytest.approx(top, rel=1e-9)

    def test_scaling_multiplies_lambda_and_keeps_v0(self):
        # scaling A scales the stopping residual too, so the iterate counts
        # differ; v0 agrees to solver accuracy rather than bitwise
        rng = np.random.default_rng(5)
        A = rng.random((12, 12))
        base = power_iteration(A)
        scaled = power_iteration(4.0 * A)
        np.testing.assert_allclose(scaled.v0, base.v0, atol=1e-9)
        assert scaled.lambda0 == pytest.approx(4.0 * base.lambda0, rel=1e-10)
        np.testing.assert_array_equal(np.argsort(-scaled.v0), np.argsort(-base.v0))

    def test_scale_invariance_of_ranking(self):
        rng = np.random.default_rng(6)
        A = rng.random((15, 15))
        base = FeatureRanking(power_iteration(A).v0)
        scaled = FeatureRanking(power_iteration(3.7 * A).v0)
        np.testing.assert_array_equal(base.order, scaled.order)

    def test_non_convergence_raises_with_residual(self):
        A = np.diag([1.0, 1.0 - 1e-9])  # two dominant directions, no gap to speak of
        with pytest.raises(PowerIterationError) as exc:
            power_iteration(A, max_iter=50)
        assert exc.value.residual > 0
        assert exc.value.iterations == 50

    def test_overflow_raises_instead_of_converging_on_zeros(self):
        # an overflowed norm once made v all zeros, whose residual of 0 passed
        f = np.array([0.0, 1.0, 2.0])
        m = np.array([1.0, 0.0, 3.0])
        for A in (np.full((3, 3), 1e200), AdjacencyMatrix(f, m, np.full(3, 1e200), 0.5)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="overflow"):
                    power_iteration(A)

    def test_error_survives_a_pickle_round_trip(self):
        # a worker process hands its errors to the parent pickled
        err = pickle.loads(pickle.dumps(PowerIterationError("stalled", residual=0.25,
                                                            iterations=7)))
        assert type(err) is PowerIterationError
        assert (str(err), err.residual, err.iterations) == ("stalled", 0.25, 7)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="square"):
            power_iteration(np.ones((2, 3)))
        with pytest.raises(ValueError, match="non-negative"):
            power_iteration(np.array([[1.0, -0.5], [0.0, 1.0]]))
        for tol in (0.0, np.inf, np.nan):
            # an infinite tol once passed every residual after one sweep
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                power_iteration(np.ones((2, 2)), tol=tol)
        with pytest.raises(ValueError, match="max_iter"):
            power_iteration(np.ones((2, 2)), max_iter=0)

    @pytest.mark.parametrize("M", [
        np.array([[2.0, 1.0, -0.0], [0.0, 1.0, 0.0], [-0.0, -0.0, 0.5]]),  # reducible
        np.array([[-0.0, 1.0, -0.0], [-0.0, -0.0, 1.0], [-0.0, -0.0, -0.0]]),  # nilpotent
        np.array([[0.0, 1.0], [0.0, 0.0]]),  # nilpotent
        np.array([[-0.0, -0.0], [-0.0, -0.0]]),  # zero
    ])
    def test_signed_zero_entries_leave_no_negative_entry(self, M):
        # the property that lets v0 go unclamped: a sweep of a non-negative
        # matrix from a positive vector only makes non-negative numbers (or -0.0)
        assert not (power_iteration(M).v0 < 0).any()

    @pytest.mark.parametrize("seed", range(6))
    def test_iterates_of_non_negative_operators_have_no_negative_entry(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        M = rng.random((n, n)) + np.diag(rng.random(n))
        M[rng.random((n, n)) < 0.3] = 0.0
        M[rng.random((n, n)) < 0.3] = -0.0
        assert not (power_iteration(M).v0 < 0).any()
        fs, ms, s = rng.random((3, n))
        for v in (fs, ms, s):
            v[rng.random(n) < 0.2] = 0.0
        for alpha in (0.0, 0.5, 1.0):
            assert not (power_iteration(AdjacencyMatrix(fs, ms, s, alpha)).v0 < 0).any()

    def test_accepts_adjacency_wrapper(self):
        f = np.array([0.0, 1.0])
        m = np.array([1.0, 0.0])
        adj = AdjacencyMatrix(f, m, np.array([0.2, 0.5]), 0.5)
        res = power_iteration(adj)
        assert res.residual <= 1e-10
        dense = power_iteration(np.array(list(adj.rows())))
        assert res.iterations == dense.iterations
        np.testing.assert_allclose(res.v0, dense.v0, rtol=1e-13)
        assert res.lambda0 == pytest.approx(dense.lambda0, rel=1e-13)


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
        rng = np.random.default_rng(seed)
        A = rng.random((50, 50))
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
            A = rng.random((n, n))
            lams = np.sort(np.abs(np.linalg.eigvals(A)))[::-1]
            if lams[0] == 0 or 1.0 - lams[1] / lams[0] < 1e-3:
                continue
            v0 = power_iteration(A).v0
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

    def test_alpha_zero_matches_sigma_eigenranking(self):
        d, _ = self._informative_dataset()
        dn, _ = normalize_features(d)
        s = feature_spreads(dn)
        direct = FeatureRanking(power_iteration(np.maximum.outer(s, s)).v0)
        np.testing.assert_array_equal(score_features(d).ranking("ec_fs", 0.0).order, direct.order)

    def test_alpha_one_matches_relevance_product_eigenranking(self):
        d, _ = self._informative_dataset()
        dn, _ = normalize_features(d)
        f = fisher_scores(dn)
        m = mutual_information_scores(dn)
        fs = (f - f.min()) / (f.max() - f.min())
        ms = (m - m.min()) / (m.max() - m.min())
        k_only = np.outer(fs, ms)
        direct = FeatureRanking(power_iteration(k_only).v0)
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
    the rows, normalize the copy as a dataset, then score it."""
    dn, stats = normalize_features(subset(d, rows))
    return stats, fisher_scores(dn), mutual_information_scores(dn, bins), feature_spreads(dn)


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
        assert got.source is d
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
        scores.mutual_information
        held = [v for k, v in vars(scores).items() if k != "source"] + list(vars(scores.stats).values())
        sizes = {v.size for v in held if isinstance(v, np.ndarray)}
        assert sizes == {27, 400}
        assert all(not v.flags.writeable for v in (scores.rows, scores.y, scores.fisher,
                                                   scores.spreads, scores.mutual_information))

    def test_keeps_its_own_copy_of_the_rows(self):
        d = _rows_case(30, 50, 2, 11)
        rows = np.arange(2, 26)
        scores = score_features(d, rows=rows)
        rows[:] = 0  # after scoring, before the first MI read
        want = score_features(d, rows=np.arange(2, 26)).mutual_information
        assert scores.mutual_information.tobytes() == want.tobytes()
        assert scores.rows.tolist() == list(range(2, 26))

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
