import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats

import ecfs
import ecfs.centrality
import ecfs.evaluation as ev
import ecfs.graph
from ecfs import (
    AdjacencyMatrix,
    Dataset,
    DatasetError,
    FeatureRanking,
    PowerIterationError,
    Protocol,
    SplitError,
    SyntheticSpec,
    cross_validate,
    derive_seed,
    generate_synthetic,
    power_iteration,
    roc_auc,
    run_evaluation,
    run_stability,
    split_indices,
    stratified_fold_indices,
    train_linear_classifiers,
    two_sample_ttest,
)
from oracles import (
    fisher_oracle,
    fit_normalization,
    kuncheva_index,
    matrix_power_oracle,
    mi_oracle,
    normalize_features,
    ranking_of_order,
    spreads_oracle,
    subset,
)


def _ds(X, y):
    return Dataset(np.asarray(X, dtype=float), np.asarray(y, dtype=int))


def _curve(rankings, ks) -> list[tuple[int, float]]:
    """The stability curve of rankings at the cardinalities ks, from their top
    max(ks) indices, as run_stability takes it."""
    tops = np.stack([r.top(max(ks)) for r in rankings])
    return ev._kuncheva_curve(tops, rankings[0].n_features, list(ks))


def _spy_scoring(monkeypatch) -> list:
    """Record every (dataset, rows, scores) triple the harness hands to and gets
    back from score_features."""
    seen = []
    real = ev.score_features

    def spy(d, bins=None, rows=None):
        scores = real(d, bins, rows)
        seen.append((d, rows, scores))
        return scores

    monkeypatch.setattr(ev, "score_features", spy)
    return seen


def _count_calls(monkeypatch, name: str) -> list:
    """Count calls of an ecfs function through every module that binds it."""
    calls = []
    real = getattr(ecfs.graph, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (ecfs, ecfs.graph, ecfs.centrality, ev):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _assert_scored_training_rows_only(d, plan, seen) -> None:
    """One scoring pass per repeat, handed the raw data and the indices of exactly
    its training rows, none of them a test row, which it transforms with
    statistics fitted on those rows alone."""
    expected = split_indices(d.y, plan)
    assert len(seen) == len(expected)
    for (tr_idx, te_idx), (ds, rows, scores) in zip(expected, seen):
        assert ds is d
        assert np.intersect1d(rows, te_idx).size == 0
        np.testing.assert_array_equal(rows, tr_idx)
        assert len(scores.rows) == len(tr_idx) < d.n_samples
        np.testing.assert_array_equal(scores.rows, tr_idx)
        want = fit_normalization(d.X[tr_idx])
        for name in ("shift", "scale", "degenerate"):
            np.testing.assert_array_equal(getattr(scores.stats, name), getattr(want, name))
        np.testing.assert_array_equal(scores.y, d.y[tr_idx])


class TestSplits:
    def test_balanced_six_samples_two_thirds(self):
        y = np.array([0, 1, 0, 1, 0, 1])
        plan = Protocol(train_fraction=2 / 3, repeats=5, seed=0)
        for tr, te in split_indices(y, plan):
            assert len(tr) == 4 and len(te) == 2
            assert np.bincount(y[tr]).tolist() == [2, 2]
            assert np.bincount(y[te]).tolist() == [1, 1]

    def test_unbalanced_62_sample_partitions(self):
        # 40/22 class split at 2/3 train: 42/20 partition, each class within 1
        y = np.array([0] * 40 + [1] * 22)
        plan = Protocol(train_fraction=2 / 3, repeats=100, seed=1)
        seen = set()
        for tr, te in split_indices(y, plan):
            assert abs(len(tr) - 41) <= 1 and abs(len(te) - 21) <= 1
            assert len(tr) + len(te) == 62
            assert np.bincount(y[tr]).tolist() == [27, 15]
            seen.add(tuple(tr))
        assert len(seen) == 100  # all partitions distinct

    def test_disjoint_and_covering(self):
        y = np.arange(30) % 3
        plan = Protocol(repeats=10, seed=2)
        for tr, te in split_indices(y, plan):
            assert len(np.intersect1d(tr, te)) == 0
            assert np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(30))

    def test_same_seed_reproduces(self):
        y = np.arange(20) % 2
        a = split_indices(y, Protocol(repeats=3, seed=5))
        b = split_indices(y, Protocol(repeats=3, seed=5))
        for (t1, e1), (t2, e2) in zip(a, b):
            assert np.array_equal(t1, t2) and np.array_equal(e1, e2)

    def test_class_too_small(self):
        y = np.array([0, 0, 0, 1])
        with pytest.raises(SplitError, match="stratify"):
            split_indices(y, Protocol(repeats=1, seed=0))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            Protocol(train_fraction=1.0)
        with pytest.raises(ValueError):
            Protocol(repeats=0)

    def test_fold_indices_partition(self):
        y = np.arange(23) % 2
        folds = stratified_fold_indices(y, 5, seed=3)
        allidx = np.sort(np.concatenate(folds))
        assert np.array_equal(allidx, np.arange(23))
        sizes = sorted(len(f) for f in folds)
        assert sizes[-1] - sizes[0] <= 2


def _fit_one(train, selected, C, epochs=50, seed=0):
    """The model of a one-group, one-job training call."""
    ((model,),) = train_linear_classifiers([(train, [(selected, C, seed)])], epochs)
    return model


class TestLinearClassifier:
    def test_separable_pair_reaches_accuracy_one(self):
        d = _ds([[-1.0], [1.0]], [0, 1])
        model = _fit_one(d, np.array([0]), C=10.0, epochs=100, seed=0)
        assert (model.decision(d.X) > 0).tolist() == [False, True]

    def test_separable_cloud(self):
        rng = np.random.default_rng(0)
        T = 40
        y = np.arange(T) % 2
        X = rng.normal(size=(T, 3)) + np.outer(y * 6.0 - 3.0, np.ones(3))
        d = _ds(X, y)
        model = _fit_one(d, np.arange(3), C=1.0, epochs=50, seed=1)
        assert ((model.decision(d.X) > 0) == y).all()

    def test_deterministic(self):
        d, _ = generate_synthetic(SyntheticSpec(30, 6, 2, 2.0, 1.0, seed=4))
        a = _fit_one(d, np.arange(4), C=1.0, epochs=20, seed=9)
        b = _fit_one(d, np.arange(4), C=1.0, epochs=20, seed=9)
        np.testing.assert_array_equal(a.w, b.w)
        assert a.b == b.b

    def test_weight_norm_grows_with_c(self):
        d, _ = generate_synthetic(SyntheticSpec(50, 8, 3, 1.5, 1.0, seed=5))
        norms = [
            float(np.linalg.norm(_fit_one(d, np.arange(8), C=c, epochs=30, seed=2).w))
            for c in (0.01, 0.1, 1.0, 10.0)
        ]
        assert norms == sorted(norms)
        assert norms[0] < norms[-1]

    def test_validation(self):
        def one_job(train, selected, C, epochs=50):
            return _fit_one(train, selected, C, epochs=epochs)

        def batched(train, selected, C, epochs=50):
            # the bad job follows a valid group and a valid job of its own group, so
            # every job of every group is checked, not only the first
            ok = _ds([[0.0], [1.0]], [0, 1])
            return train_linear_classifiers(
                [(ok, [(np.array([0]), 1.0, 0)]),
                 (train, [(np.array([0]), 1.0, 0), (selected, C, 1)])], epochs)

        d = _ds([[0.0], [1.0], [2.0]], [0, 1, 2])
        d2 = _ds([[0.0], [1.0]], [0, 1])
        for fit in (one_job, batched):
            with pytest.raises(ValueError, match="binary"):
                fit(d, np.array([0]), C=1.0)
            with pytest.raises(ValueError, match="non-empty"):
                fit(d2, np.array([], dtype=int), C=1.0)
            with pytest.raises(ValueError, match="C"):
                fit(d2, np.array([0]), C=0.0)
            for C in (np.inf, np.nan):
                # an infinite C once trained into NaN weights without an error
                with pytest.raises(ValueError, match="C must be positive and finite"):
                    fit(d2, np.array([0]), C=C)
            with pytest.raises(ValueError, match="unique"):
                fit(d2, np.array([0, 0]), C=1.0)
            with pytest.raises(ValueError, match="range"):
                fit(d2, np.array([3]), C=1.0)
            with pytest.raises(ValueError, match="epochs"):
                fit(d2, np.array([0]), C=1.0, epochs=0)
        with pytest.raises(ValueError, match="at least one"):
            train_linear_classifiers([(d2, [])])

    @staticmethod
    def _reference(train, selected, C, epochs, seed):
        # the one-model-at-a-time primal loop of the original kernel, kept verbatim;
        # it also records how often each row failed the margin test
        T = train.n_samples
        Xa = np.hstack([train.X[:, selected], np.ones((T, 1))])
        yy = train.y.astype(float) * 2.0 - 1.0
        lam = 1.0 / (C * T)
        w = np.zeros(Xa.shape[1])
        counts = np.zeros(T, dtype=np.int64)
        rng = np.random.default_rng(seed)
        t = 0
        for _ in range(epochs):
            for i in rng.permutation(T):
                t += 1
                eta = 1.0 / (lam * t)
                margin = yy[i] * float(Xa[i] @ w)
                w *= 1.0 - eta * lam
                if margin < 1.0:
                    w += eta * yy[i] * Xa[i]
                    counts[i] += 1
        return w[:-1], float(w[-1]), counts

    @staticmethod
    def _spy_counts(monkeypatch) -> list:
        """Record the violation counts of every call of the dual-form step loop."""
        seen = []
        real = ev._violation_counts

        def spy(*args):
            counts = real(*args)
            seen.append(counts)
            return counts

        monkeypatch.setattr(ev, "_violation_counts", spy)
        return seen

    def _assert_matches_reference(self, train, model, counts, sel, C, epochs, seed):
        w, b, want = self._reference(train, sel, C, epochs, seed)
        np.testing.assert_array_equal(counts[:train.n_samples], want)
        assert not counts[train.n_samples:].any()
        # the dual form sums the same steps in another order: equal up to rounding
        scale = np.linalg.norm(np.append(w, b))
        assert np.linalg.norm(np.append(model.w - w, model.b - b)) <= 1e-12 * scale

    def test_stacked_kernel_matches_scalar_reference(self, monkeypatch):
        d, _ = generate_synthetic(SyntheticSpec(30, 250, 3, 1.0, 1.0, seed=7))
        shared = np.array([5, 0, 9])
        # widths 1, 3, 8, 50 and 201; Cs 0.01 to 10; the two jobs on `shared` differ
        # in C and seed and share one Gram matrix
        jobs = [(np.array([4]), 0.01, 3), (shared, 0.1, 11), (np.arange(8)[::-1], 1.0, 5),
                (shared, 10.0, 12), (np.array([2, 7, 11]), 3.0, 3),
                (np.arange(0, 250, 5), 0.5, 8), (np.arange(249, 48, -1), 0.1, 9)]
        seen = self._spy_counts(monkeypatch)
        (models,) = train_linear_classifiers([(d, jobs)], epochs=7)
        (counts,) = seen
        for model, a, (sel, C, seed) in zip(models, counts, jobs):
            self._assert_matches_reference(d, model, a, sel, C, 7, seed)
            alone = _fit_one(d, sel, C, epochs=7, seed=seed)
            assert alone.w.tobytes() == model.w.tobytes() and alone.b == model.b
            np.testing.assert_array_equal(seen[-1][0], a)  # the one-job call's counts

    def test_folds_of_unequal_size_train_as_they_would_alone(self, monkeypatch):
        # 5 stratified folds of 23 samples: training sides of 17, 18 and 19 rows,
        # each normalized on its own rows, as cross_validate batches them
        d, _ = generate_synthetic(SyntheticSpec(23, 40, 4, 1.0, 1.0, seed=3))
        parts = stratified_fold_indices(d.y, 5, seed=4)
        groups = []
        for j in range(5):
            tr_idx = np.sort(np.concatenate([parts[i] for i in range(5) if i != j]))
            trn, _ = normalize_features(subset(d, tr_idx))
            jobs = [(np.arange(j, 40, 3), 0.05, derive_seed(j, 0)),
                    (np.arange(j, 40, 3), 5.0, derive_seed(j, 1)),
                    (np.array([39 - j, j]), 0.5, derive_seed(j, 2))]
            groups.append((trn, jobs))
        assert sorted({trn.n_samples for trn, _ in groups}) == [17, 18, 19]
        seen = self._spy_counts(monkeypatch)
        batched = train_linear_classifiers(groups, 6)
        (counts,) = seen
        assert counts.shape == (15, 19)
        for g, ((trn, jobs), models) in enumerate(zip(groups, batched)):
            (alone,) = train_linear_classifiers([(trn, jobs)], epochs=6)
            for m, (model, solo, (sel, C, seed)) in enumerate(zip(models, alone, jobs)):
                assert model.w.tobytes() == solo.w.tobytes() and model.b == solo.b
                self._assert_matches_reference(trn, model, counts[3 * g + m], sel, C, 6, seed)

    def test_memory_holds_each_gram_once(self):
        # the Grams are written straight into the step loop's padded stack; held
        # in a list as well, they took twice the stack
        d, _ = generate_synthetic(SyntheticSpec(300, 40, 3, 1.0, 1.0, seed=2))
        jobs = [(np.arange(b, b + 5), 1.0, b) for b in range(6)]
        train_linear_classifiers([(d, jobs[:1])], epochs=1)  # lazy imports first
        tracemalloc.start()
        try:
            train_linear_classifiers([(d, jobs)], epochs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = (1 + len(jobs) * d.n_samples) * d.n_samples * 8
        assert peak < 1.5 * stack

    def test_decision_width_check(self):
        d = _ds([[0.0, 1.0], [1.0, 0.0]], [0, 1])
        model = _fit_one(d, np.array([0]), C=1.0, epochs=5)
        with pytest.raises(ValueError, match="width"):
            model.decision(np.ones((2, 2)))


def _auc_bruteforce(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum(1 for p in pos for q in neg if p > q)
    ties = sum(1 for p in pos for q in neg if p == q)
    return (2 * wins + ties) / (2 * len(pos) * len(neg))


class TestRocAuc:
    def test_hand_example(self):
        assert roc_auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1])) == 0.75

    def test_perfect_and_inverted(self):
        y = np.array([0, 0, 1, 1])
        assert roc_auc(np.array([1.0, 2.0, 3.0, 4.0]), y) == 1.0
        assert roc_auc(np.array([4.0, 3.0, 2.0, 1.0]), y) == 0.0

    def test_all_tied_scores_give_half(self):
        assert roc_auc(np.full(6, 0.3), np.array([0, 1, 0, 1, 0, 1])) == 0.5

    @pytest.mark.parametrize("seed", range(8))
    def test_exactly_matches_bruteforce_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, T)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 6, T) / 4.0  # lattice scores force ties
        assert roc_auc(scores, labels) == _auc_bruteforce(scores.tolist(), labels.tolist())
        # -0.0 == +0.0 and inf == inf, so each such pair ties
        scores = rng.choice([-np.inf, -1.0, -0.0, 0.0, 0.5, np.inf], T)
        assert roc_auc(scores, labels) == _auc_bruteforce(scores.tolist(), labels.tolist())

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.integers(-16, 16, 30) / 8.0
        labels = np.arange(30) % 2
        base = roc_auc(scores, labels)
        assert roc_auc(scores * 8.0, labels) == base
        assert roc_auc(scores * 2.0 + 1.0, labels) == base

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))


class TestCrossValidate:
    # one (alpha, C) candidate over 5 folds, 2 features, 2 epochs
    _one_pair = Protocol(alpha_grid=(0.5,), c_grid=(1.0,), folds=5, cv_cardinality=2, epochs=2)

    def _fixture(self):
        return generate_synthetic(SyntheticSpec(24, 10, 3, 2.5, 1.0, seed=6))[0]

    def test_single_candidate_grid(self):
        d = self._fixture()
        a, c = cross_validate(d, Protocol(alpha_grid=(0.3,), c_grid=(2.0,), folds=3,
                                         cv_cardinality=4, epochs=5), 0)
        assert (a, c) == (0.3, 2.0)

    def test_exact_ties_break_to_smallest_alpha(self):
        # every feature identical: all alphas produce the same ranking and AUC
        rng = np.random.default_rng(8)
        col = rng.normal(size=18)
        X = np.tile(col[:, None], (1, 4))
        d = _ds(X, np.arange(18) % 2)
        a, c = cross_validate(d, Protocol(alpha_grid=(0.0, 0.4, 0.8), c_grid=(1.0,), folds=3,
                                          cv_cardinality=2, epochs=5), 1)
        assert (a, c) == (0.0, 1.0)

    def test_chosen_pair_matches_exhaustive_replay(self):
        d = self._fixture()
        alphas, cs = (0.0, 0.5, 1.0), (0.1, 1.0)
        folds, cardinality, seed, epochs = 3, 4, 11, 8
        got = cross_validate(d, Protocol(alpha_grid=alphas, c_grid=cs, folds=folds,
                                         cv_cardinality=cardinality, epochs=epochs), seed)

        # independent replay with plain loops over the reference scores; each
        # alpha's ranking comes from the dense n x n blend, solved by the
        # oracle, so this is also the cross-validation-level oracle for the
        # structured operator
        def rescaled(values):
            lo, hi = values.min(), values.max()
            return np.zeros_like(values) if lo == hi else (values - lo) / (hi - lo)

        fold_parts = stratified_fold_indices(d.y, folds, seed)
        table = np.zeros((len(alphas), len(cs)))
        for j in range(folds):
            tr_idx = np.sort(np.concatenate([fold_parts[i] for i in range(folds) if i != j]))
            va_idx = fold_parts[j]
            trd = subset(d, tr_idx)
            stats = fit_normalization(trd.X)
            trn = Dataset(stats._transform(trd.X, slice(None)), trd.y)
            va_X = stats._transform(d.X[va_idx], slice(None))
            va_y = d.y[va_idx]
            fs = rescaled(fisher_oracle(trn.X, trn.y))
            ms = rescaled(mi_oracle(trn.X, trn.y))
            s = spreads_oracle(trn.X)
            for ai, a in enumerate(alphas):
                A = a * np.outer(fs, ms) + (1 - a) * np.maximum.outer(s, s)
                sel = FeatureRanking(matrix_power_oracle(A).v0).top(cardinality)
                for ci, c in enumerate(cs):
                    model = _fit_one(trn, sel, c, epochs=epochs,
                                     seed=derive_seed(seed, j, ai, ci))
                    table[ai, ci] += roc_auc(model.decision(va_X[:, sel]), va_y)
        table /= folds
        best = max(
            ((table[ai, ci], -ai, -ci, (alphas[ai], cs[ci]))
             for ai in range(len(alphas)) for ci in range(len(cs))),
        )[-1]
        assert got == best
        got_mean = table[alphas.index(got[0]), cs.index(got[1])]
        assert got_mean >= table.min()
        assert got_mean == table.max()

    def test_scores_each_fold_once_for_all_alphas(self, monkeypatch):
        d = self._fixture()
        seen = _spy_scoring(monkeypatch)
        folds = 3
        cross_validate(d, Protocol(alpha_grid=(0.0, 0.25, 0.5, 0.75, 1.0), c_grid=(0.1, 1.0),
                                   folds=folds, cv_cardinality=4, epochs=3), 2)
        assert len(seen) == folds

    def test_more_than_two_classes_rejected_before_scoring(self, monkeypatch):
        # three classes once scored every fold before the trainer refused them
        seen = _spy_scoring(monkeypatch)
        d = _ds(np.random.default_rng(3).normal(size=(30, 6)), np.arange(30) % 3)
        with pytest.raises(ValueError, match="the data has 3 classes"):
            cross_validate(d, self._one_pair, 0)
        assert seen == []

    def test_validation_row_that_overflows_is_rejected(self):
        # column 0 is 0 or 1e-300 on every row but row 0 (1e10): a fold that
        # holds row 0 out divides it by a scale near 1e-299
        rng = np.random.default_rng(5)
        X = np.column_stack([np.arange(30) % 2 * 1e-300, rng.normal(size=30)])
        X[0, 0] = 1e10
        d = _ds(X, np.arange(30) % 2)
        with pytest.raises(DatasetError, match="^column 0 overflows float64 when normalized"):
            cross_validate(d, self._one_pair, 0)

    @pytest.mark.parametrize("rows", [np.arange(24) % 2 == 0, np.arange(12) - 1,
                                      np.arange(12) + 0.5, np.array([0, 5, 24])])
    def test_rows_must_be_indices_into_d(self, rows):
        with pytest.raises(ValueError, match="row indices"):
            cross_validate(self._fixture(), replace(self._one_pair, folds=3), 0, rows)

    def test_fold_with_single_class_rejected(self):
        y = np.array([0] * 3 + [1] * 12)
        rng = np.random.default_rng(2)
        d = _ds(rng.normal(size=(15, 4)), y)
        with pytest.raises(SplitError, match="single class"):
            cross_validate(d, self._one_pair, 0)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match=r"^alpha_grid values must lie in \[0, 1\]$"):
            Protocol(alpha_grid=())
        with pytest.raises(ValueError, match=r"^alpha_grid values must lie in \[0, 1\]$"):
            Protocol(alpha_grid=(0.5, 1.2))
        with pytest.raises(ValueError, match="^c_grid values must be positive and finite$"):
            Protocol(c_grid=(0.0,))
        for c in (np.inf, np.nan):
            with pytest.raises(ValueError, match="^c_grid values must be positive and finite$"):
                Protocol(c_grid=(1.0, c))

    def test_rows_give_the_pair_of_a_copy_of_the_rows(self):
        # folds are cut from the given rows' labels in the given order, so rows of
        # d, sorted or not, choose as a dataset of those rows would
        d = generate_synthetic(SyntheticSpec(45, 16, 3, 0.8, 1.0, seed=12))[0]
        grid = Protocol(alpha_grid=(0.0, 0.3, 0.6, 1.0), c_grid=(0.1, 1.0, 10.0), folds=3,
                        cv_cardinality=3, epochs=6)
        pairs = set()
        for seed in range(4):
            rows = np.random.default_rng(seed).choice(45, size=30, replace=False)
            for r in (rows, np.sort(rows)):
                want = cross_validate(_ds(d.X[r], d.y[r]), grid, seed)
                assert cross_validate(d, grid, seed, rows=r) == want
                pairs.add(want)
        assert len(pairs) > 1
        assert cross_validate(d, grid, 0, rows=np.arange(45)) == cross_validate(d, grid, 0)

    def test_held_group_reads_only_the_selected_columns_of_held_rows(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 12)) * rng.uniform(0.1, 100.0, size=12)
        X[:, 3::4] -= 500.0  # shifted on the training rows' minimum
        X[:, 5] = 7.0  # degenerate: held rows map to zeros
        d = _ds(X, np.arange(30) % 2)
        train, held = split_indices(d.y, Protocol(repeats=1, seed=2))[0]
        held = held[::-1]
        scores = ev.score_features(d, rows=train)
        jobs = [(np.array([7, 5, 3]), 1.0, 0), (np.array([3, 11]), 0.5, 1)]
        trn, remapped, Xh, yh = ev._held_group(d, scores, jobs, held)
        cols = [3, 5, 7, 11]
        every = slice(None)
        assert Xh.tobytes() == scores.stats._transform(d.X[held], every)[:, cols].tobytes()
        assert Xh[:, 1].tolist() == [0.0] * len(held)
        assert yh.tolist() == d.y[held].tolist()
        assert trn.X.tobytes() == scores.stats._transform(d.X[train], every)[:, cols].tobytes()
        assert trn.y.tolist() == d.y[train].tolist()
        assert [sel.tolist() for sel, _, _ in remapped] == [[2, 1, 0], [0, 3]]


class TestKuncheva:
    def test_identical_sets(self):
        assert kuncheva_index(range(100), range(100), 400) == 1.0

    def test_disjoint_halves(self):
        assert kuncheva_index(range(8), range(8, 16), 16) == -1.0

    def test_chance_overlap_is_zero(self):
        # N=16, k=4, r = k^2/N = 1 shared element
        assert kuncheva_index({0, 1, 2, 3}, {3, 7, 8, 9}, 16) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = set(rng.choice(50, 10, replace=False).tolist())
        b = set(rng.choice(50, 10, replace=False).tolist())
        assert kuncheva_index(a, b, 50) == kuncheva_index(b, a, 50)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal size"):
            kuncheva_index({1, 2}, {1, 2, 3}, 10)
        with pytest.raises(ValueError, match="1..9"):
            kuncheva_index(set(), set(), 10)
        with pytest.raises(ValueError, match="1..9"):
            kuncheva_index(range(10), range(10), 10)
        with pytest.raises(ValueError, match="duplicates"):
            kuncheva_index([1, 1, 2], [1, 2, 3], 10)
        with pytest.raises(ValueError, match="outside"):
            kuncheva_index({0, 12}, {0, 1}, 10)

    def test_random_rankings_sit_at_chance(self):
        rng = np.random.default_rng(4)
        N, k = 400, 100
        rankings = [ranking_of_order(rng.permutation(N)) for _ in range(50)]
        (_, value), = _curve(rankings, [k])
        assert abs(value) <= 0.05


class TestStabilityCurve:
    def test_identical_rankings_give_one(self):
        r = ranking_of_order(np.arange(10))
        curve = _curve([r, r, r], [2, 5, 8])
        assert [v for _, v in curve] == [1.0, 1.0, 1.0]

    def test_reversed_rankings_give_minus_one_at_half(self):
        n = 12
        a = ranking_of_order(np.arange(n))
        b = ranking_of_order(np.arange(n)[::-1])
        curve = _curve([a, b], [n // 2])
        assert curve == [(6, -1.0)]

    def test_values_bounded(self):
        rng = np.random.default_rng(5)
        rankings = [ranking_of_order(rng.permutation(30)) for _ in range(6)]
        for _, v in _curve(rankings, [5, 10, 15]):
            assert -1.0 <= v <= 1.0

    @pytest.mark.parametrize("n_rankings", [2, 3, 7])
    def test_matches_pairwise_kuncheva_mean(self, n_rankings):
        # rankings that share most of their head, so overlaps vary across pairs
        rng = np.random.default_rng(n_rankings)
        n = 40
        rankings = []
        for _ in range(n_rankings):
            order = np.arange(n)
            for a, b in rng.integers(0, n, size=(12, 2)):
                order[[a, b]] = order[[b, a]]
            rankings.append(ranking_of_order(order))
        ks = [1, 2, 5, 13, 20, n - 1]
        want = []
        for k in ks:
            tops = [r.top(k) for r in rankings]
            vals = [kuncheva_index(tops[i], tops[j], n)
                    for i, j in combinations(range(n_rankings), 2)]
            want.append((k, float(np.mean(vals))))
        assert _curve(rankings, ks) == want


class TestTwoSampleTTest:
    def test_frozen_hand_example(self):
        # t = -1.0, df = 8
        p = two_sample_ttest([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert p == pytest.approx(0.3466, abs=5e-4)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=int(rng.integers(2, 30)))
        y = rng.normal(loc=0.3, size=int(rng.integers(2, 30)))
        want = scipy.stats.ttest_ind(x, y, equal_var=True).pvalue
        assert two_sample_ttest(x, y) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n, shift", [(1000, 0.1), (5000, 0.02), (30, 4.0), (300, 2.0),
                                          (4, 40.0)])
    def test_matches_scipy_at_large_df_and_t(self, n, shift):
        # df from 7 to 9999, |t| from 0.7 to 63, p from 0.47 down to 1e-104
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=n), rng.normal(loc=shift, size=n + 1)
        want = scipy.stats.ttest_ind(x, y, equal_var=True).pvalue
        assert two_sample_ttest(x, y) == pytest.approx(want, rel=1e-10)

    def test_incomplete_beta_matches_scipy_on_a_grid(self):
        dfs = [*range(1, 60), *range(60, 2001, 47), 19998, 199998]
        ts = [0.0, 1e-8, 1e-3, *np.linspace(0.05, 25.0, 60), 40.0, 1e3]
        for df in dfs:
            for t in ts:
                x = df / (df + t * t)
                want = scipy.special.betainc(df / 2.0, 0.5, x)
                assert ev._betainc(df / 2.0, 0.5, x) == pytest.approx(want, rel=1e-10, abs=0)

    def test_identical_constant_samples(self):
        assert two_sample_ttest([2.0, 2.0, 2.0], [2.0, 2.0]) == 1.0

    def test_separated_constant_samples(self):
        assert two_sample_ttest([0.0, 0.0], [5.0, 5.0, 5.0]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="two observations"):
            two_sample_ttest([1.0], [1.0, 2.0])

    def test_range(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = two_sample_ttest(rng.normal(size=8), rng.normal(size=8))
            assert 0.0 <= p <= 1.0

    def test_import_leaves_scipy_special_unloaded(self):
        # a fresh interpreter that imports the same ecfs package as this one, then
        # runs an evaluation whose t-tests see non-constant AUCs
        src = str(Path(ecfs.__file__).parents[1])
        code = (
            "import sys, ecfs\n"
            "print('scipy.special' in sys.modules)\n"
            "d, _ = ecfs.generate_synthetic(ecfs.SyntheticSpec(30, 12, 3, 0.5, 1.0, seed=1))\n"
            "rep = ecfs.run_evaluation(d, ecfs.Protocol(repeats=3, seed=0, cardinalities=(3,),\n"
            "                                           epochs=4))\n"
            "print(sorted(p for s in rep['significance'].values() for p in s.values()))\n"
            "print('scipy.special' in sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src))
        before, pvalues, after, scipy_modules = out.stdout.strip().splitlines()
        assert all(0.0 < p < 1.0 for p in json.loads(pvalues))
        assert before == after == "False"
        # no part of scipy runs at all, so it need not be a run-time dependency
        assert scipy_modules == "[]"


class TestRunEvaluation:
    def _fixture(self):
        return generate_synthetic(SyntheticSpec(36, 12, 3, 2.5, 1.0, seed=10))[0]

    def test_report_shape(self):
        d = self._fixture()
        rep = run_evaluation(d, Protocol(repeats=5, seed=0, cardinalities=(3, 6), epochs=8))
        assert rep["schema_version"] == 1
        for method in ("ec_fs", "fisher", "mi"):
            block = rep["auc"][method]["per_cardinality"]
            assert set(block) == {"3", "6"}
            for k in ("3", "6"):
                assert len(block[k]["samples"]) == 5
            assert len(rep["stability"][method]) == 2
        assert set(rep["significance"]) == {"ec_fs_vs_fisher", "ec_fs_vs_mi"}
        assert len(rep["alpha_per_repeat"]) == 5

    def test_byte_deterministic_and_worker_invariant(self):
        d = self._fixture()
        protocol = Protocol(repeats=4, seed=3, cardinalities=(3, 6), epochs=8)
        r1 = run_evaluation(d, protocol)
        r2 = run_evaluation(d, protocol)
        r3 = run_evaluation(d, protocol, workers=3)
        s1, s2, s3 = (json.dumps(r, sort_keys=True) for r in (r1, r2, r3))
        assert s1 == s2 == s3

    def test_cv_mode_and_stability_are_worker_invariant(self):
        d = generate_synthetic(SyntheticSpec(24, 12, 3, 2.5, 1.0, seed=4))[0]
        protocol = Protocol(repeats=3, seed=5, alpha="cv", cardinalities=(3,),
                            alpha_grid=(0.0, 0.5, 1.0), c_grid=(1.0,), folds=2,
                            cv_cardinality=3, epochs=4)
        for run in (run_evaluation, run_stability):
            one = json.dumps(run(d, protocol, workers=1), sort_keys=True)
            three = json.dumps(run(d, protocol, workers=3), sort_keys=True)
            assert one == three

    @pytest.mark.parametrize("alpha", [0.5, "cv"])
    def test_auc_samples_match_exhaustive_replay(self, alpha):
        # overlapping classes: the AUC samples move with the ranking, the test-row
        # transform, C and the classifier seed (the usual fixture reads 1.0 throughout)
        d = generate_synthetic(SyntheticSpec(36, 12, 3, 1.0, 1.0, seed=10))[0]
        ks, fixed_c, epochs = (3, 6), 2.0, 6
        # in cv mode the one C candidate differs from fixed_c, so the replay also
        # checks that only ec_fs trains at the cross-validated C
        plan = Protocol(repeats=3, seed=13, cardinalities=ks, alpha=alpha, fixed_c=fixed_c,
                        epochs=epochs, alpha_grid=(0.0, 1.0), c_grid=(0.05,), folds=2,
                        cv_cardinality=3)
        rep = run_evaluation(d, plan)
        want_c = fixed_c if alpha == 0.5 else 0.05
        assert rep["c_per_repeat"] == [want_c] * plan.repeats

        # independent replay with plain loops over the public primitives: every
        # statistic from the training rows alone, the test rows transformed by
        # them, each classifier seeded by (seed, repeat, method constant, k)
        method_seed = {"ec_fs": 0, "fisher": 1, "mi": 2}
        for r, (tr_idx, te_idx) in enumerate(split_indices(d.y, plan)):
            stats = fit_normalization(d.X[tr_idx])
            trn = Dataset(stats._transform(d.X[tr_idx], slice(None)), d.y[tr_idx])
            te_X = stats._transform(d.X[te_idx], slice(None))
            f, m = fisher_oracle(trn.X, trn.y), mi_oracle(trn.X, trn.y)
            A = AdjacencyMatrix(f, m, spreads_oracle(trn.X), rep["alpha_per_repeat"][r])
            rankings = {"ec_fs": FeatureRanking(power_iteration(A).v0),
                        "fisher": FeatureRanking(f), "mi": FeatureRanking(m)}
            for method, ranking in rankings.items():
                c = want_c if method == "ec_fs" else fixed_c
                for k in ks:
                    sel = ranking.top(k)
                    model = _fit_one(trn, sel, c, epochs=epochs,
                                     seed=derive_seed(plan.seed, r, method_seed[method], k))
                    want = roc_auc(model.decision(te_X[:, sel]), d.y[te_idx])
                    assert rep["auc"][method]["per_cardinality"][str(k)]["samples"][r] == want

    def test_auc_does_not_depend_on_other_cardinalities(self):
        # overlapping classes, so the AUC samples vary; the widest cardinality once
        # zero-padded the narrower ones, and a margin could then round differently
        d = generate_synthetic(SyntheticSpec(40, 30, 4, 0.8, 1.0, seed=2))[0]
        plan = Protocol(repeats=4, seed=9, epochs=12, fixed_c=0.5)
        full = run_evaluation(d, replace(plan, cardinalities=(2, 5, 29)))["auc"]
        for k in (2, 5, 29):
            alone = run_evaluation(d, replace(plan, cardinalities=(k,)))["auc"]
            for method in ("ec_fs", "fisher", "mi"):
                cell = alone[method]["per_cardinality"][str(k)]
                assert cell == full[method]["per_cardinality"][str(k)]
        samples = [v for block in full.values() for cell in block["per_cardinality"].values()
                   for v in cell["samples"]]
        assert len(set(samples)) > 3

    def test_held_out_value_that_overflows_is_rejected(self):
        # column 0 is -1e307 on every row but row 0, which seed 5 holds out;
        # shifted by 1e307 it passed float64 with only a warning, and AUC 0.5
        X = np.column_stack([np.full(30, -1e307), np.ones(30), np.full(30, 2.0)])
        X[0, 0] = 1.79e308
        d = _ds(X, np.arange(30) % 2)
        plan = Protocol(repeats=1, seed=5, methods=("fisher",), cardinalities=(1, 2), epochs=2)
        assert 0 in split_indices(d.y, plan)[0][1]
        with pytest.raises(DatasetError, match="^column 0 overflows float64 when normalized"):
            run_evaluation(d, plan)

    def test_rankings_never_see_test_rows(self, monkeypatch):
        d = self._fixture()
        plan = Protocol(repeats=3, seed=7, cardinalities=(2, 4), epochs=4)
        seen = _spy_scoring(monkeypatch)
        run_evaluation(d, plan)
        _assert_scored_training_rows_only(d, plan, seen)

    def test_scores_once_per_repeat_in_one_mi_pass(self, monkeypatch):
        # score_features takes all three vectors in one pass, whatever the methods
        d = self._fixture()
        seen = _spy_scoring(monkeypatch)
        mi_calls = _count_calls(monkeypatch, "_mutual_information")
        run_evaluation(d, Protocol(repeats=3, seed=0, methods=("fisher",), cardinalities=(3,),
                                   epochs=4))
        assert len(seen) == len(mi_calls) == 3
        run_evaluation(d, Protocol(repeats=3, seed=0, cardinalities=(3,), epochs=4))
        assert len(seen) == len(mi_calls) == 6

    def test_cv_runs_only_for_ec_fs(self, monkeypatch):
        # no other method reads the cross-validated (alpha, C) pair
        calls = []
        real = ev.cross_validate

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ev, "cross_validate", spy)
        d = self._fixture()
        plan = Protocol(repeats=2, seed=1, methods=("fisher", "mi"), cardinalities=(3,),
                        alpha="cv", alpha_grid=(0.0, 1.0), c_grid=(1.0,), folds=2,
                        cv_cardinality=3, epochs=4)
        rep = run_evaluation(d, plan)
        run_stability(d, plan)
        assert calls == []
        assert "alpha_per_repeat" not in rep and "c_per_repeat" not in rep
        run_evaluation(d, replace(plan, methods=("ec_fs",)))
        assert len(calls) == plan.repeats

    def test_cv_mode_records_grid_choices(self):
        d = self._fixture()
        rep = run_evaluation(d, Protocol(
            repeats=2, seed=1, cardinalities=(3,), alpha="cv",
            alpha_grid=(0.0, 1.0), c_grid=(1.0,), folds=2, cv_cardinality=3, epochs=4,
        ))
        assert all(a in (0.0, 1.0) for a in rep["alpha_per_repeat"])
        assert rep["c_per_repeat"] == [1.0, 1.0]
        assert rep["config"]["alpha"] == "cv"

    def test_multiclass_rejected(self):
        rng = np.random.default_rng(0)
        d = _ds(rng.normal(size=(18, 4)), np.arange(18) % 3)
        with pytest.raises(ValueError, match="binary"):
            run_evaluation(d, Protocol(repeats=2, seed=0, cardinalities=(2,)))

    @pytest.mark.parametrize("fixed_c", [0.0, np.inf, np.nan])
    def test_fixed_c_must_be_positive_and_finite(self, fixed_c):
        # an infinite C once gave every AUC as 0.5 after divide-by-zero warnings
        with pytest.raises(ValueError, match="^fixed_c must be positive and finite"):
            Protocol(repeats=2, seed=0, cardinalities=(3,), fixed_c=fixed_c)

    def test_cardinality_validation(self):
        d = self._fixture()
        with pytest.raises(ValueError, match="cardinalit"):
            run_evaluation(d, Protocol(repeats=2, seed=0, cardinalities=(12,)))
        with pytest.raises(ValueError, match="^cardinalities must be positive integers$"):
            Protocol(repeats=2, seed=0, cardinalities=())

    def test_single_repeat_skips_aggregates(self):
        d = self._fixture()
        rep = run_evaluation(d, Protocol(repeats=1, seed=0, cardinalities=(3,), epochs=4))
        assert rep["stability"] == {}
        assert rep["significance"] == {}
        assert rep["auc"]["ec_fs"]["per_cardinality"]["3"]["sd"] == 0.0

    def test_method_subset(self):
        d = self._fixture()
        rep = run_evaluation(d, Protocol(repeats=3, seed=0, methods=("fisher",),
                                         cardinalities=(3,), epochs=4))
        assert list(rep["auc"]) == ["fisher"]
        assert rep["significance"] == {}
        assert "alpha_per_repeat" not in rep

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown methods \['relief'\]"):
            Protocol(repeats=2, seed=0, methods=("relief",), cardinalities=(3,))


class TestRunStability:
    def test_degenerate_fixture_gives_flat_one(self):
        # feature 0 equals the label, everything else constant: every training
        # split produces the same ranking, so the curve pins at 1
        T = 18
        y = np.arange(T) % 2
        X = np.ones((T, 5))
        X[:, 0] = y
        d = _ds(X, y)
        rep = run_stability(d, Protocol(repeats=4, seed=0, cardinalities=(1, 2, 3)))
        for method in ("ec_fs", "fisher", "mi"):
            assert [row["kuncheva"] for row in rep["stability"][method]] == [1.0, 1.0, 1.0]

    def test_values_in_range_on_noise(self):
        rng = np.random.default_rng(14)
        d = _ds(rng.normal(size=(30, 10)), np.arange(30) % 2)
        rep = run_stability(d, Protocol(repeats=4, seed=2, cardinalities=(2, 5)))
        for rows in rep["stability"].values():
            for row in rows:
                assert -1.0 <= row["kuncheva"] <= 1.0

    def test_rejects_a_float_bin_count(self):
        d = generate_synthetic(SyntheticSpec(24, 8, 2, 2.0, 1.0, seed=0))[0]
        with pytest.raises(ValueError, match="bins must be an integer"):
            run_stability(d, Protocol(repeats=2, seed=0, cardinalities=(2,), bins=3.0))

    def test_needs_two_repeats(self):
        d, _ = generate_synthetic(SyntheticSpec(12, 6, 2, 2.0, 1.0, seed=0))
        with pytest.raises(ValueError, match="2 repeats"):
            run_stability(d, Protocol(repeats=1, seed=0, cardinalities=(2,)))

    def test_rankings_never_see_test_rows(self, monkeypatch):
        d = generate_synthetic(SyntheticSpec(36, 12, 3, 2.5, 1.0, seed=10))[0]
        plan = Protocol(repeats=3, seed=7, methods=("fisher", "ec_fs"), cardinalities=(2, 4))
        seen = _spy_scoring(monkeypatch)
        mi_calls = _count_calls(monkeypatch, "_mutual_information")
        run_stability(d, plan)
        _assert_scored_training_rows_only(d, plan, seen)
        assert len(mi_calls) == len(seen) == 3  # one MI pass per scoring


class TestChunks:
    """Repeats run in contiguous chunks, one classifier training call per chunk."""

    def test_chunks_cover_the_repeats_in_order(self):
        for workers in range(1, 5):
            for n in range(1, 4 * ev._CHUNK_REPEATS + 3):
                chunks = ev._chunks(n, workers)
                assert [r for c in chunks for r in c] == list(range(n))
                sizes = {len(c) for c in chunks}
                assert max(sizes) <= ev._CHUNK_REPEATS and max(sizes) - min(sizes) <= 1
                assert len(chunks) == n or len(chunks) % workers == 0

    def test_one_training_call_per_chunk(self, monkeypatch):
        calls = []
        real = ev.train_linear_classifiers

        def spy(groups, epochs):
            calls.append(len(groups))
            return real(groups, epochs)

        monkeypatch.setattr(ev, "train_linear_classifiers", spy)
        d = generate_synthetic(SyntheticSpec(36, 12, 3, 2.5, 1.0, seed=10))[0]
        kw = dict(cardinalities=(3, 6), epochs=2)
        run_evaluation(d, Protocol(repeats=8, seed=0, **kw))
        assert calls == [8]
        calls.clear()
        n = 2 * ev._CHUNK_REPEATS + 1
        run_evaluation(d, Protocol(repeats=n, seed=0, **kw))
        assert len(calls) == math.ceil(n / ev._CHUNK_REPEATS) and sum(calls) == n

    def test_memory_does_not_grow_with_repeats_past_one_chunk(self):
        # a chunk holds its repeats' held-out groups and Grams until its training
        # call; with every repeat in one call, 4 chunks' worth peaked 3.8x higher
        d = generate_synthetic(SyntheticSpec(40, 400, 5, 1.0, 1.0, seed=0))[0]

        def peak(n_repeats: int) -> int:
            tracemalloc.start()
            try:
                run_evaluation(d, Protocol(repeats=n_repeats, seed=0,
                                           cardinalities=(100, 200, 300), epochs=2))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(ev._CHUNK_REPEATS)
        assert peak(4 * ev._CHUNK_REPEATS) < 1.3 * one

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="workers run serially without fork")
    def test_worker_error_reaches_the_caller_whole(self, monkeypatch):
        # forked workers inherit the patch; only a worker, never this process, fails
        d = generate_synthetic(SyntheticSpec(36, 12, 3, 2.5, 1.0, seed=10))[0]
        plan = Protocol(repeats=4, seed=3, cardinalities=(3,))
        target = split_indices(d.y, plan)[3][0]
        parent, real = os.getpid(), ev.score_features

        def failing(d, bins=None, rows=None):
            if os.getpid() != parent and np.array_equal(rows, target):
                raise PowerIterationError("no convergence after 9 iterations", 1e-3, 9)
            return real(d, bins, rows)

        monkeypatch.setattr(ev, "score_features", failing)
        with pytest.raises(PowerIterationError) as exc:
            run_stability(d, plan, workers=2)
        assert str(exc.value) == "no convergence after 9 iterations"
        assert (exc.value.residual, exc.value.iterations) == (1e-3, 9)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # the worker was reaped

    def test_without_fork_every_chunk_runs_serially(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        d = generate_synthetic(SyntheticSpec(36, 12, 3, 2.5, 1.0, seed=10))[0]
        plan = Protocol(repeats=4, seed=3, cardinalities=(3, 6), epochs=4)
        for run, workers in ((run_stability, 2), (run_evaluation, 3)):
            one = json.dumps(run(d, plan, workers=1), sort_keys=True)
            assert json.dumps(run(d, plan, workers=workers), sort_keys=True) == one


class TestSeedDerivation:
    def test_deterministic_and_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(0) != derive_seed(1)
