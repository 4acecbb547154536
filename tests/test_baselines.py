import numpy as np

from ecfs import Dataset, SyntheticSpec, generate_synthetic, score_features


def _perfect_feature_dataset():
    # feature 2 equals the label; the rest is seeded noise
    rng = np.random.default_rng(1)
    T = 40
    y = np.arange(T) % 2
    X = rng.normal(size=(T, 5))
    X[:, 2] = y
    return Dataset(X, y)


def test_fisher_puts_perfect_feature_first():
    d = _perfect_feature_dataset()
    assert score_features(d).ranking("fisher").order[0] == 2


def test_mi_puts_perfect_feature_first():
    d = _perfect_feature_dataset()
    assert score_features(d, bins=4).ranking("mi").order[0] == 2


def test_constant_features_fall_to_the_tail_in_index_order():
    rng = np.random.default_rng(2)
    T = 30
    y = np.arange(T) % 2
    X = rng.normal(size=(T, 6))
    X[:, 1] = 4.0
    X[:, 4] = -1.0
    d = Dataset(X, y)
    for ranking in (score_features(d).ranking("fisher"),
                    score_features(d, bins=5).ranking("mi")):
        assert ranking.order[-2:].tolist() == [1, 4]
        assert ranking.scores[-2:].tolist() == [0.0, 0.0]


def test_recall_on_synthetic_benchmark():
    d, inf = generate_synthetic(SyntheticSpec(200, 500, 20, 2.0, 1.0, seed=7))
    scores = score_features(d)
    fisher_hits = len(set(int(i) for i in scores.ranking("fisher").top(50)) & inf)
    mi_hits = len(set(int(i) for i in scores.ranking("mi").top(50)) & inf)
    assert fisher_hits >= 18
    assert mi_hits >= 12


def test_deterministic():
    d, _ = generate_synthetic(SyntheticSpec(60, 30, 5, 2.0, 1.0, seed=3))
    np.testing.assert_array_equal(score_features(d).ranking("fisher").order,
                                  score_features(d).ranking("fisher").order)
    np.testing.assert_array_equal(score_features(d, bins=6).ranking("mi").order,
                                  score_features(d, bins=6).ranking("mi").order)
