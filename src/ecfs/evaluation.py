"""Repeated-split evaluation: classifier AUC, selection stability, significance.

Everything here is a pure function of its inputs and a seed. Per-repeat seeds
are derived from the master seed with a fixed counter scheme, so results are
identical across runs and across worker counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .centrality import FeatureScores, score_features
from .data import Dataset, _row_indices
from .forkjoin import fork_join
from .protocol import Protocol

# fixed per-method constants for seed derivation, independent of method order
_METHOD_SEED = {"ec_fs": 0, "fisher": 1, "mi": 2}


class SplitError(ValueError):
    """A requested partition cannot respect the class structure."""


def derive_seed(*parts: int) -> int:
    """Collapse a master seed plus counters into one well-mixed integer seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0] >> 1)


def _distinct(a: np.ndarray) -> np.ndarray:
    """np.unique(a) for an integer array a: its sorted distinct values. np.unique
    itself imports numpy.ma (about 13 ms and 0.9 MB per process), which no command
    uses."""
    s = np.sort(a, axis=None)
    keep = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _train_count(count: int, fraction: float) -> int:
    n = int(np.floor(fraction * count + 0.5))
    return min(max(n, 1), count - 1)


def split_indices(y: np.ndarray, protocol: Protocol) -> list[tuple[np.ndarray, np.ndarray]]:
    """Index pairs (train, test) for each of the protocol's repeats; together
    they cover all rows.

    Each repeat splits within each class, keeping class proportions to within
    one sample and at least one sample of every class on both sides.
    """
    y = np.asarray(y, dtype=int)
    out = []
    classes = _distinct(y)
    for r in range(protocol.repeats):
        rng = np.random.default_rng([protocol.seed, r])
        train_parts, test_parts = [], []
        for c in classes:
            idx = np.flatnonzero(y == c)
            if len(idx) < 2:
                raise SplitError(
                    f"class {c} has {len(idx)} sample(s); need at least 2 to stratify"
                )
            perm = rng.permutation(idx)
            k = _train_count(len(idx), protocol.train_fraction)
            train_parts.append(perm[:k])
            test_parts.append(perm[k:])
        out.append((np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))))
    return out


def stratified_fold_indices(y: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    """Deal each class round-robin into the given number of folds."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    y = np.asarray(y, dtype=int)
    if folds > len(y):
        raise SplitError(f"cannot cut {len(y)} samples into {folds} folds")
    rng = np.random.default_rng([seed])
    parts: list[list[np.ndarray]] = [[] for _ in range(folds)]
    for c in _distinct(y):
        perm = rng.permutation(np.flatnonzero(y == c))
        for j in range(folds):
            parts[j].append(perm[j::folds])
    return [np.sort(np.concatenate(p)) for p in parts]


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Linear decision function w.x + b."""

    w: np.ndarray
    b: float

    def decision(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.w.shape[0]:
            raise ValueError("matrix width does not match the trained weights")
        return X @ self.w + self.b


def train_linear_classifiers(groups, epochs: int = 50) -> list[list[LinearModel]]:
    """Hinge-loss linear classifiers by stochastic subgradient descent, one per
    job (selected columns, C, seed) of every (train, jobs) group; each group's
    models in job order. A group is one set of training rows, such as a fold.

    Each model is Pegasos: step size 1/(lambda t), lambda = 1/(C T), over its own
    seeded reshuffle of its group's T rows each epoch; the bias is carried as a
    constant input and regularized with the weights. All models of all groups
    step together in the dual form (_violation_counts), and jobs of one group with
    equal columns share one T x T Gram matrix. A model's weights depend on its own
    job and rows alone, never on the rest of the batch. Per step the work is
    models x T whatever the column counts, and the Grams take (distinct column
    sets) x T^2 x 8 bytes; with more samples than the widest column set has
    columns, stepping in the primal (models x (k+1) per step) would be the
    cheaper form.

    Only the Grams are held through the step loop, each written once into
    _violation_counts' padded stack; each design is built again when its models'
    weights are formed, the same bits as the first time.
    """
    if epochs < 1:
        raise ValueError("epochs must be positive")
    sources = []  # per Gram: the (train, selected) its design is built from
    runs, sizes = [], []
    for train, jobs in groups:
        if train.n_classes != 2:
            raise ValueError("classifier requires binary labels")
        jobs = list(jobs)
        if not jobs:
            raise ValueError("need at least one training job")
        T = train.n_samples
        blocks: dict[bytes, int] = {}
        for selected, C, seed in jobs:
            selected = np.asarray(selected, dtype=int)
            key = selected.tobytes()
            if key not in blocks:
                if selected.size == 0:
                    raise ValueError("selected feature set must be non-empty")
                if len(_distinct(selected)) != selected.size:
                    raise ValueError("selected feature indices must be unique")
                if selected.min() < 0 or selected.max() >= train.n_features:
                    raise ValueError("selected feature index out of range")
                blocks[key] = len(sources)
                sources.append((train, selected))
            if not 0 < C < math.inf:
                raise ValueError(f"C must be positive and finite, got {C}")
            runs.append((blocks[key], 1.0 / (C * T), seed))
        sizes.append(len(jobs))
    row_counts = [train.n_samples for train, _ in sources]
    width = max(row_counts)
    # row 0 of G stays zero: a model whose test passes adds it
    G = np.zeros((1 + len(sources) * width, width))
    for b, (source, T) in enumerate(zip(sources, row_counts)):
        design = _signed_design(*source)
        start = 1 + b * width
        np.matmul(design, design.T, out=G[start:start + T, :T])
    counts = _violation_counts(G, row_counts, runs, epochs)
    models = []
    for (b, lam, _), a in zip(runs, counts):
        design = _signed_design(*sources[b])
        T = len(design)
        # w after the last step t_end = epochs T: the violated rows' sum over lambda t_end
        w = (a[:T] @ design) / (lam * (epochs * T))
        models.append(LinearModel(w=w[:-1], b=float(w[-1])))
    it = iter(models)
    return [list(itertools.islice(it, n)) for n in sizes]


def _signed_design(train: Dataset, selected: np.ndarray) -> np.ndarray:
    """The design yX of a job: train's selected columns plus a bias column of ones,
    each row times its label's sign (+-1), as y * (x . w) == (y x) . w."""
    yy = train.y.astype(float) * 2.0 - 1.0
    design = np.empty((train.n_samples, selected.size + 1))
    np.multiply(train.X[:, selected], yy[:, None], out=design[:, :-1])
    design[:, -1] = yy
    return design


def _violation_counts(
    G: np.ndarray, row_counts: list[int], runs: list, epochs: int
) -> np.ndarray:
    """How often each training row failed its margin test, per model, by Pegasos
    in its dual form with a linear kernel (Shalev-Shwartz et al., ICML 2007, s. 4).

    G stacks one zero row and then, per design b, a width x width tile whose
    top left corner is the T_b x T_b Gram (yX)(yX)^T of design b, a block yX
    with the bias column; T_b is row_counts[b], width is max(row_counts), and
    the rest of G is zero. A run is (design index, lambda, seed). With step
    size 1/(lambda t), the weights before step t are (yX)^T a / (lambda (t-1)),
    where a counts each row's violations so far. So the step's test
    y x . w < 1 reads (G a)[row] < lambda (t-1), and step 1 always counts as
    violated. The loop keeps each model's margins G a and adds G's row at each
    violation, in step order. It has no weights and no shrink step, and a
    model's margins, hence its counts, come out the same in any batch.

    All models step together through the batch's widest epoch. Model m takes
    T_m steps of each epoch, over its own rng's reshuffle of its T_m rows, and
    idles through the rest of the epoch with threshold -inf. Returns counts of
    shape models x the widest T, zero past each model's T_m.
    """
    width = G.shape[1]
    n_models = len(runs)
    T = np.array([row_counts[b] for b, _, _ in runs])
    lam = np.array([lam for _, lam, _ in runs])
    rows = np.zeros((epochs, width, n_models), dtype=np.min_scalar_type(width))
    for m, (_, _, seed) in enumerate(runs):
        # permuted over the rows of a tile draws what `epochs` permutation(T) calls draw
        rows[:, :T[m], m] = np.random.default_rng(seed).permuted(
            np.tile(np.arange(T[m]), (epochs, 1)), axis=1
        )
    g_base = 1 + np.array([b for b, _, _ in runs]) * width
    m_base = np.arange(n_models) * width
    # every index taken below is in range by construction, checked here once: under
    # np.take's default mode="raise" numpy buffers `out` on every step, "clip" does not
    top = int(rows.max())
    assert top < width and top + int(g_base.max()) < len(G)
    step = np.arange(width)[:, None]
    idle = step >= T
    margins = np.zeros((n_models, width))
    flat = margins.reshape(-1)
    counts = np.zeros(n_models * width, dtype=np.int64)
    violated = np.empty((width, n_models), dtype=bool)
    at_row = np.empty(n_models)
    g_row = np.empty(n_models, dtype=np.intp)
    added = np.empty((n_models, width))
    for epoch in range(epochs):
        threshold = lam * (epoch * T + step)
        threshold[idle] = -np.inf
        if epoch == 0:
            threshold[0] = np.inf
        cells = rows[epoch] + m_base
        g_rows = rows[epoch] + g_base
        for i in range(width):
            np.take(flat, cells[i], out=at_row, mode="clip")
            np.less(at_row, threshold[i], out=violated[i])
            np.multiply(g_rows[i], violated[i], out=g_row)
            np.take(G, g_row, axis=0, out=added, mode="clip")
            margins += added
        counts += np.bincount(cells[violated], minlength=n_models * width)
    return counts.reshape(n_models, width)


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a positive outranks a negative, ties counting one half.

    Computed from integer win/tie counts, so the result is exactly the pairwise
    definition.
    """
    s = np.asarray(scores, dtype=float)
    yl = np.asarray(labels, dtype=int)
    if s.shape != yl.shape or s.ndim != 1:
        raise ValueError("scores and labels must be aligned vectors")
    pos = s[yl == 1]
    neg = np.sort(s[yl == 0])
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both classes must be present to compute AUC")
    # per positive, the negatives below it plus those at or below it: 2 wins + ties
    twice = int(np.searchsorted(neg, pos, "left").sum() + np.searchsorted(neg, pos, "right").sum())
    return twice / (2 * len(pos) * len(neg))


def _held_group(d: Dataset, scores: FeatureScores, jobs: list, held: np.ndarray) -> tuple:
    """The (trn, jobs, X, y) group of _heldout_aucs for the held-out rows `held`
    of d, the dataset scores were taken on: trn is the scored training rows and
    X the held-out rows, both read from d only in the columns some job selects
    and normalized with scores' statistics, and every job is cut to those
    columns. Groups are held until one training call, and a remapped job
    trains and scores bit for bit as on the full width."""
    cols = _distinct(np.concatenate([sel for sel, _, _ in jobs]))
    jobs = [(np.searchsorted(cols, sel), c, seed) for sel, c, seed in jobs]
    trn, X = d.X[np.ix_(scores.rows, cols)], d.X[np.ix_(held, cols)]
    for part in (trn, X):
        scores.stats._transform(part, cols, out=part)
    return Dataset._own(trn, scores.y), jobs, X, d.y[held]


def _heldout_aucs(groups: list, epochs: int) -> list[list[float]]:
    """Train the (columns, C, seed) jobs of every (trn, jobs, X, y) group in one
    step loop; per group, each job's AUC on the held-out rows X (under trn's
    statistics) with labels y, in job order."""
    fits = train_linear_classifiers([(trn, jobs) for trn, jobs, _, _ in groups], epochs)
    return [[roc_auc(model.decision(X[:, sel]), y) for model, (sel, _, _) in zip(models, jobs)]
            for models, (_, jobs, X, y) in zip(fits, groups)]


def cross_validate(d: Dataset, protocol: Protocol, seed: int, rows=None) -> tuple[float, float]:
    """Pick (alpha, C) from the protocol's alpha_grid x c_grid by stratified
    k-fold AUC (k = protocol.folds, cut by seed) on training rows of d only: the
    indices `rows`, in the order given (all rows when None), as a copy of them
    would. ValueError unless rows is a non-empty 1-D integer array of indices
    into d.

    Each fold is normalized and scored once (at protocol.bins); every alpha's
    ec_fs ranking derives from those scores and selects the top
    protocol.cv_cardinality features (capped at the feature count). The folds x
    alphas x Cs classifiers train together in one call (_heldout_aucs, for
    protocol.epochs), the Cs of one fold and alpha sharing a Gram matrix, and
    each is scored on its held-out fold. Exact mean-AUC ties break toward the
    smaller alpha, then the smaller C.
    ValueError, before any fold is scored, unless d has exactly two classes;
    DatasetError if a validation row overflows float64 when normalized with its
    fold's training statistics.
    """
    if d.n_classes != 2:
        raise ValueError(
            f"cross-validation trains binary classifiers; the data has {d.n_classes} classes"
        )
    alphas = sorted(set(float(a) for a in protocol.alpha_grid))
    Cs = sorted(set(float(c) for c in protocol.c_grid))
    cardinality = min(protocol.cv_cardinality, d.n_features)
    folds = protocol.folds
    rows = _row_indices(rows, d.n_samples)
    y = d.y[rows]
    fold_parts = stratified_fold_indices(y, folds, seed)
    groups = []
    for j, va_idx in enumerate(fold_parts):
        tr_idx = np.sort(np.concatenate([fold_parts[i] for i in range(folds) if i != j]))
        for part, name in ((tr_idx, "training side"), (va_idx, "validation side")):
            if len(_distinct(y[part])) != d.n_classes:
                raise SplitError(f"fold {j} leaves a single class on its {name}")
        scores = score_features(d, protocol.bins, rows[tr_idx])
        sels = [scores.ranking("ec_fs", a).top(cardinality) for a in alphas]
        jobs = [(sel, c, derive_seed(seed, j, ai, ci))
                for ai, sel in enumerate(sels) for ci, c in enumerate(Cs)]
        groups.append(_held_group(d, scores, jobs, rows[va_idx]))
    table = np.zeros((len(alphas), len(Cs)))
    for aucs in _heldout_aucs(groups, protocol.epochs):
        table += np.reshape(aucs, table.shape)
    table /= folds
    # argmax returns the first maximum in row-major order: smallest alpha, then C
    ai, ci = np.unravel_index(int(np.argmax(table)), table.shape)
    return alphas[ai], Cs[ci]


def _kuncheva_curve(tops: np.ndarray, n: int, ks: list[int]) -> list[tuple[int, float]]:
    """Mean pairwise Kuncheva overlap of the top-k sets, for each k in ks, of
    rankings of n features given as their top max(ks) indices, one row per
    ranking: a list of (k, mean)."""
    R = len(tops)
    pairs = np.triu_indices(R, 1)  # row-major: itertools.combinations order
    out = []
    for k in ks:
        # membership over the union of the top-k sets only, at most R*k columns
        union, cols = np.unique(tops[:, :k], return_inverse=True)
        member = np.zeros((R, len(union)))
        member[np.arange(R)[:, None], cols.reshape(R, k)] = 1.0
        shared = (member @ member.T)[pairs].astype(np.int64)
        # Kuncheva index (r n - k^2) / (k (n - k)) of each pair: integers exact while
        # k * n < 2^53, rounded once
        vals = (shared * n - k * k) / (k * (n - k))
        out.append((k, float(np.mean(vals))))
    return out


def two_sample_ttest(x, y) -> float:
    """Two-sided pooled-variance t-test p-value.

    Degenerate inputs with zero pooled variance give p = 1 when the means are
    equal and p = 0 otherwise.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or len(x) < 2 or len(y) < 2:
        raise ValueError("each sample needs at least two observations")
    nx, ny = len(x), len(y)
    mx, my = float(x.mean()), float(y.mean())
    pooled = ((nx - 1) * x.var(ddof=1) + (ny - 1) * y.var(ddof=1)) / (nx + ny - 2)
    if pooled == 0.0:
        return 1.0 if mx == my else 0.0
    t = (mx - my) / np.sqrt(pooled * (1.0 / nx + 1.0 / ny))
    df = nx + ny - 2
    return _betainc(df / 2.0, 0.5, float(df / (df + t * t)))


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b).

    The continued fraction of Numerical Recipes (s. 6.4), evaluated by Lentz's
    method, converges fast for x < (a + 1) / (a + b + 2); above that point the
    symmetry I_x(a, b) = 1 - I_{1-x}(b, a) applies.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    # x^a (1-x)^b / B(a, b), the prefactor of both forms
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _log_beta(a: float, b: float) -> float:
    """log B(a, b). Once the larger argument reaches 100, lgamma(big + small) -
    lgamma(big) would lose digits to cancellation, so Stirling's series gives
    that difference instead."""
    small, big = min(a, b), max(a, b)
    if big < 100.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def series(z: float) -> float:  # lgamma(z) - (z - 1/2) log z + z - log(2 pi) / 2
        z2 = z * z
        return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * z2)) / z2) / z2) / z

    rise = (small * (math.log(big) - 1.0) + (big + small - 0.5) * math.log1p(small / big)
            + series(big + small) - series(big))
    return math.lgamma(small) - rise


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), with Lentz's guard against zero
    denominators; it needs O(sqrt(max(a, b))) terms where x < (a+1)/(a+b+2)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000 + int(10.0 * math.sqrt(max(a, b)))):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _as_cardinalities(protocol: Protocol, n_features: int) -> list[int]:
    """The protocol's distinct cardinalities, ascending; ValueError unless each
    is below the feature count."""
    ks = sorted(set(int(k) for k in protocol.cardinalities))
    if ks[-1] >= n_features:
        raise ValueError(
            f"cardinalities must be in 1..{n_features - 1} for a {n_features}-feature dataset"
        )
    return ks


def _sd(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values), ddof=1))


# Repeats per chunk. A chunk is the unit of work: its classifiers train in one
# _heldout_aucs call, whose cost is mostly per call (T = 41, 50 epochs: 12 models
# take 30 ms, 96 take 57 ms), and its held-out groups and Grams are kept until
# that call, so the cap keeps memory flat in n_repeats. At 62x2000, 8 repeats
# per chunk cost about 1 MB of peak RSS over one; 16 cost 3 MB more.
_CHUNK_REPEATS = 8

def _chunks(n_repeats: int, workers: int) -> list[range]:
    """Contiguous runs of the repeats, at most _CHUNK_REPEATS long and differing in
    length by at most one; a multiple of workers in number while repeats last."""
    n = min(n_repeats, workers * -(-n_repeats // (workers * _CHUNK_REPEATS)))
    bounds = [i * n_repeats // n for i in range(n + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _map_chunks(fn, n_repeats: int, workers: int) -> list:
    """fn(chunk) over the chunks of range(n_repeats), each returning one item per
    repeat; all items in repeat order.

    With more than one worker, the chunks are cut into one contiguous share per
    process, and this process runs the leading share while a forked child runs
    each other one (fork_join). The children inherit fn, so only fn's results
    need to pickle. Without fork, or at one worker, every chunk runs serially in
    this process, to the same items. Either way the first failing chunk in
    repeat order raises.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    chunks = _chunks(n_repeats, workers)
    processes = min(workers, len(chunks))
    shares = [chunks[i * len(chunks) // processes:(i + 1) * len(chunks) // processes]
              for i in range(processes)]
    parts = fork_join(lambda share: [item for chunk in share for item in fn(chunk)], shares)
    return list(itertools.chain.from_iterable(parts))


@dataclass(frozen=True, eq=False)
class _Repeat:
    """What one repeat keeps for the report: no rows and no full rankings, so memory
    stays flat in n_repeats."""

    alpha: float | None  # the alpha ec_fs ranked at; None under cv without ec_fs
    C: float | None  # the C ec_fs trains at, cross-validated under cv; None without ec_fs
    tops: dict[str, np.ndarray]  # per method, the top k_max features, best first


def _repeat_body(d: Dataset, splits: list[tuple[np.ndarray, np.ndarray]], protocol: Protocol,
                 k_max: int):
    """Repeat r as run_evaluation and run_stability share it: cross-validate
    (alpha, C) on the training rows under alpha "cv" when ec_fs (the one method
    reading the pair) is requested, then normalize and score the training rows
    alone in one score_features pass and rank every method from it; return the
    record and the scores, which hold the training rows' indices and statistics."""
    cv, ec_fs = protocol.alpha == "cv", "ec_fs" in protocol.methods
    alpha = None if cv else float(protocol.alpha)

    def body(r: int) -> tuple[_Repeat, FeatureScores]:
        train = splits[r][0]
        alpha_r, c_r = alpha, (protocol.fixed_c if ec_fs else None)
        if cv and ec_fs:
            alpha_r, c_r = cross_validate(d, protocol, derive_seed(protocol.seed, r, 101), train)
        scores = score_features(d, protocol.bins, train)
        # a copy, so the record does not pin the full ranking
        tops = {m: scores.ranking(m, alpha_r).top(k_max).copy() for m in protocol.methods}
        return _Repeat(alpha_r, c_r, tops), scores

    return body


def _stability_block(results: list[_Repeat], methods, ks: list[int], n: int) -> dict:
    block = {}
    for method in methods:
        curve = _kuncheva_curve(np.stack([res.tops[method] for res in results]), n, ks)
        block[method] = [{"cardinality": k, "kuncheva": v} for k, v in curve]
    return block


def _report(command: str, d: Dataset, protocol: Protocol, ks: list[int],
            results: list[_Repeat], stability: dict) -> dict:
    report = {
        "schema_version": 1,
        "command": command,
        "n_samples": d.n_samples,
        "n_features": d.n_features,
        "label_mapping": list(d.label_names) if d.label_names else None,
        "config": {
            "methods": list(protocol.methods),
            "cardinalities": ks,
            "alpha": protocol.alpha if protocol.alpha == "cv" else float(protocol.alpha),
            "bins": protocol.bins,
            "train_fraction": protocol.train_fraction,
            "n_repeats": protocol.repeats,
            "seed": protocol.seed,
            "stratified": True,
        },
        "stability": stability,
    }
    if "ec_fs" in protocol.methods:
        report["alpha_per_repeat"] = [float(res.alpha) for res in results]
    return report


def run_evaluation(d: Dataset, protocol: Protocol, workers: int = 1) -> dict:
    """The full protocol (a Protocol): repeated stratified splits, classifier
    AUC on the held-out side, stability and pairwise significance across
    repeats.

    Each repeat runs run_stability's body (one score_features pass over the raw
    training rows, every ranking from FeatureScores.ranking), then trains the
    classifiers of all methods x cardinalities in one call (_heldout_aucs, the
    step cross_validate scores its folds with) and scores each top-k set on the
    test rows under the statistics the scores hold. A (method, k) AUC does not
    depend on which other methods or cardinalities are requested.

    Under alpha "cv" each repeat picks (alpha, C) on its own training split
    (cross_validate). Baselines always train at protocol.fixed_c. Repeats run
    in chunks over `workers` processes. The returned report is a plain
    JSON-ready dict, byte-stable across worker counts.
    """
    if d.n_classes != 2:
        raise ValueError("evaluation requires binary labels; binarize one-vs-rest first")
    methods, fixed_c, seed = protocol.methods, protocol.fixed_c, protocol.seed
    ks = _as_cardinalities(protocol, d.n_features)
    splits = split_indices(d.y, protocol)
    body = _repeat_body(d, splits, protocol, ks[-1])

    def one_chunk(chunk: range) -> list[tuple[_Repeat, dict[str, list[float]]]]:
        reps, groups = [], []
        for r in chunk:
            rep, scores = body(r)
            jobs = [(rep.tops[m][:k], rep.C if m == "ec_fs" else fixed_c,
                     derive_seed(seed, r, _METHOD_SEED[m], k)) for m in methods for k in ks]
            groups.append(_held_group(d, scores, jobs, splits[r][1]))
            reps.append(rep)
        aucs = [{m: flat[mi * len(ks):(mi + 1) * len(ks)] for mi, m in enumerate(methods)}
                for flat in _heldout_aucs(groups, protocol.epochs)]
        return list(zip(reps, aucs))

    results, aucs = zip(*_map_chunks(one_chunk, protocol.repeats, workers))

    auc_block: dict = {}
    for method in methods:
        per_card = {}
        for ki, k in enumerate(ks):
            samples = [float(row[method][ki]) for row in aucs]
            per_card[str(k)] = {"mean": float(np.mean(samples)), "sd": _sd(samples),
                                "samples": samples}
        average = float(np.mean([cell["mean"] for cell in per_card.values()]))
        auc_block[method] = {"per_cardinality": per_card, "average": average}

    significance = {}
    if "ec_fs" in methods and protocol.repeats >= 2:
        for method in (m for m in methods if m != "ec_fs"):
            significance[f"ec_fs_vs_{method}"] = {
                str(k): two_sample_ttest([row["ec_fs"][ki] for row in aucs],
                                         [row[method][ki] for row in aucs])
                for ki, k in enumerate(ks)
            }

    stability = {}
    if protocol.repeats >= 2:
        stability = _stability_block(results, methods, ks, d.n_features)
    report = _report("evaluate", d, protocol, ks, results, stability)
    cv = protocol.alpha == "cv"
    report["config"].update({
        "fixed_c": fixed_c,
        "epochs": protocol.epochs,
        "alpha_grid": [float(a) for a in protocol.alpha_grid] if cv else None,
        "c_grid": [float(c) for c in protocol.c_grid] if cv else None,
        "folds": protocol.folds if cv else None,
        "cv_cardinality": protocol.cv_cardinality if cv else None,
    })
    report["auc"] = auc_block
    report["significance"] = significance
    if "ec_fs" in methods:
        report["c_per_repeat"] = [float(res.C) for res in results]
    return report


def run_stability(d: Dataset, protocol: Protocol, workers: int = 1) -> dict:
    """Selection stability across the protocol's repeated training splits (a
    Protocol with at least 2 repeats), no classifier.

    Each repeat normalizes its training rows on their own statistics, scores
    them once and derives every method's ranking from those scores, exactly as
    in run_evaluation; the report holds the mean pairwise Kuncheva overlap of
    the top-k sets per method and cardinality.
    """
    ks = _as_cardinalities(protocol, d.n_features)
    if protocol.repeats < 2:
        raise ValueError("stability needs at least 2 repeats")
    splits = split_indices(d.y, protocol)
    body = _repeat_body(d, splits, protocol, ks[-1])
    results = _map_chunks(lambda chunk: [body(r)[0] for r in chunk], protocol.repeats, workers)
    stability = _stability_block(results, protocol.methods, ks, d.n_features)
    return _report("stability", d, protocol, ks, results, stability)
