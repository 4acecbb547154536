"""Dataset model, file ingestion, normalization, and synthetic data generation."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """A file or array could not be turned into a valid dataset."""


class NonNumericValueError(DatasetError):
    """A feature cell could not be parsed as a number."""


class NonFiniteValueError(DatasetError):
    """A feature cell is NaN or infinite."""


class ClassCountError(DatasetError):
    """Labels do not form at least two non-empty classes 0..C-1."""


# Passes over the columns of a T x n matrix (normalization sums, Fisher, spreads,
# mutual information) run in blocks of about this many cells, so that none of
# them allocates a temporary the size of the matrix.
CHUNK_CELLS = 2**16


def column_blocks(n: int, cells_per_column: int) -> list[slice]:
    """Slices cutting n columns into blocks of about CHUNK_CELLS cells.

    Every block holds at least 2 columns unless n is 1: an axis-0 reduction
    over two or more columns adds each column's rows in order, exactly as over
    the whole matrix, where a lone column would be summed pairwise instead.
    """
    step = max(2, CHUNK_CELLS // max(1, cells_per_column))
    starts = list(range(0, max(n - 1, 1), step))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _check_finite(X: np.ndarray) -> None:
    blocks = column_blocks(X.shape[1], X.shape[0])
    if not all(np.isfinite(X[:, cols]).all() for cols in blocks):
        # the first bad cell in row-major order, whichever block it is in
        r, c = np.argwhere(~np.isfinite(X))[0]
        raise NonFiniteValueError(f"non-finite value at (row {r}, column {c})")


def _class_count(y: np.ndarray, label_names=None) -> int:
    """The class count C of integer labels y that fill every class 0..C-1 with
    C >= 2, and match label_names when given; ClassCountError or DatasetError
    otherwise. A Dataset's labels pass it, and so must the labels of any rows
    that are scored on their own."""
    if y.min() < 0:
        raise ClassCountError("labels must be non-negative integers")
    n_classes = int(y.max()) + 1
    if n_classes < 2:
        raise ClassCountError("expected at least two classes, found 1")
    # T samples fill at most classes 0..T-1, so labels past T are counted
    # together in slot T: the first empty class is found in O(T) memory
    empty = np.flatnonzero(np.bincount(np.minimum(y, len(y))) == 0)
    if empty.size:
        raise ClassCountError(f"class {empty[0]} has zero samples")
    if label_names is not None and len(label_names) != n_classes:
        raise DatasetError("label_names length does not match class count")
    return n_classes


def _row_indices(rows, n_samples: int) -> np.ndarray:
    """A new read-only intp copy of rows, indices into n_samples rows (all of
    them, in order, when rows is None). ValueError unless rows is a non-empty
    1-D integer array with every entry in 0..n_samples-1: a boolean mask, a
    float or a negative index would otherwise select other rows without a word."""
    if rows is None:
        out = np.arange(n_samples)
    else:
        out = np.array(rows)
        if out.ndim != 1 or out.size == 0 or out.dtype.kind not in "iu":
            raise ValueError("rows must be a non-empty 1-D array of integer row indices")
        if out.min() < 0 or out.max() >= n_samples:
            raise ValueError(f"row indices must be in 0..{n_samples - 1}")
        out = out.astype(np.intp, copy=False)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable samples-by-features matrix with integer class labels.

    X is T x n float64, y holds labels from the contiguous set {0..C-1} with
    every class present and C >= 2. Optional feature_names/label_names record
    the source header and the original label values in mapping order.

    The constructor copies X, so the caller's array stays its own and stays
    writable. The loaders instead hand over the array they have just built
    (Dataset._own), so a matrix is held once. Either way X and y are read-only.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...] | None = None
    label_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self._adopt(np.array(self.X, dtype=float))

    @classmethod
    def _own(cls, X: np.ndarray, y, feature_names=None, label_names=None) -> "Dataset":
        """A Dataset that takes X itself, with no copy, and makes it read-only:
        for an array its caller has just built and holds no other reference to,
        such as a loaded matrix or a classifier's normalized training columns,
        or one that is read-only already. It runs the constructor's checks."""
        d = object.__new__(cls)
        object.__setattr__(d, "y", y)
        object.__setattr__(d, "feature_names", feature_names)
        object.__setattr__(d, "label_names", label_names)
        d._adopt(np.asarray(X, dtype=float))
        return d

    def _adopt(self, X: np.ndarray) -> None:
        """Validate X and self.y, then freeze and store X and an int copy of y."""
        labels = np.asarray(self.y)
        if X.ndim != 2:
            raise DatasetError(f"feature matrix must be 2-dimensional, got shape {X.shape}")
        if X.shape[0] < 2:
            raise DatasetError(f"need at least 2 samples, got {X.shape[0]}")
        if X.shape[1] < 1:
            raise DatasetError("need at least 1 feature")
        if labels.shape != (X.shape[0],):
            raise DatasetError(
                f"label vector shape {labels.shape} does not match {X.shape[0]} samples"
            )
        if labels.dtype.kind == "f":
            # the int cast below would truncate 1.7 to 1 without a word
            bad = np.flatnonzero(~np.isfinite(labels) | (labels != np.round(labels)))
            if bad.size:
                r = bad[0]
                raise DatasetError(f"label at row {r} is not an integer: {float(labels[r])}")
        y = np.array(labels, dtype=int)
        _check_finite(X)
        if self.feature_names is not None and len(self.feature_names) != X.shape[1]:
            raise DatasetError("feature_names length does not match feature count")
        _class_count(y, self.label_names)
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1

    def feature_name(self, i: int) -> str:
        if self.feature_names is not None:
            return self.feature_names[i]
        return f"f{i}"


@dataclass(frozen=True, init=False, eq=False)
class FeatureRanking:
    """Features ordered by score, best first, built from one score per feature.

    Round-off negatives (down to -1e-12) count as 0, and a stable descending sort
    breaks ties toward the smaller index, so `order` is a permutation and the
    read-only `scores` along it never increase, by construction.
    """

    order: np.ndarray
    scores: np.ndarray

    def __init__(self, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ValueError("scores must form a non-empty vector")
        if not np.isfinite(values).all():
            raise ValueError("scores must be finite")
        if values.min() < -1e-12:
            raise ValueError("scores must be non-negative")
        values = np.maximum(values, 0.0)
        order = np.argsort(-values, kind="stable")
        scores = values[order]
        order.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "scores", scores)

    def __reduce__(self):
        # the default pickle brings order and scores back writable; rebuilding
        # from the per-feature scores freezes them and gives the same order
        values = np.empty(self.n_features)
        values[self.order] = self.scores
        return type(self), (values,)

    @property
    def n_features(self) -> int:
        return self.order.shape[0]

    def top(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.n_features:
            raise ValueError(f"k must be in 1..{self.n_features}, got {k}")
        return self.order[:k]


@dataclass(frozen=True, eq=False)
class NormalizationStats:
    """Per-column shift/scale fitted on one matrix, applicable to another.

    Columns flagged degenerate (constant in the fitted data) map to all zeros.
    score_features allocates the three arrays for all columns and fits them
    one block of columns at a time (_fit_transform); the held-out step maps
    other rows with them (_transform).
    """

    shift: np.ndarray
    scale: np.ndarray
    degenerate: np.ndarray

    def _transform(self, X: np.ndarray, cols, out: np.ndarray | None = None) -> np.ndarray:
        """(X + shift) / scale in the columns cols (a slice or an index array)
        of the fitted matrix, with degenerate columns zeroed, for X some rows
        of those columns; into out (X itself may be passed) or a new array.
        DatasetError naming the first column, by its fitted index, where
        (X + shift) / scale overflows float64, as a value far above the fitted
        range, or one over a tiny fitted scale, does; degenerate columns
        included.
        """
        with np.errstate(over="ignore"):
            out = np.add(X, self.shift[cols], out=out)
            out /= self.scale[cols]
        # checked before degenerate columns are zeroed: a value that the fitted
        # shift carries past float64 is rejected in every column alike
        bad = np.flatnonzero(~np.isfinite(out).all(axis=0))
        if bad.size:
            column = np.arange(self.shift.shape[0])[cols][bad[0]]
            raise DatasetError(
                f"column {column} overflows float64 when normalized with the fitted statistics"
            )
        out[:, self.degenerate[cols]] = 0.0
        return out

    def _fit_transform(self, block: np.ndarray, cols: slice) -> None:
        """Fit the columns cols on block, those columns of the rows being fitted,
        store their statistics in place, and normalize block in place.

        A column is shifted only when it contains negative entries and divided
        by the sum of its shifted values; constant columns are flagged
        degenerate. DatasetError if a column's shifted values or their sum
        overflow float64, as a column of values near 1e308 does.
        """
        mins = block.min(axis=0)
        maxs = block.max(axis=0)
        degenerate = mins == maxs
        shift = np.where(mins < 0, -mins, 0.0)
        with np.errstate(over="ignore"):
            sums = np.sum(block + shift, axis=0)
        overflowed = np.flatnonzero(~np.isfinite(sums))
        if overflowed.size:
            raise DatasetError(
                f"column {cols.start + overflowed[0]} overflows float64 when its values are "
                "shifted and summed for normalization"
            )
        self.shift[cols] = shift
        self.scale[cols] = np.where(degenerate | (sums == 0), 1.0, sums)
        self.degenerate[cols] = degenerate
        self._transform(block, cols, out=block)

    @property
    def degenerate_columns(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.degenerate)]


def _map_labels(raw: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    # first-appearance order, applied uniformly to strings and integer-like labels
    mapping: dict[str, int] = {}
    for v in raw:
        if v not in mapping:
            mapping[v] = len(mapping)
    y = np.array([mapping[v] for v in raw], dtype=int)
    if len(mapping) < 2:
        raise ClassCountError(f"expected at least two classes, found {len(mapping)}")
    return y, tuple(mapping)


def _parse_matrix(rows: list[list[str]], col_labels: list[str] | None = None) -> np.ndarray:
    """Convert string cells to floats, locating the offending cell on failure."""
    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DatasetError(f"row {r} has {len(row)} cells, expected {width}")
    try:
        X = np.array(rows, dtype=float)
    except ValueError:
        for r, row in enumerate(rows):
            for c, tok in enumerate(row):
                try:
                    float(tok)
                except ValueError:
                    col = col_labels[c] if col_labels else str(c)
                    raise NonNumericValueError(
                        f"non-numeric value {tok!r} at (row {r}, column {col})"
                    ) from None
        raise
    return X


def load_dataset(
    path: str | Path,
    format: str = "csv",
    label_col: str | int = "label",
    labels_path: str | Path | None = None,
) -> Dataset:
    """Load a dataset from disk.

    Args:
        path: data file. "csv" format expects a UTF-8 header row naming the
            columns; "matrix" expects a whitespace-separated numeric matrix,
            one sample per row.
        format: "csv" or "matrix".
        label_col: for csv, the label column, by header name or by integer
            position when no header matches.
        labels_path: for matrix format, a file with one label per line,
            aligned with the matrix rows.

    Raises:
        FileNotFoundError: the file (or labels file) does not exist.
        NonNumericValueError / NonFiniteValueError: bad feature cells.
        ClassCountError: fewer than two classes.
        DatasetError: other structural problems.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such data file: {path}")
    if format == "csv":
        return _load_csv(path, label_col)
    if format == "matrix":
        if labels_path is None:
            raise DatasetError("matrix format requires a labels file")
        labels_path = Path(labels_path)
        if not labels_path.exists():
            raise FileNotFoundError(f"no such labels file: {labels_path}")
        return _load_matrix(path, labels_path)
    raise DatasetError(f"unknown format {format!r}, expected 'csv' or 'matrix'")


def _label_index(header: list[str], label_col: str | int) -> int:
    if isinstance(label_col, str) and label_col in header:
        return header.index(label_col)
    try:
        li = int(label_col)
    except (TypeError, ValueError):
        raise DatasetError(
            f"label column {label_col!r} not found; columns are {header}"
        ) from None
    if not 0 <= li < len(header):
        raise DatasetError(f"label column index {li} out of range for {len(header)} columns")
    return li


def _loadtxt_lines(lines, **kwargs) -> np.ndarray | None:
    """Parse an iterator of text lines with numpy's C reader, or None when it
    holds no line or a line does not parse. The iterator may raise ValueError
    to abandon the parse."""
    try:
        first = next(lines, None)
        if first is None:
            return None
        return np.loadtxt(
            itertools.chain((first,), lines), dtype=float, comments=None, ndmin=2, **kwargs
        )
    except ValueError:  # a cell, a line check or undecodable bytes
        return None


def _load_csv(path: Path, label_col: str | int) -> Dataset:
    parsed = _read_csv_fast(path, label_col)
    if parsed is None:
        parsed = _read_csv_cells(path, label_col)
    feat_names, X, raw_labels = parsed
    y, label_names = _map_labels(raw_labels)
    return Dataset._own(X, y, feat_names, label_names)


def _read_csv_fast(path: Path, label_col: str | int):
    """Names, feature matrix and raw labels of a plain CSV, with no string per cell.

    One pass: each data line is checked and its label cell cut out here, and
    the line goes on to np.loadtxt, which parses the other cells. Returns None
    wherever the result could differ from _read_csv_cells: a quote (the csv
    module unquotes cells) or a NUL (which it rejects before Python 3.11), a
    line whose comma count differs from the header's, a blank or one-column
    header, no data row, a label column that is not found, or a cell that
    np.loadtxt rejects (including ones float() accepts, like 1_000). The cell
    path then parses the file again and raises its usual errors.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            head = fh.readline()
            if '"' in head or "\0" in head:
                return None
            header = [h.strip() for h in head.split(",")]
            if len(header) < 2:
                return None
            li = _label_index(header, label_col)
        except ValueError:
            return None
        commas = len(header) - 1
        labels: list[str] = []

        def data_lines():
            for line in fh:
                if line == "\n":
                    continue
                if line.count(",") != commas or '"' in line or "\0" in line:
                    raise ValueError("not a plain CSV line")
                # split from the nearer end, so only a few cells become strings
                if li <= commas - li:
                    cell = line.split(",", li + 1)[li]
                else:
                    cell = line.rsplit(",", commas + 1 - li)[1]
                labels.append(cell.strip())
                yield line

        X = _loadtxt_lines(
            data_lines(), delimiter=",", usecols=[c for c in range(len(header)) if c != li]
        )
    if X is None:
        return None
    return tuple(header[:li] + header[li + 1 :]), X, labels


def _read_csv_cells(path: Path, label_col: str | int):
    """Names, feature matrix and raw labels through the csv module, one string
    per cell; raises the loader's errors, naming the offending row or cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            table = [row for row in reader if row]
        except csv.Error as e:  # such as a cell past the csv module's field size limit
            raise DatasetError(f"{path}: line {reader.line_num}: {e}") from None
    if len(table) < 2:
        raise DatasetError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in table[0]]
    li = _label_index(header, label_col)
    rows = [[cell.strip() for cell in row] for row in table[1:]]
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DatasetError(f"row {r} has {len(row)} cells, expected {len(header)}")
    raw_labels = [row[li] for row in rows]
    feat_rows = [row[:li] + row[li + 1 :] for row in rows]
    feat_names = tuple(header[:li] + header[li + 1 :])
    return feat_names, _parse_matrix(feat_rows, list(feat_names)), raw_labels


def _load_matrix(path: Path, labels_path: Path) -> Dataset:
    X = _read_matrix_fast(path)
    if X is None:
        X = _read_matrix_cells(path)
    with open(labels_path, encoding="utf-8") as fh:
        raw_labels = [line.strip() for line in fh if line.strip()]
    if len(raw_labels) != X.shape[0]:
        raise DatasetError(
            f"{labels_path}: {len(raw_labels)} labels for {X.shape[0]} matrix rows"
        )
    y, label_names = _map_labels(raw_labels)
    return Dataset._own(X, y, None, label_names)


def _read_matrix_fast(path: Path) -> np.ndarray | None:
    """The matrix through np.loadtxt, skipping blank lines as _read_matrix_cells
    does; None on anything it rejects (ragged rows, a bad cell, bad bytes, no
    data), which the cell path then reports."""
    with open(path, encoding="utf-8") as fh:
        return _loadtxt_lines(line for line in fh if not line.isspace())


def _read_matrix_cells(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip()]
    if not rows:
        raise DatasetError(f"{path}: empty matrix file")
    return _parse_matrix(rows)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the two-class Gaussian benchmark generator."""

    n_samples: int
    n_features: int
    n_informative: int
    class_separation: float
    noise_sd: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")
        if self.n_features < 1:
            raise ValueError("n_features must be positive")
        if not 1 <= self.n_informative <= self.n_features:
            raise ValueError(
                f"n_informative must be in 1..{self.n_features}, got {self.n_informative}"
            )
        for name in ("class_separation", "noise_sd"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a non-negative 64-bit integer")


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, frozenset[int]]:
    """Draw a labelled Gaussian dataset with a known informative subset.

    Labels alternate 0/1. Informative columns get their class mean shifted by
    class_separation; every column carries independent N(0, noise_sd^2) noise.
    Fully reproducible from spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    informative = rng.choice(spec.n_features, size=spec.n_informative, replace=False)
    y = np.arange(spec.n_samples) % 2
    X = rng.normal(0.0, spec.noise_sd, size=(spec.n_samples, spec.n_features))
    X[:, informative] += np.outer(y, np.full(spec.n_informative, spec.class_separation))
    d = Dataset._own(X, y)
    return d, frozenset(int(i) for i in informative)
