"""Dataset model, file ingestion, normalization, and synthetic data generation."""

from __future__ import annotations

import csv
import re
from collections.abc import Sequence
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
# them allocates a temporary the size of the matrix. A scoring block holds the
# gathered block and about two more block-sized temporaries at a time, so 2^14
# cells (128 KiB each) keep that working set under 0.5 MB.
CHUNK_CELLS = 2**14


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
    the source header and the original label values in mapping order. The CSV
    loader holds them as a _Names table, which reads as their tuple, or as a
    tuple when the header holds a quote.

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
        """The name of feature i (negative i counts from the end), f{i} when
        there are no names."""
        if self.feature_names is not None:
            return self.feature_names[i]
        return f"f{range(self.n_features)[i]}"


class _Names(Sequence):
    """Feature names held as one UTF-8 string and the offsets of the commas
    around each name, with no str per name: a CSV header's cells less the
    label's.

    Name i is the text between offsets i and i + 1, stripped as the csv path
    strips a header cell. It reads as the tuple of its names: len, indexing
    (a slice gives a tuple), iteration, and equality with a tuple or another
    _Names, name by name.
    """

    __slots__ = ("_text", "_bounds")

    def __init__(self, text: bytes, bounds: np.ndarray) -> None:
        self._text, self._bounds = text, bounds

    @classmethod
    def _from_header(cls, head: str, label: int) -> "_Names":
        """The comma-separated cells of a header line with no quote, less the
        cell at index label."""
        text = head.encode()
        # a comma byte never occurs inside a multi-byte UTF-8 character
        commas = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord(","))
        bounds = np.concatenate(([-1], commas, [len(text)]))
        a, b = int(bounds[label]), int(bounds[label + 1])
        if label + 2 == bounds.shape[0]:
            # the last cell: cut it and the comma before it
            return cls(text[:a], bounds[:label + 1])
        # cut the cell and the comma after it, and close the gap in the offsets
        bounds[label + 2:] -= b - a
        return cls(text[:a + 1] + text[b + 1:], np.delete(bounds, label + 1))

    def _take(self, indices: np.ndarray) -> list[str]:
        """The names at indices, an array of indices in 0..len - 1, from one
        gather of their offsets."""
        text = self._text
        return [text[a + 1:b].decode().strip()
                for a, b in self._bounds[np.add.outer(indices, (0, 1))].tolist()]

    def __len__(self) -> int:
        return self._bounds.shape[0] - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._take(np.arange(*i.indices(len(self)))))
        return self._take(np.array([range(len(self))[i]]))[0]

    def __iter__(self):
        # a block of names at a time, each from one gather
        for a in range(0, len(self), 1024):
            yield from self._take(np.arange(a, min(a + 1024, len(self))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _Names)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def _names_at(names, indices: np.ndarray) -> list[str]:
    """The names of the features at indices, an index array, under a
    Dataset's feature_names: a _Names table's by one gather of offsets, a
    tuple's entry by entry, and f{i} when there are none."""
    if isinstance(names, _Names):
        return names._take(indices)
    if names is None:
        return [f"f{i}" for i in indices.tolist()]
    return [names[i] for i in indices.tolist()]


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


def _header_label_index(head: str, label_col: str | int) -> int:
    """_label_index of the stripped cells of head, a header line with no
    quote, found with no str per cell when a cell is named label_col."""
    # a stripped cell never starts or ends with whitespace, nor holds a comma
    if isinstance(label_col, str) and label_col == label_col.strip() and "," not in label_col:
        # blanks, the name, blanks, then a comma or the end; \s matches the
        # characters str.strip removes
        cell = r"\s*" + (re.escape(label_col) + r"\s*" if label_col else "") + r"(?=,|\Z)"
        if re.match(cell, head):
            return 0
        # from comma to comma, which is far faster than a search at every position
        if found := re.search("," + cell, head):
            return head.count(",", 0, found.start()) + 1
    # no cell is named label_col: a position, as in a header of unnamed columns
    return _label_index([cell.strip() for cell in head.split(",")], label_col)


def _label_index(header: Sequence, label_col: str | int) -> int:
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


# Feature cells reach np.loadtxt in pieces of about this many characters: a
# longer line is cut at delimiters, shorter lines go in blocks of whole lines,
# so none of the parser's buffers grows with a line or with the file
PIECE_CHARS = 2**16

# the line count reads blocks of this many bytes: a block past glibc's 128 KiB
# mmap threshold would raise that threshold when freed, and the process would
# then keep more of the heap it frees
COUNT_BLOCK_BYTES = 2**16

# the delimiters a whitespace-separated line is cut at; numpy splits at these
# and at every other whitespace character, so a cut never splits a cell
_SPACE_OR_TAB = re.compile("[ \t]")


def _line_count(path: Path) -> tuple[int, bool]:
    """The number of lines that iterating path in text mode yields, where LF,
    CR LF and CR each end a line and the last line needs no end, and whether
    a CR occurs: one pass over the bytes, a block at a time."""
    count, last, cr = 0, b"", False
    with open(path, "rb") as fh:
        while block := fh.read(COUNT_BLOCK_BYTES):
            count += block.count(b"\n")
            if b"\r" in block:  # a fast scan; most files hold no \r
                count += block.count(b"\r") - block.count(b"\r\n")
                cr = True
            if last == b"\r" and block[:1] == b"\n":
                count -= 1  # a \r\n cut between two blocks
            last = block[-1:]
    return count + (last not in (b"", b"\n", b"\r")), cr


def _pieces(line: str, a: int, b: int, sep: str | None):
    """The numbers in the cells of line[a:b], as one array per piece of about
    PIECE_CHARS characters. sep is "," or None for whitespace; a piece ends at
    a delimiter, so np.loadtxt sees every cell whole, as in one call on the
    line. ValueError for a cell np.loadtxt rejects. A blank piece yields
    nothing: between spaces it holds no cell, and as an empty or blank comma
    cell it leaves the row a number short."""
    while a < b:
        cut = b
        if b - a > PIECE_CHARS:
            if sep is None:
                found = _SPACE_OR_TAB.search(line, a + PIECE_CHARS, b)
                cut = found.start() if found else b
            else:
                found = line.find(sep, a + PIECE_CHARS, b)
                cut = found if found >= 0 else b
        piece = line[a:cut]
        a = cut + 1
        # np.loadtxt would skip a blank piece as an empty line, and warn
        if piece and not piece.isspace():
            yield np.loadtxt((piece,), delimiter=sep, dtype=float, comments=None, ndmin=1)


class _Rows:
    """Parses records' feature cells into the rows of X (which has a row for
    each record its source can hold), in order. A line longer than PIECE_CHARS
    goes to np.loadtxt a piece at a time; shorter ones wait in a block of about
    PIECE_CHARS characters, which one np.loadtxt call parses, so no buffer
    grows with the line or the file. A line that np.loadtxt rejects, alone or
    in its block, is parsed again from its cells as a csv record is
    (add_cells). The first cell float() rejects is held in error, naming its
    column by names (by position when None), and no row after it is parsed."""

    def __init__(self, X: np.ndarray, sep: str | None) -> None:
        self.X, self.sep, self.names = X, sep, None
        self.filled = 0
        self.block: list[str] = []
        self.chars = 0
        self.error: DatasetError | None = None

    def add(self, line: str, label: tuple[int, int] | None = None) -> None:
        """Parse the cells of line into the next row: all of them, or every
        cell but the label's, line[start:stop] for label = (start, stop)."""
        long = len(line) > PIECE_CHARS
        if long and self.error is None:
            self.flush()
            # the spans on either side of the label and its commas; one is
            # empty when the label is the first or the last cell
            spans = ((0, len(line)),) if label is None else (
                (0, label[0] - 1), (label[1] + 1, len(line)))
            row, col = self.X[self.filled], 0
            try:
                for a, b in spans:
                    for values in _pieces(line, a, b, self.sep):
                        row[col:col + values.shape[0]] = values
                        col += values.shape[0]
                if col == row.shape[0]:
                    self.filled += 1
                    return
            except ValueError:  # parsed again below
                pass
        if label is not None:
            # the cells on either side of the label, joined by a comma
            start, stop = label
            line = line[stop + 1:] if start == 0 else line[:start - 1] + line[stop:]
        # np.loadtxt would skip a blank line, and the rows would shift
        if long or not line or line.isspace():
            self._line(line)
            return
        self.block.append(line)
        self.chars += len(line)
        if self.chars >= PIECE_CHARS:
            self.flush()

    def flush(self) -> None:
        """Parse the queued lines into their rows: in one np.loadtxt call, or
        a line at a time when it rejects them or a bad cell is held."""
        block, self.block, self.chars = self.block, [], 0
        if not block:
            return
        try:
            if self.error is None:
                values = np.loadtxt(block, delimiter=self.sep, dtype=float,
                                    comments=None, ndmin=2)
                if values.shape == (len(block), self.X.shape[1]):
                    self.X[self.filled:self.filled + len(block)] = values
                    self.filled += len(block)
                    return
        except ValueError:  # parsed again below
            pass
        for line in block:
            self._line(line)

    def matrix(self) -> np.ndarray:
        """X, once the queued lines are parsed, cut in place to the rows filled
        (blank lines leave some unfilled) with no copy; or the held error, raised."""
        self.flush()
        if self.error is not None:
            raise self.error
        if self.filled < self.X.shape[0]:
            self.X.resize((self.filled, self.X.shape[1]), refcheck=False)
        return self.X

    def _line(self, line: str) -> None:
        # an empty line is one empty cell, or none under a header of the label alone
        self.add_cells(line.split(self.sep) if self.X.shape[1] else [])

    def add_cells(self, cells: list[str]) -> None:
        """Parse cells, a record's feature cells as str, into the next row as
        np.array parses them, which takes what float() takes, such as 1_000.
        DatasetError for a row of another width than X's."""
        self.flush()
        r, width = self.filled, self.X.shape[1]
        if len(cells) != width:
            raise DatasetError(f"row {r} has {len(cells)} cells, expected {width}")
        self.filled += 1
        if self.error is not None:
            return
        try:
            self.X[r] = np.array(cells, dtype=float)
        except ValueError:
            for c, cell in enumerate(cells):
                try:
                    float(cell)
                except ValueError:
                    column = c if self.names is None else self.names[c]
                    self.error = NonNumericValueError(
                        f"non-numeric value {cell.strip()!r} at (row {r}, column {column})")
                    return
            raise


def _nth_comma(line: str, k: int) -> int:
    """The position of comma k (counted from 0) in a line that holds more than
    k commas, found by counting a piece at a time."""
    a = 0
    while (c := line.count(",", a, a + PIECE_CHARS)) <= k:
        k -= c
        a += PIECE_CHARS
    a = line.find(",", a)
    for _ in range(k):
        a = line.find(",", a + 1)
    return a


def _csv_record(path: Path, line: str, fh, number: int) -> tuple[list[str], int]:
    """The cells csv.reader makes of line, line `number` of fh, and of the
    lines that an open quoted cell joins on, and the count of those lines.
    DatasetError naming the line of a csv error (a cell past the field limit)."""
    from itertools import chain
    reader = csv.reader(chain((line,), fh))
    try:
        return next(reader), reader.line_num - 1
    except csv.Error as e:
        raise DatasetError(f"{path}: line {number - 1 + reader.line_num}: {e}") from None


def _load_csv(path: Path, label_col: str | int) -> Dataset:
    """A CSV's dataset, read once into a matrix that the line count sizes
    (capped by the file's size), in the newline="" mode that csv.reader needs
    if a CR occurs; the default mode reads the same lines of another file,
    faster. A line with no quote and no NUL has its label cut out and its
    feature cells parsed by _Rows, with no str per cell; such a header's names
    are one string (_Names). A line with either goes to csv.reader with the
    lines an open quote joins on, and its cells fill the row; such a header's
    names are a tuple. The errors keep the csv module path's order: a csv
    error, raised where it is met; no data row; the label column; the first
    ragged row; the first cell float() rejects. The last three are held to the
    end of the file."""
    # data rows and header: an upper bound, as blank lines' rows are trimmed
    rows, cr = _line_count(path)
    labels: list[str] = []
    # the lines read other than data rows' first lines, to number a csv error
    others = 0
    with open(path, newline="" if cr else None, encoding="utf-8") as fh:
        for head in fh:
            others += 1
            # csv.reader reads a bare line end as a blank record, in newline="" mode
            if head not in ("\n", "\r\n", "\r"):
                break
        else:
            raise DatasetError(f"{path}: need a header row and at least one data row")
        header = None
        if '"' in head or "\0" in head:
            cells, extra = _csv_record(path, head, fh, others)
            others += extra
            header = [cell.strip() for cell in cells]
        width = head.count(",") + 1 if header is None else len(header)
        commas = width - 1
        # a data row holds its commas and a line end or more cells, so a short
        # file cannot ask for a large matrix
        X = np.empty((min(rows - 1, path.stat().st_size // width), commas))
        parsed = _Rows(X, ",")
        try:
            if header is None:
                li = _header_label_index(head, label_col)
                parsed.names = _Names._from_header(head, li)
            else:
                li = _label_index(header, label_col)
                parsed.names = tuple(header[:li] + header[li + 1:])
        except DatasetError as e:
            # the rows are still read, unparsed, for a csv error or none at all
            li, parsed.error = 0, e
        del head, header
        for line in fh:
            if line in ("\n", "\r\n", "\r"):
                others += 1
                continue
            if '"' in line or "\0" in line:
                cells, extra = _csv_record(path, line, fh, others + len(labels) + 1)
                others += extra
                if (count := len(cells)) == width:
                    labels.append(cells.pop(li).strip())
                    parsed.add_cells(cells)
                    # let the cells go before the next record's are made
                    del cells
                    continue
            elif (count := line.count(",") + 1) == width:
                if li == commas:
                    start = line.rfind(",") + 1
                else:
                    start = _nth_comma(line, li - 1) + 1 if li else 0
                stop = line.find(",", start) if li < commas else len(line)
                labels.append(line[start:stop].strip())
                parsed.add(line, (start, stop))
                # let the line go before the next one is read and joined
                del line
                continue
            # the first ragged row comes after the label column, before a bad cell
            if parsed.error is None or isinstance(parsed.error, NonNumericValueError):
                parsed.error = DatasetError(
                    f"row {len(labels)} has {count} cells, expected {width}")
            labels.append("")  # it counts as a data row; the error comes before labels map
    if not labels:
        raise DatasetError(f"{path}: need a header row and at least one data row")
    X = parsed.matrix()
    y, label_names = _map_labels(labels)
    return Dataset._own(X, y, parsed.names, label_names)


def _load_matrix(path: Path, labels_path: Path) -> Dataset:
    """The dataset of a whitespace-separated matrix and a labels file, the
    matrix read once by _Rows, blank lines skipped. The first row's cell count
    w is the width, and the line count sizes the matrix, capped by the file's
    size, since a row of w cells takes at least 2 w - 1 characters. A ragged
    row is raised where it is met, the first bad cell at the end."""
    rows = _line_count(path)[0]
    parsed = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.isspace():
                continue
            if parsed is None:
                w = len(line.split())
                X = np.empty((min(rows, path.stat().st_size // (2 * w - 1)), w))
                parsed = _Rows(X, None)
            parsed.add(line)
            del line
        if parsed is None:
            raise DatasetError(f"{path}: empty matrix file")
    X = parsed.matrix()
    with open(labels_path, encoding="utf-8") as fh:
        raw_labels = [line.strip() for line in fh if line.strip()]
    if len(raw_labels) != X.shape[0]:
        raise DatasetError(
            f"{labels_path}: {len(raw_labels)} labels for {X.shape[0]} matrix rows"
        )
    y, label_names = _map_labels(raw_labels)
    return Dataset._own(X, y, None, label_names)


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
