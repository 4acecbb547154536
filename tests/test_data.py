import csv
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ecfs
from ecfs import (
    ClassCountError,
    Dataset,
    DatasetError,
    NonFiniteValueError,
    NonNumericValueError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    score_features,
)
from ecfs.cli import _binarize
from ecfs.data import (
    COUNT_BLOCK_BYTES,
    _Names,
    _line_count,
    _map_labels,
    column_blocks,
)
from oracles import (
    fisher_oracle,
    fit_normalization,
    mi_oracle,
    normalization_oracle,
    normalize_features,
    spreads_oracle,
    subset,
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_header_and_first_appearance_label_mapping(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "g1,g2,label\n1,2,a\n3,4,a\n5,6,b\n7,8,b\n")
        d = load_dataset(p)
        assert d.X.shape == (4, 2)
        assert d.y.tolist() == [0, 0, 1, 1]
        assert d.label_names == ("a", "b")
        assert d.feature_names == ("g1", "g2")

    def test_integer_labels_mapped_first_appearance(self, tmp_path):
        # same rule as strings: {3, 7} becomes {0, 1} in order of appearance
        p = write_csv(tmp_path / "d.csv", "x,label\n1,7\n2,3\n3,7\n4,3\n")
        d = load_dataset(p)
        assert d.y.tolist() == [0, 1, 0, 1]
        assert d.label_names == ("7", "3")

    def test_label_column_by_position(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b,c\n0,1,2\n1,3,4\n0,5,6\n1,7,8\n")
        d = load_dataset(p, label_col=0)
        assert d.feature_names == ("b", "c")
        assert d.y.tolist() == [0, 1, 0, 1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent.csv")

    def test_nan_cell_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,y,label\n1,2,a\n3,NaN,b\n")
        with pytest.raises(NonFiniteValueError, match="non-finite value"):
            load_dataset(p)

    def test_infinite_cell_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,y,label\n1,inf,a\n3,4,b\n")
        with pytest.raises(NonFiniteValueError, match="non-finite value"):
            load_dataset(p)

    def test_non_numeric_cell_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,y,label\n1,oops,a\n3,4,b\n")
        with pytest.raises(NonNumericValueError, match="non-numeric value"):
            load_dataset(p)

    def test_single_class_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,label\n1,a\n2,a\n3,a\n")
        with pytest.raises(ClassCountError, match="two classes"):
            load_dataset(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,y,label\n1,2,a\n3,b\n")
        with pytest.raises(DatasetError, match="cells"):
            load_dataset(p)

    def test_unknown_label_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,y,label\n1,2,a\n3,4,b\n")
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(p, label_col="target")


class TestLoadMatrix:
    def test_matrix_with_labels_file(self, tmp_path):
        m = write_csv(tmp_path / "m.txt", "1 2 3\n4 5 6\n7 8 9\n1 1 1\n")
        l = write_csv(tmp_path / "l.txt", "pos\nneg\npos\nneg\n")
        d = load_dataset(m, format="matrix", labels_path=l)
        assert d.X.shape == (4, 3)
        assert d.y.tolist() == [0, 1, 0, 1]
        assert d.label_names == ("pos", "neg")
        assert d.feature_names is None

    def test_label_count_mismatch(self, tmp_path):
        m = write_csv(tmp_path / "m.txt", "1 2\n3 4\n")
        l = write_csv(tmp_path / "l.txt", "a\nb\nc\n")
        with pytest.raises(DatasetError, match="labels"):
            load_dataset(m, format="matrix", labels_path=l)

    def test_labels_file_required(self, tmp_path):
        m = write_csv(tmp_path / "m.txt", "1 2\n3 4\n")
        with pytest.raises(DatasetError, match="labels file"):
            load_dataset(m, format="matrix")

    def test_unknown_format(self, tmp_path):
        m = write_csv(tmp_path / "m.txt", "1 2\n3 4\n")
        with pytest.raises(DatasetError, match="unknown format"):
            load_dataset(m, format="parquet")


def _parse_matrix_reference(rows, col_labels=None):
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


def _load_csv_reference(path, label_col):
    """The csv-module loader that the np.loadtxt path replaced, one string per cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            table = [row for row in reader if row]
        except csv.Error as e:
            raise DatasetError(f"{path}: line {reader.line_num}: {e}") from None
    if len(table) < 2:
        raise DatasetError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in table[0]]
    if isinstance(label_col, str) and label_col in header:
        li = header.index(label_col)
    else:
        try:
            li = int(label_col)
        except (TypeError, ValueError):
            raise DatasetError(
                f"label column {label_col!r} not found; columns are {header}"
            ) from None
        if not 0 <= li < len(header):
            raise DatasetError(f"label column index {li} out of range for {len(header)} columns")
    rows = [[cell.strip() for cell in row] for row in table[1:]]
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DatasetError(f"row {r} has {len(row)} cells, expected {len(header)}")
    raw_labels = [row[li] for row in rows]
    feat_rows = [row[:li] + row[li + 1 :] for row in rows]
    feat_names = tuple(header[:li] + header[li + 1 :])
    X = _parse_matrix_reference(feat_rows, list(feat_names))
    y, label_names = _map_labels(raw_labels)
    return Dataset(X, y, feat_names, label_names)


def _load_matrix_reference(path, labels_path):
    """The str.split matrix loader that the np.loadtxt path replaced."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip()]
    if not rows:
        raise DatasetError(f"{path}: empty matrix file")
    X = _parse_matrix_reference(rows)
    with open(labels_path, encoding="utf-8") as fh:
        raw_labels = [line.strip() for line in fh if line.strip()]
    if len(raw_labels) != X.shape[0]:
        raise DatasetError(
            f"{labels_path}: {len(raw_labels)} labels for {X.shape[0]} matrix rows"
        )
    y, label_names = _map_labels(raw_labels)
    return Dataset(X, y, None, label_names)


def _outcome(load):
    """What a loader returns, as bytes and tuples, or its exception type and message."""
    try:
        d = load()
    except Exception as e:
        return type(e), str(e)
    return d.X.shape, d.X.tobytes(), d.y.tolist(), d.label_names, d.feature_names


def _routed(monkeypatch, load):
    """load()'s _outcome, and the number of records it hands to csv.reader
    or to the per-cell float() route; np.loadtxt parses the others whole."""
    records = []
    with monkeypatch.context() as m:
        for owner, name in ((ecfs.data, "_csv_record"), (ecfs.data._Rows, "_line")):
            real = getattr(owner, name)
            m.setattr(owner, name, lambda *a, real=real: records.append(1) or real(*a))
        return _outcome(load), len(records)


# (text, label_col, the records that reach csv.reader or the float() route);
# np.loadtxt parses every line of a case that counts 0
CSV_CASES = {
    "label first": ("label,a,b\nx,1,2\ny,3,4\nx,5,6\n", "label", 0),
    "label in the middle": ("a,label,b\n1,x,2\n3,y,4\n5,x,6\n", "label", 0),
    "label last": ("a,b,label\n1,2,x\n3,4,y\n5,6,x\n", "label", 0),
    "label by position": ("a,b,c\n1,2,x\n3,4,y\n", 2, 0),
    "CRLF": ("a,b,label\r\n1,2,x\r\n3,4,y\r\n", "label", 0),
    "CR": ("a,b,label\r1,2,x\r3,4,y\r", "label", 0),
    "BOM joins the first name": ("﻿a,b,label\n1,2,x\n3,4,y\n", "label", 0),
    "BOM hides a first label column": ("﻿label,a\nx,1\ny,2\n", "label", 2),
    "blank lines": ("a,b,label\n\n1,2,x\n\r\n3,4,y\n\n", "label", 0),
    "blank line before the header": ("\na,b,label\n1,2,x\n3,4,y\n", "label", 0),
    "whitespace-only line": ("a,b,label\n1,2,x\n  \n3,4,y\n", "label", 2),
    "no newline at the end": ("a,b,label\n1,2,x\n3,4,y", "label", 0),
    "trailing comma": ("a,b,label\n1,2,x,\n3,4,y\n", "label", 1),
    "trailing comma, label last": ("a,label\n1,x,\n2,y\n", "label", 1),
    "quoted cells": ('a,b,label\n"1",2,x\n3," 4",y\n', "label", 2),
    "quoted label": ('a,b,label\n1,2,"x,1"\n3,4,"y"\n', "label", 2),
    "quoted header": ('"a,b",c,label\n1,2,x\n3,4,y\n', "label", 1),
    "quoted header name": ('"a",b,label\n1,2,x\n3,4,y\n', "label", 1),
    # csv.reader keeps a quoted CR LF, which a read that turns line ends into
    # LF would not; a quoted cell's line end joins the next line on
    "quoted CRLF in a label": ('a,label\n1,"x\r\ny"\n2,z\n', "label", 1),
    "quoted cell over two lines": ('a,b,label\n"1\n",2,x\n3,4,y\n', "label", 1),
    "hash cell": ("a,b,label\n1,#2,x\n3,4,y\n", "label", 2),
    "hash line": ("a,b,label\n#1,2,x\n3,4,y\n", "label", 2),
    "underscore digits": ("a,b,label\n1_000,2,x\n3,4,y\n", "label", 2),
    "arabic-indic digit": ("a,b,label\n١,2,x\n3,4,y\n", "label", 2),
    "padded cell": ("a,b,label\n 2.5 ,\t2,x\n3,4 , y \n", "label", 0),
    "nan": ("a,b,label\n1,nan,x\n3,4,y\n", "label", 0),
    "1e400": ("a,b,label\n1,2,x\n3,1e400,y\n", "label", 0),
    "negative zero and subnormal": ("a,b,label\n-0,1e-320,x\n+0,-1e-320,y\n", "label", 0),
    "empty cell": ("a,b,label\n1,,x\n3,4,y\n", "label", 2),
    "NUL in a label": ("a,label\n1,x\x00\n2,y\n", "label", 1),
    "quoted cell past the field limit": ('a,b,label\n1,2,0\n"' + "1" * 131073 + '",3,1\n4,5,0\n',
                                         "label", 1),
    "ragged row": ("a,b,label\n1,2,x\n3,y\n", "label", 1),
    "single class": ("a,label\n1,x\n2,x\n", "label", 0),
    "empty file": ("", "label", 0),
    "header only": ("a,b,label\n", "label", 0),
    "header and blank lines only": ("a,b,label\n\n\n", "label", 0),
    "unknown label column": ("a,b,label\n1,2,x\n3,4,y\n", "target", 2),
    "label index out of range": ("a,b,label\n1,2,x\n3,4,y\n", 3, 2),
    "label column only": ("label\nx\ny\n", "label", 2),
}

MATRIX_CASES = {
    "plain": ("1 2 3\n4 5 6\n7 8 9\n", 0),
    "tabs and padding": ("\t1  2 3 \n 4\t5\t6\n7 8 9\n", 0),
    "blank and whitespace-only lines": ("\n1 2 3\n  \n4 5 6\n\t\n7 8 9\n\n", 0),
    "CRLF": ("1 2 3\r\n4 5 6\r\n7 8 9\r\n", 0),
    "ragged rows": ("1 2 3\n4 5\n7 8 9\n", 2),
    "hash cell": ("1 2 3\n4 # 6\n7 8 9\n", 3),
    "hash comment": ("1 2 3\n4 5 6 # note\n7 8 9\n", 2),
    "form feed separates": ("1 2 3\n4\x0c5 6\n7 8 9\n", 0),
    "BOM": ("﻿1 2 3\n4 5 6\n7 8 9\n", 3),
    "underscore digits": ("1_000 2 3\n4 5 6\n7 8 9\n", 3),
    "quoted cell": ('"1" 2 3\n4 5 6\n7 8 9\n', 3),
    "nan": ("1 2 3\n4 nan 6\n7 8 9\n", 0),
    "negative zero": ("-0 2 3\n4 5 6\n7 8 -0.0\n", 0),
    "empty file": ("", 0),
    "whitespace only": (" \n\n", 0),
}


def _compare_random_files(tmp_path, monkeypatch, seed: int, files: int,
                          max_width: int) -> None:
    """Load files of cells and line shapes drawn from the cases above, mixed at
    random, by load_dataset and by the reference loaders, and compare. A file
    holding no quote, no ragged matrix row and none of the cells np.loadtxt
    rejects must not lean on csv.reader or the float() route to be right."""
    rng = random.Random(seed)
    cells = ["1", "2.5", "-0", " 3 ", "nan", "1e400", "1_000", "#", '"4"', "", "x",
             " 5", "\x0c6", "١"]
    rejected = {"1_000", "#", '"4"', "", "x", cells[-1]}
    labels = ["a", "b", " a ", '"b"', ""]
    p, m, l = tmp_path / "d.csv", tmp_path / "m.txt", tmp_path / "l.txt"
    l.write_text("a\nb\na\nb\n", encoding="utf-8")
    for _ in range(files):
        width = rng.randint(1, max_width)
        lines = []
        for _ in range(rng.randint(0, 4)):
            n = width + rng.choice([0] * 12 + [-1, 1])
            lines.append([rng.choice(cells[:3] * 8 + cells) for _ in range(n)])
            if rng.random() < 0.1:
                lines.append([rng.choice(["", " "])])
        end = rng.choice(["\n", "\r\n", "\r"])
        li = rng.randrange(width)
        header = ["label" if c == li else f"g{c}" for c in range(width)]
        for row in lines:
            if len(row) > li:
                row[li] = rng.choice(labels)
        p.write_bytes(end.join(",".join(r) for r in [header] + lines).encode("utf-8") + b"\n")
        # a quoted cell goes to csv.reader; a feature cell that needs it, a row
        # with no feature cell and any row after a ragged one to the float() route
        routed = width == 1 or any('"' in "".join(r) or (
            any(c in rejected for c in r[:li] + r[li + 1:]) if len(r) == width else r != [""])
            for r in lines)
        want = _outcome(lambda: _load_csv_reference(p, "label"))
        got, records = _routed(monkeypatch, lambda: load_dataset(p))
        assert got == want and (routed or not records), p.read_bytes()
        m.write_bytes(end.join(rng.choice([" ", "\t"]).join(r) for r in lines).encode("utf-8"))
        rows = [r for r in lines if "".join(r).strip()]
        routed = len({len(r) for r in rows}) > 1 or any(
            c in rejected or c in labels for r in rows for c in r)
        want = _outcome(lambda: _load_matrix_reference(m, l))
        got, records = _routed(monkeypatch, lambda: load_dataset(m, format="matrix",
                                                                 labels_path=l))
        assert got == want and (routed or not records), m.read_bytes()


class TestLoaderMatchesCellReference:
    @pytest.mark.parametrize("case", sorted(CSV_CASES))
    def test_csv(self, tmp_path, monkeypatch, case):
        text, label_col, records = CSV_CASES[case]
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        want = _outcome(lambda: _load_csv_reference(p, label_col))
        assert _routed(monkeypatch, lambda: load_dataset(p, label_col=label_col)) == (
            want, records)

    @pytest.mark.parametrize("case", sorted(MATRIX_CASES))
    def test_matrix(self, tmp_path, monkeypatch, case):
        text, records = MATRIX_CASES[case]
        m, l = tmp_path / "m.txt", tmp_path / "l.txt"
        m.write_bytes(text.encode("utf-8"))
        l.write_text("a\nb\na\n", encoding="utf-8")
        want = _outcome(lambda: _load_matrix_reference(m, l))
        assert _routed(monkeypatch, lambda: load_dataset(m, format="matrix", labels_path=l)) == (
            want, records)

    def test_undecodable_bytes(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,label\n1,x\n2,\xff\n")
        want = _outcome(lambda: _load_csv_reference(p, "label"))
        assert want[0] is UnicodeDecodeError
        assert _outcome(lambda: load_dataset(p)) == want

    def test_random_files(self, tmp_path, monkeypatch):
        # cells and line shapes drawn from the cases above, mixed at random
        _compare_random_files(tmp_path, monkeypatch, seed=7, files=300, max_width=3)

    @pytest.mark.parametrize("piece_chars", [1, 3, 12])
    def test_cases_in_small_pieces(self, tmp_path, monkeypatch, piece_chars):
        # lines cut into pieces of a cell or a few at a time parse as whole lines
        # do; a line parsed alone, not in a block, may send fewer records to the
        # float() route, and a case that sends none still sends none
        monkeypatch.setattr(ecfs.data, "PIECE_CHARS", piece_chars)
        p, m, l = tmp_path / "d.csv", tmp_path / "m.txt", tmp_path / "l.txt"
        l.write_text("a\nb\na\n", encoding="utf-8")
        for text, label_col, records in CSV_CASES.values():
            p.write_bytes(text.encode("utf-8"))
            want = _outcome(lambda: _load_csv_reference(p, label_col))
            got, n = _routed(monkeypatch, lambda: load_dataset(p, label_col=label_col))
            assert got == want and (records or not n), text
        for text, records in MATRIX_CASES.values():
            m.write_bytes(text.encode("utf-8"))
            want = _outcome(lambda: _load_matrix_reference(m, l))
            got, n = _routed(monkeypatch, lambda: load_dataset(m, format="matrix",
                                                               labels_path=l))
            assert got == want and (records or not n), text

    @pytest.mark.parametrize("piece_chars", [1, 2, 5, 24])
    def test_random_files_in_small_pieces(self, tmp_path, monkeypatch, piece_chars):
        # wider rows, so a line is cut many times, and the label cell is found
        # a piece at a time wherever it is; at 24 characters several short
        # lines share one block, next to lines cut into pieces
        monkeypatch.setattr(ecfs.data, "PIECE_CHARS", piece_chars)
        _compare_random_files(tmp_path, monkeypatch, seed=8 + piece_chars, files=100,
                              max_width=8)

    @pytest.mark.parametrize("piece_chars", [1, 4, 2**16])
    def test_label_column_anywhere(self, tmp_path, monkeypatch, piece_chars):
        # numeric labels, so a label cell cut out at the wrong comma would still
        # parse: np.loadtxt takes every line and gives the reference's result
        monkeypatch.setattr(ecfs.data, "PIECE_CHARS", piece_chars)
        rng = np.random.default_rng(4)
        width = 13
        cells = rng.normal(size=(5, width)).round(3).astype(str)
        p = tmp_path / "d.csv"
        for li in range(width):
            rows = cells.copy()
            rows[:, li] = [str(7 + r % 2) for r in range(5)]
            header = ["label" if c == li else f"g{c}" for c in range(width)]
            p.write_text("\n".join(",".join(r) for r in [header] + rows.tolist()) + "\n",
                         encoding="utf-8")
            want = _outcome(lambda: _load_csv_reference(p, "label"))
            assert _routed(monkeypatch, lambda: load_dataset(p)) == (want, 0)
            assert want[2:4] == ([r % 2 for r in range(5)], ("7", "8"))

    def test_line_count_is_the_text_mode_line_count(self, tmp_path):
        # LF, CR LF and CR mixed, a last line with and without an end, and a
        # CR LF or a CR at the end of the first block
        rng = random.Random(3)
        texts = ["", "a", "\n", "\r", "\r\n", "\n\r", "a\r\r\nb", "x\n\ny"]
        texts += ["".join(rng.choice(["a", "\n", "\r", "\r\n", "é"])
                          for _ in range(rng.randint(0, 30))) for _ in range(200)]
        edge = "a" * (COUNT_BLOCK_BYTES - 1)
        texts += [edge + "\r\n" + "b\r" * 3, edge + "\rb", edge + "\r"]
        p = tmp_path / "t.txt"
        for text in texts:
            p.write_bytes(text.encode("utf-8"))
            with open(p, encoding="utf-8") as fh:
                assert _line_count(p) == (sum(1 for _ in fh), "\r" in text), text[:40]

    def test_blank_lines_leave_no_unfilled_rows(self, tmp_path):
        # the count pass counts blank lines too; their rows are trimmed in place
        p = write_csv(tmp_path / "d.csv", "a,label\n\n1,x\n\n\n2,y\n\n")
        m = write_csv(tmp_path / "m.txt", "\n1 2\n \n3 4\n\t\n")
        l = write_csv(tmp_path / "l.txt", "x\ny\n")
        for X, want in ((load_dataset(p).X, [[1.0], [2.0]]),
                        (load_dataset(m, format="matrix", labels_path=l).X,
                         [[1.0, 2.0], [3.0, 4.0]])):
            assert X.tolist() == want
            assert X.flags.c_contiguous and X.flags.owndata and not X.flags.writeable

    @pytest.mark.parametrize("fmt", ["csv", "matrix"])
    def test_short_lines_are_parsed_in_blocks(self, tmp_path, monkeypatch, fmt):
        # one np.loadtxt call per block of about PIECE_CHARS characters, not
        # one per line, so a tall file loads as fast as in one call
        rng = np.random.default_rng(6)
        X = rng.normal(size=(3000, 5))
        y = np.arange(3000) % 2
        if fmt == "csv":
            p = tmp_path / "tall.csv"
            p.write_text("a,b,c,d,e,label\n" + "".join(
                ",".join(map(repr, row.tolist())) + f",{c}\n" for row, c in zip(X, y)))
            load = lambda: load_dataset(p)
        else:
            p, l = tmp_path / "tall.txt", tmp_path / "labels.txt"
            p.write_text("".join(" ".join(map(repr, row.tolist())) + "\n" for row in X))
            l.write_text("".join(f"{c}\n" for c in y))
            load = lambda: load_dataset(p, format="matrix", labels_path=l)
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        d = load()
        assert d.X.tobytes() == X.tobytes() and d.y.tolist() == y.tolist()
        assert len(calls) <= p.stat().st_size // ecfs.data.PIECE_CHARS + 2

    @pytest.mark.parametrize("fmt", ["csv", "matrix"])
    def test_short_file_cannot_ask_for_a_large_matrix(self, tmp_path, fmt):
        # a wide first line, then many one-cell lines: the matrix is allocated
        # at no more rows than the file's size allows (one row per line would be
        # 320 MB), and the first ragged row is reported
        width, lines = 20000, 2000
        p = tmp_path / "ragged.txt"
        if fmt == "csv":
            p.write_text(",".join(f"g{c}" for c in range(width)) + "\n" + "1\n" * lines)
            load = lambda: load_dataset(p, label_col=0)
        else:
            p.write_text(" ".join(["1"] * width) + "\n" + "1\n" * lines)
            l = write_csv(tmp_path / "labels.txt", "a\nb\n" * (lines // 2 + 1))
            load = lambda: load_dataset(p, format="matrix", labels_path=l)
        tracemalloc.start()
        try:
            with pytest.raises(DatasetError, match=rf"^row \d has 1 cells, expected {width}$"):
                load()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * p.stat().st_size

    def test_memory_per_cell(self, tmp_path):
        # one Python string per cell cost about 110 B per cell, and np.loadtxt's
        # growth buffer about 16 on top of the matrix; the rows are now parsed a
        # piece at a time into the matrix itself (8 B per cell), and the header
        # line, the names held as one string with their offsets, and one line of
        # text add about 3 (5.5 with one str per name)
        T, n = 20, 20000
        rng = np.random.default_rng(0)
        X = rng.normal(size=(T, n))
        lines = [",".join([f"f{j}" for j in range(n)] + ["label"])]
        lines += [",".join(map(repr, row.tolist())) + f",{i % 2}" for i, row in enumerate(X)]
        p = tmp_path / "wide.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        del lines
        tracemalloc.start()
        try:
            d = load_dataset(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.X.tobytes() == X.tobytes()
        assert peak < 12 * T * n

    def test_memory_of_quoted_records_and_a_bad_cell(self, tmp_path):
        # R's write.csv quotes every header cell and label, and an NA cell is
        # not a number: either once sent the whole file to a table of one str
        # per cell, at about 110 B per cell. Now csv.reader and the float()
        # route take one record at a time, so the peak stays near the clean
        # file's: the matrix, the names as a tuple, and one record's cells
        T, n = 20, 20000
        rng = np.random.default_rng(0)
        rows = [list(map(repr, row.tolist())) for row in rng.normal(size=(T, n))]
        names = [f"f{j}" for j in range(n)] + ["label"]

        def write(name, header, label):
            lines = [",".join(header)] + [",".join(r) + label % (i % 2) for i, r in enumerate(rows)]
            (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            return tmp_path / name

        def peak(path):
            tracemalloc.start()
            try:
                try:
                    load_dataset(path)
                except NonNumericValueError:
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        clean = write("clean.csv", names, ",%d")
        quoted = write("quoted.csv", [f'"{c}"' for c in names], ',"%d"')
        rows[-1][5] = "NA"
        bad = write("na.csv", names, ",%d")
        del rows
        assert _outcome(lambda: load_dataset(quoted)) == _outcome(lambda: load_dataset(clean))
        want = _outcome(lambda: _load_csv_reference(bad, "label"))
        assert want == (NonNumericValueError, "non-numeric value 'NA' at (row 19, column f5)")
        assert _outcome(lambda: load_dataset(bad)) == want
        limit = 1.5 * peak(clean)
        assert peak(quoted) < limit and peak(bad) < limit

    def test_load_leaves_numpy_ma_unimported(self, tmp_path):
        # np.unique imports numpy.ma, some 10-20 ms and 1 MB of every command
        p = write_csv(tmp_path / "d.csv", "a,b,label\n1,2,x\n3,4,y\n5,6,x\n")
        src = str(Path(ecfs.__file__).parents[1])
        code = ("import sys, ecfs\n"
                "d = ecfs.load_dataset(sys.argv[1])\n"
                "print(d.n_classes, 'numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code, str(p)], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.split() == ["2", "False"]


def _ds(X, y):
    return Dataset(np.asarray(X, dtype=float), np.asarray(y, dtype=int))


def _normalized(d: Dataset) -> np.ndarray:
    """d's rows under the statistics score_features fits on them."""
    return score_features(d).stats._transform(d.X, slice(None))


class TestNormalize:
    def test_positive_column_divided_by_sum(self):
        d = _ds([[1], [1], [2]], [0, 1, 0])
        assert _normalized(d)[:, 0].tolist() == [0.25, 0.25, 0.5]
        assert score_features(d).stats.degenerate_columns == []

    def test_negative_column_shifted_first(self):
        d = _ds([[-1], [0], [1]], [0, 1, 0])
        np.testing.assert_allclose(_normalized(d)[:, 0], [0.0, 1.0 / 3.0, 2.0 / 3.0])

    def test_constant_column_zeroed_and_flagged(self):
        d = _ds([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [0, 1, 0])
        Xn = _normalized(d)
        assert Xn[:, 0].tolist() == [0.0, 0.0, 0.0]
        assert score_features(d).stats.degenerate_columns == [0]
        np.testing.assert_allclose(Xn[:, 1].sum(), 1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(20, 7))  # mixed-sign columns
        d = _ds(X, np.arange(20) % 2)
        X1 = _normalized(d)
        X2 = _normalized(_ds(X1, d.y))
        assert np.abs(X2 - X1).max() <= 1e-12

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(7)
        d = _ds(rng.normal(size=(15, 6)), np.arange(15) % 2)
        Xn = _normalized(d)
        np.testing.assert_allclose(Xn.sum(axis=0), np.ones(6), atol=1e-12)
        assert Xn.min() >= 0.0

    def test_shape_and_labels_preserved(self):
        d = Dataset(np.arange(12, dtype=float).reshape(4, 3), np.array([0, 1, 0, 1]),
                    ("a", "b", "c"), ("x", "y"))
        scores = score_features(d)
        assert scores.rows.tolist() == [0, 1, 2, 3] and scores.y.tolist() == d.y.tolist()
        assert _normalized(d).shape == d.X.shape

    @pytest.mark.parametrize("first", [1e308, -1e308])
    def test_shifted_sum_overflow_names_the_column(self, tmp_path, first):
        # finite cells whose sum passed float64 once scaled the column by inf,
        # zeroing it; shifted past float64 they were blamed on a finite cell
        path = tmp_path / "big.csv"
        path.write_text(f"a,b,label\n{first!r},1,0\n1.2e308,2,1\n1.5e308,3,0\n1.7e308,4,1\n")
        with pytest.raises(DatasetError, match="^column 0 overflows float64"):
            score_features(load_dataset(path))

    def test_transform_carries_train_statistics_to_new_rows(self):
        rng = np.random.default_rng(3)
        train = rng.normal(size=(10, 4))
        test = rng.normal(size=(6, 4))
        stats = fit_normalization(train)
        out = stats._transform(test, slice(None))
        mins = train.min(axis=0)
        shift = np.where(mins < 0, -mins, 0.0)
        sums = (train + shift).sum(axis=0)
        np.testing.assert_allclose(out, (test + shift) / sums)

    def test_transform_zeroes_degenerate_columns(self):
        train = np.array([[2.0, 1.0], [2.0, 3.0]])
        stats = fit_normalization(train)
        out = stats._transform(np.array([[9.0, 1.0], [7.0, 1.0]]), slice(None))
        assert out[:, 0].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("train, held, column", [
        ([[-1e307, 1.0], [-1e307, 2.0]], [1.79e308, 1.5], 0),  # shifted past float64
        ([[0.0, 1.0], [1e-300, 2.0]], [1e10, 1.5], 0),  # over a tiny scale
        ([[1.0, 1e-300], [2.0, 0.0]], [1.5, -1e10], 1),  # the same, negative
    ])
    def test_transform_rejects_a_value_that_overflows(self, train, held, column):
        # the first case's column is constant in training, so degenerate; it
        # used to warn and come out as zeros
        stats = fit_normalization(np.array(train))
        with pytest.raises(DatasetError, match=f"^column {column} overflows float64 when "
                                               "normalized with the fitted statistics"):
            stats._transform(np.array([held, [1.0, 1.0]]), slice(None))


def _column_pass_case(T: int, n: int, C: int, seed: int) -> np.ndarray:
    """A T x n matrix with spread-out scales, constant columns (one of them
    negative), all-negative columns and columns of tied integers."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(T, n)) * rng.uniform(0.01, 1e3, size=n)
    X[:, 0::7] = 2.5
    X[:, 1::7] = -1.0
    X[:, 2::7] -= 1e4
    X[:, 3::7] = rng.integers(-3, 4, size=(T, len(range(3, n, 7))))
    return X


# tall, wide and 3-class; each cuts its columns into more than one block
COLUMN_PASS_CASES = [(40_000, 5, 2), (30, 5000, 2), (45, 3000, 3)]


class TestColumnBlocks:
    def test_blocks_cover_the_columns_at_least_two_wide(self):
        for n in range(1, 12):
            for cells in (1, 2**16 // 2, 2**16 // 3, 2**16, 2**20):
                blocks = column_blocks(n, cells)
                assert blocks[0].start == 0 and blocks[-1].stop == n
                assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
                assert all(b.stop - b.start >= min(2, n) for b in blocks)

    @pytest.mark.parametrize("T, n, C", COLUMN_PASS_CASES)
    def test_passes_match_one_pass_formulas_bit_for_bit(self, T, n, C):
        X = _column_pass_case(T, n, C, seed=T + n)
        y = np.arange(T) % C
        assert len(column_blocks(n, T)) > 1
        scores = score_features(Dataset(X, y))
        stats = scores.stats
        for got, want in zip((stats.shift, stats.scale, stats.degenerate),
                             normalization_oracle(X)):
            assert got.tobytes() == want.tobytes()
        Xn = normalize_features(Dataset(X, y))[0].X
        assert scores.fisher.tobytes() == fisher_oracle(Xn, y).tobytes()
        assert scores.spreads.tobytes() == spreads_oracle(Xn).tobytes()
        assert scores.mutual_information.tobytes() == mi_oracle(Xn, y).tobytes()


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(50, 30, 4, 2.0, 1.0, seed=9)
        d1, i1 = generate_synthetic(spec)
        d2, i2 = generate_synthetic(spec)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.y, d2.y)
        assert i1 == i2

    def test_labels_alternate_and_balance(self):
        d, _ = generate_synthetic(SyntheticSpec(11, 5, 1, 1.0, 1.0, seed=0))
        assert d.y.tolist() == [i % 2 for i in range(11)]

    def test_informative_count_and_range(self):
        spec = SyntheticSpec(30, 25, 25, 2.0, 1.0, seed=4)  # all columns informative
        d, inf = generate_synthetic(spec)
        assert inf == frozenset(range(25))

    def test_bad_informative_count(self):
        with pytest.raises(ValueError, match="n_informative"):
            SyntheticSpec(30, 10, 11, 2.0, 1.0, seed=0)
        with pytest.raises(ValueError, match="n_informative"):
            SyntheticSpec(30, 10, 0, 2.0, 1.0, seed=0)

    def test_bad_scalars(self):
        with pytest.raises(ValueError):
            SyntheticSpec(1, 10, 2, 2.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            SyntheticSpec(30, 10, 2, -1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            SyntheticSpec(30, 10, 2, 2.0, 0.0, seed=0)

    def test_informative_columns_dominate_fisher_scores(self):
        # separation 2, noise 1: informative Fisher sits near 2, noise near 0
        d, inf = generate_synthetic(SyntheticSpec(200, 500, 20, 2.0, 1.0, seed=12))
        scores = score_features(d).fisher
        inf_idx = sorted(inf)
        noise_max = scores[[i for i in range(500) if i not in inf]].max()
        frac = np.mean(scores[inf_idx] > noise_max)
        assert frac >= 0.95


class TestDatasetInvariants:
    def test_rejects_single_sample(self):
        with pytest.raises(DatasetError, match="2 samples"):
            Dataset(np.ones((1, 3)), np.array([0]))

    def test_rejects_gap_in_labels(self):
        with pytest.raises(ClassCountError, match="zero samples"):
            _ds([[1.0], [2.0]], [0, 2])

    def test_rejects_negative_labels(self):
        with pytest.raises(ClassCountError):
            _ds([[1.0], [2.0]], [-1, 0])

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteValueError):
            _ds([[1.0], [np.nan]], [0, 1])

    def test_rejects_non_integer_labels(self):
        X = np.ones((3, 1))
        with pytest.raises(DatasetError, match=r"row 1 is not an integer: 1\.7"):
            Dataset(X, [0.0, 1.7, 0.2])
        for bad in (np.nan, np.inf):
            with pytest.raises(DatasetError, match="row 2 is not an integer"):
                Dataset(X, [0.0, 1.0, bad])
        d = Dataset(X, [0.0, 1.0, 1.0])
        assert d.y.dtype.kind == "i" and d.y.tolist() == [0, 1, 1]

    def test_rejects_gap_below_a_label_past_the_sample_count(self):
        with pytest.raises(ClassCountError, match="class 2 has zero samples"):
            _ds([[1.0], [2.0], [3.0], [4.0]], [0, 1, 1, 7])

    def test_equality_is_identity(self):
        d = _ds([[1.0], [2.0]], [0, 1])
        assert d == d and d != _ds([[1.0], [2.0]], [0, 1])

    def test_immutable_after_construction(self):
        d = _ds([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            d.X[0, 0] = 9.0

    def test_constructor_neither_freezes_nor_aliases_the_callers_array(self):
        X = np.arange(6, dtype=float).reshape(3, 2)
        d = Dataset(X, np.array([0, 1, 0]))
        assert X.flags.writeable and not np.shares_memory(d.X, X)
        X[0, 0] = 99.0
        assert d.X[0, 0] == 0.0 and not d.X.flags.writeable

    def test_scoring_rows_keeps_names_and_checks_classes(self):
        d = Dataset(np.arange(8, dtype=float).reshape(4, 2), np.array([0, 1, 0, 1]),
                    ("u", "v"), ("n", "p"))
        s = score_features(d, rows=np.array([0, 1]))
        assert s.rows.tolist() == [0, 1] and s.y.tolist() == [0, 1]
        with pytest.raises(ClassCountError, match="expected at least two classes, found 1"):
            score_features(d, rows=np.array([0, 2]))  # drops class 1
        with pytest.raises(ClassCountError, match="class 0 has zero samples"):
            score_features(d, rows=np.array([1, 3]))
        three = Dataset(np.arange(12, dtype=float).reshape(6, 2), np.arange(6) % 3,
                        label_names=("a", "b", "c"))
        with pytest.raises(DatasetError, match="label_names length does not match class count"):
            score_features(three, rows=np.array([0, 1, 3, 4]))  # drops the last class

    def test_feature_name_fallback(self):
        d = _ds([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [0, 1])
        assert [d.feature_name(i) for i in (0, 1, 2, -1, -3)] == ["f0", "f1", "f2", "f2", "f0"]
        with pytest.raises(IndexError):
            d.feature_name(3)


# header cells: padded, non-ASCII (a no-break space is whitespace to str.strip),
# duplicated, blank, and one that reads as a column index
NAME_CELLS = [" pad ", "caf\u00e9", "\u2603 snow", "dup", "dup", "\tx\u00a0", "", "\U0001f600", "1"]
NAMES = tuple(cell.strip() for cell in NAME_CELLS)


def _names_csv(path, li: int):
    """A CSV of the header cells NAME_CELLS with the label column at position li."""
    rng = np.random.default_rng(li)
    header = NAME_CELLS[:li] + ["label"] + NAME_CELLS[li:]
    rows = rng.normal(size=(6, len(NAME_CELLS))).round(3).astype(str).tolist()
    lines = [",".join(row[:li] + [str(r % 3)] + row[li:]) for r, row in enumerate(rows)]
    path.write_text("\n".join([",".join(header)] + lines) + "\n", encoding="utf-8")
    return path


class TestFeatureNames:
    @pytest.mark.parametrize("li", [0, 4, len(NAME_CELLS)])
    def test_fast_and_cell_paths_give_the_same_names(self, tmp_path, monkeypatch, li):
        # the plain header's names, held as one string, equal the csv module's
        p = _names_csv(tmp_path / "d.csv", li)
        want = _outcome(lambda: _load_csv_reference(p, "label"))
        assert _routed(monkeypatch, lambda: load_dataset(p)) == (want, 0)
        names = load_dataset(p).feature_names
        assert isinstance(names, _Names)
        assert names == NAMES and NAMES == names and names != list(NAMES)
        assert (len(names), list(names), names[2:4], hash(names)) == (
            len(NAMES), list(NAMES), NAMES[2:4], hash(NAMES))
        assert repr(names) == repr(NAMES)

    @pytest.mark.parametrize("label_col", ["1", "2", 3, "dup"])
    def test_label_column_by_name_before_position(self, tmp_path, monkeypatch, label_col):
        # a header cell named "1" is the label column "1"; "2" is a position
        p = tmp_path / "d.csv"
        p.write_text("a, 1 ,b,dup,c\n1,0,2,3,4\n5,1,6,0,8\n", encoding="utf-8")
        want = _outcome(lambda: _load_csv_reference(p, label_col))
        assert _routed(monkeypatch, lambda: load_dataset(p, label_col=label_col)) == (want, 0)

    def test_feature_name_from_either_end(self, tmp_path):
        p = _names_csv(tmp_path / "d.csv", 4)
        n = len(NAMES)
        for d in (load_dataset(p), Dataset(load_dataset(p).X, [0, 1, 2] * 2, NAMES)):
            assert [d.feature_name(i) for i in (0, n - 1, -1, -n, 3)] == [
                NAMES[0], NAMES[-1], NAMES[-1], NAMES[0], NAMES[3]]
            with pytest.raises(IndexError):
                d.feature_name(n)

    def test_names_carry_into_derived_datasets(self, tmp_path):
        d = load_dataset(_names_csv(tmp_path / "d.csv", 2))
        assert _binarize(d, "1").feature_names == NAMES
        assert subset(d, [0, 1, 2, 5]).feature_names == NAMES
        assert normalize_features(d)[0].feature_names == NAMES
