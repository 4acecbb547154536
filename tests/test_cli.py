import argparse
import csv
import hashlib
import io
import json
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import ecfs.cli
import ecfs.evaluation as ev
from ecfs import (
    PowerIterationError,
    Protocol,
    SplitError,
    load_dataset,
    score_features,
    split_indices,
)
from ecfs.cli import main
from ecfs.data import _read_csv_fast
from oracles import fisher_oracle, mi_oracle, normalize_features, spreads_oracle

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="--workers runs serially without fork")


def _write_csv(path, X, y, names=None):
    X = np.asarray(X, dtype=float)
    cols = names or [f"f{i}" for i in range(X.shape[1])]
    lines = [",".join(list(cols) + ["label"])]
    for row, lab in zip(X, y):
        lines.append(",".join(repr(float(v)) for v in row) + f",{lab}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _synth_csv(tmp_path, samples=40, features=12, informative=3, seed=5):
    prefix = tmp_path / "bench"
    rc = main([
        "synth", "--samples", str(samples), "--features", str(features),
        "--informative", str(informative), "--seed", str(seed),
        "--output", str(prefix),
    ])
    assert rc == 0
    return prefix.with_suffix(".csv"), prefix.with_suffix(".informative.json")


class TestRank:
    def test_json_report(self, tmp_path, capsys):
        data, truth = _synth_csv(tmp_path)
        out = tmp_path / "rank.json"
        rc = main(["rank", "--data", str(data), "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["n_features"] == 12
        assert len(report["ranking"]) == 12
        ranks = [r["rank"] for r in report["ranking"]]
        assert ranks == list(range(12))
        scores = [r["score"] for r in report["ranking"]]
        assert scores == sorted(scores, reverse=True)
        assert "ranking time" in capsys.readouterr().err

    def test_top_features_cover_informative(self, tmp_path):
        data, truth = _synth_csv(tmp_path, samples=120, features=15, informative=3, seed=1)
        out = tmp_path / "rank.json"
        assert main(["rank", "--data", str(data), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        informative = set(json.loads(truth.read_text())["informative_indices"])
        top = {r["index"] for r in report["ranking"][:3]}
        assert top == informative

    def test_stdout_output(self, tmp_path, capsys):
        data, _ = _synth_csv(tmp_path)
        rc = main(["rank", "--data", str(data), "--output", "-"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "rank"

    def test_csv_output(self, tmp_path):
        data, _ = _synth_csv(tmp_path)
        out = tmp_path / "rank.csv"
        rc = main(["rank", "--data", str(data), "--output", str(out),
                   "--output-format", "csv"])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "rank,index,name,score"
        assert len(lines) == 13

    def test_csv_output_quotes_names_like_the_csv_module(self, tmp_path):
        rng = np.random.default_rng(4)
        names = ["a,b", 'q"x', "plain"]
        data, out = tmp_path / "d.csv", tmp_path / "rank.csv"
        _write_csv(data, rng.normal(size=(10, 3)), [i % 2 for i in range(10)],
                   names=['"a,b"', '"q""x"', "plain"])
        assert main(["rank", "--data", str(data), "--output", str(out),
                     "--output-format", "csv"]) == 0
        text = out.read_text()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["rank", "index", "name", "score"]
        assert all(len(row) == 4 for row in rows)
        assert {row[2] for row in rows[1:]} == set(names)
        for row in rows[1:]:
            assert row[2] == names[int(row[1])]
        assert '"a,b"' in text and '"q""x"' in text
        assert [line for line in text.splitlines() if "plain" in line][0].count('"') == 0

    @staticmethod
    def _awkward_names_csv(tmp_path):
        names = ['q"x', "back\\slash", "caf\u00e9 \u2603", "tab\there", "bell\x07",
                 "line\nbreak", "\U0001f600", "plain"]
        rng = np.random.default_rng(6)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names + ["label"])
        for i in range(12):
            writer.writerow([repr(float(v)) for v in rng.normal(size=len(names))] + [i % 2])
        data = tmp_path / "d.csv"
        data.write_text(buf.getvalue(), encoding="utf-8")
        return data, names

    def test_json_report_is_what_the_json_module_writes(self, tmp_path):
        # the ranking rows are formatted without json's encoder; quotes, backslashes,
        # non-ASCII and control characters in names must come out as json writes them
        data, names = self._awkward_names_csv(tmp_path)
        out = tmp_path / "rank.json"
        assert main(["rank", "--data", str(data), "--output", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        report = json.loads(text)
        assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert [row["name"] for row in report["ranking"]] == [
            names[row["index"]] for row in report["ranking"]]
        assert sorted(row["index"] for row in report["ranking"]) == list(range(len(names)))

    def test_report_streamed_in_blocks_is_the_same_on_both_sinks(self, tmp_path, monkeypatch,
                                                                 capsys):
        # blocks of 3 ranks cut the 8 rows into 3 writes; each format gives the
        # same bytes as in one block, to a file and to stdout
        data, _ = self._awkward_names_csv(tmp_path)

        def outputs(fmt: str) -> tuple[str, str]:
            out = tmp_path / f"rank.{fmt}"
            assert main(["rank", "--data", str(data), "--output", str(out),
                         "--output-format", fmt]) == 0
            capsys.readouterr()
            assert main(["rank", "--data", str(data), "--output", "-",
                         "--output-format", fmt]) == 0
            return out.read_text(encoding="utf-8"), capsys.readouterr().out

        whole = {fmt: outputs(fmt) for fmt in ("json", "csv")}
        monkeypatch.setattr(ecfs.cli, "_RANKS_PER_WRITE", 3)
        for fmt, (file_text, stdout_text) in whole.items():
            assert file_text == stdout_text
            assert outputs(fmt) == (file_text, stdout_text)
        report = json.loads(whole["json"][0])
        rows = list(csv.reader(io.StringIO(whole["csv"][0])))
        assert [(int(r[0]), int(r[1]), r[2], float(r[3])) for r in rows[1:]] == [
            (row["rank"], row["index"], row["name"], row["score"]) for row in report["ranking"]]

    def test_fast_and_cell_paths_give_the_same_reports(self, tmp_path):
        # padded and non-ASCII names; one quoted header cell sends the same data
        # through the csv module, whose names are a tuple of strings
        rng = np.random.default_rng(8)
        names = [f" caf\u00e9 {i}\u00a0" if i % 3 else f"\u2603{i}" for i in range(30)]
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        _write_csv(plain, rng.normal(size=(24, 30)), np.arange(24) % 2, names)
        text = plain.read_text(encoding="utf-8")
        quoted.write_text(text.replace(names[4], f'"{names[4]}"', 1), encoding="utf-8")
        assert load_dataset(plain).feature_names == load_dataset(quoted).feature_names
        for fmt in ("json", "csv"):
            reports = []
            for data in (plain, quoted):
                out = tmp_path / f"rank-{data.stem}.{fmt}"
                assert main(["rank", "--data", str(data), "--output", str(out),
                             "--output-format", fmt]) == 0
                reports.append(out.read_bytes())
            assert reports[0] == reports[1]
        assert _read_csv_fast(plain, "label") is not None
        assert _read_csv_fast(quoted, "label") is None

    def test_rank_peaks_at_the_matrix_and_a_few_vectors(self, tmp_path):
        # the names are held as one string, and the dataset goes before the
        # eigensolve (the scores hold no reference to it), so scoring with the
        # matrix sets the peak: 9.7 vectors above the matrix, against 22.6 with
        # one str per name and the matrix held through the solve
        T, n = 20, 50_000
        rng = np.random.default_rng(0)
        data = tmp_path / "wide.csv"
        with open(data, "w", encoding="utf-8") as fh:
            fh.write(",".join([f"f{i}" for i in range(n)] + ["label"]) + "\n")
            for r, row in enumerate(rng.normal(size=(T, n)).round(4).tolist()):
                fh.write(",".join(map(repr, row)) + f",{r % 2}\n")
        tracemalloc.start()
        try:
            rc = main(["rank", "--data", str(data), "--output", str(tmp_path / "r.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= 8 * n * (T + 12)

    def test_dump_scores_and_adjacency(self, tmp_path):
        data, _ = _synth_csv(tmp_path)
        adj = tmp_path / "A.txt"
        sc = tmp_path / "scores.json"
        rc = main(["rank", "--data", str(data), "--output", str(tmp_path / "r.json"),
                   "--dump-adjacency", str(adj), "--dump-scores", str(sc)])
        assert rc == 0
        A = np.loadtxt(adj)
        assert A.shape == (12, 12)
        assert A.min() >= 0.0
        # the streamed rows are byte-equal to a dump of the dense blend
        dn, _ = normalize_features(load_dataset(data))
        f = fisher_oracle(dn.X, dn.y)
        m = mi_oracle(dn.X, dn.y)
        s = spreads_oracle(dn.X)
        dense = 0.5 * np.outer((f - f.min()) / (f.max() - f.min()),
                               (m - m.min()) / (m.max() - m.min()))
        dense += 0.5 * np.maximum.outer(s, s)
        ref = tmp_path / "dense.txt"
        np.savetxt(ref, dense)
        assert adj.read_bytes() == ref.read_bytes()
        scores = json.loads(sc.read_text())
        for key in ("fisher", "mutual_information", "centrality"):
            assert len(scores[key]["values"]) == 12

    def test_dump_adjacency_to_file_and_stdout(self, tmp_path, monkeypatch, capsys):
        # `-` writes to stdout, as --output and --dump-scores do, not to a file named -
        data, _ = _synth_csv(tmp_path)
        monkeypatch.chdir(tmp_path)
        adjacency = score_features(load_dataset(data)).centrality(0.3)[2]
        ref = tmp_path / "dense.txt"
        np.savetxt(ref, np.array(list(adjacency.rows())))
        argv = ["rank", "--data", str(data), "--alpha", "0.3", "--output", "r.json"]
        assert main(argv + ["--dump-adjacency", "A.txt"]) == 0
        assert (tmp_path / "A.txt").read_bytes() == ref.read_bytes()
        capsys.readouterr()
        assert main(argv + ["--dump-adjacency", "-"]) == 0
        assert capsys.readouterr().out == ref.read_text()
        assert not (tmp_path / "-").exists()

    def test_dump_scores_is_what_the_json_module_writes(self, tmp_path, monkeypatch):
        # the score vectors are formatted without json's indent encoder, and
        # written in blocks: blocks of 3 values cut each 12-value vector into 4
        data, _ = _synth_csv(tmp_path)
        sc = tmp_path / "scores.json"
        scores = score_features(load_dataset(data))
        want = {
            "schema_version": 1,
            "fisher": {"kind": "fisher", "values": scores.fisher.tolist()},
            "mutual_information": {"kind": "mutual_information",
                                   "values": scores.mutual_information.tolist()},
            "centrality": {"kind": "centrality", "values": scores.centrality(0.5)[1].v0.tolist()},
        }
        for block in (ecfs.cli._RANKS_PER_WRITE, 3):
            monkeypatch.setattr(ecfs.cli, "_RANKS_PER_WRITE", block)
            assert main(["rank", "--data", str(data), "--output", str(tmp_path / "r.json"),
                         "--dump-scores", str(sc)]) == 0
            text = sc.read_text(encoding="utf-8")
            assert text == json.dumps(want, sort_keys=True, indent=2) + "\n"

    def test_huge_bin_count_scores_label_entropy(self, tmp_path):
        # 2^40 bins once asked numpy for a 16 TiB table; every value now sits
        # in its own bin, so each non-constant feature scores H(y)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 5))
        X[:, 2] = 1.5
        y = [0] * 8 + [1] * 12
        data, sc = tmp_path / "d.csv", tmp_path / "scores.json"
        _write_csv(data, X, y)
        rc = main(["rank", "--data", str(data), "--bins", "1099511627776",
                   "--output", str(tmp_path / "r.json"), "--dump-scores", str(sc)])
        assert rc == 0
        mi = json.loads(sc.read_text())["mutual_information"]["values"]
        h_y = -(0.4 * np.log(0.4) + 0.6 * np.log(0.6))
        np.testing.assert_allclose(np.delete(mi, 2), h_y, rtol=0, atol=1e-12)
        assert mi[2] == 0.0

    def test_cv_alpha_reports_choice(self, tmp_path):
        data, _ = _synth_csv(tmp_path, samples=24, features=6, informative=2, seed=2)
        out = tmp_path / "rank.json"
        rc = main(["rank", "--data", str(data), "--output", str(out),
                   "--alpha", "cv", "--alpha-grid", "0.2,0.8", "--c-grid", "0.5,2.0",
                   "--folds", "2", "--cv-cardinality", "3", "--epochs", "5"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["config"]["alpha"] == "cv"
        assert report["metadata"]["alpha"] in (0.2, 0.8)
        assert report["metadata"]["c"] in (0.5, 2.0)

    def test_string_labels_mapping_reported(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "d.csv"
        labels = ["neg" if i % 2 == 0 else "pos" for i in range(10)]
        _write_csv(path, rng.normal(size=(10, 3)), labels)
        out = tmp_path / "r.json"
        assert main(["rank", "--data", str(path), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["label_mapping"] == ["neg", "pos"]

    def test_matrix_format(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(8, 3))
        mat = tmp_path / "m.txt"
        mat.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in X) + "\n")
        lab = tmp_path / "labels.txt"
        lab.write_text("\n".join("ab"[i % 2] for i in range(8)) + "\n")
        out = tmp_path / "r.json"
        rc = main(["rank", "--data", str(mat), "--format", "matrix",
                   "--labels", str(lab), "--output", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["n_samples"] == 8


class TestValidationFailures:
    def test_alpha_out_of_range(self, tmp_path, capsys):
        data, _ = _synth_csv(tmp_path)
        capsys.readouterr()  # drop the synth progress line
        rc = main(["rank", "--data", str(data), "--alpha", "1.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--alpha" in err

    def test_errors_aggregate_into_one_line(self, tmp_path, capsys):
        data, _ = _synth_csv(tmp_path)
        capsys.readouterr()  # drop the synth progress line
        rc = main(["rank", "--data", str(data), "--alpha", "2", "--bins", "1",
                   "--folds", "1"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0
        assert "--alpha" in err and "--bins" in err and "--folds" in err
        assert "; " in err

    @pytest.mark.parametrize("argv", [
        ["rank", "--alpha", "cv"],
        ["stability", "--alpha", "cv", "--repeats", "2", "--cardinalities", "5,10"],
    ])
    def test_cv_on_three_classes_fails_before_scoring(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        data = tmp_path / "three.csv"
        _write_csv(data, np.random.default_rng(0).normal(size=(30, 50)), np.arange(30) % 3)
        calls = []
        real = ev.score_features

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod in (ecfs.cli, ev):
            monkeypatch.setattr(mod, "score_features", spy)
        assert main(argv + ["--data", str(data), "--output", str(tmp_path / "out.json")]) == 1
        assert "the data has 3 classes" in capsys.readouterr().err
        assert calls == []

    def test_stability_without_ec_fs_takes_three_classes_under_cv(self, tmp_path):
        # no ec_fs ranking, so no cross-validation runs
        data = tmp_path / "three.csv"
        _write_csv(data, np.random.default_rng(0).normal(size=(30, 50)), np.arange(30) % 3)
        assert main(["stability", "--data", str(data), "--alpha", "cv", "--methods", "fisher,mi",
                     "--repeats", "2", "--cardinalities", "5,10",
                     "--output", str(tmp_path / "out.json")]) == 0

    @pytest.mark.parametrize("first", [1e308, -1e308])
    def test_shifted_sum_overflow_exits_one(self, tmp_path, capsys, first):
        data = tmp_path / "big.csv"
        data.write_text(f"a,b,label\n{first!r},1,0\n1.2e308,2,1\n1.5e308,3,0\n1.7e308,4,1\n")
        assert main(["rank", "--data", str(data), "--output", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err.startswith("error: column 0 overflows float64")
        assert not (tmp_path / "r.json").exists()

    def test_held_out_value_that_overflows_exits_one(self, tmp_path, capsys):
        # seed 5 holds row 0 out; its column-0 value passes float64 once shifted
        # by the training rows' minimum, which once warned and exited 0
        data = tmp_path / "over.csv"
        data.write_text("a,b,c,label\n" + "".join(
            f"{'1.79e308' if r == 0 else '-1e307'},1.0,2.0,{r % 2}\n" for r in range(30)))
        assert main(["evaluate", "--data", str(data), "--repeats", "1", "--methods", "fisher",
                     "--cardinalities", "1,2", "--seed", "5",
                     "--output", str(tmp_path / "e.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: column 0 overflows float64 when normalized")
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--dump-scores", "-"],
        ["--dump-adjacency", "-"],
        ["--output", "r.json", "--dump-scores", "-", "--dump-adjacency", "-"],
    ])
    def test_one_output_at_most_on_stdout(self, tmp_path, capsys, argv):
        # two documents on stdout do not parse as one; the check precedes the load
        rc = main(["rank", "--data", str(tmp_path / "missing.csv")] + argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert "at most one output may go to stdout" in err and "missing.csv" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["evaluate", "--fixed-c", "inf"], "--fixed-c"),
        (["evaluate", "--fixed-c", "nan"], "--fixed-c"),
        (["rank", "--alpha", "cv", "--c-grid", "1,inf"], "--c-grid"),
        (["evaluate", "--alpha", "cv", "--c-grid", "nan"], "--c-grid"),
        (["rank", "--tol", "inf"], "--tol"),
        (["rank", "--tol", "nan"], "--tol"),
    ])
    def test_non_finite_c_or_tol_joins_the_aggregated_errors(self, tmp_path, capsys,
                                                             argv, flag):
        data, _ = _synth_csv(tmp_path)
        capsys.readouterr()  # drop the synth progress line
        assert main([*argv, "--data", str(data), "--bins", "1"]) == 1
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0
        assert f"{flag} " in err and "must be positive and finite" in err and "--bins" in err

    def test_malformed_env_seed_joins_the_aggregated_errors(self, tmp_path, capsys,
                                                            monkeypatch):
        data, _ = _synth_csv(tmp_path)
        capsys.readouterr()  # drop the synth progress line
        monkeypatch.setenv("ECFS_SEED", "abc")
        rc = main(["rank", "--data", str(data), "--alpha", "2"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0
        assert "--alpha must be in [0, 1]" in err
        assert "ECFS_SEED must be a non-negative integer, got 'abc'" in err
        monkeypatch.setenv("ECFS_SEED", "-3")
        assert main(["synth", "--samples", "10", "--features", "3", "--informative", "1",
                     "--output", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            "error: ECFS_SEED must be a non-negative integer, got '-3'\n"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_bins_past_float_range_joins_the_aggregated_errors(self, tmp_path, capsys):
        # such a bin count once reached the MI kernel and died with an OverflowError
        data, _ = _synth_csv(tmp_path, samples=4, features=2, informative=1)
        capsys.readouterr()  # drop the synth progress line
        big = "1" + "0" * 400
        assert main(["rank", "--data", str(data), "--bins", big, "--alpha", "2"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "--alpha must be in [0, 1]" in err
        assert f"--bins must convert to a finite float, got {big}" in err
        assert main(["stability", "--data", str(data), "--bins", big]) == 1
        assert capsys.readouterr().err == (
            f"error: --bins must convert to a finite float, got {big}\n"
        )

    def test_seed_past_63_bits_joins_the_aggregated_errors(self, tmp_path, capsys,
                                                           monkeypatch):
        data, _ = _synth_csv(tmp_path)
        capsys.readouterr()  # drop the synth progress line
        big = str(2**63)
        message = f"seed must be a non-negative 63-bit integer, got {big}"
        assert main(["rank", "--data", str(data), "--seed", big]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        # rejected with the other flag errors, before any data file is read
        absent = str(tmp_path / "absent.csv")
        assert main(["evaluate", "--data", absent, "--seed", big, "--alpha", "2"]) == 1
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0
        assert "--alpha must be in [0, 1]" in err and message in err
        monkeypatch.setenv("ECFS_SEED", big)
        assert main(["stability", "--data", absent]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        monkeypatch.delenv("ECFS_SEED")
        out = tmp_path / "rank.json"
        assert main(["rank", "--data", str(data), "--seed", str(2**63 - 1),
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 2**63 - 1

    def test_cell_past_the_csv_field_limit_exits_one(self, tmp_path, capsys):
        # a quoted cell sends the file to the csv module, which refuses cells over
        # 131072 characters; that once ended in a _csv.Error traceback
        data = tmp_path / "big.csv"
        data.write_text('a,b,label\n1,2,0\n"' + "1" * 131073 + '",3,1\n4,5,0\n')
        assert main(["rank", "--data", str(data)]) == 1
        assert capsys.readouterr().err == (
            f"error: {data}: line 3: field larger than field limit (131072)\n"
        )

    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["rank", "--data", str(tmp_path / "absent.csv")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_matrix_without_labels(self, tmp_path):
        data, _ = _synth_csv(tmp_path)
        assert main(["rank", "--data", str(data), "--format", "matrix"]) == 1

    def test_labels_with_csv(self, tmp_path):
        data, _ = _synth_csv(tmp_path)
        assert main(["rank", "--data", str(data), "--labels", str(data)]) == 1

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        assert main(["rank", "--data", "x.csv", "--frobnicate"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--workers", "0"], "--workers must be at least 1, got 0"),
        (["stability", "--workers", "0"], "--workers must be at least 1, got 0"),
        (["rank", "--max-iter", "0"], "--max-iter must be positive, got 0"),
    ])
    def test_count_flag_below_one_exits_one_before_the_load(self, tmp_path, capsys, argv,
                                                            message):
        assert main([*argv, "--data", str(tmp_path / "missing.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_every_option_has_help(self):
        parser = ecfs.cli._build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(commands.choices) == ["evaluate", "rank", "stability", "synth"]
        bare = [(name, a.option_strings[0]) for name, sub in commands.choices.items()
                for a in sub._actions if a.option_strings and not a.help]
        assert bare == []

    def test_unknown_method(self, tmp_path):
        data, _ = _synth_csv(tmp_path)
        rc = main(["evaluate", "--data", str(data), "--methods", "relief",
                   "--repeats", "2", "--cardinalities", "2"])
        assert rc == 1

    def test_nonconvergence_exits_two(self, tmp_path, capsys):
        data, _ = _synth_csv(tmp_path)
        rc = main(["rank", "--data", str(data), "--max-iter", "1", "--tol", "1e-30"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


def _fail_in(monkeypatch, data, plan, r, fail, in_worker=True):
    """Call fail() where score_features meets repeat r's training rows inside a
    worker process (forked workers inherit the patch), or with in_worker=False
    in this process alone."""
    d = load_dataset(data)
    target = split_indices(d.y, plan)[r][0]
    parent, real = os.getpid(), ev.score_features

    def failing(d, bins=None, rows=None):
        if (os.getpid() != parent) == in_worker and np.array_equal(rows, target):
            fail()
        return real(d, bins, rows)

    monkeypatch.setattr(ev, "score_features", failing)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
class TestWorkerFailures:
    # 2 chunks: this process runs repeats 0-1, one forked worker repeats 2-3
    ARGS = ["stability", "--repeats", "4", "--cardinalities", "3", "--seed", "2",
            "--workers", "2"]

    def _run(self, tmp_path, monkeypatch, capsys, fail, r=3, in_worker=True) -> tuple[int, str]:
        data, _ = _synth_csv(tmp_path)
        _fail_in(monkeypatch, data, Protocol(repeats=4, seed=2), r, fail, in_worker)
        capsys.readouterr()
        rc = main(self.ARGS + ["--data", str(data), "--output", str(tmp_path / "s.json")])
        _no_child_left()
        return rc, capsys.readouterr().err

    def test_nonconvergence_in_a_worker_exits_two(self, tmp_path, monkeypatch, capsys):
        def fail():
            raise PowerIterationError("no convergence after 9 iterations", 1e-3, 9)

        rc, err = self._run(tmp_path, monkeypatch, capsys, fail)
        assert (rc, err) == (2, "error: no convergence after 9 iterations\n")

    def test_split_error_in_a_worker_exits_one(self, tmp_path, monkeypatch, capsys):
        def fail():
            raise SplitError("fold 0 leaves a single class on its training side")

        rc, err = self._run(tmp_path, monkeypatch, capsys, fail)
        assert (rc, err) == (1, "error: fold 0 leaves a single class on its training side\n")

    def test_dead_worker_exits_one(self, tmp_path, monkeypatch, capsys):
        # as when the kernel kills a worker that ran out of memory
        rc, err = self._run(tmp_path, monkeypatch, capsys, lambda: os._exit(9))
        assert rc == 1
        assert err.startswith("error: worker process failed:") and err.count("\n") == 1
        assert "exited with status 9" in err
        assert not (tmp_path / "s.json").exists()

    def test_failure_here_kills_the_running_worker(self, tmp_path, monkeypatch, capsys):
        # the worker sleeps a minute on its first repeat, while this process fails
        # on its own first repeat and does not wait for the worker
        data, _ = _synth_csv(tmp_path)
        _fail_in(monkeypatch, data, Protocol(repeats=4, seed=2), 2, lambda: time.sleep(60))

        def fail():
            raise SplitError("fold 0 leaves a single class on its training side")

        t0 = time.monotonic()
        rc, err = self._run(tmp_path, monkeypatch, capsys, fail, r=0, in_worker=False)
        assert time.monotonic() - t0 < 30
        assert (rc, err) == (1, "error: fold 0 leaves a single class on its training side\n")
        assert not (tmp_path / "s.json").exists()


class TestEvaluate:
    def test_byte_identical_runs_and_worker_invariance(self, tmp_path):
        data, _ = _synth_csv(tmp_path, samples=30, features=8, informative=2, seed=3)
        outs = [tmp_path / f"e{i}.json" for i in range(3)]
        base = ["evaluate", "--data", str(data), "--cardinalities", "2,4",
                "--repeats", "4", "--epochs", "5", "--seed", "9"]
        assert main(base + ["--output", str(outs[0])]) == 0
        assert main(base + ["--output", str(outs[1])]) == 0
        assert main(base + ["--output", str(outs[2]), "--workers", "3"]) == 0
        b0, b1, b2 = (p.read_bytes() for p in outs)
        assert b0 == b1 == b2

    def test_csv_view(self, tmp_path):
        data, _ = _synth_csv(tmp_path, samples=30, features=8, informative=2, seed=3)
        out = tmp_path / "e.csv"
        rc = main(["evaluate", "--data", str(data), "--cardinalities", "2,4",
                   "--repeats", "3", "--epochs", "5", "--output", str(out),
                   "--output-format", "csv"])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "method,2,4,average"
        assert len(lines) == 4

    def test_multiclass_requires_positive_class(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        path = tmp_path / "m.csv"
        labels = ["abc"[i % 3] for i in range(24)]
        _write_csv(path, rng.normal(size=(24, 5)), labels)
        rc = main(["evaluate", "--data", str(path), "--cardinalities", "2",
                   "--repeats", "2", "--epochs", "4"])
        assert rc == 1
        assert "--positive-class" in capsys.readouterr().err
        for positive, message in (("nope", "positive class 'nope' not found; known labels"),
                                  ("7", "positive class index 7 out of range 0..2")):
            rc = main(["evaluate", "--data", str(path), "--cardinalities", "2",
                       "--repeats", "2", "--epochs", "4", "--positive-class", positive])
            assert rc == 1
            assert message in capsys.readouterr().err

    def test_multiclass_one_vs_rest(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "m.csv"
        labels = ["abc"[i % 3] for i in range(24)]
        _write_csv(path, rng.normal(size=(24, 5)), labels)
        out = tmp_path / "e.json"
        rc = main(["evaluate", "--data", str(path), "--cardinalities", "2",
                   "--repeats", "2", "--epochs", "4", "--positive-class", "b",
                   "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["config"]["positive_class"] == "b"
        assert "ec_fs" in report["auc"]

    def test_flag_free_run_takes_the_protocol_defaults(self, tmp_path, monkeypatch):
        # the command line holds no default of its own for a Protocol field
        data, _ = _synth_csv(tmp_path, samples=20, features=5, informative=2, seed=6)
        monkeypatch.delenv("ECFS_SEED", raising=False)
        seen = []
        monkeypatch.setattr(ev, "run_evaluation",
                            lambda d, protocol, workers: seen.append(protocol) or {})
        assert main(["evaluate", "--data", str(data), "--output", str(tmp_path / "e")]) == 0
        assert seen == [Protocol(seed=0)]

    def test_wall_time_goes_to_stderr(self, tmp_path, capsys):
        data, _ = _synth_csv(tmp_path, samples=20, features=5, informative=2, seed=6)
        out = tmp_path / "e.json"
        rc = main(["evaluate", "--data", str(data), "--cardinalities", "2",
                   "--repeats", "2", "--epochs", "4", "--output", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "wall time" in captured.err
        assert "wall time" not in out.read_text()


class TestStability:
    def test_degenerate_fixture_fully_stable(self, tmp_path):
        T = 12
        y = [i % 2 for i in range(T)]
        X = np.ones((T, 4))
        X[:, 0] = y
        path = tmp_path / "s.csv"
        _write_csv(path, X, y)
        out = tmp_path / "st.json"
        rc = main(["stability", "--data", str(path), "--cardinalities", "1,2",
                   "--repeats", "3", "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        for method in ("ec_fs", "fisher", "mi"):
            assert all(row["kuncheva"] == 1.0 for row in report["stability"][method])

    def test_csv_view_and_repeat_floor(self, tmp_path):
        data, _ = _synth_csv(tmp_path, samples=20, features=6, informative=2, seed=7)
        out = tmp_path / "st.csv"
        rc = main(["stability", "--data", str(data), "--cardinalities", "2,3",
                   "--repeats", "3", "--output", str(out), "--output-format", "csv"])
        assert rc == 0
        assert out.read_text().startswith("method,2,3")
        assert main(["stability", "--data", str(data), "--cardinalities", "2",
                     "--repeats", "1"]) == 1


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = ["synth", "--samples", "25", "--features", "7", "--informative", "2",
                "--seed", "11"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
        ta = json.loads(a.with_suffix(".informative.json").read_text())
        tb = json.loads(b.with_suffix(".informative.json").read_text())
        assert ta == tb
        assert len(ta["informative_indices"]) == 2

    def test_csv_bytes_are_pinned(self, tmp_path):
        # the digest of the file as written before rows were streamed one at a time
        prefix = tmp_path / "p"
        assert main(["synth", "--samples", "24", "--features", "30", "--informative", "4",
                     "--seed", "3", "--output", str(prefix)]) == 0
        digest = hashlib.sha256(prefix.with_suffix(".csv").read_bytes()).hexdigest()
        assert digest == "093242fff0401965c82309dbe228237b8feefc43d303ecb599391b3021ca1d0e"

    @pytest.mark.parametrize("prefix, stem", [("run.v2", "run.v2"), ("data.csv", "data"),
                                              ("plain", "plain")])
    def test_output_prefix_keeps_its_dots(self, tmp_path, capsys, prefix, stem):
        # Path.with_suffix once wrote run.csv and run.informative.json for run.v2
        assert main(["synth", "--samples", "6", "--features", "3", "--informative", "1",
                     "--output", str(tmp_path / prefix)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{stem}.csv",
                                                              f"{stem}.informative.json"]
        assert f"wrote {tmp_path / stem}.csv and" in capsys.readouterr().err

    def test_env_seed_matches_flag(self, tmp_path, monkeypatch):
        flagged = tmp_path / "f"
        env = tmp_path / "g"
        assert main(["synth", "--samples", "15", "--features", "4", "--informative", "1",
                     "--seed", "7", "--output", str(flagged)]) == 0
        monkeypatch.setenv("ECFS_SEED", "7")
        assert main(["synth", "--samples", "15", "--features", "4", "--informative", "1",
                     "--output", str(env)]) == 0
        assert flagged.with_suffix(".csv").read_bytes() == env.with_suffix(".csv").read_bytes()

    @pytest.mark.parametrize("flag, field", [("--separation", "class_separation"),
                                             ("--noise-sd", "noise_sd")])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_spread_exits_one_before_writing(self, tmp_path, capsys, flag, field,
                                                        value):
        # --separation inf once drew NaN cells with a RuntimeWarning and then
        # failed as if the file it wrote were a bad data file
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["synth", "--samples", "10", "--features", "3", "--informative", "1",
                       flag, value, "--output", str(tmp_path / "x")])
        assert rc == 1
        assert f"{field} must be positive and finite" in capsys.readouterr().err
        assert caught == []
        assert list(tmp_path.iterdir()) == []

    def test_bad_spec_exits_one(self, tmp_path, capsys):
        rc = main(["synth", "--samples", "10", "--features", "3", "--informative", "9",
                   "--output", str(tmp_path / "x")])
        assert rc == 1
        capsys.readouterr()
