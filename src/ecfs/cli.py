"""Command-line front end: rank, evaluate, stability, synth.

Every command is a pure function of its input files, flags, and seed; output
files are byte-identical across runs. Exit codes: 0 success, 1 validation or
data errors, 2 eigensolver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .centrality import DEFAULT_MAX_ITER, DEFAULT_TOL, PowerIterationError, score_features
from .data import (
    Dataset,
    DatasetError,
    FeatureRanking,
    SyntheticSpec,
    _names_at,
    generate_synthetic,
    load_dataset,
)
from .forkjoin import WorkerError
from .protocol import Protocol, ProtocolError

ENV_SEED = "ECFS_SEED"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which is reserved here
    # for solver non-convergence; route usage problems to status 1 instead
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input data file")
    p.add_argument("--format", choices=("csv", "matrix"), default="csv",
                   help="csv with a header row, or whitespace matrix plus a labels file")
    p.add_argument("--label-col", default="label",
                   help="csv label column, by name or position (default: label)")
    p.add_argument("--labels", default=None, help="labels file for matrix format")


def _add_cv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha-grid", default=None,
                   help="comma-separated alpha candidates for --alpha cv")
    p.add_argument("--c-grid", default=None,
                   help="comma-separated C candidates for --alpha cv")
    p.add_argument("--folds", type=int, help="cross-validation folds")
    p.add_argument("--cv-cardinality", type=int,
                   help="feature count used while scoring fold candidates")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default="-", help="output path, or - for stdout")
    p.add_argument("--output-format", choices=("json", "csv"), default="json",
                   help="report as JSON, or as a CSV table")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    """Flags rank, evaluate and stability share, each with one help text: the
    blend weight, MI's bin count, the classifier epochs and the master seed."""
    p.add_argument("--alpha",
                   help="mixing weight in [0,1], or 'cv' to pick it by cross-validation")
    p.add_argument("--bins", type=int, default=None,
                   help="histogram bins for the mutual information score")
    p.add_argument("--epochs", type=int,
                   help="classifier training epochs (rank trains classifiers only under "
                        "--alpha cv)")
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (default: ${ENV_SEED} or 0)")


def _add_resample_flags(p: argparse.ArgumentParser) -> None:
    """Flags evaluate and stability share: the repeated-split protocol."""
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--cardinalities", help="comma-separated top-k sizes to score")
    p.add_argument("--train-fraction", type=float,
                   help="share of each class's rows in every training split")
    p.add_argument("--repeats", type=int, help="number of repeated train/test splits")
    p.add_argument("--methods", help="comma-separated rankings to compare: ec_fs, fisher, mi")
    p.add_argument("--workers", type=int, default=1,
                   help="processes over chunks of repeats (serial where os.fork is "
                        "unavailable); output does not depend on it")
    _add_cv_flags(p)
    _add_output_flags(p)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ecfs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="rank all features on one dataset")
    _add_data_flags(p_rank)
    _add_model_flags(p_rank)
    p_rank.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="eigensolver residual tolerance")
    p_rank.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                        help="eigensolver sweep budget")
    _add_cv_flags(p_rank)
    p_rank.add_argument("--dump-scores", default=None,
                        help="also write the per-feature score vectors as JSON")
    p_rank.add_argument("--dump-adjacency", default=None,
                        help="also write the dense adjacency as row-major text, row by row "
                             "(- for stdout)")
    _add_output_flags(p_rank)

    p_eval = sub.add_parser("evaluate", help="repeated-split AUC / stability / significance")
    _add_resample_flags(p_eval)
    p_eval.add_argument("--fixed-c", type=float,
                        help="classifier C when alpha is fixed, and for baselines")
    p_eval.add_argument("--positive-class", default=None,
                        help="for multiclass data: evaluate this class against the rest")

    p_stab = sub.add_parser("stability", help="selection stability across training splits")
    _add_resample_flags(p_stab)

    p_synth = sub.add_parser("synth", help="generate a labelled Gaussian benchmark")
    p_synth.add_argument("--samples", type=int, required=True, help="number of rows")
    p_synth.add_argument("--features", type=int, required=True, help="number of columns")
    p_synth.add_argument("--informative", type=int, required=True,
                         help="number of columns whose class-1 mean is shifted")
    p_synth.add_argument("--separation", type=float, default=2.0,
                         help="shift of class 1's mean on each informative column")
    p_synth.add_argument("--noise-sd", type=float, default=1.0,
                         help="standard deviation of every column's Gaussian noise")
    p_synth.add_argument("--seed", type=int, default=None,
                         help=f"generator seed (default: ${ENV_SEED} or 0)")
    p_synth.add_argument("--output", required=True,
                         help="path prefix; writes <prefix>.csv and <prefix>.informative.json "
                              "(a trailing .csv is dropped from the prefix first)")
    return parser


def _resolve_seed(args, errors: list[str]) -> int:
    if args.seed is not None:
        return args.seed
    text = os.environ.get(ENV_SEED, "0")
    if text.strip().isdecimal():
        return int(text)
    errors.append(f"{ENV_SEED} must be a non-negative integer, got {text!r}")
    return 0


def _parse_alpha(text: str):
    """The number the text spells; else the text itself, such as 'cv', for
    Protocol to accept or reject."""
    try:
        return float(text)
    except ValueError:
        return text


# the Protocol fields given as comma-separated lists, and their element type
_LIST_FIELDS = {"cardinalities": int, "alpha_grid": float, "c_grid": float}


def _flag(field: str) -> str:
    """The command-line name of a Protocol field: its flag, or plain seed, which
    also comes from ECFS_SEED."""
    return field if field == "seed" else "--" + field.replace("_", "-")


def _check_flags(args) -> tuple[Protocol | None, list[str]]:
    """The Protocol the given flags spell (the rest at Protocol's defaults), and
    the flag errors: each text that does not parse, each broken Protocol rule
    under its flag, and the checks of the command line alone. The Protocol is
    None when a rule is broken."""
    errors: list[str] = []
    values = {f.name: getattr(args, f.name) for f in fields(Protocol)
              if getattr(args, f.name, None) is not None}
    values["seed"] = _resolve_seed(args, errors)
    if "alpha" in values:
        values["alpha"] = _parse_alpha(values["alpha"])
    if "methods" in values:
        values["methods"] = [m.strip() for m in values["methods"].split(",") if m.strip()]
    for field, cast in _LIST_FIELDS.items():
        text = values.pop(field, None)
        if text is None:
            continue
        try:
            values[field] = [cast(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            kind = "integer" if cast is int else "number"
            errors.append(f"{_flag(field)} is not a comma-separated {kind} list: {text!r}")
    try:
        protocol = Protocol(**values)
    except ProtocolError as e:
        protocol = None
        errors.extend(e.messages(_flag))
    if getattr(args, "workers", 1) < 1:
        errors.append(f"--workers must be at least 1, got {args.workers}")
    if args.format == "matrix" and args.labels is None:
        errors.append("--format matrix requires --labels")
    if args.format == "csv" and args.labels is not None:
        errors.append("--labels only applies to --format matrix")
    return protocol, errors


def _fail(errors: list[str]) -> int:
    print("error: " + "; ".join(errors), file=sys.stderr)
    return 1


def _load(args) -> Dataset:
    return load_dataset(args.data, format=args.format, label_col=args.label_col,
                        labels_path=args.labels)


def _binarize(d: Dataset, positive: str) -> Dataset:
    """One-vs-rest view: the chosen class becomes label 1, everything else 0."""
    idx = None
    if d.label_names is not None and positive in d.label_names:
        idx = d.label_names.index(positive)
    else:
        try:
            idx = int(positive)
        except ValueError:
            raise DatasetError(
                f"positive class {positive!r} not found; known labels: {list(d.label_names or [])}"
            ) from None
        if not 0 <= idx < d.n_classes:
            raise DatasetError(f"positive class index {idx} out of range 0..{d.n_classes - 1}")
    name = d.label_names[idx] if d.label_names else str(idx)
    y = (d.y == idx).astype(int)
    # d.X is read-only, so both datasets can share it
    return Dataset._own(d.X, y, d.feature_names, ("rest", name))


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@contextmanager
def _sink(path: str):
    """The text stream an output goes to: stdout for -, else the file at path."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _write(text: str, path: str) -> None:
    with _sink(path) as fh:
        fh.write(text)


# the rank report and the --dump-scores vectors are formatted and written this
# many entries at a time, so that no per-feature list and no whole-report
# string is built, and each block's strings stay small next to the vectors
_RANKS_PER_WRITE = 256


def _ranking_blocks(names, ranking: FeatureRanking):
    """(first rank, indices, names, scores) of each block of _RANKS_PER_WRITE
    ranks, best first, as Python lists, for a Dataset's feature_names names."""
    for a in range(0, ranking.n_features, _RANKS_PER_WRITE):
        order = ranking.order[a:a + _RANKS_PER_WRITE]
        yield (a, order.tolist(), _names_at(names, order),
               ranking.scores[a:a + _RANKS_PER_WRITE].tolist())


def _write_rank_json(fh, report: dict, names, ranking: FeatureRanking) -> None:
    """Write _dump_json of the report with its ranking rows as dicts, byte for byte.

    Under indent, json encodes in pure Python, so the rows (one per feature) are
    formatted here as json would: names by its ASCII string encoder, scores by
    float.__repr__. Everything else goes through _dump_json.
    """
    # a newline never occurs inside an encoded string, so this is the top-level key
    head, tail = _dump_json({**report, "ranking": []}).split('\n  "ranking": []', 1)
    fh.write(head + '\n  "ranking": [\n')
    for a, order, block, scores in _ranking_blocks(names, ranking):
        fh.write((",\n" if a else "") + ",\n".join(
            f'    {{\n      "index": {j},\n      "name": {encode_basestring_ascii(name)},\n'
            f'      "rank": {pos},\n      "score": {float.__repr__(score)}\n    }}'
            for pos, j, name, score in zip(itertools.count(a), order, block, scores)
        ))
    fh.write("\n  ]" + tail)


def _write_scores_json(fh, vectors: dict) -> None:
    """Write _dump_json of the --dump-scores object, byte for byte: schema_version 1
    and, per name, {"kind": kind, "values": [...]} for its (kind, values) vector.

    As in _write_rank_json, the values (one per feature) are formatted here as json's
    pure-Python indent encoder would, one float.__repr__ per line, and written
    _RANKS_PER_WRITE at a time.
    """
    empty = {name: {"kind": kind, "values": []} for name, (kind, _) in vectors.items()}
    # keys are sorted, so the placeholders appear in name order
    parts = _dump_json({"schema_version": 1, **empty}).split('"values": []')
    fh.write(parts[0])
    sep = ",\n      "
    for name, rest in zip(sorted(vectors), parts[1:]):
        values = vectors[name][1]
        fh.write('"values": [')
        for a in range(0, values.shape[0], _RANKS_PER_WRITE):
            block = values[a:a + _RANKS_PER_WRITE].tolist()
            fh.write((sep if a else "\n      ") + sep.join(map(float.__repr__, block)))
        fh.write(f"\n    ]{rest}")


def _cmd_rank(args) -> int:
    protocol, errors = _check_flags(args)
    if not 0 < args.tol < math.inf:
        errors.append(f"--tol must be positive and finite, got {args.tol}")
    if args.max_iter < 1:
        errors.append(f"--max-iter must be positive, got {args.max_iter}")
    to_stdout = [flag for flag, path in (("--output", args.output),
                                         ("--dump-scores", args.dump_scores),
                                         ("--dump-adjacency", args.dump_adjacency))
                 if path == "-"]
    if len(to_stdout) > 1:
        errors.append(f"at most one output may go to stdout (-), got {', '.join(to_stdout)}")
    if errors:
        return _fail(errors)
    d = _load(args)
    alpha, chosen_c = protocol.alpha, None
    if alpha == "cv":
        from .evaluation import cross_validate

        alpha, chosen_c = cross_validate(d, protocol, protocol.seed)
    t0 = time.perf_counter()
    scores = score_features(d, protocol.bins)
    # the scores hold no reference to the dataset, so letting it go frees the
    # matrix before the solve, whose vectors then take its place
    shape, names, label_names = d.X.shape, d.feature_names, d.label_names
    del d
    ranking, eigen, adjacency = scores.centrality(alpha, args.tol, args.max_iter)
    print(f"ranking time: {time.perf_counter() - t0:.3f}s (ranking only)", file=sys.stderr)
    if args.dump_adjacency:
        with _sink(args.dump_adjacency) as fh:
            for row in adjacency.rows():
                np.savetxt(fh, row[None])
    if args.dump_scores:
        with _sink(args.dump_scores) as fh:
            _write_scores_json(fh, {
                "fisher": ("fisher", scores.fisher),
                "mutual_information": ("mutual_information", scores.mutual_information),
                "centrality": ("centrality", eigen.v0),
            })
    report = {
        "schema_version": 1,
        "command": "rank",
        "n_samples": shape[0],
        "n_features": shape[1],
        "label_mapping": list(label_names) if label_names else None,
        "config": {
            "alpha": "cv" if chosen_c is not None else alpha,
            "bins": scores.bins,
            "seed": protocol.seed,
            "tol": args.tol,
            "max_iter": args.max_iter,
        },
        "metadata": {
            "alpha": alpha,
            "c": chosen_c,
            "lambda0": eigen.lambda0,
            "iterations": eigen.iterations,
            "residual": eigen.residual,
            "degenerate": eigen.degenerate,
            "degenerate_features": scores.stats.degenerate_columns,
            "degenerate_fisher": adjacency.degenerate_fisher,
            "degenerate_mi": adjacency.degenerate_mi,
        },
    }
    with _sink(args.output) as fh:
        if args.output_format == "json":
            _write_rank_json(fh, report, names, ranking)
        else:
            # the csv module quotes a name that holds a comma, quote or line break
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["rank", "index", "name", "score"])
            for a, order, block, values in _ranking_blocks(names, ranking):
                writer.writerows(zip(itertools.count(a), order, block, map(repr, values)))
    return 0


def _auc_csv(report: dict) -> str:
    ks = report["config"]["cardinalities"]
    lines = ["method," + ",".join(str(k) for k in ks) + ",average"]
    for method in report["config"]["methods"]:
        block = report["auc"][method]
        cells = [f"{block['per_cardinality'][str(k)]['mean']:.6f}" for k in ks]
        lines.append(f"{method}," + ",".join(cells) + f",{block['average']:.6f}")
    return "\n".join(lines) + "\n"


def _stability_csv(report: dict) -> str:
    ks = report["config"]["cardinalities"]
    lines = ["method," + ",".join(str(k) for k in ks)]
    for method in report["config"]["methods"]:
        by_k = {row["cardinality"]: row["kuncheva"] for row in report["stability"][method]}
        lines.append(f"{method}," + ",".join(f"{by_k[k]:.6f}" for k in ks))
    return "\n".join(lines) + "\n"


def _cmd_evaluate(args) -> int:
    protocol, errors = _check_flags(args)
    if errors:
        return _fail(errors)
    d = _load(args)
    if d.n_classes > 2 and args.positive_class is None:
        return _fail([
            f"dataset has {d.n_classes} classes; pass --positive-class to evaluate one against the rest"
        ])
    if args.positive_class is not None:
        d = _binarize(d, args.positive_class)
    from .evaluation import run_evaluation

    t0 = time.perf_counter()
    report = run_evaluation(d, protocol, args.workers)
    print(f"wall time: {time.perf_counter() - t0:.3f}s (ranking + training + scoring)",
          file=sys.stderr)
    if args.positive_class is not None:
        report["config"]["positive_class"] = args.positive_class
    _write(_dump_json(report) if args.output_format == "json" else _auc_csv(report), args.output)
    return 0


def _cmd_stability(args) -> int:
    protocol, errors = _check_flags(args)
    if args.repeats is not None and args.repeats < 2:
        errors.append("--repeats must be at least 2 for stability")
    if errors:
        return _fail(errors)
    d = _load(args)
    from .evaluation import run_stability

    report = run_stability(d, protocol, args.workers)
    _write(_dump_json(report) if args.output_format == "json" else _stability_csv(report),
           args.output)
    return 0


def _cmd_synth(args) -> int:
    errors: list[str] = []
    seed = _resolve_seed(args, errors)
    if errors:
        return _fail(errors)
    spec = SyntheticSpec(
        n_samples=args.samples,
        n_features=args.features,
        n_informative=args.informative,
        class_separation=args.separation,
        noise_sd=args.noise_sd,
        seed=seed,
    )
    d, informative = generate_synthetic(spec)
    # the prefix is kept whole, dots included, less a trailing .csv
    prefix = args.output[:-4] if args.output.endswith(".csv") else args.output
    data_path, truth_path = Path(prefix + ".csv"), Path(prefix + ".informative.json")
    data_path.parent.mkdir(parents=True, exist_ok=True)
    # one row's text at a time, so memory holds the matrix and not the file
    with open(data_path, "w", encoding="utf-8") as fh:
        fh.write(",".join([d.feature_name(i) for i in range(d.n_features)] + ["label"]) + "\n")
        for row, label in zip(d.X, d.y.tolist()):
            fh.write(",".join(map(repr, row.tolist())) + f",{label}\n")
    truth = {
        "schema_version": 1,
        "command": "synth",
        "informative_indices": sorted(int(i) for i in informative),
        "config": {
            "n_samples": spec.n_samples,
            "n_features": spec.n_features,
            "n_informative": spec.n_informative,
            "class_separation": spec.class_separation,
            "noise_sd": spec.noise_sd,
            "seed": spec.seed,
        },
    }
    truth_path.write_text(_dump_json(truth), encoding="utf-8")
    print(f"wrote {data_path} and {truth_path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    dispatch = {
        "rank": _cmd_rank,
        "evaluate": _cmd_evaluate,
        "stability": _cmd_stability,
        "synth": _cmd_synth,
    }
    try:
        return dispatch[args.command](args)
    except PowerIterationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except WorkerError as e:
        # a --workers process died, for example killed when memory ran out
        print(f"error: worker process failed: {e}", file=sys.stderr)
        return 1
    except (DatasetError, FileNotFoundError, ValueError, OSError) as e:
        # evaluation's SplitError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1
