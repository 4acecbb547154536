"""Release gate: one test per shipped guarantee, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The microarray benchmark needs a local data drop (see README) and reports
SKIPPED when the files are absent; it never silently passes.
"""

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ecfs import (
    AdjacencyMatrix,
    Protocol,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    power_iteration,
    roc_auc,
    run_evaluation,
    score_features,
)
from ecfs.evaluation import _kuncheva_curve
from oracles import matrix_power_oracle, ranking_of_order


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _random_graph(rng, n: int) -> AdjacencyMatrix:
    """A feature graph of n random Fisher, MI and spread values at a random alpha."""
    f, m, s = rng.random((3, n))
    return AdjacencyMatrix(f, m, s, rng.random())


def test_acceptance_1_eigensolver_agreement():
    t0 = time.perf_counter()
    ok = True
    for i in range(100):
        n = 2 + (i % 49)
        rng = np.random.default_rng(1000 + i)
        A = _random_graph(rng, n)
        fast = power_iteration(A)
        slow = matrix_power_oracle(A)
        vdiff = float(np.max(np.abs(fast.v0 - slow.v0)))
        ldiff = abs(fast.lambda0 - slow.lambda0) / abs(slow.lambda0)
        if vdiff > 1e-8 or ldiff > 1e-8:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _verdict(1, "eigensolver-agreement", ok and elapsed < 5.0)


def test_acceptance_2_path_count_convergence():
    checked = 0
    ok = True
    for i in range(12):
        rng = np.random.default_rng(3000 + i)
        n = 5 + 4 * i
        graph = _random_graph(rng, n)
        A = np.array(list(graph.rows()))
        mags = np.sort(np.abs(np.linalg.eigvals(A)))
        if mags[-1] - mags[-2] < 1e-3:
            continue
        checked += 1
        v0 = power_iteration(graph).v0
        B = A / A.max()
        l = 1
        converged = False
        while l <= 2 ** 16:
            x = B @ np.ones(n)
            cos = float(x @ v0) / float(np.linalg.norm(x))
            if cos >= 1.0 - 1e-6:
                converged = True
                break
            B = B @ B
            B /= B.max()
            l *= 2
        if not converged:
            ok = False
            break
    _verdict(2, "path-count-convergence", ok and checked >= 8)


def test_acceptance_3_synthetic_recovery():
    t0 = time.perf_counter()
    hits = []
    for seed in range(10):
        d, informative = generate_synthetic(
            SyntheticSpec(n_samples=200, n_features=500, n_informative=20,
                          class_separation=2.0, noise_sd=1.0, seed=seed)
        )
        top = set(score_features(d).ranking("ec_fs", 0.5).top(50).tolist())
        hits.append(len(top & informative))
    elapsed = time.perf_counter() - t0
    median_hits = statistics.median(hits)
    _verdict(3, "synthetic-recovery", median_hits >= 18 and elapsed < 60.0)


def _colon_paths():
    data = os.environ.get("ECFS_COLON_DATA")
    labels = os.environ.get("ECFS_COLON_LABELS")
    if data and labels:
        return Path(data), Path(labels)
    root = Path(__file__).resolve().parents[1]
    return root / "data" / "colon" / "matrix.txt", root / "data" / "colon" / "labels.txt"


def test_acceptance_4_microarray_benchmark():
    data_path, labels_path = _colon_paths()
    if not (data_path.exists() and labels_path.exists()):
        print("ACCEPTANCE 4 microarray-benchmark: SKIPPED (62x2000 benchmark files not present)")
        pytest.skip("microarray benchmark files not present")
    t0 = time.perf_counter()
    d = load_dataset(str(data_path), format="matrix", labels_path=str(labels_path))
    counts = sorted(np.bincount(d.y).tolist())
    assert (d.n_samples, d.n_features) == (62, 2000)
    assert counts == [22, 40]
    report = run_evaluation(
        d,
        Protocol(methods=("ec_fs",), cardinalities=(50,), alpha=0.5, fixed_c=1.0,
                 train_fraction=2 / 3, repeats=100, seed=0),
        workers=4,
    )
    elapsed = time.perf_counter() - t0
    mean_auc = report["auc"]["ec_fs"]["per_cardinality"]["50"]["mean"]
    _verdict(4, "microarray-benchmark",
             0.8640 <= mean_auc <= 0.9640 and elapsed < 600.0)


def _stability(rankings, k: int) -> list[tuple[int, float]]:
    """The stability curve at k of rankings, as the stability command takes it."""
    return _kuncheva_curve(np.stack([r.top(k) for r in rankings]), rankings[0].n_features, [k])


def test_acceptance_5_stability_index():
    # identical sets give 1, disjoint halves -1, and the chance overlap k^2/N 0
    same = ranking_of_order(np.arange(400))
    ok = _stability([same, same], 100) == [(100, 1.0)]
    first16 = ranking_of_order(np.arange(16))
    ok = ok and _stability([first16, ranking_of_order(np.arange(16)[::-1])], 8) == [(8, -1.0)]
    chance = ranking_of_order([3, 7, 8, 9] + [i for i in range(16) if i not in (3, 7, 8, 9)])
    ok = ok and _stability([first16, chance], 4) == [(4, 0.0)]
    rng = np.random.default_rng(42)
    N, k = 400, 100
    rankings = [ranking_of_order(rng.permutation(N)) for _ in range(50)]
    (_, chance), = _stability(rankings, k)
    _verdict(5, "stability-index", ok and abs(chance) <= 0.05)


def _auc_bruteforce(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (2 * wins + ties) / (2 * len(pos) * len(neg))


def test_acceptance_6_auc_oracle():
    ok = True
    for i in range(1000):
        rng = np.random.default_rng(2000 + i)
        T = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, T)
        labels[0] = 0
        labels[-1] = 1
        scores = rng.integers(0, 10, T) / 8.0  # lattice values force exact ties
        if roc_auc(scores, labels) != _auc_bruteforce(scores, labels):
            ok = False
            break
    _verdict(6, "auc-oracle", ok)


def _build_and_sweep(n: int):
    """A no-argument callable that times one adjacency build plus one eigensweep."""
    rng = np.random.default_rng(n)
    f = rng.random(n)
    m = rng.random(n)
    s = rng.random(n)
    v = np.full(n, 1.0 / math.sqrt(n))

    def once() -> float:
        t0 = time.perf_counter()
        A = AdjacencyMatrix(f, m, s, 0.5)
        w = A @ v
        w /= np.linalg.norm(w)
        return time.perf_counter() - t0

    return once


def test_acceptance_7_complexity_slope():
    # sizes start at 500 so fixed per-call costs do not flatten the low end;
    # rounds visit each size in turn, so a burst of machine load lands on all
    # sizes alike, and the median of each size discards the bursts
    sizes = (500, 1000, 2000, 4000)
    timers = [_build_and_sweep(n) for n in sizes]
    for once in timers:
        once()  # warm allocator and caches before measuring
    times: list[list[float]] = [[] for _ in sizes]
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for _ in range(11):
            for samples, once in zip(times, timers):
                samples.append(once())
    finally:
        if gc_was_on:
            gc.enable()
    medians = [statistics.median(t) for t in times]
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    print(f"  measured slope: {slope:.3f} over n={sizes}")
    _verdict(7, "complexity-slope", slope <= 2.3)


def test_acceptance_8_cli_determinism(tmp_path):
    env = dict(os.environ)
    env.pop("ECFS_SEED", None)

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "ecfs", *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc

    prefix = tmp_path / "bench"
    run(["synth", "--samples", "36", "--features", "10", "--informative", "3",
         "--seed", "0", "--output", str(prefix)])
    data = prefix.with_suffix(".csv")
    outs = [tmp_path / f"r{i}.json" for i in range(3)]
    base = ["evaluate", "--data", str(data), "--cardinalities", "3,5",
            "--repeats", "5", "--epochs", "6", "--seed", "0"]
    run(base + ["--output", str(outs[0])])
    run(base + ["--output", str(outs[1])])
    run(base + ["--output", str(outs[2]), "--workers", "4"])
    b0, b1, b2 = (p.read_bytes() for p in outs)
    ok = b0 == b1 == b2 and json.loads(b0)["schema_version"] == 1
    _verdict(8, "cli-determinism", ok)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the example reads matrix.txt and labels.txt; ecfs synth data alternates
    # its labels, which a row pattern such as every second row would split by class
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    code = text.split("### Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    d, _ = generate_synthetic(SyntheticSpec(40, 60, 5, 2.0, 1.0, seed=0))
    np.savetxt(tmp_path / "matrix.txt", d.X)
    np.savetxt(tmp_path / "labels.txt", d.y, fmt="%d")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["train"].rows.tolist() == namespace["train_rows"].tolist()
    assert len(namespace["ranking"].top(50)) == 50
