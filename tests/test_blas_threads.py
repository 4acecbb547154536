"""No report and no eigenpair depends on the BLAS thread count, and importing
ecfs loads OpenBLAS with one thread only when it is the first to import numpy
and the caller set no thread variable.

OpenBLAS fixes its thread count when numpy loads it, so every check runs fresh
interpreters; a thread variable is set only in the child's environment.
OpenBLAS threads a dot product from n = 10001 on, hence that size below.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecfs

SRC = str(Path(ecfs.__file__).parents[1])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# the thread count of numpy's OpenBLAS, or None where the symbol is missing
# (another BLAS build, or another OpenBLAS prefix)
THREAD_COUNT = """
def blas_threads():
    import ctypes
    import numpy._core._multiarray_umath as umath
    try:
        get = getattr(ctypes.CDLL(umath.__file__), "scipy_openblas_get_num_threads64_")
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()
"""


def _env(**settings) -> dict:
    """os.environ with no thread variable and no ECFS_SEED, this ecfs first on
    PYTHONPATH, and settings added."""
    env = {k: v for k, v in os.environ.items() if k not in (*THREAD_VARS, "ECFS_SEED")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env.update(settings)
    return env


def _python(code: str, **settings):
    """The JSON value printed on the last line of code run in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=_env(**settings))
    return json.loads(out.stdout.strip().splitlines()[-1])


def _ecfs(*args, **settings) -> None:
    subprocess.run([sys.executable, "-m", "ecfs", *args], capture_output=True, check=True,
                   env=_env(**settings))


def test_rank_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    prefix = tmp_path / "wide"
    _ecfs("synth", "--samples", "40", "--features", "10001", "--informative", "20",
          "--seed", "0", "--output", str(prefix))
    reports = {}
    for threads in ("1", "2", None):
        out = tmp_path / f"rank-{threads}.json"
        settings = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
        _ecfs("rank", "--data", str(prefix.with_suffix(".csv")), "--output", str(out),
              **settings)
        reports[threads] = out.read_bytes()
    assert reports["1"] == reports["2"] == reports[None]


# numpy is imported before ecfs, so the caller's thread count holds
EIGENPAIR = """
import hashlib, json
import numpy as np
import ecfs
rng = np.random.default_rng({seed})
n = {n}
adj = ecfs.AdjacencyMatrix(rng.random(n), rng.random(n), 0.2 * rng.random(n), 0.5)
try:
    r = ecfs.power_iteration(adj, max_iter={max_iter})
except ecfs.PowerIterationError as e:
    print(json.dumps(["no convergence", e.iterations, e.residual]))
else:
    print(json.dumps([hashlib.sha256(r.v0.tobytes()).hexdigest(), r.lambda0.hex(),
                      r.residual.hex(), r.iterations]))
"""


def test_eigenpair_bits_do_not_depend_on_blas_threads():
    code = EIGENPAIR.format(seed=3, n=10001, max_iter=10000)
    one, two = (_python(code, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one[0] != "no convergence"
    assert one == two


def test_million_feature_solve_converges_under_one_thread():
    # random scores at n = 1e6, lambda0 near 1.9e5: one-thread BLAS dot products
    # left a residual floor of 2e-10 here, above tol, so the solve never ended
    code = EIGENPAIR.format(seed=0, n=1_000_000, max_iter=100)
    one, two = (_python(code, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one[0] != "no convergence", one
    assert one == two


TRAINER = """
import hashlib, json
import numpy as np
import ecfs
d, _ = ecfs.generate_synthetic(ecfs.SyntheticSpec(400, 200, 10, 1.0, 1.0, seed=4))
jobs = [(np.arange(200), C, seed) for seed, C in enumerate((0.1, 1.0, 10.0))]
(models,) = ecfs.train_linear_classifiers([(d, jobs)])
h = hashlib.sha256()
for model in models:
    for part in (model.w, np.float64(model.b), model.decision(d.X)):
        h.update(part.tobytes())
print(json.dumps(h.hexdigest()))
"""


def test_trainer_bits_do_not_depend_on_blas_threads():
    # the trainer's Grams, designs and decisions stay BLAS calls; at T x k = 400 x 200
    # they run threaded under two threads, and must still round alike
    one, two = (_python(TRAINER, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one == two


IMPORT_ECFS = THREAD_COUNT + """
import json, os, subprocess, sys
{before}
environ = dict(os.environ)
import ecfs
show = "import json, os; print(json.dumps(dict(os.environ)))"
child = subprocess.run([sys.executable, "-c", show], capture_output=True, text=True,
                       check=True).stdout
print(json.dumps([environ == dict(os.environ) == json.loads(child), blas_threads()]))
"""

PLAIN_NUMPY = THREAD_COUNT + """
import json
import numpy
print(json.dumps(blas_threads()))
"""


@pytest.mark.parametrize("settings", [
    {},
    {"OPENBLAS_NUM_THREADS": "3"},
    {"OMP_NUM_THREADS": "3"},
    {"GOTO_NUM_THREADS": "3"},
])
def test_import_pins_one_thread_only_when_no_variable_is_set(settings):
    unchanged, threads = _python(IMPORT_ECFS.format(before=""), **settings)
    # os.environ and a subprocess's environment are as the caller left them
    assert unchanged
    if threads is None:
        return
    if settings:
        assert threads == _python(PLAIN_NUMPY, **settings)
    else:
        assert threads == 1


def test_import_after_numpy_leaves_its_threads_alone():
    unchanged, threads = _python(IMPORT_ECFS.format(before="import numpy"))
    assert unchanged
    if threads is not None:
        assert threads == _python(PLAIN_NUMPY)
