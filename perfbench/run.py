"""Benchmark of the ecfs command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The runner writes a synthetic data
set drawn from --seed, then runs the workload's `ecfs` command (as
`python3 -m ecfs` against the checkout's `src/`) in a closed loop, one
command at a time, for --seconds seconds. Every command's report is checked.

--trace 0 measures with tracing off and reports the end-to-end metrics:
wall time, CPU time and peak RSS of the command's process, the set-up time
(a fresh interpreter importing ecfs and loading the data file) and the share
of commands that succeeded. --trace 1 alternates untraced commands with
traced ones (perfbench/tracer.py) and reports per-layer self times and exact
counts.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record, with the environment, every
sample and the spans of the last traced run, goes to
.perfbench_work/results/. BLAS threading is left at its default on purpose:
idle-thread spin is CPU time a user pays.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS, self_times

N_INFORMATIVE = 20
SETUP_REPS = 5
MIN_COMMANDS = 3
MIN_TRACE_PAIRS = 2
# a hung command is killed so that the whole run ends within its time limit
COMMAND_TIMEOUT_S = 60.0
WORK_DIR = ".perfbench_work"
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("success_rate", "ratio"),
)

PER_LAYER = (
    ("data.self_s", "s"),
    ("data.load_dataset.self_s", "s"),
    ("data.fit_normalization.calls", "count"),
    ("data.fit_normalization.self_s", "s"),
    ("data.normalize_features.calls", "count"),
    ("data.normalize_features.self_s", "s"),
    ("graph.self_s", "s"),
    ("graph.fisher_scores.self_s", "s"),
    ("graph.mutual_information_scores.calls", "count"),
    ("graph.mutual_information_scores.self_s", "s"),
    ("graph.sigma_matrix.self_s", "s"),
    ("graph.build_adjacency.self_s", "s"),
    ("graph.build_adjacency.bytes_computed", "bytes"),
    ("centrality.self_s", "s"),
    ("centrality.ecfs_run.calls", "count"),
    ("centrality.power_iteration.calls", "count"),
    ("centrality.power_iteration.self_s", "s"),
    ("centrality.power_iteration.sweeps", "count"),
    ("centrality.power_iteration.bytes_computed", "bytes"),
    ("centrality.rank_features.self_s", "s"),
    ("baselines.self_s", "s"),
    ("baselines.rank_by_fisher.calls", "count"),
    ("baselines.rank_by_mi.calls", "count"),
    ("evaluation.self_s", "s"),
    ("evaluation.train_linear_classifier.calls", "count"),
    ("evaluation.train_linear_classifier.self_s", "s"),
    ("evaluation.train_linear_classifier.sgd_steps", "count"),
    ("evaluation.roc_auc.self_s", "s"),
    ("evaluation.cross_validate.calls", "count"),
    ("evaluation.cross_validate.self_s", "s"),
    ("evaluation.stability_curve.self_s", "s"),
    ("evaluation.kuncheva_index.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.cli_main_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def _in_range(value, lo: float, hi: float) -> bool:
    return isinstance(value, (int, float)) and lo <= value <= hi


def check_rank(report: dict, informative: set[int]) -> list[str]:
    problems = []
    meta, config = report["metadata"], report["config"]
    if not meta["residual"] <= config["tol"]:
        problems.append(f"residual {meta['residual']} above tol {config['tol']}")
    top = {row["index"] for row in report["ranking"][:N_INFORMATIVE]}
    hits = len(top & informative)
    if hits < math.ceil(0.9 * len(informative)):
        problems.append(f"only {hits}/{len(informative)} informative features in the top {N_INFORMATIVE}")
    return problems


def check_scores(report: dict, informative: set[int]) -> list[str]:
    """Every AUC in [0, 1] and every Kuncheva index in [-1, 1]."""
    problems = []
    for method, block in report.get("auc", {}).items():
        values = [block["average"]]
        for cell in block["per_cardinality"].values():
            values += [cell["mean"], *cell["samples"]]
        bad = [v for v in values if not _in_range(v, 0.0, 1.0)]
        if bad:
            problems.append(f"{method}: AUC out of [0, 1]: {bad[:3]}")
    for method, rows in report.get("stability", {}).items():
        bad = [r["kuncheva"] for r in rows if not _in_range(r["kuncheva"], -1.0, 1.0)]
        if bad:
            problems.append(f"{method}: Kuncheva index out of [-1, 1]: {bad[:3]}")
    if report["command"] == "evaluate" and not report.get("auc"):
        problems.append("evaluate report has no AUC block")
    if report["command"] == "stability" and not report.get("stability"):
        problems.append("stability report has no stability block")
    return problems


@dataclass(frozen=True)
class Workload:
    """One CLI command at one data shape.

    reference_args, when set, is a second form of the command that must
    write the same report bytes; it runs once, outside the timed loop.
    """

    samples: int
    features: int
    args: tuple[str, ...]
    check: Callable[[dict, set[int]], list[str]]
    reference_args: tuple[str, ...] | None = None


WORKLOADS = {
    # the dense n^2 path (sigma, blend, power iteration) and the CSV load
    "rank-wide": Workload(100, 10000, ("rank", "--alpha", "0.5"), check_rank),
    # the plain single-threaded harness: MI twice per repeat and SGD
    "evaluate-colon": Workload(
        62, 2000,
        ("evaluate", "--alpha", "0.5", "--workers", "1", "--repeats", "8"),
        check_scores,
    ),
    # 55 pipeline reruns and 220 extra SGD fits inside one cross-validation
    "evaluate-cv": Workload(
        62, 2000, ("evaluate", "--alpha", "cv", "--repeats", "1"), check_scores,
    ),
    # no SGD; MI, Kuncheva and the repeat thread pool
    "stability-colon": Workload(
        62, 2000,
        ("stability", "--alpha", "0.5", "--workers", "2", "--repeats", "20"),
        check_scores,
        reference_args=("stability", "--alpha", "0.5", "--workers", "1", "--repeats", "20"),
    ),
}


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    rc: int


def run_child(argv: list[str], env: dict, stderr_path: Path) -> Sample:
    """Run argv to completion; wall time from start to exit, rusage of the child."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        rc=proc.returncode,
    )


SETUP_PROBE = "import sys, ecfs; ecfs.load_dataset(sys.argv[1])"

ENV_PROBE = """
import json, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception:
    blas = "unknown"
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}))
"""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(python: str, env: dict, seed: int) -> dict:
    probe = subprocess.run([python, "-c", ENV_PROBE], env=env, capture_output=True,
                           text=True, timeout=COMMAND_TIMEOUT_S, check=True)
    record = json.loads(probe.stdout)
    record.update({
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV_VARS if k in os.environ},
        "seed": seed,
    })
    return record


class Run:
    """One benchmark run: its inputs, its checks and what it measured."""

    def __init__(self, root: Path, name: str, seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.python = sys.executable
        self.env = dict(os.environ)
        # the checkout's own sources come first, ahead of any installed ecfs
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), self.env.get("PYTHONPATH")) if p
        )
        self.data = work / "data.csv"
        self.informative: set[int] = set()
        self.expected: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._n_out = 0

    def ecfs_argv(self, args, output: Path) -> list[str]:
        """Arguments of the ecfs CLI for one command on this run's data."""
        return [*args, "--data", str(self.data), "--seed", str(self.seed), "--output", str(output)]

    def make_inputs(self) -> None:
        w = self.workload
        prefix = self.work / "data"
        argv = [self.python, "-m", "ecfs", "synth", "--samples", str(w.samples),
                "--features", str(w.features), "--informative", str(N_INFORMATIVE),
                "--seed", str(self.seed), "--output", str(prefix)]
        sample = run_child(argv, self.env, self.work / "synth.err")
        if sample.rc != 0:
            raise RuntimeError(f"ecfs synth exited {sample.rc}: {self._stderr('synth.err')}")
        truth = json.loads((self.work / "data.informative.json").read_text(encoding="utf-8"))
        self.informative = set(truth["informative_indices"])

    def _stderr(self, name: str) -> str:
        return (self.work / name).read_text(encoding="utf-8", errors="replace").strip()[-500:]

    def _next_output(self) -> Path:
        self._n_out += 1
        return self.work / f"out{self._n_out}.json"

    def judge(self, sample_rc: int, output: Path, err_name: str) -> None:
        """Count one command invocation and check its report."""
        self.attempted += 1
        problems = []
        if sample_rc != 0:
            problems.append(f"exit code {sample_rc}: {self._stderr(err_name)}")
        else:
            try:
                body = output.read_bytes()
                problems += self.workload.check(json.loads(body), self.informative)
            except (OSError, ValueError, KeyError, TypeError) as e:
                problems.append(f"unreadable report: {e!r}")
            else:
                if self.expected is None:
                    self.expected = body
                elif body != self.expected:
                    problems.append("report bytes differ from the first report of the run")
        output.unlink(missing_ok=True)
        if problems:
            self.failed += 1
            self.problems += problems

    def reference(self) -> None:
        """The command's equivalent form, run once; its bytes become the expectation."""
        args = self.workload.reference_args
        if args is None:
            return
        out = self._next_output()
        argv = [self.python, "-m", "ecfs", *self.ecfs_argv(args, out)]
        sample = run_child(argv, self.env, self.work / "ref.err")
        self.judge(sample.rc, out, "ref.err")

    def command(self) -> Sample:
        out = self._next_output()
        argv = [self.python, "-m", "ecfs", *self.ecfs_argv(self.workload.args, out)]
        sample = run_child(argv, self.env, self.work / "cmd.err")
        self.judge(sample.rc, out, "cmd.err")
        return sample

    def traced(self) -> tuple[Sample, dict]:
        out = self._next_output()
        spans_path = self.work / "spans.json"
        tracer = str(Path(__file__).with_name("tracer.py"))
        argv = [self.python, tracer, str(spans_path), "--",
                *self.ecfs_argv(self.workload.args, out)]
        sample = run_child(argv, self.env, self.work / "trace.err")
        self.judge(sample.rc, out, "trace.err")
        trace = json.loads(spans_path.read_text(encoding="utf-8")) if sample.rc == 0 else None
        return sample, trace

    def setup_times(self) -> list[float]:
        argv = [self.python, "-c", SETUP_PROBE, str(self.data)]
        times = []
        for _ in range(SETUP_REPS):
            sample = run_child(argv, self.env, self.work / "setup.err")
            if sample.rc != 0:
                raise RuntimeError(f"set-up probe exited {sample.rc}: {self._stderr('setup.err')}")
            times.append(sample.wall_s)
        return times


def layer_metrics(trace: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced command, and any broken invariant."""
    spans, counts = trace["spans"], trace["counts"]
    selfs = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        by_name[span[0]] += own
        by_name[span[0].split(".", 1)[0]] += own
    roots = [s for s in spans if s[3] is None]
    problems = []
    if [s[0] for s in roots] != ["cli.main"]:
        problems.append(f"expected one root span cli.main, got {[s[0] for s in roots]}")
    root_s = sum(s[2] - s[1] for s in roots)
    layer_sum = sum(by_name[layer] for layer in LAYERS)
    if abs(layer_sum - root_s) > 1e-6 * root_s + 1e-9:
        problems.append(f"layer self times add to {layer_sum}, cli.main span is {root_s}")
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.cli_main_s":
            out[name] = root_s
        elif name == "trace.spans":
            out[name] = len(spans)
        elif name == "trace.overhead_s":
            continue
        elif name.endswith(".self_s"):
            out[name] = by_name[name[: -len(".self_s")]]
        else:
            out[name] = counts.get(name, 0)
    return out, problems


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    run.reference()
    setup = run.setup_times()
    samples: list[Sample] = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(samples) < MIN_COMMANDS:
        samples.append(run.command())
    ok = [s for s in samples if s.rc == 0] or samples
    metrics = {
        "wall_s": statistics.median(s.wall_s for s in ok),
        "cpu_s": statistics.median(s.cpu_s for s in ok),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in ok),
        "setup_s": statistics.median(setup),
        "success_rate": (run.attempted - run.failed) / run.attempted,
    }
    counts = {"wall_s": len(ok), "cpu_s": len(ok), "peak_rss_mb": len(ok),
              "setup_s": len(setup), "success_rate": run.attempted}
    detail = {"commands": [s.__dict__ for s in samples], "setup_s": setup}
    return {"values": metrics, "n": counts}, detail


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    run.reference()
    pairs: list[tuple[Sample, Sample]] = []
    per_trace: list[dict] = []
    last_trace = None
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(pairs) < MIN_TRACE_PAIRS:
        plain = run.command()
        sample, trace = run.traced()
        pairs.append((plain, sample))
        if trace is None:
            continue
        values, problems = layer_metrics(trace)
        run.problems += problems
        per_trace.append(values)
        last_trace = trace
    if len(per_trace) < MIN_TRACE_PAIRS:
        run.problems.append(f"only {len(per_trace)} traced runs completed")
    metrics: dict[str, float] = {}
    for name, unit in PER_LAYER:
        column = [t[name] for t in per_trace if name in t]
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(t.wall_s - p.wall_s for p, t in pairs)
        elif not column:
            metrics[name] = 0.0
        elif unit == "s":
            metrics[name] = statistics.median(column)
        else:
            # counts come from arguments and return values, so they must repeat
            if len(set(column)) != 1:
                run.problems.append(f"{name} differs between traced runs: {column}")
            metrics[name] = column[0]
    counts = {name: len(per_trace) for name, _ in PER_LAYER}
    counts["trace.overhead_s"] = len(pairs)
    detail = {"pairs": [[p.__dict__, t.__dict__] for p, t in pairs], "traces": per_trace,
              "last_spans": last_trace}
    return {"values": metrics, "n": counts}, detail


def print_table(result: dict, units: dict[str, str]) -> None:
    print(f"{'metric':44s} {'median':>16s} {'unit':6s} n")
    for name, value in result["values"].items():
        print(f"{name:44s} {value:16.6f} {units[name]:6s} {result['n'][name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "ecfs" / "cli.py").is_file():
        print("error: run from the root of an ecfs checkout (src/ecfs not found)", file=sys.stderr)
        return 1
    results_dir = root / WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work = root / WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(root, args.workload, args.seed, work)
        env_record = environment(run.python, run.env, args.seed)
        run.make_inputs()
        if args.trace:
            result, detail = measure_traced(run, args.seconds)
            units = dict(PER_LAYER)
        else:
            result, detail = measure(run, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"command: ecfs {' '.join(run.workload.args)}  "
          f"({run.workload.samples}x{run.workload.features}, closed loop, 1 client)")
    print_table(result, units)
    print(f"error_rate {run.failed / run.attempted:.6f} ({run.failed} failed of {run.attempted} "
          "command invocations); medians only: no percentile has ten samples beyond it")
    for problem in run.problems[:20]:
        print(f"check failed: {problem}")
    print("env " + json.dumps(env_record, sort_keys=True))

    correct = run.failed == 0 and not run.problems
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "command": list(run.workload.args), "env": env_record,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "metrics": result, "detail": detail,
    }
    out_file = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    metrics = {name: {"value": result["values"][name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
