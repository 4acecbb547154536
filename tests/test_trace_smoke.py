"""Smoke test of the benchmark's trace mode.

perfbench/tracer.py wraps the layer modules' functions by name, so moving a
function between modules can break `perfbench/run.py --trace 1`. This runs the
tracer as the benchmark does, on a small data set, and only reads perfbench/.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ecfs.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("trace") / "synth"
    assert main(["synth", "--samples", "24", "--features", "30", "--informative", "3",
                 "--seed", "0", "--output", str(prefix)]) == 0
    return prefix.with_suffix(".csv")


@pytest.mark.parametrize("args", [
    ("evaluate", "--alpha", "cv", "--repeats", "2", "--epochs", "4", "--alpha-grid", "0,1",
     "--c-grid", "1", "--cardinalities", "3"),
    ("stability", "--workers", "2", "--repeats", "3", "--cardinalities", "3"),
], ids=["evaluate-cv", "stability-workers"])
def test_trace_covers_the_command_with_one_root_span(tmp_path, data, args):
    spans_path = tmp_path / "spans.json"
    pythonpath = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), "--", *args, "--data", str(data),
         "--seed", "1", "--output", str(tmp_path / "report.json")],
        env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_path.read_text())
    assert trace["rc"] == 0
    spans = trace["spans"]
    roots = [span for span in spans if span[3] is None]
    assert [span[0] for span in roots] == ["cli.main"]
    _, start, end, _, _ = roots[0]
    assert sum(_tracer_module().self_times(spans)) == pytest.approx(end - start, rel=1e-9)
