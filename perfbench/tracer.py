"""Call-site tracer for the ecfs layers.

    python3 perfbench/tracer.py SPANS_JSON -- ECFS_ARGS...

runs `ecfs.cli.main(ECFS_ARGS)` in this process with every public function
of the six layer modules wrapped, and writes the recorded spans and exact
counters to SPANS_JSON once the command has returned. The exit code is the
command's own.

The layer modules bind each other's names at import (`from .graph import
fisher_scores`), so a function is patched in every ecfs module that holds it,
not only where it is defined, and every binding is restored afterwards.

Counters are read from arguments and return values only, never from clocks,
so two traced runs of the same command give identical counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter

LAYERS = ("data", "graph", "centrality", "baselines", "evaluation", "cli")

# cli's helpers are private; its self time is argument parsing, report
# assembly and the write, all under main
_CLI_FUNCTIONS = ("main",)


def _matrix_order(A) -> int:
    M = getattr(A, "A", A)
    return int(M.shape[0])


def _count_power_iteration(counts, bound, result) -> None:
    n = _matrix_order(bound.arguments["A"])
    counts["centrality.power_iteration.sweeps"] += result.iterations
    counts["centrality.power_iteration.bytes_computed"] += result.iterations * 8 * n * n


def _count_build_adjacency(counts, bound, result) -> None:
    n = len(bound.arguments["f"])
    counts["graph.build_adjacency.bytes_computed"] += 8 * n * n


def _count_sgd(counts, bound, result) -> None:
    train = bound.arguments["train"]
    counts["evaluation.train_linear_classifier.sgd_steps"] += (
        bound.arguments["epochs"] * train.n_samples
    )


# span name -> counter fed from the bound arguments and the return value
_EXTRA_COUNTERS = {
    "centrality.power_iteration": _count_power_iteration,
    "graph.build_adjacency": _count_build_adjacency,
    "evaluation.train_linear_classifier": _count_sgd,
}


class Tracer:
    """Spans and counters of one traced command, held in memory.

    A span is (name, start, end, parent, thread); parent is the index of the
    enclosing span. A span opened by a worker thread with nothing open in
    that thread takes as parent the span open in the thread that started the
    trace, which is the one waiting on the worker pool.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_ident = threading.get_ident()
        self._root_stack = self._stack()
        self._threads: dict[int, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        if threading.get_ident() == self._root_ident:
            return None
        try:
            return self._root_stack[-1]
        except IndexError:
            return None

    def wrap(self, name: str, fn):
        counter = _EXTRA_COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        calls_key = f"{name}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            ident = threading.get_ident()
            with self._lock:
                sid = len(self.spans)
                thread = self._threads.setdefault(ident, len(self._threads))
                self.spans.append([name, time.perf_counter(), None, parent, thread])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[sid][2] = time.perf_counter()
                stack.pop()
            with self._lock:
                self.counts[calls_key] += 1
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(self.counts, bound, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions at every binding site."""
        modules = {layer: importlib.import_module(f"ecfs.{layer}") for layer in LAYERS}
        holders = list(modules.values()) + [importlib.import_module("ecfs")]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not _is_layer_function(layer, mod, attr, obj):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for holder in holders:
                    for bound_name, value in list(vars(holder).items()):
                        if value is obj:
                            self._patched.append((holder, bound_name, obj))
                            setattr(holder, bound_name, wrapper)

    def uninstall(self) -> None:
        for holder, bound_name, original in reversed(self._patched):
            setattr(holder, bound_name, original)
        self._patched.clear()


def _is_layer_function(layer: str, mod, attr: str, obj) -> bool:
    if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
        return False
    if layer == "cli":
        return attr in _CLI_FUNCTIONS
    return not attr.startswith("_")


def self_times(spans) -> list[float]:
    """Self time of each span, in seconds of wall time.

    At each instant the elapsed time goes to the open spans that have no
    open child. When worker threads keep several such spans open at once,
    they share the instant equally, so the self times of all spans add up to
    the wall time the spans cover.
    """
    n = len(spans)
    depth = [0] * n
    for i, (_, _, _, parent, _) in enumerate(spans):
        # parents are opened, and so numbered, before their children
        depth[i] = 0 if parent is None else depth[parent] + 1
    events = []
    for i, (_, start, end, _, _) in enumerate(spans):
        events.append((start, 0, depth[i], i))
        events.append((end, 1, -depth[i], i))
    events.sort()
    open_children = [0] * n
    leaves: set[int] = set()
    out = [0.0] * n
    prev = None
    for t, kind, _, i in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for j in leaves:
                out[j] += share
        prev = t
        parent = spans[i][3]
        if kind == 0:
            leaves.add(i)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            leaves.discard(i)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    out_path, ecfs_argv = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        import ecfs.cli

        rc = ecfs.cli.main(ecfs_argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
