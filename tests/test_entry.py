"""The program entry and the lazy package: each command imports only the modules
it runs, `python -m ecfs` writes what an in-process `main()` writes, and the
package's public names resolve on first use to the objects their modules hold,
each of them one that some command runs.

Which modules a process loads is only visible in a fresh interpreter, so those
checks run `python -m ecfs` (through runpy, as `-m` does) in a subprocess.
"""

import gc
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecfs
from ecfs.cli import main

SRC = str(Path(ecfs.__file__).parents[1])

# runs `python -m ecfs ARGS...` as -m does, then prints the loaded modules and
# the gc freeze count as JSON
RUN_MODULE = """
import gc, json, runpy, sys
sys.argv = ["ecfs", *sys.argv[1:]]
try:
    runpy.run_module("ecfs", run_name="__main__", alter_sys=True)
except SystemExit as e:
    assert e.code == 0, e.code
print(json.dumps({"modules": sorted(sys.modules), "frozen": gc.get_freeze_count()}))
"""

POOL_MODULES = ("concurrent.futures", "multiprocessing")


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def _fresh(code: str, *args) -> dict:
    """The JSON printed on the last line of code run in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                         text=True, check=True, env=_env())
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("entry") / "synth"
    assert main(["synth", "--samples", "30", "--features", "16", "--informative", "3",
                 "--seed", "4", "--output", str(prefix)]) == 0
    return prefix.with_suffix(".csv")


class TestImportFootprint:
    def test_fixed_alpha_rank_loads_no_evaluation_and_no_pool(self, tmp_path, data):
        run = _fresh(RUN_MODULE, "rank", "--alpha", "0.5", "--data", data,
                     "--output", tmp_path / "r.json")
        loaded = set(run["modules"])
        assert loaded.isdisjoint({"ecfs.evaluation", *POOL_MODULES, "numpy.random"})
        assert {"ecfs.cli", "ecfs.centrality"} <= loaded
        # the entry froze the imported heap
        assert run["frozen"] > 0

    def test_serial_evaluate_loads_no_pool_and_no_numpy_ma(self, tmp_path, data):
        run = _fresh(RUN_MODULE, "evaluate", "--workers", "1", "--repeats", "2",
                     "--cardinalities", "3", "--epochs", "4", "--data", data,
                     "--output", tmp_path / "e.json")
        loaded = set(run["modules"])
        assert loaded.isdisjoint({*POOL_MODULES, "numpy.ma"})
        assert "ecfs.evaluation" in loaded

    def test_forked_stability_loads_no_pool(self, tmp_path, data):
        run = _fresh(RUN_MODULE, "stability", "--workers", "2", "--repeats", "4",
                     "--cardinalities", "3", "--data", data, "--output", tmp_path / "s.json")
        assert set(run["modules"]).isdisjoint(POOL_MODULES)

    def test_load_dataset_loads_data_alone(self, data):
        code = ("import json, sys, ecfs\n"
                "ecfs.load_dataset(sys.argv[1])\n"
                "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ecfs'))))\n")
        assert _fresh(code, data) == ["ecfs", "ecfs.data"]


# the modules that define the public names with no __module__ of their own
CONSTANTS = {
    "DEFAULT_ALPHA_GRID": "ecfs.protocol",
    "DEFAULT_C_GRID": "ecfs.protocol",
    "DEFAULT_CARDINALITIES": "ecfs.protocol",
    "METHODS": "ecfs.centrality",
}


class TestLazyPackage:
    @pytest.mark.parametrize("name", ecfs.__all__)
    def test_name_is_its_defining_modules_object(self, name):
        obj = getattr(ecfs, name)
        module = CONSTANTS.get(name) or obj.__module__
        assert module.startswith("ecfs.")
        assert vars(sys.modules[module])[name] is obj

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from ecfs import *", namespace)
        assert all(namespace[name] is getattr(ecfs, name) for name in ecfs.__all__)

    def test_dir_lists_every_name(self):
        assert set(ecfs.__all__) <= set(dir(ecfs))
        assert "__version__" in dir(ecfs)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'ecfs' has no attribute 'rank'"):
            getattr(ecfs, "rank")
        assert not hasattr(ecfs, "evaluate")


class TestEntry:
    def test_in_process_main_freezes_nothing(self, tmp_path, data):
        assert gc.get_freeze_count() == 0
        assert main(["rank", "--data", str(data), "--output", str(tmp_path / "r.json")]) == 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("argv", [
        ("rank", "--alpha", "0.5"),
        ("evaluate", "--workers", "1"),
        ("evaluate", "--workers", "2"),
        ("stability", "--workers", "1"),
        ("stability", "--workers", "2"),
    ], ids=lambda a: "-".join(x.lstrip("-") for x in a))
    def test_module_entry_writes_the_bytes_of_main(self, tmp_path, data, argv):
        if argv[0] != "rank":
            argv += ("--repeats", "3", "--cardinalities", "3,5", "--epochs", "4")
        argv += ("--data", str(data), "--seed", "2")
        assert main([*argv, "--output", str(tmp_path / "main.json")]) == 0
        subprocess.run([sys.executable, "-m", "ecfs", *argv,
                        "--output", str(tmp_path / "entry.json")],
                       capture_output=True, check=True, env=_env())
        assert (tmp_path / "entry.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def _public_code() -> dict:
    """The code object of each exported function, and of each public method
    or property of an exported class, by its public name."""
    out = {}
    for name in ecfs.__all__:
        obj = getattr(ecfs, name)
        if inspect.isfunction(obj):
            out[name] = obj.__code__
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = member.fget if isinstance(member, property) else member
                if not attr.startswith("_") and inspect.isfunction(fn):
                    out[f"{name}.{attr}"] = fn.__code__
    return out


class TestPublicNames:
    def test_every_public_function_is_one_a_command_runs(self, tmp_path):
        # the library keeps one implementation of each step, the one the
        # commands run; a public name only tests call is a second copy
        data = tmp_path / "synth"
        common = ["--data", str(data.with_suffix(".csv")), "--seed", "2"]
        runs = [
            ["synth", "--samples", "30", "--features", "16", "--informative", "3", "--seed", "4",
             "--output", str(data)],
            ["rank", *common, "--dump-adjacency", str(tmp_path / "adjacency.txt"),
             "--output", str(tmp_path / "rank.json")],
            ["rank", *common, "--alpha", "cv", "--cv-cardinality", "5",
             "--output", str(tmp_path / "rank-cv.json")],
            ["evaluate", *common, "--alpha", "cv", "--cv-cardinality", "5", "--workers", "1",
             "--repeats", "2", "--cardinalities", "3,5", "--epochs", "4",
             "--output", str(tmp_path / "evaluate.json")],
            ["stability", *common, "--workers", "1", "--repeats", "2", "--cardinalities", "3,5",
             "--output", str(tmp_path / "stability.json")],
        ]
        public = _public_code()
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code)

        sys.setprofile(profile)
        try:
            codes = [main(argv) for argv in runs]
        finally:
            sys.setprofile(None)
        assert codes == [0] * len(runs)
        assert [name for name, code in public.items() if code not in called] == []
