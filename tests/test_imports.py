"""Cold start: the lazy package and the modules each CLI command loads.

Each import set is read from a fresh interpreter, since this process has
long since imported everything.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ballast
import ballast.core
from ballast.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ballast.__file__)))

# run argv (or None: only import ballast.cli and build the parser), print the modules
COMMAND_SCRIPT = """
import contextlib, io, json, sys
import ballast.cli as cli
argv = json.loads(sys.argv[1])
if argv is None:
    cli.build_parser()
    rc = 0
else:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""

# scan --jobs 2, counting the worker processes its pool started and noting
# whether numpy.random was loaded before they forked
POOL_SCRIPT = """
import contextlib, io, json, sys
from concurrent.futures import ProcessPoolExecutor
import ballast.cli as cli
workers, preloaded = [], []
original_map = ProcessPoolExecutor.map
def counting_map(self, *args, **kwargs):
    preloaded.append("numpy.random" in sys.modules)
    results = original_map(self, *args, **kwargs)
    workers.append(len(self._processes))
    return results
ProcessPoolExecutor.map = counting_map
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "workers": workers, "preloaded": preloaded}))
"""

PARSER_ONLY = ("ballast.analysis", "ballast.harness", "concurrent.futures", "multiprocessing")
# only scan needs the harness; PolicySpec lives with the policies
RUN = ("ballast.analysis", "ballast.harness", "concurrent.futures")
REPORT = ("ballast.harness", "concurrent.futures")
# a scan builds its policies, advice's threshold too, with no analysis, and
# one job starts no pool
SCAN = ("ballast.analysis", "concurrent.futures")


def _fresh(script: str, argv) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BALLAST_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "greedy.csv"
    assert main(["run", "--policy", "greedy", "--n", "64", "--seed", "1",
                 "--trace-out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (None, "ballast.cli", PARSER_ONLY),
        (["run", "--policy", "greedy", "--n", "64"], "ballast.core", RUN),
        (["run", "--policy", "clustered", "--n", "64"], "ballast.core", RUN),
        (["run", "--policy", "one-choice", "--n", "64"], "ballast.core", RUN),
        (["run", "--policy", "advice", "--n", "64"], "ballast.core", RUN),
        (["run", "--policy", "greedy", "--n", "64", "--trace-out", "OUT"], "ballast.core", RUN),
        (["phases", "--policy", "greedy", "--n", "64", "--phases", "2", "--forbidden"],
         "ballast.analysis", REPORT),
        (["phases", "--n", "64", "--phases", "2", "--trace-in", "TRACE"], "ballast.analysis",
         REPORT),
        (["verify", "--policy", "clustered", "--n", "8"], "ballast.analysis", REPORT),
        (["verify", "--policy", "greedy", "--n", "16"], "ballast.analysis", REPORT),
        (["scan", "--policy", "advice", "--policy", "clustered", "--n", "64", "--trials", "1",
          "--out", "OUT"], "ballast.harness", SCAN),
    ],
    ids=["parser", "run-greedy", "run-clustered", "run-one-choice", "run-advice",
         "run-trace-out", "phases-forbidden", "phases-trace-in", "verify-clustered",
         "verify-greedy", "scan"],
)
def test_command_loads_only_what_it_runs(trace_path, tmp_path, argv, loaded, absent):
    if argv is not None:
        paths = {"TRACE": trace_path, "OUT": str(tmp_path / "out.csv")}
        argv = [paths.get(a, a) for a in argv]
    got = _fresh(COMMAND_SCRIPT, argv)
    assert got["rc"] == 0
    assert loaded in got["modules"]
    assert [m for m in absent if m in got["modules"]] == []


BLAS_SCRIPT = """
import json, os, sys
import ballast.cli
print(json.dumps({"threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_starts_no_blas_thread_pool_unless_asked(preset, expected):
    """Importing the CLI sets OpenBLAS to one thread before numpy loads, and
    keeps a value the caller set."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_SCRIPT], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(proc.stdout) == {"threads": expected, "numpy": False}


def test_scan_with_jobs_still_runs_its_pool(tmp_path):
    argv = ["scan", "--policy", "greedy", "--n", "16", "--trials", "3", "--seed", "5"]
    pooled, serial = tmp_path / "pooled.csv", tmp_path / "serial.csv"
    got = _fresh(POOL_SCRIPT, argv + ["--jobs", "2", "--out", str(pooled)])
    assert got["rc"] == 0
    assert got["workers"] and got["workers"][0] >= 1
    assert got["preloaded"] == [True]  # no worker imports numpy.random in its first trial
    assert main(argv + ["--out", str(serial)]) == 0
    assert pooled.read_bytes() == serial.read_bytes()


def test_every_lazy_name_is_its_defining_modules_object():
    listed = dir(ballast)
    for name, module in ballast._MODULE_OF.items():
        defining = importlib.import_module(f"ballast.{module}")
        assert getattr(ballast, name) is getattr(defining, name), name
        assert name in listed
    assert set(ballast.__all__) == set(ballast._MODULE_OF)
    for module in ("analysis", "core", "harness", "policies", "cli"):
        assert getattr(ballast, module) is sys.modules[f"ballast.{module}"]
        assert module in listed


# what only the tests read, restated in tests/oracles.py
TEST_ONLY = ("StepRecord", "PlacementProbs", "exact_placement_probs", "ForbiddenSet",
             "forbidden_set", "poisson_upper_tail", "AdviceSizeReport", "advice_list_size_check",
             "rank_keys", "draw_run_streams")


def test_the_program_keeps_no_test_only_names():
    for module in Path(ballast.__file__).parent.glob("*.py"):
        text = module.read_text()
        assert not [name for name in TEST_ONLY if re.search(rf"\b{name}\b", text)], module.name
    assert not set(TEST_ONLY) & set(ballast.__all__)
    for view in ("__getitem__", "__iter__"):  # a trace is columns, with no record view
        assert not hasattr(ballast.Trace, view)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ballast.no_such_name
    with pytest.raises(ImportError):
        from ballast import no_such_name  # noqa: F401


def test_resolved_names_follow_rebinding_and_restore(monkeypatch):
    original = ballast.core.simulate_run

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(ballast.core, "simulate_run", wrapper)
    assert ballast.simulate_run is wrapper
    assert "simulate_run" not in vars(ballast)
    monkeypatch.undo()
    assert ballast.simulate_run is original
