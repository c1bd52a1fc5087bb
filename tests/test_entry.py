"""The process entry: ``python -m ballast.cli`` runs ``cli.entry``.

``entry`` turns cyclic GC off, runs ``main`` and ends the process without
tearing down the interpreter. These tests hold it to what ``main`` gives
in-process (exit code, stdout, stderr, every file written), to leaving no
scan worker behind, to one exit for a closed stdout, buffered or not, and
hold every command to a fixed count of cyclic garbage at any size, which is
what makes running with GC off safe.
"""

import contextlib
import gc
import io
import os
import shutil
import signal
import subprocess
import sys

import pytest

import ballast
from ballast.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ballast.__file__)))


def _env(unbuffered: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("BALLAST_SEED", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env["COLUMNS"] = "80"  # argparse wraps --help to the terminal's width
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def stored_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("entry") / "stored.csv"
    assert main(["run", "--policy", "advice", "--n", "64", "--seed", "9",
                 "--trace-out", str(path)]) == 0
    return path


# argv (paths relative to the working directory), files it writes, exit code
COMMANDS = {
    "run-traced": (["run", "--policy", "greedy", "--n", "64", "--seed", "5",
                    "--trace-out", "t.csv", "--out", "r.json"], ["t.csv", "r.json"], 0),
    "phases-trace-in": (["phases", "--n", "64", "--phases", "3", "--trace-in", "stored.csv",
                         "--out", "p.json"], ["p.json"], 0),
    "phases-forbidden": (["phases", "--policy", "clustered", "--n", "16", "--phases", "2",
                          "--forbidden", "--seed", "3", "--out", "f.json"], ["f.json"], 0),
    "verify": (["verify", "--policy", "greedy", "--n", "16", "--seed", "2", "--out", "v.json"],
               ["v.json"], 0),
    "verify-illegal": (["verify", "--policy", "illegal-fixture", "--n", "16", "--seed", "2"],
                       [], 1),
    "bad-value": (["run", "--policy", "greedy", "--n", "x"], [], 2),
    "refused-value": (["verify", "--policy", "greedy", "--n", "16",
                       "--epsilon-grid", "0.5:0.1:0.1"], [], 2),
    "unknown-flag": (["bounds", "--n", "16", "--no-such-flag"], [], 2),
    "help": (["--help"], [], 0),
    "scan-jobs-2": (["scan", "--policy", "greedy", "--policy", "advice", "--n", "64", "256",
                     "--trials", "2", "--seed", "4", "--jobs", "2", "--out", "s.csv"],
                    ["s.csv"], 0),
    "bounds": (["bounds", "--n", "4", "16", "1024", "--out", "b.json"], ["b.json"], 0),
    "tail": (["tail", "--lam", "2", "--t-max", "12", "--out", "tail.json"], ["tail.json"], 0),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_entry_gives_what_main_gives(tmp_path, monkeypatch, stored_trace, name):
    argv, files, code = COMMANDS[name]
    proc_dir, main_dir = tmp_path / "process", tmp_path / "main"
    for d in (proc_dir, main_dir):
        d.mkdir()
        shutil.copy(stored_trace, d / "stored.csv")
    proc = subprocess.run([sys.executable, "-m", "ballast.cli", *argv], cwd=proc_dir,
                          env=_env(), capture_output=True, text=True, timeout=120)
    monkeypatch.chdir(main_dir)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("BALLAST_SEED", raising=False)
    got = _in_process(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == got
    assert got[0] == code
    assert "Traceback" not in got[2]
    for f in files:
        assert (proc_dir / f).read_bytes() == (main_dir / f).read_bytes(), f
    assert sorted(os.listdir(proc_dir)) == sorted(os.listdir(main_dir))


def test_no_scan_worker_outlives_the_process(tmp_path):
    argv = ["scan", "--policy", "greedy", "--n", "1024", "--trials", "4", "--seed", "6",
            "--jobs", "2", "--out", str(tmp_path / "s.csv")]
    proc = subprocess.Popen([sys.executable, "-m", "ballast.cli", *argv], env=_env(),
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        assert proc.wait(timeout=120) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return
    os.killpg(proc.pid, signal.SIGKILL)
    pytest.fail("a process of the scan's group is still running")


def _closed_stdout(argv, unbuffered: bool) -> tuple[int, str]:
    read_end, write_end = os.pipe()
    os.close(read_end)  # the child writes to a pipe nobody reads
    try:
        proc = subprocess.run([sys.executable, "-m", "ballast.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=_env(unbuffered), text=True, timeout=120)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


BROKEN_PIPE = (2, "error: [Errno 32] Broken pipe\n")


# clustered verify prints about 1 MB, so its write fails inside main, buffered or not
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, expected", [
    (["bounds", "--n", "16"], BROKEN_PIPE),
    (["tail"], BROKEN_PIPE),
    (["tail", "--lam", "3", "--out", "OUT"], BROKEN_PIPE),
    (["verify", "--policy", "clustered", "--n", "16"], BROKEN_PIPE),
    (["--help"], (0, "")),
], ids=["bounds", "tail", "tail-out", "verify", "help"])
def test_closed_stdout_takes_the_normal_exit(tmp_path, argv, expected, unbuffered):
    """Output that cannot reach stdout exits 2 with one error line, as a
    failed write inside main does; --help exits 0, as argparse ignores its
    failed write. Never Python's exit 120 with "Exception ignored". A file
    asked for is written whole first, so it holds what main writes."""
    out, normal = tmp_path / "out.json", tmp_path / "normal.json"
    assert _closed_stdout([str(out) if a == "OUT" else a for a in argv], unbuffered) == expected
    if "OUT" in argv:
        assert _in_process([str(normal) if a == "OUT" else a for a in argv])[0] == 0
        assert out.read_bytes() == normal.read_bytes()


# each command at a small and a large size; TRACE is a stored trace of that size
SIZED = {
    "run": (["run", "--policy", "greedy", "--seed", "1", "--n"], "64", "131072"),
    "run-traced": (["run", "--policy", "advice", "--seed", "1", "--trace-out", "OUT", "--n"],
                   "64", "131072"),
    "phases-live": (["phases", "--policy", "greedy", "--phases", "3", "--seed", "1", "--n"],
                    "64", "131072"),
    "phases-trace-in": (["phases", "--phases", "3", "--trace-in", "TRACE", "--n"],
                        "64", "131072"),
    "phases-forbidden": (["phases", "--policy", "greedy", "--phases", "2", "--forbidden",
                          "--seed", "1", "--n", "16", "--balls"], "16", "131072"),
    "verify": (["verify", "--policy", "greedy", "--seed", "1", "--n"], "16", "512"),
    "scan": (["scan", "--policy", "greedy", "--policy", "clustered", "--trials", "2",
              "--seed", "1", "--jobs", "1", "--out", "OUT", "--n"], "64", "131072"),
}


@pytest.mark.parametrize("name", SIZED)
def test_cyclic_garbage_does_not_grow_with_size(tmp_path, name):
    head, small, large = SIZED[name]

    def command(size):
        paths = {"OUT": str(tmp_path / "out.csv"), "TRACE": str(tmp_path / f"trace-{size}.csv")}
        return [paths.get(a, a) for a in head] + [size]

    if "TRACE" in head:
        for size in (small, large):
            assert _in_process(["run", "--policy", "greedy", "--seed", "2", "--n", size,
                                "--trace-out", command(size)[head.index("TRACE")]])[0] == 0

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert _in_process(command(small))[0] == 0  # warm-up: imports and first-call caches
        gc.collect()
        found = {}
        for size in (small, large):
            assert _in_process(command(size))[0] == 0
            found[size] = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert found[small] == found[large]
