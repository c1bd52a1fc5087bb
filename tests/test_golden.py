"""The golden corpus: a fixed list of commands whose exit codes, stdout,
stderr and written files are held, byte for byte, to the sha256 digests in
``golden_digests.txt``.

The commands run in-process through ``cli.main``, in an empty working
directory, with relative paths, an explicit ``--seed`` and no
``BALLAST_SEED``. A change that moves an output on purpose updates that
output's line in the digest file and says so. The file's first line names
the numpy version the digests were taken with: the bit-replay contract
rests on numpy's Philox draws, so another numpy may move every run.
"""

import contextlib
import hashlib
import io
import pathlib

import numpy as np

from ballast import POLICY_NAMES
from ballast.cli import main

DIGESTS = pathlib.Path(__file__).with_name("golden_digests.txt")
BALLS = str(2**17 + 1)  # two chunks of 2^16 balls and one ball more


def corpus() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, in the order they run: a trace is
    written before a command reads it."""
    commands = []
    for n in ("64", "1000"):  # 1000 is not a power of two
        for policy in POLICY_NAMES:
            stem = f"run-{policy}-{n}"
            commands.append((stem, ["run", "--policy", policy, "--n", n, "--balls", BALLS,
                                    "--seed", "11", "--trace-out", f"{stem}.csv",
                                    "--out", f"{stem}.json"]))
    for n in ("16", "64"):
        for policy in POLICY_NAMES:
            commands.append((f"verify-{policy}-{n}",
                             ["verify", "--policy", policy, "--n", n, "--seed", "12"]))
    for policy in ("greedy", "clustered", "advice"):
        trace = f"run-{policy}-257.csv"
        phases = ["phases", "--policy", policy, "--n", "257", "--phases", "3", "--forbidden"]
        commands += [
            (f"run-{policy}-257", ["run", "--policy", policy, "--n", "257", "--balls", "2000",
                                   "--seed", "13", "--trace-out", trace]),
            (f"phases-forbidden-{policy}", [*phases, "--balls", "2000", "--seed", "13"]),
            (f"phases-forbidden-trace-in-{policy}", [*phases, "--trace-in", trace, "--seed", "13"]),
        ]
    scan = ["scan", "--policy", "greedy", "--policy", "clustered", "--n", "64", "1000",
            "--trials", "3", "--seed", "14"]
    commands += [
        ("scan-jobs-1", [*scan, "--jobs", "1", "--out", "scan-jobs-1.csv"]),
        ("scan-jobs-2", [*scan, "--jobs", "2", "--out", "scan-jobs-2.csv"]),
        ("bounds", ["bounds", "--n", "4", "16", "1000", "1048576", "--out", "bounds.json"]),
        ("tail", ["tail", "--lam", "2", "--t-max", "30", "--out", "tail.json"]),
    ]
    return commands


def outputs(argv: list[str]):
    """(stream, bytes) of one in-process command: its exit code, stdout,
    stderr and each file it was told to write, in argv order."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    yield "rc", str(rc).encode()
    yield "stdout", out.getvalue().encode()
    yield "stderr", err.getvalue().encode()
    for flag, path in zip(argv, argv[1:]):
        if flag in ("--out", "--trace-out"):
            yield path, pathlib.Path(path).read_bytes()


def test_corpus_outputs_match_their_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BALLAST_SEED", raising=False)
    header, *lines = DIGESTS.read_text().splitlines()
    taken_with = header.removeprefix("numpy ")
    pinned = dict(line.rsplit(" ", 1) for line in lines)
    checked = []
    for name, argv in corpus():
        for stream, data in outputs(argv):
            key, digest = f"{name} {stream}", hashlib.sha256(data).hexdigest()
            assert pinned.get(key) == digest, (
                f"{name} ({' '.join(argv)}): {stream} moved; its digest is now {digest} "
                f"(numpy {np.__version__} here, digests taken with numpy {taken_with})"
            )
            checked.append(key)
    assert checked == list(pinned), "the digest file lists outputs the corpus does not make"
