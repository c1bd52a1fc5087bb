"""The CLI contract: any argument list ends with exit 0, 1 or 2.

Random small argument lists for all six commands go through ``cli.main``
in-process: negative, zero, 2^64, ``nan``, ``inf`` and ``1/0`` values,
unknown policies, stored traces, missing files and directories. Lengths
(balls, trials, subsets, t-max) are drawn small or refused, since a valid
2^64 of them is a run that never ends rather than a broken one. An output
its write would refuse is refused before anything runs: exit 2, nothing on
stdout and no stream drawn.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

from ballast import POLICY_NAMES, core
from ballast.cli import main

NASTY = ["-1", "0", str(2**64), "nan", "inf", "1/0", "x"]
SMALL = ["1", "4", "8", "16", "33"] * 6  # most values run, so most lists get past the parser
COUNT = st.sampled_from(SMALL + NASTY)
LENGTH = st.sampled_from(SMALL + [v for v in NASTY if v != str(2**64)])
REAL = st.sampled_from(["0.5", "0.1", "1"] * 6 + ["0", "-1", "nan", "inf", "-inf", "1/0", str(2**64)])
POLICY = st.sampled_from([*POLICY_NAMES] * 2 + ["nope", ""])
GRID = st.sampled_from(
    ["0.1,0.5", "0.1:0.9:0.1", "0:1:0.1", "0.1:0.9:1/1000000", "0.9:0.1:0.1", "0.1:0.9:-1",
     "0.5:0.5:1", "1/0", "0.1:0.2:1/0", "nan", "inf", "", "1e-30"]
)
EPSILON = st.sampled_from(["0.25", "1/3", "0", "1", "-0.5", "1/0", "nan", "inf", "x"])
# placeholders for the files of the test's directory
OUT = st.sampled_from(["OUT"] * 4 + ["MISSING/OUT", "DIR"])
TRACE = st.sampled_from(["TRACE"] * 4 + ["MISSING/TRACE", "DIR"])
SPEC = st.sampled_from(["SPEC"] * 4 + ["TRACE", "MISSING/SPEC"])
OUTPUT_FLAGS, UNWRITABLE = ("--out", "--trace-out"), ("MISSING/OUT", "DIR")

# each policy's parameter flags, drawn in argument_lists after --policy
PARAMS = {"clustered": ("--cluster-size", "--counter-cap"), "advice": ("--advice-threshold",)}
FLAGS = {
    "run": {"--n": COUNT, "--balls": LENGTH, "--seed": COUNT, "--delta": REAL, "--policy": POLICY,
            "--trace-out": OUT, "--out": OUT},
    "scan": {"--n": COUNT, "--trials": LENGTH, "--seed": COUNT, "--delta": REAL, "--policy": POLICY,
             "--format": st.sampled_from(["csv", "json", "xml"]), "--out": OUT, "--spec": SPEC,
             "--measure-runtime": None},
    "verify": {"--n": COUNT, "--balls": LENGTH, "--seed": COUNT, "--delta": REAL, "--policy": POLICY,
               "--epsilon-grid": GRID, "--subsets": LENGTH, "--max-states": COUNT, "--out": OUT},
    "phases": {"--n": COUNT, "--balls": LENGTH, "--seed": COUNT, "--delta": REAL, "--policy": POLICY,
               "--phases": COUNT, "--trace-in": TRACE, "--forbidden": None, "--epsilon": EPSILON,
               "--out": OUT},
    "bounds": {"--n": COUNT, "--delta": REAL, "--out": OUT},
    "tail": {"--lam": st.one_of(REAL, COUNT), "--t-max": LENGTH, "--out": OUT},
}
# the flags most commands need are given in most lists, any other flag in one of three
NEEDED = {"--n", "--policy", "--out"}
OFTEN, SOMETIMES = (True,) * 9 + (False,), (True, False, False)
REPEATED = {"--n", "--policy"}  # scan's and bounds' --n take several values, scan's --policy repeats


@st.composite
def argument_lists(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command] + (["--jobs", "1"] if command == "scan" else [])
    for flag, values in FLAGS[command].items():
        if not draw(st.sampled_from(OFTEN if flag in NEEDED else SOMETIMES)):
            continue
        if values is None:
            argv.append(flag)
            continue
        argv += [flag, draw(values)]
        if command in ("scan", "bounds") and flag in REPEATED and draw(st.booleans()):
            argv += ([flag] if flag == "--policy" else []) + [draw(values)]
    if "--policy" in FLAGS[command]:
        # most often the parameters of the first policy named, any of them otherwise: a
        # parameter that fits no policy given is refused before anything runs
        named = argv[argv.index("--policy") + 1] if "--policy" in argv else None
        params = PARAMS.get(named, ()) if draw(st.sampled_from(OFTEN)) else draw(
            st.lists(st.sampled_from(sorted(sum(PARAMS.values(), ()))), unique=True)
        )
        for flag in params:
            argv += [flag, draw(st.sampled_from(["2", "3", "5"] + NASTY))]
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    trace, spec = root / "trace.csv", root / "spec.json"
    assert main(["run", "--policy", "greedy", "--n", "16", "--seed", "1",
                 "--trace-out", str(trace)]) == 0
    spec.write_text(json.dumps({"n_values": [16], "policies": [{"name": "greedy"}], "trials": 2}))
    return {"OUT": root / "out", "MISSING": root / "missing", "DIR": root, "TRACE": trace,
            "SPEC": spec}


def _placed(value: str, files: dict) -> str:
    head, _, tail = value.partition("/")
    if head in files and (not tail or head == "MISSING"):
        return str(files[head] / tail) if tail else str(files[head])
    return value


@settings(max_examples=400, deadline=None)
@given(argv=argument_lists())
@example(argv=["run", "--policy", "clustered", "--n", "16", "--cluster-size", str(2**64),
               "--counter-cap", "1"])
@example(argv=["verify", "--policy", "clustered", "--n", "16", "--cluster-size", "2",
               "--counter-cap", str(2**64)])
@example(argv=["tail", "--out", "DIR"])  # printed its whole table, then failed to write it
def test_every_argument_list_exits_0_1_or_2(files, argv):
    unwritable = any(f in OUTPUT_FLAGS and v in UNWRITABLE for f, v in zip(argv, argv[1:]))
    argv = [_placed(a, files) for a in argv]
    drawn, stream_chunks = [], core.stream_chunks

    def counted(config):
        drawn.append(config)
        return stream_chunks(config)

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                mock.patch.object(core, "stream_chunks", counted):
            code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    event(f"{argv[0]} exits {code}" + (" on an unwritable output" if unwritable else ""))
    assert code in (0, 1, 2), argv
    if unwritable:
        assert (code, out.getvalue(), drawn) == (2, "", []), argv
