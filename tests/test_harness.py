"""Experiment harness and CLI surfaces: determinism, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballast import (
    CSV_COLUMNS,
    ExperimentSpec,
    PolicySpec,
    SimConfig,
    Trace,
    emit,
    make_policy,
    run_experiment,
    theoretical_bounds,
    trial_seed,
    write_trace_csv,
)
from ballast import analysis, cli, core, harness
from ballast.cli import main, parse_epsilon_grid


def small_spec(**over):
    base = dict(
        n_values=(16,),
        policies=(PolicySpec("one-choice"), PolicySpec("greedy")),
        delta=0.5,
        trials=2,
        base_seed=42,
    )
    base.update(over)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(n_values=())
    with pytest.raises(ValueError):
        small_spec(n_values=(2,))
    with pytest.raises(ValueError):
        small_spec(trials=0)
    with pytest.raises(ValueError):
        small_spec(delta=0.0)
    with pytest.raises(ValueError):
        small_spec(policies=())
    with pytest.raises(ValueError):
        small_spec(format="xml")
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="base_seed must fit in 64 bits"):
            small_spec(base_seed=seed)
    assert small_spec(base_seed=2**64 - 1).base_seed == 2**64 - 1


def test_unknown_policy_surfaces():
    spec = small_spec(policies=(PolicySpec("round-robin"),))
    with pytest.raises(ValueError):
        run_experiment(spec)


def test_row_grid_and_seeds():
    rows = run_experiment(small_spec())
    assert len(rows) == 4  # 2 policies x 1 n x 2 trials
    for r in rows:
        assert r.seed == trial_seed(42, r.trial)
        assert r.max_load <= 16
        assert r.n == 16
    labels = [r.policy for r in rows]
    assert labels == sorted(labels)  # canonical order


def test_rows_deterministic_across_calls():
    assert run_experiment(small_spec()) == run_experiment(small_spec())


def test_parallel_jobs_match_sequential():
    spec = small_spec(trials=3)
    assert run_experiment(spec, jobs=2) == run_experiment(spec, jobs=1)


def test_pool_has_no_more_workers_than_trials(monkeypatch):
    """A fork pool starts all its workers at the first task, so the pool is
    sized by the trials when --jobs asks for more. A recording stand-in
    takes the pool's place; no real pool is started."""
    import concurrent.futures

    built = []

    class Recording:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    spec = small_spec(policies=(PolicySpec("greedy"),))
    assert run_experiment(spec, jobs=10**6) == run_experiment(spec, jobs=1)
    assert run_experiment(small_spec(trials=3), jobs=4) == run_experiment(small_spec(trials=3))
    assert built == [2, 4]


def test_untraced_trial_holds_8_bytes_per_bin():
    """At n = 2^18 with n balls, greedy's memory and the loads are int32, so a
    scan trial holds 8 B per bin, and one chunk's working set on top: its
    streams (17 B per ball), chosen bins and block temporaries, about 34 B
    per ball. As int64 the two vectors took 16 B per bin."""
    n = 1 << 18
    harness.run_trial(PolicySpec("greedy"), 1 << 10, 0.5, 0, 1)  # imports and caches
    tracemalloc.start()
    try:
        harness.run_trial(PolicySpec("greedy"), n, 0.5, 0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 40 * core.STREAM_CHUNK


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_scan_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "rows.csv"
    code = main(["scan", "--n", "16", "--policy", "greedy", "--jobs", jobs, "--out", str(out)])
    assert code == 2
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_row_columns_consistent_with_modules():
    spec = small_spec(
        policies=(
            PolicySpec("greedy"),
            PolicySpec("clustered", (("cluster_size", 4), ("counter_cap", 16))),
            PolicySpec("advice", (("threshold", 2),)),
        ),
        n_values=(64,),
        trials=1,
    )
    rows = run_experiment(spec)
    b = theoretical_bounds(64, 0.5)
    for r in rows:
        assert abs(r.lower_L - b.lower_L) < 1e-9
        assert abs(r.upper_T - b.upper_T) < 1e-9
    by_label = {r.policy: r for r in rows}
    cfg = SimConfig(n=64, seed=rows[0].seed)
    assert by_label["greedy"].memory_bits == make_policy("greedy").memory_bits(cfg.n, cfg.balls)
    assert by_label["clustered[cluster_size=4,counter_cap=16]"].memory_bits == 16 * 5
    advice_row = by_label["advice[threshold=2]"]
    assert advice_row.memory_bits > 0  # observed advice bits after the run


def test_emit_csv_header_and_shape(tmp_path):
    rows = run_experiment(small_spec(trials=1, policies=(PolicySpec("one-choice"),)))
    path = tmp_path / "rows.csv"
    emit(rows, "csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "policy,n,delta,trial,seed,max_load,memory_bits,lower_L,upper_T,runtime_ms"
    assert len(lines) == 2


def test_emit_refuses_empty(tmp_path):
    path = tmp_path / "never.csv"
    with pytest.raises(ValueError):
        emit([], "csv", str(path))
    assert not path.exists()


def test_emit_json_round_trip(tmp_path):
    rows = run_experiment(small_spec())
    path = tmp_path / "rows.json"
    emit(rows, "json", str(path))
    assert json.loads(path.read_text()) == [r.to_dict() for r in rows]
    keys = list(json.loads(path.read_text())[0].keys())
    assert keys == list(CSV_COLUMNS)


def test_emitted_bytes_identical(tmp_path):
    spec = small_spec()
    for fmt in ("csv", "json"):
        p1 = tmp_path / f"a.{fmt}"
        p2 = tmp_path / f"b.{fmt}"
        emit(run_experiment(spec), fmt, str(p1))
        emit(run_experiment(spec), fmt, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class _BrokenRecord:
    """A row that fails part-way through being written."""

    def __getattr__(self, name):
        raise RuntimeError("record cannot be written")

    def to_dict(self):
        return {"policy": object()}  # json.dump fails after writing a prefix


@pytest.mark.parametrize("writer", ["csv", "json", "trace"])
def test_failed_write_leaves_old_file_and_no_temporary(tmp_path, writer, monkeypatch):
    """The trace fails at its second block of rows, once the first is written
    to the temporary file."""
    good_row = run_experiment(small_spec(trials=1, policies=(PolicySpec("greedy"),)))[0]
    trace = Trace(*[np.arange(2 * core._IO_ROWS + 1)] * 4)
    rows_text = core._rows_text
    blocks = []

    def failing_rows_text(columns, seps):
        blocks.append(os.listdir(tmp_path))
        if len(blocks) % 2 == 0:
            raise RuntimeError("block cannot be written")
        return rows_text(columns, seps)

    monkeypatch.setattr(core, "_rows_text", failing_rows_text)

    def write(path):
        if writer == "trace":
            write_trace_csv(trace, path)
            return
        emit([good_row, _BrokenRecord()], writer, path)

    path = tmp_path / "out"
    with pytest.raises((RuntimeError, TypeError)):
        write(str(path))
    assert os.listdir(tmp_path) == []
    path.write_text("old\n")
    with pytest.raises((RuntimeError, TypeError)):
        write(str(path))
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out"]
    if writer == "trace":  # the second block of each write failed beside its temporary file
        assert len(blocks) == 4
        assert all(len([f for f in files if f.endswith(".tmp")]) == 1 for files in blocks)


def test_runtime_column_zero_unless_measured():
    rows = run_experiment(small_spec())
    assert all(r.runtime_ms == 0.0 for r in rows)
    rows = run_experiment(small_spec(measure_runtime=True))
    assert all(r.runtime_ms > 0.0 for r in rows)


def test_policy_spec_labels():
    assert PolicySpec("greedy").label == "greedy"
    ps = PolicySpec.from_dict({"name": "clustered", "cluster_size": 4, "counter_cap": 16})
    assert ps.label == "clustered[cluster_size=4,counter_cap=16]"


def test_experiment_spec_from_dict():
    spec = ExperimentSpec.from_dict(
        {
            "n_values": [16, 64],
            "delta": 1.0,
            "trials": 3,
            "base_seed": 7,
            "policies": [{"name": "greedy"}, {"name": "advice", "threshold": 2}],
        }
    )
    assert spec.n_values == (16, 64)
    assert spec.policies[1].params == (("threshold", 2),)


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_summary(tmp_path, capsys):
    out = tmp_path / "run.json"
    trace = tmp_path / "trace.csv"
    code = main(
        [
            "run", "--policy", "greedy", "--n", "32", "--seed", "5",
            "--out", str(out), "--trace-out", str(trace),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_load"] >= 1
    assert summary["n"] == 32
    assert sum(int(v) for v in summary["histogram"].values()) == 32
    full = json.loads(out.read_text())
    assert sum(full["loads"]) == 32
    assert trace.read_text().splitlines()[0] == "step,memory_state_id,bin_a,bin_b,chosen"


def test_cli_scan_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scan", "--n", "16", "--policy", "one-choice", "--policy", "greedy",
            "--trials", "3", "--seed", "9", "--out", None]
    for path in (a, b):
        argv[-1] = str(path)
        assert main(argv) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_scan_gives_each_policy_only_its_own_parameters(tmp_path):
    out = tmp_path / "rows.json"
    argv = ["scan", "--n", "16", "--policy", "greedy", "--policy", "clustered", "--policy", "advice",
            "--cluster-size", "2", "--counter-cap", "5", "--advice-threshold", "3",
            "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    assert sorted({row["policy"] for row in json.loads(out.read_text())}) == [
        "advice[threshold=3]", "clustered[cluster_size=2,counter_cap=5]", "greedy"
    ]


@pytest.mark.parametrize("flags, names", [
    (["--cluster-size", "3"], ["greedy"]),
    (["--advice-threshold", "2", "--counter-cap", "4"], ["greedy", "one-choice"]),
    (["--counter-cap", "4"], []),  # the spec file lists the policies
])
def test_cli_scan_refuses_a_parameter_no_listed_policy_takes(tmp_path, capsys, flags, names):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_values": [16], "policies": [{"name": "clustered"}]}))
    out = tmp_path / "rows.csv"
    argv = ["scan", "--spec", str(spec_path), "--trials", "1", "--out", str(out), *flags]
    for name in names:
        argv += ["--policy", name]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(f in err for f in flags if f.startswith("--"))
    assert "applies to none of the --policy names given" in err
    assert not out.exists()


def test_cli_scan_spec_file_with_flag_override(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "n_values": [16],
                "trials": 5,
                "base_seed": 3,
                "policies": [{"name": "one-choice"}],
                "format": "json",
            }
        )
    )
    out = tmp_path / "rows.json"
    code = main(["scan", "--spec", str(spec_path), "--trials", "2", "--out", str(out)])
    assert code == 0
    with open(out) as f:
        rows = json.load(f)
    assert len(rows) == 2  # flag wins over the spec file's 5


_GOOD_SPEC = {"n_values": [16], "policies": [{"name": "greedy"}]}


@pytest.mark.parametrize(
    "spec, field",
    [
        ({**_GOOD_SPEC, "bogus": 1}, "bogus"),
        ({**_GOOD_SPEC, "policies": [{"threshold": 2}]}, "name"),
        ([_GOOD_SPEC], "JSON object"),
        ({**_GOOD_SPEC, "trials": "2"}, "trials"),
        ({**_GOOD_SPEC, "policies": [{"name": "advice", "threshold": "a"}]}, "threshold"),
    ],
    ids=["unknown-key", "policy-without-name", "array", "string-trials", "string-threshold"],
)
def test_cli_scan_refuses_a_malformed_spec(tmp_path, capsys, spec, field):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    assert main(["scan", "--spec", str(spec_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("target", [99, -1, 8])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_scan_refuses_an_illegal_target_outside_the_bins(tmp_path, capsys, target, jobs):
    """A target outside 0..n-1 is refused by name, where 99 raised an
    IndexError and -1 wrapped every ball into bin n - 1."""
    spec = {"n_values": [8], "policies": [{"name": "illegal-fixture", "target": target}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    assert main(["scan", "--spec", str(spec_path), "--jobs", jobs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: illegal-fixture target {target} is outside 0..7 (n=8)\n"
    assert not out.exists()


@pytest.mark.parametrize("target", [99, -1, 8])
def test_run_trial_and_simulate_run_refuse_an_illegal_target(target):
    message = rf"^illegal-fixture target {target} is outside 0\.\.7 \(n=8\)$"
    with pytest.raises(ValueError, match=message):
        harness.run_trial(PolicySpec.from_dict({"name": "illegal-fixture", "target": target}), 8, 0.5, 0, 1)
    for traced in (False, True):
        with pytest.raises(ValueError, match=message):
            core.simulate_run(SimConfig(n=8, seed=1, record_trace=traced),
                              make_policy("illegal-fixture", target=target))
    last = make_policy("illegal-fixture", target=7)
    assert core.simulate_run(SimConfig(n=8, seed=1, record_trace=True), last).max_load == 8


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--policy", "greedy", "--n", "8", "--epsilon-grid", "1/0"],
        ["verify", "--policy", "greedy", "--n", "8", "--epsilon-grid", "0.1:0.2:1/0"],
        ["phases", "--policy", "greedy", "--n", "64", "--phases", "2", "--forbidden",
         "--epsilon", "1/0"],
    ],
    ids=["verify-list", "verify-range", "phases"],
)
def test_cli_refuses_an_epsilon_with_a_zero_denominator(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "zero denominator" in captured.err
    assert "1/0" in captured.err


def test_cli_scan_requires_inputs(tmp_path):
    assert main(["scan", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["scan", "--n", "16", "--policy", "greedy"]) == 2


def test_cli_verify_legal_policies_exit_zero(tmp_path):
    for policy in ("one-choice", "max-index"):
        out = tmp_path / f"{policy}.json"
        code = main(
            ["verify", "--policy", policy, "--n", "8", "--subsets", "200", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert report["states_checked"] >= 1


def test_cli_verify_illegal_policy_nonzero_exit(capsys):
    code = main(["verify", "--policy", "illegal-fixture", "--n", "8", "--subsets", "50"])
    assert code != 0
    report = json.loads(capsys.readouterr().out)
    # target 0: every pair without bin 0 is a violation, the first is (1, 1)
    assert report["support_violations"] == 49
    assert report["violation_samples"][0] == {"kind": "support", "state": 0, "sample": [[1, 1], 0]}


def test_cli_verify_greedy_probe_states():
    code = main(["verify", "--policy", "greedy", "--n", "12", "--balls", "18",
                 "--subsets", "100", "--max-states", "10"])
    assert code == 0


def test_cli_verify_epsilon_grid_flag():
    code = main(["verify", "--policy", "min-index", "--n", "8",
                 "--epsilon-grid", "0.1,0.5,0.9", "--subsets", "50"])
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "64", "--epsilon-grid", "0.0000000000000000001"],  # q beyond int64
        ["--n", "4096", "--max-states", "1", "--subsets", "4",
         "--epsilon-grid", "0.000000000001"],  # q n^2 beyond int64
    ],
)
def test_cli_verify_refuses_epsilons_too_fine_to_sum_exactly(capsys, argv):
    assert main(["verify", "--policy", "greedy", *argv]) == 2
    captured = capsys.readouterr()
    assert "too fine for an exact sweep" in captured.err
    assert captured.out == ""


def test_cli_verify_takes_a_fine_epsilon_the_exact_check_holds(capsys):
    """q = 10^9 at n = 4096: 2 q n^2 < 2^63, so only the cross-check would
    refuse it. The fresh state has every numerator 2n and F empty, so its
    margins are (q - p) / (q n) and p n / q, each rounded once."""
    argv = ["verify", "--policy", "greedy", "--n", "4096", "--max-states", "1",
            "--epsilon-grid", "0.000000001"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    q = 10**9
    assert report["ok"] and report["epsilons"] == [1e-09]
    assert list(report["worst_margins"].values()) == [
        [float(Fraction(q - 1, q * 4096)), float(Fraction(4096, q))]
    ]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_verify_rejects_subset_counts_below_one(capsys, count):
    assert main(["verify", "--policy", "greedy", "--n", "8", "--subsets", count]) == 2
    captured = capsys.readouterr()
    assert f"verify --subsets needs a count >= 1, got {count}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag, count", [("--balls", "0"), ("--balls", "-3"), ("--max-states", "0"), ("--max-states", "-2")]
)
def test_cli_verify_rejects_ball_and_state_counts_below_one(capsys, flag, count):
    assert main(["verify", "--policy", "clustered", "--n", "16", flag, count]) == 2
    captured = capsys.readouterr()
    assert f"verify {flag} needs a count >= 1, got {count}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("policy", ["greedy", "one-choice", "clustered", "illegal-fixture"])
def test_cli_verify_rejects_zero_bins(capsys, policy):
    assert main(["verify", "--policy", policy, "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert "verify --n needs a count >= 1, got 0" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_verify_rejects_big_n():
    assert main(["verify", "--policy", "one-choice", "--n", "100000"]) == 2


def test_cli_phases_live_and_trace(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    assert main(["run", "--policy", "greedy", "--n", "64", "--seed", "4",
                 "--trace-out", str(trace)]) == 0
    capsys.readouterr()
    assert main(["phases", "--n", "64", "--phases", "2", "--trace-in", str(trace)]) == 0
    from_trace = json.loads(capsys.readouterr().out)
    assert main(["phases", "--policy", "greedy", "--n", "64", "--phases", "2",
                 "--seed", "4"]) == 0
    live = json.loads(capsys.readouterr().out)
    assert from_trace["rows"] == live["rows"]


def test_cli_phases_forbidden(capsys, monkeypatch):
    code = main(["phases", "--policy", "greedy", "--n", "16", "--phases", "2",
                 "--seed", "2", "--forbidden", "--epsilon", "0.25"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "forbidden_overlap" in report["rows"][0]
    assert report["states_seen"] >= 1

    # above the enumeration guard it refuses before drawing any stream
    from ballast import PAIR_GUARD, core

    def no_run(*args, **kwargs):
        raise AssertionError("walked a run that the guard must refuse")

    monkeypatch.setattr(core, "stream_chunks", no_run)
    code = main(["phases", "--policy", "greedy", "--n", str(PAIR_GUARD + 1), "--phases", "2",
                 "--forbidden"])
    assert code == 2
    assert f"needs n <= {PAIR_GUARD}" in capsys.readouterr().err


@pytest.mark.parametrize("forbidden", [[], ["--forbidden"]])
def test_live_phases_refuse_a_short_run_before_walking_it(capsys, monkeypatch, forbidden):
    """Both live reports refuse a run too short for its phases with one line,
    before they draw a stream; a stored trace keeps its own "trace too short"."""

    def no_run(*args, **kwargs):
        raise AssertionError("walked a run too short for its phases")

    monkeypatch.setattr(core, "stream_chunks", no_run)
    argv = ["phases", "--policy", "greedy", "--n", "8", "--balls", "3", "--phases", "2"]
    assert main(argv + forbidden) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: run too short for 2 phases: needs 8 balls\n"


def _traced_run(tmp_path, capsys, policy, n, balls=None):
    path = tmp_path / f"{policy}-{n}.csv"
    argv = ["run", "--policy", policy, "--n", str(n), "--seed", "3", "--trace-out", str(path)]
    assert main(argv + (["--balls", str(balls)] if balls else [])) == 0
    capsys.readouterr()
    return path


def _assert_refused(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("forbidden", [[], ["--policy", "greedy", "--forbidden"]])
def test_cli_phases_refuses_a_trace_of_more_bins(tmp_path, capsys, forbidden):
    trace = _traced_run(tmp_path, capsys, "greedy", 16)
    argv = ["phases", "--n", "8", "--phases", "2", "--trace-in", str(trace), *forbidden]
    _assert_refused(capsys, argv, "outside 0..7")


@pytest.mark.parametrize(
    "edit, message",
    [
        # a negative chosen bin used to wrap to the last bin
        (lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0] + ",-1"] + lines[2:],
         "trace step 0 chooses bin -1 outside 0..15"),
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
         ":3: a trace row needs 5 integer fields"),
        (lambda lines: [], "unexpected trace header: []"),
    ],
    ids=["negative-chosen", "four-fields", "empty-file"],
)
def test_cli_phases_refuses_a_malformed_trace_file(tmp_path, capsys, edit, message):
    trace = _traced_run(tmp_path, capsys, "greedy", 16)
    lines = edit(trace.read_text().splitlines())
    trace.write_text("".join(line + "\n" for line in lines))
    argv = ["phases", "--n", "16", "--phases", "2", "--trace-in", str(trace)]
    _assert_refused(capsys, argv, message)


@pytest.mark.parametrize("forbidden", [[], ["--policy", "greedy", "--forbidden"]])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:], "trace step 1 is numbered 2"),
        (lambda lines: lines[:5] + ["99" + lines[5][lines[5].index(","):]] + lines[6:],
         "trace step 4 is numbered 99"),
        (lambda lines: lines[:1], "trace too short: 0 < 16 balls"),
    ],
    ids=["swapped-rows", "renumbered-99", "header-only"],
)
def test_cli_phases_refuses_misnumbered_and_empty_traces(
    tmp_path, capsys, forbidden, edit, message
):
    """Without --forbidden the steps used to go unchecked: such files exited 0."""
    trace = _traced_run(tmp_path, capsys, "greedy", 16)
    lines = edit(trace.read_text().splitlines())
    trace.write_text("".join(line + "\n" for line in lines))
    argv = ["phases", "--n", "16", "--phases", "2", "--trace-in", str(trace), *forbidden]
    _assert_refused(capsys, argv, message)


def test_cli_phases_forbidden_refuses_a_trace_of_another_policy(tmp_path, capsys):
    trace = _traced_run(tmp_path, capsys, "clustered", 64, balls=128)
    argv = ["phases", "--n", "64", "--phases", "2", "--trace-in", str(trace), "--forbidden"]
    _assert_refused(capsys, argv + ["--policy", "greedy"], "the greedy policy could not have chosen")
    assert main(argv + ["--policy", "clustered"]) == 0


@pytest.mark.parametrize("step", [0, 40])
def test_cli_phases_forbidden_refuses_a_trace_with_a_false_id(tmp_path, capsys, step):
    """Every step of the trace replays under greedy, but the id one step
    records is not the id of the state before it. Without --forbidden the
    ids are not read."""
    trace = _traced_run(tmp_path, capsys, "greedy", 64)
    lines = trace.read_text().splitlines()
    true_id = lines[step + 1].split(",")[1]
    fields = lines[step + 1].split(",")
    fields[1] = "12345"
    lines[step + 1] = ",".join(fields)
    trace.write_text("".join(line + "\n" for line in lines))
    argv = ["phases", "--n", "64", "--phases", "2", "--trace-in", str(trace)]
    assert main(argv) == 0
    capsys.readouterr()
    _assert_refused(
        capsys, argv + ["--policy", "greedy", "--forbidden"],
        f"trace step {step} records memory_state_id 12345, "
        f"but the greedy policy's state before it has id {true_id}",
    )


def test_cli_phases_refuses_zero_phases(capsys):
    assert main(["phases", "--policy", "greedy", "--n", "64", "--phases", "0"]) == 2
    assert "phases must be >= 1" in capsys.readouterr().err


def test_cli_bounds_reports_log_base(capsys):
    assert main(["bounds", "--n", "65536", "--delta", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    row = payload["bounds"][0]
    assert row["log_base"] == 2
    assert row["upper_T"] == pytest.approx(4.0)


def test_cli_tail_table(tmp_path, capsys):
    out = tmp_path / "tail.json"
    assert main(["tail", "--lam", "2", "--t-max", "3", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert len(text.splitlines()) == 5  # header + 4 rows
    payload = json.loads(out.read_text())
    assert payload["rows"][0]["tail"] == 1.0


def test_cli_tail_bytes_are_pinned(tmp_path, capsys):
    """One walk of the pmf prints and writes, bit for bit, what a sum per t did."""
    out = tmp_path / "tail.json"
    assert main(["tail", "--lam", "2", "--t-max", "30", "--out", str(out)]) == 0
    digest = lambda data: hashlib.sha256(data).hexdigest()
    assert digest(capsys.readouterr().out.encode()) == (
        "9857c1b9c59641a587383a26d4a24e3337d98f57d4d38df1e5d4308a76f8569c"
    )
    assert digest(out.read_bytes()) == (
        "6e77542ada7b26e17db2538b5cb308cb082509ab12ab046e8ae9d6a248b9198f"
    )


def test_cli_tail_bytes_at_t_max_0_are_pinned(tmp_path, capsys):
    out = tmp_path / "tail.json"
    assert main(["tail", "--lam", "2", "--t-max", "0", "--out", str(out)]) == 0
    digest = lambda data: hashlib.sha256(data).hexdigest()
    assert digest(capsys.readouterr().out.encode()) == (
        "ae5627c352c58db76ab66259edcd046fa3f8c6e92363fe2caa7d5337da42da68"
    )
    assert digest(out.read_bytes()) == (
        "f3a8a82322de136404dda7cb52163a4586f7fb1df32c926321ebc0c074ac55fa"
    )


@settings(max_examples=20, deadline=None)
@given(lam=st.sampled_from([0.5, 2.0, 37.25, 740.0, 1e-300]), t_max=st.integers(0, 60))
def test_cli_tail_file_is_json_dump_of_the_table(tmp_path_factory, lam, t_max):
    out = tmp_path_factory.mktemp("tail") / "tail.json"
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert main(["tail", "--lam", repr(lam), "--t-max", str(t_max), "--out", str(out)]) == 0
    rows = [
        {"t": pt.t, "tail": pt.probability, "leading_term": pt.leading_term}
        for pt in analysis._poisson_tails(lam, t_max)
    ]
    assert out.read_text() == json.dumps({"lambda": lam, "rows": rows}, indent=1) + "\n"
    assert len(printed.getvalue().splitlines()) == t_max + 2


def test_cli_tail_holds_no_table(tmp_path):
    """The rows are printed and written as the walk yields them: ten times
    the rows peak no higher (the table held as lists grew by ~0.5 KiB a row)."""
    peaks = []
    for t_max in (2_000, 20_000):
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert main(["tail", "--t-max", str(t_max), "--out", str(tmp_path / "t.json")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < peaks[0] + 64 * 1024


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lam", "nan"], "lambda must be finite"),
        (["--lam", "inf"], "lambda must be finite"),
        (["--t-max", "-1"], "--t-max needs a value >= 0"),
    ],
)
def test_cli_tail_refuses_bad_input(tmp_path, capsys, flags, message):
    out = tmp_path / "tail.json"
    assert main(["tail", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BALLAST_SEED", "777")
    assert main(["run", "--policy", "one-choice", "--n", "16"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seed"] == 777


@pytest.mark.parametrize(
    "command", [["bounds", "--n", "16"], ["run", "--policy", "greedy", "--n", "8"]]
)
def test_cli_bad_env_seed_exits_cleanly(monkeypatch, capsys, command):
    monkeypatch.setenv("BALLAST_SEED", "abc")
    assert main(command) == 2
    assert "BALLAST_SEED must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan", "verify", "run", "phases"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_refuses_a_seed_past_64_bits(tmp_path, capsys, command, seed):
    """Every command that takes --seed refuses one outside 0..2^64-1 with a
    clean exit 2, before any output is written."""
    out = tmp_path / "out"
    argv = {
        "scan": ["scan", "--n", "16", "--policy", "greedy", "--trials", "2", "--out", str(out)],
        "verify": ["verify", "--policy", "clustered", "--n", "8", "--balls", "4", "--subsets", "5"],
        "run": ["run", "--policy", "greedy", "--n", "16", "--out", str(out)],
        "phases": ["phases", "--policy", "greedy", "--n", "16", "--phases", "2"],
    }[command]
    assert main([*argv, "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seed must fit in 64 bits" in captured.err
    assert not out.exists()


def test_cli_error_paths(tmp_path):
    assert main(["run", "--policy", "nope", "--n", "8"]) == 2
    assert main(["run", "--policy", "greedy", "--n", "0"]) == 2


def test_cli_exits_cleanly_when_the_loads_do_not_fit(capsys):
    """The loads of 10^17 bins cannot be allocated; numpy refuses at once,
    before any memory is touched."""
    assert main(["run", "--policy", "greedy", "--n", "99999999999999999"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["run", "--policy", "greedy", "--n", "16", "--trace-out"],
    ["scan", "--policy", "greedy", "--n", "16", "--out"],
])
@pytest.mark.parametrize("target", ["missing/out.csv", "a-directory"])
def test_cli_write_errors_name_the_given_path(tmp_path, capsys, command, target):
    """A missing directory, or a directory in the way, is reported with the
    path the user gave, not the temporary file written beside it."""
    (tmp_path / "a-directory").mkdir()
    path = str(tmp_path / target)
    assert main(command + [path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{path}'" in err
    assert ".tmp" not in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["a-directory"]


@pytest.mark.parametrize("target", ["missing/out.csv", "a-directory", "a-directory/"])
def test_scan_fails_on_its_output_before_the_trials(tmp_path, capsys, monkeypatch, target):
    """scan stops with the error line the write itself gives, before it
    runs a trial, and leaves nothing beside the output."""
    (tmp_path / "a-directory").mkdir()
    path = str(tmp_path / target)
    with pytest.raises(OSError) as raised:
        with core.atomic_write(path) as f:
            f.write("x")

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the output was checked")

    monkeypatch.setattr(harness, "run_experiment", no_trials)
    assert main(["scan", "--policy", "greedy", "--n", "16", "--out", path]) == 2
    assert capsys.readouterr().err == f"error: {raised.value}\n"
    assert os.listdir(tmp_path) == ["a-directory"]
    assert os.listdir(tmp_path / "a-directory") == []


@pytest.mark.parametrize("command", [
    ["run", "--policy", "greedy", "--n", "64", "--out"],
    ["run", "--policy", "greedy", "--n", "64", "--trace-out"],
    ["verify", "--policy", "greedy", "--n", "64", "--out"],
    ["phases", "--policy", "greedy", "--n", "64", "--out"],
    ["phases", "--policy", "greedy", "--n", "64", "--forbidden", "--out"],
])
@pytest.mark.parametrize("target", ["missing/out.json", "a-directory"])
def test_outputs_are_refused_before_any_run(tmp_path, capsys, monkeypatch, command, target):
    """run, verify and phases stop with the error line the write itself gives
    before they draw a stream, and leave nothing beside the output."""
    (tmp_path / "a-directory").mkdir()
    path = str(tmp_path / target)
    with pytest.raises(OSError) as raised:
        with core.atomic_write(path) as f:
            f.write("x")

    def no_run(*args, **kwargs):
        raise AssertionError("a run was walked before the output was checked")

    monkeypatch.setattr(core, "stream_chunks", no_run)
    assert main(command + [path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {raised.value}\n"
    assert os.listdir(tmp_path) == ["a-directory"]
    assert os.listdir(tmp_path / "a-directory") == []


def test_output_check_leaves_a_link_to_a_directory_in_place(tmp_path):
    (tmp_path / "a-directory").mkdir()
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "a-directory")
    core._check_writable(str(link))  # a write would replace the link, so it passes
    assert link.is_symlink() and sorted(os.listdir(tmp_path)) == ["a-directory", "link"]


def test_cli_refuses_a_range_too_long_to_sweep_before_building_it(capsys):
    """0.1:0.9:1/1000000 has 800,001 values; the range is counted, not built."""
    argv = ["verify", "--policy", "greedy", "--n", "8", "--epsilon-grid", "0.1:0.9:1/1000000"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: epsilon grid '0.1:0.9:1/1000000' has 800001 values; a sweep takes at most 10000\n"
    )


@pytest.mark.parametrize("grid", ["0.5:0.1:0.1", ","])
def test_cli_refuses_an_empty_epsilon_grid_as_empty(capsys, grid):
    """Both ends of 0.5:0.1:0.1 lie in (0, 1); the range is refused for
    having no values, and so is a list with none."""
    assert main(["verify", "--policy", "greedy", "--n", "8", "--epsilon-grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: epsilon grid '{grid}' has no values\n"


def test_epsilon_grid_limit_is_ten_thousand_values():
    assert len(parse_epsilon_grid("1/20001:10000/20001:1/20001")) == 10_000
    with pytest.raises(ValueError, match="has 10001 values; a sweep takes at most 10000$"):
        parse_epsilon_grid("1/20002:10001/20002:1/20002")
    with pytest.raises(ValueError, match="has 10001 values"):
        parse_epsilon_grid(",".join(f"1/{k}" for k in range(2, 10_003)))


@settings(max_examples=100, deadline=None)
@given(
    start=st.fractions(-1, 1), stop=st.fractions(0, 2), step=st.fractions(Fraction(1, 50), 1)
)
def test_epsilon_grid_range_is_the_stepped_walk(start, stop, step):
    """A range holds start, start + step, ... up to stop, as a walk that adds
    the step until it passes stop gives it, and is refused where that walk
    leaves (0, 1) or is empty."""
    walk, v = [], start
    while v <= stop:
        walk.append(v)
        v += step
    text = f"{start}:{stop}:{step}"
    if not walk:
        with pytest.raises(ValueError, match=f"^epsilon grid '{text}' has no values$"):
            parse_epsilon_grid(text)
    elif all(0 < e < 1 for e in walk):
        assert parse_epsilon_grid(text) == walk
    else:
        with pytest.raises(ValueError, match="must lie in"):
            parse_epsilon_grid(text)


def test_parse_epsilon_grid():
    grid = parse_epsilon_grid("0.05:0.95:0.05")
    assert len(grid) == 19
    assert grid[0] == Fraction(1, 20)
    assert grid[-1] == Fraction(19, 20)
    assert parse_epsilon_grid("0.1,0.5") == [Fraction(1, 10), Fraction(1, 2)]
    with pytest.raises(ValueError):
        parse_epsilon_grid("0.0,0.5")
    with pytest.raises(ValueError):
        parse_epsilon_grid("0.2:0.8:-0.1")
    for text in ("0.1:0.5:0.1:3", "0.1:0.5"):
        with pytest.raises(ValueError, match=f"must be start:stop:step, got '{text}'"):
            parse_epsilon_grid(text)


_margin = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e16, 0.1]),
)
_pairs = st.lists(_margin, min_size=2, max_size=2)


@settings(max_examples=200, deadline=None)
@given(
    margins=st.one_of(
        st.just({}),
        st.dictionaries(st.integers(0, 2**64 - 1).map(str), _pairs, max_size=20),
        st.dictionaries(st.text(max_size=6), _pairs, max_size=5),
        # shapes the report never has, which go through json.dumps whole
        st.dictionaries(st.text(max_size=3), st.lists(st.one_of(_margin, st.integers()), max_size=3), max_size=4),
    ),
    policy=st.text(max_size=8),
    last=st.booleans(),
)
def test_report_writer_equals_json_dumps(margins, policy, last):
    report = {"policy": policy, "n": 4, "epsilons": [0.5], "violation_samples": [{"kind": "size", "F": 1}]}
    report["worst_margins"] = margins
    if not last:
        report["ok"] = True
    assert "".join(cli._json_parts(report)) == json.dumps(report, indent=1)
    assert cli._json_parts({"bounds": [{"n": 4}]}) == [json.dumps({"bounds": [{"n": 4}]}, indent=1)]
