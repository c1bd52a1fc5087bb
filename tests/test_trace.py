"""Columnar traces: the traced run against the per-step walk, and trace and
result text against the csv and json modules."""

import csv
import io
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballast import (
    POLICY_NAMES,
    ClusterConfig,
    ClusteredPolicy,
    RunResult,
    SimConfig,
    Trace,
    load_histogram,
    make_policy,
    read_trace_csv,
    simulate_run,
    write_trace_csv,
)
from ballast import core, policies
from ballast.core import TRACE_COLUMNS

from oracles import StepRecord, draw_run_streams, play, records


@st.composite
def traced_policy_builder(draw):
    """A zero-argument builder for any registered policy: clustered with the
    default or a drawn geometry (small caps, so counters reach them), advice
    with a threshold in 1..5."""
    name = draw(st.sampled_from(POLICY_NAMES))
    if name == "advice":
        threshold = draw(st.integers(1, 5))
        return lambda: make_policy(name, threshold=threshold)
    if name == "clustered" and draw(st.booleans()):
        cfg = ClusterConfig(draw(st.integers(1, 6)), draw(st.integers(1, 4)))
        return lambda: ClusteredPolicy(cfg)
    return lambda: make_policy(name)


def _assert_traced_run_is_the_step_walk(build, n, balls, seed):
    """The columnar traced run equals deciding every step with ``play``."""
    config = SimConfig(n=n, seed=seed, balls=balls, record_trace=True)
    live = build()
    result = simulate_run(config, live)
    oracle = build()
    oracle.reset(n, balls)
    pa, pb, ties = draw_run_streams(config)
    loads = [0] * n
    ids, chosen = [], []
    for c in play(oracle, pa, pb, ties):
        # between yields the oracle is in the state that decided the step
        ids.append(oracle.state_id())
        chosen.append(c)
        loads[c] += 1
    steps = list(map(StepRecord, range(balls), ids, pa.tolist(), pb.tolist(), chosen))
    trace = result.trace
    assert isinstance(trace, Trace)
    assert trace.ids.dtype == np.uint64 and trace.chosen.dtype == np.int64
    assert trace.ids.tolist() == ids
    assert trace.bin_a.tolist() == pa.tolist()
    assert trace.bin_b.tolist() == pb.tolist()
    assert trace.chosen.tolist() == chosen
    assert records(trace) == steps
    assert result.loads == loads
    assert live.snapshot().tolist() == oracle.snapshot().tolist()
    assert live.state_id() == oracle.state_id()
    assert live.memory_bits(n, balls) == oracle.memory_bits(n, balls)
    return live


@settings(max_examples=80, deadline=None)
@given(
    build=traced_policy_builder(),
    n=st.integers(1, 40),
    extra=st.integers(0, 160),
    seed=st.integers(0, 2**64 - 1),
)
def test_traced_run_is_the_step_walk(build, n, extra, seed):
    _assert_traced_run_is_the_step_walk(build, n, n + extra, seed)


CAPPED = {
    # 30 bins in clusters of 7 leave a last cluster of 2 bins
    "clustered-short-last-cluster-cap2": lambda: ClusteredPolicy(ClusterConfig(7, 2)),
    "clustered-cap1": lambda: ClusteredPolicy(ClusterConfig(3, 1)),
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_traced_run_is_the_step_walk_through_capped_counters(name):
    live = _assert_traced_run_is_the_step_walk(CAPPED[name], 30, 400, 17)
    assert max(live.snapshot()) == live.config.counter_cap


def _builder(name):
    if name.startswith("advice-T"):
        return lambda: make_policy("advice", threshold=int(name[len("advice-T"):]))
    return lambda: make_policy(name)


@pytest.mark.parametrize("n, balls", [(1, 1), (1, 300), (16, 5000), (300, 40_000)])
@pytest.mark.parametrize(
    "name", [p for p in POLICY_NAMES if p != "advice"] + ["advice-T1", "advice-T5"]
)
def test_traced_run_is_the_step_walk_with_few_bins(name, n, balls):
    """n = 1, and balls >> n, where nearly every step waits its turn; 40,000
    balls also cross the pieces the id column is derived in."""
    assert 40_000 > 2 * policies._ID_CHUNK
    _assert_traced_run_is_the_step_walk(_builder(name), n, balls, n + balls)


@pytest.mark.parametrize("balls", [2 * core.STREAM_CHUNK + d for d in (-1, 0, 1)])
@pytest.mark.parametrize("n", [1024, 1000])
@pytest.mark.parametrize("name", POLICY_NAMES)
def test_traced_run_across_chunk_edges_is_the_one_shot_run(name, n, balls):
    """A traced run walks its streams a chunk at a time and carries the id
    key and memory row from chunk to chunk. Its columns are the one-shot
    run's: the drawn offers, one ``run_bulk`` over the whole draw and one
    ``_trace_ids`` from the reset state, whose end key is the final state's
    id. n = 1000 places the later streams by a discarded pass, 1024 by
    arithmetic."""
    build = _builder("advice-T2" if name == "advice" else name)
    config = SimConfig(n=n, seed=n + balls, balls=balls, record_trace=True)
    live = build()
    result = simulate_run(config, live)
    pa, pb, ties = draw_run_streams(config)
    oracle = build()
    oracle.reset(n, balls)
    key, held = oracle.state_id(), oracle.snapshot()
    loads = np.zeros(n, dtype=np.int64)
    chosen = oracle.run_bulk(loads, pa, pb, ties)
    ids = np.empty(balls, dtype=np.uint64)
    assert oracle._trace_ids(key, held, chosen, ids) == live.state_id()
    trace = result.trace
    assert np.array_equal(trace.bin_a, pa) and np.array_equal(trace.bin_b, pb)
    assert np.array_equal(trace.chosen, chosen)
    assert np.array_equal(trace.ids, ids)
    assert result.loads == loads.tolist()
    assert oracle.snapshot().tolist() == live.snapshot().tolist()


@pytest.mark.parametrize(
    "n, balls",
    [(1, 126), (1, 127), (1, 128), (2, 126), (2, 127), (2, 128),
     (1, 32_766), (1, 32_767), (1, 32_768), (2, 32_767)],
)
@pytest.mark.parametrize("name", ["greedy", "advice-T5"])
def test_traced_run_is_the_step_walk_at_the_type_edges(name, n, balls):
    """The memory and the loads are held in the narrowest type that holds
    ``balls`` plus one: at n = 1 one bin takes every ball, and its value
    reaches that type's largest but one (int8 at 126 balls, int16 at
    32,766)."""
    _assert_traced_run_is_the_step_walk(_builder(name), n, balls, balls)


@pytest.mark.parametrize("cap", [126, 127, 128])
@pytest.mark.parametrize("size", [1, 2])
def test_traced_run_is_the_step_walk_through_counters_at_the_type_edges(cap, size):
    """A counter capped at 126 is held in int8, one capped at 127 or 128 in
    int16; every counter here reaches its cap."""
    live = _assert_traced_run_is_the_step_walk(
        lambda: ClusteredPolicy(ClusterConfig(size, cap)), 2, 3 * cap, cap
    )
    assert min(live.snapshot()) == cap


def test_trace_reads_as_a_sequence_of_records():
    trace = Trace([2**64 - 1, 5, 0], [1, 2, 3], [4, 5, 6], [1, 5, 6])
    steps = [
        StepRecord(0, 2**64 - 1, 1, 4, 1), StepRecord(1, 5, 2, 5, 5), StepRecord(2, 0, 3, 6, 6)
    ]
    assert len(trace) == 3
    assert records(trace) == steps
    assert all(type(v) is int for rec in records(trace) for v in rec.__dict__.values())
    assert trace == Trace(*trace.columns)
    assert trace != Trace(*(c[:2] for c in trace.columns))
    assert trace != Trace(*(c[[0, 1, 1]] for c in trace.columns))
    assert trace != steps  # a trace equals only a trace


# ---------------------------------------------------------------------------
# trace and result text


def _csv_module_text(trace) -> str:
    """The trace CSV as the csv module writes it: the oracle for the writer."""
    f = io.StringIO(newline="")
    w = csv.writer(f, lineterminator="\n")
    w.writerow(TRACE_COLUMNS)
    for r in records(trace):
        w.writerow((r.step, r.memory_state_id, r.bin_a, r.bin_b, r.chosen))
    return f.getvalue()


def _extreme_trace(rows: int, seed: int) -> Trace:
    """Ids over all of uint64 (2^63 and up included), bins over all of int64."""
    rng = np.random.default_rng(seed)
    edges = [0, 1, 9, 10, 9999, 10_000, 2**63 - 1, 2**63, 2**64 - 1]
    drawn = rng.integers(0, 2**64 - 1, rows, dtype=np.uint64, endpoint=True)
    ids = np.concatenate([np.array(edges, dtype=np.uint64), drawn])
    edges = [0, -1, 9, -10, 10_000, -(2**63), 2**63 - 1, -9999, 5, 50, 500, 5000]
    bins = [
        np.concatenate([edges, rng.integers(-(2**63), 2**63 - 1, rows, endpoint=True)])
        for _ in range(3)
    ]
    return Trace(*(column[:rows] for column in (ids, *bins)))


@pytest.mark.parametrize("rows", [0, 1, 7, 5000, 3 * core._IO_ROWS + 5])
def test_trace_csv_is_the_csv_module_text_and_reads_back(tmp_path, rows):
    trace = _extreme_trace(rows, rows)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    assert path.read_bytes() == _csv_module_text(trace).encode()
    back = read_trace_csv(str(path))
    assert back == trace
    assert back.ids.tolist() == trace.ids.tolist()  # exact above 2^63


@pytest.mark.parametrize("name", ["greedy", "clustered", "advice", "illegal-fixture"])
def test_run_traces_are_the_csv_module_text(tmp_path, name):
    policy = make_policy(name, threshold=2) if name == "advice" else make_policy(name)
    r = simulate_run(SimConfig(n=300, seed=3, balls=20_000, record_trace=True), policy)
    path = tmp_path / "trace.csv"
    write_trace_csv(r.trace, str(path))
    assert path.read_bytes() == _csv_module_text(r.trace).encode()
    assert read_trace_csv(str(path)) == r.trace


def _write_json_text(result: RunResult) -> str:
    f = io.StringIO()
    result.write_json(f)
    return f.getvalue()


def _json_module_text(result: RunResult) -> str:
    d = {"n": len(result.loads), "max_load": result.max_load, "loads": result.loads}
    if result.trace is not None:
        d["trace"] = [
            [r.step, r.memory_state_id, r.bin_a, r.bin_b, r.chosen] for r in records(result.trace)
        ]
    return json.dumps(d)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("n, balls", [(1, 1), (5, 3), (3 * 4096 + 1, 3 * 4096 + 1), (64, 20_000)])
def test_run_result_json_is_the_json_module_text(n, balls, traced):
    r = simulate_run(SimConfig(n=n, seed=n + balls, balls=balls, record_trace=traced),
                     make_policy("greedy"))
    assert _write_json_text(r) == _json_module_text(r)
    back = json.loads(_write_json_text(r))
    assert (back["n"], back["max_load"], back["loads"]) == (n, r.max_load, r.loads)
    assert [StepRecord(*row) for row in back.get("trace", [])] == (records(r.trace) if traced else [])
    extreme = RunResult(loads=[0, 10**18, 7], max_load=10**18, trace=_extreme_trace(9000, 1))
    assert _write_json_text(extreme) == _json_module_text(extreme)


def test_header_only_trace_reads_as_empty(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(Trace([], [], [], []), str(path))
    assert path.read_text() == "step,memory_state_id,bin_a,bin_b,chosen\n"
    trace = read_trace_csv(str(path))
    assert len(trace) == 0 and records(trace) == []
    path.write_text("step,memory_state_id,bin_a,bin_b,chosen")  # no newline either
    assert records(read_trace_csv(str(path))) == []


def _trace_file(tmp_path, rows):
    trace = simulate_run(SimConfig(n=64, seed=2, balls=rows, record_trace=True),
                         make_policy("greedy")).trace
    path = tmp_path / "t.csv"
    write_trace_csv(trace, str(path))
    return trace, path, path.read_text().splitlines()


def _write_lines(path, lines, end="\n"):
    path.write_text("".join(line + end for line in lines))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines, k: lines[:k] + [""] + lines[k:],
         "a trace row needs 5 integer fields, got []"),
        (lambda lines, k: lines[:k] + [lines[k] + ",1"] + lines[k + 1:], "needs 5 integer fields"),
        (lambda lines, k: lines[:k] + [lines[k].replace(",", ",x", 1)] + lines[k + 1:],
         "needs 5 integer fields"),
        (lambda lines, k: lines[:k] + ["{},-1,1,2,1".format(k - 1)] + lines[k + 1:],
         "needs 5 integer fields"),
        (lambda lines, k: lines[:k] + ["{},{},1,2,1".format(k - 1, 2**64)] + lines[k + 1:],
         "needs 5 integer fields"),
    ],
    ids=["blank-line", "six-fields", "not-a-number", "negative-id", "id-past-uint64"],
)
@pytest.mark.parametrize("k", [1, 40_000])
def test_trace_read_names_the_bad_line_in_any_block(tmp_path, edit, message, k):
    """Line k + 1 of the file (row k - 1) is bad; at k = 40,000 it lies past
    the first block the reader parses."""
    _, path, lines = _trace_file(tmp_path, 50_000)
    _write_lines(path, edit(lines, k))
    with pytest.raises(ValueError, match=rf":{k + 1}: a trace row ") as info:
        read_trace_csv(str(path))
    assert message in str(info.value)


@pytest.mark.parametrize("k", [1, 40_000])
def test_trace_read_refuses_misnumbered_steps_in_any_block(tmp_path, k):
    _, path, lines = _trace_file(tmp_path, 50_000)
    swapped = lines[:k] + [lines[k + 1], lines[k]] + lines[k + 2:]
    _write_lines(path, swapped)
    with pytest.raises(ValueError, match=f"^trace step {k - 1} is numbered {k}$"):
        read_trace_csv(str(path))
    renumbered = lines[:k] + ["99" + lines[k][lines[k].index(","):]] + lines[k + 1:]
    _write_lines(path, renumbered)
    with pytest.raises(ValueError, match=f"^trace step {k - 1} is numbered 99$"):
        read_trace_csv(str(path))


def test_trace_read_takes_crlf_lines_and_a_missing_last_newline(tmp_path):
    trace, path, lines = _trace_file(tmp_path, 300)
    _write_lines(path, lines, end="\r\n")
    assert read_trace_csv(str(path)) == trace
    path.write_text("\n".join(lines))
    assert read_trace_csv(str(path)) == trace


@pytest.mark.parametrize("name", ["greedy", "clustered", "advice"])
def test_traced_run_memory_is_its_columns(tmp_path, name):
    """A traced run holds 32 B per ball: its four columns, filled a chunk of
    streams at a time. The bound allows as much again for the O(n) memory,
    the chunk and the blocks the run and the writer work in. The list of per-step record objects a trace used to be peaked
    at ~300 B per ball for greedy here."""
    n, balls = 1 << 14, 1 << 17
    policy = make_policy(name, threshold=2) if name == "advice" else make_policy(name)
    config = SimConfig(n=n, seed=5, balls=balls, record_trace=True)
    tracemalloc.start()
    try:
        result = simulate_run(config, policy)
        write_trace_csv(result.trace, str(tmp_path / "t.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.trace) == balls
    assert peak < 66 * balls


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=200))
def test_histogram_is_the_level_count(loads):
    assert load_histogram(loads) == dict(sorted(Counter(loads).items()))
    assert list(load_histogram(loads)) == sorted(set(loads))
