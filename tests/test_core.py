"""Engine contracts: conservation, legality, determinism, pair uniformity."""

import dataclasses
import hashlib
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballast import (
    ClusterConfig,
    ClusteredPolicy,
    PhaseConfig,
    SimConfig,
    Trace,
    load_histogram,
    make_policy,
    phase_report,
    probe_states,
    read_trace_csv,
    run_phase_report,
    simulate_run,
    trial_seed,
    write_trace_csv,
)
from ballast import core, policies
from ballast.core import STREAM_CHUNK, stream_chunks

from oracles import (
    StepRecord,
    any_policy_builder,
    draw_run_streams,
    exact_memory,
    play,
    records,
    reference_two_choice,
    replay,
)

LEGAL_POLICIES = ["one-choice", "greedy", "clustered", "max-index", "min-index"]


def _policy(name):
    if name == "advice":
        return make_policy(name, threshold=2)
    return make_policy(name)


def test_config_rejects_zero_bins():
    with pytest.raises(ValueError):
        SimConfig(n=0, seed=1)


def test_config_rejects_zero_balls():
    with pytest.raises(ValueError):
        SimConfig(n=4, seed=1, balls=0)


def test_config_rejects_bad_seed():
    with pytest.raises(ValueError):
        SimConfig(n=4, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(n=4, seed=2**64)


def test_balls_defaults_to_n():
    assert SimConfig(n=7, seed=0).balls == 7


def test_single_bin_single_ball():
    r = simulate_run(SimConfig(n=1, seed=9), make_policy("greedy"))
    assert r.loads == [1]
    assert r.max_load == 1


def test_small_greedy_conservation():
    r = simulate_run(SimConfig(n=4, seed=5), make_policy("greedy"))
    assert sum(r.loads) == 4
    assert r.max_load <= 4


def test_same_seed_bit_identical():
    cfg = SimConfig(n=4, seed=1234, record_trace=True)
    r1 = simulate_run(cfg, make_policy("greedy"))
    r2 = simulate_run(cfg, make_policy("greedy"))
    assert r1.loads == r2.loads
    assert r1.max_load == r2.max_load
    assert r1.trace == r2.trace


def test_greedy_mean_matches_reference_band():
    # Band frozen from 20 trials of reference_two_choice at n=2^17
    # (per-trial maxima all in {3, 4}, mean 3.35); see oracles.py.
    n = 1 << 17
    maxima = []
    for t in range(20):
        r = simulate_run(SimConfig(n=n, seed=trial_seed(77, t)), make_policy("greedy"))
        maxima.append(r.max_load)
    mean = sum(maxima) / len(maxima)
    assert 3.0 <= mean <= 3.8
    assert all(m in (3, 4) for m in maxima)


def test_reference_oracle_stays_in_its_band():
    # Re-derive a slice of the frozen band at reduced cost.
    maxima = [max(reference_two_choice(1 << 14, 1 << 14, 400 + t)) for t in range(5)]
    assert all(3 <= m <= 5 for m in maxima)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 64),
    extra=st.integers(0, 64),
    seed=st.integers(0, 2**64 - 1),
    name=st.sampled_from(LEGAL_POLICIES + ["advice"]),
)
def test_conservation_property(n, extra, seed, name):
    balls = n + extra
    r = simulate_run(SimConfig(n=n, seed=seed, balls=balls), _policy(name))
    assert sum(r.loads) == balls
    assert all(v >= 0 for v in r.loads)
    assert r.max_load == max(r.loads)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 32),
    seed=st.integers(0, 2**64 - 1),
    name=st.sampled_from(LEGAL_POLICIES + ["advice"]),
)
def test_trace_legality_property(n, seed, name):
    r = simulate_run(SimConfig(n=n, seed=seed, balls=2 * n, record_trace=True), _policy(name))
    for rec in records(r.trace):
        assert rec.chosen in (rec.bin_a, rec.bin_b)
        assert 0 <= rec.bin_a < n
        assert 0 <= rec.bin_b < n


@pytest.mark.parametrize("name", LEGAL_POLICIES + ["advice"])
def test_bulk_path_equals_traced_path(name):
    for seed in (0, 1, 99):
        cfg_fast = SimConfig(n=48, seed=seed, balls=192)
        cfg_slow = SimConfig(n=48, seed=seed, balls=192, record_trace=True)
        fast = simulate_run(cfg_fast, _policy(name))
        slow = simulate_run(cfg_slow, _policy(name))
        assert fast.loads == slow.loads


@settings(max_examples=80, deadline=None)
@given(
    build=any_policy_builder(),
    n=st.integers(1, 24),
    extra=st.integers(0, 72),
    seed=st.integers(0, 2**64 - 1),
    cut=st.integers(0, 96),
)
def test_run_bulk_matches_decide_update(build, n, extra, seed, cut):
    """The fast path and the rule the verifier checks are the same rule."""
    balls = n + extra
    pa, pb, ties = draw_run_streams(SimConfig(n=n, seed=seed, balls=balls))
    cut = min(cut, balls)
    fast, slow = build(), build()
    fast.reset(n, balls)
    slow.reset(n, balls)
    fast_loads, slow_loads = np.zeros(n, dtype=np.int64), [0] * n
    fast.run_bulk(fast_loads, pa[:cut], pb[:cut], ties[:cut])
    fast.run_bulk(fast_loads, pa[cut:], pb[cut:], ties[cut:])
    for a, b, r in zip(pa, pb, ties):
        c = slow.decide((a, b), r)
        slow_loads[c] += 1
        slow.update((a, b), c)
    assert fast_loads.tolist() == slow_loads
    assert fast.snapshot().tolist() == slow.snapshot().tolist()
    assert exact_memory(fast) == exact_memory(slow)
    assert fast.memory_bits(n, balls) == slow.memory_bits(n, balls)


BLOCK_POLICIES = {
    "greedy": lambda: make_policy("greedy"),
    "clustered-default": lambda: make_policy("clustered"),
    # cap 1 and cap 2 saturate early; 7 does not divide n, so the last cluster is short
    "clustered-cap1": lambda: ClusteredPolicy(ClusterConfig(7, 1)),
    "clustered-cap2": lambda: ClusteredPolicy(ClusterConfig(7, 2)),
    "advice-T1": lambda: make_policy("advice", threshold=1),
    "advice-T5": lambda: make_policy("advice", threshold=5),
}


@pytest.mark.parametrize("n, balls", [(16, 5000), (4096, 6144), (1 << 17, 3 << 16)])
@pytest.mark.parametrize("name", sorted(BLOCK_POLICIES))
def test_run_bulk_matches_decide_update_across_blocks(name, n, balls):
    """At n = 16 every step of a block is decided in order; at the larger n
    most steps are batched, over several rounds per block.
    run_bulk is split at 0, at cuts inside blocks and at balls."""
    pa, pb, ties = draw_run_streams(SimConfig(n=n, seed=n + 11, balls=balls))
    fast, slow = BLOCK_POLICIES[name](), BLOCK_POLICIES[name]()
    fast.reset(n, balls)
    slow.reset(n, balls)
    fast_loads = np.zeros(n, dtype=np.int64)
    cuts = [0, 0, 1, 777, balls // 3 + 5, balls // 3 + 6, balls - 2, balls, balls]
    for lo, hi in zip(cuts, cuts[1:]):
        fast.run_bulk(fast_loads, pa[lo:hi], pb[lo:hi], ties[lo:hi])
    slow_loads = [0] * n
    for a, b, r in zip(pa.tolist(), pb.tolist(), ties.tolist()):
        c = slow.decide((a, b), r)
        slow_loads[c] += 1
        slow.update((a, b), c)
    assert fast_loads.tolist() == slow_loads
    assert fast.snapshot().tolist() == slow.snapshot().tolist()
    assert exact_memory(fast) == exact_memory(slow)
    assert fast.memory_bits(n, balls) == slow.memory_bits(n, balls)
    if name.startswith("clustered-cap"):
        assert max(slow.snapshot()) == slow.config.counter_cap  # the cap was reached


def _carry_offers(slots, width, block, blocks, tail, seed):
    """Offers over ``blocks`` blocks of ``block`` steps on ``slots`` memory
    slots of ``width`` bins. Each block's last ``tail`` steps offer slots its
    middle steps offered, so they are left over once the rest are batched,
    and each next block's first ``tail`` steps offer the slots of those."""
    rng = np.random.default_rng(seed)
    sa, sb, left = [], [], None
    for _ in range(blocks):
        pairs = rng.permutation(slots)[: 2 * (block - tail)].reshape(-1, 2)
        if left is not None:
            pairs[:tail, 0] = left
        repeats = np.stack((pairs[tail : 2 * tail, 0], pairs[2 * tail : 3 * tail, 1]), axis=1)
        pairs = np.concatenate((pairs, repeats))
        left = repeats[:, 0]
        sa.append(pairs[:, 0])
        sb.append(pairs[:, 1])
    slot_a, slot_b = np.concatenate(sa), np.concatenate(sb)
    bins = [s * width + rng.integers(0, width, len(s)) for s in (slot_a, slot_b)]
    return (*bins, rng.integers(0, 2, len(slot_a)).astype(np.uint8))


CARRY_POLICIES = {
    "greedy": (lambda: make_policy("greedy"), 1),
    "clustered-cap1": (lambda: ClusteredPolicy(ClusterConfig(3, 1)), 3),
    "advice-T1": (lambda: make_policy("advice", threshold=1), 1),
}


@pytest.mark.parametrize("cut_blocks", [(), (1,), (1, 2)])
@pytest.mark.parametrize("name", sorted(CARRY_POLICIES))
def test_steps_carried_to_the_next_block_match_decide_update(name, cut_blocks, monkeypatch):
    """A block's last steps are too few to batch, so they wait at the head of
    the next block, whose first steps share their slots. Only the last block
    of each run_bulk call decides steps in order, including a call cut right
    after a block that carried steps."""
    slots, tail, blocks = 4096, 8, 3
    block = 4 * math.isqrt(slots) + 1024  # the block length of _decide_blocks
    build, width = CARRY_POLICIES[name]
    n, balls = slots * width, blocks * block
    pa, pb, ties = _carry_offers(slots, width, block, blocks, tail, seed=len(name))
    in_order = []
    decide_in_order = policies._decide_in_order

    def counted(mem, sa, *rest):
        in_order.append(len(sa))
        return decide_in_order(mem, sa, *rest)

    monkeypatch.setattr(policies, "_decide_in_order", counted)
    fast, slow = build(), build()
    fast.reset(n, balls)
    slow.reset(n, balls)
    fast_loads = np.zeros(n, dtype=np.int64)
    cuts = [0, *(k * block for k in cut_blocks), balls]
    for lo, hi in zip(cuts, cuts[1:]):
        fast.run_bulk(fast_loads, pa[lo:hi], pb[lo:hi], ties[lo:hi])
    assert len(in_order) == len(cuts) - 1 and max(in_order) < policies._BATCH_MIN
    slow_loads = [0] * n
    for a, b, r in zip(pa.tolist(), pb.tolist(), ties.tolist()):
        c = slow.decide((a, b), r)
        slow_loads[c] += 1
        slow.update((a, b), c)
    assert fast_loads.tolist() == slow_loads
    assert fast.snapshot().tolist() == slow.snapshot().tolist()
    assert exact_memory(fast) == exact_memory(slow)


# sha256 of json.dumps([pa, pb, ties]) for the one-shot Philox draws: the
# bit-replay contract (the first three date from when draw_run_streams
# returned lists; the last three span several chunks of the stream walk, the
# last one at a power-of-two n)
STREAM_DIGESTS = {
    (1000, 12345, 5000): "9df76da6c6c0f4ea5d2ee7d9c3f1080a47b83c452a0c6279ce8ab61868c1ead4",
    (1 << 20, 2**64 - 1, 4096): "a037df390db909ca14c70ec7d2c882c58bf3ed26a947b35b25d2f6c058d6d2c4",
    (3, 0, 4097): "0300d8d30521e45f9687cfbe4782a0a7c0407cf27037b61e7d72c38595702eac",
    (999_983, 7, 3 * (1 << 16) + 1): "8d2fce78c3919c0506ed776d64775ba01640f836598ab5fc58524766afbd6dfe",
    ((1 << 40) + 3, 5, (1 << 16) + 1): "2de2a37437594cab25bf3563c3a700c2e770ad2b0660681a083333202744830e",
    (1 << 20, 11, 2 * (1 << 16) + 3): "cef8b0e88fb32662b6a44538c070178f528922ff81af71ffdba07689dd187d55",
}


@pytest.mark.parametrize("n, seed, balls", sorted(STREAM_DIGESTS))
def test_stream_arrays_keep_the_one_shot_draws(n, seed, balls):
    pa, pb, ties = draw_run_streams(SimConfig(n=n, seed=seed, balls=balls))
    assert [v.dtype for v in (pa, pb, ties)] == [np.int64, np.int64, np.uint8]
    assert all(len(v) == balls for v in (pa, pb, ties))
    values = json.dumps([pa.tolist(), pb.tolist(), ties.tolist()]).encode()
    assert hashlib.sha256(values).hexdigest() == STREAM_DIGESTS[(n, seed, balls)]


def _walked(config):
    chunks = list(stream_chunks(config))
    assert all(len(c[0]) == core.STREAM_CHUNK for c in chunks[:-1])
    return [np.concatenate([c[k] for c in chunks]) for k in range(3)]


@pytest.mark.parametrize("n, seed, balls", sorted(STREAM_DIGESTS))
def test_stream_walk_keeps_the_stream_digests(n, seed, balls):
    pa, pb, ties = _walked(SimConfig(n=n, seed=seed, balls=balls))
    values = json.dumps([pa.tolist(), pb.tolist(), ties.tolist()]).encode()
    assert hashlib.sha256(values).hexdigest() == STREAM_DIGESTS[(n, seed, balls)]


# powers of two (1, 2, 2^20, 2^31, 2^32, 2^33, 2^40, 2^62) place the streams by
# arithmetic, through numpy's 32-bit Lemire path, its full-range 32-bit path at
# 2^32 and its 64-bit path; the other n walk a discarded pass; a run of one
# chunk is placed as a longer one is
@pytest.mark.parametrize("n", [1, 2, 3, 1000, 999_983, 1 << 20, 1 << 31, 1 << 32,
                               (1 << 32) + 7, 1 << 33, 1 << 40, 1 << 62])
@pytest.mark.parametrize("balls", [1, STREAM_CHUNK - 1, STREAM_CHUNK, STREAM_CHUNK + 1,
                                   2 * STREAM_CHUNK + 6, 3 * STREAM_CHUNK + 5])
def test_stream_walk_equals_the_one_shot_draw(n, balls):
    config = SimConfig(n=n, seed=(n * 31 + balls) % 2**64, balls=balls)
    walked, drawn = _walked(config), draw_run_streams(config)
    assert [v.dtype for v in walked] == [v.dtype for v in drawn]
    assert all(np.array_equal(w, d) for w, d in zip(walked, drawn))


@pytest.mark.parametrize("n, passes", [(1 << 20, 0), (1 << 40, 0), (1, 0), (1000, 2), (3, 2)])
def test_only_other_n_walk_a_discarded_pass(n, passes, monkeypatch):
    """A power-of-two n draws the three streams and at most 7 values to place
    each generator; any other n also draws bin_a and bin_b once to discard."""
    drawn = []
    draw = core._draw

    def counted(rng, n, k, size):
        drawn.append(size)
        return draw(rng, n, k, size)

    monkeypatch.setattr(core, "_draw", counted)
    balls = 2 * STREAM_CHUNK + 7
    list(stream_chunks(SimConfig(n=n, seed=1, balls=balls)))
    assert 0 <= sum(drawn) - (3 + passes) * balls < 2 * 8


def test_stream_walk_keeps_nothing_per_chunk():
    """The first chunk costs the same with 10 chunks ahead and with 10^6: the
    walk holds no list of chunk sizes, which took 9.9 MiB at 10^6 chunks."""
    next(stream_chunks(SimConfig(n=16, balls=2 * STREAM_CHUNK)))  # warm numpy's caches first
    peaks = []
    for chunks in (10, 10**6):
        tracemalloc.start()
        try:
            next(stream_chunks(SimConfig(n=16, balls=chunks * STREAM_CHUNK)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 4096


def test_stream_chunk_is_a_multiple_of_four(monkeypatch):
    """numpy draws the uint8 tie bits four to a 32-bit word and drops the
    rest at the end of each call, so only such chunks keep the tie stream."""
    assert STREAM_CHUNK > 0 and STREAM_CHUNK % 4 == 0
    config = SimConfig(n=1000, seed=12345, balls=5 * 4097)
    drawn = draw_run_streams(config)
    for chunk, equal in ((4096, True), (4097, False)):
        monkeypatch.setattr(core, "STREAM_CHUNK", chunk)
        pa, pb, ties = _walked(config)
        assert np.array_equal(pa, drawn[0]) and np.array_equal(pb, drawn[1])
        assert np.array_equal(ties, drawn[2]) is equal


def test_segmented_run_cuts_at_and_around_chunk_edges():
    """run_bulk applied to the one-shot streams in pieces cut at and around
    the chunk edges chooses, piece by piece, what the chunked walk chose."""
    C = STREAM_CHUNK
    n, balls = 4096, 2 * C + 3
    config = SimConfig(n=n, seed=17, balls=balls)
    walked, chunks = core._walk_chunks(config, make_policy("greedy"))
    chunks = list(chunks)
    chosen = np.concatenate([c for _, _, c in chunks])
    streams = draw_run_streams(config)
    for k in (0, 1):  # the walk yields each chunk's offers with its chosen bins
        assert np.array_equal(np.concatenate([chunk[k] for chunk in chunks]), streams[k])
    p = make_policy("greedy")
    p.reset(n, balls)
    loads = np.zeros(n, dtype=np.int64)
    bounds = [1, C - 1, C, C + 1, 2 * C, balls]
    for lo, hi in zip([0] + bounds, bounds):
        assert np.array_equal(p.run_bulk(loads, *(v[lo:hi] for v in streams)), chosen[lo:hi])
        assert np.array_equal(loads, np.bincount(chosen[:hi], minlength=n))
    assert np.array_equal(loads, walked)
    assert loads.tolist() == simulate_run(config, make_policy("greedy")).loads


@pytest.mark.parametrize("name, phases", [("greedy", None), ("one-choice", 3)])
def test_untraced_run_memory_does_not_grow_with_balls(name, phases):
    """The one-shot streams alone take 17 B per ball; the chunked walk holds
    one chunk of them at a time (simulate_run, or run_phase_report reading
    its phase loads from the chunks)."""
    n, balls = 256, 8 * STREAM_CHUNK
    config = SimConfig(n=n, seed=5, balls=balls)
    expected = simulate_run(config, make_policy(name)).loads
    tracemalloc.start()
    try:
        if phases is None:
            result = simulate_run(config, make_policy(name))
        else:
            _, result = run_phase_report(config, make_policy(name), PhaseConfig(n=n, phases=phases))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.loads == expected
    assert peak < 17 * balls / 3


@pytest.mark.parametrize("n, threshold", [(4096, 2), (4096, 30), (1 << 17, 1), (16, 5)])
def test_advice_run_over_many_chunks_matches_decide_update(n, threshold):
    """The listed-bin count and pre-step list maximum advice keeps per chunk
    equal the step-by-step ones."""
    balls = 2 * STREAM_CHUNK + 3
    config = SimConfig(n=n, seed=n + threshold, balls=balls)
    fast = make_policy("advice", threshold=threshold)
    result = simulate_run(config, fast)
    slow = make_policy("advice", threshold=threshold)
    slow.reset(n, balls)
    loads = [0] * n
    for a, b, r in zip(*(v.tolist() for v in draw_run_streams(config))):
        c = slow.decide((a, b), r)
        loads[c] += 1
        slow.update((a, b), c)
    assert result.loads == loads
    assert fast.snapshot().tolist() == slow.snapshot().tolist()
    assert exact_memory(fast) == exact_memory(slow)
    assert fast.memory_bits(n, balls) == slow.memory_bits(n, balls) > 0


@pytest.mark.parametrize("name", ["one-choice", "greedy", "clustered", "advice", "max-index"])
def test_play_yields_ints_and_run_bulk_takes_lists_or_arrays(name):
    """The trace's records hold Python ints, and run_bulk takes the offers
    and tie bits as lists or arrays (the loads are always an array)."""
    n, balls = 64, 300
    config = SimConfig(n=n, seed=9, balls=balls, record_trace=True)
    r = simulate_run(config, _policy(name))
    fields = [getattr(rec, f.name) for rec in records(r.trace) for f in dataclasses.fields(rec)]
    assert all(type(v) is int for v in fields)
    assert all(type(v) is int for v in r.loads)

    streams = draw_run_streams(config)
    outcomes = []
    for as_lists in (False, True):
        p = _policy(name)
        p.reset(n, balls)
        loads = np.zeros(n, dtype=np.int64)
        for lo, hi in ((0, 100), (100, balls)):
            p.run_bulk(loads, *(v[lo:hi].tolist() if as_lists else v[lo:hi] for v in streams))
        outcomes.append((loads.tolist(), p.snapshot().tolist(), p.memory_bits(n, balls)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == r.loads


@settings(max_examples=60, deadline=None)
@given(
    build=any_policy_builder(),
    n=st.integers(3, 16),
    extra=st.integers(0, 32),
    seed=st.integers(0, 2**64 - 1),
    where=st.integers(0, 2**16),
    pick=st.integers(0, 2**16),
)
def test_replay_accepts_own_traces_and_refuses_impossible_steps(build, n, extra, seed, where, pick):
    """The proof and the replay oracle accept every trace simulate_run
    writes, and so does the id proof; both refuse a step the rule could not
    have taken, at that step."""
    balls = n + extra
    live = build()
    trace = simulate_run(SimConfig(n=n, seed=seed, balls=balls, record_trace=True), live).trace
    steps = records(trace)
    replayed = build()
    walked = []
    for t, c in enumerate(replay(replayed, trace, n)):
        # between yields the policy is in the state that decided the step
        walked.append(StepRecord(t, replayed.state_id(), steps[t].bin_a, steps[t].bin_b, c))
    assert walked == steps
    assert exact_memory(replayed) == exact_memory(live)
    core._prove_steps(build(), trace, n)
    core._prove_ids(build(), trace, n)

    t = where % balls
    probe = build()
    for step, _ in enumerate(replay(probe, trace, n)):
        if step == t:
            break
    pair = (steps[t].bin_a, steps[t].bin_b)
    possible = {probe.decide(pair, 0), probe.decide(pair, 1)}
    impossible = [b for b in range(n) if b not in possible]
    chosen = trace.chosen.copy()
    chosen[t] = impossible[pick % len(impossible)]
    forged = Trace(trace.ids, trace.bin_a, trace.bin_b, chosen)
    with pytest.raises(ValueError, match=rf"^trace step {t} chooses bin "):
        list(replay(build(), forged, n))
    with pytest.raises(ValueError, match=rf"^trace step {t} chooses bin "):
        core._prove_steps(build(), forged, n)


def _outcome(prove):
    try:
        prove()
    except ValueError as exc:
        return str(exc)
    return None


_forgery = st.tuples(
    st.sampled_from(["bin_a", "bin_b", "chosen"]),
    st.integers(0, 2**16),
    st.one_of(st.integers(-3, 20), st.sampled_from([-(2**63), 2**62, 2**63 - 1])),
)


@settings(max_examples=150, deadline=None)
@given(
    build=any_policy_builder(),
    n=st.integers(1, 16),
    extra=st.integers(0, 40),
    seed=st.integers(0, 2**64 - 1),
    forgeries=st.lists(_forgery, max_size=3),
    piece=st.integers(1, 20),
)
def test_array_proof_is_the_replay_oracle(build, n, extra, seed, forgeries, piece):
    """The array proof accepts and refuses what the per-step replay does,
    naming the same first step with the same message, on simulate_run
    traces and on traces forged at any step: a chosen bin the rule could
    or could not have picked, one outside 0..n-1, and offers of foreign
    bins. The proof's walk is cut into pieces of ``piece`` steps."""
    balls = n + extra
    trace = simulate_run(SimConfig(n=n, seed=seed, balls=balls, record_trace=True), build()).trace
    columns = {"bin_a": trace.bin_a.copy(), "bin_b": trace.bin_b.copy(), "chosen": trace.chosen.copy()}
    for column, where, value in forgeries:
        columns[column][where % balls] = value
    forged = Trace(trace.ids, columns["bin_a"], columns["bin_b"], columns["chosen"])
    want = _outcome(lambda: list(replay(build(), forged, n)))
    with mock.patch.object(policies, "_ID_CHUNK", piece):
        assert _outcome(lambda: core._prove_steps(build(), forged, n)) == want
    if not forgeries:
        assert want is None


@pytest.mark.parametrize("name", ["greedy", "clustered", "advice"])
def test_step_walks_ask_no_state_id(name, monkeypatch):
    """The trace proof and the probe's state walk read the chosen bins
    without asking for a state id."""
    n, balls = 16, 64
    config = SimConfig(n=n, seed=3, balls=balls, record_trace=True)
    trace = simulate_run(config, _policy(name)).trace
    states = list(probe_states(_policy(name), n, balls, seed=3))

    def refuse(self):
        raise AssertionError("a step walk asked for a state id")

    monkeypatch.setattr(policies.GreedyTwoChoicePolicy, "state_id", refuse)
    core._prove_steps(_policy(name), trace, n)
    got = list(probe_states(_policy(name), n, balls, seed=3))
    assert [s.tolist() for s in got] == [s.tolist() for s in states]


def test_replay_refuses_foreign_bins():
    trace = simulate_run(SimConfig(n=8, seed=1, record_trace=True), make_policy("greedy")).trace
    bin_b = trace.bin_b.copy()
    bin_b[3] = 8
    foreign = Trace(trace.ids, trace.bin_a, bin_b, trace.chosen)
    with pytest.raises(ValueError, match=r"trace step 3 offers bins \(\d+, 8\) outside 0..7"):
        list(replay(make_policy("greedy"), foreign, 8))
    with pytest.raises(ValueError, match=r"trace step 3 offers bins \(\d+, 8\) outside 0..7"):
        core._prove_steps(make_policy("greedy"), foreign, 8)


def test_segmented_run_matches_plain_run():
    """A live phase report throws the balls past its last phase too: its
    run is the plain run, and its sizes are the traced run's."""
    cfg = SimConfig(n=32, seed=7, balls=128)
    pc = PhaseConfig(n=32, phases=4)
    plain = simulate_run(cfg, make_policy("greedy"))
    report, result = run_phase_report(cfg, make_policy("greedy"), pc)
    assert result == plain
    traced = simulate_run(dataclasses.replace(cfg, record_trace=True), make_policy("greedy"))
    assert report == phase_report(traced.trace, pc)


def test_pair_draws_are_uniform():
    # chi-square over all 16 ordered pairs at n=4, plus a 5-sigma binomial
    # band per pair; fixed seed keeps this deterministic.
    n, balls = 4, 160_000
    pa, pb, _ = draw_run_streams(SimConfig(n=n, seed=20260810, balls=balls))
    counts = [0] * (n * n)
    for a, b in zip(pa, pb):
        counts[a * n + b] += 1
    expected = balls / (n * n)
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 37.70  # chi-square(15) at p=0.001
    sigma = math.sqrt(balls * (1 / 16) * (15 / 16))
    for c in counts:
        assert abs(c - expected) <= 5 * sigma


def test_pair_distribution_allows_repeats():
    pa, pb, _ = draw_run_streams(SimConfig(n=2, seed=3, balls=512))
    assert any(a == b for a, b in zip(pa, pb))


def test_max_load_and_histogram_examples():
    assert load_histogram([2, 0, 1]) == {0: 1, 1: 1, 2: 1}
    assert load_histogram([1, 1, 1]) == {1: 3}
    assert load_histogram([0, 0]) == {0: 2}
    with pytest.raises(ValueError):
        load_histogram([])


def test_histogram_counts_sum_to_n():
    r = simulate_run(SimConfig(n=50, seed=8, balls=200), make_policy("clustered"))
    hist = load_histogram(r.loads)
    assert sum(hist.values()) == 50
    assert sum(level * count for level, count in hist.items()) == 200


def test_run_result_json_round_trip():
    r = simulate_run(SimConfig(n=8, seed=4, record_trace=True), make_policy("greedy"))
    f = io.StringIO()
    r.write_json(f)
    back = json.loads(f.getvalue())
    assert back["loads"] == r.loads
    assert back["max_load"] == r.max_load
    assert [StepRecord(*row) for row in back["trace"]] == records(r.trace)


def test_trace_csv_round_trip(tmp_path):
    r = simulate_run(SimConfig(n=8, seed=4, record_trace=True), make_policy("clustered"))
    path = tmp_path / "trace.csv"
    write_trace_csv(r.trace, str(path))
    assert read_trace_csv(str(path)) == r.trace


def test_trial_seed_is_xor():
    assert trial_seed(0b1100, 0b1010) == 0b0110
    assert trial_seed(2**64 - 1, 1) == 2**64 - 2
