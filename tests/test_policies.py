"""Policy decision rules, memory accounting, and the advice oracle."""

import dataclasses
import inspect
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballast import (
    AdvicePolicy,
    ClusterConfig,
    ClusteredPolicy,
    SimConfig,
    default_cluster_config,
    int_width,
    make_policy,
    simulate_run,
)
from ballast import core, policies
from ballast.core import STREAM_CHUNK, draw_run_streams

from oracles import (
    ENUMERATED_POLICIES,
    advice_list,
    any_policy_builder,
    build_advice,
    changes_memory,
    choice_dist,
    exact_memory,
    key_oracle,
    play,
    rank_keys,
    records,
)


def test_one_choice_takes_first():
    p = make_policy("one-choice")
    p.reset(8, 8)
    assert p.decide((3, 7), 0) == 3
    assert p.decide((3, 7), 1) == 3
    assert p.decide((0, 0), 0) == 0


def test_greedy_picks_less_loaded():
    p = make_policy("greedy")
    p.reset(2, 8)
    p.restore((2, 5))
    assert p.decide((0, 1), 0) == 0
    assert p.decide((0, 1), 1) == 0
    assert p.decide((1, 0), 1) == 0


def test_greedy_tie_follows_tie_bit():
    p = make_policy("greedy")
    p.reset(2, 8)
    p.restore((4, 4))
    assert p.decide((0, 1), 0) == 0
    assert p.decide((0, 1), 1) == 1


def test_greedy_chosen_never_heavier_along_run():
    r = simulate_run(SimConfig(n=32, seed=11, balls=128, record_trace=True), make_policy("greedy"))
    loads = [0] * 32
    for rec in records(r.trace):
        other = rec.bin_b if rec.chosen == rec.bin_a else rec.bin_a
        assert loads[rec.chosen] <= loads[other]
        loads[rec.chosen] += 1


def test_clustered_example_decision():
    # n=8, clusters of 2: counters (3,1,0,0); pair (0,2) compares cluster 0
    # (count 3) with cluster 1 (count 1) and must take bin 2.
    p = ClusteredPolicy(ClusterConfig(cluster_size=2, counter_cap=8))
    p.reset(8, 8)
    p.restore((3, 1, 0, 0))
    assert p.decide((0, 2), 0) == 2
    assert p.decide((0, 2), 1) == 2


def test_clustered_same_cluster_pair_uses_tie_bit():
    p = ClusteredPolicy(ClusterConfig(cluster_size=2, counter_cap=8))
    p.reset(8, 8)
    p.restore((3, 1, 0, 0))
    assert p.decide((0, 1), 0) == 0
    assert p.decide((0, 1), 1) == 1


def test_clustered_chosen_cluster_never_heavier_along_run():
    p = ClusteredPolicy(ClusterConfig(cluster_size=4, counter_cap=16))
    r = simulate_run(SimConfig(n=32, seed=13, balls=256, record_trace=True), p)
    counters = [0] * 8
    cap = 16
    for rec in records(r.trace):
        other = rec.bin_b if rec.chosen == rec.bin_a else rec.bin_a
        cc, oc = rec.chosen // 4, other // 4
        if cc != oc:
            assert counters[cc] <= counters[oc]
        if counters[cc] < cap:
            counters[cc] += 1


def test_clustered_counters_saturate_at_cap():
    p = ClusteredPolicy(ClusterConfig(cluster_size=2, counter_cap=3))
    p.reset(4, 64)
    for _ in range(10):
        p.update((0, 1), 0)
    assert tuple(p.snapshot().tolist()) == (3, 0)


def test_cluster_config_geometry():
    cc = ClusterConfig(cluster_size=4, counter_cap=16)
    assert cc.counter_width == int_width(16) == 5
    assert cc.num_clusters(1024) == 256
    assert cc.num_clusters(1023) == 256  # last cluster may be smaller
    assert cc.total_bits(1024) == 1280
    with pytest.raises(ValueError):
        ClusterConfig(cluster_size=0, counter_cap=4)


def test_default_cluster_config_values():
    assert default_cluster_config(16) == ClusterConfig(2, 8)
    assert default_cluster_config(1 << 16) == ClusterConfig(4, 16)
    assert default_cluster_config(1 << 20) == ClusterConfig(5, 20)


def test_build_advice_examples():
    assert build_advice([0, 5, 2], 3).entries == ((1, 5),)
    assert build_advice([0, 0], 1).entries == ()
    assert build_advice([4, 4], 4).entries == ((0, 4), (1, 4))
    with pytest.raises(ValueError):
        build_advice([1, 2], 0)


def test_advice_list_serializes():
    adv = build_advice([0, 5, 2], 3)
    assert adv.to_dict() == {"threshold": 3, "entries": [[1, 5]]}


def test_advice_prefers_unlisted_bin():
    p = AdvicePolicy(threshold=7)
    p.reset(8, 64)
    state = [0] * 8
    state[5] = 7  # list = {(5, 7)}
    p.restore(tuple(state))
    assert p.decide((5, 2), 0) == 2
    assert p.decide((2, 5), 0) == 2


def test_advice_both_listed_takes_fewer_balls():
    p = AdvicePolicy(threshold=7)
    p.reset(8, 64)
    state = [0] * 8
    state[5] = 7
    state[2] = 9  # list = {(5, 7), (2, 9)}
    p.restore(tuple(state))
    assert p.decide((5, 2), 0) == 5
    assert p.decide((2, 5), 1) == 5


def test_advice_both_listed_tie_uses_bit():
    p = AdvicePolicy(threshold=2)
    p.reset(4, 16)
    p.restore((2, 2, 0, 0))
    assert p.decide((0, 1), 0) == 0
    assert p.decide((0, 1), 1) == 1


def test_advice_neither_listed_takes_first():
    p = AdvicePolicy(threshold=7)
    p.reset(8, 64)
    assert p.decide((4, 1), 0) == 4
    assert p.decide((4, 1), 1) == 4


def test_advice_never_picks_listed_over_unlisted():
    p = AdvicePolicy(threshold=3)
    r = simulate_run(SimConfig(n=16, seed=21, balls=256, record_trace=True), p)
    loads = [0] * 16
    for rec in records(r.trace):
        other = rec.bin_b if rec.chosen == rec.bin_a else rec.bin_a
        if loads[rec.chosen] >= 3:
            assert loads[other] >= 3
        loads[rec.chosen] += 1


def test_advice_mirror_matches_true_loads():
    p = AdvicePolicy(threshold=4)
    r = simulate_run(SimConfig(n=32, seed=3, balls=128), p)
    assert list(p._mem) == r.loads
    assert advice_list(p) == build_advice(r.loads, 4)


def test_advice_list_cost_is_the_list_before_the_last_ball():
    """The advice cost is the largest list any ball saw before it was placed,
    so a bin the last ball lists is not counted."""
    n, balls = 4096, 10
    p = AdvicePolicy(threshold=1)
    simulate_run(SimConfig(n=n, seed=1, balls=balls), p)
    assert len(advice_list(p).entries) == balls  # every ball listed a fresh bin
    assert p.memory_bits(n, balls) == (balls - 1) * (int_width(n - 1) + int_width(balls))


def test_memory_bits_examples():
    assert make_policy("one-choice").memory_bits(16, 16) == 0
    assert make_policy("greedy").memory_bits(16, 16) == 16 * 5  # width(16) = 5
    clustered = make_policy("clustered", cluster_size=4, counter_cap=16)
    assert clustered.memory_bits(1024, 1024) == 1280
    assert make_policy("max-index").memory_bits(16, 16) == 0
    assert make_policy("min-index").memory_bits(16, 16) == 0


def test_advice_bits_reflect_max_prestep_list():
    n, balls, T = 16, 64, 2
    p = AdvicePolicy(threshold=T)
    cfg = SimConfig(n=n, seed=77, balls=balls, record_trace=True)
    r = simulate_run(cfg, p)
    # independent replay: largest pre-step list size
    loads = [0] * n
    biggest = 0
    for rec in records(r.trace):
        biggest = max(biggest, sum(1 for v in loads if v >= T))
        loads[rec.chosen] += 1
    assert p.memory_bits(cfg.n, cfg.balls) == biggest * (int_width(n - 1) + int_width(balls))


def _largest_advice_list_bits(n, balls, T, chosen):
    """The advice cost by its definition: ``build_advice`` before every ball
    of the run that chose ``chosen``, keeping the largest list."""
    loads = [0] * n
    biggest = 0
    for c in chosen:
        biggest = max(biggest, len(build_advice(loads, T).entries))
        loads[c] += 1
    return biggest * (int_width(n - 1) + int_width(balls))


def _advice_bits_by_every_path(n, balls, T, seed, cuts=()):
    """The advice cost after one seeded run walked step by step, run untraced,
    run traced and applied by ``run_bulk`` in pieces cut at ``cuts``, and
    the definition's value for it."""
    config = SimConfig(n=n, seed=seed, balls=balls)
    streams = draw_run_streams(config)
    walked = AdvicePolicy(T)
    walked.reset(n, balls)
    chosen = list(play(walked, *streams))
    untraced, traced, pieces = AdvicePolicy(T), AdvicePolicy(T), AdvicePolicy(T)
    simulate_run(config, untraced)
    simulate_run(dataclasses.replace(config, record_trace=True), traced)
    pieces.reset(n, balls)
    bounds = sorted(c % (balls + 1) for c in cuts)
    for lo, hi in zip([0, *bounds], [*bounds, balls]):
        pieces.run_bulk(np.zeros(n, dtype=np.int64), *(v[lo:hi] for v in streams))
    bits = [p.memory_bits(n, balls) for p in (walked, untraced, traced, pieces)]
    return bits, _largest_advice_list_bits(n, balls, T, chosen)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 64),
    T=st.integers(1, 6),
    balls=st.integers(1, 256),
    seed=st.integers(0, 2**64 - 1),
    cuts=st.lists(st.integers(0, 256), max_size=4),
)
def test_advice_bits_are_the_largest_list_before_a_ball(n, T, balls, seed, cuts):
    bits, expect = _advice_bits_by_every_path(n, balls, T, seed, cuts)
    assert bits == [expect] * 4


def test_advice_bits_over_chunks_are_the_largest_list_before_a_ball():
    """A run of two stream chunks whose list grows in both."""
    balls = STREAM_CHUNK + 4096
    bits, expect = _advice_bits_by_every_path(64, balls, 1070, 11, [STREAM_CHUNK - 1])
    assert bits == [expect] * 4
    assert 0 < expect < 64 * (int_width(63) + int_width(balls))


def test_advice_bits_zero_before_any_run():
    p = AdvicePolicy(threshold=2)
    assert p.memory_bits(16, 16) == 0


def test_declared_bits_cover_state_space():
    cfg = SimConfig(n=16, seed=0, balls=8)
    for name in ("one-choice", "max-index", "min-index"):
        p = make_policy(name)
        size = p.state_space_size(16, 8)
        assert size == 1
        assert p.memory_bits(cfg.n, cfg.balls) >= math.ceil(math.log2(size))
    p = make_policy("clustered", cluster_size=2, counter_cap=8)
    size = p.state_space_size(16, 8)
    assert size == 9**8
    assert p.memory_bits(cfg.n, cfg.balls) >= math.ceil(math.log2(size))
    assert make_policy("greedy").state_space_size(16, 8) is None


def test_clustered_memory_ratio_shrinks_with_n():
    # With the default geometry (c = ceil(log2 log2 n), cap = 4c) the bits
    # per bin shrink over this grid, dipping below 1 bit/bin only at
    # astronomically large n. The trend is not monotone everywhere: the
    # counter width steps up with c, so the ratio rises from 0.714 at 2^128
    # (c = 7, 5-bit counters) to 0.75 at 2^256 (c = 8, 6-bit counters);
    # the grid skips 2^128.
    def ratio(n):
        return default_cluster_config(n).total_bits(n) / n

    grid = [1 << 14, 1 << 17, 1 << 20, 1 << 64, 1 << 256]
    ratios = [ratio(n) for n in grid]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratio(1 << 64) < 1.0
    assert ratio(1 << 256) < 1.0


def test_clustered_state_ids_are_distinct_when_packed():
    p = ClusteredPolicy(ClusterConfig(cluster_size=2, counter_cap=8))
    p.reset(16, 8)
    seen = set()
    for state in [(0,) * 8, (1, 0, 0, 0, 0, 0, 0, 0), (0,) * 7 + (8,), (1,) * 8]:
        p.restore(state)
        seen.add(p.state_id())
    assert len(seen) == 4


KEY_N = 32
KEYED_POLICIES = {
    "greedy": lambda: make_policy("greedy"),
    "advice": lambda: make_policy("advice", threshold=2),
    # 8 counters of 4 bits: the key is the packed counter tuple
    "clustered-packed": lambda: ClusteredPolicy(ClusterConfig(cluster_size=4, counter_cap=8)),
    # 32 counters of 2 bits need 64 bits: pseudo-random weights
    "clustered-unpacked": lambda: ClusteredPolicy(ClusterConfig(cluster_size=1, counter_cap=3)),
}


@st.composite
def memory_blocks(draw):
    """A greedy, clustered or advice policy bound to n bins and a block of
    its memories: clustered geometries with a short last cluster and a
    counter at the cap, advice thresholds 1..3."""
    kind = draw(st.sampled_from(["greedy", "clustered", "advice"]))
    if kind == "clustered":
        size = draw(st.integers(1, 5))
        n = size * draw(st.integers(0, 4)) + draw(st.integers(1, size))
        policy = ClusteredPolicy(ClusterConfig(size, draw(st.integers(1, 3))))
        top = None
    else:
        n = draw(st.integers(1, 24))
        policy = make_policy(kind, **({"threshold": draw(st.integers(1, 3))} if kind == "advice" else {}))
        top = 6
    policy.reset(n, n)
    slots = len(policy.snapshot())
    top = policy.config.counter_cap if top is None else top
    rows = draw(st.lists(st.lists(st.integers(0, top), min_size=slots, max_size=slots),
                         min_size=1, max_size=6))
    if kind == "clustered":
        rows[0][draw(st.integers(0, slots - 1))] = top
    return policy, n, rows


@settings(max_examples=200, deadline=None)
@given(case=memory_blocks())
def test_block_keys_are_restore_then_state_id_and_rank_keys_per_row(case):
    policy, n, rows = case
    keys, ids = policy.block_keys(np.array(rows, dtype=np.int64))
    assert keys.dtype == np.int64 and keys.shape == (len(rows), n)
    assert ids.dtype == np.uint64 and ids.shape == (len(rows),)
    for row, k, i in zip(rows, keys.tolist(), ids.tolist()):
        policy.restore(tuple(row))
        assert i == policy.state_id() == key_oracle(policy)
        assert k == rank_keys(policy)


def test_block_keys_refuse_what_restore_refuses():
    p = ClusteredPolicy(ClusterConfig(cluster_size=2, counter_cap=3))
    p.reset(5, 5)  # three counters, the last over one bin
    for bad in ((0, 0), (0, 0, 0, 0), (0, 0, 4), (0, -1, 0)):
        with pytest.raises(ValueError) as restored:
            p.restore(bad)
        with pytest.raises(ValueError) as blocked:
            p.block_keys(np.array([bad]))
        assert str(blocked.value) == str(restored.value)


def test_cluster_geometry_is_what_int64_holds():
    """A cluster size or cap of 2^63 or more is refused (it raised
    OverflowError in the slot and cap arithmetic); 2^63 - 1 runs."""
    for size, cap in ((1 << 63, 1), (1, 1 << 63), (2**64, 2**64)):
        with pytest.raises(ValueError, match=r"below 2\^63"):
            ClusterConfig(size, cap)
    top = (1 << 63) - 1
    result = simulate_run(SimConfig(n=16, seed=3, balls=64), ClusteredPolicy(ClusterConfig(top, top)))
    assert result.max_load == max(result.loads) and sum(result.loads) == 64


def test_block_keys_of_a_cluster_wider_than_the_bins_cost_one_key_per_bin():
    """The slot keys are spread to the n bins by index; repeating each key
    once per bin of its slot asked 8 TiB for one cluster of 2^40 bins."""
    p = ClusteredPolicy(ClusterConfig(1 << 40, 3))
    p.reset(16, 16)
    keys, ids = p.block_keys(np.array([[2], [3]]))
    assert keys.tolist() == [[2] * 16, [3] * 16]
    p.restore((3,))
    assert ids.tolist()[1] == p.state_id() == key_oracle(p)


_bin = st.integers(0, KEY_N - 1)
_step = st.tuples(_bin, _bin, st.integers(0, 1))
_op = st.one_of(
    st.tuples(st.just("steps"), st.lists(_step, min_size=1, max_size=12)),
    st.tuples(st.just("bulk"), st.lists(_step, max_size=12)),
    st.tuples(st.just("restore"), st.integers(0, 10**6)),
)


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(KEYED_POLICIES)),
    seed=st.integers(0, 2**32),
    balls=st.integers(1, 128),
    cuts=st.lists(st.floats(0, 1), max_size=3),
    ops=st.lists(_op, min_size=1, max_size=40),
)
def test_incremental_state_key_matches_recomputation(name, seed, balls, cuts, ops):
    """state_id equals the key computed in Python from the exact memory, and
    a fresh policy's after restoring that memory, after run_bulk segments and
    then after every decide/update step, run_bulk call and restore."""
    p = KEYED_POLICIES[name]()
    bounds = sorted({0, balls, *(round(c * balls) for c in cuts)})
    streams = draw_run_streams(SimConfig(n=KEY_N, seed=seed, balls=balls))
    sink = np.zeros(KEY_N, dtype=np.int64)  # run_bulk's loads; the key reads only the memory
    p.reset(KEY_N, balls)
    for lo, hi in zip(bounds, bounds[1:]):  # each segment a run_bulk call of its own
        p.run_bulk(sink, *(v[lo:hi] for v in streams))
    history = []

    def check():
        fresh = KEYED_POLICIES[name]()
        fresh.reset(KEY_N, balls)
        fresh.restore(p.snapshot())
        assert p.state_id() == fresh.state_id() == key_oracle(p)
        history.append(p.snapshot())

    check()
    for kind, arg in ops:
        if kind == "steps":
            for a, b, r in arg:
                p.update((a, b), p.decide((a, b), r))
                check()
        elif kind == "bulk":
            pa, pb, ties = ([s[i] for s in arg] for i in range(3))
            p.run_bulk(sink, pa, pb, ties)
            check()
        else:
            p.restore(history[arg % len(history)])
            check()


_grow_op = st.tuples(st.sampled_from(["steps", "bulk"]), st.lists(_step, max_size=12))


@settings(max_examples=100, deadline=None)
@given(
    build=any_policy_builder(),
    ops=st.lists(_grow_op, min_size=1, max_size=20),
    piece=st.integers(1, 16),
)
def test_memory_only_grows(build, ops, piece):
    """For every policy in POLICY_TABLE, no update and no run_bulk lowers a
    memory slot, and advice's list only gains bins; a step changes the exact
    memory iff its key rose in the walk of its chosen bins (``_walk``, cut
    into pieces of ``piece`` steps), and iff the oracle's ``changes_memory``
    says so.

    The state walks of the analysis count a state as new when the step before
    it changed the memory, which is exact only because no policy's memory can
    return to an earlier state. A policy whose memory can fall fails here, and
    would need its states compared again.
    """
    p = build()
    p.reset(KEY_N, 256)
    sink = np.zeros(KEY_N, dtype=np.int64)  # run_bulk's loads argument

    def grown_from(old_slots, old_exact):
        slots, exact = p.snapshot(), exact_memory(p)
        assert len(slots) == len(old_slots)
        assert all(x <= y for x, y in zip(old_slots, slots))
        if isinstance(p, AdvicePolicy):
            assert {i for i, _ in old_exact} <= {i for i, _ in exact}
        return exact

    for kind, steps in ops:
        if kind == "bulk":
            old = p.snapshot(), exact_memory(p)
            p.run_bulk(sink, *([s[i] for s in steps] for i in range(3)))
            grown_from(*old)
            continue
        held, chosen, changed = p.snapshot(), [], []
        for a, b, r in steps:
            old = p.snapshot(), exact_memory(p)
            c = p.decide((a, b), r)
            oracle = changes_memory(p, c)
            p.update((a, b), c)
            chosen.append(c)
            changed.append(grown_from(*old) != old[1])
            assert oracle == changed[-1]
        with mock.patch.object(policies, "_ID_CHUNK", piece):
            walk = p._walk(held, np.array(chosen, dtype=np.int64))
            assert [x != 0 for _, rise, _ in walk for x in rise.tolist()] == changed


def test_no_state_id_hashes_the_memory():
    """State ids are packed tuples or linear keys, never a hash() of the memory."""
    for cls in vars(policies).values():
        if isinstance(cls, type) and "state_id" in vars(cls):
            assert "hash(" not in inspect.getsource(vars(cls)["state_id"]), cls.__name__


def test_choice_dist_is_stated_once():
    """The per-pair choice distribution is derived from decide in the test
    oracle only; no policy, and no module of the program, states it."""
    for cls in vars(policies).values():
        if isinstance(cls, type) and issubclass(cls, policies.Policy):
            assert not hasattr(cls, "choice_dist"), cls.__name__
    for module in Path(policies.__file__).parent.glob("*.py"):
        assert "choice_dist" not in module.read_text(), module.name


def test_step_walks_are_test_oracles_only():
    """The per-step walks of a run are the tests' oracle: no module of the
    program defines or calls ``play``, ``replay``, ``changes_memory`` or
    ``_new_states``, and no policy has ``changes_memory``."""
    named = r"(?<![\w-])(?:play|replay|changes_memory|_new_states)"
    for cls in vars(policies).values():
        if isinstance(cls, type) and issubclass(cls, policies.Policy):
            assert not hasattr(cls, "changes_memory"), cls.__name__
    for module in Path(policies.__file__).parent.glob("*.py"):
        text = module.read_text()
        assert not re.search(rf"{named}\s*\(|\.(?:changes_memory|_new_states)\b", text), module.name


@settings(max_examples=200, deadline=None)
@given(
    slots=st.integers(1, 6),
    top=st.one_of(st.none(), st.integers(1, 4)),
    data=st.data(),
)
def test_values_before_is_a_per_step_count(slots, top, data):
    """What each queried slot held before its step equals a dict of slot
    values that each step's choice then raises by one, up to the cap."""
    k = data.draw(st.integers(0, 30))
    slot = st.integers(0, slots - 1)
    held = data.draw(st.lists(st.integers(0, 4 if top is None else top), min_size=slots, max_size=slots))
    chosen = data.draw(st.lists(slot, min_size=k, max_size=k))
    asked = data.draw(st.lists(st.lists(slot, min_size=k, max_size=k), min_size=1, max_size=3))
    value = dict(enumerate(held))
    want = [[0] * k for _ in asked]
    for t, c in enumerate(chosen):
        for row, query in zip(want, asked):
            row[t] = value[query[t]]
        value[c] = value[c] + 1 if top is None else min(value[c] + 1, top)
    got = policies._values_before(
        np.array(held, dtype=np.int64), np.array(chosen, dtype=np.int64),
        np.array(asked, dtype=np.int64).reshape(len(asked), k), top,
    )
    assert got.tolist() == want


@pytest.mark.parametrize("name", ENUMERATED_POLICIES)
def test_base_run_bulk_is_the_step_walk_across_chunk_edges(name):
    """The memoryless rules decide a whole piece with one ``decide`` on its
    arrays: an untraced run over three chunks, and run_bulk on the one-shot
    streams cut at and around the chunk edges, choose what ``play`` does,
    into fresh writable int64 arrays."""
    n, balls = 1000, 2 * STREAM_CHUNK + 3
    config = SimConfig(n=n, seed=len(name), balls=balls)
    streams = draw_run_streams(config)
    oracle = make_policy(name)
    oracle.reset(n, balls)
    want = np.fromiter(play(oracle, *streams), dtype=np.int64, count=balls)
    assert simulate_run(config, make_policy(name)).loads == np.bincount(want, minlength=n).tolist()
    p = make_policy(name)
    p.reset(n, balls)
    loads = np.zeros(n, dtype=np.int64)
    bounds = [0, 1, STREAM_CHUNK - 1, STREAM_CHUNK + 1, 2 * STREAM_CHUNK, balls]
    for lo, hi in zip(bounds, bounds[1:]):
        pa, pb, ties = (v[lo:hi] for v in streams)
        chosen = p.run_bulk(loads, pa, pb, ties)
        assert chosen.dtype == np.int64 and chosen.flags.writeable
        assert not np.shares_memory(chosen, pa) and chosen.tolist() == want[lo:hi].tolist()
    assert loads.tolist() == np.bincount(want, minlength=n).tolist()


@pytest.mark.parametrize("name", ENUMERATED_POLICIES)
def test_memoryless_decide_maps_arrays_of_pairs(name):
    """A rule without block_keys decides arrays of pairs as it decides each
    pair: decide((A, B), t), broadcast to the pairs, is the per-pair decide
    of every pair under both tie bits."""
    params = {"target": 3} if name == "illegal-fixture" else {}
    p = make_policy(name, **params)
    n = 9
    p.reset(n, n)
    a, b = np.divmod(np.arange(n * n), n)
    for tie in (0, 1):
        mapped = np.broadcast_to(p.decide((a, b), tie), a.shape).tolist()
        assert mapped == [p.decide((x, y), tie) for x, y in zip(a.tolist(), b.tolist())]


@pytest.mark.parametrize(
    "method", ["decide", "snapshot", "restore", "state_id", "block_keys", "run_bulk"]
)
def test_memory_method_is_stated_once(method):
    """Greedy holds the memory model; clustered and advice only state how they differ."""
    greedy = policies.GreedyTwoChoicePolicy
    assert method in vars(greedy)
    refined = [
        cls for cls in vars(policies).values()
        if isinstance(cls, type) and issubclass(cls, greedy) and cls is not greedy
    ]
    assert {policies.ClusteredPolicy, policies.AdvicePolicy} <= set(refined)
    for cls in refined:
        assert method not in vars(cls), cls.__name__


@pytest.mark.parametrize("n, seed", [(8, 1), (64, 5), (1000, 9)])
def test_clustered_with_single_bin_clusters_and_no_reachable_cap_is_greedy(n, seed):
    """Clusters of one bin whose cap no run reaches are greedy's memory, on both paths."""
    balls = 3 * n
    runs = {}
    for traced in (False, True):
        config = SimConfig(n=n, seed=seed, balls=balls, record_trace=traced)
        for name, policy in (
            ("greedy", make_policy("greedy")),
            ("clustered", ClusteredPolicy(ClusterConfig(cluster_size=1, counter_cap=balls))),
        ):
            result = simulate_run(config, policy)
            chosen = result.trace.chosen.tolist() if traced else None
            runs[name, traced] = (result.loads, chosen, policy.snapshot().tolist())
    for traced in (False, True):
        assert runs["clustered", traced] == runs["greedy", traced]
    assert runs["greedy", False][0] == runs["greedy", True][0]


def test_choice_dist_gives_each_tie_bit_one_half():
    p = make_policy("greedy")
    p.reset(4, 8)
    p.restore((1, 1, 0, 0))
    assert choice_dist(p, (1, 0)) == ((1, 1), (0, 1))  # tie: decide(pair, 0), decide(pair, 1)
    assert choice_dist(p, (0, 2)) == ((2, 2),)
    assert choice_dist(p, (3, 3)) == ((3, 2),)


def test_prefer_second_on_ints_and_arrays():
    """The shared comparison gives the same answers on Python ints and numpy arrays."""
    cases = [(ka, kb, tie) for ka in range(3) for kb in range(3) for tie in (0, 1)]
    expected = [int(kb < ka or (kb == ka and tie == 1)) for ka, kb, tie in cases]
    assert [int(policies.prefer_second(*c)) for c in cases] == expected
    ka, kb, tie = (np.array(col, dtype=np.int64) for col in zip(*cases))
    assert policies.prefer_second(ka, kb, tie).astype(int).tolist() == expected


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["one-choice", "greedy", "clustered", "advice", "max-index", "min-index"]),
    a=st.integers(0, 15),
    b=st.integers(0, 15),
    tie=st.integers(0, 1),
    seed=st.integers(0, 2**32),
)
def test_decide_always_member_of_pair(name, a, b, tie, seed):
    p = make_policy(name, threshold=2) if name == "advice" else make_policy(name)
    # walk the policy into an arbitrary reachable state first
    simulate_run(SimConfig(n=16, seed=seed, balls=24), p)
    assert p.decide((a, b), tie) in (a, b)


def test_illegal_fixture_ignores_pair():
    p = make_policy("illegal-fixture")
    p.reset(8, 8)
    assert p.decide((3, 7), 0) == 0
    assert p.decide((5, 6), 1) == 0


def test_restore_validates_state():
    p = make_policy("greedy")
    p.reset(4, 4)
    with pytest.raises(ValueError):
        p.restore((1, 2))
    c = ClusteredPolicy(ClusterConfig(2, 4))
    c.reset(8, 8)
    with pytest.raises(ValueError):
        c.restore((5, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        c.restore((0, 0, 0, 9))
    p.restore((1, 2, 3, 4))
    for bad in ((0.5, 1.0, 0, 0), np.zeros(4), [[0, 0, 0, 0]], np.zeros((1, 4), dtype=np.int64)):
        with pytest.raises(TypeError):  # a float row, a 2-D row
            p.restore(bad)
    assert p.snapshot().tolist() == [1, 2, 3, 4]  # a refused state leaves the memory as it was


def _walked(name):
    """A fresh ``name`` policy (advice at threshold 2) after a short run at n = 16."""
    p = make_policy(name, threshold=2) if name == "advice" else make_policy(name)
    simulate_run(SimConfig(n=16, seed=3, balls=40), p)
    return p


@pytest.mark.parametrize("name", policies.POLICY_NAMES)
def test_snapshot_is_a_fresh_int64_row_that_restore_takes_back(name):
    p = _walked(name)
    snap, sid = p.snapshot(), p.state_id()
    assert type(snap) is np.ndarray and snap.dtype == np.int64 and snap.ndim == 1
    held = snap.tolist()
    snap += 1  # the copy is the caller's: the policy's memory does not move
    assert p.state_id() == sid and p.snapshot().tolist() == held
    fresh = make_policy(name, threshold=2) if name == "advice" else make_policy(name)
    fresh.reset(16, 40)
    fresh.restore(p.snapshot())
    assert fresh.snapshot().tolist() == held and fresh.state_id() == sid
    if hasattr(p, "block_keys"):  # the greedy family: the snapshot is a block_keys row
        keys, ids = p.block_keys(p.snapshot()[None])
        assert keys.tolist() == [rank_keys(p)] and ids.tolist() == [sid]


@pytest.mark.parametrize("name", ["one-choice", "max-index", "min-index", "illegal-fixture"])
def test_memoryless_restore_takes_only_the_empty_row(name):
    p = _walked(name)
    for empty in ((), np.zeros(0, dtype=np.int64), p.snapshot()):
        p.restore(empty)
    for bad in (np.array([0]), (0,), np.zeros(2, dtype=np.int64)):  # np.array([0]) is falsy
        with pytest.raises(ValueError):
            p.restore(bad)


def _clustered(size, cap):
    return lambda: ClusteredPolicy(ClusterConfig(size, cap))


RESTORED_RUNS = {
    # name: (build, n, reset's balls, restored state, steps run)
    "greedy-int8-widened": (lambda: make_policy("greedy"), 1, 10, (0,), 300),
    "greedy-int16-widened": (lambda: make_policy("greedy"), 1, 10, (32_700,), 200),
    "greedy-negative": (lambda: make_policy("greedy"), 2, 100, (-200, 120), 300),
    "greedy-int64": (lambda: make_policy("greedy"), 3, 10, (2**62, 0, 5), 50),
    "advice-widened": (lambda: make_policy("advice", threshold=3), 4, 126, (0, 7, 0, 125), 1000),
    # every counter at its cap, with enough slots that the steps are batched
    "clustered-full-cap126": (_clustered(1, 126), 4096, 10, (126,) * 4096, 3000),
    "clustered-full-cap127": (_clustered(1, 127), 4096, 10, (127,) * 4096, 3000),
    "clustered-full-cap128": (_clustered(2, 128), 4096, 10, (128,) * 2048, 3000),
}


@pytest.mark.parametrize("case", sorted(RESTORED_RUNS))
def test_run_from_a_restored_state_is_the_step_walk(case):
    """A run longer than the reset's ``balls``, or from a restored state above
    that bound, widens the memory's type before any value could wrap, and a
    counter at a cap of 127 grows to 128 in its type before it is capped:
    run in three pieces under the traced run's id observer (``core._record``),
    which carries the key and memory row from piece to piece, the policy
    decides and labels its states as ``play`` does step by step."""
    build, n, balls, state, steps = RESTORED_RUNS[case]
    live, oracle = build(), build()
    for p in (live, oracle):
        p.reset(n, balls)
        p.restore(state)
    assert tuple(live.snapshot().tolist()) == tuple(oracle.snapshot().tolist()) == state
    streams = draw_run_streams(SimConfig(n=n, seed=steps + n, balls=steps))
    ids, chosen = [], []
    for c in play(oracle, *streams):
        ids.append(oracle.state_id())  # the state that decided step c
        chosen.append(c)
    loads = np.zeros(n, dtype=np.int64)
    cuts = [0, steps // 3, 2 * steps // 3, steps]
    pieces = [tuple(v[lo:hi] for v in streams) for lo, hi in zip(cuts, cuts[1:])]
    chunks = ((pa, pb, live.run_bulk(loads, pa, pb, ties)) for pa, pb, ties in pieces)
    trace = core._record(live, chunks, steps)
    assert trace.ids.tolist() == ids
    assert trace.chosen.tolist() == chosen
    assert trace.bin_a.tolist() == streams[0].tolist() and trace.bin_b.tolist() == streams[1].tolist()
    assert loads.tolist() == np.bincount(chosen, minlength=n).tolist()
    assert live.snapshot().tolist() == oracle.snapshot().tolist()
    assert live.state_id() == oracle.state_id()
    assert live.memory_bits(n, balls) == oracle.memory_bits(n, balls)


def test_make_policy_registry_errors():
    with pytest.raises(ValueError):
        make_policy("round-robin")
    with pytest.raises(ValueError):
        make_policy("advice")  # threshold required
    with pytest.raises(ValueError):
        make_policy("clustered", cluster_size=4)  # cap missing
    with pytest.raises(ValueError):
        make_policy("greedy", cluster_size=4)  # irrelevant parameter
    with pytest.raises(ValueError):
        AdvicePolicy(threshold=0)
