"""Exact probability reconstruction, bound checks, phases, tails."""

import dataclasses
import hashlib
import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ballast import (
    POLICY_NAMES,
    ClusterConfig,
    ClusteredPolicy,
    PhaseConfig,
    SimConfig,
    Trace,
    advice_threshold,
    default_epsilon_grid,
    enumerate_clustered_states,
    forbidden_union_over_trace,
    make_policy,
    phase_report,
    phase_report_with_forbidden,
    probe_states,
    run_phase_report,
    simulate_run,
    sweep_placement_bounds,
    theoretical_bounds,
)
from ballast import analysis, core, policies
from ballast.analysis import enumerate_choice_numerators, rank_numerators
from ballast.cli import main
from ballast.core import STREAM_CHUNK

from oracles import (
    ENUMERATED_POLICIES,
    advice_list_size_check,
    any_policy_builder,
    bin_weight_margins,
    check_placement_bounds,
    clustered_states,
    draw_run_streams,
    exact_memory,
    exact_placement_probs,
    floats,
    forbidden_set,
    fractions,
    margins_by_id,
    new_states,
    pair_walk,
    play,
    poisson_tail_log_oracle,
    poisson_tail_oracle,
    poisson_upper_tail,
    rank_keys,
    records,
    replay,
    sweep_report,
)


def _bound_policy(name, n, **params):
    p = make_policy(name, **params)
    p.reset(n, n)
    return p


# ---------------------------------------------------------------------------
# placement probabilities


def test_one_choice_probs_uniform():
    pp = exact_placement_probs(_bound_policy("one-choice", 4), 4)
    assert fractions(pp) == [Fraction(1, 4)] * 4


def test_max_index_probs_n2():
    # 4 ordered pairs: (0,0)->0; (0,1),(1,0),(1,1)->1
    pp = exact_placement_probs(_bound_policy("max-index", 2), 2)
    assert fractions(pp) == [Fraction(1, 4), Fraction(3, 4)]


def test_greedy_fresh_state_uniform():
    for n in (3, 16):
        pp = exact_placement_probs(_bound_policy("greedy", n), n)
        assert fractions(pp) == [Fraction(1, n)] * n


def test_probs_sum_and_cap_across_policies():
    n = 64
    policies = [
        _bound_policy("one-choice", n),
        _bound_policy("greedy", n),
        _bound_policy("max-index", n),
        _bound_policy("min-index", n),
        _bound_policy("advice", n, threshold=3),
    ]
    # push the stateful ones somewhere non-trivial
    simulate_run(SimConfig(n=n, seed=5, balls=3 * n), policies[1])
    simulate_run(SimConfig(n=n, seed=6, balls=3 * n), policies[4])
    for p in policies:
        pp = exact_placement_probs(p, n)
        assert sum(pp.numerators) == pp.denominator  # probabilities sum to 1
        cap = 2 * (2 * n - 1)  # == (2/n - 1/n^2) in numerator units
        assert max(pp.numerators) <= cap
        exact = fractions(pp)
        approx = floats(pp)
        assert all(abs(float(e) - a) <= 1e-12 for e, a in zip(exact, approx))


def test_max_index_attains_probability_cap():
    n = 8
    pp = exact_placement_probs(_bound_policy("max-index", n), n)
    assert fractions(pp)[n - 1] == Fraction(2 * n - 1, n * n)  # == 2/n - 1/n^2


def test_probs_require_bound_policy():
    p = make_policy("greedy")
    with pytest.raises(ValueError):
        exact_placement_probs(p, 8)


def test_probs_enumeration_guard():
    p = _bound_policy("one-choice", 8)
    with pytest.raises(ValueError):
        exact_placement_probs(p, 5000)


# ---------------------------------------------------------------------------
# forbidden sets and bounds


def _probs_quarter_three_quarters():
    return exact_placement_probs(_bound_policy("max-index", 2), 2)


def test_forbidden_set_uniform_is_empty():
    pp = exact_placement_probs(_bound_policy("one-choice", 4), 4)
    assert forbidden_set(pp, Fraction(1, 2)) == frozenset()


def test_forbidden_set_threshold_cases():
    pp = _probs_quarter_three_quarters()
    assert forbidden_set(pp, Fraction(2, 5)) == frozenset()  # 1/4 >= 0.2
    fs = forbidden_set(pp, Fraction(3, 5))  # 1/4 < 0.3
    assert fs == frozenset({0})
    assert len(fs) <= Fraction(3, 5) * 2


def test_forbidden_set_strict_boundary_excludes():
    pp = exact_placement_probs(_bound_policy("one-choice", 4), 4)
    # p_i = 1/4 exactly; eps = 1 would make eps/n = 1/4: equality stays out
    # but eps must be < 1, so probe just below and above via fractions.
    assert forbidden_set(pp, Fraction(99, 100)) == frozenset()


def test_forbidden_set_epsilon_domain():
    pp = _probs_quarter_three_quarters()
    for bad in (0, 1, -1, Fraction(5, 4)):
        with pytest.raises(ValueError):
            forbidden_set(pp, bad)


def test_bounds_pass_for_uniform():
    pp = exact_placement_probs(_bound_policy("one-choice", 8), 8)
    rep = check_placement_bounds(pp, Fraction(1, 2), {0, 3, 5})
    assert rep.subset_ok and rep.size_ok
    assert rep.lhs == Fraction(3, 8)
    assert rep.rhs == Fraction(1, 2) * 3 / 8


def test_bounds_example_with_forbidden_member():
    pp = _probs_quarter_three_quarters()
    rep = check_placement_bounds(pp, Fraction(3, 5), {0})
    assert rep.lhs == Fraction(1, 4)
    assert rep.rhs == 0  # S \ F is empty
    assert rep.subset_ok and rep.size_ok
    assert rep.forbidden_size == 1


def test_bounds_reject_bad_subset():
    pp = _probs_quarter_three_quarters()
    with pytest.raises(ValueError):
        check_placement_bounds(pp, Fraction(1, 2), {0, 9})


def _sampled_rows(n: int, count: int, seed: int) -> np.ndarray:
    """The rows the sampled cross-check draws, as one matrix."""
    return np.concatenate(list(analysis.random_subset_blocks(n, count, seed, count)))


def test_sweep_agrees_with_single_checks():
    # dual route: the batched float64 sweep must match the Fraction-based
    # checker exactly for the same states, epsilons, and subsets
    n, count, seed = 16, 256, 0x5EED
    M = _sampled_rows(n, count, seed)
    eps_grid = [Fraction(1, 20), Fraction(1, 2), Fraction(19, 20)]
    for name, params in (("greedy", {}), ("clustered", {}), ("advice", {"threshold": 2})):
        p = _bound_policy(name, n, **params)
        states = list(probe_states(p, n, 24, seed=9, max_states=8))
        assert len(states) > 1
        res = sweep_placement_bounds(
            p, n, states, epsilons=eps_grid, n_subsets=count, subset_seed=seed
        )
        assert res.ok and res.n_subsets == count
        assert len(res.worst_margins) == len(states)
        for state in states:
            pp = exact_placement_probs(p, n, state=state)
            reports = [
                check_placement_bounds(pp, eps, {i for i in range(n) if row[i]})
                for eps in eps_grid
                for row in M
            ]
            assert all(rep.subset_ok and rep.size_ok for rep in reports)
            subset_margin = min(rep.lhs - rep.rhs for rep in reports)
            size_margin = min(rep.forbidden_limit - rep.forbidden_size for rep in reports)
            assert subset_margin >= 0  # P(S) >= eps |S \ F| / n holds by F's definition
            margins = [float(subset_margin), float(size_margin)]
            assert margins_by_id(res)[pp.memory_state_id] == margins, name


def test_sweep_refuses_epsilons_it_cannot_sum_exactly():
    # with the sampled cross-check, 4 q n^2 < 2^53 keeps every float64
    # partial sum an exact integer
    n, count = 4, 64
    p = _bound_policy("greedy", n)
    state = (3, 0, 1, 0)
    with pytest.raises(ValueError, match="too fine for an exact sweep"):
        sweep_placement_bounds(p, n, [state], epsilons=[Fraction(1, 2**47)], n_subsets=count)
    finest = Fraction(2**46 - 1, 2**47 - 1)
    res = sweep_placement_bounds(p, n, [state], epsilons=[finest], n_subsets=count)
    pp = exact_placement_probs(p, n, state=state)
    rows = _sampled_rows(n, count, 0xF00D)  # the default subset_seed
    assert not rows.any(axis=1).all()  # an empty row counts, and is no test of the minimum
    reports = [
        check_placement_bounds(pp, finest, {i for i in range(n) if row[i]})
        for row in rows
    ]
    assert margins_by_id(res)[pp.memory_state_id][0] == float(min(r.lhs - r.rhs for r in reports))


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("name", ["greedy", "one-choice", "clustered", "illegal-fixture"])
def test_sweep_and_exact_probs_refuse_fewer_than_one_bin(name, n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        sweep_placement_bounds(make_policy(name), n, [()])
    with pytest.raises(ValueError, match="n must be >= 1"):
        exact_placement_probs(make_policy(name), n, state=())


def test_exact_sweep_takes_every_epsilon_int64_holds():
    """Without the cross-check only 2 q n^2 >= 2^63 is refused, and each
    margin is the exact ratio rounded once, as float(Fraction) rounds it."""
    n = 4
    p = _bound_policy("greedy", n)
    state = (1, 1, 1, 0)
    p.restore(state)
    sid, num = p.state_id(), pair_walk(p, n)[0]
    eps = Fraction(3109495313124920, 3866500249534617)  # 4 q n^2 > 2^57
    res = sweep_placement_bounds(p, n, [state], epsilons=[eps])
    assert res.ok and margins_by_id(res)[sid][0] == 0.1875 == float(_brute_subset_margin(num, n, eps))
    finest = Fraction(1, 2**58 - 1)  # 2 q n^2 = 2^63 - 32
    res = sweep_placement_bounds(p, n, [state], epsilons=[finest])
    assert margins_by_id(res)[sid] == [float(_brute_subset_margin(num, n, finest)), float(finest * n)]
    with pytest.raises(ValueError, match="needs 2 q n\\^2 < 2\\^63"):
        sweep_placement_bounds(p, n, [state], epsilons=[Fraction(1, 2**58)])
    with pytest.raises(ValueError, match="needs 4 q n\\^2 < 2\\^53"):
        sweep_placement_bounds(p, n, [state], epsilons=[eps], n_subsets=10)


def test_sweep_catches_illegal_policy():
    n = 8
    p = _bound_policy("illegal-fixture", n)
    res = sweep_placement_bounds(p, n, [p.snapshot()])
    assert not res.ok
    assert res.support_violations > 0
    assert res.size_violations > 0  # all mass on one bin starves the rest


def test_illegal_failure_path_holds_one_block():
    """The failure path counts its support violations and keeps only the
    first: all (n - 1)^2 of them at n = 4096 peak at a few MiB, one block of
    pairs, where a list of them would take gigabytes."""
    n = 4096
    p = _bound_policy("illegal-fixture", n)
    tracemalloc.start()
    try:
        res = sweep_placement_bounds(p, n, [p.snapshot()])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.support_violations == (n - 1) ** 2
    assert res.violation_samples[0] == {"kind": "support", "state": 0, "sample": ((1, 1), 0)}
    assert peak < 4 << 20


class _ShiftFixture(policies.Policy):
    """Test rule: ``a + shift`` mod n, one further under tie bit 1 if
    ``split``. With ``split`` the tie bits pick two distinct bins, outside
    most pairs; without it both pick the same bin."""

    name = "shift-fixture"

    def __init__(self, shift, split):
        self.shift, self.split = shift, split

    def decide(self, pair, tie_bit):
        return (pair[0] + self.shift + self.split * tie_bit) % self.n


class _WildFixture(policies.Policy):
    """Test rule that names a bin outside 0..n-1: ``a + b - shift``."""

    name = "wild-fixture"

    def __init__(self, shift):
        self.shift = shift

    def decide(self, pair, tie_bit):
        return pair[0] + pair[1] - self.shift


@st.composite
def enumerated_rules(draw):
    """A rule the analysis enumerates, bound to n bins: a registered policy
    without block_keys or a shift fixture."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from([*ENUMERATED_POLICIES, "split", "same"]))
    if kind in ("split", "same"):
        policy = _ShiftFixture(draw(st.integers(0, 50)), kind == "split")
    elif kind == "illegal-fixture":
        policy = make_policy(kind, target=draw(st.integers(0, n - 1)))
    else:
        policy = make_policy(kind)
    policy.reset(n, n)
    return policy, n


@settings(max_examples=200, deadline=None)
@given(case=enumerated_rules(), block=st.integers(1, 64))
def test_array_enumeration_matches_the_pair_walk(case, block):
    """Numerators, support violation count and first violation agree with
    the per-pair walk, whatever the number of pairs decided at a time."""
    policy, n = case
    with mock.patch.object(analysis, "_BLOCK", block):
        num, count, first = enumerate_choice_numerators(policy, n)
    assert num.dtype == np.int64
    assert (num.tolist(), count, first) == pair_walk(policy, n)


@pytest.mark.parametrize("n", [3, 8, 33])
def test_support_violations_count_each_distinct_outside_bin(n):
    """A pair counts once for each distinct bin outside it that a tie bit
    picks: two where the tie bits split, one where they agree."""
    for split, per_pair in ((True, 2), (False, 1)):
        policy = _ShiftFixture(1, split)
        policy.reset(n, n)
        # a row has per_pair for each b, less one for each b that is a chosen bin
        expected = per_pair * n * (n - 1)
        _, count, first = enumerate_choice_numerators(policy, n)
        assert count == expected == pair_walk(policy, n)[1]
        assert first == ((0, 0), 1)


@pytest.mark.parametrize("n, shift", [(5, 0), (5, 9), (1, 1), (64, 3)])
def test_a_choice_outside_the_bins_is_refused(n, shift):
    """A rule naming a bin outside 0..n-1 raises, naming the first such bin
    in pair order, as the per-pair walk does."""
    policy = _WildFixture(shift)
    policy.reset(n, n)
    with pytest.raises(ValueError, match="choice outside bin range") as walked:
        pair_walk(policy, n)
    with pytest.raises(ValueError, match="choice outside bin range") as mapped:
        enumerate_choice_numerators(policy, n)
    assert str(mapped.value) == str(walked.value)


def test_sweep_reports_margins_per_state():
    n = 8
    p = _bound_policy("one-choice", n)
    res = sweep_placement_bounds(p, n, [p.snapshot()])
    assert len(res.worst_margins) == 1
    (margins,) = margins_by_id(res).values()
    assert margins[0] >= 0 and margins[1] >= 0


def _brute_subset_margin(num, n, eps):
    """min over every non-empty S of P(S) - eps |S \\ F| / n, in Fractions.

    Each of the 2^n - 1 subset sums is its lowest bin's term plus the sum
    of the subset without that bin."""
    terms = []
    for x in num:
        p = Fraction(x, 2 * n * n)
        terms.append(p if p < eps / n else p - eps / n)  # bins in F are not in S \ F
    sums = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        sums[mask] = sums[mask & (mask - 1)] + terms[low]
    return min(sums[1:])


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_exact_subset_margin_is_the_minimum_over_every_subset(name):
    params = {"threshold": 2} if name == "advice" else {}
    for n in (1, 6, 10):
        p = _bound_policy(name, n, **params)
        states = list(probe_states(p, n, 2 * n, seed=n, max_states=4))
        oracle = {}
        for state in states:
            p.restore(state)
            oracle[p.state_id()] = pair_walk(p, n)[0]
        for eps in default_epsilon_grid():
            res = sweep_placement_bounds(p, n, states, epsilons=[eps])
            assert res.n_subsets is None and res.subset_violations == 0
            for sid, num in oracle.items():
                assert margins_by_id(res)[sid][0] == float(_brute_subset_margin(num, n, eps)), (n, eps)


def test_a_negative_numerator_is_an_internal_error(monkeypatch):
    # no placement gives a negative numerator, so force two in the second state
    n = 4
    p = _bound_policy("greedy", n)
    states = [p.snapshot(), np.array([1, 0, 0, 0])]
    p.restore(states[1])
    sid = p.state_id()
    monkeypatch.setattr(analysis, "rank_numerators",
                        lambda keys: np.array([[2, 6, 20, 12], [-1, -2, 20, 12]]))
    for n_subsets in (None, 64):
        with pytest.raises(RuntimeError, match=f"state {sid} has a negative numerator -2"):
            sweep_placement_bounds(p, n, states, epsilons=[Fraction(1, 2)], n_subsets=n_subsets)


@st.composite
def numerator_rows(draw):
    """n, a block of numerator rows and an epsilon with q <= 2^40: rows
    rank-counted from random keys, or any numerators (with at least one
    negative entry, for the ``negative`` kind), and epsilons at random or
    putting a bin exactly at eps / n."""
    n = draw(st.integers(1, 16))
    count = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["ranked", "any", "negative"]))
    if kind == "ranked":
        keys = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=count, max_size=count))
        nums = rank_numerators(np.array(keys, dtype=np.int64))
    else:
        nums = np.array(draw(st.lists(st.lists(st.integers(0, 4 * n), min_size=n, max_size=n),
                                      min_size=count, max_size=count)), dtype=np.int64)
    if kind == "negative":
        nums[draw(st.integers(0, count - 1)), draw(st.integers(0, n - 1))] = draw(st.integers(-3, -1))
    at_eps = [x for x in nums.ravel().tolist() if 0 < x < 2 * n]
    if at_eps and draw(st.booleans()):
        eps = Fraction(draw(st.sampled_from(at_eps)), 2 * n)  # p_i = eps / n for that bin
    else:
        q = draw(st.integers(2, 2**40))
        eps = Fraction(draw(st.integers(1, q - 1)), q)
    return n, nums, eps


@settings(max_examples=300, deadline=None)
@given(case=numerator_rows())
def test_sorted_margins_equal_the_per_bin_arithmetic(case):
    """|F|, both margins and the size violations read off sorted rows equal
    the O(n) per-bin arithmetic of every w_i; no subset violates the bound,
    and a negative numerator is refused."""
    n, nums, eps = case
    p = _bound_policy("greedy", n)
    states = [(r,) + (0,) * (n - 1) for r in range(len(nums))]
    with mock.patch.object(analysis, "rank_numerators", lambda keys: nums[: len(keys)]):
        if nums.min() < 0:
            p.restore(states[np.argmax((nums < 0).any(axis=1))])  # the first one refused
            with pytest.raises(RuntimeError, match=f"state {p.state_id()} has a negative numerator"):
                sweep_placement_bounds(p, n, states, epsilons=[eps])
            return
        res = sweep_placement_bounds(p, n, states, epsilons=[eps])
    fsize, subset, size = bin_weight_margins(nums, n, eps)
    for state, margins in zip(states, zip(subset, size)):
        p.restore(state)
        assert margins_by_id(res)[p.state_id()] == list(margins)
    assert res.size_violations == sum(eps.denominator * f > eps.numerator * n for f in fsize)
    assert res.subset_violations == 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_counts_below_is_a_direct_count_below_each_cut(data):
    """|F| by one binary search of the shifted rows equals a count of the
    entries below each cut, with entries below 0 and above 2n and the cuts
    1 and 2n."""
    n = data.draw(st.integers(1, 8))
    entry = st.integers(-3, 2 * n + 3)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5))
    rows = np.sort(np.array(rows, dtype=np.int64), axis=1)
    cut = np.array([1, 2 * n, *data.draw(st.lists(st.integers(1, 2 * n), max_size=4))])
    direct = (rows[:, :, None] < cut).sum(axis=1)
    assert np.array_equal(analysis._counts_below(rows, cut), direct)


def test_sampled_sum_below_the_exact_minimum_raises(monkeypatch):
    n, count = 4, 16
    p = _bound_policy("greedy", n)
    first = int(np.flatnonzero(_sampled_rows(n, count, 0xF00D).any(axis=1))[0])
    drawn = analysis.random_subset_blocks
    monkeypatch.setattr(analysis, "random_subset_blocks", lambda *args: (-b for b in drawn(*args)))
    with pytest.raises(RuntimeError, match=f"sampled subset {first} .* below the exact minimum"):
        sweep_placement_bounds(p, n, [p.snapshot()], n_subsets=count)


# sha256 of json.dumps(rows.tolist()) for the rows drawn in one block
SUBSET_DIGESTS = {
    (16, 4001, 0x5B5E7): "8025fc2b865c94b1656094ec2e3ca44ddc6d0fc05bd28b1e77d8c7cb435e31b2",
    (4096, 33, 0xF00D): "4b407293d2fb01a77b4a6e547db743b72cb805e961a8a51a683fd9376386a11c",
}


@pytest.mark.parametrize("rows", [1, 3, 512, 5000])
@pytest.mark.parametrize("n, count, seed", sorted(SUBSET_DIGESTS))
def test_subset_blocks_are_the_one_shot_rows(n, count, seed, rows):
    blocks = list(analysis.random_subset_blocks(n, count, seed, rows))
    assert all(len(b) == rows for b in blocks[:-1])
    matrix = np.concatenate(blocks)
    assert matrix.dtype == np.int64 and matrix.shape == (count, n)
    digest = hashlib.sha256(json.dumps(matrix.tolist()).encode()).hexdigest()
    assert digest == SUBSET_DIGESTS[(n, count, seed)]


def test_sampled_cross_check_holds_one_block_of_rows(monkeypatch):
    """Seeded rows are drawn and multiplied a block at a time, for a group of
    states at a time, and give the report the default block gives."""
    n, count = 256, 4000
    p = _bound_policy("greedy", n)
    states = list(probe_states(p, n, 2 * n, seed=1, max_states=5))
    whole = sweep_placement_bounds(p, n, states, n_subsets=count, subset_seed=7)
    monkeypatch.setattr(analysis, "_PRODUCT_BLOCK", 1 << 12)
    tracemalloc.start()
    try:
        blocked = sweep_placement_bounds(p, n, states, n_subsets=count, subset_seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sweep_report(blocked) == sweep_report(whole)
    assert blocked.n_subsets == count and blocked.ok
    assert peak < 8 * n * count / 4  # the int64 matrix alone takes 8 n count bytes


def test_sweep_holds_one_block_of_states():
    """The sweep walks its states a block of rows at a time: 512 states at
    n = 1024 peak below one array of all their numerators."""
    n, count = 1024, 512
    p = _bound_policy("greedy", n)
    states = ((1,) * k + (0,) * (n - k) for k in range(count))
    tracemalloc.start()
    try:
        res = sweep_placement_bounds(p, n, states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.ok and res.states_checked == len(res.worst_margins) == count
    assert peak < 8 * count * n


def test_sweep_and_report_hold_arrays_not_a_dict():
    """The sweep keeps its ids and margins as arrays, and the report spells
    them straight from the arrays: sweep plus report over the 20,001
    states of a greedy probe at n = 256 peak below 300 B a state, where a
    dict of Python lists and its report took about 540."""
    n, balls = 256, 20_000
    p = make_policy("greedy")

    def swept():
        res = sweep_placement_bounds(p, n, probe_states(p, n, balls, 7, max_states=balls + 1))
        return res, res.json_parts()

    swept()  # warm-up: imports and first-call caches
    tracemalloc.start()
    try:
        res, _ = swept()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.states_checked == balls + 1
    assert res.state_ids.dtype == np.uint64 and res.state_ids.shape == (balls + 1,)
    assert res.worst_margins.dtype == np.float64 and res.worst_margins.shape == (balls + 1, 2)
    assert peak < 300 * (balls + 1)


def test_probed_states_are_swept_one_block_at_a_time():
    """The probe yields its states as the sweep takes them, so a sweep of
    1024 probed states at n = 1024 peaks at a few blocks plus O(1) per
    state, far below the 8 MiB the snapshots take together."""
    n = 1024
    p = _bound_policy("greedy", n)
    tracemalloc.start()
    try:
        res = sweep_placement_bounds(p, n, probe_states(make_policy("greedy"), n, n, seed=1, max_states=n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.ok and res.states_checked == n
    assert peak < 16 * 8 * analysis._BLOCK + 1024 * n


def test_clustered_sweep_binds_no_state(monkeypatch, capsys):
    """The 12,870 clustered states at n = 16 are checked a block at a time
    with no state restored and no per-state id or key, and print the bytes
    they printed when each state was bound in turn."""
    def refuse(*args):
        raise AssertionError("a state was bound or keyed on its own")

    for method in ("restore", "state_id"):
        monkeypatch.setattr(ClusteredPolicy, method, refuse)
    assert main(["verify", "--policy", "clustered", "--n", "16", "--balls", "8", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["states_checked"] == 12870
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c777f00dc928cb4c27286458d95baf19654d14734b6707605c5fd1c00a02bfa0"
    )


def test_default_sweep_and_verify_never_build_a_subset_matrix(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("subset matrix built on the default path")

    monkeypatch.setattr(analysis, "random_subset_blocks", refuse)
    n = 16
    p = _bound_policy("greedy", n)
    res = sweep_placement_bounds(p, n, probe_states(p, n, 2 * n, seed=1, max_states=8))
    assert res.ok and res.n_subsets is None
    assert main(["verify", "--policy", "clustered", "--n", "8", "--balls", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["n_subsets"] is None
    with pytest.raises(AssertionError):  # the patch is live
        main(["verify", "--policy", "greedy", "--n", "8", "--subsets", "5"])
    with pytest.raises(SystemExit) as exc:  # the flag is gone: a usage error
        main(["verify", "--policy", "greedy", "--n", "8", "--all-subsets"])
    assert exc.value.code == 2


def test_cross_check_has_one_row_source():
    """The sampled cross-check draws its rows from the seed alone: no module
    of the program defines a whole subset matrix or a second source of
    rows, and no command takes ``--all-subsets``."""
    for module in Path(analysis.__file__).parent.glob("*.py"):
        text = module.read_text()
        assert not re.search(r"\b(?:all_subsets|random_subsets|_SampledSubsets)\b", text), module.name
        assert "--all-subsets" not in text, module.name


@st.composite
def rank_countable_states(draw):
    """A greedy, clustered or advice policy restored to an arbitrary state."""
    kind = draw(st.sampled_from(["greedy", "clustered", "clustered-partial", "advice"]))
    if kind == "clustered-partial":
        # an explicit geometry whose last cluster is short, with a counter at the cap
        size = draw(st.integers(2, 5))
        n = size * draw(st.integers(0, 4)) + draw(st.integers(1, size - 1))
        policy = ClusteredPolicy(ClusterConfig(size, draw(st.integers(1, 3))))
    else:
        n = draw(st.integers(1, 24))
        policy = make_policy(kind, **({"threshold": draw(st.integers(1, 3))} if kind == "advice" else {}))
    policy.reset(n, n)
    if kind == "greedy":
        state = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    elif kind == "advice":
        T = policy.threshold
        state = draw(st.lists(st.integers(0, T + 2), min_size=n, max_size=n))
        if n >= 2:  # at least one listed and one unlisted bin
            i, j = draw(st.permutations(range(n)))[:2]
            state[i], state[j] = draw(st.integers(T, T + 2)), draw(st.integers(0, T - 1))
    else:
        cfg = policy.config
        k = cfg.num_clusters(n)
        state = draw(st.lists(st.integers(0, cfg.counter_cap), min_size=k, max_size=k))
        if kind == "clustered-partial":
            state[draw(st.integers(0, k - 1))] = cfg.counter_cap
    policy.restore(tuple(state))
    return policy, n


@settings(max_examples=200, deadline=None)
@given(case=rank_countable_states())
def test_rank_numerators_match_the_pair_walk(case):
    policy, n = case
    num = exact_placement_probs(policy, n).numerators
    walked, count, first = pair_walk(policy, n)
    assert count == 0 and first is None
    assert list(num) == walked
    assert sum(walked) == 2 * n * n


@st.composite
def rank_key_blocks(draw):
    """A greedy, clustered or advice policy and a block of its states.

    Keys run up to 3 (many ties), 2^20 (large row shifts) or 2^62 (blocks
    too wide to shift within int64, which must split)."""
    kind = draw(st.sampled_from(["greedy", "clustered", "advice"]))
    n = draw(st.integers(1, 16))
    top = draw(st.sampled_from([3, 2**20, 2**62]))
    if kind == "clustered":
        policy = ClusteredPolicy(ClusterConfig(draw(st.integers(1, 4)), top))
    else:
        policy = make_policy(kind, **({"threshold": draw(st.integers(1, 3))} if kind == "advice" else {}))
    policy.reset(n, n)
    width = policy.config.num_clusters(n) if kind == "clustered" else n
    row = st.lists(st.integers(0, top), min_size=width, max_size=width)
    return policy, n, draw(st.lists(row, min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(case=rank_key_blocks())
def test_block_rank_counts_match_per_state_counts(case):
    policy, n, states = case
    keys = []
    for state in states:
        policy.restore(tuple(state))
        keys.append(rank_keys(policy))
    block = rank_numerators(np.array(keys, dtype=np.int64))
    for row, state in zip(block.tolist(), states):
        policy.restore(tuple(state))
        assert row == list(exact_placement_probs(policy, n).numerators)
        assert row == pair_walk(policy, n)[0]


def test_rank_numerators_over_the_whole_int64_range():
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    block = [[lo, hi, 0], [hi, hi, lo], [5, -5, 5]]
    expected = [
        [2 + 4 * sum(k > ki for k in row) + 2 * (row.count(ki) - 1) for ki in row] for row in block
    ]
    assert rank_numerators(np.array(block, dtype=np.int64)).tolist() == expected


@pytest.mark.parametrize("name", ["greedy", "clustered", "advice"])
def test_rank_countable_policies_skip_pair_enumeration(name, monkeypatch):
    n = 32

    def build():
        return make_policy(name, threshold=2) if name == "advice" else make_policy(name)

    trace = simulate_run(SimConfig(n=n, seed=3, balls=2 * n, record_trace=True), build()).trace
    p = build()
    states = list(probe_states(p, n, 2 * n, seed=3, max_states=10))
    expected = []
    for s in states:
        p.restore(s)
        expected.append(tuple(pair_walk(p, n)[0]))

    def refuse(policy, n):
        raise AssertionError("pairs enumerated for a rank-countable policy")

    monkeypatch.setattr(analysis, "enumerate_choice_numerators", refuse)
    with pytest.raises(AssertionError):
        exact_placement_probs(make_policy("min-index"), n, state=())  # the patch is live
    assert [exact_placement_probs(p, n, state=s).numerators for s in states] == expected
    assert sweep_placement_bounds(p, n, states, n_subsets=50).ok
    forbidden_union_over_trace(build(), trace, n, Fraction(1, 4))


def test_enumerate_clustered_states_counts():
    states = enumerate_clustered_states(8, 8, 8)
    assert states.dtype == np.int64 and states.shape == (math.comb(16, 8), 8)  # 12870
    assert len(set(map(tuple, states.tolist()))) == len(states)
    assert enumerate_clustered_states(2, 1, 3).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


@pytest.mark.parametrize(
    "clusters, cap, balls", [(1, 3, 2), (1, 2, 5), (2, 1, 3), (3, 4, 0), (4, 3, 5), (5, 2, 20), (8, 8, 8)]
)
def test_enumerate_clustered_states_matches_the_recursion(clusters, cap, balls):
    rows = enumerate_clustered_states(clusters, cap, balls).tolist()
    assert list(map(tuple, rows)) == list(clustered_states(clusters, cap, balls))


def test_probe_states_dedup_and_cap():
    p = make_policy("greedy")
    states = list(probe_states(p, 8, 16, seed=1, max_states=5))
    assert 1 <= len(states) <= 5
    assert tuple([0] * 8) in [tuple(s.tolist()) for s in states]  # fresh state always visited first


def test_sweep_cuts_a_large_grid_into_bounded_slices(monkeypatch):
    """Each numerator block meets the epsilon grid a slice at a time, with at
    most ``_GRID_BLOCK`` (state, epsilon) entries per array: cut to 2^14,
    a block of 2048 states takes 300 epsilons in slices of 8, whose arrays
    hold 128 KiB where the whole block's hold 4.9 MB, and the report, the
    sampled cross-check's included, is the unsliced sweep's."""
    states = enumerate_clustered_states(8, 8, 8)[:2048]
    grid = [Fraction(k, 301) for k in range(1, 301)]

    def swept():
        tracemalloc.start()
        try:
            result = sweep_placement_bounds(
                ClusteredPolicy(ClusterConfig(2, 8)), 16, states, epsilons=grid, n_subsets=3
            )
            return sweep_report(result), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(states) * len(grid) <= analysis._GRID_BLOCK
    whole, whole_peak = swept()
    monkeypatch.setattr(analysis, "_GRID_BLOCK", 1 << 14)
    sliced, sliced_peak = swept()
    assert sliced == whole
    assert sliced_peak < 4 << 20 < whole_peak


def test_default_grid_keeps_each_block_whole(monkeypatch):
    """Every grid of up to 32 epsilons meets a block whole, so the default
    grid's sweep of the 12,870 clustered states at n = 16 makes one
    ``_counts_below`` call per block of 2048 states, as before the grid was
    sliced."""
    calls = []
    counts_below = analysis._counts_below

    def counted(rows, cut):
        calls.append(rows.shape + cut.shape)
        return counts_below(rows, cut)

    monkeypatch.setattr(analysis, "_counts_below", counted)
    result = sweep_placement_bounds(
        ClusteredPolicy(ClusterConfig(2, 8)), 16, enumerate_clustered_states(8, 8, 8)
    )
    assert result.states_checked == 12_870
    assert calls == [(2048, 16, 19)] * 6 + [(12_870 - 6 * 2048, 16, 19)]
    assert analysis._BLOCK * 32 <= analysis._GRID_BLOCK


def test_probe_states_stops_at_the_cap(monkeypatch):
    """Once max_states states are kept the walk ends: a run of three chunks
    whose first chunk reaches every kept state decides that chunk alone."""
    n, balls, cap = 16, 3 * STREAM_CHUNK, 5
    calls = []
    run_bulk = policies.GreedyTwoChoicePolicy.run_bulk

    def counted(self, *args):
        calls.append(len(args[1]))
        return run_bulk(self, *args)

    monkeypatch.setattr(policies.GreedyTwoChoicePolicy, "run_bulk", counted)
    states = list(probe_states(make_policy("greedy"), n, balls, seed=1, max_states=cap))
    assert len(states) == cap
    assert calls == [STREAM_CHUNK]


@pytest.mark.parametrize("policy", ["greedy", "clustered", "advice"])
def test_verify_caps_past_the_run_give_the_same_bytes(capsys, policy):
    """A run of 20 balls visits at most 21 states, so every probe cap of at
    least 21 keeps them all: caps past ``sys.maxsize``, which ``islice``
    refused with its own message, print the same report."""
    flags = ["--advice-threshold", "2"] if policy == "advice" else []
    outputs = []
    for cap in (21, 22, sys.maxsize, sys.maxsize + 1, 2**64, 10**30):
        argv = ["verify", "--policy", policy, "--n", "16", "--balls", "20", "--seed", "1"]
        assert main([*argv, "--max-states", str(cap), *flags]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1
    assert json.loads(outputs[0])["states_checked"] > 1


@pytest.mark.parametrize("n, threshold", [(16, 4300), (100, 740)])
def test_probe_states_cross_chunk_edges_as_the_one_shot_walk(n, threshold):
    """No bin is listed until the second chunk, so the fresh state lies in
    the first chunk and every other state kept in the second; they are the
    states a walk of the one-shot streams reaches. n = 100 places its
    chunks by a discarded pass."""
    balls, cap = 3 * STREAM_CHUNK + 5, 40
    oracle = make_policy("advice", threshold=threshold)
    oracle.reset(n, balls)
    steps = play(oracle, *draw_run_streams(SimConfig(n=n, seed=2, balls=balls)))
    want = [oracle.snapshot().tolist() for _ in islice(new_states(oracle, steps), cap)]
    probe = make_policy("advice", threshold=threshold)
    got = [s.tolist() for s in probe_states(probe, n, balls, seed=2, max_states=cap)]
    assert got == want
    assert sum(got[1]) > STREAM_CHUNK  # the balls thrown before the second state


def test_probe_memory_does_not_grow_with_balls():
    """The probe draws its streams a chunk at a time and stops at the last
    state it keeps, so a run 64 times longer peaks the same. The one-shot
    streams, as Python lists, took about 40 B per ball."""
    def probe(balls):
        return list(probe_states(make_policy("greedy"), 64, balls, seed=1, max_states=4))

    probe(STREAM_CHUNK)  # warm numpy's caches first
    peaks, states = [], []
    for balls in (STREAM_CHUNK, 64 * STREAM_CHUNK):
        tracemalloc.start()
        try:
            states.append(probe(balls))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert [len(s) for s in states] == [4, 4]
    assert peaks[1] < peaks[0] + 64 * 1024


@pytest.mark.parametrize("name", [*POLICY_NAMES, "clustered-capped"])
def test_dedup_is_exact_when_every_state_id_collides(name, monkeypatch):
    """The states counted without comparing are the distinct exact memories
    (the oracle compares them), even if all ids collide. The capped geometry
    runs its counters into the cap, where a ball changes no memory."""
    n, balls = 16, 40

    def build():
        if name == "clustered-capped":
            return ClusteredPolicy(ClusterConfig(3, 2))
        return make_policy(name, threshold=2) if name == "advice" else make_policy(name)

    trace = simulate_run(SimConfig(n=n, seed=5, balls=balls, record_trace=True), build()).trace
    oracle = build()
    oracle.reset(n, balls)
    before_steps = set()
    for rec in records(trace):
        before_steps.add(exact_memory(oracle))
        oracle.update((rec.bin_a, rec.bin_b), rec.chosen)
    expect_probed = len(before_steps | {exact_memory(oracle)})
    # the policies with memory visit many states, the stateless ones one
    assert len(before_steps) > 2 or exact_memory(oracle) == ()

    for collide in (False, True):
        if collide:
            monkeypatch.setattr(type(build()), "state_id", lambda self: 0)
        assert len(list(probe_states(build(), n, balls, seed=5))) == expect_probed
        _, distinct = forbidden_union_over_trace(build(), trace, n, Fraction(1, 4))
        assert distinct == len(before_steps)


# sha256 of stdout at the commit before states were counted by monotone growth
# (by an exact compare of the memory at every step), with the states each checked
PINNED_STATE_OUTPUTS = [
    (["verify", "--policy", "greedy", "--n", "64", "--balls", "128"],
     "states_checked", 64, "66e7d56a7378b4e868bd4589cc85b1350d9e9dee7360aa541d41c7d1daa11395"),
    (["verify", "--policy", "advice", "--advice-threshold", "2", "--n", "64", "--balls", "128"],
     "states_checked", 64, "87d7e393fc0dd7c4971c6953226216ce2c2c80275bbadc879b37b47c3829c50b"),
    (["verify", "--policy", "clustered", "--cluster-size", "3", "--counter-cap", "2",
      "--n", "30", "--balls", "200"],
     "states_checked", 21, "f49bce6c34d786772b956816a434a1c150e85690eb911ef92d0db72c31105bbb"),
    (["phases", "--forbidden", "--phases", "2", "--policy", "greedy", "--n", "64"],
     "states_seen", 64, "6459aed791f58a90f4e5d9e27ced84f71779f61c5d771bba70e4784ac75dc5ba"),
    (["phases", "--forbidden", "--phases", "2", "--policy", "greedy", "--n", "64",
      "--balls", "128"],
     "states_seen", 128, "4ff2bd5ffe46e77ca5e2d550b82f25d1ba4c00c1624529c3a6bee987b85eeeca"),
    (["phases", "--forbidden", "--phases", "2", "--policy", "advice", "--advice-threshold", "2",
      "--n", "64", "--balls", "256"],
     "states_seen", 192, "4c45551501a84da477c7f5dbf3b98257dc02e48aaf8e19cd7ac50d2abb52adc2"),
    (["phases", "--forbidden", "--phases", "2", "--policy", "clustered", "--cluster-size", "3",
      "--counter-cap", "2", "--n", "30"],
     "states_seen", 21, "1102bed9d4704061fb9e16e68bf56bcecc97a50cc071a4ee1da5c964573b69f2"),
    (["phases", "--forbidden", "--phases", "2", "--policy", "clustered", "--cluster-size", "3",
      "--counter-cap", "2", "--n", "30", "--balls", "200"],
     "states_seen", 21, "3a9f16ed3465c6ca5f461c2243d67fb7e63b14ca6c571f318804efe48f9cf569"),
]


@pytest.mark.parametrize("argv, field, states, digest", PINNED_STATE_OUTPUTS)
def test_state_counting_outputs_are_pinned(argv, field, states, digest, capsys):
    """verify and phases --forbidden print the bytes they printed when every
    state was compared exactly."""
    assert main(argv + ["--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)[field] == states
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32), balls=st.integers(1, 24))
def test_size_bound_holds_for_visited_greedy_states(seed, balls):
    n = 12
    p = make_policy("greedy")
    for state in list(probe_states(p, n, balls, seed=seed, max_states=30)):
        pp = exact_placement_probs(p, n, state=state)
        for eps in default_epsilon_grid():
            assert len(forbidden_set(pp, eps)) <= eps * n


def _forbidden_oracle(num, n, eps):
    """F = {i : p_i < eps/n} in Fractions, from numerators over 2n^2."""
    return {i for i, x in enumerate(num) if Fraction(x, 2 * n * n) < eps / n}


def _walked_states(build, n, trace):
    """Each step's pre-step snapshot and pair-enumerated numerators (the oracle)."""
    p = build()
    p.reset(n, len(trace))
    walked = []
    for rec in records(trace):
        walked.append((p.snapshot(), pair_walk(p, n)[0]))
        p.update((rec.bin_a, rec.bin_b), rec.chosen)
    return p, walked


def _check_forbidden_against_fractions(build, n, trace, eps, sweep=True):
    """forbidden_set per state, the union over the trace and the sweep's |F|
    (its size margin eps n - |F|) all agree with the Fraction oracle."""
    p, walked = _walked_states(build, n, trace)
    union = set()
    for snap, num in walked:
        members = _forbidden_oracle(num, n, eps)
        union |= members
        assert forbidden_set(exact_placement_probs(p, n, state=snap), eps) == members
    assert forbidden_union_over_trace(build(), trace, n, eps)[0] == union
    if not sweep:
        return
    res = sweep_placement_bounds(p, n, (snap for snap, _ in walked), epsilons=[eps])
    for snap, num in walked:
        p.restore(snap)
        size_margin = eps * n - len(_forbidden_oracle(num, n, eps))
        assert margins_by_id(res)[p.state_id()][1] == float(size_margin)


@settings(max_examples=60, deadline=None)
@given(build=any_policy_builder(), n=st.integers(1, 16), seed=st.integers(0, 2**32),
       q=st.integers(2, 2**40), data=st.data())
def test_forbidden_set_union_and_sweep_match_fractions(build, n, seed, q, data):
    """F at random epsilons, and at epsilons that put a visited bin exactly
    at eps/n, where the strict comparison leaves it outside F."""
    trace = simulate_run(SimConfig(n=n, seed=seed, balls=2 * n, record_trace=True), build()).trace
    if data.draw(st.booleans()):
        eps = Fraction(data.draw(st.integers(1, q - 1)), q)
    else:
        _, walked = _walked_states(build, n, trace)
        num = data.draw(st.sampled_from(walked))[1]
        eps = Fraction(data.draw(st.sampled_from(num)), 2 * n)  # p_i = eps / n
        assume(0 < eps < 1)
    _check_forbidden_against_fractions(build, n, trace, eps)


def test_a_bin_exactly_at_eps_over_n_stays_outside_f():
    # max-index at n = 2 places 1/4 on bin 0, and eps / n = 1/4 at eps = 1/2
    p = _bound_policy("max-index", 2)
    pp = exact_placement_probs(p, 2)
    assert fractions(pp)[0] == Fraction(1, 2) / 2
    assert forbidden_set(pp, Fraction(1, 2)) == frozenset()
    res = sweep_placement_bounds(p, 2, [p.snapshot()], epsilons=[Fraction(1, 2)])
    assert res.ok and list(margins_by_id(res).values()) == [[0.0, 1.0]]  # w_0 = 0: margin 0


@pytest.mark.parametrize("q", [2**62, 2**63, 2**64, 2**89 - 1])  # the last is prime
@pytest.mark.parametrize("name", ["greedy", "max-index"])
def test_forbidden_set_and_union_at_denominators_past_int64(q, name):
    """No product q num_i is formed, so F stays exact where that product
    would not fit in int64 (the sweep refuses such epsilons): epsilons just
    either side of each threshold k / (2n), in lowest terms over q."""
    n = 4
    trace = simulate_run(SimConfig(n=n, seed=2, balls=3 * n, record_trace=True), make_policy(name)).trace
    for k in range(1, 2 * n):
        for eps in (Fraction(k * q // (2 * n) - 1, q), Fraction(k * q // (2 * n) + 1, q)):
            assert eps.denominator == q
            _check_forbidden_against_fractions(lambda: make_policy(name), n, trace, eps, sweep=False)


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_forbidden_union_asks_no_state_id_and_builds_no_probs(name, monkeypatch):
    """The union asks no state id; the program has no one-state probability
    record left to build, so that half holds by construction."""
    n = 16

    def build():
        return make_policy(name, threshold=2) if name == "advice" else make_policy(name)

    trace = simulate_run(SimConfig(n=n, seed=5, balls=2 * n, record_trace=True), build()).trace
    expected = forbidden_union_over_trace(build(), trace, n, Fraction(1, 4))

    def refuse(*args):
        raise AssertionError("the union asked for a state id")

    monkeypatch.setattr(type(build()), "state_id", refuse)
    assert forbidden_union_over_trace(build(), trace, n, Fraction(1, 4)) == expected


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_forbidden_report_asks_one_state_id_of_a_stored_trace_and_none_live(name, monkeypatch):
    """A stored trace's report asks one state id, the reset state's, where
    ``core._prove_ids`` starts proving the id column; a live run's report
    (``analysis._Rerun``) asks none."""
    config, pc = SimConfig(n=64, seed=5), PhaseConfig(n=64, phases=2)

    def build():
        return make_policy(name, threshold=2) if name == "advice" else make_policy(name)

    trace = simulate_run(dataclasses.replace(config, record_trace=True), build()).trace
    cls = type(build())
    state_id, calls = cls.state_id, []

    def counted(self):
        calls.append(name)
        return state_id(self)

    monkeypatch.setattr(cls, "state_id", counted)
    phase_report_with_forbidden(build(), analysis._Rerun(config), pc)
    assert len(calls) == 0
    phase_report_with_forbidden(build(), trace, pc)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# phases


def test_phase_config_thresholds():
    pc = PhaseConfig(n=16, phases=1)
    assert pc.epsilon == Fraction(1, 2)
    assert pc.phase_size == 16
    assert pc.threshold(1) == 1  # (eps/4L)^1 * n/2 = (1/8) * 8
    pc2 = PhaseConfig(n=100, phases=2)
    assert pc2.epsilon == Fraction(1, 4)
    assert pc2.threshold(1) == Fraction(50, 32)  # 1.5625
    assert pc2.threshold(2) == Fraction(50, 1024)
    # thresholds decay geometrically by eps/(4L) = 1/(8 L^2)
    assert pc2.threshold(2) / pc2.threshold(1) == Fraction(1, 32)


def test_phase_config_validation_and_from_delta():
    with pytest.raises(ValueError):
        PhaseConfig(n=16, phases=0)
    with pytest.raises(ValueError):
        PhaseConfig(n=4, phases=5)
    assert PhaseConfig.from_delta(1 << 16, 1.0).phases == 2
    assert PhaseConfig.from_delta(1 << 16, 0.5).phases == 1
    assert PhaseConfig.from_delta(16, 0.5).phases == 1  # floors to >= 1


def test_phase_one_passes_when_any_bin_nonempty():
    pc = PhaseConfig(n=16, phases=1)
    rep, result = run_phase_report(SimConfig(n=16, seed=3), make_policy("greedy"), pc)
    assert rep.thresholds == [1.0]
    assert rep.sizes[0] == sum(1 for v in result.loads if v >= 1)
    assert rep.passes == [True]


def test_phase_report_from_trace_matches_live_run():
    cfg = SimConfig(n=64, seed=17, balls=64, record_trace=True)
    pc = PhaseConfig(n=64, phases=4)
    traced = simulate_run(cfg, make_policy("greedy"))
    rep_trace = phase_report(traced.trace, pc)
    rep_live, live = run_phase_report(SimConfig(n=64, seed=17), make_policy("greedy"), pc)
    assert rep_trace.sizes == rep_live.sizes
    assert rep_trace.passes == rep_live.passes
    assert live.loads == traced.loads


def _chosen_trace(chosen) -> Trace:
    """A trace with the chosen bins ``chosen``, each offered as both bins."""
    return Trace(np.zeros(len(chosen)), chosen, chosen, chosen)


def test_phase_report_trace_too_short():
    pc = PhaseConfig(n=64, phases=4)
    with pytest.raises(ValueError, match="trace too short: 30 < 64 balls"):
        phase_report(_chosen_trace([0] * 30), pc)


def _phase_walk(pieces, pc):
    """``_phase_loads`` over ``pieces``: the loads at each phase end as
    lists, or the message of the error it raises."""
    try:
        return [loads.tolist() for loads in analysis._phase_loads(pieces, pc)]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_phase_loads_over_any_cut_of_the_column_equal_the_whole_columns(data):
    """A phase may end inside a piece or at its edge, pieces may be empty,
    and the column may be short or hold a bin outside 0..n-1: the walk
    over the pieces yields and raises what the walk over the whole column
    does, and that is the loads of each phase's prefix."""
    n = data.draw(st.integers(1, 10))
    pc = PhaseConfig(n=n, phases=data.draw(st.integers(1, n)))
    chosen = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    if chosen and data.draw(st.booleans()):
        chosen[data.draw(st.integers(0, len(chosen) - 1))] = data.draw(st.sampled_from([-1, n]))
    chosen = np.array(chosen, dtype=np.int64)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(chosen)), max_size=6)))
    pieces = [chosen[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(chosen)])]
    whole = _phase_walk([chosen], pc)
    assert _phase_walk(pieces, pc) == whole
    ends = range(pc.phase_size, pc.phases * pc.phase_size + 1, pc.phase_size)
    if not isinstance(whole, str):
        assert whole == [np.bincount(chosen[:end], minlength=n).tolist() for end in ends]


@pytest.mark.parametrize("name, n", [
    ("greedy", 2 * STREAM_CHUNK - 1),  # phases end a ball before each chunk edge
    ("advice", 2 * STREAM_CHUNK + 1),  # at the chunk edges
    ("clustered", 2 * STREAM_CHUNK + 3),  # a ball after them
])
def test_live_phase_loads_equal_the_play_oracle_across_chunk_edges(monkeypatch, name, n):
    """run_phase_report reads the loads at each phase end from the chunks
    of the untraced walk; they equal the loads of a step-by-step ``play``
    of the same streams, and so does the run's final load vector."""
    params = {"threshold": 2} if name == "advice" else {}
    pc = PhaseConfig(n=n, phases=2)
    balls = 2 * pc.phase_size + 5  # a few balls past the last phase
    config = SimConfig(n=n, seed=n, balls=balls)
    seen = []
    walk = analysis._phase_loads

    def recording(pieces, pc):
        for loads in walk(pieces, pc):
            seen.append(loads.tolist())
            yield loads

    monkeypatch.setattr(analysis, "_phase_loads", recording)
    report, result = run_phase_report(config, make_policy(name, **params), pc)
    oracle = make_policy(name, **params)
    oracle.reset(n, balls)
    chosen = np.fromiter(play(oracle, *draw_run_streams(config)), dtype=np.int64, count=balls)
    want = [np.bincount(chosen[:end], minlength=n) for end in (pc.phase_size, 2 * pc.phase_size)]
    assert seen == [loads.tolist() for loads in want]
    assert report.sizes == [int(np.count_nonzero(loads >= i)) for i, loads in enumerate(want, 1)]
    assert result.loads == np.bincount(chosen, minlength=n).tolist()


def test_live_phase_report_holds_no_loads_per_phase():
    """The live report's peak is the same with 1 and with 16 phases: no
    copy of the loads is kept per phase end."""
    n = 100_003
    config = SimConfig(n=n, seed=3, balls=3 * STREAM_CHUNK)
    peaks = []
    for phases in (1, 16):
        pc = PhaseConfig(n=n, phases=phases)
        run_phase_report(config, make_policy("greedy"), pc)  # warm the caches first
        tracemalloc.start()
        try:
            run_phase_report(config, make_policy("greedy"), pc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + n  # a list of the loads takes 8 B per bin


def test_live_forbidden_report_holds_no_trace():
    """A live run's forbidden report walks the run twice and keeps neither
    walk's steps: its peak is the same at 2 and at 6 chunks of balls, where
    a trace would hold 33 B per ball (8.7 MB more). It reports what the
    report from the run's stored trace does."""
    n, pc = 64, PhaseConfig(n=64, phases=2)

    def build():
        return ClusteredPolicy(ClusterConfig(3, 4))

    peaks = []
    for chunks in (2, 6):
        config = SimConfig(n=n, seed=5, balls=chunks * STREAM_CHUNK)
        run = analysis._Rerun(config)
        live = phase_report_with_forbidden(build(), run, pc).to_dict()  # warms the caches too
        tracemalloc.start()
        try:
            phase_report_with_forbidden(build(), run, pc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        trace = simulate_run(dataclasses.replace(config, record_trace=True), build()).trace
        assert live == phase_report_with_forbidden(build(), trace, pc).to_dict()
    assert peaks[1] < peaks[0] + (64 << 10)


def test_phase_report_excludes_leftover_balls():
    # 10 balls into bin 0 first, then bins 1..5: with L=2, phase_size=3,
    # only the first 6 balls count toward S_1 and S_2.
    chosen = [0, 0, 0, 1, 1, 2, 3, 4, 5, 0]
    pc = PhaseConfig(n=6, phases=2)
    rep = phase_report(_chosen_trace(chosen), pc)
    assert rep.sizes == [1, 2]  # S_1 = {0}; S_2 = {0, 1}


def test_phase_report_passes_on_two_choice_grid():
    # reduced-trial version of the 2^16 pilot: thresholds 1024 and 32 are
    # cleared by ~30000 and ~15000 in every reference trial
    n = 1 << 16
    pc = PhaseConfig(n=n, phases=2)
    for trial in range(10):
        rep, _ = run_phase_report(SimConfig(n=n, seed=1000 + trial), make_policy("greedy"), pc)
        assert rep.all_passed
        assert rep.sizes[0] > 20_000 and rep.sizes[1] > 10_000


def test_failure_bound_is_reported_and_clamped():
    pc = PhaseConfig(n=16, phases=2)
    rep, _ = run_phase_report(SimConfig(n=16, seed=1), make_policy("greedy"), pc)
    assert len(rep.failure_bounds) == 2
    assert all(0 < f <= 1 for f in rep.failure_bounds)


def test_forbidden_union_empty_for_one_choice():
    cfg = SimConfig(n=8, seed=2, balls=16, record_trace=True)
    r = simulate_run(cfg, make_policy("one-choice"))
    union, nstates = forbidden_union_over_trace(make_policy("one-choice"), r.trace, 8, Fraction(1, 2))
    assert union == set()
    assert nstates == 1


def test_phase_report_with_forbidden_overlap():
    n = 16
    cfg = SimConfig(n=n, seed=4, balls=n, record_trace=True)
    r = simulate_run(cfg, make_policy("greedy"))
    pc = PhaseConfig(n=n, phases=2)
    rep = phase_report_with_forbidden(make_policy("greedy"), r.trace, pc, Fraction(1, 4))
    assert rep.states_seen >= 1
    assert len(rep.forbidden_overlap) == 2
    assert all(0 <= o <= s for o, s in zip(rep.forbidden_overlap, rep.sizes))
    d = rep.to_dict()
    assert d["rows"][0]["forbidden_overlap"] == rep.forbidden_overlap[0]


def test_phase_report_with_forbidden_one_choice_keeps_sizes():
    # forbidden sets are empty for the uniform policy, so overlap == |S_i|
    n = 12
    cfg = SimConfig(n=n, seed=6, balls=n, record_trace=True)
    r = simulate_run(cfg, make_policy("one-choice"))
    pc = PhaseConfig(n=n, phases=2)
    rep = phase_report_with_forbidden(make_policy("one-choice"), r.trace, pc)
    assert rep.forbidden_overlap == rep.sizes


ID_PROOF_POLICIES = {
    **{name: (lambda name=name: make_policy(name)) for name in POLICY_NAMES if name != "advice"},
    "advice": lambda: make_policy("advice", threshold=2),
    # 11 counters of 4 bits fit in 63 bits, so the ids are the packed counters
    "clustered-packed": lambda: ClusteredPolicy(ClusterConfig(3, 15)),
    "clustered-linear": lambda: ClusteredPolicy(ClusterConfig(1, 3)),
}


@pytest.mark.parametrize("name", sorted(ID_PROOF_POLICIES))
def test_forbidden_report_proves_the_id_column(name):
    """A trace the policy wrote passes the id proof; the same trace with one
    step's id changed is refused at that step, though every step replays."""
    build, n = ID_PROOF_POLICIES[name], 32
    pc = PhaseConfig(n=n, phases=2)
    config = SimConfig(n=n, seed=11, balls=3 * n, record_trace=True)
    trace = simulate_run(config, build()).trace
    if name != "illegal-fixture":
        phase_report_with_forbidden(build(), trace, pc)
    core._prove_ids(build(), trace, n)
    for t in (0, 2 * n + 1):
        ids = trace.ids.copy()
        ids[t] ^= 1 << 63
        forged = Trace(ids, trace.bin_a, trace.bin_b, trace.chosen)
        assert list(replay(build(), forged, n)) == trace.chosen.tolist()
        core._prove_steps(build(), forged, n)
        with pytest.raises(ValueError, match=rf"^trace step {t} records memory_state_id {ids[t]}, "):
            core._prove_ids(build(), forged, n)


# ---------------------------------------------------------------------------
# closed-form bounds, tails, advice size


def test_theoretical_bounds_examples():
    b = theoretical_bounds(1 << 16, 0.5)
    assert b.lower_L == pytest.approx(1.0)
    assert b.upper_T == pytest.approx(4.0)
    assert b.epsilon == pytest.approx(0.5)
    b1 = theoretical_bounds(1 << 16, 1.0)
    assert b1.lower_L == pytest.approx(2.0)
    assert b1.upper_T == pytest.approx(8.0)
    # n^(1-delta) bits of advice at ~2 log2 n bits per entry
    assert theoretical_bounds(1 << 16, 0.25).advice_list_bound == pytest.approx(128.0)


def test_upper_is_four_times_lower():
    for n in (4, 100, 1 << 14, 1 << 20):
        for delta in (0.1, 0.5, 1.0):
            b = theoretical_bounds(n, delta)
            assert b.upper_T == pytest.approx(4 * b.lower_L, abs=0, rel=1e-15)


def test_theoretical_bounds_domain():
    with pytest.raises(ValueError):
        theoretical_bounds(3, 0.5)
    with pytest.raises(ValueError):
        theoretical_bounds(16, 0)
    with pytest.raises(ValueError):
        theoretical_bounds(16, 1.5)


def test_advice_threshold_is_ceiled_upper_T():
    assert advice_threshold(1 << 20, 0.5) == 5  # ceil(4.6276)
    assert advice_threshold(1 << 16, 0.5) == 4  # exactly 4.0


def test_poisson_tail_examples():
    assert poisson_upper_tail(2, 0).probability == 1.0
    assert poisson_upper_tail(2, 1).probability == pytest.approx(1 - math.exp(-2), abs=1e-15)
    assert poisson_upper_tail(2, 3).probability == pytest.approx(1 - 5 * math.exp(-2), abs=1e-15)


def test_poisson_tail_leading_term():
    pt = poisson_upper_tail(2, 4)
    assert pt.leading_term == pytest.approx(math.exp(-2) * 16 / 24, rel=1e-12)


def test_poisson_tail_matches_direct_sum_oracle():
    for t in range(0, 31):
        got = poisson_upper_tail(2, t).probability
        want = poisson_tail_oracle(2, t)
        assert abs(got - want) <= 1e-12, (t, got, want)


def _per_t_tail(lam, t):
    """The tail as each t once summed it on its own: the same recurrence
    from e^-lambda, walked afresh for every t."""
    pmf, cdf = math.exp(-lam), 0.0
    for k in range(t):
        if k > 0:
            pmf *= lam / k
        cdf += pmf
    return max(1.0 - cdf, 0.0)


@pytest.mark.parametrize("lam, t_max", [(0.5, 40), (2, 60), (50.0, 200), (708.3, 900)])
def test_one_tail_walk_is_the_per_t_sum_bit_for_bit(lam, t_max):
    """Where e^-lambda is a normal float, one walk for the whole table gives
    every tail the per-t sum gave, in the same operations."""
    tails = list(analysis._poisson_tails(lam, t_max))
    assert [pt.t for pt in tails] == list(range(t_max + 1))
    assert [pt.probability for pt in tails] == [_per_t_tail(lam, t) for t in range(t_max + 1)]
    assert tails[-1] == poisson_upper_tail(lam, t_max)


@pytest.mark.parametrize("lam", [740.0, 800.0])
def test_poisson_tail_past_the_normal_range_matches_the_log_space_oracle(lam):
    """Past lambda ~ 708.4, e^-lambda is subnormal (740) or 0 (800), where
    the recurrence from it printed 0.50361 for P(X >= 740) at 740 and 1
    for every tail at 800."""
    assert math.exp(-lam) < sys.float_info.min
    if lam == 800:
        with pytest.raises(OverflowError):
            poisson_tail_oracle(lam, int(lam))
    tails = list(analysis._poisson_tails(lam, 1200))
    for pt in tails[::7] + [tails[int(lam)]]:
        assert abs(pt.probability - poisson_tail_log_oracle(lam, pt.t)) <= 1e-12, pt
    assert round(tails[int(lam)].probability, 5) == {740.0: 0.50489, 800.0: 0.50470}[lam]


def test_poisson_tail_domain():
    with pytest.raises(ValueError):
        poisson_upper_tail(0, 1)
    with pytest.raises(ValueError):
        poisson_upper_tail(2, -1)


def test_advice_size_check_quiet_loads():
    # threshold at n=16, delta=0.5 is 2.0; loads all <= 1 stay unlisted
    rep = advice_list_size_check([0, 1, 1, 0] * 4, 16, 0.5)
    assert rep.count_over_threshold == 0
    assert rep.ok


def test_advice_size_check_bound_value():
    rep = advice_list_size_check([0] * (1 << 20), 1 << 20, 0.5)
    assert rep.bound == pytest.approx(25.6)


def test_advice_size_check_counts_and_flags():
    n = 16
    b = theoretical_bounds(n, 0.5)  # threshold 2.0, bound 0.5
    loads = [0] * n
    loads[3] = math.ceil(b.upper_T)
    rep = advice_list_size_check(loads, n, 0.5)
    assert rep.count_over_threshold == 1
    assert not rep.ok  # 1 > 0.5: advisory failure, reported not raised
    with pytest.raises(ValueError):
        advice_list_size_check(loads, 8, 0.5)
