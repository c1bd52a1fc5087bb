"""Exact probability reconstruction, bound checks, phases, tails."""

import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballast import (
    POLICY_NAMES,
    ClusterConfig,
    ClusteredPolicy,
    PhaseConfig,
    SimConfig,
    advice_list_size_check,
    advice_threshold,
    all_subsets,
    check_placement_bounds,
    default_epsilon_grid,
    enumerate_clustered_states,
    exact_placement_probs,
    forbidden_set,
    forbidden_union_over_trace,
    make_policy,
    phase_report,
    phase_report_with_forbidden,
    poisson_upper_tail,
    probe_states,
    run_phase_report,
    simulate_run,
    sweep_placement_bounds,
    theoretical_bounds,
)
from ballast import analysis
from ballast.analysis import enumerate_choice_numerators, placement_numerators, rank_numerators
from ballast.cli import main

from oracles import exact_memory, poisson_tail_oracle


def _bound_policy(name, n, **params):
    p = make_policy(name, **params)
    p.reset(n, n)
    return p


# ---------------------------------------------------------------------------
# placement probabilities


def test_one_choice_probs_uniform():
    pp = exact_placement_probs(_bound_policy("one-choice", 4), 4)
    assert pp.fractions() == [Fraction(1, 4)] * 4


def test_max_index_probs_n2():
    # 4 ordered pairs: (0,0)->0; (0,1),(1,0),(1,1)->1
    pp = exact_placement_probs(_bound_policy("max-index", 2), 2)
    assert pp.fractions() == [Fraction(1, 4), Fraction(3, 4)]


def test_greedy_fresh_state_uniform():
    for n in (3, 16):
        pp = exact_placement_probs(_bound_policy("greedy", n), n)
        assert pp.fractions() == [Fraction(1, n)] * n


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
        exact = pp.fractions()
        approx = pp.floats()
        assert all(abs(float(e) - a) <= 1e-12 for e, a in zip(exact, approx))


def test_max_index_attains_probability_cap():
    n = 8
    pp = exact_placement_probs(_bound_policy("max-index", n), n)
    assert pp.fractions()[n - 1] == Fraction(2 * n - 1, n * n)  # == 2/n - 1/n^2


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
    assert forbidden_set(pp, Fraction(1, 2)).members == frozenset()


def test_forbidden_set_threshold_cases():
    pp = _probs_quarter_three_quarters()
    assert forbidden_set(pp, Fraction(2, 5)).members == frozenset()  # 1/4 >= 0.2
    fs = forbidden_set(pp, Fraction(3, 5))  # 1/4 < 0.3
    assert fs.members == frozenset({0})
    assert len(fs.members) <= Fraction(3, 5) * 2


def test_forbidden_set_strict_boundary_excludes():
    pp = exact_placement_probs(_bound_policy("one-choice", 4), 4)
    # p_i = 1/4 exactly; eps = 1 would make eps/n = 1/4: equality stays out
    # but eps must be < 1, so probe just below and above via fractions.
    assert forbidden_set(pp, Fraction(99, 100)).members == frozenset()


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


def test_exhaustive_small_sweep_zero_violations():
    # all subsets, full epsilon grid, tiny n: brute force is the oracle
    n = 8
    for name in ("one-choice", "max-index", "min-index", "greedy"):
        p = _bound_policy(name, n)
        res = sweep_placement_bounds(p, n, [p.snapshot()], subsets=all_subsets(n))
        assert res.ok, f"{name}: {res.to_dict()}"
        assert res.n_subsets == 256


def test_sweep_agrees_with_single_checks():
    # dual route: the batched float64 sweep must match the Fraction-based
    # checker exactly for the same states, epsilons, and subsets
    import numpy as np

    n = 16
    M = np.zeros((256, n), dtype=np.int64)
    M[:, :8] = all_subsets(8)  # bitmask rows over the first 8 bins
    eps_grid = [Fraction(1, 20), Fraction(1, 2), Fraction(19, 20)]
    for name, params in (("greedy", {}), ("clustered", {}), ("advice", {"threshold": 2})):
        p = _bound_policy(name, n, **params)
        states = probe_states(p, n, 24, seed=9, max_states=8)
        assert len(states) > 1
        res = sweep_placement_bounds(p, n, states, epsilons=eps_grid, subsets=M)
        assert res.ok
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
            assert res.worst_margins[pp.memory_state_id] == margins, name


def test_sweep_refuses_epsilons_it_cannot_sum_exactly():
    # 4 q n^2 < 2^53 keeps every float64 partial sum an exact integer
    n = 4
    p = _bound_policy("greedy", n)
    state = (3, 0, 1, 0)
    with pytest.raises(ValueError, match="too fine for an exact sweep"):
        sweep_placement_bounds(p, n, [state], epsilons=[Fraction(1, 2**47)])
    finest = Fraction(2**46 - 1, 2**47 - 1)
    res = sweep_placement_bounds(p, n, [state], epsilons=[finest], subsets=all_subsets(n))
    pp = exact_placement_probs(p, n, state=state)
    reports = [
        check_placement_bounds(pp, finest, {i for i in range(n) if row[i]})
        for row in all_subsets(n)
    ]
    assert res.worst_margins[pp.memory_state_id][0] == float(min(r.lhs - r.rhs for r in reports))


def test_sweep_catches_illegal_policy():
    n = 8
    p = _bound_policy("illegal-fixture", n)
    res = sweep_placement_bounds(p, n, [p.snapshot()])
    assert not res.ok
    assert res.support_violations > 0
    assert res.size_violations > 0  # all mass on one bin starves the rest


def test_sweep_reports_margins_per_state():
    n = 8
    p = _bound_policy("one-choice", n)
    res = sweep_placement_bounds(p, n, [p.snapshot()])
    assert len(res.worst_margins) == 1
    (margins,) = res.worst_margins.values()
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
        states = probe_states(p, n, 2 * n, seed=n, max_states=4)
        oracle = {}
        for state in states:
            p.restore(state)
            oracle[p.state_id()] = enumerate_choice_numerators(p, n)[0]
        for eps in default_epsilon_grid():
            res = sweep_placement_bounds(p, n, states, epsilons=[eps])
            assert res.n_subsets is None and res.subset_violations == 0
            for sid, num in oracle.items():
                assert res.worst_margins[sid][0] == float(_brute_subset_margin(num, n, eps)), (n, eps)


def test_negative_weights_count_as_subset_violations(monkeypatch):
    # no non-negative numerator vector gets here, so force two negative ones
    n = 4
    p = _bound_policy("greedy", n)
    sid = p.state_id()
    monkeypatch.setattr(analysis, "rank_numerators", lambda keys: np.array([[-1, -2, 20, 12]] * len(keys)))
    for subsets in (None, all_subsets(n)):
        res = sweep_placement_bounds(p, n, [p.snapshot()], epsilons=[Fraction(1, 2)], subsets=subsets)
        assert res.subset_violations == 1
        assert res.violation_samples[-1] == {"kind": "subset", "state": sid, "epsilon": 0.5, "bins": [0, 1]}
        # q = 2: w = (-2, -4, 32, 16), so the lightest subset is {0, 1}, -6 / (2 q n^2)
        assert res.worst_margins[sid][0] == -6 / 64


def test_sampled_sum_below_the_exact_minimum_raises():
    n = 4
    p = _bound_policy("greedy", n)
    with pytest.raises(RuntimeError, match="sampled subset 1 .* below the exact minimum"):
        sweep_placement_bounds(p, n, [p.snapshot()], subsets=-all_subsets(n))


# sha256 of json.dumps(random_subsets(n, count, seed).tolist()), the one-shot rows
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
    assert matrix.dtype == np.int64
    assert np.array_equal(matrix, analysis.random_subsets(n, count, seed))
    digest = hashlib.sha256(json.dumps(matrix.tolist()).encode()).hexdigest()
    assert digest == SUBSET_DIGESTS[(n, count, seed)]


def test_sampled_cross_check_holds_one_block_of_rows(monkeypatch):
    """Seeded rows are drawn and multiplied a block at a time, for a group of
    states at a time, and give the report the whole matrix gives."""
    n, count = 256, 4000
    p = _bound_policy("greedy", n)
    states = probe_states(p, n, 2 * n, seed=1, max_states=5)
    whole = sweep_placement_bounds(p, n, states, subsets=analysis.random_subsets(n, count, 7))
    monkeypatch.setattr(analysis, "_PRODUCT_BLOCK", 1 << 12)
    tracemalloc.start()
    try:
        blocked = sweep_placement_bounds(p, n, states, n_subsets=count, subset_seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocked.to_dict() == whole.to_dict()
    assert blocked.n_subsets == count and blocked.ok
    assert peak < 8 * n * count / 4  # the int64 matrix alone takes 8 n count bytes


def test_default_sweep_and_verify_never_build_a_subset_matrix(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("subset matrix built on the default path")

    monkeypatch.setattr(analysis, "random_subsets", refuse)
    monkeypatch.setattr(analysis, "random_subset_blocks", refuse)
    monkeypatch.setattr(analysis, "all_subsets", refuse)
    n = 16
    p = _bound_policy("greedy", n)
    res = sweep_placement_bounds(p, n, probe_states(p, n, 2 * n, seed=1, max_states=8))
    assert res.ok and res.n_subsets is None
    assert main(["verify", "--policy", "clustered", "--n", "8", "--balls", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["n_subsets"] is None
    for flag in (["--subsets", "5"], ["--all-subsets"]):
        with pytest.raises(AssertionError):  # the patch is live
            main(["verify", "--policy", "greedy", "--n", "8", *flag])


def _decide_numerators(policy, n):
    """Numerators of the rule that runs: decide(pair, 0) and decide(pair, 1)
    each take one half of every ordered pair."""
    num = [0] * n
    for a in range(n):
        for b in range(n):
            num[policy.decide((a, b), 0)] += 1
            num[policy.decide((a, b), 1)] += 1
    return num


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
def test_rank_numerators_match_both_enumerations(case):
    policy, n = case
    num, support = placement_numerators(policy, n)
    enumerated, violations = enumerate_choice_numerators(policy, n)
    assert support == [] and violations == []
    assert num.tolist() == enumerated == _decide_numerators(policy, n)
    assert sum(enumerated) == 2 * n * n


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
        keys.append(policy.rank_keys())
    block = rank_numerators(np.stack(keys))
    for row, state in zip(block.tolist(), states):
        policy.restore(tuple(state))
        assert row == placement_numerators(policy, n)[0].tolist()
        assert row == enumerate_choice_numerators(policy, n)[0]


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
    states = probe_states(p, n, 2 * n, seed=3, max_states=10)
    expected = []
    for s in states:
        p.restore(s)
        expected.append(tuple(enumerate_choice_numerators(p, n)[0]))

    def refuse(self, pair):
        raise AssertionError("choice_dist called for a rank-countable policy")

    monkeypatch.setattr(type(p), "choice_dist", refuse)
    with pytest.raises(AssertionError):
        enumerate_choice_numerators(p, n)  # the patch is live
    assert [exact_placement_probs(p, n, state=s).numerators for s in states] == expected
    assert sweep_placement_bounds(p, n, states, n_subsets=50).ok
    forbidden_union_over_trace(build(), trace, n, Fraction(1, 4))


def test_enumerate_clustered_states_counts():
    states = list(enumerate_clustered_states(8, 8, 8))
    assert len(states) == math.comb(16, 8)  # 12870
    assert len(set(states)) == len(states)
    assert list(enumerate_clustered_states(2, 1, 3)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_probe_states_dedup_and_cap():
    p = make_policy("greedy")
    states = probe_states(p, 8, 16, seed=1, max_states=5)
    assert 1 <= len(states) <= 5
    assert tuple([0] * 8) in states  # fresh state always visited first


def test_probe_states_stops_at_the_cap(monkeypatch):
    """Once max_states states are kept the walk ends; the final state is not
    inspected, and only kept states are copied."""
    n, balls, cap = 16, 40, 5
    calls = []
    policy = make_policy("greedy")
    original = type(policy).snapshot
    monkeypatch.setattr(type(policy), "snapshot", lambda self: calls.append(1) or original(self))
    states = probe_states(policy, n, balls, seed=1, max_states=cap)
    assert len(states) == cap
    # one snapshot per kept state, and none for a state the walk did not keep
    assert len(calls) == cap


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
    replay = build()
    replay.reset(n, balls)
    before_steps = set()
    for rec in trace:
        before_steps.add(exact_memory(replay))
        replay.update((rec.bin_a, rec.bin_b), rec.chosen)
    expect_probed = len(before_steps | {exact_memory(replay)})
    # the policies with memory visit many states, the stateless ones one
    assert len(before_steps) > 2 or exact_memory(replay) == ()

    for collide in (False, True):
        if collide:
            monkeypatch.setattr(type(build()), "state_id", lambda self: 0)
        assert len(probe_states(build(), n, balls, seed=5)) == expect_probed
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
    for state in probe_states(p, n, balls, seed=seed, max_states=30):
        pp = exact_placement_probs(p, n, state=state)
        for eps in default_epsilon_grid():
            fs = forbidden_set(pp, eps)
            assert len(fs.members) <= eps * n


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
    rep_trace = phase_report(traced, pc)
    rep_live, live = run_phase_report(SimConfig(n=64, seed=17), make_policy("greedy"), pc)
    assert rep_trace.sizes == rep_live.sizes
    assert rep_trace.passes == rep_live.passes
    assert live.loads == traced.loads


def test_phase_report_trace_too_short():
    pc = PhaseConfig(n=64, phases=4)
    with pytest.raises(ValueError):
        phase_report([0] * 30, pc, n=64)


def test_phase_report_excludes_leftover_balls():
    # 10 balls into bin 0 first, then bins 1..5: with L=2, phase_size=3,
    # only the first 6 balls count toward S_1 and S_2.
    chosen = [0, 0, 0, 1, 1, 2, 3, 4, 5, 0]
    pc = PhaseConfig(n=6, phases=2)
    rep = phase_report(chosen, pc, n=6)
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
