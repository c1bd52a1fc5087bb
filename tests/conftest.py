"""Shared fixtures for the test suite.

The Monte Carlo batteries at n = 2^20 are expensive, so they are computed
once per session and shared between the regime tests. The independent
oracles the tests import live in ``oracles.py``: the benchmark's tests
have a ``conftest`` of their own, and one session runs both.
"""

from __future__ import annotations

import time

import pytest

from ballast import (
    ClusterConfig,
    SimConfig,
    make_policy,
    simulate_run,
    theoretical_bounds,
    trial_seed,
)

from oracles import poisson_tail_oracle

ACCEPT_SEED = 0xB5EED
TRIALS = 20


def run_battery(policy_name: str, n: int, trials: int = TRIALS, keep_loads: bool = False, **params):
    """`trials` seeded runs; returns (max_loads, memory_bits, loads or None, seconds).

    memory_bits is the largest over the trials: the advice channel cost
    depends on the run.
    """
    maxima = []
    bits = 0
    all_loads = [] if keep_loads else None
    t0 = time.perf_counter()
    for t in range(trials):
        config = SimConfig(n=n, seed=trial_seed(ACCEPT_SEED, t))
        policy = make_policy(policy_name, **params)
        result = simulate_run(config, policy)
        maxima.append(result.max_load)
        bits = max(bits, policy.memory_bits(config.n, config.balls))
        if keep_loads:
            all_loads.append(result.loads)
    return maxima, bits, all_loads, time.perf_counter() - t0


@pytest.fixture(scope="session")
def greedy_battery():
    """Greedy maxima for n in {2^14, 2^17, 2^20}; includes 2^20 timing."""
    out = {}
    for logn in (14, 17, 20):
        n = 1 << logn
        maxima, _, _, secs = run_battery("greedy", n)
        out[n] = {"maxima": maxima, "seconds": secs}
    return out


@pytest.fixture(scope="session")
def one_choice_battery():
    out = {}
    for logn in (14, 17, 20):
        n = 1 << logn
        maxima, _, _, secs = run_battery("one-choice", n)
        out[n] = {"maxima": maxima, "seconds": secs}
    return out


@pytest.fixture(scope="session")
def clustered_battery():
    n = 1 << 20
    maxima, bits, _, secs = run_battery("clustered", n)
    return {"n": n, "maxima": maxima, "memory_bits": bits, "seconds": secs}


@pytest.fixture(scope="session")
def clustered_budget_battery():
    """Clustered at n = 2^20 with the smallest cap-4c geometry under n/2 bits.

    The default geometry (c = 5) costs about n bits at this n, so the
    memory clause is checked on the smallest cluster size c whose counters
    fit the budget instead.
    """
    n = 1 << 20
    c = 1
    while ClusterConfig(c, 4 * c).total_bits(n) >= n // 2:
        c += 1
    maxima, bits, _, secs = run_battery("clustered", n, cluster_size=c, counter_cap=4 * c)
    return {"n": n, "cluster_size": c, "maxima": maxima, "memory_bits": bits, "seconds": secs}


@pytest.fixture(scope="session")
def advice_budget_battery():
    """Advice at n = 2^20, delta = 0.5, with the smallest threshold T whose
    expected list n * Pr[Pois(1) >= T] fits the nominal list bound.

    Unlisted bins fill like one-choice, so T must sit in the Pois(1) tail
    for the list (and hence the advice channel) to stay within budget.
    """
    n = 1 << 20
    delta = 0.5
    bound = theoretical_bounds(n, delta).advice_list_bound
    threshold = 1
    while n * poisson_tail_oracle(1, threshold) > bound:
        threshold += 1
    maxima, bits, all_loads, secs = run_battery(
        "advice", n, keep_loads=True, threshold=threshold
    )
    counts = [sum(1 for v in loads if v >= threshold) for loads in all_loads]
    return {
        "n": n,
        "threshold": threshold,
        "bound": bound,
        "maxima": maxima,
        "counts": counts,
        "memory_bits": bits,
        "seconds": secs,
    }


@pytest.fixture(scope="session")
def advice_battery():
    from ballast import advice_list_size_check, advice_threshold

    n = 1 << 20
    delta = 0.5
    threshold = advice_threshold(n, delta)
    maxima, bits, all_loads, secs = run_battery(
        "advice", n, keep_loads=True, threshold=threshold
    )
    size_checks = [advice_list_size_check(loads, n, delta) for loads in all_loads]
    return {
        "n": n,
        "delta": delta,
        "threshold": threshold,
        "maxima": maxima,
        "memory_bits": bits,
        "size_checks": size_checks,
        "seconds": secs,
    }
