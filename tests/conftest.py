"""Shared fixtures for the test suite.

The Monte Carlo batteries at n = 2^20 are expensive, so they are computed
once per session and shared between the regime tests, their independent
trials spread over a pool of at most two worker processes. The independent
oracles the tests import live in ``oracles.py``: the benchmark's tests
have a ``conftest`` of their own, and one session runs both.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from ballast import ClusterConfig, theoretical_bounds, trial_seed

from batteries import battery_trial
from oracles import advice_list_size_check, poisson_tail_oracle

ACCEPT_SEED = 0xB5EED
TRIALS = 20


@pytest.fixture(scope="session")
def battery_pool():
    """Worker processes for the batteries' trials: the usable CPUs, at most 2."""
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    workers = min(2, len(usable))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        yield pool


def run_battery(
    pool, policy_name: str, n: int, trials: int = TRIALS, keep_loads: bool = False, **params
):
    """`trials` seeded runs in ``pool``; returns (max_loads, memory_bits,
    loads or None, seconds), the runs in trial order.

    memory_bits is the largest over the trials: the advice channel cost
    depends on the run.
    """
    t0 = time.perf_counter()
    futures = [
        pool.submit(battery_trial, policy_name, n, trial_seed(ACCEPT_SEED, t), keep_loads, params)
        for t in range(trials)
    ]
    maxima, bits, loads = map(list, zip(*(f.result() for f in futures)))
    return maxima, max(bits), loads if keep_loads else None, time.perf_counter() - t0


@pytest.fixture(scope="session")
def greedy_battery(battery_pool):
    """Greedy maxima for n in {2^14, 2^17, 2^20}; includes 2^20 timing."""
    out = {}
    for logn in (14, 17, 20):
        n = 1 << logn
        maxima, _, _, secs = run_battery(battery_pool, "greedy", n)
        out[n] = {"maxima": maxima, "seconds": secs}
    return out


@pytest.fixture(scope="session")
def one_choice_battery(battery_pool):
    out = {}
    for logn in (14, 17, 20):
        n = 1 << logn
        maxima, _, _, secs = run_battery(battery_pool, "one-choice", n)
        out[n] = {"maxima": maxima, "seconds": secs}
    return out


@pytest.fixture(scope="session")
def clustered_battery(battery_pool):
    n = 1 << 20
    maxima, bits, _, secs = run_battery(battery_pool, "clustered", n)
    return {"n": n, "maxima": maxima, "memory_bits": bits, "seconds": secs}


@pytest.fixture(scope="session")
def clustered_budget_battery(battery_pool):
    """Clustered at n = 2^20 with the smallest cap-4c geometry under n/2 bits.

    The default geometry (c = 5) costs about n bits at this n, so the
    memory clause is checked on the smallest cluster size c whose counters
    fit the budget instead.
    """
    n = 1 << 20
    c = 1
    while ClusterConfig(c, 4 * c).total_bits(n) >= n // 2:
        c += 1
    maxima, bits, _, secs = run_battery(
        battery_pool, "clustered", n, cluster_size=c, counter_cap=4 * c
    )
    return {"n": n, "cluster_size": c, "maxima": maxima, "memory_bits": bits, "seconds": secs}


@pytest.fixture(scope="session")
def advice_budget_battery(battery_pool):
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
        battery_pool, "advice", n, keep_loads=True, threshold=threshold
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
def advice_battery(battery_pool):
    from ballast import advice_threshold

    n = 1 << 20
    delta = 0.5
    threshold = advice_threshold(n, delta)
    maxima, bits, all_loads, secs = run_battery(
        battery_pool, "advice", n, keep_loads=True, threshold=threshold
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
