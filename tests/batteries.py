"""One trial of a Monte Carlo battery, for the worker processes of the
session's battery pool (``tests/conftest.py``).

It lives in a module of its own because a worker imports it by name, and
the benchmark's tests, which one session also runs, have a ``conftest`` of
their own.
"""

from __future__ import annotations

from ballast import SimConfig, make_policy, simulate_run


def battery_trial(policy_name: str, n: int, seed: int, keep_loads: bool, params: dict):
    """One seeded run: (max load, memory bits, loads or None)."""
    config = SimConfig(n=n, seed=seed)
    policy = make_policy(policy_name, **params)
    result = simulate_run(config, policy)
    loads = result.loads if keep_loads else None
    return result.max_load, policy.memory_bits(config.n, config.balls), loads
