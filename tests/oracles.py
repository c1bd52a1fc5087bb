"""Independent oracles for the test suite.

Empirical bands in the tests were frozen from an independent pre-build
reference simulation (plain random.Random loops, 20 trials, disjoint from
the engine's Philox streams); the reference implementation is kept in this
file so the bands can be re-derived.
"""

from __future__ import annotations

import math
import random

from hypothesis import strategies as st

from ballast import (
    POLICY_NAMES,
    AdvicePolicy,
    ClusterConfig,
    ClusteredPolicy,
    make_policy,
)


def poisson_tail_oracle(lam: float, t: int, terms: int = 64) -> float:
    """Direct summation of the upper tail: sum of `terms` pmf values from t."""
    total = 0.0
    for k in range(t, t + terms):
        total += math.exp(-lam) * lam**k / float(math.factorial(k))
    return total


@st.composite
def any_policy_builder(draw):
    """A zero-argument builder for any registered policy, parameters drawn."""
    name = draw(st.sampled_from(POLICY_NAMES))
    if name == "advice":
        threshold = draw(st.integers(1, 3))
        return lambda: make_policy(name, threshold=threshold)
    if name == "clustered" and draw(st.booleans()):
        cfg = ClusterConfig(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
        return lambda: ClusteredPolicy(cfg)
    return lambda: make_policy(name)


def exact_memory(policy):
    """The exact memory a policy's rule reads, as a comparable value: its
    snapshot, or for advice the listed bins with their loads. Two steps are
    in the same memory state iff these compare equal; the oracle for the
    state counts that ``Policy.changes_memory`` gives without comparing."""
    if isinstance(policy, AdvicePolicy):
        return policy.advice_list().entries
    return policy.snapshot()


def reference_two_choice(n: int, balls: int, seed: int) -> list[int]:
    """Straightforward independent two-choice implementation (oracle)."""
    rng = random.Random(seed)
    loads = [0] * n
    for _ in range(balls):
        a = rng.randrange(n)
        b = rng.randrange(n)
        la, lb = loads[a], loads[b]
        if la < lb:
            c = a
        elif lb < la:
            c = b
        else:
            c = a if rng.random() < 0.5 else b
        loads[c] += 1
    return loads
