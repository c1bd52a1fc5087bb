"""Independent oracles for the test suite.

Empirical bands in the tests were frozen from an independent pre-build
reference simulation (plain random.Random loops, 20 trials, disjoint from
the engine's Philox streams); the reference implementation is kept in this
file so the bands can be re-derived.

The placement checks of one state and one subset in ``Fraction``s, the
advice list built by its definition, the state key in Python integers, the
recursive clustered-state enumeration, the per-pair walk of every ordered
pair, a run's streams drawn in one shot (``draw_run_streams``), the
per-step walks of a run (``play``, ``replay``, ``new_states``) and the
sweep's per-bin margin arithmetic are here too: they restate what the
program computes in another way, and no command reads them.

So are the views the tests read the program through and no command
needs: a trace's steps as records (``records``), one state's numerators
(``exact_placement_probs``, through the program's ``_numerator_blocks``),
its forbidden set (by the program's cut), a bin's key as the rule reads
it (``rank_keys``), the tail at one t (the last row of the program's
``_poisson_tails``), the advice list-size check and a sweep's margins
by state id and its report as a dict (``margins_by_id``, ``sweep_report``).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np
from hypothesis import strategies as st

from ballast import (
    POLICY_NAMES,
    AdvicePolicy,
    ClusterConfig,
    ClusteredPolicy,
    GreedyTwoChoicePolicy,
    PoissonTail,
    SimConfig,
    Trace,
    analysis,
    core,
    make_policy,
    policies,
    theoretical_bounds,
)
from ballast.analysis import as_exact


def poisson_upper_tail(lam: float, t: int) -> PoissonTail:
    """The tail at one t: the last row of the program's table walk up to t."""
    *_, last = analysis._poisson_tails(lam, t)
    return last


def poisson_tail_oracle(lam: float, t: int, terms: int = 64) -> float:
    """Direct summation of the upper tail: sum of `terms` pmf values from t."""
    total = 0.0
    for k in range(t, t + terms):
        total += math.exp(-lam) * lam**k / float(math.factorial(k))
    return total


def poisson_tail_log_oracle(lam: float, t: int) -> float:
    """Direct summation of the upper tail in log space: ``math.fsum`` of the
    pmf exp(-lam + k ln lam - lgamma(k + 1)) from k = t to 40 standard
    deviations past the mean, past which the terms are negligible. It holds
    where ``poisson_tail_oracle`` overflows on lam**k (lam = 800) or
    e^-lam leaves the normal float range (lam above about 708.4)."""
    stop = max(t, math.ceil(lam + 40 * math.sqrt(lam))) + 64
    return math.fsum(math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) for k in range(t, stop))


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
    state counts that the program reads off key rises without comparing."""
    if isinstance(policy, AdvicePolicy):
        return advice_list(policy).entries
    return tuple(policy.snapshot().tolist())


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


# ---------------------------------------------------------------------------
# the bit-replay contract's one-shot draw


def draw_run_streams(config: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A run's three streams drawn whole, one after another, from one Philox
    generator keyed by the seed: bin_a, bin_b (int64) and the tie bits
    (uint8). ``core.stream_chunks`` must yield these values, chunk by chunk."""
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    return tuple(core._draw(rng, config.n, k, config.balls) for k in range(3))


# ---------------------------------------------------------------------------
# a trace's steps as records


@dataclass(frozen=True)
class StepRecord:
    step: int
    memory_state_id: int
    bin_a: int
    bin_b: int
    chosen: int


def records(trace: Trace) -> list[StepRecord]:
    """Row t of ``trace`` as ``StepRecord(t, ids[t], bin_a[t], bin_b[t],
    chosen[t])``, in Python ints, for every step in order."""
    return list(map(StepRecord, range(len(trace)), *(c.tolist() for c in trace.columns)))


# ---------------------------------------------------------------------------
# the per-step walks: each step decided or proven, then applied, in Python ints


def play(policy, pa, pb, ties):
    """Decide every step of the streams (arrays) under ``policy``, as it is
    bound now. Each step's chosen bin is yielded before the policy applies
    the step, so between two yields the policy is in the state that
    decided the last one."""
    for a, b, r in zip(pa.tolist(), pb.tolist(), ties.tolist()):
        c = policy.decide((a, b), r)
        yield c
        policy.update((a, b), c)


def replay(policy, trace: Trace, n: int):
    """Rebind ``policy`` to n bins and walk ``trace`` through it, like
    ``play``, proving each step first: its offers lie in 0..n-1 and its
    chosen bin is ``decide(pair, 0)`` or ``decide(pair, 1)``. The first
    step that is not raises ``ValueError`` naming it."""
    policy.reset(n, max(len(trace), 1))
    for rec in records(trace):
        t, a, b, c = rec.step, rec.bin_a, rec.bin_b, rec.chosen
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"trace step {t} offers bins ({a}, {b}) outside 0..{n - 1}")
        if c != policy.decide((a, b), 0) and c != policy.decide((a, b), 1):
            raise ValueError(
                f"trace step {t} chooses bin {c} from ({a}, {b}), "
                f"which the {policy.name} policy could not have chosen"
            )
        yield c
        policy.update((a, b), c)


def changes_memory(policy, chosen: int) -> bool:
    """Whether a ball in bin ``chosen`` changes the memory the rule reads,
    asked before the step: iff the chosen slot's key changes, which is
    always for greedy, below the cap for clustered, once the load reaches
    the threshold for advice, and never for a policy with no memory."""
    if not isinstance(policy, GreedyTwoChoicePolicy):
        return False
    v = policy._mem[chosen // policy._width]
    grown = v + 1 if policy._top is None else min(v + 1, policy._top)
    return policy._rank(grown) != policy._rank(v)


def new_states(policy, steps):
    """Walk ``steps`` (``play`` or ``replay`` of ``policy``); yield, with the
    policy in it, the chosen bin of each step whose pre-step state is new,
    then None if the final state is. The memory only grows, so a state is
    new iff it is the first or the step before it changed the memory."""
    changed = True  # the fresh state is new
    for c in steps:
        if changed:
            yield c
        changed = changes_memory(policy, c)
    if changed:
        yield None


# ---------------------------------------------------------------------------
# the per-pair walk: numerators and support violations, one pair at a time


# the policies without block_keys, whose pairs the analysis enumerates
ENUMERATED_POLICIES = tuple(
    name for name in POLICY_NAMES if not hasattr(policies.POLICY_TABLE[name][0], "block_keys")
)


def choice_dist(policy, pair: tuple[int, int]):
    """The exact choice distribution of one pair in the policy's current
    state: ((bin, halves), ...) with halves summing to 2. The tie bit is
    fair, so each of ``decide(pair, 0)`` and ``decide(pair, 1)`` carries one
    half."""
    d0, d1 = policy.decide(pair, 0), policy.decide(pair, 1)
    if d0 == d1:
        return ((d0, 2),)
    return ((d0, 1), (d1, 1))


def pair_walk(policy, n: int) -> tuple[list[int], int, tuple | None]:
    """(numerators over 2n^2, support violation count, first violation) of
    the policy's current state, walking the n^2 ordered pairs in order and
    deciding each with Python ints. A violation is a (pair, bin) with mass
    on a bin outside the pair; the oracle for both the rank path and the
    array enumeration."""
    num = [0] * n
    count, first = 0, None
    for a in range(n):
        for b in range(n):
            for bin_, halves in choice_dist(policy, (a, b)):
                if not 0 <= bin_ < n:
                    raise ValueError(f"choice outside bin range: {bin_}")
                num[bin_] += halves
                if bin_ != a and bin_ != b:
                    count += 1
                    first = first or ((a, b), int(bin_))
    return num, count, first


# ---------------------------------------------------------------------------
# placement probabilities, one state and one subset at a time, in Fractions


@dataclass(frozen=True)
class PlacementProbs:
    """One memory state's placement probabilities: ``numerators[i] / (2 n^2)``
    is the chance that the next ball lands in bin i."""

    n: int
    memory_state_id: int
    numerators: tuple[int, ...]

    @property
    def denominator(self) -> int:
        return 2 * self.n * self.n


def exact_placement_probs(policy, n: int, state=None) -> PlacementProbs:
    """The numerators of one state, by the program's walk
    (``analysis._numerator_blocks``) over that one row. The policy must be
    bound to ``n`` bins unless a ``state`` to restore is given, in which
    case it is rebound first."""
    if state is not None:
        if getattr(policy, "n", None) != n:
            policy.reset(n, n)
        policy.restore(state)
    elif getattr(policy, "n", None) != n:
        raise ValueError("policy is not bound to this n; reset it or pass a state")
    ((sids, nums, _),) = analysis._numerator_blocks(policy, n, policy.snapshot()[None], ids=True)
    return PlacementProbs(n=n, memory_state_id=int(sids[0]), numerators=tuple(nums[0].tolist()))


def forbidden_set(p: PlacementProbs, epsilon) -> frozenset[int]:
    """F = {i : p_i < eps/n} of one state, by the program's cut
    (``analysis._forbidden``), which forms no product q num_i."""
    mask = analysis._forbidden(np.array(p.numerators, dtype=np.int64), p.n, as_exact(epsilon))
    return frozenset(np.flatnonzero(mask).tolist())


def fractions(p: PlacementProbs) -> list[Fraction]:
    return [Fraction(x, p.denominator) for x in p.numerators]


def floats(p: PlacementProbs) -> list[float]:
    return [x / p.denominator for x in p.numerators]


@dataclass(frozen=True)
class PlacementBoundsReport:
    """Result of the two placement-probability guarantees for one subset.

    subset_ok: P(ball lands in S) >= eps * |S \\ F| / n
    size_ok:   |F| <= eps * n
    """

    epsilon: Fraction
    subset_ok: bool
    size_ok: bool
    lhs: Fraction
    rhs: Fraction
    forbidden_size: int
    forbidden_limit: Fraction


def check_placement_bounds(p: PlacementProbs, epsilon, subset: Iterable[int]) -> PlacementBoundsReport:
    """Exact check of both guarantees for one (state, epsilon, subset)."""
    eps = as_exact(epsilon)
    forbidden = {i for i, p_i in enumerate(fractions(p)) if p_i < eps / p.n}
    s = set(subset)
    if any(i < 0 or i >= p.n for i in s):
        raise ValueError("subset contains out-of-range bins")
    lhs = Fraction(sum(p.numerators[i] for i in s), p.denominator)
    rhs = eps * len(s - forbidden) / p.n
    limit = eps * p.n
    return PlacementBoundsReport(
        epsilon=eps,
        subset_ok=lhs >= rhs,
        size_ok=len(forbidden) <= limit,
        lhs=lhs,
        rhs=rhs,
        forbidden_size=len(forbidden),
        forbidden_limit=limit,
    )


# ---------------------------------------------------------------------------
# the advice channel


@dataclass(frozen=True)
class AdviceList:
    """Exact list of bins at or above the threshold, with their counts."""

    threshold: int
    entries: tuple[tuple[int, int], ...]  # (bin, count), sorted by bin

    def to_dict(self) -> dict:
        return {"threshold": self.threshold, "entries": [list(e) for e in self.entries]}


def build_advice(loads, threshold: int) -> AdviceList:
    """The advice channel by its definition: every bin with load >= threshold."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    entries = tuple((i, v) for i, v in enumerate(loads) if v >= threshold)
    return AdviceList(threshold=threshold, entries=entries)


def advice_list(policy: AdvicePolicy) -> AdviceList:
    """The list an advice policy's memory stands for: its mirror of the loads, listed."""
    return build_advice(policy.snapshot().tolist(), policy.threshold)


@dataclass(frozen=True)
class AdviceSizeReport:
    """How many bins sit at or above the overload threshold ``upper_T``
    against the nominal list bound n^(1-delta) / (2 log2 n)."""

    count_over_threshold: int
    bound: float
    ok: bool


def advice_list_size_check(loads, n: int, delta: float) -> AdviceSizeReport:
    """The list-size clause of one run's final loads: advisory, since the
    bound is asymptotic, so a count over it is reported, not raised."""
    if len(loads) != n:
        raise ValueError("loads length does not match n")
    b = theoretical_bounds(n, delta)
    count = sum(1 for v in loads if v >= b.upper_T)
    return AdviceSizeReport(count, b.advice_list_bound, count <= b.advice_list_bound)


# ---------------------------------------------------------------------------
# state keys and states


def rank_keys(policy) -> list[int]:
    """Each bin's key in a greedy-family policy's current memory, as its rule
    reads it: its slot's value through ``_rank``, in Python ints."""
    return [policy._rank(policy._mem[i // policy._width]) for i in range(policy.n)]


def key_oracle(p) -> int:
    """sum_k m_k * W_k mod 2^64 in Python integers, from the exact memory."""
    if isinstance(p, AdvicePolicy):
        m = [0] * p.n
        for i, v in advice_list(p).entries:
            m[i] = v
    else:
        m = p.snapshot().tolist()
    if isinstance(p, ClusteredPolicy) and len(m) * p.config.counter_width <= 63:
        w = [(p.config.counter_cap + 1) ** k for k in range(len(m))]
    else:
        w = [int(x) for x in policies.key_weights(len(m))]
    return sum(a * b for a, b in zip(m, w)) % 2**64


def clustered_states(num_clusters: int, cap: int, max_balls: int):
    """Every counter tuple with at most max_balls balls, each counter <= cap,
    in lexicographic order, by recursion over the counters."""

    def rec(prefix, remaining, slots):
        if slots == 1:
            for v in range(min(remaining, cap) + 1):
                yield prefix + (v,)
            return
        for v in range(min(remaining, cap) + 1):
            yield from rec(prefix + (v,), remaining - v, slots - 1)

    yield from rec((), max_balls, num_clusters)


# ---------------------------------------------------------------------------
# the sweep's margins, one w_i per bin


def bin_weight_margins(nums: np.ndarray, n: int, eps) -> tuple[list, list, list]:
    """Per numerator row at epsilon p/q, by the O(n) per-bin arithmetic:
    |F|, the lightest subset sum ``min_i w_i`` with ``w_i = q num_i - 2 n p
    [i not in F]``, and both margins ``w / (2 q n^2)`` and ``(p n - q |F|) /
    q`` as ``float(Fraction(...))``."""
    eps = as_exact(eps)
    q, pe = eps.denominator, eps.numerator
    forbidden = nums < -(-2 * n * pe // q)
    fsize = forbidden.sum(axis=1)
    w = q * nums - (2 * n * pe) * ~forbidden
    subset = [float(Fraction(int(x), 2 * q * n * n)) for x in w.min(axis=1)]
    size = [float(Fraction(pe * n - q * int(f), q)) for f in fsize]
    return fsize.tolist(), subset, size


# the verify report as the tests read it


def margins_by_id(result) -> dict[int, list[float]]:
    """A sweep's margins by state id: {id: [subset, size]}."""
    return dict(zip(result.state_ids.tolist(), result.worst_margins.tolist()))


def sweep_report(result) -> dict:
    """The verify report as a dict, which ``json.dumps(..., indent=1)``
    spells as the report's own writer does where the state ids are
    distinct: the fields above ``state_ids``, the margins keyed by the
    decimal id, then ``ok``."""
    report = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)[:-2]}
    report["worst_margins"] = {str(k): v for k, v in margins_by_id(result).items()}
    report["ok"] = result.ok
    return report
