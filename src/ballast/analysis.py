"""Exact probability reconstruction and verification for allocation policies.

Everything here is pure and deterministic. With pair probabilities of 1/n^2
and choice probabilities in half-units, every placement probability p_i is
an exact integer numerator over 2*n^2. All bound checks therefore run in
exact integer or `fractions.Fraction` arithmetic with zero tolerance.

The numerators come from one of two paths (``placement_numerators``):

* Rank counting, for policies whose rule compares one key per bin
  (``Policy.rank_keys``: greedy, clustered, advice). Bin i takes 2 from the
  pair (i, i), 4 from the two orders of every pair with a larger key and 2
  from every pair with an equal key, so
  ``num_i = 2 + 4 #{j : k_j > k_i} + 2 #{j != i : k_j = k_i}``.
  ``rank_numerators`` counts a whole block of states with one sort and two
  binary searches, O(n log n) per state.
* Enumeration of all n^2 ordered pairs through ``choice_dist`` (derived
  from ``decide``), for every other policy. It also collects support
  violations (mass outside the offered pair), and the tests use it as the
  oracle for the rank path.

The subset bound needs no subsets. For epsilon = p/q and the forbidden set
F = {i : p_i < eps/n}, ``2 q n^2 (P(S) - eps |S \\ F| / n)`` is the sum over
S of ``w_i = q num_i - 2 n p [i not in F]``. Every ``w_i`` is >= 0: a bin
outside F has ``q num_i >= 2 n p`` by F's definition, and a bin in F has
``w_i = q num_i >= 0``. So the lightest of all 2^n - 1 non-empty subsets is
the lightest single bin, and ``min_i w_i / (2 q n^2)`` is the exact worst
subset margin, O(n) per state and epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    PAIR_GUARD,
    RunResult,
    SimConfig,
    StepRecord,
    Trace,
    play,
    replay,
    simulate_segmented,
)


# ---------------------------------------------------------------------------
# placement probabilities


@dataclass(frozen=True)
class PlacementProbs:
    """Exact per-bin placement probabilities for one memory state.

    ``numerators[i] / (2 n^2)`` is the probability that the next ball lands
    in bin i given the state the policy was in when this was computed.
    """

    n: int
    memory_state_id: int
    numerators: tuple[int, ...]

    @property
    def denominator(self) -> int:
        return 2 * self.n * self.n

    def fractions(self) -> list[Fraction]:
        d = self.denominator
        return [Fraction(x, d) for x in self.numerators]

    def floats(self) -> list[float]:
        d = self.denominator
        return [x / d for x in self.numerators]


def enumerate_choice_numerators(policy, n: int) -> tuple[list[int], list]:
    """Walk all ordered pairs once; accumulate choice mass per bin.

    Returns (numerators over 2n^2, support violations). A support violation
    is a (pair, bin) where the policy put probability on a bin outside the
    offered pair; legal policies produce none.
    """
    num = [0] * n
    violations = []
    for a in range(n):
        for b in range(n):
            total = 0
            for bin_, halves in policy.choice_dist((a, b)):
                if not 0 <= bin_ < n:
                    raise ValueError(f"choice outside bin range: {bin_}")
                if halves < 0:
                    raise ValueError("negative choice mass")
                num[bin_] += halves
                total += halves
                if bin_ != a and bin_ != b:
                    violations.append(((a, b), bin_))
            if total != 2:
                raise ValueError(f"choice mass for pair ({a},{b}) must total 1")
    return num, violations


def rank_numerators(keys: np.ndarray) -> np.ndarray:
    """Exact numerators over 2n^2 for a block of rank keys, one state a row.

    ``keys`` has shape (states, n); row r gets ``num_i = 2 + 4 #{j : k_j >
    k_i} + 2 #{j != i : k_j = k_i}`` over that row's keys. Each row is
    sorted once; shifting row r by r times the block's key span lays the
    sorted rows end to end in one ascending array, so one ``searchsorted``
    per side serves the whole block. A block whose shifted keys would not
    fit in int64 is split in two.
    """
    keys = np.asarray(keys, dtype=np.int64)
    rows, n = keys.shape
    ordered = np.sort(keys, axis=1)
    if rows > 1:
        lo = int(ordered[:, 0].min())
        span = int(ordered[:, -1].max()) - lo + 1
        if rows * span > 1 << 63:
            half = rows // 2
            return np.concatenate((rank_numerators(keys[:half]), rank_numerators(keys[half:])))
        shift = np.arange(rows, dtype=np.int64)[:, None] * span
        keys = (keys - lo) + shift
        ordered = (ordered - lo) + shift
    flat = ordered.ravel()
    row_start = np.arange(0, rows * n, n, dtype=np.int64)[:, None]
    at_most = np.searchsorted(flat, keys, side="right") - row_start
    below = np.searchsorted(flat, keys, side="left") - row_start
    return 2 + 4 * (n - at_most) + 2 * (at_most - below - 1)


def placement_numerators(policy, n: int) -> tuple[np.ndarray, list]:
    """Exact numerators over 2n^2 for the policy's current state.

    Returns (int64 numerators, support violations). Policies with
    ``rank_keys`` are rank-counted by ``rank_numerators`` and cannot place
    outside the offered pair; every other policy is enumerated pair by pair.
    """
    keys = policy.rank_keys()
    if keys is None:
        num, violations = enumerate_choice_numerators(policy, n)
        return np.array(num, dtype=np.int64), violations
    return rank_numerators(keys[None, :])[0], []


def exact_placement_probs(policy, n: int, state=None) -> PlacementProbs:
    """Reconstruct the placement-probability vector exactly.

    Greedy, clustered and advice are rank-counted in O(n log n); other
    policies fall back to the n^2 pair enumeration, which stays the oracle
    the rank path is tested against. The policy must already be bound to
    ``n`` bins (via ``reset``) unless a ``state`` to restore is supplied, in
    which case it is rebound first. Both paths are guarded at n <= 4096.
    """
    if n > PAIR_GUARD:
        raise ValueError(f"n={n} exceeds the n^2 enumeration guard ({PAIR_GUARD})")
    if state is not None:
        if getattr(policy, "n", None) != n:
            policy.reset(n, n)
        policy.restore(state)
    elif getattr(policy, "n", None) != n:
        raise ValueError("policy is not bound to this n; reset it or pass a state")
    num, _ = placement_numerators(policy, n)
    return PlacementProbs(n=n, memory_state_id=policy.state_id(), numerators=tuple(num.tolist()))


# ---------------------------------------------------------------------------
# forbidden sets and placement bounds


def as_exact(eps) -> Fraction:
    """Exact value of an epsilon given as Fraction, decimal string, or int ratio."""
    e = Fraction(eps) if not isinstance(eps, Fraction) else eps
    if not 0 < e < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {eps}")
    return e


@dataclass(frozen=True)
class ForbiddenSet:
    """Bins the current memory state starves: p_i strictly below eps/n."""

    epsilon: Fraction
    members: frozenset[int]


def forbidden_set(p: PlacementProbs, epsilon) -> ForbiddenSet:
    eps = as_exact(epsilon)
    q, pe = eps.denominator, eps.numerator
    two_n_p = 2 * p.n * pe
    members = frozenset(i for i, x in enumerate(p.numerators) if q * x < two_n_p)
    return ForbiddenSet(epsilon=eps, members=members)


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
    fs = forbidden_set(p, eps)
    s = set(subset)
    if any(i < 0 or i >= p.n for i in s):
        raise ValueError("subset contains out-of-range bins")
    lhs = Fraction(sum(p.numerators[i] for i in s), p.denominator)
    rhs = eps * len(s - fs.members) / p.n
    limit = eps * p.n
    return PlacementBoundsReport(
        epsilon=eps,
        subset_ok=lhs >= rhs,
        size_ok=len(fs.members) <= limit,
        lhs=lhs,
        rhs=rhs,
        forbidden_size=len(fs.members),
        forbidden_limit=limit,
    )


def default_epsilon_grid() -> tuple[Fraction, ...]:
    """The standard sweep grid: 0.05, 0.10, ..., 0.95 as exact fractions."""
    return tuple(Fraction(k, 20) for k in range(1, 20))


@dataclass
class SweepResult:
    """Outcome of a placement-bounds sweep over many states.

    ``n_subsets`` is the number of sampled subset rows of the cross-check,
    or None when only the exact check ran.
    """

    policy: str
    n: int
    states_checked: int
    epsilons: list[float]
    n_subsets: int | None
    subset_violations: int = 0
    size_violations: int = 0
    support_violations: int = 0
    violation_samples: list = field(default_factory=list)
    worst_margins: dict = field(default_factory=dict)  # state_id -> [subset, size]

    @property
    def ok(self) -> bool:
        return not (self.subset_violations or self.size_violations or self.support_violations)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "n": self.n,
            "states_checked": self.states_checked,
            "epsilons": self.epsilons,
            "n_subsets": self.n_subsets,
            "subset_violations": self.subset_violations,
            "size_violations": self.size_violations,
            "support_violations": self.support_violations,
            "violation_samples": self.violation_samples[:50],
            "worst_margins": {str(k): v for k, v in self.worst_margins.items()},
            "ok": self.ok,
        }


_EXACT_FLOAT = 1 << 53  # float64 holds every integer below this exactly
_PRODUCT_BLOCK = 1 << 20  # float64 entries in one block of the sampled product


def random_subsets(n: int, count: int, seed: int) -> np.ndarray:
    """count x n 0/1 matrix of uniformly random subsets (each bin i.i.d. fair)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.integers(0, 2, size=(count, n), dtype=np.int64)


def random_subset_blocks(n: int, count: int, seed: int, rows: int) -> Iterator[np.ndarray]:
    """The rows of ``random_subsets(n, count, seed)``, ``rows`` at a time.

    Each 0/1 value takes one 32-bit word of the generator, whatever the
    block, so the blocks are the one-shot matrix cut into pieces.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, count, rows):
        yield rng.integers(0, 2, size=(min(rows, count - start), n), dtype=np.int64)


def all_subsets(n: int) -> np.ndarray:
    """2^n x n matrix of every subset; only sensible for tiny n."""
    if n > 16:
        raise ValueError("exhaustive subsets only supported for n <= 16")
    rows = np.arange(1 << n, dtype=np.int64)
    return (rows[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1


def sweep_placement_bounds(
    policy,
    n: int,
    states: Iterable,
    epsilons: Sequence = (),
    subsets: np.ndarray | None = None,
    subset_seed: int = 0xF00D,
    n_subsets: int | None = None,
    chunk: int = 2048,
) -> SweepResult:
    """Verify both placement bounds over many states in exact integer math.

    ``states`` yields snapshots restorable by the policy (None entries mean
    "current state as-is"). Every epsilon is taken exactly; violations are
    counted with zero tolerance. Support violations (probability mass
    outside the offered pair) are collected as well, so an illegal policy
    cannot slip through. Rank-countable states are counted a batch at a
    time by ``rank_numerators``.

    For epsilon = p/q the subset check covers every non-empty subset S
    exactly: with ``w_i = q num_i - 2 n p [i not in F]``, S passes iff
    ``sum_{i in S} w_i >= 0``, and since every w_i >= 0 by F's definition
    the lightest S is the lightest single bin, so the state's subset margin
    is ``min_i w_i / (2 q n^2)`` (see the module docstring). A negative
    w_i, which no non-negative numerator vector produces, counts as one
    subset violation per (state, epsilon), and the margin is then the sum
    of the negative w_i.

    ``subsets`` (a 0/1 matrix, one subset a row) or ``n_subsets`` random
    subsets add a sampled cross-check: the reported subset margin is then
    the worst over those rows, and a sampled sum below the exact minimum
    raises ``RuntimeError``. Random rows are drawn a block at a time, so
    neither they nor the float64 product is ever held whole. The product's
    entries are integers of at most ``2 q n^2``, exact while
    ``4 q n^2 < 2^53``, and a larger denominator raises ``ValueError``.
    """
    eps_list = [as_exact(e) for e in (epsilons or default_epsilon_grid())]
    for eps in eps_list:
        if 4 * eps.denominator * n * n >= _EXACT_FLOAT:
            raise ValueError(
                f"epsilon {eps} is too fine for an exact sweep at n={n}: "
                f"needs 4 q n^2 < 2^53 for its denominator q = {eps.denominator}"
            )
    sampled = None
    if subsets is not None or n_subsets is not None:
        sampled = _SampledSubsets(n, subsets, n_subsets, subset_seed)
    result = SweepResult(
        policy=getattr(policy, "name", type(policy).__name__),
        n=n,
        states_checked=0,
        epsilons=[float(e) for e in eps_list],
        n_subsets=None if sampled is None else sampled.count,
    )

    state_list = list(states)
    for start in range(0, len(state_list), chunk):
        batch = state_list[start : start + chunk]
        nums = np.empty((len(batch), n), dtype=np.int64)
        ranked = []  # rows of nums that hold rank keys until counted below
        ids = []
        for j, st in enumerate(batch):
            if st is not None:
                if getattr(policy, "n", None) != n:
                    policy.reset(n, n)
                policy.restore(st)
            keys = policy.rank_keys()
            if keys is None:
                nums[j], support = enumerate_choice_numerators(policy, n)
                if support:
                    result.support_violations += len(support)
                    result.violation_samples.append(
                        {"kind": "support", "state": policy.state_id(), "sample": support[0]}
                    )
            else:
                nums[j] = keys
                ranked.append(j)
            ids.append(policy.state_id())
        if ranked:
            nums[ranked] = rank_numerators(nums[ranked])

        margins = np.full((len(batch), 2), np.inf)
        worsts = []  # per epsilon, each state's lightest subset sum
        for eps in eps_list:
            q, pe = eps.denominator, eps.numerator
            qnums = q * nums
            forbidden = qnums < (2 * n * pe)  # (batch, n)
            fsize = forbidden.sum(axis=1)
            # size bound: |F| <= eps * n, exactly q*|F| <= p*n
            size_bad = q * fsize > pe * n
            for j in np.nonzero(size_bad)[0]:
                result.size_violations += 1
                result.violation_samples.append(
                    {"kind": "size", "state": ids[j], "epsilon": float(eps), "F": int(fsize[j])}
                )
            margins[:, 1] = np.minimum(margins[:, 1], (pe * n - q * fsize) / q)

            # subset bound over every non-empty S: q * sum_S num - 2 n p |S \ F| >= 0
            w = qnums - (2 * n * pe) * ~forbidden
            worst = w.min(axis=1)
            negative = worst < 0
            if negative.any():
                worst = np.where(negative, np.minimum(w, 0).sum(axis=1), worst)
                for j in np.nonzero(negative)[0]:
                    result.subset_violations += 1
                    result.violation_samples.append(
                        {
                            "kind": "subset",
                            "state": ids[j],
                            "epsilon": float(eps),
                            "bins": np.nonzero(w[j] < 0)[0].tolist(),
                        }
                    )
            worsts.append(worst)
        if sampled is not None:
            worsts = sampled.worst(nums, eps_list, worsts, ids)
        for eps, worst in zip(eps_list, worsts):
            margins[:, 0] = np.minimum(margins[:, 0], worst / (eps.denominator * 2 * n * n))

        for j, sid in enumerate(ids):
            result.worst_margins[sid] = [float(margins[j, 0]), float(margins[j, 1])]
        result.states_checked += len(batch)

    return result


class _SampledSubsets:
    """The sampled cross-check: 0/1 subset rows, given or drawn from a seed.

    Rows are taken a block at a time and turned into float64 per block, so
    however many rows there are, the check holds one block of them at a
    time. The empty subset sums to 0. It takes part in the reported worst
    sum, as every row does, but it is no test of the exact minimum, which is
    taken over non-empty subsets only; so only the non-empty rows are
    multiplied.
    """

    def __init__(self, n: int, subsets: np.ndarray | None, count: int | None, seed: int):
        self.n, self.subsets, self.seed = n, subsets, seed
        self.count = len(subsets) if subsets is not None else count
        if self.count == 0:
            raise ValueError("the sampled subset cross-check needs at least one subset")

    def _blocks(self, rows: int) -> Iterator[tuple[int, np.ndarray]]:
        """(index of the first row, int64 0/1 block) over every row, in order."""
        if self.subsets is not None:
            for start in range(0, self.count, rows):
                yield start, self.subsets[start : start + rows]
        else:
            blocks = random_subset_blocks(self.n, self.count, self.seed, rows)
            yield from zip(range(0, self.count, rows), blocks)

    def worst(self, nums: np.ndarray, eps_list: list, exact: list, ids: list) -> list:
        """Worst sum of w over the rows, per epsilon and state, checked against ``exact``.

        A row S sums to ``q (S . num) - 2 n p |S \\ F|``. Each block of rows
        is drawn once; its ``S . num`` serves every epsilon, and ``|S \\ F|``
        is one product per epsilon. A block and its products hold about
        ``_PRODUCT_BLOCK`` entries. A non-empty row summing below the exact
        minimum means one of the two computations is wrong: the first such
        (row, state) of the first block and epsilon that has one is raised
        as an internal error, never reported as a pass.
        """
        n = self.n
        nums_t = nums.T.astype(np.float64)  # exact: every entry is below 2^53
        worst = [np.full(len(nums), np.inf) for _ in eps_list]
        for start, block in self._blocks(max(1, _PRODUCT_BLOCK // max(n, len(nums)))):
            filled = np.flatnonzero(block.any(axis=1))
            if len(filled) < len(block):
                for low in worst:
                    np.minimum(low, 0.0, out=low)
                block = block[filled]
            rows = block.astype(np.float64)
            taken = rows @ nums_t  # (rows, states)
            for eps, floor, low in zip(eps_list, exact, worst):
                q, pe = eps.denominator, eps.numerator
                # i is outside F iff q num_i >= 2 n p, iff num_i >= ceil(2 n p / q)
                outside = rows @ (nums_t >= -(-2 * n * pe // q)).astype(np.float64)
                diff = q * taken - (2 * n * pe) * outside
                if (diff < floor).any():
                    si, sj = np.nonzero(diff < floor)
                    raise RuntimeError(
                        f"sampled subset {start + filled[si[0]]} of state {ids[sj[0]]} at "
                        f"epsilon {eps} sums below the exact minimum over all subsets"
                    )
                np.minimum(low, diff.min(axis=0, initial=np.inf), out=low)
        return worst


def enumerate_clustered_states(num_clusters: int, cap: int, max_balls: int):
    """All counter tuples reachable with at most max_balls balls.

    Any composition of k <= max_balls into num_clusters parts (each <= cap)
    is reachable: offering two bins of the same cluster forces that
    cluster's counter up regardless of tie-breaks.
    """

    def rec(prefix, remaining, slots):
        if slots == 1:
            for v in range(min(remaining, cap) + 1):
                yield prefix + (v,)
            return
        for v in range(min(remaining, cap) + 1):
            yield from rec(prefix + (v,), remaining - v, slots - 1)

    yield from rec((), max_balls, num_clusters)


def probe_states(policy, n: int, balls: int, seed: int, max_states: int = 256) -> list:
    """Snapshots of the distinct memory states visited in one seeded run."""
    from .core import draw_run_streams

    config = SimConfig(n=n, seed=seed, balls=balls)
    pa, pb, ties = draw_run_streams(config)
    policy.reset(n, balls)
    states = _new_states(policy, play(policy, pa, pb, ties))
    # islice stops at the cap without walking on to the next state
    return [policy.snapshot() for _ in islice(states, max_states)]


def _new_states(policy, steps: Iterator[int]) -> Iterator[int | None]:
    """Walk ``steps`` (``play`` or ``replay`` of ``policy``, which yield each
    step's chosen bin); yield, with the policy in it, the chosen bin of each
    step whose pre-step state is new, then None if the final state is. The
    memory only grows, so a state is new iff it is the first or the step
    before it changed the memory (``Policy.changes_memory``). No state is
    copied or compared, so no id collision can merge two states."""
    changed = True  # the fresh state is new
    for c in steps:
        if changed:
            yield c
        changed = policy.changes_memory(c)
    if changed:
        yield None


# ---------------------------------------------------------------------------
# phases


@dataclass(frozen=True)
class PhaseConfig:
    """Split a run of n balls into L phases of floor(n/L) balls each."""

    n: int
    phases: int
    delta: float | None = None

    def __post_init__(self):
        if self.phases < 1:
            raise ValueError("phases must be >= 1")
        if self.phases > self.n:
            raise ValueError("phases must not exceed n")

    @classmethod
    def from_delta(cls, n: int, delta: float) -> "PhaseConfig":
        b = theoretical_bounds(n, delta)
        return cls(n=n, phases=max(1, math.floor(b.lower_L)), delta=delta)

    @property
    def epsilon(self) -> Fraction:
        return Fraction(1, 2 * self.phases)

    @property
    def phase_size(self) -> int:
        return self.n // self.phases

    def threshold(self, i: int) -> Fraction:
        """Growth floor for phase i: (eps/(4L))^i * n/2."""
        ratio = self.epsilon / (4 * self.phases)  # = 1/(8 L^2)
        return ratio**i * Fraction(self.n, 2)

    def failure_bound(self, i: int) -> float:
        """Chernoff-style failure probability 2 * 2^(-(eps/(4L))^i n / 8).

        Astronomically loose at simulatable n; reported for context only.
        """
        ratio = self.epsilon / (4 * self.phases)
        exponent = float(ratio**i) * self.n / 8.0
        return min(1.0, 2.0 * 2.0 ** (-exponent))


@dataclass
class PhaseReport:
    """Observed |S_i| per phase against the geometric thresholds.

    S_i is the set of bins holding at least i balls at the end of phase i;
    snapshots are taken at different times and are not nested sets.
    """

    n: int
    phases: int
    phase_size: int
    epsilon: float
    sizes: list[int]
    thresholds: list[float]
    passes: list[bool]
    failure_bounds: list[float]
    forbidden_overlap: list[int] | None = None
    states_seen: int | None = None

    @property
    def all_passed(self) -> bool:
        return all(self.passes)

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "phases": self.phases,
            "phase_size": self.phase_size,
            "epsilon": self.epsilon,
            "log_base": 2,
            "rows": [
                {
                    "phase": i + 1,
                    "size": self.sizes[i],
                    "threshold": self.thresholds[i],
                    "passed": self.passes[i],
                    "failure_bound": self.failure_bounds[i],
                }
                for i in range(self.phases)
            ],
            "all_passed": self.all_passed,
        }
        if self.forbidden_overlap is not None:
            for i, row in enumerate(d["rows"]):
                row["forbidden_overlap"] = self.forbidden_overlap[i]
            d["states_seen"] = self.states_seen
        return d


def _report_from_sizes(pc: PhaseConfig, sizes: list[int]) -> PhaseReport:
    thresholds = [pc.threshold(i) for i in range(1, pc.phases + 1)]
    passes = [sizes[i] >= thresholds[i] for i in range(pc.phases)]
    return PhaseReport(
        n=pc.n,
        phases=pc.phases,
        phase_size=pc.phase_size,
        epsilon=float(pc.epsilon),
        sizes=sizes,
        thresholds=[float(t) for t in thresholds],
        passes=passes,
        failure_bounds=[pc.failure_bound(i) for i in range(1, pc.phases + 1)],
    )


def _chosen(trace) -> np.ndarray:
    """The chosen bins of a ``Trace`` or a plain sequence of chosen bins, as int64."""
    if isinstance(trace, Trace):
        return trace.chosen
    return np.asarray(trace, dtype=np.int64)


def _phase_loads(chosen: np.ndarray, pc: PhaseConfig) -> Iterator[np.ndarray]:
    """Walk the chosen bins in step order; yield the loads at each phase's end.

    The loads array is updated in place between yields. A trace shorter than
    the phases, or a bin outside 0..n-1, raises ``ValueError``.
    """
    needed = pc.phases * pc.phase_size
    if len(chosen) < needed:
        raise ValueError(f"trace too short: {len(chosen)} < {needed} balls")
    loads = np.zeros(pc.n, dtype=np.int64)
    for start in range(0, needed, pc.phase_size):
        phase = chosen[start : start + pc.phase_size]
        outside = np.flatnonzero((phase < 0) | (phase >= pc.n))
        if len(outside):
            t = start + int(outside[0])
            raise ValueError(f"trace step {t} chooses bin {chosen[t]} outside 0..{pc.n - 1}")
        loads += np.bincount(phase, minlength=pc.n)
        yield loads


def phase_report(source, pc: PhaseConfig, n: int | None = None) -> PhaseReport:
    """Phase sizes from a stored trace (a RunResult with trace, a ``Trace``
    or a plain sequence of chosen bins)."""
    if isinstance(source, RunResult):
        if source.trace is None:
            raise ValueError("RunResult has no trace; use run_phase_report instead")
        source, n = source.trace, len(source.loads)
    chosen = _chosen(source)
    if n is None:
        raise ValueError("n is required when passing a bare trace")
    if n != pc.n:
        raise ValueError("phase config n does not match the trace's n")
    sizes = [
        int(np.count_nonzero(loads >= i)) for i, loads in enumerate(_phase_loads(chosen, pc), 1)
    ]
    return _report_from_sizes(pc, sizes)


def run_phase_report(config: SimConfig, policy, pc: PhaseConfig) -> tuple[PhaseReport, RunResult]:
    """Run the simulation and compute phase sizes at the phase boundaries.

    Balls beyond phases*phase_size are still thrown; they just fall outside
    the phase accounting. Bit-identical to simulate_run for the same config.
    """
    if pc.n != config.n:
        raise ValueError("phase config n does not match the run config")
    needed = pc.phases * pc.phase_size
    if config.balls < needed:
        raise ValueError(f"run too short for {pc.phases} phases: needs {needed} balls")
    boundaries = [i * pc.phase_size for i in range(1, pc.phases + 1)]
    result, snapshots = simulate_segmented(config, policy, boundaries)
    sizes = [sum(1 for v in snap if v >= i + 1) for i, snap in enumerate(snapshots)]
    return _report_from_sizes(pc, sizes), result


def forbidden_union_over_trace(policy, trace: Sequence[StepRecord], n: int, epsilon):
    """Union of forbidden sets over the distinct memory states in which a run
    decided a step (the state after its last ball decides none).

    Replays the trace through a fresh policy binding (``core.replay``, which
    refuses a trace the policy could not have made); needs the enumeration
    guard (n <= 4096). Returns (union set, number of distinct states).
    """
    eps = as_exact(epsilon)
    distinct = 0
    union: set[int] = set()
    for c in _new_states(policy, replay(policy, trace, n)):
        if c is not None:
            distinct += 1
            union |= forbidden_set(exact_placement_probs(policy, n), eps).members
    return union, distinct


def phase_report_with_forbidden(
    policy, trace: Trace, pc: PhaseConfig, epsilon=None
) -> PhaseReport:
    """Phase report plus the worst observed forbidden-set overlap per phase.

    For each phase i reports |S_i \\ U| where U is the union of forbidden
    sets over every distinct memory state the run visited -- a harsher
    subtraction than any single state's forbidden set.
    """
    eps = as_exact(epsilon if epsilon is not None else pc.epsilon)
    phase_sets = [
        np.flatnonzero(loads >= i).tolist()
        for i, loads in enumerate(_phase_loads(_chosen(trace), pc), 1)
    ]
    union, nstates = forbidden_union_over_trace(policy, trace, pc.n, eps)
    report = _report_from_sizes(pc, [len(s_i) for s_i in phase_sets])
    report.forbidden_overlap = [sum(1 for b in s_i if b not in union) for s_i in phase_sets]
    report.states_seen = nstates
    return report


# ---------------------------------------------------------------------------
# closed-form bounds and tails


@dataclass(frozen=True)
class TheoreticalBounds:
    """Closed-form reference quantities for a given n and delta (base-2 logs).

    lower_L: max-load floor forced on any n^(1-delta)-bit policy.
    upper_T: overload threshold for the advice scheme (= 4 * lower_L).
    epsilon: 1 / (2 lower_L).
    advice_list_bound: n^(1-delta) / (2 log2 n), the nominal overloaded-bin
        count. The advice scheme may send n^(1-delta) bits before each ball,
        and each list entry costs int_width(n-1) + int_width(balls) ~ 2 log2 n
        bits (bin index plus count, balls = n), so the list may hold
        n^(1-delta) / (2 log2 n) entries. The paper's abstract fixes the bit
        budget, not this count; the exponent follows from that budget and
        agrees with n^delta only at delta = 1/2.
    """

    n: int
    delta: float
    lower_L: float
    upper_T: float
    epsilon: float
    advice_list_bound: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "lower_L": self.lower_L,
            "upper_T": self.upper_T,
            "epsilon": self.epsilon,
            "advice_list_bound": self.advice_list_bound,
            "log_base": 2,
        }


def theoretical_bounds(n: int, delta: float) -> TheoreticalBounds:
    if n < 4:
        raise ValueError("n must be >= 4 so that log2 log2 n >= 1")
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    log_n = math.log2(n)
    loglog_n = math.log2(log_n)
    lower = (delta / 2) * log_n / loglog_n
    upper = (2 * delta) * log_n / loglog_n
    return TheoreticalBounds(
        n=n,
        delta=delta,
        lower_L=lower,
        upper_T=upper,
        epsilon=1 / (2 * lower),
        advice_list_bound=n ** (1 - delta) / (2 * log_n),
    )


def advice_threshold(n: int, delta: float) -> int:
    """Integer overload threshold used by the advice policy: ceil(upper_T)."""
    return max(1, math.ceil(theoretical_bounds(n, delta).upper_T))


@dataclass(frozen=True)
class PoissonTail:
    """Pr(X >= t) for Poisson X, with the single-term approximation
    e^-lambda lambda^t / t! alongside."""

    lam: float
    t: int
    probability: float
    leading_term: float


def poisson_upper_tail(lam: float, t: int) -> PoissonTail:
    """Upper tail by complementing the partial CDF sum.

    The pmf follows the stable recurrence p_k = p_{k-1} * lam / k; tiny
    negative complements from rounding clamp to 0.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    if t < 0 or int(t) != t:
        raise ValueError("t must be a non-negative integer")
    t = int(t)
    pmf = math.exp(-lam)
    cdf = 0.0
    for k in range(t):
        if k > 0:
            pmf *= lam / k
        cdf += pmf
    tail = 1.0 - cdf
    if tail < 0.0:
        tail = 0.0
    leading = math.exp(-lam + t * math.log(lam) - math.lgamma(t + 1))
    return PoissonTail(lam=lam, t=t, probability=tail, leading_term=leading)


@dataclass(frozen=True)
class AdviceSizeReport:
    """How the final count of overloaded bins compares to the nominal bound."""

    n: int
    delta: float
    threshold: float
    count_over_threshold: int
    bound: float
    ok: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "threshold": self.threshold,
            "count_over_threshold": self.count_over_threshold,
            "bound": self.bound,
            "ok": self.ok,
        }


def advice_list_size_check(loads: Sequence[int], n: int, delta: float) -> AdviceSizeReport:
    """Count bins at or above the overload threshold and compare to the
    nominal n^(1-delta)/(2 log2 n) bound. Advisory: the bound is an asymptotic
    statement, so failures are reported, not raised."""
    if len(loads) != n:
        raise ValueError("loads length does not match n")
    b = theoretical_bounds(n, delta)
    count = sum(1 for v in loads if v >= b.upper_T)
    return AdviceSizeReport(
        n=n,
        delta=delta,
        threshold=b.upper_T,
        count_over_threshold=count,
        bound=b.advice_list_bound,
        ok=count <= b.advice_list_bound,
    )
