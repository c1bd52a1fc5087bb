"""Exact probability reconstruction and verification for allocation policies.

Everything here is pure and deterministic. With pair probabilities of 1/n^2
and choice probabilities in half-units, every placement probability p_i is
an exact integer numerator over 2*n^2. All bound checks therefore run in
exact integer or `fractions.Fraction` arithmetic with zero tolerance.

The numerators come from one walk (``_numerator_blocks``) over memory
rows, one state a row, a block of rows at a time, by one of two paths:

* Rank counting, for policies whose rule compares one key per bin
  (``block_keys``: greedy, clustered, advice). Bin i takes 2 from the pair
  (i, i), 4 from the two orders of every pair with a larger key and 2 from
  every pair with an equal key, so
  ``num_i = 2 + 4 #{j : k_j > k_i} + 2 #{j != i : k_j = k_i}``.
  ``block_keys`` gives a block's keys and state ids and ``rank_numerators``
  counts them with one histogram (or, for keys of a wide range, one sort
  and two binary searches): a fixed number of array operations per block,
  with no policy bound to any state.
* Enumeration of all n^2 ordered pairs, a block of pair arrays per
  ``decide`` call under each tie bit, for every other (memoryless) policy,
  bound to each row in turn. It also counts support violations (mass
  outside the offered pair), keeping the first.

The subset bound needs no subsets. For epsilon = p/q and the forbidden set
F = {i : p_i < eps/n}, ``2 q n^2 (P(S) - eps |S \\ F| / n)`` is the sum over
S of ``w_i = q num_i - 2 n p [i not in F]``. Every ``w_i`` is >= 0: a bin
outside F has ``q num_i >= 2 n p`` by F's definition, and a bin in F has
``w_i = q num_i >= 0``. So the lightest of all 2^n - 1 non-empty subsets is
the lightest single bin, and ``min_i w_i / (2 q n^2)`` is the exact worst
subset margin.

F is the bins whose numerator is below ``t = ceil(2 n p / q)``, so once a
state's numerators are sorted (s_0 <= s_1 <= ...), F is the prefix below t
and |F| is one count, a binary search of t in the sorted row. The
lightest bin in F is s_0 and the lightest bin outside it is s_|F|, so
``min_i w_i = min(q s_0 if |F| > 0, q s_|F| - 2 n p if |F| < n)``: after
one sort per state, each epsilon costs a binary search and a few lookups
per state, for a block of states and every epsilon at once. Every ``w_i`` lies
in 0..2 q n^2, so the check is exact in int64 while ``2 q n^2 < 2^63``;
each margin is the exact ratio rounded once to float64, as
``float(Fraction(w, 2 q n^2))`` gives.
"""

from __future__ import annotations

import collections
import math
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    PAIR_GUARD,
    RunResult,
    SimConfig,
    Trace,
    _prove_ids,
    _prove_steps,
    _walk_chunks,
)


# ---------------------------------------------------------------------------
# placement probabilities


_BLOCK = 1 << 15  # numerator entries or pairs counted at a time: 2048 states at n = 16


def enumerate_choice_numerators(policy, n: int) -> tuple[np.ndarray, int, tuple | None]:
    """Walk all ordered pairs once, ``_BLOCK // n`` rows of them per
    ``decide`` call (which must map arrays), each tie bit taking one half.

    Returns (int64 numerators over 2n^2, support violation count, first
    violation or None). A support violation is a (pair, bin) with mass on a
    bin outside the offered pair, once per distinct such bin of a pair, in
    pair order, tie bit 0 first; legal policies produce none.
    """
    num = np.zeros(n, dtype=np.int64)
    count, first = 0, None
    rows = max(1, _BLOCK // n)
    for start in range(0, n, rows):
        a, b = np.divmod(np.arange(start * n, min(start + rows, n) * n), n)
        d0, d1 = (np.broadcast_to(policy.decide((a, b), t), a.shape) for t in (0, 1))
        wild = (d0 < 0) | (d0 >= n) | (d1 < 0) | (d1 >= n)
        if wild.any():
            k = np.argmax(wild)
            raise ValueError(f"choice outside bin range: {d0[k] if not 0 <= d0[k] < n else d1[k]}")
        num += np.bincount(d0, minlength=n) + np.bincount(d1, minlength=n)
        out0 = (d0 != a) & (d0 != b)
        out1 = (d1 != a) & (d1 != b) & (d1 != d0)
        if first is None and (out0 | out1).any():
            k = np.argmax(out0 | out1)
            first = ((int(a[k]), int(b[k])), int(d0[k] if out0[k] else d1[k]))
        count += int(np.count_nonzero(out0) + np.count_nonzero(out1))
    return num, count, first


def rank_numerators(keys: np.ndarray) -> np.ndarray:
    """Exact numerators over 2n^2 for a block of rank keys, one state a row.

    ``keys`` has shape (states, n); row r gets ``num_i = 2 + 4 #{j : k_j >
    k_i} + 2 #{j != i : k_j = k_i} = 2 (2n - #{j : k_j <= k_i} - #{j : k_j <
    k_i})`` over that row's keys. Shifting row r by r times the block's key
    span lays the rows end to end in one ascending order, so each count is a
    count over the whole block less its row's start, r n. Where the keys
    span at most n values, one cumulative histogram of the shifted keys
    gives every count. Otherwise each row is sorted once and one
    ``searchsorted`` per side serves the whole block; a block whose shifted
    keys would not fit in int64 is split in two.
    """
    keys = np.asarray(keys, dtype=np.int64)
    rows, n = keys.shape
    lo = int(keys.min())
    span = int(keys.max()) - lo + 1
    if span <= n:
        cells = keys - lo
        cells += np.arange(0, rows * span, span, dtype=np.int64)[:, None]
        hist = np.bincount(cells.ravel(), minlength=rows * span)
        at_most = hist.cumsum()
        counts = 2 * at_most[cells] - hist[cells]  # #{<= k_i} + #{< k_i}, each plus r n
    else:
        ordered = np.sort(keys, axis=1)
        if rows > 1:
            if rows * span > 1 << 63:
                half = rows // 2
                return np.concatenate((rank_numerators(keys[:half]), rank_numerators(keys[half:])))
            shift = np.arange(rows, dtype=np.int64)[:, None] * span
            keys = keys - lo
            keys += shift
            ordered -= lo
            ordered += shift
        flat = ordered.ravel()
        counts = np.searchsorted(flat, keys, side="right")
        counts += np.searchsorted(flat, keys, side="left")
    return 2 * (2 * (n + np.arange(0, rows * n, n, dtype=np.int64)[:, None]) - counts)


def _row_blocks(states, rows: int) -> Iterator[np.ndarray]:
    """``states`` as int64 blocks of at most ``rows`` memory rows: slices of
    a 2-D array, or else blocks stacked from an iterable of snapshots,
    which is pulled one block at a time."""
    if isinstance(states, np.ndarray):
        for start in range(0, len(states), rows):
            yield states[start : start + rows]
        return
    states = iter(states)
    while block := list(islice(states, rows)):
        yield np.array(block, dtype=np.int64)


def _numerator_blocks(
    policy, n: int, states, ids: bool = False
) -> Iterator[tuple[list | None, np.ndarray, list | None]]:
    """Numerators over 2n^2 of each memory in ``states`` (a 2-D int64 array,
    one state a row, or an iterable of snapshots), at most ``_BLOCK``
    numerator entries at a time; needs 1 <= n <= 4096.

    A policy with ``block_keys`` has each block rank-counted with no state
    bound; any other policy is bound to each row in turn and its pairs
    enumerated. Yields (the rows' state ids if ``ids`` else None, int64
    numerator rows, each row's (support violation count, first violation),
    or None when the block was rank-counted). Without ``ids`` no row's
    ``state_id`` is asked, as the forbidden union needs.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > PAIR_GUARD:
        raise ValueError(f"n={n} exceeds the n^2 enumeration guard ({PAIR_GUARD})")
    if getattr(policy, "n", None) != n:
        policy.reset(n, n)
    block_keys = getattr(policy, "block_keys", None)
    for rows in _row_blocks(states, max(1, _BLOCK // n)):
        if block_keys is not None:
            keys, sids = block_keys(rows)
            yield (sids.tolist() if ids else None), rank_numerators(keys), None
            continue
        nums, support, sids = np.empty((len(rows), n), dtype=np.int64), [], []
        for j, row in enumerate(rows):
            policy.restore(row)
            nums[j], count, first = enumerate_choice_numerators(policy, n)
            support.append((count, first))
            if ids:
                sids.append(policy.state_id())
        yield (sids if ids else None), nums, support


# ---------------------------------------------------------------------------
# forbidden sets and placement bounds


def as_exact(eps) -> Fraction:
    """Exact value of an epsilon given as Fraction, decimal string, or int ratio."""
    try:
        e = Fraction(eps)
    except ZeroDivisionError:
        raise ValueError(f"epsilon {eps} has a zero denominator") from None
    if not 0 < e < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {eps}")
    return e


def _cut(n: int, eps: Fraction) -> int:
    """F's bound: p_i < eps/n iff q num_i < 2 n p iff num_i < ceil(2 n p / q),
    which lies in 1..2n, so no product is taken and no q overflows."""
    return -(-2 * n * eps.numerator // eps.denominator)


def _forbidden(nums: np.ndarray, n: int, eps: Fraction) -> np.ndarray:
    """F's mask: the bins whose numerator is below ``_cut``."""
    return nums < _cut(n, eps)


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
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["violation_samples"] = self.violation_samples[:50]
        d["worst_margins"] = {str(k): v for k, v in self.worst_margins.items()}
        d["ok"] = self.ok
        return d


_EXACT_FLOAT = 1 << 53  # float64 holds every integer below this exactly
_EXACT_INT = 1 << 63  # int64 holds every integer below this
_PRODUCT_BLOCK = 1 << 20  # float64 entries in one block of the sampled product
_GRID_BLOCK = 32 * _BLOCK  # (state, epsilon) entries per sweep array: 32 epsilons per block


def random_subset_blocks(n: int, count: int, seed: int, rows: int) -> Iterator[np.ndarray]:
    """``count`` uniformly random subsets of n bins (each bin i.i.d. fair), as
    int64 0/1 rows, ``rows`` at a time.

    Each 0/1 value takes one 32-bit word of the generator, whatever the
    block, so every block size cuts the same rows into pieces.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, count, rows):
        yield rng.integers(0, 2, size=(min(rows, count - start), n), dtype=np.int64)


def sweep_placement_bounds(
    policy,
    n: int,
    states: Iterable,
    epsilons: Sequence = (),
    subset_seed: int = 0xF00D,
    n_subsets: int | None = None,
) -> SweepResult:
    """Verify both placement bounds over many states in exact integer math.

    ``states`` holds memories as ``snapshot`` gives them: a 2-D int64
    array, one state a row, or any iterable of snapshots (a generator too).
    Every epsilon is taken exactly; violations are counted with zero tolerance.
    Support violations (probability mass outside the offered pair) are
    counted as well, so an illegal policy cannot slip through. The states
    are walked once, a block of rows at a time (``_numerator_blocks``), so
    no more than one block is held; a rank-counted block costs a fixed
    number of array operations for the whole epsilon grid.

    For epsilon = p/q the subset check covers every non-empty subset S
    exactly: the subset margin is ``min_i w_i / (2 q n^2)``, with ``w_i =
    q num_i - 2 n p [i not in F]``, read off each state's sorted numerators
    (see the module docstring). A negative w_i, which no non-negative
    numerator vector produces, counts as one subset violation per (state,
    epsilon), and the margin is then the sum of the negative w_i. Both
    margins are exact ratios rounded once. An epsilon with ``2 q n^2 >=
    2^63`` raises ``ValueError``.

    ``n_subsets`` random subsets, drawn from ``subset_seed``
    (``random_subset_blocks``), add a sampled cross-check
    (``_sampled_worst``): the reported subset margin is then the worst
    over those rows, and a sampled sum below the exact minimum raises
    ``RuntimeError``. The product's entries are integers of at most
    ``2 q n^2``, exact while ``4 q n^2 < 2^53``, so with the cross-check a
    larger denominator raises ``ValueError``.
    """
    eps_list = [as_exact(e) for e in (epsilons or default_epsilon_grid())]
    if n_subsets is not None:
        scale, limit, needs = 4, _EXACT_FLOAT, "4 q n^2 < 2^53"
    else:
        scale, limit, needs = 2, _EXACT_INT, "2 q n^2 < 2^63"
    for eps in eps_list:
        if scale * eps.denominator * n * n >= limit:
            raise ValueError(
                f"epsilon {eps} is too fine for an exact sweep at n={n}: "
                f"needs {needs} for its denominator q = {eps.denominator}"
            )
    if n_subsets is not None and n_subsets < 1:
        raise ValueError("the sampled subset cross-check needs at least one subset")
    result = SweepResult(
        policy=getattr(policy, "name", type(policy).__name__),
        n=n,
        states_checked=0,
        epsilons=[float(e) for e in eps_list],
        n_subsets=n_subsets,
    )

    # each epsilon p/q as int64 columns: q, p n, F's cut t = ceil(2np/q) and 2np
    qs = [e.denominator for e in eps_list]
    qa = np.array(qs, dtype=np.int64)
    pna = np.array([e.numerator * n for e in eps_list], dtype=np.int64)
    cuts = np.array([_cut(n, e) for e in eps_list], dtype=np.int64)
    dens = [2 * n * n * d for d in qs]
    for ids, nums, support in _numerator_blocks(policy, n, states, ids=True):
        for sid, (count, first) in zip(ids, support or ()):
            if count:
                result.support_violations += count
                result.violation_samples.append({"kind": "support", "state": sid, "sample": first})

        rows = np.sort(nums, axis=1)
        negative = np.flatnonzero(rows[:, 0] < 0)  # a negative numerator, so a negative w_i
        margins = np.full((len(rows), 2), np.inf)
        width = max(1, _GRID_BLOCK // len(rows))  # epsilons a slice of the grid takes
        for lo in range(0, len(eps_list), width):
            grid = slice(lo, lo + width)
            q, pn, cut = qa[grid], pna[grid], cuts[grid]
            # one (state, epsilon) entry per array from here on; see the module docstring
            fsize = _counts_below(rows, cut)
            first = q * rows[:, :1]  # F's lightest bin, if F is not empty
            outside = np.take_along_axis(rows, np.minimum(fsize, n - 1), axis=1)
            worst = np.where(fsize < n, q * outside - 2 * pn, first)  # the lightest bin outside F
            np.minimum(worst, first, out=worst, where=fsize > 0)
            # size bound: |F| <= eps * n, exactly q*|F| <= p*n
            size_bad = q * fsize > pn
            for e, eps in enumerate(eps_list[grid] if size_bad.any() or len(negative) else ()):
                for j in np.flatnonzero(size_bad[:, e]):
                    result.size_violations += 1
                    result.violation_samples.append(
                        {"kind": "size", "state": ids[j], "epsilon": float(eps),
                         "F": int(fsize[j, e])}
                    )
                for j in negative:
                    w = q[e] * nums[j] - 2 * pn[e] * (nums[j] >= cut[e])
                    worst[j, e] = np.minimum(w, 0).sum()
                    result.subset_violations += 1
                    result.violation_samples.append(
                        {
                            "kind": "subset",
                            "state": ids[j],
                            "epsilon": float(eps),
                            "bins": np.nonzero(w < 0)[0].tolist(),
                        }
                    )
            if n_subsets is not None:
                worst = np.column_stack(
                    _sampled_worst(n_subsets, subset_seed, nums, eps_list[grid], list(worst.T), ids)
                )
            subset_margin = _ratio(worst, dens[grid]).min(axis=1)
            size_margin = _ratio(pn - q * fsize, qs[grid]).min(axis=1)
            np.minimum(margins, np.column_stack((subset_margin, size_margin)), out=margins)
        result.worst_margins.update(zip(ids, margins.tolist()))
        result.states_checked += len(ids)

    return result


def _counts_below(rows: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """|F| of each state and epsilon: how many entries of each sorted
    numerator row are below each cut. Every cut lies in 1..2n, so clipping
    the entries to 0..2n keeps the counts. Shifted by r (2n + 1), as
    ``rank_numerators`` shifts its keys, the rows lie end to end in one
    order, and one ``searchsorted`` of the shifted cuts counts each row's
    entries below them plus the r n entries before it."""
    count, n = rows.shape
    shift = np.arange(0, count * (2 * n + 1), 2 * n + 1, dtype=np.int64)[:, None]
    flat = (np.clip(rows, 0, 2 * n) + shift).ravel()
    return np.searchsorted(flat, cut + shift) - np.arange(0, count * n, n, dtype=np.int64)[:, None]


def _ratio(num: np.ndarray, dens: list[int]) -> np.ndarray:
    """``num / den`` in float64 for each column's ``den``, rounded once, as
    ``float(Fraction(num, den))`` rounds it."""
    if max(dens) < _EXACT_FLOAT and np.abs(num).max() < _EXACT_FLOAT:
        return num / np.array(dens, dtype=np.float64)  # both convert exactly: one rounding
    return np.array([[x / d for x, d in zip(row, dens)] for row in num.tolist()])  # int / int


def _sampled_worst(
    count: int, seed: int, nums: np.ndarray, eps_list: list, exact: list, ids: list
) -> list:
    """The sampled cross-check: the worst sum of w over ``count`` subset rows
    drawn from ``seed``, per epsilon and state, checked against ``exact``.

    A row S sums to ``q (S . num) - 2 n p |S \\ F|``. Each block of rows
    (``random_subset_blocks``; with its products, about ``_PRODUCT_BLOCK``
    entries) is drawn once; its ``S . num`` serves every epsilon, and
    ``|S \\ F|`` is one product per epsilon. The empty subset sums to 0: it
    counts in the reported worst sum but is no test of the exact minimum,
    which is over non-empty subsets, so only non-empty rows are multiplied.
    A non-empty row summing below the exact minimum means one of the two
    computations is wrong: the first such (row, state) of the first block
    and epsilon that has one is raised as an internal error.
    """
    n = nums.shape[1]
    nums_t = nums.T.astype(np.float64)  # exact: every entry is below 2^53
    worst = [np.full(len(nums), np.inf) for _ in eps_list]
    rows = max(1, _PRODUCT_BLOCK // max(n, len(nums)))
    for start, block in zip(range(0, count, rows), random_subset_blocks(n, count, seed, rows)):
        filled = np.flatnonzero(block.any(axis=1))
        if len(filled) < len(block):
            for low in worst:
                np.minimum(low, 0.0, out=low)
            block = block[filled]
        block = block.astype(np.float64)
        taken = block @ nums_t  # (rows, states)
        for eps, floor, low in zip(eps_list, exact, worst):
            q, pe = eps.denominator, eps.numerator
            outside = block @ (~_forbidden(nums_t, n, eps)).astype(np.float64)
            diff = q * taken - (2 * n * pe) * outside
            if (diff < floor).any():
                si, sj = np.nonzero(diff < floor)
                raise RuntimeError(
                    f"sampled subset {start + filled[si[0]]} of state {ids[sj[0]]} at "
                    f"epsilon {eps} sums below the exact minimum over all subsets"
                )
            np.minimum(low, diff.min(axis=0, initial=np.inf), out=low)
    return worst


def enumerate_clustered_states(num_clusters: int, cap: int, max_balls: int) -> np.ndarray:
    """All counter tuples reachable with at most max_balls balls, one a row
    of an int64 array, in lexicographic order.

    Any composition of k <= max_balls into num_clusters parts (each <= cap)
    is reachable: offering two bins of the same cluster forces that
    cluster's counter up regardless of tie-breaks. The rows grow one
    counter at a time: each row so far is repeated once for every value its
    next counter can take, 0..min(balls left, cap), in order.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([max_balls], dtype=np.int64)  # balls not yet placed, per row
    for _ in range(num_clusters):
        counts = np.maximum(np.minimum(left, cap) + 1, 0)
        starts = np.cumsum(counts) - counts
        value = np.arange(counts.sum(), dtype=np.int64) - np.repeat(starts, counts)
        rows = np.concatenate((np.repeat(rows, counts, axis=0), value[:, None]), axis=1)
        left = np.repeat(left, counts) - value
    return rows


def probe_states(
    policy, n: int, balls: int, seed: int, max_states: int = 256
) -> Iterator[np.ndarray]:
    """Snapshots (1-D int64 rows) of the distinct memory states one seeded run
    visits, the final one included, at most ``max_states``, as it reaches
    them. The run is the engine's untraced walk, which moves ``policy``;
    no chunk past the last state kept is decided. No run reaches
    ``sys.maxsize`` states, so a larger cap is that one."""
    _, chunks = _walk_chunks(SimConfig(n=n, seed=seed, balls=balls), policy)
    rows = _state_rows(policy, policy.snapshot(), (c for *_, c in chunks), final=True)
    yield from islice(rows, min(max_states, sys.maxsize))


def _state_rows(policy, held: np.ndarray, chunks, final: bool) -> Iterator[np.ndarray]:
    """The memory row (``held`` plus each slot's choices so far, capped) before
    each step that starts a new state of a run that chose the bins of
    ``chunks`` from ``held``, then after the last step if ``final`` and new.
    The memory only grows, so a state is new iff it is the first or the key
    of the step before it rose (``Policy._walk``); no id is compared."""
    top = getattr(policy, "_top", None)
    mem, walked = held.copy(), held.copy()
    new = True  # the fresh state is new
    pieces = (piece for chosen in chunks for piece in policy._walk(walked, chosen))
    for slots, rise, _ in pieces:
        done = 0
        for t in np.flatnonzero(np.concatenate(([new], rise[:-1] != 0))).tolist():
            np.add.at(mem, slots[done:t], 1)
            done = t
            yield mem.copy() if top is None else np.minimum(mem, top)
        np.add.at(mem, slots[done:], 1)
        new = bool(rise[-1])
    if final and new:
        yield mem.copy() if top is None else np.minimum(mem, top)


# ---------------------------------------------------------------------------
# phases


@dataclass(frozen=True)
class PhaseConfig:
    """Split a run of n balls into L phases of floor(n/L) balls each."""

    n: int
    phases: int

    def __post_init__(self):
        if self.phases < 1:
            raise ValueError("phases must be >= 1")
        if self.phases > self.n:
            raise ValueError("phases must not exceed n")

    @classmethod
    def from_delta(cls, n: int, delta: float) -> "PhaseConfig":
        b = theoretical_bounds(n, delta)
        return cls(n=n, phases=max(1, math.floor(b.lower_L)))

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


def _phase_loads(pieces: Iterable[np.ndarray], pc: PhaseConfig) -> Iterator[np.ndarray]:
    """Walk a run's chosen bins, in int64 pieces in step order, and yield
    the loads at each phase's end: the one walk of both phase reports, over
    a stored trace's chosen column as one piece or the chunks of a live run.

    A phase may end inside a piece, and no piece past the last phase's end
    is asked for. The loads array is updated in place between yields. Fewer
    steps than the phases, or a bin outside 0..n-1, raises ``ValueError``.
    """
    needed = pc.phases * pc.phase_size
    loads = np.zeros(pc.n, dtype=np.int64)
    step = 0  # steps read so far
    for piece in pieces:
        while len(piece):
            left = pc.phase_size - step % pc.phase_size  # steps left in this phase
            part, piece = piece[:left], piece[left:]
            outside = np.flatnonzero((part < 0) | (part >= pc.n))
            if len(outside):
                k = int(outside[0])
                raise ValueError(
                    f"trace step {step + k} chooses bin {part[k]} outside 0..{pc.n - 1}"
                )
            np.add.at(loads, part, 1)
            step += len(part)
            if step % pc.phase_size == 0:
                yield loads
                if step == needed:
                    return
    raise ValueError(f"trace too short: {step} < {needed} balls")


def _phase_sizes(pieces: Iterable[np.ndarray], pc: PhaseConfig) -> list[int]:
    """|S_i| for each phase i: the bins holding at least i balls at its end."""
    return [
        int(np.count_nonzero(loads >= i)) for i, loads in enumerate(_phase_loads(pieces, pc), 1)
    ]


def phase_report(trace: Trace, pc: PhaseConfig) -> PhaseReport:
    """Phase sizes from a stored trace of a run into ``pc.n`` bins."""
    return _report_from_sizes(pc, _phase_sizes([trace.chosen], pc))


def run_phase_report(config: SimConfig, policy, pc: PhaseConfig) -> tuple[PhaseReport, RunResult]:
    """Run the simulation and compute phase sizes at the phase boundaries.

    The phase loads are read from the untraced walk's chunks as they pass,
    so the run holds O(n + chunk) memory however many phases there are.
    Balls beyond phases*phase_size are still thrown; they just fall outside
    the phase accounting. Bit-identical to simulate_run for the same config.
    """
    _check_fits(config, pc)
    loads, chunks = _walk_chunks(config, policy)
    sizes = _phase_sizes((c for *_, c in chunks), pc)
    collections.deque(chunks, maxlen=0)  # the balls past the last phase
    result = RunResult(loads=loads.tolist(), max_load=int(loads.max()))
    return _report_from_sizes(pc, sizes), result


def _check_fits(config: SimConfig, pc: PhaseConfig) -> None:
    """Refuse, before any walk, a live run of other bins than ``pc``'s or of
    fewer balls than its phases take."""
    if pc.n != config.n:
        raise ValueError("phase config n does not match the run config")
    needed = pc.phases * pc.phase_size
    if config.balls < needed:
        raise ValueError(f"run too short for {pc.phases} phases: needs {needed} balls")


@dataclass(frozen=True)
class _Rerun:
    """A live run, walked again from its seed where the forbidden report reads
    a stored trace, so none is kept: ``len`` is its step count, and ``walk``
    rebinds a policy to it now (``core._walk_chunks``) and yields its chosen
    bins a chunk at a time."""

    config: SimConfig

    def __len__(self) -> int:
        return self.config.balls

    def walk(self, policy) -> Iterator[np.ndarray]:
        return (c for *_, c in _walk_chunks(self.config, policy)[1])


def forbidden_union_over_trace(policy, trace: Trace | _Rerun, n: int, epsilon):
    """Union of forbidden sets over the distinct memory states in which a run
    decided a step (the state after its last ball decides none).

    Proves the trace's steps (``core._prove_steps``), then walks the rows
    of its new states (``_state_rows``) on the same policy, which only a
    policy without ``block_keys``, and so with no memory, is bound by. A
    live run (``_Rerun``) is walked on ``policy`` unproven, its steps being
    the policy's own. n <= 4096. Returns (union set, number of distinct states).
    """
    eps = as_exact(epsilon)
    if isinstance(trace, Trace):
        _prove_steps(policy, trace, n)
        chosen = [trace.chosen]
    else:
        chosen = trace.walk(policy)
    rows = _state_rows(policy, policy.snapshot(), chosen, final=False)
    union, distinct = np.zeros(n, dtype=bool), 0
    for _, nums, _ in _numerator_blocks(policy, n, rows):
        union |= _forbidden(nums, n, eps).any(axis=0)
        distinct += len(nums)
    return set(np.flatnonzero(union).tolist()), distinct


def phase_report_with_forbidden(
    policy, trace: Trace | _Rerun, pc: PhaseConfig, epsilon=None
) -> PhaseReport:
    """Phase report plus the worst observed forbidden-set overlap per phase.

    For each phase i reports |S_i \\ U| where U is the union of forbidden
    sets over every distinct memory state the run visited -- a harsher
    subtraction than any single state's forbidden set. Once the union has
    proven every step, the trace's id column is proven too
    (``core._prove_ids``), so a trace whose ids its steps do not give is
    refused with ``ValueError``. A live run (``_Rerun``) must fit ``pc``
    (``run_phase_report``'s refusals) and is walked on ``policy`` twice: once
    for its phase sets, then again for its union.
    """
    eps = as_exact(epsilon if epsilon is not None else pc.epsilon)
    stored = isinstance(trace, Trace)
    if not stored:
        _check_fits(trace.config, pc)
    phase_sets = [
        np.flatnonzero(loads >= i).tolist()
        for i, loads in enumerate(
            _phase_loads([trace.chosen] if stored else trace.walk(policy), pc), 1
        )
    ]
    union, nstates = forbidden_union_over_trace(policy, trace, pc.n, eps)
    if stored:
        _prove_ids(policy, trace, pc.n)
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
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["log_base"] = 2
        return d


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


def _poisson_tails(lam: float, t_max: int) -> Iterator[PoissonTail]:
    """Upper tails for t = 0..t_max from one walk of the pmf, by
    complementing the partial CDF sum.

    The pmf follows the stable recurrence p_k = p_{k-1} * lam / k from
    e^-lambda. Where that is below the normal float range (lambda above
    about 708.4), the walk starts from f = e^(-lambda / 2^j), normal for
    the least such j (the division is exact), and multiplies in the other
    2^j - 1 factors of f as the pmf grows, each once the product stays
    normal; until then the pmf is below every normal float and adds
    nothing. Tiny negative complements from rounding clamp to 0.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    if t_max < 0 or int(t_max) != t_max:
        raise ValueError("t must be a non-negative integer")
    tiny = sys.float_info.min
    j = 0
    while math.exp(-lam / 2**j) < tiny:
        j += 1
    f = pmf = math.exp(-lam / 2**j)
    pending = 2**j - 1  # factors of f not yet in pmf
    log_lam = math.log(lam)
    cdf = 0.0
    for t in range(int(t_max) + 1):
        leading = math.exp(-lam + t * log_lam - math.lgamma(t + 1))
        yield PoissonTail(lam=lam, t=t, probability=max(1.0 - cdf, 0.0), leading_term=leading)
        if t > 0:
            pmf *= lam / t
        while pending and pmf * f >= tiny:
            pmf *= f
            pending -= 1
        if not pending:
            cdf += pmf
