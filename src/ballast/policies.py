"""Allocation policies with explicit memory budgets.

Every policy picks one bin from each offered ordered pair. What
distinguishes them is what they are allowed to remember between balls:

* ``one-choice``      -- nothing; always takes the first offered bin.
* ``greedy``          -- the full load vector (the full-knowledge baseline).
* ``clustered``       -- one saturating counter per cluster of bins.
* ``advice``          -- no persistent memory; before every ball it receives
                         the exact list of bins at or above a threshold,
                         with their counts.
* ``max-index`` / ``min-index`` -- stateless toys for verification sweeps.
* ``illegal-fixture`` -- negative control that places outside the offered
                         pair; exists so the verifier can prove it catches
                         rule-breaking policies.

Tie-breaks consume the engine's per-step tie bit: bit 0 keeps the first
offered bin, bit 1 takes the second. Each policy states its rule once, in
``decide`` (advice in the key and comparison its inherited ``decide``
applies). ``choice_dist``, the exact per-pair choice distribution the
enumeration-based analysis reads (probabilities in half-units, so a fair
tie is ``(bin_a, 1), (bin_b, 1)``), is derived from ``decide`` under both
tie bits and has no per-policy copy.

Greedy, clustered and advice share one memory model, stated once in
``GreedyTwoChoicePolicy``: one value per memory slot, compared by
``prefer_second`` on one key per slot. Clustered is greedy whose slots are
clusters of bins with capped counters; advice is greedy whose key is a
bin's load only once the bin is listed. ``rank_keys`` is the vector of the
keys, so the analysis can count ranks instead of enumerating pairs.
``run_bulk`` applies the same comparison to whole arrays of steps: every
step of a block that offers no slot an earlier step of the block offered
reads the memory from before the block (see ``_decide_blocks``).
``state_id`` labels the current memory state by a key linear in the slot
keys, computed from the memory when asked; no step keeps it. The memory
only grows, so ``changes_memory`` alone tells when a run reaches a new state.
``run_bulk`` returns the bins it chose, and ``run_traced`` derives from
them the key before every step, with no per-step call.

``PolicySpec`` is a policy's name and parameters, as the CLI and scan
specs give them; its ``build`` defaults advice's threshold from (n, delta).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np


def int_width(maxval: int) -> int:
    """Bits needed to store any integer in 0..maxval."""
    if maxval < 0:
        raise ValueError("maxval must be >= 0")
    return max(1, math.ceil(math.log2(maxval + 1)))


def prefer_second(ka, kb, tie):
    """1 to take the second offered bin, 0 to keep the first.

    The bin with the smaller key wins and equal keys follow ``tie``. Only
    operators are used, so this works on Python ints and numpy arrays alike.
    """
    return (kb < ka) | ((kb == ka) & tie)


class Policy:
    """Base class: a decision rule plus a memory-update rule.

    The update rule only grows the memory, so a run never returns to a state
    it has left; a policy whose memory can fall needs its states compared.

    Instances are single-run-owned and mutable; constructors are cheap and
    a fresh instance should be used per run.
    """

    name = "abstract"

    def reset(self, n: int, balls: int) -> None:
        self.n = n
        self.balls = balls

    def decide(self, pair: tuple[int, int], tie_bit: int) -> int:
        raise NotImplementedError

    def update(self, pair: tuple[int, int], chosen: int) -> None:
        pass

    def run_bulk(self, loads, pa, pb, ties) -> np.ndarray:
        """Apply the given steps of a run; return their chosen bins (int64).

        Must match decide/update exactly. A run may be applied in
        consecutive pieces, each in O(steps) time.
        """
        chosen = []
        for a, b, r in zip(*(np.asarray(v).tolist() for v in (pa, pb, ties))):
            c = self.decide((a, b), r)
            chosen.append(c)
            self.update((a, b), c)
        chosen = np.array(chosen, dtype=np.int64)
        _add_balls(loads, chosen)
        return chosen

    def run_traced(self, loads, pa, pb, ties) -> tuple[np.ndarray, np.ndarray]:
        """``run_bulk``, plus the state id before each step: (uint64 ids, chosen).

        A policy whose memory no step changes, as here, keeps its id.
        """
        ids = np.full(len(pa), self.state_id(), dtype=np.uint64)
        return ids, self.run_bulk(loads, pa, pb, ties)

    # -- introspection for analysis ------------------------------------

    def state_id(self) -> int:
        """Integer label of the memory state: equal states, equal ids."""
        return 0

    def changes_memory(self, chosen: int) -> bool:
        """Whether a ball in bin ``chosen`` changes the memory the rule reads,
        asked before the step; the state after it is then new."""
        return False

    def snapshot(self):
        return ()

    def restore(self, state) -> None:
        if state:
            raise ValueError(f"{self.name} policy has no memory state")

    def choice_dist(self, pair: tuple[int, int]):
        """Exact choice distribution for the current memory state.

        Returns ((bin, halves), ...) where halves/2 is the probability of
        choosing that bin; halves sum to 2. The tie bit is fair, so each of
        ``decide(pair, 0)`` and ``decide(pair, 1)`` carries one half.
        """
        d0, d1 = self.decide(pair, 0), self.decide(pair, 1)
        if d0 == d1:
            return ((d0, 2),)
        return ((d0, 1), (d1, 1))

    def rank_keys(self) -> np.ndarray | None:
        """Per-bin int64 keys that decide every pair, or None.

        They are the keys ``decide`` hands to ``prefer_second``, as a vector.
        Summed over both orders of each pair of distinct bins, the bin with
        the smaller key takes the ball and equal keys split it evenly. A
        policy whose rule is not such a comparison returns None.
        """
        return None

    def memory_bits(self, n: int, balls: int) -> int:
        """Declared persistent-memory budget in bits."""
        raise NotImplementedError

    def state_space_size(self, n: int, balls: int) -> int | None:
        """Number of reachable memory states; None if unbounded-declared."""
        return 1


_KEY_WEIGHT_SEED = 0x57A7E1D  # Philox key of the state-key weights


def key_weights(count: int) -> np.ndarray:
    """Pseudo-random uint64 weights W_0..W_{count-1} of the linear state key.

    They are the first ``count`` raw outputs of a Philox generator with a
    fixed key of their own, so W_k does not depend on ``count`` and drawing
    them touches none of a run's streams.
    """
    return np.random.Philox(key=_KEY_WEIGHT_SEED).random_raw(count)


def _add_balls(loads, chosen) -> None:
    """Add one ball per entry of ``chosen`` to ``loads`` (an int64 array or a
    list of ints) in place, in O(len(chosen)) time."""
    if isinstance(loads, np.ndarray):
        np.add.at(loads, chosen, 1)
    else:
        for c in np.asarray(chosen).tolist():
            loads[c] += 1


def _repeat_steps(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """True for each step that offers a slot an earlier step offered.

    ``sa[t]``/``sb[t]`` are the memory slots step t offers; a step that
    offers one slot twice does not repeat it. One sort of the (slot, step)
    entries puts every step next to the previous step that offered the same
    slot.
    """
    k = len(sa)
    shift = k.bit_length()
    steps = np.arange(k)
    entries = np.concatenate((sa, sb))
    entries <<= shift  # the high bits hold the slot, the low bits the step
    entries[:k] |= steps
    entries[k:] |= steps
    entries.sort()
    # adjacent entries of one slot and two steps differ below the slot bits
    diff = entries[1:] ^ entries[:-1]
    hit = (diff != 0) & (diff < (1 << shift))
    repeat = np.zeros(k, dtype=bool)
    repeat[entries[1:][hit] & ((1 << shift) - 1)] = True
    return repeat


def _decide_in_order(mem: np.ndarray, sa, sb, ties, prefer, cap) -> list:
    """Decide the steps one after another on ``mem``; return their outcomes.

    The memory the steps read is copied to a list once (all of it, or only
    the slots they offer when those are fewer), so each step reads and
    writes Python ints.
    """
    k = len(sa)
    if len(mem) <= 2 * k:
        slots, xs, ys = slice(None), sa.tolist(), sb.tolist()
    else:
        slots, local = np.unique(np.concatenate((sa, sb)), return_inverse=True)
        xs, ys = local[:k].tolist(), local[k:].tolist()
    vals = mem[slots].tolist()
    top = math.inf if cap is None else cap
    won = []
    for x, y, tie in zip(xs, ys, ties.tolist()):
        second = prefer(vals[x], vals[y], tie)
        z = y if second else x
        if vals[z] < top:
            vals[z] += 1
        won.append(second)
    mem[slots] = vals
    return won


_BATCH_MIN = 64  # one batch costs about as much as this many steps in order


def _decide_blocks(mem: np.ndarray, sa, sb, ties, prefer, cap=None) -> np.ndarray:
    """Decide every step by ``prefer`` and apply it to ``mem``, block by block.

    Step t offers memory slots ``sa[t]`` and ``sb[t]``; ``prefer(ma, mb,
    tie)`` is the policy's rule on the slots' memory values, and the chosen
    slot's value grows by one (saturating at ``cap``). Of the steps of a
    block still to decide, one that offers no slot an earlier one offered
    reads only memory that every earlier step touching it has already
    written, and no other such step touches its slots. Those steps are
    decided together: one gather, one ``prefer`` and one scatter, whose
    chosen slots are distinct, so it never repeats an index. The rest wait
    for the next round. Once a round would batch fewer than ``_BATCH_MIN``
    steps, the rest are decided one at a time, in order. Blocks hold
    4 * sqrt(slots) + 1024 steps: with many slots a few rounds decide
    nearly all of them, and with few slots, where nearly every step
    waits its turn, the per-block cost is spread over many steps.
    Returns the per-step choice: True where the second offer won.
    """
    won = np.empty(len(sa), dtype=bool)
    block = 4 * math.isqrt(len(mem)) + 1024
    for s in range(0, len(sa), block):
        a, b, r = sa[s : s + block], sb[s : s + block], ties[s : s + block]
        steps = np.arange(s, s + len(a))
        while len(steps):
            late = _repeat_steps(a, b)
            if len(steps) - np.count_nonzero(late) < _BATCH_MIN:
                won[steps] = _decide_in_order(mem, a, b, r, prefer, cap)
                break
            free = ~late
            fa, fb = a[free], b[free]
            second = prefer(mem[fa], mem[fb], r[free])
            chosen = np.where(second, fb, fa)
            grown = mem[chosen] + 1
            if cap is not None:
                np.minimum(grown, cap, out=grown)
            mem[chosen] = grown
            won[steps[free]] = second
            a, b, r, steps = a[late], b[late], r[late], steps[late]
    return won


def _earlier_choices(slots: np.ndarray) -> np.ndarray:
    """For each step, how many earlier steps chose its slot."""
    order = np.argsort(slots, kind="stable")
    grouped = slots[order]
    earlier = np.empty(len(slots), dtype=np.int64)
    # a step's place in its slot's group, less the place of the group's first step
    earlier[order] = np.arange(len(slots)) - np.searchsorted(grouped, grouped)
    return earlier


_ID_CHUNK = 1 << 14  # steps per piece of a traced run's id column


class OneChoicePolicy(Policy):
    """Ignores the second option: ball goes to the first offered bin."""

    name = "one-choice"

    def decide(self, pair, tie_bit):
        return pair[0]

    def run_bulk(self, loads, pa, pb, ties):
        chosen = np.asarray(pa, dtype=np.int64)
        _add_balls(loads, chosen)
        return chosen

    def memory_bits(self, n, balls):
        return 0


class GreedyTwoChoicePolicy(Policy):
    """Full-knowledge baseline: pick the less loaded of the two bins.

    Memory is the entire load vector, declared as n * width(balls) bits.
    Ties are broken by the per-step tie bit.

    Greedy is also the memory model that clustered and advice refine. The
    memory is ``_mem``, an ``array("q")`` of one value per slot of
    ``_width`` bins (bin x uses slot x // _width); the chosen slot's value
    grows by one, up to ``_top`` when that is set. A slot value m has the
    key ``_rank(m)``, and a step takes the second offered bin where
    ``_prefer(m_a, m_b, tie)`` is 1. Greedy's slots are single bins with no
    cap, its key is the load itself and ``_prefer`` is ``prefer_second``.
    ``decide`` and ``update`` read the slot map and honour the cap, so every
    refinement inherits them. ``run_bulk`` applies ``_prefer`` to arrays
    (``_decide_blocks``) on a numpy view of ``_mem``, in place, so a run
    applied chunk by chunk copies no memory and does O(chunk) work per
    chunk.

    ``state_id()`` is ``sum_k _rank(m_k) * W_k mod 2^64``, computed from the
    memory in O(slots) when asked, so no step keeps it; the weights are
    built on first use, and untraced runs never allocate them. Equal
    memories get equal ids in any process; distinct ones may collide.
    ``run_traced`` derives the key before every step of a run from its
    chosen bins, with no call per step.
    """

    name = "greedy"
    _width = 1
    _top = None
    _prefer = staticmethod(prefer_second)

    @staticmethod
    def _rank(m):
        """A slot value's key; operators only, so it also maps arrays."""
        return m

    def reset(self, n, balls):
        super().reset(n, balls)
        self._mem = array("q", [0]) * -(-n // self._width)  # no bytes copy of the zeros
        self._wv = None

    def decide(self, pair, tie_bit):
        a, b = pair
        c = self._width
        return pair[self._prefer(self._mem[a // c], self._mem[b // c], tie_bit)]

    def update(self, pair, chosen):
        s = chosen // self._width
        if self._top is None or self._mem[s] < self._top:
            self._mem[s] += 1

    def changes_memory(self, chosen):
        # iff the chosen slot's key changes: always for greedy, below the cap
        # for clustered, once the load reaches the threshold for advice
        v = self._mem[chosen // self._width]
        grown = v + 1 if self._top is None else min(v + 1, self._top)
        return self._rank(grown) != self._rank(v)

    def _slot(self, bins: np.ndarray) -> np.ndarray:
        return bins if self._width == 1 else bins // self._width

    def run_bulk(self, loads, pa, pb, ties):
        pa = np.asarray(pa, dtype=np.int64)
        pb = np.asarray(pb, dtype=np.int64)
        mem = np.frombuffer(self._mem, dtype=np.int64)
        ties = np.asarray(ties, dtype=bool)
        second = _decide_blocks(mem, self._slot(pa), self._slot(pb), ties, self._prefer, self._top)
        chosen = np.where(second, pb, pa)
        _add_balls(loads, chosen)
        self._adopt(chosen)
        return chosen

    def run_traced(self, loads, pa, pb, ties):
        # Step t's slot s held v: its value before the run plus the earlier
        # choices of s, capped at _top. The step adds (_rank(min(v + 1, top))
        # - _rank(v)) * W_s to the key, so the ids are the key before the run
        # plus the running sum of those terms, mod 2^64.
        key = self._memory_key()
        held = np.frombuffer(self._mem, dtype=np.int64).copy()
        chosen = self.run_bulk(loads, pa, pb, ties)
        ids = np.empty(len(chosen), dtype=np.uint64)
        for lo in range(0, len(chosen), _ID_CHUNK):
            slots = self._slot(chosen[lo : lo + _ID_CHUNK])
            v = held[slots] + _earlier_choices(slots)
            grown = v + 1
            if self._top is not None:
                np.minimum(v, self._top, out=v)
                np.minimum(grown, self._top, out=grown)
            gain = (self._rank(grown) - self._rank(v)).astype(np.uint64)
            gain *= self._wv[slots]
            np.cumsum(gain, out=gain)
            gain += key  # the key after each step of the chunk
            ids[lo] = key
            ids[lo + 1 : lo + len(gain)] = gain[:-1]
            key = int(gain[-1])
            _add_balls(held, slots)
        return ids, chosen

    def _adopt(self, chosen: np.ndarray) -> None:
        """Account for the steps ``run_bulk`` just applied, whose chosen bins
        are ``chosen``."""

    def _key_weights(self) -> np.ndarray:
        return key_weights(len(self._mem))

    def _memory_key(self) -> int:
        """The state key recomputed from the memory; builds the weights once."""
        if self._wv is None:
            self._wv = self._key_weights()
        keys = self._rank(np.frombuffer(self._mem, dtype=np.uint64))
        return int(np.dot(keys, self._wv))

    def state_id(self):
        return self._memory_key()

    def snapshot(self):
        return tuple(self._mem)

    def restore(self, state):
        if len(state) != len(self._mem):
            raise ValueError(f"state has {len(state)} values for {len(self._mem)} memory slots")
        mem = array("q", state)
        if self._top is not None and (min(mem) < 0 or max(mem) > self._top):
            raise ValueError("counter value out of range")
        self._mem = mem

    def rank_keys(self):
        keys = self._rank(np.array(self._mem, dtype=np.int64))
        # the bins of one slot share its key, so their pairs are ties
        return keys if self._width == 1 else np.repeat(keys, self._width)[: self.n]

    def memory_bits(self, n, balls):
        return n * int_width(balls)

    def state_space_size(self, n, balls):
        return None  # unbounded-declared: full-knowledge reference


@dataclass(frozen=True)
class ClusterConfig:
    """Geometry of the clustered counters: bins per cluster and saturation cap."""

    cluster_size: int
    counter_cap: int

    def __post_init__(self):
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        if self.counter_cap < 1:
            raise ValueError("counter_cap must be >= 1")

    @property
    def counter_width(self) -> int:
        return int_width(self.counter_cap)

    def num_clusters(self, n: int) -> int:
        return -(-n // self.cluster_size)

    def total_bits(self, n: int) -> int:
        return self.num_clusters(n) * self.counter_width


def default_cluster_config(n: int) -> ClusterConfig:
    """Cluster size ceil(log2 log2 n), cap 4x that (2x headroom over the
    ~2 log2 log2 n balls a cluster collects in practice)."""
    c = max(1, math.ceil(math.log2(max(math.log2(max(n, 2)), 1.0))))
    return ClusterConfig(cluster_size=c, counter_cap=4 * c)


class ClusteredPolicy(GreedyTwoChoicePolicy):
    """Sublinear-memory policy: greedy on one saturating counter per bin cluster.

    Picks the offered bin whose cluster holds fewer balls; ties (including
    both bins in the same cluster) go to the tie bit. The chosen bin's
    cluster counter increments, clamping at the cap so comparisons stay
    meaningful under bounded width. A slot is a cluster of
    ``config.cluster_size`` bins and ``config.counter_cap`` caps it.

    The state key weighs counter k by (cap+1)^k whenever all counters fit in
    63 bits, so the key is then the exact packed counter tuple.
    """

    name = "clustered"

    def __init__(self, config: ClusterConfig | None = None):
        self._explicit = config

    def reset(self, n, balls):
        self.config = self._explicit or default_cluster_config(n)
        # set before greedy's reset, which sizes _mem by the slot width
        self._width, self._top = self.config.cluster_size, self.config.counter_cap
        super().reset(n, balls)

    def _key_weights(self):
        k = len(self._mem)
        if k * self.config.counter_width <= 63:
            return (self._top + 1) ** np.arange(k, dtype=np.uint64)
        return super()._key_weights()

    def _geometry(self, n: int) -> ClusterConfig:
        """The run's geometry after ``reset``, else the one a run at n would use."""
        return getattr(self, "config", None) or self._explicit or default_cluster_config(n)

    def memory_bits(self, n, balls):
        return self._geometry(n).total_bits(n)

    def state_space_size(self, n, balls):
        cfg = self._geometry(n)
        return (cfg.counter_cap + 1) ** cfg.num_clusters(n)


@dataclass(frozen=True)
class AdviceList:
    """Exact list of bins at or above the threshold, with their counts."""

    threshold: int
    entries: tuple[tuple[int, int], ...]  # (bin, count), sorted by bin

    def to_dict(self) -> dict:
        return {"threshold": self.threshold, "entries": [list(e) for e in self.entries]}


def build_advice(loads, threshold: int) -> AdviceList:
    """Oracle for the advice channel: every bin with load >= threshold."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    entries = tuple((i, v) for i, v in enumerate(loads) if v >= threshold)
    return AdviceList(threshold=threshold, entries=entries)


class AdvicePolicy(GreedyTwoChoicePolicy):
    """No persistent memory; a fresh advice list arrives before every ball.

    The list names every bin currently holding >= threshold balls, with
    exact counts. Decision rule: avoid listed bins when possible; if both
    offered bins are listed, take the one with fewer balls per the advice
    (tie bit on equality); if neither is listed, take the first offered bin.

    The oracle is realized as an exact incremental mirror of the true
    loads, which is equivalent to rebuilding the list from the simulator
    state before each ball. The advice channel cost is reported as the
    maximum over steps of |list| * (bin-index bits + count bits). The list
    only grows, so its largest pre-step size is its size before the last
    ball, which ``memory_bits`` reads from the memory and the last ball's
    bin, the only thing advice keeps besides greedy's memory.

    The memory state is the list itself: a bin's key is its load if it is
    listed and 0 otherwise, so the state key's vector holds the load of
    every listed bin and 0 for every other bin.
    """

    name = "advice"

    def __init__(self, threshold: int):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold

    def reset(self, n, balls):
        super().reset(n, balls)
        self._last = None  # the bin of the last ball, once one is thrown

    def advice_list(self) -> AdviceList:
        return build_advice(self._mem, self.threshold)

    def _rank(self, load):
        """A bin's key: its load if it is listed, else 0. Operators only."""
        return load * (load >= self.threshold)

    def _prefer(self, la, lb, tie):
        ka, kb = self._rank(la), self._rank(lb)
        # two unlisted bins (both keys 0) go to the first offered bin, which
        # over both orders of the pair is an even split, like a tie
        return prefer_second(ka, kb, tie & (ka > 0))

    def update(self, pair, chosen):
        super().update(pair, chosen)
        self._last = chosen

    def _adopt(self, chosen):
        if len(chosen):
            self._last = int(chosen[-1])

    def memory_bits(self, n, balls):
        # advice channel cost, max over steps; 0 until a ball is thrown
        last = getattr(self, "_last", None)
        if last is None:
            return 0
        mem, T = np.frombuffer(self._mem, dtype=np.int64), self.threshold
        # the list before the last ball lacks its bin iff that ball listed it
        prestep = int(np.count_nonzero(mem >= T)) - int(mem[last] == T)
        return prestep * (int_width(n - 1) + int_width(balls))

    def state_space_size(self, n, balls):
        return None  # state is the advice content, bounded only in expectation


class MaxIndexPolicy(Policy):
    """Toy: always the larger bin index of the pair."""

    name = "max-index"

    def decide(self, pair, tie_bit):
        return pair[0] if pair[0] >= pair[1] else pair[1]

    def memory_bits(self, n, balls):
        return 0


class MinIndexPolicy(Policy):
    """Toy: always the smaller bin index of the pair."""

    name = "min-index"

    def decide(self, pair, tie_bit):
        return pair[0] if pair[0] <= pair[1] else pair[1]

    def memory_bits(self, n, balls):
        return 0


class IllegalFixedBinPolicy(Policy):
    """Negative control: dumps every ball into one bin, ignoring the pair.

    Violates the two-choice rules on purpose; the verifier must flag it.
    """

    name = "illegal-fixture"

    def __init__(self, target: int = 0):
        self.target = target

    def decide(self, pair, tie_bit):
        return self.target

    def memory_bits(self, n, balls):
        return 0


# Each policy's class and the names of the parameters make_policy accepts.
POLICY_TABLE = {
    "one-choice": (OneChoicePolicy, ()),
    "greedy": (GreedyTwoChoicePolicy, ()),
    "clustered": (ClusteredPolicy, ("cluster_size", "counter_cap")),
    "advice": (AdvicePolicy, ("threshold",)),
    "max-index": (MaxIndexPolicy, ()),
    "min-index": (MinIndexPolicy, ()),
    "illegal-fixture": (IllegalFixedBinPolicy, ("target",)),
}

POLICY_NAMES = tuple(POLICY_TABLE)


def policy_params(name: str) -> tuple[str, ...]:
    """The parameter names ``make_policy`` accepts for policy ``name``."""
    if name not in POLICY_TABLE:
        raise ValueError(f"unknown policy: {name!r}")
    return POLICY_TABLE[name][1]


def make_policy(name: str, **params) -> Policy:
    """Build a policy by registry name.

    clustered accepts cluster_size/counter_cap (both or neither); advice
    requires threshold.
    """
    unexpected = sorted(set(params) - set(policy_params(name)))
    if unexpected:
        raise ValueError(f"unexpected parameters for {name}: {unexpected}")
    if name == "clustered":
        cs, cap = params.get("cluster_size"), params.get("counter_cap")
        if cs is None and cap is None:
            return ClusteredPolicy()
        if cs is None or cap is None:
            raise ValueError("clustered needs both cluster_size and counter_cap, or neither")
        return ClusteredPolicy(ClusterConfig(cluster_size=cs, counter_cap=cap))
    if name == "advice" and params.get("threshold") is None:
        raise ValueError("advice policy needs a threshold")
    return POLICY_TABLE[name][0](**params)


@dataclass(frozen=True)
class PolicySpec:
    """A policy name plus explicit parameters, as named in scan output."""

    name: str
    params: tuple[tuple[str, int], ...] = ()

    @classmethod
    def from_dict(cls, d: dict) -> "PolicySpec":
        """``{"name": ..., <param>: <int>, ...}``; a malformed entry is a ValueError."""
        if not isinstance(d, dict) or not isinstance(d.get("name"), str):
            raise ValueError(f"a policy entry must be an object with a string name, got {d!r}")
        d = dict(d)
        name = d.pop("name")
        for key, value in d.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} parameter {key} must be an integer, got {value!r}")
        return cls(name=name, params=tuple(sorted(d.items())))

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}[{inner}]"

    def build(self, n: int, delta: float) -> Policy:
        """The policy for n bins; advice defaults its threshold from (n, delta)."""
        params = dict(self.params)
        if self.name == "advice" and "threshold" not in params:
            from .analysis import advice_threshold

            params["threshold"] = advice_threshold(n, delta)
        return make_policy(self.name, **params)
