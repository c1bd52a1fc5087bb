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
applies). The memoryless rules (one-choice, the toys and the fixture) use
only indexing and operators, so the same ``decide`` takes one pair of
Python ints or a pair of arrays, and the analysis enumerates their pairs a
block of arrays at a time under both tie bits.

Greedy, clustered and advice share one memory model, stated once in
``GreedyTwoChoicePolicy``: one value per memory slot, compared by
``prefer_second`` on one key per slot. Clustered is greedy whose slots are
clusters of bins with capped counters; advice is greedy whose key is a
bin's load only once the bin is listed. The values are held in the
narrowest integer type their bound allows, as the engine holds the loads
(``core.count_dtype``). ``block_keys`` gives the per-bin keys and state
ids of a whole block of memories, so the analysis can count ranks instead
of enumerating pairs.
``run_bulk`` applies the same comparison to whole arrays of steps: every
step of a block that offers no slot an earlier step of the block offered
reads the memory from before the block (see ``_decide_blocks``).
``state_id`` labels the current memory state by a key linear in the slot
keys, computed from the memory when asked; no step keeps it.

What a slot held before each step follows from the run's first memory
and chosen bins (``_values_before``), so one walk of the chosen column
(``Policy._walk``) answers every state question: the key rises sum to the
id column and mark new states, and the picks prove a stored trace.

``PolicySpec`` is a policy's name and parameters, as the CLI and scan
specs give them; its ``build`` defaults advice's threshold from (n, delta).
The closed-form bounds it comes from (``theoretical_bounds``) live here
too, so building a policy loads no analysis.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .core import count_dtype


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

    Every run, traced or not, applies its steps with ``run_bulk`` a chunk at
    a time (``core._walk_chunks``); a traced run derives each chunk's state
    ids from its chosen bins (``_trace_ids``).

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
        """Apply the given steps of a run; return their chosen bins (a fresh int64 array).

        Must match decide/update exactly. A run may be applied in
        consecutive pieces, each in O(steps) time. Here the policy has no
        memory, so one ``decide`` on the arrays decides every step.
        """
        pa, pb = (np.asarray(v, dtype=np.int64) for v in (pa, pb))
        chosen = np.broadcast_to(self.decide((pa, pb), np.asarray(ties)), pa.shape)
        chosen = np.array(chosen, dtype=np.int64)  # a fresh array: one-choice's decide is pa
        _add_balls(loads, chosen)
        return chosen

    def _walk(self, held, chosen, offers=None):
        """Walk a run that chose ``chosen`` from the memory ``held`` (a snapshot,
        which this advances), ``_ID_CHUNK`` steps a piece: yield its chosen
        slots, each step's key rise (nonzero iff it changes the memory the rule
        reads) and, given ``offers`` = (bin_a, bin_b), the rule's picks under
        tie bits 0 and 1, else None. Here no slot is chosen and no key rises."""
        for lo in range(0, len(chosen), _ID_CHUNK):
            k = min(_ID_CHUNK, len(chosen) - lo)
            picks = None
            if offers is not None:
                pair = tuple(o[lo : lo + _ID_CHUNK] for o in offers)
                picks = tuple(np.broadcast_to(self.decide(pair, tie), k) for tie in (0, 1))
            yield held[:0], np.zeros(k, dtype=np.int64), picks

    def _trace_ids(self, key: int, held: np.ndarray, chosen: np.ndarray, out: np.ndarray) -> int:
        """Write to ``out`` (uint64) the state id before each step of a run
        that chose the bins ``chosen`` from the memory ``held`` (a
        ``snapshot``, which this advances past them), whose id ``state_id``
        gave as ``key``; return the id after the last step, where the next
        chunk of a traced run goes on: the one rule of a trace's id column.
        A policy whose memory no step changes, as here, keeps its id.
        """
        out[:] = key
        return key

    # -- introspection for analysis ------------------------------------

    def state_id(self) -> int:
        """Integer label of the memory state: equal states, equal ids."""
        return 0

    def snapshot(self) -> np.ndarray:
        """A fresh copy of the memory: a 1-D int64 row of one value per slot,
        as ``restore`` and ``block_keys`` take it; empty for no memory."""
        return np.zeros(0, dtype=np.int64)

    def restore(self, state) -> None:
        """Put the policy in ``state``: a row ``snapshot`` gave, or any 1-D integer sequence."""
        if len(state):
            raise ValueError(f"{self.name} policy has no memory state")

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


def _add_balls(loads: np.ndarray, chosen) -> None:
    """Add one ball per entry of ``chosen`` to ``loads``, an integer array,
    in place, in O(len(chosen)) time."""
    # a one of the loads' own type: a Python 1 sends np.add.at down its slow
    # path for every type but int64
    np.add.at(loads, chosen, loads.dtype.type(1))


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
    for the next round. Once fewer than ``_BATCH_MIN`` steps are left, too
    few to batch, they wait at the head of the next block, where
    ``_repeat_steps`` orders them before its steps. Only in the last block,
    or when a round would batch fewer than ``_BATCH_MIN`` of more steps
    than that, are the rest decided one at a time, in order. Blocks hold
    4 * sqrt(slots) + 1024 steps: with many slots a few rounds decide
    nearly all of them, and with few slots, where nearly every step
    waits its turn, the per-block cost is spread over many steps.
    Returns the per-step choice: True where the second offer won.
    """
    won = np.empty(len(sa), dtype=bool)
    block = 4 * math.isqrt(len(mem)) + 1024
    steps = np.arange(0)  # the steps still to decide, carried from block to block
    for s in range(0, len(sa), block):
        e = min(s + block, len(sa))
        if len(steps):
            a, b = np.concatenate((a, sa[s:e])), np.concatenate((b, sb[s:e]))
            r, steps = np.concatenate((r, ties[s:e])), np.concatenate((steps, np.arange(s, e)))
        else:
            a, b, r, steps = sa[s:e], sb[s:e], ties[s:e], np.arange(s, e)
        while len(steps):
            if len(steps) < _BATCH_MIN and e < len(sa):
                break  # too few to batch: they head the next block
            late = _repeat_steps(a, b)
            if len(steps) - np.count_nonzero(late) < _BATCH_MIN:
                won[steps] = _decide_in_order(mem, a, b, r, prefer, cap)
                steps = steps[:0]
                break
            free = ~late
            fa, fb = a[free], b[free]
            ma, mb = mem[fa], mem[fb]
            second = prefer(ma, mb, r[free])
            chosen = np.where(second, fb, fa)
            grown = np.where(second, mb, ma)
            grown += 1
            if cap is not None:
                np.minimum(grown, cap, out=grown)
            mem[chosen] = grown
            won[steps[free]] = second
            a, b, r, steps = a[late], b[late], r[late], steps[late]
    return won


def _values_before(held: np.ndarray, chosen_slots: np.ndarray, slots: np.ndarray, top):
    """What each entry of ``slots`` (one column per step) held before its step
    in a run that chose ``chosen_slots`` from ``held``: its value there plus
    its earlier choices, capped at ``top`` (None: no cap). One stable sort of
    the (slot, step) entries, a step's queries before its own choice, puts
    each query just after the earlier choices of its slot."""
    k = len(chosen_slots)
    steps = 2 * np.arange(k)
    keys = np.concatenate((chosen_slots * (2 * k) + steps + 1, (slots * (2 * k) + steps).ravel()))
    order = np.argsort(keys, kind="stable")
    choice = order < k
    before = np.cumsum(choice) - choice  # the choices sorted before each entry
    group = keys[order] // (2 * k)
    earlier = np.empty_like(before)
    earlier[order] = before - before[np.searchsorted(group, group)]  # less those of other slots
    values = held[slots] + earlier[k:].reshape(slots.shape)
    return values if top is None else np.minimum(values, top, out=values)


_ID_CHUNK = 1 << 14  # steps per piece of a run's walk (``Policy._walk``)


class OneChoicePolicy(Policy):
    """Ignores the second option: ball goes to the first offered bin."""

    name = "one-choice"

    def decide(self, pair, tie_bit):
        return pair[0]

    def memory_bits(self, n, balls):
        return 0


class GreedyTwoChoicePolicy(Policy):
    """Full-knowledge baseline: pick the less loaded of the two bins.

    Memory is the entire load vector, declared as n * width(balls) bits.
    Ties are broken by the per-step tie bit.

    Greedy is also the memory model that clustered and advice refine. The
    memory is ``_mem``, an ``array`` of one value per slot of ``_width``
    bins (bin x uses slot x // _width); the chosen slot's value grows by
    one, up to ``_top`` when that is set. A slot value m has the key
    ``_rank(m)``, and a step takes the second offered bin where
    ``_prefer(m_a, m_b, tie)`` is 1. Greedy's slots are single bins with no
    cap, its key is the load itself and ``_prefer`` is ``prefer_second``.
    ``decide`` and ``update`` read the slot map and honour the cap, so every
    refinement inherits them. ``run_bulk`` applies ``_prefer`` to arrays
    (``_decide_blocks``) on a numpy view of ``_mem``, in place, so a run
    applied chunk by chunk copies no memory and does O(chunk) work per
    chunk.

    ``_mem`` holds its values in the narrowest integer type that holds their
    bound plus one (``core.count_dtype``): the cap where there is one, else
    the reset's ``balls``. With n balls, greedy's and advice's memory is
    int32 at n = 2^20 and int16 at n = 8192; clustered's is int8 at every
    default geometry. ``_high`` bounds the values' magnitude; a restored
    state or a run longer than ``balls`` that would take it to the type's
    largest value widens the type first (``_grow``), so no value ever
    wraps.

    ``state_id()`` is ``sum_k _rank(m_k) * W_k mod 2^64``, computed from the
    memory in O(slots) when asked, so no step keeps it; the weights are
    built on first use, and untraced runs never allocate them. Equal
    memories get equal ids in any process; distinct ones may collide.
    ``block_keys`` gives the ids and rank keys of a whole block of memories
    at once, with no policy bound to them.
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
        self._hold(-(-n // self._width), 0)
        self._wv = None

    def _hold(self, values, high: int) -> None:
        """Keep ``values`` (an integer array, or a count of zeros) as the
        memory, in the type ``count_dtype`` gives for the cap where there is
        one, else for ``high`` or the reset's ``balls``, whichever is larger;
        ``high`` bounds the values' magnitude."""
        dtype = count_dtype(max(high, self.balls) if self._top is None else self._top)
        if isinstance(values, int):
            self._mem = array(dtype.char, [0]) * values  # no bytes copy of the zeros
        else:
            self._mem = array(dtype.char, values.astype(dtype).tobytes())
        self._high = high
        # v + 1 cannot wrap while every value is below the type's largest; a
        # capped value stays at most the cap, and int64 is as wide as it goes
        wide = self._top is not None or dtype.itemsize == 8
        self._limit = math.inf if wide else int(np.iinfo(dtype).max)

    def _grow(self, steps: int) -> None:
        """Count ``steps`` more balls into the values' bound, widening the
        memory's type first where they could take a value to its largest."""
        self._high += steps
        if self._high >= self._limit:
            self._hold(self._view(), self._high)

    def _view(self) -> np.ndarray:
        """The memory as a numpy array of its own type, sharing its buffer."""
        return np.frombuffer(self._mem, dtype=self._mem.typecode)

    def decide(self, pair, tie_bit):
        a, b = pair
        c = self._width
        return pair[self._prefer(self._mem[a // c], self._mem[b // c], tie_bit)]

    def update(self, pair, chosen):
        s = chosen // self._width
        if self._top is None or self._mem[s] < self._top:
            self._grow(1)
            self._mem[s] += 1

    def _slot(self, bins: np.ndarray) -> np.ndarray:
        return bins if self._width == 1 else bins // self._width

    def run_bulk(self, loads, pa, pb, ties):
        pa = np.asarray(pa, dtype=np.int64)
        pb = np.asarray(pb, dtype=np.int64)
        self._grow(len(pa))
        mem = self._view()
        ties = np.asarray(ties, dtype=bool)
        second = _decide_blocks(mem, self._slot(pa), self._slot(pb), ties, self._prefer, self._top)
        chosen = np.where(second, pb, pa)
        _add_balls(loads, chosen)
        self._adopt(chosen)
        return chosen

    def _walk(self, held, chosen, offers=None):
        # step t's chosen slot rises from its value before the step, v, to
        # min(v + 1, top); the picks compare the offered slots' values before it
        for lo in range(0, len(chosen), _ID_CHUNK):
            slots = self._slot(chosen[lo : lo + _ID_CHUNK])
            pair = () if offers is None else tuple(o[lo : lo + _ID_CHUNK] for o in offers)
            v = _values_before(held, slots, np.stack((slots, *map(self._slot, pair))), self._top)
            grown = v[0] + 1 if self._top is None else np.minimum(v[0] + 1, self._top)
            picks = None
            if offers is not None:
                a, b = pair
                picks = tuple(np.where(self._prefer(v[1], v[2], tie), b, a) for tie in (0, 1))
            yield slots, self._rank(grown) - self._rank(v[0]), picks
            _add_balls(held, slots)

    def _trace_ids(self, key, held, chosen, out):
        # step t adds rise_t * W_s to the key, s its chosen slot (W as state_id built it
        # for the key), so the ids are the key plus the running sum, mod 2^64
        lo = 0
        for slots, rise, _ in self._walk(held, chosen):
            gain = rise.astype(np.uint64)
            gain *= self._wv[slots]
            np.cumsum(gain, out=gain)
            gain += key  # the key after each step of the piece
            out[lo] = key
            out[lo + 1 : lo + len(gain)] = gain[:-1]
            key = int(gain[-1])
            lo += len(gain)
        return key

    def _adopt(self, chosen: np.ndarray) -> None:
        """Account for the steps ``run_bulk`` just applied, whose chosen bins
        are ``chosen``."""

    def _key_weights(self) -> np.ndarray:
        return key_weights(len(self._mem))

    def block_keys(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Rank keys and state ids of a block of memories, one a row.

        A row's keys are one int64 per bin that decide every pair: the keys
        ``decide`` hands to ``prefer_second``. Summed over both orders of each
        pair of distinct bins, the bin with the smaller key takes the ball and
        equal keys split it evenly. A policy whose rule is not such a
        comparison has no ``block_keys``.

        Each row is a memory as ``restore`` takes it and is checked as
        ``restore`` checks it (``_check``). Returns the (rows, n) int64 keys
        of those states, one per bin, and their uint64 ids, ``_rank(rows) @
        W`` wrapping mod 2^64, in a fixed number of array operations
        whatever the rows. ``state_id`` is its one-row case; the weights are
        built on first use.
        """
        rows = np.asarray(rows, dtype=np.int64)
        self._check(rows)
        if self._wv is None:
            self._wv = self._key_weights()
        keys = self._rank(rows)
        ids = keys.astype(np.uint64) @ self._wv
        if self._width > 1:  # the bins of one slot share its key, so their pairs are ties
            keys = keys[:, self._slot(np.arange(self.n))]
        return keys, ids

    def _check(self, rows: np.ndarray) -> None:
        """Refuse memory rows that are not one value per slot, each in
        0..cap when there is a cap."""
        if rows.shape[1] != len(self._mem):
            raise ValueError(f"state has {rows.shape[1]} values for {len(self._mem)} memory slots")
        if self._top is not None and rows.size and (rows.min() < 0 or rows.max() > self._top):
            raise ValueError("counter value out of range")

    def state_id(self):
        return int(self.block_keys(self.snapshot()[None])[1][0])

    def snapshot(self):
        return np.array(self._mem, dtype=np.int64)

    def restore(self, state):
        values = np.asarray(state)
        if values.ndim != 1 or values.size and not np.can_cast(values.dtype, np.int64):
            raise TypeError(f"a memory state is a 1-D integer row, not {values.dtype} {values.shape}")
        values = values.astype(np.int64)
        self._check(values[None])
        self._hold(values, max(int(values.max(initial=0)), -int(values.min(initial=0))))

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
        if max(self.cluster_size, self.counter_cap) >= 1 << 63:
            raise ValueError("cluster_size and counter_cap must be below 2^63, as int64 holds them")

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
        mem, T = self._view(), self.threshold
        # the list before the last ball lacks its bin iff that ball listed it
        prestep = int(np.count_nonzero(mem >= T)) - int(mem[last] == T)
        return prestep * (int_width(n - 1) + int_width(balls))

    def state_space_size(self, n, balls):
        return None  # state is the advice content, bounded only in expectation


class MaxIndexPolicy(Policy):
    """Toy: always the larger bin index of the pair."""

    name = "max-index"

    def decide(self, pair, tie_bit):
        a, b = pair
        return b + (a - b) * (a >= b)

    def memory_bits(self, n, balls):
        return 0


class MinIndexPolicy(Policy):
    """Toy: always the smaller bin index of the pair."""

    name = "min-index"

    def decide(self, pair, tie_bit):
        a, b = pair
        return b + (a - b) * (a <= b)

    def memory_bits(self, n, balls):
        return 0


class IllegalFixedBinPolicy(Policy):
    """Negative control: dumps every ball into one bin, ignoring the pair.

    Violates the two-choice rules on purpose; the verifier must flag it.
    """

    name = "illegal-fixture"

    def __init__(self, target: int = 0):
        self.target = target

    def reset(self, n, balls):
        if n >= 1 and not 0 <= self.target < n:  # n < 1 is refused by each caller
            raise ValueError(f"illegal-fixture target {self.target} is outside 0..{n - 1} (n={n})")
        super().reset(n, balls)

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
            params["threshold"] = advice_threshold(n, delta)
        return make_policy(self.name, **params)
