"""Sequential balls-into-bins simulation engine.

Each of ``balls`` steps offers the policy an ordered pair of bins drawn
i.i.d. uniform over ``{0..n-1}`` (the same bin may appear twice), plus one
fair tie-break bit. The policy picks one member of the pair; the engine
maintains the ground-truth loads.

Randomness comes from numpy's Philox bit generator (a counter-based 64-bit
PRNG) keyed by ``SimConfig.seed``. A run's randomness is exactly three
numpy vectors, drawn one after another from that generator, in this order:
first-offered bins, second-offered bins (int64) and tie bits (uint8). The
fixed layout makes every run bit-replayable from its seed alone,
independent of which branches a policy takes. ``draw_run_streams`` draws
them in one shot, as a traced run does. An untraced run walks the same
values in chunks of ``STREAM_CHUNK`` balls (``stream_chunks``) and hands
each chunk to the policy's ``run_bulk``, so its memory is O(n + chunk),
not O(balls).

A traced run records, before each ball, ``memory_state_id``: the policy's
``state_id()``. For a clustered geometry whose counters fit in 63 bits it
is the exact packed counter tuple; otherwise it is a 64-bit key linear in
the memory vector, with fixed pseudo-random weights. Equal states always
get equal ids, in any process. Policies keep the key current in O(1) per
ball, so tracing costs O(balls).

Every step-by-step walk goes through one of two generators. ``play``
decides each step of drawn streams; ``replay`` walks a stored trace and
proves it on the way. Both yield a step's ``StepRecord`` while the policy
is still in the state that decided it, with that state's own id, and apply
the step when the next record is asked for. A trace replays under a policy
for n bins only if its steps are numbered 0, 1, ..., both offered bins of
every step lie in 0..n-1, and every ``chosen`` is ``decide(pair, 0)`` or
``decide(pair, 1)`` in the replayed state; ``replay`` raises ``ValueError``
naming the first step that is not.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

PAIR_GUARD = 1 << 12  # max n for exhaustive ordered-pair enumeration elsewhere

TRACE_COLUMNS = ("step", "memory_state_id", "bin_a", "bin_b", "chosen")


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one run: n bins, balls thrown, 64-bit seed."""

    n: int
    seed: int = 0
    balls: int | None = None
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.balls is None:
            object.__setattr__(self, "balls", self.n)
        if self.balls < 1:
            raise ValueError(f"balls must be >= 1, got {self.balls}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class StepRecord:
    step: int
    memory_state_id: int
    bin_a: int
    bin_b: int
    chosen: int


@dataclass
class RunResult:
    loads: list[int]
    max_load: int
    trace: list[StepRecord] | None = None

    def to_dict(self) -> dict:
        d = {"n": len(self.loads), "max_load": self.max_load, "loads": self.loads}
        if self.trace is not None:
            d["trace"] = [
                [r.step, r.memory_state_id, r.bin_a, r.bin_b, r.chosen]
                for r in self.trace
            ]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "RunResult":
        d = json.loads(s)
        trace = None
        if "trace" in d:
            trace = [StepRecord(*row) for row in d["trace"]]
        return cls(loads=list(d["loads"]), max_load=d["max_load"], trace=trace)


STREAM_CHUNK = 1 << 16  # balls per chunk of an untraced run's stream walk


def _draw(rng: np.random.Generator, n: int, stream: int, size: int) -> np.ndarray:
    """``size`` values of stream 0 (bin_a) or 1 (bin_b), int64 in 0..n-1,
    or of stream 2 (tie bits, uint8)."""
    if stream == 2:
        return rng.integers(0, 2, size=size, dtype=np.uint8)
    return rng.integers(0, n, size=size, dtype=np.int64)


def draw_run_streams(config: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw the run's three random vectors: bin_a, bin_b (int64), tie bits (uint8)."""
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    return tuple(_draw(rng, config.n, k, config.balls) for k in range(3))


def stream_chunks(config: SimConfig) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the ``draw_run_streams`` values as consecutive chunks of
    ``STREAM_CHUNK`` balls (the last one shorter), value for value.

    Each stream gets its own generator, placed where the one-shot draw
    starts that stream. A draw of n-bounded integers may consume a varying
    amount of the generator, so those places come from one discarded pass
    over bin_a and bin_b, made only when the run has more than one chunk.
    A chunked draw equals the one-shot draw only if every chunk but the last
    is a multiple of 4 long: numpy draws uint8 values four to a 32-bit word
    and drops the unused ones at the end of each call.
    """
    n, balls = config.n, config.balls
    if balls <= STREAM_CHUNK:
        yield draw_run_streams(config)
        return
    sizes = [min(STREAM_CHUNK, balls - s) for s in range(0, balls, STREAM_CHUNK)]
    walker = np.random.Philox(key=config.seed)
    bitgens = [np.random.Philox(key=config.seed)]
    for k in (0, 1):
        rng = np.random.Generator(walker)
        for size in sizes:
            _draw(rng, n, k, size)
        start = np.random.Philox(key=config.seed)
        start.state = walker.state
        bitgens.append(start)
    rngs = [np.random.Generator(b) for b in bitgens]
    for size in sizes:
        yield tuple(_draw(rng, n, k, size) for k, rng in enumerate(rngs))


def trial_seed(base_seed: int, trial: int) -> int:
    """Per-trial stream derivation: base seed XOR trial index."""
    return (base_seed ^ trial) & (2**64 - 1)


def simulate_run(config: SimConfig, policy) -> RunResult:
    """Throw ``config.balls`` balls into ``config.n`` bins under ``policy``.

    The policy instance is (re)bound to this run and mutated in place; do
    not share one instance between concurrent runs. An untraced run is
    ``simulate_segmented`` with no boundaries.
    """
    if not config.record_trace:
        return simulate_segmented(config, policy, ())[0]
    pa, pb, ties = draw_run_streams(config)
    policy.reset(config.n, config.balls)
    loads = [0] * config.n
    trace = []
    for rec in play(policy, pa, pb, ties):
        loads[rec.chosen] += 1
        trace.append(rec)
    return RunResult(loads=loads, max_load=max(loads), trace=trace)


def simulate_segmented(
    config: SimConfig, policy, boundaries: Sequence[int]
) -> tuple[RunResult, list[list[int]]]:
    """Like an untraced simulate_run, but snapshot the loads at the given step counts.

    The streams are walked in chunks (``stream_chunks``) and each chunk is
    cut at the boundaries inside it, so the result is bit-identical to an
    unsegmented run with the same config. Returns (result, snapshots) with
    one copy of the loads per boundary, in order.
    """
    bounds = list(boundaries)
    if (
        any(b < 1 or b > config.balls for b in bounds)
        or any(y <= x for x, y in zip(bounds, bounds[1:]))
    ):
        raise ValueError(f"boundaries must be strictly increasing and within 1..{config.balls}")
    policy.reset(config.n, config.balls)
    counts = np.zeros(config.n, dtype=np.int64)
    snapshots = []
    pending = iter(bounds)
    cut = next(pending, None)
    start = 0  # step number of the chunk's first ball
    for pa, pb, ties in stream_chunks(config):
        lo, end = 0, start + len(pa)
        while cut is not None and cut <= end:
            hi = cut - start
            policy.run_bulk(counts, pa[lo:hi], pb[lo:hi], ties[lo:hi])
            snapshots.append(counts.tolist())
            lo, cut = hi, next(pending, None)
        if lo < len(pa):
            policy.run_bulk(counts, pa[lo:], pb[lo:], ties[lo:])
        start = end
    return RunResult(loads=counts.tolist(), max_load=int(counts.max())), snapshots


def play(policy, pa, pb, ties) -> Iterator[StepRecord]:
    """Decide every step of the streams under ``policy``, as it is bound now.

    Each step's record is yielded before the policy applies it, so between
    two records the policy is in the state that decided the last one. The
    streams are ``draw_run_streams`` arrays; records hold Python ints.
    """
    for t, (a, b, r) in enumerate(zip(pa.tolist(), pb.tolist(), ties.tolist())):
        sid = policy.state_id()
        c = policy.decide((a, b), r)
        yield StepRecord(t, sid, a, b, c)
        policy.update((a, b), c)


def replay(policy, trace: Sequence[StepRecord], n: int) -> Iterator[StepRecord]:
    """Rebind ``policy`` to n bins and walk ``trace`` through it, like ``play``.

    Each yielded record carries the replayed policy's own state id, not the
    one stored in the trace. A step the policy could not have taken raises
    ``ValueError`` naming it (see the module docstring).
    """
    policy.reset(n, max(len(trace), 1))
    for t, rec in enumerate(trace):
        a, b, c = rec.bin_a, rec.bin_b, rec.chosen
        if rec.step != t:
            raise ValueError(f"trace step {t} is numbered {rec.step}")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"trace step {t} offers bins ({a}, {b}) outside 0..{n - 1}")
        if c != policy.decide((a, b), 0) and c != policy.decide((a, b), 1):
            raise ValueError(
                f"trace step {t} chooses bin {c} from ({a}, {b}), "
                f"which the {policy.name} policy could not have chosen"
            )
        yield StepRecord(t, policy.state_id(), a, b, c)
        policy.update((a, b), c)


def load_histogram(loads: Sequence[int]) -> dict[int, int]:
    """Map load level -> number of bins at that level; counts sum to n."""
    if len(loads) == 0:
        raise ValueError("empty load vector")
    hist: dict[int, int] = {}
    for v in loads:
        hist[v] = hist.get(v, 0) + 1
    return dict(sorted(hist.items()))


@contextlib.contextmanager
def atomic_write(path: str, newline: str | None = None):
    """Open a text file that replaces ``path`` only once writing succeeds.

    Writes go to a fresh temporary file in the target's directory, which
    ``os.replace`` renames over ``path`` when the block exits normally. If
    the block raises, the temporary file is removed and whatever was at
    ``path`` stays as it was.
    """
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_trace_csv(trace: Iterable[StepRecord], path: str) -> None:
    with atomic_write(path, newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(TRACE_COLUMNS)
        for r in trace:
            w.writerow((r.step, r.memory_state_id, r.bin_a, r.bin_b, r.chosen))


def read_trace_csv(path: str) -> list[StepRecord]:
    """Read a trace written by ``write_trace_csv``; each row must be 5 integers."""
    with open(path, newline="") as f:
        rd = csv.reader(f)
        header = next(rd, [])
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header: {header}")
        trace = []
        for row in rd:
            try:
                values = [int(x) for x in row]
            except ValueError:
                values = []
            if len(values) != len(TRACE_COLUMNS):
                raise ValueError(
                    f"{path}:{rd.line_num}: a trace row needs {len(TRACE_COLUMNS)} "
                    f"integer fields, got {row}"
                )
            trace.append(StepRecord(*values))
        return trace
