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

A traced run is decided by the same ``run_bulk`` and records, before each
ball, ``memory_state_id``: the policy's ``state_id()``. For a clustered
geometry whose counters fit in 63 bits it is the exact packed counter
tuple; otherwise it is a 64-bit key linear in the memory vector, with
fixed pseudo-random weights. Equal states always get equal ids, in any
process. The policy derives the whole id column from the chosen bins
(``run_traced``), so tracing costs O(balls) array work. The trace is a
``Trace``: columns of ids and bins, read as a sequence of ``StepRecord``
views. Traces and run results are written, and traces read, a block of
rows at a time through numpy, in the text ``csv`` and ``json`` would give.

Every step-by-step walk goes through one of two generators. ``play``
decides each step of drawn streams; ``replay`` walks a stored trace and
proves it on the way. Both yield a step's chosen bin while the policy is
still in the state that decided it, and apply the step when the next one
is asked for; a caller that wants the state's id asks the policy between
yields, so a walk costs no id per step. A trace replays under a policy
for n bins only if its steps are numbered 0, 1, ..., both offered bins of
every step lie in 0..n-1, and every ``chosen`` is ``decide(pair, 0)`` or
``decide(pair, 1)`` in the replayed state; ``replay`` raises ``ValueError``
naming the first step that is not.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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


class Trace(Sequence):
    """A run's steps as columns: uint64 ``ids`` and int64 ``bin_a``,
    ``bin_b`` and ``chosen``, one row per step, numbered by position.

    As a sequence it holds ``StepRecord(t, ids[t], bin_a[t], bin_b[t],
    chosen[t])`` views with Python ints: ``len``, iteration, indexing,
    slicing (to a list) and ``==`` against any sequence of records.
    """

    def __init__(self, ids, bin_a, bin_b, chosen):
        self.ids = np.asarray(ids, dtype=np.uint64)
        self.bin_a, self.bin_b, self.chosen = (
            np.asarray(v, dtype=np.int64) for v in (bin_a, bin_b, chosen)
        )
        if not len(self.ids) == len(self.bin_a) == len(self.bin_b) == len(self.chosen):
            raise ValueError("trace columns differ in length")

    @classmethod
    def from_records(cls, records: Iterable[StepRecord]) -> "Trace":
        """The trace of ``records``, whose steps must be numbered 0, 1, ..."""
        columns = ([], [], [], [])
        for t, r in enumerate(records):
            if r.step != t:
                raise ValueError(f"trace step {t} is numbered {r.step}")
            for column, v in zip(columns, (r.memory_state_id, r.bin_a, r.bin_b, r.chosen)):
                column.append(v)
        return cls(*columns)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return self.ids, self.bin_a, self.bin_b, self.chosen

    def numbered(self, lo: int, hi: int) -> list[np.ndarray]:
        """The step numbers and columns of rows lo..hi-1."""
        return [np.arange(lo, min(hi, len(self))), *(c[lo:hi] for c in self.columns)]

    def __len__(self) -> int:
        return len(self.chosen)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[t] for t in range(*i.indices(len(self)))]
        t = range(len(self))[i]
        return StepRecord(t, *(int(c[t]) for c in self.columns))

    def __iter__(self) -> Iterator[StepRecord]:
        for lo in range(0, len(self), _IO_ROWS):
            yield from map(StepRecord, *(c.tolist() for c in self.numbered(lo, lo + _IO_ROWS)))

    def __eq__(self, other):
        if isinstance(other, Trace):
            return all(np.array_equal(x, y) for x, y in zip(self.columns, other.columns))
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(x == y for x, y in zip(self, other))
        return NotImplemented


@dataclass
class RunResult:
    loads: list[int]
    max_load: int
    trace: Trace | None = None

    def write_json(self, f) -> None:
        """Write the result to ``f`` as one JSON object, a block of rows at a
        time: ``n``, ``max_load``, ``loads`` and, for a traced run, ``trace``
        as [step, memory_state_id, bin_a, bin_b, chosen] rows."""
        def loads(lo, hi):
            return [np.array(self.loads[lo:hi], dtype=np.int64)]

        f.write(f'{{"n": {len(self.loads)}, "max_load": {self.max_load}, "loads": [')
        _write_rows(f, len(self.loads), loads, ("", ""), join=", ")
        f.write("]")
        if self.trace is not None:
            f.write(', "trace": [')
            _write_rows(f, len(self.trace), self.trace.numbered, ("[", *[", "] * 4, "]"), join=", ")
            f.write("]")
        f.write("}")

    def to_json(self) -> str:
        f = io.StringIO()
        self.write_json(f)
        return f.getvalue()

    @classmethod
    def from_json(cls, s: str) -> "RunResult":
        d = json.loads(s)
        trace = None
        if "trace" in d:
            trace = Trace.from_records(StepRecord(*row) for row in d["trace"])
        return cls(loads=list(d["loads"]), max_load=d["max_load"], trace=trace)


_IO_ROWS = 1 << 12  # rows per block of trace and result text
_QUAD_ALL = 0x01010101  # four significant digits, as a packed mask


@functools.cache
def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4 ASCII digits of each of 0..9999 and the mask of its significant
    ones, each packed in a uint32, so one gather places 4 bytes."""
    places = np.array([1000, 100, 10, 1], dtype=np.int16)
    quads = np.arange(10_000, dtype=np.int16)[:, None] // places
    text = (quads % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    return text, (quads > 0).view(np.uint32).ravel()


def _decimal(column: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each value's decimal text as (uint8 matrix, mask of its text bytes)
    pieces, one row per value: a minus sign if any value is negative, then
    the digits, right-aligned, 4 to a uint32."""
    negative = column < 0
    magnitude = column.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)  # wraps to |value|
    quads = -(-len(str(int(magnitude.max()))) // 4)
    quad_text, quad_keep = _quad_tables()
    text = np.empty((len(column), quads), dtype=np.uint32)
    keep = np.empty((len(column), quads), dtype=np.uint32)
    for q in range(quads - 1, -1, -1):
        high = magnitude // 10_000
        low = magnitude - high * 10_000
        magnitude = high
        text[:, q] = quad_text.take(low)
        if q == quads - 1:
            np.maximum(low, 1, out=low)  # a value of 0 still shows one digit
        # every digit of a quad below the leading one is significant
        keep[:, q] = np.where(magnitude > 0, _QUAD_ALL, quad_keep.take(low))
    pieces = [(text.view(np.uint8), keep.view(bool))]
    if negative.any():
        pieces.insert(0, (np.full((len(column), 1), ord("-"), dtype=np.uint8), negative[:, None]))
    return pieces


def _rows_text(columns: Sequence[np.ndarray], seps: Sequence[str]) -> str:
    """Row i is seps[0], columns[0][i], seps[1], ..., seps[-1], in decimal."""
    rows = len(columns[0])
    text, keep = [], []
    for k, sep in enumerate(seps):
        if sep:
            sep_bytes = np.frombuffer(sep.encode(), dtype=np.uint8)
            text.append(np.broadcast_to(sep_bytes, (rows, len(sep))))
            keep.append(np.broadcast_to(True, (rows, len(sep))))
        for piece, mask in _decimal(columns[k]) if k < len(columns) else ():
            text.append(piece)
            keep.append(mask)
    return np.concatenate(text, axis=1)[np.concatenate(keep, axis=1)].tobytes().decode()


def _write_rows(
    f, rows: int, columns: Callable[[int, int], list], seps: Sequence[str], join: str = ""
) -> None:
    """Write ``rows`` rows to ``f``, ``_IO_ROWS`` at a time, ``join``
    between rows; ``columns(lo, hi)`` gives the integer columns of rows
    lo..hi-1 and ``seps`` the text around them (see ``_rows_text``)."""
    seps = (*seps[:-1], seps[-1] + join)
    for lo in range(0, rows, _IO_ROWS):
        text = _rows_text(columns(lo, lo + _IO_ROWS), seps)
        f.write(text if lo + _IO_ROWS < rows else text[: len(text) - len(join)])


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
    ``simulate_segmented`` with no boundaries. A traced run applies the
    one-shot streams with the policy's ``run_traced`` and keeps them: its
    offers are the trace's bin columns.
    """
    if not config.record_trace:
        return simulate_segmented(config, policy, ())[0]
    pa, pb, ties = draw_run_streams(config)
    policy.reset(config.n, config.balls)
    counts = np.zeros(config.n, dtype=np.int64)
    ids, chosen = policy.run_traced(counts, pa, pb, ties)
    trace = Trace(ids, pa, pb, chosen)
    return RunResult(loads=counts.tolist(), max_load=int(counts.max()), trace=trace)


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


def play(policy, pa, pb, ties) -> Iterator[int]:
    """Decide every step of the streams under ``policy``, as it is bound now.

    Each step's chosen bin is yielded before the policy applies the step, so
    between two yields the policy is in the state that decided the last one.
    The streams are ``draw_run_streams`` arrays; the bins are Python ints.
    """
    for a, b, r in zip(pa.tolist(), pb.tolist(), ties.tolist()):
        c = policy.decide((a, b), r)
        yield c
        policy.update((a, b), c)


def replay(policy, trace: Sequence[StepRecord], n: int) -> Iterator[int]:
    """Rebind ``policy`` to n bins and walk ``trace`` through it, like ``play``.

    A step the policy could not have taken raises ``ValueError`` naming it
    (see the module docstring).
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
        yield c
        policy.update((a, b), c)


def load_histogram(loads: Sequence[int]) -> dict[int, int]:
    """Map load level -> number of bins at that level; counts sum to n."""
    if len(loads) == 0:
        raise ValueError("empty load vector")
    counts = np.bincount(np.asarray(loads, dtype=np.int64))
    levels = np.flatnonzero(counts)
    return dict(zip(levels.tolist(), counts[levels].tolist()))


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
    """Write ``trace`` (a ``Trace``, or records numbered 0, 1, ...) as CSV
    under a ``TRACE_COLUMNS`` header."""
    if not isinstance(trace, Trace):
        trace = Trace.from_records(trace)
    with atomic_write(path, newline="") as f:
        f.write(",".join(TRACE_COLUMNS) + "\n")
        _write_rows(f, len(trace), trace.numbered, ("", ",", ",", ",", ",", "\n"))


_TRACE_ROW = np.dtype(
    [(name, np.uint64 if name == "memory_state_id" else np.int64) for name in TRACE_COLUMNS]
)


def _parse_rows(text: str) -> np.ndarray | None:
    """The trace rows of ``text``, whole lines, or None unless each line is
    5 integers."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on blank text
            rows = np.loadtxt(
                io.StringIO(text), delimiter=",", dtype=_TRACE_ROW, comments=None, ndmin=1
            )
    except ValueError:
        return None
    lines = text.removesuffix("\n").count("\n") + 1
    return rows if len(rows) == lines else None  # loadtxt skips blank lines


def read_trace_csv(path: str) -> Trace:
    """Read a trace written by ``write_trace_csv``, a block of rows at a time.

    Each row must be 5 integers, the id in 0..2^64-1 and the bins in int64,
    and row t must be step t; ``ValueError`` names the first line or step
    that is not.
    """
    with open(path) as f:
        header = next(csv.reader([f.readline()]), [])
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header: {header}")
        # count the lines first, so each column is allocated once
        lines, last = 0, "\n"
        while text := f.read(1 << 20):
            lines, last = lines + text.count("\n"), text[-1]
        lines += last != "\n"
        columns = [np.empty(lines, dtype=_TRACE_ROW[name]) for name in TRACE_COLUMNS[1:]]
        f.seek(0)
        f.readline()
        start = 0  # step number of the block's first row, which is on line start + 2
        while text := f.read(1 << 20) + f.readline():
            rows = _parse_rows(text)
            if rows is None:
                block = text.removesuffix("\n").split("\n")
                k = next((k for k, line in enumerate(block) if _parse_rows(line) is None), 0)
                raise ValueError(
                    f"{path}:{start + k + 2}: a trace row needs {len(TRACE_COLUMNS)} "
                    f"integer fields, got {next(csv.reader([block[k]]), [])}"
                )
            stop = start + len(rows)
            misnumbered = np.flatnonzero(rows["step"] != np.arange(start, stop))
            if len(misnumbered):
                t = start + int(misnumbered[0])
                raise ValueError(f"trace step {t} is numbered {rows['step'][t - start]}")
            for column, name in zip(columns, TRACE_COLUMNS[1:]):
                column[start:stop] = rows[name]
            start = stop
    return Trace(*columns)


