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
them in one shot. A run walks the same values in chunks of
``STREAM_CHUNK`` balls (``stream_chunks``) and hands each chunk to the
policy's ``run_bulk``, so its working memory is O(n + chunk), not
O(balls). That walk is the engine's one path (``_walk_chunks``), which
yields each chunk's offers and chosen bins: a plain run drains it
(``_walk_counts``), a live phase report reads its phase loads from the
chunks as they pass, and a traced run records them (``_record``).

The loads are counted in the narrowest signed integer type that holds
``balls`` plus one (``count_dtype``): int32 at n = 2^20 with n balls,
int16 at n = 8192. The policies hold their memory by the same rule.

A traced run also records, before each ball, ``memory_state_id``: the
policy's ``state_id()``. For a clustered geometry whose counters fit in 63
bits it is the exact packed counter tuple; otherwise it is a 64-bit key
linear in the memory vector, with fixed pseudo-random weights. Equal
states always get equal ids, in any process. The policy derives each
chunk's ids from its chosen bins (``_trace_ids``), carrying the key and
memory row from chunk to chunk, so tracing costs O(balls) array work. The
trace is a ``Trace``: columns of ids and bins, filled in place. Traces and
run results are written, and traces read, a block of rows at a time
through numpy, in the text ``csv`` and ``json`` would give.

``_prove_steps`` proves a stored trace by the picks of the policy's walk
of its chosen column (``Policy._walk``): every step's offers must lie in
0..n-1 and its ``chosen`` be ``decide(pair, 0)`` or ``decide(pair, 1)`` in
the state the earlier steps lead to, else ``ValueError`` names the first
step that is not. ``read_trace_csv`` refuses steps not numbered 0, 1, ....
The id column is proven once the steps are (``_prove_ids``), by the rule
a traced run writes it by (``_trace_ids``) from the reset state.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import functools
import io
import itertools
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

PAIR_GUARD = 1 << 12  # max n for exhaustive ordered-pair enumeration elsewhere

TRACE_COLUMNS = ("step", "memory_state_id", "bin_a", "bin_b", "chosen")


_COUNT_TYPES = tuple(map(np.dtype, (np.int8, np.int16, np.int32, np.int64)))


def count_dtype(bound: int) -> np.dtype:
    """The narrowest of int8, int16, int32 and int64 that holds ``bound``
    plus one (int64 beyond), so a count of at most ``bound`` grows by one
    without wrapping. Every type it gives is signed, so it also holds
    ``-bound``."""
    return next((t for t in _COUNT_TYPES if bound < np.iinfo(t).max), _COUNT_TYPES[-1])


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


class Trace:
    """A run's steps as columns: uint64 ``ids`` and int64 ``bin_a``,
    ``bin_b`` and ``chosen``, one row per step, numbered by position.
    ``len`` is the step count, and two traces are equal when their columns are.
    """

    def __init__(self, ids, bin_a, bin_b, chosen):
        self.ids = np.asarray(ids, dtype=np.uint64)
        self.bin_a, self.bin_b, self.chosen = (
            np.asarray(v, dtype=np.int64) for v in (bin_a, bin_b, chosen)
        )
        if not len(self.ids) == len(self.bin_a) == len(self.bin_b) == len(self.chosen):
            raise ValueError("trace columns differ in length")

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return self.ids, self.bin_a, self.bin_b, self.chosen

    def numbered(self, lo: int, hi: int) -> list[np.ndarray]:
        """The step numbers and columns of rows lo..hi-1."""
        return [np.arange(lo, min(hi, len(self))), *(c[lo:hi] for c in self.columns)]

    def __len__(self) -> int:
        return len(self.chosen)

    def __eq__(self, other):
        if isinstance(other, Trace):
            return all(np.array_equal(x, y) for x, y in zip(self.columns, other.columns))
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
    starts that stream. numpy draws bins by Lemire's method, which for a
    power-of-two n never rejects: each bin value takes exactly one 32-bit
    half of a Philox output when n <= 2^32, one 64-bit output above that,
    and none for n = 1. There the places are found by arithmetic: a Philox
    counter step makes 4 outputs, so ``Philox.advance`` skips whole steps
    and a draw of the remaining values lands on the place, leaving the
    buffered 32-bit half an odd count leaves. For any other n a draw may
    consume a varying amount of the generator, so the places come from one
    discarded pass over bin_a and bin_b. Either is made only when the run
    has more than one chunk.
    A chunked draw equals the one-shot draw only if every chunk but the last
    is a multiple of 4 long: numpy draws uint8 values four to a 32-bit word
    and drops the unused ones at the end of each call.
    """
    n, balls = config.n, config.balls
    if balls <= STREAM_CHUNK:
        yield draw_run_streams(config)
        return
    starts = range(0, balls, STREAM_CHUNK)
    bitgens = [np.random.Philox(key=config.seed) for _ in range(3)]
    if n & (n - 1) == 0:
        per_step = 8 if n <= 1 << 32 else 4  # bin values per counter step of 4 outputs
        for k in (1, 2):
            skip = k * balls if n > 1 else 0  # the values that use output before stream k
            bitgens[k].advance(skip // per_step)
            _draw(np.random.Generator(bitgens[k]), n, 0, skip % per_step)
    else:
        walker = np.random.Philox(key=config.seed)
        rng = np.random.Generator(walker)
        for k in (0, 1):
            for s in starts:
                _draw(rng, n, k, min(STREAM_CHUNK, balls - s))
            bitgens[k + 1].state = walker.state
    rngs = [np.random.Generator(b) for b in bitgens]
    for s in starts:
        yield tuple(_draw(rng, n, k, min(STREAM_CHUNK, balls - s)) for k, rng in enumerate(rngs))


def trial_seed(base_seed: int, trial: int) -> int:
    """Per-trial stream derivation: base seed XOR trial index."""
    return (base_seed ^ trial) & (2**64 - 1)


def simulate_run(config: SimConfig, policy) -> RunResult:
    """Throw ``config.balls`` balls into ``config.n`` bins under ``policy``.

    The policy instance is (re)bound to this run and mutated in place; do
    not share one instance between concurrent runs. The run walks the
    streams a chunk at a time (``_walk_chunks``); a traced run records each
    chunk's offers, chosen bins and state ids as it passes (``_record``).
    """
    if not config.record_trace:
        counts, trace = _walk_counts(config, policy), None
    else:
        counts = np.zeros(config.n, dtype=count_dtype(config.balls))
        trace = _record(policy, _walk_chunks(config, policy, counts), config.balls)
    return RunResult(loads=counts.tolist(), max_load=int(counts.max()), trace=trace)


def _walk_chunks(config: SimConfig, policy, counts: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The engine's one walk: rebind ``policy`` to the run now, then, as it is
    iterated, apply each ``stream_chunks`` chunk to ``counts`` (zeros of
    ``count_dtype(balls)``) with ``run_bulk`` and yield that chunk's offers
    and chosen bins, (bin_a, bin_b, chosen), all int64."""
    policy.reset(config.n, config.balls)

    def decide(pa, pb, ties):
        return pa, pb, policy.run_bulk(counts, pa, pb, ties)

    return itertools.starmap(decide, stream_chunks(config))  # keeps no chunk it has yielded


def _walk_counts(config: SimConfig, policy) -> np.ndarray:
    """The final loads of the untraced run, as an array (``count_dtype(balls)``)."""
    counts = np.zeros(config.n, dtype=count_dtype(config.balls))
    collections.deque(_walk_chunks(config, policy, counts), maxlen=0)  # keeps no chunk's bins
    return counts


def _record(policy, chunks, steps: int) -> Trace:
    """The trace of the ``steps`` steps ``chunks`` yields as (bin_a, bin_b,
    chosen), decided on ``policy`` from the state it is in now. Each chunk's
    ids come from ``policy._trace_ids``, which carries the key and memory
    row to the next chunk, so a chunk costs O(chunk) work."""
    trace = Trace(*(np.empty(steps, dtype=t) for t in (np.uint64, np.int64, np.int64, np.int64)))
    key, held = policy.state_id(), policy.snapshot()
    lo = 0
    for pa, pb, chosen in chunks:
        hi = lo + len(chosen)
        trace.bin_a[lo:hi], trace.bin_b[lo:hi], trace.chosen[lo:hi] = pa, pb, chosen
        del pa, pb, chosen  # the chunk's arrays go before the ids' work arrays come
        key = policy._trace_ids(key, held, trace.chosen[lo:hi], trace.ids[lo:hi])
        lo = hi
    return trace


def _prove_steps(policy, trace: Trace, n: int) -> None:
    """Rebind ``policy`` to n bins and prove ``trace``'s steps from that state,
    which it keeps (see the module docstring)."""
    policy.reset(n, max(len(trace), 1))
    a, b, c = trace.bin_a, trace.bin_b, trace.chosen
    outside = np.flatnonzero((a < 0) | (a >= n) | (b < 0) | (b >= n))
    stop = int(outside[0]) if len(outside) else len(trace)
    # a chosen bin outside 0..n-1 is no offered bin, so clipping it leaves the
    # step refused, and the walk reads only the steps before the first refused one
    walk = policy._walk(policy.snapshot(), np.clip(c[:stop], 0, n - 1), (a[:stop], b[:stop]))
    lo = 0
    for _, _, (d0, d1) in walk:
        wrong = np.flatnonzero((c[lo : lo + len(d0)] != d0) & (c[lo : lo + len(d0)] != d1))
        if len(wrong):
            t = lo + int(wrong[0])
            raise ValueError(
                f"trace step {t} chooses bin {c[t]} from ({a[t]}, {b[t]}), "
                f"which the {policy.name} policy could not have chosen"
            )
        lo += len(d0)
    if stop < len(trace):
        raise ValueError(f"trace step {stop} offers bins ({a[stop]}, {b[stop]}) outside 0..{n - 1}")


def _prove_ids(policy, trace: Trace, n: int) -> None:
    """Rebind ``policy`` to n bins and rebuild ``trace``'s id column from
    that state and the chosen bins by ``policy._trace_ids``; raise
    ``ValueError`` naming the first step that records another id. Only a
    trace ``_prove_steps`` has proven is worth proving: the rule trusts its
    chosen bins."""
    policy.reset(n, max(len(trace), 1))
    ids = np.empty(len(trace), dtype=np.uint64)
    policy._trace_ids(policy.state_id(), policy.snapshot(), trace.chosen, ids)
    wrong = np.flatnonzero(ids != trace.ids)
    if len(wrong):
        t = int(wrong[0])
        raise ValueError(
            f"trace step {t} records memory_state_id {trace.ids[t]}, "
            f"but the {policy.name} policy's state before it has id {ids[t]}"
        )


def load_histogram(loads: Sequence[int]) -> dict[int, int]:
    """Map load level -> number of bins at that level; counts sum to n."""
    if len(loads) == 0:
        raise ValueError("empty load vector")
    counts = np.bincount(np.asarray(loads, dtype=np.int64))
    levels = np.flatnonzero(counts)
    return dict(zip(levels.tolist(), counts[levels].tolist()))


def _naming(path: str, fn, *args):
    """``fn(*args)``, re-raising an ``OSError`` with ``path``, the file the caller asked for."""
    try:
        return fn(*args)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _temp_beside(path: str) -> tuple[int, str]:
    """A fresh temporary file in ``path``'s directory: (its open fd, its path)."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    return _naming(path, os.open, tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp


@contextlib.contextmanager
def atomic_write(path: str, newline: str | None = None):
    """Open a text file that replaces ``path`` only once writing succeeds.

    Writes go to a fresh temporary file in the target's directory, which
    ``os.replace`` renames over ``path`` when the block exits normally. If
    the block raises, the temporary file is removed and whatever was at
    ``path`` stays as it was. An ``OSError`` from creating the temporary
    file or renaming it names ``path``, the file the caller asked for.
    """
    fd, tmp = _temp_beside(path)
    try:
        with open(fd, "w", newline=newline) as f:
            yield f
        _naming(path, os.replace, tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _check_writable(path: str) -> None:
    """Raise now the ``OSError`` that ``atomic_write(path)`` would raise for
    a missing directory or a directory at ``path``; ``path`` stays as it is.

    A file never replaces a directory, so that rename fails and moves
    nothing. A symlink to a directory is not tried: renaming over it would
    replace the link, as a write does.
    """
    fd, tmp = _temp_beside(path)
    os.close(fd)
    try:
        if os.path.isdir(path) and not os.path.islink(path):
            _naming(path, os.replace, tmp, path)
    finally:
        os.unlink(tmp)


def write_trace_csv(trace: Trace, path: str) -> None:
    """Write ``trace`` as CSV under a ``TRACE_COLUMNS`` header."""
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


