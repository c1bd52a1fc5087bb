"""Seeded experiment harness: scaling scans over (policy, n, trial) grids.

A scan is fully determined by its spec: trial seeds derive from the base
seed XOR the trial index, rows are canonically sorted before emission, and
the emitted bytes are identical across repeat runs. Wall-clock runtimes are
only written when explicitly requested, since they would break that
byte-level determinism.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, fields

import numpy.random  # noqa: F401  (loaded before the scan pool forks, so no worker imports it)

from .core import SimConfig, _walk_counts, atomic_write, trial_seed
from .core import simulate_run  # noqa: F401  (bench/tests checks the tracer wraps this from-import)
from .policies import PolicySpec, theoretical_bounds

# the JSON types each scalar ExperimentSpec field accepts
_SPEC_FIELD_TYPES = {
    "delta": (int, float),
    "trials": (int,),
    "base_seed": (int,),
    "output_path": (str, type(None)),
    "format": (str,),
    "measure_runtime": (bool,),
}


def _typed(field: str, value, types: tuple[type, ...]):
    """``value`` if it has one of ``types``, else a ValueError naming ``field``.

    JSON true/false are not numbers here, though Python's bool is an int.
    """
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise ValueError(f"spec field {field} must be {names}, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """A scaling scan: which policies, which n values, how many trials."""

    n_values: tuple[int, ...]
    policies: tuple[PolicySpec, ...]
    delta: float = 0.5
    trials: int = 1
    base_seed: int = 0
    output_path: str | None = None
    format: str = "csv"
    measure_runtime: bool = False

    def __post_init__(self):
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if any(n < 4 for n in self.n_values):
            raise ValueError("every n must be >= 4")
        if not self.policies:
            raise ValueError("policies must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must fit in 64 bits, got {self.base_seed}")
        if not 0 < self.delta <= 1:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        """A spec from its JSON form; a missing, unknown or mistyped field is a ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"a spec must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        unknown = sorted(map(str, set(d) - set(_SPEC_FIELD_TYPES) - {"n_values", "policies"}))
        if unknown:
            raise ValueError(f"unknown spec field(s): {', '.join(unknown)}")
        for key in ("n_values", "policies"):
            _typed(key, d.get(key), (list, tuple))
        ns = tuple(_typed(f"n_values[{i}]", n, (int,)) for i, n in enumerate(d.pop("n_values")))
        pols = tuple(PolicySpec.from_dict(p) for p in d.pop("policies"))
        for key, value in d.items():
            _typed(key, value, _SPEC_FIELD_TYPES[key])
        return cls(n_values=ns, policies=pols, **d)


@dataclass
class ScalingRow:
    policy: str
    n: int
    delta: float
    trial: int
    seed: int
    max_load: int
    memory_bits: int
    lower_L: float
    upper_T: float
    runtime_ms: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in CSV_COLUMNS}


CSV_COLUMNS = tuple(f.name for f in fields(ScalingRow))


def run_trial(
    spec_policy: PolicySpec, n: int, delta: float, trial: int, base_seed: int,
    measure_runtime: bool = False,
) -> ScalingRow:
    """One simulation, one row."""
    seed = trial_seed(base_seed, trial)
    config = SimConfig(n=n, seed=seed)
    policy = spec_policy.build(n, delta)
    t0 = time.perf_counter() if measure_runtime else 0.0
    counts = _walk_counts(config, policy)  # the loads as an array, with no list of them
    elapsed_ms = (time.perf_counter() - t0) * 1000.0 if measure_runtime else 0.0
    b = theoretical_bounds(n, delta)
    return ScalingRow(
        policy=spec_policy.label,
        n=n,
        delta=delta,
        trial=trial,
        seed=seed,
        max_load=int(counts.max()),
        memory_bits=policy.memory_bits(config.n, config.balls),
        lower_L=b.lower_L,
        upper_T=b.upper_T,
        runtime_ms=elapsed_ms,
    )


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[ScalingRow]:
    """All (policy, n, trial) rows of a scan, canonically sorted.

    Trials are independent (seed = base_seed XOR trial), so jobs > 1 runs
    them in that many worker processes, at most one per trial; ordering never depends on it.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [
        (ps, n, spec.delta, t, spec.base_seed, spec.measure_runtime)
        for ps in spec.policies
        for n in spec.n_values
        for t in range(spec.trials)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(tasks))  # a fork pool starts every worker at its first task
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_trial, *zip(*tasks), chunksize=1))
    else:
        rows = [run_trial(*t) for t in tasks]
    rows.sort(key=lambda r: (r.policy, r.n, r.trial))
    return rows


def emit(rows: list[ScalingRow], format: str, path: str) -> None:
    """Write rows as CSV (fixed header, RFC-4180 quoting) or a JSON array.

    Refuses empty input and unknown formats before touching the
    filesystem, and replaces ``path`` only once every row is written.
    """
    if not rows:
        raise ValueError("no rows to emit")
    if format == "csv":
        with atomic_write(path, newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(CSV_COLUMNS)
            for r in rows:
                w.writerow([getattr(r, k) for k in CSV_COLUMNS])
    elif format == "json":
        with atomic_write(path) as f:
            json.dump([r.to_dict() for r in rows], f, indent=1)
            f.write("\n")
    else:
        raise ValueError(f"unknown format: {format!r}")


def load_spec_file(path: str) -> dict:
    """Raw spec dict from a JSON file; flag overrides happen at the CLI."""
    with open(path) as f:
        spec = json.load(f)
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: a spec must be a JSON object, got {type(spec).__name__}")
    return spec
