"""Command-line harness.

Subcommands: run (single seeded run), scan (scaling experiments), verify
(exact placement-bound sweeps), phases (phase-size report), bounds
(closed-form reference values), tail (Poisson upper tails). The default
seed comes from the BALLAST_SEED environment variable. All logarithms in
reported quantities are base 2.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING

# The one BLAS call, verify --subsets' float64 product of 0/1 rows and
# integers below 2^53, is exact in any order, so one thread gives the same
# bits; an OpenBLAS pool costs every process 0.07-0.1 s of CPU to start. A
# value already set wins. It must be set before numpy first loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Only what build_parser needs loads here; each cmd_* imports the modules it
# runs, so a parse error or --help never pays for numpy.
if TYPE_CHECKING:
    from fractions import Fraction

    from .analysis import PhaseConfig
    from .policies import Policy


def _env_seed() -> int:
    text = os.environ.get("BALLAST_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"BALLAST_SEED must be an integer, got {text!r}") from None


_GRID_LIMIT = 10_000  # epsilons one sweep takes: about 500 times the default grid's 19


def parse_epsilon_grid(text: str) -> list[Fraction]:
    """Exact epsilon values from "start:stop:step" or a comma list.

    Decimal strings convert exactly (Fraction("0.05") == 1/20), so grid
    boundaries behave exactly in the strict forbidden-set comparison. A
    range is counted, and its first and last values checked, from its three
    values before any of it is built; more than ``_GRID_LIMIT`` values are
    refused.
    """
    from fractions import Fraction

    def exact(part: str) -> Fraction:
        try:
            return Fraction(part)
        except ZeroDivisionError:
            raise ValueError(f"epsilon grid value {part!r} has a zero denominator") from None

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"epsilon grid range must be start:stop:step, got {text!r}")
        start, stop, step = map(exact, parts)
        if step <= 0:
            raise ValueError("epsilon grid step must be positive")
        count = max((stop - start) // step + 1, 0)
        grid = [start, start + (count - 1) * step] if count else []  # its ends, until checked
    else:
        grid = [exact(part) for part in text.split(",") if part]
        count = len(grid)
    if not grid:
        raise ValueError(f"epsilon grid {text!r} has no values")
    if any(not 0 < e < 1 for e in grid):
        raise ValueError(f"epsilon grid values must lie in (0, 1): {text!r}")
    if count > _GRID_LIMIT:
        raise ValueError(
            f"epsilon grid {text!r} has {count} values; a sweep takes at most {_GRID_LIMIT}"
        )
    if ":" in text:
        grid = [start + k * step for k in range(count)]
    return grid


def _add_policy_flags(p: argparse.ArgumentParser, required: bool = False) -> None:
    p.add_argument("--policy", required=required, help="policy name (see `ballast run --help`)")
    _add_param_flags(p)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cluster-size", type=int, help="clustered: bins per cluster")
    p.add_argument("--counter-cap", type=int, help="clustered: counter saturation value")
    p.add_argument("--advice-threshold", type=int, help="advice: overload threshold")


# each policy parameter and the flag that sets it
_PARAM_FLAGS = {
    "cluster_size": "--cluster-size",
    "counter_cap": "--counter-cap",
    "threshold": "--advice-threshold",
}


def _policy_params(args) -> dict:
    params = {}
    for param, flag in _PARAM_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            params[param] = value
    return params


def _build_policy(args, n: int) -> Policy:
    from .policies import PolicySpec

    spec = PolicySpec.from_dict({"name": args.policy, **_policy_params(args)})
    return spec.build(n, args.delta)


def _dump(parts: list[str], out: str | None) -> None:
    """Write a JSON report's pieces to ``out``, if given, and then to stdout."""
    from . import core

    if out:
        with core.atomic_write(out) as f:
            f.writelines(parts)
            f.write("\n")
    print(*parts, sep="")


# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    import json

    from . import core

    config = core.SimConfig(
        n=args.n, seed=args.seed, balls=args.balls, record_trace=bool(args.trace_out)
    )
    policy = _build_policy(args, args.n)
    core._check_writable(args.trace_out, args.out)  # fail before the run, not after it
    result = core.simulate_run(config, policy)
    if args.trace_out:
        core.write_trace_csv(result.trace, args.trace_out)
    if args.out:
        with core.atomic_write(args.out) as f:
            result.write_json(f)
            f.write("\n")
    summary = {
        "policy": policy.name,
        "n": config.n,
        "balls": config.balls,
        "seed": config.seed,
        "max_load": result.max_load,
        "memory_bits": policy.memory_bits(config.n, config.balls),
        "histogram": {str(k): v for k, v in core.load_histogram(result.loads).items()},
    }
    print(json.dumps(summary, indent=1))
    return 0


def cmd_scan(args) -> int:
    from . import core, harness, policies

    params = _policy_params(args)
    unused = [
        _PARAM_FLAGS[k] for k in params
        if not any(k in policies.policy_params(name) for name in args.policy or ())
    ]
    if unused:
        print(f"scan: {', '.join(unused)} applies to none of the --policy names given",
              file=sys.stderr)
        return 2
    spec_dict = harness.load_spec_file(args.spec) if args.spec else {}
    if args.n:
        spec_dict["n_values"] = args.n
    if args.policy:
        spec_dict["policies"] = [
            {"name": name, **{k: v for k, v in params.items() if k in policies.policy_params(name)}}
            for name in args.policy
        ]
    if args.delta is not None:
        spec_dict["delta"] = args.delta
    if args.trials is not None:
        spec_dict["trials"] = args.trials
    if args.seed is not None:
        spec_dict["base_seed"] = args.seed
    if args.format is not None:
        spec_dict["format"] = args.format
    if args.out is not None:
        spec_dict["output_path"] = args.out
    if args.measure_runtime:
        spec_dict["measure_runtime"] = True
    if "n_values" not in spec_dict or "policies" not in spec_dict:
        print("scan needs n values and policies (via --spec or flags)", file=sys.stderr)
        return 2
    spec = harness.ExperimentSpec.from_dict(spec_dict)
    if not spec.output_path:
        print("scan needs an output path (--out or spec output_path)", file=sys.stderr)
        return 2
    core._check_writable(spec.output_path)  # fail before the trials, not after them
    rows = harness.run_experiment(spec, jobs=args.jobs)
    harness.emit(rows, spec.format, spec.output_path)
    print(f"wrote {len(rows)} rows to {spec.output_path}")
    return 0


def cmd_verify(args) -> int:
    from . import analysis, core

    n = args.n
    if n > core.PAIR_GUARD:
        print(f"verify needs n <= {core.PAIR_GUARD}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        raise ValueError("seed must fit in 64 bits")  # as run and phases refuse it
    for flag, count in (("--n", n), ("--subsets", args.subsets), ("--balls", args.balls),
                        ("--max-states", args.max_states)):
        if count is not None and count < 1:
            print(f"verify {flag} needs a count >= 1, got {count}", file=sys.stderr)
            return 2
    balls = n if args.balls is None else args.balls
    policy = _build_policy(args, n)
    core._check_writable(args.out)  # fail before the sweep, not after it
    policy.reset(n, balls)
    epsilons = parse_epsilon_grid(args.epsilon_grid) if args.epsilon_grid else ()
    result = analysis.sweep_placement_bounds(
        policy,
        n,
        _verify_states(args, policy, balls),
        epsilons=epsilons,
        subset_seed=args.seed ^ 0x5B5E7,
        n_subsets=args.subsets,
    )
    _dump(result.json_parts(), args.out)
    return 0 if result.ok else 1


def _verify_states(args, policy, balls: int):
    """The states ``verify`` checks: every clustered counter state reachable
    in 8 balls (or --balls) where n <= 16, else the states a seeded probe
    run visits, else the one state of a memoryless policy."""
    from . import analysis, policies

    n = args.n
    if isinstance(policy, policies.ClusteredPolicy) and n <= 16:
        cfg = policy.config
        depth = 8 if args.balls is None else min(balls, 8)
        return analysis.enumerate_clustered_states(cfg.num_clusters(n), cfg.counter_cap, depth)
    if policy.state_space_size(n, balls) != 1:
        return analysis.probe_states(policy, n, balls, args.seed, max_states=args.max_states)
    return policy.snapshot()[None]


def cmd_phases(args) -> int:
    import json

    from . import analysis, core

    if not args.policy and (not args.trace_in or args.forbidden):
        print("phases needs --policy unless reading a trace without --forbidden", file=sys.stderr)
        return 2
    if args.forbidden and args.n > core.PAIR_GUARD:
        print(f"phases --forbidden needs n <= {core.PAIR_GUARD}", file=sys.stderr)
        return 2
    core._check_writable(args.out)  # fail before the report, not after it
    pc = _phase_config(args)
    if args.trace_in:
        run = core.read_trace_csv(args.trace_in)
    else:
        run = analysis._Rerun(core.SimConfig(n=args.n, seed=args.seed, balls=args.balls))
    if args.forbidden:
        policy = _build_policy(args, args.n)
        report = analysis.phase_report_with_forbidden(policy, run, pc, args.epsilon)
    elif args.trace_in:
        report = analysis.phase_report(run, pc)
    else:
        report, _ = analysis.run_phase_report(run.config, _build_policy(args, args.n), pc)
    _dump([json.dumps(report.to_dict(), indent=1)], args.out)
    return 0


def _phase_config(args) -> PhaseConfig:
    from . import analysis

    if args.phases is not None:
        return analysis.PhaseConfig(n=args.n, phases=args.phases)
    return analysis.PhaseConfig.from_delta(args.n, args.delta)


def cmd_bounds(args) -> int:
    import json

    from . import policies

    rows = [policies.theoretical_bounds(n, args.delta).to_dict() for n in args.n]
    _dump([json.dumps({"bounds": rows}, indent=1)], args.out)
    return 0


def cmd_tail(args) -> int:
    """Write the table with --out, then print it, each a row at a time from
    its own walk: the file holds the bytes ``json.dump(..., indent=1)``
    gives, and is whole before anything is printed, as ``_dump`` does."""
    import json

    from . import analysis, core

    if args.t_max < 0:
        print(f"tail --t-max needs a value >= 0, got {args.t_max}", file=sys.stderr)
        return 2
    core._check_writable(args.out)  # fail before the walk, not after it
    next(analysis._poisson_tails(args.lam, args.t_max))  # refuses a bad lambda before any output
    if args.out:
        with core.atomic_write(args.out) as f:
            f.write(f'{{\n "lambda": {json.dumps(args.lam)},\n "rows": [')
            for pt in analysis._poisson_tails(args.lam, args.t_max):
                f.write(
                    f'{"" if pt.t == 0 else ","}\n  {{\n   "t": {pt.t},\n'
                    f'   "tail": {json.dumps(pt.probability)},\n'
                    f'   "leading_term": {json.dumps(pt.leading_term)}\n  }}'
                )
            f.write("\n ]\n}\n")
    print(f"{'t':>4} {'tail P(X>=t)':>16} {'leading term':>16}   lambda={args.lam}")
    for pt in analysis._poisson_tails(args.lam, args.t_max):
        print(f"{pt.t:4d} {pt.probability:16.12f} {pt.leading_term:16.12f}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ballast",
        description="Balls-into-bins simulation and verification harness "
        "(two-choice allocation under explicit memory budgets).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="one seeded run, optional trace dump")
    p.add_argument("--n", type=int, required=True, help="number of bins")
    p.add_argument("--balls", type=int, default=None, help="balls to throw (default n)")
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--delta", type=float, default=0.5)
    _add_policy_flags(p, required=True)
    p.add_argument("--trace-out", help="write the step trace as CSV")
    p.add_argument("--out", help="write the full result as JSON")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("scan", help="scaling scan over (policy, n, trial)")
    p.add_argument("--spec", help="JSON experiment spec; flags override its fields")
    p.add_argument("--n", type=int, nargs="+", help="bin counts")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="base seed (default BALLAST_SEED)")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--out", help="output file path")
    p.add_argument("--measure-runtime", action="store_true",
                   help="fill runtime_ms with wall-clock times (breaks byte determinism)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for trials")
    p.add_argument("--policy", action="append", help="repeatable policy name")
    _add_param_flags(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("verify", help="exact placement-bound sweep; exit 1 on violations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--balls", type=int, default=None,
                   help="probe-run length / clustered enumeration depth")
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--delta", type=float, default=0.5)
    _add_policy_flags(p, required=True)
    p.add_argument("--epsilon-grid", help='e.g. "0.05:0.95:0.05" or "0.1,0.5"')
    p.add_argument("--subsets", type=int, default=None,
                   help="cross-check the exact subset margin on this many random subsets")
    p.add_argument("--max-states", type=int, default=64, help="probe-state cap")
    p.add_argument("--out", help="write the JSON report here as well")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("phases", help="phase-size report for a run or stored trace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--balls", type=int, default=None)
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--phases", type=int, help="explicit phase count (else derived from delta)")
    _add_policy_flags(p)
    p.add_argument("--trace-in", help="stored trace CSV instead of a live run")
    p.add_argument("--forbidden", action="store_true",
                   help="also report forbidden-set overlap (needs small n)")
    p.add_argument("--epsilon", default=None, help="epsilon for --forbidden (default 1/(2L))")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_phases)

    p = sub.add_parser("bounds", help="closed-form reference values (base-2 logs)")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("tail", help="Poisson upper-tail table")
    p.add_argument("--lam", type=float, default=2.0)
    p.add_argument("--t-max", type=int, default=30)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_tail)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # reads BALLAST_SEED for --seed defaults
        rc = args.fn(args)
        sys.stdout.flush()  # output that cannot reach stdout fails here, buffered or not
        return rc
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """Run ``main()`` as a whole process: ``python -m ballast.cli`` and ``ballast``.

    Cyclic GC is off for the command and for the ``scan --jobs`` workers
    forked from it: a process leaves under a thousand cyclic objects, most
    of them argparse's, at any n, so collecting them only costs time. When
    ``main`` returns, every output file is closed and every pool worker
    joined, so once both streams are flushed the process ends without
    tearing down the interpreter. Output a closed stdout did not take
    (``main`` reports it; argparse's exit ignores it) goes to the null
    device, so the normal exit, taken when ``main`` raises or stderr's
    flush fails, does not fail on it.
    """
    gc.disable()
    try:
        rc = main()
    finally:
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    try:
        sys.stderr.flush()
    except OSError:
        return rc
    os._exit(rc)


if __name__ == "__main__":
    sys.exit(entry())
