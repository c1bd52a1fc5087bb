"""Benchmark driver for ballast.

    python3 bench/run.py --workload scan-2p20 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it needs ``src/ballast`` and
``BENCHMARK.json`` there). With ``--trace 0`` every operation of the
workload runs as a fresh ``python -m ballast.cli`` process, started by this
one driver, back to back, and the end-to-end metrics are printed. With
``--trace 1`` the same operations are replayed in-process through
``ballast.cli.main``, once plain and once with the timing wrappers of
``tracing.py`` installed, and the per-layer metrics are printed.

Passes repeat while another one still fits in ``--seconds`` (at least two
plain passes, or one plain/traced pair). Every operation's output is checked; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record (samples, per-operation
latencies, check failures, provenance) goes to
``.bench_out/<workload>-seed<seed>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import provenance
import stats
import tracing
import workloads
from workloads import OpResult

SETUP_FIRST = 3
SETUP_MAX = 12
MIN_PLAIN_PASSES = 2
OP_TIMEOUT_S = 100

SETUP_CODE = (
    "import time, json\n"
    "t0 = time.perf_counter()\n"
    "import ballast.cli as cli\n"
    "t1 = time.perf_counter()\n"
    "cli.build_parser()\n"
    "t2 = time.perf_counter()\n"
    "import numpy\n"
    "print(json.dumps({'file': cli.__file__, 'import_s': t1 - t0, 'parser_s': t2 - t1,"
    " 'numpy': numpy.__version__}))\n"
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, wrong ballast)."""


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("BALLAST_SEED", None)  # the seed reaches ballast only as --seed
    env["PYTHONPATH"] = src
    return env


def run_child(args: list[str], env: dict, out_path: str) -> OpResult:
    """Run one process to completion; rusage is that child's own (wait4)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        stdout = f.read()
    return OpResult(proc.returncode, stdout, wall, usage.ru_maxrss)


class SetupSampler:
    """Fresh interpreters that import ballast and build the CLI parser.

    The machine's speed drifts over seconds, so samples are spread over the
    run: a few at the start and one before each pass, up to ``SETUP_MAX``.
    One untimed warm-up first compiles the bytecode cache, which a user pays
    once per install, not per run.
    """

    def __init__(self, src: str, env: dict, scratch: str):
        self.src, self.env = src, env
        self.out_path = os.path.join(scratch, "setup.out")
        self.samples: list[dict] = []
        self._run()

    def _run(self) -> dict:
        res = run_child(["-c", SETUP_CODE], self.env, self.out_path)
        if res.rc != 0:
            raise SetupError(f"importing ballast failed (exit {res.rc}); see {self.out_path}.err")
        info = json.loads(res.stdout.splitlines()[-1])
        if not os.path.realpath(info["file"]).startswith(os.path.realpath(self.src) + os.sep):
            raise SetupError(f"ballast imported from {info['file']}, not from {self.src}")
        return {"wall_s": res.wall_s, **info}

    def sample(self, count: int = 1) -> None:
        for _ in range(min(count, SETUP_MAX - len(self.samples))):
            self.samples.append(self._run())

    def median(self, key: str) -> float:
        return stats.median([s[key] for s in self.samples])


def import_ballast(src: str):
    sys.path.insert(0, src)
    import ballast
    import ballast.cli  # noqa: F401  (binds ballast.cli for cli.main calls)

    if not os.path.realpath(ballast.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SetupError(f"ballast imported from {ballast.__file__}, not from {src}")
    return ballast


# ---------------------------------------------------------------------------
# passes


def run_pass_processes(ops, env: dict, opsdir: str) -> tuple[float, list[OpResult]]:
    results = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        out_path = os.path.join(opsdir, f"{i:02d}-{op.name}.stdout")
        results.append(run_child(["-m", "ballast.cli", *op.argv], env, out_path))
    return time.perf_counter() - t0, results


def run_pass_inprocess(ballast, ops) -> tuple[float, list[OpResult]]:
    results = []
    t0 = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t_op = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = ballast.cli.main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        results.append(OpResult(rc, out.getvalue(), time.perf_counter() - t_op))
    return time.perf_counter() - t0, results


def snapshot_outputs(ops, results) -> dict:
    snap = {}
    for op, res in zip(ops, results):
        snap[op.name, "stdout"] = res.stdout
        for path in op.outputs:
            try:
                with open(path, "rb") as f:
                    snap[op.name, path] = f.read()
            except OSError:
                snap[op.name, path] = None
    return snap


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 50:
                self.messages.append(f"{label}: {'; '.join(errors)}")

    def check(self, ops, results, ctx: dict, label: str) -> None:
        for op, res in zip(ops, results):
            self.record(f"{label} {op.name}", op.check(res, ctx))


def fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def time_left(t_start: float, seconds: float, last: float) -> bool:
    """Whether another pass as long as the last one still ends within budget."""
    return time.perf_counter() - t_start + last <= seconds


def plain_run(ops, env, opsdir, seconds, ctx, tally, setup) -> tuple[dict, dict]:
    walls, rates, peaks = [], [], []
    per_op: dict[str, list[float]] = {op.name: [] for op in ops}
    t_start = time.perf_counter()
    last = 0.0
    while len(walls) < MIN_PLAIN_PASSES or time_left(t_start, seconds, last):
        t_pass = time.perf_counter()
        setup.sample()
        fresh_dir(opsdir)
        wall, results = run_pass_processes(ops, env, opsdir)
        tally.check(ops, results, ctx, f"pass {len(walls) + 1}")
        walls.append(wall)
        rates.append(sum(op.work(res) for op, res in zip(ops, results)) / wall)
        peaks.append(max(res.maxrss_kib for res in results) / 1024)
        for op, res in zip(ops, results):
            per_op[op.name].append(res.wall_s)
        last = time.perf_counter() - t_pass
    samples = {"wall_s": walls, "work_per_s": rates, "peak_rss_mib": peaks}
    metrics = {name: stats.median(vals) for name, vals in samples.items()}
    latencies = {name: stats.summarize(vals) for name, vals in per_op.items()}
    return metrics, {"samples": samples, "op_latency_s": latencies}


def traced_run(ballast, ops, opsdir, spooldir, spans_path, seconds, ctx, tally, setup):
    per_pair: list[dict] = []
    t_start = time.perf_counter()
    last = 0.0
    while not per_pair or time_left(t_start, seconds, last):
        t_pair = time.perf_counter()
        setup.sample()
        fresh_dir(opsdir)
        plain_wall, plain = run_pass_inprocess(ballast, ops)
        tally.check(ops, plain, ctx, f"in-process pass {len(per_pair) + 1}")
        expected = snapshot_outputs(ops, plain)

        fresh_dir(opsdir)
        fresh_dir(spooldir)
        tracer = tracing.Tracer(spool_dir=spooldir)
        patch = tracing.install(tracer, ballast)
        try:
            traced_wall, traced = run_pass_inprocess(ballast, ops)
        finally:
            patch.restore()
        tracer.collect_spool()
        tally.check(ops, traced, ctx, f"traced pass {len(per_pair) + 1}")
        got = snapshot_outputs(ops, traced)
        differing = sorted({name for name, key in expected if expected[name, key] != got.get((name, key))})
        if differing:
            tally.record("traced outputs", [f"differ from the untraced pass: {differing}"])

        metrics = tracing.layer_metrics(tracer.spans)
        metrics["tracing_overhead_s"] = traced_wall - plain_wall
        per_pair.append(metrics)
        tracer.dump(spans_path)
        last = time.perf_counter() - t_pair
    names = per_pair[0].keys()
    samples = {name: [m[name] for m in per_pair] for name in names}
    return {name: stats.median(vals) for name, vals in samples.items()}, {"samples": samples}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running operation is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        ap.error("--seed must fit in 64 bits and --seconds must be >= 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        if not os.path.isfile(os.path.join(src, "ballast", "cli.py")):
            raise SetupError(f"no ballast sources under {src}; run from a source checkout")
        outbase = os.path.join(root, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
        opsdir = os.path.join(outbase, "ops")
        fresh_dir(outbase)
        env = child_env(src)
        setup = SetupSampler(src, env, outbase)
        setup.sample(SETUP_FIRST)
        ballast = import_ballast(src)
    except (SetupError, OSError, ValueError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2

    ctx = {"reference": workloads.reference(args.workload, args.seed, ballast)}
    ops = workloads.build_ops(args.workload, args.seed, opsdir)
    tally = Tally()
    if args.trace:
        metrics, detail = traced_run(
            ballast, ops, opsdir, os.path.join(outbase, "spool"),
            os.path.join(outbase, "spans.jsonl"), args.seconds, ctx, tally, setup,
        )
        metrics["cli.import_s"] = setup.median("import_s")
        wanted = spec["per_layer"]
    else:
        metrics, detail = plain_run(ops, env, opsdir, args.seconds, ctx, tally, setup)
        metrics["setup_s"] = setup.median("wall_s")
        wanted = spec["end_to_end"]
    detail["setup"] = {"runs": setup.samples,
                       "wall_s": stats.summarize([s["wall_s"] for s in setup.samples])}

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    ops_failed_ratio = tally.failed / tally.attempted
    record = {
        "workload": args.workload,
        "work_unit": workloads.WORK_UNIT[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        "metrics": reported,
        "ops_attempted": tally.attempted,
        "ops_failed": tally.failed,
        "ops_failed_ratio": ops_failed_ratio,
        "failures": tally.messages,
        "provenance": provenance.collect(root, args.workload, args.seed, setup.samples[0]["numpy"]),
        **detail,
    }
    result_path = os.path.join(outbase, "result.json")
    with open(result_path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for msg in tally.messages:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} "
          f"ops_failed_ratio={ops_failed_ratio:.4g} ({tally.failed}/{tally.attempted}) "
          f"record={os.path.relpath(result_path, root)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
