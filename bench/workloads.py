"""The three benchmark workloads: their ballast CLI operations and output checks.

Each workload is a fixed list of operations run back to back by one driver
(a closed loop with one client). The workload seed reaches ballast only as
``--seed``. Every check below holds for any seed, so ``ops_failed_ratio``
stays 0 unless the program is wrong.

Why these three (see README.md for the layer map):

* ``scan-2p20`` is the acceptance-battery path at n = 2^20 plus 2^17 cells
  that keep per-trial fixed cost visible. It loads ``core`` stream draws,
  ``policies.run_bulk`` and the ``harness`` pool, and bypasses ``analysis``.
* ``verify-exact`` is the zero-tolerance bound check. It loads ``analysis``
  pair enumeration, ``choice_dist`` and the subset sweep, and bypasses
  ``run_bulk``.
* ``trace-replay`` runs the per-step path (``decide``/``update``/
  ``state_id``), trace CSV I/O, phase reports and the forbidden-union
  replay, and bypasses ``run_bulk`` and the pool.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

SCAN_POLICIES = ("one-choice", "greedy", "clustered", "advice")
SCAN_N = (1 << 17, 1 << 20)
SCAN_TRIALS = 2
SCAN_HEADER = "policy,n,delta,trial,seed,max_load,memory_bits,lower_L,upper_T,runtime_ms"

CLUSTERED_N, CLUSTERED_BALLS, CLUSTERED_STATES = 16, 8, 12870
GREEDY_VERIFY_N, GREEDY_PROBE_STATES = 1024, 8
ILLEGAL_N = 64

TRACE_POLICIES = ("greedy", "advice", "clustered")
TRACE_N = 8192
FORBIDDEN_N = 128
PHASES = 2
TRACE_HEADER = "step,memory_state_id,bin_a,bin_b,chosen"

WORKLOADS = ("scan-2p20", "verify-exact", "trace-replay")
WORK_UNIT = {"scan-2p20": "balls", "verify-exact": "states", "trace-replay": "steps"}

MASK64 = (1 << 64) - 1


@dataclass
class OpResult:
    rc: int
    stdout: str
    wall_s: float
    maxrss_kib: int | None = None


@dataclass(frozen=True)
class Op:
    """One ballast CLI invocation and the check of what it produced.

    ``check(result, ctx)`` returns a list of failure messages (empty = ok)
    and may record into ``ctx``; ``work(result)`` counts the workload's
    work units the operation completed.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[OpResult, dict], list[str]]
    work: Callable[[OpResult], int]
    outputs: tuple[str, ...] = ()


def scan_jobs() -> int:
    """Pool size for the scan: 2, but never more than the CPUs we may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def build_ops(workload: str, seed: int, outdir: str) -> list[Op]:
    if workload == "scan-2p20":
        return [_scan_op(seed, outdir)]
    if workload == "verify-exact":
        return _verify_ops(seed)
    if workload == "trace-replay":
        return _trace_ops(seed, outdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def reference(workload: str, seed: int, ballast) -> dict:
    """Oracle values computed in-process with ballast's public API.

    Only ``trace-replay`` needs one: the untraced ``simulate_run`` loads
    (the bit-replay contract) and the live ``run_phase_report`` sizes.
    """
    if workload != "trace-replay":
        return {}
    ref = {}
    for policy, n in [(p, TRACE_N) for p in TRACE_POLICIES] + [("greedy", FORBIDDEN_N)]:
        spec = ballast.PolicySpec(policy)
        config = ballast.SimConfig(n=n, seed=seed)
        loads = ballast.simulate_run(config, spec.build(n, 0.5)).loads
        report, _ = ballast.run_phase_report(
            config, spec.build(n, 0.5), ballast.PhaseConfig(n=n, phases=PHASES)
        )
        ref[(policy, n)] = {"loads": loads, "sizes": report.sizes}
    return ref


# ---------------------------------------------------------------------------
# scan-2p20


def _scan_op(seed: int, outdir: str) -> Op:
    path = os.path.join(outdir, "scan.csv")
    argv = ["scan", "--n", *(str(n) for n in SCAN_N)]
    for p in SCAN_POLICIES:
        argv += ["--policy", p]
    argv += ["--trials", str(SCAN_TRIALS), "--seed", str(seed), "--jobs", str(scan_jobs()),
             "--format", "csv", "--out", path]

    def check(res: OpResult, ctx: dict) -> list[str]:
        errs = _rc(res, 0)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as exc:
            return errs + [f"scan output missing: {exc}"]
        digest = hashlib.sha256(data).hexdigest()
        first = ctx.setdefault("scan_digest", digest)
        if digest != first:
            errs.append("scan output differs from the first pass with the same seed")
        lines = data.decode().splitlines()
        if not lines or lines[0] != SCAN_HEADER:
            return errs + [f"scan header is {lines[:1]!r}"]
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        expected = [(p, n, t) for p in sorted(SCAN_POLICIES) for n in SCAN_N
                    for t in range(SCAN_TRIALS)]
        got = [(r["policy"], int(r["n"]), int(r["trial"])) for r in rows]
        if got != expected:
            errs.append(f"scan rows not in (policy, n, trial) order: {got[:4]}...")
        for r in rows:
            n, t = int(r["n"]), int(r["trial"])
            if int(r["seed"]) != (seed ^ t) & MASK64:
                errs.append(f"row {r['policy']},{n},{t}: seed {r['seed']} != base XOR trial")
            if not 1 <= int(r["max_load"]) <= n:
                errs.append(f"row {r['policy']},{n},{t}: max_load {r['max_load']}")
            if r["runtime_ms"] != "0.0":
                errs.append("runtime_ms filled without --measure-runtime")
        return errs

    def work(res: OpResult) -> int:
        return SCAN_TRIALS * len(SCAN_POLICIES) * sum(SCAN_N)

    return Op("scan", tuple(argv), check, work, outputs=(path,))


# ---------------------------------------------------------------------------
# verify-exact


def _verify_ops(seed: int) -> list[Op]:
    def verify_check(expect_rc: int, expect_states: int | None, legal: bool):
        def check(res: OpResult, ctx: dict) -> list[str]:
            errs = _rc(res, expect_rc)
            try:
                report = json.loads(res.stdout)
            except ValueError:
                return errs + ["verify printed no JSON report"]
            if expect_states is not None and report.get("states_checked") != expect_states:
                errs.append(f"states_checked {report.get('states_checked')} != {expect_states}")
            if legal:
                if report.get("ok") is not True:
                    errs.append(f"verify not ok: {report.get('violation_samples', [])[:2]}")
            elif report.get("ok") is not False or not report.get("support_violations", 0) > 0:
                errs.append("illegal fixture was not caught by a support violation")
            return errs

        return check

    def states(res: OpResult) -> int:
        try:
            return int(json.loads(res.stdout).get("states_checked", 0))
        except ValueError:
            return 0

    s = str(seed)
    return [
        Op("verify-clustered",
           ("verify", "--policy", "clustered", "--n", str(CLUSTERED_N),
            "--balls", str(CLUSTERED_BALLS), "--seed", s),
           verify_check(0, CLUSTERED_STATES, True), states),
        Op("verify-greedy",
           ("verify", "--policy", "greedy", "--n", str(GREEDY_VERIFY_N),
            "--balls", str(GREEDY_VERIFY_N), "--max-states", str(GREEDY_PROBE_STATES),
            "--seed", s),
           verify_check(0, GREEDY_PROBE_STATES, True), states),
        Op("verify-illegal",
           ("verify", "--policy", "illegal-fixture", "--n", str(ILLEGAL_N), "--seed", s),
           verify_check(1, None, False), states),
    ]


# ---------------------------------------------------------------------------
# trace-replay


def _trace_ops(seed: int, outdir: str) -> list[Op]:
    s = str(seed)
    ops = []
    for policy in TRACE_POLICIES:
        trace = os.path.join(outdir, f"trace-{policy}.csv")
        out = os.path.join(outdir, f"run-{policy}.json")
        ops.append(Op(
            f"run-{policy}",
            ("run", "--policy", policy, "--n", str(TRACE_N), "--seed", s,
             "--trace-out", trace, "--out", out),
            _run_check(policy, trace, out), lambda res: TRACE_N, outputs=(trace, out),
        ))
        ops.append(Op(
            f"phases-{policy}",
            ("phases", "--n", str(TRACE_N), "--phases", str(PHASES), "--trace-in", trace),
            _phases_check(policy, TRACE_N, forbidden=False), lambda res: TRACE_N,
        ))
    ops.append(Op(
        "phases-forbidden",
        ("phases", "--policy", "greedy", "--n", str(FORBIDDEN_N), "--phases", str(PHASES),
         "--forbidden", "--seed", s),
        _phases_check("greedy", FORBIDDEN_N, forbidden=True),
        lambda res: 2 * FORBIDDEN_N,  # the live traced run plus its forbidden-union replay
    ))
    return ops


def _run_check(policy: str, trace_path: str, out_path: str):
    def check(res: OpResult, ctx: dict) -> list[str]:
        errs = _rc(res, 0)
        try:
            with open(out_path) as f:
                result = json.load(f)
            with open(trace_path) as f:
                lines = f.read().splitlines()
        except (OSError, ValueError) as exc:
            return errs + [f"run output unreadable: {exc}"]
        loads = result.get("loads", [])
        if len(loads) != TRACE_N or sum(loads) != TRACE_N:
            errs.append(f"loads: {len(loads)} bins summing to {sum(loads)}, want {TRACE_N}")
        if loads and result.get("max_load") != max(loads):
            errs.append("max_load does not match the loads")
        if not lines or lines[0] != TRACE_HEADER or len(lines) - 1 != TRACE_N:
            errs.append(f"trace has {len(lines) - 1} rows (header {lines[:1]!r})")
            return errs
        replayed = [0] * TRACE_N
        for t, line in enumerate(lines[1:]):
            step, _sid, a, b, c = (int(x) for x in line.split(","))
            if step != t or c not in (a, b):
                errs.append(f"trace row {t} malformed: {line}")
                break
            replayed[c] += 1
        if replayed != loads:
            errs.append("trace's chosen column does not reproduce the loads")
        if loads != ctx["reference"][(policy, TRACE_N)]["loads"]:
            errs.append("traced loads differ from the untraced simulate_run loads")
        return errs

    return check


def _phases_check(policy: str, n: int, forbidden: bool):
    def check(res: OpResult, ctx: dict) -> list[str]:
        errs = _rc(res, 0)
        try:
            report = json.loads(res.stdout)
        except ValueError:
            return errs + ["phases printed no JSON report"]
        rows = report.get("rows", [])
        sizes = [r.get("size") for r in rows]
        want = ctx["reference"][(policy, n)]["sizes"]
        if sizes != want:
            errs.append(f"phase sizes {sizes} != live run_phase_report sizes {want}")
        if forbidden:
            for r in rows:
                if not 0 <= r.get("forbidden_overlap", -1) <= r.get("size", -1):
                    errs.append(f"forbidden_overlap out of range in {r}")
            if not 1 <= report.get("states_seen", 0) <= n:
                errs.append(f"states_seen {report.get('states_seen')} outside 1..{n}")
        return errs

    return check


def _rc(res: OpResult, want: int) -> list[str]:
    return [] if res.rc == want else [f"exit code {res.rc}, want {want}"]
