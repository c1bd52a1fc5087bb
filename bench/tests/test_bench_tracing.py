import json
import os
import shutil
import subprocess
import sys

import ballast
import ballast.cli

import run
import tracing
from tracing import Span
from workloads import Op

ROOT = os.path.dirname(run.__file__)


def _bound_references():
    """Every (owner, attribute) the tracer may replace, with its current value."""
    refs = {}
    modules = [ballast] + [getattr(ballast, m) for m in tracing.MODULES]
    for mod in modules:
        for attr, value in vars(mod).items():
            if callable(value):
                refs[mod, attr] = value
    for cls in vars(ballast.policies).values():
        if isinstance(cls, type):
            for attr, value in vars(cls).items():
                refs[cls, attr] = value
    return refs


def test_install_wraps_and_restore_puts_every_original_back():
    before = _bound_references()
    patch = tracing.install(tracing.Tracer(), ballast)
    try:
        assert ballast.core.simulate_run is not before[ballast.core, "simulate_run"]
        # re-exports and from-imports are wrapped too, not just the defining module
        assert ballast.harness.simulate_run is ballast.core.simulate_run
        assert ballast.simulate_run is ballast.core.simulate_run
        assert ballast.cli.main is not before[ballast.cli, "main"]
        greedy = ballast.policies.GreedyTwoChoicePolicy
        assert vars(greedy)["state_id"] is not before[greedy, "state_id"]
    finally:
        patch.restore()
    after = _bound_references()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_self_time_subtracts_children_and_aggregated_calls():
    parent = Span("1:1", "cli.main", None, 0, 1, end_ns=10_000_000_000,
                  agg={"policies.state_id": [4, 1_000_000_000]})
    child = Span("1:2", "core.simulate_run", "1:1", 2_000_000_000, 1, end_ns=5_000_000_000,
                 attrs={"balls": 10, "traced": True})
    m = tracing.layer_metrics([child, parent])
    assert m["cli.main.self_s"] == 6.0
    assert m["policies.state_id.calls"] == 4
    assert m["core.simulate_run.traced_ns_per_step"] == 3e8


def _small_ops(outdir):
    """A pass touching every wrapped layer, small enough for a unit test."""
    def ok(res, ctx):
        return []

    trace = os.path.join(outdir, "t.csv")
    out = os.path.join(outdir, "r.json")
    scan = os.path.join(outdir, "s.csv")
    argv = [
        ("run", "--policy", "greedy", "--n", "256", "--seed", "5", "--trace-out", trace, "--out", out),
        ("phases", "--n", "256", "--phases", "2", "--trace-in", trace),
        ("scan", "--n", "64", "128", "--policy", "greedy", "--policy", "advice", "--trials", "2",
         "--seed", "5", "--jobs", "2", "--out", scan),
        ("verify", "--policy", "clustered", "--n", "8", "--balls", "4", "--subsets", "50"),
        ("verify", "--policy", "greedy", "--n", "32", "--max-states", "4", "--subsets", "50"),
        ("phases", "--policy", "greedy", "--n", "32", "--phases", "2", "--forbidden", "--seed", "5"),
    ]
    outputs = [(trace, out), (), (scan,), (), (), ()]
    return [Op(f"op{i}", a, ok, lambda res: 1, outputs=o) for i, (a, o) in enumerate(zip(argv, outputs))]


def test_traced_pass_writes_byte_identical_outputs(tmp_path):
    outdir, spool = str(tmp_path / "ops"), str(tmp_path / "spool")
    ops = _small_ops(outdir)
    run.fresh_dir(outdir)
    _, plain = run.run_pass_inprocess(ballast, ops)
    expected = run.snapshot_outputs(ops, plain)

    run.fresh_dir(outdir)
    run.fresh_dir(spool)
    tracer = tracing.Tracer(spool_dir=spool)
    patch = tracing.install(tracer, ballast)
    try:
        _, traced = run.run_pass_inprocess(ballast, ops)
    finally:
        patch.restore()
    tracer.collect_spool()

    assert [r.rc for r in traced] == [r.rc for r in plain] == [0] * len(ops)
    assert run.snapshot_outputs(ops, traced) == expected
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "core.simulate_run", "policies.run_bulk", "harness.emit",
            "analysis.sweep_placement_bounds", "analysis.forbidden_union_over_trace"} <= names
    # the scan ran 2 policies x 2 sizes x 2 trials in pool workers
    assert sum(s.name == "harness.run_trial" for s in tracer.spans) == 8

    with open(os.path.join(os.path.dirname(ROOT), "BENCHMARK.json")) as f:
        per_layer = [m["name"] for m in json.load(f)["per_layer"]]
    measured = tracing.layer_metrics(tracer.spans)
    assert set(per_layer) - set(measured) == {"cli.import_s", "tracing_overhead_s"}


def test_driver_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(ROOT), "BENCHMARK.json"), tmp_path)
    shutil.copytree(ROOT, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-2p20", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no ballast sources" in proc.stderr
