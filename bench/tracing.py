"""Timing wrappers around ballast's layer boundaries, installed from outside.

``install`` replaces the public functions of ``ballast.core``,
``ballast.analysis``, ``ballast.harness`` and ``ballast.cli.main``, and the
``run_bulk``/``state_id`` methods of every policy class, with wrappers that
record spans into a ``Tracer``. ``Patch.restore`` puts every original back.
Nothing under ``src/`` is edited.

A span is (id, name, parent, start_ns, end_ns, pid, attrs, agg). Calls too
small or too frequent to deserve a span each (``state_id``, the items of a
generator) are aggregated into the enclosing span's ``agg`` as
``name -> [calls, ns]``. Spans stay in memory until ``dump``.

Forked pool workers inherit the tracer with the parent's open spans on its
stack. A worker spools each finished top-level span tree to
``<spool_dir>/worker-<pid>.jsonl``; ``collect_spool`` merges those files
back. ``perf_counter_ns`` reads CLOCK_MONOTONIC, so worker and driver
timestamps share one time base.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from dataclasses import dataclass, field

# (module, function, attrs(arguments by name, result) -> dict, or None)
FUNCTION_TARGETS = (
    ("core", "draw_run_streams", lambda a, r: {"balls": len(r[0])}),
    ("core", "simulate_run", lambda a, r: {
        "balls": a["config"].balls, "traced": bool(a["config"].record_trace)}),
    ("core", "simulate_segmented", lambda a, r: {"balls": a["config"].balls}),
    ("core", "write_trace_csv", lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("core", "read_trace_csv", lambda a, r: {"rows": len(r)}),
    ("analysis", "enumerate_choice_numerators", lambda a, r: {"pairs": a["n"] * a["n"]}),
    ("analysis", "exact_placement_probs", None),
    ("analysis", "sweep_placement_bounds", lambda a, r: {"states": r.states_checked}),
    ("analysis", "enumerate_clustered_states", None),
    ("analysis", "probe_states", lambda a, r: {"kept": len(r)}),
    ("analysis", "phase_report", None),
    ("analysis", "run_phase_report", None),
    ("analysis", "forbidden_union_over_trace", lambda a, r: {
        "steps": len(a["trace"]), "distinct": r[1]}),
    ("analysis", "phase_report_with_forbidden", None),
    ("harness", "run_trial", lambda a, r: {"policy": r.policy, "n": r.n}),
    ("harness", "run_experiment", lambda a, r: {"jobs": a["jobs"], "rows": len(r)}),
    ("harness", "emit", None),
    ("cli", "main", lambda a, r: {"argv": list(a["argv"] or [])}),
)

# Policy methods: (method, aggregate instead of a span?, attrs or None)
METHOD_TARGETS = (
    ("run_bulk", False, lambda a, r: {"policy": a["self"].name, "balls": len(a["pa"])}),
    ("state_id", True, None),
)

MODULES = ("core", "policies", "analysis", "harness", "cli")


@dataclass
class Span:
    id: str
    name: str
    parent: str | None
    start_ns: int
    pid: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)
    agg: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class Tracer:
    """In-memory span recorder with a per-process stack of open spans."""

    def __init__(self, spool_dir: str | None = None):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.inherited_depth = 0
        self._next = 0

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.inherited_depth = len(self.stack)

    def open(self, name: str) -> Span:
        self._check_fork()
        self._next += 1
        parent = self.stack[-1].id if self.stack else None
        span = Span(f"{self.pid}:{self._next}", name, parent, time.perf_counter_ns(), self.pid)
        self.stack.append(span)
        return span

    def close(self, span: Span, end_ns: int | None = None) -> None:
        span.end_ns = end_ns or time.perf_counter_ns()
        top = self.stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order (top is {top.name})")
        self.spans.append(span)
        if len(self.stack) == self.inherited_depth and self.inherited_depth and self.spool_dir:
            self._spool()

    def add(self, name: str, start_ns: int) -> None:
        """Aggregate one call that started at ``start_ns`` into the open span."""
        dt = time.perf_counter_ns() - start_ns
        self._check_fork()
        if not self.stack:
            return
        slot = self.stack[-1].agg.setdefault(name, [0, 0])
        slot[0] += 1
        slot[1] += dt

    def _spool(self) -> None:
        path = os.path.join(self.spool_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a") as f:
            for s in self.spans:
                f.write(json.dumps(s.to_dict()) + "\n")
        self.spans = []

    def collect_spool(self) -> None:
        """Merge spans spooled by worker processes."""
        if not self.spool_dir or not os.path.isdir(self.spool_dir):
            return
        for fn in sorted(os.listdir(self.spool_dir)):
            if not fn.startswith("worker-"):
                continue
            path = os.path.join(self.spool_dir, fn)
            with open(path) as f:
                for line in f:
                    self.spans.append(Span(**json.loads(line)))
            os.remove(path)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.to_dict()) + "\n")


def _wrap(tracer: Tracer, name: str, fn, attrs=None, aggregate: bool = False):
    """A wrapper that times ``fn`` as a span, or aggregates it into the open one.

    Generator functions are always aggregated, one entry per item produced,
    so the consumer's time between items is not counted.
    """
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    tracer.add(name, t0)
                    return
                tracer.add(name, t0)
                yield item

        return gen_wrapper

    if aggregate:
        @functools.wraps(fn)
        def agg_wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add(name, t0)

        return agg_wrapper

    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span)
            raise
        end_ns = time.perf_counter_ns()
        if attrs is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.attrs.update(attrs(bound.arguments, result))
        tracer.close(span, end_ns)
        return result

    return wrapper


class Patch:
    """Record of every replaced attribute, so the originals can be restored."""

    def __init__(self):
        self.replaced: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def install(tracer: Tracer, ballast) -> Patch:
    """Wrap ballast's layer boundaries; ``ballast`` is the imported package.

    Modules that did ``from .core import simulate_run`` hold their own
    reference, so every module attribute bound to an original is replaced,
    not just the defining one. A target the sources no longer define is
    skipped, and its metrics read 0.
    """
    modules = [ballast] + [getattr(ballast, m) for m in MODULES]
    policy_classes = [
        cls for cls in vars(ballast.policies).values()
        if isinstance(cls, type) and issubclass(cls, ballast.policies.Policy)
    ]
    patch = Patch()
    try:
        for mod_name, fn_name, attrs in FUNCTION_TARGETS:
            original = getattr(getattr(ballast, mod_name), fn_name, None)
            if original is None:
                continue
            wrapper = _wrap(tracer, f"{mod_name}.{fn_name}", original, attrs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patch.set(mod, attr, wrapper)
        for method, aggregate, attrs in METHOD_TARGETS:
            for cls in policy_classes:
                if method in vars(cls):
                    wrapper = _wrap(tracer, f"policies.{method}", vars(cls)[method], attrs, aggregate)
                    patch.set(cls, method, wrapper)
    except BaseException:
        patch.restore()
        raise
    return patch


# ---------------------------------------------------------------------------
# per-layer metrics

POLICIES = ("one-choice", "greedy", "clustered", "advice")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced pass (0 where the layer did no work).

    Totals are summed over every span of the pass, worker spans included.
    A span's self time is its duration minus its child spans and the calls
    aggregated into it.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[str | None, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def dur(s: Span) -> float:
        return (s.end_ns - s.start_ns) / 1e9

    def total(name: str) -> float:
        return sum(dur(s) for s in by_name.get(name, ()))

    def self_total(name: str) -> float:
        return sum(
            dur(s)
            - sum(dur(c) for c in children.get(s.id, ()))
            - sum(ns for _, ns in s.agg.values()) / 1e9
            for s in by_name.get(name, ())
        )

    def attr_sum(name: str, key: str, where=lambda s: True) -> int:
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()) if where(s))

    def agg(name: str, among=None) -> tuple[int, int]:
        calls = ns = 0
        for s in among if among is not None else spans:
            c, t = s.agg.get(name, (0, 0))
            calls += c
            ns += t
        return calls, ns

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    m["core.draw_run_streams.ns_per_ball"] = ratio(
        1e9 * total("core.draw_run_streams"), attr_sum("core.draw_run_streams", "balls"))
    m["core.simulate_run.self_s"] = self_total("core.simulate_run")
    traced = [s for s in by_name.get("core.simulate_run", ()) if s.attrs.get("traced")]
    traced_s = sum(
        dur(s) - sum(dur(c) for c in children.get(s.id, ()) if c.name == "core.draw_run_streams")
        for s in traced
    )
    m["core.simulate_run.traced_ns_per_step"] = ratio(
        1e9 * traced_s, sum(s.attrs["balls"] for s in traced))
    m["core.write_trace_csv.s"] = total("core.write_trace_csv")
    m["core.read_trace_csv.s"] = total("core.read_trace_csv")
    m["core.trace_csv.bytes"] = attr_sum("core.write_trace_csv", "bytes")

    for p in POLICIES:
        mine = [s for s in by_name.get("policies.run_bulk", ()) if s.attrs.get("policy") == p]
        m[f"policies.run_bulk.ns_per_ball.{p}"] = ratio(
            1e9 * sum(dur(s) for s in mine), sum(s.attrs["balls"] for s in mine))
    calls, ns = agg("policies.state_id")
    m["policies.state_id.calls"] = calls
    m["policies.state_id.s"] = ns / 1e9

    pairs = attr_sum("analysis.enumerate_choice_numerators", "pairs")
    m["analysis.pairs_enumerated"] = pairs
    m["analysis.enumerate_choice_numerators.s"] = total("analysis.enumerate_choice_numerators")
    m["analysis.ns_per_pair"] = ratio(1e9 * m["analysis.enumerate_choice_numerators.s"], pairs)
    m["analysis.sweep_placement_bounds.self_s"] = self_total("analysis.sweep_placement_bounds")
    m["analysis.probe_states.s"] = total("analysis.probe_states")
    inspected, _ = agg("policies.state_id", by_name.get("analysis.probe_states", []))
    m["analysis.probe_states.kept_ratio"] = ratio(
        attr_sum("analysis.probe_states", "kept"), inspected)
    m["analysis.forbidden_union_over_trace.s"] = total("analysis.forbidden_union_over_trace")
    m["analysis.exact_placement_probs.calls"] = len(by_name.get("analysis.exact_placement_probs", ()))
    m["analysis.forbidden_union.distinct_ratio"] = ratio(
        attr_sum("analysis.forbidden_union_over_trace", "distinct"),
        attr_sum("analysis.forbidden_union_over_trace", "steps"))
    m["analysis.phase_report.s"] = total("analysis.phase_report")

    m["harness.run_trial.s"] = total("harness.run_trial")
    m["harness.run_trial.calls"] = len(by_name.get("harness.run_trial", ()))
    m["harness.run_experiment.s"] = total("harness.run_experiment")
    m["harness.pool_speedup"] = ratio(m["harness.run_trial.s"], m["harness.run_experiment.s"])
    m["harness.emit.s"] = total("harness.emit")
    m["cli.main.self_s"] = self_total("cli.main")
    return m
