"""Balls-into-bins allocation under explicit memory budgets.

A deterministic, seed-reproducible simulator for the two-choice allocation
process, a catalog of policies with auditable memory budgets, exact
placement-probability verification, and a CLI harness for scaling studies.

The public names below resolve lazily (PEP 562), so ``import ballast.cli``
loads only the modules a command runs. A resolved name is looked up in its
defining module on every access and never cached here, so a rebinding of
``ballast.core.simulate_run`` is seen through ``ballast.simulate_run``.
"""

import importlib

_EXPORTS = {
    "analysis": (
        "PhaseConfig",
        "PhaseReport",
        "PoissonTail",
        "SweepResult",
        "default_epsilon_grid",
        "enumerate_clustered_states",
        "forbidden_union_over_trace",
        "phase_report",
        "phase_report_with_forbidden",
        "probe_states",
        "run_phase_report",
        "sweep_placement_bounds",
    ),
    "core": (
        "PAIR_GUARD",
        "RunResult",
        "SimConfig",
        "Trace",
        "load_histogram",
        "read_trace_csv",
        "simulate_run",
        "trial_seed",
        "write_trace_csv",
    ),
    "harness": (
        "CSV_COLUMNS",
        "ExperimentSpec",
        "ScalingRow",
        "emit",
        "run_experiment",
        "run_trial",
    ),
    "policies": (
        "POLICY_NAMES",
        "AdvicePolicy",
        "ClusterConfig",
        "ClusteredPolicy",
        "GreedyTwoChoicePolicy",
        "IllegalFixedBinPolicy",
        "MaxIndexPolicy",
        "MinIndexPolicy",
        "OneChoicePolicy",
        "Policy",
        "PolicySpec",
        "TheoreticalBounds",
        "advice_threshold",
        "default_cluster_config",
        "int_width",
        "make_policy",
        "theoretical_bounds",
    ),
}

# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys() | _SUBMODULES)
