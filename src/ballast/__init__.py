"""Balls-into-bins allocation under explicit memory budgets.

A deterministic, seed-reproducible simulator for the two-choice allocation
process, a catalog of policies with auditable memory budgets, exact
placement-probability verification, and a CLI harness for scaling studies.
"""

from .analysis import (
    AdviceSizeReport,
    ForbiddenSet,
    PhaseConfig,
    PhaseReport,
    PlacementBoundsReport,
    PlacementProbs,
    PoissonTail,
    SweepResult,
    TheoreticalBounds,
    advice_list_size_check,
    advice_threshold,
    all_subsets,
    check_placement_bounds,
    default_epsilon_grid,
    enumerate_clustered_states,
    exact_placement_probs,
    forbidden_set,
    forbidden_union_over_trace,
    phase_report,
    phase_report_with_forbidden,
    poisson_upper_tail,
    probe_states,
    random_subsets,
    run_phase_report,
    sweep_placement_bounds,
    theoretical_bounds,
)
from .core import (
    PAIR_GUARD,
    RunResult,
    SimConfig,
    StepRecord,
    Trace,
    load_histogram,
    read_trace_csv,
    simulate_run,
    simulate_segmented,
    trial_seed,
    write_trace_csv,
)
from .harness import (
    CSV_COLUMNS,
    ExperimentSpec,
    PolicySpec,
    ScalingRow,
    emit,
    read_rows_json,
    run_experiment,
    run_trial,
)
from .policies import (
    POLICY_NAMES,
    AdviceList,
    AdvicePolicy,
    ClusterConfig,
    ClusteredPolicy,
    GreedyTwoChoicePolicy,
    IllegalFixedBinPolicy,
    MaxIndexPolicy,
    MinIndexPolicy,
    OneChoicePolicy,
    Policy,
    build_advice,
    default_cluster_config,
    int_width,
    make_policy,
)

__version__ = "0.1.0"
