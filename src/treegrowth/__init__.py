"""Spanning-tree growth and first-passage percolation experiments."""

import types

from treegrowth.counting import (
    BoundRow,
    CountRow,
    bound_matrix,
    bound_paths_genus,
    bound_walks_degenerate,
    count_report,
    count_simple_paths_upto,
    count_walks_upto,
    height_cutoff_plan,
)
from treegrowth.families import (
    ConstructionMeta,
    DecompositionReport,
    FamilyError,
    FamilySpec,
    TreeDecomposition,
    build_family,
    build_tree_decomposition_degenerate,
    plan_family,
    verify_tree_decomposition,
)
from treegrowth.graphs import BudgetExceededError, Graph, GraphError
from treegrowth.growth import (
    FppBlock,
    GrowthCertificateError,
    LawComparison,
    RootedTree,
    check_fpp_certificate,
    exact_discrete_law,
    grow_discrete,
    grow_fpp_block,
    law_equivalence_test,
    sample_edge_weights,
)
from treegrowth.harness import (
    ExperimentSpec,
    HarnessError,
    MetricSummary,
    Summary,
    TrialRecord,
    Verdict,
    run_experiment,
    summarize,
)
from treegrowth.randomness import (
    TailCheckReport,
    check_erlang_head,
    check_erlang_tail,
    check_two_stage_sum,
    check_two_stage_tail,
    sample_erlang,
    sample_exponential,
    sample_two_stage_min,
    stream_for,
)

# The public API is every name imported above.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
