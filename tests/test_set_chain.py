"""Known answers from the exact chain over reached sets (``exact_set_chain``):
Janson's stage sum on K_n, and FPP campaigns' mean cover and hitting times
on one small instance of every non-complete kind, each against its exact
value."""

import math

import numpy as np
import pytest

from helpers import complete, exact_set_chain, path
from treegrowth.families import FamilySpec, build_family
from treegrowth.graphs import BudgetExceededError, Graph, GraphError
from treegrowth.harness import ExperimentSpec, run_experiment

CHAIN_TRIALS = 20_000
CHAIN_SEED = 7  # fixed before the first run
# Bound on every vertex's hitting-time z-score, fixed before the first run:
# two-sided 6.8e-6 per vertex, so under 1e-3 over the 82 vertices tested.
HITTING_Z = 4.5


@pytest.mark.parametrize("n", range(1, 17))
def test_chain_is_janson_stage_sum_on_complete_graphs(n):
    # On K_n the chain is n - 1 independent Exp(i(n - i)) stages (Janson,
    # CPC 8, 1999).  Every vertex but the start has one parent.
    chain = exact_set_chain(complete(n), 0)
    rates = [i * (n - i) for i in range(1, n)]
    assert chain.cover_mean == pytest.approx(sum(1 / r for r in rates), rel=1e-12)
    assert chain.cover_var == pytest.approx(sum(1 / r**2 for r in rates), rel=1e-12)
    assert np.allclose(chain.parent.sum(axis=1), np.arange(n) > 0)


def test_chain_marginals_are_laws_on_a_path():
    # On a path from one end each vertex joins after the edges before it:
    # T_v is Erlang(v), and v's parent can only be v - 1.
    chain = exact_set_chain(path(6), 0)
    assert np.allclose(chain.hitting_mean, np.arange(6))
    assert np.array_equal(chain.parent, np.eye(6, k=-1))
    assert (chain.cover_mean, chain.cover_var) == pytest.approx((5, 5))


def test_chain_refuses_large_or_disconnected_graphs_and_bad_starts():
    with pytest.raises(BudgetExceededError):
        exact_set_chain(path(17), 0)
    with pytest.raises(GraphError):
        exact_set_chain(path(4), 4)
    with pytest.raises(GraphError):
        exact_set_chain(Graph(3, [(0, 1)]), 0)


@pytest.mark.parametrize(
    "family, mean",
    [
        (FamilySpec("grid", {"d": 2, "k": 3}), 3.453848),
        (FamilySpec("grid", {"d": 4, "k": 1}), 1.839522),
        (FamilySpec("ladder_H", {"L": 4, "delta": 4}), 1.277727),
        (FamilySpec("subdivided_tree_I", {"L": 4, "m": 2}), 4.723476),
        (FamilySpec("glued_G", {"L": 4, "delta": 2, "a": 8, "m": 1}), 2.136729),
        (FamilySpec("planar_lower_G", {"L": 2, "delta": 2, "a": 8, "m": 2}), 3.071373),
        (
            FamilySpec("degenerate_lower_G", {"L": 2, "delta": 3, "d": 2, "a": 8, "m": 2}),
            2.377598,
        ),
    ],
    ids=["grid2x3", "Q4", "ladder4x4", "tree4x2", "glued4x2", "planar2x2", "degenerate2x3"],
)
def test_fpp_cover_time_matches_the_exact_chain(family, mean):
    g, meta = build_family(family)
    chain = exact_set_chain(g, meta.start_vertex)
    assert round(chain.cover_mean, 6) == mean
    spec = ExperimentSpec(
        family,
        process="fpp",
        trials=CHAIN_TRIALS,
        master_seed=CHAIN_SEED,
        metrics=("cover_time", "hitting_times"),
    )
    records, _ = run_experiment(spec)
    cover = np.array([r.cover_time for r in records])
    se = math.sqrt(chain.cover_var / CHAIN_TRIALS)
    assert abs(cover.mean() - chain.cover_mean) / se <= 4
    # Each vertex but the start, against its exact mean, with the sample sd.
    others = np.arange(g.n) != meta.start_vertex
    hitting = np.array([r.hitting_times for r in records])[:, others]
    se = hitting.std(axis=0, ddof=1) / math.sqrt(CHAIN_TRIALS)
    z = (hitting.mean(axis=0) - chain.hitting_mean[others]) / se
    assert np.abs(z).max() <= HITTING_Z
