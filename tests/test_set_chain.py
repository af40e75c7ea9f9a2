"""Known answers from the exact chain over reached sets (``exact_set_chain``):
Janson's stage sum on K_n, and FPP campaigns' mean cover times on a grid, a
hypercube and a ladder, each against its exact mean and variance."""

import math

import numpy as np
import pytest

from helpers import complete, exact_set_chain, path
from treegrowth.families import FamilySpec, build_family
from treegrowth.graphs import BudgetExceededError, Graph, GraphError
from treegrowth.harness import ExperimentSpec, run_experiment

CHAIN_TRIALS = 20_000
CHAIN_SEED = 7  # fixed before the first run


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
    ],
    ids=["grid2x3", "Q4", "ladder4x4"],
)
def test_fpp_cover_time_matches_the_exact_chain(family, mean):
    g, _ = build_family(family)
    chain = exact_set_chain(g, 0)
    assert round(chain.cover_mean, 6) == mean
    spec = ExperimentSpec(
        family,
        process="fpp",
        trials=CHAIN_TRIALS,
        master_seed=CHAIN_SEED,
        metrics=("cover_time",),
    )
    records, _ = run_experiment(spec)
    cover = np.array([r.cover_time for r in records])
    se = math.sqrt(chain.cover_var / CHAIN_TRIALS)
    assert abs(cover.mean() - chain.cover_mean) / se <= 4
