"""A catalogue of named mutants, each caught by the cheapest check that can
see it.

Each mutant is a defect applied with ``monkeypatch``.  For each one a test
asserts that the real code passes the check and the mutant fails it, so a
check that could never fail shows up here.  Where no existing gate sees a
mutant, the check is a known-answer test against a closed-form law.
"""

import math

import numpy as np
from scipy import stats

from helpers import complete, exact_set_chain, rrt_height_pvalue
from test_law_midsize import LAW_THRESHOLD, shape_pvalues
from treegrowth import growth, harness
from treegrowth.families import FamilySpec, build_family
from treegrowth.harness import ExperimentSpec, run_experiment
from treegrowth.randomness import sample_exponential, stream_for

# On K_n the cover time is a sum of independent Exp(i(n - i)) stages,
# i = 1..n-1 (Janson, "One, two and three times log n/n for paths in a
# complete graph with random weights", CPC 8, 1999).  At n = 32 the mean
# is 0.251703 and the sd 0.060352.
COVER_N = 32
COVER_TRIALS = 2000
COVER_SEED = 1  # fixed before the first run
_RATES = [i * (COVER_N - i) for i in range(1, COVER_N)]
COVER_MEAN = sum(1 / r for r in _RATES)
COVER_SD = math.sqrt(sum(1 / r**2 for r in _RATES))


# On grid(2, 3), a non-complete graph, the exact chain over reached sets
# gives the cover time's mean (3.453848) and variance from the corner.
GRID = FamilySpec("grid", {"d": 2, "k": 3})
GRID_COVER_SEED = 3  # fixed before the first run


def cover_time_z(family: FamilySpec, seed: int, mean: float, sd: float) -> float:
    """z-score of the mean cover time over a COVER_TRIALS-trial FPP campaign."""
    spec = ExperimentSpec(
        family,
        process="fpp",
        trials=COVER_TRIALS,
        master_seed=seed,
        metrics=("cover_time",),
    )
    records, _ = run_experiment(spec)
    cover = np.array([r.cover_time for r in records])
    return (cover.mean() - mean) / (sd / math.sqrt(COVER_TRIALS))


def complete_cover_time_z() -> float:
    """z-score of the mean K_32 cover time against Janson's stage sum."""
    return cover_time_z(FamilySpec("complete", {"n": COVER_N}), COVER_SEED, COVER_MEAN, COVER_SD)


def grid_cover_time_z() -> float:
    """z-score of the mean grid(2, 3) cover time against the exact chain."""
    g, _ = build_family(GRID)
    chain = exact_set_chain(g, 0)
    assert round(chain.cover_mean, 6) == 3.453848
    return cover_time_z(GRID, GRID_COVER_SEED, chain.cover_mean, math.sqrt(chain.cover_var))


def doubled_weights(monkeypatch) -> None:
    # Doubling every weight leaves the shortest-path tree, and so every
    # height and the law comparisons, unchanged; only the times' size shows it.
    draw = harness.sample_edge_weights

    def doubled(g, stream, out=None):
        weights = draw(g, stream, out=out)
        weights *= 2.0
        return weights

    monkeypatch.setattr(harness, "sample_edge_weights", doubled)


def test_complete_cover_time_matches_known_answer():
    assert abs(complete_cover_time_z()) <= 4


def test_doubled_weights_fail_the_cover_time_law(monkeypatch):
    doubled_weights(monkeypatch)
    assert abs(complete_cover_time_z()) > 4


def test_grid_cover_time_matches_known_answer():
    assert abs(grid_cover_time_z()) <= 4


def test_doubled_weights_fail_the_grid_cover_time(monkeypatch):
    doubled_weights(monkeypatch)
    assert abs(grid_cover_time_z()) > 4


# Parent marginals on grid(2, 3) from its corner, against the exact chain
# over reached sets.  Vertex 6, at (2, 1), was chosen before any tree was
# drawn: off the diagonal, where symmetry pins no marginal, it is the vertex
# whose marginal the uniform-boundary-vertex mutant moves most (exact
# noncentrality 0.030 per tree on 3 degrees of freedom, so about 120 at
# PARENT_TREES trees).
PARENT_VERTEX = 6
PARENT_TREES = 4000
PARENT_SEED = 2  # fixed before the first run
FPP_PARENT_SEED = 4  # fixed before the first run


def marginal_pvalue(g, parents: np.ndarray) -> float:
    """Chi-square p-value of PARENT_VERTEX's parent over the rows of a
    (trees, n) parent array, against the exact chain's marginal."""
    law = exact_set_chain(g, 0).parent[PARENT_VERTEX]
    counts = np.bincount(parents[:, PARENT_VERTEX], minlength=g.n)
    support = law > 0
    assert not counts[~support].any()
    return stats.chisquare(counts[support], law[support] * PARENT_TREES).pvalue


def parent_marginal_pvalue() -> float:
    """The marginal's p-value over discrete trees."""
    g, _ = build_family(GRID)
    stream = stream_for(PARENT_SEED, 0)
    return marginal_pvalue(g, growth._grow_discrete_rows(g, 0, stream, PARENT_TREES))


def test_discrete_parent_marginal_matches_known_answer():
    assert parent_marginal_pvalue() > 1e-3


def test_fpp_parent_marginal_matches_known_answer():
    # The FPP tree is the discrete tree's law (criterion 1), so the same
    # marginal holds for shortest-path trees on per-trial weight streams.
    g, _ = build_family(GRID)
    weights = np.empty((PARENT_TREES, g.m))
    for trial in range(PARENT_TREES):
        growth.sample_edge_weights(g, stream_for(FPP_PARENT_SEED, trial), out=weights[trial])
    assert marginal_pvalue(g, growth.grow_fpp_block(g, 0, weights).parent) > 1e-3


def uniform_vertex_rows(g, s, stream, count):
    # Joining a uniform boundary vertex, not the far end of a uniform
    # boundary edge, under-weights vertices with many edges into the tree.
    # K_n cannot show it: there every outside vertex has as many.
    nbrs = [set(g.neighbors(v).tolist()) for v in range(g.n)]
    rows = np.full((count, g.n), -1)
    for row in rows:
        tree, boundary = {s}, set(nbrs[s])
        while boundary:
            v = sorted(boundary)[stream.integers(len(boundary))]
            ups = sorted(nbrs[v] & tree)
            row[v] = ups[stream.integers(len(ups))]
            tree.add(v)
            boundary = (boundary | nbrs[v]) - tree
    return rows


def test_uniform_boundary_vertex_fails_the_parent_marginal(monkeypatch):
    monkeypatch.setattr(growth, "_grow_discrete_rows", uniform_vertex_rows)
    assert parent_marginal_pvalue() <= 1e-3


def test_uniform_boundary_vertex_fails_the_midsize_leaf_count(monkeypatch):
    # The same mutant grown on grid(2, 15), n = 256, where no exact law is
    # within reach: its leaf count parts from the FPP trees'.
    monkeypatch.setattr(growth, "_grow_discrete_rows", uniform_vertex_rows)
    assert shape_pvalues("grid2x15")[1] <= LAW_THRESHOLD


# Depths one too deep at every vertex but the root shift every height by
# one.  The exact K_64 height law of random recursive trees sees it; the
# real code passes the same law on the same draws in test_growth
# (test_discrete_height_on_complete_graph_matches_exact_law[segments-64] and
# test_fpp_height_on_complete_graph_matches_exact_law).
HEIGHT_N, HEIGHT_TRIALS = 64, 2000


def depths_off_by_one(monkeypatch) -> None:
    real = growth.forest_depths

    def off_by_one(parent):
        return real(parent) + (parent >= 0)

    monkeypatch.setattr(growth, "forest_depths", off_by_one)


def test_depths_off_by_one_fail_the_discrete_height_law(monkeypatch):
    depths_off_by_one(monkeypatch)
    g = complete(HEIGHT_N)
    heights = np.array([
        growth.grow_discrete(g, 0, stream_for(19, HEIGHT_N, t)).height()
        for t in range(HEIGHT_TRIALS)
    ])
    assert rrt_height_pvalue(heights, HEIGHT_N) < 1e-3


def test_depths_off_by_one_fail_the_fpp_height_law(monkeypatch):
    depths_off_by_one(monkeypatch)
    g = complete(HEIGHT_N)
    size, stream = growth.block_size(g), stream_for(37, HEIGHT_N)
    heights = np.concatenate([
        growth.grow_fpp_block(
            g, 0, sample_exponential(stream, (min(size, HEIGHT_TRIALS - t), g.m))
        ).height
        for t in range(0, HEIGHT_TRIALS, size)
    ])
    assert rrt_height_pvalue(heights, HEIGHT_N) < 1e-3


# A `both` campaign must grow each trial's two trees from two streams: the
# weights from path (experiment, trial, WEIGHT_CHANNEL) and the discrete
# tree from (experiment, trial, DISCRETE_CHANNEL).  Reading one channel for
# both shows in the heights on some graphs only (over 2000 trials at seed 5
# the Spearman rho between the two read 0.124 against 0.014 for the real
# code on K_8, but -0.020 against -0.011 on grid(2, 3)), so the check is
# structural: it records which stream path each draw read.
BOTH = ExperimentSpec(
    GRID, process="both", trials=12, master_seed=5, experiment_id=3, metrics=("height",)
)


def channels_read(monkeypatch) -> tuple[list, list]:
    """The stream paths the weight draws and the discrete trees of the
    BOTH campaign read, in call order."""
    made, weights, discrete = {}, [], []
    real_stream, real_weights, real_grow = (
        harness.stream_for, harness.sample_edge_weights, harness.grow_discrete
    )

    def tagged_stream(seed, *path):
        stream = real_stream(seed, *path)
        made[id(stream)] = stream, path  # holding the stream keeps its id unique
        return stream

    def logged_weights(g, stream, out=None):
        weights.append(made[id(stream)][1])
        return real_weights(g, stream, out=out)

    def logged_grow(g, s, stream):
        discrete.append(made[id(stream)][1])
        return real_grow(g, s, stream)

    monkeypatch.setattr(harness, "stream_for", tagged_stream)
    monkeypatch.setattr(harness, "sample_edge_weights", logged_weights)
    monkeypatch.setattr(harness, "grow_discrete", logged_grow)
    run_experiment(BOTH)
    return weights, discrete


def reads_own_channels(monkeypatch) -> bool:
    weights, discrete = channels_read(monkeypatch)
    e, trials = BOTH.experiment_id, range(BOTH.trials)
    return (weights == [(e, t, 0) for t in trials]
            and discrete == [(e, t, 1) for t in trials])


def test_both_campaign_reads_one_channel_per_process(monkeypatch):
    assert reads_own_channels(monkeypatch)


def test_one_channel_for_both_processes_fails_the_channel_check(monkeypatch):
    monkeypatch.setattr(harness, "DISCRETE_CHANNEL", harness.WEIGHT_CHANNEL)
    assert not reads_own_channels(monkeypatch)
