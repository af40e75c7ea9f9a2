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

from helpers import exact_set_chain
from treegrowth import growth, harness
from treegrowth.families import FamilySpec, build_family
from treegrowth.harness import ExperimentSpec, run_experiment
from treegrowth.randomness import stream_for

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


def complete_cover_time_z() -> float:
    """z-score of the mean K_32 cover time over an FPP campaign."""
    spec = ExperimentSpec(
        FamilySpec("complete", {"n": COVER_N}),
        process="fpp",
        trials=COVER_TRIALS,
        master_seed=COVER_SEED,
        metrics=("cover_time",),
    )
    records, _ = run_experiment(spec)
    cover = np.array([r.cover_time for r in records])
    return (cover.mean() - COVER_MEAN) / (COVER_SD / math.sqrt(COVER_TRIALS))


def test_complete_cover_time_matches_known_answer():
    assert abs(complete_cover_time_z()) <= 4


def test_doubled_weights_fail_the_cover_time_law(monkeypatch):
    # Doubling every weight leaves the shortest-path tree, and so every
    # height and the law comparisons, unchanged; only the times' size shows it.
    draw = harness.sample_edge_weights

    def doubled(g, stream, out=None):
        weights = draw(g, stream, out=out)
        weights *= 2.0
        return weights

    monkeypatch.setattr(harness, "sample_edge_weights", doubled)
    assert abs(complete_cover_time_z()) > 4


# Parent marginals on grid(2, 3) from its corner, against the exact chain
# over reached sets.  Vertex 6, at (2, 1), was chosen before any tree was
# drawn: off the diagonal, where symmetry pins no marginal, it is the vertex
# whose marginal the uniform-boundary-vertex mutant moves most (exact
# noncentrality 0.030 per tree on 3 degrees of freedom, so about 120 at
# PARENT_TREES trees).
PARENT_GRID = FamilySpec("grid", {"d": 2, "k": 3})
PARENT_VERTEX = 6
PARENT_TREES = 4000
PARENT_SEED = 2  # fixed before the first run


def parent_marginal_pvalue() -> float:
    """Chi-square p-value of PARENT_VERTEX's parent over discrete trees."""
    g, _ = build_family(PARENT_GRID)
    law = exact_set_chain(g, 0).parent[PARENT_VERTEX]
    stream = stream_for(PARENT_SEED, 0)
    parents = growth._grow_discrete_rows(g, 0, stream, PARENT_TREES)
    counts = np.bincount(parents[:, PARENT_VERTEX], minlength=g.n)
    support = law > 0
    assert not counts[~support].any()
    return stats.chisquare(counts[support], law[support] * PARENT_TREES).pvalue


def test_discrete_parent_marginal_matches_known_answer():
    assert parent_marginal_pvalue() > 1e-3


def test_uniform_boundary_vertex_fails_the_parent_marginal(monkeypatch):
    # Joining a uniform boundary vertex, not the far end of a uniform
    # boundary edge, under-weights vertices with many edges into the tree.
    # K_n cannot show it: there every outside vertex has as many.
    def uniform_vertex_rows(g, s, stream, count):
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

    monkeypatch.setattr(growth, "_grow_discrete_rows", uniform_vertex_rows)
    assert parent_marginal_pvalue() <= 1e-3
