"""A catalogue of named mutants, each caught by the cheapest check that can
see it.

Each mutant is a defect applied with ``monkeypatch``.  For each one a test
asserts that the real code passes the check and the mutant fails it, so a
check that could never fail shows up here.  Where no existing gate sees a
mutant, the check is a known-answer test against a closed-form law.
"""

import math

import numpy as np

from treegrowth import harness
from treegrowth.families import FamilySpec
from treegrowth.harness import ExperimentSpec, run_experiment

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
