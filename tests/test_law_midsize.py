"""Law equivalence beyond enumeration: both processes on mid-size graphs.

Criterion 1 compares each process with the exact tree law, which it can
enumerate only on graphs of at most 9 vertices.  Here the discrete and the
FPP trees are grown side by side on the campaign families at n in the
hundreds, where the discrete sampler's lazy segments and flushes are all at
work, and compared by two-sample chi-square tests of height and leaf count.
Height alone is weak: a sampler that joins a uniform boundary *vertex*
instead of the far end of a uniform boundary edge moves the leaf count far
more than the height (``test_gate_power``).

The seed, the tree count and the threshold were fixed before the first run.
Ten p-values are read, two per graph, so each is held to 1e-3: a
Bonferroni bound of 0.01 on any false failure.
"""

import pytest

from helpers import homogeneity_pvalue, paired_tree_shapes
from treegrowth.families import E2, FamilySpec, build_family

MIDSIZE = {
    "Q8": FamilySpec("grid", {"d": 8, "k": 1}),
    "grid2x15": FamilySpec("grid", {"d": 2, "k": 15}),
    "ladder16x4": FamilySpec("ladder_H", {"L": 16, "delta": 4}),
    "K64": FamilySpec("complete", {"n": 64}),
    "glued8x4": FamilySpec("glued_G", {"L": 8, "delta": 4, "a": 2 * E2}),
}
LAW_SEED = 23
LAW_TREES = 1500
LAW_THRESHOLD = 1e-3


def shape_pvalues(name: str) -> tuple[float, float]:
    """(height, leaf count) p-values of the two processes on MIDSIZE[name];
    each graph reads its own experiment id, its place in MIDSIZE."""
    g, _ = build_family(MIDSIZE[name])
    heights, leaves = paired_tree_shapes(g, LAW_SEED, list(MIDSIZE).index(name), LAW_TREES)
    return homogeneity_pvalue(*heights), homogeneity_pvalue(*leaves)


@pytest.mark.parametrize("name", MIDSIZE)
def test_processes_agree_in_height_and_leaf_count(name):
    height_p, leaves_p = shape_pvalues(name)
    assert height_p > LAW_THRESHOLD and leaves_p > LAW_THRESHOLD
