"""Oracles for the growth processes.

The triangle and 4-cycle laws are computed by hand and frozen; larger
cases are checked structurally (supports equal the spanning-tree count
from the matrix-tree determinant, probabilities sum to one) and
statistically against the exact enumeration.  The batched FPP kernel is
checked bit for bit against a plain heap Dijkstra kept here as an oracle.
"""

import dataclasses
import heapq
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from treegrowth import growth
from treegrowth.graphs import BudgetExceededError, Graph, GraphError
from treegrowth.growth import (
    GrowthCertificateError,
    RootedTree,
    _forest_depths,
    check_fpp_certificate,
    exact_discrete_law,
    grow_discrete,
    grow_fpp_block,
    law_equivalence_test,
    sample_edge_weights,
)
from treegrowth.randomness import sample_exponential, stream_for

from helpers import complete, connected_graphs, cycle, path

HOUSE = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4)])


def dijkstra_oracle(g: Graph, s: int, w: np.ndarray):
    """Heap Dijkstra in Python: hitting times and parents (-1 at the root)."""
    n = g.n
    indptr, indices, eids = g.adj_indptr, g.adj_indices, g.adj_edge_ids
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    dist[s] = 0.0
    heap = [(0.0, s, -1)]
    while heap:
        d, v, p = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        parent[v] = p
        for i in range(indptr[v], indptr[v + 1]):
            u = int(indices[i])
            nd = d + w[eids[i]]
            if not done[u] and nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u, v))
    return dist, parent


def walk_depths(parent: np.ndarray) -> list[int]:
    """Depths by walking every vertex up to its root."""
    depths = []
    for v in range(len(parent)):
        d = 0
        while parent[v] >= 0:
            v, d = int(parent[v]), d + 1
        depths.append(d)
    return depths


def count_spanning_trees(g: Graph) -> int:
    lap = np.diag(g.degrees.astype(np.float64))
    for u, v in g.edges:
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    return round(np.linalg.det(lap[1:, 1:]))


# -- exact discrete law ------------------------------------------------------


def test_triangle_law_frozen():
    law = exact_discrete_law(complete(3), 0)
    assert law == {
        (0, 1): Fraction(1, 2),
        (0, 2): Fraction(1, 4),
        (1, 2): Fraction(1, 4),
    }


def test_square_law_frozen():
    # Edges of cycle(4) in canonical order: e0=(0,1) e1=(0,3) e2=(1,2) e3=(2,3).
    # Edges not incident to the start are the ones most often left out.
    law = exact_discrete_law(cycle(4), 0)
    assert law == {
        (0, 1, 2): Fraction(3, 8),
        (0, 1, 3): Fraction(3, 8),
        (0, 2, 3): Fraction(1, 8),
        (1, 2, 3): Fraction(1, 8),
    }


@given(connected_graphs(max_n=6))
@settings(max_examples=40)
def test_law_support_is_all_spanning_trees(g):
    law = exact_discrete_law(g, 0)
    assert len(law) == count_spanning_trees(g)
    assert sum(law.values()) == 1


def test_law_budget():
    with pytest.raises(BudgetExceededError):
        exact_discrete_law(complete(10), 0)


# -- discrete growth ------------------------------------------------------------


@given(connected_graphs())
@example(Graph(1, []))
@settings(max_examples=40)
def test_grow_discrete_returns_spanning_tree(g):
    tree = grow_discrete(g, 0, stream_for(3, 0))
    assert tree.parent[0] == -1
    for v in range(1, g.n):
        g.edge_id(v, int(tree.parent[v]))  # edge must exist
    depths = tree.depths()
    assert depths[0] == 0 and depths.max() == tree.height()


def test_grow_discrete_deterministic():
    g = complete(5)
    a = grow_discrete(g, 0, stream_for(11, 4)).edge_key(g)
    b = grow_discrete(g, 0, stream_for(11, 4)).edge_key(g)
    assert a == b


@pytest.mark.parametrize(
    "g",
    [complete(3), cycle(4), complete(4), HOUSE],
    ids=["triangle", "cycle4", "complete4", "house"],
)
def test_law_equivalence_discrete(g):
    cmp = law_equivalence_test(g, 0, 20_000, stream_for(5, 1))
    assert cmp.support == count_spanning_trees(g)
    assert cmp.tv_distance < 0.02
    assert cmp.chi2_pvalue > 1e-3


def test_law_equivalence_fpp():
    cmp = law_equivalence_test(cycle(4), 0, 20_000, stream_for(5, 2), process="fpp")
    assert cmp.support == 4
    assert cmp.tv_distance < 0.02
    assert cmp.chi2_pvalue > 1e-3


@pytest.mark.parametrize(
    "g",
    [complete(3), cycle(4), complete(4), HOUSE],
    ids=["triangle", "cycle4", "complete4", "house"],
)
def test_law_pvalue_matches_scipy_chisquare(g):
    law = exact_discrete_law(g, 0)
    keys = sorted(law)
    for process in ("fpp", "discrete"):
        cmp = law_equivalence_test(g, 0, 3000, stream_for(5, 4), process=process)
        stream = stream_for(5, 4)
        counts = dict.fromkeys(keys, 0)
        for _ in range(3000):
            if process == "fpp":
                w = sample_edge_weights(g, stream)[None, :]
                tree = RootedTree(0, grow_fpp_block(g, 0, w).parent[0])
            else:
                tree = grow_discrete(g, 0, stream)
            counts[tree.edge_key(g)] += 1
        obs = np.array([counts[k] for k in keys], dtype=np.float64)
        exp = np.array([float(law[k]) * 3000 for k in keys])
        assert cmp.chi2_pvalue == stats.chisquare(f_obs=obs, f_exp=exp).pvalue


def test_law_equivalence_rejects_a_tree_edge_outside_the_graph(monkeypatch):
    real = growth.grow_discrete

    def corrupted(g, s, stream):
        tree = real(g, s, stream)
        parent = tree.parent.copy()
        parent[2] = 0  # (0, 2) is a diagonal of the 4-cycle, not an edge
        return RootedTree(tree.root, parent)

    monkeypatch.setattr(growth, "grow_discrete", corrupted)
    with pytest.raises(GrowthCertificateError, match="not an edge"):
        law_equivalence_test(cycle(4), 0, 10, stream_for(5, 3))
    with pytest.raises(GrowthCertificateError, match="not an edge"):
        corrupted(cycle(4), 0, stream_for(5, 3)).edge_key(cycle(4))


def test_law_equivalence_rejects_no_trials_before_enumerating():
    # complete(10) is over the exact law's budget, so reaching the
    # enumeration would raise BudgetExceededError instead.
    with pytest.raises(ValueError, match="trial"):
        law_equivalence_test(complete(10), 0, 0, stream_for(5, 3))


def test_law_equivalence_rejects_unknown_process_before_enumerating():
    with pytest.raises(ValueError, match="process"):
        law_equivalence_test(complete(10), 0, 10, stream_for(5, 3), process="walk")


def random_recursive_tree_height(n: int, stream: np.random.Generator) -> int:
    """Height of a random recursive tree: vertex k attaches to a uniform one of 0..k-1."""
    depth = [0] * n
    for k, u in enumerate(stream.random(n - 1).tolist(), 1):
        depth[k] = depth[int(u * k)] + 1
    return max(depth)


def test_discrete_height_on_complete_graph_matches_random_recursive_tree():
    # On K_n every outside vertex has one boundary edge to each tree vertex,
    # so the new vertex's parent is uniform over the tree (Pittel 1994).
    n, trials = 64, 2000
    g = complete(n)
    grown = [grow_discrete(g, 0, stream_for(19, t)).height() for t in range(trials)]
    oracle_stream = stream_for(19, trials)
    oracle = [random_recursive_tree_height(n, oracle_stream) for _ in range(trials)]
    assert stats.ks_2samp(grown, oracle).pvalue > 1e-3


# -- first-passage percolation ------------------------------------------------------


def solve_one(g: Graph, s: int, w) -> growth.FppBlock:
    """A B = 1 block, certified."""
    w = np.asarray(w, dtype=np.float64)[None, :]
    block = grow_fpp_block(g, s, w)
    check_fpp_certificate(g, s, w, block)
    return block


def test_fpp_on_path():
    block = solve_one(path(3), 0, [0.5, 1.2])
    assert block.dist[0].tolist() == [0.0, 0.5, 1.7]
    assert block.parent[0].tolist() == [-1, 0, 1]
    assert block.cover_time.tolist() == [pytest.approx(1.7)]
    assert block.longest_weighted_path_edges.tolist() == [2]
    assert block.height.tolist() == [2]


def test_fpp_takes_detour():
    # Weights: (0,1)=1.0 (0,2)=3.0 (1,2)=0.5; vertex 2 is reached through 1.
    block = solve_one(complete(3), 0, [1.0, 3.0, 0.5])
    assert block.dist[0].tolist() == [0.0, 1.0, 1.5]
    assert block.parent[0].tolist() == [-1, 0, 1]
    assert RootedTree(0, block.parent[0]).edge_key(complete(3)) == (0, 2)
    assert block.cover_time.tolist() == [pytest.approx(1.5)]
    assert block.longest_weighted_path_edges.tolist() == [2]


@given(connected_graphs())
@settings(max_examples=40)
def test_fpp_certificate_on_random_inputs(g):
    w = sample_exponential(stream_for(7, g.n, g.m), (3, g.m))
    block = grow_fpp_block(g, 0, w)
    check_fpp_certificate(g, 0, w, block)
    assert np.all(block.cover_time >= 0.0)
    assert np.all(block.height >= g.eccentricity(0))
    assert np.all(block.height >= block.longest_weighted_path_edges)
    assert np.all(block.height <= g.n - 1)


@given(connected_graphs(), st.integers(2, 6), st.data())
@settings(max_examples=60)
def test_fpp_block_matches_dijkstra_oracle(g, b, data):
    # Continuous weights: ties have probability zero, so the oracle's tree
    # is the only shortest-path tree and both must agree bit for bit.
    s = data.draw(st.integers(0, g.n - 1))
    w = np.stack([sample_edge_weights(g, stream_for(13, g.n, g.m, i)) for i in range(b)])
    block = grow_fpp_block(g, s, w)
    check_fpp_certificate(g, s, w, block)
    assert block.dist.shape == block.parent.shape == block.depth.shape == (b, g.n)
    for i in range(b):
        dist, parent = dijkstra_oracle(g, s, w[i])
        assert np.array_equal(block.dist[i], dist)
        assert np.array_equal(block.parent[i], parent)
        depths = walk_depths(parent)
        assert block.depth[i].tolist() == depths
        far = int(np.argmax(dist))
        assert block.height[i] == max(depths)
        assert block.cover_time[i] == dist[far]
        assert block.longest_weighted_path_edges[i] == depths[far]


@given(connected_graphs())
@example(Graph(1, []))
@settings(max_examples=40)
def test_pointer_doubling_depths_match_parent_walk(g):
    tree = grow_discrete(g, 0, stream_for(23, g.n, g.m))
    assert tree.depths().tolist() == walk_depths(tree.parent)
    second = np.where(tree.parent < 0, -1, tree.parent + g.n)  # a copy on n..2n-1
    forest = np.concatenate([tree.parent, second])
    assert _forest_depths(forest).tolist() == walk_depths(forest)


def test_pointer_doubling_rejects_a_cycle():
    with pytest.raises(GrowthCertificateError):
        _forest_depths(np.array([-1, 2, 1]))


def test_fpp_rejects_bad_weights():
    for w in ([[1.0, -0.5]], [[1.0]], [1.0, 0.5], [[1.0, np.inf]]):
        with pytest.raises(GraphError):
            grow_fpp_block(path(3), 0, w)
    block = grow_fpp_block(path(3), 0, [[1.0, 0.5]])
    with pytest.raises(GraphError):
        check_fpp_certificate(path(3), 0, [1.0, 0.5], block)


def test_certificate_detects_corruption():
    # Row 2 of a three-row block on the path 0-1-2-3 has hitting times
    # [0, 0.5, 2, 3]; each corruption must name its row, edge or vertex.
    g = path(4)
    w = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [0.5, 1.5, 1.0]])
    block = grow_fpp_block(g, 0, w)
    check_fpp_certificate(g, 0, w, block)
    for row, v, value, message in (
        (1, 0, 0.3, "row 1: root has nonzero hitting time"),
        (2, 3, 10.0, r"row 2: edge \(2, 3\) violates the triangle inequality"),
        (2, 3, 2.5, "row 2: vertex 3 is not tight through its parent"),
    ):
        dist = block.dist.copy()
        dist[row, v] = value
        with pytest.raises(GrowthCertificateError, match=message):
            check_fpp_certificate(g, 0, w, dataclasses.replace(block, dist=dist))


def test_certificate_detects_a_loose_parent():
    # Hitting times are right; only vertex 2's parent in row 2 is wrong:
    # the direct edge (0, 2) of weight 3 is not its shortest path.
    g = complete(3)
    w = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 3.0, 0.5]])
    block = grow_fpp_block(g, 0, w)
    check_fpp_certificate(g, 0, w, block)
    assert block.parent[2].tolist() == [-1, 0, 1]
    parent = block.parent.copy()
    parent[2] = [-1, 0, 0]
    loose = dataclasses.replace(block, parent=parent)
    with pytest.raises(GrowthCertificateError, match="row 2: vertex 2 is not tight"):
        check_fpp_certificate(g, 0, w, loose)


def test_fpp_deterministic_replay():
    g = complete(6)
    w1 = sample_edge_weights(g, stream_for(21, 9))
    w2 = sample_edge_weights(g, stream_for(21, 9))
    assert np.array_equal(w1, w2)
    trees = [grow_fpp_block(g, 0, w[None, :]).parent for w in (w1, w2)]
    assert np.array_equal(*trees)


# -- heights ---------------------------------------------------------------------------


@given(connected_graphs())
@settings(max_examples=30)
def test_height_bounded_by_eccentricity_and_size(g):
    stream = stream_for(17, g.n, g.m)
    for h in (
        int(grow_fpp_block(g, 0, sample_edge_weights(g, stream)[None, :]).height[0]),
        grow_discrete(g, 0, stream).height(),
    ):
        assert g.eccentricity(0) <= h <= g.n - 1
