"""Oracles for the growth processes.

The triangle and 4-cycle laws are computed by hand and frozen; larger
cases are checked structurally (supports equal the spanning-tree count
from the matrix-tree determinant, probabilities sum to one) and
statistically against the exact enumeration.  The discrete sampler is
checked against the exact law on graphs where its flushes fire, a law
test's block of trees bit for bit against one call per tree, each call
reading on from the uniform after the last one the call before read (the
first on a fresh stream, the rest on tapes that end in NaN), and its
heights on K_n against the exact height law of random recursive trees; the
half-edge buffer sampler it replaced is kept here as an oracle with its own
exact-law check.  The batched FPP kernel is checked bit for bit against a
plain heap Dijkstra kept here as an oracle, and its heights on K_n against
the same random recursive tree law.  Both kernels give the same results bit
for bit on a graph's int32 CSR and on int64 copies of it.
"""

import dataclasses
import heapq
import math
import tracemalloc
import types
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from treegrowth import growth
from treegrowth.families import FamilySpec, build_family
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
        g.edge_ids(v, int(tree.parent[v]))  # edge must exist
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
    size = growth.block_size(g)
    for process in ("fpp", "discrete"):
        cmp = law_equivalence_test(g, 0, 3000, stream_for(5, 4), process=process)
        stream = stream_for(5, 4)
        if process == "fpp":
            parents = [
                grow_fpp_block(g, 0, sample_edge_weights(g, stream)[None, :]).parent[0]
                for _ in range(3000)
            ]
        else:
            parents = np.concatenate([
                growth._grow_discrete_rows(g, 0, stream, min(size, 3000 - start))
                for start in range(0, 3000, size)
            ])
        counts = Counter(RootedTree(0, parent).edge_key(g) for parent in parents)
        obs = np.array([counts[k] for k in keys], dtype=np.float64)
        exp = np.array([float(law[k]) * 3000 for k in keys])
        assert cmp.chi2_pvalue == stats.chisquare(f_obs=obs, f_exp=exp).pvalue


@pytest.mark.parametrize("process", ["discrete", "fpp"])
@pytest.mark.parametrize(
    "g, s",
    [(path(7), 0), (Graph(9, [(0, leaf) for leaf in range(1, 9)]), 4)],
    ids=["path7", "star8-from-a-leaf"],
)
def test_law_equivalence_on_a_tree_is_a_perfect_fit(g, s, process):
    # The graph is its only spanning tree: chi-square has 0 degrees of
    # freedom, and every draw matching the one tree is a p-value of 1.
    cmp = law_equivalence_test(g, s, 50, stream_for(5, 4), process=process)
    assert (cmp.trials, cmp.support, cmp.tv_distance, cmp.chi2_pvalue) == (50, 1, 0.0, 1.0)


def inject_discrete_sampler(monkeypatch, sampler) -> list[int]:
    """Make law tests draw their discrete trees from ``sampler``, one call
    per tree; the returned list counts the trees it grew."""
    grown = [0]

    def rows(g, s, stream, count):
        grown[0] += count
        return np.stack([sampler(g, s, stream).parent for _ in range(count)])

    monkeypatch.setattr(growth, "_grow_discrete_rows", rows)
    return grown


def test_law_equivalence_rejects_a_tree_edge_outside_the_graph(monkeypatch):
    real = growth._grow_discrete_rows

    def corrupted(g, s, stream):
        parent = real(g, s, stream, 1)[0]
        parent[2] = 0  # (0, 2) is a diagonal of the 4-cycle, not an edge
        return RootedTree(s, parent)

    grown = inject_discrete_sampler(monkeypatch, corrupted)
    with pytest.raises(GrowthCertificateError, match="not an edge"):
        law_equivalence_test(cycle(4), 0, 10, stream_for(5, 3))
    assert grown[0] == 10
    with pytest.raises(GrowthCertificateError, match="not an edge"):
        corrupted(cycle(4), 0, stream_for(5, 3)).edge_key(cycle(4))


def test_law_equivalence_rejects_no_trials_before_enumerating():
    # complete(10) is over the exact law's budget, so reaching the
    # enumeration would raise BudgetExceededError instead.  A bool and a
    # float are refused as the trial count, not run as 1 or 2.5 trials.
    for trials in (0, True, 2.5):
        with pytest.raises(ValueError, match="trial"):
            law_equivalence_test(complete(10), 0, trials, stream_for(5, 3))


@pytest.mark.parametrize("process", ["discrete", "fpp"])
@pytest.mark.parametrize("s", [4, -1])
def test_law_equivalence_rejects_a_start_out_of_range(s, process):
    g = cycle(4)
    with pytest.raises(GraphError, match=f"start vertex {s} out of range"):
        exact_discrete_law(g, s)
    with pytest.raises(GraphError, match=f"start vertex {s} out of range"):
        law_equivalence_test(g, s, 10, stream_for(5, 3), process=process)


def test_law_equivalence_rejects_unknown_process_before_enumerating():
    with pytest.raises(ValueError, match="process"):
        law_equivalence_test(complete(10), 0, 10, stream_for(5, 3), process="walk")


def grow_discrete_buffer(g: Graph, s: int, stream: np.random.Generator) -> RootedTree:
    """The half-edge buffer sampler that grow_discrete replaced.

    Each edge enters the buffer once, as (tree end, outside end), when its
    first endpoint joins, and a draw that lands on a stale entry is
    rejected.  The buffer is compacted before a draw when fewer than half
    of its entries are live.
    """
    n = g.n
    indptr, indices = g.adj_indptr, g.adj_indices
    parent = np.empty(n, dtype=np.int64)
    parent[s] = -1
    outside = np.ones(n, dtype=bool)
    tree_end = np.empty(g.m, dtype=np.int64)
    out_end = np.empty(g.m, dtype=np.int64)
    size = live = 0
    uniforms: list[float] = []
    j = 0
    v = s
    for step in range(n):
        if step:
            if 2 * live < size:
                keep = outside[out_end[:size]]
                tree_end[:live] = tree_end[:size][keep]
                out_end[:live] = out_end[:size][keep]
                size = live
            while True:
                if j == len(uniforms):
                    uniforms = stream.random(2 * (n - step)).tolist()
                    j = 0
                i = int(uniforms[j] * size)
                j += 1
                v = int(out_end[i])
                if outside[v]:
                    break
            parent[v] = tree_end[i]
        outside[v] = False
        nb = indices[indptr[v] : indptr[v + 1]]
        out = nb[outside[nb]]
        k = out.size
        tree_end[size : size + k] = v
        out_end[size : size + k] = out
        size += k
        live += 2 * k - nb.size
    return RootedTree(s, parent)


@pytest.mark.parametrize(
    "g",
    [complete(3), cycle(4), complete(4), HOUSE],
    ids=["triangle", "cycle4", "complete4", "house"],
)
def test_buffer_oracle_matches_exact_law(g, monkeypatch):
    grown = inject_discrete_sampler(monkeypatch, grow_discrete_buffer)
    cmp = law_equivalence_test(g, 0, 20_000, stream_for(5, 5))
    assert grown[0] == 20_000
    assert cmp.support == count_spanning_trees(g)
    assert cmp.tv_distance < 0.02
    assert cmp.chi2_pvalue > 1e-3


# Graphs on which grow_discrete's flushes fire, so draws land both on
# explicit entries and on segments: two trees (a path, and a star entered
# from a leaf when started there), each its own only spanning tree, and two
# graphs with cycles.  At the default floor a flush on these graphs seldom
# finds entries already there; a floor of 1 makes most flushes find some.
# The law must hold for any trigger.
FLUSH_GRAPHS = {
    "path7": path(7),
    "star8": Graph(9, [(0, leaf) for leaf in range(1, 9)]),
    "k4_with_3path": Graph(
        6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (0, 5)]
    ),
    "cycle7": cycle(7),
}


@pytest.mark.parametrize("floor", [growth._FLUSH_MIN, 1], ids=lambda f: f"floor{f}")
@pytest.mark.parametrize("name", list(FLUSH_GRAPHS))
def test_law_equivalence_where_flushes_fire(name, floor, monkeypatch):
    g = FLUSH_GRAPHS[name]
    early = onto_entries = 0  # flushes before the last join; flushes that find entries
    real = growth._flush

    def counting(outside, indices, entry_pos, *args):
        nonlocal early, onto_entries
        early += outside.count(1) >= 2
        onto_entries += entry_pos.size > 0
        return real(outside, indices, entry_pos, *args)

    monkeypatch.setattr(growth, "_flush", counting)
    monkeypatch.setattr(growth, "_FLUSH_MIN", floor)
    trees = count_spanning_trees(g)
    for s in range(g.n):
        cmp = law_equivalence_test(
            g, s, 1000 if trees == 1 else 10_000, stream_for(29, g.n, g.m, s)
        )
        assert cmp.support == trees
        if trees == 1:
            assert cmp.tv_distance == 0.0
            assert cmp.chi2_pvalue == 1.0
        else:
            assert cmp.chi2_pvalue > 1e-3
    assert early > 0
    assert onto_entries > 0 or floor > 1


class CountingStream:
    """A generator's ``random`` that counts its calls and the uniforms it
    hands out."""

    def __init__(self, stream: np.random.Generator):
        self.stream, self.calls, self.drawn = stream, 0, 0

    def random(self, size):
        self.calls += 1
        self.drawn += size
        return self.stream.random(size)


class Tape:
    """A stream that serves ``uniforms`` in order and NaN after them.  A tree
    that reads past the end raises ValueError, since ``int(nan * total)``
    does."""

    def __init__(self, uniforms: np.ndarray):
        self.uniforms, self.at = uniforms, 0

    def random(self, size):
        out = np.full(size, np.nan)
        part = self.uniforms[self.at : self.at + size]
        out[: part.size] = part
        self.at += size
        return out


def first_tree(g: Graph, s: int, uniforms: np.ndarray) -> tuple[np.ndarray, int]:
    """The parents ``grow_discrete`` grows from the head of ``uniforms``, and
    the fewest uniforms it needs to, found by doubling and then binary
    search over tapes of the head."""

    def grows(length: int) -> bool:
        try:
            grow_discrete(g, s, Tape(uniforms[:length]))
        except ValueError:
            return False
        return True

    lo = hi = g.n - 1
    while not grows(hi):
        assert hi < uniforms.size, "the tape ran out"
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if grows(mid) else (mid + 1, hi)
    return grow_discrete(g, s, Tape(uniforms[:lo])).parent, lo


def assert_rows_match_calls(g: Graph, s: int, count: int, seed: tuple) -> int:
    """A block of ``count`` trees from ``_grow_discrete_rows`` equals
    sequential ``grow_discrete`` calls that each read on from the uniform
    after the last one the call before read: row 0 is the call on a fresh
    stream of the same seed, and row k the first tree grown from the
    uniforms after those rows 0 .. k - 1 read.  Returns the number of
    batches the block drew from its stream."""
    block = CountingStream(stream_for(*seed))
    rows = growth._grow_discrete_rows(g, s, block, count)
    assert rows.dtype == np.int64
    np.testing.assert_array_equal(rows[0], grow_discrete(g, s, stream_for(*seed)).parent)
    uniforms, at = stream_for(*seed).random(block.drawn), 0
    for k, row in enumerate(rows):
        parent, read = first_tree(g, s, uniforms[at:])
        np.testing.assert_array_equal(row, parent, err_msg=f"tree {k}")
        at += read
    return block.calls


@pytest.mark.parametrize(
    "g, count",
    [(HOUSE, growth.block_size(HOUSE)), (cycle(4), growth.block_size(cycle(4))),
     (complete(64), 5)],
    ids=["house", "cycle4", "complete64"],
)
def test_discrete_rows_match_sequential_calls(g, count):
    # The block reads past its first batch, so trees run across batches.
    assert assert_rows_match_calls(g, 0, count, (31, g.n, g.m)) > 1


@pytest.mark.parametrize("floor", [growth._FLUSH_MIN, 1], ids=lambda f: f"floor{f}")
@pytest.mark.parametrize("name", list(FLUSH_GRAPHS))
def test_discrete_rows_match_sequential_calls_where_flushes_fire(name, floor, monkeypatch):
    g = FLUSH_GRAPHS[name]
    monkeypatch.setattr(growth, "_FLUSH_MIN", floor)
    for s in range(g.n):
        assert_rows_match_calls(g, s, 200, (31, g.n, g.m, s))


def int64_copy(g: Graph) -> types.SimpleNamespace:
    """A duck-typed stand-in for ``g`` that carries int64 copies of its
    arrays, where a graph stores its CSR columns and edge ids as int32."""
    return types.SimpleNamespace(
        n=g.n, m=g.m, edges=g.edges.copy(), adj_indptr=g.adj_indptr.copy(),
        adj_indices=g.adj_indices.astype(np.int64),
        adj_edge_ids=g.adj_edge_ids.astype(np.int64),
    )


DTYPE_GRAPHS = {
    "complete64": complete(64),
    "cube8": build_family(FamilySpec("grid", {"d": 8, "k": 1}))[0],
    "house": HOUSE,
    "path64": build_family(FamilySpec("grid", {"d": 1, "k": 63}))[0],
}


@pytest.mark.parametrize("name", list(DTYPE_GRAPHS))
def test_kernels_agree_bit_for_bit_on_int64_and_int32_csr(name, monkeypatch):
    g = DTYPE_GRAPHS[name]
    wide = int64_copy(g)
    assert g.adj_indices.dtype == g.adj_edge_ids.dtype == np.int32
    assert wide.adj_indices.dtype == wide.adj_edge_ids.dtype == np.int64
    flushes = 0
    real = growth._flush

    def counting(*args):
        nonlocal flushes
        flushes += 1
        return real(*args)

    monkeypatch.setattr(growth, "_flush", counting)
    rows = growth._grow_discrete_rows(g, 0, stream_for(1, g.n, g.m), 3)
    np.testing.assert_array_equal(
        rows, growth._grow_discrete_rows(wide, 0, stream_for(1, g.n, g.m), 3)
    )
    if name == "path64":  # the path's trees run through flushes
        assert flushes > 0
    w = sample_exponential(stream_for(1, g.n, g.m), (3, g.m))
    block, wide_block = grow_fpp_block(g, 0, w), grow_fpp_block(wide, 0, w)
    for field in ("dist", "parent", "depth"):
        np.testing.assert_array_equal(getattr(block, field), getattr(wide_block, field))


@pytest.mark.parametrize("name", list(DTYPE_GRAPHS))
def test_fpp_block_agrees_bit_for_bit_on_int64_and_int32_stacked_csr(name, monkeypatch):
    # The stacked CSR is int32 while its ids fit; a zero limit forces the
    # int64 arrays a block past 2**31 stacked ids would use.
    g = DTYPE_GRAPHS[name]
    w = sample_exponential(stream_for(2, g.n, g.m), (5, g.m))
    seen = []
    real = growth.csr_matrix

    def spy(arg, **kwargs):
        seen.append((arg[1].dtype, arg[2].dtype))
        return real(arg, **kwargs)

    monkeypatch.setattr(growth, "csr_matrix", spy)
    block = grow_fpp_block(g, 0, w)
    monkeypatch.setattr(growth, "_MAX_IDS", 0)
    wide_block = grow_fpp_block(g, 0, w)
    assert seen == [(np.int32, np.int32), (np.int64, np.int64)]
    for field in ("dist", "parent", "depth"):
        np.testing.assert_array_equal(getattr(block, field), getattr(wide_block, field))


def test_discrete_tree_holds_one_batch_at_a_time():
    # One tree on K_2048 reads about n ln n uniforms in batches of 2(n - 1),
    # 4(n - 1), ...; only the batch being read is held, as a Python list of
    # floats of 32 bytes each.  The peak reads 5.1 * 96n bytes; holding
    # every batch drawn, spent ones included, read 7.1 * 96n.
    g, _ = build_family(FamilySpec("complete", {"n": 2048}))
    tracemalloc.start()
    try:
        grow_discrete(g, 0, stream_for(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 96 * g.n


def rrt_height_cdf(n: int, one=1.0, tail: float = 0.0) -> list:
    """P(H_n <= h) for h = 0, 1, ..., H_n the height of a random recursive
    tree on n vertices (the discrete tree on K_n, Pittel 1994).

    Recursive trees of height at most h have the exponential generating
    function T_h, with T_0 = z and T_h' = exp(T_{h-1}) (Drmota, *Random
    Trees*, 2009), so P(H_n <= h) = [z^(n-1)] exp(T_{h-1}).  Series are
    cut at degree n - 1 and every term is non-negative, so nothing cancels.
    Pass ``one=Fraction(1)`` for exact values.  The list stops once
    1 - P(H_n <= h) is at most ``tail``, and at h = n - 1 in any case.
    """
    top = n - 1
    t = [one * 0] * (top + 1)  # T_0 = z
    if top:
        t[1] = one
    cdf = [one if n == 1 else one * 0]
    for _ in range(top):
        e = [one] + [one * 0] * top  # exp(T_{h-1}) by b_k = sum_j j a_j b_{k-j} / k
        for k in range(1, top + 1):
            e[k] = sum(j * t[j] * e[k - j] for j in range(1, k + 1)) / k
        cdf.append(e[top])
        if 1 - cdf[-1] <= tail:
            break
        t = [one * 0] + [e[k - 1] / k for k in range(1, top + 1)]
    return cdf


def tree_height(g: Graph, key: tuple[int, ...], root: int) -> int:
    """Height of the spanning tree with edge ids ``key``, rooted at ``root``."""
    adj: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for e in key:
        u, v = (int(x) for x in g.edges[e])
        adj[u].append(v)
        adj[v].append(u)
    seen, frontier, height = {root}, [root], -1
    while frontier:
        height += 1
        frontier = [w for v in frontier for w in adj[v] if w not in seen]
        seen.update(frontier)
    return height


@pytest.mark.parametrize("n", range(1, 7))
def test_rrt_height_law_matches_exact_law_on_complete_graphs(n):
    g = complete(n)
    exact = [Fraction(0)] * n
    for key, p in exact_discrete_law(g, 0).items():
        exact[tree_height(g, key, 0)] += p
    cdf = rrt_height_cdf(n, Fraction(1))
    assert len(cdf) == n and cdf[-1] == 1
    assert [cdf[0]] + [b - a for a, b in zip(cdf, cdf[1:])] == exact


def test_rrt_height_law_known_values():
    assert rrt_height_cdf(3, Fraction(1)) == [0, Fraction(1, 2), 1]
    n = 256
    cdf = rrt_height_cdf(n, tail=1e-15)
    pmf = np.diff(cdf, prepend=0.0)
    h = np.arange(len(cdf))
    mean = float(pmf @ h)
    sd = math.sqrt(float(pmf @ h**2) - mean**2)
    assert mean / math.log(n) == pytest.approx(1.9222, abs=5e-5)
    assert sd == pytest.approx(1.424, abs=5e-4)


def rrt_height_pvalue(heights: np.ndarray, n: int) -> float:
    """Chi-square p-value of tree heights on K_n against the random
    recursive tree's height law, binned so every bin expects at least 5."""
    trials = heights.size
    cdf = np.array(rrt_height_cdf(n, tail=1e-12))
    cuts = np.flatnonzero((cdf * trials >= 5) & ((1 - cdf) * trials >= 5))
    edges = np.concatenate([[-1], cuts, [n]])  # bins (edges[i], edges[i + 1]]
    expected = np.diff(np.concatenate([[0.0], cdf[cuts], [1.0]])) * trials
    observed = np.histogram(heights, bins=edges + 0.5)[0]
    assert observed.sum() == trials
    return stats.chisquare(observed, expected).pvalue


@pytest.mark.parametrize(
    "sampler, n, trials",
    [(grow_discrete, 64, 2000), (grow_discrete, 256, 1000), (grow_discrete_buffer, 64, 2000)],
    ids=["segments-64", "segments-256", "buffer-64"],
)
def test_discrete_height_on_complete_graph_matches_exact_law(sampler, n, trials):
    # On K_n every outside vertex has one boundary edge to each tree vertex,
    # so the new vertex's parent is uniform over the tree: a random
    # recursive tree.
    g = complete(n)
    heights = np.array([sampler(g, 0, stream_for(19, n, t)).height() for t in range(trials)])
    assert rrt_height_pvalue(heights, n) > 1e-3


def test_fpp_height_on_complete_graph_matches_exact_law():
    # FPP on K_n joins vertices in order of passage time, and by
    # memorylessness each new vertex's parent is uniform over the tree: the
    # same random recursive tree as the discrete process.
    n, trials = 64, 2000
    g = complete(n)
    size = growth.block_size(g)
    stream = stream_for(37, n)
    heights = np.concatenate([
        grow_fpp_block(g, 0, sample_exponential(stream, (min(size, trials - t), g.m))).height
        for t in range(0, trials, size)
    ])
    assert rrt_height_pvalue(heights, n) > 1e-3


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
