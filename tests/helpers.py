"""Small graph builders, hypothesis strategies and exact references shared
across test modules."""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, count as doublings

import networkx as nx
import numpy as np
from hypothesis import strategies as st
from scipy import stats
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from treegrowth import growth
from treegrowth.graphs import _BOUNDARY_SCAN_MAX_N, BudgetExceededError, Graph, GraphError
from treegrowth.randomness import stream_for


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def bfs_diameter(g: Graph) -> int:
    """Exact diameter by a breadth-first search from every vertex: the
    oracle for each family's declared diameter.  A search visits vertices
    in order of distance, so the source's eccentricity is the depth of the
    last vertex it visits, counted back along the predecessors."""
    adjacency = csr_matrix(
        (np.ones(g.adj_indices.size), g.adj_indices, g.adj_indptr), shape=(g.n, g.n)
    )
    best = 0
    for source in range(g.n):
        order, pred = breadth_first_order(
            adjacency, source, directed=True, return_predecessors=True
        )
        v, hops = order[-1], 0
        while v != source:
            v, hops = pred[v], hops + 1
        best = max(best, hops)
    return best


def to_networkx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from((int(u), int(v)) for u, v in g.edges)
    return G


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 8):
    """Random spanning tree plus a random subset of extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pool = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    if pool:
        edges.update(draw(st.lists(st.sampled_from(pool), unique=True)))
    return Graph(n, sorted(edges))


@dataclass(frozen=True)
class SetChain:
    """Exact laws of the growth from one start vertex."""

    cover_mean: float
    cover_var: float
    hitting_mean: np.ndarray  # (n,) E[T_v], the time vertex v joins
    parent: np.ndarray  # (n, n) P(parent(v) = u) at [v, u]


def exact_set_chain(g: Graph, s: int) -> SetChain:
    """Cover-time mean and variance, hitting-time means and parent marginals
    of the FPP process from ``s``, exactly, by one forward pass over the
    reached sets.

    By memorylessness the reached set S is a Markov chain: it holds for an
    Exp(|boundary of S|) time, then a uniform boundary edge (u, v) joins v
    with parent u.  The discrete process walks the same chain without the
    clock, so it has the same parent marginals.  The pass goes one set size
    at a time and carries, per connected set S containing s, the chance
    P(S) of passing through it and E[T; S] and E[T**2; S] of the time T it
    is entered.  A vertex v is reached after the time spent in the sets
    without it, so E[T_v] sums P(S) / |boundary of S| over them, and
    P(parent(v) = u) sums the same over the sets holding u and not v.  The
    sets containing s number up to 2**(n - 1), so n is held to the one
    limit on such scans, ``graphs._BOUNDARY_SCAN_MAX_N``.
    """
    n = g.n
    if not 0 <= s < n:
        raise GraphError(f"start vertex {s} out of range")
    if n > _BOUNDARY_SCAN_MAX_N:
        raise BudgetExceededError(
            f"exact set chain over n={n} exceeds n<={_BOUNDARY_SCAN_MAX_N}"
        )
    bit = np.left_shift(1, np.arange(n, dtype=np.int64))
    adj = np.zeros((n, n), dtype=bool)
    adj[g.edges[:, 0], g.edges[:, 1]] = adj[g.edges[:, 1], g.edges[:, 0]] = True
    neighbours = adj @ bit
    sets, p, m1, m2 = bit[[s]], np.ones(1), np.zeros(1), np.zeros(1)
    hitting, parent = np.zeros(n), np.zeros((n, n))
    for _ in range(n - 1):
        outside = (sets[:, None] & bit) == 0
        edges_in = np.bitwise_count(sets[:, None] & neighbours) * outside
        rate = edges_in.sum(axis=1)
        if not rate.all():
            raise GraphError("graph is not connected")
        held = p / rate  # E[time spent in S; S]
        hitting += held @ outside
        parent += np.einsum("k,kv,ku->vu", held, outside, ~outside) * adj
        # Entering S + v after the holding time H: E[T + H; S] and
        # E[(T + H)**2; S] = E[T**2; S] + 2 E[T + H; S] / rate.
        m1 += held
        m2 += 2 * m1 / rate
        k, v = np.nonzero(edges_in)
        step = edges_in[k, v] / rate[k]
        sets, to = np.unique(sets[k] | bit[v], return_inverse=True)
        p, m1, m2 = (np.bincount(to, weights=x[k] * step) for x in (p, m1, m2))
    return SetChain(float(m1[0]), float(m2[0] - m1[0] ** 2), hitting, parent)


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


def homogeneity_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Chi-square p-value that two equal-sized samples of integers share one
    law.  Adjacent values are pooled, in order, until each bin holds at
    least 10 of the pooled draws, so each sample expects at least 5 there;
    a short last run joins the bin before it."""
    values, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    tops, run = [], 0
    for value, c in zip(values.tolist(), counts.tolist()):
        run += c
        if run >= 10:
            tops.append(value)
            run = 0
    if len(tops) < 2:
        return 1.0
    table = [np.bincount(np.searchsorted(tops[:-1], x), minlength=len(tops)) for x in (a, b)]
    return stats.chi2_contingency(table, correction=False).pvalue


def leaf_counts(parents: np.ndarray) -> np.ndarray:
    """Leaves of each tree in a (trees, n) parent array, -1 at the root."""
    rows, child = np.nonzero(parents >= 0)
    has_child = np.zeros(parents.shape, dtype=bool)
    has_child[rows, parents[rows, child]] = True
    return parents.shape[1] - has_child.sum(axis=1)


def paired_tree_shapes(g: Graph, seed: int, experiment: int, trees: int):
    """Heights and leaf counts of ``trees`` discrete and ``trees`` FPP
    trees from vertex 0, as ((discrete, fpp) heights, (discrete, fpp)
    leaves).  Trial t grows its discrete tree with ``grow_discrete`` on
    stream (seed, experiment, t, 1) and its FPP tree with
    ``grow_fpp_block`` on weights from stream (seed, experiment, t, 0),
    the channels of a ``both`` campaign."""
    grown = [growth.grow_discrete(g, 0, stream_for(seed, experiment, t, 1))
             for t in range(trees)]
    weights = np.empty((trees, g.m))
    for t in range(trees):
        growth.sample_edge_weights(g, stream_for(seed, experiment, t, 0), out=weights[t])
    size = growth.block_size(g)
    blocks = [growth.grow_fpp_block(g, 0, weights[t:t + size]) for t in range(0, trees, size)]
    heights = (np.array([tree.height() for tree in grown]),
               np.concatenate([block.height for block in blocks]))
    leaves = (leaf_counts(np.array([tree.parent for tree in grown])),
              leaf_counts(np.concatenate([block.parent for block in blocks])))
    return heights, leaves


# -- the discrete sampler's former loop ----------------------------------------
#
# The loop ``growth._grow_discrete_rows`` ran before it became one pass per
# tree, kept verbatim with its ``_flush`` as the oracle the new loop must
# match row for row and uniform for uniform.  It re-enters its draw loop at
# every join, recomputes the flush limit there and appends each segment's
# length.  A test that lowers the flush floor patches ``_FLUSH_MIN`` here
# as well as in ``growth``.

_FLUSH_SHARE, _FLUSH_MIN = growth._FLUSH_SHARE, growth._FLUSH_MIN


def _grow_discrete_rows(
    g: Graph, s: int, stream: np.random.Generator, count: int
) -> np.ndarray:
    """Parents of ``count`` independent discrete trees from ``s``, one row
    per tree.

    The block reads one run of uniforms from ``stream``, drawn in batches
    of 2(n - 1), 4(n - 1), 8(n - 1), ... as it needs them.  Tree k starts
    at the uniform after the last one tree k - 1 read, so nothing is
    skipped and row 0 is the tree :func:`grow_discrete` grows on the same
    stream.  A tree ends at a stopping time of the run, so the uniforms
    after it are fresh and the rows are i.i.d.
    """
    if not 0 <= s < g.n:
        raise GraphError(f"start vertex {s} out of range")
    n = g.n
    indptr, indices = memoryview(g.adj_indptr), memoryview(g.adj_indices)
    edge_ids, ends = memoryview(g.adj_edge_ids), memoryview(g.edges.reshape(-1))
    rows = np.empty((count, n), dtype=np.int64)
    parent = memoryview(rows.reshape(-1))
    no_entries = np.empty(0, dtype=np.int64)
    draws = chain.from_iterable(
        stream.random(2 * (n - 1) << k).tolist() for k in doublings()
    )
    for k in range(count):
        row = k * n
        parent[row + s] = -1
        outside = bytearray(b"\x01") * n
        outside[s] = 0
        # Entries are slots 0 .. size - 1, each a CSR position.  Segment j is
        # the CSR slice of vertex seg_vertex[j]: seg_len[j] slots from
        # seg_start[j] on, slot i being the CSR position i + seg_shift[j].
        entry_pos, entries, size = no_entries, None, 0
        seg_vertex, seg_start, seg_shift = [s], [0], [indptr[s]]
        total = indptr[s + 1] - indptr[s]
        seg_len = [total]
        rejects, limit = 0, max(total // _FLUSH_SHARE, _FLUSH_MIN)
        for _ in range(n - 1):
            for x in draws:
                i = int(x * total)
                if i < size:
                    pos = entries[i]
                    v = indices[pos]
                    if outside[v]:
                        e = 2 * edge_ids[pos]
                        u = ends[e] + ends[e + 1] - v  # the edge's other end
                        break
                else:
                    j = bisect_right(seg_start, i) - 1
                    v = indices[i + seg_shift[j]]
                    if outside[v]:
                        u = seg_vertex[j]
                        break
                rejects += 1
                if rejects > limit:
                    entry_pos = _flush(
                        outside, g.adj_indices, entry_pos, seg_shift, seg_len, total
                    )
                    entries = memoryview(entry_pos)
                    size = total = entry_pos.size
                    seg_vertex, seg_start, seg_shift, seg_len = [], [], [], []
                    rejects, limit = 0, max(total // _FLUSH_SHARE, _FLUSH_MIN)
            parent[row + v] = u
            outside[v] = 0
            lo, hi = indptr[v], indptr[v + 1]
            seg_vertex.append(v)
            seg_start.append(total)
            seg_shift.append(lo - total)
            seg_len.append(hi - lo)
            total += hi - lo
            limit = max(total // _FLUSH_SHARE, _FLUSH_MIN)
    return rows


def _flush(outside, indices, entry_pos, seg_shift, seg_len, total):
    """CSR positions of the live slots: the entries, then every pending
    segment's half-edges, each kept when its far end is still outside."""
    segments = np.arange(entry_pos.size, total) + np.repeat(
        np.array(seg_shift, dtype=np.int64), np.array(seg_len, dtype=np.int64)
    )
    pos = np.concatenate([entry_pos, segments])
    return pos[np.frombuffer(outside, dtype=bool)[indices[pos]]]
