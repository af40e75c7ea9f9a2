"""Small graph builders, hypothesis strategies and exact references shared
across test modules."""

from dataclasses import dataclass

import networkx as nx
import numpy as np
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from treegrowth.graphs import _BOUNDARY_SCAN_MAX_N, BudgetExceededError, Graph, GraphError


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
