"""The two tree-growth processes and their exact small-graph law.

The discrete process repeatedly adds a uniformly random boundary edge
(exactly one endpoint inside the tree), drawn by rejection from a
half-edge buffer in O(n + m) per tree.  The continuous process assigns
independent unit-rate exponential weights to all edges and takes the
shortest-path tree; by memorylessness the two processes produce the same
tree law, which the law-equivalence machinery here verifies empirically
against an exact enumeration.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse.csgraph import dijkstra

from treegrowth.graphs import BudgetExceededError, Graph, GraphError
from treegrowth.randomness import sample_exponential

# Dijkstra backend cutoff: graphs up to this size run a heap in Python, which
# avoids scipy's per-call overhead.  Both backends build the same tree, and
# the choice is deterministic in the graph so replays are stable.
_PYTHON_DIJKSTRA_MAX_N = 128


class GrowthCertificateError(RuntimeError):
    """Raised when a grown tree fails its optimality certificate."""


@dataclass(frozen=True)
class RootedTree:
    root: int
    parent: np.ndarray  # parent[v], -1 at the root
    attach_order: np.ndarray  # vertices in the order they joined

    def depths(self) -> np.ndarray:
        n = len(self.parent)
        d = np.full(n, -1, dtype=np.int64)
        d[self.root] = 0
        for v in range(n):
            if d[v] >= 0:
                continue
            chain = [v]
            u = int(self.parent[v])
            while d[u] < 0:
                chain.append(u)
                u = int(self.parent[u])
            base = int(d[u])
            for i, w in enumerate(reversed(chain), 1):
                d[w] = base + i
        return d

    def height(self) -> int:
        return int(self.depths().max())

    def edge_key(self, g: Graph) -> tuple[int, ...]:
        """Sorted edge ids of the tree, a canonical identity for law tests."""
        ids = [
            g.edge_id(int(v), int(self.parent[v]))
            for v in range(g.n)
            if v != self.root
        ]
        return tuple(sorted(ids))


def sample_edge_weights(g: Graph, stream: np.random.Generator) -> np.ndarray:
    return sample_exponential(stream, g.m)


# -- discrete boundary-edge process ------------------------------------------


def grow_discrete(g: Graph, s: int, stream: np.random.Generator) -> RootedTree:
    """Grow a spanning tree from ``s`` by adding a uniform boundary edge per step.

    Each edge enters the half-edge buffer once, as (tree end, outside end),
    when its first endpoint joins.  It goes stale when its outside end joins
    later, so a draw that lands on it is rejected; conditioned on landing on
    a live entry, the draw is uniform over the boundary.  The buffer is
    compacted before a draw when fewer than half of its entries are live, so
    a draw succeeds with probability at least 1/2.  A compaction costs at
    most twice the stale entries it drops, and each entry goes stale once,
    so the whole tree costs O(n + m).
    """
    if not 0 <= s < g.n:
        raise GraphError(f"start vertex {s} out of range")
    n = g.n
    indptr, indices = g.adj_indptr, g.adj_indices
    parent = np.empty(n, dtype=np.int64)  # every vertex but s is assigned
    parent[s] = -1
    outside = np.ones(n, dtype=bool)
    attach = np.empty(n, dtype=np.int64)
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
        attach[step] = v
        nb = indices[indptr[v] : indptr[v + 1]]
        out = nb[outside[nb]]
        k = out.size
        tree_end[size : size + k] = v
        out_end[size : size + k] = out
        size += k
        live += 2 * k - nb.size  # v's edges into the tree are no longer boundary
    return RootedTree(s, parent, attach)


# -- first-passage percolation ---------------------------------------------------


@dataclass(frozen=True)
class FppResult:
    tree: RootedTree
    hitting: np.ndarray  # weighted distance from the root to each vertex
    cover_time: float  # max hitting time
    longest_weighted_path_edges: int  # tree depth of the last vertex reached
    height: int  # tree depth of the deepest vertex


def _dijkstra_python(g: Graph, s: int, w: np.ndarray):
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


def grow_fpp(g: Graph, s: int, weights, check: bool = False) -> FppResult:
    if not 0 <= s < g.n:
        raise GraphError(f"start vertex {s} out of range")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (g.m,):
        raise GraphError(f"need {g.m} edge weights, got shape {w.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise GraphError("edge weights must be finite and non-negative")
    if g.n <= _PYTHON_DIJKSTRA_MAX_N:
        dist, parent = _dijkstra_python(g, s, w)
    else:
        dist, pred = dijkstra(g.weight_csr(w), indices=s, return_predecessors=True)
        parent = pred.astype(np.int64)
        parent[parent == -9999] = -1
    order = np.argsort(dist, kind="stable")
    tree = RootedTree(s, parent, order)
    if check:
        _check_fpp_certificate(g, w, dist, tree)
    far = int(np.argmax(dist))
    depths = tree.depths()
    return FppResult(
        tree, dist, float(dist[far]), int(depths[far]), int(depths.max())
    )


def _check_fpp_certificate(g: Graph, w, dist, tree) -> None:
    tol = 1e-9
    if dist[tree.root] != 0.0:
        raise GrowthCertificateError("root has nonzero hitting time")
    u, v = g.edges[:, 0], g.edges[:, 1]
    slack = np.abs(dist[u] - dist[v]) - w
    if np.any(slack > tol):
        e = int(np.argmax(slack))
        raise GrowthCertificateError(
            f"edge {tuple(g.edges[e])} violates the triangle inequality"
        )
    for x in range(g.n):
        p = int(tree.parent[x])
        if p < 0:
            continue
        expected = dist[p] + w[g.edge_id(x, p)]
        if abs(dist[x] - expected) > tol:
            raise GrowthCertificateError(f"vertex {x} is not tight through its parent")
    d_sorted = dist[tree.attach_order]
    if np.any(np.diff(d_sorted) < -tol):
        raise GrowthCertificateError("attach order is not monotone in hitting time")


# -- exact law on small graphs ------------------------------------------------------


def exact_discrete_law(
    g: Graph, s: int, max_vertices: int = 9, max_states: int = 500_000
) -> dict[tuple[int, ...], Fraction]:
    """Distribution over final spanning trees (as sorted edge-id tuples).

    Exhaustive over growth histories, grouped by partial tree, so the cost
    is bounded by the number of distinct subtrees rather than histories.
    """
    if g.n > max_vertices:
        raise BudgetExceededError(f"exact law limited to {max_vertices} vertices")
    eu, ev = g.edges[:, 0], g.edges[:, 1]
    current: dict[frozenset, tuple[Fraction, frozenset]] = {
        frozenset(): (Fraction(1), frozenset({s}))
    }
    for _ in range(g.n - 1):
        nxt: dict[frozenset, tuple[Fraction, frozenset]] = {}
        for state, (p, verts) in current.items():
            boundary = [
                e
                for e in range(g.m)
                if (int(eu[e]) in verts) != (int(ev[e]) in verts)
            ]
            q = p * Fraction(1, len(boundary))
            for e in boundary:
                ns = state | {e}
                new_vert = int(eu[e]) if int(eu[e]) not in verts else int(ev[e])
                if ns in nxt:
                    nxt[ns] = (nxt[ns][0] + q, nxt[ns][1])
                else:
                    nxt[ns] = (q, verts | {new_vert})
            if len(nxt) > max_states:
                raise BudgetExceededError("exact law state budget exceeded")
        current = nxt
    law = {tuple(sorted(state)): p for state, (p, _) in current.items()}
    assert sum(law.values()) == 1
    return law


@dataclass(frozen=True)
class LawComparison:
    trials: int
    support: int
    tv_distance: float
    chi2_pvalue: float


def law_equivalence_test(
    g: Graph,
    s: int,
    trials: int,
    stream: np.random.Generator,
    process: str = "discrete",
) -> LawComparison:
    """Empirical tree distribution of a process vs the exact discrete law."""
    from scipy import stats

    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if process not in ("discrete", "fpp"):
        raise ValueError(f"unknown process {process!r}")
    law = exact_discrete_law(g, s)
    counts: Counter = Counter()
    for _ in range(trials):
        if process == "discrete":
            tree = grow_discrete(g, s, stream)
        else:
            tree = grow_fpp(g, s, sample_edge_weights(g, stream)).tree
        counts[tree.edge_key(g)] += 1
    unknown = set(counts) - set(law)
    if unknown:
        raise GrowthCertificateError(
            f"observed {len(unknown)} trees outside the exact support"
        )
    keys = sorted(law)
    obs = np.array([counts.get(k, 0) for k in keys], dtype=np.float64)
    exp = np.array([float(law[k]) * trials for k in keys])
    tv = 0.5 * float(np.abs(obs - exp).sum()) / trials
    chi2 = stats.chisquare(f_obs=obs, f_exp=exp)
    return LawComparison(trials, len(keys), tv, float(chi2.pvalue))
