"""The two tree-growth processes and their exact small-graph law.

The discrete process repeatedly adds a uniformly random boundary edge
(exactly one endpoint inside the tree), drawn by rejection from a
half-edge buffer in O(n + m) per tree.  The continuous process assigns
independent unit-rate exponential weights to all edges and takes the
shortest-path tree; by memorylessness the two processes produce the same
tree law, which the law-equivalence machinery here verifies empirically
against an exact enumeration.

All shortest-path trees come from one kernel, :func:`grow_fpp_block`: a
block of B weight draws is stacked into one block-diagonal graph and solved
by a single multi-source scipy Dijkstra call, and depths come from pointer
doubling over the parent arrays.  The block is capped at ``_BLOCK_EDGES``
stacked edges so its memory stays bounded whatever the trial count.  Trees
in a block never interact, and each tree is the same as a lone solve would
give: with continuous weights, two different paths tie with probability
zero, so every vertex has a unique shortest path whatever order the heap
settles vertices in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from treegrowth.graphs import BudgetExceededError, Graph, GraphError
from treegrowth.randomness import sample_exponential

# Cap on B * m for one block of FPP trials: the stacked graph and its outputs
# stay a few hundred kilobytes, and a graph with m above the cap runs alone.
_BLOCK_EDGES = 1 << 14

# exact_discrete_law's budget: graphs of at most this many vertices, and at
# most this many distinct partial trees after any growth step.
_LAW_MAX_VERTICES = 9
_LAW_MAX_STATES = 500_000


class GrowthCertificateError(RuntimeError):
    """Raised when a grown tree fails its optimality certificate."""


@dataclass(frozen=True)
class RootedTree:
    root: int
    parent: np.ndarray  # parent[v], -1 at the root

    def depths(self) -> np.ndarray:
        return _forest_depths(self.parent)

    def height(self) -> int:
        return int(self.depths().max())

    def edge_key(self, g: Graph) -> tuple[int, ...]:
        """Sorted edge ids of the tree, a canonical identity for law tests."""
        ids = _tree_edge_ids(g, self.parent[None, :], self.root)[0]
        return tuple(sorted(ids.tolist()))


def _forest_depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every vertex of a forest given by parent pointers, -1 at roots.

    Pointer doubling (Wyllie's list ranking): each round adds the depth
    gained so far at a vertex's pointer and then jumps the pointer twice as
    far, so a tree of height h takes about log2(h) rounds of numpy work.
    """
    size = parent.size
    root = parent < 0
    nxt = np.where(root, np.arange(size), parent)
    depth = (~root).astype(np.int64)
    for _ in range(size.bit_length() + 1):
        if root[nxt].all():
            return depth
        depth += depth[nxt]
        nxt = nxt[nxt]
    raise GrowthCertificateError("parent pointers do not all lead to a root")


def _tree_edge_ids(g: Graph, parent: np.ndarray, root: int) -> np.ndarray:
    """Edge id of (v, parent[v]) for every v != root, row by row of ``parent``."""
    child = np.delete(np.arange(g.n), root)
    try:
        return g.edge_ids(child[None, :], parent[:, child])
    except GraphError as exc:
        raise GrowthCertificateError(
            f"a tree edge is not an edge of the graph: {exc}"
        ) from exc


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
        live += 2 * k - nb.size  # v's edges into the tree are no longer boundary
    return RootedTree(s, parent)


# -- first-passage percolation ---------------------------------------------------


def block_size(g: Graph) -> int:
    """Trials per FPP block on ``g``."""
    return max(1, _BLOCK_EDGES // max(g.m, 1))


@dataclass(frozen=True)
class FppBlock:
    """Shortest-path trees of a block of B weight draws, one row per draw."""

    dist: np.ndarray  # (B, n) weighted distance from the root
    parent: np.ndarray  # (B, n) parent in the tree, -1 at the root
    depth: np.ndarray  # (B, n) depth in the tree

    @property
    def height(self) -> np.ndarray:
        """(B,) depth of the deepest vertex."""
        return self.depth.max(axis=1)

    @property
    def cover_time(self) -> np.ndarray:
        """(B,) hitting time of the last vertex reached."""
        return self.dist.max(axis=1)

    @property
    def longest_weighted_path_edges(self) -> np.ndarray:
        """(B,) depth of the last vertex reached, the first one on a tie."""
        far = self.dist.argmax(axis=1)
        return self.depth[np.arange(far.size), far]


def grow_fpp_block(g: Graph, s: int, weights) -> FppBlock:
    """Shortest-path trees from ``s`` for each row of a (B, m) weight matrix.

    The B copies of the graph are stacked into one block-diagonal CSR, copy
    b on vertices b*n .. b*n + n - 1, and solved by one multi-source
    Dijkstra: with ``min_only`` each vertex keeps the tree of the only
    source it can reach, its own copy's root.
    """
    if not 0 <= s < g.n:
        raise GraphError(f"start vertex {s} out of range")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != g.m:
        raise GraphError(f"need (B, {g.m}) edge weights, got shape {w.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise GraphError("edge weights must be finite and non-negative")
    b, n, half = w.shape[0], g.n, g.adj_indices.size
    offsets = np.arange(b, dtype=np.int64)
    indptr = np.append((g.adj_indptr[:-1] + half * offsets[:, None]).ravel(), b * half)
    indices = (g.adj_indices + n * offsets[:, None]).ravel()
    data = w[:, g.adj_edge_ids].ravel()
    stacked = csr_matrix((data, indices, indptr), shape=(b * n, b * n))
    dist, pred, _ = dijkstra(
        stacked, indices=s + n * offsets, min_only=True, return_predecessors=True
    )
    pred = pred.astype(np.int64)
    root = pred < 0
    pred[root] = -1
    depth = _forest_depths(pred)
    parent = pred.reshape(b, n) - n * offsets[:, None]
    parent[root.reshape(b, n)] = -1
    return FppBlock(dist.reshape(b, n), parent, depth.reshape(b, n))


def check_fpp_certificate(g: Graph, s: int, weights, block: FppBlock) -> None:
    """Certify every row of ``block`` as the shortest-path tree of that
    row of the (B, m) weight matrix.

    With non-negative weights three checks suffice: the root is at distance
    0, no edge shortens a distance (the triangle inequality), and every
    other vertex is reached exactly through its parent edge.  Parent
    pointers without a cycle are already enforced when the kernel computes
    the block's depths.
    """
    tol = 1e-9
    w = np.asarray(weights, dtype=np.float64)
    dist, b = block.dist, block.dist.shape[0]
    if w.shape != (b, g.m):
        raise GraphError(f"need ({b}, {g.m}) edge weights, got shape {w.shape}")
    bad = np.flatnonzero(dist[:, s] != 0.0)
    if bad.size:
        raise GrowthCertificateError(f"row {bad[0]}: root has nonzero hitting time")
    u, v = g.edges[:, 0], g.edges[:, 1]
    short = np.abs(dist[:, u] - dist[:, v]) - w > tol
    if np.any(short):
        row, e = np.unravel_index(np.argmax(short), short.shape)
        raise GrowthCertificateError(
            f"row {row}: edge {tuple(g.edges[e].tolist())} violates the"
            " triangle inequality"
        )
    rows = np.arange(b)[:, None]
    child = np.delete(np.arange(g.n), s)
    parent = block.parent[:, child]
    eids = _tree_edge_ids(g, block.parent, s)
    loose = np.abs(dist[:, child] - (dist[rows, parent] + w[rows, eids])) > tol
    if np.any(loose):
        row, i = np.unravel_index(np.argmax(loose), loose.shape)
        raise GrowthCertificateError(
            f"row {row}: vertex {child[i]} is not tight through its parent"
        )


# -- exact law on small graphs ------------------------------------------------------


def exact_discrete_law(g: Graph, s: int) -> dict[tuple[int, ...], Fraction]:
    """Distribution over final spanning trees (as sorted edge-id tuples).

    Exhaustive over growth histories, grouped by partial tree, so the cost
    is bounded by the number of distinct subtrees rather than histories.
    """
    if g.n > _LAW_MAX_VERTICES:
        raise BudgetExceededError(f"exact law limited to {_LAW_MAX_VERTICES} vertices")
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
            if len(nxt) > _LAW_MAX_STATES:
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
    """Empirical tree distribution of a process vs the exact discrete law.

    Trees are drawn in blocks of ``block_size(g)`` and each is counted by
    its edge set as a bitmask (the exact law is limited to small graphs, so
    m stays far below 63).  FPP weights for a block are one (c, m) draw,
    which consumes the stream exactly as c draws of m weights would.
    """
    from scipy.special import chdtrc

    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if process not in ("discrete", "fpp"):
        raise ValueError(f"unknown process {process!r}")
    law = exact_discrete_law(g, s)
    bits = np.left_shift(1, np.arange(g.m, dtype=np.int64))
    counts: Counter = Counter()
    size = block_size(g)
    for start in range(0, trials, size):
        c = min(size, trials - start)
        if process == "discrete":
            parent = np.stack([grow_discrete(g, s, stream).parent for _ in range(c)])
        else:
            parent = grow_fpp_block(g, s, sample_exponential(stream, (c, g.m))).parent
        masks = np.bitwise_or.reduce(bits[_tree_edge_ids(g, parent, s)], axis=1)
        counts.update(dict(zip(*np.unique(masks, return_counts=True))))
    keys = sorted(law)
    law_masks = [sum(1 << e for e in k) for k in keys]
    unknown = set(counts) - set(law_masks)
    if unknown:
        raise GrowthCertificateError(
            f"observed {len(unknown)} trees outside the exact support"
        )
    obs = np.array([counts.get(k, 0) for k in law_masks], dtype=np.float64)
    exp = np.array([float(law[k]) * trials for k in keys])
    if obs.sum() != trials or abs(exp.sum() - trials) > 1e-8 * trials:
        raise ValueError("observed and expected counts must both sum to the trials")
    tv = 0.5 * float(np.abs(obs - exp).sum()) / trials
    stat = ((obs - exp) ** 2 / exp).sum()
    return LawComparison(trials, len(keys), tv, float(chdtrc(len(keys) - 1, stat)))
