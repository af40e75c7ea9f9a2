"""The two tree-growth processes and their exact small-graph law.

The discrete process repeatedly adds a uniformly random boundary edge
(exactly one endpoint inside the tree), drawn by rejection over *slots*,
the half-edges leaving tree vertices.  A joining vertex's CSR slice enters
as a lazy *segment* at O(1) Python cost; a batched numpy *flush* turns the
pending segments into explicit entries and drops stale ones once
rejections since the last flush exceed a fraction of the slots, and those
rejections pay for it, so a tree costs O(n + m).  On K_n no flush fires
and a tree costs about n ln n draws.  A block of trees from one stream,
as a law test draws them, shares one set-up and reads one run of
uniforms, each tree starting where the last one stopped reading.  The
continuous process assigns independent unit-rate exponential weights to
all edges and takes the shortest-path tree; by memorylessness the two
processes produce the same tree law, which the law-equivalence machinery
here verifies empirically against an exact enumeration.

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

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count as doublings

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from treegrowth.graphs import _MAX_IDS, BudgetExceededError, Graph, GraphError
from treegrowth.graphs import _forest_depths as forest_depths
from treegrowth.randomness import sample_exponential

# Cap on B * m for one block of FPP trials: the stacked graph and its outputs
# stay a few hundred kilobytes, and a graph with m above the cap runs alone.
_BLOCK_EDGES = 1 << 14

# exact_discrete_law's budget: graphs of at most this many vertices, and at
# most this many distinct partial trees after any growth step.
_LAW_MAX_VERTICES = 9
_LAW_MAX_STATES = 500_000

# grow_discrete flushes once the rejections since the last flush exceed
# max(slots // _FLUSH_SHARE, _FLUSH_MIN).  A small flush costs about as much
# as 20 draws in numpy call overhead, so the floor keeps paths and cycles
# from flushing every few draws; the share makes the rejections pay for a
# flush's O(slots) pass.  In an interleaved sweep of per-tree times, a share
# of 4 slowed Q_12 by 80%, floors of 64 and 128 slowed P_2048 and C_2048 by
# 30-70%, and shares of 8 to 32 with floors of 16 or 32 were within noise.
_FLUSH_SHARE = 16
_FLUSH_MIN = 32


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
    """:func:`graphs._forest_depths`, with parent pointers that lead to a
    cycle reported as a failed certificate."""
    try:
        return forest_depths(parent)
    except GraphError as exc:
        raise GrowthCertificateError(str(exc)) from exc


def _tree_edge_ids(g: Graph, parent: np.ndarray, root: int) -> np.ndarray:
    """Edge id of (v, parent[v]) for every v != root, row by row of ``parent``."""
    child = np.delete(np.arange(g.n), root)
    try:
        return g.edge_ids(child[None, :], parent[:, child])
    except GraphError as exc:
        raise GrowthCertificateError(
            f"a tree edge is not an edge of the graph: {exc}"
        ) from exc


def sample_edge_weights(g: Graph, stream: np.random.Generator, out=None) -> np.ndarray:
    """One unit-rate exponential weight per edge, drawn into ``out`` if given."""
    return sample_exponential(stream, g.m, out=out)


# -- discrete boundary-edge process ------------------------------------------


def grow_discrete(g: Graph, s: int, stream: np.random.Generator) -> RootedTree:
    """Grow a spanning tree from ``s`` by adding a uniform boundary edge per step.

    The sampler draws over *slots*, each a half-edge (tree end, far end)
    whose tree end has joined the tree.  A vertex joins as a lazy
    *segment*: its CSR slice, recorded in O(1) Python work, whose slots are
    its half-edges.  A flush turns every pending segment into explicit
    *entries*, one per half-edge whose far end is still outside, and drops
    the entries whose far end has joined since.  A draw picks a uniform slot
    among the entries and the segments (bisecting the segments' starting
    slots) and is rejected when the slot's far end is already in the tree.

    Every boundary edge is exactly one slot, so an accepted draw is uniform
    over the boundary.  A flush runs once the rejections since the last one
    exceed max(T // _FLUSH_SHARE, _FLUSH_MIN), T the number of slots, and
    those rejections pay for its O(T) numpy pass.  Between two flushes the
    stale slots only grow, so with a accepted draws and S stale slots at
    the end, the expected rejections are at most a S / (T - S).  Reaching
    T / 16 of them takes S >= T / 2 or T^2 <= 32 a S, so T <= 2 S + 16 a.
    Each vertex is accepted once and each half-edge is dropped as stale
    once, so flushes and rejections cost O(n + m) in expectation.

    On K_n the tree is a random recursive tree.  With k vertices in the
    tree a draw is accepted with probability (n - k)/(n - 1), so the draws
    number about sum_k (n - 1)/(n - k), about n ln n, against n(n - 1)/2
    edges.  The share outgrows the rejections, so no flush fired in trees
    on K_256 and K_1024.

    A law test grows its trees a block at a time through
    :func:`_grow_discrete_rows`, which shares the set-up and one run of
    uniforms across the block; its first tree is the one this call gives.
    """
    return RootedTree(s, _grow_discrete_rows(g, s, stream, 1)[0])


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
    # int32 while the stacked ids fit, so csr_matrix adopts them uncopied
    idx = np.int32 if b * max(n, half) < _MAX_IDS else np.int64
    offsets = np.arange(b, dtype=idx)
    indptr = np.append(
        (g.adj_indptr[:-1].astype(idx) + half * offsets[:, None]).ravel(), idx(b * half)
    )
    indices = (g.adj_indices.astype(idx, copy=False) + n * offsets[:, None]).ravel()
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
    if not 0 <= s < g.n:
        raise GraphError(f"start vertex {s} out of range")
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
    which consumes the stream exactly as c draws of m weights would; a
    block of c discrete trees shares one set-up and one run of uniforms,
    each tree reading on from where the last one stopped.
    """
    from scipy.special import chdtrc

    if isinstance(trials, bool) or not isinstance(trials, int):
        raise ValueError(f"the trial count must be an integer, got {trials!r}")
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
            parent = _grow_discrete_rows(g, s, stream, c)
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
    if len(keys) == 1:
        # A single tree: every draw is it (unknown trees raised above), and
        # chi-square with 0 degrees of freedom is undefined, not a fit.
        return LawComparison(trials, 1, tv, 1.0)
    stat = ((obs - exp) ** 2 / exp).sum()
    return LawComparison(trials, len(keys), tv, float(chdtrc(len(keys) - 1, stat)))
