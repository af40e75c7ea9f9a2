"""Static undirected graphs plus the geometry and boundary queries the
growth experiments need.

A :class:`Graph` is immutable after construction: edges are canonicalized
(u < v, lexicographically sorted) and the CSR adjacency used by the
traversal routines is built exactly once, in O(m) passes plus at most two
stable sorts: one of the edge keys, only when the input is not already
canonical, and one of the half-edges by row.  A graph keeps four words
per edge: the int64 edge array (two) and the CSR's int32 columns and edge
ids (one each), and a fifth once edge ids are looked up.  The scipy
structure matrix the breadth-first searches run on is built by each query
that needs it, shares the CSR's columns and is freed when the query
returns.  All randomness lives elsewhere; everything in this module is
deterministic.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra


_DIAMETER_SOURCES = 512  # BFS sources per call in Graph.diameter
_MAX_IDS = 2**31  # vertex ids 0..n-1 and edge ids 0..m-1 are stored as int32


class GraphError(ValueError):
    """Raised for malformed graph input."""


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive search would exceed its configured budget."""


_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount_u64(x: np.ndarray) -> np.ndarray:
    """Set bits of each entry of a 1-D uint64 array, as int64: one table
    lookup per byte, so it needs no numpy 2 ``bitwise_count``."""
    per_byte = _BYTE_POPCOUNT[x.view(np.uint8)].reshape(x.size, 8)
    return per_byte.sum(axis=1, dtype=np.int64)


@dataclass(frozen=True)
class DegeneracyOrdering:
    """Peeling order plus the maximum degree seen at removal time."""

    order: tuple[int, ...]
    degeneracy: int


@dataclass(frozen=True)
class ExpansionProfile:
    """Exact boundary minima e_k and the derived expansion quantities.

    ``boundary_minima[k]`` is the minimum edge boundary over vertex subsets
    of size k.  ``expansion`` is min_{1<=k<=n//2} e_k / k and
    ``inverse_boundary_sum`` is sum_{1<=k<=n//2} 1 / e_k, both as exact
    rationals.
    """

    boundary_minima: tuple[int, ...]
    expansion: Fraction
    inverse_boundary_sum: Fraction


def _forest_depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every vertex of a forest given by parent pointers, -1 at roots.

    Pointer doubling (Wyllie's list ranking): each round adds the depth
    gained so far at a vertex's pointer and then jumps the pointer twice as
    far, so a tree of height h takes about log2(h) rounds of numpy work.
    Raises :class:`GraphError` when some pointers lead to a cycle.
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
    raise GraphError("parent pointers do not all lead to a root")


class Graph:
    """Immutable connected simple undirected graph on vertices 0..n-1.

    ``Graph(n, edges)`` takes an integer n and an (m, 2) integer array-like
    of endpoints.  It checks, in this order, that the endpoints lie in
    0..n-1, that there is no self-loop, no duplicate edge, and that the
    graph is connected, raising :class:`GraphError` otherwise.  Before
    any of these, and before the edges are copied, n above 2**31 and m of
    2**31 or more are refused, since every vertex id and edge id is stored
    as int32.

    Edges that are already canonical (``complete`` and ``ladder_H`` emit
    them) are kept as given: an int64 C-ordered array is adopted without a
    copy and made read-only.  Other input is sorted once.  The CSR comes
    from one stable sort of the half-edges by row.  The edges, row pointers
    and degrees are int64, so edge keys ``u * n + v`` computed from the
    edges cannot overflow; the CSR's columns and edge ids are int32.

    What stays resident is the edge array (2 words per edge), the CSR's
    columns and edge ids (1 word each) and O(n) row pointers and degrees,
    plus the sorted edge keys once :meth:`edge_ids` has been called.  The
    connectivity check, :meth:`bfs_distances`, :meth:`eccentricity` and
    :meth:`diameter` each build a scipy structure matrix over the CSR's
    own columns, O(n) more, and free it on return.
    """

    __slots__ = (
        "n",
        "m",
        "_edges",
        "_degrees",
        "_csr_indptr",
        "_csr_indices",
        "_csr_edge_ids",
        "_edge_keys",
    )

    def __init__(self, n: int, edges) -> None:
        try:
            n = operator.index(n)
        except TypeError:
            raise GraphError("vertex count must be an integer") from None
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        if n > _MAX_IDS:
            raise GraphError(f"{n} vertices exceed the {_MAX_IDS} that int32 ids allow")
        e = np.asarray(edges)
        if e.size == 0:
            e = np.zeros((0, 2), dtype=np.int64)
        if e.dtype.kind not in "iu":
            raise GraphError("edge endpoints must be integers")
        if e.ndim != 2 or e.shape[1] != 2:
            raise GraphError("edges must be an (m, 2) array of endpoints")
        if e.shape[0] >= _MAX_IDS:
            raise GraphError(f"{e.shape[0]} edges reach the {_MAX_IDS} that int32 ids allow")
        e = np.ascontiguousarray(e, dtype=np.int64)
        m = e.shape[0]
        if m and (e.min() < 0 or e.max() >= n):
            raise GraphError("edge endpoint out of range")
        u, v = e[:, 0], e[:, 1]
        canonical = bool(np.all(u < v))
        if not canonical:
            if np.any(u == v):
                raise GraphError("self-loops are not allowed")
            u, v = np.minimum(u, v), np.maximum(u, v)
        # Strictly ascending keys u*n + v prove the edges lexsorted and free
        # of duplicates in one pass; only input that fails it is sorted.
        keys = u * n
        keys += v
        if not np.all(keys[1:] > keys[:-1]):
            canonical = False
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            if np.any(keys[1:] == keys[:-1]):
                raise GraphError("duplicate edge")
            u, v = u[order], v[order]
        del keys
        if not canonical:
            e = np.stack([u, v], axis=1)
            u, v = e[:, 0], e[:, 1]  # views, so the oriented copies are freed

        self.n = n
        self.m = m
        self._edges = e
        self._edges.setflags(write=False)

        # A tree has n - 1 edges, so fewer cannot connect n vertices; saying
        # so here spares the arrays of size n below.
        if m < n - 1:
            raise GraphError("graph must be connected")
        # Half-edges v -> u of every edge, then u -> v of every edge.  In a
        # row the first block holds the smaller neighbours and the second the
        # larger, each ascending, so a stable sort by row leaves every slice
        # ascending; half-edge h belongs to edge h % m.
        # Rows are keyed by the narrowest type that holds n - 1, which every
        # endpoint fits: numpy's stable sort radix-sorts 8- and 16-bit keys,
        # and a stable sort gives the same permutation whatever the key type.
        rows = np.concatenate([v, u], dtype=np.min_scalar_type(n - 1), casting="unsafe")
        counts = np.bincount(rows, minlength=n)
        half = np.argsort(rows, kind="stable")
        del rows
        # Vertex and edge ids fit int32 (checked above), so the columns and
        # edge ids are gathered straight into int32 arrays, and the int64
        # permutation is freed as soon as both are made.
        self._csr_indices = np.concatenate([u, v], dtype=np.int32)[half]
        self._csr_edge_ids = np.remainder(half, m, out=np.empty(half.size, dtype=np.int32))
        del half
        self._csr_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self._csr_indptr[1:])
        self._degrees = counts
        for arr in (self._csr_indices, self._csr_edge_ids, self._csr_indptr, self._degrees):
            arr.setflags(write=False)
        self._edge_keys = None

        reached = breadth_first_order(
            self._structure(), 0, directed=True, return_predecessors=False
        )
        if reached.size != n:
            raise GraphError("graph must be connected")

    # -- basic accessors ------------------------------------------------

    @property
    def edges(self) -> np.ndarray:
        """Canonical (m, 2) edge array, read-only, u < v, lexsorted."""
        return self._edges

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    @property
    def max_degree(self) -> int:
        return int(self._degrees.max())

    @property
    def adj_indptr(self) -> np.ndarray:
        return self._csr_indptr

    @property
    def adj_indices(self) -> np.ndarray:
        """Neighbor list in CSR layout; slice i is sorted ascending."""
        return self._csr_indices

    @property
    def adj_edge_ids(self) -> np.ndarray:
        """Edge id owning each CSR half-edge, aligned with adj_indices."""
        return self._csr_edge_ids

    def _check_vertex(self, v) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range")

    def neighbors(self, v: int) -> np.ndarray:
        self._check_vertex(v)
        return self._csr_indices[self._csr_indptr[v] : self._csr_indptr[v + 1]]

    def edge_ids(self, u, v) -> np.ndarray:
        """Ids of the edges {u[i], v[i]}, elementwise; GraphError if any is absent.

        Canonical edges are lexsorted, so their keys ``u * n + v`` ascend and
        one ``searchsorted`` finds every pair.  A miss is detected by comparing
        the key found, so it is never rounded to a neighbouring id.
        """
        lo = np.minimum(u, v).astype(np.int64)
        hi = np.maximum(u, v).astype(np.int64)
        if lo.size and (lo.min() < 0 or hi.max() >= self.n):
            raise GraphError("edge endpoint out of range")
        if self._edge_keys is None:
            # The sentinel n*n exceeds every key, so a miss past the end compares unequal.
            keys = self._edges[:, 0] * self.n + self._edges[:, 1]
            self._edge_keys = np.append(keys, self.n * self.n)
        keys = lo * self.n + hi
        pos = np.searchsorted(self._edge_keys, keys)
        miss = self._edge_keys[pos] != keys
        if miss.any():
            i = np.flatnonzero(miss)[0]
            raise GraphError(f"no edge ({lo.flat[i]}, {hi.flat[i]})")
        return pos

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._edges, other._edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- weighted views -------------------------------------------------

    def weight_csr(self, weights) -> csr_matrix:
        """Symmetric CSR with weights[e] on both half-edges of edge e."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.m,):
            raise GraphError(f"need {self.m} edge weights, got shape {w.shape}")
        data = w[self._csr_edge_ids]
        return csr_matrix((data, self._csr_indices, self._csr_indptr), shape=(self.n, self.n))

    def _structure(self) -> csr_matrix:
        """A fresh scipy matrix of the CSR for the breadth-first searches.

        Its data is one float 1.0 broadcast to every half-edge, since scipy's
        breadth-first search and unweighted Dijkstra read only the index
        arrays, and scipy adopts the int32 columns without a copy, so the
        matrix adds only its int32 row pointers, O(n), to the graph.  It is
        never kept: each caller lets it go on return.
        The CSR holds both half-edges, so a directed search is exact and
        skips the CSC copy an undirected one makes.
        """
        data = np.broadcast_to(np.float64(1.0), self._csr_indices.shape)
        return csr_matrix((data, self._csr_indices, self._csr_indptr), shape=(self.n, self.n))

    # -- unweighted geometry ---------------------------------------------

    def bfs_distances(self, source: int) -> np.ndarray:
        """Hop distance from ``source`` to every vertex, as int64.

        scipy's breadth-first search returns the BFS tree's predecessors,
        and a vertex's depth in that tree is its distance.
        """
        self._check_vertex(source)
        _, pred = breadth_first_order(
            self._structure(), source, directed=True, return_predecessors=True
        )
        return _forest_depths(np.where(pred < 0, -1, pred))

    def eccentricity(self, source: int) -> int:
        return int(self.bfs_distances(source).max())

    def diameter(self) -> int:
        structure = self._structure()
        best = 0
        for start in range(0, self.n, _DIAMETER_SOURCES):
            idx = np.arange(start, min(start + _DIAMETER_SOURCES, self.n))
            d = dijkstra(structure, indices=idx, unweighted=True)
            best = max(best, int(d.max()))
        return best

    # -- degeneracy -------------------------------------------------------

    def degeneracy_ordering(self) -> DegeneracyOrdering:
        """Peel minimum-degree vertices (lowest index on ties)."""
        deg = self._degrees.astype(np.int64).copy()
        removed = np.zeros(self.n, dtype=bool)
        heap: list[tuple[int, int]] = [(int(d), v) for v, d in enumerate(deg)]
        heapq.heapify(heap)
        order: list[int] = []
        degeneracy = 0
        while heap:
            d, v = heapq.heappop(heap)
            if removed[v] or d != deg[v]:
                continue  # stale heap entry
            removed[v] = True
            degeneracy = max(degeneracy, d)
            order.append(v)
            for u in self.neighbors(v):
                if not removed[u]:
                    deg[u] -= 1
                    heapq.heappush(heap, (int(deg[u]), int(u)))
        return DegeneracyOrdering(tuple(order), degeneracy)

    # -- exact boundary minima ---------------------------------------------

    def boundary_minima(self, budget: int = 24) -> np.ndarray:
        """best[k] = min edge boundary over vertex subsets of size k.

        Exhaustive over 2^(n-1) subset masks (each subset or its complement
        omits vertex n-1, and complements share a boundary).  Graphs with
        n > budget are refused rather than silently approximated.
        """
        n = self.n
        if n > budget:
            raise BudgetExceededError(
                f"exhaustive boundary scan over n={n} exceeds budget n<={budget}"
            )
        best = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
        best[0] = 0
        best[n] = 0
        if n == 1:
            return best
        u_arr = self._edges[:, 0].astype(np.uint64)
        v_arr = self._edges[:, 1].astype(np.uint64)
        total = 1 << (n - 1)
        chunk = 1 << 20
        one = np.uint64(1)
        for start in range(1, total, chunk):
            stop = min(start + chunk, total)
            masks = np.arange(start, stop, dtype=np.uint64)
            cut = np.zeros(masks.size, dtype=np.int64)
            for u, v in zip(u_arr, v_arr):
                cut += (((masks >> u) ^ (masks >> v)) & one).astype(np.int64)
            pop = _popcount_u64(masks)
            np.minimum.at(best, pop, cut)
            np.minimum.at(best, n - pop, cut)
        return best

    def expansion_profile(self, budget: int = 24) -> ExpansionProfile:
        if self.n < 2:
            raise GraphError("expansion profile needs at least two vertices")
        best = self.boundary_minima(budget)
        ks = range(1, self.n // 2 + 1)
        phi = min(Fraction(int(best[k]), k) for k in ks)
        psi = sum(Fraction(1, int(best[k])) for k in ks)
        return ExpansionProfile(tuple(int(b) for b in best), phi, psi)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Header line "n m", then one "u v" line per canonical edge."""
        # One %-format over all endpoints, not a Python call per edge.
        body = ("%d %d\n" * self.m) % tuple(self._edges.ravel().tolist())
        return f"{self.n} {self.m}\n" + body

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        tokens = text.split()
        if len(tokens) < 2:
            raise GraphError("truncated graph header")
        try:
            n, m = int(tokens[0]), int(tokens[1])
            e = np.asarray(tokens[2:], dtype=np.int64)
        except ValueError:
            raise GraphError("graph text holds a token that is not an integer") from None
        if len(tokens) != 2 + 2 * m:
            raise GraphError(f"expected {m} edges, found {(len(tokens) - 2) // 2}")
        return cls(n, e.reshape(m, 2))
