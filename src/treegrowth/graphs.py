"""Static undirected graphs plus the geometry and boundary queries the
growth experiments need.

A :class:`Graph` is immutable after construction: edges are canonicalized
(u < v, lexicographically sorted) and the CSR adjacency used by the
traversal routines is built exactly once.  All randomness lives elsewhere;
everything in this module is deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra


class GraphError(ValueError):
    """Raised for malformed graph input."""


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive search would exceed its configured budget."""


if hasattr(np, "bitwise_count"):

    def _popcount_u64(x: np.ndarray) -> np.ndarray:
        return np.bitwise_count(x)

else:  # SWAR fallback for older numpy

    def _popcount_u64(x: np.ndarray) -> np.ndarray:
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) + (
            (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
        )
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


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


class Graph:
    """Immutable connected simple undirected graph on vertices 0..n-1."""

    __slots__ = (
        "n",
        "m",
        "_edges",
        "_degrees",
        "_csr_indptr",
        "_csr_indices",
        "_csr_edge_ids",
        "_ones",
        "_edge_keys",
    )

    def __init__(self, n: int, edges) -> None:
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise GraphError("edges must be an (m, 2) array of endpoints")
        m = e.shape[0]
        if m and (e.min() < 0 or e.max() >= n):
            raise GraphError("edge endpoint out of range")
        u = e.min(axis=1)
        v = e.max(axis=1)
        if np.any(u == v):
            raise GraphError("self-loops are not allowed")
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        if m > 1 and np.any((u[1:] == u[:-1]) & (v[1:] == v[:-1])):
            raise GraphError("duplicate edge")

        self.n = int(n)
        self.m = int(m)
        self._edges = np.stack([u, v], axis=1) if m else np.zeros((0, 2), dtype=np.int64)
        self._edges.setflags(write=False)

        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        eids = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
        half = np.lexsort((cols, rows))
        self._csr_indices = cols[half]
        self._csr_edge_ids = eids[half]
        counts = np.bincount(rows, minlength=n) if m else np.zeros(n, dtype=np.int64)
        self._csr_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._degrees = counts.astype(np.int64)
        for arr in (self._csr_indices, self._csr_edge_ids, self._csr_indptr, self._degrees):
            arr.setflags(write=False)
        self._ones = None
        self._edge_keys = None

        ncomp, _ = connected_components(self._structure(), directed=False)
        if ncomp != 1:
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

    def neighbors(self, v: int) -> np.ndarray:
        return self._csr_indices[self._csr_indptr[v] : self._csr_indptr[v + 1]]

    def incident_edge_ids(self, v: int) -> np.ndarray:
        return self._csr_edge_ids[self._csr_indptr[v] : self._csr_indptr[v + 1]]

    def edge_id(self, u: int, v: int) -> int:
        return int(self.edge_ids(u, v))

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

    def masked_weight_csr(self, weights, edge_keep) -> csr_matrix:
        """Weighted CSR restricted to edges where edge_keep is True.

        Dropped edges are absent from the structure, not zero-weighted, so
        shortest paths genuinely cannot use them.
        """
        w = np.asarray(weights, dtype=np.float64)
        keep = np.asarray(edge_keep, dtype=bool)
        if w.shape != (self.m,) or keep.shape != (self.m,):
            raise GraphError("weights and edge_keep must both have one entry per edge")
        half_keep = keep[self._csr_edge_ids]
        data = w[self._csr_edge_ids][half_keep]
        indices = self._csr_indices[half_keep]
        pref = np.concatenate([[0], np.cumsum(half_keep)])
        indptr = pref[self._csr_indptr]
        return csr_matrix((data, indices, indptr), shape=(self.n, self.n))

    def _structure(self) -> csr_matrix:
        if self._ones is None:
            data = np.ones(self._csr_indices.size)
            self._ones = csr_matrix(
                (data, self._csr_indices, self._csr_indptr), shape=(self.n, self.n)
            )
        return self._ones

    # -- unweighted geometry ---------------------------------------------

    def bfs_distances(self, source: int) -> np.ndarray:
        d = dijkstra(self._structure(), indices=source, unweighted=True)
        return d.astype(np.int64)

    def eccentricity(self, source: int) -> int:
        return int(self.bfs_distances(source).max())

    def diameter(self, chunk: int = 512) -> int:
        best = 0
        for start in range(0, self.n, chunk):
            idx = np.arange(start, min(start + chunk, self.n))
            d = dijkstra(self._structure(), indices=idx, unweighted=True)
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
            pop = _popcount_u64(masks).astype(np.int64)
            np.minimum.at(best, pop, cut)
            np.minimum.at(best, n - pop, cut)
        return best

    def min_edge_boundary(self, k: int, budget: int = 24) -> int:
        if not 0 <= k <= self.n:
            raise GraphError(f"subset size {k} out of range")
        return int(self.boundary_minima(budget)[k])

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
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in self._edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        tokens = text.split()
        if len(tokens) < 2:
            raise GraphError("truncated graph header")
        n, m = int(tokens[0]), int(tokens[1])
        if len(tokens) != 2 + 2 * m:
            raise GraphError(f"expected {m} edges, found {(len(tokens) - 2) // 2}")
        if m:
            e = np.asarray(tokens[2:], dtype=np.int64).reshape(m, 2)
        else:
            e = np.zeros((0, 2), dtype=np.int64)
        return cls(n, e)
