"""Frozen-value oracles and property tests for the core graph type."""

import heapq
import itertools
import math
import tracemalloc
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from treegrowth.families import FamilySpec, build_family
from treegrowth.graphs import BudgetExceededError, Graph, GraphError

from helpers import bfs_diameter, complete, connected_graphs, cycle, path, to_networkx


# -- construction and validation -------------------------------------------


def test_edges_are_canonicalized():
    g = Graph(3, [(2, 1), (0, 2), (1, 0)])
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loops"):
        Graph(3, [(0, 1), (1, 1), (1, 2)])
    with pytest.raises(GraphError, match="self-loops"):  # checked before duplicates
        Graph(3, [(0, 1), (0, 1), (2, 2)])


def test_rejects_duplicate_even_if_flipped():
    with pytest.raises(GraphError, match="duplicate edge"):
        Graph(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(GraphError, match="duplicate edge"):  # checked before connectivity
        Graph(4, [(0, 1), (0, 1)])
    with pytest.raises(GraphError, match="duplicate edge"):  # sorted input, equal keys
        Graph(3, [(0, 1), (0, 1), (1, 2)])


def test_rejects_disconnected():
    with pytest.raises(GraphError, match="connected"):
        Graph(4, [(0, 1), (2, 3)])


def test_rejects_out_of_range_endpoint():
    with pytest.raises(GraphError, match="out of range"):
        Graph(3, [(0, 1), (1, 3)])
    with pytest.raises(GraphError, match="out of range"):  # checked before self-loops
        Graph(3, [(1, 1), (0, -1)])
    with pytest.raises(GraphError, match="integers"):
        Graph(3, [(0, 1), (1, 2.9)])
    with pytest.raises(GraphError, match="integers"):
        Graph(3, np.array([[0, 1], [1, 2]], dtype=np.float64))


def test_rejects_empty_vertex_set():
    with pytest.raises(GraphError, match="at least one vertex"):
        Graph(0, [])
    with pytest.raises(GraphError, match="vertex count must be an integer"):
        Graph(3.5, [(0, 1), (1, 2)])


def test_single_vertex_graph():
    g = Graph(1, [])
    assert g.n == 1 and g.m == 0
    assert g.edges.dtype == np.int32 and g.edges.shape == (0, 2)
    assert bfs_diameter(g) == 0
    assert g.bfs_distances(0).tolist() == [0]


@pytest.mark.parametrize("method", ["neighbors", "bfs_distances", "eccentricity"])
@pytest.mark.parametrize("v", [-2, -1, 4])
def test_vertex_queries_reject_out_of_range(method, v):
    with pytest.raises(GraphError, match=f"vertex {v} out of range"):
        getattr(path(4), method)(v)


def test_size_guards_raise_before_allocating():
    """Ids must fit int32, and fewer than n - 1 edges cannot connect n
    vertices: each case is refused before an array of size n or m is made
    (the broadcast view below stands for 2**31 edges and copies nothing)."""
    with pytest.raises(GraphError, match="vertices exceed"):
        Graph(2**31 + 1, [])
    with pytest.raises(GraphError, match="vertices exceed"):
        Graph(10**12, [(0, 1)])
    with pytest.raises(GraphError, match="vertices exceed"):
        Graph.from_text("1000000000000 1\n0 1")
    with pytest.raises(GraphError, match="edges reach"):
        Graph(3, np.broadcast_to(np.array([[0, 1]]), (2**31, 2)))
    with pytest.raises(GraphError, match="connected"):
        Graph(2**31, [(0, 1)])


def test_endpoints_are_range_checked_before_narrowing():
    """Each endpoint below is out of range in its own type, and all but
    2**31 would wrap to 2 in int32, which is in range and would complete a
    path: each must be refused before the edges are narrowed."""
    for dtype, bad in [(np.int64, 2**32 + 2), (np.int64, 2**31), (np.int64, -(2**32) + 2),
                       (np.uint64, 2**32 + 2), (np.uint64, 2**64 - 2**32 + 2)]:
        edges = np.array([[0, 1], [1, bad]], dtype=dtype)
        with pytest.raises(GraphError, match="edge endpoint out of range"):
            Graph(3, edges)


def test_builders_refuse_ids_past_int32_before_building():
    spec = FamilySpec("ladder_H", {"L": 2**30 + 1, "delta": 2})
    with pytest.raises(GraphError, match="vertices exceed"):
        build_family(spec, max_vertices=2**40)


def test_neighbors_and_edge_ids():
    g = cycle(4)  # canonical edges (0,1) (0,3) (1,2) (2,3)
    assert g.neighbors(0).tolist() == [1, 3]
    assert g.neighbors(2).tolist() == [1, 3]
    assert g.adj_edge_ids[g.adj_indptr[0] : g.adj_indptr[1]].tolist() == [0, 1]
    assert int(g.edge_ids(3, 2)) == 3
    with pytest.raises(GraphError):
        g.edge_ids(0, 2)


# -- CSR layout against the double-lexsort oracle ----------------------------


def reference_csr(n: int, edges) -> dict:
    """The CSR as two lexsorts build it: canonical edges, then half-edges
    sorted by (row, column).  Row pointers and degrees are int64; the
    edges, columns and edge ids are int32."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    m = e.shape[0]
    u, v = e.min(axis=1), e.max(axis=1)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    eids = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
    half = np.lexsort((cols, rows))
    counts = np.bincount(rows, minlength=n) if m else np.zeros(n, dtype=np.int64)
    return {
        "edges": np.stack([u, v], axis=1).astype(np.int32),
        "adj_indptr": np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        "adj_indices": cols[half].astype(np.int32),
        "adj_edge_ids": eids[half].astype(np.int32),
        "degrees": counts.astype(np.int64),
    }


@pytest.mark.parametrize("layout", ["canonical", "shuffled", "flipped"])
@given(g=connected_graphs(min_n=1, max_n=12), data=st.data())
def test_csr_matches_double_lexsort_oracle(layout, g, data):
    edges = g.edges.tolist()
    if layout != "canonical":
        edges = data.draw(st.permutations(edges))
    if layout == "flipped":
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        edges = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]
    built = Graph(g.n, edges)
    for name, want in reference_csr(g.n, edges).items():
        got = getattr(built, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


# A path on 70000 vertices plus long chords: edge keys u * n + v reach
# 4.9e9, past 2**31.  (61356, 67296) and (0, 20000) have keys that differ
# by exactly 2**32, as do (61357, 67297) and (1, 20001), so keys wrapped in
# 32 bits would call the first pair a duplicate and find the absent second.
_WIDE_N = 70_000
_WIDE_CHORDS = [(0, 20000), (1, 20001), (61356, 67296), (2, 69998), (0, 69999)]
_WIDE_EDGES = [(i, i + 1) for i in range(_WIDE_N - 1)] + _WIDE_CHORDS


def _wide_layout(layout: str) -> np.ndarray:
    rng = np.random.default_rng(24)
    e = np.array(sorted(_WIDE_EDGES), dtype=np.int32)
    if layout != "canonical":
        e = e[rng.permutation(len(e))]
    if layout == "flipped":
        flip = rng.random(len(e)) < 0.5
        e[flip] = e[flip, ::-1]
    return e


@pytest.mark.parametrize("layout", ["canonical", "shuffled", "flipped"])
def test_csr_matches_oracle_where_keys_pass_int32(layout):
    edges = _wide_layout(layout)
    built = Graph(_WIDE_N, edges)
    for name, want in reference_csr(_WIDE_N, edges).items():
        got = getattr(built, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_duplicate_and_missing_edges_where_keys_pass_int32():
    edges = _wide_layout("canonical")
    with pytest.raises(GraphError, match="duplicate edge"):
        Graph(_WIDE_N, np.concatenate([edges, [[69998, 2]]]))
    g = Graph(_WIDE_N, edges)
    assert np.shares_memory(g.edges, edges)  # canonical int32 input is adopted
    last = np.array([[0, 69999], [2, 69998], [61356, 67296], [69998, 69999]])
    want = [sorted(_WIDE_EDGES).index(tuple(e)) for e in last]
    assert g.edge_ids(last[:, 1], last[:, 0]).tolist() == want
    for u, v in [(61357, 67297), (0, 2), (69997, 69999)]:
        with pytest.raises(GraphError, match=f"no edge \\({u}, {v}\\)"):
            g.edge_ids(np.array([0, u]), np.array([1, v]))


def test_build_peak_memory_on_complete_graph():
    """Building K_1024 from canonical int32 edges, as ``complete`` emits
    them, peaks at no more than 5 words per edge (4.0 measured): the int64
    sort permutation, 2 words, beside the int32 columns, their gathered
    copy and the int32 edge ids, 1 word each, of which at most two are held
    with it at once."""
    n = 1024
    edges = np.stack(np.triu_indices(n, 1), axis=1).astype(np.int32)
    m = edges.shape[0]
    tracemalloc.start()
    try:
        Graph(n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * m, f"peak {peak / (8 * m):.1f} words per edge"


def test_resident_memory_after_eccentricity_on_complete_graph():
    """A built K_1024 holds its int32 CSR columns and edge ids, 2 words per
    edge on top of the caller's canonical int32 edges, which it adopts, and
    an eccentricity query keeps nothing: its structure matrix is freed on
    return."""
    n = 1024
    edges = np.stack(np.triu_indices(n, 1), axis=1).astype(np.int32)
    m = edges.shape[0]
    tracemalloc.start()
    try:
        g = Graph(n, edges)
        assert g.eccentricity(0) == 1
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current <= 2.5 * 8 * m, f"resident {current / (8 * m):.1f} words per edge"


def test_complete_family_holds_three_words_per_edge():
    """``build_family`` leaves K_1024 holding at most 3.1 words per edge,
    its edges included (3.0 plus O(n) measured): the builder emits
    canonical int32 edges, which the graph adopts beside its int32 CSR
    columns and edge ids, and no int64 array of size m stays behind."""
    tracemalloc.start()
    try:
        g, _ = build_family(FamilySpec("complete", {"n": 1024}))
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current <= 3.1 * 8 * g.m, f"resident {current / (8 * g.m):.2f} words per edge"
    for name in Graph.__slots__:
        arr = getattr(g, name)
        if isinstance(arr, np.ndarray) and arr.size >= g.m:
            assert arr.dtype.itemsize == 4, name


def test_eccentricity_peak_memory_on_complete_graph():
    """An eccentricity query on a built K_1024 allocates O(n), not O(m):
    scipy adopts the int32 columns without a copy, and the structure
    matrix's data is one broadcast float, not a float64 ones array."""
    n = 1024
    g = Graph(n, np.stack(np.triu_indices(n, 1), axis=1))
    tracemalloc.start()
    try:
        assert g.eccentricity(0) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * 8 * g.m, f"peak {peak / (8 * g.m):.1f} words per edge"


# -- unweighted geometry -----------------------------------------------------


def dijkstra_distances(g: Graph, source: int) -> np.ndarray:
    """Hop distances as unweighted scipy Dijkstra gives them, cast to int64."""
    ones = csr_matrix(
        (np.ones(g.adj_indices.size), g.adj_indices, g.adj_indptr), shape=(g.n, g.n)
    )
    return dijkstra(ones, indices=source, unweighted=True).astype(np.int64)


def assert_bfs_matches_dijkstra(g: Graph, sources) -> None:
    for s in sources:
        got = g.bfs_distances(s)
        assert got.dtype == np.int64
        assert np.array_equal(got, dijkstra_distances(g, s)), s


@given(connected_graphs(min_n=1, max_n=30), st.data())
def test_bfs_distances_match_unweighted_dijkstra(g, data):
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=4))
    assert_bfs_matches_dijkstra(g, sources)


@pytest.mark.parametrize(
    "g",
    [
        path(40),
        cycle(41),
        build_family(FamilySpec("grid", {"d": 8, "k": 1}))[0],
        build_family(FamilySpec("grid", {"d": 2, "k": 15}))[0],
        build_family(FamilySpec("glued_G", {"L": 8, "delta": 3, "a": 8.0, "m": 4}))[0],
    ],
    ids=["path40", "cycle41", "Q_8", "grid_2_15", "glued_G"],
)
def test_bfs_distances_match_unweighted_dijkstra_on_families(g):
    assert_bfs_matches_dijkstra(g, sorted({0, 1, g.n // 3, g.n // 2, g.n - 1}))


def test_bfs_on_path():
    assert path(3).bfs_distances(0).tolist() == [0, 1, 2]


def test_bfs_wraps_around_cycle():
    assert cycle(6).bfs_distances(0).tolist() == [0, 1, 2, 3, 2, 1]


def test_eccentricity_and_diameter():
    p = path(5)
    assert p.eccentricity(0) == 4
    assert p.eccentricity(2) == 2
    assert bfs_diameter(p) == 4
    assert bfs_diameter(cycle(6)) == 3
    assert bfs_diameter(complete(7)) == 1


@given(connected_graphs())
def test_diameter_matches_networkx(g):
    assert bfs_diameter(g) == nx.diameter(to_networkx(g))


# -- degeneracy ----------------------------------------------------------------


def test_degeneracy_frozen_values():
    tree = Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    assert tree.degeneracy() == 1
    assert complete(5).degeneracy() == 4
    assert cycle(8).degeneracy() == 2


def test_degeneracy_of_complete_1024():
    # The bucket-queue peel is O(n + m): about 0.07 s here, where the heap
    # peel it replaced took about 0.6 s.
    g, _ = build_family(FamilySpec("complete", {"n": 1024}))
    assert g.degeneracy() == 1023


@given(connected_graphs())
def test_degeneracy_matches_core_number(g):
    expected = max(nx.core_number(to_networkx(g)).values())
    assert g.degeneracy() == expected


def numpy_peel(g: Graph) -> int:
    """The degeneracy from the heap peel as it ran on numpy arrays and
    scalars, kept as the oracle for the list-based one."""
    deg = g.degrees.astype(np.int64).copy()
    removed = np.zeros(g.n, dtype=bool)
    heap = [(int(d), v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    degeneracy = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        degeneracy = max(degeneracy, d)
        for u in g.neighbors(v):
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (int(deg[u]), int(u)))
    return degeneracy


def assert_peel_matches_oracle(g: Graph) -> None:
    degeneracy = g.degeneracy()
    assert type(degeneracy) is int and degeneracy == numpy_peel(g)


@given(connected_graphs(min_n=1, max_n=16))
def test_degeneracy_ordering_matches_numpy_peel(g):
    assert_peel_matches_oracle(g)


@pytest.mark.parametrize("kind, params", [
    ("complete", {"n": 40}),
    ("grid", {"d": 6, "k": 1}),
    ("ladder_H", {"L": 6, "delta": 3}),
    ("subdivided_tree_I", {"L": 8, "m": 3}),
    ("glued_G", {"L": 8, "delta": 3, "a": 8.0, "m": 4}),
    ("planar_lower_G", {"L": 8, "delta": 3, "a": 8.0, "m": 2}),
    ("degenerate_lower_G", {"L": 4, "delta": 4, "d": 2, "a": 8.0, "m": 3}),
])
def test_degeneracy_ordering_matches_numpy_peel_on_families(kind, params):
    assert_peel_matches_oracle(build_family(FamilySpec(kind, params))[0])


# -- boundary minima and expansion ---------------------------------------------


def brute_boundary_minima(g):
    edges = [tuple(map(int, e)) for e in g.edges]
    out = [0]
    for k in range(1, g.n):
        out.append(
            min(
                sum(1 for u, v in edges if (u in s) != (v in s))
                for s in map(set, itertools.combinations(range(g.n), k))
            )
        )
    out.append(0)
    return out


def expansion_and_inverse_sum(best) -> tuple[Fraction, Fraction]:
    """min e_k / k and the sum of 1 / e_k over 1 <= k <= n//2, exactly."""
    ks = range(1, (len(best) - 1) // 2 + 1)
    phi = min(Fraction(int(best[k]), k) for k in ks)
    psi = sum(Fraction(1, int(best[k])) for k in ks)
    return phi, psi


def test_cycle_and_path_boundaries():
    assert cycle(6).boundary_minima()[1] == 2
    assert cycle(6).boundary_minima()[3] == 2
    assert path(4).boundary_minima()[2] == 1


def test_complete_graph_boundaries():
    for n in range(3, 8):
        best = complete(n).boundary_minima()
        for k in range(n + 1):
            assert best[k] == k * (n - k)


def test_k4_expansion_profile():
    best = complete(4).boundary_minima()
    assert best.tolist() == [0, 3, 4, 3, 0]
    assert expansion_and_inverse_sum(best) == (Fraction(2), Fraction(7, 12))


def test_c6_expansion_profile():
    best = cycle(6).boundary_minima()
    assert best.tolist() == [0, 2, 2, 2, 2, 2, 0]
    assert expansion_and_inverse_sum(best) == (Fraction(2, 3), Fraction(3, 2))


@given(connected_graphs(max_n=7))
def test_boundary_minima_against_brute_force(g):
    assert g.boundary_minima().tolist() == brute_boundary_minima(g)


@given(connected_graphs())
def test_inverse_boundary_sum_log_bound(g):
    phi, psi = expansion_and_inverse_sum(g.boundary_minima())
    assert float(psi) <= (math.log(g.n) + 1) / float(phi) + 1e-12


def test_boundary_scan_budget():
    # The largest graph the scan takes, and the smallest it refuses.
    assert complete(16).boundary_minima().tolist() == [k * (16 - k) for k in range(17)]
    with pytest.raises(BudgetExceededError, match="n=17"):
        complete(17).boundary_minima()


# -- weighted views --------------------------------------------------------------


def test_weight_csr_dense_layout():
    g = complete(3)
    mat = g.weight_csr([1.0, 2.0, 3.0]).toarray()
    assert mat.tolist() == [[0, 1, 2], [1, 0, 3], [2, 3, 0]]


def test_weight_csr_rejects_bad_shape():
    with pytest.raises(GraphError):
        complete(3).weight_csr([1.0, 2.0])


# -- serialization -----------------------------------------------------------------


def test_text_format_frozen():
    assert complete(3).to_text() == "3 3\n0 1\n0 2\n1 2\n"


@given(connected_graphs())
def test_text_roundtrip(g):
    assert Graph.from_text(g.to_text()) == g


def test_from_text_rejects_truncation():
    with pytest.raises(GraphError):
        Graph.from_text("3")
    with pytest.raises(GraphError):
        Graph.from_text("3 3\n0 1\n0 2\n")
    for text in ("3 2\n0 1\n1 2.5\n", "3.0 2\n0 1\n1 2\n"):
        with pytest.raises(GraphError, match="not an integer"):
            Graph.from_text(text)
    # Endpoint tokens past int64, either sign, are refused like any other.
    for text in ("2 1\n0 99999999999999999999", "2 1\n-99999999999999999999 1"):
        with pytest.raises(GraphError, match="out of range"):
            Graph.from_text(text)
