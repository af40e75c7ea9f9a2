"""Frozen-value oracles and property tests for the core graph type."""

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

from treegrowth import graphs
from treegrowth.families import FamilySpec, build_family
from treegrowth.graphs import BudgetExceededError, Graph, GraphError

from helpers import complete, connected_graphs, cycle, path, to_networkx


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
    assert g.edges.dtype == np.int64 and g.edges.shape == (0, 2)
    assert g.diameter() == 0
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
    sorted by (row, column).  Edges, row pointers and degrees are int64;
    the columns and edge ids are int32."""
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
        "edges": np.stack([u, v], axis=1),
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


def test_build_peak_memory_on_complete_graph():
    """Building K_1024 from canonical edges peaks at no more than 5 words
    per edge (4.0 measured): the int64 sort permutation, 2 words, beside
    the int32 columns, their gathered copy and the int32 edge ids, 1 word
    each, of which at most two are held with it at once."""
    n = 1024
    edges = np.stack(np.triu_indices(n, 1), axis=1)
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
    edge on top of the caller's canonical edges, and an eccentricity query
    keeps nothing: its structure matrix is freed on return."""
    n = 1024
    edges = np.stack(np.triu_indices(n, 1), axis=1)
    m = edges.shape[0]
    tracemalloc.start()
    try:
        g = Graph(n, edges)
        assert g.eccentricity(0) == 1
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current <= 2.5 * 8 * m, f"resident {current / (8 * m):.1f} words per edge"


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
    assert p.diameter() == 4
    assert cycle(6).diameter() == 3
    assert complete(7).diameter() == 1


@given(connected_graphs())
def test_diameter_matches_networkx(g):
    assert g.diameter() == nx.diameter(to_networkx(g))


# -- degeneracy ----------------------------------------------------------------


def test_degeneracy_frozen_values():
    tree = Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    assert tree.degeneracy_ordering().degeneracy == 1
    assert complete(5).degeneracy_ordering().degeneracy == 4
    assert cycle(8).degeneracy_ordering().degeneracy == 2


@given(connected_graphs())
def test_degeneracy_order_back_degree(g):
    res = g.degeneracy_ordering()
    assert sorted(res.order) == list(range(g.n))
    pos = {v: i for i, v in enumerate(res.order)}
    back = max(
        sum(1 for u in g.neighbors(v) if pos[int(u)] > pos[v]) for v in range(g.n)
    )
    assert back == res.degeneracy


@given(connected_graphs())
def test_degeneracy_matches_core_number(g):
    expected = max(nx.core_number(to_networkx(g)).values())
    assert g.degeneracy_ordering().degeneracy == expected


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


def test_popcount_matches_int_bit_count():
    rng = np.random.default_rng(7)
    x = rng.integers(0, 2**64, size=4096, dtype=np.uint64, endpoint=False)
    x[:4] = [0, 1, 2**63, 2**64 - 1]
    x[4:] |= np.uint64(1) << rng.integers(56, 64, size=x.size - 4, dtype=np.uint64)
    pop = graphs._popcount_u64(x)
    assert pop.dtype == np.int64
    assert pop.tolist() == [int(v).bit_count() for v in x.tolist()]


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
    prof = complete(4).expansion_profile()
    assert prof.boundary_minima == (0, 3, 4, 3, 0)
    assert prof.expansion == Fraction(2)
    assert prof.inverse_boundary_sum == Fraction(7, 12)


def test_c6_expansion_profile():
    prof = cycle(6).expansion_profile()
    assert prof.boundary_minima == (0, 2, 2, 2, 2, 2, 0)
    assert prof.expansion == Fraction(2, 3)
    assert prof.inverse_boundary_sum == Fraction(3, 2)


@given(connected_graphs(max_n=7))
def test_boundary_minima_against_brute_force(g):
    assert g.boundary_minima().tolist() == brute_boundary_minima(g)


@given(connected_graphs())
def test_inverse_boundary_sum_log_bound(g):
    prof = g.expansion_profile()
    cap = (math.log(g.n) + 1) / float(prof.expansion)
    assert float(prof.inverse_boundary_sum) <= cap + 1e-12


def test_boundary_scan_budget():
    with pytest.raises(BudgetExceededError):
        path(30).boundary_minima()


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
