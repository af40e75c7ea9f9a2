"""Frozen-value oracles and property tests for the core graph type."""

import itertools
import math
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given

from treegrowth.graphs import BudgetExceededError, Graph, GraphError

from helpers import complete, connected_graphs, cycle, path, to_networkx


# -- construction and validation -------------------------------------------


def test_edges_are_canonicalized():
    g = Graph(3, [(2, 1), (0, 2), (1, 0)])
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_rejects_self_loop():
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 1), (1, 2)])


def test_rejects_duplicate_even_if_flipped():
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0), (1, 2)])


def test_rejects_disconnected():
    with pytest.raises(GraphError):
        Graph(4, [(0, 1), (2, 3)])


def test_rejects_out_of_range_endpoint():
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 3)])


def test_rejects_empty_vertex_set():
    with pytest.raises(GraphError):
        Graph(0, [])


def test_single_vertex_graph():
    g = Graph(1, [])
    assert g.n == 1 and g.m == 0
    assert g.diameter() == 0
    assert g.bfs_distances(0).tolist() == [0]


def test_neighbors_and_edge_ids():
    g = cycle(4)  # canonical edges (0,1) (0,3) (1,2) (2,3)
    assert g.neighbors(0).tolist() == [1, 3]
    assert g.neighbors(2).tolist() == [1, 3]
    assert g.incident_edge_ids(0).tolist() == [0, 1]
    assert g.edge_id(3, 2) == 3
    with pytest.raises(GraphError):
        g.edge_id(0, 2)


# -- unweighted geometry -----------------------------------------------------


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


def test_cycle_and_path_boundaries():
    assert cycle(6).min_edge_boundary(1) == 2
    assert cycle(6).min_edge_boundary(3) == 2
    assert path(4).min_edge_boundary(2) == 1


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
