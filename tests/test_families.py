"""Construction oracles for the graph families.

Sizes, degrees, vertex roles, and resolved parameters are frozen by hand
from the construction definitions; structural claims (planarity,
diameter, degeneracy) are cross-checked against networkx and the
measuring code on instances small enough to afford it.  Every declared
diameter is exact, so it must equal a breadth-first search's.
"""

import hashlib
import json
import math
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from treegrowth.families import (
    E2,
    ConstructionMeta,
    FamilyError,
    FamilySpec,
    TreeDecomposition,
    build_family,
    build_tree_decomposition_degenerate,
    h_edge_mask,
    plan_family,
    verify_tree_decomposition,
    _pow2_floor,
)
from treegrowth.graphs import BudgetExceededError

from helpers import bfs_diameter, to_networkx


def build(kind, **params):
    return build_family(FamilySpec(kind, params))


def i_edge_mask(g, meta):
    """True for edges of the bypass tree I (at least one endpoint above H)."""
    return ~h_edge_mask(g, meta)


# -- simple families -------------------------------------------------------


def test_complete_meta():
    g, meta = build("complete", n=5)
    assert g.n == 5 and g.m == 10
    assert meta.declared_max_degree == 4
    assert meta.declared_degeneracy == 4
    assert meta.declared_genus == 1
    assert build("complete", n=8)[1].declared_genus == 2
    assert build("complete", n=4)[1].declared_genus == 0


def test_grid_square():
    g, meta = build("grid", d=2, k=3)
    assert g.n == 16 and g.m == 24
    assert meta.declared_max_degree == 4
    assert meta.declared_diameter_bound == 6
    assert meta.declared_degeneracy == 2
    assert meta.declared_genus == 0
    assert bfs_diameter(g) == 6
    g2, _ = build("grid", d=2, k=2)
    assert g2.n == 9 and g2.m == 12


def test_grid_cube():
    g, meta = build("grid", d=3, k=1)
    assert g.n == 8 and g.m == 12
    assert meta.declared_max_degree == 3
    assert meta.declared_genus == 0
    assert bfs_diameter(g) == 3


def test_grid_path():
    g, meta = build("grid", d=1, k=5)
    assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]
    assert meta.declared_max_degree == 2


# -- ladder and subdivided tree ------------------------------------------------


def test_ladder_sizes():
    g, meta = build("ladder_H", L=2, delta=3)
    assert (g.n, g.m) == (6, 9)
    assert meta.declared_max_degree == 3
    g, meta = build("ladder_H", L=3, delta=2)
    assert (g.n, g.m) == (6, 8)
    assert meta.declared_max_degree == 4
    assert meta.main_groups == ((0, 1), (2, 3), (4, 5))
    assert meta.target_vertex == 4


def test_ladder_of_width_one_is_path():
    g, meta = build("ladder_H", L=4, delta=1)
    assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]
    assert meta.declared_diameter_bound == 3


def test_ladder_rejects_disconnected():
    with pytest.raises(FamilyError):
        build("ladder_H", L=1, delta=3)


def test_subdivided_tree_smallest():
    g, meta = build("subdivided_tree_I", L=2, m=1)
    assert g.edges.tolist() == [[0, 1], [0, 2]]
    assert meta.leaf_vertices == (1, 2)
    assert meta.height_target == 1


def test_subdivided_tree_heap_layout():
    g, meta = build("subdivided_tree_I", L=4, m=1)
    assert g.n == 7
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3], [1, 4], [2, 5], [2, 6]]


def test_subdivided_tree_with_paths():
    g, meta = build("subdivided_tree_I", L=4, m=2)
    assert g.n == 11
    assert meta.declared_max_degree == 3
    assert meta.declared_diameter_bound == 6
    assert bfs_diameter(g) == 6
    assert g.degeneracy() == 1


# -- glued construction ----------------------------------------------------------


def test_glued_formula_mode_resolution():
    g, meta = build("glued_G", max_degree=5, diameter=518)
    p = meta.params
    assert p["mode"] == "formula"
    assert p["delta"] == 2
    assert p["L"] == 8
    assert p["m"] == 119
    assert p["theta"] == pytest.approx(32.0)
    assert g.n == 8 * 2 + 7 + 8 * 118 == 967
    assert meta.declared_max_degree == 5
    assert meta.height_target == 7


def test_glued_formula_hypothesis_enforced():
    with pytest.raises(FamilyError, match="16 e\\^3"):
        build("glued_G", max_degree=5, diameter=517)


def test_glued_override_small():
    g, meta = build("glued_G", L=4, delta=1, a=8.0)
    p = meta.params
    assert p["m"] == 32
    assert p["theta"] == pytest.approx(64 / E2)
    assert g.n == 4 + 3 + 4 * 31 == 131
    assert meta.declared_max_degree == 3
    assert meta.leaf_vertices == (0, 1, 2, 3)
    assert meta.chain_vertex_count == 4
    assert meta.tree_root == 4
    assert meta.height_target == 3
    # chain part is the path 0-1-2-3
    hm = h_edge_mask(g, meta)
    assert g.edges[hm].tolist() == [[0, 1], [1, 2], [2, 3]]
    assert int(i_edge_mask(g, meta).sum()) == 4 * 32 + 2


def test_glued_edge_split_counts():
    g, meta = build("glued_G", L=8, delta=3, a=8.0, m=4)
    L, delta, m = 8, 3, 4
    assert int(h_edge_mask(g, meta).sum()) == (L - 1) * delta**2
    assert int(i_edge_mask(g, meta).sum()) == L * m + L - 2
    assert meta.leaf_vertices == tuple(range(0, 24, 3))
    tree_set = {frozenset(e) for e in meta.tree_edges}
    masked = {frozenset(map(int, e)) for e in g.edges[i_edge_mask(g, meta)]}
    assert tree_set == masked


def test_glued_respects_declared_bounds():
    g, meta = build("glued_G", L=8, delta=2, a=8.0)
    assert bfs_diameter(g) == meta.declared_diameter_bound
    assert g.degeneracy() <= meta.declared_degeneracy
    assert meta.declared_genus is None  # gluing breaks planarity at delta = 2
    g1, meta1 = build("glued_G", L=8, delta=1, a=8.0, m=2)
    assert meta1.declared_genus == 0
    assert nx.check_planarity(to_networkx(g1))[0]


# -- planar lower-bound construction ------------------------------------------------


def test_planar_lower_layout():
    g, meta = build("planar_lower_G", L=4, delta=4, a=2 * E2)
    p = meta.params
    assert meta.chain_vertex_count == 19
    assert p["m"] == 30
    assert p["theta"] == pytest.approx(4.0)
    assert g.n == 19 + 3 + 4 * 29
    assert meta.declared_max_degree == 8
    assert meta.small_groups == ((4,), (9,), (14,))
    assert meta.leaf_vertices == (0, 5, 10, 15)
    assert meta.height_target == 6
    for (c,) in meta.small_groups:
        assert g.degrees[c] == 8
    assert int(h_edge_mask(g, meta).sum()) == 3 * 8


def test_planar_lower_is_planar():
    g, meta = build("planar_lower_G", L=8, delta=3, a=8.0, m=2)
    assert meta.declared_genus == 0
    assert nx.check_planarity(to_networkx(g))[0]
    assert g.degeneracy() <= meta.declared_degeneracy == 3
    assert bfs_diameter(g) == meta.declared_diameter_bound


def test_planar_formula_hypothesis_enforced():
    with pytest.raises(FamilyError, match="1e6"):
        build("planar_lower_G", max_degree=8, diameter=1000)


def test_planar_formula_mode_plan():
    d = 5_000_000
    plan = plan_family(FamilySpec("planar_lower_G", {"max_degree": 8, "diameter": d}))
    p = plan["params"]
    assert p["delta"] == 4
    assert p["L"] == _pow2_floor(d * 2 / (3 * E2 * 1e5)) == 4
    assert p["m"] == math.ceil(E2 * 1e5 * 4 / 2) == 1_477_812
    assert plan["n_vertices"] == 16 + 3 + 3 + 4 * (p["m"] - 1)
    assert plan["n_vertices"] > 1 << 20  # beyond simulation scale


def test_formula_mode_rejects_short_chain():
    # Hypothesis on the diameter holds but the resolved chain length is 1.
    with pytest.raises(FamilyError, match="chain of length"):
        build("planar_lower_G", max_degree=8, diameter=int(1e6 * math.log(8)) + 1)


# -- degenerate lower-bound construction ------------------------------------------------


def test_degenerate_lower_layout():
    g, meta = build("degenerate_lower_G", L=2, delta=3, d=2, m=1)
    assert meta.chain_vertex_count == 8
    assert g.n == 9
    assert int(h_edge_mask(g, meta).sum()) == 12
    assert meta.main_groups == ((0, 1, 2), (5, 6, 7))
    assert meta.small_groups == ((3, 4),)
    assert meta.leaf_vertices == (0, 5)
    assert meta.declared_max_degree == 6
    assert meta.declared_degeneracy == 4
    assert meta.height_target == 2


def test_degenerate_lower_rejects_large_d():
    with pytest.raises(FamilyError):
        build("degenerate_lower_G", L=2, delta=3, d=4, m=1)


def test_degenerate_measured_degeneracy_is_twice_d():
    # At L >= 3 the realized degeneracy of the construction sits at 2d.
    for d in (1, 2):
        g, meta = build("degenerate_lower_G", L=4, delta=4, d=d, m=3)
        assert g.degeneracy() == 2 * d == meta.declared_degeneracy


def test_degenerate_respects_declared_bounds():
    g, meta = build("degenerate_lower_G", L=4, delta=4, d=2, m=3)
    assert bfs_diameter(g) == meta.declared_diameter_bound
    assert g.max_degree == meta.declared_max_degree == 8


# -- one separated chain: the planar construction is the degenerate one at d = 1 --


@pytest.mark.parametrize("L", [2, 4, 8, 32])
@pytest.mark.parametrize("delta", [1, 2, 5])
@pytest.mark.parametrize(
    "extra", [{"a": 8.0}, {"a": 9, "m": 1}, {"a": 2 * E2}, {"a": 3 * E2, "m": 4}]
)
def test_planar_lower_is_degenerate_lower_at_d_1(L, delta, extra):
    g, meta = build("planar_lower_G", L=L, delta=delta, **extra)
    g1, meta1 = build("degenerate_lower_G", L=L, delta=delta, d=1, **extra)
    assert g.n == g1.n
    assert np.array_equal(g.edges, g1.edges)
    for role in ("main_groups", "small_groups", "leaf_vertices", "tree_root", "tree_edges",
                 "chain_vertex_count", "start_vertex", "target_vertex", "height_target",
                 "declared_diameter_bound"):
        assert getattr(meta, role) == getattr(meta1, role), role
    assert meta.params["m"] == meta1.params["m"]
    assert meta.params["theta"] == meta1.params["theta"]


@pytest.mark.parametrize("kind, params", [
    ("subdivided_tree_I", {"L": 2, "m": 1}),
    ("subdivided_tree_I", {"L": 8, "m": 3}),
    ("glued_G", {"L": 2, "delta": 2, "a": 8.0, "m": 1}),
    ("glued_G", {"L": 16, "delta": 1, "a": 8.0, "m": 3}),
    ("planar_lower_G", {"L": 8, "delta": 3, "a": 8.0, "m": 2}),
    ("degenerate_lower_G", {"L": 4, "delta": 4, "d": 2, "a": 8.0, "m": 1}),
])
def test_tree_edges_run_from_the_root_down(kind, params):
    g, meta = build(kind, **params)
    children = [c for _, c in meta.tree_edges]
    assert len(set(children)) == len(children)
    assert meta.tree_root not in children
    seen = {meta.tree_root}
    for parent, child in meta.tree_edges:
        assert parent in seen
        seen.add(child)
    assert set(meta.leaf_vertices) <= seen
    tree_m = g.m if meta.chain_vertex_count is None else int(i_edge_mask(g, meta).sum())
    assert len(meta.tree_edges) == tree_m


_SMALL_INSTANCES = [
    *(("complete", {"n": n}) for n in (1, 2, 3, 5)),
    *(("grid", {"d": d, "k": k}) for d, k in ((1, 1), (1, 4), (2, 1), (2, 3), (3, 2))),
    *(("ladder_H", {"L": L, "delta": delta})
      for L, delta in ((1, 1), (2, 1), (2, 2), (2, 4), (3, 1), (3, 3), (5, 2))),
    *(("subdivided_tree_I", {"L": L, "m": m}) for L, m in ((2, 1), (2, 3), (4, 1), (8, 2))),
    *(("glued_G", {"L": L, "delta": delta, "a": 8.0, "m": m})
      for L, delta, m in ((2, 1, 1), (2, 3, 2), (4, 2, 1), (8, 1, 3))),
    *(("planar_lower_G", {"L": L, "delta": delta, "a": 8.0, "m": m})
      for L, delta, m in ((2, 1, 1), (2, 3, 2), (4, 2, 1), (8, 1, 3))),
    *(("degenerate_lower_G", {"L": L, "delta": delta, "d": d, "a": 8.0, "m": m})
      for L, delta, d, m in ((2, 1, 1, 1), (2, 3, 2, 2), (4, 3, 3, 1), (8, 2, 1, 2))),
]


@pytest.mark.parametrize("kind, params", _SMALL_INSTANCES)
def test_declared_bounds_hold_on_small_instances(kind, params):
    g, meta = build(kind, **params)
    assert meta.declared_diameter_bound == bfs_diameter(g)
    assert meta.declared_degeneracy >= g.degeneracy()


# The chain kinds' declared diameter against an all-source BFS, over delta
# in {1, 2, 3, 8} and m = 1..12 and 40; above L = 16 a subset of those m
# runs, to keep the sweep to a few seconds.  The planar chain is the
# separated chain at d = 1 (see above), so past L = 16 the degenerate sweep
# stands for it; the diameter's routes do not depend on d, so d runs 1 and
# min(3, delta).
_SWEEP_M = (*range(1, 13), 40)
_SWEEP_M_LONG = (1, 2, 3, 5, 8, 12, 40)


@pytest.mark.parametrize("kind, L", [
    (kind, L) for kind in ("glued_G", "planar_lower_G", "degenerate_lower_G")
    for L in (2, 4, 8, 16, 32, 64) if kind != "planar_lower_G" or L <= 16
])
def test_chain_diameter_is_exact(kind, L):
    for delta in (1, 2, 3, 8):
        for d in sorted({1, min(3, delta)}) if kind == "degenerate_lower_G" else (None,):
            for m in _SWEEP_M if L <= 16 else _SWEEP_M_LONG:
                params = {"L": L, "delta": delta, "a": 8.0, "m": m}
                if d is not None:
                    params["d"] = d
                g, meta = build(kind, **params)
                assert meta.declared_diameter_bound == bfs_diameter(g), params


# Criterion 9's campaigns, whose graphs run to 15 679 vertices, with the
# diameter an all-source BFS measured on each; at seconds a graph, those
# searches stay out of the tests, and the sweep above checks the formula.
@pytest.mark.parametrize("kind, params, diameter", [
    ("glued_G", {"L": 64, "delta": 8, "a": 4 * E2}, 274),
    ("glued_G", {"L": 32, "delta": 4, "a": 2 * E2}, 139),
    ("glued_G", {"L": 32, "delta": 8, "a": 2 * E2}, 80),
    ("planar_lower_G", {"L": 32, "delta": 4, "a": 2 * E2}, 273),
    ("planar_lower_G", {"L": 32, "delta": 8, "a": 2 * E2}, 204),
    ("degenerate_lower_G", {"L": 32, "delta": 4, "d": 2, "a": 2 * E2}, 204),
    ("degenerate_lower_G", {"L": 32, "delta": 8, "d": 4, "a": 2 * E2}, 120),
])
def test_campaign_scale_diameters_are_pinned(kind, params, diameter):
    assert build(kind, **params)[1].declared_diameter_bound == diameter


# -- dispatch, planning, serialization ----------------------------------------------------


def test_family_spec_fail_closed():
    for doc in (5, None, ["complete", {"n": 3}]):
        with pytest.raises(FamilyError, match="JSON object"):
            FamilySpec.from_json_dict(doc)
    with pytest.raises(FamilyError):
        FamilySpec.from_json_dict({"kind": "complete"})
    with pytest.raises(FamilyError):
        FamilySpec.from_json_dict({"kind": "torus", "params": {}})
    with pytest.raises(FamilyError):
        FamilySpec.from_json_dict({"kind": "complete", "params": {"n": 3}, "x": 1})
    with pytest.raises(FamilyError):
        build_family(FamilySpec("glued_G", {"L": 4, "delta": 1, "q": 2}))


def test_plan_matches_build():
    specs = [
        FamilySpec("complete", {"n": 7}),
        FamilySpec("grid", {"d": 3, "k": 3}),
        FamilySpec("ladder_H", {"L": 5, "delta": 3}),
        FamilySpec("subdivided_tree_I", {"L": 8, "m": 3}),
        FamilySpec("glued_G", {"L": 4, "delta": 2, "a": 8.0}),
        FamilySpec("planar_lower_G", {"L": 4, "delta": 2, "a": 8.0, "m": 3}),
        FamilySpec("degenerate_lower_G", {"L": 4, "delta": 3, "d": 2, "m": 2}),
    ]
    for spec in specs:
        g, meta = build_family(spec)
        assert plan_family(spec)["n_vertices"] == g.n
        assert g.max_degree == meta.declared_max_degree


@pytest.mark.parametrize(
    "kind, params, match",
    [
        ("complete", {"n": 4.5}, "'n' must be an integer"),
        ("complete", {"n": "4"}, "'n' must be an integer"),
        ("complete", {"n": True}, "'n' must be an integer"),
        ("grid", {"d": 2, "k": 1.0}, "'k' must be an integer"),
        ("ladder_H", {"L": 2, "delta": False}, "'delta' must be an integer"),
        ("subdivided_tree_I", {"L": 4, "m": "2"}, "'m' must be an integer"),
        ("glued_G", {"L": 4.0, "delta": 1}, "'L' must be an integer"),
        ("glued_G", {"max_degree": 5, "diameter": 518.0}, "'diameter' must be an integer"),
        ("planar_lower_G", {"L": 4, "delta": 2, "m": True}, "'m' must be an integer"),
        ("degenerate_lower_G", {"L": 2, "delta": 3, "d": 2.0}, "'d' must be an integer"),
        ("glued_G", {"L": 4, "delta": 1, "a": math.inf}, "a must be a finite number"),
        ("glued_G", {"L": 4, "delta": 1, "a": math.nan}, "a must be a finite number"),
        ("glued_G", {"L": 4, "delta": 1, "a": 7}, "a must be a finite number above e\\^2"),
        ("planar_lower_G", {"L": 4, "delta": 1, "a": True}, "a must be a finite number"),
        ("degenerate_lower_G", {"L": 2, "delta": 3, "d": 2, "a": "9"}, "a must be a finite number"),
        ("glued_G", {"L": 4, "delta": 1, "a": 1e308}, "out of range"),
        ("glued_G", {"max_degree": 5, "diameter": 10**400}, "out of range"),
        ("complete", {"n": 4, "L": 7}, "complete takes params"),
        ("grid", {"d": 2}, "grid takes params"),
        ("ladder_H", {"L": 2, "delta": 1, "a": 8.0}, "ladder_H takes params"),
        ("subdivided_tree_I", {"L": 4, "m": 1, "d": 1}, "subdivided_tree_I takes params"),
        ("grid", {"d": 20000, "k": 1}, "out of range: more than 2\\*\\*63 vertices"),
        ("grid", {"d": 30, "k": 5000}, "out of range: more than 2\\*\\*63 vertices"),
        ("ladder_H", {"L": 10**3000, "delta": 10**3000}, "out of range"),
    ],
)
def test_family_params_are_strict(kind, params, match):
    spec = FamilySpec(kind, params)
    for call in (plan_family, build_family):
        with pytest.raises(FamilyError, match=match):
            call(spec)


def test_build_family_budget():
    with pytest.raises(BudgetExceededError):
        build_family(FamilySpec("complete", {"n": 2000}), max_vertices=100)


def test_pow2_floor_exact_hit():
    assert _pow2_floor(8.0) == 8
    assert _pow2_floor(7.99) == 4
    assert _pow2_floor(1.0) == 1
    with pytest.raises(FamilyError):
        _pow2_floor(0.5)


def test_builds_are_deterministic():
    spec = FamilySpec("degenerate_lower_G", {"L": 4, "delta": 3, "d": 2, "m": 2})
    a, _ = build_family(spec)
    b, _ = build_family(spec)
    assert a.to_text() == b.to_text()


# -- the family layer, byte for byte -------------------------------------------------

# Every kind and both chain modes, including each family the acceptance
# suite and the benchmark build.  The digests in family_layer_digests.json
# were taken from the per-kind generators that the family table replaced;
# the table must reproduce them exactly.
_BUILT = {
    "complete_1": ("complete", {"n": 1}),
    "complete_5": ("complete", {"n": 5}),
    "complete_256": ("complete", {"n": 256}),
    "complete_2048": ("complete", {"n": 2048}),
    "grid_1_5": ("grid", {"d": 1, "k": 5}),
    "grid_2_3": ("grid", {"d": 2, "k": 3}),
    "grid_12_1": ("grid", {"d": 12, "k": 1}),
    "ladder_1_1": ("ladder_H", {"L": 1, "delta": 1}),
    "ladder_5_3": ("ladder_H", {"L": 5, "delta": 3}),
    "tree_2_1": ("subdivided_tree_I", {"L": 2, "m": 1}),
    "tree_8_3": ("subdivided_tree_I", {"L": 8, "m": 3}),
    "glued_formula": ("glued_G", {"max_degree": 5, "diameter": 518}),
    "glued_4_1_int_a": ("glued_G", {"L": 4, "delta": 1, "a": 8}),
    "glued_8_3_m4": ("glued_G", {"L": 8, "delta": 3, "a": 8.0, "m": 4}),
    "glued_2_1_default_a": ("glued_G", {"L": 2, "delta": 1}),
    "glued_32_4": ("glued_G", {"L": 32, "delta": 4, "a": 2 * E2}),
    "glued_32_8": ("glued_G", {"L": 32, "delta": 8, "a": 2 * E2}),
    "glued_64_8": ("glued_G", {"L": 64, "delta": 8, "a": 4 * E2}),
    "planar_2_2_m2": ("planar_lower_G", {"L": 2, "delta": 2, "a": 8.0, "m": 2}),
    "planar_4_4": ("planar_lower_G", {"L": 4, "delta": 4, "a": 2 * E2}),
    "planar_32_4": ("planar_lower_G", {"L": 32, "delta": 4, "a": 2 * E2}),
    "planar_32_8": ("planar_lower_G", {"L": 32, "delta": 8, "a": 2 * E2}),
    "degenerate_2_3_2_m1": ("degenerate_lower_G", {"L": 2, "delta": 3, "d": 2, "m": 1}),
    "degenerate_4_4_2_m3": ("degenerate_lower_G", {"L": 4, "delta": 4, "d": 2, "m": 3}),
    "degenerate_32_4_2": ("degenerate_lower_G", {"L": 32, "delta": 4, "d": 2, "a": 2 * E2}),
    "degenerate_32_8_4": ("degenerate_lower_G", {"L": 32, "delta": 8, "d": 4, "a": 2 * E2}),
}
# Formula-mode instances of these kinds are far beyond the build budget.
_PLANNED = {
    "planar_formula": ("planar_lower_G", {"max_degree": 8, "diameter": 5_000_000}),
    "degenerate_formula": (
        "degenerate_lower_G", {"max_degree": 8, "diameter": 5_000_000, "d": 2}
    ),
    "glued_formula_large": ("glued_G", {"max_degree": 9, "diameter": 10**6}),
}
_DIGESTS = json.loads((Path(__file__).parent / "family_layer_digests.json").read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", [*_BUILT, *_PLANNED])
def test_family_layer_bytes_are_pinned(name):
    kind, params = {**_BUILT, **_PLANNED}[name]
    spec = FamilySpec(kind, params)
    got = {"plan": _sha256(json.dumps(plan_family(spec)))}
    if name in _BUILT:
        g, meta = build_family(spec)
        roles = (meta.main_groups, meta.small_groups, meta.leaf_vertices,
                 meta.tree_root, meta.tree_edges)
        got["graph"] = _sha256(g.to_text())
        got["meta"] = _sha256(json.dumps(meta.to_json_dict()))
        got["roles"] = _sha256(repr(roles))
    assert got == _DIGESTS[name]


# -- tree decomposition ------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L,delta,m", [(2, 3, 2), (4, 4, 3)])
def test_decomposition_small_instances(L, delta, m, d):
    g, meta = build("degenerate_lower_G", L=L, delta=delta, d=d, m=m)
    td = build_tree_decomposition_degenerate(g, meta)
    report = verify_tree_decomposition(g, td)
    assert report.passed, report.violations
    assert report.width <= 2 * d + 1


def test_decomposition_wide_instance():
    # With eight leaf groups the bottom branchings lie on three
    # consecutive-leaf paths, so the width grows to 3d + 1.
    d = 2
    g, meta = build("degenerate_lower_G", L=8, delta=3, d=d, m=2)
    td = build_tree_decomposition_degenerate(g, meta)
    report = verify_tree_decomposition(g, td)
    assert report.passed, report.violations
    assert report.width == 3 * d + 1


# Bag trees of criterion 10's six instances (a = 8) and of the wide L = 8
# instance, as the sha256 of repr((bags, edges)): bags as sorted tuples,
# sorted, and bag-tree edges as sorted pairs of such bags, sorted.
_PINNED_DECOMPOSITIONS = {
    (2, 3, 1, 2): "e52aac36f8c362dabadd25ccdde9a23a3e8382287c6cf337b6d38ac24f6a8c35",
    (4, 4, 1, 3): "94a1e4f27fd2acd8954052b72a4a8a50a7159136c37deea94293ed859de87bc9",
    (2, 3, 2, 2): "324d69827524f9521df1440cf5131d6b80818911a5b6ad30ba5020a5637179cd",
    (4, 4, 2, 3): "cf909d75d99fd466bb648f18389e8572ae26c320369c0c28c86880f8d3a28734",
    (2, 3, 3, 2): "03a75e67f3f6aee6e82686925825f28c055c8473cfb79df71c104f8472684d7f",
    (4, 4, 3, 3): "c6d79c178cb45df72179ce943fca4efd9b30385f4f1bbe04d0f5d0ce55070f42",
    (8, 3, 2, 2): "01710af3dcb91b3fd687eeb929de7c848725ed0640509c05dacb2aa944cb777d",
}


@pytest.mark.parametrize("L,delta,d,m", list(_PINNED_DECOMPOSITIONS))
def test_decomposition_bag_trees_are_pinned(L, delta, d, m):
    g, meta = build("degenerate_lower_G", L=L, delta=delta, d=d, a=8.0, m=m)
    td = build_tree_decomposition_degenerate(g, meta)
    bags = [tuple(sorted(b)) for b in td.bags]
    edges = sorted(tuple(sorted((bags[a], bags[b]))) for a, b in td.tree_edges)
    digest = hashlib.sha256(repr((sorted(bags), edges)).encode()).hexdigest()
    assert digest == _PINNED_DECOMPOSITIONS[L, delta, d, m]


def test_verifier_rejects_bad_decompositions():
    from helpers import complete

    g = complete(3)
    td = TreeDecomposition(
        (frozenset({0, 1}), frozenset({2}), frozenset({0, 2})), ((0, 1), (1, 2))
    )
    report = verify_tree_decomposition(g, td)
    assert not report.passed
    assert any("edge (1, 2)" in v for v in report.violations)
    assert any("not connected" in v for v in report.violations)

    td2 = TreeDecomposition((frozenset({0, 1, 2}),), ((0, 0),))
    report2 = verify_tree_decomposition(g, td2)
    assert not report2.passed
