"""Counting oracles: hand counts, formula instantiations, exhaustive small sweeps."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from treegrowth.counting import (
    bound_matrix,
    bound_paths_genus,
    bound_walks_degenerate,
    ceil_sqrt,
    count_report,
    count_simple_paths_upto,
    count_walks_upto,
    height_cutoff_plan,
)
from treegrowth.families import FamilySpec, build_family
from treegrowth.graphs import BudgetExceededError, Graph

from helpers import bfs_diameter, complete, cycle, path, connected_graphs


def test_ceil_sqrt_oracles():
    assert ceil_sqrt(0) == 0
    assert ceil_sqrt(1) == 1
    assert ceil_sqrt(2) == 2
    assert ceil_sqrt(4) == 2
    assert ceil_sqrt(5) == 3
    big = (10**30 + 7) ** 2
    assert ceil_sqrt(big) == 10**30 + 7
    assert ceil_sqrt(big - 1) == 10**30 + 7


# -- exact counts ----------------------------------------------------------------


def walks_by_matrix_power(g, length):
    """Oracle: walks of the given length from each vertex, the row sums of
    the adjacency matrix's power in exact integers."""
    a = np.zeros((g.n, g.n), dtype=object)
    u, v = g.edges.T
    a[u, v] = a[v, u] = 1
    return np.linalg.matrix_power(a, length).sum(axis=1).tolist()


def paths_from(g, s, length):
    return count_simple_paths_upto(g, s, length)[length]


def test_path_count_oracles():
    assert paths_from(path(3), 0, 2) == 1
    assert paths_from(complete(4), 0, 3) == 6
    assert paths_from(cycle(6), 0, 3) == 2
    assert paths_from(cycle(6), 0, 0) == 1


def test_walk_count_oracles():
    g = complete(3)
    assert count_walks_upto(g, 2) == [g.n, 2 * g.m, 12]
    assert walks_by_matrix_power(g, 2) == [4, 4, 4]
    assert walks_by_matrix_power(g, 0) == [1] * g.n
    assert sum(walks_by_matrix_power(g, 1)) == 2 * g.m


def test_upto_matches_single_lengths():
    g = complete(4)
    ups = count_simple_paths_upto(g, 0, 3)
    assert ups == [paths_from(g, 0, length) for length in range(4)]
    assert ups == [1, 3, 6, 6]


def test_budget_exceeded_is_explicit():
    g = complete(8)
    with pytest.raises(BudgetExceededError, match="expansions"):
        count_simple_paths_upto(g, 0, 7, budget=10)


def recursive_expansion_depths(g, s, max_length):
    """Oracle: recursive backtracking, recording the depth of each expansion
    in the order they happen."""
    depths = []
    visited = [False] * g.n

    def dfs(v, depth):
        depths.append(depth)
        if depth == max_length:
            return
        visited[v] = True
        for u in g.neighbors(v).tolist():
            if not visited[u]:
                dfs(u, depth + 1)
        visited[v] = False

    dfs(s, 0)
    return depths


@given(connected_graphs(), st.integers(min_value=0, max_value=6), st.data())
def test_path_search_matches_recursive_backtracking(g, max_length, data):
    # Same counts, same expansion count, and the budget trips at the same
    # expansion, at the same depth, with the same message.
    s = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    depths = recursive_expansion_depths(g, s, max_length)
    counts = [depths.count(length) for length in range(max_length + 1)]
    assert count_simple_paths_upto(g, s, max_length, budget=len(depths)) == counts
    budget = data.draw(st.integers(min_value=0, max_value=len(depths) - 1))
    depth = depths[budget]
    with pytest.raises(BudgetExceededError) as err:
        count_simple_paths_upto(g, s, max_length, budget=budget)
    assert str(err.value) == (
        f"path search exceeded {budget} node expansions at depth {depth}")


def test_path_search_is_not_capped_by_the_recursion_limit():
    assert count_simple_paths_upto(path(1500), 0, 1400) == [1] * 1401


def test_walks_upto_match_single_lengths():
    g, _ = build_family(FamilySpec("grid", {"d": 3, "k": 2}))
    assert count_walks_upto(g, 12) == [
        sum(walks_by_matrix_power(g, length)) for length in range(13)
    ]
    big = count_walks_upto(g, 60)[60]  # exact past 2**63
    assert big > 2**63 and big == sum(walks_by_matrix_power(g, 60))


def test_counts_symmetric_under_vertex_transitivity():
    c6 = cycle(6)
    counts = {paths_from(c6, s, 4) for s in range(6)}
    assert len(counts) == 1
    cube, _ = build_family(FamilySpec("grid", {"d": 3, "k": 1}))
    counts = {paths_from(cube, s, 5) for s in range(cube.n)}
    assert len(counts) == 1


@given(connected_graphs(), st.integers(min_value=0, max_value=5))
def test_paths_below_walks_below_trivial(g, length):
    paths = paths_from(g, 0, length)
    walks = walks_by_matrix_power(g, length)[0]
    assert paths <= walks <= max(g.max_degree, 1) ** length


# -- ceilings --------------------------------------------------------------------


def test_walk_bound_frozen_values():
    assert bound_walks_degenerate(6, 1, 2, 2) == 96
    assert bound_walks_degenerate(5, 2, 3, 0) == 10
    assert bound_walks_degenerate(3, 1, 2, 3) == 3 * 2 * 8 * ceil_sqrt(8)
    with pytest.raises(ValueError):
        bound_walks_degenerate(5, 4, 3, 2)


def test_genus_bound_frozen_values():
    assert bound_paths_genus(20, 0, 6, 4) == 829440
    assert bound_paths_genus(10, 0, 7, 2) == 2 * 10 * 4 * 6 * 7
    odd = bound_paths_genus(10, 0, 7, 3)
    assert odd == 2 * 10 * 8 * ceil_sqrt(6**3 * 7**3)
    with pytest.raises(ValueError):
        bound_paths_genus(10, 0, 5, 2)
    with pytest.raises(ValueError):
        bound_paths_genus(10, 1, 8, 5)


def test_walk_bound_exhaustive_on_trees():
    rng = np.random.default_rng(7)
    for n in range(2, 11):
        for _ in range(3):
            parents = [int(rng.integers(0, i)) for i in range(1, n)]
            g = Graph(n, [(p, i + 1) for i, p in enumerate(parents)])
            assert g.degeneracy() == 1
            for length, walks in enumerate(count_walks_upto(g, 6)):
                assert walks <= bound_walks_degenerate(n, 1, g.max_degree, length)


def test_genus_bound_on_planar_instances():
    grid, _ = build_family(FamilySpec("grid", {"d": 2, "k": 2}))
    for g, genus in [(cycle(6), 0), (grid, 0), (complete(4), 0)]:
        delta = max(g.max_degree, 6)
        per_start = [count_simple_paths_upto(g, s, 8) for s in range(g.n)]
        for length, total in enumerate(map(sum, zip(*per_start))):
            assert total <= bound_paths_genus(g.n, genus, delta, length)


def test_height_cutoff_plan_instantiations():
    n, diam, delta = 64, 6, 4
    K = 4 * math.log(n) + 2 * diam
    L, fail = height_cutoff_plan(1.0 / n, delta, 2.0, K)
    assert L == math.ceil(2 * math.e * delta * K)
    assert fail == 1.0 / n + 2.0 ** (-L)
    L2, fail2 = height_cutoff_plan(0.25, 4.0, 2.0, 1000.0)
    assert fail2 == pytest.approx(0.25)
    assert L2 == math.ceil(8 * math.e * 1000.0)
    with pytest.raises(ValueError):
        height_cutoff_plan(1.2, 2.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        height_cutoff_plan(0.1, 0.5, 2.0, 1.0)


@given(
    st.floats(min_value=1.0, max_value=50.0),
    st.floats(min_value=1.0, max_value=50.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.5, max_value=100.0),
    st.floats(min_value=0.5, max_value=100.0),
)
def test_height_cutoff_monotone(a1, a2, c1, c2, k1, k2):
    a1, a2 = sorted((a1, a2))
    c1, c2 = sorted((c1, c2))
    k1, k2 = sorted((k1, k2))
    lo, _ = height_cutoff_plan(0.0, a1, c1, k1)
    hi, _ = height_cutoff_plan(0.0, a2, c2, k2)
    assert lo <= hi


# -- bound matrix ----------------------------------------------------------------


def test_bound_matrix_k2_rows():
    # p = 2/n = 1 on K_2: the cover and cutoff rows would carry allowance
    # 1.0, which no outcome exceeds, so they have no row.
    g, meta = build_family(FamilySpec("complete", {"n": 2}))
    rows = {r.check_id: r for r in bound_matrix(g, meta)}
    assert list(rows) == ["height_expansion"]
    # Psi(K2) = 1, so the cutoff is ceil(4e).
    assert rows["height_expansion"].value == math.ceil(4 * math.e)
    assert rows["height_expansion"].failure_prob == 2.0 ** (-rows["height_expansion"].value)


def test_bound_matrix_k16_expansion_row():
    g, meta = build_family(FamilySpec("complete", {"n": 16}))
    rows = {r.check_id: r for r in bound_matrix(g, meta)}
    psi = sum(Fraction(1, k * (16 - k)) for k in range(1, 9))
    assert "height_expansion" in rows
    assert rows["height_expansion"].value == math.ceil(4 * math.e * float(psi) * 15)


def test_bound_matrix_genus_row_on_grid():
    g, meta = build_family(FamilySpec("grid", {"d": 2, "k": 2}))
    rows = {r.check_id: r for r in bound_matrix(g, meta)}
    K = 4 * math.log(9) + 2 * 4
    assert "height_genus" in rows
    assert rows["height_genus"].value == math.ceil(16 * math.e * math.sqrt(24) * K)
    degen_row = rows["height_degeneracy"]
    assert degen_row.value == math.ceil(8 * math.e * math.sqrt(2 * 4) * K)
    assert degen_row.failure_prob == pytest.approx(2.0 / 9 + 2.0 ** (-degen_row.value))


def test_bound_matrix_flags_inapplicable_rows():
    g, meta = build_family(FamilySpec("complete", {"n": 32}))
    rows = {r.check_id: r for r in bound_matrix(g, meta)}
    assert "height_expansion" not in rows  # exact profile capped at n=16
    lg, lmeta = build_family(FamilySpec("ladder_H", {"L": 3, "delta": 3}))
    lrows = {r.check_id: r for r in bound_matrix(lg, lmeta)}
    assert lmeta.declared_genus is None
    assert "height_genus" not in lrows
    assert "height_expansion" in lrows


EXACT_DIAMETER_SPECS = (
    [FamilySpec("complete", {"n": n}) for n in range(1, 13)]
    + [FamilySpec("grid", {"d": d, "k": k}) for d in range(1, 5) for k in (2, 3)]
    + [FamilySpec("grid", {"d": d, "k": 1}) for d in range(1, 9)]
)


@pytest.mark.parametrize(
    "spec", EXACT_DIAMETER_SPECS,
    ids=[f"{s.kind}{tuple(s.params.values())}" for s in EXACT_DIAMETER_SPECS],
)
def test_closed_form_diameter_is_exact(spec):
    g, meta = build_family(spec)
    assert meta.declared_diameter_bound == bfs_diameter(g)


@pytest.mark.parametrize("spec", [
    FamilySpec("glued_G", {"L": 16, "delta": 4, "a": 8.0, "m": 5}),
    FamilySpec("degenerate_lower_G", {"L": 8, "delta": 3, "d": 2, "a": 8.0, "m": 3}),
    FamilySpec("grid", {"d": 3, "k": 3}),
], ids=["glued_G", "degenerate_lower_G", "grid"])
def test_bound_matrix_runs_no_search(spec, monkeypatch):
    # Every breadth-first search goes through Graph._structure, so once the
    # graph is built a structure that cannot be made shows that none runs.
    g, meta = build_family(spec)

    def no_search(self):
        raise AssertionError("bound_matrix searched the graph")

    monkeypatch.setattr(Graph, "_structure", no_search)
    rows = bound_matrix(g, meta)
    diam = meta.declared_diameter_bound
    assert rows[0].value == 4 * math.log(g.n) + 2 * diam
    assert rows[0].formula == "4*ln(n) + 2*diameter"


# kind and formula of each row
ROW_FORMULAS = {
    "cover_log_diameter": ("cover_time", "4*ln(n) + 2*diameter"),
    "height_max_degree": ("height", "ceil(2*e*max_degree*(4*ln(n) + 2*diameter))"),
    "height_degeneracy": (
        "height", "ceil(8*e*sqrt(degeneracy*max_degree)*(2*diameter + 4*ln(n)))"
    ),
    "height_genus": ("height", "ceil(16*e*sqrt(6*max_degree)*(2*diameter + 4*ln(n)))"),
    "height_expansion": ("height", "ceil(4*e*inverse_boundary_sum*max_degree)"),
}

# name: (family, [(check_id, repr(value), repr(failure_prob))]), every row
# bound_matrix gives, in order.  K_1 and K_2 have allowance p = 2/n >= 1, so
# no cover or cutoff row, and K_1 has no edge, so no height row; the
# expansion row stops past n = 16 (K_16 against K_17); ladder_H declares no
# genus.
PINNED_ROWS = {
    "K1": (FamilySpec("complete", {"n": 1}), []),
    "K2": (
        FamilySpec("complete", {"n": 2}), [
            ("height_expansion", "11", "0.00048828125"),
        ],
    ),
    "K16": (
        FamilySpec("complete", {"n": 16}), [
            ("cover_log_diameter", "13.090354888959125", "0.125"),
            ("height_max_degree", "1068", "0.125"),
            ("height_degeneracy", "4270", "0.125"),
            ("height_genus", "5402", "0.125"),
            ("height_expansion", "36", "1.4551915228366852e-11"),
        ],
    ),
    "K17": (
        FamilySpec("complete", {"n": 17}), [
            ("cover_log_diameter", "13.332853376224865", "0.11764705882352941"),
            ("height_max_degree", "1160", "0.11764705882352941"),
            ("height_degeneracy", "4640", "0.11764705882352941"),
            ("height_genus", "5682", "0.11764705882352941"),
        ],
    ),
    "K32": (
        FamilySpec("complete", {"n": 32}), [
            ("cover_log_diameter", "15.862943611198906", "0.0625"),
            ("height_max_degree", "2674", "0.0625"),
            ("height_degeneracy", "10694", "0.0625"),
            ("height_genus", "9410", "0.0625"),
        ],
    ),
    "K256": (
        FamilySpec("complete", {"n": 256}), [
            ("cover_log_diameter", "24.18070977791825", "0.0078125"),
            ("height_max_degree", "33523", "0.0078125"),
            ("height_degeneracy", "134090", "0.0078125"),
        ],
    ),
    "grid2x7": (
        FamilySpec("grid", {"d": 2, "k": 7}), [
            ("cover_log_diameter", "44.63553233343869", "0.03125"),
            ("height_max_degree", "971", "0.03125"),
            ("height_degeneracy", "2746", "0.03125"),
            ("height_genus", "9511", "0.03125"),
        ],
    ),
    "grid3x3": (
        FamilySpec("grid", {"d": 3, "k": 3}), [
            ("cover_log_diameter", "34.63553233343869", "0.03125"),
            ("height_max_degree", "1130", "0.03125"),
            ("height_degeneracy", "3196", "0.03125"),
        ],
    ),
    "Q10": (
        FamilySpec("grid", {"d": 10, "k": 1}), [
            ("cover_log_diameter", "47.725887222397816", "0.001953125"),
            ("height_max_degree", "2595", "0.001953125"),
            ("height_degeneracy", "10379", "0.001953125"),
        ],
    ),
    "ladder_H_L16_delta4": (
        FamilySpec("ladder_H", {"L": 16, "delta": 4}), [
            ("cover_log_diameter", "46.63553233343869", "0.03125"),
            ("height_max_degree", "2029", "0.03125"),
            ("height_degeneracy", "5737", "0.03125"),
        ],
    ),
    "ladder_H_L3_delta3": (
        FamilySpec("ladder_H", {"L": 3, "delta": 3}), [
            ("cover_log_diameter", "12.788898309344878", "0.2222222222222222"),
            ("height_max_degree", "418", "0.2222222222222222"),
            ("height_degeneracy", "1180", "0.2222222222222222"),
            ("height_expansion", "49", "1.7763568394002505e-15"),
        ],
    ),
    "glued_G_L4_delta1_a8_m2": (
        FamilySpec("glued_G", {"L": 4, "delta": 1, "a": 8, "m": 2}), [
            ("cover_log_diameter", "17.591581091193483", "0.18181818181818182"),
            ("height_max_degree", "287", "0.18181818181818182"),
            ("height_degeneracy", "938", "0.18181818181818182"),
            ("height_genus", "3247", "0.18181818181818182"),
            ("height_expansion", "71", "4.235164736271502e-22"),
        ],
    ),
    "Q14": (
        FamilySpec("grid", {"d": 14, "k": 1}), [
            ("cover_log_diameter", "66.81624211135693", "0.0001220703125"),
            ("height_max_degree", "5086", "0.0001220703125"),
            ("height_degeneracy", "20343", "0.0001220703125"),
        ],
    ),
}


@pytest.mark.parametrize("name", list(PINNED_ROWS))
def test_bound_matrix_rows_are_pinned(name):
    spec, expected = PINNED_ROWS[name]
    g, meta = build_family(spec)
    got = [
        (r.check_id, r.kind, repr(r.value), repr(r.failure_prob), r.formula)
        for r in bound_matrix(g, meta)
    ]
    want = []
    for check_id, value, failure_prob in expected:
        kind, formula = ROW_FORMULAS[check_id]
        want.append((check_id, kind, value, failure_prob, formula))
    assert got == want


# -- reports ---------------------------------------------------------------------


def test_count_report_on_planar_grid():
    g, meta = build_family(FamilySpec("grid", {"d": 2, "k": 2}))
    rows = count_report(g, meta, "grid_2_2", s=0, max_length=6)
    kinds = {r.bound_kind for r in rows}
    assert kinds == {"degenerate", "trivial", "genus"}
    assert all(r.passed for r in rows)
    walk_rows = [r for r in rows if r.bound_kind == "degenerate"]
    assert [r.length for r in walk_rows] == list(range(7))
    assert walk_rows[0].exact == 9 and walk_rows[1].exact == 24
    assert [r.exact for r in walk_rows] == [
        sum(walks_by_matrix_power(g, length)) for length in range(7)
    ]
    trivial_rows = [r for r in rows if r.bound_kind == "trivial"]
    assert [r.exact for r in trivial_rows] == count_simple_paths_upto(g, 0, 6)
    genus_rows = [r for r in rows if r.bound_kind == "genus"]
    totals = [sum(paths_from(g, s, length) for s in range(g.n)) for length in range(7)]
    assert [r.exact for r in genus_rows] == totals
    assert [r.bound_kind for r in rows[:3]] == ["degenerate", "trivial", "genus"]


def test_count_report_without_meta_has_no_genus_rows():
    rows = count_report(cycle(5), None, "c5", s=0, max_length=3)
    assert {r.bound_kind for r in rows} == {"degenerate", "trivial"}
    assert all(r.passed for r in rows)


@pytest.mark.parametrize("family", [
    FamilySpec("grid", {"d": 2, "k": 2}),
    FamilySpec("complete", {"n": 5}),
    FamilySpec("ladder_H", {"L": 3, "delta": 3}),
], ids=["grid_2_2", "complete5", "ladder_3_3"])
def test_count_report_without_start_drops_only_the_trivial_rows(family):
    g, meta = build_family(family)
    with_start = count_report(g, meta, "g", s=0, max_length=7)
    assert count_report(g, meta, "g", s=None, max_length=7) == [
        r for r in with_start if r.bound_kind != "trivial"
    ]
