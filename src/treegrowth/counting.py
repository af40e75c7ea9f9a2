"""Exact walk and simple-path counting plus closed-form ceilings for those counts.

Counts are exact big integers, read off one neighbour table per graph.  The
ceiling formulas come in three kinds: a trivial per-start bound
max_degree**L, a walk bound driven by degeneracy, and a simple-path bound
driven by (declared) genus.  Bounds with half-integer exponents are rounded
up so that every comparison stays conservative.  ``count_report`` is the one
place that pairs each count with its ceiling; the ``count`` command and
acceptance criterion 6 both read its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import BudgetExceededError, Graph, GraphError
from .families import ConstructionMeta

__all__ = [
    "BoundRow",
    "CountRow",
    "bound_matrix",
    "bound_paths_genus",
    "bound_walks_degenerate",
    "ceil_sqrt",
    "count_report",
    "count_simple_paths_upto",
    "count_walks_upto",
    "height_cutoff_plan",
]

E = math.e
_EXPANSION_BUDGET = 16  # largest n whose exact boundary profile bound_matrix computes
_DIAMETER_COST_CAP = 2 * 10**8  # largest n*m for which bound_matrix measures the diameter


def ceil_sqrt(x: int) -> int:
    """Smallest integer s with s*s >= x, exact for arbitrarily large x."""
    if x < 0:
        raise ValueError("ceil_sqrt needs x >= 0")
    r = math.isqrt(x)
    return r if r * r == x else r + 1


# -- exact counts ----------------------------------------------------------------


def _neighbor_lists(g: Graph) -> list[list[int]]:
    """Each vertex's neighbours in ascending order, from one tolist of the CSR."""
    flat, ptr = g.adj_indices.tolist(), g.adj_indptr.tolist()
    return [flat[ptr[v] : ptr[v + 1]] for v in range(g.n)]


def count_walks_upto(g: Graph, max_length: int) -> list[int]:
    """Total numbers of directed walks in g, one entry per length 0..max_length."""
    if max_length < 0:
        raise ValueError("walk length must be >= 0")
    neighbors = _neighbor_lists(g)
    counts = [1] * g.n  # walks of the current length starting at each vertex
    totals = [g.n]
    for _ in range(max_length):
        counts = [sum(map(counts.__getitem__, nbrs)) for nbrs in neighbors]
        totals.append(sum(counts))
    return totals


def _count_paths(
    neighbors: list[list[int]], s: int, max_length: int, budget: int
) -> list[int]:
    """Simple paths from s per length 0..max_length, by depth-first
    backtracking on an explicit stack over a neighbour table."""
    if not 0 <= s < len(neighbors):
        raise GraphError(f"start vertex {s} out of range")
    if max_length < 0:
        raise GraphError("max_length must be >= 0")
    counts = [0] * (max_length + 1)
    visited = [False] * len(neighbors)
    expansions = 0
    # stack[d] iterates over the candidates for depth d; path[d] is the
    # vertex at depth d, marked visited while its subtree is searched.
    stack = [iter((s,))]
    path: list[int] = []
    while stack:
        for v in stack[-1]:
            if not visited[v]:
                break
        else:
            stack.pop()
            if path:
                visited[path.pop()] = False
            continue
        depth = len(stack) - 1
        expansions += 1
        if expansions > budget:
            raise BudgetExceededError(
                f"path search exceeded {budget} node expansions at depth {depth}"
            )
        counts[depth] += 1
        if depth < max_length:
            visited[v] = True
            path.append(v)
            stack.append(iter(neighbors[v]))
    return counts


def count_simple_paths_upto(
    g: Graph, s: int, max_length: int, budget: int = 10**8
) -> list[int]:
    """Exact counts of simple paths from s, one entry per length 0..max_length.

    The search runs on an explicit stack, so path length is not capped by
    Python's recursion limit; raises BudgetExceededError once the number of
    node expansions passes the budget, naming the budget and the depth
    reached.
    """
    return _count_paths(_neighbor_lists(g), s, max_length, budget)


# -- closed-form ceilings ---------------------------------------------------------


def bound_walks_degenerate(n: int, d: int, max_degree: int, length: int) -> int:
    """Ceiling 2*n*2**L*(d*max_degree)**(L/2) on the total walk count.

    Valid for any d-degenerate graph with the given max degree; odd L rounds
    the half power up.
    """
    if d > max_degree:
        raise ValueError("degeneracy cannot exceed max degree")
    if length < 0:
        raise ValueError("length must be >= 0")
    base = 2 * n * 2**length
    if length % 2 == 0:
        return base * (d * max_degree) ** (length // 2)
    return base * ceil_sqrt((d * max_degree) ** length)


def bound_paths_genus(n: int, genus: int, max_degree: int, length: int) -> int:
    """Ceiling 2*n*2**L*6**(L/2-3g)*max_degree**(L/2+3g) on total simple paths.

    Requires max_degree >= 6 and L >= 6*genus so both exponents stay
    non-negative; odd L rounds the half powers up.
    """
    if max_degree < 6:
        raise ValueError("the genus path bound needs max degree >= 6")
    if genus < 0:
        raise ValueError("genus must be >= 0")
    if length < 6 * genus:
        raise ValueError("the genus path bound needs length >= 6*genus")
    base = 2 * n * 2**length
    lo, hi = length - 6 * genus, length + 6 * genus
    if length % 2 == 0:
        return base * 6 ** (lo // 2) * max_degree ** (hi // 2)
    return base * ceil_sqrt(6**lo * max_degree**hi)


def height_cutoff_plan(p: float, a: float, c: float, K: float) -> tuple[int, float]:
    """Height cutoff L = ceil(c*e*a*K) and its failure probability p + c**(-L).

    Given a process whose cover time exceeds K with probability at most p on a
    graph with at most a**L simple paths of length L from the start, the tree
    height stays below L except with the returned probability.
    """
    if not 0 <= p < 1:
        raise ValueError("p must be in [0, 1)")
    if a < 1:
        raise ValueError("a must be >= 1")
    if c <= 0 or K <= 0:
        raise ValueError("c and K must be positive")
    L = math.ceil(c * E * a * K)
    try:
        tail = c ** (-L)
    except OverflowError:
        tail = math.inf
    return L, p + tail


# -- per-instance bound table ------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    """One closed-form ceiling instantiated for a concrete graph.

    kind "cover_time" rows bound the cover time (exceed when tau > value);
    kind "height" rows give an integer cutoff (exceed when height >= value).
    failure_prob is the probability allowance for the exceedance event.
    """

    check_id: str
    kind: str
    value: float
    failure_prob: float
    formula: str


def bound_matrix(g: Graph, meta: ConstructionMeta) -> list[BoundRow]:
    """Instantiate every cover-time / height ceiling that applies to g.

    A ceiling whose premises fail has no row.  The cover row always
    applies; the height rows need an edge (max degree >= 1), and come in
    the order max degree, degeneracy, genus, expansion.  Genus is taken
    from declared metadata, never computed, and its row needs the genus
    to be small against sqrt(max_degree)*(diameter + ln n).  The expansion
    row needs the exact boundary profile, so n within the budget.  The
    measured diameter is used unless n*m makes that too costly, in which
    case the declared bound stands in (noted in the formula).
    """
    n, delta = g.n, g.max_degree
    if n * g.m <= _DIAMETER_COST_CAP:
        diam, diam_src = g.diameter(), "diameter"
    else:
        diam, diam_src = meta.declared_diameter_bound, "declared_diameter_bound"
    K = 4 * math.log(n) + 2 * diam
    p = 2.0 / n
    rows = [BoundRow("cover_log_diameter", "cover_time", K, p, f"4*ln(n) + 2*{diam_src}")]
    if delta < 1:  # a single vertex: the tree has no height to bound
        return rows
    # (check_id, a, formula) for a graph with at most a**L simple paths of
    # length L from the start: the height stays below ceil(2*e*a*K) unless
    # the cover time exceeds K.  p stays outside height_cutoff_plan, which
    # refuses p = 1 (K_2).
    cutoffs = [
        ("height_max_degree", delta, f"ceil(2*e*max_degree*(4*ln(n) + 2*{diam_src}))"),
        (
            "height_degeneracy",
            4.0 * math.sqrt(g.degeneracy_ordering().degeneracy * delta),
            f"ceil(8*e*sqrt(degeneracy*max_degree)*(2*{diam_src} + 4*ln(n)))",
        ),
    ]
    genus = meta.declared_genus
    genus_cap = 36 * math.sqrt(delta) * (diam + math.log(n))
    if genus is not None and genus * math.log(max(delta, 2)) <= genus_cap:
        cutoffs.append((
            "height_genus",
            8.0 * math.sqrt(6 * delta),
            f"ceil(16*e*sqrt(6*max_degree)*(2*{diam_src} + 4*ln(n)))",
        ))
    for check_id, a, formula in cutoffs:
        cut, fail = height_cutoff_plan(0.0, a, 2.0, K)
        rows.append(BoundRow(check_id, "height", cut, min(1.0, p + fail), formula))
    if n <= _EXPANSION_BUDGET:
        psi = float(g.expansion_profile(budget=_EXPANSION_BUDGET).inverse_boundary_sum)
        cut = math.ceil(4 * E * psi * delta)
        rows.append(BoundRow(
            "height_expansion", "height", cut, 2.0 ** (-cut),
            "ceil(4*e*inverse_boundary_sum*max_degree)",
        ))
    return rows


# -- count-vs-bound reporting -------------------------------------------------------


@dataclass(frozen=True)
class CountRow:
    """One exact count compared against one ceiling."""

    graph_label: str
    s: int | None
    length: int
    exact: int
    bound_kind: str
    bound_value: int
    passed: bool


def count_report(
    g: Graph,
    meta: ConstructionMeta | None,
    graph_label: str,
    s: int | None,
    max_length: int,
    budget: int = 10**8,
) -> list[CountRow]:
    """Exact counts vs ceilings for every length 0..max_length.

    Emits walk totals against the degeneracy ceiling, simple paths from s
    against the trivial max_degree**L ceiling (left out when s is None), and
    (when the metadata declares a genus) total simple paths against the genus
    ceiling evaluated at an effective max degree of at least 6, which the
    formula requires.  Every path search reads one neighbour table.
    """
    delta = g.max_degree
    degen = g.degeneracy_ordering().degeneracy
    neighbors = _neighbor_lists(g)
    from_s = None if s is None else _count_paths(neighbors, s, max_length, budget)
    genus = None if meta is None else meta.declared_genus
    totals = [0] * (max_length + 1)
    if genus is not None and max_length >= 6 * genus:
        for v in range(g.n):
            per_v = from_s if v == s else _count_paths(neighbors, v, max_length, budget)
            for length, c in enumerate(per_v):
                totals[length] += c
    rows: list[CountRow] = []
    for length, walks in enumerate(count_walks_upto(g, max_length)):
        wbound = bound_walks_degenerate(g.n, degen, delta, length)
        rows.append(
            CountRow(graph_label, None, length, walks, "degenerate", wbound, walks <= wbound)
        )
        if from_s is not None:
            tbound = max(delta, 1) ** length
            rows.append(
                CountRow(
                    graph_label, s, length, from_s[length], "trivial", tbound,
                    from_s[length] <= tbound,
                )
            )
        if genus is not None and length >= 6 * genus:
            pbound = bound_paths_genus(g.n, genus, max(delta, 6), length)
            rows.append(
                CountRow(
                    graph_label, None, length, totals[length], "genus", pbound,
                    totals[length] <= pbound,
                )
            )
    return rows
