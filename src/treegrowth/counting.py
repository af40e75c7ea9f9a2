"""Exact walk and simple-path counting plus closed-form ceilings for those counts.

Counts are exact big integers.  The ceiling formulas come in three kinds:
a trivial per-start bound max_degree**L, a walk bound driven by degeneracy,
and a simple-path bound driven by (declared) genus.  Bounds with half-integer
exponents are rounded up so that every comparison stays conservative.
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
    "count_simple_paths_from",
    "count_simple_paths_upto",
    "count_walks",
    "count_walks_from",
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


def _walk_profile(g: Graph, length: int) -> list[int]:
    """Per-vertex counts of walks of the given length starting at that vertex."""
    if length < 0:
        raise ValueError("walk length must be >= 0")
    counts = [1] * g.n
    neighbors = [g.neighbors(v).tolist() for v in range(g.n)]
    for _ in range(length):
        counts = [sum(counts[u] for u in neighbors[v]) for v in range(g.n)]
    return counts


def count_walks(g: Graph, length: int) -> int:
    """Total number of directed walks of the given length in g."""
    return sum(_walk_profile(g, length))


def count_walks_from(g: Graph, s: int, length: int) -> int:
    """Number of directed walks of the given length starting at s."""
    if not 0 <= s < g.n:
        raise ValueError(f"start vertex {s} out of range")
    return _walk_profile(g, length)[s]


def count_simple_paths_upto(
    g: Graph, s: int, max_length: int, budget: int = 10**8
) -> list[int]:
    """Exact counts of simple paths from s, one entry per length 0..max_length.

    Depth-first backtracking; raises BudgetExceededError once the number of
    node expansions passes the budget, naming the budget and the depth reached.
    """
    if not 0 <= s < g.n:
        raise GraphError(f"start vertex {s} out of range")
    if max_length < 0:
        raise GraphError("max_length must be >= 0")
    neighbors = [g.neighbors(v).tolist() for v in range(g.n)]
    counts = [0] * (max_length + 1)
    visited = [False] * g.n
    expansions = 0

    def dfs(v: int, depth: int) -> None:
        nonlocal expansions
        expansions += 1
        if expansions > budget:
            raise BudgetExceededError(
                f"path search exceeded {budget} node expansions at depth {depth}"
            )
        counts[depth] += 1
        if depth == max_length:
            return
        visited[v] = True
        for u in neighbors[v]:
            if not visited[u]:
                dfs(u, depth + 1)
        visited[v] = False

    dfs(s, 0)
    return counts


def count_simple_paths_from(g: Graph, s: int, length: int, budget: int = 10**8) -> int:
    """Exact number of simple paths with `length` edges starting at s."""
    return count_simple_paths_upto(g, s, length, budget)[length]


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
    applicable: bool
    formula: str


def bound_matrix(g: Graph, meta: ConstructionMeta) -> list[BoundRow]:
    """Instantiate every applicable cover-time / height ceiling for g.

    Genus is taken from declared metadata, never computed.  The expansion row
    needs the exact boundary profile and is only applicable for n within the
    budget.  The measured diameter is used unless n*m makes that too costly,
    in which case the declared bound stands in (noted in the formula).
    """
    n, delta = g.n, g.max_degree
    if n * g.m <= _DIAMETER_COST_CAP:
        diam = g.diameter()
        diam_src = "diameter"
    else:
        diam = meta.declared_diameter_bound
        diam_src = "declared_diameter_bound"
    K = 4 * math.log(n) + 2 * diam
    p = 2.0 / n
    rows = [
        BoundRow(
            check_id="cover_log_diameter",
            kind="cover_time",
            value=K,
            failure_prob=p,
            applicable=True,
            formula=f"4*ln(n) + 2*{diam_src}",
        )
    ]
    if delta >= 1:
        cut, fail = height_cutoff_plan(0.0, delta, 2.0, K)
        fail = min(1.0, p + fail)
        rows.append(
            BoundRow(
                check_id="height_max_degree",
                kind="height",
                value=cut,
                failure_prob=fail,
                applicable=True,
                formula=f"ceil(2*e*max_degree*(4*ln(n) + 2*{diam_src}))",
            )
        )
        degen = g.degeneracy_ordering().degeneracy
        a = 4.0 * math.sqrt(max(degen, 1) * delta)
        cut, fail = height_cutoff_plan(0.0, max(a, 1.0), 2.0, K)
        fail = min(1.0, p + fail)
        rows.append(
            BoundRow(
                check_id="height_degeneracy",
                kind="height",
                value=cut,
                failure_prob=fail,
                applicable=True,
                formula="ceil(8*e*sqrt(degeneracy*max_degree)"
                f"*(2*{diam_src} + 4*ln(n)))",
            )
        )
    genus = meta.declared_genus
    genus_ok = (
        genus is not None
        and delta >= 1
        and genus * math.log(max(delta, 2))
        <= 36 * math.sqrt(delta) * (diam + math.log(n))
    )
    if genus_ok:
        a = 8.0 * math.sqrt(6 * delta)
        cut, fail = height_cutoff_plan(0.0, max(a, 1.0), 2.0, K)
        fail = min(1.0, p + fail)
    else:
        cut, fail = 0, 1.0
    rows.append(
        BoundRow(
            check_id="height_genus",
            kind="height",
            value=cut,
            failure_prob=fail,
            applicable=bool(genus_ok),
            formula=f"ceil(16*e*sqrt(6*max_degree)*(2*{diam_src} + 4*ln(n)))",
        )
    )
    if n <= _EXPANSION_BUDGET and delta >= 1:
        psi = float(g.expansion_profile(budget=_EXPANSION_BUDGET).inverse_boundary_sum)
        cut = math.ceil(4 * E * psi * delta)
        rows.append(
            BoundRow(
                check_id="height_expansion",
                kind="height",
                value=cut,
                failure_prob=2.0 ** (-cut),
                applicable=True,
                formula="ceil(4*e*inverse_boundary_sum*max_degree)",
            )
        )
    else:
        rows.append(
            BoundRow(
                check_id="height_expansion",
                kind="height",
                value=0,
                failure_prob=1.0,
                applicable=False,
                formula="ceil(4*e*inverse_boundary_sum*max_degree)",
            )
        )
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
    s: int,
    max_length: int,
    budget: int = 10**8,
) -> list[CountRow]:
    """Exact counts vs ceilings for every length 0..max_length.

    Emits walk totals against the degeneracy ceiling, per-start simple paths
    against the trivial max_degree**L ceiling, and (when the metadata declares
    a genus) total simple paths against the genus ceiling evaluated at an
    effective max degree of at least 6, which the formula requires.
    """
    delta = g.max_degree
    degen = g.degeneracy_ordering().degeneracy
    rows: list[CountRow] = []
    from_s = count_simple_paths_upto(g, s, max_length, budget)
    genus = None if meta is None else meta.declared_genus
    totals = [0] * (max_length + 1)
    if genus is not None and max_length >= 6 * genus:
        for v in range(g.n):
            per_v = (
                from_s
                if v == s
                else count_simple_paths_upto(g, v, max_length, budget)
            )
            for length, c in enumerate(per_v):
                totals[length] += c
    for length in range(max_length + 1):
        walks = count_walks(g, length)
        wbound = bound_walks_degenerate(g.n, max(degen, 1), delta, length)
        rows.append(
            CountRow(graph_label, None, length, walks, "degenerate", wbound, walks <= wbound)
        )
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
