"""Parameterized graph families for the growth experiments.

Simple families (complete graphs, axis-aligned grids) exercise the upper
bounds.  The chain families realize the height lower bounds: a
high-connectivity chain H keeps the fast process on a long route while a
subdivided perfect binary tree I provides a short but slow bypass, glued
to the chain at one vertex per group.  Construction metadata records
vertex roles, the transit threshold used by the route-competition events,
and the declared structural parameters that the bound checks consume.

Each kind has one resolver and one builder, paired in the ``_FAMILIES``
table.  The resolver is the only code that reads a kind's params: it checks
their types and ranges and returns the plan (resolved params and vertex
count), which ``plan_family`` prints and ``build_family`` checks against the
vertex budget before the builder materializes any edge.

Vertex numbering in the chain families: the chain H occupies ids
[0, chain_vertex_count); the internal tree vertices and the subdivision
vertices of I follow.  An edge belongs to H exactly when both endpoints
are below chain_vertex_count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from treegrowth.graphs import _MAX_IDS, BudgetExceededError, Graph, GraphError

E2 = math.e**2
# No plan counts more vertices than this; build_family builds at most 2**31.
_VERTEX_LIMIT = 2**63
_TOO_MANY_VERTICES = "{kind} params are out of range: more than 2**63 vertices"

__all__ = [
    "E2",
    "KINDS",
    "ConstructionMeta",
    "DecompositionReport",
    "FamilyError",
    "FamilySpec",
    "TreeDecomposition",
    "build_family",
    "build_tree_decomposition_degenerate",
    "h_edge_mask",
    "plan_family",
    "verify_tree_decomposition",
]


class FamilyError(ValueError):
    """Raised for invalid family parameters."""


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    params: dict

    @classmethod
    def from_json_dict(cls, d: dict) -> "FamilySpec":
        if not isinstance(d, dict):
            raise FamilyError(f"family spec must be a JSON object, got {d!r}")
        if set(d) != {"kind", "params"}:
            raise FamilyError(f"family spec needs exactly kind and params, got {sorted(d)}")
        if d["kind"] not in KINDS:
            raise FamilyError(f"unknown family kind {d['kind']!r}")
        if not isinstance(d["params"], dict):
            raise FamilyError("params must be a mapping")
        return cls(d["kind"], dict(d["params"]))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}


@dataclass(frozen=True)
class ConstructionMeta:
    """Roles and declared guarantees of a generated instance.

    Declared values are analytic: the generator promises them from the
    construction, and the build step cross-checks the max degree against
    the realized graph.  The declared diameter is exact for every kind, a
    closed form that the tests check against a breadth-first search; the
    declared degeneracy is an upper bound, which keeps every bound check
    that consumes it valid.

    ``tree_edges`` lists the edges of the tree I as (parent, child) pairs
    from the root down: each child appears once, and each parent is
    ``tree_root`` or a child listed earlier.  Internal nodes come in heap
    order, and each leaf's subdivided path runs from its heap parent down to
    the leaf, so I's shape is read from these pairs alone.
    """

    kind: str
    params: dict
    declared_max_degree: int
    declared_diameter_bound: int
    declared_degeneracy: int
    declared_genus: int | None = None
    start_vertex: int = 0
    target_vertex: int | None = None
    main_groups: tuple[tuple[int, ...], ...] | None = None
    small_groups: tuple[tuple[int, ...], ...] | None = None
    leaf_vertices: tuple[int, ...] | None = None
    tree_root: int | None = None
    tree_edges: tuple[tuple[int, int], ...] | None = None
    chain_vertex_count: int | None = None
    transit_threshold: float | None = None
    height_target: int | None = None

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "params": dict(self.params),
            "declared_max_degree": self.declared_max_degree,
            "declared_diameter_bound": self.declared_diameter_bound,
            "declared_degeneracy": self.declared_degeneracy,
            "declared_genus": self.declared_genus,
            "start_vertex": self.start_vertex,
            "target_vertex": self.target_vertex,
            "chain_vertex_count": self.chain_vertex_count,
            "transit_threshold": self.transit_threshold,
            "height_target": self.height_target,
        }
        return out


# -- small helpers -------------------------------------------------------------


def _pow2_floor(x: float) -> int:
    """Largest power of two <= x, with a 1-ulp guard for exact hits."""
    if x < 1:
        raise FamilyError(f"no power of two fits below {x:g}")
    p = 1
    while 2 * p <= x * (1 + 1e-12):
        p *= 2
    return p


def _ceil(x: float) -> int:
    return math.ceil(x - 1e-12)


def _require_pow2(L: int) -> None:
    if L < 2 or L & (L - 1):
        raise FamilyError(f"L must be a power of two >= 2, got {L}")


def _as_int(params: dict, key: str, minimum: int = 1) -> int:
    """params[key], which must be an int (not a bool) of at least minimum."""
    if key not in params:
        raise FamilyError(f"missing parameter {key!r}")
    v = params[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise FamilyError(f"parameter {key!r} must be an integer, got {v!r}")
    if v < minimum:
        raise FamilyError(f"parameter {key!r} must be >= {minimum}, got {v}")
    return v


def _exact_ints(kind: str, params: dict, **minimum: int) -> list[int]:
    """The params of a simple kind: exactly the named integers, in that order."""
    if set(params) != set(minimum):
        raise FamilyError(f"{kind} takes params {sorted(minimum)}, got {sorted(params)}")
    return [_as_int(params, key, low) for key, low in minimum.items()]


def _bipartite(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack(np.meshgrid(a, b, indexing="ij"), axis=-1).reshape(-1, 2)


def _subdivided_tree_edges(
    L: int, m: int, leaf_ids, internal_base: int, subdiv_base: int
) -> list[tuple[int, int]]:
    """Perfect binary tree with L leaves, leaf edges subdivided into m-edge
    paths, as (parent, child) pairs from the root down.  Internal node h
    (heap order) is internal_base + h; subdivision vertex t of leaf j is
    subdiv_base + j*(m-1) + t; leaf ids are supplied.
    """
    edges: list[tuple[int, int]] = []
    for h in range(L - 1):
        for c in (2 * h + 1, 2 * h + 2):
            if c <= L - 2:
                edges.append((internal_base + h, internal_base + c))
            else:
                j = c - (L - 1)
                prev = internal_base + h
                for t in range(m - 1):
                    s = subdiv_base + j * (m - 1) + t
                    edges.append((prev, s))
                    prev = s
                edges.append((prev, int(leaf_ids[j])))
    return edges


# -- resolvers: raw params -> plan -----------------------------------------------------
#
# A resolver is the only code that reads, type-checks and range-checks a
# kind's params.  It returns the plan: the resolved params, which the
# builder and ConstructionMeta.params use, and the vertex count, which the
# build budget checks before any edge exists.


def _resolve_complete(p: dict) -> dict:
    (n,) = _exact_ints("complete", p, n=1)
    return {"params": {"n": n}, "n_vertices": n}


def _resolve_grid(p: dict) -> dict:
    d, k = _exact_ints("grid", p, d=1, k=1)
    if d >= 64:  # then (k+1)**d >= 2**64: refuse before computing the power
        raise FamilyError(_TOO_MANY_VERTICES.format(kind="grid"))
    return {"params": {"d": d, "k": k}, "n_vertices": (k + 1) ** d}


def _resolve_ladder(p: dict) -> dict:
    L, delta = _exact_ints("ladder_H", p, L=1, delta=1)
    if L == 1 and delta != 1:
        raise FamilyError("a one-group ladder is connected only for delta = 1")
    return {"params": {"L": L, "delta": delta}, "n_vertices": L * delta}


def _resolve_subdivided_tree(p: dict) -> dict:
    L, m = _exact_ints("subdivided_tree_I", p, L=1, m=1)
    _require_pow2(L)
    return {"params": {"L": L, "m": m}, "n_vertices": 2 * L - 1 + L * (m - 1)}


def _chain_params(
    kind: str, params: dict, a: float, formula, min_degree: int,
    floor: tuple[float, str], with_d: bool = False,
) -> dict:
    """The mode, L, delta, a (and d, and m when given) of a chain kind.

    Formula mode takes exactly max_degree and diameter (and d when with_d).
    ``formula(max_degree, diameter, d)`` gives delta and the bound below
    which L is the largest power of two; the diameter must reach
    ``floor = (c, text)`` times ln(max_degree), and a is the kind's constant.
    Override mode takes L and delta (and d) plus optional a, whose default
    is the same constant, and m.
    """
    d_key = {"d"} if with_d else set()
    if set(params) == {"max_degree", "diameter"} | d_key:
        max_degree = _as_int(params, "max_degree", min_degree)
        diameter = _as_int(params, "diameter")
        d = _as_int(params, "d") if with_d else None
        delta, length = formula(max_degree, diameter, d)
        coeff, text = floor
        floor_d = coeff * math.log(max_degree)
        if diameter < floor_d:
            raise FamilyError(
                f"{kind} formula mode needs diameter >= {text} ln(max_degree)"
                f" = {floor_d:.1f}, got {diameter}"
            )
        L = _pow2_floor(length)
        if L < 2:
            raise FamilyError(
                f"diameter {diameter} only fits a chain of length {L}; increase it"
            )
        out = {
            "mode": "formula",
            "L": L,
            "delta": delta,
            **({"d": d} if with_d else {}),
            "a": a,
            "max_degree_requested": max_degree,
            "diameter_requested": diameter,
        }
    else:
        required = {"L", "delta"} | d_key
        if not required <= set(params) <= required | {"a", "m"}:
            raise FamilyError(
                f"{kind} override mode takes {sorted(required)} plus optional ['a', 'm'],"
                f" got {sorted(params)}"
            )
        L = _as_int(params, "L")
        _require_pow2(L)
        out = {"mode": "override", "L": L, "delta": _as_int(params, "delta")}
        a = params.get("a", a)
        if isinstance(a, bool) or not isinstance(a, (int, float)) or not E2 < a < math.inf:
            raise FamilyError(
                f"route-competition constant a must be a finite number above e^2, got {a!r}"
            )
        out["a"] = float(a)
        if with_d:
            out["d"] = _as_int(params, "d")
        if "m" in params:
            out["m"] = _as_int(params, "m")
    if with_d and out["d"] > out["delta"]:
        raise FamilyError(
            f"need d <= delta for the declared degeneracy, got d={out['d']} delta={out['delta']}"
        )
    return out


def _chain_plan(r: dict, n_h: int) -> dict:
    """Plan of a chain kind whose chain H has n_h vertices; the tree I adds
    L - 1 internal vertices and m - 1 subdivision vertices per leaf."""
    L, m = r["L"], r["m"]
    return {"params": r, "n_vertices": n_h + (L - 1) + L * (m - 1), "chain_vertex_count": n_h}


def _resolve_glued(p: dict) -> dict:
    a = 4 * E2
    r = _chain_params(
        "glued_G", p, a,
        lambda max_degree, diameter, d: ((max_degree - 1) // 2, diameter * max_degree / (8 * a)),
        min_degree=3, floor=(16 * math.e**3, "16 e^3"),
    )
    L, delta = r["L"], r["delta"]
    r.setdefault("m", _ceil(r["a"] * L / delta))
    r["theta"] = 2 * r["a"] * L / (E2 * delta)
    return _chain_plan(r, L * delta)


def _resolve_planar(p: dict) -> dict:
    a = E2 * 1e5
    r = _chain_params(
        "planar_lower_G", p, a,
        lambda max_degree, diameter, d: (
            max_degree // 2, diameter * math.sqrt(max_degree // 2) / (3 * a)
        ),
        min_degree=2, floor=(1e6, "1e6"),
    )
    L, delta = r["L"], r["delta"]
    root = math.sqrt(delta)
    r.setdefault("m", _ceil(r["a"] * L / root))
    r["theta"] = r["a"] * L / (E2 * root)
    return _chain_plan(r, L * delta + (L - 1))


def _resolve_degenerate(p: dict) -> dict:
    a = E2 * 1e5
    r = _chain_params(
        "degenerate_lower_G", p, a,
        lambda max_degree, diameter, d: (
            max_degree // 2, diameter * math.sqrt(d * max_degree) / (8 * a)
        ),
        min_degree=2, floor=(1e6, "1e6"), with_d=True,
    )
    L, delta, d = r["L"], r["delta"], r["d"]
    root = math.sqrt(d * delta)
    r.setdefault("m", _ceil(r["a"] * L / root))
    r["theta"] = r["a"] * L / (E2 * root)
    return _chain_plan(r, L * delta + (L - 1) * d)


# -- builders: plan -> (graph, metadata) -------------------------------------------------


def _build_complete(plan: dict) -> tuple[Graph, ConstructionMeta]:
    n = plan["n_vertices"]
    # Row u holds the edges (u, u+1) .. (u, n-1), so the edges are canonical,
    # and they are int32 from the start, with no int64 copy made on the way.
    edges = np.empty((n * (n - 1) // 2, 2), dtype=np.int32)
    ids = np.arange(n, dtype=np.int32)
    start = 0
    for u in range(n - 1):
        stop = start + n - 1 - u
        edges[start:stop, 0] = u
        edges[start:stop, 1] = ids[u + 1 :]
        start = stop
    g = Graph(n, edges)
    genus = _ceil((n - 3) * (n - 4) / 12) if n >= 3 else 0
    meta = ConstructionMeta(
        kind="complete",
        params=plan["params"],
        declared_max_degree=n - 1,
        declared_diameter_bound=1 if n > 1 else 0,
        declared_degeneracy=n - 1,
        declared_genus=genus,
    )
    return g, meta


def _build_grid(plan: dict) -> tuple[Graph, ConstructionMeta]:
    """d-dimensional grid on {0..k}**d (n = (k+1)**d), adjacency at L1 distance 1.

    k = 1 gives the d-cube.  Vertex x has id sum(x_i * (k+1)**i).
    """
    d, k = plan["params"]["d"], plan["params"]["k"]
    side = k + 1
    n = plan["n_vertices"]
    coords = np.arange(n, dtype=np.int32)
    blocks = []
    for axis in range(d):
        stride = side**axis
        digit = (coords // stride) % side
        a = coords[digit < k]
        blocks.append(np.stack([a, a + stride], axis=1))
    edges = np.concatenate(blocks)
    g = Graph(n, edges)
    max_deg = d if k == 1 else 2 * d
    genus = 0 if (d <= 2 or (k == 1 and d <= 3)) else None
    meta = ConstructionMeta(
        kind="grid",
        params=plan["params"],
        declared_max_degree=max_deg,
        declared_diameter_bound=d * k,
        declared_degeneracy=d,
        declared_genus=genus,
        target_vertex=n - 1,
    )
    return g, meta


def _ladder(L: int, delta: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Groups of a chain of L groups of delta vertices, and the edge blocks
    that fully join consecutive groups."""
    groups = [np.arange(i * delta, (i + 1) * delta, dtype=np.int32) for i in range(L)]
    return groups, [_bipartite(groups[i], groups[i + 1]) for i in range(L - 1)]


def _build_ladder(plan: dict) -> tuple[Graph, ConstructionMeta]:
    """Chain of L groups of delta vertices, consecutive groups fully joined."""
    L, delta = plan["params"]["L"], plan["params"]["delta"]
    groups, blocks = _ladder(L, delta)
    edges = np.concatenate(blocks) if blocks else np.zeros((0, 2), np.int32)
    g = Graph(plan["n_vertices"], edges)
    max_deg = 0 if L == 1 else (delta if L == 2 else 2 * delta)
    meta = ConstructionMeta(
        kind="ladder_H",
        params=plan["params"],
        declared_max_degree=max_deg,
        # Two vertices of one group meet only through a neighbouring group.
        declared_diameter_bound=L - 1 if delta == 1 else max(L - 1, 2),
        declared_degeneracy=0 if L == 1 else delta,
        declared_genus=0 if delta <= 2 else None,
        target_vertex=(L - 1) * delta,
        main_groups=tuple(tuple(int(v) for v in grp) for grp in groups),
        chain_vertex_count=plan["n_vertices"],
    )
    return g, meta


def _build_subdivided_tree(plan: dict) -> tuple[Graph, ConstructionMeta]:
    """Perfect binary tree with L leaves; leaf edges become m-edge paths.

    Internal vertices are 0..L-2 in heap order, leaves are L-1..2L-2,
    subdivision vertices follow.
    """
    L, m = plan["params"]["L"], plan["params"]["m"]
    leaves = [L - 1 + j for j in range(L)]
    edges = _subdivided_tree_edges(L, m, leaves, internal_base=0, subdiv_base=2 * L - 1)
    g = Graph(plan["n_vertices"], edges)
    depth = m + int(math.log2(L)) - 1
    meta = ConstructionMeta(
        kind="subdivided_tree_I",
        params=plan["params"],
        declared_max_degree=3 if L >= 4 else 2,
        declared_diameter_bound=2 * depth,
        declared_degeneracy=1,
        declared_genus=0,
        leaf_vertices=tuple(leaves),
        tree_root=0,
        tree_edges=tuple((int(a), int(b)) for a, b in edges),
        height_target=depth,
    )
    return g, meta


def _chain_diameter(L: int, m: int, step: int, far: int, offset: int) -> int:
    """Exact diameter of a chain H glued to the tree I, in O(1).

    Consecutive groups of H lie ``step`` edges apart, and I meets H at one
    portal per group, the group vertex where that group's leaf path ends.
    The extreme chain vertex y lies in the last group's end of H, ``far``
    edges along H from portal 0 and ``offset`` edges from its nearest
    portal; its mirror image y' lies in the first group's end.  With
    h = log2 L and L >= 4, the diameter is the larger of two distances:

    - y to y': along H, 2 far - step (L - 1), or over the root of I,
      2 (offset + m + h - 1);
    - y to the vertex x that lies t steps below the top of leaf 0's path,
      maximized over 0 <= t <= m.  x takes the least of three routes: down
      to portal 0 and along H, m - t + far; up and down the sibling's leaf
      path to portal 1 and along H, m + t + far - step; or over the root to
      a portal next to y, m + t + 2h - 2 + offset.  With b the smaller of
      the last two constants, the maximum over integer t of
      min(m - t + far, m + t + b) is min(m + (far + b) // 2, 2m + b).

    At L = 2, I is one path of 2m edges between the two portals, and y is
    farthest from its midpoint: m + offset.  No pair of tree vertices is
    farther; the tests check the whole formula against a breadth-first
    search over every chain kind.
    """
    if L == 2:
        return m + offset
    h = L.bit_length() - 1
    ends = min(2 * far - step * (L - 1), 2 * (offset + m + h - 1))
    b = min(far - step, 2 * h - 2 + offset)
    return max(ends, min(m + (far + b) // 2, 2 * m + b))


def _finish_chain(
    plan: dict,
    h_blocks: list[np.ndarray],
    groups: list[np.ndarray],
    small_groups,
    step: int,
    far: int,
    offset: int,
    declared_max_degree: int,
    declared_degeneracy: int,
    declared_genus,
    height_target: int,
) -> tuple[Graph, ConstructionMeta]:
    """Glue the tree I to the chain H, whose edges are h_blocks, at the
    first vertex of each group; ``step``, ``far`` and ``offset`` place H's
    extreme vertex for :func:`_chain_diameter`."""
    r, n_h = plan["params"], plan["chain_vertex_count"]
    L, m = r["L"], r["m"]
    leaf_ids = [int(grp[0]) for grp in groups]
    tree_edges = _subdivided_tree_edges(
        L, m, leaf_ids, internal_base=n_h, subdiv_base=n_h + L - 1
    )
    edges = np.concatenate(h_blocks + [np.asarray(tree_edges, dtype=np.int32)])
    g = Graph(plan["n_vertices"], edges)
    meta = ConstructionMeta(
        kind=plan["kind"],
        params=r,
        declared_max_degree=declared_max_degree,
        declared_diameter_bound=_chain_diameter(L, m, step, far, offset),
        declared_degeneracy=declared_degeneracy,
        declared_genus=declared_genus,
        start_vertex=0,
        target_vertex=leaf_ids[-1],
        main_groups=tuple(tuple(int(v) for v in grp) for grp in groups),
        small_groups=small_groups,
        leaf_vertices=tuple(leaf_ids),
        tree_root=n_h,
        tree_edges=tuple((int(a), int(b)) for a, b in tree_edges),
        chain_vertex_count=n_h,
        transit_threshold=r["theta"],
        height_target=height_target,
    )
    return g, meta


def _build_glued(plan: dict) -> tuple[Graph, ConstructionMeta]:
    """Ladder chain glued to a subdivided tree at the lowest vertex of each group."""
    L, delta = plan["params"]["L"], plan["params"]["delta"]
    groups, h_blocks = _ladder(L, delta)
    ladder_deg = delta if L == 2 else 2 * delta
    tree_deg = 3 if L >= 4 else 2
    return _finish_chain(
        plan,
        h_blocks,
        groups,
        None,
        # A non-glued vertex of group L - 1 is one step from portal L - 2;
        # with delta = 1 the extreme vertex is portal L - 1 itself.
        step=1,
        far=L - 1,
        offset=1 if delta > 1 else 0,
        declared_max_degree=max(ladder_deg + 1, tree_deg),
        declared_degeneracy=delta + 1,
        # The bare ladder stays planar up to delta = 2, but gluing the tree
        # to one vertex per group already breaks planarity there.
        declared_genus=0 if delta == 1 else None,
        height_target=L - 1,
    )


def _separated_chain(
    plan: dict, d: int, declared_degeneracy: int, declared_genus
) -> tuple[Graph, ConstructionMeta]:
    """Chain alternating groups of delta vertices with small groups of d
    vertices, consecutive groups fully joined.

    Block i holds group i at [i*(delta+d), i*(delta+d)+delta) and small
    group i right after it.
    """
    L, delta = plan["params"]["L"], plan["params"]["delta"]
    block = delta + d
    groups = [np.arange(i * block, i * block + delta, dtype=np.int32) for i in range(L)]
    smalls = [
        np.arange(i * block + delta, (i + 1) * block, dtype=np.int32)
        for i in range(L - 1)
    ]
    h_blocks = []
    for i in range(L - 1):
        h_blocks.append(_bipartite(groups[i], smalls[i]))
        h_blocks.append(_bipartite(smalls[i], groups[i + 1]))
    group_deg = (2 * d if L >= 3 else d) + 1
    tree_deg = 3 if L >= 4 else 2
    return _finish_chain(
        plan,
        h_blocks,
        groups,
        tuple(tuple(int(v) for v in s) for s in smalls),
        # A non-glued vertex of group L - 1 is two steps from portals L - 2
        # and L - 1; with delta = 1 the extreme vertex is one of small group
        # L - 2, one step from each.
        step=2,
        far=2 * L - 2 if delta > 1 else 2 * L - 3,
        offset=2 if delta > 1 else 1,
        declared_max_degree=max(2 * delta, group_deg, tree_deg),
        declared_degeneracy=declared_degeneracy,
        declared_genus=declared_genus,
        height_target=2 * L - 2,
    )


def _build_planar_lower(plan: dict) -> tuple[Graph, ConstructionMeta]:
    """The separated chain with single connector vertices (d = 1), which
    stays planar with the tree glued on."""
    return _separated_chain(plan, 1, declared_degeneracy=3, declared_genus=0)


def _build_degenerate_lower(plan: dict) -> tuple[Graph, ConstructionMeta]:
    """The separated chain with small groups of d vertices."""
    d = plan["params"]["d"]
    return _separated_chain(plan, d, declared_degeneracy=2 * d, declared_genus=None)


# -- the family table ---------------------------------------------------------------------


_FAMILIES = {
    "complete": (_resolve_complete, _build_complete),
    "grid": (_resolve_grid, _build_grid),
    "ladder_H": (_resolve_ladder, _build_ladder),
    "subdivided_tree_I": (_resolve_subdivided_tree, _build_subdivided_tree),
    "glued_G": (_resolve_glued, _build_glued),
    "planar_lower_G": (_resolve_planar, _build_planar_lower),
    "degenerate_lower_G": (_resolve_degenerate, _build_degenerate_lower),
}
KINDS = tuple(_FAMILIES)


def _plan(spec: FamilySpec):
    """The plan of spec and the builder of its kind."""
    if spec.kind not in _FAMILIES:
        raise FamilyError(f"unknown family kind {spec.kind!r}")
    resolve, build = _FAMILIES[spec.kind]
    try:
        plan = {"kind": spec.kind, **resolve(spec.params)}
    except OverflowError as exc:
        raise FamilyError(f"{spec.kind} params are out of range: {exc}") from None
    if plan["n_vertices"] > _VERTEX_LIMIT:
        raise FamilyError(_TOO_MANY_VERTICES.format(kind=spec.kind))
    return plan, build


def plan_family(spec: FamilySpec) -> dict:
    """Resolved parameters and the vertex count, without materializing edges."""
    return _plan(spec)[0]


def build_family(
    spec: FamilySpec, max_vertices: int = 1 << 20
) -> tuple[Graph, ConstructionMeta]:
    """Resolve spec once, check the vertex budget, build, and cross-check
    the declared max degree against the realized graph."""
    plan, build = _plan(spec)
    if plan["n_vertices"] > max_vertices:
        raise BudgetExceededError(
            f"{spec.kind} instance would have {plan['n_vertices']} vertices"
            f" (limit {max_vertices})"
        )
    # The builders number vertices in int32, which Graph would refuse past
    # this anyway; refusing here keeps an id from wrapping on the way.
    if plan["n_vertices"] > _MAX_IDS:
        raise GraphError(
            f"{plan['n_vertices']} vertices exceed the {_MAX_IDS} that int32 ids allow"
        )
    g, meta = build(plan)
    if g.max_degree != meta.declared_max_degree:
        raise FamilyError(
            f"internal error: realized max degree {g.max_degree} does not match"
            f" declared {meta.declared_max_degree} for {spec.kind}"
        )
    return g, meta


def h_edge_mask(g: Graph, meta: ConstructionMeta) -> np.ndarray:
    """True for edges with both endpoints in the chain H."""
    if meta.chain_vertex_count is None:
        raise FamilyError(f"{meta.kind} has no chain/tree split")
    return (g.edges < meta.chain_vertex_count).all(axis=1)


# -- tree decompositions ------------------------------------------------------------


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset, ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1


@dataclass(frozen=True)
class DecompositionReport:
    passed: bool
    width: int
    violations: tuple[str, ...]


def build_tree_decomposition_degenerate(
    g: Graph, meta: ConstructionMeta
) -> TreeDecomposition:
    """Tree decomposition of a degenerate_lower_G instance.

    The bag tree has the shape of the bypass tree I, read from
    ``meta.tree_edges``.  Each I vertex v gets the bag {v, parent(v)};
    small group i is added along the bag-tree path between consecutive
    leaves i and i+1, so the leaf bag for group i holds small groups i-1
    and i; and each non-glued vertex x of group i gets its own leaf bag
    {x} + small groups i-1 and i.

    The result is always a valid decomposition.  Its width is at most
    2d + 1 when L <= 4; for larger L the bottom branching vertices lie on
    three consecutive-leaf paths, so the guarantee weakens to 3d + 1.
    """
    if meta.kind != "degenerate_lower_G":
        raise FamilyError("decomposition construction is specific to degenerate_lower_G")
    # Small group i sits between groups i and i + 1; the padding stands for
    # the missing neighbours of the end groups.
    smalls = [set(), *(set(s) for s in meta.small_groups), set()]
    parent = {child: par for par, child in meta.tree_edges}
    bags = {meta.tree_root: {meta.tree_root}}
    for par, child in meta.tree_edges:
        bags[child] = {child, par}

    # Every leaf of I lies at the same depth, so the path between two leaves
    # climbs from both in step until they meet.
    leaves = meta.leaf_vertices
    for i in range(len(leaves) - 1):
        u, v = leaves[i], leaves[i + 1]
        path = {u, v}
        while u != v:
            u, v = parent[u], parent[v]
            path |= {u, v}
        for x in path:
            bags[x] |= smalls[i + 1]

    node_index = {x: j for j, x in enumerate(bags)}
    bag_list = [frozenset(b) for b in bags.values()]
    edge_list = [(node_index[par], node_index[child]) for par, child in meta.tree_edges]
    for i, grp in enumerate(meta.main_groups):
        around = smalls[i] | smalls[i + 1]
        anchor = node_index[leaves[i]]
        for x in grp[1:]:  # grp[0] is the glued leaf, already in the bag tree
            edge_list.append((anchor, len(bag_list)))
            bag_list.append(frozenset({x} | around))
    return TreeDecomposition(tuple(bag_list), tuple(edge_list))


def verify_tree_decomposition(g: Graph, td: TreeDecomposition) -> DecompositionReport:
    violations: list[str] = []
    nbag = len(td.bags)

    # The bag graph must be a tree on all bags.
    if len(td.tree_edges) != nbag - 1:
        violations.append(f"bag tree has {len(td.tree_edges)} edges for {nbag} bags")
    adj: dict[int, list[int]] = {i: [] for i in range(nbag)}
    for a, b in td.tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != nbag:
        violations.append("bag tree is disconnected")

    holding: dict[int, list[int]] = {}
    for j, bag in enumerate(td.bags):
        for v in bag:
            holding.setdefault(v, []).append(j)
    for v in range(g.n):
        if v not in holding:
            violations.append(f"vertex {v} is in no bag")

    for u, v in g.edges:
        u, v = int(u), int(v)
        if not any(v in td.bags[j] for j in holding.get(u, [])):
            violations.append(f"edge ({u}, {v}) covered by no bag")

    for v, js in holding.items():
        js_set = set(js)
        comp = {js[0]}
        stack = [js[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in js_set and y not in comp:
                    comp.add(y)
                    stack.append(y)
        if comp != js_set:
            violations.append(f"bags holding vertex {v} are not connected in the tree")

    passed = not violations
    return DecompositionReport(passed, td.width if nbag else -1, tuple(violations))
