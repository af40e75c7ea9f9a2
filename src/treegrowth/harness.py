"""Config-driven Monte Carlo campaigns with reproducible seeding and flat-file output.

An experiment is a JSON document: a family spec, a start-vertex policy, the
process to run, a trial count, a master seed, and the metrics to record.
Every trial derives its streams from (experiment_id, trial, channel), so the
output is byte-identical for any worker count.  Channel 0 carries the edge
weights, channel 1 the discrete growth choices.

Lower-bound families additionally record two events per trial, computed from
the SAME weight draw as the trial itself: the chain subgraph carries the start
vertex to the far group within the transit threshold (chain_fast), and every
attachment pair of the glued tree is farther apart than the threshold inside
the tree subgraph (tree_slow).  Together these force the grown tree to be at
least as tall as the construction's height target, and that implication is
asserted on every single trial.

Both events are computed once per block of trials, from the block's weight
matrix.  chain_fast runs the one FPP kernel on the chain H, built once as a
graph of its own.  tree_slow needs the least distance between two leaves of
the tree I.  I is a tree, so the path between two leaves is unique and turns
at their lowest common ancestor; the closest pair turning at a node is the
sum of its two children's least distances down to a leaf.  One bottom-up
pass over I's log2(L) levels, vectorized over the block's rows, therefore
gives the exact minimum, up to the order in which the edge weights are
summed.

The parent process builds the graph and the per-trial context once; pool
workers receive that context at start-up and reuse it (copy-on-write under
fork), so no worker builds the family again.  ``write_outputs`` owns the
campaign's file set, ``OUTPUT_FILES``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from .counting import BoundRow, bound_matrix
from .families import FamilySpec, build_family, h_edge_mask
from .graphs import Graph
from .growth import block_size, grow_discrete, grow_fpp_block, sample_edge_weights
from .randomness import binomial_margin, stream_for

__all__ = [
    "OUTPUT_FILES",
    "ExperimentSpec",
    "HarnessError",
    "MetricSummary",
    "Summary",
    "TrialRecord",
    "Verdict",
    "check_upper_bounds",
    "resolve_start",
    "run_experiment",
    "summarize",
    "write_events_csv",
    "write_outputs",
    "write_records_jsonl",
    "write_summary_csv",
    "write_verdicts_csv",
]

METRICS = ("height", "cover_time", "hitting_times", "bound_matrix", "event_AB")
PROCESSES = ("discrete", "fpp", "both")
S_POLICIES = ("first-vertex", "group-V1")
LOWER_BOUND_KINDS = ("glued_G", "planar_lower_G", "degenerate_lower_G")
WEIGHT_CHANNEL, DISCRETE_CHANNEL = 0, 1


class HarnessError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible campaign: everything a worker needs to redo a trial."""

    family: FamilySpec
    s_policy: str | int = "first-vertex"
    process: str = "fpp"
    trials: int = 1
    master_seed: int = 0
    metrics: tuple[str, ...] = ("height", "cover_time")
    workers: int = 1
    experiment_id: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.s_policy, bool) or (
            not isinstance(self.s_policy, (str, int))
        ):
            raise HarnessError("s_policy must be a policy name or a vertex id")
        if isinstance(self.s_policy, str) and self.s_policy not in S_POLICIES:
            raise HarnessError(f"unknown s_policy {self.s_policy!r}")
        if isinstance(self.s_policy, int) and self.s_policy < 0:
            raise HarnessError("explicit start vertex must be >= 0")
        if self.process not in PROCESSES:
            raise HarnessError(f"unknown process {self.process!r}")
        for name in ("trials", "master_seed", "workers", "experiment_id"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise HarnessError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise HarnessError("trials must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise HarnessError("master_seed must lie in [0, 2**64)")
        if self.workers < 1:
            raise HarnessError("workers must be >= 1")
        if self.experiment_id < 0:
            raise HarnessError("experiment_id must be >= 0")
        bad = [m for m in self.metrics if m not in METRICS]
        if bad or not self.metrics:
            raise HarnessError(f"metrics must be a non-empty subset of {METRICS}")
        canon = tuple(m for m in METRICS if m in self.metrics)
        object.__setattr__(self, "metrics", canon)
        if "event_AB" in self.metrics:
            if self.family.kind not in LOWER_BOUND_KINDS:
                raise HarnessError(
                    "event_AB is only defined for the lower-bound families"
                )
            if self.process == "discrete":
                raise HarnessError("event_AB needs the weight draw; use fpp or both")
        if self.process == "discrete":
            timed = {"hitting_times", "cover_time"} & set(self.metrics)
            if timed:
                raise HarnessError(
                    f"{sorted(timed)} need the weight draw; use fpp or both"
                )
        if "bound_matrix" in self.metrics and "height" not in self.metrics:
            raise HarnessError("bound_matrix checks need the height metric")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentSpec":
        if not isinstance(doc, dict):
            raise HarnessError("experiment config must be a JSON object")
        required = {"version", "family", "s_policy", "process", "trials",
                    "master_seed", "metrics"}
        optional = {"workers", "experiment_id"}
        keys = set(doc)
        if not required <= keys:
            raise HarnessError(f"missing config keys: {sorted(required - keys)}")
        unknown = keys - required - optional
        if unknown:
            raise HarnessError(f"unknown config keys: {sorted(unknown)}")
        if type(doc["version"]) is not int or doc["version"] != 1:
            raise HarnessError(f"unsupported config version {doc['version']!r}")
        family = FamilySpec.from_json_dict(doc["family"])
        s_policy = doc["s_policy"]
        if isinstance(s_policy, dict):
            if set(s_policy) != {"vertex"} or not isinstance(s_policy["vertex"], int):
                raise HarnessError('explicit start must be {"vertex": <id>}')
            s_policy = s_policy["vertex"]
        metrics = doc["metrics"]
        if not isinstance(metrics, list):
            raise HarnessError("metrics must be a list")
        return cls(
            family=family,
            s_policy=s_policy,
            process=doc["process"],
            trials=doc["trials"],
            master_seed=doc["master_seed"],
            metrics=tuple(metrics),
            workers=doc.get("workers", 1),
            experiment_id=doc.get("experiment_id", 0),
        )

    def to_json_dict(self) -> dict:
        s_policy: Any = self.s_policy
        if isinstance(s_policy, int):
            s_policy = {"vertex": s_policy}
        return {
            "version": 1,
            "family": self.family.to_json_dict(),
            "s_policy": s_policy,
            "process": self.process,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "metrics": list(self.metrics),
            "workers": self.workers,
            "experiment_id": self.experiment_id,
        }


@dataclass(frozen=True)
class TrialRecord:
    """One trial's outputs; reconstructible from (spec, trial) alone."""

    trial: int
    seed_path: tuple[int, ...]
    process: str
    height: int | None = None
    height_discrete: int | None = None
    cover_time: float | None = None
    longest_weighted_path_edges: int | None = None
    hitting_times: tuple[float, ...] | None = None
    event_chain_fast: bool | None = None
    event_tree_slow: bool | None = None
    height_target_met: bool | None = None
    implication_ok: bool | None = None

    def to_json_dict(self) -> dict:
        doc = {}
        for key in RECORD_KEYS:
            value = getattr(self, key)
            if isinstance(value, tuple):
                value = list(value)
            doc[key] = value
        return doc


RECORD_KEYS = tuple(f.name for f in fields(TrialRecord))


@dataclass(frozen=True)
class MetricSummary:
    metric: str
    mean: float
    std: float
    min: float
    p50: float
    p90: float
    p99: float
    max: float


@dataclass(frozen=True)
class Verdict:
    """One bound check: pass iff empirical <= threshold + 3*binomial stderr."""

    check_id: str
    bound_ref: str
    threshold: float
    empirical: float
    passed: bool


@dataclass(frozen=True)
class Summary:
    trials: int
    metrics: tuple[MetricSummary, ...]
    verdicts: tuple[Verdict, ...] = ()
    event_freqs: dict | None = None

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    idx = max(math.ceil(q * len(sorted_values)), 1) - 1
    return sorted_values[idx]


def _summarize_metric(name: str, values: list[float]) -> MetricSummary:
    ordered = sorted(values)
    n = len(ordered)
    mean = sum(ordered) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in ordered) / n)
    return MetricSummary(
        metric=name,
        mean=mean,
        std=std,
        min=ordered[0],
        p50=_nearest_rank(ordered, 0.5),
        p90=_nearest_rank(ordered, 0.9),
        p99=_nearest_rank(ordered, 0.99),
        max=ordered[-1],
    )


def check_upper_bounds(
    records: list[TrialRecord], rows: list[BoundRow]
) -> list[Verdict]:
    """Exceedance verdicts, one per row of ``bound_matrix`` whose metric
    the records hold.

    A ceiling that does not apply to the graph has no row, so every row
    is checked.  Height rows exceed when height >= cutoff; cover rows when
    the cover time is strictly above the bound.  The pass rule adds three
    binomial standard errors of slack so sampling noise alone cannot fail
    a true bound.
    """
    heights = [r.height for r in records if r.height is not None]
    covers = [r.cover_time for r in records if r.cover_time is not None]
    verdicts = []
    for row in rows:
        values = heights if row.kind == "height" else covers
        if not values:
            continue
        if row.kind == "height":
            exceed = sum(v >= row.value for v in values)
        else:
            exceed = sum(v > row.value for v in values)
        phat = exceed / len(values)
        passed = phat <= row.failure_prob + binomial_margin(phat, len(values))
        verdicts.append(
            Verdict(
                check_id=row.check_id,
                bound_ref=f"{row.formula}={row.value:.6g}",
                threshold=row.failure_prob,
                empirical=phat,
                passed=passed,
            )
        )
    return verdicts


# -- per-trial work ----------------------------------------------------------------


def resolve_start(policy: str | int, g: Graph, meta) -> int:
    """The start vertex a policy name or an explicit vertex id names on g."""
    if policy == "first-vertex":
        return 0
    if policy == "group-V1":
        return meta.start_vertex
    if not 0 <= policy < g.n:
        raise HarnessError(f"start vertex {policy} out of range for n={g.n}")
    return policy


@dataclass
class _TrialContext:
    spec: ExperimentSpec
    g: Graph
    meta: Any
    s: int
    ecc_s: int
    # event_AB only: the chain H as its own graph (its edge e is g's e-th
    # edge under h_mask), and the edge ids of the tree I that the leaf-pair
    # DP sums: (L, m) along each leaf's subdivided path, and per internal
    # level, bottom level first, from each node up to its parent.
    h_mask: np.ndarray | None = None
    chain: Graph | None = None
    leaf_paths: np.ndarray | None = None
    up_edges: tuple[np.ndarray, ...] = ()


def _make_context(spec: ExperimentSpec, max_vertices: int) -> _TrialContext:
    g, meta = build_family(spec.family, max_vertices=max_vertices)
    s = resolve_start(spec.s_policy, g, meta)
    ctx = _TrialContext(spec=spec, g=g, meta=meta, s=s, ecc_s=int(g.eccentricity(s)))
    if "event_AB" in spec.metrics:
        # The height implication follows from the construction only for a
        # start in the first group; a start on the tree I never has chain_fast.
        if s < meta.chain_vertex_count and s not in meta.main_groups[0]:
            raise HarnessError(
                f"event_AB needs a start in the first group or on the tree I;"
                f" vertex {s} lies elsewhere in the chain H"
            )
        ctx.h_mask = h_edge_mask(g, meta)
        ctx.chain = Graph(meta.chain_vertex_count, g.edges[ctx.h_mask])
        ctx.leaf_paths, ctx.up_edges = _tree_edge_index(g, meta)
    return ctx


def _tree_edge_index(g: Graph, meta) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Edge ids of the tree I, laid out for the leaf-pair DP.

    I is a perfect binary tree in heap order: internal node h is vertex
    n_H + h, leaf j sits at heap position L - 1 + j, and its path of m
    edges runs from its heap parent through subdivision vertices
    n_H + L - 1 + j*(m - 1) + t to the glued leaf vertex.
    """
    L, m, n_h = meta.params["L"], meta.params["m"], meta.chain_vertex_count
    j = np.arange(L)
    path = np.concatenate(
        [
            (n_h + (L - 2 + j) // 2)[:, None],
            n_h + L - 1 + j[:, None] * (m - 1) + np.arange(m - 1),
            np.asarray(meta.leaf_vertices)[:, None],
        ],
        axis=1,
    )
    leaf_paths = g.edge_ids(path[:, :-1], path[:, 1:])
    up_edges = []
    width = L // 2
    while width > 1:  # the internal level of `width` nodes, bottom first
        h = np.arange(width - 1, 2 * width - 1)
        up_edges.append(g.edge_ids(n_h + h, n_h + (h - 1) // 2))
        width //= 2
    return leaf_paths, tuple(up_edges)


def _min_leaf_pair_distance(ctx: _TrialContext, weights: np.ndarray) -> np.ndarray:
    """Per row of a (B, m) weight matrix, the least distance in I between two leaves.

    I is a tree, so two leaves are joined by one path, which turns at their
    lowest common ancestor.  Bottom-up over the levels, ``d`` holds each
    node's least distance down to a leaf below it; the closest pair turning
    at a node is the sum of its two children's ``d``, and siblings sit
    side by side in heap order.
    """
    d = weights[:, ctx.leaf_paths].sum(axis=2)
    best = np.full(weights.shape[0], np.inf)
    for up in ctx.up_edges:
        left, right = d[:, 0::2], d[:, 1::2]
        best = np.minimum(best, (left + right).min(axis=1))
        d = np.minimum(left, right) + weights[:, up]
    return np.minimum(best, d[:, 0] + d[:, 1])  # the pairs turning at the root


def _lower_bound_events(
    ctx: _TrialContext, weights: np.ndarray, heights: list[int]
) -> np.ndarray:
    """(B, 4) booleans per row of a (B, m) weight matrix and its tree heights:
    chain_fast, tree_slow, height_target_met and implication_ok.

    Raises RuntimeError at the first row where both events hold but the
    height falls short of the target.
    """
    meta = ctx.meta
    theta = meta.transit_threshold
    if ctx.s < meta.chain_vertex_count:
        chain = grow_fpp_block(ctx.chain, ctx.s, weights[:, ctx.h_mask])
        chain_fast = chain.dist[:, meta.target_vertex] <= theta
    else:  # a start on a tree vertex cannot reach the target inside H
        chain_fast = np.zeros(weights.shape[0], dtype=bool)
    tree_slow = _min_leaf_pair_distance(ctx, weights) > theta
    target_met = np.asarray(heights) >= meta.height_target
    implication_ok = ~(chain_fast & tree_slow) | target_met
    bad = np.flatnonzero(~implication_ok)
    if bad.size:
        raise RuntimeError(
            "deterministic height implication violated: chain_fast and tree_slow"
            f" held but height {heights[bad[0]]} < target {meta.height_target}"
        )
    return np.stack([chain_fast, tree_slow, target_met, implication_ok], axis=1)


def _run_block(ctx: _TrialContext, trials: range) -> list[TrialRecord]:
    """Records of consecutive trials, built a field at a time: their FPP
    trees come from one kernel call and their lower-bound events from one
    pass."""
    spec = ctx.spec
    metrics = spec.metrics
    columns: dict[str, list] = {}
    if spec.process in ("fpp", "both"):
        weights = np.empty((len(trials), ctx.g.m))
        for i, trial in enumerate(trials):
            stream = stream_for(
                spec.master_seed, spec.experiment_id, trial, WEIGHT_CHANNEL
            )
            sample_edge_weights(ctx.g, stream, out=weights[i])
        block = grow_fpp_block(ctx.g, ctx.s, weights)
        columns["height"] = block.height.tolist()
        if "cover_time" in metrics:
            columns["cover_time"] = block.cover_time.tolist()
            columns["longest_weighted_path_edges"] = block.longest_weighted_path_edges.tolist()
        if "hitting_times" in metrics:
            columns["hitting_times"] = [tuple(row) for row in block.dist.tolist()]
        if "event_AB" in metrics:
            events = _lower_bound_events(ctx, weights, columns["height"]).T.tolist()
            columns.update(zip(
                ("event_chain_fast", "event_tree_slow", "height_target_met", "implication_ok"),
                events,
            ))
    if spec.process in ("discrete", "both"):
        columns["height_discrete" if spec.process == "both" else "height"] = [
            grow_discrete(ctx.g, ctx.s, stream_for(
                spec.master_seed, spec.experiment_id, trial, DISCRETE_CHANNEL
            )).height()
            for trial in trials
        ]
    heights = columns.get("height", []) + columns.get("height_discrete", [])
    if heights and min(heights) < ctx.ecc_s:
        raise RuntimeError(
            f"spanning tree height {min(heights)} below start eccentricity {ctx.ecc_s}"
        )
    if "height" not in metrics:
        columns.pop("height", None)
        columns.pop("height_discrete", None)
    primary = DISCRETE_CHANNEL if spec.process == "discrete" else WEIGHT_CHANNEL
    return [
        TrialRecord(
            trial=trial,
            seed_path=(spec.experiment_id, trial, primary),
            process=spec.process,
            **{key: values[i] for key, values in columns.items()},
        )
        for i, trial in enumerate(trials)
    ]


_WORKER_CTX: _TrialContext | None = None


def _worker_init(ctx: _TrialContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_block(trials: range) -> list[TrialRecord]:
    assert _WORKER_CTX is not None
    return _run_block(_WORKER_CTX, trials)


# -- campaign drivers ----------------------------------------------------------------


def run_experiment(
    spec: ExperimentSpec, max_vertices: int = 1 << 20
) -> tuple[list[TrialRecord], Summary]:
    """Run every trial of the campaign and summarize.

    The record list is sorted by trial index and is identical for any worker
    count; workers only change how the fixed per-trial work is scheduled.
    FPP trials run in blocks of consecutive trials, one shortest-path kernel
    call per block, each trial still drawing its weights from its own stream.
    Pool workers get the context built here; they never build the graph.
    """
    ctx = _make_context(spec, max_vertices)
    # Enough blocks that every worker gets one, none over the kernel's cap.
    size = min(block_size(ctx.g), math.ceil(spec.trials / spec.workers))
    blocks = [
        range(start, min(start + size, spec.trials))
        for start in range(0, spec.trials, size)
    ]
    if spec.workers == 1 or len(blocks) == 1:
        records = [r for block in blocks for r in _run_block(ctx, block)]
    else:
        with multiprocessing.Pool(
            processes=spec.workers,
            initializer=_worker_init,
            initargs=(ctx,),
        ) as pool:
            records = [r for part in pool.map(_worker_block, blocks, 1) for r in part]
    return records, summarize(spec, ctx, records)


def summarize(
    spec: ExperimentSpec, ctx: _TrialContext, records: list[TrialRecord]
) -> Summary:
    metric_rows = []
    for name in ("height", "height_discrete", "cover_time",
                 "longest_weighted_path_edges"):
        values = [getattr(r, name) for r in records]
        values = [float(v) for v in values if v is not None]
        if values:
            metric_rows.append(_summarize_metric(name, values))
    verdicts: tuple[Verdict, ...] = ()
    if "bound_matrix" in spec.metrics:
        rows = bound_matrix(ctx.g, ctx.meta)
        verdicts = tuple(check_upper_bounds(records, rows))
    freqs = None
    if "event_AB" in spec.metrics:
        n = len(records)
        freqs = {
            "chain_fast": sum(bool(r.event_chain_fast) for r in records) / n,
            "tree_slow": sum(bool(r.event_tree_slow) for r in records) / n,
            "both_events": sum(
                bool(r.event_chain_fast and r.event_tree_slow) for r in records
            )
            / n,
            "height_target_met": sum(bool(r.height_target_met) for r in records) / n,
            "implication_ok": sum(bool(r.implication_ok) for r in records) / n,
        }
    return Summary(
        trials=len(records),
        metrics=tuple(metric_rows),
        verdicts=verdicts,
        event_freqs=freqs,
    )


# -- flat-file emission ----------------------------------------------------------------


def _write_spec_json(spec: ExperimentSpec, fh: io.TextIOBase) -> None:
    # workers is a scheduling detail, not part of the reproducible result
    resolved = spec.to_json_dict()
    del resolved["workers"]
    fh.write(json.dumps(resolved, indent=2) + "\n")


def write_records_jsonl(records: list[TrialRecord], fh: io.TextIOBase) -> None:
    for record in records:
        fh.write(json.dumps(record.to_json_dict(), separators=(",", ":")))
        fh.write("\n")


def write_summary_csv(summary: Summary, fh: io.TextIOBase) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["metric", "mean", "std", "min", "p50", "p90", "p99", "max"])
    for row in summary.metrics:
        writer.writerow(
            [row.metric]
            + [repr(v) for v in (row.mean, row.std, row.min,
                                 row.p50, row.p90, row.p99, row.max)]
        )


def write_verdicts_csv(verdicts: tuple[Verdict, ...], fh: io.TextIOBase) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["check_id", "bound_ref", "threshold", "empirical", "pass"])
    for v in verdicts:
        writer.writerow(
            [v.check_id, v.bound_ref, repr(v.threshold), repr(v.empirical),
             str(v.passed).lower()]
        )


def write_events_csv(summary: Summary, fh: io.TextIOBase) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["event", "frequency", "trials"])
    if summary.event_freqs:
        for name, freq in summary.event_freqs.items():
            writer.writerow([name, repr(freq), summary.trials])


# The campaign's file set, in write order: each file's name and the call that
# writes it from (spec, records, summary).
_OUTPUTS = (
    ("spec.json", lambda spec, records, summary, fh: _write_spec_json(spec, fh)),
    ("records.jsonl", lambda spec, records, summary, fh: write_records_jsonl(records, fh)),
    ("summary.csv", lambda spec, records, summary, fh: write_summary_csv(summary, fh)),
    ("verdicts.csv",
     lambda spec, records, summary, fh: write_verdicts_csv(summary.verdicts, fh)),
    ("events.csv", lambda spec, records, summary, fh: write_events_csv(summary, fh)),
)
OUTPUT_FILES = tuple(name for name, _ in _OUTPUTS)


def write_outputs(
    outdir: str | Path, spec: ExperimentSpec, records: list[TrialRecord], summary: Summary
) -> None:
    """Write the campaign's OUTPUT_FILES into outdir, creating it if needed."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, write in _OUTPUTS:
        with open(outdir / name, "w", encoding="utf-8") as fh:
            write(spec, records, summary, fh)
