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
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .counting import BoundRow, bound_matrix
from .families import FamilySpec, build_family, h_edge_mask
from .graphs import Graph
from .growth import grow_discrete, grow_fpp, sample_edge_weights
from .randomness import stream_for

__all__ = [
    "ExperimentSpec",
    "HarnessError",
    "MetricSummary",
    "Summary",
    "TrialRecord",
    "Verdict",
    "check_upper_bounds",
    "run_experiment",
    "run_lower_bound_experiment",
    "write_events_csv",
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
        if self.trials < 1:
            raise HarnessError("trials must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise HarnessError("master_seed must fit in 64 bits")
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
        if doc["version"] != 1:
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


RECORD_KEYS = (
    "trial",
    "seed_path",
    "process",
    "height",
    "height_discrete",
    "cover_time",
    "longest_weighted_path_edges",
    "hitting_times",
    "event_chain_fast",
    "event_tree_slow",
    "height_target_met",
    "implication_ok",
)


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


def binomial_margin(phat: float, trials: int) -> float:
    return 3.0 * math.sqrt(phat * (1.0 - phat) / trials)


def check_upper_bounds(
    records: list[TrialRecord], rows: list[BoundRow]
) -> list[Verdict]:
    """Exceedance verdicts for every applicable closed-form ceiling.

    Height rows exceed when height >= cutoff; cover rows when the cover time
    is strictly above the bound.  The pass rule adds three binomial standard
    errors of slack so sampling noise alone cannot fail a true bound.
    """
    heights = [r.height for r in records if r.height is not None]
    covers = [r.cover_time for r in records if r.cover_time is not None]
    verdicts = []
    for row in rows:
        if not row.applicable:
            continue
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


def _resolve_start(spec: ExperimentSpec, g: Graph, meta) -> int:
    if spec.s_policy == "first-vertex":
        return 0
    if spec.s_policy == "group-V1":
        return meta.start_vertex
    s = int(spec.s_policy)
    if not s < g.n:
        raise HarnessError(f"start vertex {s} out of range for n={g.n}")
    return s


@dataclass
class _TrialContext:
    spec: ExperimentSpec
    g: Graph
    meta: Any
    s: int
    ecc_s: int
    h_mask: np.ndarray | None
    leaves: np.ndarray | None


def _make_context(spec: ExperimentSpec, max_vertices: int) -> _TrialContext:
    g, meta = build_family(spec.family, max_vertices=max_vertices)
    s = _resolve_start(spec, g, meta)
    mask = leaves = None
    if "event_AB" in spec.metrics:
        mask = h_edge_mask(g, meta)
        leaves = np.asarray(meta.leaf_vertices, dtype=np.int64)
    return _TrialContext(
        spec=spec,
        g=g,
        meta=meta,
        s=s,
        ecc_s=int(g.eccentricity(s)),
        h_mask=mask,
        leaves=leaves,
    )


def _lower_bound_events(
    ctx: _TrialContext, weights: np.ndarray, height: int
) -> tuple[bool, bool, bool, bool]:
    meta = ctx.meta
    theta = meta.transit_threshold
    chain_csr = ctx.g.masked_weight_csr(weights, ctx.h_mask)
    dist = dijkstra(chain_csr, directed=False, indices=[ctx.s])
    chain_fast = bool(dist[0, meta.target_vertex] <= theta)
    tree_csr = ctx.g.masked_weight_csr(weights, ~ctx.h_mask)
    pair = dijkstra(tree_csr, directed=False, indices=ctx.leaves)[:, ctx.leaves]
    np.fill_diagonal(pair, np.inf)
    tree_slow = bool(pair.min() > theta)
    target_met = bool(height >= meta.height_target)
    implication_ok = (not (chain_fast and tree_slow)) or target_met
    if not implication_ok:
        raise RuntimeError(
            "deterministic height implication violated: chain_fast and tree_slow"
            f" held but height {height} < target {meta.height_target}"
        )
    return chain_fast, tree_slow, target_met, implication_ok


def _run_trial(ctx: _TrialContext, trial: int) -> TrialRecord:
    spec = ctx.spec
    want_fpp = spec.process in ("fpp", "both")
    want_discrete = spec.process in ("discrete", "both")
    metrics = spec.metrics
    height = height_discrete = cover = lwpe = None
    hitting = None
    events = (None, None, None, None)
    if want_fpp:
        stream = stream_for(spec.master_seed, spec.experiment_id, trial, WEIGHT_CHANNEL)
        weights = sample_edge_weights(ctx.g, stream)
        res = grow_fpp(ctx.g, ctx.s, weights)
        h = res.height
        if h < ctx.ecc_s:
            raise RuntimeError(
                f"spanning tree height {h} below start eccentricity {ctx.ecc_s}"
            )
        height = h
        if "cover_time" in metrics:
            cover = float(res.cover_time)
            lwpe = int(res.longest_weighted_path_edges)
        if "hitting_times" in metrics:
            hitting = tuple(float(t) for t in res.hitting)
        if "event_AB" in metrics:
            events = _lower_bound_events(ctx, weights, h)
    if want_discrete:
        stream = stream_for(
            spec.master_seed, spec.experiment_id, trial, DISCRETE_CHANNEL
        )
        tree = grow_discrete(ctx.g, ctx.s, stream)
        h = tree.height()
        if h < ctx.ecc_s:
            raise RuntimeError(
                f"spanning tree height {h} below start eccentricity {ctx.ecc_s}"
            )
        if want_fpp:
            height_discrete = h
        else:
            height = h
    if "height" not in metrics:
        height = height_discrete = None
    primary = WEIGHT_CHANNEL if want_fpp else DISCRETE_CHANNEL
    return TrialRecord(
        trial=trial,
        seed_path=(spec.experiment_id, trial, primary),
        process=spec.process,
        height=height,
        height_discrete=height_discrete,
        cover_time=cover,
        longest_weighted_path_edges=lwpe,
        hitting_times=hitting,
        event_chain_fast=events[0],
        event_tree_slow=events[1],
        height_target_met=events[2],
        implication_ok=events[3],
    )


_WORKER_CTX: _TrialContext | None = None


def _worker_init(spec_doc: dict, max_vertices: int) -> None:
    global _WORKER_CTX
    _WORKER_CTX = _make_context(ExperimentSpec.from_json_dict(spec_doc), max_vertices)


def _worker_trial(trial: int) -> TrialRecord:
    assert _WORKER_CTX is not None
    return _run_trial(_WORKER_CTX, trial)


# -- campaign drivers ----------------------------------------------------------------


def run_experiment(
    spec: ExperimentSpec, max_vertices: int = 1 << 20
) -> tuple[list[TrialRecord], Summary]:
    """Run every trial of the campaign and summarize.

    The record list is sorted by trial index and is identical for any worker
    count; workers only change how the fixed per-trial work is scheduled.
    """
    ctx = _make_context(spec, max_vertices)
    if spec.workers == 1 or spec.trials == 1:
        records = [_run_trial(ctx, t) for t in range(spec.trials)]
    else:
        chunk = max(1, spec.trials // (spec.workers * 4))
        with multiprocessing.Pool(
            processes=spec.workers,
            initializer=_worker_init,
            initargs=(spec.to_json_dict(), max_vertices),
        ) as pool:
            records = list(pool.map(_worker_trial, range(spec.trials), chunk))
    records.sort(key=lambda r: r.trial)
    return records, summarize(spec, ctx, records)


def run_lower_bound_experiment(
    spec: ExperimentSpec, max_vertices: int = 1 << 20
) -> tuple[list[TrialRecord], Summary]:
    """Campaign over a lower-bound family with the coupled events recorded."""
    if spec.family.kind not in LOWER_BOUND_KINDS:
        raise HarnessError(
            f"lower-bound experiment needs one of {LOWER_BOUND_KINDS},"
            f" got {spec.family.kind!r}"
        )
    metrics = set(spec.metrics) | {"height", "event_AB"}
    spec = ExperimentSpec(
        family=spec.family,
        s_policy=spec.s_policy,
        process="fpp" if spec.process == "discrete" else spec.process,
        trials=spec.trials,
        master_seed=spec.master_seed,
        metrics=tuple(metrics),
        workers=spec.workers,
        experiment_id=spec.experiment_id,
    )
    return run_experiment(spec, max_vertices=max_vertices)


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
