"""Release-gate acceptance suite.

Each ``criterion_<k>`` function runs one self-contained empirical check and
returns a CriterionResult; ``run_suite`` collects them in order.  Every seed
and tolerance is written out literally next to the check that uses it, so a
verdict can be audited from this file alone.  The quick suite covers the
exact/deterministic criteria; the full suite adds the Monte Carlo campaigns.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .counting import (
    bound_paths_genus,
    bound_walks_degenerate,
    count_simple_paths_upto,
    count_walks,
)
from .families import E2, FamilySpec, build_family
from .graphs import Graph
from .growth import law_equivalence_test
from .harness import OUTPUT_FILES, ExperimentSpec, HarnessError, run_experiment
from .randomness import (
    check_erlang_head,
    check_erlang_tail,
    check_two_stage_sum,
    check_two_stage_tail,
    stream_for,
)

MASTER_SEED = 7

QUICK_CRITERIA = (6, 8, 10, 11)
FULL_CRITERIA = tuple(range(1, 12))


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] criterion {self.number:2d} ({self.name}): "
            f"{self.detail} [{self.seconds:.1f}s]"
        )


def _timed(number: int, name: str, passed: bool, detail: str, t0: float) -> CriterionResult:
    return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)


def _metric(summary, name: str):
    for row in summary.metrics:
        if row.metric == name:
            return row
    raise LookupError(f"metric {name!r} missing from summary")


# -- 1: the two processes generate the same tree distribution -------------------------


def criterion_1(workers: int = 1) -> CriterionResult:
    """TV distance between each process and the exact law on four small graphs."""
    t0 = time.perf_counter()
    graphs = [
        ("triangle", build_family(FamilySpec("complete", {"n": 3}))[0]),
        ("cycle4", Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])),
        ("complete4", build_family(FamilySpec("complete", {"n": 4}))[0]),
        ("house", Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4)])),
    ]
    trials = 200_000
    tolerance = 0.02
    worst = 0.0
    checks = 0
    for gi, (label, g) in enumerate(graphs):
        for ci, process in enumerate(("fpp", "discrete")):
            stream = stream_for(MASTER_SEED, 100, gi, ci)
            cmp = law_equivalence_test(g, 0, trials, stream, process=process)
            worst = max(worst, cmp.tv_distance)
            checks += 1
            if cmp.tv_distance > tolerance:
                return _timed(
                    1, "process law equivalence", False,
                    f"{label}/{process}: TV={cmp.tv_distance:.4f} > {tolerance}", t0,
                )
    return _timed(
        1, "process law equivalence", True,
        f"max TV {worst:.4f} over {checks} graph/process pairs"
        f" at {trials} trials (tolerance {tolerance})", t0,
    )


# -- 2: tree height on complete graphs scales like a constant times log n -------------


def criterion_2(workers: int = 1) -> CriterionResult:
    t0 = time.perf_counter()
    ratios = {}
    for i, n in enumerate((256, 1024, 4096)):
        spec = ExperimentSpec(
            family=FamilySpec("complete", {"n": n}),
            s_policy="first-vertex",
            process="discrete",
            trials=200,
            master_seed=MASTER_SEED,
            metrics=("height",),
            workers=workers,
            experiment_id=200 + i,
        )
        _, summary = run_experiment(spec)
        ratios[n] = _metric(summary, "height").mean / math.log(n)
    values = sorted(ratios.values())
    spread = values[-1] - values[0]
    in_window = all(1.5 <= r <= 3.5 for r in values)
    shown = ", ".join(f"n={n}: {r:.3f}" for n, r in ratios.items())
    return _timed(
        2, "complete graph height ratio", in_window and spread <= 0.6,
        f"mean height/ln n = {shown}; spread {spread:.3f}"
        " (window [1.5, 3.5], spread <= 0.6)", t0,
    )


# -- 3: cover time exceeds 4 ln n + 2 diameter with frequency at most 2/n -------------


def criterion_3(workers: int = 1) -> CriterionResult:
    t0 = time.perf_counter()
    corpus = [
        FamilySpec("complete", {"n": 32}),
        FamilySpec("complete", {"n": 256}),
        FamilySpec("grid", {"d": 2, "k": 7}),
        FamilySpec("grid", {"d": 3, "k": 3}),
        FamilySpec("grid", {"d": 10, "k": 1}),
        FamilySpec("ladder_H", {"L": 16, "delta": 4}),
    ]
    details = []
    ok = True
    for i, family in enumerate(corpus):
        spec = ExperimentSpec(
            family=family,
            s_policy="first-vertex",
            process="fpp",
            trials=2000,
            master_seed=MASTER_SEED,
            metrics=("height", "cover_time", "bound_matrix"),
            workers=workers,
            experiment_id=300 + i,
        )
        _, summary = run_experiment(spec)
        verdict = next(v for v in summary.verdicts if v.check_id == "cover_log_diameter")
        ok = ok and verdict.passed
        details.append(
            f"{family.kind}{tuple(family.params.values())}:"
            f" {verdict.empirical:.4f} vs {verdict.threshold:.4f}+3se"
        )
    return _timed(
        3, "cover time log-diameter bound", ok,
        "exceedance vs allowance: " + "; ".join(details), t0,
    )


# -- 4: hypercube cover time is bounded and dimension-free ------------------------


def criterion_4(workers: int = 1) -> CriterionResult:
    t0 = time.perf_counter()
    cap = 14.05
    p99s, means = {}, {}
    for i, d in enumerate((8, 10, 12)):
        spec = ExperimentSpec(
            family=FamilySpec("grid", {"d": d, "k": 1}),
            s_policy="first-vertex",
            process="fpp",
            trials=2000,
            master_seed=MASTER_SEED,
            metrics=("height", "cover_time"),
            workers=workers,
            experiment_id=400 + i,
        )
        _, summary = run_experiment(spec)
        row = _metric(summary, "cover_time")
        p99s[d], means[d] = row.p99, row.mean
    mean_ratio = max(means.values()) / min(means.values())
    ok = all(v <= cap for v in p99s.values()) and mean_ratio <= 1.25
    shown = ", ".join(f"d={d}: p99={p99s[d]:.2f} mean={means[d]:.2f}" for d in p99s)
    return _timed(
        4, "hypercube cover time", ok,
        f"{shown}; p99 cap {cap}, mean max/min {mean_ratio:.3f} (<= 1.25)", t0,
    )


# -- 5: grid cover time grows linearly in the side length ---------------------------


def criterion_5(workers: int = 1) -> CriterionResult:
    t0 = time.perf_counter()
    ratios = {}
    for i, (d, k) in enumerate(((2, 8), (3, 5), (4, 3), (6, 2))):
        spec = ExperimentSpec(
            family=FamilySpec("grid", {"d": d, "k": k}),
            s_policy="first-vertex",
            process="fpp",
            trials=1000,
            master_seed=MASTER_SEED,
            metrics=("height", "cover_time"),
            workers=workers,
            experiment_id=500 + i,
        )
        _, summary = run_experiment(spec)
        ratios[(d, k)] = _metric(summary, "cover_time").p99 / k
    values = sorted(ratios.values())
    ok = values[-1] <= 3 * values[0]
    shown = ", ".join(f"(d,k)={dk}: {r:.3f}" for dk, r in ratios.items())
    return _timed(
        5, "grid cover time per side length", ok,
        f"p99(cover)/k = {shown}; max/min {values[-1] / values[0]:.3f} (<= 3)", t0,
    )


# -- 6: exact walk/path counts never exceed the closed-form ceilings ---------------


COUNTING_CORPUS = (
    ("complete4", FamilySpec("complete", {"n": 4})),
    ("complete8", FamilySpec("complete", {"n": 8})),
    ("complete16", FamilySpec("complete", {"n": 16})),
    ("grid_2_3", FamilySpec("grid", {"d": 2, "k": 3})),
    ("grid_3_1", FamilySpec("grid", {"d": 3, "k": 1})),
    ("grid_1_5", FamilySpec("grid", {"d": 1, "k": 5})),
    ("ladder_2_3", FamilySpec("ladder_H", {"L": 2, "delta": 3})),
    ("ladder_4_2", FamilySpec("ladder_H", {"L": 4, "delta": 2})),
    ("subdivided_4_2", FamilySpec("subdivided_tree_I", {"L": 4, "m": 2})),
    ("glued_2_1", FamilySpec("glued_G", {"L": 2, "delta": 1, "a": 8.0, "m": 2})),
    ("glued_4_1", FamilySpec("glued_G", {"L": 4, "delta": 1, "a": 8.0, "m": 2})),
    ("planar_2_2", FamilySpec("planar_lower_G", {"L": 2, "delta": 2, "a": 8.0, "m": 2})),
    ("planar_2_4", FamilySpec("planar_lower_G", {"L": 2, "delta": 4, "a": 8.0, "m": 2})),
    ("degenerate_2_3_2",
     FamilySpec("degenerate_lower_G", {"L": 2, "delta": 3, "d": 2, "a": 8.0, "m": 2})),
)


def criterion_6(workers: int = 1) -> CriterionResult:
    t0 = time.perf_counter()
    max_length = 8
    walk_checks = path_checks = 0
    for label, family in COUNTING_CORPUS:
        g, meta = build_family(family)
        if g.n > 16:
            return _timed(6, "walk and path count bounds", False,
                          f"{label} has {g.n} > 16 vertices", t0)
        degeneracy = g.degeneracy_ordering().degeneracy
        for length in range(max_length + 1):
            exact = count_walks(g, length)
            bound = bound_walks_degenerate(g.n, degeneracy, g.max_degree, length)
            walk_checks += 1
            if exact > bound:
                return _timed(
                    6, "walk and path count bounds", False,
                    f"{label}: walks({length})={exact} > {bound}", t0,
                )
        if meta.declared_genus != 0:
            continue
        wide = max(g.max_degree, 6)  # the path ceiling needs degree >= 6
        totals = [0] * (max_length + 1)
        for s in range(g.n):
            for length, cnt in enumerate(count_simple_paths_upto(g, s, max_length)):
                totals[length] += cnt
        for length in range(max_length + 1):
            bound = bound_paths_genus(g.n, 0, wide, length)
            path_checks += 1
            if totals[length] > bound:
                return _timed(
                    6, "walk and path count bounds", False,
                    f"{label}: paths({length})={totals[length]} > {bound}", t0,
                )
    return _timed(
        6, "walk and path count bounds", True,
        f"exact <= ceiling on {walk_checks} walk checks and {path_checks} path checks"
        f" (lengths 0..{max_length}, zero tolerance)", t0,
    )


# -- 7: two-stage minimum tails and sums obey the closed-form bounds ----------------


def criterion_7(workers: int = 1) -> CriterionResult:
    t0 = time.perf_counter()
    reports = []
    for i, (a, b) in enumerate(((4, 1), (8, 4), (16, 16))):
        reports.append(check_two_stage_tail(
            stream_for(MASTER_SEED, 700, i), a, b, (0.5, 1, 2, 4, 8), 10**6,
        ))
        for m in (9, 36):
            reports.append(check_two_stage_sum(
                stream_for(MASTER_SEED, 700, i, m), a, b, m, 10**5,
            ))
    failed = [r.name for r in reports if not r.passed]
    points = sum(len(r.rows) for r in reports)
    return _timed(
        7, "two-stage tail and sum bounds", not failed,
        (f"{points} grid points across {len(reports)} checks within bound+3sigma"
         if not failed else "failed: " + ", ".join(failed)), t0,
    )


# -- 8: head and tail bounds for sums of unit exponentials -------------------------


def criterion_8(workers: int = 1) -> CriterionResult:
    t0 = time.perf_counter()
    reports = []
    for i, k in enumerate((5, 10, 20)):
        for j, d in enumerate((4, 8)):
            reports.append(check_erlang_head(
                stream_for(MASTER_SEED, 800, i, j), k, d, 10**6,
            ))
        reports.append(check_erlang_tail(
            stream_for(MASTER_SEED, 800, i, 9), k, (3, 5), 10**6,
        ))
    failed = [r.name for r in reports if not r.passed]
    points = sum(len(r.rows) for r in reports)
    return _timed(
        8, "exponential sum head/tail bounds", not failed,
        (f"{points} grid points across {len(reports)} checks within bound+3sigma"
         if not failed else "failed: " + ", ".join(failed)), t0,
    )


# -- 9: lower-bound constructions reach their height targets ------------------------


IMPLICATION_CONFIGS = (
    FamilySpec("glued_G", {"L": 32, "delta": 4, "a": 2 * E2}),
    FamilySpec("glued_G", {"L": 32, "delta": 8, "a": 2 * E2}),
    FamilySpec("planar_lower_G", {"L": 32, "delta": 4, "a": 2 * E2}),
    FamilySpec("planar_lower_G", {"L": 32, "delta": 8, "a": 2 * E2}),
    FamilySpec("degenerate_lower_G", {"L": 32, "delta": 4, "d": 2, "a": 2 * E2}),
    FamilySpec("degenerate_lower_G", {"L": 32, "delta": 8, "d": 4, "a": 2 * E2}),
)


def criterion_9(workers: int = 1) -> CriterionResult:
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        family=FamilySpec("glued_G", {"L": 64, "delta": 8, "a": 4 * E2}),
        s_policy="first-vertex",
        process="fpp",
        trials=500,
        master_seed=MASTER_SEED,
        metrics=("height",),
        workers=workers,
        experiment_id=900,
    )
    g, meta = build_family(spec.family)
    records, _ = run_experiment(spec)
    target = meta.height_target
    freq = sum(r.height >= target for r in records) / len(records)
    if freq < 0.9:
        return _timed(9, "lower-bound construction heights", False,
                      f"glued L=64: freq(h >= {target}) = {freq:.3f} < 0.9", t0)

    held = trials_run = 0
    for i, family in enumerate(IMPLICATION_CONFIGS):
        spec = ExperimentSpec(
            family=family,
            s_policy="first-vertex",
            process="fpp",
            trials=100,
            master_seed=MASTER_SEED,
            metrics=("height", "event_AB"),
            workers=workers,
            experiment_id=901 + i,
        )
        try:
            records, _ = run_experiment(spec)
        except RuntimeError as exc:
            return _timed(9, "lower-bound construction heights", False,
                          f"{family.kind} delta={family.params['delta']}: {exc}", t0)
        held += sum(bool(r.implication_ok) for r in records)
        trials_run += len(records)
    return _timed(
        9, "lower-bound construction heights", held == trials_run,
        f"glued L=64: freq(h >= {target}) = {freq:.3f} (>= 0.9);"
        f" event implication held on {held}/{trials_run} trials"
        f" across {len(IMPLICATION_CONFIGS)} configs", t0,
    )


# -- 10: decomposition certificates for the degenerate construction ----------------


def degenerate_certificate_rows() -> list[dict]:
    """Decomposition width and measured degeneracy for the audit instances."""
    from .families import build_tree_decomposition_degenerate, verify_tree_decomposition

    rows = []
    for d in (1, 2, 3):
        for L, delta, m in ((2, 3, 2), (4, 4, 3)):
            family = FamilySpec(
                "degenerate_lower_G",
                {"L": L, "delta": delta, "d": d, "a": 8.0, "m": m},
            )
            g, meta = build_family(family)
            report = verify_tree_decomposition(
                g, build_tree_decomposition_degenerate(g, meta)
            )
            rows.append({
                "L": L, "delta": delta, "d": d, "n": g.n,
                "decomposition_valid": report.passed,
                "width": report.width,
                "width_cap": 2 * d + 1,
                "measured_degeneracy": g.degeneracy_ordering().degeneracy,
            })
    return rows


def criterion_10(workers: int = 1) -> CriterionResult:
    t0 = time.perf_counter()
    rows = degenerate_certificate_rows()
    decomposition_ok = sum(
        r["decomposition_valid"] and r["width"] <= r["width_cap"] for r in rows
    )
    degeneracy_ok = sum(r["measured_degeneracy"] <= r["d"] for r in rows)
    passed = decomposition_ok == len(rows) and degeneracy_ok == len(rows)
    worst = max(r["measured_degeneracy"] - r["d"] for r in rows)
    return _timed(
        10, "degenerate decomposition certificate", passed,
        f"decomposition valid with width <= 2d+1 on {decomposition_ok}/{len(rows)};"
        f" peeling degeneracy <= d on {degeneracy_ok}/{len(rows)}"
        f" (construction realizes degeneracy up to d+{worst})", t0,
    )


# -- 11: experiment runs are byte-reproducible --------------------------------------


def criterion_11(workers: int = 1) -> CriterionResult:
    from .cli import main as cli_main

    t0 = time.perf_counter()
    config = {
        "version": 1,
        "family": {"kind": "grid", "params": {"d": 2, "k": 3}},
        "s_policy": "first-vertex",
        "process": "fpp",
        "trials": 50,
        "master_seed": 7,
        "metrics": ["height", "cover_time"],
    }
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = root / "config.json"
        cfg.write_text(json.dumps(config))
        outs = {"run1": "1", "run2": "1", "w8": "8"}
        for name, nworkers in outs.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([
                    "expt", "--config", str(cfg),
                    "--out", str(root / name), "--workers", nworkers,
                ])
            if code != 0:
                return _timed(11, "byte-identical reruns", False,
                              f"expt ({name}) exited {code}", t0)
        for other in ("run2", "w8"):
            for fname in OUTPUT_FILES:
                if not filecmp.cmp(root / "run1" / fname, root / other / fname,
                                   shallow=False):
                    return _timed(11, "byte-identical reruns", False,
                                  f"{fname} differs between run1 and {other}", t0)
    return _timed(
        11, "byte-identical reruns", True,
        f"{len(OUTPUT_FILES)} output files identical across a rerun"
        " and across worker counts 1 and 8", t0,
    )


# -- suite driver -------------------------------------------------------------------


_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}


def run_suite(suite: str = "quick", workers: int = 1) -> list[CriterionResult]:
    if suite == "quick":
        numbers = QUICK_CRITERIA
    elif suite == "full":
        numbers = FULL_CRITERIA
    else:
        raise ValueError(f"unknown suite {suite!r} (expected 'quick' or 'full')")
    if workers < 1:
        raise HarnessError(f"workers must be >= 1, got {workers}")
    return [_CRITERIA[k](workers=workers) for k in numbers]
