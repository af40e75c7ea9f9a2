"""Release-gate acceptance suite.

Each ``criterion_<k>`` function runs one self-contained empirical check.  Its
body returns ``(passed, detail)``; the ``_criterion(number, name)`` decorator
times the body, builds the CriterionResult and registers the function in
``_CRITERIA``, so ``criterion_<k>(workers=1)`` returns a CriterionResult and
``run_suite`` collects them in order.  Every Monte Carlo campaign runs through
``_campaign``, which fixes the first-vertex start and MASTER_SEED.  Criterion
5's campaigns are ``grid_cover_summaries``, which ``scripts/pilot_grid_cover.py``
runs as well, so the pilot and the gate cannot drift apart.

Every trial count, experiment id, seed and tolerance is written out literally
next to the check that uses it, so a verdict can be audited from this file
alone.  The quick suite runs criteria 6, 10 and 11, which are exact or
deterministic, and criterion 8, a seeded Monte Carlo check; the full suite
adds the campaigns and the other Monte Carlo checks.

Each criterion's docstring names a defect it catches and the smallest one
it could see, worked out from the margins of one ``verify --suite full``
run at master seed 7.  A scale error multiplies every value of the checked
quantity; "3se" slack is included.
"""

from __future__ import annotations

import contextlib
import filecmp
import functools
import io
import json
import math
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .counting import count_report
from .families import E2, FamilySpec, build_family
from .graphs import Graph
from .growth import law_equivalence_test
from .harness import (
    OUTPUT_FILES,
    ExperimentSpec,
    HarnessError,
    Summary,
    TrialRecord,
    run_experiment,
)
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


_CRITERIA: dict[int, Callable[..., CriterionResult]] = {}


def _criterion(number: int, name: str):
    """Make a body returning (passed, detail) into registered criterion `number`."""

    def register(body: Callable[[int], tuple[bool, str]]) -> Callable[..., CriterionResult]:
        @functools.wraps(body)
        def run(workers: int = 1) -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = body(workers)
            return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)

        _CRITERIA[number] = run
        return run

    return register


def _campaign(
    family: FamilySpec,
    process: str,
    trials: int,
    metrics: tuple[str, ...],
    experiment_id: int,
    workers: int,
) -> tuple[list[TrialRecord], Summary]:
    """Run one campaign from the family's first vertex at MASTER_SEED."""
    return run_experiment(ExperimentSpec(
        family=family,
        s_policy="first-vertex",
        process=process,
        trials=trials,
        master_seed=MASTER_SEED,
        metrics=metrics,
        workers=workers,
        experiment_id=experiment_id,
    ))


def _metric(summary, name: str):
    for row in summary.metrics:
        if row.metric == name:
            return row
    raise LookupError(f"metric {name!r} missing from summary")


# -- 1: the two processes generate the same tree distribution -------------------------


@_criterion(1, "process law equivalence")
def criterion_1(workers: int) -> tuple[bool, str]:
    """TV distance between each process and the exact law on four small graphs.

    Catches a sampler with the wrong tree law, such as one joining a uniform
    boundary vertex.  The worst TV reads 0.0034 against 0.02, so it sees a
    law about 0.017 in TV from the exact one on one graph.  It is blind to
    any scaling of the weights, which leaves every tree unchanged.
    """
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
                return False, f"{label}/{process}: TV={cmp.tv_distance:.4f} > {tolerance}"
    return True, (
        f"max TV {worst:.4f} over {checks} graph/process pairs"
        f" at {trials} trials (tolerance {tolerance})"
    )


# -- 2: tree height on complete graphs scales like a constant times log n -------------


@_criterion(2, "complete graph height ratio")
def criterion_2(workers: int) -> tuple[bool, str]:
    """Catches a height-scale error: the ratios read 1.919 to 2.088 in
    [1.5, 3.5], so it sees heights scaled below 0.78x or above 1.68x, or a
    drift of 0.43 in the ratio across n (spread 0.169 against 0.6).  Depths
    off by one add only 0.12 to 0.18, which passes; ``test_gate_power``
    catches them with the exact K_64 height law."""
    ratios = {}
    for i, n in enumerate((256, 1024, 4096)):
        _, summary = _campaign(
            FamilySpec("complete", {"n": n}), "discrete",
            trials=200, metrics=("height",), experiment_id=200 + i, workers=workers,
        )
        ratios[n] = _metric(summary, "height").mean / math.log(n)
    values = sorted(ratios.values())
    spread = values[-1] - values[0]
    in_window = all(1.5 <= r <= 3.5 for r in values)
    shown = ", ".join(f"n={n}: {r:.3f}" for n, r in ratios.items())
    return in_window and spread <= 0.6, (
        f"mean height/ln n = {shown}; spread {spread:.3f}"
        " (window [1.5, 3.5], spread <= 0.6)"
    )


# -- 3: cover time exceeds 4 ln n + 2 diameter with frequency at most 2/n -------------


@_criterion(3, "cover time log-diameter bound")
def criterion_3(workers: int) -> tuple[bool, str]:
    """Catches a time-scale error.  Every family reads 0 exceedances, and the
    tightest, grid(2, 7), fails only once cover times grow about 5.3x
    (grid(3, 3) 7.5x), so doubled weights pass; ``test_gate_power`` catches
    them against Janson's K_32 mean."""
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
        _, summary = _campaign(
            family, "fpp", trials=2000, metrics=("height", "cover_time", "bound_matrix"),
            experiment_id=300 + i, workers=workers,
        )
        verdict = next(v for v in summary.verdicts if v.check_id == "cover_log_diameter")
        ok = ok and verdict.passed
        details.append(
            f"{family.kind}{tuple(family.params.values())}:"
            f" {verdict.empirical:.4f} vs {verdict.threshold:.4f}+3se"
        )
    return ok, "exceedance vs allowance: " + "; ".join(details)


# -- 4: hypercube cover time is bounded and dimension-free ------------------------


@_criterion(4, "hypercube cover time")
def criterion_4(workers: int) -> tuple[bool, str]:
    """Catches a time-scale error: the cap of 14.05 against p99 2.14 to 2.45
    sees only one above about 5.7x.  The mean ratio, 1.055 against 1.25,
    sees an error that differs by 1.18x between two dimensions."""
    cap = 14.05
    p99s, means = {}, {}
    for i, d in enumerate((8, 10, 12)):
        _, summary = _campaign(
            FamilySpec("grid", {"d": d, "k": 1}), "fpp",
            trials=2000, metrics=("height", "cover_time"),
            experiment_id=400 + i, workers=workers,
        )
        row = _metric(summary, "cover_time")
        p99s[d], means[d] = row.p99, row.mean
    mean_ratio = max(means.values()) / min(means.values())
    ok = all(v <= cap for v in p99s.values()) and mean_ratio <= 1.25
    shown = ", ".join(f"d={d}: p99={p99s[d]:.2f} mean={means[d]:.2f}" for d in p99s)
    return ok, f"{shown}; p99 cap {cap}, mean max/min {mean_ratio:.3f} (<= 1.25)"


# -- 5: grid cover time grows linearly in the side length ---------------------------


def grid_cover_summaries(trials: int, workers: int = 1) -> dict[tuple[int, int], Summary]:
    """FPP cover-time campaigns on criterion 5's grid shapes, keyed by (d, k)."""
    summaries = {}
    for i, (d, k) in enumerate(((2, 8), (3, 5), (4, 3), (6, 2))):
        _, summaries[(d, k)] = _campaign(
            FamilySpec("grid", {"d": d, "k": k}), "fpp",
            trials=trials, metrics=("height", "cover_time"),
            experiment_id=500 + i, workers=workers,
        )
    return summaries


@_criterion(5, "grid cover time per side length")
def criterion_5(workers: int) -> tuple[bool, str]:
    """Catches a time error that depends on the grid's shape: max/min reads
    1.265 against 3, so it sees one of about 2.4x between two shapes.  A
    time scale common to all shapes cancels in the ratio."""
    summaries = grid_cover_summaries(trials=1000, workers=workers)
    ratios = {
        (d, k): _metric(summary, "cover_time").p99 / k
        for (d, k), summary in summaries.items()
    }
    values = sorted(ratios.values())
    ok = values[-1] <= 3 * values[0]
    shown = ", ".join(f"(d,k)={dk}: {r:.3f}" for dk, r in ratios.items())
    return ok, f"p99(cover)/k = {shown}; max/min {values[-1] / values[0]:.3f} (<= 3)"


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


@_criterion(6, "walk and path count bounds")
def criterion_6(workers: int) -> tuple[bool, str]:
    """Catches a ceiling formula set too low, or a count too high, with zero
    tolerance.  The tightest row is K_4 at length 0, 4 walks against a
    ceiling of 8, so a ceiling must fall by half there to be seen."""
    max_length = 8
    walk_checks = path_checks = 0
    for label, family in COUNTING_CORPUS:
        g, meta = build_family(family)
        if g.n > 16:
            return False, f"{label} has {g.n} > 16 vertices"
        for row in count_report(g, meta, label, None, max_length):
            walks = row.bound_kind == "degenerate"  # the other rows are genus rows
            walk_checks += walks
            path_checks += not walks
            if not row.passed:
                counted = "walks" if walks else "paths"
                return False, f"{label}: {counted}({row.length})={row.exact} > {row.bound_value}"
    return True, (
        f"exact <= ceiling on {walk_checks} walk checks and {path_checks} path checks"
        f" (lengths 0..{max_length}, zero tolerance)"
    )


# -- 7: two-stage minimum tails and sums obey the closed-form bounds ----------------


@_criterion(7, "two-stage tail and sum bounds")
def criterion_7(workers: int) -> tuple[bool, str]:
    """Nearly blind.  Eleven of its 21 points have a bound of at least 1 and
    cannot fail; the other ten read 0 exceedances.  The smallest error it
    sees is two-stage minima scaled up about 32x (a=8, b=4 at t=8)."""
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
    return not failed, (
        f"{points} grid points across {len(reports)} checks within bound+3sigma"
        if not failed else "failed: " + ", ".join(failed)
    )


# -- 8: head and tail bounds for sums of unit exponentials -------------------------


@_criterion(8, "exponential sum head/tail bounds")
def criterion_8(workers: int) -> tuple[bool, str]:
    """Catches an Erlang sampler off in scale: sums scaled up 1.44x (k=20,
    tail at t=3) or down 1.57x (k=10, head at d=8).  Half of its 12 points
    read 0 hits."""
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
    return not failed, (
        f"{points} grid points across {len(reports)} checks within bound+3sigma"
        if not failed else "failed: " + ", ".join(failed)
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


@_criterion(9, "lower-bound construction heights")
def criterion_9(workers: int) -> tuple[bool, str]:
    """Catches any single trial where both events hold and the height falls
    short of the target: the implication is checked on every trial.  The
    height clause is weak: at L=64 the p10 height is 300 against a target
    of 63, so heights must shrink below 0.21x on a tenth of the trials."""
    glued = FamilySpec("glued_G", {"L": 64, "delta": 8, "a": 4 * E2})
    target = build_family(glued)[1].height_target
    records, _ = _campaign(
        glued, "fpp", trials=500, metrics=("height",), experiment_id=900, workers=workers,
    )
    freq = sum(r.height >= target for r in records) / len(records)
    if freq < 0.9:
        return False, f"glued L=64: freq(h >= {target}) = {freq:.3f} < 0.9"

    held = trials_run = 0
    for i, family in enumerate(IMPLICATION_CONFIGS):
        try:
            records, _ = _campaign(
                family, "fpp", trials=100, metrics=("height", "event_AB"),
                experiment_id=901 + i, workers=workers,
            )
        except RuntimeError as exc:
            return False, f"{family.kind} delta={family.params['delta']}: {exc}"
        held += sum(bool(r.implication_ok) for r in records)
        trials_run += len(records)
    return held == trials_run, (
        f"glued L=64: freq(h >= {target}) = {freq:.3f} (>= 0.9);"
        f" event implication held on {held}/{trials_run} trials"
        f" across {len(IMPLICATION_CONFIGS)} configs"
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
                "measured_degeneracy": g.degeneracy(),
            })
    return rows


@_criterion(10, "degenerate decomposition certificate")
def criterion_10(workers: int) -> tuple[bool, str]:
    """Catches an invalid decomposition: one uncovered edge, one vertex whose
    bags are disconnected, or one bag vertex too many, since the L=4 rows
    sit at the width cap (3, 5 and 7).  The degeneracy clause fails today;
    see README."""
    rows = degenerate_certificate_rows()
    decomposition_ok = sum(
        r["decomposition_valid"] and r["width"] <= r["width_cap"] for r in rows
    )
    degeneracy_ok = sum(r["measured_degeneracy"] <= r["d"] for r in rows)
    passed = decomposition_ok == len(rows) and degeneracy_ok == len(rows)
    worst = max(r["measured_degeneracy"] - r["d"] for r in rows)
    return passed, (
        f"decomposition valid with width <= 2d+1 on {decomposition_ok}/{len(rows)};"
        f" peeling degeneracy <= d on {degeneracy_ok}/{len(rows)}"
        f" (construction realizes degeneracy up to d+{worst})"
    )


# -- 11: experiment runs are byte-reproducible --------------------------------------


@_criterion(11, "byte-identical reruns")
def criterion_11(workers: int) -> tuple[bool, str]:
    """Catches one differing byte in any output file across a rerun or
    across worker counts 1 and 8, such as a stream keyed by the worker."""
    from .cli import main as cli_main

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
                return False, f"expt ({name}) exited {code}"
        for other in ("run2", "w8"):
            for fname in OUTPUT_FILES:
                if not filecmp.cmp(root / "run1" / fname, root / other / fname,
                                   shallow=False):
                    return False, f"{fname} differs between run1 and {other}"
    return True, (
        f"{len(OUTPUT_FILES)} output files identical across a rerun"
        " and across worker counts 1 and 8"
    )


# -- suite driver -------------------------------------------------------------------


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
