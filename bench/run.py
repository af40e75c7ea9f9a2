"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 bench/run.py --workload small_graphs --seed 1 --seconds 28 --trace 0

Run it from the root of a checkout.  The workload runs in rounds: each round
is a fresh ``python3 bench/round.py`` process doing the workload's whole,
fixed amount of work once, from interpreter start to checked output.  Rounds
run one after another until ``--seconds`` have passed (at least
``MIN_ROUNDS``), and each metric is a median over rounds; for
``trials_per_s`` the median is taken operation by operation.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` traced and untraced rounds alternate; the result holds the
per-layer metrics of the traced rounds and ``trace.overhead_frac``, the
traced rounds' median wall time over the untraced rounds' median, minus one.
The spans of the first traced round are written to ``bench/out/``.

The exit code is 0 when every output checked out, 1 when a check failed
(the result still prints, with ``"correct": false``), and 2 when the
benchmark cannot run here, for example without the treegrowth sources.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("small_graphs", "fpp_large", "discrete_large", "tail_battery")
MIN_ROUNDS = {0: 3, 1: 4}  # a traced run needs two rounds of each kind
ROUND_TIMEOUT_S = 100
# One thread per process, so rounds do not compete with each other's pools.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}


def run_round(workload: str, seed: int, traced: bool, spans_out: Path | None) -> dict:
    """Run one round in a fresh process; a crash comes back as failures."""
    cmd = [sys.executable, str(BENCH / "round.py"), "--workload", workload,
           "--seed", str(seed), "--traced", str(int(traced))]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    env = {**os.environ, **THREAD_ENV}
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"round timed out after {ROUND_TIMEOUT_S} s"}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"round exited {proc.returncode}"}
    return json.loads(lines[-1])


def trials_per_s(rounds: list[dict]) -> float:
    """The workload's trials over its trial-phase seconds.

    Each operation's trial phase is the median over rounds, so a slow
    spell of the machine during one operation of one round does not move
    the whole round's figure.
    """
    trials = phase = 0.0
    for name in dict.fromkeys(name for r in rounds for name in r["done"]):
        runs = [r["done"][name] for r in rounds if name in r["done"]]
        trials += runs[0][0]
        phase += median(seconds for _, seconds in runs)
    return trials / phase if phase else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if not (ROOT / "src" / "treegrowth" / "__init__.py").is_file():
        print(f"no treegrowth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env_info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
    }
    spans_out = None
    if args.trace:
        (BENCH / "out").mkdir(exist_ok=True)
        spans_out = BENCH / "out" / f"spans_{args.workload}_seed{args.seed}.csv.gz"

    rounds: list[dict] = []
    started = time.monotonic()
    while (time.monotonic() - started < args.seconds
           or len(rounds) < MIN_ROUNDS[args.trace]):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        first_traced = traced and not any(r["traced"] for r in rounds)
        r = run_round(args.workload, args.seed, traced, spans_out if first_traced else None)
        r["traced"] = traced
        rounds.append(r)
        if "crashed" in r:
            break  # a crashed round is not worth repeating

    env_info["versions"] = next((r["versions"] for r in rounds if "versions" in r), None)
    print(json.dumps({"env": env_info}))

    failures = []
    attempted = failed = 0
    for i, r in enumerate(rounds):
        if "crashed" in r:
            failures.append(f"round {i}: {r['crashed']}")
            continue
        attempted += r["ops"]
        failed += len(r["failures"])
        failures += [f"round {i}: {f}" for f in r["failures"]]
        print(json.dumps({"round": i, "traced": r["traced"], "wall_s": r["wall_s"],
                          "setup_s": r["setup_s"], "peak_rss_mb": r["peak_rss_mb"],
                          "done": r["done"]}))
    ok = [r for r in rounds if "crashed" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if len(ok) < len(rounds) or not plain or (args.trace and not traced):
        for line in failures:
            print(line, file=sys.stderr)
        return 2 if not ok else 1

    if args.trace:
        counts = traced[0]["layer_counts"]
        for r in traced[1:]:
            if r["layer_counts"] != counts:
                failures.append(f"layer counts differ between traced rounds: "
                                f"{counts} vs {r['layer_counts']}")
                failed += 1
        metrics = {name: {"value": value, "unit": "bytes" if name == "graphs.csr_bytes"
                          else "count"} for name, value in counts.items()}
        for name in traced[0]["layer_times"]:
            metrics[name] = {"value": median(r["layer_times"][name] for r in traced),
                             "unit": "s"}
        overhead = (median(r["wall_s"] for r in traced)
                    / median(r["wall_s"] for r in plain)) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        if traced[0]["unwrapped"]:
            print(json.dumps({"unwrapped": traced[0]["unwrapped"]}))
    else:
        metrics = {
            "trials_per_s": {"value": trials_per_s(plain), "unit": "1/s"},
            "wall_s": {"value": median(r["wall_s"] for r in plain), "unit": "s"},
            "setup_s": {"value": median(r["setup_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        }
    # Known-answer readouts are diagnostics, not metrics: the rounds of one
    # run share their inputs, so the first round's readouts stand for all.
    print(json.dumps({"diagnostics": ok[0]["readouts"], "rounds": len(ok),
                      "failed_frac": failed / attempted}))
    for line in failures:
        print(line, file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
