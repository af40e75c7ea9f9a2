"""Run a benchmark workload in alternating pairs on two checkouts and write
the runs and their summary as a ``results/BENCH_*.json`` file.

    python3 scripts/bench_pairs.py --parent OLD --change NEW \
        --workload small_graphs --seed 1 --pairs 10 --out results/BENCH_x.json

Each run is ``python3 bench/run.py --workload W --seed N --trace T`` from
the root of its own checkout, with run.py's default ``--seconds``; its last
line of standard output is kept whole.  Pair i runs the parent first when i
is odd and the change first when i is even.

An existing ``--out`` file is extended, not replaced: the new pairs are
added to the runs of this seed (with ``--trace 1``, of ``"<seed> trace"``),
numbered on from the ones there, the summary is recomputed from all of
them, and a workload other than the file's own goes under
``other_workloads``.  The summary gives each metric's median, and
with two or more pairs its quartiles, on each side, and the pairs in which
the change read better, ties counting for neither side; which way is
better comes from the change's ``BENCHMARK.json``.  Each metric also gets
``after_over_before``, the ratio of the medians (null when the parent's
median is 0), and ``gain_rule_met``: at least ten pairs, the change better
in at least nine tenths of them, its median better than the parent's by
more than the parent's interquartile range, and no larger share of failed
operations (``failed`` over ``attempted``, summed over the runs) on the
change's side than on the parent's.  The summary counts, on
each side, the runs whose ``correct`` was false, and the script exits 1
when any run of the seed had one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(the run's result line, its ``env`` line) of one bench/run.py run."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    if proc.returncode not in (0, 1) or not lines or "metrics" not in lines[-1]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: bench/run.py exited {proc.returncode}")
    env_line = next((line["env"] for line in lines if "env" in line), {})
    return lines[-1], env_line


def describe(checkout: Path) -> str:
    """The checkout's commit, when it is a git checkout."""
    proc = subprocess.run(["git", "-C", str(checkout), "log", "-1", "--format=%h %s"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else checkout.name


def machine(versions: dict | None) -> str:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    except (ValueError, OSError):
        memory = float("nan")
    versions = versions or {}
    software = ", ".join(f"{name} {version}" for name, version in versions.items())
    return (f"{len(os.sched_getaffinity(0))} vCPU {model or platform.machine()},"
            f" {memory:.0f} GB; {software or 'Python ' + platform.python_version()}")


def directions(change: Path) -> dict[str, str]:
    """metric -> "higher" or "lower", from the change's BENCHMARK.json."""
    spec = json.loads((change / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(runs: dict, better: dict[str, str]) -> dict:
    """Per metric: each side's median (and quartiles), pairs won, the ratio
    of the medians and whether the gain rule is met; and under
    ``runs_not_correct``, each side's count of runs not correct."""
    before, after = runs["before"], runs["after"]
    out = {"runs_not_correct": {side: sum(not r["correct"] for r in runs[side])
                                for side in ("before", "after")}}
    failed_share = {side: sum(r["failed"] for r in runs[side])
                    / max(sum(r["attempted"] for r in runs[side]), 1)
                    for side in ("before", "after")}
    no_more_failures = failed_share["after"] <= failed_share["before"]
    for name in before[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in before]
        a = [r["metrics"][name]["value"] for r in after]
        sign = 1 if better[name] == "higher" else -1
        won = sum(sign * (y - x) > 0 for x, y in zip(b, a))
        sides = {}
        for side, values in (("before", b), ("after", a)):
            sides[side] = {"median": median(values)}
            if len(values) >= 2:
                q1, _, q3 = quantiles(values, n=4)
                sides[side].update(q1=q1, q3=q3)
        before_median, after_median = sides["before"]["median"], sides["after"]["median"]
        gain = (no_more_failures and len(b) >= 10 and 10 * won >= 9 * len(b)
                and sign * (after_median - before_median)
                > sides["before"]["q3"] - sides["before"]["q1"])
        out[name] = {**sides, "after_better_in_pairs": f"{won}/{len(b)}",
                     "after_over_before": (after_median / before_median
                                           if before_median else None),
                     "gain_rule_met": gain}
    return out


def protocol(doc: dict) -> str:
    parts = []
    for workload, section in [(doc["workload"], doc)] + list(
            doc.get("other_workloads", {}).items()):
        for key, runs in section["runs"].items():
            pairs = len(runs["before"])
            parts.append(f"{workload} seed {key}: {pairs} pair{'s' * (pairs != 1)}")
    return ("each side runs bench/run.py from its own checkout with its default"
            " --seconds; pair i runs the parent first when i is odd. "
            + "; ".join(parts))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"{checkout} has no bench/run.py")
    if not (args.change / "BENCHMARK.json").is_file():
        parser.error(f"{args.change} has no BENCHMARK.json")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": "scripts/bench_pairs.py: bench/run.py --workload W --seed S --trace T,"
                " the last line of stdout of every run",
        "workload": args.workload,
        "before": describe(args.parent), "after": describe(args.change),
        "machine": "", "protocol": "", "runs": {}, "summary": {}}
    section = doc if doc["workload"] == args.workload else (
        doc.setdefault("other_workloads", {}).setdefault(
            args.workload, {"runs": {}, "summary": {}}))
    key = f"{args.seed} trace" if args.trace else str(args.seed)
    runs = section["runs"].setdefault(key, {"before": [], "after": []})
    versions = None
    done = len(runs["before"])
    for pair in range(done + 1, done + args.pairs + 1):
        order = [("before", args.parent), ("after", args.change)]
        for side, checkout in order if pair % 2 else order[::-1]:
            result, env = run_bench(checkout, args.workload, args.seed, args.trace)
            versions = versions or env.get("versions")
            runs[side].append({"pair": pair, **{k: result[k] for k in
                               ("correct", "attempted", "failed", "metrics")}})
            print(f"pair {pair} {side}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        # Written after every pair, so a run cut short keeps the pairs done.
        doc["machine"] = doc["machine"] or machine(versions)
        section["summary"][key] = summarize(runs, directions(args.change))
        doc["protocol"] = protocol(doc)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    wrong = section["summary"][key]["runs_not_correct"]
    if any(wrong.values()):
        print(f"runs not correct: {wrong}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
