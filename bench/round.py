"""One round of one workload, in a fresh process: the child of run.py.

    python3 bench/round.py --workload NAME --seed N --traced 0|1 --spawned-at T
        [--spans-out PATH]

It imports treegrowth from the checkout's ``src``, runs every operation of
the workload, checks every output, and prints one JSON object on its last
line of standard output.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process, so ``wall_s`` and
``setup_s`` include interpreter start-up and the imports.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# metric -> (span name, field); field is "calls", "s" (total) or "self_s".
SPAN_METRICS = {
    "randomness.stream_for.calls": ("randomness.stream_for", "calls"),
    "randomness.stream_for.s": ("randomness.stream_for", "s"),
    "randomness.sample_exponential.s": ("randomness.sample_exponential", "s"),
    "randomness.sample_two_stage_min.s": ("randomness.sample_two_stage_min", "s"),
    "randomness.sample_erlang.s": ("randomness.sample_erlang", "s"),
    "families.build_family.s": ("families.build_family", "s"),
    "graphs.eccentricity.s": ("graphs.eccentricity", "s"),
    "graphs.masked_weight_csr.s": ("graphs.masked_weight_csr", "s"),
    "growth.grow_fpp.calls": ("growth.grow_fpp", "calls"),
    "growth.grow_fpp.self_s": ("growth.grow_fpp", "self_s"),
    "growth.depths.calls": ("growth.depths", "calls"),
    "growth.depths.s": ("growth.depths", "s"),
    "growth.grow_discrete.calls": ("growth.grow_discrete", "calls"),
    "growth.grow_discrete.self_s": ("growth.grow_discrete", "self_s"),
    "growth.law_equivalence_test.self_s": ("growth.law_equivalence_test", "self_s"),
    "harness.events_dijkstra.calls": ("harness.events_dijkstra", "calls"),
    "harness.events_dijkstra.s": ("harness.events_dijkstra", "s"),
    "harness.run_experiment.self_s": ("harness.run_experiment", "self_s"),
    "harness.summarize.self_s": ("harness.summarize", "self_s"),
    "harness.write.s": ("harness.write", "s"),
    "counting.bound_matrix.s": ("counting.bound_matrix", "s"),
}
_FIELD = {"calls": 0, "s": 1, "self_s": 2}


def layer_metrics(rec) -> tuple[dict, dict]:
    """(exact counts, seconds) of the traced round, by metric name."""
    totals = rec.layer_totals()
    counts = {"randomness.exp_draws": rec.exp_draws, "graphs.csr_bytes": rec.csr_bytes}
    times = {}
    for metric, (span, field) in SPAN_METRICS.items():
        value = totals.get(span, (0, 0.0, 0.0))[_FIELD[field]]
        (counts if field == "calls" else times)[metric] = value
    return counts, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, default=_STARTED)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import treegrowth

    if Path(treegrowth.__file__).resolve().parent != ROOT / "src" / "treegrowth":
        print(f"treegrowth imported from {treegrowth.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from treegrowth import graphs, growth, harness, randomness

    import workloads
    from instrument import Recorder

    imported = time.monotonic()
    rec = Recorder(traced=bool(args.traced))
    rec.install(harness, growth, randomness, graphs)
    pinned = workloads.pinned_digests(args.seed)

    ops = workloads.WORKLOADS[args.workload]
    setup_s = imported - args.spawned_at
    done = {}  # operation name -> [trials, trial-phase seconds]
    failures = []
    readouts = {}
    for op in ops:
        try:
            out = op.run(args.seed, rec)
            expected = pinned.get(out.name)
            if expected is not None and out.digest != expected:
                raise workloads.CheckFailed("output bytes differ from the pinned digest")
        except Exception as exc:  # one failed operation must not hide the others
            rec.paused = False
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            continue
        setup_s += out.setup_s
        done[out.name] = [out.trials, out.trial_s]
        readouts[out.name] = out.readout
    verified = time.monotonic()

    result = {
        "wall_s": verified - args.spawned_at,
        "setup_s": setup_s,
        "done": done,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": len(ops),
        "failures": failures,
        "readouts": readouts,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.traced:
        counts, times = layer_metrics(rec)
        result.update(layer_counts=counts, layer_times=times, unwrapped=rec.unwrapped)
        if args.spans_out:
            rec.write_spans(args.spans_out, origin=rec.spans[0][1] if rec.spans else 0.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
