"""Pin the output digests of the benchmark's FPP campaigns.

    python3 bench/pin_digests.py            # seeds 0..31, the default and the held-out seed

Writes ``bench/digests.json``: for each seed, the sha256 of the flat files
(records, summary, verdicts, events) that the harness serializers write for
every FPP campaign of every workload.  A round whose seed is pinned fails
when its bytes differ.  Re-pin only with a change that is meant to alter
FPP output bytes, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from treegrowth import graphs, growth, harness, randomness  # noqa: E402

import workloads  # noqa: E402
from instrument import Recorder  # noqa: E402


def main() -> int:
    rec = Recorder(traced=False)
    rec.install(harness, growth, randomness, graphs)
    seeds = sorted(set(range(32)) | {workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED})
    pinned = {}
    for seed in seeds:
        pinned[str(seed)] = {
            out.name: out.digest
            for ops in workloads.WORKLOADS.values()
            for op in ops
            if isinstance(op, workloads.Campaign) and op.process == "fpp"
            for out in [op.run(seed, rec)]
        }
        print(f"seed {seed}: {len(pinned[str(seed)])} campaigns", file=sys.stderr)
    workloads.DIGESTS_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
