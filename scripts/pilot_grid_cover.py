#!/usr/bin/env python3
"""Pilot run behind the grid cover-time ratio check.

Estimates p99(cover time)/k on the four grid shapes used by acceptance
criterion 5, through the same campaigns (``acceptance.grid_cover_summaries``),
and writes the values to results/pilot_grid_cover.csv.  The acceptance
threshold (max ratio <= 3 x min ratio) was chosen from this pilot: the
observed spread is ~1.3x, so 3x leaves wide noise headroom while still
failing if cover time stopped scaling linearly in k.

Usage: python3 scripts/pilot_grid_cover.py [--trials N] [--out PATH]
"""

import argparse
import csv
from pathlib import Path

from treegrowth.acceptance import grid_cover_summaries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent / "results" / "pilot_grid_cover.csv",
    )
    args = parser.parse_args()

    rows = []
    for (d, k), summary in grid_cover_summaries(trials=args.trials).items():
        cover = next(m for m in summary.metrics if m.metric == "cover_time")
        rows.append({
            "d": d, "k": k, "n_vertices": (k + 1) ** d, "trials": args.trials,
            "cover_mean": f"{cover.mean:.6f}", "cover_p99": f"{cover.p99:.6f}",
            "p99_over_k": f"{cover.p99 / k:.6f}",
        })
        print(f"grid(d={d}, k={k}): p99(cover)={cover.p99:.3f}  p99/k={cover.p99 / k:.3f}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    ratios = [float(r["p99_over_k"]) for r in rows]
    print(f"max/min ratio: {max(ratios) / min(ratios):.3f} (acceptance allows 3)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
