"""scripts/bench_pairs.py's summary of paired runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(pair: int, correct: bool, rate: float, wall: float) -> dict:
    return {"pair": pair, "correct": correct, "attempted": 10, "failed": 0,
            "metrics": {"trials_per_s": {"value": rate, "unit": "1/s"},
                        "wall_s": {"value": wall, "unit": "s"}}}


def test_summarize_counts_runs_not_correct_and_pairs_won():
    runs = {
        "before": [run(1, True, 100.0, 2.0), run(2, False, 110.0, 2.0),
                   run(3, True, 90.0, 2.2), run(4, True, 120.0, 1.8)],
        "after": [run(1, True, 130.0, 2.0), run(2, True, 100.0, 1.5),
                  run(3, False, 95.0, 2.5), run(4, False, 120.0, 1.7)],
    }
    out = bench_pairs.summarize(runs, {"trials_per_s": "higher", "wall_s": "lower"})
    assert out["runs_not_correct"] == {"before": 1, "after": 2}
    rate, wall = out["trials_per_s"], out["wall_s"]
    # A tie (pair 4's rate) counts for neither side.
    assert rate["after_better_in_pairs"] == "2/4"
    assert wall["after_better_in_pairs"] == "2/4"
    assert rate["before"]["median"] == 105.0 and rate["after"]["median"] == 110.0
    assert wall["before"]["median"] == 2.0 and wall["after"]["median"] == 1.85
    assert rate["before"]["q1"] <= rate["before"]["median"] <= rate["before"]["q3"]


def test_summarize_one_pair_has_no_quartiles():
    runs = {"before": [run(1, True, 100.0, 2.0)], "after": [run(1, True, 90.0, 2.0)]}
    out = bench_pairs.summarize(runs, {"trials_per_s": "higher", "wall_s": "lower"})
    assert out["runs_not_correct"] == {"before": 0, "after": 0}
    assert out["trials_per_s"] == {"before": {"median": 100.0},
                                   "after": {"median": 90.0},
                                   "after_better_in_pairs": "0/1"}
