"""scripts/bench_pairs.py's summary of paired runs."""

import importlib.util
from pathlib import Path

import pytest

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
                                   "after_better_in_pairs": "0/1",
                                   "after_over_before": 0.9,
                                   "gain_rule_met": False}


def paired(before_rates, after_rates) -> dict:
    return {"before": [run(i, True, r, 2.0) for i, r in enumerate(before_rates, 1)],
            "after": [run(i, True, r, 2.0) for i, r in enumerate(after_rates, 1)]}


BETTER = {"trials_per_s": "higher", "wall_s": "lower"}
PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.5, 99.5, 101.5]


def test_summarize_gain_rule_met_on_a_clear_win():
    out = bench_pairs.summarize(paired(PARENT, [r * 1.3 for r in PARENT]), BETTER)
    rate = out["trials_per_s"]
    assert rate["after_better_in_pairs"] == "10/10"
    assert rate["after_over_before"] == pytest.approx(1.3)
    assert rate["gain_rule_met"] is True
    # Equal walls: no pair won, ratio 1.
    assert out["wall_s"]["after_over_before"] == 1.0
    assert out["wall_s"]["gain_rule_met"] is False


def test_summarize_gain_rule_not_met_beside_more_failures():
    runs = paired(PARENT, [r * 1.3 for r in PARENT])
    runs["after"][3]["failed"] = 1
    rate = bench_pairs.summarize(runs, BETTER)["trials_per_s"]
    assert rate["after_better_in_pairs"] == "10/10"
    assert rate["after_over_before"] == pytest.approx(1.3)
    assert rate["gain_rule_met"] is False


def test_summarize_gain_rule_not_met_on_eight_of_ten():
    after = [r * 1.3 for r in PARENT[:8]] + [r * 0.9 for r in PARENT[8:]]
    rate = bench_pairs.summarize(paired(PARENT, after), BETTER)["trials_per_s"]
    assert rate["after_better_in_pairs"] == "8/10"
    assert rate["after_over_before"] > 1.2
    assert rate["gain_rule_met"] is False


def test_summarize_gain_rule_not_met_inside_the_parent_iqr():
    # Ten wins of 1 % (medians 1.0 apart), while the parent's quartiles lie 2.9 apart.
    after = [r * 1.01 for r in PARENT]
    rate = bench_pairs.summarize(paired(PARENT, after), BETTER)["trials_per_s"]
    assert rate["after_better_in_pairs"] == "10/10"
    iqr = rate["before"]["q3"] - rate["before"]["q1"]
    assert 0 < rate["after"]["median"] - rate["before"]["median"] < iqr
    assert rate["gain_rule_met"] is False
