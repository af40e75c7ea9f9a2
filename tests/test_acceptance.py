"""Release-gate criteria, one test per criterion.

Mirrors `treegrowth verify --suite full`.  Criterion 10 is asserted in its
analyzed shape: the decomposition certificate holds on every instance, but
the peeling-degeneracy clause is unattainable because the construction
realizes degeneracy above d on the larger instances, so the criterion
honestly reports FAIL and this suite pins down exactly that split.

Campaign output does not depend on the worker count (criterion 11), so the
campaign criteria run on two workers; the pinned detail lines of criteria
2, 3 and 4 were read at one worker.
"""

import runpy
import sys
from pathlib import Path

import pytest

from treegrowth import acceptance

PILOT_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pilot_grid_cover.py"


def _check(result, runtime_cap=None):
    assert result.passed, result.render()
    if runtime_cap is not None:
        assert result.seconds <= runtime_cap, result.render()


def test_criterion_1_process_law_equivalence():
    _check(acceptance.criterion_1(), runtime_cap=120.0)


def test_criterion_2_complete_graph_height_ratio():
    result = acceptance.criterion_2(workers=2)
    _check(result, runtime_cap=180.0)
    assert result.detail == (
        "mean height/ln n = n=256: 1.919, n=1024: 2.031, n=4096: 2.088;"
        " spread 0.169 (window [1.5, 3.5], spread <= 0.6)"
    )


def test_criterion_3_cover_time_bound():
    result = acceptance.criterion_3(workers=2)
    _check(result, runtime_cap=300.0)
    assert result.detail == (
        "exceedance vs allowance: complete(32,): 0.0000 vs 0.0625+3se;"
        " complete(256,): 0.0000 vs 0.0078+3se; grid(2, 7): 0.0000 vs 0.0312+3se;"
        " grid(3, 3): 0.0000 vs 0.0312+3se; grid(10, 1): 0.0000 vs 0.0020+3se;"
        " ladder_H(16, 4): 0.0000 vs 0.0312+3se"
    )


def test_criterion_4_hypercube_cover_time():
    result = acceptance.criterion_4(workers=2)
    _check(result)
    assert result.detail == (
        "d=8: p99=2.45 mean=1.81, d=10: p99=2.25 mean=1.76, d=12: p99=2.14 mean=1.71;"
        " p99 cap 14.05, mean max/min 1.055 (<= 1.25)"
    )


def test_criterion_5_grid_cover_time():
    _check(acceptance.criterion_5(workers=2))


def test_pilot_script_writes_criterion_5_shapes(tmp_path, monkeypatch):
    out = tmp_path / "p.csv"
    monkeypatch.setattr(sys, "argv", [str(PILOT_SCRIPT), "--trials", "20", "--out", str(out)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(PILOT_SCRIPT), run_name="__main__")
    assert exit_info.value.code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "d,k,n_vertices,trials,cover_mean,cover_p99,p99_over_k"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(2, 8), (3, 5), (4, 3), (6, 2)]
    assert all(r[3] == "20" for r in rows)


def test_criterion_6_walk_path_bounds():
    _check(acceptance.criterion_6(), runtime_cap=120.0)


def test_criterion_7_two_stage_bounds():
    _check(acceptance.criterion_7())


def test_criterion_8_erlang_bounds():
    _check(acceptance.criterion_8())


def test_criterion_9_lower_bound_heights():
    _check(acceptance.criterion_9(workers=2))


def test_criterion_10_certificate_shape():
    rows = acceptance.degenerate_certificate_rows()
    assert all(r["decomposition_valid"] for r in rows)
    assert all(r["width"] <= r["width_cap"] for r in rows)
    # The peeling number the construction actually realizes, frozen per
    # instance: within d only on the two smallest, so the criterion's
    # "degeneracy ordering reports <= d" clause cannot pass.
    measured = [(r["L"], r["d"], r["measured_degeneracy"]) for r in rows]
    assert measured == [
        (2, 1, 2), (4, 1, 2),
        (2, 2, 2), (4, 2, 4),
        (2, 3, 3), (4, 3, 4),
    ]
    result = acceptance.criterion_10()
    assert not result.passed
    assert "width <= 2d+1 on 6/6" in result.detail
    assert "degeneracy <= d on 2/6" in result.detail


def test_criterion_11_byte_identical_reruns():
    _check(acceptance.criterion_11())


def test_suite_composition():
    assert acceptance.QUICK_CRITERIA == (6, 8, 10, 11)
    assert acceptance.FULL_CRITERIA == tuple(range(1, 12))
    results = acceptance.run_suite("quick")
    assert [r.number for r in results] == [6, 8, 10, 11]
    assert [r.passed for r in results] == [True, True, False, True]
    assert [r.detail for r in results] == [
        "exact <= ceiling on 126 walk checks and 90 path checks"
        " (lengths 0..8, zero tolerance)",
        "12 grid points across 9 checks within bound+3sigma",
        "decomposition valid with width <= 2d+1 on 6/6;"
        " peeling degeneracy <= d on 2/6 (construction realizes degeneracy up to d+2)",
        "5 output files identical across a rerun and across worker counts 1 and 8",
    ]
    for r in results:
        line = r.render()
        assert line.startswith("[PASS]") or line.startswith("[FAIL]")
        assert f"criterion {r.number:2d}" in line
