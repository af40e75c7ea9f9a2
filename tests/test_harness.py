"""Harness oracles: config validation, determinism, verdict rules, coupled events."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from treegrowth.counting import BoundRow
from treegrowth.families import FamilySpec
from treegrowth.growth import block_size, grow_fpp, sample_edge_weights
from treegrowth.harness import (
    RECORD_KEYS,
    ExperimentSpec,
    HarnessError,
    TrialRecord,
    check_upper_bounds,
    run_experiment,
    run_lower_bound_experiment,
    write_records_jsonl,
    write_summary_csv,
    write_verdicts_csv,
    _lower_bound_events,
    _make_context,
    _summarize_metric,
)
from treegrowth.randomness import stream_for


def _config(**overrides):
    doc = {
        "version": 1,
        "family": {"kind": "complete", "params": {"n": 4}},
        "s_policy": "first-vertex",
        "process": "fpp",
        "trials": 5,
        "master_seed": 7,
        "metrics": ["height", "cover_time"],
    }
    doc.update(overrides)
    return doc


# -- config ----------------------------------------------------------------------


def test_config_roundtrip_and_canonical_metric_order():
    spec = ExperimentSpec.from_json_dict(
        _config(metrics=["cover_time", "height"], workers=3, experiment_id=2)
    )
    assert spec.metrics == ("height", "cover_time")
    assert ExperimentSpec.from_json_dict(spec.to_json_dict()) == spec


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(HarnessError, match="unknown config keys"):
        ExperimentSpec.from_json_dict(_config(extra=1))
    doc = _config()
    del doc["trials"]
    with pytest.raises(HarnessError, match="missing config keys"):
        ExperimentSpec.from_json_dict(doc)
    with pytest.raises(HarnessError, match="version"):
        ExperimentSpec.from_json_dict(_config(version=2))


def test_config_rejects_bad_fields():
    with pytest.raises(HarnessError, match="process"):
        ExperimentSpec.from_json_dict(_config(process="quantum"))
    with pytest.raises(HarnessError, match="metrics"):
        ExperimentSpec.from_json_dict(_config(metrics=[]))
    with pytest.raises(HarnessError, match="metrics"):
        ExperimentSpec.from_json_dict(_config(metrics=["depth"]))
    with pytest.raises(HarnessError, match="s_policy"):
        ExperimentSpec.from_json_dict(_config(s_policy="middle"))
    with pytest.raises(HarnessError, match="explicit start"):
        ExperimentSpec.from_json_dict(_config(s_policy={"node": 3}))
    with pytest.raises(HarnessError, match="trials"):
        ExperimentSpec.from_json_dict(_config(trials=0))


def test_config_rejects_inconsistent_combinations():
    with pytest.raises(HarnessError, match="event_AB"):
        ExperimentSpec.from_json_dict(_config(metrics=["height", "event_AB"]))
    glued = {"kind": "glued_G", "params": {"L": 2, "delta": 1, "a": 8, "m": 2}}
    with pytest.raises(HarnessError, match="weight draw"):
        ExperimentSpec.from_json_dict(
            _config(family=glued, process="discrete",
                    metrics=["height", "event_AB"])
        )
    with pytest.raises(HarnessError, match="weight draw"):
        ExperimentSpec.from_json_dict(_config(process="discrete"))
    with pytest.raises(HarnessError, match="height metric"):
        ExperimentSpec.from_json_dict(_config(metrics=["cover_time", "bound_matrix"]))


def test_explicit_start_vertex_forms():
    spec = ExperimentSpec.from_json_dict(_config(s_policy={"vertex": 2}))
    assert spec.s_policy == 2
    assert spec.to_json_dict()["s_policy"] == {"vertex": 2}
    bad = ExperimentSpec.from_json_dict(_config(s_policy={"vertex": 99}))
    with pytest.raises(HarnessError, match="out of range"):
        run_experiment(bad)


# -- determinism ----------------------------------------------------------------


def test_run_experiment_is_deterministic():
    spec = ExperimentSpec.from_json_dict(_config(trials=10))
    records_a, _ = run_experiment(spec)
    records_b, _ = run_experiment(spec)
    assert records_a == records_b
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_records_jsonl(records_a, buf_a)
    write_records_jsonl(records_b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_worker_count_does_not_change_output():
    base = _config(
        family={"kind": "grid", "params": {"d": 2, "k": 2}},
        trials=9,
        process="both",
        metrics=["height", "cover_time"],
    )
    solo, _ = run_experiment(ExperimentSpec.from_json_dict(base))
    multi, _ = run_experiment(ExperimentSpec.from_json_dict(dict(base, workers=3)))
    assert solo == multi


def test_blocks_do_not_change_output():
    # K_64 has 2016 edges, so FPP trials run in blocks of a few; 19 trials
    # leave a partial block both alone and split across three workers.
    base = _config(
        family={"kind": "complete", "params": {"n": 64}},
        trials=19,
        metrics=["height", "cover_time", "hitting_times"],
    )
    spec = ExperimentSpec.from_json_dict(base)
    ctx = _make_context(spec, max_vertices=1 << 20)
    assert 1 < block_size(ctx.g) < 19 and 19 % block_size(ctx.g)
    solo, _ = run_experiment(spec)
    multi, _ = run_experiment(ExperimentSpec.from_json_dict(dict(base, workers=3)))
    assert solo == multi
    assert [r.trial for r in solo] == list(range(19))
    for r in (solo[0], solo[-1]):
        w = sample_edge_weights(ctx.g, stream_for(7, 0, r.trial, 0))
        res = grow_fpp(ctx.g, 0, w)
        assert r.height == res.height and r.cover_time == res.cover_time
        assert r.hitting_times == tuple(res.hitting.tolist())


def test_path_from_end_always_full_height():
    spec = ExperimentSpec.from_json_dict(
        _config(
            family={"kind": "grid", "params": {"d": 1, "k": 4}},
            process="discrete",
            metrics=["height"],
            trials=5,
        )
    )
    records, summary = run_experiment(spec)
    assert [r.height for r in records] == [4] * 5
    height_row = next(m for m in summary.metrics if m.metric == "height")
    assert height_row.mean == 4.0 and height_row.std == 0.0


def test_record_schema_is_fixed():
    spec = ExperimentSpec.from_json_dict(
        _config(trials=2, metrics=["height", "cover_time", "hitting_times"])
    )
    records, _ = run_experiment(spec)
    buf = io.StringIO()
    write_records_jsonl(records, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    doc = json.loads(lines[0])
    assert tuple(doc) == RECORD_KEYS
    assert doc["trial"] == 0 and doc["seed_path"] == [0, 0, 0]
    assert doc["hitting_times"][0] == 0.0
    assert doc["height_discrete"] is None


def test_both_process_records_two_heights():
    spec = ExperimentSpec.from_json_dict(
        _config(process="both", metrics=["height"], trials=4)
    )
    records, _ = run_experiment(spec)
    assert all(r.height is not None and r.height_discrete is not None for r in records)
    assert all(r.cover_time is None for r in records)


# -- summaries and verdicts --------------------------------------------------------


def test_metric_summary_nearest_rank_oracle():
    row = _summarize_metric("height", [float(v) for v in range(1, 11)])
    assert row.mean == 5.5
    assert row.std == pytest.approx(math.sqrt(8.25))
    assert (row.min, row.p50, row.p90, row.p99, row.max) == (1.0, 5.0, 9.0, 10.0, 10.0)


def _height_records(heights):
    return [
        TrialRecord(trial=i, seed_path=(0, i, 0), process="fpp", height=h)
        for i, h in enumerate(heights)
    ]


def test_check_upper_bounds_rules():
    rows = [
        BoundRow("height_max_degree", "height", 5, 0.05, True, "f"),
        BoundRow("height_genus", "height", 0, 1.0, False, "g"),
    ]
    bad = check_upper_bounds(_height_records([5] * 40), rows)
    assert len(bad) == 1  # inapplicable rows are skipped
    assert bad[0].check_id == "height_max_degree"
    assert bad[0].empirical == 1.0 and not bad[0].passed
    good = check_upper_bounds(_height_records([4] * 40), rows)
    assert good[0].empirical == 0.0 and good[0].passed
    noisy = check_upper_bounds(_height_records([5] * 2 + [4] * 38), rows)
    assert noisy[0].passed  # 0.05 within 0.05 + 3*stderr


def test_bound_matrix_verdicts_on_small_grid():
    spec = ExperimentSpec.from_json_dict(
        _config(
            family={"kind": "grid", "params": {"d": 2, "k": 2}},
            trials=300,
            metrics=["height", "cover_time", "bound_matrix"],
        )
    )
    _, summary = run_experiment(spec)
    ids = {v.check_id for v in summary.verdicts}
    assert "cover_log_diameter" in ids and "height_expansion" in ids
    assert summary.passed
    buf = io.StringIO()
    write_verdicts_csv(summary.verdicts, buf)
    header = buf.getvalue().splitlines()[0]
    assert header == "check_id,bound_ref,threshold,empirical,pass"


def test_summary_csv_layout():
    spec = ExperimentSpec.from_json_dict(_config(trials=3))
    _, summary = run_experiment(spec)
    buf = io.StringIO()
    write_summary_csv(summary, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "metric,mean,std,min,p50,p90,p99,max"
    assert lines[1].startswith("height,")
    assert any(line.startswith("cover_time,") for line in lines)


# -- lower-bound events ------------------------------------------------------------


GLUED_TINY = {"kind": "glued_G", "params": {"L": 2, "delta": 1, "a": 8, "m": 2}}


def test_lower_bound_events_hand_weights():
    spec = ExperimentSpec.from_json_dict(
        _config(family=GLUED_TINY, metrics=["height", "event_AB"], trials=1)
    )
    ctx = _make_context(spec, max_vertices=1 << 20)
    theta = ctx.meta.transit_threshold
    assert theta == pytest.approx(32 / math.e**2)
    # canonical edge order: (0,1) chain, then (0,3),(1,4),(2,3),(2,4) tree edges
    weights = np.array([0.5, 2.0, 2.0, 2.0, 2.0])
    events = _lower_bound_events(ctx, weights, height=2)
    assert events == (True, True, True, True)
    slow_chain = np.array([theta + 1.0, 2.0, 2.0, 2.0, 2.0])
    events = _lower_bound_events(ctx, slow_chain, height=2)
    assert events[0] is False
    fast_tree = np.array([0.5, 0.1, 0.1, 0.1, 0.1])
    events = _lower_bound_events(ctx, fast_tree, height=2)
    assert events[1] is False


def test_lower_bound_events_violation_raises():
    spec = ExperimentSpec.from_json_dict(
        _config(family=GLUED_TINY, metrics=["height", "event_AB"], trials=1)
    )
    ctx = _make_context(spec, max_vertices=1 << 20)
    ctx.meta = dataclasses.replace(ctx.meta, height_target=10**6)
    weights = np.array([0.5, 2.0, 2.0, 2.0, 2.0])
    with pytest.raises(RuntimeError, match="implication violated"):
        _lower_bound_events(ctx, weights, height=2)


def test_lower_bound_experiment_records_events():
    spec = ExperimentSpec.from_json_dict(
        _config(
            family={"kind": "glued_G", "params": {"L": 4, "delta": 2, "a": 8, "m": 4}},
            metrics=["height"],
            trials=200,
        )
    )
    records, summary = run_lower_bound_experiment(spec)
    assert all(r.implication_ok for r in records)
    assert all(r.event_chain_fast is not None for r in records)
    freqs = summary.event_freqs
    assert set(freqs) == {
        "chain_fast", "tree_slow", "both_events", "height_target_met",
        "implication_ok",
    }
    assert freqs["implication_ok"] == 1.0
    assert 0.0 <= freqs["both_events"] <= min(freqs["chain_fast"], freqs["tree_slow"])


def test_lower_bound_experiment_rejects_other_families():
    spec = ExperimentSpec.from_json_dict(_config())
    with pytest.raises(HarnessError, match="lower-bound"):
        run_lower_bound_experiment(spec)


def test_tree_slow_frequency_grows_with_subdivision():
    freqs = []
    for m in (2, 8):
        spec = ExperimentSpec.from_json_dict(
            _config(
                family={
                    "kind": "glued_G",
                    "params": {"L": 4, "delta": 2, "a": 8, "m": m},
                },
                metrics=["height", "event_AB"],
                trials=400,
                master_seed=11,
            )
        )
        _, summary = run_experiment(spec)
        freqs.append(summary.event_freqs["tree_slow"])
    assert freqs[1] > freqs[0]
