"""Harness oracles: config validation, determinism, verdict rules, coupled events."""

import dataclasses
import io
import json
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import treegrowth
from treegrowth import families, harness
from treegrowth.counting import BoundRow
from treegrowth.families import FamilySpec
from treegrowth.growth import block_size, grow_fpp_block, sample_edge_weights
from treegrowth.harness import (
    RECORD_KEYS,
    ExperimentSpec,
    HarnessError,
    TrialRecord,
    check_upper_bounds,
    run_experiment,
    write_records_jsonl,
    write_summary_csv,
    write_verdicts_csv,
    _lower_bound_events,
    _make_context,
    _min_leaf_pair_distance,
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
    for version in (2, True, 1.0, "1"):
        with pytest.raises(HarnessError, match="version"):
            ExperimentSpec.from_json_dict(_config(version=version))


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


@pytest.mark.parametrize(
    "key, value",
    [
        ("master_seed", "7"),
        ("master_seed", None),
        ("master_seed", 7.0),
        ("trials", 2.5),
        ("trials", True),
        ("workers", 1.5),
        ("workers", False),
        ("experiment_id", "x"),
    ],
)
def test_config_rejects_mistyped_integers(key, value):
    with pytest.raises(HarnessError, match=f"{key} must be an integer"):
        ExperimentSpec.from_json_dict(_config(**{key: value}))


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


def test_explicit_start_forms():
    spec = ExperimentSpec.from_json_dict(_config(s_policy={"vertex": 2}))
    assert spec.s_policy == 2
    assert spec.to_json_dict()["s_policy"] == {"vertex": 2}
    bad = ExperimentSpec.from_json_dict(_config(s_policy={"vertex": 99}))
    with pytest.raises(HarnessError, match="out of range"):
        run_experiment(bad)
    with pytest.raises(HarnessError, match=">= 0"):
        ExperimentSpec.from_json_dict(_config(s_policy={"vertex": -1}))


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


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a monkeypatched build_family reaches pool workers only under fork",
)
def test_workers_reuse_the_parents_graph(tmp_path, monkeypatch):
    parent = os.getpid()
    real_build = harness.build_family

    def build_family(*args, **kwargs):
        # A marker, not an exception: a failing pool initializer is respawned
        # forever.
        if os.getpid() != parent:
            (tmp_path / f"built-in-{os.getpid()}").touch()
        return real_build(*args, **kwargs)

    monkeypatch.setattr(harness, "build_family", build_family)
    spec = ExperimentSpec.from_json_dict(_config(trials=8, workers=2))
    records, _ = run_experiment(spec)
    assert [r.trial for r in records] == list(range(8))
    assert list(tmp_path.iterdir()) == []


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
        alone = grow_fpp_block(ctx.g, 0, w[None, :])
        assert r.height == alone.height[0] and r.cover_time == alone.cover_time[0]
        assert r.longest_weighted_path_edges == alone.longest_weighted_path_edges[0]
        assert r.hitting_times == tuple(alone.dist[0].tolist())


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
        BoundRow("height_max_degree", "height", 5, 0.05, "f"),
        BoundRow("cover_log_diameter", "cover_time", 1.0, 0.05, "g"),
    ]
    bad = check_upper_bounds(_height_records([5] * 40), rows)
    assert len(bad) == 1  # no cover times recorded, so no cover verdict
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


def _masked_csr(g, weights, keep):
    """Weighted CSR of g holding only the edges where keep is True."""
    half = keep[g.adj_edge_ids]
    indptr = np.concatenate([[0], np.cumsum(half)])[g.adj_indptr]
    data = weights[g.adj_edge_ids][half]
    return csr_matrix((data, g.adj_indices[half], indptr), shape=(g.n, g.n))


def events_oracle(ctx, weights, height):
    """One trial's events by two scipy Dijkstras on masked copies of g.

    Returns the events (chain_fast, tree_slow, height_target_met,
    implication_ok) and the distances they test: from s to the target
    inside the chain H, and the least one between two leaves inside the
    tree I.
    """
    meta, g = ctx.meta, ctx.g
    theta = meta.transit_threshold
    h_mask = families.h_edge_mask(g, meta)
    leaves = np.asarray(meta.leaf_vertices)
    dist = dijkstra(_masked_csr(g, weights, h_mask), directed=False, indices=[ctx.s])
    chain = float(dist[0, meta.target_vertex])
    chain_fast = chain <= theta
    pair = dijkstra(_masked_csr(g, weights, ~h_mask), directed=False,
                    indices=leaves)[:, leaves]
    np.fill_diagonal(pair, np.inf)
    least = float(pair.min())
    tree_slow = least > theta
    target_met = bool(height >= meta.height_target)
    implication_ok = (not (chain_fast and tree_slow)) or target_met
    return (chain_fast, tree_slow, target_met, implication_ok), (chain, least)


def _event_context(family):
    spec = ExperimentSpec.from_json_dict(
        _config(family=family, metrics=["height", "event_AB"])
    )
    return _make_context(spec, max_vertices=1 << 20)


def test_lower_bound_events_hand_weights():
    ctx = _event_context(GLUED_TINY)
    theta = ctx.meta.transit_threshold
    assert theta == pytest.approx(32 / math.e**2)
    # canonical edge order: (0,1) chain, then (0,3),(1,4),(2,3),(2,4) tree edges
    weights = np.array([
        [0.5, 2.0, 2.0, 2.0, 2.0],
        [theta + 1.0, 2.0, 2.0, 2.0, 2.0],  # slow chain
        [0.5, 0.1, 0.1, 0.1, 0.1],  # fast tree
    ])
    events = _lower_bound_events(ctx, weights, [2, 2, 2])
    assert events.tolist() == [
        [True, True, True, True],
        [False, True, True, True],
        [True, False, True, True],
    ]
    assert _min_leaf_pair_distance(ctx, weights).tolist() == [8.0, 8.0, pytest.approx(0.4)]


def test_lower_bound_events_violation_raises():
    ctx = _event_context(GLUED_TINY)
    ctx.meta = dataclasses.replace(ctx.meta, height_target=10**6)
    weights = np.array([[0.5, 2.0, 2.0, 2.0, 2.0]])
    with pytest.raises(RuntimeError, match="implication violated") as info:
        _lower_bound_events(ctx, weights, [2])
    assert str(info.value).endswith("held but height 2 < target 1000000")


@pytest.mark.parametrize("process", ["fpp", "discrete", "both"])
def test_height_below_eccentricity_raises(process):
    spec = ExperimentSpec(family=FamilySpec("grid", {"d": 2, "k": 2}), process=process,
                          metrics=("cover_time",) if process != "discrete" else ("height",))
    ctx = _make_context(spec, max_vertices=1 << 20)
    ctx.ecc_s = 10**6  # no spanning tree of 9 vertices is that tall
    with pytest.raises(RuntimeError, match=r"height \d+ below start eccentricity 1000000"):
        harness._run_block(ctx, range(3))


def test_chain_graph_edges_are_the_masked_edges():
    ctx = _event_context({"kind": "planar_lower_G",
                          "params": {"L": 8, "delta": 3, "a": 8, "m": 2}})
    assert ctx.chain.n == ctx.meta.chain_vertex_count
    assert np.array_equal(ctx.chain.edges, ctx.g.edges[ctx.h_mask])


@st.composite
def lower_bound_families(draw):
    kind = draw(st.sampled_from(harness.LOWER_BOUND_KINDS))
    params = {
        "L": draw(st.sampled_from([2, 4, 8, 32])),
        "delta": draw(st.integers(1, 3)),
        "a": 8.0,
        "m": draw(st.integers(1, 4)),
    }
    if kind == "degenerate_lower_G":
        params["d"] = draw(st.integers(1, params["delta"]))
    return {"kind": kind, "params": params}


@given(lower_bound_families(), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_lower_bound_events_match_oracle(family, b, seed):
    ctx = _event_context(family)
    g, h_mask, theta = ctx.g, ctx.h_mask, ctx.meta.transit_threshold

    def draw(rows, channel):
        return np.stack([
            sample_edge_weights(g, stream_for(seed, channel, i)) for i in range(rows)
        ])

    # Scale the chain's and the tree's weights so that each event holds on
    # about half of the draws: theta sits at the median of 16 pilot draws.
    pilot = np.array([events_oracle(ctx, w, 0)[1] for w in draw(16, 0)])
    chain_scale, tree_scale = theta / np.median(pilot, axis=0)
    weights = draw(b, 1) * np.where(h_mask, chain_scale, tree_scale)
    heights = grow_fpp_block(g, ctx.s, weights).height.tolist()
    expect = [events_oracle(ctx, w, h) for w, h in zip(weights, heights)]
    events = _lower_bound_events(ctx, weights, heights)
    assert events.tolist() == [list(e[0]) for e in expect]
    np.testing.assert_allclose(
        _min_leaf_pair_distance(ctx, weights), [e[1][1] for e in expect], rtol=1e-12
    )


def test_start_outside_chain_never_chain_fast():
    # s = 12 is a subdivision vertex of the tree I, so it cannot reach the
    # target inside the chain H.
    family = {"kind": "glued_G", "params": {"L": 4, "delta": 2, "a": 8, "m": 4}}
    spec = ExperimentSpec.from_json_dict(
        _config(family=family, s_policy={"vertex": 12},
                metrics=["height", "event_AB"], trials=100)
    )
    records, summary = run_experiment(spec)
    ctx = _make_context(spec, max_vertices=1 << 20)
    assert ctx.s >= ctx.meta.chain_vertex_count
    assert summary.event_freqs["chain_fast"] == 0.0
    assert summary.event_freqs["tree_slow"] == 0.87
    for r in records:
        w = sample_edge_weights(ctx.g, stream_for(7, 0, r.trial, 0))
        expect = events_oracle(ctx, w, r.height)[0]
        assert (r.event_chain_fast, r.event_tree_slow, r.height_target_met,
                r.implication_ok) == expect


def test_event_ab_rejects_start_elsewhere_in_chain():
    # s = 12 is the glued vertex of group 4 (of groups 0..7) in H; the
    # campaign used to die mid-run with "held but height 11 < target 14".
    family = {"kind": "degenerate_lower_G",
              "params": {"L": 8, "delta": 2, "d": 1, "a": 8, "m": 3}}
    spec = ExperimentSpec.from_json_dict(
        _config(family=family, s_policy={"vertex": 12}, metrics=["height", "event_AB"],
                trials=60, master_seed=5, experiment_id=8)
    )
    with pytest.raises(HarnessError, match="first group"):
        run_experiment(spec)


def test_lower_bound_experiment_records_events():
    spec = ExperimentSpec.from_json_dict(
        _config(
            family={"kind": "glued_G", "params": {"L": 4, "delta": 2, "a": 8, "m": 4}},
            metrics=["height", "event_AB"],
            trials=200,
        )
    )
    records, summary = run_experiment(spec)
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
    with pytest.raises(HarnessError, match="only defined for the lower-bound families"):
        ExperimentSpec(
            family=FamilySpec("complete", {"n": 4}), metrics=("height", "event_AB")
        )


def test_lower_bound_experiment_rejects_discrete_process():
    with pytest.raises(HarnessError, match="event_AB needs the weight draw"):
        ExperimentSpec(
            family=FamilySpec.from_json_dict(GLUED_TINY),
            process="discrete",
            metrics=("height", "event_AB"),
        )


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


# -- exports -----------------------------------------------------------------------


def test_every_exported_name_resolves():
    for module in (treegrowth, harness, families):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
        assert len(set(module.__all__)) == len(module.__all__)
    # What the package re-exports from a module, that module exports too.
    for module in (harness, families):
        defined_here = {
            name for name in treegrowth.__all__
            if getattr(getattr(treegrowth, name), "__module__", None) == module.__name__
        }
        assert defined_here and defined_here <= set(module.__all__)
