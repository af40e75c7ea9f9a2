"""Campaign output pinned byte for byte.

Each campaign below is written with ``write_outputs`` and the sha256 of its
``OUTPUT_FILES``, read in that order, is compared with a digest captured
from the harness as it stood before its records were built from column
tables.  Together the campaigns cover every process, every metric, a start
on the glued tree I and a pool run, so a change in how the harness stores,
summarizes or serializes trials cannot alter a single output byte unseen.
"""

import hashlib

import pytest

from treegrowth.families import E2
from treegrowth.harness import OUTPUT_FILES, ExperimentSpec, run_experiment, write_outputs


def _spec(family, process, metrics, trials, s_policy="first-vertex", workers=1, eid=0):
    return {
        "version": 1,
        "family": family,
        "s_policy": s_policy,
        "process": process,
        "trials": trials,
        "master_seed": 13,
        "metrics": list(metrics),
        "workers": workers,
        "experiment_id": eid,
    }


_GLUED_SMALL = {"kind": "glued_G", "params": {"L": 4, "delta": 2, "a": 8, "m": 4}}
_GLUED_TREE_START = {"kind": "glued_G", "params": {"L": 8, "delta": 4, "a": 2 * E2}}

CAMPAIGNS = {
    "discrete_complete16": _spec(
        {"kind": "complete", "params": {"n": 16}}, "discrete", ["height"], 200, eid=1),
    "fpp_grid_bound_matrix": _spec(
        {"kind": "grid", "params": {"d": 2, "k": 4}}, "fpp",
        ["height", "cover_time", "bound_matrix"], 200, eid=2),
    "fpp_cube_hitting_times": _spec(
        {"kind": "grid", "params": {"d": 4, "k": 1}}, "fpp",
        ["height", "cover_time", "hitting_times"], 60, eid=3),
    "both_ladder_bound_matrix": _spec(
        {"kind": "ladder_H", "params": {"L": 8, "delta": 3}}, "both",
        ["height", "cover_time", "bound_matrix"], 120, eid=4),
    "fpp_glued_event_ab": _spec(_GLUED_SMALL, "fpp", ["height", "event_AB"], 150, eid=5),
    "both_glued_event_ab_tree_start": _spec(
        _GLUED_TREE_START, "both", ["height", "event_AB"], 40, s_policy={"vertex": 40},
        eid=6),
    "fpp_planar_heightless": _spec(
        {"kind": "planar_lower_G", "params": {"L": 4, "delta": 2, "a": 8, "m": 3}}, "fpp",
        ["cover_time", "event_AB"], 80, eid=7),
    "both_complete8_heightless": _spec(
        {"kind": "complete", "params": {"n": 8}}, "both",
        ["cover_time", "hitting_times"], 50, eid=8),
    "both_complete64_two_workers": _spec(
        {"kind": "complete", "params": {"n": 64}}, "both",
        ["height", "cover_time", "bound_matrix"], 19, workers=2, eid=9),
}

DIGESTS = {
    "discrete_complete16": "65b3f553448f187d2f1bfa3887c7d134e79c6f3194cf60f44b974805ffd2370f",
    "fpp_grid_bound_matrix": "47ddef0bb853df9c182fe9310a1f80c98843c203bd8b1ee0374fd71df2da5179",
    "fpp_cube_hitting_times": "e1a6d82b55a0c32caba791c02ccaddb573d9e677a337383dd882c644ec298cb1",
    "both_ladder_bound_matrix": "a7a2c739617e1c09bc2a14bc3440debda09aa143423be970ca64e761447ecb69",
    "fpp_glued_event_ab": "3d086f89df9c752b6cd31df245125696d6eb82a7f3eff2749b635615ded2f3a7",
    "both_glued_event_ab_tree_start": "8d2985322b45f32e944cd521121e8b51520118a781cb31f4ca3c9b93c37ca604",
    "fpp_planar_heightless": "5d9f31d55e64f0eda85acf5e166e02c35e1939e4282ee76a0335e7c79d0842a3",
    "both_complete8_heightless": "a2688b5e08c597cfa8f96cb1900674383733c57da6d00242ff439fb498c4bd0a",
    "both_complete64_two_workers": "94570d0c5f63842429d9acbdab8c8fb52ad7bbcc244337a0e30bcccba5ebb8d9",
}


def campaign_digest(doc, outdir) -> str:
    spec = ExperimentSpec.from_json_dict(doc)
    records, summary = run_experiment(spec)
    write_outputs(outdir, spec, records, summary)
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        h.update(name.encode() + b"\0" + (outdir / name).read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_output_is_pinned(name, tmp_path):
    assert campaign_digest(CAMPAIGNS[name], tmp_path) == DIGESTS[name]
