"""CLI behavior: emission formats, exit codes, env defaults, override flags."""

import json
import shutil
import subprocess

import pytest

from treegrowth import acceptance
from treegrowth.cli import main
from treegrowth.graphs import Graph
from treegrowth.harness import OUTPUT_FILES


def _expt_config(tmp_path, **overrides):
    doc = {
        "version": 1,
        "family": {"kind": "grid", "params": {"d": 2, "k": 3}},
        "s_policy": "first-vertex",
        "process": "fpp",
        "trials": 12,
        "master_seed": 7,
        "metrics": ["height", "cover_time"],
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_gen_cube_to_stdout(capsys):
    assert main(["gen", "--family", "grid", "--d", "3", "--k", "1"]) == 0
    text = capsys.readouterr().out
    g = Graph.from_text(text)
    assert g.n == 8 and g.m == 12


def test_gen_writes_files(tmp_path, capsys):
    code = main(
        ["gen", "--family", "complete", "--n", "5", "--out", str(tmp_path / "k5")]
    )
    assert code == 0
    g = Graph.from_text((tmp_path / "k5" / "graph.txt").read_text())
    assert g.n == 5 and g.m == 10
    meta = json.loads((tmp_path / "k5" / "meta.json").read_text())
    assert meta["kind"] == "complete"
    assert meta["declared_max_degree"] == 4


def test_gen_respects_env_outdir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TREEGROWTH_OUTDIR", str(tmp_path / "envout"))
    assert main(["gen", "--family", "complete", "--n", "3"]) == 0
    assert (tmp_path / "envout" / "graph.txt").exists()


def test_gen_plan_does_not_build(capsys):
    code = main(
        ["gen", "--family", "planar_lower_G", "--max-degree", "8",
         "--diameter", "5000000", "--plan"]
    )
    assert code == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["n_vertices"] > 1 << 20  # far past the build budget, plan is fine


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["gen", "--family", "glued_G", "--L", "3", "--delta", "1", "--a", "8"]) == 2
    assert main(["expt", "--config", "/nonexistent/config.json"]) == 2
    assert main(["gen", "--family", "grid", "--d", "9", "--k", "9"]) == 2  # budget
    # (k+1)**d past 2**63 vertices, and past Python's int-to-str digit limit
    for plan in ([], ["--plan"]):
        assert main(["gen", "--family", "grid", "--d", "20000", "--k", "1", *plan]) == 2
    for s in ("-1", "99"):  # the start vertex must lie in [0, n)
        assert main(["grow", "--family", "complete", "--n", "4", "--s", s]) == 2
    for command, seed in (("grow", "-1"), ("fpp", "-1"), ("fpp", str(2**64))):
        # the master seed must lie in [0, 2**64)
        assert main([command, "--family", "complete", "--n", "4", "--seed", seed]) == 2
    assert main(["count", "--family", "grid", "--d", "2", "--k", "1",
                 "--max-length", "-1"]) == 2
    capsys.readouterr()
    assert main(["count", "--family", "complete", "--n", "4",
                 "--max-length", "100000", "--budget", "10"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200, err[:200]
    assert main(["gen", "--family", "complete", "--n", "4", "--L", "7"]) == 2
    assert main(["gen", "--family", "glued_G", "--L", "4", "--delta", "1", "--a", "inf"]) == 2
    out = tmp_path / "out"
    for key, value in (
        ("master_seed", "7"),
        ("trials", True),
        ("version", True),
        ("family", 5),
        ("family", {"kind": "complete", "params": {"n": 4.5}}),
    ):
        config = _expt_config(tmp_path, **{key: value})
        assert main(["expt", "--config", str(config), "--out", str(out)]) == 2
    # event_AB from a chain vertex outside the first group
    config = _expt_config(
        tmp_path,
        family={"kind": "degenerate_lower_G",
                "params": {"L": 8, "delta": 2, "d": 1, "a": 8, "m": 3}},
        s_policy={"vertex": 12}, trials=60, master_seed=5, experiment_id=8,
        metrics=["height", "event_AB"],
    )
    assert main(["expt", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()


def test_grow_and_fpp_json(capsys):
    assert main(["grow", "--family", "grid", "--d", "1", "--k", "4", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["process"] == "discrete" and doc["height"] == 4
    assert main(["fpp", "--family", "complete", "--n", "4", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hitting_times"][0] == 0.0
    assert doc["cover_time"] == max(doc["hitting_times"])
    assert len(doc["hitting_times"]) == 4


# Captured before grow and fpp ran through the campaign's block code.
GOLDEN_TRIALS = {
    ("fpp", "--family", "grid", "--d", "2", "--k", "1", "--seed", "3"):
        '{"family": "grid", "n": 4, "s": 0, "master_seed": 3, "process": "fpp",'
        ' "height": 2, "cover_time": 0.8525767143477767,'
        ' "longest_weighted_path_edges": 2, "hitting_times": [0.0,'
        ' 0.037616660552780866, 0.005127451631514634, 0.8525767143477767]}\n',
    ("grow", "--family", "complete", "--n", "64", "--seed", "5"):
        '{"family": "complete", "n": 64, "s": 0, "master_seed": 5,'
        ' "process": "discrete", "height": 8}\n',
}


@pytest.mark.parametrize("argv", list(GOLDEN_TRIALS), ids=lambda argv: argv[0])
def test_single_trial_stdout_is_pinned(argv, capsys):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == GOLDEN_TRIALS[argv]


def test_verify_rejects_workers_below_one(monkeypatch, capsys):
    def never(workers):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(acceptance, "_CRITERIA", dict.fromkeys(acceptance._CRITERIA, never))
    for workers in ("0", "-3"):
        assert main(["verify", "--suite", "quick", "--workers", workers]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err


def test_fpp_seed_reproducible(capsys):
    argv = ["fpp", "--family", "complete", "--n", "6", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_count_csv(capsys):
    code = main(["count", "--family", "grid", "--d", "2", "--k", "1", "--max-length", "4"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "graph,s,length,exact,bound_kind,bound_value,pass"
    assert all(line.endswith(",true") for line in lines[1:])


def test_expt_runs_twice_byte_identical(tmp_path, capsys):
    config = _expt_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["expt", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["expt", "--config", str(config), "--out", str(out_b),
                 "--workers", "4"]) == 0
    assert sorted(p.name for p in out_a.iterdir()) == sorted(OUTPUT_FILES)
    for name in OUTPUT_FILES:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    records = (out_a / "records.jsonl").read_text().splitlines()
    assert len(records) == 12


def test_expt_flag_overrides(tmp_path, capsys):
    config = _expt_config(tmp_path)
    out = tmp_path / "short"
    assert main(["expt", "--config", str(config), "--out", str(out),
                 "--trials", "3", "--seed", "9"]) == 0
    records = [json.loads(line) for line in
               (out / "records.jsonl").read_text().splitlines()]
    assert len(records) == 3
    spec = json.loads((out / "spec.json").read_text())
    assert spec["master_seed"] == 9 and spec["trials"] == 3
    assert "workers" not in spec


def test_console_script_installed():
    exe = shutil.which("treegrowth")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = subprocess.run(
        [exe, "gen", "--family", "complete", "--n", "4"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.startswith("4 6\n")
