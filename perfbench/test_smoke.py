"""Tests of the benchmark harness. The runs use the tiny smoke plan and assert
no timing, only that the harness runs end to end and reports what it declares.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import spans

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = smoke_run(workload, 0)
    assert all(v > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_enters_the_layers_its_workload_names(workload):
    m = smoke_run(workload, 1)
    episodes = workload != "augment_sweep"
    assert (m["episode.run_episode.calls"] > 0) == episodes
    assert (m["state.encode_tip_index.calls"] > 0) == episodes
    assert (m["qtable.update.calls"] > 0) == (workload == "pretrain_default")
    assert (m["pretrain.build_goal_bank.calls"] > 0) == (workload == "pretrain_default")
    assert (m["evalrun.evaluate.calls"] > 0) == (workload == "eval_sweep")
    assert (m["qtable.load.calls"] > 0) == (workload != "pretrain_default")
    assert (m["qtable.save.calls"] > 0) == (workload != "eval_sweep")
    assert (m["qtable.augment.calls"] > 0) == (workload != "eval_sweep")


def test_entry_point_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_region_restores_bindings_and_separates_self_time():
    mods = layers.import_layers()
    owners = [m for n, m in sys.modules.items() if n.startswith("hpnarm")]
    owners += [mods["episode"].NominalPlant, mods["qtable"].QTable,
               mods["qtable"].ActionSpec, mods["state"].StateEncoder]
    before = [dict(vars(o)) for o in owners]
    cfg = mods["config"].RunConfig()
    episode = mods["episode"]
    tracer = spans.Tracer(mods)
    with tracer.active():
        log = episode.run_episode(
            episode.NominalPlant(cfg.arm), cfg.eval_goals()[0],
            mods["qtable"].QTable(), cfg.hyper,
            params=cfg.arm, action_spec=cfg.action, reward_spec=cfg.reward,
            binning=cfg.binning, max_steps=20, rng=np.random.default_rng(0),
        )
    assert [dict(vars(o)) for o in owners] == before

    stats = tracer.stats
    assert stats["episode.run_episode"][0] == 1
    assert stats["qtable.QTable.update"][0] == log.steps_taken == tracer.counts["episode.steps"]
    children = ("episode.NominalPlant.apply", "state.StateEncoder.encode_tip_index",
                "qtable.select_action", "qtable.ActionSpec.apply",
                "qtable.QTable.update", "episode.pose_errors")
    _, total, self_time = stats["episode.run_episode"]
    assert 0.0 < self_time <= total - sum(stats[n][1] for n in children)
    assert stats["kinematics.segment_transform"][0] > 0
