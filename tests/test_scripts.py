"""The experiment scripts run end to end on tiny arguments.

Each script runs in its own interpreter, the way a user starts it, so a
public name the scripts use and the package drops fails here.
"""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hpnarm.config import RunConfig
from hpnarm.evalrun import sample_goals
from hpnarm.pretrain import build_goal_bank, default_sample_budget
from hpnarm.state import StateEncoder, rest_tip_origin

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# numpy's RuntimeWarnings are errors in each script's interpreter too, as in pyproject.toml.
PYTHON = [sys.executable, "-W", "error::RuntimeWarning"]


def run_script(name, *args, cwd):
    proc = subprocess.run(
        [*PYTHON, str(SCRIPTS / name), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_compare_pretraining(tmp_path):
    lines = run_script(
        "compare_pretraining.py", "--quota", "1", "--goals", "2", "--budget", "20000",
        "--plant", "nominal", cwd=tmp_path,
    )
    assert any(re.fullmatch(r"reachable bins: [1-9]\d* of 1024", line) for line in lines), lines
    assert any(line.startswith("stage times: goal bank ") for line in lines), lines
    assert "goal bank samples: 20000" in lines, lines
    assert "controller: pretrained" in lines and "controller: zero-init" in lines
    assert any(
        re.fullmatch(r"\[nominal\] goals within 30 mm: pretrained \d+ vs zero-init \d+ .*", line)
        for line in lines
    ), lines
    assert any(
        re.fullmatch(r"\[nominal\] median final error ratio: \d+\.\d{3} .*", line)
        for line in lines
    ), lines
    assert any(
        re.fullmatch(r"\[nominal\] median final error: pretrained \d+\.\d mm, "
                     r"zero-init \d+\.\d mm, hold baseline \d+\.\d mm", line)
        for line in lines
    ), lines
    assert not any(line.startswith("[perturbed]") for line in lines)


def test_reachability_survey(tmp_path):
    lines = run_script(
        "reachability_survey.py", "--budget", "20000", "--quotas", "1,100000", "--seeds", "1",
        cwd=tmp_path,
    )
    assert lines[0] == "arm: a_gain=0.002, budget=20000, seeds=1"
    assert lines[1].split() == ["seed", "q>=1", "last@1", "q>=100000", "last@100000",
                                "top-10", "bin", "mass"]
    assert len(lines) == 3
    # Per quota: bins at quota, then the sample index of the last bin's q-th hit
    # ("-" when no bin gets there within the budget).
    fields = lines[2].split()
    assert fields[0] == "0" and fields[3:5] == ["0", "-"], lines
    assert 1 <= int(fields[1]) and 0 <= int(fields[2]) < 20000, lines
    assert re.fullmatch(r"\d+\.\d%", fields[5]) and re.fullmatch(r"\(\d+\.\ds\)", fields[6]), lines


def test_step_cost(tmp_path):
    lines = run_script(
        "step_cost.py", "--budget", "20000", "--rounds", "1", "--calls", "2",
        "--max-steps", "5", "--lanes", "1,2,5000", cwd=tmp_path,
    )
    header = re.fullmatch(r"seed 1: (\d+) reachable bins, 1 goals per bin, 2 calls per cell",
                          lines[0])
    assert header, lines
    # The bank pretrain(seed=1) draws: its stream, at the same budget and quota.
    cfg = RunConfig()
    rng = np.random.default_rng(np.random.SeedSequence((1, 1)))
    bank = build_goal_bank(cfg.arm, 1, 20000, rng, binning=cfg.binning)
    assert int(header.group(1)) == len(bank.bins) > 0, lines
    assert lines[1].startswith("lanes  train_lockstep"), lines
    for lanes, line in zip((1, 2), lines[2:4]):
        # Lanes, training quartiles, then per greedy plant (nominal, then
        # perturbed) its quartiles, its steps per call and the median µs of a
        # one-step call.
        fields = line.split()
        assert int(fields[0]) == lanes and len(fields) == 14, lines
        assert all(float(x) > 0.0 for x in fields[1:]), lines
        assert all(1 <= int(fields[i]) <= 5 for i in (7, 12)), lines
    assert re.fullmatch(r" *5000  skipped: the bank holds \d+ bins", lines[4]), lines
    # Last, a train_lockstep step at the widest lane count that ran, by stage.
    stages = re.fullmatch(r"train_lockstep stages at 2 lanes, us per step \(median of 2 calls\); "
                          r"the timing wrappers add overhead: (\d+\.\d) us per wrapped step "
                          r"against (\d+\.\d) unwrapped", lines[5])
    assert stages and all(float(x) > 0.0 for x in stages.groups()), lines
    labels = ["exploration draws", "lane step", "tip_of", "observe_batch", "rest of the call"]
    assert [line[:20].strip() for line in lines[6:11]] == labels, lines
    assert all(float(line[20:]) > 0.0 for line in lines[6:11]), lines
    # Then each plant's segment lattice: one transform per distinct bending-term
    # triple, 7,825 of 28,561 states on the nominal plant at the defaults.
    assert len(lines) == 13, lines
    for plant_kind, line in zip(("nominal", "perturbed"), lines[11:]):
        lattice = re.fullmatch(rf"segment lattice, {plant_kind} plant: 28561 states, "
                               r"(\d+) transforms, (\d+) bytes, build (\d+\.\d) ms "
                               r"\(median of 2 builds\)", line)
        assert lattice, lines
        transforms, held = int(lattice.group(1)), int(lattice.group(2))
        assert held == transforms * 16 * 8 + 28561 * (1 + 8) * 2, lines
        if plant_kind == "nominal":
            assert transforms == 7825, lines


def test_step_cost_says_when_no_lane_count_ran(tmp_path):
    lines = run_script(
        "step_cost.py", "--budget", "1000", "--rounds", "1", "--calls", "1",
        "--max-steps", "1", "--lanes", "5000", cwd=tmp_path,
    )
    assert re.fullmatch(r" *5000  skipped: the bank holds \d+ bins", lines[2]), lines
    assert lines[3:] == ["train_lockstep stages: skipped, no lane count ran"], lines


@pytest.mark.parametrize("flag", ["--budget", "--max-steps"])
def test_step_cost_refuses_a_zero_argument(tmp_path, flag):
    # --budget 0 once ran at the default budget; --max-steps 0 died in train_lockstep.
    proc = subprocess.run(
        [*PYTHON, str(SCRIPTS / "step_cost.py"), flag, "0", "--calls", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=600,
    )
    assert proc.returncode == 2, proc.stderr
    assert "--max-steps and --budget must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


# Per script: small counts that keep a run which is not refused short, and the error.
SMALL_COUNTS = {
    "reachability_survey.py": (["--budget", "1000", "--seeds", "1"],
                               "--budget, --seeds and every quota must be >= 1"),
    "compare_pretraining.py": (["--quota", "1", "--goals", "1", "--budget", "20000",
                                "--plant", "nominal"],
                               "--quota, --goals and --budget must be >= 1"),
}


@pytest.mark.parametrize("name, flag, value", [
    # --budget 0 printed nan% and exited 0; quotas 0 and -2 reported every bin
    # full; --seeds 0 printed a header and nothing else.
    ("reachability_survey.py", "--budget", "0"),
    ("reachability_survey.py", "--seeds", "0"),
    ("reachability_survey.py", "--quotas", "0"),
    ("reachability_survey.py", "--quotas", "1,-2"),
    # --goals 0 and --quota 0 each ran the pretrain and then died with a traceback.
    ("compare_pretraining.py", "--goals", "0"),
    ("compare_pretraining.py", "--quota", "0"),
    ("compare_pretraining.py", "--budget", "0"),
], ids=lambda v: v.removesuffix(".py"))
def test_scripts_refuse_counts_below_one(tmp_path, name, flag, value):
    small, message = SMALL_COUNTS[name]
    proc = subprocess.run([*PYTHON, str(SCRIPTS / name), *small, flag, value],
                          capture_output=True, text=True, cwd=tmp_path, timeout=600)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("name, flag, value, message", [
    # Each died with a ValueError traceback and exit 1.
    ("compare_pretraining.py", "--a-gain", "-1", "a_gain must be positive and finite"),
    ("compare_pretraining.py", "--epsilon", "2", "epsilon must be in [0, 1]"),
    ("reachability_survey.py", "--a-gain", "-1", "a_gain must be positive and finite"),
    ("reachability_survey.py", "--quotas", "1,,2", "--quotas must be comma-separated integers"),
    ("step_cost.py", "--lanes", "1,x", "--lanes must be comma-separated integers"),
    # Each ran to the end and counted no goal, exit 0.
    *[("compare_pretraining.py", "--threshold-mm", v, "--threshold-mm must be positive and finite")
      for v in ("nan", "inf", "0", "-1")],
], ids=["compare_pretraining-a-gain", "compare_pretraining-epsilon",
        "reachability_survey-a-gain", "reachability_survey-quotas", "step_cost-lanes",
        *[f"compare_pretraining-threshold-{v}" for v in ("nan", "inf", "0", "-1")]])
def test_scripts_refuse_bad_values(tmp_path, name, flag, value, message):
    proc = subprocess.run([*PYTHON, str(SCRIPTS / name), flag, value],
                          capture_output=True, text=True, cwd=tmp_path, timeout=600)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("name, small", [
    ("compare_pretraining.py", SMALL_COUNTS["compare_pretraining.py"][0]),
    ("bulk_cost.py", ["--calls", "1"]),
    ("step_cost.py", ["--calls", "1", "--budget", "1000"]),
], ids=["compare_pretraining", "bulk_cost", "step_cost"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_scripts_refuse_a_seed_out_of_range(tmp_path, name, small, seed):
    # --seed -1 died with a traceback: pretrain's ValueError in compare_pretraining
    # and bulk_cost, numpy's "expected non-negative integer" in step_cost.
    proc = subprocess.run([*PYTHON, str(SCRIPTS / name), *small, "--seed", seed],
                          capture_output=True, text=True, cwd=tmp_path, timeout=600)
    assert proc.returncode == 2, proc.stderr
    assert "--seed must be in [0, 2**64)" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_compare_pretraining_accepts_the_top_seed(tmp_path):
    # The range is pretrain()'s: the last u64 seeds the bank and the goals alike.
    lines = run_script("compare_pretraining.py", *SMALL_COUNTS["compare_pretraining.py"][0],
                       "--seed", str(2**64 - 1), cwd=tmp_path)
    assert "goal bank samples: 20000" in lines, lines
    assert any(line.startswith("[nominal] median final error ratio: ") for line in lines), lines


def test_bulk_cost(tmp_path):
    lines = run_script("bulk_cost.py", "--seed", "1", "--calls", "1", cwd=tmp_path)
    header = re.fullmatch(r"seed 1: default table of ([1-9]\d*) entries in [1-9]\d* goal bins, "
                          r"([1-9]\d*) bytes in memory, [1-9]\d* bytes on disk, "
                          r"1 calls per operation", lines[0])
    assert header, lines
    entries, nbytes = map(int, header.groups())
    assert nbytes == entries * (4 + 4 + 1), lines  # a uint32 key, a float32 value, a flag byte
    assert lines[1].split() == ["operation", "median", "ms", "minor", "faults", "traced",
                                "peak", "MiB", "B/entry"], lines
    names = ["load", "augment r1", "augment r2", "augment r3", "record_arrays", "save"]
    assert [line[:13].strip() for line in lines[2:8]] == names, lines
    for line in lines[2:8]:
        ms, faults, peak, per_entry = line[13:].split()
        # No fault count is promised: the allocator may reuse pages touched before.
        assert int(faults) >= 0, lines
        assert all(float(x) > 0.0 for x in (ms, peak, per_entry)), lines
    # bin_rows over the goal bins of the eval_sweep goal set for seed 1: the
    # default suite and 60 goals sampled from SeedSequence((1, 4)).
    cfg = RunConfig()
    goals = list(cfg.eval_goals())
    goals += sample_goals(cfg.arm, 60, np.random.default_rng(np.random.SeedSequence((1, 4))))
    bins = {StateEncoder(g, rest_tip_origin(cfg.arm.l0_mm), cfg.binning).goal_bin
            for g in goals}
    assert lines[8] == (f"eval_sweep goal set of 64 goals in {len(bins)} goal bins, "
                        f"{len(bins) * 1024 * 32 * 4} bytes of dense rows"), lines
    assert lines[9].split() == ["operation", "median", "ms", "minor", "faults", "traced",
                                "peak", "MiB"], lines
    name, ms, faults, peak = lines[10].split()
    assert name == "bin_rows" and int(faults) >= 0, lines
    # The dense rows are most of what a call allocates.
    assert float(ms) > 0.0 and float(peak) >= len(bins) * 0.125, lines
    # The goal bank pretrain(seed=1) builds: its stream, at the default quota and budget.
    budget = default_sample_budget(cfg.pretrain.quota)
    bank = build_goal_bank(cfg.arm, cfg.pretrain.quota, budget,
                           np.random.default_rng(np.random.SeedSequence((1, 1))),
                           binning=cfg.binning)
    assert lines[11] == (f"goal bank of quota {cfg.pretrain.quota} and budget {budget} samples: "
                         f"{len(bank.bins)} reachable bins"), lines
    assert lines[12].split() == ["operation", "median", "ms", "minor", "faults", "traced",
                                 "peak", "MiB", "exact", "FK", "rows"], lines
    name, ms, faults, peak, exact = lines[13].split()
    assert name == "build_goal_bank" and int(faults) >= 0, lines
    assert float(ms) > 0.0 and float(peak) > 0.0, lines
    # Every bank goal went through exact FK, and far fewer rows than were drawn.
    assert bank.goal_count() <= int(exact) < budget // 10, lines
    assert len(lines) == 14 and list(tmp_path.iterdir()) == []
