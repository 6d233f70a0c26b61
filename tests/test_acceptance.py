"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line directly to the terminal (boxed
out of pytest's capture) so a full run yields a ten-line scorecard.
"""

import time

import numpy as np
import pytest

from hpnarm import (
    ArmParams,
    BinningSpec,
    SegmentConfig,
    arm_forward_kinematics,
    segment_transform,
)
from hpnarm.episode import NominalPlant, RewardSpec, run_episode
from hpnarm.evalrun import evaluate, sample_goals
from hpnarm.pretrain import (
    default_sample_budget,
    load_goal_bank,
    merge,
    pretrain,
    pretrain_shard,
)
from hpnarm.qtable import (
    FLAG_AUGMENTED,
    FLAG_TRAINED,
    ActionSpec,
    ChecksumError,
    HyperParams,
    QTable,
    augment,
    load,
    save,
)
from hpnarm.state import GoalPose, N_STATES

from oracles import (
    GRID_ACTIONS,
    GRID_GOAL,
    GRID_STATES,
    gridworld_step,
    gridworld_value_iteration,
    oracle_arm_pose,
    pack_bins_array,
    unpack_index_array,
)


def report(capsys, num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def hamming_neighbors(state, radius=1):
    """States reachable by moving exactly one base-4 digit up to `radius` steps."""
    digits = []
    rest = state
    for _ in range(10):
        digits.append(rest % 4)
        rest //= 4
    digits = digits[::-1]
    out = []
    for dim in range(10):
        for step in range(1, radius + 1):
            for delta in (step, -step):
                d = digits[dim] + delta
                if 0 <= d <= 3:
                    out.append(state + delta * 4 ** (9 - dim))
    return out


@pytest.fixture(scope="module")
def pretrained_setup():
    """Shared quota=10 pretraining run plus both-plant evaluations (criteria 6, 7)."""
    params, binning = ArmParams(), BinningSpec()
    hp, actions, rewards = HyperParams(), ActionSpec(), RewardSpec()
    t0 = time.perf_counter()
    table, summary = pretrain(
        params, hp, actions, rewards, binning, quota=10, seed=0
    )
    pretrain_time = time.perf_counter() - t0
    goals = sample_goals(params, 20, np.random.default_rng(np.random.SeedSequence((0, 4))))
    kwargs = dict(
        params=params, hp=hp, action_spec=actions, reward_spec=rewards,
        binning=binning, repetitions=3, max_steps=200, seed=0,
    )
    reports = {}
    for plant in ("nominal", "perturbed"):
        reports[plant, "pretrained"] = evaluate(
            table, goals, plant_kind=plant, label="pretrained", **kwargs
        )
        reports[plant, "zero-init"] = evaluate(
            None, goals, plant_kind=plant, **kwargs
        )
    return {"summary": summary, "pretrain_time": pretrain_time, "reports": reports}


def test_criterion_01_fk_oracle_equivalence(capsys):
    params = ArmParams()
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    max_pos = max_dir = 0.0
    for _ in range(1000):
        pressures = rng.uniform(0.0, params.p_max_kpa, 16)
        pose = arm_forward_kinematics(pressures, params)
        ref_rot, ref_pos = oracle_arm_pose(
            pressures, params.a_gain, params.b_gain, params.l0_mm
        )
        max_pos = max(max_pos, float(np.abs(pose[:3, 3] - ref_pos).max()))
        dot = np.clip(float(pose[:3, 2] @ ref_rot[:, 2]), -1.0, 1.0)
        max_dir = max(max_dir, float(np.arccos(dot)))
    elapsed = time.perf_counter() - t0
    ok = max_pos < 1e-3 and max_dir < 1e-6 and elapsed < 5.0
    report(capsys, 1, ok,
           "FK vs 10^4-point arc-integration oracle on 1000 vectors "
           f"(max pos err {max_pos:.2e} mm, max dir err {max_dir:.2e} rad, {elapsed:.1f}s)")


def test_criterion_02_limit_continuity(capsys):
    worst = 0.0
    for phi in (-2.5, -0.7, 0.0, 1.1, 3.0):
        near = segment_transform(SegmentConfig(k=1e-8, phi=phi, l=1.0))
        straight = segment_transform(SegmentConfig(k=0.0, phi=phi, l=1.0))
        worst = max(worst, float(np.abs(near - straight).max()))
    ok = worst < 1e-7
    report(capsys, 2, ok,
           f"segment transform at K=1e-8 vs straight branch (max entry diff {worst:.2e})")


def test_criterion_03_state_space_cardinality(capsys):
    t0 = time.perf_counter()
    indices = np.arange(N_STATES, dtype=np.int64)
    bins = unpack_index_array(indices)
    repacked = pack_bins_array(bins)
    distinct = int(np.unique(repacked).size)
    elapsed = time.perf_counter() - t0
    ok = (
        N_STATES == 1_048_576
        and distinct == 1_048_576
        and bool(np.array_equal(repacked, indices))
        and elapsed < 10.0
    )
    report(capsys, 3, ok,
           f"codec round-trips {distinct} distinct indices exhaustively ({elapsed:.1f}s)")


def test_criterion_04_q_learning_oracle(capsys):
    hp = HyperParams(alpha=0.5, gamma=0.5, epsilon=0.0)
    q = QTable(action_count=GRID_ACTIONS)
    t0 = time.perf_counter()
    updates = 0
    while updates < 100_000:
        for s in range(GRID_STATES):
            if s == GRID_GOAL:
                continue
            for a in range(GRID_ACTIONS):
                ns, r = gridworld_step(s, a)
                q.update(s, a, r, ns, hp)
                updates += 1
    v_ref = gridworld_value_iteration(hp.gamma).max(axis=1)
    v_q = np.array([q.max_value(s) for s in range(GRID_STATES)])
    diff = float(np.abs(v_q - v_ref).max())
    elapsed = time.perf_counter() - t0
    ok = diff < 1e-6 and elapsed < 30.0
    report(capsys, 4, ok,
           f"tabular updates vs value iteration on 5x5 gridworld "
           f"(max diff {diff:.2e} after {updates} updates, {elapsed:.1f}s)")


def test_criterion_05_parallel_determinism(capsys, tmp_path):
    """All reachable bins in one lockstep call vs one call per bin, merged."""
    params, binning = ArmParams(), BinningSpec()
    hp, actions, rewards = HyperParams(), ActionSpec(), RewardSpec()
    t0 = time.perf_counter()
    whole, per_bin, bank_path = tmp_path / "all.qt", tmp_path / "per_bin.qt", tmp_path / "bank"
    pretrain(
        params, hp, actions, rewards, binning,
        quota=5, seed=2025, out_path=whole, bank_path=bank_path,
    )
    bank = load_goal_bank(
        bank_path, seed=2025, quota=5, budget=default_sample_budget(5),
        params=params, binning=binning,
    )
    partials = [
        pretrain_shard((b,), 2025, bank, hp, params=params, action_spec=actions,
                       reward_spec=rewards, binning=binning)
        for b in bank.reachable_bins()
    ]
    save(augment(merge(partials), radius=1), per_bin)
    blobs = [whole.read_bytes(), per_bin.read_bytes()]
    elapsed = time.perf_counter() - t0
    ok = blobs[0] == blobs[1] and elapsed < 300.0
    report(capsys, 5, ok,
           f"quota=5 pretrain of {len(partials)} bins in one lockstep call vs one call "
           f"per bin, files byte-identical ({len(blobs[0])} bytes, {elapsed:.1f}s)")


def test_criterion_06_pretraining_benefit_nominal(capsys, pretrained_setup):
    reports = pretrained_setup["reports"]
    pre = reports["nominal", "pretrained"]
    base = reports["nominal", "zero-init"]
    n_pre = pre.goals_reaching(30.0)
    n_base = base.goals_reaching(30.0)
    m_pre = pre.median_final_pos_mm()
    m_base = base.median_final_pos_mm()
    wall = pretrained_setup["pretrain_time"]
    ok = n_pre >= 2 * n_base and m_pre <= 0.5 * m_base and wall < 600.0
    report(capsys, 6, ok,
           f"nominal plant: goals within 30mm {n_pre} vs {n_base} (need >=2x), "
           f"median final {m_pre:.1f} vs {m_base:.1f} mm (need <=50%; "
           f"start (hold) {pre.median_start_pos_mm():.1f} mm), "
           f"pretrain {wall:.0f}s of 600s")


def test_criterion_07_transfer_to_perturbed_plant(capsys, pretrained_setup):
    reports = pretrained_setup["reports"]
    m_pre = reports["perturbed", "pretrained"].median_final_pos_mm()
    m_base = reports["perturbed", "zero-init"].median_final_pos_mm()
    m_start = reports["perturbed", "pretrained"].median_start_pos_mm()
    ok = m_pre < m_base
    report(capsys, 7, ok,
           f"perturbed plant: median final {m_pre:.1f} mm (pretrained) "
           f"vs {m_base:.1f} mm (zero-init), start (hold) {m_start:.1f} mm")


def test_criterion_08_augmentation_contract(capsys):
    rng = np.random.default_rng(12)
    t0 = time.perf_counter()
    q = QTable()
    trained = {}
    while len(trained) < 40:
        s = int(rng.integers(N_STATES))
        a = int(rng.integers(2))
        trained[s, a] = float(rng.integers(-8, 9))  # dyadic values, exact means
    for (s, a), v in trained.items():
        q.set_entry(s, a, v, FLAG_TRAINED)
    aug = augment(q, radius=1)

    candidates = {
        (n, a)
        for (s, a) in trained
        for n in hamming_neighbors(s)
        if (n, a) not in trained
    }
    checked = mism = 0
    for (n, a) in candidates:
        values = [trained[m, a] for m in hamming_neighbors(n) if (m, a) in trained]
        assert values
        expected = np.float32(np.mean(values))
        flags = aug.flags(n)
        checked += 1
        if np.float32(aug.get(n, a)) != expected or not flags[a] & FLAG_AUGMENTED:
            mism += 1
    trained_intact = all(
        aug.get(s, a) == np.float32(v) and aug.flags(s)[a] == FLAG_TRAINED
        for (s, a), v in trained.items()
    )
    elapsed = time.perf_counter() - t0
    ok = mism == 0 and trained_intact and checked > 0 and elapsed < 1.0
    report(capsys, 8, ok,
           f"augmentation: {checked} neighbor means exact, {mism} mismatches, "
           f"trained entries intact: {trained_intact} ({elapsed:.2f}s)")


def test_criterion_09_episode_return_telescopes(capsys):
    params, binning = ArmParams(), BinningSpec()
    rewards = RewardSpec(goal_bonus=0.0)
    hp = HyperParams(alpha=0.2, gamma=0.9, epsilon=1.0)
    pose = arm_forward_kinematics(np.full(16, 20.0), params)
    goal = GoalPose(position=pose[:3, 3].copy(), direction=pose[:3, 2].copy())
    worst = 0.0
    for seed in range(5):
        log = run_episode(
            NominalPlant(params), goal, QTable(), hp,
            params=params, action_spec=ActionSpec(), reward_spec=rewards,
            binning=binning, max_steps=150, rng=np.random.default_rng(seed),
        )
        expected = (
            rewards.w_p_per_mm
            * (log.records[0].pos_error_mm - log.records[-1].pos_error_mm)
            + rewards.w_r_per_deg
            * (log.records[0].rot_error_deg - log.records[-1].rot_error_deg)
            - log.steps_taken * rewards.step_penalty
        )
        worst = max(worst, abs(sum(r.reward for r in log.records) - expected))
    ok = worst < 1e-9
    report(capsys, 9, ok,
           f"summed reward telescopes over 5 random episodes (max residual {worst:.1e})")


def test_criterion_10_persistence_round_trip(capsys, tmp_path):
    rng = np.random.default_rng(77)
    entries = {}  # (state, action) -> (value, flags); a repeated key keeps its last draw
    for _ in range(500):
        key = (int(rng.integers(N_STATES)), int(rng.integers(32)))
        entries[key] = (float(rng.normal()), int(rng.integers(1, 4)))
    states, actions = zip(*entries)
    values, flags = zip(*entries.values())
    q = QTable.from_records(states, actions, flags, values)
    path = tmp_path / "t.qt"
    save(q, path)
    round_trip = load(path) == q

    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    corrupt = tmp_path / "corrupt.qt"
    corrupt.write_bytes(bytes(raw))
    try:
        load(corrupt)
        rejected = False
    except ChecksumError:
        rejected = True
    ok = round_trip and rejected
    report(capsys, 10, ok,
           f"save/load bit-exact: {round_trip}; corrupted CRC raises ChecksumError: {rejected}")
