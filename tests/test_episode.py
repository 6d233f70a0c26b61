import math

import numpy as np
import pytest

from hpnarm import ArmParams, BinningSpec, GoalPose, arm_forward_kinematics, episode
from hpnarm.episode import (
    LATTICE_MAX_PRESSURES,
    NominalPlant,
    PerturbedPlant,
    PerturbedPlantConfig,
    RewardSpec,
    _Lanes,
    _segment_lattice,
    compute_reward,
    exploration_draws,
    noise_generator,
    observe_batch,
    pose_errors,
    pressure_closure,
    run_episode,
    train_lockstep,
)
from hpnarm.evalrun import evaluate
from hpnarm.kinematics import (
    _bending_terms,
    actuation_to_config,
    segment_transform,
    segment_transform_batch,
)
from hpnarm.qtable import N_ACTIONS, ActionSpec, HyperParams, QTable, save
from hpnarm.state import N_TIP_STATES, StateEncoder, goal_frame, rest_tip_origin

NEUTRAL_CFG = PerturbedPlantConfig(
    a_scale=1.0, b_scale=1.0, tip_noise_sigma_mm=0.0, droop_gain=0.0
)


@pytest.fixture(scope="module")
def setup():
    params = ArmParams()
    return {
        "params": params,
        "binning": BinningSpec(),
        "hp": HyperParams(),
        "actions": ActionSpec(),
        "rewards": RewardSpec(),
    }


def goal_from_pressures(params, pressures):
    pose = arm_forward_kinematics(pressures, params)
    return GoalPose(position=pose[:3, 3].copy(), direction=pose[:3, 2].copy())


def run(setup, plant, goal, q, *, train, max_steps=200, seed=0, rewards=None, hp=None):
    return run_episode(
        plant,
        goal,
        q,
        hp or setup["hp"],
        params=setup["params"],
        action_spec=setup["actions"],
        reward_spec=rewards or setup["rewards"],
        binning=setup["binning"],
        max_steps=max_steps,
        rng=np.random.default_rng(seed),
        train=train,
    )


class TestComputeReward:
    def test_no_movement_costs_the_step_penalty(self):
        spec = RewardSpec()
        assert compute_reward((50.0, 20.0), (50.0, 20.0), spec) == pytest.approx(-0.1)

    def test_positional_progress_is_rewarded(self):
        spec = RewardSpec()
        assert compute_reward((50.0, 20.0), (40.0, 20.0), spec) == pytest.approx(9.9)

    def test_goal_bonus_on_entering_success(self):
        spec = RewardSpec()
        r = compute_reward((6.0, 2.0), (4.0, 1.0), spec)
        assert r == pytest.approx(2.0 + 0.5 - 0.1 + 100.0)

    def test_thresholds_are_strict(self):
        spec = RewardSpec()
        assert not spec.is_success(5.0, 1.0)
        assert not spec.is_success(1.0, 5.0)
        assert spec.is_success(4.999, 4.999)

    def test_regression_is_penalized(self):
        spec = RewardSpec()
        assert compute_reward((10.0, 10.0), (20.0, 10.0), spec) == pytest.approx(-10.1)

    @pytest.mark.parametrize(
        "kwargs",
        [{"w_p_per_mm": -1.0}, {"step_penalty": -0.1}, {"success_pos_mm": 0.0}],
    )
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RewardSpec(**kwargs)


class TestPoseErrors:
    def test_zero_error_at_goal(self, setup):
        pose = arm_forward_kinematics(np.full(16, 25.0), setup["params"])
        goal = GoalPose(position=pose[:3, 3].copy(), direction=pose[:3, 2].copy())
        pos, rot = pose_errors(pose, goal)
        assert pos == pytest.approx(0.0, abs=1e-9)
        assert rot == pytest.approx(0.0, abs=1e-5)

    def test_displaced_goal_distance(self, setup):
        pose = np.eye(4)
        goal = GoalPose(position=np.array([3.0, 4.0, 0.0]), direction=np.array([0.0, 0.0, 1.0]))
        pos, rot = pose_errors(pose, goal)
        assert pos == pytest.approx(5.0)
        assert rot == pytest.approx(0.0)

    def test_opposed_direction_is_180_degrees(self):
        pose = np.eye(4)
        goal = GoalPose(position=np.zeros(3), direction=np.array([0.0, 0.0, -1.0]))
        _, rot = pose_errors(pose, goal)
        assert rot == pytest.approx(180.0)

    def test_batch_is_bit_identical_to_scalar(self, setup):
        rng = np.random.default_rng(8)
        params = setup["params"]
        poses = np.array([arm_forward_kinematics(rng.uniform(0.0, params.p_max_kpa, 16), params)
                          for _ in range(300)])
        goals = [GoalPose(position=p[:3, 3] + rng.normal(0.0, 50.0, 3), direction=d)
                 for p, d in zip(poses, poses[rng.permutation(300), :3, 2])]
        goals[0] = GoalPose(position=poses[0, :3, 3], direction=poses[0, :3, 2])
        assert_observed_as_scalar(setup, poses, goals)


def assert_observed_as_scalar(setup, poses, goals):
    """observe_batch row i is pose_errors and the encoder's tip suffix of pose i, goal i."""
    rows = np.array([np.concatenate([g.position, g.direction]) for g in goals])
    frames = np.array([goal_frame(g.direction).T for g in goals])
    pos, rot, state = observe_batch(poses[:, :3, 2:], rows, frames, setup["binning"])
    origin = rest_tip_origin(setup["params"].l0_mm)
    for pose, goal, p, r, s in zip(poses, goals, pos.tolist(), rot.tolist(), state.tolist()):
        assert (p, r) == pose_errors(pose, goal)
        index = StateEncoder(goal, origin, setup["binning"]).encode_tip_index(
            pose[:3, 3], pose[:3, 2])
        assert index % N_TIP_STATES == s
    return pos, rot, state


class TestObserveBatch:
    """The lockstep observation: pose errors and tip state from one stacked pass."""

    def test_tip_at_goal_has_zero_radius(self, setup):
        pose = arm_forward_kinematics(np.full(16, 20.0), setup["params"])
        goal = GoalPose(position=pose[:3, 3], direction=pose[:3, 2])
        shifted = GoalPose(position=pose[:3, 3] + 1e-13, direction=pose[:3, 2])
        pos, rot, _ = assert_observed_as_scalar(setup, np.array([pose, pose]), [goal, shifted])
        assert pos[0] == 0.0 and 0.0 < pos[1] < 1e-12

    def test_cosine_is_clipped_along_and_against_the_goal(self, setup):
        # A unit direction whose squared components add up past 1 in float64.
        rng = np.random.default_rng(4)
        while True:
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] > 1.0:
                break
        poses = np.array([np.eye(4), np.eye(4)])
        poses[:, :3, 2] = d, -d
        poses[:, :3, 3] = (10.0, -20.0, 600.0)
        goal = GoalPose(position=np.array([0.0, 0.0, 600.0]), direction=d)
        _, rot, _ = assert_observed_as_scalar(setup, poses, [goal, goal])
        assert rot.tolist() == [0.0, 180.0]

    def test_perturbed_lanes_observe_as_the_plant(self, setup):
        # Lanes on a perturbed plant's true gains observe the tip after droop
        # and noise, as PerturbedPlant.apply, pose_errors and the encoder do.
        params, actions, binning = setup["params"], setup["actions"], setup["binning"]
        cfg = PerturbedPlantConfig(tip_noise_sigma_mm=5.0, droop_gain=0.05)
        rng = np.random.default_rng(6)
        goals = [goal_from_pressures(params, rng.uniform(0.0, 60.0, 16)) for _ in range(5)]
        steps = 30
        seed = 3
        noise = np.array([noise_generator(seed, (g,)).normal(0.0, 5.0, (steps + 1, 3))
                          for g in range(len(goals))])
        plant = PerturbedPlant(params, cfg, seed)
        lanes = _Lanes(np.array([np.concatenate([g.position, g.direction]) for g in goals]),
                       np.arange(len(goals)), params=plant.true_params, action_spec=actions,
                       reward_spec=setup["rewards"], binning=binning,
                       droop_gain=cfg.droop_gain, noise=noise)
        plants = [PerturbedPlant(params, cfg, seed, (g,)) for g in range(len(goals))]
        pressures = [np.full((4, 4), params.p_max_kpa / 2.0) for _ in goals]
        action = np.zeros(len(goals), dtype=np.int64)
        origin = rest_tip_origin(params.l0_mm)
        for t in range(steps + 1):
            if t:
                action = rng.integers(N_ACTIONS, size=len(goals))
                lanes.step(action)
            for g, goal in enumerate(goals):
                if t:
                    pressures[g] = actions.apply(pressures[g], int(action[g]), params.p_max_kpa)
                pose = plants[g].apply(pressures[g])
                assert (lanes.pos[g], lanes.rot[g]) == pose_errors(pose, goal)
                index = StateEncoder(goal, origin, binning).encode_tip_index(
                    pose[:3, 3], pose[:3, 2])
                assert lanes.state[g] == index % N_TIP_STATES


class TestRunEpisode:
    def test_goal_at_start_pose_succeeds_immediately(self, setup):
        params = setup["params"]
        goal = goal_from_pressures(params, np.full(16, params.p_max_kpa / 2.0))
        log = run(setup, NominalPlant(params), goal, QTable(), train=False)
        assert log.outcome == "success"
        assert log.steps_taken == 0
        assert [r.action_id for r in log.records] == [-1]

    def test_zero_table_greedy_repeats_action_zero(self, setup):
        goal = goal_from_pressures(setup["params"], np.full(16, 20.0))
        log = run(setup, NominalPlant(setup["params"]), goal, QTable(), train=False, max_steps=40)
        assert {r.action_id for r in log.records[1:]} == {0}
        assert log.steps_taken == 40

    def test_evaluation_mode_leaves_table_bit_identical(self, setup, tmp_path):
        rng = np.random.default_rng(3)
        entries = {}  # a repeated (state, action) keeps its last value
        for _ in range(500):
            entries[int(rng.integers(0, 4**10)), int(rng.integers(32))] = float(rng.normal())
        states, actions = zip(*entries)
        q = QTable.from_records(states, actions, [1] * len(entries), list(entries.values()))
        before = tmp_path / "before.qt"
        after = tmp_path / "after.qt"
        save(q, before)
        goal = goal_from_pressures(setup["params"], np.full(16, 40.0))
        run(setup, NominalPlant(setup["params"]), goal, q, train=False)
        save(q, after)
        assert before.read_bytes() == after.read_bytes()

    def test_training_mode_writes_entries(self, setup):
        q = QTable()
        goal = goal_from_pressures(setup["params"], np.full(16, 20.0))
        log = run(setup, NominalPlant(setup["params"]), goal, q, train=True, max_steps=50)
        assert q.trained_count() > 0
        assert q.trained_count() <= log.steps_taken

    def test_pressures_always_within_bounds(self, setup):
        q = QTable()
        goal = goal_from_pressures(setup["params"], np.full(16, 10.0))
        hp = HyperParams(alpha=0.2, gamma=0.9, epsilon=1.0)  # fully random walk
        log = run(setup, NominalPlant(setup["params"]), goal, q, train=True, hp=hp)
        for rec in log.records:
            assert (rec.pressures >= 0.0).all()
            assert (rec.pressures <= setup["params"].p_max_kpa).all()

    def test_fixed_seed_replays_bit_identically(self, setup):
        goal = goal_from_pressures(setup["params"], np.full(16, 20.0))
        hp = HyperParams(alpha=0.2, gamma=0.9, epsilon=0.3)

        def one():
            q = QTable()
            return run(setup, NominalPlant(setup["params"]), goal, q, train=True, seed=77, hp=hp)

        a, b = one(), one()
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.action_id == rb.action_id
            assert ra.state_index == rb.state_index
            assert ra.pos_error_mm == rb.pos_error_mm
            assert ra.rot_error_deg == rb.rot_error_deg
            assert ra.reward == rb.reward
            assert (ra.pressures == rb.pressures).all()

    def test_return_telescopes_without_bonus(self, setup):
        rewards = RewardSpec(goal_bonus=0.0)
        goal = goal_from_pressures(setup["params"], np.full(16, 20.0))
        for seed in range(5):
            q = QTable()
            hp = HyperParams(alpha=0.2, gamma=0.9, epsilon=0.5)
            log = run(setup, NominalPlant(setup["params"]), goal, q, train=True,
                      seed=seed, rewards=rewards, hp=hp)
            t = log.steps_taken
            expected = (
                rewards.w_p_per_mm * (log.records[0].pos_error_mm - log.records[-1].pos_error_mm)
                + rewards.w_r_per_deg * (log.records[0].rot_error_deg - log.records[-1].rot_error_deg)
                - t * rewards.step_penalty
            )
            assert sum(r.reward for r in log.records) == pytest.approx(expected, abs=1e-9)

    def test_length_capped_and_success_flag_matches_final_errors(self, setup):
        goal = goal_from_pressures(setup["params"], np.full(16, 20.0))
        log = run(setup, NominalPlant(setup["params"]), goal, QTable(), train=False, max_steps=25)
        assert log.steps_taken <= 25
        final = log.records[-1]
        assert log.success == setup["rewards"].is_success(final.pos_error_mm, final.rot_error_deg)


class TestLockstepStep:
    def test_default_pressure_closure_is_every_step_of_5_kpa(self, setup):
        closure = pressure_closure(setup["actions"], 60.0, LATTICE_MAX_PRESSURES)
        assert closure.tolist() == [5.0 * i for i in range(13)]

    @pytest.mark.parametrize("delta_p, size", [(7.0, 27), (0.3, 857), (10.0, 7)])
    def test_closure_size_and_bound(self, delta_p, size):
        closure = pressure_closure(ActionSpec(delta_p_kpa=delta_p), 60.0, 10_000)
        assert len(closure) == size and closure[0] == 0.0 and closure[-1] == 60.0
        bounded = pressure_closure(ActionSpec(delta_p_kpa=delta_p), 60.0, LATTICE_MAX_PRESSURES)
        assert (bounded is None) == (size > LATTICE_MAX_PRESSURES)

    @pytest.mark.parametrize("delta_p", [5.0, 10.0])
    def test_lattice_follows_the_actions_and_the_scalar_transform(self, setup, delta_p, rng):
        params, actions = setup["params"], ActionSpec(delta_p_kpa=delta_p)
        lattice = _segment_lattice(params, actions)
        pressures = np.full((4, 4), params.p_max_kpa / 2.0)
        codes = [lattice.start] * 4
        for action in rng.integers(32, size=400).tolist():
            pressures = actions.apply(pressures, action, params.p_max_kpa)
            seg, move = divmod(action, 8)
            codes[seg] = int(lattice.moves[codes[seg], move])
            want = segment_transform(actuation_to_config(pressures[seg], params), params.k_eps)
            row = lattice.transforms[lattice.transform_index[codes[seg]]]
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("delta_p", [5.0, 10.0])
    @pytest.mark.parametrize("plant", ["nominal", "perturbed"])
    def test_lattice_stores_each_distinct_transform_once(self, setup, delta_p, plant):
        # Each state's row, through transform_index, is the segment_transform_batch
        # row of its own four closure pressures: the table of one row per state.
        params, actions = setup["params"], ActionSpec(delta_p_kpa=delta_p)
        if plant == "perturbed":
            params = PerturbedPlant(params, PerturbedPlantConfig(), seed=3).true_params
        lattice = _segment_lattice(params, actions)
        closure = pressure_closure(actions, params.p_max_kpa, LATTICE_MAX_PRESSURES)
        v = len(closure)
        digits = np.array(np.unravel_index(np.arange(v**4), (v,) * 4)).T
        pressures = closure[digits]
        want = segment_transform_batch(pressures, params)
        assert lattice.transforms[lattice.transform_index].tobytes() == want.tobytes()
        # One row per distinct (vx, vy, l) bit triple.
        terms = np.stack(_bending_terms(pressures, params), axis=1).view(np.uint64)
        distinct = len(np.unique(terms, axis=0))
        assert len(lattice.transforms) == distinct < v**4
        if delta_p == 5.0 and plant == "nominal":
            assert (distinct, v**4) == (7825, 28561)
        assert lattice.transform_index.dtype == lattice.moves.dtype == np.uint16
        assert lattice.transform_index.shape == (v**4,) and lattice.moves.shape == (v**4, 8)
        for a in (lattice.transforms, lattice.transform_index, lattice.moves):
            assert not a.flags.writeable

    def test_lanes_step_on_the_cached_lattice_up_to_the_bound(self, setup):
        params, goal = setup["params"], np.array([[0.0, 0.0, 500.0, 0.0, 0.0, 1.0]])
        for delta_p, on_lattice in [(5.0, True), (0.3, False)]:
            actions = ActionSpec(delta_p_kpa=delta_p)
            lanes = _Lanes(goal, [0], params=params, action_spec=actions,
                           reward_spec=setup["rewards"], binning=setup["binning"])
            assert lanes.lattice is _segment_lattice(params, actions)
            assert (lanes.lattice is not None) == on_lattice

    def test_codes_only_lanes_observe_as_the_pressure_path(self, setup, monkeypatch):
        # Lattice lanes carry only their codes and gather the four transforms at
        # each observation; the pressure path keeps a segment stack and recomputes
        # the moved segment. The same random actions, with lanes dropped along the
        # way, observe the same bits on both, and the same rows and successes.
        params, actions, binning = setup["params"], setup["actions"], setup["binning"]
        rng = np.random.default_rng(12)
        goals = [goal_from_pressures(params, rng.uniform(0.0, 60.0, 16)) for _ in range(64)]
        rows = np.array([np.concatenate([g.position, g.direction]) for g in goals])
        slots = np.arange(len(goals)) % 5  # goals sharing a slot, as goals sharing a bin do
        plan = rng.integers(N_ACTIONS, size=(200, len(goals)))
        drop_every = {50: 3, 100: 5, 150: 7}  # at step t, drop the lanes whose id it divides

        def observed():
            lanes = _Lanes(rows, slots, params=params, action_spec=actions,
                           reward_spec=setup["rewards"], binning=binning)
            seen = []
            for t in range(len(plan) + 1):
                if t in drop_every:
                    lanes.keep(lanes.ids % drop_every[t] != 0)
                    assert (lanes.row == slots[lanes.ids] * N_TIP_STATES + lanes.state).all()
                if t:
                    lanes.step(plan[t - 1, lanes.ids])
                seen.append([lanes.ids.tolist()]
                            + [x.tobytes() for x in (lanes.pos, lanes.rot, lanes.state,
                                                     lanes.row, lanes.done)])
            return lanes, seen

        lattice_lanes, on_lattice = observed()
        assert lattice_lanes.lattice is not None and not hasattr(lattice_lanes, "segments")
        assert 0 < len(lattice_lanes) < len(goals)
        monkeypatch.setattr(episode, "_segment_lattice", lambda *_: None)
        pressure_lanes, on_pressures = observed()
        assert pressure_lanes.lattice is None
        for t, (a, b) in enumerate(zip(on_lattice, on_pressures)):
            assert a == b, f"step {t}"

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
    def test_draws_are_select_actions(self, epsilon):
        # select_action draws random() every step and integers(32) on an
        # exploring one; at epsilon 1 every second integers() call reads the
        # high half of a word the call before it drew.
        steps = 40
        keys = [(seed, 0, b, k) for seed in (0, 9) for b in range(0, 1024, 41) for k in range(4)]
        raw = np.array([np.random.PCG64(np.random.SeedSequence(key)).random_raw(2 * steps)
                        for key in keys])
        got = exploration_draws(raw, epsilon, steps)
        for key, row in zip(keys, got.tolist()):
            rng = np.random.default_rng(np.random.SeedSequence(key))
            want = [int(rng.integers(32)) if rng.random() < epsilon else -1 for _ in range(steps)]
            assert row == want


class TestLockstepInputs:
    """Training and evaluation refuse bad counts and goal lists before building a lane."""

    @pytest.fixture
    def goal(self, setup):
        return goal_from_pressures(setup["params"], np.full(16, 20.0))

    @pytest.fixture
    def specs(self, setup, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a lane was built")

        monkeypatch.setattr(_Lanes, "__init__", refuse)
        return dict(params=setup["params"], action_spec=setup["actions"],
                    reward_spec=setup["rewards"], binning=setup["binning"])

    @pytest.mark.parametrize("counts, match", [
        # repetitions=0 raised ZeroDivisionError, 2.5 TypeError; True ran as 1.
        pytest.param({"repetitions": 0}, "repetitions must be >= 1", id="repetitions-0"),
        pytest.param({"repetitions": -3}, "repetitions must be >= 1", id="repetitions-negative"),
        pytest.param({"repetitions": 2.5}, "repetitions must be an integer", id="repetitions-2.5"),
        pytest.param({"repetitions": True}, "repetitions must be an integer",
                     id="repetitions-bool"),
        pytest.param({"max_steps": 2.5}, "max_steps must be an integer", id="max-steps-2.5"),
        pytest.param({"max_steps": 0}, "max_steps must be >= 1", id="max-steps-0"),
        pytest.param({"max_steps": True}, "max_steps must be an integer", id="max-steps-bool"),
        # A seed past a u64 was taken, while the CLI's --seed refused it.
        pytest.param({"seed": 2**64}, r"seed must be < 2\*\*64", id="seed-2**64"),
    ])
    @pytest.mark.parametrize("plant_kind", ["nominal", "perturbed"])
    def test_greedy_refuses_bad_counts(self, specs, goal, plant_kind, counts, match):
        with pytest.raises(ValueError, match=match):
            evaluate(QTable(), [goal], plant_kind=plant_kind, **{"repetitions": 1, **counts},
                     **specs)

    @pytest.mark.parametrize("plant_kind", ["nominal", "perturbed"])
    def test_greedy_refuses_an_empty_goal_list(self, specs, plant_kind):
        # It raised IndexError.
        with pytest.raises(ValueError, match="need at least one goal"):
            evaluate(QTable(), [], plant_kind=plant_kind, repetitions=1, **specs)

    @pytest.mark.parametrize("counts, match", [
        # max_steps=2.5 raised TypeError inside numpy.
        pytest.param({"max_steps": 2.5}, "max_steps must be an integer", id="max-steps-2.5"),
        pytest.param({"max_steps": np.float64(3.0)}, "max_steps must be an integer",
                     id="max-steps-float64"),
        pytest.param({"max_steps": True}, "max_steps must be an integer", id="max-steps-bool"),
        pytest.param({"seed": 1.5}, "seed must be an integer", id="seed-1.5"),
        pytest.param({"seed": True}, "seed must be an integer", id="seed-bool"),
        # seed=-1 failed inside numpy, and 2**64 was taken.
        pytest.param({"seed": -1}, "seed must be >= 0", id="seed-negative"),
        pytest.param({"seed": 2**64}, r"seed must be < 2\*\*64", id="seed-2**64"),
        pytest.param({"max_steps": 0}, "max_steps must be >= 1", id="max-steps-0"),
    ])
    def test_train_refuses_bad_counts(self, setup, specs, goal, counts, match):
        goal_bin = StateEncoder(goal, rest_tip_origin(setup["params"].l0_mm),
                                setup["binning"]).goal_bin
        goals = np.concatenate([goal.position, goal.direction])[None, None]
        with pytest.raises(ValueError, match=match):
            train_lockstep([goal_bin], goals, hp=setup["hp"], **{"seed": 0, **counts}, **specs)


class TestNominalPlant:
    def test_reset_returns_rest_pose(self, setup):
        pose = NominalPlant(setup["params"]).reset()
        assert np.allclose(pose[:3, :3], np.eye(3))
        assert np.allclose(pose[:3, 3], (0.0, 0.0, 4 * setup["params"].l0_mm))

    def test_apply_matches_direct_kinematics(self, setup, rng):
        plant = NominalPlant(setup["params"])
        for _ in range(30):
            p = rng.uniform(0.0, 60.0, (4, 4))
            assert np.allclose(plant.apply(p), arm_forward_kinematics(p, setup["params"]), atol=1e-12)

    def test_cache_survives_partial_changes(self, setup, rng):
        plant = NominalPlant(setup["params"])
        p = rng.uniform(0.0, 60.0, (4, 4))
        plant.apply(p)
        p2 = p.copy()
        p2[2, 1] = 0.0
        assert np.allclose(plant.apply(p2), arm_forward_kinematics(p2, setup["params"]), atol=1e-12)


class TestPerturbedPlant:
    def test_neutral_config_equals_nominal(self, setup, rng):
        plant = PerturbedPlant(setup["params"], NEUTRAL_CFG, seed=5)
        nominal = NominalPlant(setup["params"])
        for _ in range(100):
            p = rng.uniform(0.0, 60.0, (4, 4))
            assert np.allclose(plant.apply(p), nominal.apply(p), atol=1e-12)

    def test_noise_scatter_std_matches_sigma(self, setup):
        cfg = PerturbedPlantConfig(a_scale=1.0, b_scale=1.0, tip_noise_sigma_mm=5.0, droop_gain=0.0)
        plant = PerturbedPlant(setup["params"], cfg, seed=11)
        p = np.full((4, 4), 30.0)
        tips = np.array([plant.apply(p)[:3, 3] for _ in range(10_000)])
        stds = tips.std(axis=0)
        assert np.all(np.abs(stds - 5.0) < 0.5)

    def test_droop_lowers_tip_by_horizontal_reach(self, setup):
        cfg = PerturbedPlantConfig(a_scale=1.0, b_scale=1.0, tip_noise_sigma_mm=0.0, droop_gain=0.02)
        plant = PerturbedPlant(setup["params"], cfg, seed=11)
        p = np.zeros((4, 4))
        p[0] = (60.0, 30.0, 0.0, 30.0)
        nominal_pose = NominalPlant(setup["params"]).apply(p)
        drooped = plant.apply(p)
        horizontal = math.hypot(nominal_pose[0, 3], nominal_pose[1, 3])
        assert nominal_pose[2, 3] - drooped[2, 3] == pytest.approx(0.02 * horizontal)
        assert np.allclose(drooped[:3, :2], nominal_pose[:3, :2])

    def test_true_params_differ_from_nominal_only_in_the_gains(self):
        params = ArmParams(l0_mm=120.0, p_max_kpa=50.0, k_eps=1e-6)
        plant = PerturbedPlant(params, PerturbedPlantConfig(a_scale=1.5, b_scale=0.5), seed=3)
        assert plant.true_params == ArmParams(a_gain=params.a_gain * 1.5,
                                              b_gain=params.b_gain * 0.5,
                                              l0_mm=120.0, p_max_kpa=50.0, k_eps=1e-6)

    def test_gain_scales_sampled_within_spread(self, setup):
        for seed in range(20):
            plant = PerturbedPlant(
                setup["params"], PerturbedPlantConfig(tip_noise_sigma_mm=0.0), seed=seed
            )
            assert 0.8 <= plant.a_scale <= 1.2
            assert 0.8 <= plant.b_scale <= 1.2

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_pinning_one_scale_leaves_the_other_draw(self, setup, seed):
        # At seed 7 pinning a_scale once handed a's draw (1.0500) to b, not b's (1.1589).
        free = PerturbedPlant(setup["params"], PerturbedPlantConfig(), seed=seed)
        a_pinned = PerturbedPlant(setup["params"], PerturbedPlantConfig(a_scale=1.0), seed=seed)
        b_pinned = PerturbedPlant(setup["params"], PerturbedPlantConfig(b_scale=1.0), seed=seed)
        assert free.a_scale != free.b_scale
        assert (a_pinned.a_scale, b_pinned.b_scale) == (1.0, 1.0)
        assert np.float64(a_pinned.b_scale).tobytes() == np.float64(free.b_scale).tobytes()
        assert np.float64(b_pinned.a_scale).tobytes() == np.float64(free.a_scale).tobytes()

    @pytest.mark.parametrize("spread", [0.0, 0.05, 0.2, 0.5, 0.99])
    def test_free_scales_are_the_two_scalar_draws_of_the_seed(self, setup, spread):
        # The scales were drawn one at a time, a then b; drawing both in one call
        # must give the same bits, or every perturbed evaluation would move.
        for seed in (0, 7, 123, 2**64 - 1):
            plant = PerturbedPlant(setup["params"], PerturbedPlantConfig(scale_spread=spread),
                                   seed=seed)
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
            a = rng.uniform(1.0 - spread, 1.0 + spread)
            b = rng.uniform(1.0 - spread, 1.0 + spread)
            assert np.float64(plant.a_scale).tobytes() == np.float64(a).tobytes()
            assert np.float64(plant.b_scale).tobytes() == np.float64(b).tobytes()

    @pytest.mark.parametrize("seed, match", [
        # True ran as seed 1, 2**64 was taken, and -1 failed inside numpy.
        (True, "seed must be an integer"),
        (1.5, "seed must be an integer"),
        (-1, "seed must be >= 0"),
        (2**64, r"seed must be < 2\*\*64"),
    ], ids=["bool", "float", "negative", "2**64"])
    def test_seed_outside_a_u64_is_refused_before_any_draw(self, setup, monkeypatch, seed,
                                                           match):
        def no_draw(*_):
            raise AssertionError("a stream was seeded")

        for name in ("SeedSequence", "PCG64", "default_rng"):
            monkeypatch.setattr(np.random, name, no_draw)
        with pytest.raises(ValueError, match=match):
            PerturbedPlant(setup["params"], PerturbedPlantConfig(), seed=seed)
        with pytest.raises(ValueError, match=match):
            noise_generator(seed, (0, 0))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["0", "2**64-1"])
    def test_seed_bounds_of_a_u64_are_taken(self, setup, seed):
        plant = PerturbedPlant(setup["params"], PerturbedPlantConfig(), seed=seed)
        assert np.isfinite(plant.apply(np.full((4, 4), 30.0))).all()
        want = np.random.Generator(np.random.PCG64((seed, 1, 2, 1))).random(4)
        assert noise_generator(seed, (2, 1)).random(4).tobytes() == want.tobytes()

    def test_pinning_both_scales_uses_both_pins(self, setup):
        plant = PerturbedPlant(setup["params"], PerturbedPlantConfig(a_scale=1.25, b_scale=0.75),
                               seed=7)
        assert (plant.a_scale, plant.b_scale) == (1.25, 0.75)
        assert plant.true_params.a_gain == setup["params"].a_gain * 1.25
        assert plant.true_params.b_gain == setup["params"].b_gain * 0.75

    def test_same_seed_same_behavior(self, setup):
        cfg = PerturbedPlantConfig()
        p = np.full((4, 4), 22.0)
        a = PerturbedPlant(setup["params"], cfg, seed=123)
        b = PerturbedPlant(setup["params"], cfg, seed=123)
        for _ in range(10):
            assert np.array_equal(a.apply(p), b.apply(p))

    def test_reset_returns_rest_pose_without_noise(self, setup):
        plant = PerturbedPlant(setup["params"], PerturbedPlantConfig(), seed=9)
        pose = plant.reset()
        assert np.allclose(pose[:3, 3], (0.0, 0.0, 4 * setup["params"].l0_mm))

    @pytest.mark.parametrize(
        "kwargs",
        [{"a_scale": 0.0}, {"b_scale": -1.0}, {"tip_noise_sigma_mm": -1.0},
         {"droop_gain": -0.5}, {"scale_spread": 1.0}],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PerturbedPlantConfig(**kwargs)
