import numpy as np
import pytest

from hpnarm import ArmParams, BinningSpec, GoalPose, arm_forward_kinematics, episode
from hpnarm.episode import PerturbedPlantConfig, RewardSpec
from hpnarm.evalrun import (
    EVAL_CSV_COLUMNS,
    EvalReport,
    GoalResult,
    evaluate,
    sample_goals,
    write_report_csvs,
)
from hpnarm.pretrain import build_goal_bank, pretrain_shard
from hpnarm.qtable import FLAG_AUGMENTED, ActionSpec, FLAG_TRAINED, HyperParams, QTable, augment
from hpnarm.state import StateEncoder, rest_tip_origin

from oracles import oracle_evaluate


@pytest.fixture(scope="module")
def specs():
    return dict(
        params=ArmParams(),
        hp=HyperParams(),
        action_spec=ActionSpec(),
        reward_spec=RewardSpec(),
        binning=BinningSpec(),
    )


def start_pose_goal(params):
    pose = arm_forward_kinematics(np.full(16, params.p_max_kpa / 2.0), params)
    return GoalPose(position=pose[:3, 3].copy(), direction=pose[:3, 2].copy())


def synthetic_result(pos_rows, final=None):
    pos = np.asarray(pos_rows, dtype=float)
    reps, length = pos.shape
    goal = GoalPose(position=np.zeros(3), direction=np.array([0.0, 0.0, 1.0]))
    final_pos = pos[:, -1] if final is None else np.asarray(final, dtype=float)
    return GoalResult(
        goal=goal, pos_series=pos, rot_series=np.zeros_like(pos),
        final_pos_mm=final_pos, final_rot_deg=np.zeros(reps),
        success=np.zeros(reps, dtype=bool),
    )


class TestSampleGoals:
    def test_count_and_unit_directions(self, specs):
        goals = sample_goals(specs["params"], 12, np.random.default_rng(0))
        assert len(goals) == 12
        for g in goals:
            assert np.linalg.norm(g.direction) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_per_seed(self, specs):
        a = sample_goals(specs["params"], 5, np.random.default_rng(3))
        b = sample_goals(specs["params"], 5, np.random.default_rng(3))
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.position, gb.position)

    def test_rejects_zero(self, specs):
        with pytest.raises(ValueError):
            sample_goals(specs["params"], 0, np.random.default_rng(0))


class TestEvaluate:
    def test_series_are_padded_to_full_length(self, specs):
        goal = start_pose_goal(specs["params"])  # succeeds at step 0
        report = evaluate(None, [goal], max_steps=30, repetitions=2, **specs)
        (result,) = report.results
        assert result.pos_series.shape == (2, 31)
        assert np.all(result.pos_series < 1e-6)
        assert result.success.all()

    def test_nominal_repetitions_are_identical(self, specs):
        goals = sample_goals(specs["params"], 2, np.random.default_rng(1))
        report = evaluate(None, goals, max_steps=20, repetitions=3, **specs)
        for r in report.results:
            assert np.array_equal(r.pos_series[0], r.pos_series[1])
            assert np.array_equal(r.pos_series[0], r.pos_series[2])

    @pytest.mark.parametrize("plant_kind, lanes_per_goal", [("nominal", 1), ("perturbed", 3)])
    def test_nominal_repetitions_share_one_lane(self, specs, monkeypatch, plant_kind,
                                                lanes_per_goal):
        widths = []
        init = episode._Lanes.__init__

        def counting_init(lanes, *args, **kwargs):
            init(lanes, *args, **kwargs)
            widths.append(len(lanes))

        monkeypatch.setattr(episode._Lanes, "__init__", counting_init)
        goals = sample_goals(specs["params"], 4, np.random.default_rng(1))
        report = evaluate(None, goals, max_steps=5, repetitions=3, plant_kind=plant_kind,
                          **specs)
        assert widths == [4 * lanes_per_goal]
        for r in report.results:
            assert r.pos_series.shape == (3, 6) and r.success.shape == (3,)
            # every repetition's 5 selections are counted
            assert r.trained_selections + r.augmented_selections + r.empty_selections == 15

    def test_hyperparameters_are_ignored(self, specs):
        goals = sample_goals(specs["params"], 2, np.random.default_rng(1))
        kwargs = {k: v for k, v in specs.items() if k != "hp"}
        without = evaluate(None, goals, max_steps=10, repetitions=2, **kwargs)
        odd = HyperParams(alpha=1.0, gamma=0.0, epsilon=1.0)
        with_hp = evaluate(None, goals, max_steps=10, repetitions=2, hp=odd, **kwargs)
        for a, b in zip(without.results, with_hp.results):
            assert a.pos_series.tobytes() == b.pos_series.tobytes()
            assert a.rot_series.tobytes() == b.rot_series.tobytes()

    def test_perturbed_repetitions_differ(self, specs):
        goals = sample_goals(specs["params"], 1, np.random.default_rng(1))
        report = evaluate(
            None, goals, max_steps=20, repetitions=2, plant_kind="perturbed", **specs
        )
        (r,) = report.results
        assert not np.array_equal(r.pos_series[0], r.pos_series[1])

    def test_table_unchanged_by_evaluation(self, specs):
        q = QTable()
        rng = np.random.default_rng(4)
        for _ in range(200):
            q.set_entry(int(rng.integers(4**10)), int(rng.integers(32)),
                        float(rng.normal()), FLAG_TRAINED)
        snapshot = q.copy()
        goals = sample_goals(specs["params"], 2, np.random.default_rng(2))
        evaluate(q, goals, max_steps=15, repetitions=1, **specs)
        assert q == snapshot

    def test_zero_init_label_and_rerun_determinism(self, specs):
        goals = sample_goals(specs["params"], 2, np.random.default_rng(5))
        a = evaluate(None, goals, max_steps=15, repetitions=2,
                     plant_kind="perturbed", seed=9, **specs)
        b = evaluate(None, goals, max_steps=15, repetitions=2,
                     plant_kind="perturbed", seed=9, **specs)
        assert a.label == "zero-init"
        for ra, rb in zip(a.results, b.results):
            assert np.array_equal(ra.pos_series, rb.pos_series)

    def test_input_validation(self, specs):
        goal = start_pose_goal(specs["params"])
        with pytest.raises(ValueError):
            evaluate(None, [], **specs)
        with pytest.raises(ValueError):
            evaluate(None, [goal], repetitions=0, **specs)
        with pytest.raises(ValueError):
            evaluate(None, [goal], max_steps=0, **specs)
        with pytest.raises(ValueError):
            evaluate(None, [goal], plant_kind="lunar", **specs)


class TestReportAggregation:
    def test_reaching_uses_the_whole_curve(self):
        dips = synthetic_result([[100.0, 25.0, 80.0]])   # dips below then rises
        flat = synthetic_result([[100.0, 90.0, 80.0]])
        report = EvalReport(label="x", plant_kind="nominal",
                            results=(dips, flat), repetitions=1, max_steps=2)
        assert dips.reaches(30.0) and not flat.reaches(30.0)
        assert report.goals_reaching(30.0) == 1
        assert dips.steps_to(30.0) == 1
        assert flat.steps_to(30.0) is None
        assert report.mean_steps_to(30.0) == pytest.approx(1.0)
        assert report.mean_steps_to(1.0) is None

    def test_final_error_statistics(self):
        results = tuple(
            synthetic_result([[50.0, v]]) for v in (10.0, 20.0, 60.0)
        )
        report = EvalReport(label="x", plant_kind="nominal",
                            results=results, repetitions=1, max_steps=1)
        assert report.median_final_pos_mm() == pytest.approx(20.0)
        assert report.mean_final_pos_mm() == pytest.approx(30.0)
        assert np.allclose(report.aggregate_pos_series(), [50.0, 30.0])

    def test_repetitions_average_within_each_goal(self):
        result = synthetic_result([[40.0, 10.0], [20.0, 30.0]])
        assert np.allclose(result.mean_pos_series(), [30.0, 20.0])
        report = EvalReport(label="x", plant_kind="nominal",
                            results=(result,), repetitions=2, max_steps=1)
        assert report.final_pos_errors() == pytest.approx([20.0])

    def test_summary_mentions_the_key_numbers(self):
        report = EvalReport(label="demo", plant_kind="perturbed",
                            results=(synthetic_result([[50.0, 10.0]]),),
                            repetitions=1, max_steps=1)
        text = report.summary()
        assert "demo" in text and "perturbed" in text
        assert "median final positional error: 10.00 mm" in text


class TestCsvOutput:
    def test_files_and_layout(self, specs, tmp_path):
        goals = sample_goals(specs["params"], 3, np.random.default_rng(6))
        report = evaluate(None, goals, max_steps=8, repetitions=1, **specs)
        paths = write_report_csvs(report, tmp_path / "out")
        names = [p.name for p in paths]
        assert names == ["goal_00.csv", "goal_01.csv", "goal_02.csv", "aggregate.csv"]
        for p in paths:
            lines = p.read_text().strip().split("\n")
            assert lines[0] == ",".join(EVAL_CSV_COLUMNS)
            assert len(lines) == 10
            step, t, pos, rot = lines[3].split(",")
            assert step == "2" and t == "4.0"
            float(pos), float(rot)  # plain dot-decimal numbers


LOOSE_REWARD = RewardSpec(success_pos_mm=200.0, success_rot_deg=90.0)


@pytest.fixture(scope="module")
def trained(specs):
    """A small augmented table, plus goals in its trained bins and elsewhere."""
    rng = np.random.default_rng(np.random.SeedSequence((31, 1)))
    bank = build_goal_bank(specs["params"], 2, 60_000, rng, binning=specs["binning"])
    bins = bank.reachable_bins()
    table = augment(pretrain_shard(
        bins, 31, bank, specs["hp"], params=specs["params"], action_spec=specs["action_spec"],
        reward_spec=specs["reward_spec"], binning=specs["binning"], max_steps=60,
    ))
    goals = [start_pose_goal(specs["params"])]
    goals += [bank.goals_for(b)[0] for b in bins[:4]]
    goals += sample_goals(specs["params"], 3, np.random.default_rng(8))
    return table, goals


def assert_matches_oracle(report, oracle_results, tmp_path):
    assert len(report.results) == len(oracle_results)
    for got, want in zip(report.results, oracle_results):
        for name in ("pos_series", "rot_series", "final_pos_mm", "final_rot_deg", "success"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        for name in ("trained_selections", "augmented_selections", "empty_selections"):
            assert getattr(got, name) == getattr(want, name), name
    oracle_report = EvalReport(label=report.label, plant_kind=report.plant_kind,
                               results=tuple(oracle_results), repetitions=report.repetitions,
                               max_steps=report.max_steps)
    got_paths = write_report_csvs(report, tmp_path / "lockstep")
    want_paths = write_report_csvs(oracle_report, tmp_path / "oracle")
    assert [p.name for p in got_paths] == [p.name for p in want_paths]
    for a, b in zip(got_paths, want_paths):
        assert a.read_bytes() == b.read_bytes(), a.name


def run_both(specs, table, goals, **kwargs):
    kwargs = {"seed": 5, **kwargs}
    reward_spec = kwargs.pop("reward_spec", specs["reward_spec"])
    common = {k: v for k, v in specs.items() if k not in ("hp", "reward_spec")}
    report = evaluate(table, goals, reward_spec=reward_spec, **common, **kwargs)
    return report, oracle_evaluate(table, goals, reward_spec=reward_spec, **common, **kwargs)


class TestLockstepMatchesEpisodeOracle:
    """evaluate() equals one scalar run_episode per (goal, repetition), bit for bit."""

    @pytest.mark.parametrize("plant_kind", ["nominal", "perturbed"])
    @pytest.mark.parametrize("use_table", [True, False], ids=["table", "zero-init"])
    @pytest.mark.parametrize("reward", ["default", "loose"])
    def test_full_length_episodes(self, specs, trained, tmp_path, plant_kind, use_table, reward):
        table, goals = trained
        reward_spec = LOOSE_REWARD if reward == "loose" else specs["reward_spec"]
        report, oracle = run_both(specs, table if use_table else None, goals,
                                  plant_kind=plant_kind, reward_spec=reward_spec,
                                  repetitions=3, max_steps=200)
        assert_matches_oracle(report, oracle, tmp_path)
        success = np.array([r.success for r in report.results])
        if plant_kind == "nominal":
            assert success[0].all()  # the start-pose goal succeeds at step 0
        if reward == "loose" and use_table:
            # Episodes end at different steps, so lanes drop out mid-run.
            assert 0 < success[1:].sum() < success[1:].size

    @pytest.mark.parametrize("plant_kind", ["nominal", "perturbed"])
    @pytest.mark.parametrize("repetitions", [1, 3])
    @pytest.mark.parametrize("max_steps", [1, 17])
    def test_short_episodes(self, specs, trained, tmp_path, plant_kind, repetitions, max_steps):
        table, goals = trained
        report, oracle = run_both(specs, table, goals, plant_kind=plant_kind,
                                  reward_spec=LOOSE_REWARD, repetitions=repetitions,
                                  max_steps=max_steps)
        assert_matches_oracle(report, oracle, tmp_path)

    @pytest.mark.parametrize("use_table", [True, False], ids=["table", "zero-init"])
    def test_noise_free_perturbed_plant(self, specs, trained, tmp_path, use_table):
        table, goals = trained
        cfg = PerturbedPlantConfig(tip_noise_sigma_mm=0.0)
        report, oracle = run_both(specs, table if use_table else None, goals,
                                  plant_kind="perturbed", perturbed_cfg=cfg,
                                  repetitions=3, max_steps=200)
        assert_matches_oracle(report, oracle, tmp_path)
        for r in report.results:  # no noise: the repetitions agree
            assert np.array_equal(r.pos_series[0], r.pos_series[2])

    def test_strong_droop_on_varied_poses(self, specs, tmp_path):
        # np.hypot and math.hypot disagree in the last bit on about 0.6% of
        # inputs. A random table steers each goal along its own path, and a
        # droop gain of 1 lets such a difference in the reach survive the
        # subtraction from the tip height.
        origin = rest_tip_origin(specs["params"].l0_mm)
        goals = sample_goals(specs["params"], 40, np.random.default_rng(21))
        rng = np.random.default_rng(22)
        blocks = {}
        for g in goals:
            b = StateEncoder(g, origin, specs["binning"]).goal_bin
            blocks[b] = (rng.normal(size=(1024, 32)), np.ones((1024, 32), dtype=np.uint16))
        table = QTable.from_blocks(blocks)
        cfg = PerturbedPlantConfig(tip_noise_sigma_mm=0.0, droop_gain=1.0)
        report, oracle = run_both(specs, table, goals, plant_kind="perturbed",
                                  perturbed_cfg=cfg, repetitions=1, max_steps=200)
        assert_matches_oracle(report, oracle, tmp_path)

    @pytest.mark.parametrize("plant_kind", ["nominal", "perturbed"])
    def test_success_on_the_last_step(self, specs, trained, tmp_path, plant_kind):
        table, goals = trained
        kwargs = dict(plant_kind=plant_kind, reward_spec=LOOSE_REWARD, repetitions=1)
        report, _ = run_both(specs, table, goals[1:], max_steps=200, **kwargs)
        ends = [
            int(np.argmax((r.pos_series[0] < LOOSE_REWARD.success_pos_mm)
                          & (r.rot_series[0] < LOOSE_REWARD.success_rot_deg)))
            for r in report.results
        ]
        i, end = next((i, end) for i, end in enumerate(ends)
                      if report.results[i].success[0] and end > 0)
        # Stop every episode at the step where goal i succeeds.
        report, oracle = run_both(specs, table, goals[1:], max_steps=end, **kwargs)
        assert report.results[i].success[0]
        assert_matches_oracle(report, oracle, tmp_path)

    def test_goal_result_does_not_depend_on_the_other_goals(self, specs, trained):
        table, goals = trained
        kwargs = dict(plant_kind="perturbed", reward_spec=LOOSE_REWARD, repetitions=3,
                      max_steps=60, seed=2, **{k: v for k, v in specs.items()
                                               if k != "reward_spec"})
        alone = evaluate(table, goals[1:2], **kwargs).results[0]
        together = evaluate(table, goals[1:], **kwargs).results[0]
        for name in ("pos_series", "rot_series", "success"):
            assert np.array_equal(getattr(alone, name), getattr(together, name))


class TestActionCount:
    @pytest.mark.parametrize("action_count", [16, 40])
    def test_mismatched_table_rejected_before_any_step(self, specs, monkeypatch, action_count):
        table = QTable(action_count)
        table.set_entry(5, action_count - 1, 1.0, FLAG_TRAINED)

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(episode, "segment_transform_batch", no_step)
        goal = sample_goals(specs["params"], 1, np.random.default_rng(3))
        with pytest.raises(ValueError, match=f"table has {action_count} actions"):
            evaluate(table, goal, max_steps=5, repetitions=1, **specs)


class TestRowCoverage:
    def test_counts_follow_the_row_kind_at_the_start_state(self, specs):
        params = specs["params"]
        goals = sample_goals(params, 3, np.random.default_rng(1))
        starts = []
        for g in goals:
            pose = arm_forward_kinematics(np.full(16, params.p_max_kpa / 2.0), params)
            encoder = StateEncoder(g, rest_tip_origin(params.l0_mm), specs["binning"])
            starts.append(encoder.encode_tip_index(pose[:3, 3], pose[:3, 2]))
        assert len({s // 1024 for s in starts}) == 3
        table = QTable()
        table.set_entry(starts[0], 4, 1.0, FLAG_TRAINED)
        table.set_entry(starts[1], 9, 1.0, FLAG_AUGMENTED)
        report = evaluate(table, goals, max_steps=1, repetitions=2, **specs)
        counts = [(r.trained_selections, r.augmented_selections, r.empty_selections)
                  for r in report.results]
        assert counts == [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
        assert report.selection_counts() == (2, 2, 2)
        assert "33.3% trained, 33.3% augmented only, 33.3% empty (of 6 selections)" in (
            report.summary())

    def test_no_selection_when_the_start_succeeds(self, specs):
        report = evaluate(None, [start_pose_goal(specs["params"])], max_steps=5,
                          repetitions=2, **specs)
        assert report.selection_counts() == (0, 0, 0)
        assert "rows selected on" not in report.summary()

    def test_summary_reports_the_hold_baseline(self):
        results = tuple(synthetic_result([[s, 10.0]]) for s in (40.0, 50.0, 90.0))
        report = EvalReport(label="x", plant_kind="nominal", results=results,
                            repetitions=1, max_steps=1)
        assert results[0].start_pos_mm() == 40.0
        assert report.median_start_pos_mm() == 50.0
        assert "median start (hold) positional error: 50.00 mm" in report.summary()
