import hashlib
import importlib

import numpy as np
import pytest

from hpnarm import ArmParams, BinningSpec, GoalPose, StateEncoder, rest_tip_origin
from hpnarm.episode import NominalPlant, RewardSpec, run_episode, train_lockstep
from hpnarm.pretrain import (
    GoalBank,
    GoalBankError,
    MergeConflictError,
    build_goal_bank,
    config_fingerprint,
    load_goal_bank,
    merge,
    pretrain,
    pretrain_shard,
    save_goal_bank,
)
from hpnarm.qtable import FLAG_TRAINED, ActionSpec, HyperParams, QTable, augment, load, save
from hpnarm.state import N_GOAL_BINS, N_TIP_STATES, encode_goal_prefix
from oracles import write_goal_bank

# Frozen reachable-bin count for default arm/binning at quota=10, budget=1e6.
# Measured identically (64) over six disjoint seed streams before freezing.
REACHABLE_BINS_AT_QUOTA_10 = 64

# sha256 of the .hpnq file that pretrain writes at default specs with quota 1,
# seed 13, budget 30,000 and max_steps 50. Frozen from the lockstep engine's
# first release; any change to the bytes a pretrain writes must update it
# on purpose.
SMALL_PRETRAIN_SHA256 = "999f09bba45f809b4cf20a9e164fab7d64f4d4211315bbc2cc4dadcfbd0c85f6"


def bank_rng(seed):
    return np.random.default_rng(np.random.SeedSequence((seed, 1)))


@pytest.fixture(scope="module")
def specs():
    return {
        "params": ArmParams(),
        "binning": BinningSpec(),
        "hp": HyperParams(),
        "actions": ActionSpec(),
        "rewards": RewardSpec(),
    }


@pytest.fixture(scope="module")
def small_bank(specs):
    return build_goal_bank(
        specs["params"], 2, 60_000, bank_rng(5), binning=specs["binning"]
    )


def shard_kwargs(specs, max_steps=60):
    return dict(
        params=specs["params"],
        action_spec=specs["actions"],
        reward_spec=specs["rewards"],
        binning=specs["binning"],
        max_steps=max_steps,
    )


def trained_table(entries, action_count=32):
    q = QTable(action_count)
    for state, action, value in entries:
        q.set_entry(state, action, value, FLAG_TRAINED)
    return q


class TestBuildGoalBank:
    def test_quota_one_fills_every_reachable_bin_exactly_once(self, specs):
        bank = build_goal_bank(specs["params"], 1, 60_000, bank_rng(0), binning=specs["binning"])
        assert bank.reachable_bins()
        for b in bank.reachable_bins():
            assert len(bank.goals_for(b)) == 1

    def test_exact_balance_at_quota(self, small_bank):
        sizes = {len(small_bank.goals_for(b)) for b in small_bank.reachable_bins()}
        assert sizes == {2}

    def test_stored_goals_reencode_to_their_bin(self, specs, small_bank):
        origin = rest_tip_origin(specs["params"].l0_mm)
        for b in small_bank.reachable_bins():
            for goal in small_bank.goals_for(b):
                assert encode_goal_prefix(goal.position, goal.direction, origin,
                                          specs["binning"]) == b

    def test_reachability_flags_match_stored_bins(self, small_bank):
        assert small_bank.reachable.shape == (N_GOAL_BINS,)
        assert set(np.nonzero(small_bank.reachable)[0].tolist()) == set(
            small_bank.reachable_bins()
        )

    def test_partial_bins_are_dropped_when_budget_runs_out(self, specs):
        bank = build_goal_bank(specs["params"], 3, 2_000, bank_rng(1), binning=specs["binning"])
        assert bank.samples_used == 2_000
        assert len(bank.reachable_bins()) < N_GOAL_BINS
        for b in bank.reachable_bins():
            assert len(bank.goals_for(b)) == 3

    def test_raises_when_no_bin_reaches_quota(self, specs):
        with pytest.raises(GoalBankError):
            build_goal_bank(specs["params"], 2, 1, bank_rng(2), binning=specs["binning"])

    def test_same_rng_stream_same_bank(self, specs, tmp_path):
        fp = config_fingerprint(specs["params"], specs["binning"])
        paths = []
        for run in range(2):
            bank = build_goal_bank(
                specs["params"], 1, 30_000, bank_rng(9), binning=specs["binning"]
            )
            path = tmp_path / f"bank{run}.hpnb"
            save_goal_bank(bank, path, seed=9, budget=30_000, fingerprint=fp)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("kwargs", [{"quota": 0}, {"budget": 0}, {"batch_size": 0}])
    def test_bad_arguments_rejected(self, specs, kwargs):
        full = {"quota": 1, "budget": 100, "batch_size": 64, **kwargs}
        with pytest.raises(ValueError):
            build_goal_bank(
                specs["params"], full["quota"], full["budget"], bank_rng(0),
                binning=specs["binning"], batch_size=full["batch_size"],
            )

    def test_reachable_bin_count_regression(self, specs):
        bank = build_goal_bank(
            specs["params"], 10, 1_000_000, bank_rng(2026), binning=specs["binning"]
        )
        count = len(bank.reachable_bins())
        assert abs(count - REACHABLE_BINS_AT_QUOTA_10) <= 0.05 * REACHABLE_BINS_AT_QUOTA_10


class TestGoalBankValidation:
    def test_flag_bin_mismatch_rejected(self):
        goal = GoalPose(position=np.zeros(3), direction=np.array([0.0, 0.0, 1.0]))
        flags = np.zeros(N_GOAL_BINS, dtype=bool)
        with pytest.raises(ValueError):
            GoalBank(quota=1, goals={3: (goal,)}, reachable=flags, samples_used=10)

    def test_quota_shortfall_rejected(self):
        goal = GoalPose(position=np.zeros(3), direction=np.array([0.0, 0.0, 1.0]))
        flags = np.zeros(N_GOAL_BINS, dtype=bool)
        flags[3] = True
        with pytest.raises(ValueError):
            GoalBank(quota=2, goals={3: (goal,)}, reachable=flags, samples_used=10)


# A goal straight above the base pointing up, and the sampling setup of hand-written banks.
_UP = [0.0, 0.0, 700.0, 0.0, 0.0, 1.0]
_BANK_SETUP = dict(seed=5, quota=2, budget=60_000, fingerprint=0)


class TestBankCache:
    @pytest.fixture()
    def saved(self, specs, small_bank, tmp_path):
        fp = config_fingerprint(specs["params"], specs["binning"])
        path = tmp_path / "bank.hpnb"
        save_goal_bank(small_bank, path, seed=5, budget=60_000, fingerprint=fp)
        return path, fp

    def test_round_trip_preserves_every_goal(self, small_bank, saved):
        path, fp = saved
        loaded = load_goal_bank(path, seed=5, quota=2, budget=60_000, fingerprint=fp)
        assert loaded.reachable_bins() == small_bank.reachable_bins()
        assert loaded.samples_used == small_bank.samples_used
        for b in small_bank.reachable_bins():
            for a, c in zip(small_bank.goals_for(b), loaded.goals_for(b)):
                assert np.array_equal(a.position, c.position)
                assert np.array_equal(a.direction, c.direction)

    def test_resave_is_byte_identical(self, small_bank, saved, tmp_path):
        path, fp = saved
        loaded = load_goal_bank(path, seed=5, quota=2, budget=60_000, fingerprint=fp)
        again = tmp_path / "again.hpnb"
        save_goal_bank(loaded, again, seed=5, budget=60_000, fingerprint=fp)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "override",
        [{"seed": 6}, {"quota": 3}, {"budget": 1}, {"fingerprint": 123}],
    )
    def test_mismatched_sampling_setup_rejected(self, saved, override):
        path, fp = saved
        kwargs = {"seed": 5, "quota": 2, "budget": 60_000, "fingerprint": fp, **override}
        with pytest.raises(GoalBankError):
            load_goal_bank(path, **kwargs)

    def test_corrupted_byte_rejected(self, saved):
        path, fp = saved
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(GoalBankError):
            load_goal_bank(path, seed=5, quota=2, budget=60_000, fingerprint=fp)

    def test_truncated_file_rejected(self, saved):
        path, fp = saved
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(GoalBankError):
            load_goal_bank(path, seed=5, quota=2, budget=60_000, fingerprint=fp)

    def test_wrong_magic_rejected(self, saved):
        path, fp = saved
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(GoalBankError):
            load_goal_bank(path, seed=5, quota=2, budget=60_000, fingerprint=fp)

    def test_unsupported_version_rejected(self, saved):
        path, fp = saved
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(GoalBankError):
            load_goal_bank(path, seed=5, quota=2, budget=60_000, fingerprint=fp)

    def test_hand_written_bank_loads(self, tmp_path):
        path = tmp_path / "bank.hpnb"
        write_goal_bank(path, [5, 7], [_UP, _UP, _UP, _UP], **_BANK_SETUP)
        bank = load_goal_bank(path, **_BANK_SETUP)
        assert bank.reachable_bins() == [5, 7]
        assert np.array_equal(bank.goals_for(7)[1].direction, _UP[3:])

    @pytest.mark.parametrize("bins, bad_row, match", [
        pytest.param([N_GOAL_BINS], _UP, "out of range", id="bin-1024"),
        pytest.param([5, 65535], _UP, "out of range", id="bin-65535"),
        pytest.param([5, 5], _UP, "strictly increasing", id="duplicate-bins"),
        pytest.param([7, 5], _UP, "strictly increasing", id="unsorted-bins"),
        pytest.param([5], [np.nan, 0.0, 700.0, 0.0, 0.0, 1.0], "non-finite", id="nan-position"),
        pytest.param([5], [0.0, 0.0, 700.0, np.inf, 0.0, 0.0], "non-finite", id="inf-direction"),
        pytest.param([5], [0.0, 0.0, 700.0, 0.0, 0.0, 2.0], "unit", id="long-direction"),
        pytest.param([5], [0.0, 0.0, 700.0, 0.0, 0.0, 0.0], "unit", id="zero-direction"),
    ])
    def test_malformed_contents_rejected(self, tmp_path, bins, bad_row, match):
        path = tmp_path / "bank.hpnb"
        rows = [_UP] * (2 * len(bins) - 1) + [bad_row]
        write_goal_bank(path, bins, rows, **_BANK_SETUP)
        with pytest.raises(GoalBankError, match=match):
            load_goal_bank(path, **_BANK_SETUP)


class TestPretrainShard:
    def test_empty_shard_gives_empty_table(self, specs, small_bank):
        q = pretrain_shard((), 5, small_bank, specs["hp"], **shard_kwargs(specs))
        assert q.entry_count() == 0

    def test_trained_states_stay_inside_the_shard_bin(self, specs, small_bank):
        b = small_bank.reachable_bins()[0]
        q = pretrain_shard((b,), 5, small_bank, specs["hp"], **shard_kwargs(specs))
        states, _, flags, _ = q.record_arrays()
        assert q.trained_count() > 0
        assert ((flags & FLAG_TRAINED) != 0).all()
        assert (states // N_TIP_STATES == b).all()

    def test_same_shard_same_seed_bit_identical(self, specs, small_bank):
        bins = small_bank.reachable_bins()[:3]
        a = pretrain_shard(bins, 17, small_bank, specs["hp"], **shard_kwargs(specs))
        b = pretrain_shard(bins, 17, small_bank, specs["hp"], **shard_kwargs(specs))
        assert a == b

    def test_different_seeds_differ(self, specs, small_bank):
        bins = small_bank.reachable_bins()[:3]
        a = pretrain_shard(bins, 17, small_bank, specs["hp"], **shard_kwargs(specs))
        b = pretrain_shard(bins, 18, small_bank, specs["hp"], **shard_kwargs(specs))
        assert a != b


def sequential_table(goals_by_bin, seed, specs, reward_spec, max_steps):
    """The reference: run_episode(train=True) over sorted bins and goal indices."""
    q = QTable(specs["actions"].action_count)
    plant = NominalPlant(specs["params"])
    steps = []
    for b in sorted(goals_by_bin):
        for k, goal in enumerate(goals_by_bin[b]):
            log = run_episode(
                plant, goal, q, specs["hp"],
                params=specs["params"], action_spec=specs["actions"],
                reward_spec=reward_spec, binning=specs["binning"], max_steps=max_steps,
                rng=np.random.default_rng(np.random.SeedSequence((seed, 0, b, k))),
                train=True,
            )
            steps.append(log.steps_taken)
    return q, steps


class TestLockstepMatchesSequentialEpisodes:
    LOOSE = RewardSpec(success_pos_mm=150.0, success_rot_deg=60.0)

    @pytest.fixture(scope="class")
    def bank(self, specs, small_bank):
        """small_bank with a goal at the start pose, which succeeds at step 0."""
        params = specs["params"]
        start = NominalPlant(params).apply(np.full((4, 4), params.p_max_kpa / 2.0))
        at_start = GoalPose(position=start[:3, 3], direction=start[:3, 2])
        origin = rest_tip_origin(params.l0_mm)
        start_bin = StateEncoder(at_start, origin, specs["binning"]).goal_bin
        nearby = GoalPose(position=start[:3, 3] + (0.0, 0.0, 10.0), direction=start[:3, 2])
        assert StateEncoder(nearby, origin, specs["binning"]).goal_bin == start_bin
        goals = dict(small_bank.goals)
        goals[start_bin] = (nearby, at_start)
        reachable = small_bank.reachable.copy()
        reachable[start_bin] = True
        return GoalBank(quota=2, goals=goals, reachable=reachable, samples_used=0)

    @pytest.mark.parametrize("loose", [False, True], ids=["default-reward", "loose-reward"])
    def test_shard_table_equals_sequential_episodes(self, specs, bank, loose):
        rewards = self.LOOSE if loose else specs["rewards"]
        kwargs = {**shard_kwargs(specs), "reward_spec": rewards}
        bins = bank.reachable_bins()
        lockstep = pretrain_shard(bins, 23, bank, specs["hp"], **kwargs)
        reference, steps = sequential_table(bank.goals, 23, specs, rewards, kwargs["max_steps"])
        assert lockstep == reference
        assert 0 in steps  # the start-pose goal
        if loose:
            # lanes finish at different steps, some inside the step limit
            assert len(set(steps) - {0, kwargs["max_steps"]}) > 1

    def test_every_shard_of_a_plan_equals_its_sequential_episodes(self, specs, bank):
        bins = bank.reachable_bins()
        for shard in (bins[i::3] for i in range(3)):
            lockstep = pretrain_shard(shard, 4, bank, specs["hp"], **shard_kwargs(specs))
            reference, _ = sequential_table(
                {b: bank.goals_for(b) for b in shard}, 4, specs, specs["rewards"], 60
            )
            assert lockstep == reference

    def test_goal_filed_under_another_bin_is_rejected(self, specs, small_bank):
        b = small_bank.reachable_bins()[0]
        with pytest.raises(ValueError, match="encodes to goal bin"):
            train_lockstep({b + 1: small_bank.goals_for(b)}, 0, specs["hp"],
                           **shard_kwargs(specs))


class TestMerge:
    def test_merge_nothing_is_empty(self):
        assert merge([]).entry_count() == 0

    def test_merge_single_is_identity(self):
        q = trained_table([(100, 3, 1.5), (2048, 7, -2.0)])
        assert merge([q]) == q

    def test_merge_two_disjoint_is_union(self):
        a = trained_table([(3 * N_TIP_STATES + 5, 0, 1.0), (3 * N_TIP_STATES + 6, 1, 2.0)])
        b = trained_table([(7 * N_TIP_STATES + 5, 0, 3.0)])
        m = merge([a, b])
        assert m.entry_count() == 3
        assert m.trained_count() == a.trained_count() + b.trained_count()
        assert m.get(3 * N_TIP_STATES + 5, 0) == 1.0
        assert m.get(7 * N_TIP_STATES + 5, 0) == 3.0

    def test_shared_goal_bin_raises(self):
        a = trained_table([(5 * N_TIP_STATES + 1, 0, 1.0)])
        b = trained_table([(5 * N_TIP_STATES + 2, 0, 2.0)])
        with pytest.raises(MergeConflictError):
            merge([a, b])

    def test_duplicate_untrained_entries_raise(self):
        a = QTable()
        a.set_entry(40, 2, 1.0, 0)
        b = QTable()
        b.set_entry(40, 2, 2.0, 0)
        with pytest.raises(MergeConflictError):
            merge([a, b])

    def test_action_count_mismatch_raises(self):
        with pytest.raises(MergeConflictError):
            merge([QTable(32), QTable(4)])


class TestPretrainPipeline:
    def test_smoke_run_writes_a_loadable_table(self, specs, tmp_path):
        out = tmp_path / "table.qt"
        table, summary = pretrain(
            specs["params"], specs["hp"], specs["actions"], specs["rewards"],
            specs["binning"], quota=1, seed=11, budget=40_000, max_steps=60,
            out_path=out,
        )
        assert summary.goals_run == summary.reachable_bins
        assert summary.unreachable_bins == N_GOAL_BINS - summary.reachable_bins
        assert summary.trained_entries > 0
        assert summary.augmented_entries > 0
        assert summary.total_entries == table.entry_count()
        assert load(out) == table
        text = summary.format()
        assert "goals run" in text and "wall time" in text
        stages = (summary.bank_s, summary.train_s, summary.augment_s, summary.save_s)
        assert all(t >= 0.0 for t in stages)
        assert sum(stages) <= summary.wall_time_s
        assert "stage times: goal bank" in text

    def test_chunk_size_does_not_change_the_file(self, specs, tmp_path):
        """Bins trained in chunks of 1 and 3, then merged, give pretrain()'s bytes."""
        out, bank_path = tmp_path / "all.qt", tmp_path / "bank.hpnb"
        pretrain(
            specs["params"], specs["hp"], specs["actions"], specs["rewards"],
            specs["binning"], quota=1, seed=13, budget=30_000, max_steps=50,
            out_path=out, bank_path=bank_path,
        )
        bank = load_goal_bank(
            bank_path, seed=13, quota=1, budget=30_000,
            fingerprint=config_fingerprint(specs["params"], specs["binning"]),
        )
        bins = bank.reachable_bins()
        for size in (1, 3):
            partials = [
                pretrain_shard(bins[i:i + size], 13, bank, specs["hp"],
                               **shard_kwargs(specs, max_steps=50))
                for i in range(0, len(bins), size)
            ]
            chunked = tmp_path / f"chunk{size}.qt"
            save(augment(merge(partials), radius=1), chunked)
            assert chunked.read_bytes() == out.read_bytes()

    def test_small_pretrain_file_matches_frozen_digest(self, specs, tmp_path):
        out = tmp_path / "golden.qt"
        pretrain(
            specs["params"], specs["hp"], specs["actions"], specs["rewards"],
            specs["binning"], quota=1, seed=13, budget=30_000, max_steps=50,
            out_path=out,
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SMALL_PRETRAIN_SHA256

    def test_rerun_same_seed_byte_identical(self, specs, tmp_path):
        outs = []
        for run in range(2):
            out = tmp_path / f"r{run}.qt"
            pretrain(
                specs["params"], specs["hp"], specs["actions"], specs["rewards"],
                specs["binning"], quota=1, seed=21, budget=30_000, max_steps=50,
                out_path=out,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bank_cache_reused_and_guarded(self, specs, tmp_path):
        bank_path = tmp_path / "bank.hpnb"
        kwargs = dict(quota=1, seed=31, budget=30_000, max_steps=40, bank_path=bank_path)
        args = (specs["params"], specs["hp"], specs["actions"], specs["rewards"], specs["binning"])
        table1, _ = pretrain(*args, **kwargs)
        cached = bank_path.read_bytes()
        table2, _ = pretrain(*args, **kwargs)
        assert bank_path.read_bytes() == cached
        assert table1 == table2
        with pytest.raises(GoalBankError):
            pretrain(*args, **{**kwargs, "quota": 2})

    def test_large_runs_need_explicit_opt_in(self, specs):
        args = (specs["params"], specs["hp"], specs["actions"], specs["rewards"], specs["binning"])
        with pytest.raises(ValueError, match="allow_large_run"):
            pretrain(*args, quota=489, seed=0)
        # with the flag the gate opens; the one-sample budget then fails in sampling
        with pytest.raises(GoalBankError):
            pretrain(*args, quota=489, seed=0, budget=1, allow_large_run=True)

    @pytest.mark.parametrize(
        "kwargs",
        [{"quota": 0}, {"workers": 0}, {"seed": -1}, {"max_steps": 0},
         {"augment_radius": 0}, {"workers": 2}, {"budget": 0}],
    )
    def test_invalid_arguments_rejected(self, specs, kwargs, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("arguments must be checked before sampling starts")

        # hpnarm.pretrain as a package attribute is the function, not the module
        module = importlib.import_module("hpnarm.pretrain")
        monkeypatch.setattr(module, "build_goal_bank", no_sampling)
        args = (specs["params"], specs["hp"], specs["actions"], specs["rewards"], specs["binning"])
        full = {"quota": 1, "seed": 0, **kwargs}
        with pytest.raises(ValueError):
            pretrain(*args, **full)
