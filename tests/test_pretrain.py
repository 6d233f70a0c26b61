import hashlib
import importlib
import itertools
import re
import warnings
import zlib

import numpy as np
import pytest

from hpnarm import (ArmParams, BinningSpec, GoalPose, PressureRangeError, episode, qtable,
                    rest_tip_origin)
from hpnarm.config import EvalConfig, PretrainConfig, RunConfig
from hpnarm.episode import NominalPlant, RewardSpec, _segment_lattice, run_episode, train_lockstep
from hpnarm.evalrun import evaluate, sample_goals
from hpnarm.pretrain import (
    GoalBank,
    GoalBankError,
    MergeConflictError,
    build_goal_bank,
    default_sample_budget,
    merge,
    pretrain,
    pretrain_shard,
)
from hpnarm.qtable import (
    FLAG_TRAINED,
    N_ACTIONS,
    ActionSpec,
    HyperParams,
    QTable,
    augment,
    load,
    save,
)
from hpnarm.state import N_GOAL_BINS, N_TIP_STATES, encode_goal_prefix
from oracles import oracle_goal_bank, write_goal_bank
from test_qtable import assert_entries_in_key_order

# Frozen reachable-bin count for default arm/binning at quota=10, budget=1e6
# (an explicit budget, not the default). Measured identically (64) over six
# disjoint seed streams before freezing.
REACHABLE_BINS_AT_QUOTA_10 = 64

# sha256 of the .hpnq file that pretrain writes at default specs with quota 1,
# seed 13, budget 30,000 and max_steps 50. Frozen from the lockstep engine's
# first release; any change to the bytes a pretrain writes must update it
# on purpose.
SMALL_PRETRAIN_SHA256 = "999f09bba45f809b4cf20a9e164fab7d64f4d4211315bbc2cc4dadcfbd0c85f6"

# sha256 of the .hpnq file that pretrain() writes at RunConfig defaults, by seed.
# These are the product tables; a change to the default budget, the goal bank or
# training that moves any of them must update it on purpose.
DEFAULT_TABLE_SHA256 = {
    0: "de8b990a375d77872e4fd65859a2effadd53e79c4c019a2271c6deb22cc3ae40",
    1: "3a1e04b433cd7e65e0b581016f3438c9b9768ccb24c0b2b6e27a2c3643d43374",
    401: "9d4895c6040563f55d22c9cab225a7762a6bff23c8faba63668cd6921c30d4da",
}

# sha256 of save(augment(load(seed-0 default table), radius)), by radius: the
# benchmark's augment path. Radius 1 repeats the in-pipeline augment and so
# reproduces the default file; radius >= 2 gives targets with 8 or more
# contributors, where np.add.reduceat sums pairwise.
AUGMENTED_DEFAULT_TABLE_SHA256 = {
    1: "de8b990a375d77872e4fd65859a2effadd53e79c4c019a2271c6deb22cc3ae40",
    2: "33a29f9106b07832587637d908552299526be1da03798eb7e365eeb969b6493c",
    3: "1400e7c6728e94a0ede67a6266ba2ada6edf0b474fec482070ecbacf683f0eb1",
}

# sha256 of the bank as oracles.write_goal_bank lays it out (the layout of the
# retired .hpnb cache file; bank_file_digest), with the default config's
# fingerprint, for the small_bank setup (seed 5, quota 2, budget 60,000) and for
# seed 0 at the default quota 10 and the default budget. SMALL_BANK_SHA256 was
# frozen while the bank was still held as GoalPose tuples; the file bytes must
# not move with its representation. DEFAULT_BANK_SHA256 was re-frozen when the
# default budget went from 1e6 to 400k: the header records the budget and
# samples_used, while the bins and goal rows stay those of the 1e6 bank
# (test_default_bank_holds_the_goals_of_a_1e6_bank).
SMALL_BANK_SHA256 = "cbe4cb04b116c95d22bdb101e12db5d5ed54fa639f5bb5e449b01b79f8e557c8"
DEFAULT_BANK_SHA256 = "2532d401b8a6e920fec9d5e0edeb24724b4f7aa1942f9f73342c82852c577d90"


# sha256 over the raw arrays evaluate() returns for the seed-0 default table on the
# default suite plus 8 sample_goals goals (rng seed 3), nominal then perturbed plant:
# per goal, pos_series, rot_series and success bytes and the three selection counts.
# The CSVs round to %.6f; this pins every bit of the evaluation itself.
DEFAULT_EVAL_SHA256 = "2f061a35a9b0f5e0f0b8102612da5a506dc03e0829eb80f66867835ac32049f3"


def eval_digest(table, cfg):
    goals = list(cfg.eval_goals()) + sample_goals(cfg.arm, 8, np.random.default_rng(3))
    digest = hashlib.sha256()
    for plant_kind in ("nominal", "perturbed"):
        report = evaluate(
            table, goals, params=cfg.arm, action_spec=cfg.action, reward_spec=cfg.reward,
            binning=cfg.binning, plant_kind=plant_kind, perturbed_cfg=cfg.perturbed,
        )
        for r in report.results:
            for a in (r.pos_series, r.rot_series, r.success):
                digest.update(np.ascontiguousarray(a).tobytes())
            counts = (r.trained_selections, r.augmented_selections, r.empty_selections)
            digest.update(np.array(counts, dtype=np.int64).tobytes())
    return digest.hexdigest()


def bank_rng(seed):
    return np.random.default_rng(np.random.SeedSequence((seed, 1)))


def bank_file_digest(bank, path, *, seed, budget, params, binning):
    """sha256 of `bank` written to `path` in the layout the bank digests were frozen in."""
    fingerprint = zlib.crc32(repr((params, binning)).encode("utf-8"))
    write_goal_bank(path, bank.bins, bank.goals, seed=seed, quota=bank.quota, budget=budget,
                    fingerprint=fingerprint, samples_used=bank.samples_used)
    return hashlib.sha256(path.read_bytes()).hexdigest()


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


@pytest.fixture(scope="module")
def default_table_file(tmp_path_factory):
    """The .hpnq file pretrain() writes at RunConfig defaults, built once per seed."""
    built = {}

    def build(seed):
        if seed not in built:
            cfg = RunConfig()
            p = cfg.pretrain
            out = tmp_path_factory.mktemp("default") / f"default-{seed}.hpnq"
            pretrain(
                cfg.arm, cfg.hyper, cfg.action, cfg.reward, cfg.binning,
                quota=p.quota, seed=seed, budget=p.budget, max_steps=p.max_steps,
                augment_radius=p.augment_radius, out_path=out,
            )
            built[seed] = out
        return built[seed]

    return build


def shard_kwargs(specs, max_steps=60):
    return dict(
        params=specs["params"],
        action_spec=specs["actions"],
        reward_spec=specs["rewards"],
        binning=specs["binning"],
        max_steps=max_steps,
    )


def trained_table(entries):
    """The table from_records builds of (state, action, value) entries, each trained."""
    states, actions, values = zip(*entries)
    return QTable.from_records(states, actions, [FLAG_TRAINED] * len(entries), values)


class TestBuildGoalBank:
    def test_quota_one_fills_every_reachable_bin_exactly_once(self, specs):
        bank = build_goal_bank(specs["params"], 1, 60_000, bank_rng(0), binning=specs["binning"])
        assert bank.bins.size
        assert bank.goals.shape == (len(bank.bins), 1, 6)

    def test_exact_balance_at_quota(self, small_bank):
        assert small_bank.quota == 2
        assert small_bank.goals.shape == (len(small_bank.bins), 2, 6)
        assert small_bank.goal_count() == 2 * len(small_bank.bins)

    def test_stored_goals_reencode_to_their_bin(self, specs, small_bank):
        origin = rest_tip_origin(specs["params"].l0_mm)
        for b, rows in zip(small_bank.bins, small_bank.goals):
            for row in rows:
                assert encode_goal_prefix(row[:3], row[3:], origin, specs["binning"]) == b

    def test_bins_increase_and_arrays_are_read_only(self, small_bank):
        assert (np.diff(small_bank.bins) > 0).all()
        for a in (small_bank.bins, small_bank.goals):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_partial_bins_are_dropped_when_budget_runs_out(self, specs):
        bank = build_goal_bank(specs["params"], 3, 2_000, bank_rng(1), binning=specs["binning"])
        assert bank.samples_used == 2_000
        assert len(bank.bins) < N_GOAL_BINS
        assert bank.goals.shape == (len(bank.bins), 3, 6)

    def test_raises_when_no_bin_reaches_quota(self, specs):
        with pytest.raises(GoalBankError):
            build_goal_bank(specs["params"], 2, 1, bank_rng(2), binning=specs["binning"])

    def test_same_rng_stream_same_bank(self, specs, tmp_path):
        digests = []
        for run in range(2):
            bank = build_goal_bank(
                specs["params"], 1, 30_000, bank_rng(9), binning=specs["binning"]
            )
            digests.append(bank_file_digest(
                bank, tmp_path / f"bank{run}.hpnb", seed=9, budget=30_000,
                params=specs["params"], binning=specs["binning"],
            ))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("kwargs", [
        {"quota": 0}, {"budget": 0},
        # budget=True once drew one sample and then blamed samples_used; the
        # floats raised numpy's TypeError.
        {"quota": 1.5}, {"quota": True}, {"budget": True}, {"budget": 20_000.0},
        {"budget": 1.5},
    ])
    def test_bad_arguments_rejected(self, specs, kwargs):
        full = {"quota": 1, "budget": 100, **kwargs}
        rng, untouched = bank_rng(0), bank_rng(0)
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be "):
            build_goal_bank(
                specs["params"], full["quota"], full["budget"], rng,
                binning=specs["binning"],
            )
        assert rng.bit_generator.state == untouched.bit_generator.state

    def test_reachable_bin_count_regression(self, specs):
        bank = build_goal_bank(
            specs["params"], 10, 1_000_000, bank_rng(2026), binning=specs["binning"]
        )
        count = len(bank.bins)
        assert abs(count - REACHABLE_BINS_AT_QUOTA_10) <= 0.05 * REACHABLE_BINS_AT_QUOTA_10


# hpnarm.pretrain as a package attribute is the function, not the module.
pretrain_module = importlib.import_module("hpnarm.pretrain")


class CountingGenerator(np.random.Generator):
    """The goal-bank stream of `seed`, recording the row count of each draw."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(np.random.SeedSequence((seed, 1))))
        self.rows_drawn = []

    def random(self, size=None, *args, **kwargs):
        if size is not None:
            self.rows_drawn.append(size[0])
        return super().random(size, *args, **kwargs)


def assert_bank_matches_oracle(bank, oracle):
    goals, reachable, used = oracle
    assert bank.samples_used == used
    assert bank.bins.tolist() == np.flatnonzero(reachable).tolist() == sorted(goals)
    for b, got in zip(bank.bins, bank.goals):
        assert got.tobytes() == goals[b].tobytes(), b


def every_row_exact(positions, directions, sure, guards, origin, binning):
    """A bin screen that is sure of no row, so every row goes through exact FK."""
    return np.zeros(len(sure), dtype=np.int64), np.zeros_like(sure)


class TestGoalBankMatchesOracle:
    """The screened goal bank equals running every row through exact FK, bit for bit."""

    @pytest.mark.parametrize("seed, batch_size, budget", [
        *(pytest.param(seed, batch_size, 25_000, id=f"{seed}-{batch_size}")
          for seed in (0, 7, 401) for batch_size in (1000, 3000, 8192)),
        # The first and last batch: one short batch, and one row past a whole batch.
        *(pytest.param(0, 8192, budget, id=f"budget-{budget}") for budget in (5_000, 8_193)),
    ])
    def test_bank_and_rng_state_match_the_sequential_loop(self, specs, monkeypatch, seed,
                                                          batch_size, budget):
        monkeypatch.setattr(pretrain_module, "GOAL_SAMPLE_BATCH", batch_size)
        rng, oracle_rng = bank_rng(seed), bank_rng(seed)
        bank = build_goal_bank(specs["params"], 2, budget, rng, binning=specs["binning"])
        oracle = oracle_goal_bank(specs["params"], specs["binning"], 2, budget, oracle_rng,
                                  batch_size)
        assert_bank_matches_oracle(bank, oracle)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("params, binning", [
        # Straight segments and the band around k_eps on most rows.
        pytest.param(ArmParams(k_eps=0.02), BinningSpec(), id="large-k_eps"),
        # A bend angle near 1 rad, where the guards are thinnest.
        pytest.param(ArmParams(a_gain=5e-5), BinningSpec(d_max_mm=30.0), id="stiff"),
        pytest.param(ArmParams(a_gain=0.01, l0_mm=900.0, p_max_kpa=20.0),
                     BinningSpec(phi_egoal_edges_rad=(0.5, 0.5001, 0.5002), d_max_mm=5.0),
                     id="long-narrow-edges"),
    ])
    def test_other_arms_and_binnings_match_the_sequential_loop(self, params, binning):
        rng, oracle_rng = bank_rng(3), bank_rng(3)
        bank = build_goal_bank(params, 2, 20_000, rng, binning=binning)
        oracle = oracle_goal_bank(params, binning, 2, 20_000, oracle_rng,
                                  pretrain_module.GOAL_SAMPLE_BATCH)
        assert_bank_matches_oracle(bank, oracle)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("batch_size", [1000, 3000])
    def test_the_whole_budget_is_drawn_after_every_bin_fills(self, specs, monkeypatch,
                                                             batch_size):
        # Bins spread by the tip position's low digits, so all 1024 fill long
        # before the budget ends; the bank still draws every row of it.
        def scattered_bins(positions, directions, origin, binning):
            return (np.abs(positions[:, 0]) * 1e6).astype(np.int64) % N_GOAL_BINS

        monkeypatch.setattr(pretrain_module, "encode_goal_prefix_batch", scattered_bins)
        monkeypatch.setattr(importlib.import_module("hpnarm.state"),
                            "encode_goal_prefix_batch", scattered_bins)
        monkeypatch.setattr(pretrain_module, "screen_goal_prefix_batch", every_row_exact)
        monkeypatch.setattr(pretrain_module, "GOAL_SAMPLE_BATCH", batch_size)
        rng, oracle_rng = CountingGenerator(3), bank_rng(3)
        budget = 20_000  # the last bin fills at sample 6,522
        bank = build_goal_bank(specs["params"], 1, budget, rng, binning=specs["binning"])
        oracle = oracle_goal_bank(specs["params"], specs["binning"], 1, budget, oracle_rng,
                                  batch_size)
        assert len(bank.bins) == N_GOAL_BINS
        assert sum(rng.rows_drawn) == budget == bank.samples_used
        assert_bank_matches_oracle(bank, oracle)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert rng.random() == oracle_rng.random()

    def test_batches_are_drawn_in_stream_order(self, specs, monkeypatch):
        monkeypatch.setattr(pretrain_module, "GOAL_SAMPLE_BATCH", 1000)
        rng = CountingGenerator(0)
        build_goal_bank(specs["params"], 1, 9_500, rng, binning=specs["binning"])
        assert rng.rows_drawn == [1000] * 9 + [500]

    def test_only_rows_that_can_be_filed_go_exact(self, specs, monkeypatch):
        # Every bin needs a goal while the first batch is drawn, so all of it
        # goes exact. Later batches leave out the rows sure to bin to a full bin.
        exact_rows = []
        tip_batch = pretrain_module.tip_batch

        def counted(pressures, params):
            exact_rows.append(len(pressures))
            return tip_batch(pressures, params)

        monkeypatch.setattr(pretrain_module, "tip_batch", counted)
        bank = build_goal_bank(specs["params"], 1, 60_000, bank_rng(0), binning=specs["binning"])
        assert len(exact_rows) == 8  # one call per batch of GOAL_SAMPLE_BATCH rows
        assert exact_rows[0] == pretrain_module.GOAL_SAMPLE_BATCH
        assert 0 < max(exact_rows[1:]) < pretrain_module.GOAL_SAMPLE_BATCH // 10
        assert len(bank.bins) > 0

    def test_a_failing_exact_fk_call_raises(self, specs, monkeypatch):
        calls = itertools.count()
        tip_batch = pretrain_module.tip_batch

        def failing(pressures, params):
            if next(calls) == 2:
                raise FloatingPointError("exact FK failed")
            return tip_batch(pressures, params)

        monkeypatch.setattr(pretrain_module, "tip_batch", failing)
        monkeypatch.setattr(pretrain_module, "GOAL_SAMPLE_BATCH", 1000)
        with pytest.raises(FloatingPointError, match="exact FK failed"):
            build_goal_bank(specs["params"], 1, 60_000, bank_rng(0), binning=specs["binning"])

    def test_a_failing_filing_loop_raises(self, specs, monkeypatch):
        # The third batch files its goals past the last goal bin, so the filing
        # loop raises a few batches into the budget.
        calls = itertools.count()
        encode = pretrain_module.encode_goal_prefix_batch

        def out_of_range(*args):
            bins = encode(*args)
            return bins + N_GOAL_BINS if next(calls) == 2 else bins

        monkeypatch.setattr(pretrain_module, "encode_goal_prefix_batch", out_of_range)
        monkeypatch.setattr(pretrain_module, "screen_goal_prefix_batch", every_row_exact)
        monkeypatch.setattr(pretrain_module, "GOAL_SAMPLE_BATCH", 1000)
        with pytest.raises(IndexError):
            build_goal_bank(specs["params"], 1, 60_000, bank_rng(0), binning=specs["binning"])

    def test_pressures_out_of_range_are_refused_before_any_fk(self, specs, monkeypatch):
        # Every drawn row is range-checked, also the rows the screen leaves out.
        class Overdrawn(np.random.Generator):
            def random(self, size=None, *args, **kwargs):
                return super().random(size, *args, **kwargs) + 1.0

        def refuse(*args):
            raise AssertionError("FK ran on an out-of-range batch")

        monkeypatch.setattr(pretrain_module, "tip_screen", refuse)
        monkeypatch.setattr(pretrain_module, "tip_batch", refuse)
        with pytest.raises(PressureRangeError, match="row 0 segment 0 chamber 0"):
            build_goal_bank(specs["params"], 1, 100, Overdrawn(np.random.PCG64(0)),
                            binning=specs["binning"])


_ROW = [0.0, 0.0, 300.0, 0.0, 0.0, 1.0]


class TestGoalBankValidation:
    @pytest.mark.parametrize("bins, goals, used, match", [
        pytest.param([3], [[_ROW], [_ROW]], 10, "do not fit", id="more-rows-than-bins"),
        pytest.param([3, 4], [[_ROW]], 10, "do not fit", id="fewer-rows-than-bins"),
        pytest.param([3], [[_ROW[:3]]], 10, "do not fit", id="short-row"),
        pytest.param([3], np.zeros((1, 0, 6)), 10, "quota", id="quota-0"),
        pytest.param([N_GOAL_BINS], [[_ROW]], 10, "out of range", id="bin-1024"),
        pytest.param([-1], [[_ROW]], 10, "out of range", id="bin-negative"),
        pytest.param([4, 3], [[_ROW], [_ROW]], 10, "strictly increasing", id="unsorted-bins"),
        pytest.param([3], [[_ROW]], -1, "samples_used", id="negative-samples"),
        # A cast to int64 once truncated these to bin 3 and took 1.5 samples.
        pytest.param([3.5], [[_ROW]], 10, "goal bins must be integers", id="float-bin"),
        pytest.param([3.0], [[_ROW]], 10, "goal bins must be integers", id="integral-float-bin"),
        pytest.param([True], [[_ROW]], 10, "goal bins must be integers", id="bool-bin"),
        pytest.param([3], [[_ROW]], 1.5, "samples_used must be an integer", id="float-samples"),
        pytest.param([3], [[_ROW]], True, "samples_used must be an integer", id="bool-samples"),
        # Only a loaded bank's rows were checked for these; a built one was taken as given.
        pytest.param([3], [[[np.nan, 0.0, 300.0, 0.0, 0.0, 1.0]]], 10, "non-finite",
                     id="nan-position"),
        pytest.param([3], [[[0.0, 0.0, 300.0, 0.0, 0.0, 2.0]]], 10, "unit", id="long-direction"),
        # The rest were checked only when the retired .hpnb loader read a bank;
        # the constructor is now the one gate every bank passes.
        pytest.param([3, 65535], [[_ROW], [_ROW]], 10, "out of range", id="bin-65535"),
        pytest.param([3, 3], [[_ROW], [_ROW]], 10, "strictly increasing", id="duplicate-bins"),
        pytest.param([3], [_ROW], 10, "do not fit", id="rows-without-a-quota-axis"),
        pytest.param([3], [[[0.0, 0.0, 300.0, np.inf, 0.0, 0.0]]], 10, "non-finite",
                     id="inf-direction"),
        pytest.param([3], [[[0.0, 0.0, 300.0, 0.0, 0.0, 0.0]]], 10, "unit", id="zero-direction"),
        # Its squared norm overflows to inf; the check must still call it not unit.
        pytest.param([3], [[[0.0, 0.0, 300.0, 1e200, 0.0, 0.0]]], 10, "unit",
                     id="overflowing-direction"),
    ])
    def test_inconsistent_arrays_rejected(self, bins, goals, used, match):
        with pytest.raises(ValueError, match=match):
            GoalBank(bins=bins, goals=goals, samples_used=used)

    def test_arrays_are_copied(self):
        bins, goals = np.array([3]), np.array([[_ROW]])
        bank = GoalBank(bins=bins, goals=goals, samples_used=0)
        goals[0, 0, 0] = 1.0
        assert bins.flags.writeable and bank.goals[0, 0, 0] == 0.0
        assert bank.quota == 1 and bank.goal_count() == 1


def _episode(max_steps):
    params, goal = ArmParams(), GoalPose(np.array([0.0, 0.0, 300.0]), np.array([0.0, 0.0, 1.0]))
    return run_episode(NominalPlant(params), goal, QTable(), HyperParams(), params=params,
                       action_spec=ActionSpec(), reward_spec=RewardSpec(),
                       binning=BinningSpec(), max_steps=max_steps,
                       rng=np.random.default_rng(0))


# Count arguments that no parametrized test of their own entry point covers, as
# (argument, its lower bound, a call passing the value). Each shares the count
# rule of qtable.check_integers; pretrain, build_goal_bank, the lockstep engines,
# evaluate, sample_goals, augment and GoalBank have their cases in their own tests.
COUNT_ARGUMENTS = {
    "PretrainConfig.quota": ("quota", 1, lambda v: PretrainConfig(quota=v)),
    "PretrainConfig.budget": ("budget", 1, lambda v: PretrainConfig(budget=v)),
    "PretrainConfig.seed": ("seed", 0, lambda v: PretrainConfig(seed=v)),
    "PretrainConfig.max_steps": ("max_steps", 1, lambda v: PretrainConfig(max_steps=v)),
    "PretrainConfig.augment_radius": ("augment_radius", 1,
                                      lambda v: PretrainConfig(augment_radius=v)),
    "EvalConfig.repetitions": ("repetitions", 1, lambda v: EvalConfig(repetitions=v)),
    "EvalConfig.max_steps": ("max_steps", 1, lambda v: EvalConfig(max_steps=v)),
    "EvalConfig.seed": ("seed", 0, lambda v: EvalConfig(seed=v)),
    # max_steps=True once ran a one-step episode.
    "run_episode.max_steps": ("max_steps", 1, _episode),
}


@pytest.mark.parametrize("bad", ["float", "bool", "below"])
@pytest.mark.parametrize("where", COUNT_ARGUMENTS)
def test_count_arguments_refuse_floats_bools_and_values_below_their_bound(where, bad):
    name, low, call = COUNT_ARGUMENTS[where]
    value, words = {"float": (1.5, "an integer"), "bool": (True, "an integer"),
                    "below": (low - 1, f">= {low}")}[bad]
    with pytest.raises(ValueError, match=f"^{name} must be {words}"):
        call(value)


class TestBankDigest:
    def test_small_bank_file_matches_frozen_digest(self, specs, small_bank, tmp_path):
        digest = bank_file_digest(small_bank, tmp_path / "small.hpnb", seed=5, budget=60_000,
                                  params=specs["params"], binning=specs["binning"])
        assert digest == SMALL_BANK_SHA256

    @pytest.fixture(scope="class")
    def default_bank(self, specs):
        return build_goal_bank(specs["params"], 10, default_sample_budget(10), bank_rng(0),
                               binning=specs["binning"])

    def test_default_bank_file_matches_frozen_digest(self, specs, default_bank, tmp_path):
        assert len(default_bank.bins) == REACHABLE_BINS_AT_QUOTA_10
        digest = bank_file_digest(default_bank, tmp_path / "default.hpnb", seed=0,
                                  budget=default_sample_budget(10), params=specs["params"],
                                  binning=specs["binning"])
        assert digest == DEFAULT_BANK_SHA256

    def test_default_bank_holds_the_goals_of_a_1e6_bank(self, specs, default_bank):
        # The default budget sits past the plateau: every draw after it files
        # no goal, so only samples_used (and the header's budget) differ.
        bank_1e6 = build_goal_bank(specs["params"], 10, 1_000_000, bank_rng(0),
                                   binning=specs["binning"])
        assert default_bank.samples_used == default_sample_budget(10) == 400_000
        assert bank_1e6.samples_used == 1_000_000
        assert default_bank.bins.tobytes() == bank_1e6.bins.tobytes()
        assert default_bank.goals.tobytes() == bank_1e6.goals.tobytes()


class TestPretrainShard:
    def test_empty_shard_gives_empty_table(self, specs, small_bank):
        q = pretrain_shard((), 5, small_bank, specs["hp"], **shard_kwargs(specs))
        assert q.entry_count() == 0

    def test_trained_states_stay_inside_the_shard_bin(self, specs, small_bank):
        b = int(small_bank.bins[0])
        q = pretrain_shard((b,), 5, small_bank, specs["hp"], **shard_kwargs(specs))
        states, _, flags, _ = q.record_arrays()
        assert q.trained_count() > 0
        assert ((flags & FLAG_TRAINED) != 0).all()
        assert (states // N_TIP_STATES == b).all()

    def test_same_shard_same_seed_bit_identical(self, specs, small_bank):
        bins = small_bank.bins[:3]
        a = pretrain_shard(bins, 17, small_bank, specs["hp"], **shard_kwargs(specs))
        b = pretrain_shard(bins, 17, small_bank, specs["hp"], **shard_kwargs(specs))
        assert a == b

    def test_bins_are_taken_in_order_once(self, specs, small_bank):
        bins = small_bank.bins.tolist()[:3]
        a = pretrain_shard(bins, 17, small_bank, specs["hp"], **shard_kwargs(specs))
        b = pretrain_shard(bins[::-1] + bins[:1], 17, small_bank, specs["hp"],
                           **shard_kwargs(specs))
        assert a == b

    def test_unknown_bin_raises(self, specs, small_bank):
        missing = sorted(set(range(N_GOAL_BINS)) - set(small_bank.bins.tolist()))[0]
        with pytest.raises(KeyError, match=f"goal bin {missing} "):
            pretrain_shard((int(small_bank.bins[0]), missing), 5, small_bank,
                           specs["hp"], **shard_kwargs(specs))

    @pytest.mark.parametrize("offset", [0.5, 0.0])
    def test_bins_that_are_not_integers_are_refused(self, specs, small_bank, offset):
        # pretrain_shard([561.5]) once trained bin 561.
        b = int(small_bank.bins[0])
        with pytest.raises(ValueError, match="goal bins must be integers"):
            pretrain_shard([b + offset], 5, small_bank, specs["hp"], **shard_kwargs(specs))
        with pytest.raises(ValueError, match="goal bins must be integers"):
            pretrain_shard([True], 5, small_bank, specs["hp"], **shard_kwargs(specs))

    def test_different_seeds_differ(self, specs, small_bank):
        bins = small_bank.bins[:3]
        a = pretrain_shard(bins, 17, small_bank, specs["hp"], **shard_kwargs(specs))
        b = pretrain_shard(bins, 18, small_bank, specs["hp"], **shard_kwargs(specs))
        assert a != b


def sequential_table(bins, goals, seed, specs, reward_spec, max_steps):
    """The reference: run_episode(train=True) over sorted bins and goal indices."""
    q = QTable()
    plant = NominalPlant(specs["params"])
    steps = []
    for b, rows in sorted(zip(bins, goals), key=lambda item: item[0]):
        for k, row in enumerate(rows):
            log = run_episode(
                plant, GoalPose(position=row[:3], direction=row[3:]), q, specs["hp"],
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
        at_start = np.concatenate([start[:3, 3], start[:3, 2]])
        nearby = at_start + (0.0, 0.0, 10.0, 0.0, 0.0, 0.0)
        origin = rest_tip_origin(params.l0_mm)
        start_bin = encode_goal_prefix(at_start[:3], at_start[3:], origin, specs["binning"])
        assert encode_goal_prefix(nearby[:3], nearby[3:], origin, specs["binning"]) == start_bin
        others = small_bank.bins != start_bin
        bins = np.append(small_bank.bins[others], start_bin)
        goals = np.concatenate([small_bank.goals[others], [[nearby, at_start]]])
        order = np.argsort(bins)
        return GoalBank(bins=bins[order], goals=goals[order], samples_used=0)

    @pytest.mark.parametrize("loose", [False, True], ids=["default-reward", "loose-reward"])
    def test_shard_table_equals_sequential_episodes(self, specs, bank, loose):
        rewards = self.LOOSE if loose else specs["rewards"]
        kwargs = {**shard_kwargs(specs), "reward_spec": rewards}
        bins = bank.bins.tolist()
        lockstep = pretrain_shard(bins, 23, bank, specs["hp"], **kwargs)
        reference, steps = sequential_table(bank.bins, bank.goals, 23, specs, rewards,
                                            kwargs["max_steps"])
        assert lockstep == reference
        assert 0 in steps  # the start-pose goal
        if loose:
            # lanes finish at different steps, some inside the step limit
            assert len(set(steps) - {0, kwargs["max_steps"]}) > 1

    @pytest.mark.parametrize("override", [
        # 0.3 kPa steps reach 857 chamber pressures: the lanes skip the lattice.
        # They move the tip slowly, so only a looser reward ends episodes early.
        {"actions": ActionSpec(delta_p_kpa=0.3),
         "rewards": RewardSpec(success_pos_mm=400.0, success_rot_deg=180.0)},
        {"hp": HyperParams(epsilon=1.0)},
        {"hp": HyperParams(epsilon=0.5), "actions": ActionSpec(delta_p_kpa=10.0)},
    ], ids=["closure-past-the-bound", "explore-every-step", "closure-of-7"])
    def test_both_step_paths_equal_sequential_episodes(self, specs, bank, override):
        specs = {**specs, "rewards": self.LOOSE, **override}
        lattice = _segment_lattice(specs["params"], specs["actions"])
        assert (lattice is None) == (specs["actions"].delta_p_kpa == 0.3)
        kwargs = {**shard_kwargs(specs), "reward_spec": specs["rewards"]}
        lockstep = pretrain_shard(bank.bins, 29, bank, specs["hp"], **kwargs)
        reference, steps = sequential_table(bank.bins, bank.goals, 29, specs, specs["rewards"],
                                            kwargs["max_steps"])
        assert lockstep == reference
        assert len(set(steps) - {0, kwargs["max_steps"]}) > 1

    def test_every_shard_of_a_plan_equals_its_sequential_episodes(self, specs, bank):
        for i in range(3):
            shard = bank.bins[i::3]
            lockstep = pretrain_shard(shard, 4, bank, specs["hp"], **shard_kwargs(specs))
            reference, _ = sequential_table(
                shard, bank.goals[i::3], 4, specs, specs["rewards"], 60
            )
            assert lockstep == reference

    def test_goal_filed_under_another_bin_is_rejected(self, specs, small_bank):
        b = small_bank.bins[0]
        with pytest.raises(ValueError, match=f"goal 0 of bin {b + 1} encodes to goal bin {b}"):
            train_lockstep([b + 1], small_bank.goals[:1], 0, specs["hp"],
                           **shard_kwargs(specs))

    def test_first_mismatch_in_bin_then_goal_order_is_reported(self, specs, small_bank):
        bins = small_bank.bins[:4]
        goals = small_bank.goals[:4].copy()
        goals[1, 1] = goals[2, 0] = small_bank.goals[0, 0]  # both encode to bins[0]
        with pytest.raises(ValueError,
                           match=f"goal 1 of bin {bins[1]} encodes to goal bin {bins[0]}$"):
            train_lockstep(bins, goals, 0, specs["hp"], **shard_kwargs(specs))

    @pytest.mark.parametrize("n_bins, n_rows", [(3, 2), (2, 3)])
    def test_goals_that_do_not_fit_the_bins_are_rejected(self, specs, small_bank,
                                                         n_bins, n_rows):
        # Fewer goal rows than bins once trained a bin on nothing; more crashed mid-run.
        with pytest.raises(ValueError, match=f"do not fit {n_bins} bins"):
            train_lockstep(small_bank.bins[:n_bins], small_bank.goals[:n_rows], 0,
                           specs["hp"], **shard_kwargs(specs))

    @pytest.mark.parametrize("factors, match", [
        # A direction of norm 2 trained without complaint; a NaN position was
        # refused only as a goal-bin mismatch.
        pytest.param([1.0, 1.0, 1.0, 2.0, 2.0, 2.0], "unit", id="long-direction"),
        pytest.param([np.nan, 1.0, 1.0, 1.0, 1.0, 1.0], "non-finite", id="nan-position"),
    ])
    def test_goal_rows_are_checked(self, specs, small_bank, factors, match):
        goals = small_bank.goals[:2].copy()
        goals[1, 0] *= factors
        with pytest.raises(ValueError, match=match):
            train_lockstep(small_bank.bins[:2], goals, 0, specs["hp"], **shard_kwargs(specs))

    @pytest.mark.parametrize("offset", [0.7, 0.0])
    def test_bins_that_are_not_integers_are_refused(self, specs, small_bank, offset):
        # train_lockstep([561.7], ...) once trained bin 561.
        for bins in ([small_bank.bins[0] + offset], [True]):
            with pytest.raises(ValueError, match="goal bins must be integers"):
                train_lockstep(bins, small_bank.goals[:1], 0, specs["hp"],
                               **shard_kwargs(specs))

    def test_goals_given_as_nested_lists_train_as_arrays(self, specs, small_bank):
        # Nested lists once passed the checks and then raised AttributeError.
        bins, goals = small_bank.bins[:2], small_bank.goals[:2]
        lists = train_lockstep(bins.tolist(), goals.tolist(), 0, specs["hp"],
                               **shard_kwargs(specs))
        assert lists == train_lockstep(bins, goals, 0, specs["hp"], **shard_kwargs(specs))

    def test_repeated_bins_are_rejected(self, specs, small_bank):
        bins = small_bank.bins[[0, 0]]
        with pytest.raises(ValueError, match="strictly increasing"):
            train_lockstep(bins, small_bank.goals[[0, 0]], 0, specs["hp"],
                           **shard_kwargs(specs))

    @pytest.mark.parametrize("bin_", [-1, N_GOAL_BINS])
    def test_bins_outside_the_goal_range_are_rejected_with_no_goals(self, specs, bin_):
        # No goal row to encode, so no check_goal_bins mismatch: the range check holds.
        with pytest.raises(ValueError, match=rf"\[0, {N_GOAL_BINS}\)"):
            train_lockstep([bin_], np.empty((1, 0, 6)), 0, specs["hp"], **shard_kwargs(specs))

    def test_a_value_float32_cannot_hold_is_refused_at_its_write(self, specs):
        """The first unfit TD result raises QTable.update's error, with no numpy warning."""
        bank = build_goal_bank(specs["params"], 1, 20_000, np.random.default_rng(3),
                               binning=specs["binning"])
        rewards = RewardSpec(w_p_per_mm=1e300)
        kwargs = {**shard_kwargs(specs, max_steps=20), "reward_spec": rewards}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="not finite in float32") as lockstep:
                train_lockstep(bank.bins[:2], bank.goals[:2], 0, specs["hp"], **kwargs)
        i = bank.bins.tolist().index(int(str(lockstep.value).split()[1]) // N_TIP_STATES)
        with pytest.raises(ValueError) as scalar:
            sequential_table(bank.bins[i:i + 1], bank.goals[i:i + 1, :1], 0, specs, rewards, 20)
        assert str(lockstep.value) == str(scalar.value)

    def test_an_infinite_reward_is_refused_with_no_numpy_warning(self, specs, small_bank):
        """Both paths raise the scalar path's ValueError, before numpy could warn of overflow."""
        rewards = RewardSpec(w_p_per_mm=1e308)
        kwargs = {**shard_kwargs(specs, max_steps=20), "reward_spec": rewards}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="reward must be finite"):
                train_lockstep(small_bank.bins[:2], small_bank.goals[:2], 0, specs["hp"],
                               **kwargs)
            with pytest.raises(ValueError, match="reward must be finite"):
                sequential_table(small_bank.bins[:1], small_bank.goals[:1, :1], 0, specs,
                                 rewards, 20)

    def test_a_bin_whose_goals_all_start_at_success_trains_no_row(self, specs):
        # Every lane succeeds before its first step, so each round ends at once.
        params = specs["params"]
        start = NominalPlant(params).apply(np.full((4, 4), params.p_max_kpa / 2.0))
        at_start = np.concatenate([start[:3, 3], start[:3, 2]])
        bin_ = encode_goal_prefix(at_start[:3], at_start[3:], rest_tip_origin(params.l0_mm),
                                  specs["binning"])
        assert bin_ == 392
        table = train_lockstep([bin_], np.tile(at_start, (1, 3, 1)), 0, specs["hp"],
                               **shard_kwargs(specs))
        assert table.state_count() == 0 and table.entry_count() == 0

    def test_an_unfit_value_names_its_state_after_an_earlier_lane_retired(self, specs):
        # Bin 392's goal is the start pose, so lane 0 retires before its first step
        # and the other bin's lane runs first among the lanes left.
        params = specs["params"]
        start = NominalPlant(params).apply(np.full((4, 4), params.p_max_kpa / 2.0))
        at_start = np.concatenate([start[:3, 3], start[:3, 2]])
        bank = build_goal_bank(params, 1, 20_000, np.random.default_rng(3),
                               binning=specs["binning"])
        i = int(bank.bins.searchsorted(393))
        bins, goals = [392, int(bank.bins[i])], np.stack([[at_start], bank.goals[i]])
        rewards = RewardSpec(w_p_per_mm=1e300)
        kwargs = {**shard_kwargs(specs, max_steps=20), "reward_spec": rewards}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="not finite in float32") as lockstep:
                train_lockstep(bins, goals, 0, specs["hp"], **kwargs)
        with pytest.raises(ValueError) as scalar:
            sequential_table(bins[1:], goals[1:], 0, specs, rewards, 20)
        assert str(lockstep.value) == str(scalar.value)

    def test_the_trained_table_is_handed_over_without_a_rescan(self, specs, small_bank,
                                                              monkeypatch):
        """train_lockstep refuses unfit values at the write, so no builder checks them again."""
        def refuse(*args, **kwargs):
            raise AssertionError("train_lockstep checked its table again")

        def integers(name, words):  # the goal bins' own check, not a table check
            return refuse() if name != "goal bins" else checked(name, words)

        # from_records and load run these checks, and from_checked_arrays none.
        checked = qtable._integers
        monkeypatch.setattr(qtable, "_integers", integers)
        monkeypatch.setattr(qtable, "_undefined_flags", refuse)
        monkeypatch.setattr(QTable, "from_records", refuse)
        bins, goals = small_bank.bins[:3], small_bank.goals[:3]
        table = train_lockstep(bins, goals, 0, specs["hp"], **shard_kwargs(specs))
        reference, _ = sequential_table(bins, goals, 0, specs, specs["rewards"], 60)
        assert table == reference and table.trained_count() > 0
        assert_entries_in_key_order(table)


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
        a = QTable.from_records([40], [2], [0], [1.0])
        b = QTable.from_records([40], [2], [0], [2.0])
        with pytest.raises(MergeConflictError):
            merge([a, b])


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
        assert "goals run" in text
        # Two decimals, like the stage times: one decimal hid a 10% change.
        assert any(re.fullmatch(r"wall time: \d+\.\d{2} s", line) for line in text.splitlines())
        assert summary.samples_used == 40_000
        assert "goal bank samples: 40000" in text.splitlines()
        stages = (summary.bank_s, summary.train_s, summary.augment_s, summary.save_s)
        assert all(t >= 0.0 for t in stages)
        assert sum(stages) <= summary.wall_time_s
        assert "stage times: goal bank" in text

    def test_chunk_size_does_not_change_the_file(self, specs, tmp_path):
        """Bins trained in chunks of 1 and 3, then merged, give pretrain()'s bytes."""
        out = tmp_path / "all.qt"
        pretrain(
            specs["params"], specs["hp"], specs["actions"], specs["rewards"],
            specs["binning"], quota=1, seed=13, budget=30_000, max_steps=50,
            out_path=out,
        )
        # The bank pretrain(seed=13) draws: its stream, at the same quota and budget.
        bank = build_goal_bank(specs["params"], 1, 30_000, bank_rng(13),
                               binning=specs["binning"])
        bins = bank.bins.tolist()
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

    @pytest.mark.parametrize("seed", sorted(DEFAULT_TABLE_SHA256))
    def test_default_table_file_matches_frozen_digest(self, seed, default_table_file):
        out = default_table_file(seed)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_TABLE_SHA256[seed]

    @pytest.mark.parametrize("radius", sorted(AUGMENTED_DEFAULT_TABLE_SHA256))
    def test_augmented_default_table_matches_frozen_digest(self, radius, default_table_file,
                                                           tmp_path):
        out = tmp_path / f"augmented-r{radius}.hpnq"
        save(augment(load(default_table_file(0)), radius), out)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == AUGMENTED_DEFAULT_TABLE_SHA256[radius]

    def test_loaded_default_table_holds_a_row_per_state(self, default_table_file):
        table = load(default_table_file(0))
        assert table.state_count() < table.entry_count()
        dense = len(table.bins) * N_TIP_STATES * N_ACTIONS * (4 + 1)
        assert table.nbytes == table.entry_count() * (4 + 4 + 1)
        assert table.nbytes < dense / 2

    def test_default_table_evaluation_matches_frozen_digest(self, default_table_file):
        table = load(default_table_file(0))
        assert eval_digest(table, RunConfig()) == DEFAULT_EVAL_SHA256

    def test_default_suite_stops_stepping_before_the_step_limit(self, default_table_file,
                                                                monkeypatch):
        # Every nominal lane of the default suite returns to an arm
        # configuration before the step limit, and stops there.
        steps = []
        step = episode._Lanes.step

        def counted(lanes, action):
            steps.append(len(lanes))
            step(lanes, action)

        monkeypatch.setattr(episode._Lanes, "step", counted)
        cfg = RunConfig()
        report = evaluate(load(default_table_file(0)), cfg.eval_goals(), params=cfg.arm,
                          action_spec=cfg.action, reward_spec=cfg.reward, binning=cfg.binning,
                          repetitions=cfg.eval.repetitions, max_steps=cfg.eval.max_steps)
        locks = [r.lock_step for r in report.results]
        assert None not in locks
        assert len(steps) == max(locks) < cfg.eval.max_steps

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

    def test_no_goal_pose_is_built(self, specs, monkeypatch):
        """Sampling, training and the shard path all work on goal rows."""
        def refuse(self):
            raise AssertionError("GoalPose built on the pretrain path")

        monkeypatch.setattr(GoalPose, "__post_init__", refuse)
        args = (specs["params"], specs["hp"], specs["actions"], specs["rewards"], specs["binning"])
        built, _ = pretrain(*args, quota=1, seed=31, budget=30_000, max_steps=20)
        # The same bank rebuilt from pretrain(seed=31)'s stream, trained shard by shard.
        bank = build_goal_bank(specs["params"], 1, 30_000, bank_rng(31),
                               binning=specs["binning"])
        rebuilt = augment(pretrain_shard(bank.bins, 31, bank, specs["hp"],
                                         **shard_kwargs(specs, max_steps=20)), radius=1)
        assert built == rebuilt and built.trained_count() > 0

    @pytest.mark.parametrize("override", [
        {"seed": 32}, {"quota": 2}, {"budget": 20_000}, {"params": ArmParams(a_gain=0.003)},
        {"binning": BinningSpec(d_max_mm=300.0)},
    ], ids=["seed", "quota", "budget", "params", "binning"])
    def test_each_run_samples_the_bank_of_its_own_setup(self, specs, monkeypatch, override):
        # A cached bank once had to be refused when any of these moved; now each
        # run draws its bank afresh, so no bank outlives the setup it came from.
        banks = []

        def record_bank(bins, seed, bank, hp, **kwargs):
            banks.append(bank)
            raise GoalBankError("stop before training")

        monkeypatch.setattr(pretrain_module, "pretrain_shard", record_bank)
        setups = [{"params": specs["params"], "binning": specs["binning"], "seed": 31,
                   "quota": 1, "budget": 30_000}]
        setups.append({**setups[0], **override})
        for setup in setups:
            with pytest.raises(GoalBankError, match="stop before training"):
                pretrain(setup["params"], specs["hp"], specs["actions"], specs["rewards"],
                         setup["binning"], quota=setup["quota"], seed=setup["seed"],
                         budget=setup["budget"])
        for setup, bank in zip(setups, banks, strict=True):
            expected = build_goal_bank(setup["params"], setup["quota"], setup["budget"],
                                       bank_rng(setup["seed"]), binning=setup["binning"])
            assert bank.samples_used == expected.samples_used == setup["budget"]
            assert bank.bins.tobytes() == expected.bins.tobytes()
            assert bank.goals.tobytes() == expected.goals.tobytes()
        first, second = banks
        assert (first.samples_used, first.bins.tobytes(), first.goals.tobytes()) != (
            second.samples_used, second.bins.tobytes(), second.goals.tobytes())

    def test_bank_path_keyword_is_refused_before_sampling(self, specs, monkeypatch, tmp_path):
        def no_sampling(*args, **kwargs):
            raise AssertionError("an unknown keyword must fail before sampling starts")

        monkeypatch.setattr(pretrain_module, "build_goal_bank", no_sampling)
        args = (specs["params"], specs["hp"], specs["actions"], specs["rewards"], specs["binning"])
        bank = tmp_path / "bank.hpnb"
        with pytest.raises(TypeError, match="bank_path"):
            pretrain(*args, quota=1, seed=0, bank_path=bank)
        assert not bank.exists()

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
         {"augment_radius": 0}, {"workers": 2}, {"budget": 0}, {"seed": 2**64},
         {"augment_radius": 1.5}, {"max_steps": 20.5}, {"quota": True}, {"seed": 0.5},
         {"budget": 20_000.5}, {"max_steps": np.float64(20)}, {"workers": True},
         {"workers": 1.0}, {"quota": 1.5}, {"seed": True}, {"budget": True},
         {"max_steps": True}, {"augment_radius": True},
         # A truthy non-bool lifted the large-run guard.
         {"allow_large_run": 1}, {"allow_large_run": "no"}, {"allow_large_run": np.True_}],
    )
    def test_invalid_arguments_rejected(self, specs, kwargs, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("arguments must be checked before sampling starts")

        monkeypatch.setattr(pretrain_module, "build_goal_bank", no_sampling)
        args = (specs["params"], specs["hp"], specs["actions"], specs["rewards"], specs["binning"])
        full = {"quota": 1, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            pretrain(*args, **full)

    def test_numpy_integer_arguments_pass_the_checks(self, specs, monkeypatch):
        def stop(*args, **kwargs):
            raise GoalBankError("sampling reached")

        monkeypatch.setattr(pretrain_module, "build_goal_bank", stop)
        args = (specs["params"], specs["hp"], specs["actions"], specs["rewards"], specs["binning"])
        with pytest.raises(GoalBankError, match="sampling reached"):
            pretrain(*args, quota=np.int64(1), seed=np.uint64(2**64 - 1), budget=np.int32(1),
                     max_steps=np.int16(20), augment_radius=np.uint8(1))

    @pytest.mark.parametrize("quota, budget, expected", [
        (1, None, 400_000), (10, None, 400_000), (30, None, 1_200_000), (30, 20_000, 20_000),
    ])
    def test_default_budget_follows_the_quota_above_10(self, specs, monkeypatch, quota,
                                                        budget, expected):
        budgets = []

        def record_budget(params, quota, budget, rng, *, binning):
            budgets.append(budget)
            raise GoalBankError("no sampling")

        monkeypatch.setattr(pretrain_module, "build_goal_bank", record_budget)
        args = (specs["params"], specs["hp"], specs["actions"], specs["rewards"], specs["binning"])
        with pytest.raises(GoalBankError, match="no sampling"):
            pretrain(*args, quota=quota, seed=0, budget=budget)
        assert budgets == [expected]
