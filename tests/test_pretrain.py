import hashlib
import importlib
import itertools
import os
import sys
import threading
import warnings
from contextlib import closing

import numpy as np
import pytest

from hpnarm import ArmParams, BinningSpec, GoalPose, rest_tip_origin
from hpnarm.config import RunConfig
from hpnarm.episode import NominalPlant, RewardSpec, _segment_lattice, run_episode, train_lockstep
from hpnarm.evalrun import evaluate, sample_goals
from hpnarm.pretrain import (
    GoalBank,
    GoalBankError,
    MergeConflictError,
    build_goal_bank,
    config_fingerprint,
    default_sample_budget,
    load_goal_bank,
    merge,
    pretrain,
    pretrain_shard,
    save_goal_bank,
)
from hpnarm.qtable import FLAG_TRAINED, ActionSpec, HyperParams, QTable, augment, load, save
from hpnarm.state import N_GOAL_BINS, N_TIP_STATES, encode_goal_prefix
from oracles import oracle_goal_bank, write_goal_bank

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

# sha256 of the .hpnb files save_goal_bank writes, with the default config's
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


def trained_table(entries, action_count=32):
    q = QTable(action_count)
    for state, action, value in entries:
        q.set_entry(state, action, value, FLAG_TRAINED)
    return q


class TestBuildGoalBank:
    def test_quota_one_fills_every_reachable_bin_exactly_once(self, specs):
        bank = build_goal_bank(specs["params"], 1, 60_000, bank_rng(0), binning=specs["binning"])
        assert bank.reachable_bins()
        assert bank.goals.shape == (len(bank.bins), 1, 6)

    def test_exact_balance_at_quota(self, small_bank):
        assert small_bank.quota == 2
        assert small_bank.goals.shape == (len(small_bank.bins), 2, 6)
        assert small_bank.goal_count() == 2 * len(small_bank.bins)

    def test_stored_goals_reencode_to_their_bin(self, specs, small_bank):
        origin = rest_tip_origin(specs["params"].l0_mm)
        for b, rows in zip(small_bank.reachable_bins(), small_bank.goals):
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
        assert len(bank.reachable_bins()) < N_GOAL_BINS
        assert bank.goals.shape == (len(bank.bins), 3, 6)

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

    @pytest.mark.parametrize("kwargs", [{"quota": 0}, {"budget": 0}])
    def test_bad_arguments_rejected(self, specs, kwargs):
        full = {"quota": 1, "budget": 100, **kwargs}
        with pytest.raises(ValueError):
            build_goal_bank(
                specs["params"], full["quota"], full["budget"], bank_rng(0),
                binning=specs["binning"],
            )

    def test_reachable_bin_count_regression(self, specs):
        bank = build_goal_bank(
            specs["params"], 10, 1_000_000, bank_rng(2026), binning=specs["binning"]
        )
        count = len(bank.reachable_bins())
        assert abs(count - REACHABLE_BINS_AT_QUOTA_10) <= 0.05 * REACHABLE_BINS_AT_QUOTA_10


# hpnarm.pretrain as a package attribute is the function, not the module.
pretrain_module = importlib.import_module("hpnarm.pretrain")


@pytest.fixture
def bank_threads(monkeypatch):
    """Set the goal bank's thread count exactly, whatever the host's core count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)

    def set_threads(count):
        monkeypatch.setattr(pretrain_module, "_MAX_BANK_WORKERS", count)

    return set_threads


class CountingGenerator(np.random.Generator):
    """The goal-bank stream of `seed`, recording the row count of each draw."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(np.random.SeedSequence((seed, 1))))
        self.rows_drawn = []

    def uniform(self, low, high, size):
        self.rows_drawn.append(size[0])
        return super().uniform(low, high, size)


def assert_bank_matches_oracle(bank, oracle):
    goals, reachable, used = oracle
    assert bank.samples_used == used
    assert bank.reachable_bins() == np.flatnonzero(reachable).tolist() == sorted(goals)
    for b, got in zip(bank.reachable_bins(), bank.goals):
        assert got.tobytes() == goals[b].tobytes(), b


class TestGoalBankThreads:
    """The threaded goal bank equals the one-thread loop bit for bit."""

    @pytest.mark.parametrize("seed, batch_size, threads, budget", [
        *(pytest.param(seed, batch_size, threads, 25_000, id=f"{seed}-{batch_size}-{threads}")
          for seed in (0, 7, 401) for batch_size in (1000, 3000, 8192) for threads in (1, 2, 3)),
        # The first and last batch: one short batch, and one row past a whole batch.
        *(pytest.param(0, 8192, threads, budget, id=f"budget-{budget}-{threads}")
          for budget in (5_000, 8_193) for threads in (1, 3)),
    ])
    def test_bank_and_rng_state_match_the_sequential_loop(self, specs, bank_threads,
                                                          monkeypatch, seed, batch_size,
                                                          threads, budget):
        bank_threads(threads)
        monkeypatch.setattr(pretrain_module, "GOAL_SAMPLE_BATCH", batch_size)
        rng, oracle_rng = bank_rng(seed), bank_rng(seed)
        bank = build_goal_bank(specs["params"], 2, budget, rng, binning=specs["binning"])
        oracle = oracle_goal_bank(specs["params"], specs["binning"], 2, budget, oracle_rng,
                                  batch_size)
        assert_bank_matches_oracle(bank, oracle)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("batch_size", [1000, 3000])
    def test_the_whole_budget_is_drawn_after_every_bin_fills(
            self, specs, bank_threads, monkeypatch, batch_size, threads):
        # Bins spread by the tip position's low digits, so all 1024 fill long
        # before the budget ends; the bank still draws every row of it.
        def scattered_bins(positions, directions, origin, binning):
            return (np.abs(positions[:, 0]) * 1e6).astype(np.int64) % N_GOAL_BINS

        monkeypatch.setattr(pretrain_module, "encode_goal_prefix_batch", scattered_bins)
        monkeypatch.setattr(importlib.import_module("hpnarm.state"),
                            "encode_goal_prefix_batch", scattered_bins)
        bank_threads(threads)
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

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_one_batch_per_thread_is_drawn_ahead(self, specs, bank_threads, threads):
        bank_threads(threads)
        rng = CountingGenerator(0)
        with closing(pretrain_module._binned_batches(specs["params"], specs["binning"],
                                                     9_500, rng, 1000)) as batches:
            for k, _ in enumerate(batches):
                assert len(rng.rows_drawn) == min(k + threads, 10)
        assert rng.rows_drawn == [1000] * 9 + [500]

    def test_many_small_tasks_on_more_threads_than_cores(self, specs, bank_threads,
                                                         monkeypatch):
        # Tasks of 97 rows, so a batch spans several threads and they finish out
        # of order; a short switch interval interleaves them as much as it can.
        monkeypatch.setattr(pretrain_module, "_ROWS_PER_TASK", 97)
        monkeypatch.setattr(pretrain_module, "GOAL_SAMPLE_BATCH", 1500)
        bank_threads((os.cpu_count() or 1) + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rng, oracle_rng = bank_rng(11), bank_rng(11)
            bank = build_goal_bank(specs["params"], 2, 12_000, rng, binning=specs["binning"])
        finally:
            sys.setswitchinterval(interval)
        oracle = oracle_goal_bank(specs["params"], specs["binning"], 2, 12_000, oracle_rng, 1500)
        assert_bank_matches_oracle(bank, oracle)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_a_failing_task_raises_and_leaves_no_thread(self, specs, bank_threads,
                                                        monkeypatch):
        calls = itertools.count()  # numbers each call once, whichever thread makes it
        fk_and_bin = pretrain_module._fk_and_bin

        def failing(pressures, *args):
            if next(calls) == 2:
                raise FloatingPointError("task failed")
            return fk_and_bin(pressures, *args)

        monkeypatch.setattr(pretrain_module, "_fk_and_bin", failing)
        monkeypatch.setattr(pretrain_module, "GOAL_SAMPLE_BATCH", 1000)
        bank_threads(2)
        with pytest.raises(FloatingPointError, match="task failed"):
            build_goal_bank(specs["params"], 1, 60_000, bank_rng(0), binning=specs["binning"])
        assert not [t for t in threading.enumerate() if t.name.startswith("goal-bank")]

    def test_a_failing_filing_loop_leaves_no_thread(self, specs, bank_threads, monkeypatch):
        # The third task files its goals past the last goal bin, so the filing
        # loop raises a few batches into the budget.
        calls = itertools.count()  # numbers each call once, whichever thread makes it
        encode = pretrain_module.encode_goal_prefix_batch

        def out_of_range(*args):
            bins = encode(*args)
            return bins + N_GOAL_BINS if next(calls) == 2 else bins

        # CPython frees the suspended generator as the exception unwinds; a
        # runtime without reference counting keeps it until a collection,
        # which this reference stands in for.
        kept = []
        binned_batches = pretrain_module._binned_batches

        def kept_batches(*args):
            kept.append(binned_batches(*args))
            return kept[-1]

        monkeypatch.setattr(pretrain_module, "encode_goal_prefix_batch", out_of_range)
        monkeypatch.setattr(pretrain_module, "_binned_batches", kept_batches)
        monkeypatch.setattr(pretrain_module, "GOAL_SAMPLE_BATCH", 1000)
        bank_threads(2)
        with pytest.raises(IndexError) as raised:
            build_goal_bank(specs["params"], 1, 60_000, bank_rng(0), binning=specs["binning"])
        assert raised.tb is not None and len(kept) == 1
        assert not [t for t in threading.enumerate() if t.name.startswith("goal-bank")]

    def test_threads_end_with_the_call(self, specs, bank_threads):
        bank_threads(3)
        build_goal_bank(specs["params"], 1, 20_000, bank_rng(0), binning=specs["binning"])
        assert not [t for t in threading.enumerate() if t.name.startswith("goal-bank")]


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


# A goal straight above the base pointing up, and the sampling setup of hand-written banks.
_UP = [0.0, 0.0, 700.0, 0.0, 0.0, 1.0]
_BANK_SETUP = dict(seed=5, quota=2, budget=60_000)
_DEFAULT_FINGERPRINT = config_fingerprint(ArmParams(), BinningSpec())


def write_bank(path, bins, rows):
    write_goal_bank(path, bins, rows, fingerprint=_DEFAULT_FINGERPRINT, **_BANK_SETUP)


def load_bank(path, **overrides):
    return load_goal_bank(path, **{**_BANK_SETUP, "params": ArmParams(),
                                   "binning": BinningSpec(), **overrides})


class TestBankCache:
    def test_small_bank_file_matches_frozen_digest(self, specs, small_bank, tmp_path):
        path = tmp_path / "small.hpnb"
        save_goal_bank(small_bank, path, seed=5, budget=60_000,
                       fingerprint=config_fingerprint(specs["params"], specs["binning"]))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SMALL_BANK_SHA256

    @pytest.fixture(scope="class")
    def default_bank(self, specs):
        return build_goal_bank(specs["params"], 10, default_sample_budget(10), bank_rng(0),
                               binning=specs["binning"])

    def test_default_bank_file_matches_frozen_digest(self, specs, default_bank, tmp_path):
        assert len(default_bank.reachable_bins()) == REACHABLE_BINS_AT_QUOTA_10
        path = tmp_path / "default.hpnb"
        save_goal_bank(default_bank, path, seed=0, budget=default_sample_budget(10),
                       fingerprint=config_fingerprint(specs["params"], specs["binning"]))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_BANK_SHA256

    def test_default_bank_holds_the_goals_of_a_1e6_bank(self, specs, default_bank):
        # The default budget sits past the plateau: every draw after it files
        # no goal, so only samples_used (and the header's budget) differ.
        bank_1e6 = build_goal_bank(specs["params"], 10, 1_000_000, bank_rng(0),
                                   binning=specs["binning"])
        assert default_bank.samples_used == default_sample_budget(10) == 400_000
        assert bank_1e6.samples_used == 1_000_000
        assert default_bank.bins.tobytes() == bank_1e6.bins.tobytes()
        assert default_bank.goals.tobytes() == bank_1e6.goals.tobytes()

    @pytest.fixture()
    def saved(self, small_bank, tmp_path):
        path = tmp_path / "bank.hpnb"
        save_goal_bank(small_bank, path, seed=5, budget=60_000, fingerprint=_DEFAULT_FINGERPRINT)
        return path

    def test_round_trip_preserves_every_goal(self, small_bank, saved):
        loaded = load_bank(saved)
        assert loaded.reachable_bins() == small_bank.reachable_bins()
        assert loaded.samples_used == small_bank.samples_used
        assert loaded.goals.tobytes() == small_bank.goals.tobytes()

    def test_resave_is_byte_identical(self, saved, tmp_path):
        again = tmp_path / "again.hpnb"
        save_goal_bank(load_bank(saved), again, seed=5, budget=60_000,
                       fingerprint=_DEFAULT_FINGERPRINT)
        assert again.read_bytes() == saved.read_bytes()

    @pytest.mark.parametrize(
        "override",
        [{"seed": 6}, {"quota": 3}, {"budget": 1}, {"params": ArmParams(a_gain=0.003)},
         {"binning": BinningSpec(d_max_mm=300.0)}],
    )
    def test_mismatched_sampling_setup_rejected(self, saved, override):
        with pytest.raises(GoalBankError):
            load_bank(saved, **override)

    def test_corrupted_byte_rejected(self, saved):
        raw = bytearray(saved.read_bytes())
        raw[60] ^= 0xFF
        saved.write_bytes(bytes(raw))
        with pytest.raises(GoalBankError):
            load_bank(saved)

    def test_truncated_file_rejected(self, saved):
        saved.write_bytes(saved.read_bytes()[:-9])
        with pytest.raises(GoalBankError):
            load_bank(saved)

    def test_wrong_magic_rejected(self, saved):
        raw = bytearray(saved.read_bytes())
        raw[:4] = b"NOPE"
        saved.write_bytes(bytes(raw))
        with pytest.raises(GoalBankError):
            load_bank(saved)

    def test_unsupported_version_rejected(self, saved):
        raw = bytearray(saved.read_bytes())
        raw[4] = 99
        saved.write_bytes(bytes(raw))
        with pytest.raises(GoalBankError):
            load_bank(saved)

    def test_hand_written_bank_loads(self, tmp_path):
        up_bin = encode_goal_prefix(_UP[:3], _UP[3:], rest_tip_origin(ArmParams().l0_mm),
                                    BinningSpec())
        path = tmp_path / "bank.hpnb"
        write_bank(path, [up_bin], [_UP, _UP])
        bank = load_bank(path)
        assert bank.reachable_bins() == [up_bin]
        assert bank.goals.tolist() == [[_UP, _UP]]

    @pytest.mark.parametrize("bins, bad_row, match", [
        pytest.param([N_GOAL_BINS], _UP, "out of range", id="bin-1024"),
        pytest.param([5, 65535], _UP, "out of range", id="bin-65535"),
        pytest.param([5, 5], _UP, "strictly increasing", id="duplicate-bins"),
        pytest.param([7, 5], _UP, "strictly increasing", id="unsorted-bins"),
        pytest.param([5], [np.nan, 0.0, 700.0, 0.0, 0.0, 1.0], "non-finite", id="nan-position"),
        pytest.param([5], [0.0, 0.0, 700.0, np.inf, 0.0, 0.0], "non-finite", id="inf-direction"),
        pytest.param([5], [0.0, 0.0, 700.0, 0.0, 0.0, 2.0], "unit", id="long-direction"),
        pytest.param([5], [0.0, 0.0, 700.0, 0.0, 0.0, 0.0], "unit", id="zero-direction"),
        pytest.param([5], _UP, "goal 0 of bin 5 encodes to goal bin", id="goal-outside-its-bin"),
    ])
    def test_malformed_contents_rejected(self, tmp_path, bins, bad_row, match):
        path = tmp_path / "bank.hpnb"
        rows = [_UP] * (2 * len(bins) - 1) + [bad_row]
        write_bank(path, bins, rows)
        with pytest.raises(GoalBankError, match=match):
            load_bank(path)


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

    def test_bins_are_taken_in_order_once(self, specs, small_bank):
        bins = small_bank.reachable_bins()[:3]
        a = pretrain_shard(bins, 17, small_bank, specs["hp"], **shard_kwargs(specs))
        b = pretrain_shard(bins[::-1] + bins[:1], 17, small_bank, specs["hp"],
                           **shard_kwargs(specs))
        assert a == b

    def test_unknown_bin_raises(self, specs, small_bank):
        missing = sorted(set(range(N_GOAL_BINS)) - set(small_bank.reachable_bins()))[0]
        with pytest.raises(KeyError, match=f"goal bin {missing} "):
            pretrain_shard((small_bank.reachable_bins()[0], missing), 5, small_bank,
                           specs["hp"], **shard_kwargs(specs))

    def test_different_seeds_differ(self, specs, small_bank):
        bins = small_bank.reachable_bins()[:3]
        a = pretrain_shard(bins, 17, small_bank, specs["hp"], **shard_kwargs(specs))
        b = pretrain_shard(bins, 18, small_bank, specs["hp"], **shard_kwargs(specs))
        assert a != b


def sequential_table(bins, goals, seed, specs, reward_spec, max_steps):
    """The reference: run_episode(train=True) over sorted bins and goal indices."""
    q = QTable(specs["actions"].action_count)
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
        bins = bank.reachable_bins()
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

    def test_the_trained_table_is_handed_over_without_a_rescan(self, specs, small_bank,
                                                              monkeypatch):
        """train_lockstep refuses unfit values at the write, so from_arrays' checks do not run."""
        def refuse(*args, **kwargs):
            raise AssertionError("train_lockstep called from_arrays")

        monkeypatch.setattr(QTable, "from_arrays", refuse)
        bins, goals = small_bank.bins[:3], small_bank.goals[:3]
        table = train_lockstep(bins, goals, 0, specs["hp"], **shard_kwargs(specs))
        reference, _ = sequential_table(bins, goals, 0, specs, specs["rewards"], 60)
        assert table == reference and table.trained_count() > 0


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
        assert summary.samples_used == 40_000
        assert "goal bank samples: 40000" in text.splitlines()
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
            params=specs["params"], binning=specs["binning"],
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

    def test_default_table_evaluation_matches_frozen_digest(self, default_table_file):
        table = load(default_table_file(0))
        assert eval_digest(table, RunConfig()) == DEFAULT_EVAL_SHA256

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
        table1, built = pretrain(*args, **kwargs)
        cached = bank_path.read_bytes()
        table2, loaded = pretrain(*args, **kwargs)
        assert bank_path.read_bytes() == cached
        assert table1 == table2
        # samples_used comes from the bank, whether sampled or read from the cache
        bank = load_goal_bank(bank_path, seed=31, quota=1, budget=30_000,
                              params=specs["params"], binning=specs["binning"])
        assert built.samples_used == loaded.samples_used == bank.samples_used
        with pytest.raises(GoalBankError):
            pretrain(*args, **{**kwargs, "quota": 2})

    def test_no_goal_pose_is_built(self, specs, tmp_path, monkeypatch):
        """Sampling, saving, loading and training all work on goal rows."""
        def refuse(self):
            raise AssertionError("GoalPose built on the pretrain path")

        monkeypatch.setattr(GoalPose, "__post_init__", refuse)
        args = (specs["params"], specs["hp"], specs["actions"], specs["rewards"], specs["binning"])
        kwargs = dict(quota=1, seed=31, budget=30_000, max_steps=20,
                      bank_path=tmp_path / "bank.hpnb")
        built, _ = pretrain(*args, **kwargs)
        loaded, _ = pretrain(*args, **kwargs)
        assert built == loaded and built.trained_count() > 0

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
         {"workers": 1.0}],
    )
    def test_invalid_arguments_rejected(self, specs, kwargs, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("arguments must be checked before sampling starts")

        monkeypatch.setattr(pretrain_module, "build_goal_bank", no_sampling)
        args = (specs["params"], specs["hp"], specs["actions"], specs["rewards"], specs["binning"])
        full = {"quota": 1, "seed": 0, **kwargs}
        with pytest.raises(ValueError):
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
