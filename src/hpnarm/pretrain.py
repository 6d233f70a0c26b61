"""Bin-balanced goal generation and lockstep Q-table pretraining.

Training goals are drawn by rejection sampling: each goal bin keeps the
first `quota` tip poses, among the whole sampling budget of random pressure
vectors, that land in it. A float32 screen bins every sample, and exact
forward kinematics runs only on the samples that can still be banked, so
the bank is the one exact kinematics of every sample gives. Bins that never
fill are unreachable and left out, so every goal the controller trains on is
known to be attainable. The bank is two arrays: the reachable bins, and per
bin `quota` goal rows of position then direction. pretrain samples it anew on
every run. Round k of training runs goal k of every bin.

Training runs every reachable bin's k-th episode in lockstep with the others,
in one call (episode.train_lockstep). Episode randomness is keyed to (master
seed, bin, goal index), never to the lane that runs the bin, and episodes in
different bins touch disjoint rows. The tests pin what follows, grouping
invariance, through pretrain_shard and merge: bins trained in chunks, whose
tables merge concatenates in bin order, give the one call's table bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .episode import RewardSpec, train_lockstep
from .kinematics import ArmParams, _check_range, tip_batch, tip_screen
from .qtable import (ActionSpec, HyperParams, QTable, _goal_bin_ids, _integers, augment,
                     check_integers, check_seed, save)
from .state import (
    N_GOAL_BINS,
    _GOAL_ROW,
    BinningSpec,
    check_goal_rows,
    encode_goal_prefix_batch,
    rest_tip_origin,
    screen_goal_prefix_batch,
)

GOAL_SAMPLE_BATCH = 8192

# A guard against a mistyped quota, not a measured cost: it counts quota x
# N_GOAL_BINS planned episodes, while about 64 bins are reachable at the
# defaults (quota 489, the first refused, runs about 31k). Training runs about
# 1,200 episodes a second, so even 500k real episodes would take about 7 min.
LARGE_RUN_GOAL_LIMIT = 500_000


def default_sample_budget(quota: int) -> int:
    """Goal-bank budget when none is given: 40,000 samples per unit of quota, at least 400k.

    At least twice the measured plateau, the sample at which the last bin
    reaches the quota (scripts/reachability_survey.py, default arm and
    binning): at quota 10 it lies within 200k samples on 39 of 40 seeds, at
    quota 30 at 286k-443k. Seed 33 fills a 65th, rare bin at quota 10 only at
    sample 788k.
    """
    return 40_000 * max(quota, 10)


class GoalBankError(RuntimeError):
    """Goal sampling filled no goal bin to the quota within the budget."""


class MergeConflictError(ValueError):
    """Two partial tables hold the same goal bin."""


@dataclass(frozen=True, eq=False)
class GoalBank:
    """Per-bin training goals: `quota` goals in every reachable bin, none elsewhere.

    ``bins`` (m,) holds the reachable goal bins, strictly increasing in
    [0, N_GOAL_BINS); ``goals`` (m, quota >= 1, 6) holds each bin's goals in
    draw order, as float64 rows of position (mm) then unit direction. Both
    are read-only copies; ``samples_used`` is an integer >= 0.
    """

    bins: np.ndarray
    goals: np.ndarray
    samples_used: int

    def __post_init__(self):
        bins = _goal_bin_ids(self.bins)
        goals = np.array(self.goals, dtype=np.float64)
        check_goal_rows(goals, len(bins))
        check_integers(1, quota=goals.shape[1])
        check_integers(0, samples_used=self.samples_used)
        for name, a in (("bins", bins), ("goals", goals)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def quota(self) -> int:
        return self.goals.shape[1]

    def goal_count(self) -> int:
        return self.goals.shape[0] * self.goals.shape[1]


def build_goal_bank(
    params: ArmParams,
    quota: int,
    budget: int,
    rng: np.random.Generator,
    *,
    binning: BinningSpec,
) -> GoalBank:
    """Fill goal bins by rejection sampling random pressure vectors through FK.

    Draws exactly `budget` forward-kinematics samples. Each bin keeps its
    first `quota` hits in draw order; later hits are ignored. Bins still
    short of `quota` when the budget runs out are dropped as unreachable;
    their partial goal lists are discarded rather than padded.

    Pressures are drawn from `rng` in batches of GOAL_SAMPLE_BATCH rows, in
    stream order, and each batch is screened before any exact FK: a float32
    tip (kinematics.tip_screen) binned by comparison with the edges
    (state.screen_goal_prefix_batch). Only the rows whose screened bin is
    sure to be the exact one and is already full are left out; every other
    row goes through tip_batch and encode_goal_prefix_batch, the only source
    of banked goals and their bins, and is filed in draw order. A row left
    out could not have been filed, so the bank and the state `rng` is left
    in equal those of running every row exactly.
    """
    check_integers(1, quota=quota, budget=budget)

    origin = rest_tip_origin(params.l0_mm)
    needed = np.full(N_GOAL_BINS, quota, dtype=np.int64)
    stash = np.empty((N_GOAL_BINS, quota, _GOAL_ROW))
    for drawn in range(0, budget, GOAL_SAMPLE_BATCH):
        # rng.uniform(0, p_max)'s values and stream, drawn faster.
        pressures = rng.random((min(GOAL_SAMPLE_BATCH, budget - drawn), 16))
        pressures *= params.p_max_kpa
        _check_range(pressures.reshape(-1, 4, 4), params)
        *tips, sure, guards = tip_screen(pressures, params)
        screened, sure = screen_goal_prefix_batch(*tips, sure, guards, origin, binning)
        exact = np.flatnonzero(~sure | (needed[screened] > 0))
        positions, directions = tip_batch(pressures[exact], params)
        bins = encode_goal_prefix_batch(positions, directions, origin, binning)
        for i in np.flatnonzero(needed[bins] > 0).tolist():
            b = bins[i]
            if needed[b] > 0:  # the bin may have filled earlier in this batch
                goal = stash[b, quota - needed[b]]
                goal[:3] = positions[i]
                goal[3:] = directions[i]
                needed[b] -= 1

    reachable = np.flatnonzero(needed == 0)
    if not len(reachable):
        raise GoalBankError(
            f"no goal bin reached quota {quota} within {budget} samples; "
            "the arm parameters give a degenerate workspace"
        )
    return GoalBank(bins=reachable, goals=stash[reachable], samples_used=budget)


def pretrain_shard(
    bin_ids: Sequence[int],
    seed: int,
    bank: GoalBank,
    hp: HyperParams,
    *,
    params: ArmParams,
    action_spec: ActionSpec,
    reward_spec: RewardSpec,
    binning: BinningSpec,
    max_steps: int = 200,
) -> QTable:
    """Train one episode per banked goal for every bin in `bin_ids`, in lockstep.

    Episode randomness depends only on (seed, bin, goal index), so the same
    bins replayed with the same seed produce a bit-identical table. A bin the
    bank does not hold raises KeyError.
    """
    bin_ids = np.unique(_integers("goal bins", bin_ids).astype(np.int64))
    missing = np.setdiff1d(bin_ids, bank.bins)
    if len(missing):
        raise KeyError(f"goal bin {missing[0]} is not in the goal bank")
    rows = np.searchsorted(bank.bins, bin_ids)
    return train_lockstep(
        bank.bins[rows], bank.goals[rows], seed, hp, params=params, action_spec=action_spec,
        reward_spec=reward_spec, binning=binning, max_steps=max_steps,
    )


def merge(partials: Sequence[QTable]) -> QTable:
    """Disjoint union of partial tables' goal bins (QTable.concat).

    Assembles tables trained on disjoint sets of bins into one, their rows in
    bin order. Each goal bin must be held by at most one partial, else
    MergeConflictError.
    """
    try:
        return QTable.concat(partials)
    except ValueError as exc:
        raise MergeConflictError(f"partial tables: {exc}") from exc


@dataclass(frozen=True)
class PretrainSummary:
    goals_run: int
    samples_used: int    # FK samples the goal bank drew
    reachable_bins: int
    unreachable_bins: int
    trained_entries: int
    augmented_entries: int
    total_entries: int
    wall_time_s: float
    bank_s: float        # goal bank sampling
    train_s: float       # lockstep training of every reachable bin
    augment_s: float
    save_s: float

    def format(self) -> str:
        return "\n".join(
            [
                f"goals run: {self.goals_run}",
                f"goal bank samples: {self.samples_used}",
                f"reachable bins: {self.reachable_bins} of {N_GOAL_BINS}",
                f"unreachable bins: {self.unreachable_bins}",
                f"trained entries: {self.trained_entries}",
                f"augmented entries: {self.augmented_entries}",
                f"total entries: {self.total_entries}",
                f"wall time: {self.wall_time_s:.2f} s",
                f"stage times: goal bank {self.bank_s:.2f} s, train {self.train_s:.2f} s, "
                f"augment {self.augment_s:.2f} s, save {self.save_s:.2f} s",
            ]
        )


def pretrain(
    params: ArmParams,
    hp: HyperParams,
    action_spec: ActionSpec,
    reward_spec: RewardSpec,
    binning: BinningSpec,
    *,
    quota: int,
    seed: int,
    workers: int = 1,
    budget: int | None = None,
    max_steps: int = 200,
    augment_radius: int = 1,
    out_path=None,
    allow_large_run: bool = False,
) -> tuple[QTable, PretrainSummary]:
    """Full pipeline: goal bank, lockstep training of every reachable bin, augment.

    Runs in the calling process. `workers` only accepts 1: callers written
    for the removed process pool still pass it. Arguments are checked before
    any sampling starts: workers, quota, seed, budget, max_steps and
    augment_radius must be integers (int or numpy integer, not bool), workers
    1, seed in [0, 2**64) (qtable.check_seed) and the others >= 1, and
    allow_large_run a bool. `budget` defaults to default_sample_budget(quota).
    The goal bank is sampled from the stream SeedSequence((seed, 1)). Saves
    the augmented table to `out_path` if set.
    """
    check_integers(workers=workers)
    check_seed(seed)
    if workers != 1:
        raise ValueError(
            f"workers={workers}: the process pool is gone, pretraining runs in "
            "one process and workers must be 1"
        )
    check_integers(1, quota=quota, max_steps=max_steps, augment_radius=augment_radius)
    if not isinstance(allow_large_run, bool):
        raise ValueError(f"allow_large_run must be a boolean, not {allow_large_run!r}")
    if budget is None:
        budget = default_sample_budget(quota)
    check_integers(1, budget=budget)
    planned = quota * N_GOAL_BINS
    if planned > LARGE_RUN_GOAL_LIMIT and not allow_large_run:
        raise ValueError(
            f"quota {quota} plans up to {planned} episodes; runs beyond "
            f"{LARGE_RUN_GOAL_LIMIT} need allow_large_run=True"
        )
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    bank = build_goal_bank(params, quota, budget, rng, binning=binning)
    t_bank = time.perf_counter()

    trained = pretrain_shard(
        bank.bins, seed, bank, hp, params=params, action_spec=action_spec,
        reward_spec=reward_spec, binning=binning, max_steps=max_steps,
    )
    t_train = time.perf_counter()
    table = augment(trained, radius=augment_radius)
    del trained  # save's working memory should not come on top of the trained table
    t_augment = time.perf_counter()
    if out_path is not None:
        save(table, out_path)
    t_save = time.perf_counter()
    n_reachable = len(bank.bins)
    summary = PretrainSummary(
        goals_run=bank.goal_count(),
        samples_used=bank.samples_used,
        reachable_bins=n_reachable,
        unreachable_bins=N_GOAL_BINS - n_reachable,
        trained_entries=table.trained_count(),
        augmented_entries=table.augmented_count(),
        total_entries=table.entry_count(),
        wall_time_s=time.perf_counter() - t0,
        bank_s=t_bank - t0,
        train_s=t_train - t_bank,
        augment_s=t_augment - t_train,
        save_s=t_save - t_augment,
    )
    return table, summary
