"""Bin-balanced goal generation and lockstep Q-table pretraining.

Training goals are drawn by rejection sampling: the whole sampling budget of
random pressure vectors is pushed through the forward kinematics, and each
goal bin keeps the first `quota` tip poses that land in it. Bins that never
fill are unreachable and left out, so every goal the controller trains on is
known to be attainable. The bank is two arrays, the layout of its .hpnb cache
file: the reachable bins, and per bin `quota` goal rows of position then
direction. Round k of training runs goal k of every bin.

Training runs every reachable bin's k-th episode in lockstep with the others,
in one call (episode.train_lockstep). Episode randomness is keyed to (master
seed, bin, goal index), never to the lane that runs the bin, and episodes in
different bins touch disjoint rows. The tests pin what follows, grouping
invariance, through pretrain_shard and merge: bins trained in chunks, whose
tables merge concatenates in bin order, give the one call's table bit for bit.
"""

from __future__ import annotations

import os
import time
import zlib
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from struct import Struct
from typing import Iterator, Sequence

import numpy as np

from .episode import RewardSpec, train_lockstep
from .kinematics import ArmParams, tip_batch
from .qtable import ActionSpec, HyperParams, QTable, augment, check_integers, save
from .state import (
    N_GOAL_BINS,
    BinningSpec,
    check_goal_bins,
    encode_goal_prefix_batch,
    rest_tip_origin,
)

GOAL_SAMPLE_BATCH = 8192

# The goal bank runs FK on at most this many threads, in tasks of at most
# _ROWS_PER_TASK rows. Small tasks keep each thread's working set small: glibc
# gives every thread its own malloc arena and keeps what a thread freed there,
# so 8192-row tasks left about 10 MB more resident after a default pretrain.
_MAX_BANK_WORKERS = 4
_ROWS_PER_TASK = 2048

# A guard against a mistyped quota, not a measured cost: it counts quota x
# N_GOAL_BINS planned episodes, while about 64 bins are reachable at the
# defaults (quota 489, the first refused, runs about 31k). Training runs about
# 1,200 episodes a second, so even 500k real episodes would take about 7 min.
LARGE_RUN_GOAL_LIMIT = 500_000

BANK_MAGIC = b"HPNB"
BANK_VERSION = 1
# version, seed, quota, budget, samples_used, fingerprint, reachable bins
_BANK_HEADER = Struct("<IQIQQII")
_BANK_CRC = Struct("<I")
_GOAL_ROW = 6  # position xyz + direction xyz, float64


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
    """Goal sampling failed or a cached goal-bank file is unusable."""


class MergeConflictError(ValueError):
    """Two partial tables hold the same goal bin, or disagree on action count."""


@dataclass(frozen=True, eq=False)
class GoalBank:
    """Per-bin training goals: `quota` goals in every reachable bin, none elsewhere.

    ``bins`` (m,) holds the reachable goal bins, strictly increasing;
    ``goals`` (m, quota, 6) holds each bin's goals in draw order, as float64
    rows of position (mm) then unit direction. Both are read-only copies.
    """

    bins: np.ndarray
    goals: np.ndarray
    samples_used: int

    def __post_init__(self):
        bins = np.array(self.bins, dtype=np.int64).reshape(-1)
        goals = np.array(self.goals, dtype=np.float64)
        if goals.ndim != 3 or goals.shape[0] != len(bins) or goals.shape[2] != _GOAL_ROW:
            raise ValueError(f"goals of shape {goals.shape} do not fit {len(bins)} bins")
        if goals.shape[1] < 1:
            raise ValueError("quota must be >= 1")
        if self.samples_used < 0:
            raise ValueError("samples_used must be >= 0")
        outside = bins[(bins < 0) | (bins >= N_GOAL_BINS)]
        if len(outside):
            raise ValueError(f"goal bin {outside[0]} out of range")
        if (np.diff(bins) <= 0).any():
            raise ValueError("goal bins are not strictly increasing")
        for name, a in (("bins", bins), ("goals", goals)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def quota(self) -> int:
        return self.goals.shape[1]

    def reachable_bins(self) -> list[int]:
        return self.bins.tolist()

    def goal_count(self) -> int:
        return self.goals.shape[0] * self.goals.shape[1]


def _bank_workers() -> int:
    """FK threads for the goal bank: the cores this process may run on, capped."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, _MAX_BANK_WORKERS))


def _fk_and_bin(pressures, params: ArmParams, origin, binning: BinningSpec, out) -> None:
    """FK and goal-bin encoding of a block of pressure rows, written into `out`."""
    positions, directions = tip_batch(pressures, params)
    out_rows, out_bins = out
    out_rows[:, :3] = positions
    out_rows[:, 3:] = directions
    out_bins[:] = encode_goal_prefix_batch(positions, directions, origin, binning)


def _binned_batches(
    params: ArmParams,
    binning: BinningSpec,
    budget: int,
    rng: np.random.Generator,
    batch_size: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (goal rows, goal bins) for each batch of random pressures.

    A goal row is the tip position then its direction, six float64 values.

    The calling thread draws `budget` uniform pressure vectors from `rng` in
    batches of `batch_size` (the last one shorter), in stream order, at most
    one batch per pool thread ahead of the batch it yields. The pool runs FK
    and goal-bin encoding on row blocks of each batch, and batches are
    yielded in draw order, so what is yielded, and the state `rng` is left in
    once every batch is yielded, do not depend on the thread count.
    """
    from concurrent.futures import ThreadPoolExecutor

    workers = _bank_workers()
    origin = rest_tip_origin(params.l0_mm)
    pending: deque = deque()  # (outputs, their futures)
    drawn = 0
    with ThreadPoolExecutor(workers, thread_name_prefix="goal-bank") as pool:
        while drawn < budget or pending:
            while drawn < budget and len(pending) < workers:
                n = min(batch_size, budget - drawn)
                pressures = rng.uniform(0.0, params.p_max_kpa, size=(n, 16))
                drawn += n
                # From this thread's malloc arena, not the pool threads' (see above).
                out = (np.empty((n, _GOAL_ROW)), np.empty(n, dtype=np.int64))
                futures = [
                    pool.submit(_fk_and_bin, pressures[r:r + _ROWS_PER_TASK], params,
                                origin, binning, tuple(a[r:r + _ROWS_PER_TASK] for a in out))
                    for r in range(0, n, _ROWS_PER_TASK)
                ]
                pending.append((out, futures))
            out, futures = pending.popleft()
            for future in futures:
                future.result()
            yield out


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

    FK and goal-bin encoding run on a pool of threads, one per core this
    process may use (at most _MAX_BANK_WORKERS), while this thread draws
    pressure batches of GOAL_SAMPLE_BATCH rows from `rng` in stream order and
    files the results into bins strictly in draw order. The bank and the
    state `rng` is left in are therefore byte-identical to one thread doing
    it all.
    """
    if quota < 1:
        raise ValueError("quota must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")

    needed = np.full(N_GOAL_BINS, quota, dtype=np.int64)
    stash = np.empty((N_GOAL_BINS, quota, _GOAL_ROW))
    # Closed on the way out: a raise in the filing loop ends the pool's threads
    # at once, also where the suspended generator outlives the exception.
    with closing(_binned_batches(params, binning, budget, rng, GOAL_SAMPLE_BATCH)) as batches:
        for rows, bins in batches:
            for i in np.nonzero(needed[bins] > 0)[0]:
                b = bins[i]
                if needed[b] > 0:  # the bin may have filled earlier in this batch
                    stash[b, quota - needed[b]] = rows[i]
                    needed[b] -= 1

    reachable = np.flatnonzero(needed == 0)
    if not len(reachable):
        raise GoalBankError(
            f"no goal bin reached quota {quota} within {budget} samples; "
            "the arm parameters give a degenerate workspace"
        )
    return GoalBank(bins=reachable, goals=stash[reachable], samples_used=budget)


def config_fingerprint(params: ArmParams, binning: BinningSpec) -> int:
    """Checksum of the arm/binning settings a goal bank was sampled under."""
    return zlib.crc32(repr((params, binning)).encode("utf-8"))


def save_goal_bank(bank: GoalBank, path, *, seed: int, budget: int, fingerprint: int) -> None:
    """Write a goal bank cache: magic, header, bin ids, per-bin goal rows, CRC32."""
    payload = (
        BANK_MAGIC
        + _BANK_HEADER.pack(
            BANK_VERSION, seed, bank.quota, budget, bank.samples_used,
            fingerprint, len(bank.bins),
        )
        + bank.bins.astype("<u2").tobytes()
        + bank.goals.astype("<f8").tobytes()
    )
    Path(path).write_bytes(payload + _BANK_CRC.pack(zlib.crc32(payload)))


def load_goal_bank(path, *, seed: int, quota: int, budget: int, params: ArmParams,
                   binning: BinningSpec) -> GoalBank:
    """Read a goal bank cache, rejecting files from a different sampling setup.

    The file must carry the seed, quota, budget and config fingerprint asked
    for, and every goal must encode to the bin it is filed under; anything
    else raises GoalBankError.
    """
    fingerprint = config_fingerprint(params, binning)
    raw = Path(path).read_bytes()
    if len(raw) < len(BANK_MAGIC) or raw[: len(BANK_MAGIC)] != BANK_MAGIC:
        raise GoalBankError(f"{path}: not a goal bank file")
    header_end = len(BANK_MAGIC) + _BANK_HEADER.size
    if len(raw) < header_end + _BANK_CRC.size:
        raise GoalBankError(f"{path}: truncated goal bank file")
    version, f_seed, f_quota, f_budget, samples_used, f_print, n_bins = _BANK_HEADER.unpack(
        raw[len(BANK_MAGIC):header_end]
    )
    if version != BANK_VERSION:
        raise GoalBankError(f"{path}: unsupported goal bank version {version}")
    body_end = header_end + 2 * n_bins + 8 * _GOAL_ROW * n_bins * f_quota
    if len(raw) != body_end + _BANK_CRC.size:
        raise GoalBankError(f"{path}: goal bank size does not match its header")
    (crc,) = _BANK_CRC.unpack(raw[body_end:])
    if crc != zlib.crc32(raw[:body_end]):
        raise GoalBankError(f"{path}: goal bank checksum mismatch")
    for name, got, want in (
        ("seed", f_seed, seed), ("quota", f_quota, quota),
        ("budget", f_budget, budget), ("config fingerprint", f_print, fingerprint),
    ):
        if got != want:
            raise GoalBankError(
                f"{path}: cached goal bank was sampled with {name}={got}, "
                f"this run wants {want}"
            )
    bins = np.frombuffer(raw, dtype="<u2", count=n_bins, offset=header_end)
    goals = np.frombuffer(
        raw, dtype="<f8", count=n_bins * f_quota * _GOAL_ROW, offset=header_end + 2 * n_bins
    ).reshape(n_bins, f_quota, _GOAL_ROW)
    if not np.isfinite(goals).all():
        raise GoalBankError(f"{path}: goal rows hold non-finite values")
    if (np.abs(np.linalg.norm(goals[..., 3:], axis=-1) - 1.0) > 1e-9).any():
        raise GoalBankError(f"{path}: goal directions are not unit vectors")
    try:
        bank = GoalBank(bins=bins, goals=goals, samples_used=samples_used)
        check_goal_bins(bank.bins, bank.goals, rest_tip_origin(params.l0_mm), binning)
    except ValueError as exc:
        raise GoalBankError(f"{path}: {exc}") from exc
    return bank


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
    bin_ids = np.unique(np.asarray(bin_ids, dtype=np.int64))
    missing = np.setdiff1d(bin_ids, bank.bins)
    if len(missing):
        raise KeyError(f"goal bin {missing[0]} is not in the goal bank")
    rows = np.searchsorted(bank.bins, bin_ids)
    return train_lockstep(
        bank.bins[rows], bank.goals[rows], seed, hp, params=params, action_spec=action_spec,
        reward_spec=reward_spec, binning=binning, max_steps=max_steps,
    )


def merge(partials: Sequence[QTable]) -> QTable:
    """Disjoint union of partial tables' goal-bin rows.

    Assembles tables trained on disjoint sets of bins into one: their rows,
    concatenated and put in bin order. Each goal bin must be held by at most
    one partial.
    """
    if not partials:
        return QTable()
    action_count = partials[0].action_count
    if any(p.action_count != action_count for p in partials):
        raise MergeConflictError("partial tables disagree on action count")
    bins = np.concatenate([p.bins for p in partials])
    order = np.argsort(bins)
    bins = bins[order]
    repeated = bins[1:][bins[1:] == bins[:-1]]
    if len(repeated):
        raise MergeConflictError(
            f"goal bin {repeated[0]} is held by more than one partial table"
        )
    return QTable.from_arrays(
        bins,
        np.concatenate([p.bin_values for p in partials])[order],
        np.concatenate([p.bin_flags for p in partials])[order],
    )


@dataclass(frozen=True)
class PretrainSummary:
    goals_run: int
    samples_used: int    # FK samples the goal bank drew, built or loaded from cache
    reachable_bins: int
    unreachable_bins: int
    trained_entries: int
    augmented_entries: int
    total_entries: int
    wall_time_s: float
    bank_s: float        # goal bank: cache load or sampling (and cache write)
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
                f"wall time: {self.wall_time_s:.1f} s",
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
    bank_path=None,
    allow_large_run: bool = False,
) -> tuple[QTable, PretrainSummary]:
    """Full pipeline: goal bank, lockstep training of every reachable bin, augment.

    Runs in the calling process. `workers` only accepts 1: callers written
    for the removed process pool still pass it. Arguments are checked before
    any sampling starts: workers, quota, seed, budget, max_steps and
    augment_radius must be integers (int or numpy integer, not bool). `budget` defaults to
    default_sample_budget(quota). When `bank_path` is given, a matching
    cached goal bank is reused and a fresh one is written there after
    sampling. Saves the augmented table to `out_path` if set.
    """
    check_integers(workers=workers, quota=quota, seed=seed, max_steps=max_steps,
                   augment_radius=augment_radius)
    if workers != 1:
        raise ValueError(
            f"workers={workers}: the process pool is gone, pretraining runs in "
            "one process and workers must be 1"
        )
    if quota < 1:
        raise ValueError("quota must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be in [0, 2**64), the range of the goal bank header")
    if budget is None:
        budget = default_sample_budget(quota)
    check_integers(budget=budget)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if augment_radius < 1:
        raise ValueError("augment_radius must be >= 1")
    planned = quota * N_GOAL_BINS
    if planned > LARGE_RUN_GOAL_LIMIT and not allow_large_run:
        raise ValueError(
            f"quota {quota} plans up to {planned} episodes; runs beyond "
            f"{LARGE_RUN_GOAL_LIMIT} need allow_large_run=True"
        )
    t0 = time.perf_counter()
    bank = None
    if bank_path is not None and Path(bank_path).exists():
        bank = load_goal_bank(
            bank_path, seed=seed, quota=quota, budget=budget, params=params, binning=binning
        )
    if bank is None:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        bank = build_goal_bank(params, quota, budget, rng, binning=binning)
        if bank_path is not None:
            save_goal_bank(bank, bank_path, seed=seed, budget=budget,
                           fingerprint=config_fingerprint(params, binning))
    t_bank = time.perf_counter()

    trained = pretrain_shard(
        bank.bins, seed, bank, hp, params=params, action_spec=action_spec,
        reward_spec=reward_spec, binning=binning, max_steps=max_steps,
    )
    t_train = time.perf_counter()
    table = augment(trained, radius=augment_radius)
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
