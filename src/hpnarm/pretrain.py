"""Bin-balanced goal generation and lockstep Q-table pretraining.

Training goals are drawn by rejection sampling: random pressure vectors are
pushed through the forward kinematics and the resulting tip poses deposited
into their goal bins until every bin holds `quota` goals or the sampling
budget runs out. Bins that never fill are flagged unreachable and excluded,
so every goal the controller trains on is known to be attainable.

Training runs in one process: every reachable bin's k-th episode runs in
lockstep with the others (episode.train_lockstep). Episode randomness is
keyed to (master seed, bin, goal index), never to the lane that happens to
run the bin, and episodes in different bins touch disjoint rows. So training
the bins in chunks and merging the chunk tables, a plain disjoint union,
gives the same table bit for bit as training them all at once.
"""

from __future__ import annotations

import os
import time
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from struct import Struct
from typing import Iterator, Mapping, Sequence

import numpy as np

from .episode import RewardSpec, train_lockstep
from .kinematics import ArmParams, tip_batch
from .qtable import ActionSpec, HyperParams, QTable, augment, save
from .state import (
    N_GOAL_BINS,
    BinningSpec,
    GoalPose,
    encode_goal_prefix_batch,
    rest_tip_origin,
)

DEFAULT_SAMPLE_BUDGET = 1_000_000
GOAL_SAMPLE_BATCH = 8192

# The goal bank runs FK on at most this many threads, in tasks of at most
# _ROWS_PER_TASK rows. Small tasks keep each thread's working set small: glibc
# gives every thread its own malloc arena and keeps what a thread freed there,
# so 8192-row tasks left about 10 MB more resident after a default pretrain.
_MAX_BANK_WORKERS = 4
_ROWS_PER_TASK = 2048

# Runs past this many training episodes take hours, not minutes; they must be
# requested explicitly so a mistyped quota cannot launch one by accident.
LARGE_RUN_GOAL_LIMIT = 500_000

BANK_MAGIC = b"HPNB"
BANK_VERSION = 1
# version, seed, quota, budget, samples_used, fingerprint, reachable bins
_BANK_HEADER = Struct("<IQIQQII")
_BANK_CRC = Struct("<I")
_GOAL_ROW = 6  # position xyz + direction xyz, float64


class GoalBankError(RuntimeError):
    """Goal sampling failed or a cached goal-bank file is unusable."""


class MergeConflictError(ValueError):
    """Two partial tables hold the same goal bin, or disagree on action count."""


@dataclass(frozen=True)
class GoalBank:
    """Per-bin training goals: `quota` goals in every reachable bin, none elsewhere."""

    quota: int
    goals: Mapping[int, tuple[GoalPose, ...]]
    reachable: np.ndarray  # (N_GOAL_BINS,) bool
    samples_used: int

    def __post_init__(self):
        if self.quota < 1:
            raise ValueError("quota must be >= 1")
        if self.samples_used < 0:
            raise ValueError("samples_used must be >= 0")
        reachable = np.asarray(self.reachable, dtype=bool).reshape(N_GOAL_BINS)
        reachable.flags.writeable = False
        object.__setattr__(self, "reachable", reachable)
        flagged = set(np.nonzero(reachable)[0].tolist())
        if set(self.goals) != flagged:
            raise ValueError("reachability flags disagree with stored goal bins")
        for bin_id, bin_goals in self.goals.items():
            if not 0 <= bin_id < N_GOAL_BINS:
                raise ValueError(f"goal bin {bin_id} out of range")
            if len(bin_goals) != self.quota:
                raise ValueError(
                    f"bin {bin_id} holds {len(bin_goals)} goals, quota is {self.quota}"
                )

    def reachable_bins(self) -> list[int]:
        return sorted(self.goals)

    def goals_for(self, bin_id: int) -> tuple[GoalPose, ...]:
        return self.goals[bin_id]

    def goal_count(self) -> int:
        return self.quota * len(self.goals)


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
    out_pos, out_dir, out_bins = out
    out_pos[:] = positions
    out_dir[:] = directions
    out_bins[:] = encode_goal_prefix_batch(positions, directions, origin, binning)


def _binned_batches(
    params: ArmParams,
    binning: BinningSpec,
    budget: int,
    rng: np.random.Generator,
    batch_size: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (positions, directions, goal bins) for each batch of random pressures.

    The calling thread draws `budget` uniform pressure vectors from `rng` in
    batches of `batch_size` (the last one shorter), in stream order, at most
    one batch per pool thread ahead of the batch it yields. The pool runs FK
    and goal-bin encoding on row blocks of each batch, and batches are
    yielded in draw order, so what is yielded does not depend on the thread
    count. Closing the generator early rewinds `rng` to its state right
    after the last batch yielded: batches drawn ahead leave no trace.
    """
    from concurrent.futures import ThreadPoolExecutor

    workers = _bank_workers()
    origin = rest_tip_origin(params.l0_mm)
    pending: deque = deque()  # (outputs, their futures, rng state after the draw)
    last_state = rng.bit_generator.state
    drawn = 0
    pool = ThreadPoolExecutor(workers, thread_name_prefix="goal-bank")
    try:
        while drawn < budget or pending:
            while drawn < budget and len(pending) < workers:
                n = min(batch_size, budget - drawn)
                pressures = rng.uniform(0.0, params.p_max_kpa, size=(n, 16))
                drawn += n
                # From this thread's malloc arena, not the pool threads' (see above).
                out = (np.empty((n, 3)), np.empty((n, 3)), np.empty(n, dtype=np.int64))
                futures = [
                    pool.submit(_fk_and_bin, pressures[r:r + _ROWS_PER_TASK], params,
                                origin, binning, tuple(a[r:r + _ROWS_PER_TASK] for a in out))
                    for r in range(0, n, _ROWS_PER_TASK)
                ]
                pending.append((out, futures, rng.bit_generator.state))
            out, futures, state = pending.popleft()
            for future in futures:
                future.result()
            last_state = state
            yield out
    finally:
        if pending:
            rng.bit_generator.state = last_state
        pool.shutdown(wait=True, cancel_futures=True)


def build_goal_bank(
    params: ArmParams,
    quota: int,
    budget: int = DEFAULT_SAMPLE_BUDGET,
    rng: np.random.Generator | None = None,
    *,
    binning: BinningSpec | None = None,
    batch_size: int = GOAL_SAMPLE_BATCH,
) -> GoalBank:
    """Fill goal bins by rejection sampling random pressure vectors through FK.

    Consumes at most `budget` forward-kinematics evaluations. Bins still short
    of `quota` when the budget runs out are dropped as unreachable; their
    partial goal lists are discarded rather than padded.

    FK and goal-bin encoding run on a pool of threads, one per core this
    process may use (at most _MAX_BANK_WORKERS), while this thread draws the
    pressure batches from `rng` in stream order and files the results into
    bins strictly in draw order. The bank, `samples_used` and the state `rng`
    is left in are therefore byte-identical to one thread doing it all: a
    batch drawn ahead of an early stop is rewound out of `rng`.
    """
    if quota < 1:
        raise ValueError("quota must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    if binning is None:
        binning = BinningSpec()

    needed = np.full(N_GOAL_BINS, quota, dtype=np.int64)
    stash: list[list[GoalPose]] = [[] for _ in range(N_GOAL_BINS)]
    used = 0
    batches = _binned_batches(params, binning, budget, rng, batch_size)
    try:
        for positions, directions, bins in batches:
            used += len(bins)
            for i in np.nonzero(needed[bins] > 0)[0]:
                b = int(bins[i])
                if needed[b] > 0:  # the bin may have filled earlier in this batch
                    stash[b].append(
                        GoalPose(position=positions[i].copy(), direction=directions[i].copy())
                    )
                    needed[b] -= 1
            if not needed.any():
                break
    finally:
        batches.close()

    reachable = needed == 0
    if not reachable.any():
        raise GoalBankError(
            f"no goal bin reached quota {quota} within {budget} samples; "
            "the arm parameters give a degenerate workspace"
        )
    goals = {int(b): tuple(stash[b]) for b in np.nonzero(reachable)[0]}
    return GoalBank(quota=quota, goals=goals, reachable=reachable, samples_used=used)


def config_fingerprint(params: ArmParams, binning: BinningSpec) -> int:
    """Checksum of the arm/binning settings a goal bank was sampled under."""
    return zlib.crc32(repr((params, binning)).encode("utf-8"))


def save_goal_bank(bank: GoalBank, path, *, seed: int, budget: int, fingerprint: int) -> None:
    """Write a goal bank cache: magic, header, sorted per-bin goal rows, CRC32."""
    bins = bank.reachable_bins()
    rows = np.empty((len(bins) * bank.quota, _GOAL_ROW), dtype="<f8")
    r = 0
    for b in bins:
        for goal in bank.goals_for(b):
            rows[r, :3] = goal.position
            rows[r, 3:] = goal.direction
            r += 1
    payload = (
        BANK_MAGIC
        + _BANK_HEADER.pack(
            BANK_VERSION, seed, bank.quota, budget, bank.samples_used,
            fingerprint, len(bins),
        )
        + np.asarray(bins, dtype="<u2").tobytes()
        + rows.tobytes()
    )
    Path(path).write_bytes(payload + _BANK_CRC.pack(zlib.crc32(payload)))


def load_goal_bank(path, *, seed: int, quota: int, budget: int, fingerprint: int) -> GoalBank:
    """Read a goal bank cache, rejecting files from a different sampling setup."""
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
    rows = np.frombuffer(
        raw, dtype="<f8", count=n_bins * f_quota * _GOAL_ROW, offset=header_end + 2 * n_bins
    ).reshape(-1, _GOAL_ROW)
    if n_bins and bins.max() >= N_GOAL_BINS:
        raise GoalBankError(f"{path}: goal bin {bins.max()} out of range")
    if (np.diff(bins.astype(np.int64)) <= 0).any():
        raise GoalBankError(f"{path}: goal bins are not strictly increasing")
    if not np.isfinite(rows).all():
        raise GoalBankError(f"{path}: goal rows hold non-finite values")
    if (np.abs(np.linalg.norm(rows[:, 3:], axis=1) - 1.0) > 1e-9).any():
        raise GoalBankError(f"{path}: goal directions are not unit vectors")
    goals: dict[int, tuple[GoalPose, ...]] = {}
    reachable = np.zeros(N_GOAL_BINS, dtype=bool)
    # GoalPose repeats the unit check with a norm that can differ in the last bit.
    try:
        for j, b in enumerate(bins.tolist()):
            chunk = rows[j * f_quota:(j + 1) * f_quota]
            goals[b] = tuple(
                GoalPose(position=row[:3].copy(), direction=row[3:].copy()) for row in chunk
            )
            reachable[b] = True
        return GoalBank(quota=f_quota, goals=goals, reachable=reachable, samples_used=samples_used)
    except ValueError as exc:
        raise GoalBankError(f"{path}: inconsistent goal bank contents: {exc}") from exc


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
    bins replayed with the same seed produce a bit-identical table.
    """
    subset = {int(b): bank.goals_for(int(b)) for b in bin_ids}
    return train_lockstep(
        subset, seed, hp, params=params, action_spec=action_spec,
        reward_spec=reward_spec, binning=binning, max_steps=max_steps,
    )


def merge(partials: Sequence[QTable]) -> QTable:
    """Disjoint union of partial tables' goal-bin blocks.

    Assembles tables trained on disjoint sets of bins into one. Each goal
    bin must be held by at most one partial.
    """
    if not partials:
        return QTable()
    action_count = partials[0].action_count
    blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for p in partials:
        if p.action_count != action_count:
            raise MergeConflictError("partial tables disagree on action count")
        for goal_bin, block in p.blocks.items():
            if goal_bin in blocks:
                raise MergeConflictError(
                    f"goal bin {goal_bin} is held by more than one partial table"
                )
            blocks[goal_bin] = block
    return QTable.from_blocks(blocks, action_count)


@dataclass(frozen=True)
class PretrainSummary:
    goals_run: int
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
    budget: int = DEFAULT_SAMPLE_BUDGET,
    max_steps: int = 200,
    augment_radius: int = 1,
    out_path=None,
    bank_path=None,
    allow_large_run: bool = False,
) -> tuple[QTable, PretrainSummary]:
    """Full pipeline: goal bank, lockstep training of every reachable bin, augment.

    Runs in the calling process. `workers` only accepts 1: callers written
    for the removed process pool still pass it. Arguments are checked before
    any sampling starts. When `bank_path` is given, a matching cached goal
    bank is reused and a fresh one is written there after sampling. Saves
    the augmented table to `out_path` if set.
    """
    if workers != 1:
        raise ValueError(
            f"workers={workers}: the process pool is gone, pretraining runs in "
            "one process and workers must be 1"
        )
    if quota < 1:
        raise ValueError("quota must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
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
    fingerprint = config_fingerprint(params, binning)
    bank = None
    if bank_path is not None and Path(bank_path).exists():
        bank = load_goal_bank(
            bank_path, seed=seed, quota=quota, budget=budget, fingerprint=fingerprint
        )
    if bank is None:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        bank = build_goal_bank(params, quota, budget, rng, binning=binning)
        if bank_path is not None:
            save_goal_bank(bank, bank_path, seed=seed, budget=budget, fingerprint=fingerprint)
    t_bank = time.perf_counter()

    trained = pretrain_shard(
        bank.reachable_bins(), seed, bank, hp, params=params, action_spec=action_spec,
        reward_spec=reward_spec, binning=binning, max_steps=max_steps,
    )
    t_train = time.perf_counter()
    table = augment(trained, radius=augment_radius)
    t_augment = time.perf_counter()
    if out_path is not None:
        save(table, out_path)
    t_save = time.perf_counter()
    n_reachable = len(bank.reachable_bins())
    summary = PretrainSummary(
        goals_run=bank.goal_count(),
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
