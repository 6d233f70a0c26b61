"""Point-to-point control episodes against a pluggable arm plant.

A plant turns a commanded pressure matrix into an observed tip pose. The
nominal plant is the forward-kinematics model itself; the perturbed plant
wraps the same model with scaled gains, a gravity-sag surrogate, and
observation noise, standing in for an imperfectly modeled physical arm.
One episode drives the tip from a fixed initial pressurization toward a
goal pose, one quasi-static action per step, optionally applying learning
updates along the way. Training runs many episodes at once: train_lockstep
steps one episode per goal bin together, bit-identical to run_episode
called on each in turn.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .kinematics import (
    ArmParams,
    N_CHAMBERS,
    N_SEGMENTS,
    actuation_to_config,
    segment_transform,
    segment_transform_batch,
    validate_pressures,
)
from .qtable import FLAG_TRAINED, ActionSpec, HyperParams, QTable, select_action
from .state import (
    N_TIP_STATES,
    BinningSpec,
    GoalPose,
    StateEncoder,
    encode_goal_prefix,
    encode_tip_suffix_batch,
    goal_frame,
    rest_tip_origin,
)

CSV_COLUMNS = ("step", "time_s", "pos_error_mm", "rot_error_deg",
               "state_index", "action_id", "reward")

# Label-only conversion between controller steps and wall seconds in CSVs.
SECONDS_PER_STEP = 2.0


@dataclass(frozen=True)
class RewardSpec:
    """Progress-shaped reward with a terminal bonus.

    Each step earns w_p per millimeter of positional improvement and w_r
    per degree of orientation improvement, pays a constant step penalty,
    and collects goal_bonus on any step that ends inside both success
    thresholds.
    """

    w_p_per_mm: float = 1.0
    w_r_per_deg: float = 0.5
    goal_bonus: float = 100.0
    step_penalty: float = 0.1
    success_pos_mm: float = 5.0
    success_rot_deg: float = 5.0

    def __post_init__(self):
        for name in ("w_p_per_mm", "w_r_per_deg", "goal_bonus", "step_penalty"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be non-negative and finite, got {v}")
        for name in ("success_pos_mm", "success_rot_deg"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"success threshold {name} must be positive and finite, got {v}")

    def is_success(self, pos_error_mm, rot_error_deg):
        """Both errors inside their thresholds; elementwise for arrays."""
        return (pos_error_mm < self.success_pos_mm) & (rot_error_deg < self.success_rot_deg)


@dataclass(frozen=True)
class PerturbedPlantConfig:
    """How far the perturbed plant strays from the nominal model.

    a_scale / b_scale multiply the curvature and elongation gains; None
    means each is drawn once per plant instance, uniformly within
    scale_spread of 1. droop_gain sags the tip by that many mm of z per
    mm of horizontal reach; tip_noise_sigma_mm is the per-coordinate
    standard deviation of Gaussian observation noise.
    """

    a_scale: float | None = None
    b_scale: float | None = None
    scale_spread: float = 0.2
    tip_noise_sigma_mm: float = 5.0
    droop_gain: float = 0.02

    def __post_init__(self):
        for name in ("a_scale", "b_scale"):
            v = getattr(self, name)
            if v is not None and not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not 0.0 <= self.scale_spread < 1.0:
            raise ValueError(f"scale_spread must be finite and in [0, 1), got {self.scale_spread}")
        for name in ("tip_noise_sigma_mm", "droop_gain"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be non-negative and finite, got {v}")


class NominalPlant:
    """The forward-kinematics model as a plant, with per-segment caching.

    Successive commands usually change one segment's pressures, so the
    three unchanged segment transforms are reused.
    """

    def __init__(self, params: ArmParams):
        self.params = params
        self._seg_keys: list[tuple | None] = [None] * N_SEGMENTS
        self._seg_transforms: list[np.ndarray | None] = [None] * N_SEGMENTS

    def reset(self) -> np.ndarray:
        pose = np.eye(4)
        pose[2, 3] = 4.0 * self.params.l0_mm
        return pose

    def apply(self, pressures) -> np.ndarray:
        p = validate_pressures(pressures, self.params)
        for seg in range(N_SEGMENTS):
            key = (p[seg, 0], p[seg, 1], p[seg, 2], p[seg, 3])
            if key != self._seg_keys[seg]:
                self._seg_keys[seg] = key
                self._seg_transforms[seg] = segment_transform(
                    actuation_to_config(key, self.params), self.params.k_eps
                )
        t0, t1, t2, t3 = self._seg_transforms
        return t0 @ t1 @ t2 @ t3


class PerturbedPlant:
    """Nominal kinematics with scaled gains, gravity droop, and tip noise.

    Gain scales are fixed at construction (drawn from the config spread
    when not pinned); the observation-noise stream advances across the
    plant's whole life, so repeated episodes see fresh noise while the
    sequence as a whole is reproducible from the seed.
    """

    def __init__(self, params: ArmParams, cfg: PerturbedPlantConfig, seed: int):
        scale_rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        lo, hi = 1.0 - cfg.scale_spread, 1.0 + cfg.scale_spread
        self.a_scale = cfg.a_scale if cfg.a_scale is not None else float(scale_rng.uniform(lo, hi))
        self.b_scale = cfg.b_scale if cfg.b_scale is not None else float(scale_rng.uniform(lo, hi))
        self.cfg = cfg
        self.nominal_params = params
        self._true = NominalPlant(
            ArmParams(
                a_gain=params.a_gain * self.a_scale,
                b_gain=params.b_gain * self.b_scale,
                l0_mm=params.l0_mm,
                p_max_kpa=params.p_max_kpa,
                k_eps=params.k_eps,
            )
        )
        self._noise = np.random.default_rng(np.random.SeedSequence((seed, 1)))

    def reset(self) -> np.ndarray:
        return self._true.reset()

    def apply(self, pressures) -> np.ndarray:
        pose = self._true.apply(pressures)
        pose[2, 3] -= self.cfg.droop_gain * math.hypot(pose[0, 3], pose[1, 3])
        if self.cfg.tip_noise_sigma_mm > 0.0:
            pose[:3, 3] += self._noise.normal(0.0, self.cfg.tip_noise_sigma_mm, 3)
        return pose


@dataclass(frozen=True)
class StepRecord:
    step: int
    pressures: np.ndarray
    pos_error_mm: float
    rot_error_deg: float
    state_index: int
    action_id: int  # -1 on the initial observation row
    reward: float


@dataclass
class EpisodeLog:
    goal: GoalPose
    records: list[StepRecord] = field(default_factory=list)
    outcome: str = "step-limit"  # "success" | "step-limit"

    @property
    def steps_taken(self) -> int:
        return len(self.records) - 1

    @property
    def success(self) -> bool:
        return self.outcome == "success"

    @property
    def final_pos_error_mm(self) -> float:
        return self.records[-1].pos_error_mm

    @property
    def final_rot_error_deg(self) -> float:
        return self.records[-1].rot_error_deg

    def total_reward(self) -> float:
        return sum(r.reward for r in self.records)

    def pos_error_series(self) -> list[float]:
        return [r.pos_error_mm for r in self.records]

    def rot_error_series(self) -> list[float]:
        return [r.rot_error_deg for r in self.records]

    def write_csv(self, path, seconds_per_step: float = SECONDS_PER_STEP) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.records:
                writer.writerow([
                    r.step,
                    f"{r.step * seconds_per_step:.1f}",
                    f"{r.pos_error_mm:.6f}",
                    f"{r.rot_error_deg:.6f}",
                    r.state_index,
                    r.action_id,
                    f"{r.reward:.6f}",
                ])


def pose_errors(pose: np.ndarray, goal: GoalPose) -> tuple[float, float]:
    """(positional error mm, orientation error deg) of a tip pose against a goal."""
    dx = pose[0, 3] - goal.position[0]
    dy = pose[1, 3] - goal.position[1]
    dz = pose[2, 3] - goal.position[2]
    pos = math.sqrt(dx * dx + dy * dy + dz * dz)
    dot = (pose[0, 2] * goal.direction[0]
           + pose[1, 2] * goal.direction[1]
           + pose[2, 2] * goal.direction[2])
    rot = math.degrees(math.acos(min(1.0, max(-1.0, dot))))
    return pos, rot


def compute_reward(prev: tuple[float, float], cur: tuple[float, float],
                   spec: RewardSpec) -> float:
    """Reward for moving from errors `prev` to errors `cur`, each (mm, deg)."""
    r = (spec.w_p_per_mm * (prev[0] - cur[0])
         + spec.w_r_per_deg * (prev[1] - cur[1])
         - spec.step_penalty)
    if spec.is_success(cur[0], cur[1]):
        r += spec.goal_bonus
    return r


def run_episode(
    plant,
    goal: GoalPose,
    q: QTable,
    hp: HyperParams,
    *,
    params: ArmParams,
    action_spec: ActionSpec,
    reward_spec: RewardSpec,
    binning: BinningSpec,
    max_steps: int = 200,
    rng: np.random.Generator,
    train: bool = True,
) -> EpisodeLog:
    """Run one episode: observe, act, reward, repeat until success or the step limit.

    Every chamber starts at half the pressure ceiling so the first action
    of either sign has effect. The step-0 row logs the initial observation
    with no action; success already holding there ends the episode with an
    empty action trace. In training mode the table is updated in place
    after every action; otherwise actions are greedy and the table is left
    untouched.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    plant.reset()
    pressures = np.full((4, 4), params.p_max_kpa / 2.0)
    pose = plant.apply(pressures)
    encoder = StateEncoder(goal, rest_tip_origin(params.l0_mm), binning)
    pos_err, rot_err = pose_errors(pose, goal)
    state = encoder.encode_tip_index(
        (pose[0, 3], pose[1, 3], pose[2, 3]), (pose[0, 2], pose[1, 2], pose[2, 2])
    )
    log = EpisodeLog(goal=goal)
    log.records.append(StepRecord(0, pressures.copy(), pos_err, rot_err, state, -1, 0.0))
    if reward_spec.is_success(pos_err, rot_err):
        log.outcome = "success"
        return log
    epsilon = hp.epsilon if train else 0.0
    for step in range(1, max_steps + 1):
        action = select_action(q, state, epsilon, rng)
        pressures = action_spec.apply(pressures, action, params.p_max_kpa)
        pose = plant.apply(pressures)
        new_pos, new_rot = pose_errors(pose, goal)
        next_state = encoder.encode_tip_index(
            (pose[0, 3], pose[1, 3], pose[2, 3]), (pose[0, 2], pose[1, 2], pose[2, 2])
        )
        reward = compute_reward((pos_err, rot_err), (new_pos, new_rot), reward_spec)
        if train:
            q.update(state, action, reward, next_state, hp)
        log.records.append(
            StepRecord(step, pressures.copy(), new_pos, new_rot, next_state, action, reward)
        )
        state = next_state
        pos_err, rot_err = new_pos, new_rot
        if reward_spec.is_success(new_pos, new_rot):
            log.outcome = "success"
            return log
    log.outcome = "step-limit"
    return log


def pose_errors_batch(pose: np.ndarray, goal_pos: np.ndarray, goal_dir: np.ndarray):
    """pose_errors for an (n, 4, 4) pose stack against n goals, bit for bit."""
    dx = pose[:, 0, 3] - goal_pos[:, 0]
    dy = pose[:, 1, 3] - goal_pos[:, 1]
    dz = pose[:, 2, 3] - goal_pos[:, 2]
    pos = np.sqrt(dx * dx + dy * dy + dz * dz)
    dot = (pose[:, 0, 2] * goal_dir[:, 0]
           + pose[:, 1, 2] * goal_dir[:, 1]
           + pose[:, 2, 2] * goal_dir[:, 2])
    # math.acos, not np.arccos: the two differ in the last bit on some inputs.
    acos = np.fromiter(map(math.acos, np.clip(dot, -1.0, 1.0).tolist()), float, len(dot))
    return pos, np.degrees(acos)


def train_lockstep(
    goals_by_bin: Mapping[int, Sequence[GoalPose]],
    seed: int,
    hp: HyperParams,
    *,
    params: ArmParams,
    action_spec: ActionSpec,
    reward_spec: RewardSpec,
    binning: BinningSpec,
    max_steps: int = 200,
) -> QTable:
    """Train one episode per goal on the nominal plant, all goal bins in lockstep.

    The result is bit-identical to calling run_episode(train=True) for every
    bin in ascending order and every goal of the bin in order, each episode
    drawing from a generator keyed (seed, 0, bin, goal index). That holds
    because every state an episode visits carries its goal's bin prefix:
    episodes in different bins read and write disjoint rows, so only a bin's
    own episodes have to run in sequence.

    The lanes are the bins. Round k runs each lane's k-th goal, one numpy step
    across all lanes still running; a lane that reaches success idles until
    the round ends. Each lane keeps its values and flags in a (1024, actions)
    block of its own, which becomes that bin's block in the returned table.
    No step log is kept.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    bins = sorted(goals_by_bin)
    n_actions = action_spec.action_count
    values = np.zeros((len(bins), N_TIP_STATES, n_actions), dtype=np.float32)
    flags = np.zeros(values.shape, dtype=np.uint16)
    origin = rest_tip_origin(params.l0_mm)
    start = np.full((N_SEGMENTS, N_CHAMBERS), params.p_max_kpa / 2.0)
    start_segments = segment_transform_batch(start, params)
    rs = reward_spec

    for k in range(max((len(g) for g in goals_by_bin.values()), default=0)):
        lanes = [i for i, b in enumerate(bins) if k < len(goals_by_bin[b])]
        goals = [goals_by_bin[bins[i]][k] for i in lanes]
        for i, goal in zip(lanes, goals):
            prefix = encode_goal_prefix(goal.position, goal.direction, origin, binning)
            if prefix != bins[i]:
                raise ValueError(f"goal {k} of bin {bins[i]} encodes to goal bin {prefix}")
        rngs = [np.random.default_rng(np.random.SeedSequence((seed, 0, bins[i], k)))
                for i in lanes]
        block = np.asarray(lanes, dtype=np.int64)
        goal_pos = np.array([g.position for g in goals])
        goal_dir = np.array([g.direction for g in goals])
        frames = np.array([goal_frame(g.direction).T for g in goals])
        n = len(lanes)
        pressures = np.broadcast_to(start, (n, N_SEGMENTS, N_CHAMBERS)).copy()
        segments = np.broadcast_to(start_segments[:, None], (N_SEGMENTS, n, 4, 4)).copy()
        pose = segments[0] @ segments[1] @ segments[2] @ segments[3]
        pos, rot = pose_errors_batch(pose, goal_pos, goal_dir)
        state = encode_tip_suffix_batch(pose[:, :3, 3], pose[:, :3, 2], goal_pos, frames, binning)
        done = rs.is_success(pos, rot)

        for _ in range(max_steps):
            if done.any():
                keep = ~done
                block, goal_pos, goal_dir, frames, pressures, pos, rot, state = (
                    a[keep] for a in (block, goal_pos, goal_dir, frames, pressures,
                                      pos, rot, state)
                )
                segments = segments[:, keep]
                rngs = [g for g, kept in zip(rngs, keep) if kept]
            n = len(rngs)
            if n == 0:
                break
            # Each lane's draws follow select_action: one uniform per step,
            # then an action id on an exploring step.
            explore = np.fromiter((g.random() for g in rngs), float, n) < hp.epsilon
            action = values[block, state].argmax(axis=1)
            for i in np.flatnonzero(explore).tolist():
                action[i] = rngs[i].integers(n_actions)

            seg = action_spec.apply_batch(pressures, action, params.p_max_kpa)
            lane = np.arange(n)
            segments[seg, lane] = segment_transform_batch(pressures[lane, seg], params)
            pose = segments[0] @ segments[1] @ segments[2] @ segments[3]

            new_pos, new_rot = pose_errors_batch(pose, goal_pos, goal_dir)
            next_state = encode_tip_suffix_batch(
                pose[:, :3, 3], pose[:, :3, 2], goal_pos, frames, binning
            )
            done = rs.is_success(new_pos, new_rot)
            reward = (rs.w_p_per_mm * (pos - new_pos) + rs.w_r_per_deg * (rot - new_rot)
                      - rs.step_penalty)
            reward = np.where(done, reward + rs.goal_bonus, reward)
            if not np.isfinite(reward).all():
                raise ValueError("reward must be finite")

            # QTable.update, lane by lane: float64 arithmetic, float32 storage.
            target = reward + hp.gamma * values[block, next_state].max(axis=1).astype(np.float64)
            old = values[block, state, action].astype(np.float64)
            values[block, state, action] = old + hp.alpha * (target - old)
            flags[block, state, action] |= FLAG_TRAINED
            state, pos, rot = next_state, new_pos, new_rot

    return QTable.from_blocks(
        {b: (values[i], flags[i]) for i, b in enumerate(bins)}, n_actions
    )
