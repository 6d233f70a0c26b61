"""Point-to-point control episodes against a pluggable arm plant.

A plant turns a commanded pressure matrix into an observed tip pose. The
nominal plant is the forward-kinematics model itself; the perturbed plant
wraps the same model with scaled gains, a gravity-sag surrogate, and
observation noise, standing in for an imperfectly modeled physical arm.
One episode drives the tip from a fixed initial pressurization toward a
goal pose, one quasi-static action per step, optionally applying learning
updates along the way. Training and evaluation run many episodes at once,
each as one lane of a shared numpy step: train_lockstep steps one episode per
goal bin, greedy_lockstep one per (goal, repetition), or one per goal on the
nominal plant, where repetitions are identical. Both are bit-identical to
run_episode called on each episode in turn.
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


def noise_generator(seed: int, episode: tuple[int, ...] = ()) -> np.random.Generator:
    """The perturbed plant's observation-noise stream, keyed (seed, 1, *episode)."""
    return np.random.default_rng(np.random.SeedSequence((seed, 1, *episode)))


class PerturbedPlant:
    """Nominal kinematics with scaled gains, gravity droop, and tip noise.

    Gain scales depend on the seed alone and are fixed at construction
    (drawn from the config spread when not pinned). The observation noise
    comes from noise_generator(seed, episode) and advances with every
    apply(). Evaluation builds one plant per episode, keyed episode =
    (goal index, repetition), so each episode's noise is its own stream and
    does not depend on how long the other episodes ran; greedy_lockstep
    draws those same streams for its lanes.
    """

    def __init__(self, params: ArmParams, cfg: PerturbedPlantConfig, seed: int,
                 episode: tuple[int, ...] = ()):
        scale_rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        lo, hi = 1.0 - cfg.scale_spread, 1.0 + cfg.scale_spread
        self.a_scale = cfg.a_scale if cfg.a_scale is not None else float(scale_rng.uniform(lo, hi))
        self.b_scale = cfg.b_scale if cfg.b_scale is not None else float(scale_rng.uniform(lo, hi))
        self.cfg = cfg
        self.seed = seed
        self.nominal_params = params
        self.true_params = ArmParams(
            a_gain=params.a_gain * self.a_scale,
            b_gain=params.b_gain * self.b_scale,
            l0_mm=params.l0_mm,
            p_max_kpa=params.p_max_kpa,
            k_eps=params.k_eps,
        )
        self._true = NominalPlant(self.true_params)
        self._noise = noise_generator(seed, episode)

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
    # minimum/maximum clip as np.clip does, without its per-call overhead.
    cos = np.minimum(np.maximum(dot, -1.0), 1.0)
    acos = np.fromiter(map(math.acos, cos.tolist()), float, len(dot))
    return pos, np.degrees(acos)


class _Lanes:
    """Episodes stepped together, one per lane: the step every lockstep loop runs.

    Lanes g * repetitions .. (g + 1) * repetitions - 1 drive the tip toward
    goal g from the fixed start pressurization, on the plant given by
    ``params`` (the nominal model, or a perturbed plant's true_params). A step applies each lane's action, recomputes only
    the segment it moved, rebuilds the tip pose as ((t0 @ t1) @ t2) @ t3 and
    observes it: on a perturbed plant the tip first droops by ``droop_gain``
    times its horizontal reach, then gets row ``t`` of the lane's (steps+1, 3)
    ``noise`` block added. The observation sets pos, rot (pose_errors) and
    state (the packed tip suffix). Per-lane arrays hold the lane on axis 0,
    except ``segments`` (axis 1); ``ids`` holds each running lane's number.
    """

    def __init__(self, goals: Sequence[GoalPose], *, params: ArmParams,
                 action_spec: ActionSpec, binning: BinningSpec, repetitions: int = 1,
                 droop_gain: float | None = None, noise: np.ndarray | None = None):
        n = len(goals) * repetitions
        self.params, self.action_spec, self.binning = params, action_spec, binning
        self.droop_gain, self.noise = droop_gain, noise
        self.ids = np.arange(n)
        self.goal_pos, self.goal_dir, self.frames = (
            np.repeat(np.array(a).reshape(-1, *shape), repetitions, axis=0)
            for a, shape in (([g.position for g in goals], (3,)),
                             ([g.direction for g in goals], (3,)),
                             ([goal_frame(g.direction).T for g in goals], (3, 3)))
        )
        start = np.full((N_SEGMENTS, N_CHAMBERS), params.p_max_kpa / 2.0)
        self.pressures = np.broadcast_to(start, (n, N_SEGMENTS, N_CHAMBERS)).copy()
        start_segments = segment_transform_batch(start, params)
        self.segments = np.broadcast_to(start_segments[:, None], (N_SEGMENTS, n, 4, 4)).copy()
        self.t = 0
        self._observe()

    def __len__(self) -> int:
        return len(self.ids)

    def _observe(self) -> None:
        s = self.segments
        pose = s[0] @ s[1] @ s[2] @ s[3]
        if self.droop_gain is not None:
            # math.hypot, not np.hypot: the two differ in the last bit on some inputs.
            reach = map(math.hypot, pose[:, 0, 3].tolist(), pose[:, 1, 3].tolist())
            pose[:, 2, 3] -= self.droop_gain * np.fromiter(reach, float, len(pose))
        if self.noise is not None:
            pose[:, :3, 3] += self.noise[:, self.t]
        self.pos, self.rot = pose_errors_batch(pose, self.goal_pos, self.goal_dir)
        self.state = encode_tip_suffix_batch(
            pose[:, :3, 3], pose[:, :3, 2], self.goal_pos, self.frames, self.binning
        )

    def step(self, action: np.ndarray) -> None:
        """Apply one action per lane and observe the new tip."""
        seg = self.action_spec.apply_batch(self.pressures, action, self.params.p_max_kpa)
        lane = np.arange(len(action))
        self.segments[seg, lane] = segment_transform_batch(self.pressures[lane, seg], self.params)
        self.t += 1
        self._observe()

    def keep(self, mask: np.ndarray) -> None:
        """Drop the lanes where ``mask`` is False."""
        for name in ("ids", "goal_pos", "goal_dir", "frames", "pressures", "pos", "rot",
                     "state"):
            setattr(self, name, getattr(self, name)[mask])
        self.segments = self.segments[:, mask]
        if self.noise is not None:
            self.noise = self.noise[mask]


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
    rs = reward_spec

    for k in range(max((len(g) for g in goals_by_bin.values()), default=0)):
        blocks = [i for i, b in enumerate(bins) if k < len(goals_by_bin[b])]
        goals = [goals_by_bin[bins[i]][k] for i in blocks]
        for i, goal in zip(blocks, goals):
            prefix = encode_goal_prefix(goal.position, goal.direction, origin, binning)
            if prefix != bins[i]:
                raise ValueError(f"goal {k} of bin {bins[i]} encodes to goal bin {prefix}")
        rngs = [np.random.default_rng(np.random.SeedSequence((seed, 0, bins[i], k)))
                for i in blocks]
        block = np.asarray(blocks, dtype=np.int64)
        lanes = _Lanes(goals, params=params, action_spec=action_spec, binning=binning)
        done = rs.is_success(lanes.pos, lanes.rot)

        for _ in range(max_steps):
            if done.any():
                keep = ~done
                lanes.keep(keep)
                block = block[keep]
                rngs = [g for g, kept in zip(rngs, keep) if kept]
            n = len(lanes)
            if n == 0:
                break
            # Each lane's draws follow select_action: one uniform per step,
            # then an action id on an exploring step.
            explore = np.fromiter((g.random() for g in rngs), float, n) < hp.epsilon
            state = lanes.state
            action = values[block, state].argmax(axis=1)
            for i in np.flatnonzero(explore).tolist():
                action[i] = rngs[i].integers(n_actions)

            pos, rot = lanes.pos, lanes.rot
            lanes.step(action)
            done = rs.is_success(lanes.pos, lanes.rot)
            reward = (rs.w_p_per_mm * (pos - lanes.pos) + rs.w_r_per_deg * (rot - lanes.rot)
                      - rs.step_penalty)
            reward = np.where(done, reward + rs.goal_bonus, reward)
            if not np.isfinite(reward).all():
                raise ValueError("reward must be finite")

            # QTable.update, lane by lane: float64 arithmetic, float32 storage.
            target = reward + hp.gamma * values[block, lanes.state].max(axis=1).astype(np.float64)
            old = values[block, state, action].astype(np.float64)
            values[block, state, action] = old + hp.alpha * (target - old)
            flags[block, state, action] |= FLAG_TRAINED

    return QTable.from_blocks(
        {b: (values[i], flags[i]) for i, b in enumerate(bins)}, n_actions
    )


@dataclass(frozen=True)
class GreedyRuns:
    """Outcome of greedy_lockstep, indexed [goal, repetition] and, for series, step.

    Series are padded to max_steps + 1 by holding an episode's last value.
    ``selections[goal]`` counts the goal's action selections, over all its
    repetitions, made on rows holding a trained entry, rows holding only
    augmented entries, and empty rows (no flag set), in that order.
    """

    pos: np.ndarray          # (goals, repetitions, max_steps + 1)
    rot: np.ndarray
    success: np.ndarray      # (goals, repetitions)
    selections: np.ndarray   # (goals, 3)


def greedy_lockstep(
    table: QTable,
    goals: Sequence[GoalPose],
    *,
    repetitions: int,
    params: ArmParams,
    action_spec: ActionSpec,
    reward_spec: RewardSpec,
    binning: BinningSpec,
    max_steps: int = 200,
    plant: PerturbedPlant | None = None,
) -> GreedyRuns:
    """Run every (goal, repetition) episode greedily, all in lockstep; the table is read only.

    Repetition rep of goal_i is the episode run_episode(train=False) would
    run on NominalPlant(params) (plant None) or on PerturbedPlant(params,
    plant.cfg, plant.seed, (goal_i, rep)), bit for bit. On a perturbed plant
    each repetition is a lane of its own. The nominal plant is deterministic
    and greedy selection draws nothing, so there all repetitions of a goal
    are the same episode: it runs once, as one lane, and is copied.
    Greedy selection takes the argmax of the lane's row, ties to the lowest
    action id; rows come from the table's blocks for the goals' bins, and
    read zero in a bin the table does not hold. A lane that reaches success
    drops out.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if table.action_count != action_spec.action_count:
        raise ValueError(f"table has {table.action_count} actions, "
                         f"the action spec {action_spec.action_count}")
    origin = rest_tip_origin(params.l0_mm)
    goal_bins = [encode_goal_prefix(g.position, g.direction, origin, binning) for g in goals]
    held = sorted(set(goal_bins) & table.blocks.keys())
    # One block per held bin, then one zero block for the bins the table lacks.
    values = np.zeros((len(held) + 1, N_TIP_STATES, table.action_count), dtype=np.float32)
    flags = np.zeros(values.shape, dtype=np.uint16)
    for i, b in enumerate(held):
        values[i], flags[i] = table.blocks[b]
    # Row kind: 0 holds a trained entry, 1 only augmented ones, 2 is empty.
    kind = np.where((flags & FLAG_TRAINED).any(axis=2), 0, np.where(flags.any(axis=2), 1, 2))
    block_of = {b: i for i, b in enumerate(held)}
    copies = repetitions if plant is None else 1
    lane_reps = repetitions // copies  # lanes per goal
    lane_block = np.repeat([block_of.get(b, len(held)) for b in goal_bins], lane_reps)

    n = len(goals) * lane_reps
    length = max_steps + 1
    fk_params, droop_gain, noise = params, None, None
    if plant is not None:
        fk_params, droop_gain = plant.true_params, plant.cfg.droop_gain
        sigma = plant.cfg.tip_noise_sigma_mm
        if sigma > 0.0:  # as in PerturbedPlant.apply, which then draws nothing
            noise = np.array([
                noise_generator(plant.seed, (g, rep)).normal(0.0, sigma, (length, 3))
                for g in range(len(goals)) for rep in range(repetitions)
            ])
    lanes = _Lanes(goals, params=fk_params, action_spec=action_spec, binning=binning,
                   repetitions=lane_reps, droop_gain=droop_gain, noise=noise)

    pos = np.empty((n, length))
    rot = np.empty((n, length))
    last = np.full(n, max_steps)
    success = np.zeros(n, dtype=bool)
    selections = np.zeros((n, 3), dtype=np.int64)
    pos[:, 0], rot[:, 0] = lanes.pos, lanes.rot
    done = reward_spec.is_success(lanes.pos, lanes.rot)
    for step in range(1, length):
        if done.any():
            finished = lanes.ids[done]
            success[finished] = True
            last[finished] = step - 1
            lanes.keep(~done)
        if len(lanes) == 0:
            break
        block = lane_block[lanes.ids]
        selections[lanes.ids, kind[block, lanes.state]] += 1
        lanes.step(values[block, lanes.state].argmax(axis=1))
        pos[lanes.ids, step], rot[lanes.ids, step] = lanes.pos, lanes.rot
        done = reward_spec.is_success(lanes.pos, lanes.rot)
    else:  # the lanes still running ended at the step limit
        success[lanes.ids[done]] = True

    held_last = np.arange(length) > last[:, None]
    rows = np.arange(n)
    pos = np.where(held_last, pos[rows, last][:, None], pos)
    rot = np.where(held_last, rot[rows, last][:, None], rot)
    shape = (len(goals), lane_reps)
    return GreedyRuns(
        pos=np.repeat(pos.reshape(shape + (length,)), copies, axis=1),
        rot=np.repeat(rot.reshape(shape + (length,)), copies, axis=1),
        success=np.repeat(success.reshape(shape), copies, axis=1),
        selections=selections.reshape(shape + (3,)).sum(axis=1) * copies,
    )
