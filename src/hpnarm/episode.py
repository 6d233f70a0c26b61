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

The shared step keeps its fixed cost low in four ways, none of which changes
a bit. Segment transforms come from a lattice built once per process: every
segment state the chamber-pressure closure allows (13 pressures, so 13**4
states, at the default 60 kPa ceiling and 5 kPa step), up to
LATTICE_MAX_PRESSURES pressures, beyond which the step computes them.
Training's exploration draws come from each episode's raw PCG64 words, read
once per round as select_action would (exploration_draws). The tip state is
binned from numpy's angles, recomputed with math only near a bin edge
(state.encode_tip_stack). And one pass observes the tip (observe_batch): the
pose errors and the tip state share the tip offset and the goal-frame tip
direction, which are built and binned together.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kinematics import (
    ArmParams,
    N_CHAMBERS,
    N_SEGMENTS,
    actuation_to_config,
    segment_transform,
    segment_transform_batch,
    tip_of,
    validate_pressures,
)
from .qtable import (
    FLAG_TRAINED,
    N_ACTIONS,
    ActionSpec,
    HyperParams,
    QTable,
    select_action,
)
from .state import (
    N_GOAL_BINS,
    N_TIP_STATES,
    BinningSpec,
    GoalPose,
    StateEncoder,
    check_goal_bins,
    encode_goal_prefix_batch,
    encode_tip_stack,
    goal_frame,
    rest_tip_origin,
)

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
    apply(). Evaluation builds one plant for the whole run, which fixes the
    gain scales; greedy_lockstep then draws each (goal index, repetition)
    episode's noise from noise_generator(seed, (goal index, repetition)),
    the stream a plant keyed by that episode would use. So an episode's
    noise is its own and does not depend on how long the other episodes ran.
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


def observe_batch(tip: np.ndarray, goals: np.ndarray, frames: np.ndarray,
                  binning: BinningSpec):
    """pose_errors and the packed tip suffix of an (n, 3, 2) tip_of stack, in one pass.

    ``goals`` (n, 6) holds each goal's position then direction, ``frames``
    (n, 3, 3) the transpose of its goal_frame. Returns (pos, rot, state): row
    i is pose_errors(pose_i, goal_i) and StateEncoder(goal_i, ...)
    .encode_tip_index modulo N_TIP_STATES, bit for bit, where tip[i] is
    pose_i[:3, 2:], the direction and position columns. The tip offset
    and the tip direction in the goal frame are stacked and binned together;
    pos is the offset's radius, and rot comes from the direction's goal-frame
    z, since the frame's last row is the goal direction: the same products,
    added in the same order, as pose_errors' dot product.
    """
    n = len(tip)
    v = np.empty((2 * n, 3))
    np.subtract(tip[:, :, 1], goals[:, :3], out=v[:n])
    terms = frames * tip[:, None, :, 0]
    np.add(terms[:, :, 0], terms[:, :, 1], out=v[n:])
    v[n:] += terms[:, :, 2]
    pos, state = encode_tip_stack(v, binning)
    # math.acos, not np.arccos: the two differ in the last bit on some inputs.
    # minimum/maximum clip as np.clip does, without its per-call overhead.
    cos = np.minimum(np.maximum(v[n:, 2], -1.0), 1.0)
    rot = np.degrees(np.fromiter(map(math.acos, cos.tolist()), float, n))
    return pos, rot, state


# Largest chamber-pressure closure _Lanes precomputes segment transforms for:
# 16 pressures give 16**4 = 65,536 segment states, an 8 MB transform table.
LATTICE_MAX_PRESSURES = 16


def pressure_closure(action_spec: ActionSpec, p_max_kpa: float, limit: int):
    """Every pressure a chamber can hold, sorted, or None when there are more than ``limit``.

    A chamber starts at p_max / 2 and each action moves it by +-delta_p,
    clipped to [0, p_max], in exactly the float operations of
    ActionSpec.apply_batch, so the closure is the set of values those
    operations reach.
    """
    step = np.array([action_spec.delta_p_kpa, -action_spec.delta_p_kpa])
    values = frontier = np.array([p_max_kpa / 2.0])
    while frontier.size:
        reached = np.minimum(np.maximum(frontier[:, None] + step, 0.0), p_max_kpa)
        frontier = np.setdiff1d(reached, values)
        values = np.union1d(values, frontier)
        if values.size > limit:
            return None
    return values


@dataclass(frozen=True)
class _SegmentLattice:
    """Every segment state one chamber-pressure closure allows, with its transform.

    A segment state packs its four chamber pressures' closure indices in base
    len(closure), chamber 0 first. ``transforms`` (states, 4, 4) holds each
    state's segment_transform_batch row; ``moves`` (states, 8) the state an
    action leaves it in, by chamber * 2 + down (the action id modulo 8);
    ``start`` is the state with every chamber at p_max / 2.
    """

    transforms: np.ndarray
    moves: np.ndarray
    start: int


# Two entries hold an evaluation's nominal and perturbed plants.
@functools.lru_cache(maxsize=2)
def _segment_lattice(params: ArmParams, action_spec: ActionSpec) -> _SegmentLattice | None:
    """The segment lattice of an arm and action step, or None past LATTICE_MAX_PRESSURES.

    Cached: the first call for a (params, action_spec) pair runs
    segment_transform_batch over every state, about 30-40 ms at the default.
    """
    values = pressure_closure(action_spec, params.p_max_kpa, LATTICE_MAX_PRESSURES)
    if values is None:
        return None
    v = len(values)
    digits = np.indices((v,) * N_CHAMBERS).reshape(N_CHAMBERS, -1).T
    place = v ** np.arange(N_CHAMBERS - 1, -1, -1)
    states = digits @ place
    transforms = np.empty((len(states), 4, 4))
    for rows in np.split(np.arange(len(states)), v):  # v blocks bound the temporaries
        transforms[rows] = segment_transform_batch(values[digits[rows]], params)
    moves = np.empty((len(states), 2 * N_CHAMBERS), dtype=np.int32)
    for down, delta in enumerate((action_spec.delta_p_kpa, -action_spec.delta_p_kpa)):
        moved = np.minimum(np.maximum(values + delta, 0.0), params.p_max_kpa)
        to = values.searchsorted(moved)
        for chamber in range(N_CHAMBERS):
            d = digits[:, chamber]
            moves[:, 2 * chamber + down] = states + (to[d] - d) * place[chamber]
    transforms.flags.writeable = moves.flags.writeable = False
    start = int(values.searchsorted(params.p_max_kpa / 2.0) * place.sum())
    return _SegmentLattice(transforms, moves, start)


class _Lanes:
    """Episodes stepped together, one per lane: the step every lockstep loop runs.

    Lanes g * repetitions .. (g + 1) * repetitions - 1 drive the tip toward
    goal g, row g of the (goals, 6) ``goals`` (position, then direction), from
    the fixed start pressurization, on the plant given by ``params`` (the
    nominal model, or a perturbed plant's true_params). A step applies each
    lane's action, recomputes only the segment it moved, rebuilds the tip
    with kinematics.tip_of and observes it: on a perturbed plant the
    tip first droops by ``droop_gain`` times its horizontal reach, then gets
    row ``t`` of the lane's (steps+1, 3) ``noise`` block added. The
    observation, observe_batch, sets pos, rot (pose_errors) and state (the
    packed tip suffix) in one pass. Per-lane arrays hold the lane on axis 0,
    except ``segments`` (axis 1); ``ids`` holds each running lane's number.

    A segment's transform is looked up, not computed, when the chamber
    pressures can take at most LATTICE_MAX_PRESSURES values (13 at the
    default 60 kPa ceiling and 5 kPa step): the lanes then carry each
    segment's lattice state in ``codes`` (lanes, 4) and a step is two
    gathers from the cached _SegmentLattice. Past that bound they carry
    ``pressures`` (lanes, 4, 4) and call segment_transform_batch on the
    moved segments. Both give the same bits: a lattice row is the
    segment_transform_batch row of its pressures. The tip state is binned
    from numpy's angles; state.encode_tip_stack recomputes with math only an
    angle within 1e-9 rad of a bin edge or of the azimuth fold at pi, where
    the two could bin apart.
    """

    def __init__(self, goals: np.ndarray, *, params: ArmParams,
                 action_spec: ActionSpec, binning: BinningSpec, repetitions: int = 1,
                 droop_gain: float | None = None, noise: np.ndarray | None = None):
        n = len(goals) * repetitions
        self.params, self.action_spec, self.binning = params, action_spec, binning
        self.droop_gain, self.noise = droop_gain, noise
        self.ids = np.arange(n)
        self.goals = np.repeat(goals, repetitions, axis=0)
        frames = np.array([goal_frame(d).T for d in goals[:, 3:]]).reshape(-1, 3, 3)
        self.frames = np.repeat(frames, repetitions, axis=0)
        self.lattice = _segment_lattice(params, action_spec)
        if self.lattice is None:
            start = np.full((N_SEGMENTS, N_CHAMBERS), params.p_max_kpa / 2.0)
            self.pressures = np.broadcast_to(start, (n, N_SEGMENTS, N_CHAMBERS)).copy()
            start_segment = segment_transform_batch(start[:1], params)[0]
        else:
            self.codes = np.full((n, N_SEGMENTS), self.lattice.start)
            start_segment = self.lattice.transforms[self.lattice.start]
        self.segments = np.broadcast_to(start_segment, (N_SEGMENTS, n, 4, 4)).copy()
        self.t = 0
        self._observe()

    def __len__(self) -> int:
        return len(self.ids)

    def _observe(self) -> None:
        tip = tip_of(*self.segments)
        if self.droop_gain is not None:
            # math.hypot, not np.hypot: the two differ in the last bit on some inputs.
            reach = map(math.hypot, tip[:, 0, 1].tolist(), tip[:, 1, 1].tolist())
            tip[:, 2, 1] -= self.droop_gain * np.fromiter(reach, float, len(tip))
        if self.noise is not None:
            tip[:, :, 1] += self.noise[:, self.t]
        self.pos, self.rot, self.state = observe_batch(tip, self.goals, self.frames,
                                                       self.binning)

    def step(self, action: np.ndarray) -> None:
        """Apply one action per lane and observe the new tip."""
        lane = np.arange(len(self.ids))
        if self.lattice is None:
            seg = self.action_spec.apply_batch(self.pressures, action, self.params.p_max_kpa)
            moved = segment_transform_batch(self.pressures[lane, seg], self.params)
        else:
            seg, move = np.divmod(action, 2 * N_CHAMBERS)
            code = self.lattice.moves[self.codes[lane, seg], move]
            self.codes[lane, seg] = code
            moved = self.lattice.transforms.take(code, axis=0)
        self.segments[seg, lane] = moved
        self.t += 1
        self._observe()

    def keep(self, mask: np.ndarray) -> None:
        """Drop the lanes where ``mask`` is False."""
        chambers = "pressures" if self.lattice is None else "codes"
        for name in ("ids", "goals", "frames", chambers, "pos", "rot", "state"):
            setattr(self, name, getattr(self, name)[mask])
        self.segments = self.segments[:, mask]
        if self.noise is not None:
            self.noise = self.noise[mask]


# integers(N_ACTIONS) keeps the top log2(N_ACTIONS) bits of a 32-bit draw: for a
# power of two, Lemire's method never rejects.
assert N_ACTIONS & (N_ACTIONS - 1) == 0
_ACTION_SHIFT = 33 - N_ACTIONS.bit_length()

# The least float64 magnitude that float32 rounds to infinity: halfway from
# float32's largest finite value, 2**128 - 2**104, to 2**128.
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103


def exploration_draws(raw: np.ndarray, epsilon: float, steps: int) -> np.ndarray:
    """(lanes, steps) action that select_action draws at each step, or -1 where it is greedy.

    Row i of ``raw`` holds the first words of lane i's PCG64 stream
    (bit_generator.random_raw), at least two per step. Each step takes one
    word as Generator.random(), (word >> 11) * 2**-53, and explores when that
    is below ``epsilon``. An exploring step's integers(32) reads 32 bits: the
    low half of a fresh word, or the high half the previous such read left
    buffered; the action is those bits >> 27, integers(32) by Lemire's method.
    """
    explore = (raw >> 11) * 2.0**-53 < epsilon
    low = ((raw & 0xFFFFFFFF) >> _ACTION_SHIFT).tolist()
    high = (raw >> 32 + _ACTION_SHIFT).tolist()
    out = np.full((len(raw), steps), -1)
    for lane, candidates in enumerate(explore):
        # Word w is step w - shift's random(), where shift counts the words
        # read whole by integers() before it; only exploring words need a look.
        shift, half, fresh = 0, None, -1
        for word in candidates.nonzero()[0].tolist():
            if word == fresh:  # read by integers(), not by random()
                continue
            step = word - shift
            if step >= steps:
                break
            if half is None:
                fresh = word + 1
                shift += 1
                out[lane, step], half = low[lane][fresh], high[lane][fresh]
            else:
                out[lane, step], half = half, None
    return out


def train_lockstep(
    bins: np.ndarray,
    goals: np.ndarray,
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

    ``bins`` (m,) holds strictly increasing goal bins and ``goals`` (m, quota, 6)
    each bin's goal rows, position then direction (a GoalBank's two arrays).
    ``goals`` must have that shape and every goal must encode to its bin, or
    ValueError is raised before any episode runs (state.check_goal_bins).

    The result is bit-identical to calling run_episode(train=True) for every
    bin in ascending order and every goal of the bin in order, each episode
    drawing from a generator keyed (seed, 0, bin, goal index). That holds
    because every state an episode visits carries its goal's bin prefix:
    episodes in different bins read and write disjoint rows, so only a bin's
    own episodes have to run in sequence.

    The lanes are the bins: lane i trains row i of the stacked (bins, 1024,
    actions) value and flag arrays, which become the returned table as they
    are, unscanned: each step checks its TD results before writing them,
    and the first that float32 cannot hold finitely, in lane order, raises
    QTable.update's ValueError. Round k runs goals[:, k], one numpy step
    across all lanes still running; a lane that reaches success idles until
    the round ends. No step log is kept. A round starts by reading 2 *
    max_steps raw words of each lane's stream and turning them into the
    lane's exploring actions (exploration_draws); a step takes a lane's drawn
    action where there is one and its row's argmax elsewhere, the choice
    select_action makes.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    bins = np.asarray(bins, dtype=np.int64).tolist()
    in_range = not bins or 0 <= bins[0] and bins[-1] < N_GOAL_BINS
    if not in_range or any(a >= b for a, b in zip(bins, bins[1:])):
        raise ValueError(f"goal bins must be strictly increasing in [0, {N_GOAL_BINS})")
    check_goal_bins(bins, goals, rest_tip_origin(params.l0_mm), binning)
    n_actions = action_spec.action_count
    values = np.zeros((len(bins), N_TIP_STATES, n_actions), dtype=np.float32)
    flags = np.zeros(values.shape, dtype=np.uint16)
    # Lane i's row for a tip state is i * N_TIP_STATES + state of these views.
    rows, flag_rows = values.reshape(-1, n_actions), flags.reshape(-1, n_actions)
    rs = reward_spec

    for k in range(goals.shape[1] if bins else 0):
        raw = np.array([
            np.random.PCG64(np.random.SeedSequence((seed, 0, b, k))).random_raw(2 * max_steps)
            for b in bins
        ])
        draws = exploration_draws(raw, hp.epsilon, max_steps)
        lanes = _Lanes(goals[:, k], params=params, action_spec=action_spec, binning=binning)
        done = rs.is_success(lanes.pos, lanes.rot)

        for t in range(max_steps):
            if done.any():
                lanes.keep(~done)
            if len(lanes) == 0:
                break
            base = lanes.ids * N_TIP_STATES
            row = base + lanes.state
            drawn = draws[:, t][lanes.ids]
            action = np.where(drawn < 0, rows.take(row, axis=0).argmax(axis=1), drawn)

            pos, rot = lanes.pos, lanes.rot
            lanes.step(action)
            done = rs.is_success(lanes.pos, lanes.rot)
            reward = (rs.w_p_per_mm * (pos - lanes.pos) + rs.w_r_per_deg * (rot - lanes.rot)
                      - rs.step_penalty)
            reward = np.where(done, reward + rs.goal_bonus, reward)
            if not np.isfinite(reward).all():
                raise ValueError("reward must be finite")

            # QTable.update, lane by lane: float64 arithmetic, float32 storage.
            next_row = base + lanes.state
            # The row's max, read at its argmax: the same value, and the same
            # bits, since a table trained from zero never holds -0.0.
            best = rows[next_row, rows.take(next_row, axis=0).argmax(axis=1)].astype(np.float64)
            target = reward + hp.gamma * best
            old = rows[row, action].astype(np.float64)
            new = old + hp.alpha * (target - old)
            # QTable._store's check without a cast: float32 rounds a magnitude
            # from _FLOAT32_OVERFLOW up, and NaN, to non-finite.
            fit = np.abs(new) < _FLOAT32_OVERFLOW
            if not fit.all():
                i = int(fit.argmin())
                state = bins[lanes.ids[i]] * N_TIP_STATES + int(row[i] - base[i])
                raise ValueError(f"state {state} action {action[i]}: {float(new[i])} "
                                 "not finite in float32")
            rows[row, action] = new
            flag_rows[row, action] = FLAG_TRAINED  # the only flag training sets

    # Values finite in float32, flags FLAG_TRAINED or 0: nothing to rescan.
    out = QTable(n_actions)
    out.bins, out.bin_values, out.bin_flags = np.array(bins, dtype=np.int64), values, flags
    return out


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
    action id. Each distinct goal bin's actions and row kinds are read once
    from the table's stacked arrays, which are never written; in a bin the
    table does not hold rows read zero and count as empty. A lane that
    reaches success drops out. The lanes step as train_lockstep's do (see
    _Lanes): on the nominal plant's lattice and, for a perturbed plant, on a
    second lattice of its true_params, both cached for the next call.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if table.action_count != action_spec.action_count:
        raise ValueError(f"table has {table.action_count} actions, "
                         f"the action spec {action_spec.action_count}")
    goal_poses = np.array([np.concatenate([g.position, g.direction]) for g in goals])
    goal_bins = encode_goal_prefix_batch(goal_poses[:, :3], goal_poses[:, 3:],
                                         rest_tip_origin(params.l0_mm), binning)
    goal_rows = table.bins.searchsorted(goal_bins)
    held = goal_rows < len(table.bins)
    held[held] = table.bins[goal_rows[held]] == goal_bins[held]
    # The greedy action and row kind at every tip state of each distinct held
    # bin, in one pass over those table rows. Row kind: 0 holds a trained
    # entry, 1 only augmented ones, 2 is empty. The last row stands for a bin
    # the table lacks, which reads zero: action 0, kind empty.
    used, slot = np.unique(goal_rows[held], return_inverse=True)
    goal_slot = np.full(len(goals), len(used))
    goal_slot[held] = slot
    policy = np.zeros((len(used) + 1, N_TIP_STATES), dtype=np.int64)
    kind = np.full(policy.shape, 2)
    flags = table.bin_flags[used]
    policy[:-1] = table.bin_values[used].argmax(axis=2)
    kind[:-1] = np.where((flags & FLAG_TRAINED).any(axis=2), 0,
                         np.where(flags.any(axis=2), 1, 2))
    copies = repetitions if plant is None else 1
    lane_reps = repetitions // copies  # lanes per goal
    lane_slot = np.repeat(goal_slot, lane_reps)  # by lane id

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
    lanes = _Lanes(goal_poses, params=fk_params, action_spec=action_spec, binning=binning,
                   repetitions=lane_reps, droop_gain=droop_gain, noise=noise)

    pos = np.empty((n, length))
    rot = np.empty((n, length))
    success = np.zeros(n, dtype=bool)
    selections = np.zeros((n, 3), dtype=np.int64)
    pos[:, 0], rot[:, 0] = lanes.pos, lanes.rot
    done = reward_spec.is_success(lanes.pos, lanes.rot)
    for step in range(1, length):
        if done.any():
            finished = lanes.ids[done]
            success[finished] = True
            # A finished episode holds its last value to the end of the series.
            pos[finished, step:] = pos[finished, step - 1, None]
            rot[finished, step:] = rot[finished, step - 1, None]
            lanes.keep(~done)
        if len(lanes) == 0:
            break
        at = lane_slot[lanes.ids], lanes.state
        selections[lanes.ids, kind[at]] += 1
        lanes.step(policy[at])
        pos[lanes.ids, step], rot[lanes.ids, step] = lanes.pos, lanes.rot
        done = reward_spec.is_success(lanes.pos, lanes.rot)
    else:  # the lanes still running ended at the step limit
        success[lanes.ids[done]] = True

    shape = (len(goals), lane_reps)
    return GreedyRuns(
        pos=np.repeat(pos.reshape(shape + (length,)), copies, axis=1),
        rot=np.repeat(rot.reshape(shape + (length,)), copies, axis=1),
        success=np.repeat(success.reshape(shape), copies, axis=1),
        selections=selections.reshape(shape + (3,)).sum(axis=1) * copies,
    )
