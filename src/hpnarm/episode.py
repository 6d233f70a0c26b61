"""Point-to-point control episodes against a pluggable arm plant.

A plant turns a commanded pressure matrix into an observed tip pose. The
nominal plant is the forward-kinematics model itself; the perturbed plant
wraps the same model with scaled gains, a gravity-sag surrogate, and
observation noise, standing in for an imperfectly modeled physical arm.
One episode drives the tip from a fixed initial pressurization toward a
goal pose, one quasi-static action per step, optionally applying learning
updates along the way. Training and evaluation run many episodes at once,
each a lane of a shared numpy step (_Lanes) that gives each lane's table row
and success: train_lockstep steps one episode per goal bin, evalrun.evaluate
one per (goal, repetition), or one per goal on a noise-free plant, where
repetitions are identical. Both are bit-identical to run_episode called on
each episode in turn.

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
from dataclasses import dataclass, field, replace

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
    _goal_bin_ids,
    check_integers,
    check_seed,
    select_action,
)
from .state import (
    N_GOAL_BINS,
    N_TIP_STATES,
    BinningSpec,
    GoalPose,
    StateEncoder,
    check_goal_bins,
    check_real_types,
    check_reals,
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
        check_reals(False, w_p_per_mm=self.w_p_per_mm, w_r_per_deg=self.w_r_per_deg,
                    goal_bonus=self.goal_bonus, step_penalty=self.step_penalty)
        check_reals(True, success_pos_mm=self.success_pos_mm,
                    success_rot_deg=self.success_rot_deg)

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
        scales = {"a_scale": self.a_scale, "b_scale": self.b_scale}
        check_reals(True, **{name: v for name, v in scales.items() if v is not None})
        check_real_types(scale_spread=self.scale_spread)
        if not 0.0 <= self.scale_spread < 1.0:
            raise ValueError(f"scale_spread must be finite and in [0, 1), got {self.scale_spread}")
        check_reals(False, tip_noise_sigma_mm=self.tip_noise_sigma_mm,
                    droop_gain=self.droop_gain)


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
    # default_rng(SeedSequence(key)) without the wrapper calls: PCG64 seeds from SeedSequence(key).
    return np.random.Generator(np.random.PCG64((seed, 1, *episode)))


class PerturbedPlant:
    """Nominal kinematics with scaled gains, gravity droop, and tip noise.

    Gain scales depend on the seed alone and are fixed at construction
    (drawn from the config spread when not pinned). The observation noise
    comes from noise_generator(seed, episode) and advances with every
    apply(). evalrun.evaluate builds one plant for the whole run, which fixes
    the gain scales, then draws each (goal index, repetition) episode's noise
    from noise_generator(seed, (goal index, repetition)), the stream a plant
    keyed by that episode would use. So an episode's noise is its own and
    does not depend on how long the other episodes ran.
    """

    def __init__(self, params: ArmParams, cfg: PerturbedPlantConfig, seed: int,
                 episode: tuple[int, ...] = ()):
        scale_rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        lo, hi = 1.0 - cfg.scale_spread, 1.0 + cfg.scale_spread
        # Both scales are drawn, pinned or not, so pinning one leaves the other's draw.
        a_draw, b_draw = scale_rng.uniform(lo, hi, 2).tolist()
        self.a_scale = a_draw if cfg.a_scale is None else cfg.a_scale
        self.b_scale = b_draw if cfg.b_scale is None else cfg.b_scale
        self.cfg = cfg
        self.seed = seed
        self.nominal_params = params
        self.true_params = replace(params, a_gain=params.a_gain * self.a_scale,
                                   b_gain=params.b_gain * self.b_scale)
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
    check_integers(1, max_steps=max_steps)
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

    ``goals`` holds each goal's position in its first three columns (a
    (n, 6) goal row of position then direction will do), ``frames`` (n, 3, 3)
    the transpose of its goal_frame. Returns (pos, rot, state): row
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
    offset, direction = v[:n], v[n:]
    np.subtract(tip[:, :, 1], goals[:, :3], out=offset)
    terms = frames * tip[:, None, :, 0]
    np.add(terms[:, :, 0], terms[:, :, 1], out=direction)
    direction += terms[:, :, 2]
    pos, state = encode_tip_stack(v, binning)
    # math.acos, not np.arccos: the two differ in the last bit on some inputs.
    # minimum/maximum clip as np.clip does, without its per-call overhead.
    cos = np.minimum(np.maximum(direction[:, 2], -1.0), 1.0)
    rot = np.degrees(np.fromiter(map(math.acos, cos.tolist()), float, n))
    return pos, rot, state


# Largest chamber-pressure closure _Lanes precomputes segment transforms for:
# 16 pressures give 16**4 = 65,536 segment states, an 8 MB transform table.
LATTICE_MAX_PRESSURES = 16


def pressure_closure(action_spec: ActionSpec, p_max_kpa: float, limit: int):
    """Every pressure a chamber can hold, sorted, or None when there are more than ``limit``.

    A chamber starts at p_max / 2 and each action moves it by ActionSpec.step,
    so the closure is the set of values that step reaches.
    """
    values = frontier = np.array([p_max_kpa / 2.0])
    while frontier.size:
        reached = action_spec.step(frontier[:, None], [False, True], p_max_kpa)
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
    for down in (0, 1):
        to = values.searchsorted(action_spec.step(values, down, params.p_max_kpa))
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
    lane's action, rebuilds the tip with kinematics.tip_of and observes
    it: on a perturbed plant the tip first droops by ``droop_gain`` times
    its horizontal reach, then gets row ``t`` of the lane's (steps+1, 3)
    ``noise`` block added. The observation, observe_batch, sets pos, rot
    (pose_errors) and state (the packed tip suffix) in one pass, then row,
    slots[g] * N_TIP_STATES + state (the lane's dense table row), and done
    (success by ``reward_spec``). Per-lane arrays hold the lane on axis 0,
    except ``segments`` (axis 1): ``ids`` holds each running lane's number,
    ``targets`` its goal position and ``frames`` its goal frame, transposed.

    A segment's transform is looked up, not computed, when the chamber
    pressures can take at most LATTICE_MAX_PRESSURES values (13 at the
    default 60 kPa ceiling and 5 kPa step): the lanes then carry only each
    segment's lattice state in ``codes`` (lanes, 4), and no segment stack.
    A step moves one code per lane through the cached _SegmentLattice, and
    the observation gathers every lane's four transforms in one take. Past
    that bound the lanes carry ``pressures`` (lanes, 4, 4) and the
    ``segments`` stack (4, lanes, 4, 4), and a step recomputes only the
    moved segments with segment_transform_batch. Both give the same bits: a
    lattice row is the segment_transform_batch row of its pressures, and
    tip_of multiplies the same 4x4 matrices either way. The tip state is binned
    from numpy's angles; state.encode_tip_stack recomputes with math only an
    angle within 1e-9 rad of a bin edge or of the azimuth fold at pi, where
    the two could bin apart.
    """

    def __init__(self, goals: np.ndarray, slots: np.ndarray, *, params: ArmParams,
                 action_spec: ActionSpec, reward_spec: RewardSpec, binning: BinningSpec,
                 repetitions: int = 1, droop_gain: float | None = None,
                 noise: np.ndarray | None = None):
        n = len(goals) * repetitions
        self.params, self.action_spec, self.binning = params, action_spec, binning
        self.reward_spec, self.droop_gain, self.noise = reward_spec, droop_gain, noise
        self.ids = np.arange(n)
        self._base = np.repeat(np.asarray(slots) * N_TIP_STATES, repetitions)
        self._lane = np.arange(n)  # each running lane's position, for per-lane gathers
        self.targets = np.repeat(goals[:, :3], repetitions, axis=0)  # contiguous positions
        frames = np.array([goal_frame(d).T for d in goals[:, 3:]]).reshape(-1, 3, 3)
        self.frames = np.repeat(frames, repetitions, axis=0)
        self.lattice = _segment_lattice(params, action_spec)
        if self.lattice is None:
            start = np.full((N_SEGMENTS, N_CHAMBERS), params.p_max_kpa / 2.0)
            self.pressures = np.broadcast_to(start, (n, N_SEGMENTS, N_CHAMBERS)).copy()
            start_segment = segment_transform_batch(start[:1], params)[0]
            self.segments = np.broadcast_to(start_segment, (N_SEGMENTS, n, 4, 4)).copy()
        else:
            self.codes = np.full((n, N_SEGMENTS), self.lattice.start)
        self.t = 0
        self._observe()

    def __len__(self) -> int:
        return len(self.ids)

    def _observe(self) -> None:
        if self.lattice is None:
            tip = tip_of(*self.segments)
        else:
            t = self.lattice.transforms.take(self.codes, axis=0)
            tip = tip_of(t[:, 0], t[:, 1], t[:, 2], t[:, 3])
        if self.droop_gain is not None:
            # math.hypot, not np.hypot: the two differ in the last bit on some inputs.
            reach = map(math.hypot, tip[:, 0, 1].tolist(), tip[:, 1, 1].tolist())
            tip[:, 2, 1] -= self.droop_gain * np.fromiter(reach, float, len(tip))
        if self.noise is not None:
            tip[:, :, 1] += self.noise[:, self.t]
        self.pos, self.rot, self.state = observe_batch(tip, self.targets, self.frames,
                                                       self.binning)
        self.row = self._base + self.state
        self.done = self.reward_spec.is_success(self.pos, self.rot)

    def step(self, action: np.ndarray) -> None:
        """Apply one action per lane and observe the new tip."""
        lane = self._lane
        seg, move = np.divmod(action, 2 * N_CHAMBERS)
        if self.lattice is None:
            chamber, down = np.divmod(move, 2)
            self.pressures[lane, seg, chamber] = self.action_spec.step(
                self.pressures[lane, seg, chamber], down, self.params.p_max_kpa)
            self.segments[seg, lane] = segment_transform_batch(self.pressures[lane, seg],
                                                               self.params)
        else:
            self.codes[lane, seg] = self.lattice.moves[self.codes[lane, seg], move]
        self.t += 1
        self._observe()

    def configuration(self) -> np.ndarray:
        """(lanes, k) array whose rows are equal exactly where the lanes' arm configurations are.

        On the lattice it is the four segment codes, each below
        LATTICE_MAX_PRESSURES**4 = 65,536, as uint16s packed into one uint64 word;
        past it, the bits of the 16 chamber pressures.
        """
        if self.lattice is None:
            return self.pressures.reshape(len(self), -1).view(np.int64)
        return self.codes.astype(np.uint16).view(np.uint64)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the lanes where ``mask`` is False."""
        if self.lattice is None:
            self.pressures, self.segments = self.pressures[mask], self.segments[:, mask]
        else:
            self.codes = self.codes[mask]
        for name in ("ids", "_base", "targets", "frames", "pos", "rot", "state", "row", "done"):
            setattr(self, name, getattr(self, name)[mask])
        self._lane = np.arange(len(self.ids))
        if self.noise is not None:
            self.noise = self.noise[mask]


# integers(N_ACTIONS) keeps the top log2(N_ACTIONS) bits of a 32-bit draw: for a
# power of two, as qtable asserts N_ACTIONS is, Lemire's method never rejects.
_ACTION_SHIFT = 33 - N_ACTIONS.bit_length()


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

    The lanes are the bins: lane i is slot i of dense (bins, 1024, actions)
    scratch arrays, float32 values and uint8 flags as a table holds them, whose
    occupied rows become the returned table unscanned
    (QTable.from_checked_arrays). _Lanes gives each lane's row and success. Each
    step casts its TD results to float32 before writing them; the first that
    float32 cannot hold finitely, in lane order, raises QTable.update's
    ValueError. Round k runs goals[:, k], one numpy step across all lanes still
    running; a lane that reaches success idles until the round ends. No step log
    is kept. A round starts by reading 2 * max_steps raw words of each lane's
    stream and turning them into its exploring actions (exploration_draws); a
    step takes a lane's drawn action where there is one and its row's argmax
    elsewhere, as select_action does. ``seed`` must pass qtable.check_seed,
    ``max_steps`` be an integer >= 1, and ``bins`` integers (bool refused),
    strictly increasing and inside [0, N_GOAL_BINS), else ValueError before any
    step.
    """
    check_seed(seed)
    check_integers(1, max_steps=max_steps)
    bins = _goal_bin_ids(bins).tolist()
    goals = np.asarray(goals, dtype=float)
    check_goal_bins(bins, goals, rest_tip_origin(params.l0_mm), binning)
    values = np.zeros((len(bins), N_TIP_STATES, N_ACTIONS), dtype=np.float32)
    flags = np.zeros(values.shape, dtype=np.uint8)
    rows = values.reshape(-1, N_ACTIONS)
    flat_values, flat_flags = values.reshape(-1), flags.reshape(-1)
    rs = reward_spec

    # The reward and TD checks below decide on overflow, not numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(goals.shape[1] if bins else 0):
            raw = np.array([
                np.random.PCG64(np.random.SeedSequence((seed, 0, b, k))).random_raw(2 * max_steps)
                for b in bins
            ])
            # Row t: each running lane's step-t draw, and where it explores.
            draws = exploration_draws(raw, hp.epsilon, max_steps).T.copy()
            explore = draws >= 0
            lanes = _Lanes(goals[:, k], np.arange(len(bins)), params=params,
                           action_spec=action_spec, reward_spec=rs, binning=binning)
            succeeded = np.count_nonzero(lanes.done)

            for t in range(max_steps):
                if succeeded:
                    running = ~lanes.done
                    lanes.keep(running)
                    if len(lanes) == 0:
                        break
                    draws, explore = draws[:, running], explore[:, running]
                row = lanes.row
                action = rows.take(row, axis=0).argmax(axis=1)
                np.copyto(action, draws[t], where=explore[t])

                pos, rot = lanes.pos, lanes.rot
                lanes.step(action)
                succeeded = np.count_nonzero(lanes.done)
                reward = (rs.w_p_per_mm * (pos - lanes.pos) + rs.w_r_per_deg * (rot - lanes.rot)
                          - rs.step_penalty)
                if succeeded:
                    reward[lanes.done] += rs.goal_bonus

                # QTable.update, lane by lane: float64 arithmetic, float32 storage.
                # The row's max, read at its argmax: the same value, and the same
                # bits, since a table trained from zero never holds -0.0.
                best = rows[lanes.row, rows.take(lanes.row, axis=0).argmax(axis=1)]
                target = reward + np.multiply(hp.gamma, best, dtype=np.float64)
                entry = row * N_ACTIONS + action
                # float32 to float64 is exact, so mixing them computes in float64.
                old = flat_values.take(entry)
                new = old + hp.alpha * (target - old)
                stored = new.astype(np.float32)  # QTable.update's rule
                fit = np.isfinite(stored)
                # A non-finite reward makes its lane's result non-finite, since
                # alpha > 0, so the reward is checked only when some result is.
                if np.count_nonzero(fit) < len(fit):
                    if np.count_nonzero(np.isfinite(reward)) < len(reward):
                        raise ValueError("reward must be finite")
                    i = int(fit.argmin())
                    slot, tip = np.unravel_index(row[i], values.shape[:2])
                    state = np.ravel_multi_index((bins[slot], tip), (N_GOAL_BINS, N_TIP_STATES))
                    raise ValueError(f"state {state} action {action[i]}: {float(new[i])} "
                                     "not finite in float32")
                flat_values[entry] = stored
                flat_flags[entry] = FLAG_TRAINED  # the only flag training sets

    # Values finite in float32, flags FLAG_TRAINED or 0: nothing to rescan.
    return QTable.from_checked_arrays(np.array(bins, dtype=np.int64), values, flags)
