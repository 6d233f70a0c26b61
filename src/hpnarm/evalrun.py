"""Point-to-point evaluation runs: fixed goals, greedy policy, CSV curves.

Each goal is attempted `repetitions` times with exploration off and the table
frozen, as lanes of one lockstep loop over episode._Lanes, which evaluate runs
itself: one lane per (goal, repetition) on a perturbed plant that draws
observation noise, one per goal on the deterministic nominal plant (or a
noise-free perturbed one), whose repetitions are identical and which stops at
its first return to an arm configuration.
Error curves are padded to a common length by holding the final value so
early successes still average cleanly (a locked episode's curve continues its
cycle), then written as per-goal CSVs plus one aggregate CSV (mean curve over
all goals).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .episode import (
    SECONDS_PER_STEP,
    PerturbedPlant,
    PerturbedPlantConfig,
    RewardSpec,
    _Lanes,
    noise_generator,
)
from .kinematics import ArmParams, tip_batch
from .qtable import N_ACTIONS, ActionSpec, HyperParams, QTable, check_integers, check_seed
from .state import BinningSpec, GoalPose, encode_goal_prefix_batch, rest_tip_origin

EVAL_CSV_COLUMNS = ("step", "time_s", "pos_error_mm", "rot_error_deg")


def sample_goals(params: ArmParams, n: int, rng: np.random.Generator) -> list[GoalPose]:
    """Draw n reachable goal poses: FK images of random pressure vectors.

    ``n`` must be an integer >= 1 (int or numpy integer, not bool), else ValueError.
    """
    check_integers(1, n=n)
    pressures = rng.uniform(0.0, params.p_max_kpa, size=(n, 16))
    positions, directions = tip_batch(pressures, params)
    return [
        GoalPose(position=positions[i].copy(), direction=directions[i].copy())
        for i in range(n)
    ]


@dataclass(frozen=True)
class GoalResult:
    """All repetitions of one goal: padded error curves plus per-rep outcomes.

    The three selection counts say on what kind of row the greedy policy
    chose its actions, summed over the repetitions: a row holding a trained
    entry, a row holding only augmented entries, or an empty row, where the
    all-zero tie-break always picks action 0.

    ``lock_step`` is the step at which the goal's episode first returned to
    an arm configuration it held ``lock_period`` steps before; from there it
    repeats that cycle to the step limit. A period of 1 is an action that
    pushes a chamber against its bound and so changes nothing; a period of 2
    moves one chamber up and back down. Both are None where the episode
    never returned, or the plant draws noise, so that no such lock is known.
    """

    goal: GoalPose
    pos_series: np.ndarray  # (repetitions, max_steps+1)
    rot_series: np.ndarray
    success: np.ndarray  # (repetitions,)
    trained_selections: int = 0
    augmented_selections: int = 0
    empty_selections: int = 0
    lock_step: int | None = None
    lock_period: int | None = None

    @property
    def final_pos_mm(self) -> np.ndarray:
        """Each repetition's positional error at the last step: the series' last column."""
        return self.pos_series[:, -1]

    @property
    def final_rot_deg(self) -> np.ndarray:
        return self.rot_series[:, -1]

    def start_pos_mm(self) -> float:
        """Positional error at step 0, averaged over repetitions: the hold-still baseline."""
        return float(self.pos_series[:, 0].mean())

    def mean_pos_series(self) -> np.ndarray:
        return self.pos_series.mean(axis=0)

    def mean_rot_series(self) -> np.ndarray:
        return self.rot_series.mean(axis=0)

    def reaches(self, threshold_mm: float) -> bool:
        """Did the repetition-mean error curve ever drop below the threshold?"""
        return bool(self.mean_pos_series().min() < threshold_mm)

    def steps_to(self, threshold_mm: float) -> int | None:
        below = np.nonzero(self.mean_pos_series() < threshold_mm)[0]
        return int(below[0]) if below.size else None


@dataclass(frozen=True)
class EvalReport:
    label: str
    plant_kind: str
    results: tuple[GoalResult, ...]
    repetitions: int
    max_steps: int

    def final_pos_errors(self) -> np.ndarray:
        """Per-goal final positional error, averaged over repetitions."""
        return np.array([r.final_pos_mm.mean() for r in self.results])

    def final_rot_errors(self) -> np.ndarray:
        return np.array([r.final_rot_deg.mean() for r in self.results])

    def median_final_pos_mm(self) -> float:
        return float(np.median(self.final_pos_errors()))

    def mean_final_pos_mm(self) -> float:
        return float(self.final_pos_errors().mean())

    def median_final_rot_deg(self) -> float:
        return float(np.median(self.final_rot_errors()))

    def median_start_pos_mm(self) -> float:
        """Median over goals of the step-0 error, which holding still would keep."""
        return float(np.median([r.start_pos_mm() for r in self.results]))

    def selection_counts(self) -> tuple[int, int, int]:
        """Action selections on trained, augmented-only and empty rows, over all goals."""
        return (sum(r.trained_selections for r in self.results),
                sum(r.augmented_selections for r in self.results),
                sum(r.empty_selections for r in self.results))

    def goals_reaching(self, threshold_mm: float) -> int:
        return sum(r.reaches(threshold_mm) for r in self.results)

    def mean_steps_to(self, threshold_mm: float) -> float | None:
        """Mean steps to threshold over the goals that reach it at all."""
        steps = [s for r in self.results if (s := r.steps_to(threshold_mm)) is not None]
        return float(np.mean(steps)) if steps else None

    def summary(self, threshold_mm: float = 30.0) -> str:
        reached = self.goals_reaching(threshold_mm)
        lines = [
            f"controller: {self.label}",
            f"plant: {self.plant_kind}",
            f"goals: {len(self.results)}",
            f"repetitions per goal: {self.repetitions}",
            f"median start (hold) positional error: {self.median_start_pos_mm():.2f} mm",
            f"median final positional error: {self.median_final_pos_mm():.2f} mm",
            f"mean final positional error: {self.mean_final_pos_mm():.2f} mm",
            f"median final rotational error: {self.median_final_rot_deg():.2f} deg",
            f"goals reaching {threshold_mm:g} mm: {reached} of {len(self.results)}",
        ]
        counts = self.selection_counts()
        total = sum(counts)
        if total:
            trained, augmented, empty = (100.0 * c / total for c in counts)
            lines.append(f"rows selected on: {trained:.1f}% trained, {augmented:.1f}% "
                         f"augmented only, {empty:.1f}% empty (of {total} selections)")
        locked = [r for r in self.results if r.lock_step is not None]
        if locked:
            periods = [r.lock_period for r in locked]
            short = periods.count(1), periods.count(2)
            lines.append(f"{len(locked)} of {len(self.results)} goals lock by step "
                         f"{max(r.lock_step for r in locked)}: {short[0]} on a saturated "
                         f"action (period 1), {short[1]} oscillating (period 2), "
                         f"{len(locked) - sum(short)} on longer cycles (period 3 or more)")
        steps = self.mean_steps_to(threshold_mm)
        if steps is not None:
            lines.append(
                f"mean steps to {threshold_mm:g} mm: {steps:.1f}"
                f" ({steps * SECONDS_PER_STEP:.0f} s)"
            )
        return "\n".join(lines)


def perturbed_plant(params: ArmParams, cfg: PerturbedPlantConfig, seed: int) -> PerturbedPlant:
    """The perturbed plant evaluate(seed=seed) runs on: its plant seed is derived from ``seed``."""
    return PerturbedPlant(
        params, cfg, seed=int(np.random.SeedSequence((seed, 3)).generate_state(1)[0])
    )


def evaluate(
    table: QTable | None,
    goals: Sequence[GoalPose],
    *,
    params: ArmParams,
    hp: HyperParams | None = None,
    action_spec: ActionSpec,
    reward_spec: RewardSpec,
    binning: BinningSpec,
    plant_kind: str = "nominal",
    perturbed_cfg: PerturbedPlantConfig | None = None,
    repetitions: int = 3,
    max_steps: int = 200,
    seed: int = 0,
    label: str | None = None,
) -> EvalReport:
    """Evaluate a table (or a zero-initialized one when None) greedily on fixed goals.

    Every (goal, repetition) episode runs with learning off, all as lanes of
    one lockstep loop (episode._Lanes); the table is only read. Repetition
    rep of goal i is, bit for bit, the episode run_episode(train=False) would
    run on NominalPlant(params), or for plant_kind "perturbed" on
    PerturbedPlant(params, perturbed_cfg, plant_seed, (i, rep)): one plant
    seed, derived from ``seed``, fixes the gain scales for the whole run, and
    each episode draws observation noise from its own stream, keyed by that
    seed, the goal index and the repetition. So repetitions differ, and a
    goal's result does not depend on the other goals evaluated with it. On a
    plant that draws no noise (the nominal one, or a perturbed one with
    tip_noise_sigma_mm 0) greedy selection draws nothing either, so all
    repetitions of a goal are the same episode: it runs once, as one lane,
    and is copied.

    Each distinct goal bin's dense value rows and row kinds are read once
    (QTable.bin_rows, 128 KiB of values a bin); an action without an entry
    reads 0, and a state without one counts as empty. Each step takes the
    argmax of every lane's row (_Lanes.row, by its goal's bin slot), ties to
    the lowest action id, as train_lockstep does. A lane that reaches
    success (_Lanes.done) drops out.

    A noise-free lane's next arm configuration (_Lanes.configuration) is a
    function of its current one, so once it returns at step t to a
    configuration it first held at step t0, it repeats steps t0 .. t - 1
    with period p = t - t0 to the step limit, without reaching success (those
    poses were scored already). It stops stepping there, and the goal's
    lock_step and lock_period record t and p.

    An episode that ends at step t, by success or by such a lock, is padded
    to max_steps + 1 steps by one rule: its series at each step s > t, and
    its row kind at each step s >= t, read step t0 + (s - t0) % p, where
    t0 = t and p = 1 unless it locked. So a locked curve continues its cycle,
    and one that succeeded holds its last value and selects nothing more.
    An episode succeeded where its lane was done when it ended.

    ``seed`` must pass qtable.check_seed, ``plant_kind`` be "nominal" or
    "perturbed", ``repetitions`` and ``max_steps`` integers >= 1, and ``goals``
    not empty, checked in that order, else ValueError before any lane is built.

    ``hp`` is ignored, since greedy evaluation reads no hyperparameter; the
    keyword stays only because the benchmark harness (perfbench/layers.py)
    still passes it.
    """
    check_seed(seed)
    if plant_kind not in ("nominal", "perturbed"):
        raise ValueError(f"unknown plant kind {plant_kind!r}")
    check_integers(1, repetitions=repetitions, max_steps=max_steps)
    if not len(goals):
        raise ValueError("need at least one goal")
    if table is None:
        table = QTable()
        if label is None:
            label = "zero-init"
    elif label is None:
        label = "table"

    goal_poses = np.array([np.concatenate([g.position, g.direction]) for g in goals])
    goal_bins = encode_goal_prefix_batch(goal_poses[:, :3], goal_poses[:, 3:],
                                         rest_tip_origin(params.l0_mm), binning)
    # The value rows and row kinds of each distinct goal bin, read once; a
    # goal's slot is its bin's place among them.
    used, goal_slot = np.unique(goal_bins, return_inverse=True)
    rows, kind = table.bin_rows(used)
    rows, kind = rows.reshape(-1, N_ACTIONS), kind.reshape(-1)

    length = max_steps + 1
    fk_params, droop_gain, noise = params, None, None
    if plant_kind == "perturbed":
        cfg = perturbed_cfg if perturbed_cfg is not None else PerturbedPlantConfig()
        plant = perturbed_plant(params, cfg, seed)
        fk_params, droop_gain = plant.true_params, cfg.droop_gain
        sigma = cfg.tip_noise_sigma_mm
        if sigma > 0.0:  # as in PerturbedPlant.apply, which then draws nothing
            noise = np.array([
                noise_generator(plant.seed, (g, rep)).normal(0.0, sigma, (length, 3))
                for g in range(len(goals)) for rep in range(repetitions)
            ])
    copies = repetitions if noise is None else 1
    lane_reps = repetitions // copies  # lanes per goal
    n = len(goals) * lane_reps
    lanes = _Lanes(goal_poses, goal_slot, params=fk_params, action_spec=action_spec,
                   reward_spec=reward_spec, binning=binning, repetitions=lane_reps,
                   droop_gain=droop_gain, noise=noise)

    # The loop only records: the series, each selection's row kind (-1 where
    # none), the step each episode ended at (``last``) and, for a lock, the
    # step that began its cycle (``start``); max_steps where neither happened.
    pos, rot = np.empty((2, n, length))
    kinds = np.full((n, max_steps), -1, dtype=np.int8)
    last, start = np.full((2, n), max_steps)
    pos[:, 0], rot[:, 0] = lanes.pos, lanes.rot
    ended = lanes.done
    if noise is None:
        # Each lane's configuration at every step so far.
        config = lanes.configuration()
        held = np.empty((n, length, config.shape[1]), dtype=config.dtype)
        held[:, 0] = config
    for step in range(1, length):
        if np.count_nonzero(ended):
            last[lanes.ids[ended]] = step - 1
            lanes.keep(~ended)
            if len(lanes) == 0:
                break
        ids, row = lanes.ids, lanes.row
        kinds[ids, step - 1] = kind.take(row)
        lanes.step(rows.take(row, axis=0).argmax(axis=1))
        pos[ids, step], rot[ids, step] = lanes.pos, lanes.rot
        ended = lanes.done
        if noise is None:
            config = lanes.configuration()
            seen = (held[ids, :step] == config[:, None]).all(axis=2)
            held[ids, step] = config
            locked = seen.any(axis=1)
            if np.count_nonzero(locked):
                start[ids[locked]] = seen[locked].argmax(axis=1)
                ended = ended | locked  # a new array: lanes.done must stay success only

    # The padding rule of the docstring.
    locked = start < last
    period = np.where(locked, last - start, 1)
    start = np.minimum(start, last)[:, None]
    steps = np.arange(length)
    cycle = start + (steps - start) % period[:, None]
    after = steps > last[:, None]
    pos, rot = (np.take_along_axis(x, np.where(after, cycle, steps), axis=1) for x in (pos, rot))
    kinds = np.take_along_axis(kinds, np.where(after[:, 1:], cycle[:, :-1], steps[:-1]), axis=1)
    success = (last < max_steps) & ~locked  # ended early, and not by a lock
    success[lanes.ids] = lanes.done  # the lanes still running at the step limit

    # Goal i's lanes are rows i * lane_reps onward, each copied to ``copies`` repetitions.
    shape = (len(goals), lane_reps)
    pos, rot = (np.repeat(x.reshape(shape + (length,)), copies, axis=1) for x in (pos, rot))
    success = np.repeat(success.reshape(shape), copies, axis=1)
    selections = (kinds.reshape(len(goals), -1, 1) == np.arange(3)).sum(axis=1) * copies
    results = []
    for i, goal in enumerate(goals):
        lane = i * lane_reps  # only a noise-free goal locks, and it has one lane
        results.append(GoalResult(
            goal=goal, pos_series=pos[i], rot_series=rot[i], success=success[i],
            trained_selections=int(selections[i, 0]),
            augmented_selections=int(selections[i, 1]),
            empty_selections=int(selections[i, 2]),
            lock_step=int(last[lane]) if locked[lane] else None,
            lock_period=int(period[lane]) if locked[lane] else None,
        ))
    return EvalReport(
        label=label, plant_kind=plant_kind, results=tuple(results),
        repetitions=repetitions, max_steps=max_steps,
    )


def write_report_csvs(report: EvalReport, out_dir) -> list[Path]:
    """One CSV per goal plus aggregate.csv; returns the paths written.

    Each goal's mean series is computed once, and the aggregate is the mean
    of those same arrays over the goals.
    The header, step and time cells are rendered once, into one %-template
    per call, so a file formats only its two error columns.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pos_means = [r.mean_pos_series() for r in report.results]
    rot_means = [r.mean_rot_series() for r in report.results]
    names = [f"goal_{i:02d}.csv" for i in range(len(pos_means))] + ["aggregate.csv"]
    pos_means.append(np.mean(pos_means, axis=0))
    rot_means.append(np.mean(rot_means, axis=0))
    template = ",".join(EVAL_CSV_COLUMNS) + "\n" + "".join(
        f"{step},{step * SECONDS_PER_STEP:.1f},%.6f,%.6f\n" for step in range(len(pos_means[0]))
    )
    paths = []
    for name, pos, rot in zip(names, pos_means, rot_means):
        path = out / name
        path.write_text(template % tuple(np.column_stack((pos, rot)).ravel().tolist()),
                        encoding="utf-8")
        paths.append(path)
    return paths
