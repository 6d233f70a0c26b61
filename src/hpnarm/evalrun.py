"""Point-to-point evaluation runs: fixed goals, greedy policy, CSV curves.

Each goal is attempted `repetitions` times with exploration off and the table
frozen, as lanes of one episode.greedy_lockstep call: one lane per (goal,
repetition) on a perturbed plant that draws observation noise, one per goal on
the deterministic nominal plant (or a noise-free perturbed one), whose
repetitions are identical and which stops at its first return to an arm
configuration.
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
    greedy_lockstep,
)
from .kinematics import ArmParams, tip_batch
from .qtable import ActionSpec, HyperParams, QTable, check_integers
from .state import BinningSpec, GoalPose

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
    final_pos_mm: np.ndarray  # (repetitions,)
    final_rot_deg: np.ndarray
    success: np.ndarray
    trained_selections: int = 0
    augmented_selections: int = 0
    empty_selections: int = 0
    lock_step: int | None = None
    lock_period: int | None = None

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
    """Evaluate a table (or a zero-initialized one when None) on fixed goals.

    Episodes run greedily with learning off, as lanes of one
    episode.greedy_lockstep call; the table is never written. Where the
    plant draws no noise, an episode stops at its first return to an arm
    configuration and its curve continues that cycle, as run_episode's
    would; each GoalResult records the lock. On the perturbed plant the
    gain scales come from one seed, derived from ``seed``, for the whole
    run, and each (goal, repetition) episode draws observation noise from
    its own stream, keyed by that seed, the goal index and the repetition:
    repetitions differ, and a goal's result does not depend on the other
    goals evaluated with it.

    ``seed`` must be an integer (int or numpy integer, not bool) >= 0 and
    ``plant_kind`` "nominal" or "perturbed", else ValueError here;
    greedy_lockstep refuses an empty goal list and ``repetitions`` or
    ``max_steps`` that are not integers >= 1, before any step.

    ``hp`` is ignored, since greedy evaluation reads no hyperparameter; the
    keyword stays only because the benchmark harness (perfbench/layers.py)
    still passes it.
    """
    check_integers(0, seed=seed)
    if plant_kind not in ("nominal", "perturbed"):
        raise ValueError(f"unknown plant kind {plant_kind!r}")
    if table is None:
        table = QTable()
        if label is None:
            label = "zero-init"
    elif label is None:
        label = "table"

    plant = None
    if plant_kind == "perturbed":
        cfg = perturbed_cfg if perturbed_cfg is not None else PerturbedPlantConfig()
        plant = PerturbedPlant(
            params, cfg, seed=int(np.random.SeedSequence((seed, 3)).generate_state(1)[0])
        )
    runs = greedy_lockstep(
        table, goals, repetitions=repetitions, params=params, action_spec=action_spec,
        reward_spec=reward_spec, binning=binning, max_steps=max_steps, plant=plant,
    )
    results = tuple(
        GoalResult(
            goal=goal, pos_series=runs.pos[i], rot_series=runs.rot[i],
            final_pos_mm=runs.pos[i, :, -1], final_rot_deg=runs.rot[i, :, -1],
            success=runs.success[i],
            trained_selections=int(runs.selections[i, 0]),
            augmented_selections=int(runs.selections[i, 1]),
            empty_selections=int(runs.selections[i, 2]),
            lock_step=None if runs.lock_step[i] < 0 else int(runs.lock_step[i]),
            lock_period=None if runs.lock_period[i] < 0 else int(runs.lock_period[i]),
        )
        for i, goal in enumerate(goals)
    )
    return EvalReport(
        label=label, plant_kind=plant_kind, results=results,
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
